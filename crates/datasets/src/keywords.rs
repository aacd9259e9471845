//! Keyword planting at exact keyword frequencies (KWF).
//!
//! The paper's Tables II–V sweep the *keyword frequency*: the fraction of
//! database tuples containing a query keyword (.0003 … .0015). The real
//! datasets have organic frequencies; our synthetic substitutes plant each
//! benchmark keyword into exactly `round(kwf · total_tuples)` title-bearing
//! tuples, so the KWF axis of Figs. 9–11 is exact rather than approximate.

use comm_graph::SplitMix64;

/// A keyword to plant and its target frequency.
#[derive(Clone, Debug)]
pub struct PlantSpec {
    /// The keyword token (must not collide with filler vocabulary).
    pub keyword: String,
    /// Target fraction of *all* tuples containing the keyword.
    pub kwf: f64,
    /// Optional topic cluster the keyword concentrates in. Real titles are
    /// topically correlated ("database", "optimization" co-occur in the
    /// same sub-community of authors); planting uniformly at random would
    /// make multi-keyword communities vanishingly rare at small scale.
    pub topic: Option<usize>,
}

/// Plants keywords into a set of title strings.
///
/// `titles` are the mutable titles of the title-bearing tuples (papers /
/// movies); `total_tuples` is the whole database's tuple count, the KWF
/// denominator. Each keyword is appended to `round(kwf · total_tuples)`
/// distinct titles (a title may host several different keywords).
///
/// For a spec with a `topic`, a `co_bias` fraction of its plantings first
/// target titles that already host another keyword of the *same topic*
/// (keyword co-occurrence — "database support environment" is one title),
/// then a `topic_bias` fraction goes to titles whose `title_topics` entry
/// matches, and the remainder is uniform. With `topic: None` (or an empty
/// `title_topics`), planting is uniform.
/// Panics if a keyword needs more host titles than exist.
pub fn plant_keywords(
    titles: &mut [String],
    title_topics: &[usize],
    topic_bias: f64,
    co_bias: f64,
    total_tuples: usize,
    specs: &[PlantSpec],
    seed: u64,
) {
    assert!(title_topics.is_empty() || title_topics.len() == titles.len());
    let mut rng = SplitMix64::new(seed ^ 0x9e37_79b9_7f4a_7c15);
    // Titles already hosting some keyword, per topic cluster.
    let mut hosts_by_topic: std::collections::HashMap<usize, Vec<usize>> =
        std::collections::HashMap::new();
    for spec in specs {
        let want = (spec.kwf * total_tuples as f64).round() as usize;
        assert!(
            want <= titles.len(),
            "keyword {:?} at kwf {} needs {} host titles but only {} exist",
            spec.keyword,
            spec.kwf,
            want,
            titles.len()
        );
        let mut chosen: Vec<usize> = Vec::with_capacity(want);
        let mut chosen_set: std::collections::HashSet<usize> =
            std::collections::HashSet::with_capacity(want);
        let push = |chosen: &mut Vec<usize>,
                    chosen_set: &mut std::collections::HashSet<usize>,
                    i: usize| {
            if chosen_set.insert(i) {
                chosen.push(i);
            }
        };
        if let (Some(topic), false) = (spec.topic, title_topics.is_empty()) {
            // 1. Co-occurrence plantings on earlier same-topic hosts.
            if let Some(prior) = hosts_by_topic.get(&topic) {
                let co_n = ((want as f64) * co_bias).round() as usize;
                let mut order = prior.clone();
                rng.shuffle(&mut order);
                for i in order {
                    if chosen.len() >= co_n {
                        break;
                    }
                    push(&mut chosen, &mut chosen_set, i);
                }
            }
            // 2. Topical plantings.
            let in_topic: Vec<usize> = (0..titles.len())
                .filter(|&i| title_topics[i] == topic)
                .collect();
            let topical = (((want as f64) * topic_bias).round() as usize).min(want);
            let mut order = in_topic;
            rng.shuffle(&mut order);
            for i in order {
                if chosen.len() >= topical {
                    break;
                }
                push(&mut chosen, &mut chosen_set, i);
            }
        }
        // 3. Uniform remainder.
        let mut order: Vec<usize> = (0..titles.len()).collect();
        rng.shuffle(&mut order);
        for &i in &order {
            if chosen.len() >= want {
                break;
            }
            push(&mut chosen, &mut chosen_set, i);
        }
        for &i in &chosen {
            titles[i].push(' ');
            titles[i].push_str(&spec.keyword);
        }
        if let Some(topic) = spec.topic {
            hosts_by_topic.entry(topic).or_default().extend(&chosen);
        }
    }
}

/// Filler vocabulary for synthetic titles — deliberately disjoint from
/// every benchmark keyword in `workload`.
pub const FILLER_WORDS: [&str; 24] = [
    "toward",
    "analysis",
    "framework",
    "study",
    "novel",
    "efficient",
    "approach",
    "method",
    "evaluation",
    "using",
    "design",
    "implementation",
    "technique",
    "results",
    "aspects",
    "principles",
    "perspective",
    "survey",
    "revisited",
    "notes",
    "theory",
    "practice",
    "advances",
    "foundations",
];

/// Generates a filler title of 2–6 words.
pub fn filler_title(rng: &mut SplitMix64) -> String {
    let len = 2 + rng.index(5);
    let mut out = String::new();
    for i in 0..len {
        if i > 0 {
            out.push(' ');
        }
        out.push_str(FILLER_WORDS[rng.index(FILLER_WORDS.len())]);
    }
    out
}

/// Samples an index in `0..weights.len()` proportional to `weights + 1`
/// (preferential attachment with add-one smoothing).
pub fn preferential_pick(rng: &mut SplitMix64, weights: &[u32], total_plus_n: u64) -> usize {
    debug_assert!(total_plus_n >= weights.len() as u64);
    let mut t = rng.below(total_plus_n);
    for (i, &w) in weights.iter().enumerate() {
        let slot = u64::from(w) + 1;
        if t < slot {
            return i;
        }
        t -= slot;
    }
    weights.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plants_exact_counts() {
        let mut titles: Vec<String> = (0..1000).map(|i| format!("title {i}")).collect();
        let specs = vec![
            PlantSpec {
                keyword: "database".into(),
                kwf: 0.0009,
                topic: None,
            },
            PlantSpec {
                keyword: "fuzzy".into(),
                kwf: 0.0003,
                topic: None,
            },
        ];
        plant_keywords(&mut titles, &[], 0.0, 0.0, 10_000, &specs, 7);
        let count = |kw: &str| {
            titles
                .iter()
                .filter(|t| t.split(' ').any(|w| w == kw))
                .count()
        };
        assert_eq!(count("database"), 9);
        assert_eq!(count("fuzzy"), 3);
    }

    #[test]
    fn planting_is_deterministic() {
        let mk = || {
            let mut titles: Vec<String> = (0..50).map(|i| format!("t{i}")).collect();
            plant_keywords(
                &mut titles,
                &[],
                0.0,
                0.0,
                100,
                &[PlantSpec {
                    keyword: "x".into(),
                    kwf: 0.1,
                    topic: None,
                }],
                42,
            );
            titles
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    #[should_panic(expected = "host titles")]
    fn overflow_rejected() {
        let mut titles = vec![String::from("only one")];
        plant_keywords(
            &mut titles,
            &[],
            0.0,
            0.0,
            1000,
            &[PlantSpec {
                keyword: "x".into(),
                kwf: 0.5,
                topic: None,
            }],
            1,
        );
    }

    #[test]
    fn filler_never_collides_with_benchmark_keywords() {
        use crate::workload::{DBLP_KEYWORD_GROUPS, IMDB_KEYWORD_GROUPS};
        for group in DBLP_KEYWORD_GROUPS.iter().chain(IMDB_KEYWORD_GROUPS) {
            for kw in group.keywords {
                assert!(
                    !FILLER_WORDS.contains(kw),
                    "benchmark keyword {kw:?} collides with filler vocabulary"
                );
            }
        }
    }

    #[test]
    fn topical_planting_concentrates() {
        let n = 1000;
        let mut titles: Vec<String> = (0..n).map(|i| format!("t{i}")).collect();
        let topics: Vec<usize> = (0..n).map(|i| i % 10).collect();
        plant_keywords(
            &mut titles,
            &topics,
            0.8,
            0.0,
            10_000,
            &[PlantSpec {
                keyword: "clustered".into(),
                kwf: 0.005, // 50 plantings
                topic: Some(3),
            }],
            9,
        );
        let hosts: Vec<usize> = (0..n)
            .filter(|&i| titles[i].split(' ').any(|w| w == "clustered"))
            .collect();
        assert_eq!(hosts.len(), 50);
        let in_topic = hosts.iter().filter(|&&i| topics[i] == 3).count();
        assert!(in_topic >= 40, "only {in_topic}/50 in topic");
    }

    #[test]
    fn co_occurrence_stacks_keywords() {
        let n = 2000;
        let mut titles: Vec<String> = (0..n).map(|i| format!("t{i}")).collect();
        let topics: Vec<usize> = (0..n).map(|i| i % 4).collect();
        let spec = |kw: &str| PlantSpec {
            keyword: kw.into(),
            kwf: 0.02, // 40 plantings each
            topic: Some(1),
        };
        plant_keywords(
            &mut titles,
            &topics,
            0.9,
            0.5,
            2000,
            &[spec("alpha"), spec("beta"), spec("gammaa")],
            11,
        );
        let both = titles
            .iter()
            .filter(|t| {
                let words: Vec<&str> = t.split(' ').collect();
                words.contains(&"alpha") && words.contains(&"beta")
            })
            .count();
        assert!(both >= 10, "only {both} co-occurrences");
    }

    #[test]
    fn preferential_pick_in_range() {
        let mut rng = SplitMix64::new(1);
        let weights = [0, 5, 1];
        let total: u64 = weights.iter().map(|&w| u64::from(w) + 1).sum();
        let mut histogram = [0usize; 3];
        for _ in 0..3000 {
            histogram[preferential_pick(&mut rng, &weights, total)] += 1;
        }
        // Index 1 (weight 5+1=6) should dominate index 0 (weight 1).
        assert!(histogram[1] > histogram[0] * 2);
        assert!(histogram.iter().all(|&h| h > 0));
    }

    #[test]
    fn filler_title_shape() {
        let mut rng = SplitMix64::new(3);
        for _ in 0..100 {
            let t = filler_title(&mut rng);
            let words = t.split(' ').count();
            assert!((2..=6).contains(&words), "bad title {t:?}");
        }
    }
}
