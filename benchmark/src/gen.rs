//! Seeded input generators: the two graph families and their vocabularies.
//!
//! Everything random comes from one splitmix64 stream seeded by `--seed`;
//! the engine only ever sees the generated edge list and keyword → node
//! map. Both families are FK-bidirected tuple graphs with the paper's
//! weight `w(u, v) = log2(1 + N_in(v))`.

use comm_graph::NodeId;
use std::collections::HashMap;

/// splitmix64: tiny, fast, and good enough to drive a generator.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// An independent stream for one purpose (`tag`), so adding draws to
    /// one part of a generator does not shift every other part.
    pub fn fork(&self, tag: u64) -> Rng {
        let mut r = Rng(self.0 ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }
}

/// Table III / Table V keyword frequencies, one keyword group each.
pub const KWFS: [f64; 5] = [0.0003, 0.0006, 0.0009, 0.0012, 0.0015];
/// Keywords per KWF group: enough that hundreds of distinct sets exist.
pub const KEYWORDS_PER_GROUP: usize = 12;

/// The name of keyword `j` of KWF group `g`.
pub fn keyword(g: usize, j: usize) -> String {
    format!("k{}x{:02}", (KWFS[g] * 10_000.0).round() as u32, j)
}

/// A generated database graph: what the engine is built from.
pub struct Dataset {
    pub nodes: usize,
    /// Directed weighted edges (both directions of every FK reference).
    pub edges: Vec<(u32, u32, f64)>,
    /// Keyword → sorted nodes containing it.
    pub vocab: HashMap<String, Vec<NodeId>>,
}

/// Parameters of the DBLP-shaped family.
#[derive(Clone, Copy, Debug)]
pub struct BibConfig {
    pub authors: usize,
    pub papers: usize,
}

impl BibConfig {
    /// ≈ 400K tuples, ≈ 970K directed edges.
    pub const FULL: BibConfig = BibConfig {
        authors: 60_000,
        papers: 100_000,
    };
    /// The quarter-size instance the daemon workload serves.
    pub const QUARTER: BibConfig = BibConfig {
        authors: 15_000,
        papers: 25_000,
    };
}

/// Research topics, at every size: a keyword is planted on a fixed share
/// of all tuples, so a fixed topic count keeps its density inside its
/// topic — and with it how many communities a same-topic query has — the
/// same on the quarter-size graph as on the full one.
const TOPICS: usize = 40;
/// Mean co-authors beyond the first (DBLP: 2.46 authors per paper).
const EXTRA_AUTHORS_MEAN: f64 = 1.3;
/// Citations per paper (DBLP: 112K / 986K).
const CITE_RATIO: f64 = 0.114;
/// Share of co-author / citation / keyword choices kept inside the topic.
const TOPIC_BIAS: f64 = 0.85;
/// Share of a keyword's in-topic plantings stacked onto papers that
/// already host a keyword of the same topic (title co-occurrence).
const CO_OCCURRENCE: f64 = 0.4;

/// Turns tuple references into the bidirected, in-degree-weighted edge list.
fn weigh(nodes: usize, refs: &[(u32, u32)]) -> Vec<(u32, u32, f64)> {
    let mut in_degree = vec![0u32; nodes];
    for &(u, v) in refs {
        in_degree[u as usize] += 1;
        in_degree[v as usize] += 1;
    }
    let w = |v: u32| (1.0 + f64::from(in_degree[v as usize])).log2();
    let mut edges = Vec::with_capacity(refs.len() * 2);
    for &(u, v) in refs {
        edges.push((u, v, w(v)));
        edges.push((v, u, w(u)));
    }
    edges
}

/// Small-mean Poisson draw (Knuth).
fn poisson(rng: &mut Rng, mean: f64) -> usize {
    let limit = (-mean).exp();
    let (mut k, mut p) = (0usize, rng.unit());
    while p > limit && k < 32 {
        k += 1;
        p *= rng.unit();
    }
    k
}

/// Tops `chosen` up to `want` items drawn from `pool` in shuffled order,
/// skipping any already `taken`.
fn pick_distinct(
    rng: &mut Rng,
    chosen: &mut Vec<usize>,
    want: usize,
    pool: &[usize],
    taken: &mut [bool],
) {
    let mut order: Vec<usize> = pool.to_vec();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i + 1));
    }
    for i in order {
        if chosen.len() >= want {
            break;
        }
        if !taken[i] {
            taken[i] = true;
            chosen.push(i);
        }
    }
}

/// The DBLP-shaped family: Author / Paper / Write / Cite tuples. Authors
/// are chosen preferentially (long-tailed papers per author), co-authors
/// and citations stay in the first author's topic with probability
/// [`TOPIC_BIAS`], and keyword `j` of every KWF group concentrates in
/// topic `j`'s papers, so same-`j` keyword sets have communities.
pub fn bib(cfg: BibConfig, seed: u64) -> Dataset {
    let root = Rng::new(seed);
    let mut rng = root.fork(1);
    let topics = TOPICS.min(cfg.papers);
    let author_topic = |a: usize| a % topics;

    // Urns hold one entry per author plus one per paper written, so a
    // uniform draw from an urn is a preferential draw over authors.
    let mut urn: Vec<u32> = (0..cfg.authors as u32).collect();
    let mut topic_urn: Vec<Vec<u32>> = vec![Vec::new(); topics];
    for a in 0..cfg.authors {
        topic_urn[author_topic(a)].push(a as u32);
    }
    let mut writes: Vec<(usize, usize)> = Vec::new();
    let mut paper_topic: Vec<usize> = Vec::with_capacity(cfg.papers);
    for paper in 0..cfg.papers {
        let first = urn[rng.below(urn.len())] as usize;
        let topic = author_topic(first);
        let count = (1 + poisson(&mut rng, EXTRA_AUTHORS_MEAN)).min(8);
        let mut chosen = vec![first];
        for _ in 1..count {
            let a = if rng.chance(TOPIC_BIAS) {
                topic_urn[topic][rng.below(topic_urn[topic].len())]
            } else {
                urn[rng.below(urn.len())]
            } as usize;
            if !chosen.contains(&a) {
                chosen.push(a);
            }
        }
        paper_topic.push(topic);
        for a in chosen {
            urn.push(a as u32);
            topic_urn[author_topic(a)].push(a as u32);
            writes.push((a, paper));
        }
    }

    let mut papers_of_topic: Vec<Vec<usize>> = vec![Vec::new(); topics];
    for (p, &t) in paper_topic.iter().enumerate() {
        papers_of_topic[t].push(p);
    }
    let cite_count = (cfg.papers as f64 * CITE_RATIO).round() as usize;
    let mut cites: Vec<(usize, usize)> = Vec::with_capacity(cite_count);
    while cites.len() < cite_count {
        let a = rng.below(cfg.papers);
        let b = if rng.chance(TOPIC_BIAS) {
            let peers = &papers_of_topic[paper_topic[a]];
            peers[rng.below(peers.len())]
        } else {
            rng.below(cfg.papers)
        };
        if a != b {
            cites.push((a, b));
        }
    }

    // Node ids: authors, papers, write tuples, cite tuples.
    let paper_base = cfg.authors;
    let write_base = paper_base + cfg.papers;
    let cite_base = write_base + writes.len();
    let nodes = cite_base + cites.len();
    let mut refs: Vec<(u32, u32)> = Vec::with_capacity(2 * (writes.len() + cites.len()));
    for (i, &(a, p)) in writes.iter().enumerate() {
        refs.push(((write_base + i) as u32, a as u32));
        refs.push(((write_base + i) as u32, (paper_base + p) as u32));
    }
    for (i, &(a, b)) in cites.iter().enumerate() {
        refs.push(((cite_base + i) as u32, (paper_base + a) as u32));
        refs.push(((cite_base + i) as u32, (paper_base + b) as u32));
    }

    // Keywords on papers, at exactly round(kwf * nodes) papers each.
    let mut rng = root.fork(2);
    let all_papers: Vec<usize> = (0..cfg.papers).collect();
    let mut hosts_of_topic: Vec<Vec<usize>> = vec![Vec::new(); topics];
    let mut vocab = HashMap::new();
    for (g, &kwf) in KWFS.iter().enumerate() {
        for j in 0..KEYWORDS_PER_GROUP {
            let want = (kwf * nodes as f64).round() as usize;
            let home = j * topics / KEYWORDS_PER_GROUP;
            let in_topic = (want as f64 * TOPIC_BIAS).round() as usize;
            let stacked = (in_topic as f64 * CO_OCCURRENCE).round() as usize;
            let mut taken = vec![false; cfg.papers];
            let mut chosen = Vec::with_capacity(want);
            pick_distinct(
                &mut rng,
                &mut chosen,
                stacked,
                &hosts_of_topic[home],
                &mut taken,
            );
            pick_distinct(
                &mut rng,
                &mut chosen,
                in_topic,
                &papers_of_topic[home],
                &mut taken,
            );
            pick_distinct(&mut rng, &mut chosen, want, &all_papers, &mut taken);
            hosts_of_topic[home].extend(chosen.iter().filter(|&&p| paper_topic[p] == home));
            let mut ids: Vec<NodeId> = chosen
                .iter()
                .map(|&p| NodeId((paper_base + p) as u32))
                .collect();
            ids.sort_unstable();
            vocab.insert(keyword(g, j), ids);
        }
    }

    Dataset {
        nodes,
        edges: weigh(nodes, &refs),
        vocab,
    }
}

/// Parameters of the MovieLens-shaped family (the repo's IMDB default scale).
pub const RATINGS_USERS: usize = 650;
pub const RATINGS_MOVIES: usize = 420;
const RATINGS_PER_USER_MEAN: f64 = 55.0;
/// Movie `m` draws ratings in proportion to `1 / (m + POPULARITY_OFFSET)`:
/// the most popular movie is rated by most users, the least by a few dozen.
const POPULARITY_OFFSET: f64 = 20.0;

/// The MovieLens-shaped family: a dense bipartite Users / Movies / Ratings
/// graph with long-tailed ratings per user and Zipf-like movie popularity,
/// keywords planted on movies across the whole popularity range.
///
/// The two degree sequences are the distributions' quantiles, not draws
/// from them: edge weights are `log2(1 + degree)` against a fixed `Rmax`,
/// so at this size a drawn degree sequence alone moves a query's cost by
/// tens of percent between seeds. The seed decides who rates what.
pub fn ratings(seed: u64) -> Dataset {
    let root = Rng::new(seed);
    let mut rng = root.fork(3);
    let (users, movies) = (RATINGS_USERS, RATINGS_MOVIES);
    let mut rated: Vec<(usize, usize)> = Vec::new();
    let mut keyed: Vec<(f64, usize)> = Vec::with_capacity(movies);
    for user in 0..users {
        // 1 + floor(Exp(mean - 1)) at this user's quantile: a geometric-like tail.
        let quantile = (user as f64 + 0.5) / users as f64;
        let tail = -(RATINGS_PER_USER_MEAN - 1.0) * (1.0 - quantile).ln();
        let count = (1 + tail as usize).min(movies - 1);
        // Weighted sampling without replacement (Efraimidis-Spirakis): the
        // `count` largest of ln(u) / weight.
        keyed.clear();
        keyed.extend((0..movies).map(|m| {
            let u = 1.0 - rng.unit(); // (0, 1]
            (u.ln() * (m as f64 + POPULARITY_OFFSET), m)
        }));
        keyed.sort_by(|a, b| b.0.total_cmp(&a.0));
        rated.extend(keyed[..count].iter().map(|&(_, m)| (user, m)));
    }
    let rating_base = users + movies;
    let nodes = rating_base + rated.len();
    let mut refs = Vec::with_capacity(rated.len() * 2);
    for (i, &(u, m)) in rated.iter().enumerate() {
        refs.push(((rating_base + i) as u32, u as u32));
        refs.push(((rating_base + i) as u32, (users + m) as u32));
    }

    // Keywords on movies, one movie from each of `want` equal slices of the
    // popularity ranking: a movie's popularity decides how far its edges
    // reach, so an unstratified draw makes a keyword's neighbourhood — and
    // a query's cost — swing several-fold between seeds.
    let mut rng = root.fork(4);
    let mut popularity = vec![0u32; movies];
    for &(_, m) in &rated {
        popularity[m] += 1;
    }
    let mut ranked: Vec<usize> = (0..movies).collect();
    ranked.sort_by_key(|&m| (std::cmp::Reverse(popularity[m]), m));
    let mut vocab = HashMap::new();
    for (g, &kwf) in KWFS.iter().enumerate() {
        for j in 0..KEYWORDS_PER_GROUP {
            let want = (kwf * nodes as f64).round() as usize;
            let mut ids: Vec<NodeId> = (0..want)
                .map(|i| {
                    let (lo, hi) = (i * movies / want, (i + 1) * movies / want);
                    NodeId((users + ranked[lo + rng.below(hi - lo)]) as u32)
                })
                .collect();
            ids.sort_unstable();
            vocab.insert(keyword(g, j), ids);
        }
    }

    Dataset {
        nodes,
        edges: weigh(nodes, &refs),
        vocab,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fingerprint(d: &Dataset) -> (usize, usize, u64) {
        let mut h = 0u64;
        for &(u, v, w) in &d.edges {
            h = h.rotate_left(5) ^ u64::from(u) ^ (u64::from(v) << 20) ^ w.to_bits();
        }
        let mut keys: Vec<&String> = d.vocab.keys().collect();
        keys.sort();
        for k in keys {
            for n in &d.vocab[k] {
                h = h.rotate_left(7) ^ u64::from(n.0);
            }
        }
        (d.nodes, d.edges.len(), h)
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        let small = BibConfig {
            authors: 3_000,
            papers: 5_000,
        };
        assert_eq!(fingerprint(&bib(small, 7)), fingerprint(&bib(small, 7)));
        assert_ne!(fingerprint(&bib(small, 7)), fingerprint(&bib(small, 8)));
        assert_eq!(fingerprint(&ratings(7)), fingerprint(&ratings(7)));
        assert_ne!(fingerprint(&ratings(7)), fingerprint(&ratings(8)));
    }

    #[test]
    fn keywords_hit_the_exact_planted_count() {
        let small = BibConfig {
            authors: 3_000,
            papers: 5_000,
        };
        for d in [bib(small, 3), ratings(3)] {
            assert_eq!(d.vocab.len(), KWFS.len() * KEYWORDS_PER_GROUP);
            for (g, &kwf) in KWFS.iter().enumerate() {
                for j in 0..KEYWORDS_PER_GROUP {
                    let nodes = &d.vocab[&keyword(g, j)];
                    assert_eq!(nodes.len(), (kwf * d.nodes as f64).round() as usize);
                    assert!(nodes.windows(2).all(|p| p[0] < p[1]), "sorted and distinct");
                }
            }
        }
    }

    #[test]
    fn weights_follow_the_in_degree_formula() {
        let d = ratings(1);
        let mut in_degree = vec![0u32; d.nodes];
        for &(_, v, _) in &d.edges {
            in_degree[v as usize] += 1;
        }
        for &(_, v, w) in &d.edges {
            assert_eq!(w, (1.0 + f64::from(in_degree[v as usize])).log2());
        }
    }
}
