//! The benchmark parameter grids and keyword sets of Tables II–V.

/// One KWF bucket with its benchmark keywords (Tables III and V).
#[derive(Clone, Copy, Debug)]
pub struct KeywordGroup {
    /// The keyword frequency of every keyword in this bucket.
    pub kwf: f64,
    /// The keywords the paper queries at this frequency.
    pub keywords: &'static [&'static str],
}

/// Table III: the DBLP keyword buckets.
pub const DBLP_KEYWORD_GROUPS: &[KeywordGroup] = &[
    KeywordGroup {
        kwf: 0.0003,
        keywords: &["scalable", "protocols", "distance", "discovery"],
    },
    KeywordGroup {
        kwf: 0.0006,
        keywords: &["space", "graph", "routing", "scheme"],
    },
    KeywordGroup {
        kwf: 0.0009,
        keywords: &[
            "environment",
            "database",
            "support",
            "development",
            "optimization",
            "fuzzy",
        ],
    },
    KeywordGroup {
        kwf: 0.0012,
        keywords: &["dynamic", "application", "modeling", "logic"],
    },
    KeywordGroup {
        kwf: 0.0015,
        keywords: &["web", "parallel", "control", "algorithms"],
    },
];

/// Table V: the IMDB keyword buckets.
pub const IMDB_KEYWORD_GROUPS: &[KeywordGroup] = &[
    KeywordGroup {
        kwf: 0.0003,
        keywords: &["summer", "bride", "game", "dream"],
    },
    KeywordGroup {
        kwf: 0.0006,
        keywords: &["friday", "heaven", "street", "party"],
    },
    KeywordGroup {
        kwf: 0.0009,
        keywords: &["star", "death", "all", "girl", "lost", "blood"],
    },
    KeywordGroup {
        kwf: 0.0012,
        keywords: &["city", "american", "blue", "world"],
    },
    KeywordGroup {
        kwf: 0.0015,
        keywords: &["night", "story", "king", "house"],
    },
];

/// The parameter grid of Table II (DBLP) / Table IV (IMDB).
#[derive(Clone, Debug)]
pub struct ParameterGrid {
    /// KWF sweep values.
    pub kwf: &'static [f64],
    /// Number-of-keywords sweep.
    pub l: &'static [usize],
    /// Radius sweep.
    pub rmax: &'static [f64],
    /// Top-k sweep.
    pub k: &'static [usize],
    /// Defaults: (kwf, l, rmax, k).
    pub defaults: (f64, usize, f64, usize),
}

/// Table II: DBLP parameters.
pub const DBLP_GRID: ParameterGrid = ParameterGrid {
    kwf: &[0.0003, 0.0006, 0.0009, 0.0012, 0.0015],
    l: &[2, 3, 4, 5, 6],
    rmax: &[4.0, 5.0, 6.0, 7.0, 8.0],
    k: &[50, 100, 150, 200, 250],
    defaults: (0.0009, 4, 6.0, 150),
};

/// Table IV: IMDB parameters.
pub const IMDB_GRID: ParameterGrid = ParameterGrid {
    kwf: &[0.0003, 0.0006, 0.0009, 0.0012, 0.0015],
    l: &[2, 3, 4, 5, 6],
    rmax: &[9.0, 10.0, 11.0, 12.0, 13.0],
    k: &[50, 100, 150, 200, 250],
    defaults: (0.0009, 4, 11.0, 150),
};

/// Selects the `l` query keywords for a KWF bucket, as the paper does:
/// take them from that bucket's keyword set (cycling if `l` exceeds the
/// bucket size, which only happens for l = 5, 6 on 4-keyword buckets).
pub fn query_keywords(groups: &[KeywordGroup], kwf: f64, l: usize) -> Vec<&'static str> {
    #[expect(
        clippy::panic,
        reason = "the kwf grid is a constant; a miss is a caller bug"
    )]
    let group = groups
        .iter()
        .find(|g| (g.kwf - kwf).abs() < 1e-12)
        .unwrap_or_else(|| panic!("no keyword group at kwf {kwf}"));
    (0..l)
        .map(|i| group.keywords[i % group.keywords.len()])
        .collect()
}

/// Every distinct benchmark keyword with its KWF, planted uniformly.
pub fn all_plant_specs(groups: &[KeywordGroup]) -> Vec<crate::keywords::PlantSpec> {
    groups
        .iter()
        .flat_map(|g| {
            g.keywords.iter().map(|&k| crate::keywords::PlantSpec {
                keyword: k.to_owned(),
                kwf: g.kwf,
                topic: None,
            })
        })
        .collect()
}

/// Like [`all_plant_specs`], but every keyword of KWF bucket `i`
/// concentrates in topic cluster `i` — the topical correlation real titles
/// exhibit (queries combine keywords from one bucket, and those co-occur
/// in one research sub-community).
pub fn topical_plant_specs(groups: &[KeywordGroup]) -> Vec<crate::keywords::PlantSpec> {
    groups
        .iter()
        .enumerate()
        .flat_map(|(i, g)| {
            g.keywords.iter().map(move |&k| crate::keywords::PlantSpec {
                keyword: k.to_owned(),
                kwf: g.kwf,
                topic: Some(i),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_match_tables() {
        assert_eq!(DBLP_GRID.defaults, (0.0009, 4, 6.0, 150));
        assert_eq!(IMDB_GRID.defaults, (0.0009, 4, 11.0, 150));
        assert_eq!(DBLP_GRID.rmax, &[4.0, 5.0, 6.0, 7.0, 8.0]);
        assert_eq!(IMDB_GRID.rmax, &[9.0, 10.0, 11.0, 12.0, 13.0]);
        assert_eq!(DBLP_KEYWORD_GROUPS.len(), 5);
        assert_eq!(IMDB_KEYWORD_GROUPS.len(), 5);
    }

    #[test]
    fn default_bucket_supports_l_6() {
        // The .0009 buckets have six keywords so the l-sweep never cycles
        // at the default KWF.
        let q = query_keywords(DBLP_KEYWORD_GROUPS, 0.0009, 6);
        assert_eq!(q.len(), 6);
        let dedup: std::collections::BTreeSet<_> = q.iter().collect();
        assert_eq!(dedup.len(), 6);
    }

    #[test]
    fn cycling_for_small_buckets() {
        let q = query_keywords(DBLP_KEYWORD_GROUPS, 0.0003, 6);
        assert_eq!(q[4], q[0]);
        assert_eq!(q[5], q[1]);
    }

    #[test]
    fn plant_specs_cover_all_keywords() {
        let specs = all_plant_specs(IMDB_KEYWORD_GROUPS);
        assert_eq!(
            specs.len(),
            IMDB_KEYWORD_GROUPS
                .iter()
                .map(|g| g.keywords.len())
                .sum::<usize>()
        );
    }

    #[test]
    #[should_panic(expected = "no keyword group")]
    fn unknown_kwf_panics() {
        query_keywords(DBLP_KEYWORD_GROUPS, 0.5, 2);
    }
}
