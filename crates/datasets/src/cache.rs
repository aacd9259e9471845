//! On-disk caching of materialized query bundles.
//!
//! A *bundle* is everything the search layer needs from a dataset: the
//! database graph, the keyword → node-set map, and (optionally) an opaque
//! serialized projection-index blob. Paper-scale generation takes ~a
//! minute; mapping a cached bundle back in is near-instant, so the load
//! paths (bench setup, the CLI session, the daemon) cache bundles keyed
//! by configuration under the directory named by the `COMM_BENCH_CACHE`
//! environment variable — see [`load_or_generate`]. Unset means caching
//! is disabled and every load generates from scratch.
//!
//! Bundles are CGPH v2 containers ([`comm_graph::container`]): the CSR
//! arrays land as fixed-width checksummed sections that load by `mmap`
//! without a parse step, the keyword map rides in the keywords section,
//! and the index blob in the extra section. Any other file (a legacy
//! `CBDL` bundle included) fails to load and is regenerated over.

use comm_graph::container::{load_container, save_container};
use comm_graph::{Graph, NodeId};
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};

/// The environment variable naming the bundle cache directory.
///
/// When set to a non-empty path, [`load_or_generate`] persists generated
/// bundles there and serves subsequent loads from disk; when unset, the
/// cache is disabled and generation always runs.
pub const CACHE_ENV: &str = "COMM_BENCH_CACHE";

/// A graph plus its keyword map, as loaded from a cache file.
#[derive(Debug)]
pub struct GraphBundle {
    /// The database graph.
    pub graph: Graph,
    /// Keyword (lowercase) → sorted node ids.
    pub keyword_nodes: HashMap<String, Vec<NodeId>>,
    /// Opaque application payload stored beside the graph — the bench
    /// harness keeps a serialized projection index here.
    pub index_blob: Option<Vec<u8>>,
}

impl GraphBundle {
    /// The nodes for a keyword, case-insensitively (empty if unknown).
    pub fn keyword_nodes(&self, keyword: &str) -> &[NodeId] {
        self.keyword_nodes
            .get(&keyword.to_lowercase())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }
}

/// Saves a bundle: the graph and the given `(keyword, nodes)` pairs.
///
/// Writes a CGPH v2 container atomically (temp file + fsync + rename);
/// a crash mid-write leaves any previous bundle intact.
pub fn save_bundle<'a>(
    path: impl AsRef<Path>,
    graph: &Graph,
    keywords: impl IntoIterator<Item = (&'a str, &'a [NodeId])>,
) -> io::Result<()> {
    save_container(path, graph, keywords, None)
}

/// [`save_bundle`] plus an opaque payload (e.g. a projection-index blob)
/// stored in the container's extra section.
pub fn save_bundle_with_index<'a>(
    path: impl AsRef<Path>,
    graph: &Graph,
    keywords: impl IntoIterator<Item = (&'a str, &'a [NodeId])>,
    index_blob: Option<&[u8]>,
) -> io::Result<()> {
    save_container(path, graph, keywords, index_blob)
}

/// Loads a bundle written by [`save_bundle`] (zero-copy on unix).
pub fn load_bundle(path: impl AsRef<Path>) -> io::Result<GraphBundle> {
    let c = load_container(path)?;
    Ok(GraphBundle {
        graph: c.graph,
        keyword_nodes: c.keyword_nodes,
        index_blob: c.extra,
    })
}

/// How [`load_or_generate`] satisfied a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Served from a cached bundle on disk.
    Hit,
    /// Generated fresh; `saved` tells whether the bundle was persisted
    /// for next time (false when the cache directory is unwritable).
    Miss {
        /// Whether the freshly generated bundle reached disk.
        saved: bool,
    },
    /// `COMM_BENCH_CACHE` is unset — generated fresh, nothing persisted.
    Disabled,
}

/// The cache directory named by [`CACHE_ENV`], if caching is enabled.
pub fn cache_dir() -> Option<PathBuf> {
    match std::env::var(CACHE_ENV) {
        Ok(dir) if !dir.is_empty() => Some(PathBuf::from(dir)),
        _ => None,
    }
}

/// Maps an arbitrary configuration key ("dblp-quick-s0.05") onto a safe
/// file stem: anything outside `[A-Za-z0-9._-]` becomes `_`.
fn sanitize_key(key: &str) -> String {
    let stem: String = key
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                c
            } else {
                '_'
            }
        })
        .collect();
    if stem.is_empty() {
        "bundle".to_owned()
    } else {
        stem
    }
}

/// The cache path a key resolves to under `dir`.
pub fn bundle_path(dir: &Path, key: &str) -> PathBuf {
    dir.join(format!("{}.cgph", sanitize_key(key)))
}

/// Loads the bundle cached under `key`, or generates and caches it.
///
/// The cache directory comes from the `COMM_BENCH_CACHE` environment
/// variable; unset disables caching entirely. A corrupt or stale cache
/// file is not an error — the bundle is regenerated and the file
/// overwritten (self-healing), and a cache directory that cannot be
/// written to degrades to generation with `CacheOutcome::Miss { saved:
/// false }`. Generation failures are the caller's: `generate` is
/// infallible by signature.
pub fn load_or_generate(
    key: &str,
    generate: impl FnOnce() -> GraphBundle,
) -> (GraphBundle, CacheOutcome) {
    load_or_generate_in(cache_dir().as_deref(), key, generate)
}

/// [`load_or_generate`] with an explicit cache directory (`None` disables
/// caching). The env-reading wrapper is the normal entry point; this one
/// exists for tests and embedders that manage their own configuration.
pub fn load_or_generate_in(
    dir: Option<&Path>,
    key: &str,
    generate: impl FnOnce() -> GraphBundle,
) -> (GraphBundle, CacheOutcome) {
    let Some(dir) = dir else {
        return (generate(), CacheOutcome::Disabled);
    };
    let path = bundle_path(dir, key);
    if let Ok(bundle) = load_bundle(&path) {
        return (bundle, CacheOutcome::Hit);
    }
    let bundle = generate();
    let keywords: Vec<(&str, &[NodeId])> = bundle
        .keyword_nodes
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_slice()))
        .collect();
    let saved = std::fs::create_dir_all(dir).is_ok()
        && save_bundle_with_index(&path, &bundle.graph, keywords, bundle.index_blob.as_deref())
            .is_ok();
    (bundle, CacheOutcome::Miss { saved })
}

#[cfg(test)]
mod tests {
    use super::*;
    use comm_graph::graph_from_edges;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A fresh directory per test invocation — fixed names collide when
    /// test binaries for several crates run concurrently.
    fn unique_dir(tag: &str) -> std::path::PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "comm_datasets_cache_{tag}_{}_{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample() -> Graph {
        graph_from_edges(4, &[(0, 1, 1.0), (1, 2, 2.5), (3, 0, 4.0)])
    }

    #[test]
    fn bundle_roundtrip() {
        let g = sample();
        let dir = unique_dir("roundtrip");
        let path = dir.join("b.cgph");
        save_bundle_with_index(
            &path,
            &g,
            [
                ("alpha", [NodeId(0), NodeId(2)].as_slice()),
                ("beta", [NodeId(3)].as_slice()),
            ],
            Some(b"index-blob"),
        )
        .unwrap();
        let b = load_bundle(&path).unwrap();
        assert_eq!(b.graph.edge_count(), 3);
        assert_eq!(b.keyword_nodes("alpha"), &[NodeId(0), NodeId(2)]);
        assert_eq!(b.keyword_nodes("BETA"), &[NodeId(3)]);
        assert_eq!(b.keyword_nodes("missing"), &[] as &[NodeId]);
        assert_eq!(b.index_blob.as_deref(), Some(b"index-blob".as_slice()));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_garbage() {
        let dir = unique_dir("garbage");
        let path = dir.join("b.cgph");
        std::fs::write(&path, b"garbage").unwrap();
        assert!(load_bundle(&path).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn writer_rejects_out_of_range_keyword_node() {
        let g = graph_from_edges(2, &[(0, 1, 1.0)]);
        let dir = unique_dir("range");
        let path = dir.join("b.cgph");
        assert!(save_bundle(&path, &g, [("kw", [NodeId(9)].as_slice())]).is_err());
        assert!(!path.exists(), "failed save must not leave a file behind");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_or_generate_disabled_miss_then_hit() {
        let make = || GraphBundle {
            graph: sample(),
            keyword_nodes: HashMap::from([("alpha".to_owned(), vec![NodeId(0), NodeId(2)])]),
            index_blob: Some(b"blob".to_vec()),
        };

        let (b, outcome) = load_or_generate_in(None, "key", make);
        assert_eq!(outcome, CacheOutcome::Disabled);
        assert_eq!(b.graph.edge_count(), 3);

        let dir = unique_dir("logen");
        let (_, outcome) = load_or_generate_in(Some(&dir), "cfg quick/0.05", make);
        assert_eq!(outcome, CacheOutcome::Miss { saved: true });
        assert!(bundle_path(&dir, "cfg quick/0.05").exists());

        let (b, outcome) = load_or_generate_in(Some(&dir), "cfg quick/0.05", || {
            panic!("cache hit must not regenerate")
        });
        assert_eq!(outcome, CacheOutcome::Hit);
        assert_eq!(b.keyword_nodes("alpha"), &[NodeId(0), NodeId(2)]);
        assert_eq!(b.index_blob.as_deref(), Some(b"blob".as_slice()));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_or_generate_self_heals_corrupt_cache() {
        let dir = unique_dir("heal");
        let key = "dataset";
        // A legacy CBDL v1 header whose keyword count claims u32::MAX
        // entries: named by its magic and rejected before any count is read.
        let mut cbdl = b"CBDL".to_vec();
        cbdl.extend_from_slice(&1u32.to_le_bytes());
        cbdl.extend_from_slice(&u32::MAX.to_le_bytes());
        for stale in [b"not a container".as_slice(), &cbdl] {
            std::fs::write(bundle_path(&dir, key), stale).unwrap();
            let err = load_bundle(bundle_path(&dir, key)).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("magic"), "got: {err}");
            let (b, outcome) = load_or_generate_in(Some(&dir), key, || GraphBundle {
                graph: sample(),
                keyword_nodes: HashMap::new(),
                index_blob: None,
            });
            assert_eq!(outcome, CacheOutcome::Miss { saved: true });
            assert_eq!(b.graph.node_count(), 4);
            // The stale file was overwritten with a loadable bundle.
            assert!(load_bundle(bundle_path(&dir, key)).is_ok());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn keys_sanitize_to_safe_file_stems() {
        assert_eq!(sanitize_key("dblp-quick_s0.05"), "dblp-quick_s0.05");
        assert_eq!(sanitize_key("a b/c:d"), "a_b_c_d");
        assert_eq!(sanitize_key(""), "bundle");
    }

    #[test]
    fn generated_dataset_bundle_roundtrip() {
        let ds = crate::generate_dblp(&crate::DblpConfig::default().scaled(0.05));
        let dir = unique_dir("gen");
        let path = dir.join("b.cgph");
        let kws: Vec<(&str, &[NodeId])> = vec![
            ("database", ds.graph.keyword_nodes("database")),
            ("fuzzy", ds.graph.keyword_nodes("fuzzy")),
        ];
        save_bundle(&path, &ds.graph.graph, kws).unwrap();
        let b = load_bundle(&path).unwrap();
        assert_eq!(b.graph.node_count(), ds.graph.graph.node_count());
        assert_eq!(
            b.keyword_nodes("database"),
            ds.graph.keyword_nodes("database")
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
