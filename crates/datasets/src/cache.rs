//! Where cached datasets live on disk.
//!
//! Paper-scale generation takes ~a minute; mapping a CGPH v2 container
//! ([`comm_graph::Container`]: the database graph, the keyword → node-set
//! map and an opaque blob, by convention a serialized projection index)
//! back in is near-instant. The two load paths that cache — the bench
//! set-up and the CLI session — save and load containers themselves with
//! [`comm_graph::save_container`] / [`comm_graph::load_container`]; this
//! module only says *where*: a directory the binary's `main` reads from
//! the environment once ([`cache_dir`]) and hands down as a value, and one
//! file per configuration key in it ([`bundle_path`]). No directory means
//! no caching: every load generates from scratch. A file that fails to
//! load (corrupt, stale, a legacy `CBDL` bundle) is regenerated over.

use std::path::{Path, PathBuf};

/// The environment variable naming the cache directory.
pub const CACHE_ENV: &str = "COMM_BENCH_CACHE";

/// The cache directory named by [`CACHE_ENV`], if caching is enabled
/// (set and non-empty). For `fn main` only: everything below a binary's
/// entry point takes the directory as an `Option<&Path>`.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_sanitize_to_safe_file_stems() {
        assert_eq!(sanitize_key("dblp-quick_s0.05"), "dblp-quick_s0.05");
        assert_eq!(sanitize_key("a b/c:d"), "a_b_c_d");
        assert_eq!(sanitize_key(""), "bundle");
        assert_eq!(
            bundle_path(Path::new("cache"), "cfg quick/0.05"),
            Path::new("cache/cfg_quick_0.05.cgph")
        );
    }
}
