//! The benchmark's contract in one place: workloads, metrics, bounds.
//! `BENCHMARK.json` at the repo root is `manifest().pretty()`; a test
//! keeps the two in step.

use crate::json::{obj, Value};

/// Long enough that every workload completes at least three passes over
/// its queries, short enough that the driver's 92 runs fit its budget.
pub const RUN_SECONDS: u32 = 20;

/// `(name, why)`. Names are fixed: later issues cite them.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "bib_cold_topk",
        "sparse 400K-node DBLP-shaped graph, 60 keyword sets cycled past the cap-8 index LRU: both caches miss every time, so index build and projection dominate, not enumeration",
    ),
    (
        "ratings_warm_topk",
        "dense MovieLens-shaped graph, 6 hot keyword sets x 6 (Rmax,k): index cache always hits, answer cache always misses, so COMM-k refills dominate - the mirror image",
    ),
    (
        "ratings_all_delay",
        "library iterators on the dense graph: COMM-k total time, first answer, +50 more and COMM-all inter-answer delay - the paper's own metrics, on both enumerators",
    ),
    (
        "serve_mixed",
        "live daemon over loopback, closed loop, 2 connections, 80% answer hits / 15% index hits / 5% cold sets: wire, admission, dedupe and cache locks dominate",
    ),
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median a change may cost before it regresses.
    pub bound: f64,
}

/// The bounds are wider than the issue proposed (10 / 15 / 10 / 5 / 25 %):
/// on the recording sandbox identical work drifts by 20–50 % with the
/// host, and even calibrated (see `harness::HostSpeed`) ten rounds on ten
/// seeds spread by 4–13 % of the median and two back-to-back sets of
/// rounds differ by up to 20 %; a bound below that would reject noise.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "query_ms_p50",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "query_ms_p90",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "queries_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.15,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

/// The paper's own interactive metrics (Sec. VII), which only
/// `ratings_all_delay` measures: COMM-all's inter-answer delay (the
/// quantity Theorem IV.1 bounds), COMM-k's time to the first answer, and
/// the 50 extra `next()` calls after top-150. The driver wants every
/// `end_to_end` metric on every workload and never 0, so `BENCHMARK.json`
/// lists these under `per_layer`; every round of that workload reports
/// them all the same, and `run` and `compare` hold them to these bounds
/// exactly as they hold the five above.
pub const ITERATOR: [EndToEnd; 4] = [
    EndToEnd {
        name: "delay_ms_p50",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "delay_ms_p99",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "first_answer_ms_p50",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "more50_ms_p50",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
];

/// Every bounded metric of `workload`: the five end-to-end metrics, and
/// the iterator metrics on the workload that measures them.
pub fn bounded(workload: &str) -> Vec<&'static EndToEnd> {
    let iterator: &[EndToEnd] = if workload == "ratings_all_delay" {
        &ITERATOR
    } else {
        &[]
    };
    END_TO_END.iter().chain(iterator).collect()
}

/// `(name, unit, better)`. Unit `count` marks a value taken from a public
/// accessor that must repeat exactly on the single-threaded workloads.
/// A workload that does not exercise a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str, &str); 49] = [
    // [`ITERATOR`], as the driver's traced rounds see it.
    ("delay_ms_p50", "ms", "lower"),
    ("delay_ms_p99", "ms", "lower"),
    ("first_answer_ms_p50", "ms", "lower"),
    ("more50_ms_p50", "ms", "lower"),
    ("failed_share", "ratio", "lower"),
    ("graph.csr.build_ms", "ms", "lower"),
    ("graph.container.save_ms", "ms", "lower"),
    ("graph.container.load_ms", "ms", "lower"),
    ("graph.dijkstra.sweep_ns_per_settled", "ns", "lower"),
    ("graph.guard.settled_per_query", "count", "lower"),
    ("core.projection.build_ms", "ms", "lower"),
    ("core.projection.index_bytes", "count", "lower"),
    ("core.projection.project_ms", "ms", "lower"),
    ("core.projection.ratio", "ratio", "lower"),
    ("core.projection.lift_ms", "ms", "lower"),
    ("core.neighbor.init_ms", "ms", "lower"),
    ("core.neighbor.refill_ms", "ms", "lower"),
    ("core.comm_k.new_ms", "ms", "lower"),
    ("core.comm_k.first_ms", "ms", "lower"),
    ("core.comm_k.next_ms", "ms", "lower"),
    ("core.comm_k.sweeps_per_community", "count", "lower"),
    ("core.comm_k.peak_bytes", "count", "lower"),
    ("core.comm_k.can_list_len", "count", "lower"),
    ("core.comm_all.next_ms", "ms", "lower"),
    ("core.comm_all.sweeps_per_community", "count", "lower"),
    ("core.comm_all.peak_bytes", "count", "lower"),
    ("core.get_community.ms_per_call", "ms", "lower"),
    ("core.get_community.share_of_next", "ratio", "lower"),
    ("core.verify.certified", "count", "higher"),
    ("core.verify.ms", "ms", "lower"),
    ("core.verify.ulp_inversions", "count", "lower"),
    ("serve.engine.lookup_ms", "ms", "lower"),
    ("serve.engine.cache_fill_ms", "ms", "lower"),
    ("serve.engine.answer_hit_ms", "ms", "lower"),
    ("serve.engine.answer_hit_rate", "ratio", "higher"),
    ("serve.engine.index_hit_rate", "ratio", "higher"),
    ("serve.engine.summarize_ms", "ms", "lower"),
    ("serve.protocol.encode_ms", "ms", "lower"),
    ("serve.protocol.decode_ms", "ms", "lower"),
    ("serve.protocol.reply_bytes", "count", "lower"),
    ("serve.wire.ping_ms", "ms", "lower"),
    ("serve.server.overhead_ms", "ms", "lower"),
    ("serve.admission.admit_ns", "ns", "lower"),
    ("serve.admission.admitted", "count", "higher"),
    ("serve.admission.shed", "count", "lower"),
    ("harness.calib_ms", "ms", "lower"),
    ("harness.host_factor", "ratio", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead", "ratio", "lower"),
];

pub fn manifest() -> Value {
    let strs = |xs: &[&str]| Value::Arr(xs.iter().map(|s| Value::text(s)).collect());
    obj([
        (
            "command",
            strs(&[
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
            ]),
        ),
        ("paths", strs(&["benchmark"])),
        ("run_seconds", Value::Num(f64::from(RUN_SECONDS))),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        obj([("name", Value::text(name)), ("why", Value::text(why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        obj([
                            ("name", Value::text(m.name)),
                            ("unit", Value::text(m.unit)),
                            ("better", Value::text(m.better)),
                            ("bound", Value::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                PER_LAYER
                    .iter()
                    .map(|(name, unit, better)| {
                        obj([
                            ("name", Value::text(name)),
                            ("unit", Value::text(unit)),
                            ("better", Value::text(better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_is_the_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            crate::json::parse(&on_disk).unwrap(),
            manifest(),
            "regenerate with `... -- manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn names_and_whys_fit_the_contract() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.0));
        for n in &names {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        let unique: std::collections::BTreeSet<&&str> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "a name is used once");
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'), "{}", why.len());
        }
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
    }
}
