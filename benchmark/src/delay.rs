//! `ratings_all_delay`: the paper's own three metrics through the library
//! iterators — COMM-k total time and first answer, "+50 more" on the same
//! iterator, and COMM-all's inter-answer delay.

use crate::gen::{self, keyword, Rng, KEYWORDS_PER_GROUP};
use crate::harness::{ms_since, peak_rss_mb, set_up, Report, RoundArgs};
use crate::pipeline::{
    build_graph, build_index, enumerate, probe_cores, Certifier, Enumerated, Plan, Probes, Query,
    PROBE_EVERY,
};
use crate::stats::{percentile, sorted};
use crate::topk::{distinct_sets, keyword_set, RATINGS_GROUPS, RATINGS_INDEX_RADIUS};
use crate::trace::Tracer;
use comm_core::{ProjectionIndex, QueryError};
use comm_graph::{Graph, RunGuard};
use comm_serve::cache::Vocabulary;
use std::time::Instant;

const NAME: &str = "ratings_all_delay";
/// Distinct keyword sets a round cycles through; rounds stop on a
/// multiple of it, so every set is queried equally often.
const SETS: usize = 24;
const LS: [usize; 3] = [2, 3, 4];
const RMAX: f64 = 11.0;
const PLAN: Plan = Plan {
    k: 150,
    more: 50,
    all: 300,
};
/// The round's queries: `SETS` distinct keyword sets, `l` cycling 2, 3, 4.
fn queries(seed: u64) -> Vec<Query> {
    let mut rng = Rng::new(seed).fork(7);
    let sets = distinct_sets(SETS, |i| {
        keyword_set(&mut rng, LS[i % LS.len()], i / LS.len(), RATINGS_GROUPS)
    });
    sets.into_iter()
        .map(|keywords| Query {
            keywords,
            rmax: RMAX,
            k: PLAN.k as u32,
        })
        .collect()
}

struct Bench {
    graph: Graph,
    vocab: Vocabulary,
    /// One index over every keyword the queries can use, built in set-up.
    index: ProjectionIndex,
    csr_build_ms: f64,
}

fn setup(seed: u64) -> Bench {
    let (graph, vocab, csr_build_ms) = build_graph(gen::ratings(seed));
    let keywords: Vec<String> = (0..RATINGS_GROUPS)
        .flat_map(|g| (0..KEYWORDS_PER_GROUP).map(move |j| keyword(g, j)))
        .collect();
    let index = build_index(
        &graph,
        &vocab,
        &keywords,
        RATINGS_INDEX_RADIUS,
        &RunGuard::unlimited(),
    );
    Bench {
        graph,
        vocab,
        index,
        csr_build_ms,
    }
}

/// Raw samples of the iterator metrics over the untraced phase.
#[derive(Default)]
struct Samples {
    first_ms: Vec<f64>,
    more_ms: Vec<f64>,
    delay_ms: Vec<f64>,
}

/// Work counts summed over the first pass: the same queries every round,
/// however many more the host's speed allows after them.
#[derive(Default)]
struct Counts {
    ops: usize,
    ratio: f64,
    k_emitted: usize,
    k_sweeps: usize,
    k_peak: usize,
    can_list: usize,
    all_emitted: usize,
    all_sweeps: usize,
    all_peak: usize,
}

impl Counts {
    fn add(&mut self, bench: &Bench, e: &Enumerated) {
        self.ops += 1;
        self.ratio += bench.index.projection_ratio(&e.pq);
        self.k_emitted += e.comm_k.emitted;
        self.k_sweeps += e.comm_k.sweeps;
        self.k_peak = self.k_peak.max(e.comm_k.peak_bytes);
        self.can_list += e.comm_k.can_list_len;
        self.all_emitted += e.comm_all.emitted;
        self.all_sweeps += e.comm_all.sweeps;
        self.all_peak = self.all_peak.max(e.comm_all.peak_bytes);
    }

    fn report(&self, report: &mut Report) {
        let ops = self.ops.max(1) as f64;
        report.set("core.projection.ratio", self.ratio / ops);
        report.set(
            "core.comm_k.sweeps_per_community",
            self.k_sweeps as f64 / self.k_emitted.max(1) as f64,
        );
        report.set("core.comm_k.peak_bytes", self.k_peak as f64);
        report.set("core.comm_k.can_list_len", self.can_list as f64 / ops);
        report.set(
            "core.comm_all.sweeps_per_community",
            self.all_sweeps as f64 / self.all_emitted.max(1) as f64,
        );
        report.set("core.comm_all.peak_bytes", self.all_peak as f64);
    }
}

/// Runs the round's queries through the iterators, in order and cycling,
/// until `stop(issued, busy ms)`; hands each outcome to `each`. With a
/// disabled tracer this is the untraced phase; with an enabled one the
/// same calls are recorded as spans. Returns the time spent in queries
/// (projection, COMM-k, +50, COMM-all), in ms.
fn drive(
    bench: &Bench,
    seed: u64,
    tr: &mut Tracer,
    mut stop: impl FnMut(usize, f64) -> bool,
    mut each: impl FnMut(usize, &Query, Result<Enumerated, QueryError>),
) -> f64 {
    let queries = queries(seed);
    let (mut issued, mut busy_ms) = (0usize, 0.0);
    while !stop(issued, busy_ms) {
        let q = &queries[issued % queries.len()];
        tr.set_op(issued);
        let guard = RunGuard::new();
        let start = Instant::now();
        let out = tr.span("op", |tr| {
            enumerate(tr, &bench.index, &q.refs(), q.rmax, PLAN, &guard)
        });
        busy_ms += ms_since(start);
        each(issued, q, out);
        issued += 1;
    }
    busy_ms
}

pub fn run(args: &RoundArgs) -> Report {
    let mut report = Report::new();
    let (bench, mut hosts) = set_up(
        args,
        &mut report,
        1,
        || setup(args.seed),
        |b| b.graph.byte_size(),
        drop,
    );
    let mut host = hosts.remove(0);
    let mut certifier = Certifier::new(args.seed);
    let mut samples = Samples::default();
    let mut counts = Counts::default();

    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut ops = 0;
    let busy_ms = drive(
        &bench,
        args.seed,
        &mut Tracer::new(false),
        |issued, busy_ms| {
            host.tick();
            args.phase_over(seconds, SETS, issued, busy_ms)
        },
        |issued, q, out| {
            ops += 1;
            report.attempted += 1;
            let e = match out {
                Ok(e) => e,
                Err(err) => return report.fail(format!("{:?}: {err}", q.keywords)),
            };
            if issued < SETS {
                counts.add(&bench, &e);
            } else {
                certifier.stop_counting();
            }
            // Certification sees graph ids: lift outside the timed call.
            let topk: Vec<_> = e.topk.into_iter().map(|c| e.pq.lift(c)).collect();
            if let Some(last) = e.all_last {
                certifier.observe(q, &[e.pq.lift(last)]);
            }
            if certifier.observe(q, &topk) {
                report.query_ms.push(e.total_ms);
                samples.first_ms.push(e.first_ms);
                samples.more_ms.push(e.more_ms);
                samples.delay_ms.extend_from_slice(&e.all_gaps_ms);
            } else {
                report.fail(format!("{:?}: ranking broken", q.keywords));
            }
        },
    );
    report.timed_s = busy_ms / 1e3;
    report.peak_rss_mb = peak_rss_mb() - host.buffer_mb();
    report.set_host(&host);

    // The iterator metrics, over the untraced phase of every round. Even a
    // traced round's half-length phase has thousands of gaps.
    let p = |v: &[f64], p: f64| percentile(&sorted(v.to_vec()), p);
    report.set("delay_ms_p50", p(&samples.delay_ms, 50.0));
    report.set("delay_ms_p99", p(&samples.delay_ms, 99.0));
    report.set("first_answer_ms_p50", p(&samples.first_ms, 50.0));
    report.set("more50_ms_p50", p(&samples.more_ms, 50.0));

    if args.trace {
        report.set("graph.csr.build_ms", bench.csr_build_ms);
        report.set(
            "core.projection.index_bytes",
            bench.index.byte_size() as f64,
        );
        counts.report(&mut report);

        // The same ops again, each public call inside a span, the layer
        // probes in between.
        let mut tr = Tracer::new(true);
        let mut probes = Probes::default();
        let untraced = host.mark();
        drive(
            &bench,
            args.seed,
            &mut tr,
            |issued, _| {
                host.tick();
                issued >= ops
            },
            |issued, q, out| {
                if let (0, Ok(e)) = (issued % PROBE_EVERY, out) {
                    let cores = probe_cores(&e.topk);
                    probes.run(
                        &bench.graph,
                        &bench.vocab,
                        q,
                        RATINGS_INDEX_RADIUS,
                        &e.pq,
                        &cores,
                    );
                }
            },
        );
        let layers = tr.layers();
        let mean = |name: &str| layers.get(name).map_or(0.0, |l| l.mean_ms());
        report.set(
            "core.projection.project_ms",
            mean("core.projection.project"),
        );
        report.set("core.comm_k.new_ms", mean("core.comm_k.new"));
        report.set("core.comm_k.first_ms", mean("core.comm_k.first"));
        report.set("core.comm_k.next_ms", mean("core.comm_k.next"));
        report.set("core.comm_all.next_ms", mean("core.comm_all.next"));
        // Both enumerators call GetCommunity() once per answer; take its
        // share of the mean over all their next() calls.
        let nexts = [
            "core.comm_k.first",
            "core.comm_k.next",
            "core.comm_all.next",
        ];
        let (ms, calls) = nexts.iter().fold((0.0, 0u64), |(ms, calls), name| {
            let l = layers.get(name).copied().unwrap_or_default();
            (ms + l.total_ms, calls + l.calls)
        });
        probes.report(&mut report, ms / calls.max(1) as f64);
        report.set_trace_ratios(&tr, busy_ms, host.factor_since(untraced));
        crate::write_out(&format!("trace-{NAME}.json"), &tr.to_json(NAME).render());
    }

    report.samples.insert("first_answer_ms", samples.first_ms);
    report.samples.insert("more50_ms", samples.more_ms);
    report.samples.insert("delay_ms", samples.delay_ms);
    certifier.certify(&bench.graph, &bench.vocab, &mut report);
    report
}
