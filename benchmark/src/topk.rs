//! The two in-process top-k workloads, both through `QueryEngine::answer`:
//! `bib_cold_topk` (every query a new keyword set, both caches miss) and
//! `ratings_warm_topk` (six hot sets, index always hits, answer never).

use crate::gen::{self, keyword, BibConfig, Rng, KEYWORDS_PER_GROUP, KWFS};
use crate::harness::{hit_rate, ms_since, peak_rss_mb, set_up, HostSpeed, Report, RoundArgs};
use crate::pipeline::{
    build_graph, build_index, entries, enumerate, is_cost_prefix, lift_all, probe_cores, Certifier,
    Plan, Probes, Query, PROBE_EVERY,
};
use crate::trace::Tracer;
use comm_core::{comm_all_guarded, Community, ProjectionIndex};
use comm_graph::{Outcome, RunGuard, Weight};
use comm_serve::cache::Vocabulary;
use comm_serve::{EngineConfig, QueryEngine};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

#[derive(Clone, Copy, PartialEq)]
pub enum Kind {
    BibCold,
    RatingsWarm,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::BibCold => "bib_cold_topk",
            Kind::RatingsWarm => "ratings_warm_topk",
        }
    }

    /// The radius the engine's projection indexes are built for.
    fn index_radius(self) -> f64 {
        match self {
            Kind::BibCold => EngineConfig::default().index_radius,
            Kind::RatingsWarm => RATINGS_INDEX_RADIUS,
        }
    }
}

pub const RATINGS_INDEX_RADIUS: f64 = 13.0;
/// Keyword counts of `bib_cold_topk`'s queries, crossed with a rotation
/// of the five KWF groups.
const BIB_LS: [usize; 6] = [2, 3, 4, 4, 5, 6];
/// Distinct keyword sets per pass: each `l` with each KWF-group rotation,
/// twice.
const BIB_PASS: usize = 60;
const BIB_RMAX: f64 = 6.0;
const BIB_K: u32 = 150;

const HOT_SETS: usize = 6;
/// Keyword counts of the six hot sets.
const HOT_LS: [usize; HOT_SETS] = [2, 2, 3, 3, 4, 4];
/// KWF groups the dense-graph workloads draw from (.0003–.0009).
pub const RATINGS_GROUPS: usize = 3;
const WARM_RMAX: [f64; 2] = [9.0, 11.0];
const WARM_K: [u32; 3] = [50, 150, 250];

/// `l` keywords, slot `s` from KWF group `(first_group + s) % groups`,
/// distinct within the set.
pub fn keyword_set(rng: &mut Rng, l: usize, first_group: usize, groups: usize) -> Vec<String> {
    let mut set: Vec<String> = Vec::with_capacity(l);
    while set.len() < l {
        let kw = keyword(
            (first_group + set.len()) % groups,
            rng.below(KEYWORDS_PER_GROUP),
        );
        if !set.contains(&kw) {
            set.push(kw);
        }
    }
    set
}

/// `count` keyword sets, no two equal as sets; `make(i)` proposes the
/// `i`-th and is asked again when it repeats an earlier one.
pub fn distinct_sets(count: usize, mut make: impl FnMut(usize) -> Vec<String>) -> Vec<Vec<String>> {
    let mut used: HashSet<Vec<String>> = HashSet::new();
    let mut sets = Vec::with_capacity(count);
    while sets.len() < count {
        let set = make(sets.len());
        let mut key = set.clone();
        key.sort_unstable();
        if used.insert(key) {
            sets.push(set);
        }
    }
    sets
}

/// The seeded query stream of a workload: one pass of distinct cells,
/// repeated. Every pass nudges `Rmax` by 2^-30 — a new answer-cache key
/// for identical work (the cache is exact on `Rmax`'s bits and no path
/// length falls in the gap) — so a repeated cell misses the answer cache
/// exactly as it did the first time.
pub struct Stream {
    cells: Vec<Query>,
    issued: usize,
}

impl Stream {
    pub fn new(kind: Kind, seed: u64) -> Stream {
        let mut rng = Rng::new(seed).fork(5);
        let mut cells = match kind {
            Kind::BibCold => bib_cells(&mut rng),
            Kind::RatingsWarm => {
                let mut cells = Vec::new();
                for keywords in hot_sets(seed) {
                    for rmax in WARM_RMAX {
                        for k in WARM_K {
                            cells.push(Query {
                                keywords: keywords.clone(),
                                rmax,
                                k,
                            });
                        }
                    }
                }
                cells
            }
        };
        for i in (1..cells.len()).rev() {
            cells.swap(i, rng.below(i + 1));
        }
        Stream { cells, issued: 0 }
    }

    /// Ops per pass.
    pub fn pass(&self) -> usize {
        self.cells.len()
    }

    pub fn next(&mut self) -> Query {
        let (pass, cell) = (
            self.issued / self.cells.len(),
            self.issued % self.cells.len(),
        );
        self.issued += 1;
        let mut q = self.cells[cell].clone();
        q.rmax += pass as f64 / (1u64 << 30) as f64;
        q
    }
}

/// One pass of `bib_cold_topk`: `BIB_PASS` distinct keyword sets, far more
/// than the index LRU holds, so cycling through them misses the index
/// cache every time, as a never-repeating stream would. The shape of cell
/// `i` is fixed — its `l`, its KWF groups, and which of its keywords are
/// off the cell's topic — so every seed measures the same mix; the seed
/// picks the topics.
fn bib_cells(rng: &mut Rng) -> Vec<Query> {
    let sets = distinct_sets(BIB_PASS, |i| {
        let l = BIB_LS[i % BIB_LS.len()];
        let first_group = i / BIB_LS.len();
        let topic = rng.below(KEYWORDS_PER_GROUP);
        (0..l)
            .map(|s| {
                // Every third keyword comes from another topic: some sets
                // have communities, some have none. A sixth keyword reuses
                // the first one's group, so it must differ in topic.
                let off_topic = (i + s) % 3 == 0 || s >= KWFS.len();
                let j = if off_topic { topic + 1 + s } else { topic };
                keyword((first_group + s) % KWFS.len(), j % KEYWORDS_PER_GROUP)
            })
            .collect()
    });
    sets.into_iter()
        .map(|keywords| Query {
            keywords,
            rmax: BIB_RMAX,
            k: BIB_K,
        })
        .collect()
}

/// The hot keyword sets of `ratings_warm_topk`.
pub fn hot_sets(seed: u64) -> Vec<Vec<String>> {
    let mut rng = Rng::new(seed).fork(6);
    distinct_sets(HOT_SETS, |i| {
        keyword_set(&mut rng, HOT_LS[i], i, RATINGS_GROUPS)
    })
}

struct Bench {
    engine: QueryEngine,
    vocab: Vocabulary,
    csr_build_ms: f64,
}

/// Generate, build the CSR graph, construct the engine, and (warm
/// workload) touch each hot set so its index is resident.
fn setup(kind: Kind, seed: u64) -> Bench {
    let ds = match kind {
        Kind::BibCold => gen::bib(BibConfig::FULL, seed),
        Kind::RatingsWarm => gen::ratings(seed),
    };
    let (graph, vocab, csr_build_ms) = build_graph(ds);
    let cfg = EngineConfig {
        index_radius: kind.index_radius(),
        ..EngineConfig::default()
    };
    let engine = QueryEngine::new(graph, vocab.clone(), cfg).expect("a valid engine config");
    if kind == Kind::RatingsWarm {
        for set in hot_sets(seed) {
            engine
                .answer(&set, WARM_RMAX[0], 1, &RunGuard::unlimited())
                .expect("hot sets use planted keywords");
        }
    }
    Bench {
        engine,
        vocab,
        csr_build_ms,
    }
}

/// What the untraced phase keeps for checks that need a whole answer.
struct Kept {
    query: Query,
    answer: Vec<Community>,
}

/// One round's state, shared by its phases.
struct Round<'a> {
    kind: Kind,
    args: &'a RoundArgs,
    bench: Bench,
    host: HostSpeed,
    report: Report,
    certifier: Certifier,
    kept: Vec<Kept>,
}

impl Round<'_> {
    /// Untraced phase: only `QueryEngine::answer` is called and timed.
    /// Returns the settled-node count of every op.
    fn timed_phase(&mut self, seconds: f64) -> Vec<u64> {
        let mut stream = Stream::new(self.kind, self.args.seed);
        let pass = stream.pass();
        let mut settled = Vec::new();
        let mut busy_ms = 0.0;
        while !self.args.phase_over(seconds, pass, settled.len(), busy_ms) {
            let op = settled.len();
            let q = stream.next();
            let guard = RunGuard::new();
            let start = Instant::now();
            let out = self.bench.engine.answer(&q.keywords, q.rmax, q.k, &guard);
            let ms = ms_since(start);
            busy_ms += ms;
            settled.push(guard.settled());
            self.host.tick();
            self.report.attempted += 1;
            match out {
                Ok(Outcome::Complete(answer)) if self.certifier.observe(&q, &answer) => {
                    self.report.query_ms.push(ms);
                    // Every fifth query of the first pass is also checked
                    // whole against COMM-all, where that terminates.
                    if self.kind == Kind::BibCold && op < pass && op % 5 == 0 {
                        self.kept.push(Kept { query: q, answer });
                    }
                }
                Ok(Outcome::Complete(_)) => self
                    .report
                    .fail(format!("{:?}: ranking broken", q.keywords)),
                Ok(Outcome::Interrupted { reason, .. }) => self
                    .report
                    .fail(format!("{:?}: interrupted: {reason}", q.keywords)),
                Err(e) => self.report.fail(format!("{:?}: {e}", q.keywords)),
            }
            if settled.len() == pass || self.args.phase_over(seconds, pass, settled.len(), busy_ms)
            {
                // Later passes only add to the answer cache, and how many
                // there are depends on the host's speed: peak RSS and the
                // inversion count are the first pass's (or, in a smoke
                // round that ends sooner, the phase's).
                if self.report.peak_rss_mb == 0.0 {
                    self.report.peak_rss_mb = peak_rss_mb() - self.host.buffer_mb();
                }
                self.certifier.stop_counting();
            }
        }
        self.report.timed_s = busy_ms / 1e3;
        settled
    }

    /// On the sparse graph COMM-all terminates, so a kept top-k answer can
    /// be checked as the cost-prefix of the full enumeration.
    fn check_prefixes(&mut self) {
        let graph = self.bench.engine.graph();
        for Kept { query, answer } in &self.kept {
            let guard = RunGuard::unlimited();
            let radius = self.kind.index_radius();
            let index = build_index(graph, &self.bench.vocab, &query.keywords, radius, &guard);
            let pq = index
                .try_project(&query.refs(), Weight::new(query.rmax), &guard)
                .expect("the query already ran");
            // A budget keeps a freak query from stalling the round; such a
            // query is skipped, not failed.
            let budget = RunGuard::new().with_candidate_budget(20_000);
            match comm_all_guarded(&pq.projected.graph, &pq.spec, budget) {
                Ok(Outcome::Complete(all)) => {
                    if !is_cost_prefix(answer, &all) {
                        self.report.fail(format!(
                            "{:?}: top-k is not COMM-all's prefix",
                            query.keywords
                        ));
                    }
                }
                Ok(Outcome::Interrupted { .. }) => {}
                Err(e) => self
                    .report
                    .fail(format!("{:?}: COMM-all: {e}", query.keywords)),
            }
        }
    }

    /// Traced phase: the first `ops` queries of the stream again, through
    /// the decomposed pipeline, each public call inside a span.
    fn traced_phase(&mut self, ops: usize) {
        let (kind, seed) = (self.kind, self.args.seed);
        let (graph, vocab) = (self.bench.engine.graph(), &self.bench.vocab);
        let radius = kind.index_radius();
        // The warm workload's indexes are resident; mirror the engine's LRU.
        let mut resident: HashMap<Vec<String>, Arc<ProjectionIndex>> = HashMap::new();
        if kind == Kind::RatingsWarm {
            for set in hot_sets(seed) {
                let index = build_index(graph, vocab, &set, radius, &RunGuard::unlimited());
                resident.insert(set, Arc::new(index));
            }
        }
        let mut tr = Tracer::new(true);
        let mut probes = Probes::default();
        let mut stream = Stream::new(kind, seed);
        let untraced = self.host.mark();
        // Counts are taken over the first pass: the same ops every round.
        let counted = stream.pass().min(ops);
        let (mut index_bytes, mut built, mut ratio) = (0usize, 0usize, 0.0f64);
        let (mut emitted, mut sweeps, mut peak, mut can_list) = (0usize, 0usize, 0usize, 0usize);
        for op in 0..ops {
            let q = stream.next();
            tr.set_op(op);
            let guard = RunGuard::new();
            let (index, e, cores) = tr.span("op", |tr| {
                let index = match resident.get(&q.keywords) {
                    Some(index) => Arc::clone(index),
                    None => {
                        let pairs = tr.span("serve.engine.lookup", |_| entries(vocab, &q.keywords));
                        std::hint::black_box(pairs);
                        Arc::new(tr.span("core.projection.build", |_| {
                            build_index(graph, vocab, &q.keywords, radius, &guard)
                        }))
                    }
                };
                let plan = Plan {
                    k: q.k as usize,
                    more: 0,
                    all: 0,
                };
                let mut e = enumerate(tr, &index, &q.refs(), q.rmax, plan, &guard)
                    .expect("the query ran untraced");
                let cores = if op % PROBE_EVERY == 0 {
                    probe_cores(&e.topk)
                } else {
                    Vec::new()
                };
                let lifted = lift_all(tr, &e.pq, std::mem::take(&mut e.topk));
                // `answer` stores a copy of a complete answer in its cache.
                let cached = tr.span("serve.engine.cache_fill", |_| Arc::new(lifted.clone()));
                std::hint::black_box((cached, lifted));
                (index, e, cores)
            });
            if op < counted {
                if !resident.contains_key(&q.keywords) {
                    index_bytes += index.byte_size();
                    built += 1;
                }
                ratio += index.projection_ratio(&e.pq);
                emitted += e.comm_k.emitted;
                sweeps += e.comm_k.sweeps;
                peak = peak.max(e.comm_k.peak_bytes);
                can_list += e.comm_k.can_list_len;
            }
            if op % PROBE_EVERY == 0 {
                probes.run(graph, vocab, &q, radius, &e.pq, &cores);
            }
            self.host.tick();
        }

        let report = &mut self.report;
        let layers = tr.layers();
        let mean = |name: &str| layers.get(name).map_or(0.0, |l| l.mean_ms());
        report.set("serve.engine.lookup_ms", mean("serve.engine.lookup"));
        report.set("core.projection.build_ms", mean("core.projection.build"));
        report.set(
            "core.projection.project_ms",
            mean("core.projection.project"),
        );
        report.set("core.projection.lift_ms", mean("core.projection.lift"));
        report.set("core.comm_k.new_ms", mean("core.comm_k.new"));
        report.set("core.comm_k.first_ms", mean("core.comm_k.first"));
        report.set("core.comm_k.next_ms", mean("core.comm_k.next"));
        report.set(
            "serve.engine.cache_fill_ms",
            mean("serve.engine.cache_fill"),
        );
        if let Some(mean_bytes) = index_bytes.checked_div(built) {
            report.set("core.projection.index_bytes", mean_bytes as f64);
        }
        report.set("core.projection.ratio", ratio / counted as f64);
        if emitted > 0 {
            report.set(
                "core.comm_k.sweeps_per_community",
                sweeps as f64 / emitted as f64,
            );
        }
        report.set("core.comm_k.peak_bytes", peak as f64);
        report.set("core.comm_k.can_list_len", can_list as f64 / counted as f64);
        probes.report(report, mean("core.comm_k.next"));
        let drift = self.host.factor_since(untraced);
        report.set_trace_ratios(&tr, report.timed_s * 1e3, drift);
        crate::write_out(
            &format!("trace-{}.json", kind.name()),
            &tr.to_json(kind.name()).render(),
        );
    }
}

pub fn run(kind: Kind, args: &RoundArgs) -> Report {
    let mut report = Report::new();
    let (bench, mut hosts) = set_up(
        args,
        &mut report,
        1,
        || setup(kind, args.seed),
        |b| b.engine.graph().byte_size(),
        drop,
    );
    let mut round = Round {
        kind,
        args,
        bench,
        host: hosts.remove(0),
        report,
        certifier: Certifier::new(args.seed),
        kept: Vec::new(),
    };
    let (ih0, im0, ah0, am0) = round.bench.engine.cache_stats();

    // A traced round splits its time between the untraced reference pass
    // and the traced replay of the same ops.
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let settled = round.timed_phase(seconds);
    round.report.set_host(&round.host);

    if args.trace {
        let (ih, im, ah, am) = round.bench.engine.cache_stats();
        let report = &mut round.report;
        report.set("serve.engine.index_hit_rate", hit_rate(ih - ih0, im - im0));
        report.set("serve.engine.answer_hit_rate", hit_rate(ah - ah0, am - am0));
        report.set("graph.csr.build_ms", round.bench.csr_build_ms);
        // Counts are taken over the first pass: the same ops every round.
        let pass = Stream::new(kind, args.seed).pass().min(settled.len());
        report.set(
            "graph.guard.settled_per_query",
            settled[..pass].iter().sum::<u64>() as f64 / pass as f64,
        );
        round.traced_phase(settled.len());
    }

    round.check_prefixes();
    let Round {
        bench,
        certifier,
        mut report,
        ..
    } = round;
    certifier.certify(bench.engine.graph(), &bench.vocab, &mut report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sorted_set(q: &Query) -> Vec<String> {
        let mut key = q.keywords.clone();
        key.sort_unstable();
        key
    }

    #[test]
    fn cold_pass_never_repeats_a_keyword_set() {
        for seed in [1, 2, 99] {
            let mut stream = Stream::new(Kind::BibCold, seed);
            let pass = stream.pass();
            // Far more distinct sets than the engine's index LRU holds, so
            // cycling through them misses it every time.
            assert!(pass > 4 * EngineConfig::default().index_cache_cap);
            let first: Vec<Query> = (0..pass).map(|_| stream.next()).collect();
            let distinct: HashSet<Vec<String>> = first.iter().map(sorted_set).collect();
            assert_eq!(distinct.len(), pass);
            for q in &first {
                let own: HashSet<&String> = q.keywords.iter().collect();
                assert_eq!(own.len(), q.keywords.len(), "distinct keywords in a set");
            }
            // The second pass repeats the sets under answer-cache keys the
            // first pass did not use.
            for q in &first {
                let again = stream.next();
                assert_eq!(again.keywords, q.keywords);
                assert_ne!(again.rmax.to_bits(), q.rmax.to_bits());
            }
        }
    }

    #[test]
    fn warm_pass_crosses_six_hot_sets_with_six_parameter_pairs() {
        let mut stream = Stream::new(Kind::RatingsWarm, 5);
        assert_eq!(stream.pass(), 36);
        let cells: Vec<Query> = (0..36).map(|_| stream.next()).collect();
        let sets: HashSet<Vec<String>> = cells.iter().map(sorted_set).collect();
        assert_eq!(sets.len(), HOT_SETS);
        let keys: HashSet<(Vec<String>, u64, u32)> = cells
            .iter()
            .map(|q| (q.keywords.clone(), q.rmax.to_bits(), q.k))
            .collect();
        assert_eq!(keys.len(), 36, "36 distinct answer-cache keys");
    }
}
