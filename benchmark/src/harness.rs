//! What every round shares: its arguments, its report, and the probes of
//! the machine itself (peak RSS, the calibration loop).

use crate::json::{obj, Value};
use crate::manifest::{END_TO_END, ITERATOR, PER_LAYER};
use crate::stats::{median, percentile, sorted};
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::time::Instant;

/// How many times an untraced round sets up; the median is reported. On
/// the recording sandbox one set-up per run spread by 7–20 % of the median
/// (inter-quartile, twelve runs per workload), the median of five by 5–13 %.
const SETUP_REPS: usize = 5;

/// One round: one workload, one seed, one process.
pub struct RoundArgs {
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    pub trace: bool,
    /// A short round for CI-style use: one set-up, and the timed phase
    /// ends right at `seconds`.
    pub smoke: bool,
}

impl RoundArgs {
    /// Whether a timed phase that issued `issued` queries of a `pass`-query
    /// cycle in `busy_ms` is over: at the first pass boundary after
    /// `seconds` (every round then measures the same mix), and never later
    /// than half as long again.
    pub fn phase_over(&self, seconds: f64, pass: usize, issued: usize, busy_ms: f64) -> bool {
        let at_boundary = self.smoke || issued.is_multiple_of(pass);
        (busy_ms >= seconds * 1e3 && at_boundary) || busy_ms >= seconds * 1.5e3
    }
}

/// Sets the round up — [`SETUP_REPS`] times, or once when the round is
/// traced (it reports no set-up time) or a smoke round — one instance alive
/// at a time, so peak RSS is one round's. Each set-up is timed and scaled
/// by the host's speed right around it: one pass of the reference loop
/// before and one after (a set-up lasts 0.05–0.2 s, and the speed measured
/// seconds later in the timed phase is not the speed it ran at). Returns
/// the last instance with `probes` host-speed probes sized to its graph.
/// The probes exist from the first set-up on, so that whichever phase sets
/// the peak RSS, the peak includes all their buffers.
pub fn set_up<B>(
    args: &RoundArgs,
    report: &mut Report,
    probes: usize,
    mut build: impl FnMut() -> B,
    graph_bytes: impl Fn(&B) -> usize,
    mut tear_down: impl FnMut(B),
) -> (B, Vec<HostSpeed>) {
    let reps = if args.trace || args.smoke {
        1
    } else {
        SETUP_REPS
    };
    let mut hosts: Vec<HostSpeed> = Vec::new();
    let mut built: Option<B> = None;
    for _ in 0..reps {
        if let Some(previous) = built.take() {
            tear_down(previous);
        }
        let before = hosts.first_mut().map(HostSpeed::pass_ms);
        let start = Instant::now();
        let b = build();
        let seconds = start.elapsed().as_secs_f64();
        while hosts.len() < probes {
            hosts.push(HostSpeed::new(graph_bytes(&b)));
        }
        let after = hosts[0].pass_ms();
        // The first set-up has no probe before it: its graph sizes them.
        let calib_ms = before.map_or(after, |before| (before + after) / 2.0);
        report.setup_s.push(seconds * CALIB_REF_MS / calib_ms);
        built = Some(b);
    }
    (built.expect("at least one set-up"), hosts)
}

/// `hits / (hits + misses)`, 0 when nothing was looked up.
pub fn hit_rate(hits: u64, misses: u64) -> f64 {
    hits as f64 / (hits + misses).max(1) as f64
}

/// Everything a round measured.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// What failed, for the first few failures.
    pub verify_failures: Vec<String>,
    /// Every set-up's time, already at reference speed (see [`set_up`]).
    pub setup_s: Vec<f64>,
    /// Call-to-complete-answer time of every timed query, in ms.
    pub query_ms: Vec<f64>,
    /// Seconds spent in timed queries (for `queries_per_s`).
    pub timed_s: f64,
    pub peak_rss_mb: f64,
    /// Host slowdown measured during the round; times are divided by it.
    pub host_factor: f64,
    /// Per-layer values by name (traced rounds).
    pub layers: BTreeMap<&'static str, f64>,
    /// Raw samples kept for pooling across rounds.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Report {
    pub fn new() -> Report {
        Report {
            attempted: 0,
            failed: 0,
            verify_failures: Vec::new(),
            setup_s: Vec::new(),
            query_ms: Vec::new(),
            timed_s: 0.0,
            peak_rss_mb: 0.0,
            host_factor: 1.0,
            layers: BTreeMap::new(),
            samples: BTreeMap::new(),
        }
    }

    /// Closes the round's host-speed measurement.
    pub fn set_host(&mut self, host: &HostSpeed) {
        self.host_factor = host.factor();
        self.layers.insert("harness.calib_ms", host.calib_ms());
        self.layers.insert("harness.host_factor", host.factor());
    }

    /// `trace.coverage` (Σ self time of the layer spans ÷ the untraced time
    /// of the same ops) and `trace.overhead` (traced ÷ untraced op time).
    /// `drift` is how much slower the host ran during the traced phase
    /// than during the untraced one ([`HostSpeed::factor_since`]).
    pub fn set_trace_ratios(&mut self, tr: &Tracer, untraced_ms: f64, drift: f64) {
        let layers = tr.layers();
        let attributed: f64 = layers
            .iter()
            .filter(|(name, _)| **name != "op")
            .map(|(_, l)| l.self_ms)
            .sum();
        self.set("trace.coverage", attributed / untraced_ms / drift);
        self.set(
            "trace.overhead",
            layers["op"].total_ms / untraced_ms / drift,
        );
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|m| m.0 == name), "{name}");
        self.layers.insert(name, value);
    }

    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.verify_failures.len() < 8 {
            self.verify_failures.push(what);
        }
    }

    /// Ops that completed and verified. A certification failure found
    /// after the timed phase counts against the op that produced it.
    pub fn succeeded(&self) -> u64 {
        self.attempted.saturating_sub(self.failed)
    }

    /// An end-to-end metric; `query_ms` is the round's latencies, sorted.
    /// Percentiles are taken over every op of the round. A round whose ops
    /// all failed has no latencies and reports 0 for them.
    fn end_to_end(&self, name: &str, query_ms: &[f64]) -> f64 {
        let f = self.host_factor;
        match name {
            "query_ms_p50" => percentile(query_ms, 50.0) / f,
            "query_ms_p90" => percentile(query_ms, 90.0) / f,
            "queries_per_s" if self.timed_s == 0.0 => 0.0,
            "queries_per_s" => self.succeeded() as f64 / self.timed_s * f,
            "peak_rss_mb" => self.peak_rss_mb,
            "setup_s" => median(&self.setup_s),
            other => unreachable!("unknown end-to-end metric {other}"),
        }
    }

    /// The iterator metrics, on the workload that measures them: bounded
    /// like the end-to-end metrics (see [`ITERATOR`]), so every round
    /// reports them, traced or not.
    pub fn iterator_metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        ITERATOR
            .iter()
            .filter_map(|m| {
                let raw = self.layers.get(m.name)?;
                Some((m.name, raw / self.host_factor, m.unit))
            })
            .collect()
    }

    /// `(name, value, unit)` of the metrics this kind of round reports:
    /// every end-to-end metric untraced, every per-layer metric traced.
    pub fn metrics(&self, trace: bool) -> Vec<(&'static str, f64, &'static str)> {
        if trace {
            PER_LAYER
                .iter()
                .map(|&(name, unit, _)| {
                    let raw = self.layers.get(name).copied().unwrap_or(0.0);
                    // Layer times are reference-speed too; the raw
                    // calibration reading of course is not.
                    let timed = matches!(unit, "ms" | "ns") && name != "harness.calib_ms";
                    (name, if timed { raw / self.host_factor } else { raw }, unit)
                })
                .collect()
        } else {
            let query_ms = sorted(self.query_ms.clone());
            END_TO_END
                .iter()
                .map(|m| (m.name, self.end_to_end(m.name, &query_ms), m.unit))
                .collect()
        }
    }

    /// The result object the driver reads from the last line of stdout.
    pub fn result_line(&self, trace: bool) -> Value {
        obj([
            ("correct", Value::Bool(self.failed == 0)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", metrics_obj(self.metrics(trace))),
        ])
    }

    /// The round file `run` pools from: the result, the iterator metrics
    /// (which the result of an untraced round has no place for) and every
    /// sample, in reference-speed ms like the metrics.
    pub fn dump(&self, trace: bool) -> Value {
        let scaled =
            |v: &[f64]| Value::Arr(v.iter().map(|x| Value::Num(x / self.host_factor)).collect());
        let mut samples: Vec<(&str, Value)> = vec![("query_ms", scaled(&self.query_ms))];
        samples.extend(self.samples.iter().map(|(k, v)| (*k, scaled(v))));
        obj([
            ("result", self.result_line(trace)),
            ("iterator", metrics_obj(self.iterator_metrics())),
            ("host_factor", Value::Num(self.host_factor)),
            ("samples", obj(samples)),
        ])
    }
}

/// `{name: {"value", "unit"}}`, the shape of the result's `metrics`.
fn metrics_obj(metrics: Vec<(&'static str, f64, &'static str)>) -> Value {
    obj(metrics.into_iter().map(|(name, value, unit)| {
        (
            name,
            obj([("value", Value::Num(value)), ("unit", Value::text(unit))]),
        )
    }))
}

/// Peak resident set of this process so far, in MiB (`VmHWM`). Callers
/// subtract the calibration buffers, which are the harness's own.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The reference loop's time on the reference host: times are reported as
/// if the host ran the loop this fast. About what the recording sandbox
/// takes, so reported times are close to wall times there.
pub const CALIB_REF_MS: f64 = 14.0;
/// Work between two calibration passes: about 8 % of a round goes to them.
const CALIB_EVERY_MS: f64 = 120.0;
const SORT_ROUNDS: u64 = 3;
const CHASE_STEPS: usize = 60_000;

/// Samples the host's speed throughout a round. This sandbox's speed
/// drifts by 20–50 % over seconds to minutes (identical work, bit-equal
/// counts, 24–36 ms medians); a round cannot average that out, but it can
/// measure it: a fixed reference loop runs between operations, and the
/// round's times are divided by `median(calib) / CALIB_REF_MS`.
///
/// The loop has no engine code and two halves, because the host slows
/// cache-resident and memory-bound code by different amounts: it grows a
/// vector and sorts it by a hashed key (allocation, copying, branchy
/// compares within a few hundred KiB), then chases a dependent chain of
/// scattered reads and writes through a buffer as large as the round's
/// graph (cache misses at the workload's own footprint; next to nothing
/// when the graph fits in cache). On identical work each half alone left
/// a residual that grew or shrank with the drift; together they track it.
pub struct HostSpeed {
    buf: Vec<u64>,
    samples: Vec<f64>,
    last: Instant,
}

impl HostSpeed {
    /// `footprint` is the byte size of the round's graph.
    pub fn new(footprint: usize) -> HostSpeed {
        let words = (footprint / 8).clamp(1 << 15, 1 << 23).next_power_of_two();
        let mut host = HostSpeed {
            buf: (0..words as u64).collect(),
            samples: Vec::new(),
            last: Instant::now(),
        };
        host.sample();
        host
    }

    /// The probe's own memory, which `peak_rss_mb` leaves out.
    pub fn buffer_mb(&self) -> f64 {
        (self.buf.len() * 8) as f64 / (1 << 20) as f64
    }

    /// One pass of the reference loop, in ms.
    fn pass_ms(&mut self) -> f64 {
        let start = Instant::now();
        let mut acc = 0u64;
        for round in 0..SORT_ROUNDS {
            let mut v: Vec<u64> = Vec::new();
            for i in 0..(1u64 << 16) {
                v.push(i ^ round);
            }
            v.sort_unstable_by_key(|x| x.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            acc = acc.wrapping_add(v[v.len() / 2]);
        }
        let mask = self.buf.len() - 1;
        let mut x = acc | 1;
        for _ in 0..CHASE_STEPS {
            // The next slot depends on the value just read.
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let slot = (x >> 24) as usize & mask;
            x ^= self.buf[slot];
            self.buf[slot] = x;
        }
        std::hint::black_box(x);
        start.elapsed().as_secs_f64() * 1e3
    }

    /// Takes a sample if enough work has passed since the last one. Call
    /// between operations, outside anything timed.
    pub fn tick(&mut self) {
        if ms_since(self.last) >= CALIB_EVERY_MS {
            self.sample();
        }
    }

    pub fn sample(&mut self) {
        let ms = self.pass_ms();
        self.samples.push(ms);
        self.last = Instant::now();
    }

    pub fn merge(&mut self, other: HostSpeed) {
        self.samples.extend(other.samples);
    }

    /// The round's median reference-loop time, in ms.
    pub fn calib_ms(&self) -> f64 {
        median(&self.samples)
    }

    /// How much slower than the reference the host ran during the round.
    pub fn factor(&self) -> f64 {
        self.calib_ms() / CALIB_REF_MS
    }

    /// Samples taken so far: a mark for [`factor_since`](Self::factor_since).
    pub fn mark(&self) -> usize {
        self.samples.len()
    }

    /// The host's speed over the samples after `mark`, relative to its
    /// speed over those before: the drift between two phases of a round.
    pub fn factor_since(&self, mark: usize) -> f64 {
        let (before, after) = self.samples.split_at(mark);
        if before.is_empty() || after.is_empty() {
            1.0
        } else {
            median(after) / median(before)
        }
    }
}

/// Milliseconds since `start`.
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}
