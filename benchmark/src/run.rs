//! `run`: every workload, several rounds, round-robin, each round a fresh
//! child process — so set-up time, peak RSS and cache state are that
//! round's own — then one traced round per workload. `compare`: two
//! result files held against each metric's bound.

use crate::json::{self, obj, Value};
use crate::manifest::{bounded, PER_LAYER, RUN_SECONDS, WORKLOADS};
use crate::stats::{iqr_share, median, percentile, sorted, top_percentile};
use crate::{Cli, OUT_DIR};
use std::path::Path;
use std::process::{Command, ExitCode};

/// Untraced rounds per workload of a full run; a smoke run makes one.
const ROUNDS: usize = 5;

/// What every round of one `run` shares.
struct Plan {
    seed: u64,
    seconds: f64,
    smoke: bool,
}

/// Seconds of a smoke round: about a tenth of a full one.
const SMOKE_SECONDS: f64 = 1.0;

/// Runs one round in a child process and returns its dump file, parsed.
fn child_round(plan: &Plan, workload: &str, trace: bool, dump: &Path) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &plan.seed.to_string()])
        .args(["--seconds", &plan.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(plan.smoke.then_some("--smoke"))
        .arg("--dump")
        .arg(dump)
        .output()
        .map_err(|e| format!("cannot start a round: {e}"))?;
    // A round that found wrong answers exits non-zero but still dumps;
    // its failures are counted below. No dump means it crashed.
    let text = std::fs::read_to_string(dump).map_err(|_| {
        format!(
            "{workload}: the round died ({}):\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        )
    })?;
    for line in String::from_utf8_lossy(&out.stderr).lines() {
        if line.starts_with("FAILED") {
            eprintln!("{line}");
        }
    }
    json::parse(&text)
}

/// A metric of a round's dump: from its result or, for an iterator
/// metric of an untraced round, from beside it.
fn metric_value(round: &Value, name: &str) -> f64 {
    let among = |metrics: Option<&Value>| {
        metrics
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Value::num)
    };
    among(round.get("result").and_then(|r| r.get("metrics")))
        .or_else(|| among(round.get("iterator")))
        .unwrap_or(f64::NAN)
}

fn count(round: &Value, key: &str) -> f64 {
    round
        .get("result")
        .and_then(|r| r.get(key))
        .and_then(Value::num)
        .unwrap_or(0.0)
}

/// `git rev-parse HEAD`, when the benchmark runs inside a git checkout.
fn git_revision() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Prints and returns the pooled percentiles of one sample: the median
/// and the highest tail the sample count supports.
fn pooled(key: &str, values: Vec<f64>) -> Value {
    let s = sorted(values);
    if s.is_empty() {
        return Value::Null;
    }
    let tail_p = top_percentile(s.len());
    let (n, p50, tail) = (s.len(), percentile(&s, 50.0), percentile(&s, tail_p));
    println!("  pooled {key:<31} p50 {p50:>10.4} ms   p{tail_p} {tail:>10.4} ms   (n = {n})");
    obj([
        ("n", Value::Num(n as f64)),
        ("p50", Value::Num(p50)),
        ("tail_p", Value::Num(tail_p)),
        ("tail", Value::Num(tail)),
    ])
}

pub fn run_command(cli: &Cli) -> Result<ExitCode, String> {
    // A smoke run is one short round per workload.
    let smoke = cli.has("--smoke");
    let plan = Plan {
        seed: cli.number("--seed", 1)?,
        seconds: if smoke {
            SMOKE_SECONDS
        } else {
            cli.number("--seconds", f64::from(RUN_SECONDS))?
        },
        smoke,
    };
    let rounds = if smoke { 1 } else { ROUNDS };
    let out_dir = Path::new(OUT_DIR);
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{OUT_DIR}: {e}"))?;

    // Round-robin across workloads, so a slow minute of the host lands on
    // one round of each and not on all rounds of one.
    let mut untraced: Vec<Vec<Value>> = vec![Vec::new(); WORKLOADS.len()];
    for r in 0..rounds {
        for (w, (name, _)) in WORKLOADS.iter().enumerate() {
            eprintln!("round {}/{rounds} {name}", r + 1);
            let dump = out_dir.join(format!("round-{name}-{r}.json"));
            untraced[w].push(child_round(&plan, name, false, &dump)?);
        }
    }
    let mut traced = Vec::new();
    for (name, _) in WORKLOADS {
        eprintln!("traced round {name}");
        let dump = out_dir.join(format!("traced-{name}.json"));
        traced.push(child_round(&plan, name, true, &dump)?);
    }

    let mut failed_total = 0.0;
    let mut workloads = Vec::new();
    for (w, (name, why)) in WORKLOADS.iter().enumerate() {
        let rounds_of = &untraced[w];
        let attempted: f64 = rounds_of.iter().map(|r| count(r, "attempted")).sum();
        let failed: f64 =
            rounds_of.iter().map(|r| count(r, "failed")).sum::<f64>() + count(&traced[w], "failed");
        failed_total += failed;
        println!("\n{name} — {why}");
        println!(
            "  ops attempted {attempted} succeeded {} failed {failed}  failed_share {:.6} ratio",
            attempted - failed,
            failed / attempted.max(1.0)
        );

        let mut end_to_end = Vec::new();
        for m in bounded(name) {
            let per_round: Vec<f64> = rounds_of.iter().map(|r| metric_value(r, m.name)).collect();
            println!(
                "  {:<38} {:>14.4} {:<5} (median of {} rounds; bound {:.0} %; rounds {})",
                m.name,
                median(&per_round),
                m.unit,
                per_round.len(),
                m.bound * 100.0,
                per_round
                    .iter()
                    .map(|v| format!("{v:.4}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            );
            end_to_end.push((
                m.name,
                obj([
                    ("unit", Value::text(m.unit)),
                    ("better", Value::text(m.better)),
                    ("bound", Value::Num(m.bound)),
                    ("median", Value::Num(median(&per_round))),
                    ("per_round", Value::nums(&per_round)),
                ]),
            ));
        }

        // Percentiles over the ops pooled from all rounds.
        let mut pools = Vec::new();
        let keys: Vec<String> = rounds_of[0]
            .get("samples")
            .map(|s| s.obj().iter().map(|(k, _)| k.clone()).collect())
            .unwrap_or_default();
        for key in keys {
            let values: Vec<f64> = rounds_of
                .iter()
                .filter_map(|r| r.get("samples").and_then(|s| s.get(&key)))
                .flat_map(|v| v.arr().iter().filter_map(Value::num))
                .collect();
            let p = pooled(&key, values);
            pools.push((key, p));
        }

        let qps: Vec<f64> = rounds_of
            .iter()
            .map(|r| metric_value(r, "queries_per_s"))
            .collect();
        let (lo, hi) = qps.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
        let round_spread = (hi - lo) / median(&qps);
        println!(
            "  {:<38} {round_spread:>14.4} ratio",
            "harness.round_spread"
        );

        let mut per_layer = Vec::new();
        for (layer, unit, _) in PER_LAYER {
            let value = metric_value(&traced[w], layer);
            println!("  {layer:<38} {value:>14.4} {unit}");
            per_layer.push((
                layer,
                obj([("value", Value::Num(value)), ("unit", Value::text(unit))]),
            ));
        }

        workloads.push((
            *name,
            obj([
                ("attempted", Value::Num(attempted)),
                ("failed", Value::Num(failed)),
                ("failed_share", Value::Num(failed / attempted.max(1.0))),
                ("end_to_end", obj(end_to_end)),
                ("pooled", obj(pools)),
                ("round_spread", Value::Num(round_spread)),
                ("per_layer", obj(per_layer)),
            ]),
        ));
    }

    let results = obj([
        // This file records a state; it claims no gain over any other.
        ("claim", Value::Null),
        (
            "provenance",
            obj([
                (
                    "nproc",
                    Value::Num(
                        std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64),
                    ),
                ),
                ("arch", Value::Str(std::env::consts::ARCH.to_string())),
                ("os", Value::Str(std::env::consts::OS.to_string())),
                ("git_revision", Value::Str(git_revision())),
                ("seed", Value::Num(plan.seed as f64)),
                ("seconds", Value::Num(plan.seconds)),
                ("rounds", Value::Num(rounds as f64)),
            ]),
        ),
        ("workloads", obj(workloads)),
    ]);
    let path = cli.value("--out").map_or_else(
        || out_dir.join("results.json"),
        |p| Path::new(p).to_path_buf(),
    );
    std::fs::write(&path, results.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("\nresults written to {}", path.display());
    Ok(if failed_total == 0.0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("{failed_total} operations failed");
        ExitCode::FAILURE
    })
}

/// The workloads driven by one thread, whose counts must repeat exactly.
fn single_threaded(workload: &str) -> bool {
    workload != "serve_mixed"
}

pub fn compare_command(a_path: &str, b_path: &str) -> Result<ExitCode, String> {
    let load = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| json::parse(&text).map_err(|e| format!("{path}: {e}")))
    };
    Ok(if compare(&load(a_path)?, &load(b_path)?) == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Holds result file `b` against `a`, its parent: prints a verdict per
/// workload × bounded metric and returns how many are regressions (more
/// failed operations, a median worse by more than its bound, a count that
/// differs, or anything missing).
fn compare(a: &Value, b: &Value) -> usize {
    let mut bad = 0;
    for (name, _) in WORKLOADS {
        let side = |v: &Value| v.get("workloads").and_then(|w| w.get(name)).cloned();
        let (Some(wa), Some(wb)) = (side(a), side(b)) else {
            println!("{name}: missing from one file");
            bad += 1;
            continue;
        };
        // More failed operations than the parent is a regression whatever
        // the times say: a failed op is missing from every latency.
        let failed = |w: &Value| w.get("failed").and_then(Value::num).unwrap_or(f64::NAN);
        let (fa, fb) = (failed(&wa), failed(&wb));
        let verdict = if fb <= fa {
            "ok"
        } else {
            bad += 1;
            "regressed"
        };
        println!(
            "{name:<20} {:<19} {verdict:<10} A {fa:>12} B {fb:>12} ops   (must not rise)",
            "failed"
        );
        for m in bounded(name) {
            let rounds = |w: &Value| -> Vec<f64> {
                w.get("end_to_end")
                    .and_then(|e| e.get(m.name))
                    .and_then(|e| e.get("per_round"))
                    .map(|v| v.arr().iter().filter_map(Value::num).collect())
                    .unwrap_or_default()
            };
            let (ra, rb) = (rounds(&wa), rounds(&wb));
            if ra.is_empty() || rb.is_empty() {
                println!("{name:<20} {:<19} missing", m.name);
                bad += 1;
                continue;
            }
            let (ma, mb) = (median(&ra), median(&rb));
            let lower_is_better = m.better == "lower";
            // How much worse B's median is than A's, as a share of A's.
            let worse = if lower_is_better {
                (mb - ma) / ma
            } else {
                (ma - mb) / ma
            };
            let spread = |r: &[f64]| if r.len() >= 2 { iqr_share(r) } else { 0.0 };
            let widest = spread(&ra).max(spread(&rb));
            let every_b_better = rb.iter().all(|&vb| {
                ra.iter()
                    .all(|&va| if lower_is_better { vb < va } else { vb > va })
            });
            // A spread wider than the bound resolves nothing either way,
            // unless every run of B beats every run of A.
            let verdict = if widest > m.bound && !every_b_better {
                "unresolved"
            } else if worse > m.bound {
                bad += 1;
                "regressed"
            } else {
                "ok"
            };
            println!(
                "{name:<20} {:<19} {verdict:<10} A {ma:>12.4} B {mb:>12.4} {:<5} change {:+.1} % (bound {:.0} %, spread {:.1} %)",
                m.name,
                m.unit,
                worse * 100.0,
                m.bound * 100.0,
                widest * 100.0
            );
        }
        if single_threaded(name) {
            let layer = |w: &Value, l: &str| {
                w.get("per_layer")
                    .and_then(|p| p.get(l))
                    .and_then(|m| m.get("value"))
                    .and_then(Value::num)
            };
            for (l, unit, _) in PER_LAYER {
                if unit != "count" {
                    continue;
                }
                let (va, vb) = (layer(&wa, l), layer(&wb, l));
                if va != vb {
                    bad += 1;
                    println!("{name:<20} {l:<38} count differs: A {va:?} B {vb:?}");
                }
            }
            println!("{name:<20} counts compared");
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A result file in which every bounded metric read `value` in each of
    /// three rounds, except `delay_ms_p50`, and `failed` ops failed.
    fn results(value: f64, delay_ms_p50: f64, failed: f64) -> Value {
        let workloads = WORKLOADS.iter().map(|(name, _)| {
            let end_to_end = bounded(name).into_iter().map(|m| {
                let v = if m.name == "delay_ms_p50" {
                    delay_ms_p50
                } else {
                    value
                };
                (m.name, obj([("per_round", Value::nums(&[v, v * 1.01, v]))]))
            });
            let w = obj([
                ("failed", Value::Num(failed)),
                ("end_to_end", obj(end_to_end)),
                ("per_layer", obj::<&str>([])),
            ]);
            (*name, w)
        });
        obj([("workloads", obj(workloads))])
    }

    #[test]
    fn compare_gates_failures_and_the_iterator_metrics() {
        let parent = results(10.0, 1.0, 0.0);
        assert_eq!(compare(&parent, &parent), 0);
        // Within every bound.
        assert_eq!(compare(&parent, &results(10.0, 1.2, 0.0)), 0);
        // COMM-all's delay doubled: one metric of one workload.
        assert_eq!(compare(&parent, &results(10.0, 2.0, 0.0)), 1);
        // One more failed op than the parent, on each workload.
        assert_eq!(compare(&parent, &results(10.0, 1.0, 1.0)), WORKLOADS.len());
        // Fewer failures than the parent are no regression.
        assert_eq!(compare(&results(10.0, 1.0, 1.0), &parent), 0);
    }
}
