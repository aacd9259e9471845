//! `comm-explore batch` — non-interactive batch-query mode.
//!
//! Runs a benchmark keyword workload through [`BatchRunner`] across a
//! thread pool, printing per-thread-count throughput and latency
//! percentiles. Ctrl-C trips the batch-wide cancel flag: every in-flight
//! query unwinds through its `RunGuard` and is reported as interrupted.

use crate::exit_codes;
use comm_bench::{BatchQuery, BatchRunner, Prepared, Scale};
use comm_core::Parallelism;
use std::path::Path;
use std::time::Duration;

/// Usage text for `comm-explore batch --help`.
pub const BATCH_HELP: &str = "\
usage: comm-explore batch [options]

Runs the benchmark keyword workload concurrently and reports throughput
and latency percentiles.

options:
  --dataset dblp|imdb   dataset to generate (default dblp)
  --quick               smaller dataset for smoke runs
  --threads N           worker threads (default: available cores)
  --l N                 keywords per query (default 4)
  --k N                 top-k per query (default: grid default)
  --repeat N            workload replicas (default 2)
  --deadline SECS       per-query deadline (default 30)
  --out PATH            also write the report as JSON
  --help                this text";

struct Options {
    dataset: String,
    scale: Scale,
    threads: Option<usize>,
    l: usize,
    k: Option<usize>,
    repeat: usize,
    deadline: u64,
    out: Option<String>,
}

fn parse_options(args: &[String]) -> Result<Option<Options>, String> {
    let mut opts = Options {
        dataset: "dblp".to_owned(),
        scale: Scale::Full,
        threads: None,
        l: 4,
        k: None,
        repeat: 2,
        deadline: 30,
        out: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--help" | "-h" => return Ok(None),
            "--quick" => opts.scale = Scale::Quick,
            "--dataset" => opts.dataset = value("--dataset")?,
            "--threads" => {
                opts.threads = Some(parse_num(&value("--threads")?, "--threads")?);
            }
            "--l" => opts.l = parse_num(&value("--l")?, "--l")?,
            "--k" => opts.k = Some(parse_num(&value("--k")?, "--k")?),
            "--repeat" => opts.repeat = parse_num(&value("--repeat")?, "--repeat")?,
            "--deadline" => {
                opts.deadline = parse_num(&value("--deadline")?, "--deadline")? as u64;
            }
            "--out" => opts.out = Some(value("--out")?),
            other => return Err(format!("unknown option '{other}' (try --help)")),
        }
    }
    Ok(Some(opts))
}

fn parse_num(s: &str, name: &str) -> Result<usize, String> {
    s.parse()
        .map_err(|_| format!("{name}: '{s}' is not a number"))
}

/// Entry point for the `batch` subcommand. Returns the process exit code.
pub fn run(
    args: &[String],
    cancel: std::sync::Arc<std::sync::atomic::AtomicBool>,
    cache: Option<&Path>,
) -> i32 {
    let opts = match parse_options(args) {
        Ok(Some(opts)) => opts,
        Ok(None) => {
            println!("{BATCH_HELP}");
            return exit_codes::OK;
        }
        Err(e) => {
            eprintln!("error: {e}");
            return exit_codes::USAGE;
        }
    };
    let prepared = match opts.dataset.as_str() {
        "dblp" => Prepared::dblp(opts.scale, cache),
        "imdb" => Prepared::imdb(opts.scale, cache),
        other => {
            eprintln!("error: unknown dataset '{other}' (dblp or imdb)");
            return exit_codes::USAGE;
        }
    };
    let graph = &prepared.dataset.graph.graph;
    let (_, _, rmax, default_k) = prepared.grid.defaults;
    let k = opts.k.unwrap_or(default_k);
    println!(
        "dataset {} — n={} m={}",
        prepared.name,
        graph.node_count(),
        graph.edge_count()
    );

    let mut queries = Vec::new();
    for round in 0..opts.repeat {
        for &kwf in prepared.grid.kwf {
            let kws = prepared.keywords(kwf, opts.l);
            queries.push(BatchQuery {
                label: format!("r{round}-{}", kws.join("+")),
                keyword_nodes: kws
                    .iter()
                    .map(|kw| prepared.dataset.graph.keyword_nodes(kw).to_vec())
                    .collect(),
                rmax,
                k,
            });
        }
    }

    let parallelism = opts
        .threads
        .map_or_else(Parallelism::auto, Parallelism::new);
    let runner = BatchRunner::new(parallelism).with_deadline(Duration::from_secs(opts.deadline));
    // Route Ctrl-C into the batch-wide cancel flag.
    let shared = runner.cancel_flag();
    let watch = std::sync::Arc::clone(&cancel);
    std::thread::spawn(move || loop {
        if watch.load(std::sync::atomic::Ordering::SeqCst) {
            shared.store(true, std::sync::atomic::Ordering::SeqCst);
            return;
        }
        std::thread::sleep(Duration::from_millis(50));
    });

    println!(
        "running {} queries (l={}, k={k}, deadline {}s) on {} threads",
        queries.len(),
        opts.l,
        opts.deadline,
        runner.threads()
    );
    let report = runner.run(graph, &queries);
    println!(
        "wall {:.2} ms — {:.2} queries/s — {} completed, {} interrupted, {} invalid",
        report.wall_ms, report.qps, report.completed, report.interrupted, report.invalid
    );
    let lat = report.latency_ms;
    println!(
        "latency ms: p50 {:.3}, p90 {:.3}, p99 {:.3}, max {:.3}, mean {:.3}",
        lat.p50, lat.p90, lat.p99, lat.max, lat.mean
    );
    for r in &report.results {
        println!("  {:40} {:10.0} µs  {:?}", r.label, r.latency_us, r.status);
    }
    if let Some(path) = &opts.out {
        match std::fs::write(path, report.to_json() + "\n") {
            Ok(()) => println!("wrote {path}"),
            Err(e) => {
                eprintln!("error: could not write {path}: {e}");
                return exit_codes::RUNTIME;
            }
        }
    }
    if report.interrupted > 0 {
        exit_codes::INTERRUPTED
    } else {
        exit_codes::OK
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| (*x).to_owned()).collect()
    }

    #[test]
    fn parses_defaults_and_overrides() {
        let o = parse_options(&[]).unwrap().unwrap();
        assert_eq!(o.dataset, "dblp");
        assert_eq!(o.l, 4);
        assert_eq!(o.repeat, 2);
        assert!(o.threads.is_none());
        let o = parse_options(&s(&[
            "--quick",
            "--dataset",
            "imdb",
            "--threads",
            "3",
            "--l",
            "2",
            "--k",
            "7",
            "--repeat",
            "5",
            "--deadline",
            "9",
            "--out",
            "x.json",
        ]))
        .unwrap()
        .unwrap();
        assert_eq!(o.dataset, "imdb");
        assert_eq!(o.scale, Scale::Quick);
        assert_eq!(o.threads, Some(3));
        assert_eq!(o.l, 2);
        assert_eq!(o.k, Some(7));
        assert_eq!(o.repeat, 5);
        assert_eq!(o.deadline, 9);
        assert_eq!(o.out.as_deref(), Some("x.json"));
    }

    #[test]
    fn help_and_errors() {
        assert!(parse_options(&s(&["--help"])).unwrap().is_none());
        assert!(parse_options(&s(&["--bogus"])).is_err());
        assert!(parse_options(&s(&["--threads"])).is_err());
        assert!(parse_options(&s(&["--threads", "x"])).is_err());
    }
}
