//! The repo's end-to-end benchmark: four workloads, five end-to-end
//! metrics, one per-layer ledger. See `benchmark/README.md`.
//!
//! ```text
//! comm-benchmark --workload W --seed N --seconds S --trace 0|1   one round
//! comm-benchmark run [--seed N] [--seconds S] [--smoke] [--out F]
//! comm-benchmark compare A.json B.json
//! comm-benchmark manifest                                        BENCHMARK.json
//! ```

mod delay;
mod gen;
mod harness;
mod json;
mod manifest;
mod pipeline;
mod run;
mod serve;
mod stats;
mod topk;
mod trace;

use harness::{Report, RoundArgs};
use std::path::Path;
use std::process::ExitCode;

/// Where rounds leave their files, relative to the working directory (the
/// root of the checkout).
pub const OUT_DIR: &str = "benchmark/out";

/// Writes `text` to `benchmark/out/<name>`.
pub fn write_out(name: &str, text: &str) {
    let dir = Path::new(OUT_DIR);
    std::fs::create_dir_all(dir).expect("create benchmark/out");
    std::fs::write(dir.join(name), text).expect("write under benchmark/out");
}

/// `--flag value` pairs and bare words of a command line.
pub struct Cli {
    argv: Vec<String>,
}

impl Cli {
    pub fn value(&self, flag: &str) -> Option<&str> {
        let i = self.argv.iter().position(|a| a == flag)?;
        self.argv.get(i + 1).map(String::as_str)
    }

    pub fn has(&self, flag: &str) -> bool {
        self.argv.iter().any(|a| a == flag)
    }

    /// A numeric flag, `default` when absent; `Err` when unparsable.
    pub fn number<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.value(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{flag}: cannot read {v:?}")),
        }
    }
}

/// Runs one round; `None` (at once) for a workload that does not exist.
fn round(workload: &str, args: &RoundArgs) -> Option<Report> {
    Some(match workload {
        "bib_cold_topk" => topk::run(topk::Kind::BibCold, args),
        "ratings_warm_topk" => topk::run(topk::Kind::RatingsWarm, args),
        "ratings_all_delay" => delay::run(args),
        "serve_mixed" => serve::run(args),
        _ => return None,
    })
}

/// One round, as the driver (or `run`) invokes it.
fn round_command(cli: &Cli) -> Result<ExitCode, String> {
    let workload = cli.value("--workload").ok_or("--workload is required")?;
    let seconds = cli.number("--seconds", f64::from(manifest::RUN_SECONDS))?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds {seconds} is outside (0, 60]"));
    }
    let args = RoundArgs {
        seed: cli.number("--seed", 1)?,
        seconds,
        trace: match cli.value("--trace") {
            None | Some("0") => false,
            Some("1") => true,
            Some(v) => return Err(format!("--trace takes 0 or 1, not {v:?}")),
        },
        smoke: cli.has("--smoke"),
    };
    let mut report =
        round(workload, &args).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    report.set(
        "failed_share",
        report.failed as f64 / report.attempted.max(1) as f64,
    );
    for failure in &report.verify_failures {
        eprintln!("FAILED {workload}: {failure}");
    }
    eprintln!(
        "{workload}: attempted {} succeeded {} failed {} (host factor {:.3})",
        report.attempted,
        report.succeeded(),
        report.failed,
        report.host_factor
    );
    let mut metrics = report.metrics(args.trace);
    if !args.trace {
        // A traced round has these among its per-layer metrics already.
        metrics.extend(report.iterator_metrics());
    }
    for (name, value, unit) in metrics {
        eprintln!("  {name:<38} {value:>16.4} {unit}");
    }
    if let Some(path) = cli.value("--dump") {
        std::fs::write(path, report.dump(args.trace).pretty())
            .map_err(|e| format!("{path}: {e}"))?;
    }
    // The last line of stdout is the result the driver reads.
    println!("{}", report.result_line(args.trace).render());
    Ok(if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let cli = Cli {
        argv: std::env::args().skip(1).collect(),
    };
    let outcome = match cli.argv.first().map(String::as_str) {
        Some("run") => run::run_command(&cli),
        Some("compare") => match (cli.argv.get(1), cli.argv.get(2)) {
            (Some(a), Some(b)) => run::compare_command(a, b),
            _ => Err("compare takes two result files".to_string()),
        },
        Some("manifest") => {
            print!("{}", manifest::manifest().pretty());
            Ok(ExitCode::SUCCESS)
        }
        _ => round_command(&cli),
    };
    outcome.unwrap_or_else(|message| {
        eprintln!("comm-benchmark: {message}");
        ExitCode::from(2)
    })
}
