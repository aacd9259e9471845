//! `comm-explore` — interactive explorer for keyword community search.
//!
//! ```bash
//! cargo run --release -p comm-cli --bin comm-explore
//! communities> load dblp 0.5
//! communities> query database optimization k=3
//! communities> more 5
//! communities> trees 5
//! ```
//!
//! Commands can also be piped on stdin for scripted use.
//!
//! Ctrl-C during a query flips the session's cancel flag: the in-flight
//! enumeration unwinds through its `RunGuard` and the REPL keeps going.
//!
//! `serve` runs the resident query daemon — the one way to run many
//! queries at once, each on its own connection thread — and `client`
//! talks to it; both follow the exit-code contract in [`exit_codes`]:
//!
//! ```bash
//! cargo run --release -p comm-cli --bin comm-explore -- serve --addr 127.0.0.1:0
//! cargo run --release -p comm-cli --bin comm-explore -- client query alpha beta
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod commands;
mod daemon;
mod exit_codes;
mod session;

use comm_datasets::cache::cache_dir;
use commands::{parse, Command, HELP};
use session::Session;
use std::io::{BufRead, Write};
use std::path::Path;

/// SIGINT handling without external crates: the handler only stores to a
/// process-global `AtomicBool` shared with the session's `RunGuard`.
mod sigint {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, OnceLock};

    static FLAG: OnceLock<Arc<AtomicBool>> = OnceLock::new();

    extern "C" fn on_sigint(_signum: i32) {
        // Only async-signal-safe work here: one atomic store.
        if let Some(flag) = FLAG.get() {
            flag.store(true, Ordering::SeqCst);
        }
    }

    const SIGINT: i32 = 2;

    #[allow(unsafe_code)]
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    /// Routes Ctrl-C into `flag`. Later calls are no-ops.
    pub fn install(flag: Arc<AtomicBool>) {
        if FLAG.set(flag).is_err() {
            return;
        }
        // SAFETY: registers a handler that performs a single atomic store;
        // `signal(2)` with glibc's BSD semantics restarts interrupted
        // reads, so the REPL's `read_line` is unaffected.
        #[allow(unsafe_code)]
        unsafe {
            signal(SIGINT, on_sigint as *const () as usize);
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // The one read of `COMM_BENCH_CACHE`; everything below takes the value.
    let cache = cache_dir();
    match argv.first().map(String::as_str) {
        Some("serve") => {
            let cancel = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
            sigint::install(std::sync::Arc::clone(&cancel));
            std::process::exit(daemon::run_serve(&argv[1..], cancel));
        }
        Some("client") => std::process::exit(daemon::run_client(&argv[1..])),
        _ => {}
    }
    let mut session = Session::new();
    sigint::install(session.cancel_flag());
    let stdin = std::io::stdin();
    let interactive = atty_stdin();
    if interactive {
        println!("keyword community search explorer — 'help' for commands");
    }
    let mut line = String::new();
    loop {
        if interactive {
            print!("communities> ");
            std::io::stdout().flush().ok();
        }
        line.clear();
        let n = match stdin.lock().read_line(&mut line) {
            Ok(n) => n,
            // Ctrl-C at the prompt (EINTR without SA_RESTART): new prompt.
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {
                println!();
                continue;
            }
            Err(_) => break,
        };
        if n == 0 {
            break; // EOF
        }
        match parse(&line) {
            Ok(None) => {}
            Ok(Some(cmd)) => match run(&mut session, cmd, cache.as_deref()) {
                Flow::Continue(output) => {
                    if !output.is_empty() {
                        println!("{output}");
                    }
                }
                Flow::Quit => break,
            },
            Err(e) => println!("error: {e}"),
        }
    }
}

enum Flow {
    Continue(String),
    Quit,
}

fn run(session: &mut Session, cmd: Command, cache: Option<&Path>) -> Flow {
    let result = match cmd {
        Command::Load { dataset, scale } => session.load(&dataset, scale, cache),
        Command::Query {
            keywords,
            rmax,
            k,
            max_cost,
        } => session.query(&keywords, rmax, k, max_cost),
        Command::More(n) => session.more(n),
        Command::Trees(n) => session.trees(n),
        Command::Dot { rank, path } => session.dot(rank, path.as_deref()),
        Command::Timeout(secs) => Ok(session.set_timeout(secs)),
        Command::Stats => session.stats(),
        Command::Help => Ok(HELP.to_owned()),
        Command::Quit => return Flow::Quit,
    };
    Flow::Continue(match result {
        Ok(s) => s,
        Err(e) => format!("error: {e}"),
    })
}

/// Crude interactivity check without extra dependencies: piped stdin on
/// Linux is not a tty; we only use this to decide whether to print prompts.
fn atty_stdin() -> bool {
    std::fs::metadata("/proc/self/fd/0")
        .map(|m| {
            use std::os::unix::fs::FileTypeExt;
            !m.file_type().is_fifo() && !m.file_type().is_file()
        })
        .unwrap_or(false)
}
