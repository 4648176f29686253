//! Benchmark entry point:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-day|metro|online-chaos> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints progress and reference figures to stderr and, as the last line
//! of stdout, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. Exits non-zero when any slot cycle fails a check.
//!
//! `--workers N` replaces the workload's fixed worker count; it exists to
//! re-measure the worker-count choice in `README.md` and is not part of a
//! benchmark run.

use std::process::ExitCode;
use std::time::Instant;

use ccdn_perfbench::workload::{Scale, Workload};
use ccdn_perfbench::{offline, online, traced, Report};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    workers: Option<usize>,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut workers) =
        (None, None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| bad("one of paper-day, metro, online-chaos"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number of seconds"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("a positive number of seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                });
            }
            "--workers" => {
                // More workers than cores only measures contention.
                let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
                match value.parse::<usize>() {
                    Ok(n) if (1..=cores).contains(&n) => workers = Some(n),
                    _ => return Err(bad(&format!("1 to {cores} workers"))),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        workers,
    })
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <paper-day|metro|online-chaos> --seed <n> --seconds <s> \
                 --trace <0|1> [--workers <n>]"
            );
            return ExitCode::from(2);
        }
    };
    let (w, seed, seconds) = (args.workload, args.seed, args.seconds);
    let workers = args.workers.unwrap_or(w.workers());
    let mut report: Report = match (args.trace, w) {
        (true, _) => traced::run(w, seed, seconds, Scale::Full, workers),
        (false, Workload::OnlineChaos) => {
            online::run(seed, seconds, Scale::Full, workers, process_start)
        }
        (false, _) => offline::run(w, seed, seconds, Scale::Full, workers, process_start),
    };
    report.failed = report.failed.min(report.attempted);
    for e in &report.errors {
        eprintln!("FAILED: {e}");
    }
    println!("{}", report.to_json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
