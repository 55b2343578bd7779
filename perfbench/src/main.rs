//! The repository benchmark: three named workloads over the 2D-coded
//! cache stack, measured end to end (tracing off) or per layer (traced).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload get_hot --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Human-readable lines come first; the last line of standard output is
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! Any failed correctness check exits with code 1. See `README.md` in
//! this directory for the workloads and metrics.

mod kv;
mod os;
mod report;
mod sim;
mod streams;
mod trace;

use report::{Outcome, WORKLOADS};
use std::path::Path;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or("--seconds takes a whole number from 1 to 600")?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(20),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> [--seconds <s>] [--trace <0|1>]",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    // The key-value workloads run on one CPU (see `os`); the simulator
    // is one thread, which the scheduler may move to the least busy CPU.
    let pinned = (args.workload != "sim_campaign").then(os::pin_to_one_cpu);
    let mut outcome: Outcome = match args.workload.as_str() {
        "get_hot" => kv::run(false, args.seed, args.seconds, args.trace),
        "fault_storm" => kv::run(true, args.seed, args.seconds, args.trace),
        _ => sim::run(args.seed, args.seconds, args.trace),
    };
    if let Some(mut tracer) = outcome.tracer.take() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("traces")
            .join(format!("{}-{}.csv", args.workload, args.seed));
        match tracer.write_csv(&path) {
            Ok(()) => outcome.note(format!("spans written to {}", path.display())),
            Err(e) => outcome.fail(format!("writing {}: {e}", path.display())),
        }
    }
    println!(
        "perfbench {} seed {} ({} s, trace {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    match pinned {
        Some(Ok(cpu)) => println!("  pinned to CPU {cpu}"),
        Some(Err(e)) => println!("  not pinned: {e}"),
        None => {}
    }
    for line in &outcome.notes {
        println!("  {line}");
    }
    let line = outcome.result_line(args.trace);
    for failure in &outcome.failures {
        println!("  FAILED: {failure}");
    }
    println!("{line}");
    if !outcome.correct() {
        std::process::exit(1);
    }
}
