//! Detailed-simulator fault-campaign driver: trace-driven multi-core
//! execution with the 2D-protected backing store under the L2, seeded
//! fault injection, and NE/CE/DUE/SDC classification per fault domain.
//!
//! ```text
//! cargo run --release -p bench --bin sim -- --quick
//! cargo run --release -p bench --bin sim -- --rounds 12 --seed 7
//! ```
//!
//! Two artifacts land in `--out-dir` (default `target/sim`):
//!
//! * `sim_report.json` — the classification report
//!   ([`cachesim::SimCampaignOutcome`]): byte-identical across runs with
//!   the same seed and round count (the `sim-smoke` CI lane runs the
//!   quick campaign twice and `cmp`s the files);
//! * `BENCH_sim.json` — timing rows (cycles/ref, MSHR occupancy,
//!   correction-stall fraction; runner-dependent) plus `sim_rates.*`
//!   rows carrying the NE/CE/DUE/SDC counts, which `bench_gate.py`
//!   pins *exactly* against the committed baseline.
//!
//! The process exits nonzero on any SDC under 2D, any unaccounted
//! fault, or any `expect_ce_2d` scenario the 2D scheme failed to
//! correct.

use bench::bench_json::{self, BenchRow};
use bench::{parse_count, parse_seed, take_value, usage_error};
use cachesim::{run_sim_campaign, SimCampaignConfig, SimCampaignOutcome};
use std::path::PathBuf;

/// Default seed of the pinned CI campaign. Changing it invalidates the
/// committed `BENCH_sim.json` baseline and the recorded reports.
const DEFAULT_SEED: u64 = 0x5EED_51D3_CA4C_0001;

fn bench_rows_json(outcome: &SimCampaignOutcome) -> String {
    let mut rows = Vec::new();
    for report in &outcome.schemes {
        let label = report.scheme.label();
        let t = &report.sim;
        // Timing rows: wall-clock-free but load-dependent proxies; the
        // gate treats `sim.*` as runner-dependent (presence-enforced).
        rows.push(BenchRow {
            name: "sim".to_string(),
            op: format!("cycles_per_ref_{label}"),
            mean_ns: t.cycles_per_ref(),
            iters: t.references,
            allocs_per_op: None,
        });
        rows.push(BenchRow {
            name: "sim".to_string(),
            op: format!("mshr_occupancy_mean_{label}"),
            mean_ns: t.mshr_occupancy_mean(),
            iters: t.cycles,
            allocs_per_op: None,
        });
        rows.push(BenchRow {
            name: "sim".to_string(),
            op: format!("mshr_peak_{label}"),
            mean_ns: t.mshr_peak as f64,
            iters: t.cycles,
            allocs_per_op: None,
        });
        rows.push(BenchRow {
            name: "sim".to_string(),
            op: format!("correction_stall_frac_{label}"),
            mean_ns: t.correction_stall_fraction(),
            iters: t.correction_stall_cycles.max(1),
            allocs_per_op: None,
        });
        // Rate rows: deterministic classification counts, pinned
        // *exactly* by the gate (any drift is a semantic change that
        // demands a reviewed baseline refresh).
        let tally = &report.totals;
        for (op, count) in [
            ("ne", tally.ne),
            ("ce", tally.ce),
            ("due", tally.due),
            ("sdc", tally.sdc),
        ] {
            rows.push(BenchRow {
                name: "sim_rates".to_string(),
                op: format!("{op}_{label}"),
                mean_ns: count as f64,
                iters: tally.total(),
                allocs_per_op: None,
            });
        }
    }
    bench_json::render("quick", &rows)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut rounds: Option<usize> = None;
    let mut seed = DEFAULT_SEED;
    let mut out_dir = PathBuf::from("target/sim");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => rounds = None,
            "--rounds" => {
                // Zero rounds would inject nothing yet report healthy.
                rounds = Some(parse_count(&take_value(&mut it, "--rounds"), "--rounds"));
            }
            "--seed" => {
                seed =
                    parse_seed(&take_value(&mut it, "--seed")).unwrap_or_else(|e| usage_error(&e));
            }
            "--out-dir" => out_dir = PathBuf::from(take_value(&mut it, "--out-dir")),
            "--help" | "-h" => {
                println!("usage: sim [--quick] [--rounds N] [--seed S] [--out-dir DIR]");
                println!();
                println!("  --quick    the pinned CI configuration (2 deck rounds; default)");
                println!("  --rounds   longer soak: N rounds through the scenario deck");
                println!("  --seed     campaign seed (hex or decimal; pinned default)");
                println!("  --out-dir  artifact directory (default target/sim)");
                return;
            }
            other => usage_error(&format!("unknown argument '{other}'")),
        }
    }

    let mut cfg = SimCampaignConfig::quick(seed);
    if let Some(r) = rounds {
        cfg.rounds = r;
    }
    println!(
        "sim campaign: seed {seed:#x}, {} round(s) x 7 scenario(s) x 2 scheme(s), window {}",
        cfg.rounds, cfg.window,
    );
    let outcome = run_sim_campaign(cfg);
    for report in &outcome.schemes {
        let t = &report.totals;
        println!(
            "  {:>6}: overhead {:.4}, NE {} / CE {} / DUE {} / SDC {} / unaccounted {}",
            report.scheme.label(),
            report.overhead,
            t.ne,
            t.ce,
            t.due,
            t.sdc,
            t.unaccounted,
        );
        println!(
            "          {:.3} cycles/ref, MSHR mean {:.3} peak {}, correction stall {:.4} ({} cycles), {} writeback(s)",
            report.sim.cycles_per_ref(),
            report.sim.mshr_occupancy_mean(),
            report.sim.mshr_peak,
            report.sim.correction_stall_fraction(),
            report.sim.correction_stall_cycles,
            report.sim.l2_writebacks,
        );
    }
    let r = &outcome.reliability;
    println!(
        "  reliability: DUE retirements 2d {:.2} vs secded {:.2}; yield 2d {:.4} vs secded {:.4}",
        r.due_retirements_2d, r.due_retirements_secded, r.yield_2d, r.yield_secded,
    );

    std::fs::create_dir_all(&out_dir).expect("creating sim output directory");
    let report_path = out_dir.join("sim_report.json");
    std::fs::write(&report_path, outcome.to_json())
        .unwrap_or_else(|e| panic!("writing {}: {e}", report_path.display()));
    println!("wrote {}", report_path.display());
    let bench_path = out_dir.join("BENCH_sim.json");
    std::fs::write(&bench_path, bench_rows_json(&outcome))
        .unwrap_or_else(|e| panic!("writing {}: {e}", bench_path.display()));
    println!("wrote {}", bench_path.display());

    if !outcome.healthy() {
        eprintln!("sim campaign UNHEALTHY: SDC, unaccounted fault, or broken 2D expectation");
        std::process::exit(1);
    }
    println!("sim campaign healthy: every fault accounted, zero SDC under 2D");
}
