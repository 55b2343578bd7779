//! Detailed-simulator fault-campaign driver: trace-driven multi-core
//! execution with the 2D-protected backing store under the L2, seeded
//! fault injection, and NE/CE/DUE/SDC classification per fault domain.
//!
//! ```text
//! cargo run --release -p bench --bin sim -- --quick
//! cargo run --release -p bench --bin sim -- --rounds 12 --seed 7
//! ```
//!
//! The artifact is `sim_report.json` in `--out-dir` (default
//! `target/sim`): the classification report
//! ([`cachesim::SimCampaignOutcome`]), timing figures included. It is
//! byte-identical across runs with the same seed and round count, and
//! the quick campaign's report is pinned byte for byte by
//! `crates/cachesim/tests/data/sim_report_quick.json` (the `sim-smoke`
//! CI lane runs it twice and `cmp`s both against each other and the
//! golden).
//!
//! The process exits nonzero on any SDC under 2D, any unaccounted
//! fault, or any `expect_ce_2d` scenario the 2D scheme failed to
//! correct.

use bench::{parse_count, parse_seed, take_value, usage_error};
use cachesim::{run_sim_campaign, SimCampaignConfig};
use std::path::PathBuf;

/// Default seed of the pinned CI campaign. Changing it invalidates the
/// committed golden report.
const DEFAULT_SEED: u64 = 0x5EED_51D3_CA4C_0001;

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

    if !outcome.healthy() {
        eprintln!("sim campaign UNHEALTHY: SDC, unaccounted fault, or broken 2D expectation");
        std::process::exit(1);
    }
    println!("sim campaign healthy: every fault accounted, zero SDC under 2D");
}
