//! Chaos-campaign driver: runs the seeded fault campaign against the
//! self-healing cache service and emits machine-readable reports.
//!
//! ```text
//! cargo run --release -p bench --bin campaign -- --quick
//! cargo run --release -p bench --bin campaign -- --budget-secs 900
//! cargo run --release -p bench --bin campaign -- --quick --seed 7 --out-dir target/c
//! ```
//!
//! Two artifacts land in `--out-dir` (default `target/campaign`):
//!
//! * `campaign_report.json` — the deterministic outcome
//!   ([`cachesim::CampaignOutcome`]): byte-identical across runs with
//!   the same seed and round count, so CI checks determinism by running
//!   the quick campaign twice and comparing the files;
//! * `BENCH_scrub.json` — the campaign's wall-clock figures (scrub
//!   throughput, mean time-to-repair, foreground p99 interference) in
//!   the bench-v1 row schema. This copy is a soak artifact for humans
//!   and dashboards; the *gated* `BENCH_scrub.json` baseline at the
//!   repo root is emitted by the `perf` binary, which includes these
//!   same campaign rows plus the scrub micro-benchmarks.
//!
//! `--net` adds `net_chaos_report.json` and `shard_chaos_report.json`
//! ([`cachesim::net::NetChaosReport::to_json`],
//! [`cachesim::net::ShardChaosReport::to_json`]).
//!
//! The process exits nonzero if the campaign ends unhealthy (any lost
//! write, unrecoverable word, or uncorrectable event) — the soak lane's
//! actual gate — or if a `--net` phase reports a problem.

use bench::bench_json::{self, BenchRow};
use bench::{parse_seed, take_value, usage_error};
use cachesim::net::{run_net_chaos, run_shard_chaos};
use cachesim::{run_campaign, CampaignConfig, CampaignReport};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Default seed of the pinned CI campaigns. Changing it invalidates
/// recorded campaign reports, so treat it like a baseline refresh.
const DEFAULT_SEED: u64 = 0x5EED_CA4C_ADE0_0001;

fn bench_rows_json(report: &CampaignReport) -> String {
    let t = report.timing;
    let rows: Vec<BenchRow> = [
        ("row_scan", t.scrub_row_scan_ns, t.scrub_clean_rows),
        ("campaign_mttr", t.mttr_mean_ns, t.mttr_samples),
        (
            "campaign_p99",
            t.foreground_p99_ns,
            report.outcome.total_reads + report.outcome.total_writes,
        ),
    ]
    .into_iter()
    .map(|(op, mean_ns, iters)| BenchRow {
        name: "scrub".to_string(),
        op: op.to_string(),
        mean_ns,
        iters,
        allocs_per_op: None,
    })
    .collect();
    bench_json::render("campaign", &rows)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut net = false;
    let mut budget_secs: Option<u64> = None;
    let mut seed = DEFAULT_SEED;
    let mut out_dir = PathBuf::from("target/campaign");
    let mut scrubber = true;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--net" => net = true,
            "--budget-secs" => {
                let v = take_value(&mut it, "--budget-secs");
                budget_secs = Some(
                    v.parse()
                        .unwrap_or_else(|e| usage_error(&format!("--budget-secs: {e}"))),
                );
            }
            "--seed" => {
                seed =
                    parse_seed(&take_value(&mut it, "--seed")).unwrap_or_else(|e| usage_error(&e));
            }
            "--out-dir" => out_dir = PathBuf::from(take_value(&mut it, "--out-dir")),
            "--no-scrubber" => scrubber = false,
            "--help" | "-h" => {
                println!(
                    "usage: campaign [--quick] [--net] [--budget-secs N] [--seed S] \
                     [--out-dir DIR] [--no-scrubber]"
                );
                println!();
                println!("  --quick        one deterministic round of the scenario deck");
                println!("  --net          add the network phase: a live TCP server under");
                println!("                 fault storm + quarantine, with connection kills");
                println!("                 and read-your-writes checks across reconnects");
                println!("  --budget-secs  soak: loop rounds until the wall budget is spent");
                println!("  --seed         campaign seed (hex or decimal; pinned default)");
                println!("  --out-dir      artifact directory (default target/campaign)");
                println!("  --no-scrubber  contrast run without the background scrubber");
                return;
            }
            other => usage_error(&format!("unknown argument '{other}'")),
        }
    }
    if quick && budget_secs.is_some() {
        usage_error("--quick and --budget-secs are mutually exclusive");
    }
    let mut cfg = match budget_secs {
        Some(secs) => CampaignConfig::soak(seed, Duration::from_secs(secs)),
        // Quick is the default: one deterministic round of the deck.
        None => CampaignConfig::quick(seed),
    };
    if !scrubber {
        cfg.scrubber = None;
        cfg.mttr_timeout = Duration::from_millis(20);
    }

    println!(
        "campaign: seed {seed:#x}, {} scenario(s)/round, {} worker(s), scrubber {}",
        cfg.scenarios.len(),
        cfg.threads,
        if scrubber { "on" } else { "off" },
    );
    let report = run_campaign(&cfg);
    let o = &report.outcome;
    let t = &report.timing;
    println!(
        "  {} round(s), {} ops ({} reads / {} writes, {} verified), {} injection(s) over {} cells",
        o.rounds,
        o.total_reads + o.total_writes,
        o.total_reads,
        o.total_writes,
        o.verified_reads,
        o.injections,
        o.cells_injected,
    );
    println!(
        "  lost writes: {}, unrecoverable words: {}, uncorrectable events: {}, final audit: {}",
        o.lost_writes, o.unrecoverable_words, o.uncorrectable_events, o.final_audit,
    );
    println!(
        "  {:.0} ops/sec, foreground mean {:.0} ns / p99 {:.0} ns / max {} ns",
        t.ops_per_sec, t.foreground_mean_ns, t.foreground_p99_ns, t.foreground_max_ns,
    );
    println!(
        "  MTTR mean {:.0} ns over {} sample(s) ({} timeout(s)), scrub {:.1} ns/row over {} rows",
        t.mttr_mean_ns, t.mttr_samples, t.mttr_timeouts, t.scrub_row_scan_ns, t.scrub_rows_scanned,
    );
    if let Some(r) = &report.reliability {
        println!(
            "  telemetry: {} event(s) over {:.1} device-hours -> {:.1} FIT/Mbit \
             (95% UCL {:.1}), MTTF {}",
            r.events,
            r.hours,
            r.fit_per_mbit,
            r.fit_upper_95 / r.mbits,
            match r.mttf_hours {
                Some(h) => format!("{h:.1} h"),
                None => "n/a (no events)".to_string(),
            },
        );
    }

    std::fs::create_dir_all(&out_dir).expect("creating campaign output directory");
    let report_path = out_dir.join("campaign_report.json");
    std::fs::write(&report_path, o.to_json())
        .unwrap_or_else(|e| panic!("writing {}: {e}", report_path.display()));
    println!("wrote {}", report_path.display());
    let bench_path = out_dir.join("BENCH_scrub.json");
    std::fs::write(&bench_path, bench_rows_json(&report))
        .unwrap_or_else(|e| panic!("writing {}: {e}", bench_path.display()));
    println!("wrote {}", bench_path.display());

    if !o.healthy() {
        eprintln!("campaign UNHEALTHY: see counters above");
        std::process::exit(1);
    }
    println!("campaign healthy: zero losses, zero unrecoverable words");

    if net {
        run_net_phase(seed, &out_dir);
    }
}

/// Writes one phase's report to `path`, then exits 1 naming every
/// broken invariant in `problems`, if any.
fn finish_phase(phase: &str, path: &Path, json: String, problems: Vec<String>) {
    std::fs::write(path, json).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    println!("wrote {}", path.display());
    if !problems.is_empty() {
        eprintln!("{phase} UNHEALTHY: {}", problems.join(", "));
        std::process::exit(1);
    }
}

/// The network phase: a live loopback `twod-server` under fault storm
/// and administrative quarantine, hammered by clients that kill and
/// re-establish their connections mid-storm. Exits nonzero on any
/// wrong read, lost acknowledged write, uncorrectable event, failed
/// final audit, or if degradation was never entered/exited (the shed
/// path went untested).
fn run_net_phase(seed: u64, out_dir: &Path) {
    println!("net phase: clients killed and reconnected under fault storm and quarantine");
    let r = run_net_chaos(seed);
    println!(
        "  {} ops, {} acked write(s), {} verified read(s) mid-run, {} readback-checked",
        r.ops, r.acked_writes, r.verified_reads, r.readback_checked,
    );
    println!(
        "  sheds after retries: {} busy, {} degraded; {} fault(s), {} uncorrectable event(s)",
        r.busy_sheds, r.degraded_sheds, r.faults, r.uncorrectable_events,
    );
    println!(
        "  {} reconnect(s) ({} with immediate readback), {} injection(s), \
         degraded observed {} / cleared {}, final audit {}",
        r.reconnects,
        r.reconnect_readbacks,
        r.injections,
        r.degraded_observed,
        r.degraded_cleared,
        r.final_audit,
    );
    println!(
        "  server: {} req, {} busy, {} degraded, {} protocol error(s), {} reaped",
        r.server_stats.requests,
        r.server_stats.busy_sheds,
        r.server_stats.degraded_sheds,
        r.server_stats.protocol_errors,
        r.server_stats.connections_reaped,
    );
    finish_phase(
        "net phase",
        &out_dir.join("net_chaos_report.json"),
        r.to_json(seed),
        r.problems(),
    );
    println!("net phase healthy: read-your-writes held across kills, storm, and quarantine");

    run_shard_phase(seed, out_dir);
}

/// The shard-kill phase: two loopback servers behind a sharded client
/// fleet; one server is shut down mid-storm and later restarted (same
/// cache, fresh port). Exits nonzero on any wrong read, lost acked
/// write or uncorrectable event, if the survivor served nothing during
/// the outage, or if the victim never came back.
fn run_shard_phase(seed: u64, out_dir: &Path) {
    println!("shard phase: 2 shards, one killed mid-storm and restarted on a fresh port");
    let r = run_shard_chaos(seed);
    println!(
        "  {} ops, {} acked write(s) ({} during outage), {} verified read(s), {} readback-checked",
        r.ops, r.acked_writes, r.survivor_acked_during_outage, r.verified_reads, r.readback_checked,
    );
    println!(
        "  {} shard-down slot(s), sheds after retries: {} busy, {} degraded; {} fault(s), \
         {} uncorrectable event(s)",
        r.shard_down_slots, r.busy_sheds, r.degraded_sheds, r.faults, r.uncorrectable_events,
    );
    println!(
        "  {} lazy re-dial(s), {} injection(s), victim restarted {}, final audit {}",
        r.reconnects, r.injections, r.victim_restarted, r.final_audit,
    );
    finish_phase(
        "shard phase",
        &out_dir.join("shard_chaos_report.json"),
        r.to_json(seed),
        r.problems(),
    );
    println!("shard phase healthy: the fleet kept serving through a shard kill and restart");
}
