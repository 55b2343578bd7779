//! The concurrent sharded cache service under multi-threaded traffic.
//!
//! Builds an 8-bank 2D-protected cache behind the lock-per-bank
//! [`ConcurrentBankedCache`] frontend and drives it with seeded Zipf
//! traffic at increasing thread counts, then runs the quick chaos
//! campaign: every fault shape of the scenario deck strikes live banks
//! while verified traffic keeps running and the scrubber heals them.
//!
//! ```text
//! cargo run --release --example concurrent_service
//! ```

use cachesim::{run_campaign, run_traffic, CampaignConfig, TrafficConfig};
use twod_cache::{CacheConfig, ConcurrentBankedCache};

fn main() {
    const BANKS: usize = 8;
    println!("== concurrent sharded cache service ==");
    println!(
        "8 banks x 64kB, data {:?}, one shared scheme (codec tables built once)\n",
        CacheConfig::l1_64kb().data_scheme.horizontal
    );

    // Throughput vs thread count. Every run replays the same total
    // number of operations, so ops/sec compares directly.
    println!("-- clean Zipf(1.0) traffic, 64k ops total --");
    for threads in [1usize, 2, 4, 8] {
        let cache = ConcurrentBankedCache::new(CacheConfig::l1_64kb(), BANKS);
        let cfg = TrafficConfig {
            threads,
            ops_per_thread: 64_000 / threads as u64,
            write_fraction: 0.3,
            lines: 4_096,
            zipf_theta: 1.0,
            seed: 42,
            verify: true,
        };
        let report = run_traffic(&cache, &cfg);
        let stats = cache.stats();
        println!(
            "  {threads} thread(s): {:>9.0} ops/s  (verified reads: {}, hit ratio {:.1}%)",
            report.ops_per_sec(),
            report.verified_reads,
            stats.hit_ratio() * 100.0
        );
    }

    // Faults under load: one round of the campaign deck (single bits,
    // rectangles, row and column strips, L shapes, a silent-write phase)
    // against a self-healing 4-bank service.
    println!("\n-- quick chaos campaign: clustered faults under verified traffic --");
    let report = run_campaign(&CampaignConfig::quick(7));
    let o = &report.outcome;
    for phase in &o.phases {
        println!(
            "  {:<18} {:>5} ops, {} injection(s) over {:>4} cells, {} verified reads",
            phase.scenario,
            phase.reads + phase.writes,
            phase.injections,
            phase.cells,
            phase.verified_reads
        );
    }
    println!(
        "  mean time-to-repair {:.0} us over {} sample(s)",
        report.timing.mttr_mean_ns / 1e3,
        report.timing.mttr_samples
    );
    assert!(o.healthy(), "campaign must end healthy: {o:?}");
    println!("\nfinal audit: clean — zero lost writes, zero unrecoverable words");
}
