//! Cross-commit pin of the detailed simulator's results: the reports
//! under `tests/data/` were written by the simulator before its
//! host-cost rewrite, and every later change must reproduce them byte for
//! byte. A speed change that moves any simulated number — a hit, a
//! coherence outcome, an MSHR wait, a fault classification — fails here.
//!
//! * `sim_report_quick.json` is `sim --quick`'s `sim_report.json` (the
//!   pinned CI campaign: 2 rounds, 300-cycle windows, default seed);
//! * `campaign_seed{0..3}.json` are the 1-round, 300-cycle campaigns the
//!   `sim_campaign` benchmark workload cycles through.

use cachesim::{run_sim_campaign, SimCampaignConfig};

/// `sim --quick`'s default seed (`crates/bench/src/bin/sim.rs`).
const SIM_QUICK_SEED: u64 = 0x5EED_51D3_CA4C_0001;

fn assert_golden(cfg: SimCampaignConfig, golden: &str, name: &str) {
    let fresh = run_sim_campaign(cfg).to_json();
    assert!(
        fresh == golden,
        "{name}: simulated report differs from the committed golden\n--- golden\n{golden}\n--- fresh\n{fresh}"
    );
}

#[test]
fn sim_quick_report_matches_golden() {
    assert_golden(
        SimCampaignConfig::quick(SIM_QUICK_SEED),
        include_str!("data/sim_report_quick.json"),
        "sim_report_quick.json",
    );
}

#[test]
fn benchmark_campaigns_match_golden() {
    let goldens = [
        include_str!("data/campaign_seed0.json"),
        include_str!("data/campaign_seed1.json"),
        include_str!("data/campaign_seed2.json"),
        include_str!("data/campaign_seed3.json"),
    ];
    for (seed, golden) in goldens.into_iter().enumerate() {
        let cfg = SimCampaignConfig {
            seed: seed as u64,
            rounds: 1,
            window: 300,
        };
        assert_golden(cfg, golden, &format!("campaign_seed{seed}.json"));
    }
}
