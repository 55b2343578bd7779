//! The `sim_campaign` workload: back-to-back `run_sim_campaign` calls
//! (2D and SECDED-per-line at equal 12.5% overhead, over the 7-scenario
//! deck), the only workload that runs the detailed CMP simulator.
//!
//! A "request" here is one simulated memory reference and a "batch" is
//! one campaign, so `throughput_rps` is simulated references per host
//! second (`sim_refs_per_s`) and the batch percentiles are the host CPU
//! time of one campaign. CPU time rather than wall time, because the
//! wall-time p99 of ~1,400 campaigns swung from 23 ms to 55 ms between
//! runs with the host's preemptions, while their CPU time did not.
//!
//! The host's speed still drifts between two levels (a campaign's CPU
//! time ~10 ms or ~16 ms) for seconds at a time. A median over the whole
//! run jumps between the levels as their shares cross one half, so
//! `batch_p50_us` is the mean over one-second slices of each slice's
//! median, and one set-up is timed at the start of every slice.

use crate::kv::peak_rss_mb;
use crate::os;
use crate::report::Outcome;
use crate::trace::{self, Tracer};
use cachesim::{
    run_sim_campaign, DetailedSim, ProtectedStore, ProtectionPolicy, SimCampaignConfig,
    SimCampaignOutcome, StoreScheme, SystemConfig, WorkloadProfile,
};
use std::time::{Duration, Instant};

/// Rounds through the deck per campaign and cycles per campaign window.
const ROUNDS: usize = 1;
const WINDOW: u64 = 300;
/// Distinct seeds the campaigns cycle through; every later campaign of a
/// seed must repeat the first one's report byte for byte.
const SEED_CYCLE: u64 = 4;
/// `run_window` calls per simulator in the traced host-time split, and
/// cycles per call.
const HOST_WINDOWS: usize = 40;
const HOST_WINDOW_CYCLES: u64 = 1_000;

fn campaign(seed: u64) -> SimCampaignConfig {
    SimCampaignConfig {
        seed,
        rounds: ROUNDS,
        window: WINDOW,
    }
}

/// Builds the simulator behind one campaign scheme and runs its warm-up.
fn build(seed: u64, store: Option<StoreScheme>) -> DetailedSim {
    let sim = DetailedSim::new(
        SystemConfig::fat_cmp(),
        ProtectionPolicy::full(),
        WorkloadProfile::oltp(),
        seed,
    );
    let mut sim = match store {
        Some(kind) => sim.with_store(ProtectedStore::new(kind)),
        None => sim,
    };
    sim.run_window(1);
    sim
}

/// Builds both schemes' simulators with their stores and returns the
/// seconds it took.
fn timed_setup(seed: u64) -> f64 {
    let t = Instant::now();
    let sims = [
        build(seed, Some(StoreScheme::TwoD)),
        build(seed, Some(StoreScheme::SecdedPerLine)),
    ];
    let s = t.elapsed().as_secs_f64();
    std::hint::black_box(sims);
    s
}

fn refs(o: &SimCampaignOutcome) -> u64 {
    o.schemes.iter().map(|s| s.sim.references).sum()
}

/// Runs `sim_campaign` for `seconds` and reports its metrics.
pub fn run(seed: u64, seconds: u64, trace: bool) -> Outcome {
    let mut outcome = Outcome::default();

    // The reference campaign of the run's seed: its simulated results are
    // the `sim.*` outcome metrics, and it must repeat exactly.
    let reference = run_sim_campaign(campaign(seed));
    let mut reports: Vec<String> = vec![reference.to_json()];

    let start = Instant::now();
    let window = Duration::from_secs(seconds);
    let mut tracer = Tracer::new(start, false);
    let mut setup_s = Vec::new();
    // Campaign CPU times by the second of the run they started in.
    let mut slices: Vec<Vec<u64>> = Vec::new();
    let (mut campaigns, mut bad) = (0u64, 0u64);
    let mut refs_per_sec = Vec::new();
    loop {
        let elapsed = start.elapsed();
        if elapsed >= window {
            break;
        }
        let sec = elapsed.as_secs() as usize;
        if slices.len() <= sec {
            slices.resize_with(sec + 1, Vec::new);
            setup_s.push(timed_setup(seed));
            continue;
        }
        tracer.set_enabled(trace && sec % 2 == 1);
        let k = campaigns % SEED_CYCLE;
        let cpu0 = os::thread_cpu_ns();
        let t0 = Instant::now();
        let o = run_sim_campaign(campaign(seed.wrapping_add(k)));
        let t1 = Instant::now();
        let wall = t1.duration_since(t0).as_nanos() as u64;
        slices[sec].push(match (cpu0, os::thread_cpu_ns()) {
            (Some(a), Some(b)) => b - a,
            _ => wall,
        });
        tracer.record("run_sim_campaign", 0, t0, t1);
        let json = o.to_json();
        let repeat_ok = match reports.get(k as usize) {
            Some(first) => *first == json,
            None => {
                reports.push(json);
                true
            }
        };
        trace::count_in(&mut refs_per_sec, sec, refs(&o));
        campaigns += 1;
        if !o.healthy() || o.schemes[0].totals.sdc != 0 || !repeat_ok {
            bad += 1;
            if bad <= 3 {
                outcome.fail(format!(
                    "campaign seed {} unhealthy or not repeatable (healthy {}, repeat {repeat_ok})",
                    seed.wrapping_add(k),
                    o.healthy()
                ));
            }
        }
    }
    outcome.attempted = campaigns;
    outcome.failed = bad;
    if !reference.healthy() {
        outcome.fail("reference campaign unhealthy".into());
    }

    let refs_per_s = trace::mean_rate(&refs_per_sec, seconds, |_| true);
    outcome.note(format!(
        "{campaigns} campaigns of {ROUNDS} round(s) x {WINDOW} cycles, seeds cycling over {SEED_CYCLE}"
    ));
    outcome.note(format!(
        "sim_refs_per_s {refs_per_s:.0}, failed_frac {}",
        bad as f64 / campaigns.max(1) as f64
    ));

    if !trace {
        let mut p50s = Vec::new();
        for slice in &mut slices {
            slice.sort_unstable();
            match trace::percentile(slice, 0.50) {
                Ok(p) => p50s.push(p as f64 / 1e3),
                Err(e) => outcome.fail(format!("one-second slice: {e}")),
            }
        }
        let p50 = p50s.iter().sum::<f64>() / p50s.len().max(1) as f64;
        let mut all: Vec<u64> = slices.concat();
        all.sort_unstable();
        let p99 = match trace::percentile(&all, 0.99) {
            Ok(p) => p as f64 / 1e3,
            Err(e) => {
                outcome.fail(e);
                0.0
            }
        };
        outcome.note(format!(
            "campaign CPU time p50 {p50:.1} us (mean of {} one-second medians), \
             p99 {p99:.1} us over {} samples",
            p50s.len(),
            all.len()
        ));
        let v = &mut outcome.metrics;
        v.set("throughput_rps", refs_per_s);
        v.set("batch_p50_us", p50);
        v.set("batch_p99_us", p99);
        v.set("ok_frac", 1.0 - bad as f64 / campaigns.max(1) as f64);
        v.set("setup_s", trace::median(&mut setup_s));
        v.set("peak_rss_mb", peak_rss_mb());
        return outcome;
    }

    let v = &mut outcome.metrics;
    let untraced = trace::mean_rate(&refs_per_sec, seconds, |s| s % 2 == 0);
    let traced = trace::mean_rate(&refs_per_sec, seconds, |s| s % 2 == 1);
    v.set(
        "trace.overhead_frac",
        if untraced > 0.0 {
            (untraced - traced) / untraced
        } else {
            0.0
        },
    );

    // Host time of `run_window` with and without the coded store, at
    // equal simulated cycles, alternating so drift hits both alike.
    tracer.set_enabled(true);
    let mut stored = build(seed, Some(StoreScheme::TwoD));
    let mut plain = build(seed, None);
    for _ in 0..HOST_WINDOWS {
        let t = Instant::now();
        stored.run_window(HOST_WINDOW_CYCLES);
        let t1 = Instant::now();
        tracer.record("DetailedSim.run_window.store", 0, t, t1);
        plain.run_window(HOST_WINDOW_CYCLES);
        tracer.record("DetailedSim.run_window.plain", 0, t1, Instant::now());
    }
    let cycles = (HOST_WINDOWS as u64 * HOST_WINDOW_CYCLES) as f64;
    let store_ns = tracer.total("DetailedSim.run_window.store").1 as f64;
    let plain_ns = tracer.total("DetailedSim.run_window.plain").1 as f64;
    v.set("sim.host_ns_per_cycle", store_ns / cycles);
    v.set("sim.store_host_frac", (store_ns - plain_ns) / store_ns);

    let two_d = &reference.schemes[0];
    let secded = &reference.schemes[1];
    v.set("sim.cycles_per_ref_2d", two_d.sim.cycles_per_ref());
    v.set("sim.cycles_per_ref_secded", secded.sim.cycles_per_ref());
    v.set("sim.mshr_wait_cycles", two_d.sim.mshr_wait_cycles as f64);
    v.set(
        "sim.correction_stall_frac",
        two_d.sim.correction_stall_fraction(),
    );
    for (scheme, [ne, ce, due, sdc]) in [
        (
            two_d,
            ["sim.ne_2d", "sim.ce_2d", "sim.due_2d", "sim.sdc_2d"],
        ),
        (
            secded,
            [
                "sim.ne_secded",
                "sim.ce_secded",
                "sim.due_secded",
                "sim.sdc_secded",
            ],
        ),
    ] {
        v.set(ne, scheme.totals.ne as f64);
        v.set(ce, scheme.totals.ce as f64);
        v.set(due, scheme.totals.due as f64);
        v.set(sdc, scheme.totals.sdc as f64);
    }
    outcome.tracer = Some(tracer);
    outcome
}
