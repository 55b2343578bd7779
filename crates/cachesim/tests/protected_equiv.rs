//! Clean-equivalence suite: with no faults injected, attaching the
//! protected backing store to the detailed simulator must be invisible —
//! identical coherence traces, hit/miss counts, and MSHR statistics to
//! the store-less model. Protection may only cost anything when it has
//! actual correction work to do.

use cachesim::protected::{ProtectedStore, StoreScheme};
use cachesim::{DetailedSim, ProtectionPolicy, SystemConfig, WorkloadProfile};

const CYCLES: u64 = 8_000;

fn run_pair(
    config: SystemConfig,
    policy: ProtectionPolicy,
    workload: WorkloadProfile,
    seed: u64,
    scheme: StoreScheme,
) -> (cachesim::DetailedStats, cachesim::DetailedStats) {
    let bare = DetailedSim::new(config, policy, workload, seed).run(CYCLES);
    let stored = DetailedSim::new(config, policy, workload, seed)
        .with_store(ProtectedStore::new(scheme))
        .run(CYCLES);
    (bare, stored)
}

#[test]
fn fault_free_store_is_invisible_fat_cmp() {
    let (bare, stored) = run_pair(
        SystemConfig::fat_cmp(),
        ProtectionPolicy::full(),
        WorkloadProfile::oltp(),
        11,
        StoreScheme::TwoD,
    );
    assert_eq!(bare, stored, "fault-free protected run must be identical");
}

#[test]
fn fault_free_store_is_invisible_lean_cmp() {
    let (bare, stored) = run_pair(
        SystemConfig::lean_cmp(),
        ProtectionPolicy::l2_only(),
        WorkloadProfile::web(),
        12,
        StoreScheme::SecdedPerLine,
    );
    assert_eq!(bare, stored, "fault-free SECDED store must be identical");
}

#[test]
fn equivalence_covers_trace_and_mshr_detail() {
    // Field-by-field spelling of the pinned invariants, so a future
    // DetailedStats change that weakens PartialEq still trips this.
    let (bare, stored) = run_pair(
        SystemConfig::fat_cmp(),
        ProtectionPolicy::full(),
        WorkloadProfile::ocean(),
        13,
        StoreScheme::TwoD,
    );
    assert_eq!(bare.coherence_sig, stored.coherence_sig, "coherence trace");
    assert_eq!(bare.l1_hits, stored.l1_hits, "hit counts");
    assert_eq!(bare.l1_misses, stored.l1_misses, "miss counts");
    assert_eq!(bare.mshr_wait_cycles, stored.mshr_wait_cycles, "MSHR waits");
    assert_eq!(
        bare.mshr_occupancy_sum, stored.mshr_occupancy_sum,
        "MSHR occupancy"
    );
    assert_eq!(bare.mshr_peak, stored.mshr_peak, "MSHR peak");
    assert_eq!(bare.l2_writebacks, stored.l2_writebacks, "writebacks");
    assert_eq!(
        stored.correction_stall_cycles, 0,
        "no faults, no correction stall"
    );
}

#[test]
fn incremental_windows_match_single_run() {
    // run_window in slices must reproduce one run() exactly — the
    // campaign driver depends on this to interleave injections.
    let total = DetailedSim::new(
        SystemConfig::fat_cmp(),
        ProtectionPolicy::full(),
        WorkloadProfile::oltp(),
        14,
    )
    .run(CYCLES);
    let mut sliced = DetailedSim::new(
        SystemConfig::fat_cmp(),
        ProtectionPolicy::full(),
        WorkloadProfile::oltp(),
        14,
    );
    for _ in 0..4 {
        sliced.run_window(CYCLES / 4);
    }
    assert_eq!(total, sliced.stats(), "windowed run must equal single run");
}

#[test]
fn injected_fault_shows_up_as_correction_stall() {
    // Contrast case: the equivalence must *break* in exactly the
    // correction-stall dimension once a fault lands under live traffic.
    let mut sim = DetailedSim::new(
        SystemConfig::fat_cmp(),
        ProtectionPolicy::full(),
        WorkloadProfile::oltp(),
        15,
    )
    .with_store(ProtectedStore::new(StoreScheme::TwoD));
    sim.run_window(CYCLES / 2);
    let store = sim.store_mut().expect("store attached");
    store.begin_event();
    // Wipe several rows in every bank so live fills are very likely to
    // touch damage within the window.
    for bank in 0..cachesim::protected::STORE_BANKS {
        for row in (0..cachesim::protected::STORE_ROWS).step_by(7) {
            store.inject(bank, memarray::ErrorShape::Row { row });
        }
    }
    sim.run_window(CYCLES / 2);
    for bank in 0..cachesim::protected::STORE_BANKS {
        sim.store_mut().expect("store attached").resolve_bank(bank);
    }
    let ev = sim.store_mut().expect("store attached").take_evidence();
    assert!(
        ev.corrected + ev.recovered > 0,
        "mass damage must trigger correction: {ev:?}"
    );
    assert!(
        sim.stats().correction_stall_cycles > 0,
        "correction work must back-pressure the banks"
    );
}

#[test]
fn clone_continues_like_the_original() {
    // The campaign runs both schemes from clones of one warmed
    // simulator, so a clone must end every later window exactly where
    // the original does — coherence trace, MSHRs, ports and store
    // included. A field left out of `Clone` fails here, not in a golden.
    let new_sim = || {
        DetailedSim::new(
            SystemConfig::fat_cmp(),
            ProtectionPolicy::full(),
            WorkloadProfile::oltp(),
            16,
        )
    };

    // Store-less, cloned mid-run.
    let mut original = new_sim();
    original.run_window(CYCLES / 2);
    let mut clone = original.clone();
    original.run_window(CYCLES / 2);
    clone.run_window(CYCLES / 2);
    assert_eq!(original.stats(), clone.stats(), "store-less clone");
    assert_ne!(original.stats().coherence_sig, 0);

    // Store attached and damaged before the clone: the clone carries the
    // damage and pays the same correction stalls.
    let mut original = new_sim().with_store(ProtectedStore::new(StoreScheme::TwoD));
    original.run_window(CYCLES / 2);
    for row in (0..cachesim::protected::STORE_ROWS).step_by(5) {
        let store = original.store_mut().expect("store attached");
        store.inject(
            row % cachesim::protected::STORE_BANKS,
            memarray::ErrorShape::Row { row },
        );
    }
    let mut clone = original.clone();
    original.run_window(CYCLES / 2);
    clone.run_window(CYCLES / 2);
    assert_eq!(original.stats(), clone.stats(), "clone with a store");
    assert!(original.stats().correction_stall_cycles > 0);
    assert_eq!(
        original.store().map(ProtectedStore::stats),
        clone.store().map(ProtectedStore::stats),
        "store counters"
    );

    // The campaign's checkpoint: a store attached to a clone of a warmed
    // store-less simulator runs like one attached at construction.
    let mut warmed = new_sim();
    warmed.run_window(0);
    let mut late = warmed
        .clone()
        .with_store(ProtectedStore::new(StoreScheme::SecdedPerLine));
    let mut early = new_sim().with_store(ProtectedStore::new(StoreScheme::SecdedPerLine));
    late.run_window(CYCLES);
    early.run_window(CYCLES);
    assert_eq!(late.stats(), early.stats(), "store attached after warm-up");
}
