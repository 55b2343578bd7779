//! Allocation pin for the detailed-simulator fault campaign: the exact
//! heap-allocation count of one 1-round, 300-cycle `run_sim_campaign`
//! (the benchmark's campaign shape), and a first 2D recovery of a fresh
//! store bank whose allocation count does not grow with the bank's rows.
//!
//! Separate binary on purpose: the counting allocator is process-global,
//! so each test binary registers its own and runs everything inside ONE
//! `#[test]` function (libtest worker threads would otherwise race the
//! counter).

use bench::alloc_counter::{self, CountingAlloc};
use cachesim::protected::STORE_ROWS;
use cachesim::{run_sim_campaign, SimCampaignConfig};
use ecc::Bits;
use memarray::{ErrorShape, TwoDArray};
use twod_cache::TwoDScheme;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Allocations of one campaign of the benchmark's shape.
const CAMPAIGN_ALLOCS: u64 = 1_484;

#[test]
fn campaign_allocation_pins() {
    campaign_count();
    first_recovery_is_row_count_independent();
}

/// Fewest allocations `f` made over three runs. A stray one-off
/// allocation of the harness on another thread can only add to a run,
/// so the minimum is the code's own count.
fn min_allocs(mut f: impl FnMut()) -> u64 {
    (0..3)
        .map(|_| alloc_counter::count(&mut f).1)
        .min()
        .expect("three runs")
}

/// One 1-round, 300-cycle campaign allocates exactly the pinned count.
/// The first campaign of the process also fills the process-wide codec
/// and bank-scheme registries, whose tables later campaigns reuse, so it
/// runs once before counting.
fn campaign_count() {
    let cfg = SimCampaignConfig {
        seed: 1,
        rounds: 1,
        window: 300,
    };
    assert!(run_sim_campaign(cfg).healthy());
    let allocs = min_allocs(|| {
        std::hint::black_box(run_sim_campaign(cfg));
    });
    assert_eq!(
        allocs, CAMPAIGN_ALLOCS,
        "one 1-round, 300-cycle campaign allocates {allocs} times"
    );
}

/// A fresh bank of each store preset, densely written and hit by one
/// 8x8 cluster, then recovered: the first recovery sizes the bank's
/// recovery cache in four allocations, so it allocates the same count
/// at the store's row count and at twice it.
fn first_recovery_is_row_count_independent() {
    for (label, preset) in [
        ("2d", TwoDScheme::l2_paper()),
        ("secded", TwoDScheme::yield_mode()),
    ] {
        let [first, double] = [STORE_ROWS, 2 * STORE_ROWS].map(|rows| {
            let (first, later) = recoveries(preset, rows);
            // The row snapshot with the stripe syndromes, the clean
            // flags, the staging row and the word buffer.
            assert_eq!(
                first,
                later + 4,
                "{label} at {rows} rows: first recovery {first}, later {later}"
            );
            first
        });
        assert_eq!(
            first,
            double,
            "{label}: a first recovery allocates {first} times at {STORE_ROWS} rows \
             and {double} at {} rows",
            2 * STORE_ROWS
        );
    }
}

/// Allocations of a bank's first recovery and of a later one after the
/// same damage.
fn recoveries(preset: TwoDScheme, rows: usize) -> (u64, u64) {
    let damage = ErrorShape::Cluster {
        row: 40,
        col: 0,
        height: 8,
        width: 8,
    };
    let mut bank = TwoDArray::new(preset.bank_config(rows));
    let data_bits = bank.layout().data_bits();
    for r in 0..bank.rows() {
        for w in 0..bank.words_per_row() {
            let limbs = [r as u64, w as u64, !(r as u64), u64::MAX];
            bank.write_word(r, w, &Bits::from_limbs(&limbs, data_bits));
        }
    }
    let recover = |bank: &mut TwoDArray| {
        bank.inject(damage);
        let (report, allocs) = alloc_counter::count(|| bank.recover());
        assert!(report.is_ok(), "an 8x8 cluster is corrected: {report:?}");
        allocs
    };
    let first = recover(&mut bank);
    let later = recover(&mut bank);
    (first, later)
}
