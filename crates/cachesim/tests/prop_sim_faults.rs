//! Seeded-injection property test: whatever shape lands in the
//! protected store, the classification pipeline accounts for it in
//! exactly one NE/CE/DUE/SDC bucket — nothing is dropped on the floor,
//! and the tally arithmetic agrees with the reliability-ingestion view.

use cachesim::protected::{
    classify, FaultOutcome, OutcomeTally, ProtectedStore, StoreScheme, STORE_BANKS, STORE_ROWS,
};
use memarray::ErrorShape;
use proptest::prelude::*;

/// An arbitrary injected footprint, scaled to the store geometry.
fn shape_strategy() -> impl Strategy<Value = ErrorShape> {
    let rows = STORE_ROWS;
    // Column space of the widest scheme (2D: 272 coded bits x 2 words);
    // out-of-range columns are clipped by the injector.
    let cols = 144usize;
    prop_oneof![
        (0..rows, 0..cols).prop_map(|(row, col)| ErrorShape::Single { row, col }),
        (0..rows, 0..cols, 1..40usize, 1..24usize).prop_map(|(row, col, height, width)| {
            ErrorShape::Cluster {
                row,
                col,
                height,
                width,
            }
        }),
        (0..rows).prop_map(|row| ErrorShape::Row { row }),
        (0..cols).prop_map(|col| ErrorShape::Column { col }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_fault_lands_in_exactly_one_bucket(
        secded in any::<bool>(),
        shape in shape_strategy(),
        hard in any::<bool>(),
        stuck in any::<bool>(),
        bank in 0..STORE_BANKS,
        lines in proptest::collection::vec(0u64..4096, 0..48),
    ) {
        let kind = if secded { StoreScheme::SecdedPerLine } else { StoreScheme::TwoD };
        let mut store = ProtectedStore::new(kind);
        // Pre-traffic: populate some slots so the model has nonzero
        // expectations to corrupt.
        for line in &lines {
            store.writeback(*line);
        }
        store.begin_event();
        let flips = if hard {
            store.inject_hard(bank, shape, stuck)
        } else {
            store.inject(bank, shape)
        };
        store.resolve_bank(bank);
        let ev = store.take_evidence();
        let outcome = classify(kind, flips, &ev);
        prop_assert!(
            outcome.is_some(),
            "unaccounted fault: {kind:?} {shape:?} flips={flips} evidence={ev:?}"
        );
        // Exactly-one-bucket: the tally total advances by one and the
        // reliability view's DUE fraction is that one event's.
        let mut tally = OutcomeTally::default();
        match outcome.unwrap() {
            FaultOutcome::Ne => tally.ne += 1,
            FaultOutcome::Ce => tally.ce += 1,
            FaultOutcome::Due => tally.due += 1,
            FaultOutcome::Sdc => tally.sdc += 1,
        }
        prop_assert_eq!(tally.total(), 1);
        prop_assert_eq!(tally.due_fraction(), tally.due as f64);
        // A zero-flip injection must never charge the scheme an error.
        if flips == 0 && !ev.any() {
            prop_assert_eq!(outcome, Some(FaultOutcome::Ne));
        }
    }

    #[test]
    fn two_d_never_silently_corrupts_within_coverage(
        row in 0..(STORE_ROWS - 32),
        col in 0..500usize,
        height in 1..=32usize,
        width in 1..16usize,
        lines in proptest::collection::vec(0u64..4096, 1..32),
    ) {
        // Any single cluster no taller than the vertical interleave is
        // inside the paper's coverage claim: the 2D scheme must end the
        // event corrected or detected, never SDC.
        let mut store = ProtectedStore::new(StoreScheme::TwoD);
        for line in &lines {
            store.writeback(*line);
        }
        store.begin_event();
        let flips = store.inject(0, ErrorShape::Cluster { row, col, height, width });
        store.resolve_bank(0);
        let ev = store.take_evidence();
        let outcome = classify(StoreScheme::TwoD, flips, &ev);
        prop_assert!(
            outcome == Some(FaultOutcome::Ce) || outcome == Some(FaultOutcome::Ne),
            "coverage violated: {outcome:?} for {height}x{width} at ({row},{col}), evidence={ev:?}"
        );
    }
}
