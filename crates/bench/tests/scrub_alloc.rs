//! Allocation-regression pin for the background self-healing lanes:
//! clean scrub slices (including the wrap check), full scrub passes and
//! row audits of the simulator store's L2-preset bank, and the
//! scratch-based BCH decode must perform ZERO heap allocations — the
//! contract that makes background scrubbing as cheap as the hit lanes.
//!
//! Separate binary from `alloc_regression.rs` on purpose: the counting
//! allocator is process-global, so each test binary registers its own
//! and runs everything inside ONE `#[test]` function (libtest worker
//! threads would otherwise race the counter).

use bench::alloc_counter::{self, CountingAlloc};
use ecc::{Bch, Bits, Code, CodeKind, DecodeScratch};
use memarray::{EngineError, ReadKind, TwoDArray, TwoDConfig};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Asserts that `f` performs zero allocations in at least one of three
/// runs. The process-global counter can pick up stray one-off
/// allocations from the harness (lazy stdio/thread init on another
/// thread), but a genuine hot-path regression allocates on *every*
/// slice or decode — hundreds per window — and can never produce a
/// zero window.
fn assert_zero_allocs(label: &str, mut f: impl FnMut()) {
    let mut counts = [0u64; 3];
    for slot in &mut counts {
        let ((), allocs) = alloc_counter::count(&mut f);
        *slot = allocs;
        if allocs == 0 {
            return;
        }
    }
    panic!("{label} must not touch the allocator (3 windows: {counts:?})");
}

#[test]
fn zero_allocation_scrub_paths() {
    clean_scrub_slices();
    clean_l2_audits();
    bch_decode_into();
}

/// Incremental scrub over a clean bank: every slice — including the one
/// that wraps the cursor and runs the vertical-parity stripe check —
/// must stay on the batched limb sweep and never allocate.
fn clean_scrub_slices() {
    let mut bank = TwoDArray::new(TwoDConfig {
        rows: 256,
        horizontal: CodeKind::Edc(8),
        data_bits: 64,
        interleave: 4,
        vertical_rows: 32,
    });
    for r in 0..bank.rows() {
        for w in 0..bank.words_per_row() {
            bank.write_word(r, w, &Bits::from_u64((r * 4 + w) as u64, 64));
        }
    }
    // Warm: one full pass sizes the engine-owned scratch rows.
    while !bank.scrub_step(32).unwrap().wrapped {}
    assert_zero_allocs("clean scrub slices", || {
        // 32 slices of 32 rows = 4 full passes over 256 rows: the
        // window crosses the wrap (stripe verification) 4 times.
        for _ in 0..32 {
            let slice = bank.scrub_step(32).unwrap();
            assert_eq!(slice.dirty_rows, 0);
            assert!(!slice.recovered);
        }
    });
}

/// The simulator store's bank (the L2 preset, EDC16 over two 256-bit
/// words per row, 544 rows), clean and dense: a full scrub pass (row
/// syndromes plus the raw-limb stripe audit) and a row audit of every
/// row into caller buffers must never allocate.
fn clean_l2_audits() {
    let mut bank = TwoDArray::new(twod_cache::TwoDScheme::l2_paper().bank_config(544));
    for r in 0..bank.rows() {
        for w in 0..bank.words_per_row() {
            let limbs = [r as u64, w as u64, !(r as u64), u64::MAX];
            bank.write_word(r, w, &Bits::from_limbs(&limbs, 256));
        }
    }
    let mut data = vec![Bits::zeros(256); bank.words_per_row()];
    let mut reads: Vec<Result<(ReadKind, u64), EngineError>> =
        vec![Ok((ReadKind::Clean, 0)); bank.words_per_row()];
    assert!(bank.scrub().unwrap());
    assert_zero_allocs("clean L2 scrub passes and row audits", || {
        for _ in 0..4 {
            assert!(bank.scrub().unwrap());
        }
        for r in 0..bank.rows() {
            bank.read_row_timed(r, &mut data, &mut reads);
            assert!(reads.iter().all(|read| read == &Ok((ReadKind::Clean, 0))));
        }
    });
}

/// `Code::decode_into` with a warmed scratch: clean, correctable, and
/// detected-only words all stay allocation-free for the BCH codecs the
/// repair path leans on (DEC-TED t=2 through OEC-NED t=8).
fn bch_decode_into() {
    for t in [2usize, 4, 8] {
        let code = Bch::new(64, t);
        let data = Bits::from_u64(0xDEAD_BEEF_CAFE_F00D, 64);
        let check = code.encode(&data);
        let mut out = Bits::zeros(code.data_bits());
        let mut scratch = DecodeScratch::default();
        // Warm: one decode of each weight sizes the scratch vectors.
        for weight in 0..=t + 1 {
            let mut d = data.clone();
            for p in 0..weight {
                d.flip((p * 7) % code.data_bits());
            }
            code.decode_into(&d, &check, &mut out, &mut scratch);
        }
        let mut noisy = data.clone();
        noisy.flip(3);
        noisy.flip(41);
        assert_zero_allocs("BCH decode_into (warmed scratch)", || {
            for _ in 0..256 {
                std::hint::black_box(code.decode_into(
                    std::hint::black_box(&noisy),
                    &check,
                    &mut out,
                    &mut scratch,
                ));
                std::hint::black_box(code.decode_into(
                    std::hint::black_box(&data),
                    &check,
                    &mut out,
                    &mut scratch,
                ));
            }
        });
    }
}
