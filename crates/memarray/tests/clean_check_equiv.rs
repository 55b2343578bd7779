//! Equivalence property tests for the re-encode clean check and the
//! interleave kernels under it.
//!
//! [`BankScheme::word_clean_limbs`] decides cleanliness by re-encoding
//! the stored data and comparing the stored check word (codes with at
//! most 64 check bits), or by per-equation masks (wider codes, and the
//! scrubber's batched [`BankScheme::rows_clean_limbs`] sweep). These
//! tests pin both forms bit-for-bit against the textbook parity-matrix
//! check — every check equation's parity over its data columns plus its
//! stored check column — for every horizontal [`CodeKind`] the workspace
//! builds, on rows with 0–3 random flips and random garbage in the
//! padding bits and limbs past the row. They also pin the strided
//! gather/scatter kernels of [`RowLayout`] against a per-bit reference
//! at every start column for strides 1/2/4/8, and the tag screen
//! ([`RowLayout::candidate_words`]) against exact per-word comparison.
//! (The encode table itself is pinned against every codec by the unit
//! tests in `shared.rs`.)

use ecc::{Bits, CodeKind};
use memarray::{BankScheme, RowLayout, TwoDConfig};
use proptest::collection::vec;
use proptest::prelude::*;
use std::sync::Arc;

/// Every horizontal code the workspace builds, at the widths it builds
/// them, over interleave degrees with and without a limb kernel.
fn configs() -> Vec<TwoDConfig> {
    let kinds = [
        CodeKind::Edc(4),
        CodeKind::Edc(8),
        CodeKind::Edc(16),
        CodeKind::Secded,
        CodeKind::Dected,
        CodeKind::Qecped,
        CodeKind::Oecned,
    ];
    let mut out = Vec::new();
    for kind in kinds {
        for (data_bits, interleave) in [(32, 1), (50, 4), (64, 2), (64, 3), (128, 8), (256, 2)] {
            out.push(TwoDConfig {
                rows: 1,
                horizontal: kind,
                data_bits,
                interleave,
                vertical_rows: 1,
            });
        }
    }
    out
}

/// The textbook clean check: each check equation's parity over the data
/// columns feeding it plus its stored check column, per bit.
fn reference_clean(scheme: &BankScheme, row: &Bits, word: usize) -> bool {
    let layout = scheme.layout();
    let matrix = scheme.codec().parity_matrix();
    (0..layout.check_bits()).all(|c| {
        let mut parity = row.get(layout.check_col(word, c));
        for (i, check_row) in matrix.iter().enumerate() {
            if check_row.get(c) {
                parity ^= row.get(layout.data_col(word, i));
            }
        }
        !parity
    })
}

/// Per-bit extraction of `width` data bits at `bit_offset` of `word`.
fn reference_extract(layout: &RowLayout, row: &Bits, word: usize, off: usize, width: usize) -> u64 {
    (0..width).fold(0, |acc, b| {
        acc | u64::from(row.get(layout.data_col(word, off + b))) << b
    })
}

/// A row of clean codewords from random data, then `flips` random
/// column flips.
fn noisy_row(scheme: &BankScheme, seeds: &[u64], flips: &[usize]) -> Bits {
    let layout = scheme.layout();
    let mut row = Bits::zeros(scheme.cols());
    for w in 0..layout.interleave() {
        let limbs: Vec<u64> = (0..layout.data_bits().div_ceil(64))
            .map(|i| seeds[(w + i) % seeds.len()].rotate_left((7 * w + 3 * i) as u32))
            .collect();
        let data = Bits::from_limbs(&limbs, layout.data_bits());
        let check = scheme.codec().encode(&data);
        layout.place_word(&mut row, w, &data, &check);
    }
    for &col in flips {
        row.flip(col % scheme.cols());
    }
    row
}

/// The row's limbs with garbage in the padding bits past `cols()` and in
/// `extra` limbs past the row, as a racing snapshot could hold them.
fn with_garbage(row: &Bits, garbage: u64, extra: usize) -> Vec<u64> {
    let mut limbs = row.as_limbs().to_vec();
    let used = row.len() % 64;
    if used != 0 {
        *limbs.last_mut().expect("nonempty row") |= garbage << used;
    }
    limbs.extend((0..extra).map(|i| garbage.rotate_left(i as u32 * 11)));
    limbs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The scheme's clean check (re-encode, or masks past 64 check
    /// bits) equals the parity-matrix check on every word, the fused
    /// verified read returns exactly the per-bit data of clean words,
    /// and padding garbage never changes a verdict.
    #[test]
    fn clean_check_matches_parity_matrix(
        cfg_idx in 0usize..42,
        seeds in vec(any::<u64>(), 4),
        flips in vec(any::<usize>(), 0..=3),
        garbage in any::<u64>(),
        window in any::<u64>(),
    ) {
        let config = configs()[cfg_idx];
        let scheme: Arc<BankScheme> = BankScheme::shared(config);
        let layout = scheme.layout();
        let row = noisy_row(&scheme, &seeds, &flips);
        let limbs = with_garbage(&row, garbage, 2);
        let width = 1 + (window as usize) % layout.data_bits().min(64);
        let off = ((window >> 32) as usize) % (layout.data_bits() - width + 1);
        for w in 0..layout.interleave() {
            let clean = reference_clean(&scheme, &row, w);
            prop_assert_eq!(scheme.word_clean_limbs(&limbs, w), clean, "{:?} word {}", config, w);
            prop_assert_eq!(scheme.word_clean(&row, w), clean);
            let expect = clean.then(|| reference_extract(&layout, &row, w, off, width));
            prop_assert_eq!(scheme.clean_data_u64(&limbs, w, off, width), expect);
        }
        let stride = scheme.cols().div_ceil(64);
        let all_clean = (0..layout.interleave()).all(|w| reference_clean(&scheme, &row, w));
        prop_assert_eq!(scheme.rows_clean_limbs(&limbs[..stride], stride, 1), all_clean);
    }

    /// Every word that holds the wanted bits is a candidate; with a limb
    /// kernel a candidate agrees on the bits of the row's first limb,
    /// without one candidates are exact.
    #[test]
    fn candidate_words_never_miss_a_match(
        il_idx in 0usize..5,
        seeds in vec(any::<u64>(), 4),
        width in 1usize..=50,
        target in 0usize..8,
        garbage in any::<u64>(),
    ) {
        let il = [1usize, 2, 3, 4, 8][il_idx];
        let layout = RowLayout::new(50, 8, il);
        let mut row = Bits::zeros(layout.row_cols());
        for w in 0..il {
            let value = seeds[w % seeds.len()].rotate_left(w as u32);
            layout.place_word_u64(&mut row, w, 0, value, 50, 0);
        }
        let target = target % il;
        let value = reference_extract(&layout, &row, target, 0, width);
        let limbs = with_garbage(&row, garbage, 1);
        let candidates = layout.candidate_words(&limbs, value, width);
        let screened = if matches!(il, 1 | 2 | 4 | 8) { width.min(64 / il) } else { width };
        for w in 0..il {
            let same = reference_extract(&layout, &row, w, 0, screened)
                == value & (u64::MAX >> (64 - screened));
            prop_assert_eq!(candidates >> w & 1 == 1, same, "il {} word {}", il, w);
        }
        prop_assert!(candidates >> target & 1 == 1, "the target word must be a candidate");
    }
}

/// Gather (extract) and scatter (place) at every start column of the data
/// and check regions, for every stride with a limb kernel, against the
/// per-bit column map.
#[test]
fn gather_scatter_match_per_bit_reference_at_every_start_column() {
    let mut state = 0x0DDB_1A5E_5BAD_5EEDu64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for il in [1usize, 2, 4, 8] {
        let layout = RowLayout::new(130, 64, il);
        let mut row = Bits::zeros(layout.row_cols());
        for col in 0..layout.row_cols() {
            row.set(col, next() & 1 == 1);
        }
        for w in 0..il {
            for off in 0..layout.data_bits() {
                let width = 1 + (next() as usize) % (layout.data_bits() - off).min(64);
                // Gather: every start column `off * il + w` of the data region.
                assert_eq!(
                    layout.extract_data_u64_from_limbs(row.as_limbs(), w, off, width),
                    reference_extract(&layout, &row, w, off, width),
                    "gather il {il} word {w} window {off}+{width}"
                );
                // Scatter: the window takes the value, every other column
                // keeps its content.
                let value = next();
                let mut placed = row.clone();
                layout.place_data_u64(&mut placed, w, off, value, width);
                for col in 0..layout.row_cols() {
                    let (cw, bit) = layout.col_to_word_bit(col);
                    let expect = if cw == w && (off..off + width).contains(&bit) {
                        (value >> (bit - off)) & 1 == 1
                    } else {
                        row.get(col)
                    };
                    assert_eq!(
                        placed.get(col),
                        expect,
                        "scatter il {il} word {w} col {col}"
                    );
                }
            }
            // The check region's start column for this word.
            let check = (0..layout.check_bits()).fold(0u64, |acc, c| {
                acc | u64::from(row.get(layout.check_col(w, c))) << c
            });
            assert_eq!(
                layout.extract_check_u64_from_limbs(row.as_limbs(), w),
                check
            );
            let value = next();
            let mut placed = row.clone();
            layout.place_check_u64(&mut placed, w, value);
            assert_eq!(layout.extract_check_u64(&placed, w), value);
            assert_eq!(
                layout.extract_data_u64(&placed, w, 0, 64),
                layout.extract_data_u64(&row, w, 0, 64),
                "placing a check word leaves the data alone"
            );
        }
    }
}
