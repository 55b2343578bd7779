//! Equivalence property tests for batched row verification.
//!
//! The incremental scrub path verifies whole slices with one sweep over
//! the raw limb block ([`BankScheme::rows_clean_limbs`]) instead of
//! walking rows and words individually. These tests pin the batched verdict bit-for-bit against
//! the per-word reference path ([`BankScheme::row_clean`]) across every
//! paper geometry — including odd tail-limb widths, where a row's last
//! limb is only partially used — for clean blocks, single corrupted
//! bits, arbitrary random blocks, and sub-range (scrub-slice shaped)
//! views; and they pin the engine's batched `scrub_step` dirty-row
//! accounting against injected ground truth.

use ecc::{Bits, CodeKind};
use memarray::{BankScheme, ErrorShape, TwoDArray, TwoDConfig};
use proptest::collection::vec;
use proptest::prelude::*;
use std::sync::Arc;

/// Geometries with distinct tail shapes: 288 cols (4.5 limbs), 144 cols
/// (2.25 limbs), 40 cols (0.625 limbs), and a BCH row whose check width
/// is not a power of two.
fn configs() -> Vec<TwoDConfig> {
    vec![
        TwoDConfig {
            rows: 32,
            horizontal: CodeKind::Edc(8),
            data_bits: 64,
            interleave: 4,
            vertical_rows: 8,
        },
        TwoDConfig {
            rows: 32,
            horizontal: CodeKind::Secded,
            data_bits: 64,
            interleave: 2,
            vertical_rows: 8,
        },
        TwoDConfig {
            rows: 32,
            horizontal: CodeKind::Edc(8),
            data_bits: 32,
            interleave: 1,
            vertical_rows: 8,
        },
        TwoDConfig {
            rows: 32,
            horizontal: CodeKind::Dected,
            data_bits: 64,
            interleave: 2,
            vertical_rows: 8,
        },
    ]
}

/// A valid (all words clean) row built from random data words.
fn clean_row(scheme: &BankScheme, limbs: &[u64]) -> Bits {
    let layout = scheme.layout();
    let mut row = Bits::zeros(scheme.cols());
    for w in 0..layout.interleave() {
        let data = Bits::from_limbs(&limbs[w % limbs.len().max(1)..], layout.data_bits());
        let check = scheme.codec().encode(&data);
        layout.place_word(&mut row, w, &data, &check);
    }
    row
}

/// Flattens rows into the row-major limb block `rows_clean_limbs` scans.
fn flatten(rows: &[Bits], stride: usize) -> Vec<u64> {
    let mut block = Vec::with_capacity(rows.len() * stride);
    for r in rows {
        block.extend_from_slice(r.as_limbs());
        block.resize(block.len().next_multiple_of(stride.max(1)), 0);
    }
    block
}

fn reference_all_clean(scheme: &BankScheme, rows: &[Bits]) -> bool {
    rows.iter().all(|r| scheme.row_clean(r))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Clean blocks: batched and per-row verdicts agree (both clean),
    /// and corrupting any single bit of any row flips both verdicts.
    #[test]
    fn batched_agrees_on_clean_and_single_flip(
        cfg_idx in 0usize..4,
        seeds in vec(any::<u64>(), 8),
        dirty_row in 0usize..32,
        dirty_bit in any::<usize>(),
    ) {
        let scheme: Arc<BankScheme> = BankScheme::shared(configs()[cfg_idx]);
        let stride = scheme.cols().div_ceil(64);
        let mut rows: Vec<Bits> = (0..scheme.rows())
            .map(|r| {
                let s: Vec<u64> = seeds.iter().map(|&x| x.rotate_left(r as u32)).collect();
                clean_row(&scheme, &s)
            })
            .collect();
        let block = flatten(&rows, stride);
        prop_assert!(reference_all_clean(&scheme, &rows));
        prop_assert!(scheme.rows_clean_limbs(&block, stride, rows.len()));

        // One flipped bit anywhere must be seen by both paths.
        rows[dirty_row].flip(dirty_bit % scheme.cols());
        let block = flatten(&rows, stride);
        prop_assert!(!reference_all_clean(&scheme, &rows));
        prop_assert!(!scheme.rows_clean_limbs(&block, stride, rows.len()));
    }

    /// Arbitrary random blocks: the batched verdict equals the per-word
    /// reference verdict, for the full block and for every slice-shaped
    /// sub-range (the view `scrub_step` actually checks).
    #[test]
    fn batched_matches_reference_on_random_blocks(
        cfg_idx in 0usize..4,
        limbs in vec(any::<u64>(), 5 * 32),
        start in 0usize..32,
        len in 1usize..32,
    ) {
        let scheme: Arc<BankScheme> = BankScheme::shared(configs()[cfg_idx]);
        let stride = scheme.cols().div_ceil(64);
        let rows: Vec<Bits> = (0..scheme.rows())
            .map(|r| Bits::from_limbs(&limbs[r * stride..(r + 1) * stride], scheme.cols()))
            .collect();
        let block = flatten(&rows, stride);
        prop_assert_eq!(
            scheme.rows_clean_limbs(&block, stride, rows.len()),
            reference_all_clean(&scheme, &rows)
        );
        let start = start.min(scheme.rows() - 1);
        let len = len.min(scheme.rows() - start);
        prop_assert_eq!(
            scheme.rows_clean_limbs(&block[start * stride..], stride, len),
            reference_all_clean(&scheme, &rows[start..start + len])
        );
    }

    /// Engine-level ground truth: single-bit errors injected into
    /// distinct stripes are counted exactly by the (batched) scrub
    /// sweep, trigger recovery, and leave the bank auditing clean.
    #[test]
    fn scrub_step_counts_injected_rows_exactly(
        stripes in proptest::sample::subsequence((0..8usize).collect::<Vec<_>>(), 0..=8),
        col_seed in any::<u64>(),
        word_seed in any::<u64>(),
    ) {
        let mut bank = TwoDArray::new(configs()[0]);
        let word = Bits::from_u64(word_seed, 64);
        for r in 0..bank.rows() {
            for w in 0..bank.words_per_row() {
                bank.write_word(r, w, &word);
            }
        }
        for (i, &stripe) in stripes.iter().enumerate() {
            bank.inject(ErrorShape::Single {
                row: stripe,
                col: (col_seed.rotate_left(i as u32) as usize) % bank.cols(),
            });
        }
        let slice = bank.scrub_step(bank.rows()).unwrap();
        prop_assert_eq!(slice.rows_scanned, bank.rows());
        prop_assert_eq!(slice.dirty_rows, stripes.len());
        prop_assert!(slice.wrapped);
        prop_assert_eq!(slice.recovered, !stripes.is_empty());
        prop_assert!(bank.audit(), "bank must audit clean after recovery");
    }
}
