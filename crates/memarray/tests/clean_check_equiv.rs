//! Equivalence property tests for the clean checks, the row audit and
//! the interleave kernels under them.
//!
//! [`BankScheme::word_clean_limbs`] decides cleanliness by re-encoding
//! the stored data and comparing the stored check word (words of at most
//! 64 data bits), by the word's lane of the row syndrome (rows of at most
//! 64 check bits), or by per-equation masks (wider rows); the row-level
//! checks ([`BankScheme::dirty_words`], the scrubber's batched
//! [`BankScheme::rows_clean_limbs`]) use the row syndrome or the masks.
//! These tests pin every form bit-for-bit against the textbook
//! parity-matrix check — every check equation's parity over its data
//! columns plus its stored check column — for every horizontal
//! [`CodeKind`] the workspace builds, on dense and mostly-zero rows with
//! 0–3 random flips and random garbage in the padding bits and limbs
//! past the row. The row audit ([`TwoDArray::read_row_timed`]) is pinned
//! against per-word [`TwoDArray::read_word_into`] on a twin bank under
//! clusters, stuck-at cells and stripe collisions, with blank (never
//! written) rows among written ones, stuck-at-0 cells that leave a blank
//! row blank and stuck-at-1 cells that do not. They also pin the strided
//! gather/scatter kernels of [`RowLayout`] against a per-bit reference
//! at every start column for strides 1/2/4/8, and the tag screen
//! ([`RowLayout::candidate_words`]) against exact per-word comparison.
//! (The encode table itself is pinned against every codec by the unit
//! tests in `shared.rs`.)

use ecc::{Bits, CodeKind};
use memarray::{BankScheme, EngineError, ErrorShape, ReadKind, RowLayout, TwoDArray, TwoDConfig};
use proptest::collection::vec;
use proptest::prelude::*;
use std::sync::Arc;

/// `(data_bits, interleave)` pairs: the L1 and L2 presets, interleave
/// degrees with and without a limb kernel, and rows past 64 check bits.
const GEOMETRIES: [(usize, usize); 7] = [
    (32, 1),
    (50, 4),
    (64, 2),
    (64, 3),
    (64, 4),
    (128, 8),
    (256, 2),
];

/// Every horizontal code the workspace builds, at the widths it builds
/// them, over [`GEOMETRIES`].
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
        for (data_bits, interleave) in GEOMETRIES {
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

/// A row of clean codewords from random data (all zero when every seed
/// is zero), then `flips` random column flips.
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

    /// The scheme's clean checks (re-encode, row-syndrome lane, or
    /// masks past 64 check bits per row) equal the parity-matrix check
    /// on every word, the fused verified read returns exactly the
    /// per-bit data of clean words, and padding garbage never changes a
    /// verdict. Sparse cases are all-zero rows plus the flips, so most
    /// limbs are zero and skipped by the syndrome walk.
    #[test]
    fn clean_check_matches_parity_matrix(
        cfg_idx in 0usize..7 * GEOMETRIES.len(),
        seeds in vec(any::<u64>(), 4),
        sparse in any::<bool>(),
        flips in vec(any::<usize>(), 0..=3),
        garbage in any::<u64>(),
        window in any::<u64>(),
    ) {
        let config = configs()[cfg_idx];
        let scheme: Arc<BankScheme> = BankScheme::shared(config);
        let layout = scheme.layout();
        let seeds = if sparse { vec![0; seeds.len()] } else { seeds };
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
        let dirty = (0..layout.interleave())
            .fold(0u64, |acc, w| acc | u64::from(!reference_clean(&scheme, &row, w)) << w);
        prop_assert_eq!(scheme.dirty_words(&limbs), dirty, "{:?}", config);
        prop_assert_eq!(scheme.row_clean(&row), dirty == 0);
        // The batched sweep over a block whose noisy row sits between
        // two clean ones (each with its own padding garbage).
        let stride = scheme.cols().div_ceil(64);
        let clean = with_garbage(&noisy_row(&scheme, &seeds, &[]), garbage.rotate_left(9), 0);
        let block: Vec<u64> = [&clean[..], &limbs[..stride], &clean[..]].concat();
        prop_assert_eq!(scheme.rows_clean_limbs(&block, stride, 3), dirty == 0);
        prop_assert!(scheme.rows_clean_limbs(&block, stride, 1));
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

/// Banks the row audit is pinned on: the L2 preset (row syndrome over
/// 256-bit words), the L1 preset (re-encoded 64-bit words), SECDED
/// (inline correction) and QEC-PED at interleave 4 (per-equation masks:
/// 4 x 29 check bits per row).
fn audit_configs() -> [TwoDConfig; 4] {
    let bank = |horizontal, data_bits, interleave| TwoDConfig {
        rows: 64,
        horizontal,
        data_bits,
        interleave,
        vertical_rows: 16,
    };
    [
        bank(CodeKind::Edc(16), 256, 2),
        bank(CodeKind::Edc(8), 64, 4),
        bank(CodeKind::Secded, 64, 2),
        bank(CodeKind::Qecped, 64, 4),
    ]
}

/// Whether row `r` is left blank (never written) under the mask `blank`.
fn is_blank(blank: u64, r: usize) -> bool {
    (blank >> (r % 64)) & 1 == 1
}

/// One bank filled with words drawn from `seed` except on the rows
/// `blank` leaves blank, then damaged: stuck-at-0 cells on the first
/// blank row (it stays blank) and a stuck-at-1 cell on the second (it
/// does not), a cluster, optionally more stuck-at cells, and optionally
/// a stripe collision (two flips in one column, `V` rows apart, which
/// the vertical syndrome cannot see).
fn damaged_bank(config: TwoDConfig, seed: u64, damage: &[usize; 8], blank: u64) -> TwoDArray {
    let mut bank = TwoDArray::new(config);
    let mut state = seed | 1;
    for r in 0..bank.rows() {
        if is_blank(blank, r) {
            continue;
        }
        for w in 0..bank.words_per_row() {
            let limbs: Vec<u64> = (0..config.data_bits.div_ceil(64))
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state
                })
                .collect();
            bank.write_word(r, w, &Bits::from_limbs(&limbs, config.data_bits));
        }
    }
    let (rows, cols) = (bank.rows(), bank.cols());
    let blank_rows: Vec<usize> = (0..rows).filter(|&r| is_blank(blank, r)).collect();
    if let [zero_row, one_row, ..] = blank_rows[..] {
        bank.inject_hard(
            ErrorShape::Cluster {
                row: zero_row,
                col: damage[3] % cols,
                height: 1,
                width: 1 + damage[2] % 8,
            },
            false,
        );
        bank.inject_hard(
            ErrorShape::Single {
                row: one_row,
                col: damage[1] % cols,
            },
            true,
        );
    }
    bank.inject(ErrorShape::Cluster {
        row: damage[0] % rows,
        col: damage[1] % cols,
        height: 1 + damage[2] % 20,
        width: 1 + damage[3] % 20,
    });
    if damage[4] % 2 == 1 {
        let row = damage[5] % rows;
        bank.inject_hard(
            ErrorShape::Cluster {
                row,
                col: damage[6] % cols,
                height: 1,
                width: 1 + damage[4] % 3,
            },
            damage[5] % 2 == 1,
        );
    }
    if damage[7].is_multiple_of(3) {
        let v = config.vertical_rows;
        let row = damage[6] % (rows - v);
        let col = damage[7] % cols;
        bank.inject(ErrorShape::Single { row, col });
        bank.inject(ErrorShape::Single { row: row + v, col });
    }
    bank
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The row audit equals per-word timed reads on a twin bank: the same
    /// kinds, data, cycles and errors word by word, and the same stats,
    /// grid, parity and stuck-at overlay afterwards. It reports a row
    /// blank exactly when the row reads all zero through the overlay.
    #[test]
    fn row_audit_matches_per_word_reads(
        cfg_idx in 0usize..4,
        seed in any::<u64>(),
        damage in any::<[usize; 8]>(),
        blank in prop_oneof![Just(0u64), any::<u64>()],
    ) {
        let config = audit_configs()[cfg_idx];
        let mut audited = damaged_bank(config, seed, &damage, blank);
        let mut twin = damaged_bank(config, seed, &damage, blank);
        let layout = audited.layout();
        prop_assert_eq!(layout.interleave() * layout.check_bits() > 64, cfg_idx == 3);
        let words = audited.words_per_row();
        let mut data = vec![Bits::zeros(config.data_bits); words];
        let mut reads: Vec<Result<(ReadKind, u64), EngineError>> =
            vec![Ok((ReadKind::Clean, 0)); words];
        // Garbage in every landing buffer: a read that fails must leave it,
        // and a blank row must zero it.
        let garbage = Bits::ones(config.data_bits);
        let mut word = garbage.clone();
        for row in 0..audited.rows() {
            let mut seen = audited.grid().row(row);
            audited.fault_map().overlay_row(row, &mut seen);
            for d in &mut data {
                d.copy_from(&garbage);
            }
            let was_blank = audited.read_row_timed(row, &mut data, &mut reads);
            prop_assert_eq!(was_blank, seen.is_zero(), "{:?} row {}", config, row);
            for w in 0..words {
                word.copy_from(&garbage);
                let read = twin.read_word_into(row, w, &mut word);
                prop_assert_eq!(&reads[w], &read, "{:?} row {} word {}", config, row, w);
                prop_assert_eq!(&data[w], &word, "{:?} row {} word {}", config, row, w);
            }
        }
        prop_assert_eq!(audited.stats(), twin.stats());
        prop_assert!(audited.grid() == twin.grid(), "{:?}: grids differ", config);
        prop_assert_eq!(audited.vertical(), twin.vertical());
        prop_assert_eq!(
            audited.fault_map().iter().collect::<Vec<_>>(),
            twin.fault_map().iter().collect::<Vec<_>>()
        );
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
