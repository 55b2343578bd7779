//! The immutable, shareable half of a 2D-protected bank.
//!
//! A [`TwoDConfig`] fully determines everything about a bank that never
//! changes after construction: the horizontal codec (with its
//! precomputed parity/syndrome tables), the physical [`RowLayout`], the
//! clean-check tables derived from the codec's parity matrix, and the
//! vertical-parity geometry. [`BankScheme`] packages exactly that state,
//! and [`BankScheme::shared`] hands out one `Arc` per distinct config,
//! so an N-bank cache — or the data and tag arrays of one cache — pays
//! for one table set instead of N.
//!
//! The mutable remainder (cell grid, parity row contents, fault overlay,
//! stats) lives in [`crate::TwoDArray`], one instance per bank.

use crate::{RowLayout, TwoDConfig};
use ecc::{Bits, Code};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Cumulative count of [`BankScheme`] table-set constructions performed
/// by [`BankScheme::shared`] (cache misses). Like
/// [`ecc::shared_codec_builds`], tests compare deltas of this counter to
/// prove that identical configurations reuse one scheme.
static SHARED_SCHEME_BUILDS: AtomicU64 = AtomicU64::new(0);

/// Total bank-scheme table sets constructed so far through the shared
/// registry. Monotonically increasing.
pub fn shared_scheme_builds() -> u64 {
    SHARED_SCHEME_BUILDS.load(Ordering::SeqCst)
}

type SchemeRegistry = Mutex<HashMap<TwoDConfig, Arc<BankScheme>>>;

fn scheme_registry() -> &'static SchemeRegistry {
    static REGISTRY: OnceLock<SchemeRegistry> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

/// The immutable shared part of a 2D-protected bank: codec, layout, and
/// the precomputed tables every access path checks against.
///
/// Construction is comparatively expensive (the codec builds its parity
/// and syndrome tables, and the clean-check tables are derived from the
/// parity matrix); cloning the `Arc` is free. Both the data and tag
/// arrays of a cache, and every bank of a banked cache, share one
/// instance per distinct [`TwoDConfig`].
///
/// # Why one syndrome is the clean check
///
/// Every horizontal code in the workspace is linear over GF(2): the
/// check word of data `d` is `H·d` for the code's parity matrix `H`
/// (row `i` of [`ecc::Code::parity_matrix`] is the check word of the
/// `i`-th data unit vector). The textbook clean check evaluates each
/// check equation `c` as the parity of the row under a mask holding the
/// data columns with `H[i][c] = 1` plus stored check column `c`, i.e.
/// `(H·d)_c ⊕ stored_c`. All equations are zero exactly when
/// `H·d = stored`, so "every masked parity is even", "the re-encoded
/// data equals the stored check word" and "the syndrome `H·d ⊕ stored`
/// is zero" are the same predicate.
///
/// The syndrome is itself a linear map of the *physical row*: a data
/// column of word `w` contributes its parity-matrix row, a check column
/// its unit bit, each shifted to word `w`'s lane of `check_bits` bits.
/// When a row's total check bits (`interleave × check_bits`) fit one
/// `u64` — every preset — the scheme slices that map by row nibble: one
/// 16-entry table per 4 physical columns, entries as narrow as the
/// row's check bits (about 9 KiB for the paper's L2 preset, EDC16 over
/// two 256-bit words). A row's syndrome, every word's check equations
/// at once, is then the XOR of one lookup per nibble, with no gather and
/// no popcount, and an all-zero limb contributes nothing and is skipped.
/// Word `w` is clean iff its lane is zero. This serves every row-level
/// check ([`BankScheme::row_clean`], [`BankScheme::dirty_words`], the
/// scrubber's [`BankScheme::rows_clean_limbs`], recovery) and the
/// single-word check of words wider than 64 data bits.
///
/// Words of at most 64 data bits under codes of at most 64 check bits
/// keep a per-word form that reads only the word: `H·d` is the XOR of
/// `H·(nibble_k << 4k)` over the data's nibbles, so a second, per-word
/// nibble table re-encodes the gathered data in one lookup per nibble
/// (256 bytes for the paper's EDC8 over 64-bit words), and the gathered
/// data is the value a read returns. The same table is the u64 encode
/// lane of writes for every code of at most 64 check bits.
///
/// The per-equation masks of the first form remain only for rows with
/// more than 64 check bits (the stronger BCH codes at wider interleaves,
/// such as QEC-PED over 64-bit words at interleave 4, or a single word
/// of more than 64 check bits), where no row syndrome fits one integer.
pub struct BankScheme {
    config: TwoDConfig,
    hcode: Arc<dyn Code + Send + Sync>,
    layout: RowLayout,
    /// The per-word encode map sliced by data nibble, present whenever
    /// the code stores at most 64 check bits: the u64 encode lane of
    /// writes, and the re-encode clean check of words of at most 64 data
    /// bits.
    encode: Option<NibbleTable>,
    /// The row-level clean check: one syndrome table, or per-equation
    /// masks for rows with more than 64 check bits.
    row_check: RowCheck,
    /// All physical columns (data + check) belonging to each word, used
    /// for limb-level column-intersection during column-mode recovery.
    word_col_masks: Vec<Bits>,
    /// When true (SECDED horizontal), single-bit errors found on reads
    /// are corrected in-line without engaging 2D recovery.
    inline_correct: bool,
}

/// How a scheme checks whole rows.
enum RowCheck {
    /// The row syndrome map sliced by physical nibble (rows of at most
    /// 64 check bits). Word `w`'s syndrome is bits
    /// `w * check_bits..(w + 1) * check_bits`.
    Syndrome(NibbleTable),
    /// Per-equation masks, flattened `[word * check_bits + c]`: check
    /// equation `c` of word `word` holds iff `parity(row & mask) == 0`.
    Masks {
        masks: Vec<Bits>,
        /// Nonzero limb range `[lo, hi)` of each mask, index-aligned with
        /// `masks`. An interleaved check equation touches a handful of
        /// neighbouring columns, so its mask is nonzero in only one or two
        /// of a row's limbs; the spans let the parity folds skip the
        /// all-zero remainder.
        spans: Vec<(u16, u16)>,
    },
}

/// A GF(2)-linear map into words of at most 64 bits, sliced by input
/// nibble: row `k`, entry `v` is the image of `v << 4k`. Entries take the
/// narrowest integer that holds an image, so the per-word encode table
/// stays a few hundred bytes and the L2 row-syndrome table about 9 KiB.
enum NibbleTable {
    U8(Vec<[u8; 16]>),
    U16(Vec<[u16; 16]>),
    U32(Vec<[u32; 16]>),
    U64(Vec<[u64; 16]>),
}

impl NibbleTable {
    /// Builds the table from the image of each input unit vector
    /// (`unit[i]` is the image of bit `i`), images `width` bits wide.
    fn new(unit: &[u64], width: usize) -> Self {
        let rows: Vec<[u64; 16]> = unit
            .chunks(4)
            .map(|bits| {
                let mut row = [0u64; 16];
                for (v, entry) in row.iter_mut().enumerate() {
                    for (j, &image) in bits.iter().enumerate() {
                        if (v >> j) & 1 == 1 {
                            *entry ^= image;
                        }
                    }
                }
                row
            })
            .collect();
        // The images fit the narrow type, so the casts are exact.
        fn narrow<T>(rows: &[[u64; 16]], cast: impl Fn(u64) -> T) -> Vec<[T; 16]> {
            rows.iter().map(|row| row.map(&cast)).collect()
        }
        match width {
            0..=8 => NibbleTable::U8(narrow(&rows, |c| c as u8)),
            9..=16 => NibbleTable::U16(narrow(&rows, |c| c as u16)),
            17..=32 => NibbleTable::U32(narrow(&rows, |c| c as u32)),
            _ => NibbleTable::U64(rows),
        }
    }

    /// Image of the `width` bits of `value` placed at `bit_offset`
    /// (caller guarantees the window lies inside the input).
    #[inline]
    fn encode(&self, bit_offset: usize, value: u64, width: usize) -> u64 {
        let shift = bit_offset & 3;
        let bits = u128::from(value & crate::layout::low_mask(width)) << shift;
        let first = bit_offset >> 2;
        let nibbles = (shift + width).div_ceil(4);
        match self {
            NibbleTable::U8(t) => fold(&t[first..first + nibbles], bits),
            NibbleTable::U16(t) => fold(&t[first..first + nibbles], bits),
            NibbleTable::U32(t) => fold(&t[first..first + nibbles], bits),
            NibbleTable::U64(t) => fold(&t[first..first + nibbles], bits),
        }
    }

    /// Image of a whole input given as limbs (the table covers
    /// `16 * limbs.len()` nibbles; extra limbs are ignored).
    #[inline]
    fn map_limbs(&self, limbs: &[u64]) -> u64 {
        match self {
            NibbleTable::U8(t) => fold_limbs(t, limbs),
            NibbleTable::U16(t) => fold_limbs(t, limbs),
            NibbleTable::U32(t) => fold_limbs(t, limbs),
            NibbleTable::U64(t) => fold_limbs(t, limbs),
        }
    }
}

/// XOR of one table entry per nibble of `bits`, low nibble first.
#[inline]
fn fold<T: Copy + Into<u64>>(rows: &[[T; 16]], mut bits: u128) -> u64 {
    let mut acc = 0u64;
    for row in rows {
        acc ^= row[(bits & 15) as usize].into();
        bits >>= 4;
    }
    acc
}

/// XOR of one table entry per nibble of `limbs`, 16 table rows per limb.
/// An all-zero limb maps to zero, so it is skipped.
#[inline]
fn fold_limbs<T: Copy + Into<u64>>(rows: &[[T; 16]], limbs: &[u64]) -> u64 {
    let mut acc = 0u64;
    for (block, &limb) in rows.chunks_exact(16).zip(limbs) {
        if limb == 0 {
            continue;
        }
        for (k, row) in block.iter().enumerate() {
            acc ^= row[((limb >> (4 * k)) & 15) as usize].into();
        }
    }
    acc
}

impl BankScheme {
    /// Builds the scheme for `config` from scratch. The horizontal codec
    /// still comes from the process-wide codec registry
    /// ([`ecc::CodeKind::build_shared`]), so even unshared schemes with
    /// the same `(kind, data_bits)` share codec tables. Prefer
    /// [`BankScheme::shared`] unless a private instance is explicitly
    /// wanted.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or `vertical_rows > rows`.
    pub fn new(config: TwoDConfig) -> Self {
        assert!(config.rows > 0, "bank needs rows");
        assert!(
            config.vertical_rows >= 1 && config.vertical_rows <= config.rows,
            "vertical rows must be in 1..=rows"
        );
        let hcode = config.horizontal.build_shared(config.data_bits);
        let layout = RowLayout::new(config.data_bits, hcode.check_bits(), config.interleave);
        let inline_correct = hcode.correctable() >= 1;
        let parity_matrix = hcode.parity_matrix();
        let check_bits = hcode.check_bits();
        let word_col_masks = (0..layout.interleave())
            .map(|w| {
                let mut cols = Bits::zeros(layout.row_cols());
                for i in 0..layout.data_bits() {
                    cols.set(layout.data_col(w, i), true);
                }
                for c in 0..check_bits {
                    cols.set(layout.check_col(w, c), true);
                }
                cols
            })
            .collect();
        let encode = (check_bits <= 64).then(|| {
            let unit: Vec<u64> = parity_matrix
                .iter()
                .map(|row| row.as_limbs().first().copied().unwrap_or(0))
                .collect();
            NibbleTable::new(&unit, check_bits)
        });
        let row_check = if layout.interleave() * check_bits <= 64 {
            RowCheck::Syndrome(row_syndrome_table(&layout, &parity_matrix))
        } else {
            row_masks(&layout, &parity_matrix)
        };
        BankScheme {
            config,
            hcode,
            layout,
            encode,
            row_check,
            word_col_masks,
            inline_correct,
        }
    }

    /// Returns the process-wide shared scheme for `config`, building its
    /// table set only on first use. Identical configs — every bank of a
    /// banked cache, or the data arrays of sibling caches — receive
    /// clones of one `Arc`. The registry keeps its own `Arc`, so a
    /// config's tables live for the rest of the process: a cache or
    /// campaign built again after every earlier holder has dropped
    /// reuses them instead of rebuilding.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or `vertical_rows > rows`.
    pub fn shared(config: TwoDConfig) -> Arc<BankScheme> {
        let mut registry = scheme_registry().lock().expect("scheme registry poisoned");
        let scheme = registry.entry(config).or_insert_with(|| {
            SHARED_SCHEME_BUILDS.fetch_add(1, Ordering::SeqCst);
            Arc::new(BankScheme::new(config))
        });
        Arc::clone(scheme)
    }

    /// The configuration this scheme was built from.
    pub fn config(&self) -> TwoDConfig {
        self.config
    }

    /// The shared horizontal codec.
    pub fn codec(&self) -> &Arc<dyn Code + Send + Sync> {
        &self.hcode
    }

    /// The physical row layout.
    pub fn layout(&self) -> RowLayout {
        self.layout
    }

    /// Number of data rows per bank.
    pub fn rows(&self) -> usize {
        self.config.rows
    }

    /// Physical columns per row.
    pub fn cols(&self) -> usize {
        self.layout.row_cols()
    }

    /// Vertical parity rows per bank (the vertical interleave factor).
    pub fn vertical_rows(&self) -> usize {
        self.config.vertical_rows
    }

    /// Whether the horizontal code corrects single-bit errors in-line.
    pub fn inline_correct(&self) -> bool {
        self.inline_correct
    }

    /// Whether word `word` of a physical row stores a self-consistent
    /// codeword (its stored check equals the re-encode of its data).
    /// Equivalent to `decode(..) == Decoded::Clean` for the linear codes
    /// this crate uses.
    #[inline]
    pub fn word_clean(&self, row: &Bits, word: usize) -> bool {
        self.word_clean_limbs(row.as_limbs(), word)
    }

    /// [`BankScheme::word_clean`] over a raw limb snapshot of one
    /// physical row instead of a `Bits`. The slice must hold the full row
    /// (`cols().div_ceil(64)` limbs); only the row's own columns are
    /// read, so any garbage beyond `cols()` in the snapshot is ignored.
    /// This is the verification step of the optimistic read probe, which
    /// works on stack copies of row limbs and must not allocate or
    /// borrow the grid.
    ///
    /// # Panics
    ///
    /// Panics if the slice is shorter than one row or `word` is out of
    /// range.
    #[inline]
    pub fn word_clean_limbs(&self, limbs: &[u64], word: usize) -> bool {
        if self.reencodes() {
            return self
                .clean_data_u64(limbs, word, 0, self.layout.data_bits())
                .is_some();
        }
        assert!(word < self.layout.interleave(), "word {word} out of range");
        assert!(
            limbs.len() * 64 >= self.layout.row_cols(),
            "limb snapshot too short"
        );
        match &self.row_check {
            RowCheck::Syndrome(table) => self.lane(table.map_limbs(limbs), word) == 0,
            RowCheck::Masks { masks, spans } => {
                let cb = self.hcode.check_bits();
                let base = word * cb;
                masks[base..base + cb]
                    .iter()
                    .zip(&spans[base..base + cb])
                    .all(|(mask, &(lo, hi))| {
                        // Only the mask's nonzero limb span contributes parity.
                        let (lo, hi) = (lo as usize, hi as usize);
                        !ecc::kernels::masked_parity(&limbs[lo..hi], &mask.as_limbs()[lo..hi])
                    })
            }
        }
    }

    /// Word `word`'s lane of a row syndrome.
    #[inline]
    fn lane(&self, syndrome: u64, word: usize) -> u64 {
        let cb = self.hcode.check_bits();
        (syndrome >> (word * cb)) & crate::layout::low_mask(cb)
    }

    /// Bitmask of the words of one physical row that fail their check:
    /// bit `w` is set iff word `w` does not store a self-consistent
    /// codeword. `0` means the whole row is clean. Under the row
    /// syndrome this is one table walk over the row, whatever the
    /// interleave; past 64 check bits per row it evaluates the masks
    /// word by word. Padding bits beyond [`BankScheme::cols`] and limbs
    /// past the row are ignored.
    ///
    /// # Panics
    ///
    /// Panics if the slice is shorter than one row.
    #[inline]
    pub fn dirty_words(&self, limbs: &[u64]) -> u64 {
        assert!(
            limbs.len() * 64 >= self.layout.row_cols(),
            "limb snapshot too short"
        );
        let il = self.layout.interleave();
        match &self.row_check {
            RowCheck::Syndrome(table) => {
                let syndrome = table.map_limbs(limbs);
                if syndrome == 0 {
                    return 0;
                }
                (0..il).fold(0, |dirty, w| {
                    dirty | u64::from(self.lane(syndrome, w) != 0) << w
                })
            }
            RowCheck::Masks { .. } => (0..il).fold(0, |dirty, w| {
                dirty | u64::from(!self.word_clean_limbs(limbs, w)) << w
            }),
        }
    }

    /// Whether single-word checks re-encode: words of at most 64 data
    /// bits under a code of at most 64 check bits, where one gather
    /// yields the whole data word.
    #[inline]
    fn reencodes(&self) -> bool {
        self.encode.is_some() && self.layout.data_bits() <= 64
    }

    /// Verified read of `width` data bits at `bit_offset` of word `word`
    /// from a raw limb snapshot: the data bits when the word checks
    /// clean, `None` otherwise. For words of at most 64 data bits under
    /// a re-encode check this is one fused step — a single strided
    /// gather yields both the bits to encode and the bits to return —
    /// rather than a check followed by a second extraction.
    ///
    /// # Panics
    ///
    /// Panics if `word` is out of range, the bit window falls outside
    /// the word's data bits (`width` must be `1..=64`), or the slice is
    /// shorter than one row.
    #[inline]
    pub fn clean_data_u64(
        &self,
        limbs: &[u64],
        word: usize,
        bit_offset: usize,
        width: usize,
    ) -> Option<u64> {
        let layout = &self.layout;
        let data_bits = layout.data_bits();
        if let (Some(table), true) = (&self.encode, data_bits <= 64) {
            assert!(
                (1..=64).contains(&width) && bit_offset + width <= data_bits,
                "u64 window {bit_offset}+{width} outside {data_bits} data bits"
            );
            let data = layout.extract_data_u64_from_limbs(limbs, word, 0, data_bits);
            if table.encode(0, data, data_bits) != layout.extract_check_u64_from_limbs(limbs, word)
            {
                return None;
            }
            return Some((data >> bit_offset) & crate::layout::low_mask(width));
        }
        if !self.word_clean_limbs(limbs, word) {
            return None;
        }
        Some(layout.extract_data_u64_from_limbs(limbs, word, bit_offset, width))
    }

    /// Batched [`BankScheme::row_clean`] over a row-major limb block:
    /// whether *every* one of `rows` consecutive physical rows, stored
    /// `limbs_per_row` limbs apart starting at `limbs[0]`, is a
    /// self-consistent codeword in every word.
    ///
    /// This is the scrub fast path: one borrow of the block, no per-row
    /// copy. Under the row syndrome each row is one table walk (all-zero
    /// limbs skipped); past 64 check bits per row the masks run in the
    /// outer loop and rows in the inner loop, so each mask is loaded once
    /// and streams the block through its one- or two-limb span
    /// ([`ecc::kernels`] folds). Returns on the first dirty row or
    /// equation; the caller then re-walks the slice per-row to attribute
    /// and repair.
    ///
    /// Padding bits beyond [`BankScheme::cols`] in each row are ignored,
    /// matching [`BankScheme::word_clean_limbs`].
    ///
    /// # Panics
    ///
    /// Panics if the stride is narrower than one row or the block is
    /// shorter than `rows` rows.
    pub fn rows_clean_limbs(&self, limbs: &[u64], limbs_per_row: usize, rows: usize) -> bool {
        assert!(
            limbs_per_row * 64 >= self.layout.row_cols(),
            "row stride too narrow"
        );
        assert!(
            limbs.len() >= rows * limbs_per_row,
            "limb block shorter than {rows} rows"
        );
        let mut block = limbs.chunks_exact(limbs_per_row).take(rows);
        match &self.row_check {
            RowCheck::Syndrome(table) => block.all(|row| table.map_limbs(row) == 0),
            RowCheck::Masks { masks, spans } => masks.iter().zip(spans).all(|(mask, &(lo, hi))| {
                let (lo, hi) = (lo as usize, hi as usize);
                let mask_span = &mask.as_limbs()[lo..hi];
                let mut dirty = false;
                for row in block.clone() {
                    dirty |= ecc::kernels::masked_parity(&row[lo..hi], mask_span);
                }
                !dirty
            }),
        }
    }

    /// Whether every word of a physical row stores a self-consistent
    /// codeword.
    #[inline]
    pub fn row_clean(&self, row: &Bits) -> bool {
        self.dirty_words(row.as_limbs()) == 0
    }

    /// All physical columns (data + check) belonging to word `word`, as
    /// a row-width mask.
    pub fn word_col_mask(&self, word: usize) -> &Bits {
        &self.word_col_masks[word]
    }

    /// Whether the u64 encode fast lane is available (the code stores at
    /// most 64 check bits, so check words fit one limb).
    #[inline]
    pub fn fast_u64(&self) -> bool {
        self.encode.is_some()
    }

    /// Check word of a `width`-bit data pattern `value` positioned at
    /// `bit_offset` inside an otherwise-zero data word: one nibble-table
    /// lookup per 4 data bits. By linearity this is both "encode a narrow
    /// word" and "check-delta of a narrow data delta"; the result is
    /// exact for full-width words too (`bit_offset = 0`,
    /// `width = data_bits`, for words of at most 64 data bits).
    ///
    /// # Panics
    ///
    /// Panics if the fast lane is unavailable ([`BankScheme::fast_u64`])
    /// or the window falls outside the data word.
    #[inline]
    pub fn encode_u64(&self, bit_offset: usize, value: u64, width: usize) -> u64 {
        let table = self
            .encode
            .as_ref()
            .expect("u64 encode lane needs <=64 check bits");
        assert!(
            (1..=64).contains(&width) && bit_offset + width <= self.config.data_bits,
            "u64 window {bit_offset}+{width} outside {} data bits",
            self.config.data_bits
        );
        table.encode(bit_offset, value, width)
    }
}

/// The row syndrome map sliced by physical nibble (rows of at most 64
/// check bits): data column `(w, i)` maps to parity-matrix row `i`
/// shifted to word `w`'s lane, check column `(w, c)` to its unit bit in
/// that lane, and padding columns up to the limb boundary to zero.
fn row_syndrome_table(layout: &RowLayout, parity_matrix: &[Bits]) -> NibbleTable {
    let cb = layout.check_bits();
    let unit: Vec<u64> = (0..layout.row_cols().div_ceil(64) * 64)
        .map(|col| {
            if col >= layout.row_cols() {
                return 0;
            }
            let (w, bit) = layout.col_to_word_bit(col);
            let image = match bit.checked_sub(layout.data_bits()) {
                None => parity_matrix[bit].as_limbs().first().copied().unwrap_or(0),
                Some(c) => 1 << c,
            };
            image << (w * cb)
        })
        .collect();
    NibbleTable::new(&unit, layout.interleave() * cb)
}

/// Per-equation clean masks (rows of more than 64 check bits): check
/// equation `c` of word `w` covers the physical columns of the data bits
/// feeding check bit `c` plus the stored check bit itself.
fn row_masks(layout: &RowLayout, parity_matrix: &[Bits]) -> RowCheck {
    let check_bits = layout.check_bits();
    let mut masks = Vec::with_capacity(layout.interleave() * check_bits);
    for w in 0..layout.interleave() {
        for c in 0..check_bits {
            let mut mask = Bits::zeros(layout.row_cols());
            for (i, check_row) in parity_matrix.iter().enumerate() {
                if check_row.get(c) {
                    mask.set(layout.data_col(w, i), true);
                }
            }
            mask.set(layout.check_col(w, c), true);
            masks.push(mask);
        }
    }
    let spans = masks
        .iter()
        .map(|mask| {
            let limbs = mask.as_limbs();
            let lo = limbs.iter().position(|&l| l != 0).unwrap_or(0);
            let hi = limbs.iter().rposition(|&l| l != 0).map_or(0, |i| i + 1);
            (lo as u16, hi as u16)
        })
        .collect();
    RowCheck::Masks { masks, spans }
}

impl std::fmt::Debug for BankScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "BankScheme({} rows x {} cols, {} words/row, hcode={}, V={})",
            self.rows(),
            self.cols(),
            self.layout.interleave(),
            self.hcode.name(),
            self.vertical_rows()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecc::CodeKind;

    fn config(rows: usize) -> TwoDConfig {
        TwoDConfig {
            rows,
            horizontal: CodeKind::Edc(8),
            data_bits: 64,
            interleave: 4,
            vertical_rows: 32,
        }
    }

    #[test]
    fn shared_reuses_identical_configs() {
        let a = BankScheme::shared(config(128));
        let before = shared_scheme_builds();
        let b = BankScheme::shared(config(128));
        assert!(Arc::ptr_eq(&a, &b), "identical configs must share");
        assert_eq!(shared_scheme_builds(), before, "no rebuild on reuse");
        // A different row count is a different scheme...
        let c = BankScheme::shared(config(256));
        assert!(!Arc::ptr_eq(&a, &c));
        // ...but still shares the codec tables underneath.
        assert!(Arc::ptr_eq(a.codec(), c.codec()));
    }

    #[test]
    fn shared_outlives_its_holders() {
        // A config no other test builds, so only this test's calls can
        // build it.
        let cfg = TwoDConfig {
            rows: 72,
            horizontal: CodeKind::Edc(4),
            data_bits: 16,
            interleave: 2,
            vertical_rows: 8,
        };
        let first = BankScheme::shared(cfg);
        let tables = Arc::as_ptr(&first);
        drop(first);
        let before = shared_scheme_builds();
        let again = BankScheme::shared(cfg);
        assert_eq!(shared_scheme_builds(), before, "no rebuild after the drop");
        assert!(std::ptr::eq(Arc::as_ptr(&again), tables), "same tables");
    }

    #[test]
    fn encode_u64_matches_codec() {
        use ecc::Bits;
        // Every code the workspace builds stores at most 64 check bits
        // over 64-bit words, so each gets the nibble-table encode.
        let kinds = [
            CodeKind::Edc(4),
            CodeKind::Edc(8),
            CodeKind::Edc(16),
            CodeKind::Secded,
            CodeKind::Dected,
            CodeKind::Qecped,
            CodeKind::Oecned,
        ];
        for kind in kinds {
            let scheme = BankScheme::new(TwoDConfig {
                rows: 64,
                horizontal: kind,
                data_bits: 64,
                interleave: 4,
                vertical_rows: 16,
            });
            assert!(scheme.fast_u64());
            let mut state = 0x1357_9BDF_2468_ACE0u64;
            for _ in 0..32 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let expect = scheme.codec().encode(&Bits::from_u64(state, 64)).to_u64();
                assert_eq!(
                    scheme.encode_u64(0, state, 64),
                    expect,
                    "{kind:?} {state:#x}"
                );
            }
            // Narrow windows equal the encode of the shifted pattern.
            let narrow = scheme
                .codec()
                .encode(&Bits::from_u64(0xABu64 << 20, 64))
                .to_u64();
            assert_eq!(scheme.encode_u64(20, 0xAB, 8), narrow);
            // A window off the nibble grid.
            let narrow = scheme
                .codec()
                .encode(&Bits::from_u64(0x1ABCu64 << 22, 64))
                .to_u64();
            assert_eq!(scheme.encode_u64(22, 0x1ABC, 13), narrow);
        }
    }

    #[test]
    fn row_syndrome_serves_every_row_of_at_most_64_check_bits() {
        let geometries = [
            (CodeKind::Edc(8), 64, 4),
            (CodeKind::Edc(16), 256, 2),
            (CodeKind::Secded, 64, 2),
            (CodeKind::Qecped, 64, 2),
            (CodeKind::Qecped, 64, 4),
            (CodeKind::Oecned, 256, 2),
        ];
        for (kind, data_bits, interleave) in geometries {
            let scheme = BankScheme::new(TwoDConfig {
                rows: 32,
                horizontal: kind,
                data_bits,
                interleave,
                vertical_rows: 8,
            });
            let fits = interleave * scheme.layout().check_bits() <= 64;
            assert_eq!(
                matches!(scheme.row_check, RowCheck::Syndrome(_)),
                fits,
                "{kind:?} x{interleave}"
            );
        }
        // The L2 preset (544 columns, 9 limbs): 144 nibble rows of 16
        // u32 entries, 9 KiB.
        let l2 = BankScheme::new(TwoDConfig {
            rows: 32,
            horizontal: CodeKind::Edc(16),
            data_bits: 256,
            interleave: 2,
            vertical_rows: 8,
        });
        assert!(matches!(&l2.row_check, RowCheck::Syndrome(NibbleTable::U32(t)) if t.len() == 144));
    }

    #[test]
    fn clean_masks_match_encode() {
        use ecc::Bits;
        let scheme = BankScheme::new(config(64));
        let layout = scheme.layout();
        // Place one encoded word; the row must check clean for that word.
        let data = Bits::from_u64(0xDEAD_BEEF_1234_5678, 64);
        let check = scheme.codec().encode(&data);
        let mut row = Bits::zeros(layout.row_cols());
        layout.place_word(&mut row, 2, &data, &check);
        assert!(scheme.word_clean(&row, 2));
        // Any single flipped bit of that word must dirty it.
        let col = layout.data_col(2, 17);
        row.flip(col);
        assert!(!scheme.word_clean(&row, 2));
    }
}
