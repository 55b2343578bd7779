//! Physical row layout: how logical (word, bit) coordinates map onto
//! physical columns under bit interleaving.
//!
//! With `d`-way interleaving, `d` complete codewords share one physical
//! row and their bits are interleaved bit-by-bit (`A1 B1 C1 D1 A2 B2 ...`),
//! so a physically contiguous error burst of `d * n` columns touches at
//! most `n` contiguous logical bits of each codeword.

use ecc::Bits;

/// Low `n` bits set (`n <= 64`).
#[inline]
pub(crate) const fn low_mask(n: usize) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// Packs the bits of `x` at positions `0, 2, 4, ...` down to `0..32`
/// (Morton-style compress).
#[inline]
fn gather2(mut x: u64) -> u64 {
    x &= 0x5555_5555_5555_5555;
    x = (x | (x >> 1)) & 0x3333_3333_3333_3333;
    x = (x | (x >> 2)) & 0x0F0F_0F0F_0F0F_0F0F;
    x = (x | (x >> 4)) & 0x00FF_00FF_00FF_00FF;
    x = (x | (x >> 8)) & 0x0000_FFFF_0000_FFFF;
    x = (x | (x >> 16)) & 0x0000_0000_FFFF_FFFF;
    x
}

/// Packs the bits of `x` at positions `0, 4, 8, ...` down to `0..16`.
/// Two compress steps leave four nibbles at bits 0/16/32/48; one multiply
/// then places nibble `k` at `36 + 4k` (partial products sit on distinct
/// nibble boundaries, so no carries).
#[inline]
fn gather4(mut x: u64) -> u64 {
    x &= 0x1111_1111_1111_1111;
    x = (x | (x >> 3)) & 0x0303_0303_0303_0303;
    x = (x | (x >> 6)) & 0x000F_000F_000F_000F;
    (x.wrapping_mul(0x0000_0010_0100_1001) >> 36) & 0xFFFF
}

/// Packs the bits of `x` at positions `0, 8, 16, ...` down to `0..8`: the
/// classic byte-LSB multiply, which lands bit `8i` at `56 + i`.
#[inline]
fn gather8(x: u64) -> u64 {
    (x & 0x0101_0101_0101_0101).wrapping_mul(0x0102_0408_1020_4080) >> 56
}

/// Spreads the low 32 bits of `x` to positions `0, 2, 4, ...` (inverse of
/// [`gather2`]).
#[inline]
fn scatter2(mut x: u64) -> u64 {
    x &= 0x0000_0000_FFFF_FFFF;
    x = (x | (x << 16)) & 0x0000_FFFF_0000_FFFF;
    x = (x | (x << 8)) & 0x00FF_00FF_00FF_00FF;
    x = (x | (x << 4)) & 0x0F0F_0F0F_0F0F_0F0F;
    x = (x | (x << 2)) & 0x3333_3333_3333_3333;
    x = (x | (x << 1)) & 0x5555_5555_5555_5555;
    x
}

/// Spreads the low 16 bits of `x` to positions `0, 4, 8, ...`.
#[inline]
fn scatter4(mut x: u64) -> u64 {
    x &= 0x0000_0000_0000_FFFF;
    x = (x | (x << 24)) & 0x0000_00FF_0000_00FF;
    x = (x | (x << 12)) & 0x000F_000F_000F_000F;
    x = (x | (x << 6)) & 0x0303_0303_0303_0303;
    x = (x | (x << 3)) & 0x1111_1111_1111_1111;
    x
}

/// Spreads the low 8 bits of `x` to positions `0, 8, 16, ...`.
#[inline]
fn scatter8(mut x: u64) -> u64 {
    x &= 0x0000_0000_0000_00FF;
    x = (x | (x << 28)) & 0x0000_000F_0000_000F;
    x = (x | (x << 14)) & 0x0003_0003_0003_0003;
    x = (x | (x << 7)) & 0x0101_0101_0101_0101;
    x
}

/// Whether `stride` has a limb-level gather/scatter kernel. Strides that
/// don't (non-powers of two, or beyond 8) take the per-bit loops.
#[inline]
fn fast_stride(stride: usize) -> bool {
    matches!(stride, 1 | 2 | 4 | 8)
}

#[inline(always)]
fn gather<const S: usize>(x: u64) -> u64 {
    match S {
        1 => x,
        2 => gather2(x),
        4 => gather4(x),
        _ => gather8(x),
    }
}

#[inline(always)]
fn scatter<const S: usize>(x: u64) -> u64 {
    match S {
        1 => x,
        2 => scatter2(x),
        4 => scatter4(x),
        _ => scatter8(x),
    }
}

/// Gathers `count` bits (`count <= 64`) spaced `stride` columns apart
/// starting at `start_col`, limb-at-a-time: each source limb contributes
/// `64 / stride` word bits through one compress kernel instead of a
/// per-bit loop. `stride` must satisfy [`fast_stride`]; the dispatch
/// picks a kernel with the stride as a constant, so every column split
/// is a shift or a mask, never a division.
#[inline(always)]
fn gather_span(limbs: &[u64], start_col: usize, stride: usize, count: usize) -> u64 {
    match stride {
        1 => gather_span_k::<1>(limbs, start_col, count),
        2 => gather_span_k::<2>(limbs, start_col, count),
        4 => gather_span_k::<4>(limbs, start_col, count),
        _ => gather_span_k::<8>(limbs, start_col, count),
    }
}

#[inline(always)]
fn gather_span_k<const S: usize>(limbs: &[u64], start_col: usize, count: usize) -> u64 {
    let phase = start_col % S;
    let mut b = start_col / 64;
    let mut skip = (start_col % 64) / S;
    let mut out = 0u64;
    let mut produced = 0usize;
    while produced < count {
        let chunk = gather::<S>(limbs[b] >> phase) >> skip;
        out |= chunk << produced;
        produced += 64 / S - skip;
        skip = 0;
        b += 1;
    }
    out & low_mask(count)
}

/// Scatters the low `count` bits of `value` to columns `start_col,
/// start_col + stride, ...`, limb-at-a-time (inverse of
/// [`gather_span`], with the same constant-stride dispatch); other
/// columns keep their contents.
#[inline]
fn scatter_span(row: &mut Bits, start_col: usize, stride: usize, count: usize, value: u64) {
    match stride {
        1 => scatter_span_k::<1>(row, start_col, count, value),
        2 => scatter_span_k::<2>(row, start_col, count, value),
        4 => scatter_span_k::<4>(row, start_col, count, value),
        _ => scatter_span_k::<8>(row, start_col, count, value),
    }
}

#[inline(always)]
fn scatter_span_k<const S: usize>(row: &mut Bits, start_col: usize, count: usize, value: u64) {
    let phase = start_col % S;
    let mut b = start_col / 64;
    let mut skip = (start_col % 64) / S;
    let value = value & low_mask(count);
    let mut consumed = 0usize;
    while consumed < count {
        let take = (64 / S - skip).min(count - consumed);
        let chunk = (value >> consumed) & low_mask(take);
        let spread = scatter::<S>(chunk << skip) << phase;
        let col_mask = scatter::<S>(low_mask(take) << skip) << phase;
        let cur = row.as_limbs()[b];
        row.set_limb(b, (cur & !col_mask) | spread);
        consumed += take;
        skip = 0;
        b += 1;
    }
}

/// Mapping between logical codewords and the physical columns of a row.
///
/// A row holds `interleave` codewords of `data_bits + check_bits` bits
/// each. Data bits occupy the left region of the row, check bits the right
/// region; both regions are bit-interleaved across the words.
///
/// # Examples
///
/// ```
/// use memarray::RowLayout;
///
/// // Four (72,64) codewords share a 288-column row.
/// let layout = RowLayout::new(64, 8, 4);
/// assert_eq!(layout.row_cols(), 288);
/// assert_eq!(layout.data_col(0, 0), 0);
/// assert_eq!(layout.data_col(1, 0), 1);  // next word, same bit
/// assert_eq!(layout.data_col(0, 1), 4);  // same word, next bit
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RowLayout {
    data_bits: usize,
    check_bits: usize,
    interleave: usize,
}

impl RowLayout {
    /// Creates a layout for `interleave` codewords of `data_bits` data and
    /// `check_bits` check bits.
    ///
    /// # Panics
    ///
    /// Panics if any argument is zero (`check_bits` may be zero only for
    /// unprotected arrays).
    pub fn new(data_bits: usize, check_bits: usize, interleave: usize) -> Self {
        assert!(data_bits > 0, "layout needs data bits");
        assert!(interleave > 0, "interleave degree must be >= 1");
        RowLayout {
            data_bits,
            check_bits,
            interleave,
        }
    }

    /// Data bits per word.
    pub fn data_bits(&self) -> usize {
        self.data_bits
    }

    /// Check bits per word.
    pub fn check_bits(&self) -> usize {
        self.check_bits
    }

    /// Interleave degree (words per row).
    pub fn interleave(&self) -> usize {
        self.interleave
    }

    /// Total physical columns per row.
    pub fn row_cols(&self) -> usize {
        (self.data_bits + self.check_bits) * self.interleave
    }

    /// Physical column of data bit `bit` of word `word`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn data_col(&self, word: usize, bit: usize) -> usize {
        assert!(word < self.interleave, "word {word} out of range");
        assert!(bit < self.data_bits, "data bit {bit} out of range");
        bit * self.interleave + word
    }

    /// Physical column of check bit `bit` of word `word`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn check_col(&self, word: usize, bit: usize) -> usize {
        assert!(word < self.interleave, "word {word} out of range");
        assert!(bit < self.check_bits, "check bit {bit} out of range");
        self.data_bits * self.interleave + bit * self.interleave + word
    }

    /// Inverse map: which (word, logical codeword bit) lives at physical
    /// column `col`. Codeword bit indices follow the [`ecc::Code`]
    /// convention: `0..data_bits` data, then check bits.
    ///
    /// # Panics
    ///
    /// Panics if `col >= row_cols()`.
    pub fn col_to_word_bit(&self, col: usize) -> (usize, usize) {
        assert!(col < self.row_cols(), "column {col} out of range");
        let data_region = self.data_bits * self.interleave;
        if col < data_region {
            (col % self.interleave, col / self.interleave)
        } else {
            let c = col - data_region;
            (c % self.interleave, self.data_bits + c / self.interleave)
        }
    }

    /// Extracts the data word `word` from a physical row.
    ///
    /// # Panics
    ///
    /// Panics if the row width mismatches or `word` is out of range.
    pub fn extract_data(&self, row: &Bits, word: usize) -> Bits {
        let mut out = Bits::zeros(self.data_bits);
        self.extract_data_into(row, word, &mut out);
        out
    }

    /// Extracts the data word `word` from a physical row into an existing
    /// buffer — the scratch-buffer variant of [`RowLayout::extract_data`]
    /// that never touches the allocator.
    ///
    /// # Panics
    ///
    /// Panics if the row width mismatches, `word` is out of range, or
    /// `out.len() != data_bits`.
    pub fn extract_data_into(&self, row: &Bits, word: usize, out: &mut Bits) {
        assert_eq!(row.len(), self.row_cols(), "row width mismatch");
        assert_eq!(out.len(), self.data_bits, "data width mismatch");
        assert!(word < self.interleave, "word {word} out of range");
        let limbs = row.as_limbs();
        if fast_stride(self.interleave) {
            // Limb-at-a-time: each 64-bit window of the data word is one
            // strided gather.
            let mut off = 0;
            let mut i = 0;
            while off < self.data_bits {
                let count = 64.min(self.data_bits - off);
                out.set_limb(
                    i,
                    gather_span(limbs, off * self.interleave + word, self.interleave, count),
                );
                off += count;
                i += 1;
            }
            return;
        }
        out.clear();
        for bit in 0..self.data_bits {
            let col = bit * self.interleave + word;
            if (limbs[col / 64] >> (col % 64)) & 1 == 1 {
                out.set(bit, true);
            }
        }
    }

    /// Extracts up to 64 contiguous data bits (`bit_offset..bit_offset +
    /// width`) of word `word` straight from the row limbs into a `u64`,
    /// with no intermediate [`Bits`]. This is the read half of the u64
    /// fast lane: a 64-bit cache word moves between the interleaved row
    /// and the caller in one strided gather.
    ///
    /// # Panics
    ///
    /// Panics if the row width mismatches or the bit range falls outside
    /// the word's data bits (`width` must be `1..=64`).
    pub fn extract_data_u64(
        &self,
        row: &Bits,
        word: usize,
        bit_offset: usize,
        width: usize,
    ) -> u64 {
        assert_eq!(row.len(), self.row_cols(), "row width mismatch");
        self.extract_data_u64_from_limbs(row.as_limbs(), word, bit_offset, width)
    }

    /// The limb-slice core of [`RowLayout::extract_data_u64`]: extracts
    /// the data window of word `word` from a raw limb snapshot of one
    /// physical row. The slice must hold the full row
    /// (`row_cols().div_ceil(64)` limbs); extra limbs and nonzero bits
    /// beyond `row_cols()` are ignored. Exists so a caller that only has
    /// a stack copy of the row limbs — the optimistic read probe, which
    /// must not materialize a `Bits` — can extract without allocating.
    ///
    /// # Panics
    ///
    /// Panics if the bit range falls outside the word's data bits
    /// (`width` must be `1..=64`) or the slice is shorter than the row.
    #[inline]
    pub fn extract_data_u64_from_limbs(
        &self,
        limbs: &[u64],
        word: usize,
        bit_offset: usize,
        width: usize,
    ) -> u64 {
        assert!(word < self.interleave, "word {word} out of range");
        assert!(
            (1..=64).contains(&width) && bit_offset + width <= self.data_bits,
            "u64 window {bit_offset}+{width} outside {} data bits",
            self.data_bits
        );
        assert!(
            limbs.len() >= self.row_cols().div_ceil(64),
            "limb snapshot shorter than one row"
        );
        if fast_stride(self.interleave) {
            return gather_span(
                limbs,
                bit_offset * self.interleave + word,
                self.interleave,
                width,
            );
        }
        let mut out = 0u64;
        let mut col = bit_offset * self.interleave + word;
        for bit in 0..width {
            out |= ((limbs[col / 64] >> (col % 64)) & 1) << bit;
            col += self.interleave;
        }
        out
    }

    /// Extracts the check word of `word` straight from the row limbs into
    /// a `u64` (valid for codes with at most 64 check bits).
    ///
    /// # Panics
    ///
    /// Panics if the row width mismatches, `word` is out of range, or the
    /// code stores more than 64 check bits.
    pub fn extract_check_u64(&self, row: &Bits, word: usize) -> u64 {
        assert_eq!(row.len(), self.row_cols(), "row width mismatch");
        self.extract_check_u64_from_limbs(row.as_limbs(), word)
    }

    /// The limb-slice core of [`RowLayout::extract_check_u64`], with the
    /// same snapshot rules as
    /// [`RowLayout::extract_data_u64_from_limbs`].
    ///
    /// # Panics
    ///
    /// Panics if `word` is out of range, the code stores more than 64
    /// check bits, or the slice is shorter than the row.
    #[inline]
    pub fn extract_check_u64_from_limbs(&self, limbs: &[u64], word: usize) -> u64 {
        assert!(word < self.interleave, "word {word} out of range");
        assert!(self.check_bits <= 64, "check word wider than 64 bits");
        assert!(
            limbs.len() >= self.row_cols().div_ceil(64),
            "limb snapshot shorter than one row"
        );
        if self.check_bits == 0 {
            return 0;
        }
        let base = self.data_bits * self.interleave;
        if fast_stride(self.interleave) {
            return gather_span(limbs, base + word, self.interleave, self.check_bits);
        }
        let mut out = 0u64;
        let mut col = base + word;
        for bit in 0..self.check_bits {
            out |= ((limbs[col / 64] >> (col % 64)) & 1) << bit;
            col += self.interleave;
        }
        out
    }

    /// Bitmask of the words of a raw limb snapshot that may hold `value`
    /// in data bits `0..width` (bit `w` for word `w`, words `0..64`):
    /// every word that does is reported, so a clear bit rules a word out
    /// and a set bit still needs confirming by extraction. For a
    /// limb-kernel interleave degree (1, 2, 4 or 8) the test runs in the
    /// interleaved column domain on the row's first limb, which holds the
    /// low `64 / interleave` data bits of every word: `value`'s bits are
    /// spread once and replicated across the words, XORed with the limb,
    /// and the differing columns folded onto their word — a few limb
    /// operations for the whole row, with no per-word extraction (and a
    /// false candidate only once in `2^(64 / interleave)` for random
    /// data). Other degrees compare each word's extracted bits exactly.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not in `1..=min(64, data_bits)` or the slice
    /// is shorter than the row.
    #[inline]
    pub fn candidate_words(&self, limbs: &[u64], value: u64, width: usize) -> u64 {
        assert!(
            (1..=64).contains(&width) && width <= self.data_bits,
            "u64 window 0+{width} outside {} data bits",
            self.data_bits
        );
        let words = self.interleave.min(64);
        if !fast_stride(self.interleave) {
            return (0..words)
                .filter(|&w| self.extract_data_u64_from_limbs(limbs, w, 0, width) == value)
                .fold(0, |mask, w| mask | 1 << w);
        }
        let bits = width.min(64 / self.interleave);
        // Spreading to stride `interleave` leaves `interleave - 1` zero
        // columns above each bit; multiplying by `interleave` ones copies
        // each bit into every word's column without carries.
        let spread = match self.interleave {
            1 => scatter::<1>(value),
            2 => scatter::<2>(value),
            4 => scatter::<4>(value),
            _ => scatter::<8>(value),
        };
        let want = spread.wrapping_mul(low_mask(self.interleave));
        let mut diff = (limbs[0] ^ want) & low_mask(bits * self.interleave);
        // Fold every column onto its word's lane `col % interleave`.
        let mut step = 32;
        while step >= self.interleave {
            diff |= diff >> step;
            step >>= 1;
        }
        !diff & low_mask(words)
    }

    /// Writes `width` data bits (`value`, at `bit_offset`) and the full
    /// check word (`check`) of `word` into a physical row, straight from
    /// `u64`s with no intermediate [`Bits`]. Columns of the word outside
    /// the addressed window keep their contents, so placing an XOR delta
    /// into a cleared scratch row builds exactly the row-wide delta of a
    /// sub-word update.
    ///
    /// # Panics
    ///
    /// Panics under the same range rules as [`RowLayout::extract_data_u64`]
    /// and [`RowLayout::extract_check_u64`].
    pub fn place_word_u64(
        &self,
        row: &mut Bits,
        word: usize,
        bit_offset: usize,
        value: u64,
        width: usize,
        check: u64,
    ) {
        self.place_data_u64(row, word, bit_offset, value, width);
        self.place_check_u64(row, word, check);
    }

    /// Writes only the `width`-bit data window of `word` (see
    /// [`RowLayout::place_word_u64`]).
    ///
    /// # Panics
    ///
    /// Panics under the same range rules as [`RowLayout::extract_data_u64`].
    pub fn place_data_u64(
        &self,
        row: &mut Bits,
        word: usize,
        bit_offset: usize,
        value: u64,
        width: usize,
    ) {
        assert_eq!(row.len(), self.row_cols(), "row width mismatch");
        assert!(word < self.interleave, "word {word} out of range");
        assert!(
            (1..=64).contains(&width) && bit_offset + width <= self.data_bits,
            "u64 window {bit_offset}+{width} outside {} data bits",
            self.data_bits
        );
        if fast_stride(self.interleave) {
            scatter_span(
                row,
                bit_offset * self.interleave + word,
                self.interleave,
                width,
                value,
            );
            return;
        }
        let value = value & low_mask(width);
        for bit in 0..width {
            let col = (bit_offset + bit) * self.interleave + word;
            row.set(col, (value >> bit) & 1 == 1);
        }
    }

    /// Writes only the check word of `word` (see
    /// [`RowLayout::place_word_u64`]).
    ///
    /// # Panics
    ///
    /// Panics under the same range rules as [`RowLayout::extract_check_u64`].
    pub fn place_check_u64(&self, row: &mut Bits, word: usize, check: u64) {
        assert_eq!(row.len(), self.row_cols(), "row width mismatch");
        assert!(word < self.interleave, "word {word} out of range");
        assert!(self.check_bits <= 64, "check word wider than 64 bits");
        if self.check_bits == 0 {
            return;
        }
        let base = self.data_bits * self.interleave;
        if fast_stride(self.interleave) {
            scatter_span(row, base + word, self.interleave, self.check_bits, check);
            return;
        }
        for bit in 0..self.check_bits {
            let col = base + bit * self.interleave + word;
            row.set(col, (check >> bit) & 1 == 1);
        }
    }

    /// Extracts the check word `word` from a physical row.
    ///
    /// # Panics
    ///
    /// Panics if the row width mismatches or `word` is out of range.
    pub fn extract_check(&self, row: &Bits, word: usize) -> Bits {
        assert_eq!(row.len(), self.row_cols(), "row width mismatch");
        let mut out = Bits::zeros(self.check_bits);
        for bit in 0..self.check_bits {
            if row.get(self.check_col(word, bit)) {
                out.set(bit, true);
            }
        }
        out
    }

    /// Writes `data` and `check` for `word` into a physical row in place.
    ///
    /// # Panics
    ///
    /// Panics on any width mismatch.
    pub fn place_word(&self, row: &mut Bits, word: usize, data: &Bits, check: &Bits) {
        assert_eq!(row.len(), self.row_cols(), "row width mismatch");
        assert_eq!(data.len(), self.data_bits, "data width mismatch");
        assert_eq!(check.len(), self.check_bits, "check width mismatch");
        for bit in 0..self.data_bits {
            row.set(self.data_col(word, bit), data.get(bit));
        }
        for bit in 0..self.check_bits {
            row.set(self.check_col(word, bit), check.get(bit));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mapping_is_bijective() {
        let layout = RowLayout::new(64, 8, 4);
        let mut seen = vec![false; layout.row_cols()];
        for w in 0..4 {
            for b in 0..64 {
                let c = layout.data_col(w, b);
                assert!(!seen[c], "column {c} double-mapped");
                seen[c] = true;
                assert_eq!(layout.col_to_word_bit(c), (w, b));
            }
            for b in 0..8 {
                let c = layout.check_col(w, b);
                assert!(!seen[c], "column {c} double-mapped");
                seen[c] = true;
                assert_eq!(layout.col_to_word_bit(c), (w, 64 + b));
            }
        }
        assert!(seen.iter().all(|&s| s), "unmapped columns remain");
    }

    #[test]
    fn contiguous_burst_spreads_across_words() {
        // A burst of `interleave` adjacent data columns hits each word once.
        let layout = RowLayout::new(64, 8, 4);
        let words: Vec<usize> = (0..4).map(|c| layout.col_to_word_bit(c).0).collect();
        assert_eq!(words, vec![0, 1, 2, 3]);
        // A 32-column burst hits each word in 8 contiguous logical bits.
        for w in 0..4 {
            let bits: Vec<usize> = (0..32)
                .filter(|&c| layout.col_to_word_bit(c).0 == w)
                .map(|c| layout.col_to_word_bit(c).1)
                .collect();
            assert_eq!(bits, (0..8).collect::<Vec<_>>(), "word {w}");
        }
    }

    #[test]
    fn place_extract_roundtrip() {
        let layout = RowLayout::new(16, 5, 2);
        let mut row = Bits::zeros(layout.row_cols());
        let d0 = Bits::from_u64(0xBEEF, 16);
        let c0 = Bits::from_u64(0b10101, 5);
        let d1 = Bits::from_u64(0x1234, 16);
        let c1 = Bits::from_u64(0b01010, 5);
        layout.place_word(&mut row, 0, &d0, &c0);
        layout.place_word(&mut row, 1, &d1, &c1);
        assert_eq!(layout.extract_data(&row, 0), d0);
        assert_eq!(layout.extract_check(&row, 0), c0);
        assert_eq!(layout.extract_data(&row, 1), d1);
        assert_eq!(layout.extract_check(&row, 1), c1);
    }

    #[test]
    fn no_interleave_is_identity_for_data() {
        let layout = RowLayout::new(8, 3, 1);
        for b in 0..8 {
            assert_eq!(layout.data_col(0, b), b);
        }
        for b in 0..3 {
            assert_eq!(layout.check_col(0, b), 8 + b);
        }
    }

    #[test]
    fn u64_lanes_match_bits_paths() {
        let layout = RowLayout::new(64, 8, 4);
        let mut row = Bits::zeros(layout.row_cols());
        let data = Bits::from_u64(0xDEAD_BEEF_1234_5678, 64);
        let check = Bits::from_u64(0xA5, 8);
        layout.place_word(&mut row, 3, &data, &check);
        assert_eq!(layout.extract_data_u64(&row, 3, 0, 64), data.to_u64());
        assert_eq!(layout.extract_check_u64(&row, 3), check.to_u64());
        // Sub-word windows match slices of the Bits extraction.
        for (off, width) in [(0usize, 16usize), (16, 32), (48, 16), (5, 59)] {
            assert_eq!(
                layout.extract_data_u64(&row, 3, off, width),
                data.slice(off, width).to_u64(),
                "window {off}+{width}"
            );
        }
        // Untouched words read back zero.
        assert_eq!(layout.extract_data_u64(&row, 0, 0, 64), 0);
        // extract_data_into matches extract_data without allocating anew.
        let mut scratch = Bits::ones(64);
        layout.extract_data_into(&row, 3, &mut scratch);
        assert_eq!(scratch, data);
    }

    #[test]
    fn gather_scatter_kernels_match_per_bit_definition() {
        // Every interleave degree with a limb kernel (1/2/4/8) plus one
        // without (3): extraction and placement must match the per-bit
        // column map exactly, across unaligned windows.
        let mut state = 0x0123_4567_89AB_CDEFu64;
        for il in [1usize, 2, 4, 8, 3] {
            let layout = RowLayout::new(64, 8, il);
            let mut row = Bits::zeros(layout.row_cols());
            for w in 0..il {
                state = state
                    .wrapping_mul(0x5851_F42D_4C95_7F2D)
                    .wrapping_add(0x1405_7B7E_F767_814F);
                layout.place_word(
                    &mut row,
                    w,
                    &Bits::from_u64(state, 64),
                    &Bits::from_u64(state >> 32, 8),
                );
            }
            for w in 0..il {
                for (off, width) in [(0usize, 64usize), (0, 1), (7, 13), (31, 33), (63, 1)] {
                    let mut expect = 0u64;
                    for b in 0..width {
                        if row.get(layout.data_col(w, off + b)) {
                            expect |= 1 << b;
                        }
                    }
                    assert_eq!(
                        layout.extract_data_u64(&row, w, off, width),
                        expect,
                        "il={il} w={w} window {off}+{width}"
                    );
                }
                let mut expect = 0u64;
                for c in 0..8 {
                    if row.get(layout.check_col(w, c)) {
                        expect |= 1 << c;
                    }
                }
                assert_eq!(layout.extract_check_u64(&row, w), expect, "il={il} w={w}");
                // Scatter roundtrip: place into a fresh row, re-extract.
                let mut fresh = Bits::ones(layout.row_cols());
                let data = layout.extract_data_u64(&row, w, 0, 64);
                layout.place_word_u64(&mut fresh, w, 0, data, 64, expect);
                assert_eq!(layout.extract_data_u64(&fresh, w, 0, 64), data);
                assert_eq!(layout.extract_check_u64(&fresh, w), expect);
                // Untouched words of `fresh` keep their all-ones content.
                for other in 0..il {
                    if other != w {
                        assert_eq!(
                            layout.extract_data_u64(&fresh, other, 0, 64),
                            u64::MAX,
                            "il={il} w={w} other={other}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn place_word_u64_matches_place_word() {
        let layout = RowLayout::new(64, 8, 4);
        let mut via_bits = Bits::zeros(layout.row_cols());
        let mut via_u64 = Bits::zeros(layout.row_cols());
        let data = 0x0F0F_1234_ABCD_9876u64;
        let check = 0x3Cu64;
        layout.place_word(
            &mut via_bits,
            1,
            &Bits::from_u64(data, 64),
            &Bits::from_u64(check, 8),
        );
        layout.place_word_u64(&mut via_u64, 1, 0, data, 64, check);
        assert_eq!(via_bits, via_u64);
        // Narrow windows only touch their own columns.
        let mut row = Bits::ones(layout.row_cols());
        layout.place_word_u64(&mut row, 2, 8, 0, 16, 0);
        for bit in 0..64 {
            let expect = !(8..24).contains(&bit);
            assert_eq!(row.get(layout.data_col(2, bit)), expect, "bit {bit}");
        }
        for bit in 0..8 {
            assert!(!row.get(layout.check_col(2, bit)), "check bit {bit}");
        }
        assert!(row.get(layout.data_col(1, 10)), "other words untouched");
    }

    #[test]
    fn zero_check_bits_allowed() {
        let layout = RowLayout::new(8, 0, 2);
        assert_eq!(layout.row_cols(), 16);
        let row = Bits::zeros(16);
        assert_eq!(layout.extract_check(&row, 0).len(), 0);
    }
}
