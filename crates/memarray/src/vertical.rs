//! Vertical interleaved parity — the correction half of 2D coding.
//!
//! `V` parity rows protect a bank of data rows: parity row `i` holds the
//! column-wise XOR of every data row `r` with `r % V == i` (its *stripe*).
//! The paper calls this `EDC32` when `V = 32`. Maintained incrementally on
//! every write via read-before-write (`P ^= old ^ new`), the stripe parity
//! can reconstruct any single lost row per stripe — which covers every
//! clustered error of height at most `V`.

use ecc::Bits;

/// The vertical parity-row register file of one bank.
///
/// # Examples
///
/// ```
/// use ecc::Bits;
/// use memarray::VerticalParity;
///
/// let mut vp = VerticalParity::new(4, 8);
/// let old = Bits::zeros(8);
/// let new = Bits::from_u64(0b1010_1010, 8);
/// vp.update(6, &old, &new);              // row 6 belongs to stripe 2
/// assert_eq!(vp.parity_row(2), &new);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerticalParity {
    rows: Vec<Bits>,
    cols: usize,
}

impl VerticalParity {
    /// Creates `v` zeroed parity rows of `cols` columns (matching an
    /// all-zero data array).
    ///
    /// # Panics
    ///
    /// Panics if `v == 0` or `cols == 0`.
    pub fn new(v: usize, cols: usize) -> Self {
        assert!(v > 0, "need at least one parity row");
        assert!(cols > 0, "parity rows need nonzero width");
        VerticalParity {
            rows: (0..v).map(|_| Bits::zeros(cols)).collect(),
            cols,
        }
    }

    /// Zeroes every parity row in place (matching an all-zero data
    /// array).
    pub(crate) fn clear(&mut self) {
        for row in &mut self.rows {
            row.clear();
        }
    }

    /// Number of parity rows `V` (the vertical interleave factor).
    pub fn interleave(&self) -> usize {
        self.rows.len()
    }

    /// Width in columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Stripe index of data row `row`.
    pub fn stripe_of(&self, row: usize) -> usize {
        row % self.rows.len()
    }

    /// The stored parity row for stripe `stripe`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn parity_row(&self, stripe: usize) -> &Bits {
        &self.rows[stripe]
    }

    /// Incremental update for a write to data row `row`: XORs
    /// `old ^ new` into the stripe parity. This is the paper's
    /// read-before-write path.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn update(&mut self, row: usize, old: &Bits, new: &Bits) {
        assert_eq!(old.len(), self.cols, "old row width mismatch");
        assert_eq!(new.len(), self.cols, "new row width mismatch");
        let stripe = self.stripe_of(row);
        // Fold both rows in directly — no delta allocation on the write
        // hot path.
        self.rows[stripe].xor_assign(old);
        self.rows[stripe].xor_assign(new);
    }

    /// Incremental update from a precomputed row delta: XORs `old ^ new`
    /// into the stripe parity of `row`. Equivalent to
    /// [`VerticalParity::update`] when the caller already holds the XOR
    /// of the old and new row contents — the write fast lane builds
    /// exactly that delta in a scratch row, so the full-row old/new pair
    /// (and its clone) never needs to exist.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    #[inline]
    pub fn update_delta(&mut self, row: usize, delta: &Bits) {
        assert_eq!(delta.len(), self.cols, "delta width mismatch");
        let stripe = self.stripe_of(row);
        self.rows[stripe].xor_assign(delta);
    }

    /// Directly XORs a delta into a stripe (used when recovery rewrites a
    /// row whose old content is already known to be corrupt).
    pub fn xor_stripe(&mut self, stripe: usize, delta: &Bits) {
        assert_eq!(delta.len(), self.cols, "delta width mismatch");
        self.rows[stripe].xor_assign(delta);
    }

    /// Overwrites a stripe's parity row (recomputation path).
    pub fn set_parity_row(&mut self, stripe: usize, value: Bits) {
        assert_eq!(value.len(), self.cols, "parity row width mismatch");
        self.rows[stripe] = value;
    }

    /// Recomputes all parity rows from scratch over `data_rows` and
    /// replaces the stored ones. Returns the stripes whose stored value
    /// disagreed with the recomputation (useful for audits).
    pub fn rebuild<'a, I>(&mut self, data_rows: I) -> Vec<usize>
    where
        I: IntoIterator<Item = &'a Bits>,
    {
        let v = self.rows.len();
        let mut fresh: Vec<Bits> = (0..v).map(|_| Bits::zeros(self.cols)).collect();
        for (r, row) in data_rows.into_iter().enumerate() {
            fresh[r % v].xor_assign(row);
        }
        let mut dirty = Vec::new();
        for (s, new_row) in fresh.into_iter().enumerate() {
            if self.rows[s] != new_row {
                dirty.push(s);
            }
            self.rows[s] = new_row;
        }
        dirty
    }

    /// Computes the vertical syndrome of one stripe: stored parity XOR
    /// the XOR of the supplied rows of that stripe. Nonzero bits mark
    /// columns with an odd number of errors in the stripe.
    pub fn stripe_syndrome<'a, I>(&self, stripe: usize, stripe_rows: I) -> Bits
    where
        I: IntoIterator<Item = &'a Bits>,
    {
        let mut syn = self.rows[stripe].clone();
        for row in stripe_rows {
            syn.xor_assign(row);
        }
        syn
    }

    /// Reconstructs one lost row: XOR of the stripe parity with all
    /// *other* rows of the stripe.
    pub fn reconstruct_row<'a, I>(&self, stripe: usize, other_rows: I) -> Bits
    where
        I: IntoIterator<Item = &'a Bits>,
    {
        let mut rebuilt = self.rows[stripe].clone();
        for row in other_rows {
            rebuilt.xor_assign(row);
        }
        rebuilt
    }

    /// Extra storage (in bits) for the vertical code.
    pub fn storage_bits(&self) -> usize {
        self.rows.len() * self.cols
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn random_rows(n: usize, cols: usize, seed: u64) -> Vec<Bits> {
        // Small deterministic generator, avoids pulling rand into the unit test.
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        (0..n)
            .map(|_| {
                let limbs: Vec<u64> = (0..cols.div_ceil(64))
                    .map(|_| {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        state
                    })
                    .collect();
                Bits::from_limbs(&limbs, cols)
            })
            .collect()
    }

    #[test]
    fn incremental_equals_rebuild() {
        let cols = 96;
        let v = 4;
        let rows = random_rows(16, cols, 99);
        // Start from zero data; write each row once via update.
        let mut vp = VerticalParity::new(v, cols);
        let zero = Bits::zeros(cols);
        for (r, row) in rows.iter().enumerate() {
            vp.update(r, &zero, row);
        }
        let mut reference = VerticalParity::new(v, cols);
        let dirty = reference.rebuild(rows.iter());
        assert_eq!(vp, reference);
        // rebuild on a fresh instance reports every nonzero stripe dirty
        assert_eq!(dirty.len(), v);
    }

    #[test]
    fn update_sequences_commute() {
        let cols = 64;
        let mut vp = VerticalParity::new(2, cols);
        let zero = Bits::zeros(cols);
        let a = Bits::from_u64(0xAAAA, cols);
        let b = Bits::from_u64(0xBBBB, cols);
        vp.update(0, &zero, &a); // write a to row 0
        vp.update(0, &a, &b); // overwrite with b
        assert_eq!(vp.parity_row(0), &b);
        vp.update(2, &zero, &a); // row 2 shares stripe 0
        assert_eq!(vp.parity_row(0), &b.xor(&a));
    }

    #[test]
    fn update_delta_equals_update() {
        let cols = 96;
        let mut a = VerticalParity::new(4, cols);
        let mut b = VerticalParity::new(4, cols);
        let old = Bits::from_positions(cols, &[0, 40, 95]);
        let new = Bits::from_positions(cols, &[1, 40, 70]);
        a.update(6, &old, &new);
        b.update_delta(6, &old.xor(&new));
        assert_eq!(a, b);
    }

    #[test]
    fn reconstructs_lost_row() {
        let cols = 128;
        let v = 8;
        let rows = random_rows(64, cols, 5);
        let mut vp = VerticalParity::new(v, cols);
        vp.rebuild(rows.iter());
        // Lose row 37 (stripe 37 % 8 = 5); rebuild it from the others.
        let lost = 37;
        let stripe = vp.stripe_of(lost);
        let others: Vec<&Bits> = (0..64)
            .filter(|&r| r % v == stripe && r != lost)
            .map(|r| &rows[r])
            .collect();
        let rebuilt = vp.reconstruct_row(stripe, others);
        assert_eq!(rebuilt, rows[lost]);
    }

    #[test]
    fn stripe_syndrome_marks_error_columns() {
        let cols = 32;
        let v = 4;
        let mut rows = random_rows(16, cols, 11);
        let mut vp = VerticalParity::new(v, cols);
        vp.rebuild(rows.iter());
        // Corrupt columns 3 and 17 of row 6 (stripe 2).
        rows[6].flip(3);
        rows[6].flip(17);
        let stripe_rows: Vec<&Bits> = (0..16).filter(|r| r % v == 2).map(|r| &rows[r]).collect();
        let syn = vp.stripe_syndrome(2, stripe_rows);
        assert_eq!(syn.iter_ones().collect::<Vec<_>>(), vec![3, 17]);
    }

    #[test]
    fn storage_matches_paper_config() {
        // 32 parity rows over a 256-column array = 25% of a 256x256 data
        // array... the paper's Figure 3(c) overhead combines horizontal
        // EDC8 (12.5%) + 32/256 vertical rows (12.5%) = 25%.
        let vp = VerticalParity::new(32, 256);
        assert_eq!(vp.storage_bits(), 32 * 256);
        assert_eq!(vp.storage_bits() as f64 / (256.0 * 256.0), 0.125);
    }
}
