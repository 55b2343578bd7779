//! A dense two-dimensional bit matrix modelling the storage cells of one
//! SRAM sub-array (data columns plus check columns).

use ecc::Bits;
use std::fmt;

/// A `rows x cols` bit matrix with row-granular access.
///
/// Rows are the physical wordlines; columns are the physical bitlines.
/// Storage is row-major over `u64` limbs, each row padded to a limb
/// boundary so row extraction is cheap.
///
/// # Examples
///
/// ```
/// use memarray::BitGrid;
///
/// let mut g = BitGrid::new(4, 16);
/// g.set(2, 5, true);
/// assert!(g.get(2, 5));
/// assert_eq!(g.row(2).count_ones(), 1);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct BitGrid {
    rows: usize,
    cols: usize,
    limbs_per_row: usize,
    data: Vec<u64>,
}

impl BitGrid {
    /// Creates an all-zero grid.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "grid dimensions must be nonzero");
        let limbs_per_row = cols.div_ceil(64);
        BitGrid {
            rows,
            cols,
            limbs_per_row,
            data: vec![0; rows * limbs_per_row],
        }
    }

    /// Number of rows (wordlines).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (bitlines).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Reads the cell at (`row`, `col`).
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> bool {
        self.check_bounds(row, col);
        let limb = self.data[row * self.limbs_per_row + col / 64];
        (limb >> (col % 64)) & 1 == 1
    }

    /// Writes the cell at (`row`, `col`).
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: bool) {
        self.check_bounds(row, col);
        let idx = row * self.limbs_per_row + col / 64;
        let mask = 1u64 << (col % 64);
        if value {
            self.data[idx] |= mask;
        } else {
            self.data[idx] &= !mask;
        }
    }

    /// Inverts the cell at (`row`, `col`).
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn flip(&mut self, row: usize, col: usize) {
        self.check_bounds(row, col);
        self.data[row * self.limbs_per_row + col / 64] ^= 1u64 << (col % 64);
    }

    /// Extracts row `row` as a [`Bits`] of width `cols`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn row(&self, row: usize) -> Bits {
        assert!(row < self.rows, "row {row} out of range {}", self.rows);
        let start = row * self.limbs_per_row;
        Bits::from_limbs(&self.data[start..start + self.limbs_per_row], self.cols)
    }

    /// Copies row `row` into an existing [`Bits`] without allocating
    /// (scratch-buffer variant of [`BitGrid::row`] for hot loops).
    ///
    /// # Panics
    ///
    /// Panics if out of bounds or `out.len() != cols`.
    #[inline]
    pub fn row_into(&self, row: usize, out: &mut Bits) {
        assert!(row < self.rows, "row {row} out of range {}", self.rows);
        assert_eq!(out.len(), self.cols, "row width mismatch");
        let start = row * self.limbs_per_row;
        out.copy_from_limbs(&self.data[start..start + self.limbs_per_row]);
    }

    /// Overwrites row `row`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds or `value.len() != cols`.
    pub fn set_row(&mut self, row: usize, value: &Bits) {
        assert!(row < self.rows, "row {row} out of range {}", self.rows);
        assert_eq!(value.len(), self.cols, "row width mismatch");
        let start = row * self.limbs_per_row;
        self.data[start..start + self.limbs_per_row].copy_from_slice(value.as_limbs());
    }

    /// XORs `mask` into row `row`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds or `mask.len() != cols`.
    pub fn xor_row(&mut self, row: usize, mask: &Bits) {
        assert!(row < self.rows, "row {row} out of range {}", self.rows);
        assert_eq!(mask.len(), self.cols, "row width mismatch");
        let start = row * self.limbs_per_row;
        for (dst, src) in self.data[start..start + self.limbs_per_row]
            .iter_mut()
            .zip(mask.as_limbs())
        {
            *dst ^= *src;
        }
    }

    /// Zeroes every cell in place.
    pub(crate) fn clear(&mut self) {
        self.data.fill(0);
    }

    /// Limbs of storage per row (rows are padded to a limb boundary, so
    /// this is `cols().div_ceil(64)`).
    pub fn limbs_per_row(&self) -> usize {
        self.limbs_per_row
    }

    /// Raw limbs of `count` consecutive rows starting at `start`, in
    /// row-major order with a [`BitGrid::limbs_per_row`] stride. Padding
    /// bits beyond `cols` in each row are always zero. This is the
    /// batched-verification view: one borrow covers a whole scrub slice
    /// without copying any row.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the row count.
    #[inline]
    pub(crate) fn row_range_limbs(&self, start: usize, count: usize) -> &[u64] {
        assert!(
            start + count <= self.rows,
            "row range {start}+{count} out of range {}",
            self.rows
        );
        &self.data[start * self.limbs_per_row..(start + count) * self.limbs_per_row]
    }

    /// Raw pointer to the first limb of the row-major storage. Row `r`
    /// starts at offset `r * limbs_per_row()`.
    ///
    /// The backing `Vec<u64>` is sized once at construction and never
    /// reallocated by any `BitGrid` operation (`set_row` / `xor_row` /
    /// `set` all mutate in place), so the pointer stays valid for the
    /// grid's whole lifetime even if the owning struct moves. This is the
    /// stability guarantee the optimistic read probe
    /// ([`crate::ArrayProbe`]) relies on.
    pub(crate) fn limb_base(&self) -> *const u64 {
        self.data.as_ptr()
    }

    /// Total number of set cells.
    pub fn count_ones(&self) -> usize {
        self.data.iter().map(|l| l.count_ones() as usize).sum()
    }

    #[inline]
    fn check_bounds(&self, row: usize, col: usize) {
        assert!(
            row < self.rows && col < self.cols,
            "cell ({row},{col}) out of range ({},{})",
            self.rows,
            self.cols
        );
    }
}

impl fmt::Debug for BitGrid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "BitGrid({}x{}, {} ones)",
            self.rows,
            self.cols,
            self.count_ones()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_cells() {
        let mut g = BitGrid::new(8, 100);
        g.set(0, 0, true);
        g.set(7, 99, true);
        g.set(3, 64, true);
        assert!(g.get(0, 0) && g.get(7, 99) && g.get(3, 64));
        assert_eq!(g.count_ones(), 3);
        g.flip(3, 64);
        assert_eq!(g.count_ones(), 2);
    }

    #[test]
    fn row_extraction_isolated() {
        let mut g = BitGrid::new(4, 70);
        g.set(1, 69, true);
        g.set(2, 0, true);
        assert!(g.row(0).is_zero());
        assert_eq!(g.row(1).iter_ones().collect::<Vec<_>>(), vec![69]);
        assert_eq!(g.row(2).iter_ones().collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn set_row_and_xor_row() {
        let mut g = BitGrid::new(2, 128);
        let r = Bits::from_positions(128, &[0, 64, 127]);
        g.set_row(0, &r);
        assert_eq!(g.row(0), r);
        g.xor_row(0, &r);
        assert!(g.row(0).is_zero());
        g.xor_row(1, &r);
        assert_eq!(g.row(1), r);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oob_panics() {
        let g = BitGrid::new(2, 2);
        let _ = g.get(2, 0);
    }

    #[test]
    #[should_panic(expected = "dimensions must be nonzero")]
    fn zero_dims_panic() {
        let _ = BitGrid::new(0, 4);
    }
}
