//! Fault models and the error injector.
//!
//! The paper's threat model spans single-bit soft errors, single-event
//! multi-bit upsets (clusters up to tens of bits on a side), full row and
//! column failures, and manufacture-time or in-field hard (stuck-at)
//! faults. The injector produces all of these against a [`BitGrid`]; hard
//! faults are kept in a [`FaultMap`] overlay so cells keep reading the
//! stuck value even after a recovery rewrite.

use crate::BitGrid;
use rand::Rng;
use std::collections::BTreeMap;

/// Whether an injected fault is transient or permanent.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Soft error: the stored value is inverted once.
    Transient,
    /// Hard error: the cell is stuck at a fixed value from now on.
    StuckAt(bool),
}

/// The spatial footprint of an error event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorShape {
    /// One cell.
    Single {
        /// Affected row.
        row: usize,
        /// Affected column.
        col: usize,
    },
    /// An axis-aligned cluster of `height x width` cells anchored at
    /// (`row`, `col`) — the paper's "clustered multi-bit error".
    Cluster {
        /// Top row of the cluster.
        row: usize,
        /// Leftmost column of the cluster.
        col: usize,
        /// Rows covered.
        height: usize,
        /// Columns covered.
        width: usize,
    },
    /// An entire wordline fails.
    Row {
        /// The failing row.
        row: usize,
    },
    /// An entire bitline fails.
    Column {
        /// The failing column.
        col: usize,
    },
}

impl ErrorShape {
    /// Enumerates the affected coordinates, clipped to `rows x cols`.
    pub fn cells(&self, rows: usize, cols: usize) -> Vec<(usize, usize)> {
        match *self {
            ErrorShape::Single { row, col } => {
                if row < rows && col < cols {
                    vec![(row, col)]
                } else {
                    Vec::new()
                }
            }
            ErrorShape::Cluster {
                row,
                col,
                height,
                width,
            } => {
                let mut cells = Vec::new();
                for r in row..(row + height).min(rows) {
                    for c in col..(col + width).min(cols) {
                        cells.push((r, c));
                    }
                }
                cells
            }
            ErrorShape::Row { row } => {
                if row < rows {
                    (0..cols).map(|c| (row, c)).collect()
                } else {
                    Vec::new()
                }
            }
            ErrorShape::Column { col } => {
                if col < cols {
                    (0..rows).map(|r| (r, col)).collect()
                } else {
                    Vec::new()
                }
            }
        }
    }

    /// Bounding-box height and width of the footprint.
    pub fn extent(&self, rows: usize, cols: usize) -> (usize, usize) {
        match *self {
            ErrorShape::Single { .. } => (1, 1),
            ErrorShape::Cluster { height, width, .. } => (height, width),
            ErrorShape::Row { .. } => (1, cols),
            ErrorShape::Column { .. } => (rows, 1),
        }
    }
}

/// Overlay tracking hard-fault (stuck-at) cells.
///
/// Reads through the map return the stuck value regardless of what was
/// written to the underlying grid.
#[derive(Clone, Debug, Default)]
pub struct FaultMap {
    stuck: BTreeMap<(usize, usize), bool>,
}

impl FaultMap {
    /// Creates an empty fault map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks a cell stuck at `value`.
    pub fn add_stuck(&mut self, row: usize, col: usize, value: bool) {
        self.stuck.insert((row, col), value);
    }

    /// Removes a stuck cell (e.g. remapped to a spare).
    pub fn clear_stuck(&mut self, row: usize, col: usize) {
        self.stuck.remove(&(row, col));
    }

    /// Whether the cell is stuck.
    pub fn is_stuck(&self, row: usize, col: usize) -> Option<bool> {
        self.stuck.get(&(row, col)).copied()
    }

    /// Number of stuck cells.
    pub fn len(&self) -> usize {
        self.stuck.len()
    }

    /// Whether no cells are stuck.
    pub fn is_empty(&self) -> bool {
        self.stuck.is_empty()
    }

    /// Iterates over stuck cells as `((row, col), value)`.
    pub fn iter(&self) -> impl Iterator<Item = ((usize, usize), bool)> + '_ {
        self.stuck.iter().map(|(&k, &v)| (k, v))
    }

    /// Applies the overlay to a freshly read row: stuck cells override the
    /// stored value.
    pub fn overlay_row(&self, row_idx: usize, row: &mut ecc::Bits) {
        // BTreeMap range query over the row's keyspace.
        for (&(r, c), &v) in self.stuck.range((row_idx, 0)..=(row_idx, usize::MAX)) {
            debug_assert_eq!(r, row_idx);
            if c < row.len() {
                row.set(c, v);
            }
        }
    }

    /// [`FaultMap::overlay_row`] over a raw limb row of `cols` bits.
    pub(crate) fn overlay_limbs(&self, row_idx: usize, cols: usize, limbs: &mut [u64]) {
        for (&(_, c), &v) in self.stuck.range((row_idx, 0)..=(row_idx, usize::MAX)) {
            if c < cols {
                let bit = 1u64 << (c % 64);
                if v {
                    limbs[c / 64] |= bit;
                } else {
                    limbs[c / 64] &= !bit;
                }
            }
        }
    }
}

/// Report of one injection: which cells actually changed observable state.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct InjectionReport {
    /// Cells whose observable value flipped.
    pub flipped: Vec<(usize, usize)>,
    /// Cells newly marked stuck (hard faults), flipped or not.
    pub stuck: Vec<(usize, usize)>,
}

impl InjectionReport {
    /// Total observable bit flips.
    pub fn flip_count(&self) -> usize {
        self.flipped.len()
    }
}

/// Injects faults into a grid + fault-map pair.
#[derive(Debug)]
pub struct Injector<'a> {
    grid: &'a mut BitGrid,
    faults: &'a mut FaultMap,
}

impl<'a> Injector<'a> {
    /// Creates an injector borrowing the target grid and fault map.
    pub fn new(grid: &'a mut BitGrid, faults: &'a mut FaultMap) -> Self {
        Injector { grid, faults }
    }

    /// Injects `kind` faults over `shape`. For transient faults every
    /// covered cell is flipped; for stuck-at faults every covered cell is
    /// pinned (the observable value flips only where it differed).
    pub fn inject(&mut self, shape: ErrorShape, kind: FaultKind) -> InjectionReport {
        let mut report = InjectionReport::default();
        for (r, c) in shape.cells(self.grid.rows(), self.grid.cols()) {
            match kind {
                FaultKind::Transient => {
                    // A flip of a cell that is already stuck has no
                    // observable effect.
                    if self.faults.is_stuck(r, c).is_none() {
                        self.grid.flip(r, c);
                        report.flipped.push((r, c));
                    }
                }
                FaultKind::StuckAt(v) => {
                    let before = self
                        .faults
                        .is_stuck(r, c)
                        .unwrap_or_else(|| self.grid.get(r, c));
                    self.faults.add_stuck(r, c, v);
                    report.stuck.push((r, c));
                    if before != v {
                        report.flipped.push((r, c));
                    }
                }
            }
        }
        report
    }

    /// Injects `count` transient single-bit flips at uniformly random
    /// distinct cells.
    pub fn inject_random_flips<R: Rng>(&mut self, rng: &mut R, count: usize) -> InjectionReport {
        let mut report = InjectionReport::default();
        let mut seen = std::collections::HashSet::new();
        let rows = self.grid.rows();
        let cols = self.grid.cols();
        let capacity = rows * cols;
        let count = count.min(capacity);
        while report.flipped.len() < count {
            let r = rng.gen_range(0..rows);
            let c = rng.gen_range(0..cols);
            if !seen.insert((r, c)) {
                continue;
            }
            if self.faults.is_stuck(r, c).is_none() {
                self.grid.flip(r, c);
                report.flipped.push((r, c));
            } else if seen.len() >= capacity {
                break;
            }
        }
        report
    }

    /// Injects a random clustered transient error with footprint at most
    /// `max_height x max_width` (the paper's single-event multi-bit upset
    /// model). Each covered cell flips with probability `density`.
    pub fn inject_random_cluster<R: Rng>(
        &mut self,
        rng: &mut R,
        max_height: usize,
        max_width: usize,
        density: f64,
    ) -> InjectionReport {
        let rows = self.grid.rows();
        let cols = self.grid.cols();
        let height = rng.gen_range(1..=max_height.min(rows));
        let width = rng.gen_range(1..=max_width.min(cols));
        let row = rng.gen_range(0..=rows - height);
        let col = rng.gen_range(0..=cols - width);
        let mut report = InjectionReport::default();
        for r in row..row + height {
            for c in col..col + width {
                if rng.gen_bool(density) && self.faults.is_stuck(r, c).is_none() {
                    self.grid.flip(r, c);
                    report.flipped.push((r, c));
                }
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn limb_overlay_matches_bits_overlay() {
        // 130 columns: three limbs, the last one partial.
        let mut f = FaultMap::new();
        for (r, c, v) in [
            (0, 0, true),
            (0, 63, false),
            (0, 64, true),
            (0, 129, true),
            (1, 5, true),
        ] {
            f.add_stuck(r, c, v);
        }
        let base = ecc::Bits::from_limbs(&[0x00F0_0000_0000_00FF, !0, 0b10], 130);
        for row in 0..3 {
            let mut bits = base.clone();
            f.overlay_row(row, &mut bits);
            let mut limbs = base.as_limbs().to_vec();
            f.overlay_limbs(row, 130, &mut limbs);
            assert_eq!(limbs, bits.as_limbs(), "row {row}");
        }
    }

    #[test]
    fn single_flip() {
        let mut g = BitGrid::new(4, 4);
        let mut f = FaultMap::new();
        let report = Injector::new(&mut g, &mut f)
            .inject(ErrorShape::Single { row: 1, col: 2 }, FaultKind::Transient);
        assert_eq!(report.flipped, vec![(1, 2)]);
        assert!(g.get(1, 2));
        assert!(f.is_empty());
    }

    #[test]
    fn cluster_clipped_at_edges() {
        let mut g = BitGrid::new(4, 4);
        let mut f = FaultMap::new();
        let report = Injector::new(&mut g, &mut f).inject(
            ErrorShape::Cluster {
                row: 3,
                col: 3,
                height: 4,
                width: 4,
            },
            FaultKind::Transient,
        );
        assert_eq!(report.flip_count(), 1);
        assert!(g.get(3, 3));
    }

    #[test]
    fn row_and_column_failures() {
        let mut g = BitGrid::new(4, 6);
        let mut f = FaultMap::new();
        Injector::new(&mut g, &mut f).inject(ErrorShape::Row { row: 2 }, FaultKind::Transient);
        assert_eq!(g.count_ones(), 6);
        Injector::new(&mut g, &mut f).inject(ErrorShape::Column { col: 0 }, FaultKind::Transient);
        // column flip inverts (2,0) back off
        assert_eq!(g.count_ones(), 6 - 1 + 3);
    }

    #[test]
    fn stuck_at_overrides_writes() {
        let mut g = BitGrid::new(2, 2);
        let mut f = FaultMap::new();
        Injector::new(&mut g, &mut f).inject(
            ErrorShape::Single { row: 0, col: 0 },
            FaultKind::StuckAt(true),
        );
        assert_eq!(f.is_stuck(0, 0), Some(true));
        // Underlying grid still zero; overlay reports one.
        let mut row = g.row(0);
        f.overlay_row(0, &mut row);
        assert!(row.get(0));
    }

    #[test]
    fn transient_on_stuck_cell_is_masked() {
        let mut g = BitGrid::new(2, 2);
        let mut f = FaultMap::new();
        f.add_stuck(0, 1, false);
        let report = Injector::new(&mut g, &mut f)
            .inject(ErrorShape::Single { row: 0, col: 1 }, FaultKind::Transient);
        assert!(report.flipped.is_empty());
    }

    #[test]
    fn stuck_at_same_value_not_a_flip() {
        let mut g = BitGrid::new(2, 2);
        let mut f = FaultMap::new();
        let report = Injector::new(&mut g, &mut f).inject(
            ErrorShape::Single { row: 0, col: 0 },
            FaultKind::StuckAt(false),
        );
        assert!(report.flipped.is_empty());
        assert_eq!(report.stuck, vec![(0, 0)]);
    }

    #[test]
    fn random_flips_distinct() {
        let mut g = BitGrid::new(16, 16);
        let mut f = FaultMap::new();
        let mut rng = StdRng::seed_from_u64(42);
        let report = Injector::new(&mut g, &mut f).inject_random_flips(&mut rng, 50);
        assert_eq!(report.flip_count(), 50);
        assert_eq!(g.count_ones(), 50);
    }

    #[test]
    fn random_cluster_within_bounds() {
        let mut g = BitGrid::new(64, 64);
        let mut f = FaultMap::new();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            let report = Injector::new(&mut g, &mut f).inject_random_cluster(&mut rng, 8, 8, 1.0);
            for &(r, c) in &report.flipped {
                assert!(r < 64 && c < 64);
            }
            let (h, w) = bounding_box(&report.flipped);
            assert!(h <= 8 && w <= 8);
        }
    }

    fn bounding_box(cells: &[(usize, usize)]) -> (usize, usize) {
        if cells.is_empty() {
            return (0, 0);
        }
        let rmin = cells.iter().map(|c| c.0).min().unwrap();
        let rmax = cells.iter().map(|c| c.0).max().unwrap();
        let cmin = cells.iter().map(|c| c.1).min().unwrap();
        let cmax = cells.iter().map(|c| c.1).max().unwrap();
        (rmax - rmin + 1, cmax - cmin + 1)
    }

    #[test]
    fn shape_extent() {
        assert_eq!(
            ErrorShape::Cluster {
                row: 0,
                col: 0,
                height: 3,
                width: 5
            }
            .extent(10, 10),
            (3, 5)
        );
        assert_eq!(ErrorShape::Row { row: 1 }.extent(10, 20), (1, 20));
        assert_eq!(ErrorShape::Column { col: 1 }.extent(10, 20), (10, 1));
    }
}
