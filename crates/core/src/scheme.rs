//! 2D protection-scheme descriptors: the horizontal code + physical
//! interleave + vertical parity configuration of one cache level.

use ecc::CodeKind;
use memarray::TwoDConfig;

/// A complete 2D coding configuration for a cache data (or tag) array.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TwoDScheme {
    /// Horizontal per-word code (detection, or SECDED for yield mode).
    pub horizontal: CodeKind,
    /// Data bits per protected word.
    pub data_bits: usize,
    /// Physical bit-interleave degree.
    pub interleave: usize,
    /// Vertical parity rows per bank (the vertical interleave factor).
    pub vertical_rows: usize,
}

impl TwoDScheme {
    /// The paper's L1 configuration: 4-way interleaved EDC8 over 64-bit
    /// words with an EDC32 vertical code — detects and corrects 32x32
    /// clustered errors.
    pub fn l1_paper() -> Self {
        TwoDScheme {
            horizontal: CodeKind::Edc(8),
            data_bits: 64,
            interleave: 4,
            vertical_rows: 32,
        }
    }

    /// The paper's L2 configuration: 2-way interleaved EDC16 over 256-bit
    /// words with an EDC32 vertical code.
    pub fn l2_paper() -> Self {
        TwoDScheme {
            horizontal: CodeKind::Edc(16),
            data_bits: 256,
            interleave: 2,
            vertical_rows: 32,
        }
    }

    /// Yield-enhancement mode: horizontal SECDED corrects single-bit
    /// manufacture-time hard errors in-line while the vertical code keeps
    /// multi-bit soft/hard protection.
    pub fn yield_mode() -> Self {
        TwoDScheme {
            horizontal: CodeKind::Secded,
            data_bits: 64,
            interleave: 2,
            vertical_rows: 32,
        }
    }

    /// Guaranteed correctable cluster footprint `(rows, cols)`: any
    /// clustered error within this bounding box is corrected.
    pub fn coverage(&self) -> (usize, usize) {
        let horizontal_cols = match self.horizontal {
            CodeKind::Edc(n) => n * self.interleave,
            // SECDED detects 2 per word but corrects 1: the safe
            // detection-driven width is 1 bit per word.
            _ => self.interleave,
        };
        (self.vertical_rows, horizontal_cols)
    }

    /// Storage overhead relative to the raw data bits: horizontal check
    /// bits plus the vertical parity rows amortized over `rows` data
    /// rows per bank.
    pub fn storage_overhead(&self, rows: usize) -> f64 {
        let check = self.horizontal.check_bits(self.data_bits) as f64;
        let horizontal = check / self.data_bits as f64;
        let vertical =
            self.vertical_rows as f64 / rows as f64 * (1.0 + check / self.data_bits as f64);
        horizontal + vertical
    }

    /// The bank configuration for `rows` data rows.
    pub fn bank_config(&self, rows: usize) -> TwoDConfig {
        TwoDConfig {
            rows,
            horizontal: self.horizontal,
            data_bits: self.data_bits,
            interleave: self.interleave,
            vertical_rows: self.vertical_rows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_coverages() {
        assert_eq!(TwoDScheme::l1_paper().coverage(), (32, 32));
        assert_eq!(TwoDScheme::l2_paper().coverage(), (32, 32));
    }

    #[test]
    fn figure3c_storage_overhead() {
        // 256-row bank of the Figure 3(c) example: EDC8 horizontal
        // (12.5%) + 32/256 vertical rows (~14% incl. their check-bit
        // columns) ~ 25%.
        let overhead = TwoDScheme::l1_paper().storage_overhead(256);
        assert!(
            (overhead - 0.25).abs() < 0.02,
            "expected ~25%, got {overhead}"
        );
    }

    #[test]
    fn l2_scheme_cheaper_relative() {
        // Wide L2 words amortize the horizontal code far better.
        let l1 = TwoDScheme::l1_paper().storage_overhead(1024);
        let l2 = TwoDScheme::l2_paper().storage_overhead(1024);
        assert!(l2 < l1);
    }

    #[test]
    fn bank_config_roundtrip() {
        let cfg = TwoDScheme::l1_paper().bank_config(128);
        assert_eq!(cfg.rows, 128);
        assert_eq!(cfg.interleave, 4);
        assert_eq!(cfg.vertical_rows, 32);
    }
}
