//! # memarray — 2D-error-coded SRAM array model
//!
//! The array-level substrate of the reproduction of *"Multi-bit Error
//! Tolerant Caches Using Two-Dimensional Error Coding"* (Kim et al.,
//! MICRO-40, 2007):
//!
//! * [`BitGrid`] — a dense rows x columns cell matrix;
//! * [`RowLayout`] — physical bit interleaving of codewords along a row;
//! * [`VerticalParity`] — the interleaved vertical parity rows (the
//!   correction half of 2D coding), maintained by read-before-write;
//! * [`BankScheme`] — the immutable shared half of a bank (codec with
//!   its precomputed tables, layout, clean-check tables), built once per
//!   distinct [`TwoDConfig`] and shared by every bank via `Arc`;
//! * [`TwoDArray`] — the complete 2D-protected bank: per-word horizontal
//!   coding, vertical parity updates, in-line SECDED correction, and the
//!   BIST-style multi-bit recovery process (row mode, column mode, and
//!   parity-row rebuild);
//! * [`Injector`] / [`ErrorShape`] / [`FaultMap`] — transient and
//!   stuck-at fault injection with arbitrary clustered footprints;
//! * [`coverage`] — exhaustive and Monte-Carlo coverage sweeps used to
//!   regenerate the paper's Figure 3.
//!
//! ## Example: surviving a 32x32 clustered upset
//!
//! ```
//! use ecc::{Bits, CodeKind};
//! use memarray::{ErrorShape, TwoDArray, TwoDConfig};
//!
//! let mut bank = TwoDArray::new(TwoDConfig {
//!     rows: 256,
//!     horizontal: CodeKind::Edc(8),
//!     data_bits: 64,
//!     interleave: 4,
//!     vertical_rows: 32,
//! });
//! let secret = Bits::from_u64(0x5EC2E7, 64);
//! bank.write_word(40, 1, &secret);
//! bank.inject(ErrorShape::Cluster { row: 32, col: 0, height: 32, width: 32 });
//! assert_eq!(bank.read_word(40, 1).unwrap().into_data(), secret);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bitgrid;
pub mod coverage;
mod engine;
mod faults;
mod layout;
pub mod march;
pub mod scrub;
mod shared;
mod stats;
mod vertical;

pub use bitgrid::BitGrid;
pub use engine::{
    ArrayProbe, EngineError, ReadKind, ReadOutcome, RecoveryReport, ScrubSlice, TwoDArray,
    TwoDConfig, WriteKind, INLINE_CORRECT_CYCLES, PROBE_MAX_ROW_LIMBS,
};
pub use faults::{ErrorShape, FaultKind, FaultMap, InjectionReport, Injector};
pub use layout::RowLayout;
pub use shared::{shared_scheme_builds, BankScheme};
pub use stats::EngineStats;
pub use vertical::VerticalParity;
