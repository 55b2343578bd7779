//! # reliability — yield and in-field reliability models
//!
//! The manufacturability analysis of the reproduction of *"Multi-bit
//! Error Tolerant Caches Using Two-Dimensional Error Coding"* (Kim et
//! al., MICRO-40, 2007):
//!
//! * [`YieldModel`] — Stapper-style random-defect yield with spare rows
//!   and/or ECC-based hard-error correction (Figure 8(a));
//! * [`FieldModel`] — FIT-based probability that a soft error combines
//!   with a latent hard fault into an uncorrectable error (Figure 8(b));
//! * [`OnlineRateEstimator`] — the live-telemetry bridge: streaming
//!   FIT/MTTF estimation (with exact Poisson confidence bounds) from
//!   error events observed by a running service;
//! * [`montecarlo`] — fault-injection cross-validation against the
//!   actual 2D engine in the `memarray` crate;
//! * [`poisson`] — the numerically stable Poisson tail sums and
//!   quantiles the models, and the detailed simulator's closed-form
//!   retirement projection, are built on.
//!
//! ## Example: why ECC alone should not absorb hard errors
//!
//! ```
//! use reliability::FieldModel;
//!
//! // At a 0.005% hard-error rate, ECC-based repair without 2D coding
//! // has a sizable chance of an uncorrectable combination within 5 years.
//! let m = FieldModel::paper_system(0.005e-2);
//! assert!(m.success_without_2d(5.0) < 0.5);
//! assert_eq!(m.success_with_2d(5.0), 1.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod field;
pub mod montecarlo;
mod online;
pub mod poisson;
mod yield_model;

pub use field::{FieldModel, HOURS_PER_YEAR};
pub use online::{OnlineRateEstimator, ReliabilitySnapshot};
pub use yield_model::{RepairScheme, YieldModel};
