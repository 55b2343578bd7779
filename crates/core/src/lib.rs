//! # twod-cache — 2D error coding for caches
//!
//! The primary-contribution library of the reproduction of *"Multi-bit
//! Error Tolerant Caches Using Two-Dimensional Error Coding"* (Kim,
//! Hardavellas, Mai, Falsafi, Hoe — MICRO-40, 2007).
//!
//! 2D error coding decouples error *detection* (a light-weight per-word
//! horizontal code read on every access) from error *correction* (a set
//! of vertical parity rows maintained in the background by
//! read-before-write updates). The result is correction of clustered
//! errors up to 32x32 bits at a fraction of the area, latency, and power
//! of conventional multi-bit ECC.
//!
//! * [`TwoDScheme`] — protection configurations (the paper's L1/L2
//!   schemes plus yield mode);
//! * [`ProtectedCache`] — a functional set-associative write-back cache
//!   with 2D-protected data and tag arrays, transparent recovery, and
//!   fault injection hooks;
//! * [`ConcurrentBankedCache`] — the thread-safe sharded service: one
//!   lock per bank, `&self` reads/writes, per-bank recovery that never
//!   stalls sibling banks;
//! * [`Scrubber`] — the self-healing layer: background threads sweeping
//!   the banks in lock-bounded slices, with an adaptive rate controller
//!   driven by observed error traffic and online FIT/MTTF accounting;
//! * [`analysis`] — the overhead composition behind the paper's Figure 7.
//!
//! ## Quickstart
//!
//! ```
//! use twod_cache::{CacheConfig, ProtectedCache};
//! use memarray::ErrorShape;
//!
//! let mut cache = ProtectedCache::new(CacheConfig::l1_64kb());
//! cache.write(0x2000, 42).unwrap();
//!
//! // A multi-bit clustered upset strikes the data array...
//! cache.inject_data_error(ErrorShape::Cluster { row: 3, col: 10, height: 20, width: 30 });
//!
//! // ...and the read still returns the right value.
//! assert_eq!(cache.read(0x2000).unwrap(), 42);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analysis;
mod cache;
mod concurrent;
mod scheme;
mod scrubber;

pub use cache::{CacheConfig, CacheStats, ProtectedCache, LINE_BYTES};
pub use concurrent::{BankGuard, BatchOp, BatchOutcome, BatchRoute, ConcurrentBankedCache};
pub use scheme::TwoDScheme;
pub use scrubber::{Scrubber, ScrubberConfig, ScrubberStats};
