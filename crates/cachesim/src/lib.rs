//! # cachesim — statistical cycle-level CMP cache-hierarchy simulator
//!
//! The performance substrate of the reproduction of *"Multi-bit Error
//! Tolerant Caches Using Two-Dimensional Error Coding"* (Kim et al.,
//! MICRO-40, 2007). The paper measured 2D coding's performance effects on
//! FLEXUS full-system simulations of two CMPs; this crate substitutes a
//! statistical cycle-level model that reproduces the mechanism those
//! numbers come from: read-before-write operations competing for L1 ports
//! and L2 banks.
//!
//! * [`SystemConfig`] — the paper's fat (4x OoO) and lean (8x in-order
//!   SMT) CMP design points (Table 1);
//! * [`WorkloadProfile`] — statistical models of OLTP, DSS, Web, Moldyn,
//!   Ocean, and Sparse;
//! * [`ProtectionPolicy`] — which caches carry 2D protection and whether
//!   L1 port stealing is enabled;
//! * [`Simulation`] — the cycle loop (L1 ports, store queues, banked L2,
//!   miss overlap);
//! * [`figure5`] / [`figure6`] — experiment drivers regenerating the
//!   paper's performance figures;
//! * [`DetailedSim`] / [`ProtectedStore`] — the execution-driven mode:
//!   functional L1s and a MESI directory over a banked L2 backed by a
//!   real 2D-coded array, with NE/CE/DUE/SDC fault-domain accounting
//!   (`run_sim_campaign`; see `docs/SIMULATOR.md`).
//!
//! ## Example: cost of full 2D protection on the fat CMP
//!
//! ```
//! use cachesim::{ipc_loss_percent, run_sim, ProtectionPolicy, SystemConfig, WorkloadProfile};
//!
//! let base = run_sim(SystemConfig::fat_cmp(), ProtectionPolicy::baseline(),
//!                    WorkloadProfile::oltp(), 10_000, 42);
//! let prot = run_sim(SystemConfig::fat_cmp(), ProtectionPolicy::full(),
//!                    WorkloadProfile::oltp(), 10_000, 42);
//! let loss = ipc_loss_percent(&base, &prot);
//! assert!(loss < 15.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod coherence;
mod config;
pub mod detailed;
pub mod l2;
pub mod mshr;
pub mod port;
pub mod protected;
mod runner;
pub mod service;
mod sim;
mod stats;
pub mod trace;
mod workload;

pub use config::{CmpKind, ProtectionPolicy, SystemConfig};
pub use detailed::{run_detailed, DetailedSim, DetailedStats};
pub use l2::{BankedL2, L2Access};
pub use mshr::MshrPool;
pub use port::{ExtraGrant, L1Ports, PortGrant};
pub use protected::{
    classify, run_sim_campaign, EventEvidence, FaultDomain, FaultOutcome, OutcomeTally,
    ProtectedStore, SchemeReport, SimCampaignConfig, SimCampaignOutcome, StoreScheme,
};
pub use runner::{figure5, figure5_average, figure6, Fig5Row, Fig6Row, DEFAULT_CYCLES};
pub use service::campaign::{
    run_campaign, CampaignConfig, CampaignOutcome, CampaignReport, CampaignTiming, FaultScenario,
    PhaseOutcome,
};
pub use service::net;
pub use service::net::{CacheServer, NetClient, ServerConfig, ServerError, ServerStats};
pub use service::{generate_ops, replay_ops, run_traffic, Op, ServiceReport, TrafficConfig};
pub use sim::{run_sim, Simulation};
pub use stats::{ipc_loss_percent, AccessMix, SimStats};
pub use workload::{WorkloadProfile, ZipfSampler};
