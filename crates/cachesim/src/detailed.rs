//! Detailed (execution-driven) simulation mode: cores draw concrete
//! addresses from their stream models, private functional L1 caches and
//! a MESI directory determine hits, misses, and dirty L1-to-L1 transfers
//! *organically*, and the same port/bank contention machinery as the
//! statistical mode turns 2D protection into measurable slowdown.
//!
//! This mode cross-validates the statistical simulator: both must agree
//! on the direction and rough magnitude of every protection effect.

use crate::coherence::{CoherenceOutcome, Directory};
use crate::protected::ProtectedStore;
use crate::trace::{FunctionalCache, StreamModel};
use crate::{
    BankedL2, ExtraGrant, L1Ports, L2Access, MshrPool, PortGrant, ProtectionPolicy, SystemConfig,
    WorkloadProfile,
};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Statistics of one detailed-mode run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DetailedStats {
    /// Simulated cycles.
    pub cycles: u64,
    /// Memory references completed.
    pub references: u64,
    /// L1 hits.
    pub l1_hits: u64,
    /// L1 misses.
    pub l1_misses: u64,
    /// Dirty L1-to-L1 transfers observed (coherence).
    pub dirty_transfers: u64,
    /// Extra 2D reads issued in the L1s.
    pub extra_2d: u64,
    /// Port-rejection events.
    pub port_stalls: u64,
    /// Aggregate stall cycles spent waiting on misses.
    pub miss_stall_cycles: u64,
    /// Dirty lines written back into the L2 (evictions + downgrades).
    pub l2_writebacks: u64,
    /// Cycles misses spent waiting for a free MSHR.
    pub mshr_wait_cycles: u64,
    /// Sum over cycles of in-flight MSHR entries (for the mean).
    pub mshr_occupancy_sum: u64,
    /// High-water mark of in-flight MSHR entries.
    pub mshr_peak: u64,
    /// Extra bank-hold cycles charged by backing-store correction and
    /// recovery work (zero when the store is absent or fault-free).
    pub correction_stall_cycles: u64,
    /// Order-sensitive FNV-1a fold of every coherence outcome — two runs
    /// with identical coherence traces have identical signatures, which
    /// is how the clean-equivalence suite pins "protection is invisible
    /// when no faults are present".
    pub coherence_sig: u64,
}

impl DetailedStats {
    /// References per cycle (throughput proxy).
    pub fn throughput(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.references as f64 / self.cycles as f64
        }
    }

    /// Cycles per reference (IPC proxy for the bench rows).
    pub fn cycles_per_ref(&self) -> f64 {
        if self.references == 0 {
            0.0
        } else {
            self.cycles as f64 / self.references as f64
        }
    }

    /// Measured L1 miss ratio.
    pub fn miss_ratio(&self) -> f64 {
        let total = self.l1_hits + self.l1_misses;
        if total == 0 {
            0.0
        } else {
            self.l1_misses as f64 / total as f64
        }
    }

    /// Mean MSHR occupancy over the run.
    pub fn mshr_occupancy_mean(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.mshr_occupancy_sum as f64 / self.cycles as f64
        }
    }

    /// Fraction of miss-stall cycles attributable to correction and
    /// recovery back-pressure.
    pub fn correction_stall_fraction(&self) -> f64 {
        let denom = self.miss_stall_cycles + self.correction_stall_cycles;
        if denom == 0 {
            0.0
        } else {
            self.correction_stall_cycles as f64 / denom as f64
        }
    }
}

/// Execution-driven model of one CMP running one workload.
///
/// A clone continues exactly as the original would: a warmed simulator
/// is a checkpoint both schemes of a campaign start from.
#[derive(Clone, Debug)]
pub struct DetailedSim {
    config: SystemConfig,
    policy: ProtectionPolicy,
    streams: Vec<StreamModel>,
    caches: Vec<FunctionalCache>,
    ports: Vec<L1Ports>,
    /// Cycle each core becomes ready after a miss stall.
    ready_at: Vec<u64>,
    /// Outstanding read-before-write port debt per core: slots the next
    /// cycles must dedicate to the old-data reads of committed writes
    /// (two-phase RBW without port stealing).
    port_debt: Vec<u32>,
    directory: Directory,
    l2: BankedL2,
    mshrs: MshrPool,
    /// Optional coded backing store behind the L2 banks.
    store: Option<ProtectedStore>,
    /// Absolute cycle count across incremental windows.
    clock: u64,
    /// Whether the warm-up prologue has run.
    warmed: bool,
    rngs: Vec<StdRng>,
    stats: DetailedStats,
    /// Probability a ready core issues a memory reference this cycle
    /// (memory ops per cycle implied by the workload's instruction mix;
    /// non-memory instructions pace the stream), as the integer
    /// threshold of [`pace_threshold`].
    pace: u64,
}

/// The integer form of `gen_bool(p)`: `rng.gen_bool(p)` is true exactly
/// when `rng.next_u64() >> 11 < pace_threshold(p)`. `gen_bool` compares
/// the 53-bit draw `m` as `m · 2⁻⁵³ < p`; both sides are exact in `f64`
/// (`m < 2⁵³`, and scaling by a power of two is exact), so the test is
/// `m < p · 2⁵³` over the reals, which for an integer `m` is
/// `m < ⌈p · 2⁵³⌉`.
///
/// # Panics
///
/// Panics if `p` is not in `[0, 1]`, as `gen_bool` does.
fn pace_threshold(p: f64) -> u64 {
    assert!((0.0..=1.0).contains(&p), "probability {p} out of range");
    (p * (1u64 << 53) as f64).ceil() as u64
}

impl DetailedSim {
    /// Builds a detailed simulation (shared region sized from the
    /// workload's `l1_to_l1` sharing intensity).
    pub fn new(
        config: SystemConfig,
        policy: ProtectionPolicy,
        workload: WorkloadProfile,
        seed: u64,
    ) -> Self {
        let streams = (0..config.cores)
            .map(|_| StreamModel::for_profile(&workload))
            .collect();
        let caches = (0..config.cores)
            .map(|_| FunctionalCache::new(64 * 1024, 2, 64))
            .collect();
        let ports = (0..config.cores)
            .map(|_| L1Ports::new(config.l1d_ports))
            .collect();
        let rngs = (0..config.cores)
            .map(|i| StdRng::seed_from_u64(seed ^ (i as u64) << 32))
            .collect();
        let pace = pace_threshold(
            (config.issue_width as f64 * workload.mem_per_instr()
                / (workload.base_cpi + workload.mem_per_instr()))
            .min(1.0)
                * 0.7,
        );
        DetailedSim {
            l2: BankedL2::new(config.l2_banks, config.l2_bank_occupancy, policy.protect_l2),
            directory: Directory::new(),
            mshrs: MshrPool::new(config.mshrs),
            store: None,
            clock: 0,
            warmed: false,
            streams,
            caches,
            ports,
            ready_at: vec![0; config.cores],
            port_debt: vec![0; config.cores],
            rngs,
            config,
            policy,
            stats: DetailedStats::default(),
            pace,
        }
    }

    /// Attaches a coded backing store behind the L2 banks. Store
    /// operations consume no randomness, so a fault-free stored run is
    /// bit-identical to a store-less run of the same configuration.
    pub fn with_store(mut self, store: ProtectedStore) -> Self {
        self.store = Some(store);
        self
    }

    /// The attached backing store, if any.
    pub fn store(&self) -> Option<&ProtectedStore> {
        self.store.as_ref()
    }

    /// Mutable access to the backing store (fault injection between
    /// windows).
    pub fn store_mut(&mut self) -> Option<&mut ProtectedStore> {
        self.store.as_mut()
    }

    /// Snapshot of the statistics so far.
    pub fn stats(&self) -> DetailedStats {
        self.stats
    }

    /// Runs for `cycles` (after a cache-warming prologue) and returns
    /// the statistics.
    pub fn run(mut self, cycles: u64) -> DetailedStats {
        self.run_window(cycles);
        self.stats
    }

    /// Warms the functional caches so cold-start misses do not distort
    /// the measured ratios (the paper measures from warmed checkpoints).
    fn warm_up(&mut self) {
        for core in 0..self.config.cores {
            let seed = self.rngs[core].gen();
            let cache = &mut self.caches[core];
            for r in self.streams[core].draws(seed).take(6_000) {
                cache.access(r.addr, r.is_write);
            }
            cache.hits = 0;
            cache.misses = 0;
            cache.writebacks = 0;
        }
    }

    /// Folds a coherence outcome into the trace signature.
    fn fold_outcome(&mut self, core: usize, line: u64, outcome: &CoherenceOutcome) {
        let mut sig = if self.stats.coherence_sig == 0 {
            FNV_OFFSET
        } else {
            self.stats.coherence_sig
        };
        for token in [outcome.encode(), line, core as u64] {
            sig = (sig ^ token).wrapping_mul(FNV_PRIME);
        }
        self.stats.coherence_sig = sig;
    }

    /// Advances the simulation by `cycles` more cycles (warming first on
    /// the initial call) and leaves the statistics inspectable via
    /// [`DetailedSim::stats`]. Fault campaigns interleave calls to this
    /// with injections into the backing store.
    pub fn run_window(&mut self, cycles: u64) {
        if !self.warmed {
            self.warm_up();
            self.warmed = true;
        }
        let end = self.clock + cycles;
        for now in self.clock + 1..=end {
            self.stats.mshr_occupancy_sum += self.mshrs.occupancy(now) as u64;
            for core in 0..self.config.cores {
                let stolen = self.ports[core].begin_cycle();
                self.stats.extra_2d += stolen as u64;
                // Service outstanding RBW reads first: they occupy port
                // slots ahead of new demand (two-phase read-before-write).
                while self.port_debt[core] > 0 {
                    if self.ports[core].request_demand() == PortGrant::Granted {
                        self.port_debt[core] -= 1;
                        self.stats.extra_2d += 1;
                    } else {
                        break;
                    }
                }
                if self.port_debt[core] > 0 {
                    // The port is saturated by protection reads.
                    self.stats.port_stalls += 1;
                    continue;
                }
                if self.ready_at[core] >= now {
                    continue;
                }
                // Pace memory references to the workload's instruction
                // mix: non-memory instructions consume the other slots.
                if self.rngs[core].next_u64() >> 11 >= self.pace {
                    continue;
                }
                let record = self.streams[core].record(self.rngs[core].gen());
                // Port for the access itself.
                if self.ports[core].request_demand() == PortGrant::Rejected {
                    self.stats.port_stalls += 1;
                    continue;
                }
                // Writes need the RBW companion read: stolen into idle
                // slots, or (without stealing) issued this cycle if a
                // slot is free, else owed to a following cycle.
                if record.is_write && self.policy.protect_l1 {
                    if self.policy.port_stealing {
                        match self.ports[core].request_extra_read() {
                            ExtraGrant::Queued => {}
                            ExtraGrant::IssuedNow => self.stats.extra_2d += 1,
                            ExtraGrant::Rejected => self.stats.port_stalls += 1,
                        }
                    } else if self.ports[core].request_demand() == PortGrant::Granted {
                        self.stats.extra_2d += 1;
                    } else {
                        self.port_debt[core] += 1;
                    }
                }
                self.stats.references += 1;
                let (hit, evicted) =
                    self.caches[core].access_evicting(record.addr, record.is_write);
                let line = record.addr / 64;
                if let Some((evline, _)) = evicted {
                    // Capacity pressure reaches the directory: a dirty
                    // victim becomes an L2 writeback, which under a
                    // protected L2 triggers read-before-write in the
                    // backing store.
                    if self.directory.evict(core, evline) {
                        self.stats.l2_writebacks += 1;
                        let pen = match self.store.as_mut() {
                            Some(store) => store.writeback(evline),
                            None => 0,
                        };
                        self.stats.correction_stall_cycles += pen;
                        let bank = (evline % self.config.l2_banks as u64) as usize;
                        // Off the critical path: the writeback occupies
                        // the bank (delaying later fills) but stalls no
                        // core directly.
                        self.l2
                            .access_with_penalty(bank, now, L2Access::Writeback, pen);
                    }
                }
                if hit {
                    self.stats.l1_hits += 1;
                    // Keep directory permissions coherent on write hits.
                    if record.is_write {
                        let outcome = self.directory.write(core, line);
                        self.fold_outcome(core, line, &outcome);
                    }
                    continue;
                }
                self.stats.l1_misses += 1;
                let outcome = if record.is_write {
                    self.directory.write(core, line)
                } else {
                    self.directory.read(core, line)
                };
                self.fold_outcome(core, line, &outcome);
                let mut latency = self.config.l2_hit_cycles;
                if outcome.dirty_transfer {
                    self.stats.dirty_transfers += 1;
                    // Peer supplies data over the crossbar: same class of
                    // latency as an L2 hit, no bank occupancy for the
                    // fill itself.
                    if outcome.writeback {
                        // Piranha-style downgrade: the L2 regains a clean
                        // copy, a write-type access to the home bank.
                        self.stats.l2_writebacks += 1;
                        let pen = match self.store.as_mut() {
                            Some(store) => store.writeback(line),
                            None => 0,
                        };
                        self.stats.correction_stall_cycles += pen;
                        let bank = (line % self.config.l2_banks as u64) as usize;
                        self.l2
                            .access_with_penalty(bank, now, L2Access::Writeback, pen);
                    }
                } else {
                    let bank = (line % self.config.l2_banks as u64) as usize;
                    let pen = match self.store.as_mut() {
                        Some(store) => store.fill_read(line),
                        None => 0,
                    };
                    self.stats.correction_stall_cycles += pen;
                    let (wait, _) = self
                        .l2
                        .access_with_penalty(bank, now, L2Access::FillRead, pen);
                    // The fill waits out both the queue and the
                    // correction work: back-pressure becomes stall.
                    latency += wait + pen;
                }
                let mshr_wait = self.mshrs.allocate(now, latency);
                self.stats.mshr_wait_cycles += mshr_wait;
                latency += mshr_wait;
                let stall = ((latency as f64) / self.config.miss_overlap).ceil() as u64;
                self.ready_at[core] = now + stall;
                self.stats.miss_stall_cycles += stall;
            }
        }
        self.clock = end;
        self.stats.cycles = self.clock;
        self.stats.mshr_peak = self.mshrs.peak() as u64;
    }
}

/// Convenience wrapper mirroring [`crate::run_sim`].
pub fn run_detailed(
    config: SystemConfig,
    policy: ProtectionPolicy,
    workload: WorkloadProfile,
    cycles: u64,
    seed: u64,
) -> DetailedStats {
    DetailedSim::new(config, policy, workload, seed).run(cycles)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// An RNG that returns one fixed 53-bit draw.
    struct Fixed(u64);

    impl RngCore for Fixed {
        fn next_u64(&mut self) -> u64 {
            self.0 << 11
        }
    }

    proptest! {
        /// The integer pace draw answers exactly as `gen_bool`, for random
        /// probabilities (and the ends of the range): on random draws of a
        /// seeded stream, and on the two draws either side of the
        /// threshold.
        #[test]
        fn pace_threshold_equals_gen_bool(
            p in prop_oneof![Just(0.0), Just(1.0), Just(0.5), 0.0f64..1.0],
            seed in any::<u64>(),
        ) {
            let threshold = pace_threshold(p);
            let mut by_float = StdRng::seed_from_u64(seed);
            let mut by_int = by_float.clone();
            for _ in 0..256 {
                prop_assert_eq!(by_float.gen_bool(p), by_int.next_u64() >> 11 < threshold);
            }
            for m in [threshold.saturating_sub(1), threshold.min((1 << 53) - 1)] {
                prop_assert_eq!(Fixed(m).gen_bool(p), m < threshold, "p {} draw {}", p, m);
            }
        }
    }

    const CYCLES: u64 = 15_000;

    #[test]
    fn emergent_miss_ratio_tracks_profile() {
        let w = WorkloadProfile::oltp();
        let stats = run_detailed(
            SystemConfig::fat_cmp(),
            ProtectionPolicy::baseline(),
            w,
            CYCLES,
            1,
        );
        assert!(
            (stats.miss_ratio() - w.l1d_miss).abs() < 0.03,
            "emergent {} vs declared {}",
            stats.miss_ratio(),
            w.l1d_miss
        );
    }

    #[test]
    fn protection_reduces_throughput_modestly() {
        let w = WorkloadProfile::ocean();
        let base = run_detailed(
            SystemConfig::lean_cmp(),
            ProtectionPolicy::baseline(),
            w,
            CYCLES,
            2,
        );
        let prot = run_detailed(
            SystemConfig::lean_cmp(),
            ProtectionPolicy::l1_only(),
            w,
            CYCLES,
            2,
        );
        assert!(prot.throughput() <= base.throughput() * 1.02);
        assert!(
            prot.throughput() >= base.throughput() * 0.80,
            "loss implausibly large: {} vs {}",
            prot.throughput(),
            base.throughput()
        );
        assert!(prot.extra_2d > 0);
    }

    #[test]
    fn stealing_recovers_throughput() {
        let w = WorkloadProfile::moldyn();
        let base = run_detailed(
            SystemConfig::lean_cmp(),
            ProtectionPolicy::baseline(),
            w,
            CYCLES,
            3,
        );
        let nosteal = run_detailed(
            SystemConfig::lean_cmp(),
            ProtectionPolicy::l1_only(),
            w,
            CYCLES,
            3,
        );
        let steal = run_detailed(
            SystemConfig::lean_cmp(),
            ProtectionPolicy::l1_steal(),
            w,
            CYCLES,
            3,
        );
        assert!(steal.throughput() >= nosteal.throughput());
        assert!(steal.throughput() <= base.throughput() * 1.02);
    }

    #[test]
    fn detailed_and_statistical_agree_on_direction() {
        // Cross-validation: both simulators must show a nonnegative
        // protection cost and ~the same extra-read fraction.
        use crate::run_sim;
        let w = WorkloadProfile::web();
        let det_base = run_detailed(
            SystemConfig::fat_cmp(),
            ProtectionPolicy::baseline(),
            w,
            CYCLES,
            4,
        );
        let det_prot = run_detailed(
            SystemConfig::fat_cmp(),
            ProtectionPolicy::full(),
            w,
            CYCLES,
            4,
        );
        let stat_base = run_sim(
            SystemConfig::fat_cmp(),
            ProtectionPolicy::baseline(),
            w,
            CYCLES,
            4,
        );
        let stat_prot = run_sim(
            SystemConfig::fat_cmp(),
            ProtectionPolicy::full(),
            w,
            CYCLES,
            4,
        );
        let det_loss = 1.0 - det_prot.throughput() / det_base.throughput();
        let stat_loss = 1.0 - stat_prot.ipc() / stat_base.ipc();
        assert!(det_loss >= -0.02, "detailed shows a gain: {det_loss}");
        assert!(stat_loss >= -0.02, "statistical shows a gain: {stat_loss}");
        assert!(det_loss < 0.15 && stat_loss < 0.15);
    }

    #[test]
    fn sharing_produces_dirty_transfers() {
        let stats = run_detailed(
            SystemConfig::fat_cmp(),
            ProtectionPolicy::baseline(),
            WorkloadProfile::oltp(),
            CYCLES,
            5,
        );
        // Hot sets overlap across cores (same base region), so some
        // dirty transfers must appear.
        assert!(stats.dirty_transfers > 0);
    }
}
