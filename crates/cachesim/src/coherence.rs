//! MESI directory coherence over private L1 caches — the mechanism
//! behind the paper's "L1-to-L1 transfers of dirty data" traffic (its
//! protocol derives from the Piranha CMP).
//!
//! The statistical simulator summarizes coherence as a per-miss
//! probability (`WorkloadProfile::l1_to_l1`); this module provides the
//! mechanistic model that grounds that number: a line-granular MESI
//! state machine with a full-map directory, from which dirty-transfer
//! fractions *emerge* from sharing patterns.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// MESI stable states of a line in one L1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Mesi {
    /// Dirty, exclusive to this cache.
    Modified,
    /// Clean, exclusive to this cache.
    Exclusive,
    /// Clean, possibly in several caches.
    Shared,
    /// Not present.
    Invalid,
}

/// 2-bit codes of the packed per-core states. Invalid is zero so an
/// all-Invalid line packs to 0; the high bit marks the owner states
/// (M/E), and Modified is the one state with both bits set.
const INVALID: u64 = 0b00;
const SHARED: u64 = 0b01;
const EXCLUSIVE: u64 = 0b10;
const MODIFIED: u64 = 0b11;
/// The low bit of every core's 2-bit field.
const LOW_BITS: u64 = 0x5555_5555_5555_5555;

/// Cores one packed `u64` holds at 2 bits each.
const MAX_CORES: usize = 32;

impl Mesi {
    fn unpack(bits: u64) -> Self {
        match bits & 0b11 {
            MODIFIED => Mesi::Modified,
            EXCLUSIVE => Mesi::Exclusive,
            SHARED => Mesi::Shared,
            _ => Mesi::Invalid,
        }
    }
}

/// How a request was satisfied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CoherenceOutcome {
    /// The request hit locally with sufficient permissions.
    pub local_hit: bool,
    /// A peer L1 supplied dirty data (L1-to-L1 transfer).
    pub dirty_transfer: bool,
    /// The shared L2 / memory supplied the data.
    pub from_l2: bool,
    /// Number of peer copies invalidated (write requests).
    pub invalidations: usize,
    /// A dirty copy was written back to the L2 (downgrade or eviction).
    pub writeback: bool,
}

impl CoherenceOutcome {
    const LOCAL_HIT: CoherenceOutcome = CoherenceOutcome {
        local_hit: true,
        dirty_transfer: false,
        from_l2: false,
        invalidations: 0,
        writeback: false,
    };

    /// Packs the outcome into a small integer so a stream of outcomes
    /// can be folded into an order-sensitive signature (see
    /// `DetailedStats::coherence_sig`): one bit per flag plus the
    /// invalidation count in the high bits.
    pub fn encode(&self) -> u64 {
        (self.local_hit as u64)
            | (self.dirty_transfer as u64) << 1
            | (self.from_l2 as u64) << 2
            | (self.writeback as u64) << 3
            | (self.invalidations as u64) << 4
    }
}

/// Multiplicative hash for line addresses: one multiply, with the high
/// half folded into the low bits the table indexes by.
#[derive(Default)]
struct LineHasher(u64);

impl Hasher for LineHasher {
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// A full-map directory plus per-core line states.
///
/// Each tracked line maps to one `u64` packing every core's MESI state
/// in 2 bits (core `c` at bits `2c..2c+2`), so a miss reads and rewrites
/// one word instead of walking a holder list. A line leaves the map once
/// every core holds it Invalid.
///
/// Capacity-unbounded by design: the protocol invariants are what is
/// modelled here; capacity pressure is the job of the functional caches
/// in [`crate::trace`].
#[derive(Clone, Debug, Default)]
pub struct Directory {
    /// line -> packed per-core states; all-Invalid lines are absent.
    lines: HashMap<u64, u64, BuildHasherDefault<LineHasher>>,
    /// Counters.
    pub reads: u64,
    /// Write requests processed.
    pub writes: u64,
    /// Total dirty L1-to-L1 transfers.
    pub dirty_transfers: u64,
    /// Total invalidation messages.
    pub invalidations: u64,
    /// Total writebacks to L2.
    pub writebacks: u64,
}

/// Bit offset of `core`'s field in a packed line.
fn shift(core: usize) -> u32 {
    assert!(
        core < MAX_CORES,
        "the packed directory holds at most {MAX_CORES} cores"
    );
    2 * core as u32
}

/// One bit per core (at the field's low bit) for cores holding the line
/// in any valid state, and one for cores holding it Modified.
fn valid_and_modified(packed: u64) -> (u64, u64) {
    let low = packed & LOW_BITS;
    let high = (packed >> 1) & LOW_BITS;
    (low | high, low & high)
}

impl Directory {
    /// Creates an empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    fn packed(&self, line: u64) -> u64 {
        self.lines.get(&line).copied().unwrap_or(0)
    }

    /// State of `line` in `core`'s L1.
    pub fn state(&self, core: usize, line: u64) -> Mesi {
        Mesi::unpack(self.packed(line) >> shift(core))
    }

    /// Processes a read by `core` of `line`.
    pub fn read(&mut self, core: usize, line: u64) -> CoherenceOutcome {
        self.reads += 1;
        let at = shift(core);
        let packed = self.packed(line);
        if (packed >> at) & 0b11 != INVALID {
            return CoherenceOutcome::LOCAL_HIT;
        }
        // Every peer holder ends Shared. A Modified peer supplies the
        // data directly (dirty transfer) and downgrades with a writeback
        // (Piranha-style: L2 regains a clean copy); an Exclusive one
        // downgrades silently.
        let (valid, modified) = valid_and_modified(packed);
        let dirty = modified.count_ones() as u64;
        self.dirty_transfers += dirty;
        self.writebacks += dirty;
        let own = if valid != 0 { SHARED } else { EXCLUSIVE };
        self.lines.insert(line, valid | own << at);
        CoherenceOutcome {
            local_hit: false,
            dirty_transfer: dirty > 0,
            from_l2: dirty == 0,
            invalidations: 0,
            writeback: dirty > 0,
        }
    }

    /// Processes a write by `core` of `line`.
    pub fn write(&mut self, core: usize, line: u64) -> CoherenceOutcome {
        self.writes += 1;
        let at = shift(core);
        let packed = self.packed(line);
        let was_shared = match (packed >> at) & 0b11 {
            MODIFIED => return CoherenceOutcome::LOCAL_HIT,
            EXCLUSIVE => {
                // Silent upgrade.
                self.lines.insert(line, packed | MODIFIED << at);
                return CoherenceOutcome::LOCAL_HIT;
            }
            own => own == SHARED,
        };
        // Every peer copy is invalidated; a Modified one hands its dirty
        // data over cache-to-cache first.
        let (valid, modified) = valid_and_modified(packed & !(0b11 << at));
        let invalidations = valid.count_ones() as usize;
        let dirty = modified.count_ones() as u64;
        self.dirty_transfers += dirty;
        self.invalidations += invalidations as u64;
        self.lines.insert(line, MODIFIED << at);
        CoherenceOutcome {
            local_hit: was_shared,
            dirty_transfer: dirty > 0,
            from_l2: !was_shared && dirty == 0,
            invalidations,
            writeback: false,
        }
    }

    /// Evicts `line` from `core` (capacity), returning whether a dirty
    /// writeback occurred.
    pub fn evict(&mut self, core: usize, line: u64) -> bool {
        let at = shift(core);
        let Some(packed) = self.lines.get_mut(&line) else {
            return false;
        };
        let dirty = (*packed >> at) & 0b11 == MODIFIED;
        if dirty {
            self.writebacks += 1;
        }
        *packed &= !(0b11 << at);
        if *packed == 0 {
            self.lines.remove(&line);
        }
        dirty
    }

    /// Single-writer / multiple-reader invariant: at most one core in
    /// M/E, and if one is, no other core holds the line at all.
    pub fn swmr_holds(&self) -> bool {
        self.lines.values().all(|&packed| {
            let owners = ((packed >> 1) & LOW_BITS).count_ones();
            let (valid, _) = valid_and_modified(packed);
            owners == 0 || (owners == 1 && valid.count_ones() == 1)
        })
    }

    /// Measured fraction of misses satisfied by dirty L1-to-L1 transfer.
    pub fn dirty_transfer_fraction(&self) -> f64 {
        let total = self.reads + self.writes;
        if total == 0 {
            0.0
        } else {
            self.dirty_transfers as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn cold_read_is_exclusive() {
        let mut d = Directory::new();
        let out = d.read(0, 5);
        assert!(out.from_l2 && !out.local_hit);
        assert_eq!(d.state(0, 5), Mesi::Exclusive);
    }

    #[test]
    fn second_reader_shares() {
        let mut d = Directory::new();
        d.read(0, 5);
        let out = d.read(1, 5);
        assert!(out.from_l2);
        assert_eq!(d.state(0, 5), Mesi::Shared);
        assert_eq!(d.state(1, 5), Mesi::Shared);
    }

    #[test]
    fn write_invalidates_sharers() {
        let mut d = Directory::new();
        d.read(0, 5);
        d.read(1, 5);
        let out = d.write(2, 5);
        assert_eq!(out.invalidations, 2);
        assert_eq!(d.state(0, 5), Mesi::Invalid);
        assert_eq!(d.state(1, 5), Mesi::Invalid);
        assert_eq!(d.state(2, 5), Mesi::Modified);
    }

    #[test]
    fn dirty_line_transfers_cache_to_cache() {
        let mut d = Directory::new();
        d.write(0, 7); // core 0 owns dirty
        let out = d.read(1, 7);
        assert!(out.dirty_transfer, "reader gets dirty data from peer");
        assert!(out.writeback, "downgrade writes the line back to L2");
        assert_eq!(d.state(0, 7), Mesi::Shared);
        assert_eq!(d.state(1, 7), Mesi::Shared);
        // Write migration: a third core writing takes the line over.
        let out = d.write(2, 7);
        assert_eq!(out.invalidations, 2);
        assert_eq!(d.state(2, 7), Mesi::Modified);
    }

    #[test]
    fn exclusive_upgrade_is_silent() {
        let mut d = Directory::new();
        d.read(0, 9);
        assert_eq!(d.state(0, 9), Mesi::Exclusive);
        let out = d.write(0, 9);
        assert!(out.local_hit);
        assert_eq!(out.invalidations, 0);
        assert_eq!(d.state(0, 9), Mesi::Modified);
    }

    #[test]
    fn eviction_writes_back_dirty_only() {
        let mut d = Directory::new();
        d.write(0, 1);
        d.read(1, 2);
        assert!(d.evict(0, 1));
        assert!(!d.evict(1, 2));
    }

    #[test]
    fn swmr_invariant_under_random_traffic() {
        let mut d = Directory::new();
        let mut rng = StdRng::seed_from_u64(33);
        for _ in 0..5000 {
            let core = rng.gen_range(0..8);
            let line = rng.gen_range(0..64);
            match rng.gen_range(0..10) {
                0..=5 => {
                    d.read(core, line);
                }
                6..=8 => {
                    d.write(core, line);
                }
                _ => {
                    d.evict(core, line);
                }
            }
            assert!(d.swmr_holds(), "SWMR violated");
        }
    }

    #[test]
    fn sharing_intensity_drives_dirty_transfers() {
        // Migratory sharing (each line written by rotating cores)
        // produces many dirty transfers; private working sets produce
        // none — the mechanism behind the profile's l1_to_l1 parameter.
        let mut migratory = Directory::new();
        for round in 0..400usize {
            // Ownership of each line rotates across cores every sweep.
            let core = (round / 16) % 4;
            migratory.write(core, (round % 16) as u64);
        }
        let mut private = Directory::new();
        for round in 0..400usize {
            let core = round % 4;
            private.write(core, (core * 100 + round % 16) as u64);
        }
        assert!(migratory.dirty_transfers > 100);
        assert_eq!(private.dirty_transfers, 0);
    }

    #[test]
    fn evicting_every_line_empties_the_directory() {
        // Mixed traffic, then capacity evictions of every (core, line):
        // no entry may outlive its last holder, whether the line was
        // ever held or not.
        let mut d = Directory::new();
        let mut rng = StdRng::seed_from_u64(34);
        for _ in 0..5000 {
            let core = rng.gen_range(0..8);
            let line = rng.gen_range(0..256);
            if rng.gen_bool(0.6) {
                d.read(core, line);
            } else {
                d.write(core, line);
            }
        }
        assert!(!d.lines.is_empty());
        for line in 0..512 {
            for core in 0..8 {
                d.evict(core, line);
            }
        }
        assert!(d.lines.is_empty(), "{} lines leaked", d.lines.len());
    }

    #[test]
    #[should_panic(expected = "at most 32 cores")]
    fn more_than_32_cores_is_rejected() {
        Directory::new().read(MAX_CORES, 0);
    }

    /// The directory before line packing, kept as the reference model:
    /// a (core, line) -> state map plus a line -> holders list.
    #[derive(Default)]
    struct TwoMapDirectory {
        states: HashMap<(usize, u64), Mesi>,
        holders: HashMap<u64, Vec<usize>>,
        dirty_transfers: u64,
        invalidations: u64,
        writebacks: u64,
    }

    impl TwoMapDirectory {
        fn state(&self, core: usize, line: u64) -> Mesi {
            self.states
                .get(&(core, line))
                .copied()
                .unwrap_or(Mesi::Invalid)
        }

        fn read(&mut self, core: usize, line: u64) -> CoherenceOutcome {
            if self.state(core, line) != Mesi::Invalid {
                return CoherenceOutcome::LOCAL_HIT;
            }
            let peers = self.holders.get(&line).cloned().unwrap_or_default();
            let mut outcome = CoherenceOutcome {
                local_hit: false,
                dirty_transfer: false,
                from_l2: false,
                invalidations: 0,
                writeback: false,
            };
            let mut any_peer = false;
            for p in peers.into_iter().filter(|&p| p != core) {
                any_peer = true;
                match self.state(p, line) {
                    Mesi::Modified => {
                        outcome.dirty_transfer = true;
                        outcome.writeback = true;
                        self.dirty_transfers += 1;
                        self.writebacks += 1;
                        self.set(p, line, Mesi::Shared);
                    }
                    Mesi::Exclusive => self.set(p, line, Mesi::Shared),
                    Mesi::Shared | Mesi::Invalid => {}
                }
            }
            outcome.from_l2 = !outcome.dirty_transfer;
            let own = if any_peer {
                Mesi::Shared
            } else {
                Mesi::Exclusive
            };
            self.set(core, line, own);
            outcome
        }

        fn write(&mut self, core: usize, line: u64) -> CoherenceOutcome {
            match self.state(core, line) {
                Mesi::Modified => CoherenceOutcome::LOCAL_HIT,
                Mesi::Exclusive => {
                    self.set(core, line, Mesi::Modified);
                    CoherenceOutcome::LOCAL_HIT
                }
                own => {
                    let was_shared = own == Mesi::Shared;
                    let peers = self.holders.get(&line).cloned().unwrap_or_default();
                    let mut outcome = CoherenceOutcome {
                        local_hit: was_shared,
                        dirty_transfer: false,
                        from_l2: false,
                        invalidations: 0,
                        writeback: false,
                    };
                    for p in peers.into_iter().filter(|&p| p != core) {
                        let state = self.state(p, line);
                        if state == Mesi::Modified {
                            outcome.dirty_transfer = true;
                            self.dirty_transfers += 1;
                        }
                        if state != Mesi::Invalid {
                            outcome.invalidations += 1;
                            self.invalidations += 1;
                            self.set(p, line, Mesi::Invalid);
                        }
                    }
                    outcome.from_l2 = !was_shared && !outcome.dirty_transfer;
                    self.set(core, line, Mesi::Modified);
                    outcome
                }
            }
        }

        fn evict(&mut self, core: usize, line: u64) -> bool {
            let dirty = self.state(core, line) == Mesi::Modified;
            if dirty {
                self.writebacks += 1;
            }
            self.set(core, line, Mesi::Invalid);
            dirty
        }

        fn set(&mut self, core: usize, line: u64, state: Mesi) {
            let holders = self.holders.entry(line).or_default();
            if state == Mesi::Invalid {
                self.states.remove(&(core, line));
                holders.retain(|&c| c != core);
            } else {
                self.states.insert((core, line), state);
                if !holders.contains(&core) {
                    holders.push(core);
                }
            }
        }
    }

    const ORACLE_CORES: usize = 8;
    const ORACLE_LINES: u64 = 24;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The packed directory returns every outcome, counter and final
        /// state the two-map model does, over 8 cores.
        #[test]
        fn packed_directory_matches_two_map_model(
            ops in proptest::collection::vec((0..10u8, 0..ORACLE_CORES, 0..ORACLE_LINES), 1..600)
        ) {
            let mut packed = Directory::new();
            let mut model = TwoMapDirectory::default();
            for (kind, core, line) in ops {
                match kind {
                    0..=4 => prop_assert_eq!(packed.read(core, line), model.read(core, line)),
                    5..=8 => prop_assert_eq!(packed.write(core, line), model.write(core, line)),
                    _ => prop_assert_eq!(packed.evict(core, line), model.evict(core, line)),
                }
            }
            prop_assert_eq!(packed.dirty_transfers, model.dirty_transfers);
            prop_assert_eq!(packed.invalidations, model.invalidations);
            prop_assert_eq!(packed.writebacks, model.writebacks);
            for line in 0..ORACLE_LINES {
                for core in 0..ORACLE_CORES {
                    prop_assert_eq!(packed.state(core, line), model.state(core, line));
                }
            }
        }
    }
}
