//! Trace-driven validation mode: synthetic address streams and
//! functional (tag-only) caches.
//!
//! The statistical simulator drives contention from per-workload miss
//! *ratios*. This module closes the loop: it generates concrete address
//! streams with controllable locality, runs them through functional
//! set-associative caches, and measures the miss ratios that emerge —
//! demonstrating that each workload profile corresponds to a realizable
//! address stream, not just a parameter choice.

use crate::WorkloadProfile;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One memory reference of a trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Byte address.
    pub addr: u64,
    /// Whether the reference writes.
    pub is_write: bool,
}

/// Where a stream's sequential component starts.
const STREAM_BASE: u64 = 0x4000_0000;

/// A synthetic address-stream generator with a hot working set, a colder
/// drift region, and a streaming component — the three ingredients that
/// set a cache's miss ratio.
#[derive(Clone, Debug)]
pub struct StreamModel {
    /// Bytes in the hot working set (re-referenced heavily).
    pub hot_bytes: u64,
    /// Bytes in the cold region (touched rarely, causes misses).
    pub cold_bytes: u64,
    /// Probability a reference goes to the hot set.
    pub p_hot: f64,
    /// Probability a reference is part of a sequential stream.
    pub p_stream: f64,
    /// Probability a reference writes.
    pub p_write: f64,
}

impl StreamModel {
    /// A stream model whose L1 miss ratio lands near the workload's
    /// profile value on a 64kB/2-way cache: the hot set fits in the L1,
    /// and the miss ratio is steered by how often references leave it.
    pub fn for_profile(profile: &WorkloadProfile) -> Self {
        // Leaving the hot set almost always misses in L1; streaming
        // references miss once per line (64B) -> p_miss ~ p_cold +
        // p_stream/8 for 8-byte references.
        let target = profile.l1d_miss;
        let p_stream = (target * 2.0).min(0.5);
        let stream_miss = p_stream / 8.0;
        let p_cold = (target - stream_miss).max(0.0);
        StreamModel {
            hot_bytes: 32 * 1024,
            cold_bytes: 64 * 1024 * 1024,
            p_hot: 1.0 - p_cold - p_stream,
            p_stream,
            p_write: profile.store_per_instr / profile.mem_per_instr(),
        }
    }

    /// Generates `n` references.
    pub fn generate(&self, n: usize, seed: u64) -> Vec<TraceRecord> {
        self.draws(seed).take(n).collect()
    }

    /// The references of `generate(n, seed)`, drawn in place one at a
    /// time instead of collected (the detailed simulator's warm-up).
    pub(crate) fn draws(&self, seed: u64) -> impl Iterator<Item = TraceRecord> + '_ {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut stream_ptr = STREAM_BASE;
        std::iter::repeat_with(move || self.draw(&mut rng, &mut stream_ptr))
    }

    /// The one reference `generate(1, seed)` would return, without the
    /// `Vec`.
    ///
    /// Known modelling defect, kept so simulated results stay put: a
    /// fresh stream restarts its sequential pointer, so every streaming
    /// reference drawn this way is the stream's first address
    /// (`0x4000_0008`). The detailed simulator draws one record per
    /// reference, so there `p_stream` acts as a second hot line rather
    /// than a stream.
    pub fn record(&self, seed: u64) -> TraceRecord {
        self.draws(seed).next().expect("draws never end")
    }

    /// Draws the next reference of a stream whose sequential component
    /// is at `stream_ptr`.
    fn draw(&self, rng: &mut StdRng, stream_ptr: &mut u64) -> TraceRecord {
        let roll: f64 = rng.gen();
        let addr = if roll < self.p_hot {
            rng.gen_range(0..self.hot_bytes / 8) * 8
        } else if roll < self.p_hot + self.p_stream {
            *stream_ptr += 8;
            *stream_ptr
        } else {
            0x1000_0000 + rng.gen_range(0..self.cold_bytes / 8) * 8
        };
        TraceRecord {
            addr,
            is_write: rng.gen_bool(self.p_write),
        }
    }
}

/// A functional set-associative, write-back/write-allocate cache that
/// tracks tags only (no data) and reports hit/miss/writeback counts.
#[derive(Clone, Debug)]
pub struct FunctionalCache {
    sets: usize,
    ways: usize,
    /// log2 of the line size and of the set count: an address splits
    /// into set and tag by shifts and a mask.
    line_shift: u32,
    set_bits: u32,
    /// (tag, dirty), `ways` slots per set. The first `fill[set]` slots
    /// of a set hold its lines in LRU order, most recent first.
    slots: Vec<(u64, bool)>,
    /// Valid slots per set.
    fill: Vec<usize>,
    /// Counters.
    pub hits: u64,
    /// Misses (fills).
    pub misses: u64,
    /// Dirty evictions.
    pub writebacks: u64,
}

impl FunctionalCache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if any geometry parameter is zero, or if the line size or
    /// the set count is not a power of two.
    pub fn new(capacity_bytes: usize, ways: usize, line_bytes: usize) -> Self {
        assert!(ways > 0 && line_bytes > 0 && capacity_bytes > 0);
        let lines = capacity_bytes / line_bytes;
        assert!(lines.is_multiple_of(ways), "capacity must tile into sets");
        let sets = lines / ways;
        assert!(
            line_bytes.is_power_of_two() && sets.is_power_of_two(),
            "line size and set count must be powers of two"
        );
        FunctionalCache {
            sets,
            ways,
            line_shift: line_bytes.trailing_zeros(),
            set_bits: sets.trailing_zeros(),
            slots: vec![(0, false); sets * ways],
            fill: vec![0; sets],
            hits: 0,
            misses: 0,
            writebacks: 0,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Measured miss ratio so far.
    pub fn miss_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }

    /// Accesses `addr`; returns whether it hit. Write-allocate on miss.
    pub fn access(&mut self, addr: u64, is_write: bool) -> bool {
        self.access_evicting(addr, is_write).0
    }

    /// Like [`FunctionalCache::access`], but also reports the victim a
    /// miss displaced: `Some((line, dirty))` when the fill evicted the
    /// LRU way. The detailed simulator uses this to keep its coherence
    /// directory in sync with capacity pressure and to generate the
    /// L1-to-L2 writeback traffic that exercises read-before-write on a
    /// protected L2.
    ///
    /// Always inlined into the simulator's step, which calls it once per
    /// reference (the compiler otherwise keeps it out of line there).
    #[inline(always)]
    pub fn access_evicting(&mut self, addr: u64, is_write: bool) -> (bool, Option<(u64, bool)>) {
        let line = addr >> self.line_shift;
        let set = (line & (self.sets as u64 - 1)) as usize;
        let tag = line >> self.set_bits;
        let base = set * self.ways;
        let fill = self.fill[set];
        let way = &mut self.slots[base..base + fill];
        if let Some(pos) = way.iter().position(|&(t, _)| t == tag) {
            // Move the hit line to the MRU slot.
            let (_, dirty) = way[pos];
            shift_down(way, pos);
            way[0] = (tag, dirty | is_write);
            self.hits += 1;
            return (true, None);
        }
        self.misses += 1;
        let mut evicted = None;
        if fill == self.ways {
            let (victim_tag, dirty) = self.slots[base + fill - 1];
            if dirty {
                self.writebacks += 1;
            }
            evicted = Some((victim_tag * self.sets as u64 + set as u64, dirty));
        } else {
            self.fill[set] += 1;
        }
        // The lines ahead of the LRU (or first free) slot move down one,
        // and the front takes the new line.
        let way = &mut self.slots[base..base + self.fill[set]];
        shift_down(way, way.len() - 1);
        way[0] = (tag, is_write);
        (false, evicted)
    }
}

/// Moves `way[..end]` down one slot, over `way[end]`: a plain loop over
/// a handful of ways, cheaper here than the out-of-line `rotate_right`.
#[inline]
fn shift_down(way: &mut [(u64, bool)], end: usize) {
    for i in (1..=end).rev() {
        way[i] = way[i - 1];
    }
}

/// A multi-core sharing model: cores reference a mix of private regions
/// and a shared region with migratory write ownership. Running it
/// through the MESI directory yields an *emergent* dirty-transfer
/// fraction — the mechanistic grounding of `WorkloadProfile::l1_to_l1`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SharingModel {
    /// Number of cores.
    pub cores: usize,
    /// Lines in the shared region.
    pub shared_lines: u64,
    /// Lines in each core's private region.
    pub private_lines: u64,
    /// Probability a reference targets the shared region.
    pub p_shared: f64,
    /// Probability a reference writes.
    pub p_write: f64,
}

impl SharingModel {
    /// Measures the dirty L1-to-L1 transfer fraction of `n` references
    /// through a MESI directory.
    pub fn dirty_transfer_fraction(&self, n: usize, seed: u64) -> f64 {
        use crate::coherence::Directory;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut dir = Directory::new();
        let mut misses = 0u64;
        let mut transfers = 0u64;
        for i in 0..n {
            let core = i % self.cores;
            let line = if rng.gen_bool(self.p_shared) {
                rng.gen_range(0..self.shared_lines)
            } else {
                1_000_000 + core as u64 * 10_000 + rng.gen_range(0..self.private_lines)
            };
            let out = if rng.gen_bool(self.p_write) {
                dir.write(core, line)
            } else {
                dir.read(core, line)
            };
            if !out.local_hit {
                misses += 1;
                if out.dirty_transfer {
                    transfers += 1;
                }
            }
        }
        if misses == 0 {
            0.0
        } else {
            transfers as f64 / misses as f64
        }
    }
}

/// Result of running a synthetic trace through an L1 + L2 hierarchy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceValidation {
    /// Measured L1 miss ratio.
    pub l1_miss: f64,
    /// Measured local L2 miss ratio (of L1 misses).
    pub l2_miss: f64,
    /// Measured dirty-eviction fraction (writebacks per L1 fill).
    pub dirty_evict: f64,
}

/// Runs `n` references of the profile's stream model through a
/// 64kB/2-way L1 and 4MB/16-way L2 and reports the emergent ratios.
pub fn validate_profile(profile: &WorkloadProfile, n: usize, seed: u64) -> TraceValidation {
    let model = StreamModel::for_profile(profile);
    let trace = model.generate(n, seed);
    let mut l1 = FunctionalCache::new(64 * 1024, 2, 64);
    let mut l2 = FunctionalCache::new(4 * 1024 * 1024, 16, 64);
    for r in &trace {
        if !l1.access(r.addr, r.is_write) {
            l2.access(r.addr, false);
        }
    }
    TraceValidation {
        l1_miss: l1.miss_ratio(),
        l2_miss: l2.miss_ratio(),
        dirty_evict: if l1.misses == 0 {
            0.0
        } else {
            l1.writebacks as f64 / l1.misses as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn functional_cache_basic_hit_miss() {
        let mut c = FunctionalCache::new(1024, 2, 64); // 8 sets x 2 ways
        assert!(!c.access(0, false)); // cold miss
        assert!(c.access(0, false)); // hit
        assert!(c.access(63, false)); // same line
        assert!(!c.access(64, false)); // next line
        assert_eq!(c.hits, 2);
        assert_eq!(c.misses, 2);
    }

    #[test]
    #[should_panic(expected = "powers of two")]
    fn non_power_of_two_sets_are_rejected() {
        FunctionalCache::new(3 * 1024, 2, 64); // 24 sets
    }

    #[test]
    fn lru_eviction_and_writeback() {
        let mut c = FunctionalCache::new(128, 1, 64); // 2 sets x 1 way
        c.access(0, true); // set 0, dirty
        c.access(128, false); // set 0 again (line 2) -> evicts dirty line 0
        assert_eq!(c.writebacks, 1);
        assert!(!c.access(0, false)); // line 0 gone
    }

    #[test]
    fn hot_set_hits_cold_misses() {
        let model = StreamModel {
            hot_bytes: 8 * 1024,
            cold_bytes: 64 * 1024 * 1024,
            p_hot: 0.95,
            p_stream: 0.0,
            p_write: 0.2,
        };
        let trace = model.generate(50_000, 1);
        let mut l1 = FunctionalCache::new(64 * 1024, 2, 64);
        for r in &trace {
            l1.access(r.addr, r.is_write);
        }
        // ~5% of references leave the hot set and almost all miss.
        assert!(
            (l1.miss_ratio() - 0.05).abs() < 0.02,
            "measured {}",
            l1.miss_ratio()
        );
    }

    #[test]
    fn profiles_are_realizable_address_streams() {
        // Each workload's stream model must land within 2 percentage
        // points of its declared L1 miss ratio on the paper's L1.
        for profile in WorkloadProfile::paper_set() {
            let v = validate_profile(&profile, 120_000, 7);
            assert!(
                (v.l1_miss - profile.l1d_miss).abs() < 0.02,
                "{}: declared {} measured {}",
                profile.name,
                profile.l1d_miss,
                v.l1_miss
            );
        }
    }

    #[test]
    fn sharing_model_grounds_l1_to_l1_parameter() {
        // A sharing mix in the OLTP ballpark produces a dirty-transfer
        // fraction of the same order as the profile's l1_to_l1 (0.12);
        // private-only traffic produces none.
        let oltp_like = SharingModel {
            cores: 4,
            shared_lines: 64,
            private_lines: 4096,
            p_shared: 0.25,
            p_write: 0.3,
        };
        let f = oltp_like.dirty_transfer_fraction(60_000, 5);
        assert!(f > 0.03 && f < 0.5, "measured {f}");

        let private = SharingModel {
            p_shared: 0.0,
            ..oltp_like
        };
        assert_eq!(private.dirty_transfer_fraction(20_000, 5), 0.0);
    }

    #[test]
    fn more_sharing_more_transfers() {
        let base = SharingModel {
            cores: 4,
            shared_lines: 64,
            private_lines: 4096,
            p_shared: 0.1,
            p_write: 0.3,
        };
        let low = base.dirty_transfer_fraction(40_000, 9);
        let high = SharingModel {
            p_shared: 0.5,
            ..base
        }
        .dirty_transfer_fraction(40_000, 9);
        assert!(high > low, "high {high} vs low {low}");
    }

    #[test]
    fn streaming_references_miss_once_per_line() {
        let model = StreamModel {
            hot_bytes: 1024,
            cold_bytes: 1024,
            p_hot: 0.0,
            p_stream: 1.0,
            p_write: 0.0,
        };
        let trace = model.generate(8_000, 3);
        let mut l1 = FunctionalCache::new(64 * 1024, 2, 64);
        for r in &trace {
            l1.access(r.addr, false);
        }
        // 8-byte sequential references: one miss per 8 accesses.
        assert!(
            (l1.miss_ratio() - 0.125).abs() < 0.01,
            "measured {}",
            l1.miss_ratio()
        );
    }

    /// The set-per-`Vec` LRU cache the flat layout replaced, kept as the
    /// reference model: `(tag, dirty)` per set, most recent first.
    struct NaiveLru {
        sets: u64,
        ways: usize,
        line_bytes: u64,
        state: Vec<Vec<(u64, bool)>>,
        writebacks: u64,
    }

    impl NaiveLru {
        fn new(capacity_bytes: usize, ways: usize, line_bytes: usize) -> Self {
            let sets = capacity_bytes / line_bytes / ways;
            NaiveLru {
                sets: sets as u64,
                ways,
                line_bytes: line_bytes as u64,
                state: vec![Vec::new(); sets],
                writebacks: 0,
            }
        }

        fn access(&mut self, addr: u64, is_write: bool) -> (bool, Option<(u64, bool)>) {
            let line = addr / self.line_bytes;
            let set = line % self.sets;
            let tag = line / self.sets;
            let entry = &mut self.state[set as usize];
            if let Some(pos) = entry.iter().position(|&(t, _)| t == tag) {
                let (t, dirty) = entry.remove(pos);
                entry.insert(0, (t, dirty | is_write));
                return (true, None);
            }
            let mut evicted = None;
            if entry.len() == self.ways {
                let (victim, dirty) = entry.pop().expect("full set");
                self.writebacks += dirty as u64;
                evicted = Some((victim * self.sets + set, dirty));
            }
            entry.insert(0, (tag, is_write));
            (false, evicted)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The flat cache reports the naive model's hit, victim and
        /// writeback for every access of a random stream, for 1-, 2- and
        /// 16-way geometries. Addresses span 4x each cache's capacity.
        #[test]
        fn flat_cache_matches_naive_lru(
            refs in proptest::collection::vec((0..4096u64, any::<bool>()), 1..1500)
        ) {
            for (capacity, ways) in [(1024, 1), (2048, 2), (16 * 1024, 16)] {
                let mut flat = FunctionalCache::new(capacity, ways, 64);
                let mut naive = NaiveLru::new(capacity, ways, 64);
                let span = 4 * capacity as u64 / 64;
                for &(r, is_write) in &refs {
                    let addr = (r % span) * 64 + r % 64;
                    prop_assert_eq!(flat.access_evicting(addr, is_write), naive.access(addr, is_write));
                }
                prop_assert_eq!(flat.writebacks, naive.writebacks);
                prop_assert_eq!(flat.hits + flat.misses, refs.len() as u64);
            }
        }
    }

    #[test]
    fn in_place_draws_are_the_generated_trace() {
        // The detailed simulator's warm-up consumes `draws` in place;
        // it must see exactly the trace `generate` collects.
        for (i, profile) in WorkloadProfile::paper_set().iter().enumerate() {
            let model = StreamModel::for_profile(profile);
            let seed = 0x5EED + i as u64;
            let drawn: Vec<TraceRecord> = model.draws(seed).take(6_000).collect();
            assert_eq!(drawn, model.generate(6_000, seed));
        }
    }

    proptest! {
        /// `record(seed)` is `generate(1, seed)[0]` for every profile.
        #[test]
        fn record_is_the_first_generated_reference(seed in any::<u64>()) {
            for profile in WorkloadProfile::paper_set() {
                let model = StreamModel::for_profile(&profile);
                prop_assert_eq!(model.record(seed), model.generate(1, seed)[0]);
            }
        }
    }
}
