//! Batch routing contract of [`ConcurrentBankedCache`]: a batch routed
//! once (division-free, one counting sort over the banks) must behave
//! exactly like the same ops issued one at a time, for any bank count —
//! not only powers of two — and any set count.
//!
//! The reference is a hand-rolled sequential model: independent
//! [`ProtectedCache`] banks addressed with plain `/` and `%`, running the
//! ops in batch order. Batched execution reorders ops across banks (bank
//! groups run in bank order), which must be unobservable: ops of
//! different banks touch different lines, and each bank's ops keep batch
//! order.

use proptest::collection::vec;
use proptest::prelude::*;
use twod_cache::{
    BatchOp, BatchOutcome, BatchRoute, CacheConfig, ConcurrentBankedCache, ProtectedCache,
    TwoDScheme, LINE_BYTES,
};

fn config(sets: usize, ways: usize) -> CacheConfig {
    CacheConfig {
        sets,
        ways,
        data_scheme: TwoDScheme::l1_paper(),
        tag_scheme: TwoDScheme {
            data_bits: 50,
            ..TwoDScheme::l1_paper()
        },
    }
}

/// Independent sequential banks with the interleaving written out with
/// hardware division.
struct Reference {
    banks: Vec<ProtectedCache>,
}

impl Reference {
    fn new(config: CacheConfig, banks: usize) -> Self {
        Reference {
            banks: (0..banks).map(|_| ProtectedCache::new(config)).collect(),
        }
    }

    fn split(&self, addr: u64) -> (usize, u64) {
        let lb = LINE_BYTES as u64;
        let n = self.banks.len() as u64;
        let line = addr / lb;
        ((line % n) as usize, (line / n) * lb + addr % lb)
    }

    fn run(&mut self, op: BatchOp) -> BatchOutcome {
        let (bank, local) = self.split(op.addr());
        match op {
            BatchOp::Read(_) => BatchOutcome::Value(self.banks[bank].read(local).unwrap()),
            BatchOp::Write(_, v) => {
                self.banks[bank].write(local, v).unwrap();
                BatchOutcome::Written
            }
        }
    }
}

/// Aligned word addresses over `lines` lines, so batches mix hits,
/// misses, evictions and same-address write/read pairs.
fn ops_from(seeds: &[(u64, u64, bool)], lines: u64) -> Vec<BatchOp> {
    seeds
        .iter()
        .map(|&(a, v, write)| {
            let addr = (a % (lines * LINE_BYTES as u64)) & !7;
            if write {
                BatchOp::Write(addr, v)
            } else {
                BatchOp::Read(addr)
            }
        })
        .collect()
}

fn distinct_banks(cache: &ConcurrentBankedCache, ops: &[BatchOp]) -> usize {
    let mut banks: Vec<usize> = ops.iter().map(|op| cache.bank_of(op.addr())).collect();
    banks.sort_unstable();
    banks.dedup();
    banks.len()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Batched execution equals scalar execution in batch order, for bank
    /// counts 1, 3, 5, 65 and 128 and set counts 24 and 16; a batch takes
    /// at most one lock per bank it touches.
    #[test]
    fn batches_match_scalar_ops(
        banks_idx in 0usize..5,
        sets_idx in 0usize..2,
        batches in vec(vec((any::<u64>(), any::<u64>(), any::<bool>()), 1..48), 1..6),
    ) {
        let banks = [1usize, 3, 5, 65, 128][banks_idx];
        let sets = [24usize, 16][sets_idx];
        let cfg = config(sets, 2);
        let cache = ConcurrentBankedCache::new(cfg, banks);
        let mut reference = Reference::new(cfg, banks);
        // Enough lines to overflow some sets and force evictions.
        let lines = (banks * sets * 3) as u64;
        let mut out = Vec::new();
        for seeds in &batches {
            let ops = ops_from(seeds, lines);
            let locks = cache.lock_acquisitions();
            cache.execute_batch(&ops, &mut out);
            prop_assert!(
                cache.lock_acquisitions() - locks <= distinct_banks(&cache, &ops) as u64,
                "more than one lock per touched bank"
            );
            for (op, got) in ops.iter().zip(&out) {
                prop_assert_eq!(got, &reference.run(*op), "{:?}", op);
            }
        }
        // The final contents agree too, read back one op at a time.
        for line in 0..lines {
            let addr = line * LINE_BYTES as u64;
            prop_assert_eq!(
                BatchOutcome::Value(cache.read(addr).unwrap()),
                reference.run(BatchOp::Read(addr))
            );
        }
    }

    /// The router agrees with plain division on any address, any bank
    /// count.
    #[test]
    fn bank_of_matches_division(addr in any::<u64>(), banks in 1usize..300) {
        let cache = ConcurrentBankedCache::new(config(4, 1), banks);
        let line = addr / LINE_BYTES as u64;
        prop_assert_eq!(cache.bank_of(addr), (line % banks as u64) as usize);
    }
}

#[test]
fn write_then_read_of_one_address_in_one_batch() {
    for banks in [1usize, 3, 5, 65] {
        let cache = ConcurrentBankedCache::new(config(24, 2), banks);
        cache.write(0x40, 1).unwrap();
        let ops = [
            BatchOp::Read(0x40),
            BatchOp::Write(0x40, 42),
            BatchOp::Read(0x40),
            BatchOp::Write(0x40 + 64 * banks as u64, 7),
            BatchOp::Read(0x40 + 64 * banks as u64),
        ];
        let mut out = Vec::new();
        cache.execute_batch(&ops, &mut out);
        assert_eq!(
            out,
            vec![
                BatchOutcome::Value(1),
                BatchOutcome::Written,
                BatchOutcome::Value(42),
                BatchOutcome::Written,
                BatchOutcome::Value(7),
            ],
            "{banks} banks"
        );
    }
}

#[test]
fn admission_trims_groups_and_skips_excluded_ops() {
    let cache = ConcurrentBankedCache::new(config(24, 2), 3);
    // Lines 0..6 over 3 banks: two ops per bank, plus one excluded op.
    let ops: Vec<BatchOp> = (0..6u64).map(|l| BatchOp::Write(l * 64, l + 1)).collect();
    let mut route = BatchRoute::new();
    cache.route_batch(&ops, &mut route, |i| i != 5);
    let groups: Vec<(usize, Vec<u32>)> = route.groups().map(|(b, g)| (b, g.to_vec())).collect();
    assert_eq!(groups, vec![(0, vec![0, 3]), (1, vec![1, 4]), (2, vec![2])]);
    // Admit one op of bank 0, none of bank 1, all of bank 2.
    route.admit(|bank, group| match bank {
        0 => 1,
        1 => 0,
        _ => group.len(),
    });
    let locks = cache.lock_acquisitions();
    let mut out = Vec::new();
    let mut observed = Vec::new();
    cache.execute_routed(&ops, &route, &mut out, |bank, _| observed.push(bank));
    assert_eq!(observed, vec![0, 2], "only banks with admitted ops lock");
    assert_eq!(cache.lock_acquisitions() - locks, 2);
    let read = |addr| cache.read(addr).unwrap();
    assert_eq!(read(0), 1, "admitted");
    assert_eq!(read(64 * 3), 0, "trimmed from bank 0's group");
    assert_eq!(read(64), 0, "bank 1 admitted nothing");
    assert_eq!(read(64 * 2), 3, "admitted");
    assert_eq!(read(64 * 5), 0, "excluded from the route");
}

#[test]
fn capacity_and_debug_take_no_lock() {
    let cache = ConcurrentBankedCache::new(config(24, 2), 5);
    let locks = cache.lock_acquisitions();
    assert_eq!(cache.capacity(), 5 * 24 * 2 * LINE_BYTES);
    let shown = format!("{cache:?}");
    assert!(shown.contains("5 banks"), "{shown}");
    assert_eq!(cache.lock_acquisitions(), locks);
}
