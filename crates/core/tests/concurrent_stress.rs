//! Concurrency contract of [`ConcurrentBankedCache`]:
//!
//! * sequential equivalence — a seeded replay through the `&self` API
//!   returns exactly what an independently-sharded sequential reference
//!   (hand-rolled `Vec<ProtectedCache>` with the same interleaving math)
//!   and a plain value model return;
//! * per-address linearizability under threads — each address has one
//!   writer, and every read observes a value actually written to that
//!   address (read-your-writes for owners, no cross-address smearing for
//!   anyone);
//! * fault storm under load — clustered errors injected into live banks
//!   are recovered without corrupting served data and without sibling
//!   banks performing (or being blocked behind) recoveries.

use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::thread;
use twod_cache::{CacheConfig, ConcurrentBankedCache, ProtectedCache, TwoDScheme, LINE_BYTES};

fn config() -> CacheConfig {
    CacheConfig {
        sets: 16,
        ways: 2,
        data_scheme: TwoDScheme::l1_paper(),
        tag_scheme: TwoDScheme {
            data_bits: 50,
            ..TwoDScheme::l1_paper()
        },
    }
}

/// A hand-rolled sequential reference: the same address-interleaved
/// sharding math as the banked cache, over independent sequential
/// banks.
struct ReferenceSharded {
    banks: Vec<ProtectedCache>,
}

impl ReferenceSharded {
    fn new(config: CacheConfig, banks: usize) -> Self {
        ReferenceSharded {
            banks: (0..banks).map(|_| ProtectedCache::new(config)).collect(),
        }
    }

    fn split(&self, addr: u64) -> (usize, u64) {
        let lb = LINE_BYTES as u64;
        let line = addr / lb;
        let bank = (line % self.banks.len() as u64) as usize;
        let local = (line / self.banks.len() as u64) * lb + addr % lb;
        (bank, local)
    }

    fn read(&mut self, addr: u64) -> u64 {
        let (bank, local) = self.split(addr);
        self.banks[bank].read(local).unwrap()
    }

    fn write(&mut self, addr: u64, value: u64) {
        let (bank, local) = self.split(addr);
        self.banks[bank].write(local, value).unwrap();
    }
}

#[test]
fn seeded_replay_matches_sequential_reference() {
    const BANKS: usize = 4;
    const LINES: u64 = 128;
    let concurrent = ConcurrentBankedCache::new(config(), BANKS);
    let mut reference = ReferenceSharded::new(config(), BANKS);
    let mut model: HashMap<u64, u64> = HashMap::new();
    let mut rng = StdRng::seed_from_u64(2024);
    for op in 0..20_000u64 {
        let line = rng.gen_range(0..LINES);
        let word = rng.gen_range(0..(LINE_BYTES as u64 / 8));
        let addr = line * LINE_BYTES as u64 + word * 8;
        if rng.gen_bool(0.4) {
            let value: u64 = rng.gen();
            concurrent.write(addr, value).unwrap();
            reference.write(addr, value);
            model.insert(addr, value);
        } else {
            let got = concurrent.read(addr).unwrap();
            assert_eq!(got, reference.read(addr), "op {op} addr {addr:#x}");
            assert_eq!(
                got,
                model.get(&addr).copied().unwrap_or(0),
                "op {op} addr {addr:#x}"
            );
        }
    }
    // The two implementations also agree on aggregate behaviour.
    let c = concurrent.stats();
    let r: Vec<_> = reference.banks.iter().map(|b| b.stats()).collect();
    assert_eq!(
        c.read_hits + c.read_misses,
        r.iter().map(|s| s.read_hits + s.read_misses).sum::<u64>()
    );
    assert!(concurrent.audit());
}

/// Values are tagged with the address's line so any reader can check a
/// read value was genuinely written *to that address*: value =
/// line << 24 | seq. The initial (never-written) value 0 is also legal.
fn tagged(line: u64, seq: u64) -> u64 {
    (line << 24) | (seq & 0xFF_FFFF)
}

#[test]
fn per_address_linearizability_across_threads() {
    const BANKS: usize = 8;
    const THREADS: usize = 4;
    const LINES: u64 = 64;
    const OPS: u64 = 4_000;
    let cache = ConcurrentBankedCache::new(config(), BANKS);
    let barrier = Barrier::new(THREADS);
    thread::scope(|s| {
        for t in 0..THREADS as u64 {
            let cache = &cache;
            let barrier = &barrier;
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(77 + t);
                // Thread t exclusively writes lines with line % THREADS == t.
                let mut last_written: HashMap<u64, u64> = HashMap::new();
                let mut seq = 0u64;
                barrier.wait();
                for _ in 0..OPS {
                    let line = rng.gen_range(0..LINES);
                    let addr = line * LINE_BYTES as u64; // word 0 of the line
                    let owned = line % THREADS as u64 == t;
                    if owned && rng.gen_bool(0.5) {
                        seq += 1;
                        let value = tagged(line, seq);
                        cache.write(addr, value).unwrap();
                        last_written.insert(addr, value);
                    } else {
                        let got = cache.read(addr).unwrap();
                        if owned {
                            // Read-your-writes: the owner must see its
                            // latest write (no one else writes here).
                            let expect = last_written.get(&addr).copied().unwrap_or(0);
                            assert_eq!(got, expect, "thread {t} addr {addr:#x}");
                        } else {
                            // Foreign reads must never observe a value
                            // smeared from another address.
                            assert!(
                                got == 0 || got >> 24 == line,
                                "thread {t} read {got:#x} from line {line}"
                            );
                        }
                    }
                }
            });
        }
    });
    assert!(cache.audit());
}

#[test]
fn fault_storm_under_load_isolates_banks() {
    const BANKS: usize = 4;
    const THREADS: usize = 2;
    const LINES: u64 = 64;
    const OPS: u64 = 3_000;
    const STORM_BANKS: [usize; 2] = [1, 3];
    let cache = ConcurrentBankedCache::new(config(), BANKS);
    // Pre-fill every line so reads have known values.
    for line in 0..LINES {
        cache
            .write(line * LINE_BYTES as u64, tagged(line, 1))
            .unwrap();
    }
    let done = AtomicBool::new(false);
    let barrier = Barrier::new(THREADS + 1);
    thread::scope(|s| {
        let mut readers = Vec::new();
        for t in 0..THREADS as u64 {
            let cache = &cache;
            let barrier = &barrier;
            readers.push(s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(31 + t);
                barrier.wait();
                for _ in 0..OPS {
                    let line = rng.gen_range(0..LINES);
                    let addr = line * LINE_BYTES as u64;
                    let got = cache.read(addr).unwrap();
                    assert_eq!(got, tagged(line, 1), "line {line} served wrong data");
                }
            }));
        }
        // The storm thread repeatedly injures the storm banks while the
        // readers run. Pre-scrub keeps each bank at one live clustered
        // event (the scheme's coverage contract). At least two rounds
        // fire per storm bank even if the readers finish first.
        let cache_ref = &cache;
        let barrier = &barrier;
        let done_ref = &done;
        let storm = s.spawn(move || {
            let mut rng = StdRng::seed_from_u64(1234);
            let mut fired = 0usize;
            barrier.wait();
            while fired < 2 * STORM_BANKS.len()
                || (!done_ref.load(Ordering::Acquire) && fired < 512)
            {
                let bank = STORM_BANKS[fired % STORM_BANKS.len()];
                cache_ref.lock_bank(bank).scrub().unwrap();
                let rows = cache_ref.lock_bank(bank).data_array().rows();
                let row = rng.gen_range(0..rows.saturating_sub(16).max(1));
                cache_ref.inject_bank_error(
                    bank,
                    memarray::ErrorShape::Cluster {
                        row,
                        col: 0,
                        height: 16,
                        width: 16,
                    },
                );
                fired += 1;
                thread::yield_now();
            }
            fired
        });
        for reader in readers {
            reader.join().expect("reader thread panicked");
        }
        done.store(true, Ordering::Release);
        let fired = storm.join().expect("storm thread panicked");
        assert!(fired >= 2 * STORM_BANKS.len(), "storm fired {fired} rounds");
    });
    // No wrong data was served (asserted in the readers). Damage still
    // latent from the last injection is recoverable:
    cache.scrub().unwrap();
    assert!(cache.audit());
    // Bank isolation: recoveries happened only where errors were
    // injected; sibling banks never ran a recovery march.
    for bank in 0..BANKS {
        let recoveries = cache.lock_bank(bank).data_engine_stats().recoveries;
        if STORM_BANKS.contains(&bank) {
            assert!(recoveries >= 1, "storm bank {bank} should have recovered");
        } else {
            assert_eq!(recoveries, 0, "sibling bank {bank} must stay untouched");
        }
    }
}
