//! Multi-threaded traffic driver for the concurrent sharded cache
//! service.
//!
//! Worker threads replay seeded, pre-generated Zipf-popularity access
//! streams (see [`crate::ZipfSampler`]) against a shared
//! [`ConcurrentBankedCache`]. The driver reports throughput (ops/sec),
//! verifies read-your-writes per address along the way, and is
//! deterministic per `(seed, threads)` in the streams it offers (the
//! interleaving across threads is, of course, up to the scheduler).
//! Faults under live traffic are the job of [`campaign`], which replays
//! the same streams through [`replay_ops`].
//!
//! Address ownership: each thread *writes* only lines it owns (a hashed
//! partition of the line space) but *reads* every line. Owned reads are
//! verified against the thread's private model of its own writes — a
//! per-address read-your-writes check that holds under any thread
//! interleaving precisely because owners are exclusive writers.

pub mod campaign;
pub mod net;

use crate::ZipfSampler;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Barrier;
use std::time::{Duration, Instant};
use twod_cache::{ConcurrentBankedCache, LINE_BYTES};

/// Configuration of one traffic run.
#[derive(Clone, Copy, Debug)]
pub struct TrafficConfig {
    /// Worker threads replaying traffic.
    pub threads: usize,
    /// Operations per worker.
    pub ops_per_thread: u64,
    /// Fraction of operations that are writes.
    pub write_fraction: f64,
    /// Distinct cache lines the traffic touches.
    pub lines: u64,
    /// Zipf exponent of line popularity (`1.0` = classic Zipf, `0.0` =
    /// uniform).
    pub zipf_theta: f64,
    /// Master seed; worker `t` derives its stream from `(seed, t)`.
    pub seed: u64,
    /// Verify read-your-writes on owned addresses during the replay.
    /// Costs a per-thread `HashMap` update per operation; benchmarks
    /// measuring raw service throughput turn it off so the sequential
    /// baseline and the concurrent path do identical per-op work.
    pub verify: bool,
}

impl TrafficConfig {
    /// A small smoke-test configuration.
    pub fn smoke() -> Self {
        TrafficConfig {
            threads: 2,
            ops_per_thread: 2_000,
            write_fraction: 0.3,
            lines: 256,
            zipf_theta: 1.0,
            seed: 0xC0FFEE,
            verify: true,
        }
    }
}

/// One pre-generated cache operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Read the aligned 64-bit word at the address.
    Read(u64),
    /// Write the value to the aligned 64-bit word at the address.
    Write(u64, u64),
}

/// Outcome of one traffic run.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServiceReport {
    /// Worker threads that ran.
    pub threads: usize,
    /// Total operations completed across workers.
    pub total_ops: u64,
    /// Reads among them.
    pub reads: u64,
    /// Writes among them.
    pub writes: u64,
    /// Owned reads that were verified against the writer's own model.
    pub verified_reads: u64,
    /// Wall-clock time of the replay phase (generation excluded).
    pub elapsed: Duration,
}

impl ServiceReport {
    /// Aggregate throughput in operations per second.
    pub fn ops_per_sec(&self) -> f64 {
        if self.elapsed.is_zero() {
            0.0
        } else {
            self.total_ops as f64 / self.elapsed.as_secs_f64()
        }
    }

    /// Mean latency per operation in nanoseconds (wall-clock across all
    /// threads; under perfect scaling this drops with the thread count).
    pub fn mean_ns_per_op(&self) -> f64 {
        if self.total_ops == 0 {
            0.0
        } else {
            self.elapsed.as_nanos() as f64 / self.total_ops as f64
        }
    }
}

/// Which worker owns (exclusively writes) a line: a hashed partition so
/// every thread's write set spreads over all banks. The first `threads`
/// lines are pinned round-robin — a pure multiplicative hash can leave a
/// thread owning nothing in small line spaces, and generation relies on
/// every thread owning at least one line whenever `lines >= threads`.
fn owner_of_line(line: u64, threads: usize) -> usize {
    if line < threads as u64 {
        line as usize
    } else {
        (line.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as usize % threads
    }
}

/// Generates worker `thread`'s operation stream for `cfg`.
/// Deterministic in `(cfg.seed, thread)`. Writes target only lines the
/// thread owns under `owner_of_line`; reads target any line.
pub fn generate_ops(cfg: &TrafficConfig, thread: usize) -> Vec<Op> {
    assert!(cfg.threads >= 1, "need at least one worker");
    assert!(
        cfg.lines >= cfg.threads as u64,
        "need at least one line per worker (lines {} < threads {})",
        cfg.lines,
        cfg.threads
    );
    assert!(
        (0.0..=1.0).contains(&cfg.write_fraction),
        "write fraction must be in [0, 1]"
    );
    let mut rng = StdRng::seed_from_u64(
        cfg.seed
            .wrapping_add((thread as u64).wrapping_mul(0xA076_1D64_78BD_642F)),
    );
    let zipf = ZipfSampler::new(cfg.lines as usize, cfg.zipf_theta);
    let mut ops = Vec::with_capacity(cfg.ops_per_thread as usize);
    let sample_line = |rng: &mut StdRng| zipf.sample(rng) as u64;
    for _ in 0..cfg.ops_per_thread {
        let is_write = rng.gen_bool(cfg.write_fraction);
        if is_write {
            // Resample until the line is owned: keeps the write-set
            // disjoint across threads without biasing popularity within
            // the owned subset. Bounded retries, then fall back to a
            // deterministic owned line so generation always terminates.
            let mut line = None;
            for _ in 0..64 {
                let l = sample_line(&mut rng);
                if owner_of_line(l, cfg.threads) == thread {
                    line = Some(l);
                    break;
                }
            }
            let line = line.unwrap_or_else(|| {
                (0..cfg.lines)
                    .find(|&l| owner_of_line(l, cfg.threads) == thread)
                    .expect("every thread owns at least one line for lines >= threads")
            });
            let word = rng.gen_range(0..(LINE_BYTES as u64 / 8));
            let value: u64 = rng.gen();
            ops.push(Op::Write(line * LINE_BYTES as u64 + word * 8, value));
        } else {
            let line = sample_line(&mut rng);
            let word = rng.gen_range(0..(LINE_BYTES as u64 / 8));
            ops.push(Op::Read(line * LINE_BYTES as u64 + word * 8));
        }
    }
    ops
}

/// Replays one pre-generated stream against the shared cache, verifying
/// read-your-writes on owned addresses when `verify` is set and pushing
/// each operation's latency in nanoseconds onto `latencies` when given.
/// Returns `(reads, writes, verified_reads)`.
///
/// # Panics
///
/// Panics if the cache returns a wrong value for an address this worker
/// exclusively writes — a violation of per-address coherence — or if a
/// read or write reports uncorrectable damage.
pub fn replay_ops(
    cache: &ConcurrentBankedCache,
    ops: &[Op],
    thread: usize,
    threads: usize,
    verify: bool,
    mut latencies: Option<&mut Vec<u64>>,
) -> (u64, u64, u64) {
    let mut model: HashMap<u64, u64> = HashMap::new();
    let (mut reads, mut writes, mut verified) = (0u64, 0u64, 0u64);
    let timed = latencies.is_some();
    let mut lap = |begun: Option<Instant>| {
        if let (Some(latencies), Some(begun)) = (latencies.as_deref_mut(), begun) {
            latencies.push(begun.elapsed().as_nanos().min(u64::MAX as u128) as u64);
        }
    };
    for op in ops {
        let begun = timed.then(Instant::now);
        match *op {
            Op::Write(addr, value) => {
                cache
                    .write(addr, value)
                    .expect("write defeated the protection");
                lap(begun);
                if verify {
                    model.insert(addr, value);
                }
                writes += 1;
            }
            Op::Read(addr) => {
                let got = cache.read(addr).expect("read defeated the protection");
                lap(begun);
                reads += 1;
                if verify {
                    let line = addr / LINE_BYTES as u64;
                    if owner_of_line(line, threads) == thread {
                        if let Some(&expect) = model.get(&addr) {
                            assert_eq!(
                                got, expect,
                                "read-your-writes violated at addr {addr:#x} (thread {thread})"
                            );
                            verified += 1;
                        }
                    }
                }
            }
        }
    }
    (reads, writes, verified)
}

/// Runs `cfg.threads` workers against the shared cache and reports
/// aggregate throughput. Streams are pre-generated outside the timed
/// region; a barrier lines the workers up so the clock measures pure
/// replay.
pub fn run_traffic(cache: &ConcurrentBankedCache, cfg: &TrafficConfig) -> ServiceReport {
    assert!(cfg.threads >= 1, "need at least one worker");
    let streams: Vec<Vec<Op>> = (0..cfg.threads).map(|t| generate_ops(cfg, t)).collect();
    let barrier = Barrier::new(cfg.threads);
    let mut report = ServiceReport {
        threads: cfg.threads,
        ..Default::default()
    };
    std::thread::scope(|s| {
        let workers: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(t, ops)| {
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    let started = Instant::now();
                    let counts = replay_ops(cache, ops, t, cfg.threads, cfg.verify, None);
                    (counts, started.elapsed())
                })
            })
            .collect();
        for worker in workers {
            let ((reads, writes, verified), elapsed) = worker.join().expect("worker panicked");
            report.reads += reads;
            report.writes += writes;
            report.verified_reads += verified;
            report.elapsed = report.elapsed.max(elapsed);
        }
    });
    report.total_ops = report.reads + report.writes;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use twod_cache::{CacheConfig, TwoDScheme};

    fn service(banks: usize) -> ConcurrentBankedCache {
        ConcurrentBankedCache::new(
            CacheConfig {
                sets: 16,
                ways: 2,
                data_scheme: TwoDScheme::l1_paper(),
                tag_scheme: TwoDScheme {
                    data_bits: 50,
                    ..TwoDScheme::l1_paper()
                },
            },
            banks,
        )
    }

    #[test]
    fn streams_are_deterministic_and_ownership_disjoint() {
        let cfg = TrafficConfig::smoke();
        let a = generate_ops(&cfg, 0);
        let b = generate_ops(&cfg, 0);
        assert_eq!(a, b, "same (seed, thread) must give the same stream");
        let other = generate_ops(&cfg, 1);
        assert_ne!(a, other, "threads draw distinct streams");
        // Writes respect the ownership partition.
        for t in 0..cfg.threads {
            for op in generate_ops(&cfg, t) {
                if let Op::Write(addr, _) = op {
                    let line = addr / LINE_BYTES as u64;
                    assert_eq!(owner_of_line(line, cfg.threads), t);
                }
            }
        }
    }

    #[test]
    fn every_thread_owns_a_line_even_in_tiny_spaces() {
        // Regression: a pure hashed partition left some threads without
        // any owned line in small spaces, panicking generation.
        for threads in 1..=8usize {
            for lines in threads as u64..=(threads as u64 + 16) {
                for t in 0..threads {
                    assert!(
                        (0..lines).any(|l| owner_of_line(l, threads) == t),
                        "thread {t}/{threads} owns nothing in {lines} lines"
                    );
                }
                let cfg = TrafficConfig {
                    threads,
                    ops_per_thread: 64,
                    lines,
                    write_fraction: 0.5,
                    ..TrafficConfig::smoke()
                };
                for t in 0..threads {
                    let _ = generate_ops(&cfg, t); // must not panic
                }
            }
        }
    }

    #[test]
    fn traffic_runs_and_verifies() {
        let cache = service(4);
        let cfg = TrafficConfig::smoke();
        let report = run_traffic(&cache, &cfg);
        assert_eq!(report.total_ops, cfg.ops_per_thread * cfg.threads as u64);
        assert_eq!(report.reads + report.writes, report.total_ops);
        assert!(report.verified_reads > 0, "some owned reads must verify");
        assert!(report.ops_per_sec() > 0.0);
        assert!(cache.audit());
    }
}
