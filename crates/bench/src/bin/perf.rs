//! Perf-trajectory emitter: measures mean ns/op for every codec, for
//! the 2D engine's array operations, for the protected-cache hit/miss
//! paths, for the concurrent sharded cache service under multi-threaded
//! traffic, and for the self-healing scrub paths (incremental slices
//! plus chaos-campaign MTTR/interference figures), and writes the
//! results as `BENCH_codecs.json`, `BENCH_engine.json`,
//! `BENCH_cache.json`, `BENCH_service.json`, and `BENCH_scrub.json`.
//!
//! These artifacts seed the performance baseline that later optimization
//! PRs are measured against; CI uploads them on every push and
//! `scripts/bench_gate.py` fails the build when a measurement regresses
//! past the documented tolerance.
//!
//! ```text
//! cargo run --release -p bench --bin perf               # full run, ./BENCH_*.json
//! cargo run --release -p bench --bin perf -- --quick    # CI smoke (bounded iterations)
//! cargo run --release -p bench --bin perf -- --out-dir target/bench
//! cargo run --release -p bench --bin perf -- --filter oecned   # subset, print-only
//! ```
//!
//! Codec measurements cover three paths per codec: `encode` (check-bit
//! generation), `decode_clean` (the every-access syndrome check), and
//! `decode_dirty` (the syndrome-plus-correction path with `max(t, 1)`
//! bit flips injected — for BCH codes this exercises Berlekamp–Massey
//! and the Chien search).

use bench::{alloc_counter, bench_json};
use cachesim::protected::STORE_ROWS;
use cachesim::{generate_ops, run_campaign, run_traffic, CampaignConfig, Op, TrafficConfig};
use ecc::{Bch, Bits, Code, CodeKind, Edc, Secded};
use memarray::{ErrorShape, TwoDArray, TwoDConfig};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;
use twod_cache::{CacheConfig, ConcurrentBankedCache, ProtectedCache, TwoDScheme, LINE_BYTES};

/// With the `count-allocs` feature the perf binary runs under the
/// counting allocator, so every row additionally reports allocs/op —
/// that is how the committed BENCH_cache.json pins the hot paths at
/// 0 allocs/op.
#[cfg(feature = "count-allocs")]
#[global_allocator]
static ALLOC: alloc_counter::CountingAlloc = alloc_counter::CountingAlloc::new();

/// One measured operation.
struct Sample {
    name: &'static str,
    op: &'static str,
    mean_ns: f64,
    iters: u64,
    /// Mean heap allocations per iteration; present only when built with
    /// `count-allocs`.
    allocs_per_op: Option<f64>,
}

/// Measurement budget. Quick mode keeps CI smoke runs to well under a
/// second per operation while still producing valid (noisier) numbers.
struct Budget {
    /// Warmup stops at whichever of these two limits hits first.
    warmup_iters: u64,
    warmup_ns: u128,
    /// Statistical floor: measure at least this many iterations even if
    /// the time budget is already spent.
    min_iters: u64,
    target_ns: u128,
}

impl Budget {
    fn full() -> Self {
        Budget {
            warmup_iters: 1_000,
            warmup_ns: 50_000_000,
            min_iters: 64,
            target_ns: 200_000_000,
        }
    }

    fn quick() -> Self {
        Budget {
            warmup_iters: 10,
            warmup_ns: 1_000_000,
            min_iters: 10,
            target_ns: 2_000_000,
        }
    }
}

/// Shared measurement driver for the codec and engine sections: owns the
/// budget, applies the `--filter` substring to `name.op` keys, and
/// accumulates samples.
struct Runner {
    budget: Budget,
    filter: Option<String>,
    samples: Vec<Sample>,
}

impl Runner {
    fn new(budget: Budget, filter: Option<String>) -> Self {
        Runner {
            budget,
            filter,
            samples: Vec::new(),
        }
    }

    /// Times `routine` under the budget and records the sample, unless
    /// the `name.op` key does not match the active filter.
    fn bench<O, F: FnMut() -> O>(&mut self, name: &'static str, op: &'static str, mut routine: F) {
        if let Some(f) = &self.filter {
            let key = format!("{name}.{op}");
            if !key.contains(f.as_str()) {
                return;
            }
        }
        let budget = &self.budget;
        let warm_started = Instant::now();
        for _ in 0..budget.warmup_iters {
            black_box(routine());
            if warm_started.elapsed().as_nanos() >= budget.warmup_ns {
                break;
            }
        }
        // Geometrically growing chunks, re-checking the wall-clock budget
        // between chunks: cheap operations accumulate enough iterations
        // to be stable while slow ones (recovery marches) overshoot the
        // budget by at most one chunk, not a fixed iteration count.
        let mut iters: u64 = 0;
        let mut chunk: u64 = 1;
        let allocs_before = alloc_counter::allocations();
        let started = Instant::now();
        loop {
            for _ in 0..chunk {
                black_box(routine());
            }
            iters += chunk;
            if started.elapsed().as_nanos() >= budget.target_ns && iters >= budget.min_iters {
                break;
            }
            chunk = (chunk * 2).min(4_096);
        }
        let elapsed = started.elapsed().as_nanos();
        let allocs = alloc_counter::allocations() - allocs_before;
        self.samples.push(Sample {
            name,
            op,
            mean_ns: elapsed as f64 / iters as f64,
            iters,
            allocs_per_op: alloc_counter::counting_feature_enabled()
                .then(|| allocs as f64 / iters as f64),
        });
    }

    /// Drains the samples accumulated since the last call.
    fn take_samples(&mut self) -> Vec<Sample> {
        std::mem::take(&mut self.samples)
    }
}

/// The per-codec benchmark set over 64-bit words.
fn codec_samples(runner: &mut Runner) -> Vec<Sample> {
    let data = Bits::from_u64(0x0123_4567_89AB_CDEF, 64);
    let codecs: Vec<(&'static str, Box<dyn Code>)> = vec![
        ("edc8", Box::new(Edc::new(64, 8))),
        ("edc16", Box::new(Edc::new(64, 16))),
        ("secded", Box::new(Secded::new(64))),
        ("dected", Box::new(Bch::new(64, 2))),
        ("qecped", Box::new(Bch::new(64, 4))),
        ("oecned", Box::new(Bch::new(64, 8))),
    ];
    for (name, code) in &codecs {
        runner.bench(name, "encode", || code.encode(black_box(&data)));
        let check = code.encode(&data);
        runner.bench(name, "decode_clean", || {
            code.decode(black_box(&data), black_box(&check))
        });
        // Dirty decode: max(t, 1) spread flips force the full syndrome /
        // correction path (Berlekamp–Massey + Chien for the BCH family,
        // detection for EDC, single-bit correction for SECDED). Measured
        // through `decode_into` with a warmed scratch — the zero-alloc
        // API the engine repair path uses.
        let flips = code.correctable().max(1);
        let mut noisy = data.clone();
        for f in 0..flips {
            noisy.flip((f * 64) / flips + 1);
        }
        let mut out = Bits::zeros(code.data_bits());
        let mut scratch = ecc::DecodeScratch::default();
        code.decode_into(&noisy, &check, &mut out, &mut scratch);
        runner.bench(name, "decode_dirty", || {
            code.decode_into(black_box(&noisy), black_box(&check), &mut out, &mut scratch)
        });
    }
    runner.take_samples()
}

fn paper_config(rows: usize) -> TwoDConfig {
    TwoDConfig {
        rows,
        horizontal: CodeKind::Edc(8),
        data_bits: 64,
        interleave: 4,
        vertical_rows: 32,
    }
}

/// The 2D-array engine benchmark set over the paper's 256-row bank.
fn engine_samples(runner: &mut Runner) -> Vec<Sample> {
    // Write path: read-before-write + vertical parity update.
    let mut bank = TwoDArray::new(paper_config(256));
    let word = Bits::from_u64(0x1234_5678_9ABC_DEF0, 64);
    let mut i = 0usize;
    runner.bench("twod_array", "write_word", || {
        bank.write_word(i % 256, i % 4, black_box(&word));
        i = i.wrapping_add(1);
    });

    // Clean read path: horizontal detection only.
    let mut i = 0usize;
    runner.bench("twod_array", "read_word_clean", || {
        let r = bank.read_word(i % 256, i % 4).unwrap();
        i = i.wrapping_add(1);
        r
    });

    // Recovery march over a 16x16 cluster (setup excluded per pass, so
    // this measures inject + recover; injection is a tiny fraction).
    runner.bench("twod_array", "recover_cluster_16x16", || {
        bank.inject(ErrorShape::Cluster {
            row: 1,
            col: 0,
            height: 16,
            width: 16,
        });
        bank.recover().unwrap()
    });

    runner.take_samples()
}

/// The protected-cache benchmark set: steady-state clean hits through
/// the full stack (tag lookup, LRU, data access) — the paths the
/// scratch-buffer / u64 fast lanes made allocation-free. All accesses
/// are warmed so every measured op is a pure hit.
fn cache_samples(runner: &mut Runner) -> Vec<Sample> {
    const LINES: u64 = 64;
    let mut cache = ProtectedCache::new(CacheConfig::l1_64kb());
    for i in 0..LINES {
        cache.write(i * LINE_BYTES as u64, i).unwrap();
    }
    let mut i = 0u64;
    runner.bench("cache", "read_hit", || {
        let v = cache.read((i % LINES) * LINE_BYTES as u64).unwrap();
        i = i.wrapping_add(1);
        v
    });
    let mut i = 0u64;
    runner.bench("cache", "write_hit", || {
        cache.write((i % LINES) * LINE_BYTES as u64, i).unwrap();
        i = i.wrapping_add(1);
    });
    // Silent write hit: the stored word already equals the new data, so
    // the row write and parity update are suppressed (Kishani et al.).
    for i in 0..LINES {
        cache.write(i * LINE_BYTES as u64, 0x0D15_EA5E).unwrap();
    }
    let mut i = 0u64;
    runner.bench("cache", "write_hit_silent", || {
        cache
            .write((i % LINES) * LINE_BYTES as u64, 0x0D15_EA5E)
            .unwrap();
        i = i.wrapping_add(1);
    });
    // Miss + line fill churn: three tags cycling through one 2-way set,
    // so every access misses and refills a full line.
    let sets = cache.config().sets as u64;
    let mut i = 0u64;
    runner.bench("cache", "read_miss_fill", || {
        let v = cache.read((i % 3) * sets * LINE_BYTES as u64).unwrap();
        i = i.wrapping_add(1);
        v
    });
    runner.take_samples()
}

/// Lock-free sequential sharded reference: the same address-interleaved
/// math as the banked caches over plain `Vec<ProtectedCache>`. This is
/// the honest "sequential path" baseline for the lock-per-bank service:
/// `service.conc_ops_1t / service.seq_ops` is the pure synchronization
/// overhead a single-threaded caller pays.
struct SequentialSharded {
    banks: Vec<ProtectedCache>,
}

impl SequentialSharded {
    fn new(config: CacheConfig, banks: usize) -> Self {
        SequentialSharded {
            banks: (0..banks).map(|_| ProtectedCache::new(config)).collect(),
        }
    }

    fn replay(&mut self, ops: &[Op]) {
        let lb = LINE_BYTES as u64;
        let n = self.banks.len() as u64;
        for op in ops {
            let addr = match *op {
                Op::Read(a) | Op::Write(a, _) => a,
            };
            let line = addr / lb;
            let bank = (line % n) as usize;
            let local = (line / n) * lb + addr % lb;
            match *op {
                Op::Read(_) => {
                    black_box(self.banks[bank].read(local).unwrap());
                }
                Op::Write(_, v) => self.banks[bank].write(local, v).unwrap(),
            }
        }
    }
}

/// The service-layer benchmark: throughput of the concurrent sharded
/// cache under seeded Zipf traffic at 1/2/4/8 worker threads, plus the
/// lock-free sequential reference. All entries are mean wall-clock ns
/// per operation (aggregate: `elapsed / total_ops`), so multi-thread
/// scaling is `conc_ops_1t / conc_ops_Nt` and single-thread lock
/// overhead is `conc_ops_1t / seq_ops`.
fn service_samples(quick: bool, filter: &Option<String>) -> Vec<Sample> {
    const BANKS: usize = 8;
    let total_ops: u64 = if quick { 16_000 } else { 160_000 };
    let traffic = |threads: usize| TrafficConfig {
        threads,
        ops_per_thread: total_ops / threads as u64,
        write_fraction: 0.3,
        lines: 4_096,
        zipf_theta: 1.0,
        seed: 0x5EED_5EED,
        // Both paths do identical per-op work; correctness is covered by
        // the stress suites, not the throughput bench.
        verify: false,
    };
    let matches = |op: &str| {
        filter
            .as_ref()
            .is_none_or(|f| format!("service.{op}").contains(f.as_str()))
    };
    let mut samples = Vec::new();

    if matches("seq_ops") {
        let mut seq = SequentialSharded::new(CacheConfig::l1_64kb(), BANKS);
        let ops = generate_ops(&traffic(1), 0);
        seq.replay(&ops); // warmup: fill tags/lines
        let started = Instant::now();
        seq.replay(&ops);
        samples.push(Sample {
            name: "service",
            op: "seq_ops",
            mean_ns: started.elapsed().as_nanos() as f64 / ops.len() as f64,
            iters: ops.len() as u64,
            allocs_per_op: None,
        });
    }

    for (threads, op) in [
        (1usize, "conc_ops_1t"),
        (2, "conc_ops_2t"),
        (4, "conc_ops_4t"),
        (8, "conc_ops_8t"),
    ] {
        if !matches(op) {
            continue;
        }
        let cache = ConcurrentBankedCache::new(CacheConfig::l1_64kb(), BANKS);
        let cfg = traffic(threads);
        let _warm = run_traffic(&cache, &cfg);
        let report = run_traffic(&cache, &cfg);
        samples.push(Sample {
            name: "service",
            op,
            mean_ns: report.mean_ns_per_op(),
            iters: report.total_ops,
            allocs_per_op: None,
        });
    }

    // The seqlock-contention figure: a deliberately small bank count
    // under a skewed read-heavy Zipf mix, so threads pile onto the same
    // few banks and the optimistic clean-read fast path is what keeps
    // them out of each other's way. The all-mutex baseline collapses
    // here (every reader serializes on the hot bank's lock); the
    // seqlock path keeps clean resident reads lock-free.
    const ZIPF_BANKS: usize = 2;
    let zipf_traffic = |threads: usize| TrafficConfig {
        threads,
        ops_per_thread: total_ops / threads as u64,
        write_fraction: 0.1,
        lines: 1_024,
        zipf_theta: 1.1,
        seed: 0x5EED_21F0,
        verify: false,
    };
    for (threads, op) in [
        (1usize, "conc_ops_1t_zipf"),
        (2, "conc_ops_2t_zipf"),
        (4, "conc_ops_4t_zipf"),
        (8, "conc_ops_8t_zipf"),
    ] {
        if !matches(op) {
            continue;
        }
        let cache = ConcurrentBankedCache::new(CacheConfig::l1_64kb(), ZIPF_BANKS);
        let cfg = zipf_traffic(threads);
        let _warm = run_traffic(&cache, &cfg);
        let hits_before = cache.optimistic_hits();
        let report = run_traffic(&cache, &cfg);
        let opt_fraction = (cache.optimistic_hits() - hits_before) as f64 / report.total_ops as f64;
        println!(
            "  {op}: optimistic fast-path fraction {:.1}%",
            opt_fraction * 100.0
        );
        samples.push(Sample {
            name: "service",
            op,
            mean_ns: report.mean_ns_per_op(),
            iters: report.total_ops,
            allocs_per_op: None,
        });
    }

    // Derived figures for humans; the gate consumes only the raw rows.
    let find = |op: &str| samples.iter().find(|s| s.op == op).map(|s| s.mean_ns);
    if let (Some(one), Some(four)) = (find("conc_ops_1t"), find("conc_ops_4t")) {
        println!("  service scaling at 4 threads: {:.2}x", one / four);
    }
    if let (Some(seq), Some(one)) = (find("seq_ops"), find("conc_ops_1t")) {
        println!(
            "  single-thread lock overhead vs sequential path: {:+.1}%",
            (one / seq - 1.0) * 100.0
        );
    }
    if let (Some(one), Some(eight)) = (find("conc_ops_1t_zipf"), find("conc_ops_8t_zipf")) {
        println!(
            "  hot-bank zipf scaling at 8 threads ({ZIPF_BANKS} banks): {:.2}x",
            one / eight
        );
    }
    samples
}

/// The self-healing benchmark set: incremental-scrub micro paths on the
/// paper's 256-row bank plus figures extracted from one seeded chaos
/// campaign (background scrubber active, the full scenario deck).
///
/// * `slice_clean` / `full_pass_clean` — detection-side scrub cost on a
///   clean bank (per 32-row slice, per whole-bank pass);
/// * `full_pass_clean_l2` — one whole-bank pass over the simulator
///   store's 544-row L2-preset bank, dense random data;
/// * `repair_cluster_16x16` — scrub-detected 16x16 cluster repair;
/// * `scrub_throughput_gbps` — GB/s of physical storage swept by the
///   clean 32-row slice (derived from `slice_clean`; the value lands in
///   the `mean_ns` column but is a rate, *higher* is better — gated as
///   runner-dependent/informational);
/// * `row_scan` — mean ns the background scrubber spends per row
///   scanned during the campaign (inverse scrub throughput);
/// * `campaign_mttr` — mean injection-to-repair latency during the
///   campaign;
/// * `campaign_p99` — p99 foreground operation latency under
///   traffic + faults + background scrubbing (the interference figure).
///
/// Campaign rows carry an `allocs_per_op` figure under `count-allocs`
/// like every other row, but it is a *whole-campaign* total divided by
/// that row's iteration count (the campaign interleaves traffic, faults,
/// and scrubbing in one process, so per-row attribution is not
/// possible): informational, not a hard zero gate.
fn scrub_samples(runner: &mut Runner, quick: bool) -> Vec<Sample> {
    let mut bank = TwoDArray::new(paper_config(256));
    let word = Bits::from_u64(0x5EED_5C12_B000_0001, 64);
    for r in 0..256 {
        for w in 0..4 {
            bank.write_word(r, w, &word);
        }
    }
    runner.bench("scrub", "slice_clean", || bank.scrub_step(32).unwrap());
    runner.bench("scrub", "full_pass_clean", || bank.scrub().unwrap());
    // The simulator store's bank: the paper's L2 preset (EDC16 over two
    // 256-bit words per row) at 544 rows, filled with seeded random words
    // so no limb is zero and every row takes the full syndrome walk.
    let mut l2 = TwoDArray::new(TwoDScheme::l2_paper().bank_config(STORE_ROWS));
    let mut state = 0x5EED_12B0_0000_0001u64;
    for r in 0..l2.rows() {
        for w in 0..l2.words_per_row() {
            let limbs: Vec<u64> = (0..4)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state
                })
                .collect();
            l2.write_word(r, w, &Bits::from_limbs(&limbs, 256));
        }
    }
    runner.bench("scrub", "full_pass_clean_l2", || l2.scrub().unwrap());
    runner.bench("scrub", "repair_cluster_16x16", || {
        bank.inject(ErrorShape::Cluster {
            row: 3,
            col: 8,
            height: 16,
            width: 16,
        });
        bank.scrub().unwrap()
    });
    let mut samples = runner.take_samples();

    // Filter predicate for the derived rows below, matched against each
    // row key like everywhere else.
    let matches = |op: &str| {
        runner
            .filter
            .as_ref()
            .is_none_or(|f| format!("scrub.{op}").contains(f.as_str()))
    };

    // Derived throughput row: GB/s of physical storage the clean slice
    // sweeps (bytes scanned / measured slice time; bytes/ns ≡ GB/s).
    // The rate lands in the `mean_ns` column — bench_gate treats the row
    // as runner-dependent, so the value is informational and only its
    // presence is enforced.
    if matches("scrub_throughput_gbps") {
        if let Some(slice) = samples
            .iter()
            .find(|s| s.name == "scrub" && s.op == "slice_clean")
        {
            let slice_bytes = (32 * bank.cols()).div_ceil(8) as f64;
            samples.push(Sample {
                name: "scrub",
                op: "scrub_throughput_gbps",
                mean_ns: slice_bytes / slice.mean_ns,
                iters: slice.iters,
                allocs_per_op: None,
            });
        }
    }

    // Campaign-derived figures. One run feeds all three rows.
    if matches("row_scan") || matches("campaign_mttr") || matches("campaign_p99") {
        let mut cfg = CampaignConfig::quick(0x5C12_B5EE_D000_0001);
        // Three rounds of the deck: ~36 MTTR samples instead of 12, so
        // the campaign_mttr row's mean is stable enough to gate.
        cfg.rounds = 3;
        if quick {
            cfg.ops_per_phase = 1_500;
        }
        let allocs_before = alloc_counter::allocations();
        let report = run_campaign(&cfg);
        let campaign_allocs = alloc_counter::allocations() - allocs_before;
        assert!(
            report.outcome.healthy(),
            "perf campaign must end healthy: {:?}",
            report.outcome
        );
        // Whole-campaign allocation total, amortized over each row's own
        // iteration count (see the function docs): nonzero by design,
        // tracked so a regression in the campaign's allocation behaviour
        // shows up in the committed baselines.
        let campaign_allocs_per = |iters: u64| {
            alloc_counter::counting_feature_enabled()
                .then(|| campaign_allocs as f64 / iters.max(1) as f64)
        };
        let t = report.timing;
        if matches("row_scan") {
            samples.push(Sample {
                name: "scrub",
                op: "row_scan",
                mean_ns: t.scrub_row_scan_ns,
                iters: t.scrub_clean_rows,
                allocs_per_op: campaign_allocs_per(t.scrub_clean_rows),
            });
        }
        if matches("campaign_mttr") {
            samples.push(Sample {
                name: "scrub",
                op: "campaign_mttr",
                mean_ns: t.mttr_mean_ns,
                iters: t.mttr_samples,
                allocs_per_op: campaign_allocs_per(t.mttr_samples),
            });
        }
        if matches("campaign_p99") {
            let ops = report.outcome.total_reads + report.outcome.total_writes;
            samples.push(Sample {
                name: "scrub",
                op: "campaign_p99",
                mean_ns: t.foreground_p99_ns,
                iters: ops,
                allocs_per_op: campaign_allocs_per(ops),
            });
        }
    }
    samples
}

fn emit(path: &Path, mode: &str, samples: &[Sample], print_only: bool) {
    if print_only {
        println!("{} (print-only, --filter active)", path.display());
    } else {
        let rows: Vec<bench_json::BenchRow> = samples
            .iter()
            .map(|r| bench_json::BenchRow {
                name: r.name.to_string(),
                op: r.op.to_string(),
                mean_ns: r.mean_ns,
                iters: r.iters,
                allocs_per_op: r.allocs_per_op,
            })
            .collect();
        std::fs::write(path, bench_json::render(mode, &rows))
            .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        println!("wrote {} ({} results)", path.display(), samples.len());
    }
    for r in samples {
        match r.allocs_per_op {
            Some(a) => println!(
                "  {:<12} {:<22} {:>12.1} ns/op {:>8.3} allocs/op",
                r.name, r.op, r.mean_ns, a
            ),
            None => println!("  {:<12} {:<22} {:>12.1} ns/op", r.name, r.op, r.mean_ns),
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = std::env::var_os("BENCH_QUICK").is_some_and(|v| v != "0");
    let mut out_dir = PathBuf::from(".");
    let mut filter: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out-dir" => {
                let dir = it
                    .next()
                    .filter(|v| !v.starts_with("--"))
                    .unwrap_or_else(|| {
                        eprintln!("--out-dir needs a path");
                        std::process::exit(2);
                    });
                out_dir = PathBuf::from(dir);
            }
            "--filter" => {
                let f = it
                    .next()
                    .filter(|v| !v.starts_with("--"))
                    .unwrap_or_else(|| {
                        eprintln!("--filter needs a substring");
                        std::process::exit(2);
                    });
                filter = Some(f.clone());
            }
            "--help" | "-h" => {
                println!("usage: perf [--quick] [--out-dir DIR] [--filter SUBSTR]");
                println!();
                println!("  --filter matches against `name.op` keys (e.g. 'oecned',");
                println!("  'encode', 'twod_array.recover', 'cache.read_hit',");
                println!("  'cache.write_hit', 'cache.write_hit_silent',");
                println!("  'cache.read_miss_fill', 'scrub.slice_clean',");
                println!("  'scrub.campaign_mttr'). Filtered runs print the results");
                println!("  without writing BENCH_*.json, so a subset run can never");
                println!("  clobber a committed full baseline.");
                println!();
                println!("  Built with `--features count-allocs`, every row also");
                println!("  reports allocs/op (how BENCH_cache.json pins the clean");
                println!("  hit paths at 0 allocs/op).");
                return;
            }
            other => {
                eprintln!("unknown argument '{other}'");
                std::process::exit(2);
            }
        }
    }
    std::fs::create_dir_all(&out_dir).expect("creating output directory");
    let (budget, mode) = if quick {
        (Budget::quick(), "quick")
    } else {
        (Budget::full(), "full")
    };
    let print_only = filter.is_some();
    let mut runner = Runner::new(budget, filter);
    let codec = codec_samples(&mut runner);
    emit(&out_dir.join("BENCH_codecs.json"), mode, &codec, print_only);
    let engine = engine_samples(&mut runner);
    emit(
        &out_dir.join("BENCH_engine.json"),
        mode,
        &engine,
        print_only,
    );
    let cache = cache_samples(&mut runner);
    emit(&out_dir.join("BENCH_cache.json"), mode, &cache, print_only);
    let service = service_samples(quick, &runner.filter);
    emit(
        &out_dir.join("BENCH_service.json"),
        mode,
        &service,
        print_only,
    );
    let scrub = scrub_samples(&mut runner, quick);
    emit(&out_dir.join("BENCH_scrub.json"), mode, &scrub, print_only);
}
