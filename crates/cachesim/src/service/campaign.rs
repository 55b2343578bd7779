//! Deterministic chaos campaigns: seeded traffic interleaved with a
//! library of clustered-fault scenarios against a self-healing
//! [`ConcurrentBankedCache`].
//!
//! A campaign is the end-to-end proof the scrubbing service exists to
//! give: under live multi-threaded traffic, while faults of every shape
//! the multidimensional burst literature cares about (single bits,
//! row/column strips, rectangular and L-shaped bursts — after Etzion &
//! Yaakobi's multidimensional cluster model) strike the banks, the
//! service must end with **zero unrecoverable words and zero lost
//! writes**.
//!
//! Reports split in two, deliberately:
//!
//! * [`CampaignOutcome`] is **bit-deterministic** for a fixed
//!   `(seed, rounds, config)`: operation counts, injection counts and
//!   footprints, loss counters, the final audit, and a checksum of every
//!   committed word. Two runs produce identical outcomes — CI runs the
//!   quick campaign twice and `diff`s the serialized outcome.
//! * [`CampaignTiming`] carries the wall-clock figures (scrub
//!   throughput, mean time-to-repair, foreground latency interference)
//!   that feed `BENCH_scrub.json` and are gated with the usual loose
//!   tolerance, never compared bit-for-bit.
//!
//! Injection discipline: before every injection the target bank is
//! scrubbed under its lock, so at most one clustered event is live per
//! bank — the paper's error model (recovery completes between
//! multi-bit events), and the reason every scenario in the library is
//! within the scheme's `H x V` coverage. [`FaultScenario::inject`]
//! carries that discipline; the network chaos drivers
//! ([`crate::net::run_net_chaos`], [`crate::net::run_shard_chaos`])
//! inject through it too, into the same cache fixture.

use crate::service::{generate_ops, replay_ops, Op, TrafficConfig};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use twod_cache::{CacheConfig, ConcurrentBankedCache, Scrubber, ScrubberConfig, TwoDScheme};

/// Banks of every chaos driver's cache.
pub(crate) const BANKS: usize = 4;

/// Poll cadence while measuring time-to-repair.
const MTTR_POLL: Duration = Duration::from_micros(100);

/// The cache every chaos driver runs against: [`BANKS`] small banks so
/// sweeps and recoveries cycle quickly.
pub(crate) fn chaos_cache() -> ConcurrentBankedCache {
    let config = CacheConfig {
        // 24 sets x 2 ways -> 96-row data banks: three vertical stripe
        // members per column, so a full-height column strip leaves
        // *odd* (>= 3) evidence in every stripe and the column-mode
        // recovery path gets real exercise (with only two members per
        // column, a transient column strip is either row-mode territory
        // or genuinely uncorrectable).
        sets: 24,
        ways: 2,
        data_scheme: TwoDScheme::l1_paper(),
        tag_scheme: TwoDScheme {
            data_bits: 50,
            ..TwoDScheme::l1_paper()
        },
    };
    ConcurrentBankedCache::new(config, BANKS)
}

/// Renders `fields` as a pretty-printed JSON object, one `"key": value`
/// per line in the given order, with a trailing newline. Values are
/// already JSON (numbers, booleans, quoted strings, nested arrays), so
/// equal inputs give byte-identical output.
pub(crate) fn json_object(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(key, value)| format!("  \"{key}\": {value}"))
        .collect();
    format!("{{\n{}\n}}\n", body.join(",\n"))
}

/// One fault scenario of the campaign library: the shape of damage a
/// phase injects while traffic runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultScenario {
    /// Independent single-bit upsets, one injection event each.
    SingleBits {
        /// Injection events in the phase.
        events: usize,
    },
    /// A horizontal strip: `rows` consecutive full-width row failures
    /// (wordline burst). Correctable while `rows <= V`.
    RowStrip {
        /// Consecutive rows per injection.
        rows: usize,
    },
    /// A vertical strip: `cols` adjacent columns transiently flipped
    /// over almost the whole bank height (bitline burst), repaired by
    /// the column-mode recovery path.
    ColumnStrip {
        /// Adjacent columns per injection.
        cols: usize,
    },
    /// An axis-aligned `height x width` rectangular burst — the paper's
    /// clustered multi-bit error.
    Rect {
        /// Rows covered.
        height: usize,
        /// Columns covered.
        width: usize,
    },
    /// An L-shaped multidimensional burst (two disjoint rectangles
    /// sharing a corner): a vertical `arm x thickness` stroke plus a
    /// horizontal `thickness x (arm - thickness)` stroke. Correctable
    /// while `arm <= V`.
    LShape {
        /// Length of both strokes.
        arm: usize,
        /// Stroke thickness.
        thickness: usize,
    },
    /// No injection: a write-heavy phase whose write values are a pure
    /// function of the address, so steady-state writes are *silent*
    /// (Kishani et al.) and the silent-write suppression path runs
    /// under scrub concurrency.
    SilentWriteHeavy,
}

impl FaultScenario {
    /// Stable scenario name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            FaultScenario::SingleBits { .. } => "single_bits",
            FaultScenario::RowStrip { .. } => "row_strip",
            FaultScenario::ColumnStrip { .. } => "column_strip",
            FaultScenario::Rect { .. } => "rect",
            FaultScenario::LShape { .. } => "l_shape",
            FaultScenario::SilentWriteHeavy => "silent_write_heavy",
        }
    }

    /// Injection events this scenario fires per phase.
    pub fn events(&self) -> usize {
        match *self {
            FaultScenario::SingleBits { events } => events,
            FaultScenario::SilentWriteHeavy => 0,
            _ => 2,
        }
    }

    /// The standard campaign deck: every shape class the recovery
    /// process has a dedicated path for, plus the silent-write phase.
    pub fn library() -> Vec<FaultScenario> {
        vec![
            FaultScenario::SingleBits { events: 4 },
            FaultScenario::Rect {
                height: 8,
                width: 8,
            },
            FaultScenario::RowStrip { rows: 3 },
            FaultScenario::ColumnStrip { cols: 2 },
            FaultScenario::LShape {
                arm: 12,
                thickness: 3,
            },
            FaultScenario::SilentWriteHeavy,
        ]
    }

    /// Scrubs `bank` clean, then places one injection event of this
    /// scenario into it at a position drawn from `rng`, and returns the
    /// number of cells covered. A failed scrub (damage the previous
    /// event left outside the coverage) is counted in `uncorrectable`.
    /// Every shape is kept inside the bank and inside the scheme's
    /// correction coverage.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    pub fn inject(
        &self,
        cache: &ConcurrentBankedCache,
        bank: usize,
        rng: &mut StdRng,
        uncorrectable: &AtomicU64,
    ) -> u64 {
        let mut guard = cache.lock_bank(bank);
        if guard.scrub().is_err() {
            uncorrectable.fetch_add(1, Ordering::Relaxed);
        }
        let (rows, cols) = (guard.data_array().rows(), guard.data_array().cols());
        let vertical = guard.config().data_scheme.vertical_rows.min(rows);
        let mut place = |row, col, height, width| {
            guard.inject_data_error(memarray::ErrorShape::Cluster {
                row,
                col,
                height,
                width,
            });
            (height * width) as u64
        };
        match *self {
            FaultScenario::SilentWriteHeavy => 0,
            FaultScenario::SingleBits { .. } => {
                let row = rng.gen_range(0..rows);
                let col = rng.gen_range(0..cols);
                place(row, col, 1, 1)
            }
            FaultScenario::RowStrip { rows: strip } => {
                let strip = strip.min(vertical).max(1);
                let row = rng.gen_range(0..=(rows - strip));
                place(row, 0, strip, cols)
            }
            FaultScenario::ColumnStrip { cols: strip } => {
                // A transient column strip is correctable only if the
                // vertical code keeps flagging the columns *after* the
                // row-mode pass repairs single-flagged-row stripes: each
                // stripe needs an odd member count that row mode cannot
                // consume. A full-height strip in a bank with an odd
                // number of stripe members per column satisfies that;
                // otherwise fall back to a `V`-tall strip (one member
                // per stripe — plain row-mode coverage).
                let strip = strip.clamp(1, 2);
                let stripes = rows / vertical;
                let height = if rows % vertical == 0 && stripes % 2 == 1 {
                    rows
                } else {
                    vertical
                };
                let col = rng.gen_range(0..=(cols - strip));
                place(0, col, height, strip)
            }
            FaultScenario::Rect { height, width } => {
                let height = height.min(vertical).max(1);
                let width = width.min(cols).max(1);
                let row = rng.gen_range(0..=(rows - height));
                let col = rng.gen_range(0..=(cols - width));
                place(row, col, height, width)
            }
            FaultScenario::LShape { arm, thickness } => {
                let arm = arm.min(vertical).min(cols).max(2);
                let thickness = thickness.clamp(1, arm - 1);
                let row = rng.gen_range(0..=(rows - arm));
                let col = rng.gen_range(0..=(cols - arm));
                // A vertical arm x thickness stroke plus a horizontal
                // thickness x (arm - thickness) stroke, disjoint from it
                // (shared corner, no overlap — a double flip would
                // cancel).
                place(row, col, arm, thickness)
                    + place(row, col + thickness, thickness, arm - thickness)
            }
        }
    }
}

/// Configuration of one chaos campaign.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Master seed: traffic streams and injection positions derive from
    /// it deterministically.
    pub seed: u64,
    /// Traffic worker threads.
    pub threads: usize,
    /// Operations per phase, split across the workers.
    pub ops_per_phase: u64,
    /// Write fraction of normal phases (the silent phase raises it).
    pub write_fraction: f64,
    /// Distinct lines the traffic touches.
    pub lines: u64,
    /// The scenario deck; one phase per scenario per round.
    pub scenarios: Vec<FaultScenario>,
    /// Rounds through the deck (the determinism unit: outcomes are
    /// comparable only between runs that completed equal rounds).
    pub rounds: u32,
    /// Soak mode: keep looping whole rounds (up to `rounds`) until the
    /// budget is spent. At least one round always runs.
    pub wall_clock_budget: Option<Duration>,
    /// Background scrubber configuration; `None` runs the campaign
    /// without self-healing (repair then rides on foreground accesses
    /// only — useful as a contrast run).
    pub scrubber: Option<ScrubberConfig>,
    /// Give-up horizon per time-to-repair measurement.
    pub mttr_timeout: Duration,
}

impl CampaignConfig {
    /// The PR-CI smoke campaign: one round of the full deck, small
    /// traffic, aggressive scrubbing. Deterministic end to end.
    pub fn quick(seed: u64) -> Self {
        CampaignConfig {
            seed,
            threads: 2,
            ops_per_phase: 4_000,
            write_fraction: 0.3,
            lines: 256,
            scenarios: FaultScenario::library(),
            rounds: 1,
            wall_clock_budget: None,
            scrubber: Some(Self::campaign_scrubber()),
            mttr_timeout: Duration::from_millis(250),
        }
    }

    /// The nightly soak campaign: loop the deck until the wall-clock
    /// budget is spent (bounded by a generous round cap so the outcome
    /// stays finite).
    pub fn soak(seed: u64, budget: Duration) -> Self {
        CampaignConfig {
            ops_per_phase: 20_000,
            threads: 4,
            rounds: 100_000,
            wall_clock_budget: Some(budget),
            ..Self::quick(seed)
        }
    }

    /// The scrubber tuning every chaos driver runs with: fast sweeps,
    /// adaptive cadence, and accelerated device-time so the FIT
    /// estimates from a seconds-long run read as field rates.
    pub fn campaign_scrubber() -> ScrubberConfig {
        ScrubberConfig {
            threads: 2,
            rows_per_slice: 16,
            idle_interval: Duration::from_millis(1),
            min_interval: Duration::from_micros(20),
            adaptive: true,
            // 1 wall-clock second ~ 1000 device-hours: a minute of
            // campaign models ~7 device-years of exposure.
            time_acceleration: 1000.0 * 3600.0,
        }
    }
}

/// Deterministic result of one phase (one scenario within one round).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PhaseOutcome {
    /// Scenario name.
    pub scenario: String,
    /// Round index the phase ran in.
    pub round: u32,
    /// Reads completed.
    pub reads: u64,
    /// Writes completed.
    pub writes: u64,
    /// Owned reads verified against the writer's model.
    pub verified_reads: u64,
    /// Injection events fired.
    pub injections: u64,
    /// Cells covered by those injections.
    pub cells: u64,
}

/// The deterministic core of a campaign report: equal seeds (and equal
/// completed rounds) produce bit-identical outcomes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CampaignOutcome {
    /// Master seed.
    pub seed: u64,
    /// Rounds completed.
    pub rounds: u32,
    /// Traffic workers.
    pub threads: usize,
    /// Whether a background scrubber ran.
    pub scrubbed: bool,
    /// Per-phase outcomes in execution order.
    pub phases: Vec<PhaseOutcome>,
    /// Total reads across phases.
    pub total_reads: u64,
    /// Total writes across phases.
    pub total_writes: u64,
    /// Total verified owned reads.
    pub verified_reads: u64,
    /// Total injection events.
    pub injections: u64,
    /// Total cells covered by injections.
    pub cells_injected: u64,
    /// Committed writes whose final readback returned a wrong value.
    /// **Must be zero**: a nonzero count is data loss.
    pub lost_writes: u64,
    /// Committed words whose final readback reported uncorrectable
    /// damage. **Must be zero** with the scrubber enabled.
    pub unrecoverable_words: u64,
    /// Scrub/drain calls that reported uncorrectable damage during the
    /// run. **Must be zero** by the injection discipline.
    pub uncorrectable_events: u64,
    /// Whether the final full audit passed.
    pub final_audit: bool,
    /// FNV-1a fold of every `(address, final value)` pair in address
    /// order — the bit-determinism witness.
    pub data_checksum: u64,
}

impl CampaignOutcome {
    /// Whether the campaign met the self-healing contract: nothing
    /// lost, nothing unrecoverable, arrays verified clean.
    pub fn healthy(&self) -> bool {
        self.lost_writes == 0
            && self.unrecoverable_words == 0
            && self.uncorrectable_events == 0
            && self.final_audit
    }

    /// Serializes the outcome as stable, field-ordered JSON (integers
    /// and booleans only — byte-identical across runs with equal
    /// outcomes, so `diff` is a determinism check).
    pub fn to_json(&self) -> String {
        let mut phases = String::from("[\n");
        for (i, p) in self.phases.iter().enumerate() {
            let comma = if i + 1 == self.phases.len() { "" } else { "," };
            phases.push_str(&format!(
                "    {{\"scenario\": \"{}\", \"round\": {}, \"reads\": {}, \"writes\": {}, \
                 \"verified_reads\": {}, \"injections\": {}, \"cells\": {}}}{comma}\n",
                p.scenario, p.round, p.reads, p.writes, p.verified_reads, p.injections, p.cells
            ));
        }
        phases.push_str("  ]");
        json_object(&[
            ("schema", "\"twod-repro/campaign-v1\"".to_string()),
            ("seed", self.seed.to_string()),
            ("rounds", self.rounds.to_string()),
            ("threads", self.threads.to_string()),
            ("banks", BANKS.to_string()),
            ("scrubbed", self.scrubbed.to_string()),
            ("total_reads", self.total_reads.to_string()),
            ("total_writes", self.total_writes.to_string()),
            ("verified_reads", self.verified_reads.to_string()),
            ("injections", self.injections.to_string()),
            ("cells_injected", self.cells_injected.to_string()),
            ("lost_writes", self.lost_writes.to_string()),
            ("unrecoverable_words", self.unrecoverable_words.to_string()),
            (
                "uncorrectable_events",
                self.uncorrectable_events.to_string(),
            ),
            ("final_audit", self.final_audit.to_string()),
            ("data_checksum", self.data_checksum.to_string()),
            ("phases", phases),
        ])
    }
}

/// Wall-clock figures of a campaign — the non-deterministic half,
/// feeding `BENCH_scrub.json`.
#[derive(Clone, Copy, Debug, Default)]
pub struct CampaignTiming {
    /// Total campaign wall time.
    pub elapsed: Duration,
    /// Aggregate foreground throughput over the traffic phases.
    pub ops_per_sec: f64,
    /// Mean foreground operation latency in nanoseconds.
    pub foreground_mean_ns: f64,
    /// Mean of the per-phase p99 foreground latencies in nanoseconds —
    /// the scrubber-interference figure.
    pub foreground_p99_ns: f64,
    /// Worst single foreground operation in nanoseconds.
    pub foreground_max_ns: u64,
    /// Mean time from injection to observed repair, in nanoseconds.
    pub mttr_mean_ns: f64,
    /// Worst observed time-to-repair in nanoseconds.
    pub mttr_max_ns: u64,
    /// Repairs that were timed (injections whose repair was observed
    /// within the timeout).
    pub mttr_samples: u64,
    /// Time-to-repair measurements that hit the timeout (repair then
    /// completes later, off the clock).
    pub mttr_timeouts: u64,
    /// Mean nanoseconds the scrubber spends per row scanned in slices
    /// that triggered no recovery — the inverse of pure detection
    /// throughput, stable across runs because it excludes however much
    /// repair work this particular run happened to do.
    pub scrub_row_scan_ns: f64,
    /// Rows the scrubber scanned during the campaign (all slices).
    pub scrub_rows_scanned: u64,
    /// Rows behind `scrub_row_scan_ns`: scanned by slices that
    /// triggered no recovery (`scrub_row_scan_ns * scrub_clean_rows ==`
    /// total clean lock-held nanoseconds).
    pub scrub_clean_rows: u64,
    /// Foreground reads served by the seqlock optimistic fast path
    /// (lock-free; see `docs/CONCURRENCY.md`). Timing-class telemetry
    /// because the split depends on scheduling: a reader that loses the
    /// race falls back to the locked path and still returns the same
    /// value, so the deterministic [`CampaignOutcome`] never sees it.
    pub optimistic_reads: u64,
}

/// Complete result of [`run_campaign`].
#[derive(Clone, Debug)]
pub struct CampaignReport {
    /// The deterministic core (compare this across runs).
    pub outcome: CampaignOutcome,
    /// Wall-clock figures (gate these, loosely).
    pub timing: CampaignTiming,
    /// Live FIT/MTTF telemetry from the scrubber, when one ran.
    pub reliability: Option<reliability::ReliabilitySnapshot>,
}

/// Per-phase measurement plumbing shared between workers and injector.
#[derive(Default)]
struct PhaseClock {
    latencies: Vec<u64>,
    mttr_ns: Vec<u64>,
    mttr_timeouts: u64,
}

/// Runs the campaign described by `cfg` and reports the outcome.
///
/// # Panics
///
/// Panics if a worker observes a read-your-writes violation mid-run
/// (per-address coherence broken) — the same hard-failure contract as
/// [`crate::replay_ops`] — or if the configuration is degenerate
/// (zero threads, zero scenarios, `lines < threads`).
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignReport {
    assert!(!cfg.scenarios.is_empty(), "campaign needs scenarios");
    assert!(cfg.threads >= 1, "campaign needs a worker");
    let cache = Arc::new(chaos_cache());
    let scrubber = cfg
        .scrubber
        .map(|sc| Scrubber::spawn(Arc::clone(&cache), sc));

    let mut outcome = CampaignOutcome {
        seed: cfg.seed,
        threads: cfg.threads,
        scrubbed: scrubber.is_some(),
        ..CampaignOutcome::default()
    };
    let mut expected: BTreeMap<u64, u64> = BTreeMap::new();
    let mut latencies_sum = 0u128;
    let mut latencies_count = 0u64;
    let mut latencies_max = 0u64;
    let mut phase_p99_sum = 0f64;
    let mut phase_p99_count = 0u64;
    let mut mttr_sum = 0u128;
    let mut mttr_count = 0u64;
    let mut mttr_max = 0u64;
    let mut mttr_timeouts = 0u64;
    let uncorrectable_events = AtomicU64::new(0);

    let started = Instant::now();
    'rounds: for round in 0..cfg.rounds {
        for si in 0..cfg.scenarios.len() {
            let (phase, clock) =
                run_phase(&cache, cfg, round, si, &mut expected, &uncorrectable_events);
            outcome.total_reads += phase.reads;
            outcome.total_writes += phase.writes;
            outcome.verified_reads += phase.verified_reads;
            outcome.injections += phase.injections;
            outcome.cells_injected += phase.cells;
            outcome.phases.push(phase);
            // Fold the phase's wall-clock measurements.
            let mut lat = clock.latencies;
            if !lat.is_empty() {
                latencies_sum += lat.iter().map(|&n| n as u128).sum::<u128>();
                latencies_count += lat.len() as u64;
                latencies_max = latencies_max.max(*lat.iter().max().unwrap());
                let idx = (lat.len() as f64 * 0.99) as usize;
                let idx = idx.min(lat.len() - 1);
                let (_, p99, _) = lat.select_nth_unstable(idx);
                phase_p99_sum += *p99 as f64;
                phase_p99_count += 1;
            }
            for &ns in &clock.mttr_ns {
                mttr_sum += ns as u128;
                mttr_max = mttr_max.max(ns);
            }
            mttr_count += clock.mttr_ns.len() as u64;
            mttr_timeouts += clock.mttr_timeouts;
        }
        outcome.rounds = round + 1;
        if let Some(budget) = cfg.wall_clock_budget {
            if started.elapsed() >= budget {
                break 'rounds;
            }
        }
    }

    // Quiesce: every bank verified clean before the deterministic
    // readback.
    let quiesced = match &scrubber {
        Some(s) => s.drain(),
        None => cache.scrub(),
    };
    if quiesced.is_err() {
        uncorrectable_events.fetch_add(1, Ordering::Relaxed);
    }

    // Final readback: every committed write must still be there.
    let mut checksum: u64 = 0xcbf2_9ce4_8422_2325;
    let fold = |h: &mut u64, x: u64| {
        *h ^= x;
        *h = h.wrapping_mul(0x1_0000_0000_01b3);
    };
    for (&addr, &value) in &expected {
        match cache.read(addr) {
            Ok(got) => {
                if got != value {
                    outcome.lost_writes += 1;
                }
                fold(&mut checksum, addr);
                fold(&mut checksum, got);
            }
            Err(_) => {
                outcome.unrecoverable_words += 1;
                fold(&mut checksum, addr);
                fold(&mut checksum, u64::MAX);
            }
        }
    }
    outcome.data_checksum = checksum;
    outcome.final_audit = cache.audit();
    outcome.uncorrectable_events = uncorrectable_events.load(Ordering::Relaxed);

    let elapsed = started.elapsed();
    let (scrub_row_scan_ns, scrub_rows_scanned, scrub_clean_rows, reliability) = match &scrubber {
        Some(s) => {
            let stats = s.stats();
            (
                mean(stats.clean_busy_ns as f64, stats.clean_rows_scanned),
                stats.rows_scanned,
                stats.clean_rows_scanned,
                Some(s.reliability()),
            )
        }
        None => (0.0, 0, 0, None),
    };
    let total_ops = outcome.total_reads + outcome.total_writes;
    let timing = CampaignTiming {
        elapsed,
        ops_per_sec: if elapsed.is_zero() {
            0.0
        } else {
            total_ops as f64 / elapsed.as_secs_f64()
        },
        foreground_mean_ns: mean(latencies_sum as f64, latencies_count),
        foreground_p99_ns: mean(phase_p99_sum, phase_p99_count),
        foreground_max_ns: latencies_max,
        mttr_mean_ns: mean(mttr_sum as f64, mttr_count),
        mttr_max_ns: mttr_max,
        mttr_samples: mttr_count,
        mttr_timeouts,
        scrub_row_scan_ns,
        scrub_rows_scanned,
        scrub_clean_rows,
        optimistic_reads: cache.optimistic_hits(),
    };
    if let Some(s) = scrubber {
        s.stop();
    }
    CampaignReport {
        outcome,
        timing,
        reliability,
    }
}

/// `sum / count`, or zero when nothing was counted.
fn mean(sum: f64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        sum / count as f64
    }
}

/// Runs phase `si` of `round`: seeded traffic on the workers, the
/// scenario's injections (with pre-injection clean discipline and
/// time-to-repair measurement) on an injector thread.
fn run_phase(
    cache: &Arc<ConcurrentBankedCache>,
    cfg: &CampaignConfig,
    round: u32,
    si: usize,
    expected: &mut BTreeMap<u64, u64>,
    uncorrectable_events: &AtomicU64,
) -> (PhaseOutcome, PhaseClock) {
    let scenario = &cfg.scenarios[si];
    let phase_seed = cfg
        .seed
        .wrapping_add((round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add((si as u64).wrapping_mul(0xA076_1D64_78BD_642F));
    // Rotate the injection base bank per phase: with a fixed base,
    // multi-event scenarios (events() == 2) would only ever strike banks
    // 0 and 1 and the higher banks would never see clustered recovery
    // under traffic.
    let bank_offset = (round as usize)
        .wrapping_mul(cfg.scenarios.len())
        .wrapping_add(si);
    let silent = matches!(scenario, FaultScenario::SilentWriteHeavy);
    let traffic = TrafficConfig {
        threads: cfg.threads,
        ops_per_thread: (cfg.ops_per_phase / cfg.threads as u64).max(1),
        write_fraction: if silent { 0.8 } else { cfg.write_fraction },
        lines: cfg.lines,
        zipf_theta: 1.0,
        seed: phase_seed,
        verify: true,
    };
    let mut streams: Vec<Vec<Op>> = (0..cfg.threads)
        .map(|t| generate_ops(&traffic, t))
        .collect();
    if silent {
        // Make write values a pure function of the address: after the
        // first store, every rewrite is a silent write.
        for stream in &mut streams {
            for op in stream.iter_mut() {
                if let Op::Write(addr, value) = op {
                    *value = addr.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ 0x5117E;
                }
            }
        }
    }
    // Record the phase's committed writes (threads own disjoint lines,
    // so per-stream order is program order per address).
    for stream in &streams {
        for op in stream {
            if let Op::Write(addr, value) = *op {
                expected.insert(addr, value);
            }
        }
    }

    let events = scenario.events();
    let barrier = Barrier::new(cfg.threads + usize::from(events > 0));
    let mut phase = PhaseOutcome {
        scenario: scenario.name().to_string(),
        round,
        injections: events as u64,
        ..PhaseOutcome::default()
    };
    let mut clock = PhaseClock::default();
    std::thread::scope(|s| {
        let mut workers = Vec::with_capacity(cfg.threads);
        for (t, ops) in streams.iter().enumerate() {
            let barrier = &barrier;
            let cache = &**cache;
            let threads = cfg.threads;
            workers.push(s.spawn(move || {
                let mut latencies = Vec::with_capacity(ops.len());
                barrier.wait();
                let counts = replay_ops(cache, ops, t, threads, true, Some(&mut latencies));
                (counts, latencies)
            }));
        }
        let injector = (events > 0).then(|| {
            let barrier = &barrier;
            let cache = &**cache;
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(phase_seed ^ 0x001A_7EC7_EDFA_1775);
                let mut cells = 0u64;
                let mut mttr_ns = Vec::with_capacity(events);
                let mut timeouts = 0u64;
                barrier.wait();
                for k in 0..events {
                    let bank = (bank_offset + k) % BANKS;
                    cells += scenario.inject(cache, bank, &mut rng, uncorrectable_events);
                    // Time-to-repair: first observation of a clean bank.
                    let injected_at = Instant::now();
                    loop {
                        if cache.lock_bank(bank).audit() {
                            mttr_ns
                                .push(injected_at.elapsed().as_nanos().min(u64::MAX as u128)
                                    as u64);
                            break;
                        }
                        if injected_at.elapsed() >= cfg.mttr_timeout {
                            timeouts += 1;
                            break;
                        }
                        std::thread::sleep(MTTR_POLL);
                    }
                }
                (cells, mttr_ns, timeouts)
            })
        });
        for worker in workers {
            let ((reads, writes, verified), lat) = worker.join().expect("campaign worker panicked");
            phase.reads += reads;
            phase.writes += writes;
            phase.verified_reads += verified;
            clock.latencies.extend(lat);
        }
        if let Some(injector) = injector {
            let (cells, mttr_ns, timeouts) = injector.join().expect("campaign injector panicked");
            phase.cells = cells;
            clock.mttr_ns = mttr_ns;
            clock.mttr_timeouts = timeouts;
        }
    });
    (phase, clock)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(seed: u64) -> CampaignConfig {
        CampaignConfig {
            ops_per_phase: 600,
            lines: 64,
            ..CampaignConfig::quick(seed)
        }
    }

    #[test]
    fn quick_campaign_is_healthy() {
        let report = run_campaign(&tiny(0xC0C0A));
        let o = &report.outcome;
        assert!(o.healthy(), "{o:?}");
        assert_eq!(o.unrecoverable_words, 0);
        assert_eq!(o.lost_writes, 0);
        assert!(o.final_audit);
        assert!(o.injections > 0, "the deck must inject");
        assert_eq!(o.phases.len(), FaultScenario::library().len());
        assert!(o.verified_reads > 0);
        // The scrubber actually worked.
        assert!(report.timing.scrub_rows_scanned > 0);
        assert!(report.reliability.is_some());
    }

    #[test]
    fn campaign_outcome_is_deterministic() {
        let a = run_campaign(&tiny(42)).outcome;
        let b = run_campaign(&tiny(42)).outcome;
        assert_eq!(a, b, "same seed must give bit-identical outcomes");
        assert_eq!(a.to_json(), b.to_json());
        let c = run_campaign(&tiny(43)).outcome;
        assert_ne!(
            a.data_checksum, c.data_checksum,
            "different seeds must differ"
        );
    }

    #[test]
    fn campaign_without_scrubber_still_heals_on_access() {
        let cfg = CampaignConfig {
            scrubber: None,
            // Without a scrubber, time-to-repair rides on foreground
            // accesses; don't wait long for idle banks.
            mttr_timeout: Duration::from_millis(20),
            ..tiny(7)
        };
        let report = run_campaign(&cfg);
        let o = &report.outcome;
        // The final synchronous scrub still guarantees a clean end
        // state and zero losses.
        assert!(o.healthy(), "{o:?}");
        assert!(!o.scrubbed);
        assert!(report.reliability.is_none());
    }

    #[test]
    fn soak_budget_bounds_rounds() {
        let cfg = CampaignConfig {
            wall_clock_budget: Some(Duration::from_millis(1)),
            rounds: 50,
            ..tiny(9)
        };
        let report = run_campaign(&cfg);
        assert!(report.outcome.rounds >= 1);
        assert!(report.outcome.rounds < 50, "budget must stop the loop");
        assert!(report.outcome.healthy());
    }

    #[test]
    fn silent_phase_exercises_silent_writes() {
        let cfg = CampaignConfig {
            scenarios: vec![
                FaultScenario::SilentWriteHeavy,
                FaultScenario::SilentWriteHeavy,
            ],
            ..tiny(11)
        };
        let report = run_campaign(&cfg);
        assert!(report.outcome.healthy());
        assert_eq!(report.outcome.injections, 0);
    }

    #[test]
    fn every_injected_shape_is_corrected() {
        // The in-coverage promise all three chaos drivers rely on: each
        // deck shape and each storm rectangle (1..=V rows x 1..=2
        // columns), placed into a clean bank, scrubs back to a clean
        // audit with no uncorrectable event.
        let cache = chaos_cache();
        let uncorrectable = AtomicU64::new(0);
        let storm_rects = (1..=32)
            .flat_map(|height| (1..=2).map(move |width| FaultScenario::Rect { height, width }));
        for scenario in FaultScenario::library().into_iter().chain(storm_rects) {
            for seed in 0..64u64 {
                let bank = seed as usize % BANKS;
                let mut rng = StdRng::seed_from_u64(seed);
                let cells = scenario.inject(&cache, bank, &mut rng, &uncorrectable);
                if let FaultScenario::Rect { height, width } = scenario {
                    assert_eq!(cells, (height * width) as u64, "{scenario:?}");
                }
                let mut guard = cache.lock_bank(bank);
                assert!(
                    guard.scrub().is_ok(),
                    "{scenario:?} seed {seed} bank {bank}"
                );
                assert!(guard.audit(), "{scenario:?} seed {seed} bank {bank}");
            }
        }
        assert_eq!(uncorrectable.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn scenario_names_are_stable() {
        let names: Vec<&str> = FaultScenario::library().iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            [
                "single_bits",
                "rect",
                "row_strip",
                "column_strip",
                "l_shape",
                "silent_write_heavy"
            ]
        );
    }
}
