//! The key-value workloads (`get_hot`, `fault_storm`): a closed loop in
//! which one client sends a pipelined batch of [`DEPTH`] requests over a
//! loopback connection to an in-process [`CacheServer`] and waits for
//! every answer before sending the next.
//!
//! The untraced run measures the end-to-end metrics. The traced run
//! records spans around the client's calls, then replays the recorded
//! request batches through each layer's public entry point on its own
//! (`protocol::encode_request`/`decode_response`,
//! `CacheServer::execute_frames`,
//! `ConcurrentBankedCache::execute_batch_observed`, `TwoDArray::recover`)
//! to split a batch into its layers.

use crate::report::{Outcome, Values};
use crate::streams::{self, Fault, FaultStream, RequestStream, DEPTH, KEYS};
use crate::trace::{self, Tracer};
use cachesim::net::protocol::{self, ItemOutcome, ResponseKind};
use cachesim::net::{
    BatchArena, CacheServer, NetClient, Request, Response, ServerConfig, ServerError, ServerStats,
};
use memarray::{BankScheme, EngineStats, TwoDArray};
use std::sync::Arc;
use std::time::{Duration, Instant};
use twod_cache::{
    BatchOp, BatchOutcome, CacheConfig, CacheStats, ConcurrentBankedCache, Scrubber,
    ScrubberConfig, ScrubberStats, TwoDScheme,
};

/// Banks of the server's cache: 8 x 64 sets x 4 ways = 2,048 lines.
pub const BANKS: usize = 8;
/// Requests `fault_storm` sends between two injected clusters.
pub const FAULT_EVERY: u64 = 128;
/// Segments per run, each on a freshly set-up server.
const SEGMENTS: u64 = 10;
/// Set-ups per segment: the last serves the segment, the others are torn
/// down at once. `setup_s` is the median of all of them. One set-up takes
/// ~10 ms, so a few per segment cost little and spread the set-ups over
/// the run, where the host's speed drifts.
const SETUPS_PER_SEGMENT: usize = 3;
/// Batches sent during set-up, after the prefill.
const WARMUP_BATCHES: usize = 256;
/// Most retry rounds a batch gets for shed requests before they count
/// as failed.
const MAX_RETRY_ROUNDS: u32 = 100;
/// Batches the traced run records for the layer replays.
const REPLAY_BATCHES: usize = 4096;
/// Injected faults the traced run replays through `TwoDArray::recover`.
const RECOVERY_REPLAYS: usize = 256;
/// Batch latencies kept per segment: a uniform reservoir sample of all
/// its batches, so memory stays flat however fast the run goes.
const LATENCY_SAMPLES: usize = 1 << 17;

/// The server's cache: the `l1_paper` 2D scheme, 64 sets x 4 ways per
/// bank (the `net_load` configuration).
pub fn cache_config() -> CacheConfig {
    CacheConfig {
        sets: 64,
        ways: 4,
        data_scheme: TwoDScheme::l1_paper(),
        tag_scheme: TwoDScheme {
            data_bits: 50,
            ..TwoDScheme::l1_paper()
        },
    }
}

/// Outcome counts of the client's requests.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    ok: u64,
    failed: u64,
    verified: u64,
    wrong_reads: u64,
    faults: u64,
    transport_errors: u64,
    batches: u64,
    retry_rounds: u64,
    /// Successful requests by the second of the run their batch was sent
    /// in.
    ok_per_sec: Vec<u64>,
}

/// The client connection with its request stream and its model of the
/// value every key holds.
struct Conn {
    client: NetClient,
    stream: RequestStream,
    /// Value of key `k` at `model[k]`; `None` once a transport error
    /// leaves it unknown.
    model: Vec<Option<u64>>,
    batch: Vec<Request>,
    responses: Vec<Response>,
    pending: Vec<usize>,
    retry: Vec<Request>,
}

impl Conn {
    /// Sends the current batch and re-sends its shed requests (after the
    /// largest retry-after hint) until all are answered or the retry
    /// budget is spent. Returns the retry rounds used.
    fn round_trip(&mut self, tracer: &mut Tracer, parent: u64) -> Result<u32, ServerError> {
        let t = Instant::now();
        self.responses = self.client.pipeline(&self.batch)?;
        tracer.record("NetClient.pipeline", parent, t, Instant::now());
        let mut rounds = 0;
        loop {
            self.pending.clear();
            let mut hint_ms = 0u32;
            for (i, r) in self.responses.iter().enumerate() {
                if let Response::Busy { retry_after_ms } | Response::Degraded { retry_after_ms } =
                    *r
                {
                    self.pending.push(i);
                    hint_ms = hint_ms.max(retry_after_ms.max(1));
                }
            }
            if self.pending.is_empty() || rounds >= MAX_RETRY_ROUNDS {
                return Ok(rounds);
            }
            rounds += 1;
            std::thread::sleep(Duration::from_millis(u64::from(hint_ms.min(100))));
            self.retry.clear();
            self.retry
                .extend(self.pending.iter().map(|&i| self.batch[i]));
            let t = Instant::now();
            let again = self.client.pipeline(&self.retry)?;
            tracer.record("NetClient.pipeline.retry", parent, t, Instant::now());
            for (&i, r) in self.pending.iter().zip(again) {
                self.responses[i] = r;
            }
        }
    }

    /// Checks the answers of the current batch in batch order against
    /// the model: every request must end OK/Value, and a read must
    /// return the value last written to its key.
    fn settle(&mut self, tally: &mut Tally, sec: usize) {
        for (req, resp) in self.batch.iter().zip(&self.responses) {
            tally.attempted += 1;
            let good = match (*req, resp) {
                (Request::Set { key, value }, Response::Ok) => {
                    self.model[key as usize] = Some(value);
                    true
                }
                (Request::Get { key }, Response::Value(v)) => match self.model[key as usize] {
                    Some(want) => {
                        tally.verified += 1;
                        let right = *v == want;
                        tally.wrong_reads += u64::from(!right);
                        right
                    }
                    None => true,
                },
                (_, Response::Fault) => {
                    tally.faults += 1;
                    false
                }
                _ => false,
            };
            if good {
                tally.ok += 1;
                trace::count_in(&mut tally.ok_per_sec, sec, 1);
            } else {
                tally.failed += 1;
            }
        }
    }

    /// Writes `items` with `SET_MULTI`, 128 per frame, re-sending the
    /// ones the server sheds. Sheds happen without faults too: a bank
    /// hold that a busy CPU stretches past the slow-op threshold opens a
    /// degraded window.
    fn prefill(&mut self, items: &[(u64, u64)]) -> Result<(), String> {
        let mut outcomes = Vec::new();
        for chunk in items.chunks(128) {
            let mut pending = chunk.to_vec();
            let mut rounds = 0;
            while !pending.is_empty() {
                if rounds > MAX_RETRY_ROUNDS {
                    return Err("prefill: SETs still shed after the retry budget".into());
                }
                rounds += 1;
                self.client
                    .set_multi(&pending, &mut outcomes)
                    .map_err(|e| format!("prefill: {e}"))?;
                let mut hint_ms = 0u32;
                let mut shed = Vec::new();
                for (&item, outcome) in pending.iter().zip(&outcomes) {
                    match *outcome {
                        ItemOutcome::Ok => {}
                        ItemOutcome::Busy { retry_after_ms }
                        | ItemOutcome::Degraded { retry_after_ms } => {
                            hint_ms = hint_ms.max(retry_after_ms.max(1));
                            shed.push(item);
                        }
                        other => {
                            return Err(format!(
                                "prefill: SET of key {} answered {other:?}",
                                item.0
                            ))
                        }
                    }
                }
                if !shed.is_empty() {
                    std::thread::sleep(Duration::from_millis(u64::from(hint_ms.min(100))));
                }
                pending = shed;
            }
        }
        for &(key, value) in items {
            self.model[key as usize] = Some(value);
        }
        Ok(())
    }

    /// Writes off the current batch after a transport error: its writes
    /// may or may not have landed, so their keys leave the model.
    fn abandon(&mut self, tally: &mut Tally) -> Result<(), ServerError> {
        let n = self.batch.len() as u64;
        tally.attempted += n;
        tally.failed += n;
        tally.transport_errors += n;
        for req in &self.batch {
            if let Request::Set { key, .. } = req {
                self.model[*key as usize] = None;
            }
        }
        self.client.reconnect()
    }
}

/// A running server with its connected, prefilled and warmed client.
struct Rig {
    cache: Arc<ConcurrentBankedCache>,
    scrubber: Arc<Scrubber>,
    server: CacheServer,
    conn: Conn,
}

impl Rig {
    fn shutdown(self) {
        drop(self.conn);
        self.server.shutdown();
    }
}

/// Spawns the cache, scrubber and server, connects the client, prefills
/// every key and warms the serve path.
fn setup(seed: u64) -> Result<Rig, String> {
    let cache = Arc::new(ConcurrentBankedCache::new(cache_config(), BANKS));
    let scrubber = Arc::new(Scrubber::spawn(
        Arc::clone(&cache),
        ScrubberConfig::default(),
    ));
    let server = CacheServer::spawn(
        Arc::clone(&cache),
        Some(Arc::clone(&scrubber)),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .map_err(|e| format!("spawn server: {e}"))?;
    let client = NetClient::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
    let mut conn = Conn {
        client,
        stream: RequestStream::new(seed),
        model: vec![None; KEYS],
        batch: Vec::with_capacity(DEPTH),
        responses: Vec::with_capacity(DEPTH),
        pending: Vec::with_capacity(DEPTH),
        retry: Vec::with_capacity(DEPTH),
    };
    conn.prefill(&conn.stream.prefill())?;
    let mut tracer = Tracer::new(Instant::now(), false);
    let mut tally = Tally::default();
    for _ in 0..WARMUP_BATCHES {
        conn.stream.next_batch(&mut conn.batch);
        conn.round_trip(&mut tracer, 0)
            .map_err(|e| format!("warm-up: {e}"))?;
        conn.settle(&mut tally, 0);
    }
    if tally.failed > 0 {
        return Err(format!("warm-up: {} request(s) failed", tally.failed));
    }
    Ok(Rig {
        cache,
        scrubber,
        server,
        conn,
    })
}

/// Uniform reservoir sample (Algorithm R) of batch latencies, driven by
/// a fixed xorshift generator.
struct Reservoir {
    kept: Vec<u64>,
    seen: u64,
    rng: u64,
}

impl Reservoir {
    fn new() -> Self {
        Reservoir {
            kept: Vec::with_capacity(LATENCY_SAMPLES),
            seen: 0,
            rng: 0x9E37_79B9_7F4A_7C15,
        }
    }

    fn push(&mut self, ns: u64) {
        self.seen += 1;
        if self.kept.len() < LATENCY_SAMPLES {
            self.kept.push(ns);
            return;
        }
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        let j = self.rng % self.seen;
        if (j as usize) < LATENCY_SAMPLES {
            self.kept[j as usize] = ns;
        }
    }
}

/// Fault injection state of `fault_storm`.
struct Injector<'a> {
    cache: &'a ConcurrentBankedCache,
    stream: FaultStream,
    next: Fault,
    due_at: u64,
}

impl<'a> Injector<'a> {
    fn new(cache: &'a ConcurrentBankedCache, seed: u64, (rows, cols): (usize, usize)) -> Self {
        let mut stream =
            FaultStream::new(seed, BANKS, rows, cols, TwoDScheme::l1_paper().coverage());
        let next = stream.next_fault();
        Injector {
            cache,
            stream,
            next,
            due_at: FAULT_EVERY,
        }
    }

    /// Injects the next fault once `sent` passes the cadence point and
    /// its bank holds no live cluster (the bank audits clean).
    fn maybe_inject(&mut self, sent: u64, tracer: &mut Tracer, injected: &mut Vec<Fault>) {
        if sent < self.due_at {
            return;
        }
        let bank = self.next.bank;
        let t = Instant::now();
        let clean = self.cache.lock_bank(bank).audit();
        tracer.record("ProtectedCache.audit", 0, t, Instant::now());
        if !clean {
            return;
        }
        let t = Instant::now();
        for shape in &self.next.shapes {
            self.cache.inject_bank_error(bank, *shape);
        }
        tracer.record(
            "ConcurrentBankedCache.inject_bank_error",
            0,
            t,
            Instant::now(),
        );
        let next = self.stream.next_fault();
        injected.push(std::mem::replace(&mut self.next, next));
        self.due_at = sent + FAULT_EVERY;
    }
}

/// Where a segment's window sits in the run.
#[derive(Clone, Copy)]
struct Window {
    start: Instant,
    length: Duration,
    first_sec: usize,
    trace: bool,
}

/// What the traced run keeps from the timed windows for its replays.
#[derive(Default)]
struct Recorded {
    requests: Vec<Request>,
    injected: Vec<Fault>,
}

/// Runs the client's closed loop for one window and returns the batch
/// latency sample.
fn drive(
    conn: &mut Conn,
    win: Window,
    mut injector: Option<Injector<'_>>,
    tracer: &mut Tracer,
    tally: &mut Tally,
    rec: &mut Recorded,
) -> Reservoir {
    let mut latencies = Reservoir::new();
    let mut sent = 0u64;
    loop {
        let elapsed = win.start.elapsed();
        if elapsed >= win.length {
            break;
        }
        // Odd seconds of a traced run record spans; even seconds do not,
        // and the difference between them is the tracing overhead.
        let sec = win.first_sec + elapsed.as_secs() as usize;
        tracer.set_enabled(win.trace && sec % 2 == 1);
        conn.stream.next_batch(&mut conn.batch);
        if win.trace && rec.requests.len() < REPLAY_BATCHES * DEPTH {
            rec.requests.extend_from_slice(&conn.batch);
        }
        if let Some(inj) = injector.as_mut() {
            inj.maybe_inject(sent, tracer, &mut rec.injected);
        }
        sent += conn.batch.len() as u64;
        let id = tracer.open();
        let t0 = Instant::now();
        match conn.round_trip(tracer, id) {
            Ok(rounds) => {
                let t1 = Instant::now();
                tracer.close(id, "batch", 0, t0, t1);
                latencies.push(t1.duration_since(t0).as_nanos() as u64);
                tally.batches += 1;
                tally.retry_rounds += u64::from(rounds);
                conn.settle(tally, sec);
            }
            Err(_) => {
                if conn.abandon(tally).is_err() {
                    break;
                }
            }
        }
    }
    tracer.set_enabled(win.trace);
    latencies
}

/// Counter snapshots of the live server's layers.
struct Snapshot {
    server: ServerStats,
    engine: EngineStats,
    scrub: ScrubberStats,
}

fn snapshot(rig: &Rig, tracer: &mut Tracer) -> Snapshot {
    let t = Instant::now();
    let server = rig.server.stats();
    let t1 = Instant::now();
    tracer.record("CacheServer.stats", 0, t, t1);
    let engine = rig.cache.data_engine_stats();
    let t2 = Instant::now();
    tracer.record("ConcurrentBankedCache.data_engine_stats", 0, t1, t2);
    let scrub = rig.scrubber.stats();
    tracer.record("Scrubber.stats", 0, t2, Instant::now());
    Snapshot {
        server,
        engine,
        scrub,
    }
}

/// Layer counters over the measured windows, summed across segments.
#[derive(Debug, Default)]
struct LayerCounts {
    requests: u64,
    batches: u64,
    sheds: u64,
    ops: u64,
    writes: u64,
    extra_reads: u64,
    silent_writes: u64,
    inline_corrections: u64,
    recoveries: u64,
    recovery_rows_scanned: u64,
    scrub_busy_ns: u64,
    clean_bytes: u64,
    clean_busy_ns: u64,
    repairs: u64,
    wall_ns: u64,
}

impl LayerCounts {
    /// Adds the counts between two snapshots of one segment's window.
    fn add(&mut self, a: &Snapshot, b: &Snapshot, wall: Duration) {
        let (s0, s1) = (&a.server, &b.server);
        let (e0, e1) = (&a.engine, &b.engine);
        let (c0, c1) = (&a.scrub, &b.scrub);
        self.requests += s1.requests - s0.requests;
        self.batches += s1.batches - s0.batches;
        self.sheds += s1.busy_sheds + s1.degraded_sheds - s0.busy_sheds - s0.degraded_sheds;
        self.ops += e1.reads + e1.writes - e0.reads - e0.writes;
        self.writes += e1.writes - e0.writes;
        self.extra_reads += e1.extra_reads - e0.extra_reads;
        self.silent_writes += e1.silent_writes - e0.silent_writes;
        self.inline_corrections += e1.inline_corrections - e0.inline_corrections;
        self.recoveries += e1.recoveries - e0.recoveries;
        self.recovery_rows_scanned += e1.recovery_rows_scanned - e0.recovery_rows_scanned;
        self.scrub_busy_ns += c1.busy_ns - c0.busy_ns;
        self.clean_bytes += c1.clean_bytes_scanned - c0.clean_bytes_scanned;
        self.clean_busy_ns += c1.clean_busy_ns - c0.clean_busy_ns;
        self.repairs += c1.repairs - c0.repairs;
        self.wall_ns += wall.as_nanos() as u64;
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set size of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// [`setup`], with its time appended to `times`.
fn timed_setup(seed: u64, times: &mut Vec<f64>) -> Result<Rig, String> {
    let t = Instant::now();
    let rig = setup(seed).map_err(|e| format!("set-up: {e}"))?;
    times.push(t.elapsed().as_secs_f64());
    Ok(rig)
}

/// Rows, columns and scheme of one bank's data array.
fn bank_array(cache: &ConcurrentBankedCache) -> (usize, usize, Arc<BankScheme>) {
    let bank = cache.lock_bank(0);
    let array = bank.data_array();
    (array.rows(), array.cols(), Arc::clone(array.scheme()))
}

/// Runs one key-value workload for `seconds` and reports its metrics:
/// `get_hot`, or `fault_storm` when `faults` is set.
///
/// The run is [`SEGMENTS`] segments, each on a freshly set-up server: on
/// the reference VM the speed drifts between two levels (median batch
/// ~16 us or ~24 us), so each run samples several servers at several
/// points in time and reports the median of their percentiles.
pub fn run(faults: bool, seed: u64, seconds: u64, trace: bool) -> Outcome {
    let mut outcome = Outcome::default();
    let segments = SEGMENTS.min(seconds);
    let seg_secs = seconds / segments;
    let measured_secs = segments * seg_secs;
    let mut tracer = Tracer::new(Instant::now(), trace);
    let mut setup_s = Vec::new();
    let mut tally = Tally::default();
    let (mut p50s, mut p99s, mut samples) = (Vec::new(), Vec::new(), 0);
    let mut counts = LayerCounts::default();
    let mut rec = Recorded::default();
    let mut array = None;
    for seg in 0..segments {
        let mut rig = match (1..SETUPS_PER_SEGMENT)
            .try_for_each(|_| timed_setup(seed, &mut setup_s).map(Rig::shutdown))
            .and_then(|()| timed_setup(seed, &mut setup_s))
        {
            Ok(r) => r,
            Err(e) => {
                outcome.fail(e);
                return outcome;
            }
        };
        let (rows, cols, scheme) = bank_array(&rig.cache);
        array = Some((rows, cols, scheme));
        let before = snapshot(&rig, &mut tracer);
        let win = Window {
            start: Instant::now(),
            length: Duration::from_secs(seg_secs),
            first_sec: (seg * seg_secs) as usize,
            trace,
        };
        let injector = faults.then(|| Injector::new(&rig.cache, seed, (rows, cols)));
        let mut latencies = drive(
            &mut rig.conn,
            win,
            injector,
            &mut tracer,
            &mut tally,
            &mut rec,
        )
        .kept;
        let wall = win.start.elapsed();
        let after = snapshot(&rig, &mut tracer);
        counts.add(&before, &after, wall);
        latencies.sort_unstable();
        samples += latencies.len();
        match (
            trace::percentile(&latencies, 0.50),
            trace::percentile(&latencies, 0.99),
        ) {
            (Ok(a), Ok(b)) => {
                p50s.push(a as f64 / 1e3);
                p99s.push(b as f64 / 1e3);
            }
            (Err(e), _) | (_, Err(e)) => outcome.fail(format!("segment {seg}: {e}")),
        }
        rig.shutdown();
    }
    let Some((rows, cols, scheme)) = array else {
        outcome.fail("no segment ran".into());
        return outcome;
    };

    outcome.attempted = tally.attempted;
    outcome.failed = tally.failed;
    if tally.wrong_reads > 0 {
        outcome.fail(format!(
            "{} of {} read(s) missed the key's last written value",
            tally.wrong_reads, tally.verified
        ));
    }
    if tally.faults > 0 {
        outcome.fail(format!("{} request(s) answered FAULT", tally.faults));
    }
    if tally.failed > 0 {
        outcome.fail(format!(
            "{} of {} request(s) not answered OK/Value ({} transport error(s))",
            tally.failed, tally.attempted, tally.transport_errors
        ));
    }
    let cover = TwoDScheme::l1_paper().coverage();
    for f in &rec.injected {
        if !streams::fits(f, rows, cols, cover) {
            outcome.fail(format!("injected {f:?} exceeds coverage {cover:?}"));
        }
    }
    if faults && rec.injected.is_empty() {
        outcome.fail("no fault was injected".into());
    }

    let throughput = trace::mean_rate(&tally.ok_per_sec, measured_secs, |_| true);
    let failed_frac = ratio(tally.failed as f64, tally.attempted as f64);
    let (p50, p99) = (trace::median(&mut p50s), trace::median(&mut p99s));
    outcome.note(format!(
        "1 connection, closed loop, {DEPTH} requests per batch, \
         {segments} segments of {seg_secs} s, {} batches, {} faults injected",
        tally.batches,
        rec.injected.len()
    ));
    outcome.note(format!(
        "throughput {throughput:.0} req/s, failed_frac {failed_frac}, {} verified read(s)",
        tally.verified
    ));
    outcome.note(format!(
        "batch p50 {p50:.1} us, p99 {p99:.1} us (medians over segments; {samples} samples)"
    ));

    if !trace {
        let v = &mut outcome.metrics;
        v.set("throughput_rps", throughput);
        v.set("batch_p50_us", p50);
        v.set("batch_p99_us", p99);
        v.set("ok_frac", 1.0 - failed_frac);
        v.set("setup_s", trace::median(&mut setup_s));
        v.set("peak_rss_mb", peak_rss_mb());
        return outcome;
    }

    // Traced run: per-layer metrics.
    let v = &mut outcome.metrics;
    let untraced = trace::mean_rate(&tally.ok_per_sec, measured_secs, |s| s % 2 == 0);
    let traced = trace::mean_rate(&tally.ok_per_sec, measured_secs, |s| s % 2 == 1);
    v.set("trace.overhead_frac", ratio(untraced - traced, untraced));

    let c = &counts;
    let requests = c.requests as f64;
    v.set(
        "net.reqs_per_server_batch",
        ratio(requests, c.batches as f64),
    );
    v.set("net.shed_frac", ratio(c.sheds as f64, requests));
    v.set(
        "net.retry_rounds_per_batch",
        ratio(tally.retry_rounds as f64, tally.batches as f64),
    );
    v.set(
        "engine.inline_corrections_per_op",
        ratio(c.inline_corrections as f64, c.ops as f64),
    );
    v.set("engine.recoveries", c.recoveries as f64);
    v.set(
        "engine.recovery_rows_scanned",
        c.recovery_rows_scanned as f64,
    );
    v.set(
        "engine.extra_reads_per_op",
        ratio(c.extra_reads as f64, c.ops as f64),
    );
    v.set(
        "engine.silent_write_frac",
        ratio(c.silent_writes as f64, c.writes as f64),
    );
    v.set(
        "scrub.busy_frac",
        ratio(c.scrub_busy_ns as f64, c.wall_ns as f64),
    );
    v.set(
        "scrub.clean_scan_gbps",
        ratio(c.clean_bytes as f64, c.clean_busy_ns as f64),
    );
    v.set("scrub.repairs", c.repairs as f64);

    // The replays run on fresh instances, after the timed windows.
    let round_us = tracer.mean_ns("NetClient.pipeline") / 1e3;
    let prefill = RequestStream::new(seed).prefill();
    if let Err(e) = replay_server(&prefill, &rec.requests, &mut tracer) {
        outcome.fail(format!("server replay: {e}"));
    }
    if let Err(e) = replay_cache(&prefill, &rec.requests, &mut tracer, &mut outcome.metrics) {
        outcome.fail(format!("cache replay: {e}"));
    }
    if let Err(e) = replay_recovery(scheme, &rec.injected, &mut tracer) {
        outcome.fail(format!("recovery replay: {e}"));
    }
    let v = &mut outcome.metrics;
    let server_us = tracer.mean_ns("CacheServer.execute_frames") / 1e3;
    let codec_ns = ratio(
        (tracer.total("protocol.encode_request").1 + tracer.total("protocol.decode_response").1)
            as f64,
        rec.requests.len() as f64,
    );
    v.set("net.server_us_per_batch", server_us);
    v.set("net.codec_ns_per_req", codec_ns);
    v.set(
        "net.transport_us_per_batch",
        round_us - server_us - codec_ns * DEPTH as f64 / 1e3,
    );
    v.set(
        "engine.recovery_us",
        tracer.mean_ns("TwoDArray.recover") / 1e3,
    );
    outcome.tracer = Some(tracer);
    outcome
}

/// Replays the `recorded` batches through a fresh server's
/// `execute_frames`, timing the client-side codec around it.
fn replay_server(
    prefill: &[(u64, u64)],
    recorded: &[Request],
    tracer: &mut Tracer,
) -> Result<(), String> {
    let cache = Arc::new(ConcurrentBankedCache::new(cache_config(), BANKS));
    let server = CacheServer::spawn(
        cache,
        None,
        "127.0.0.1:0",
        ServerConfig {
            // Keep the health monitor asleep: the replay times the
            // serve path alone.
            monitor_interval: Duration::from_secs(3600),
            ..ServerConfig::default()
        },
    )
    .map_err(|e| format!("spawn: {e}"))?;
    let mut arena = BatchArena::new();
    let mut frames = Vec::new();
    let mut out = Vec::new();
    let mut id = 1u32;
    let result = (|| {
        for chunk in prefill.chunks(256) {
            frames.clear();
            for &(key, value) in chunk {
                protocol::encode_request(id, &Request::Set { key, value }, &mut frames);
                id = id.wrapping_add(1);
            }
            out.clear();
            server
                .execute_frames(&frames, &mut out, &mut arena)
                .map_err(|e| format!("prefill: {e}"))?;
        }
        for batch in recorded.chunks(DEPTH) {
            let parent = tracer.open();
            let t0 = Instant::now();
            frames.clear();
            let first = id;
            for req in batch {
                protocol::encode_request(id, req, &mut frames);
                id = id.wrapping_add(1);
            }
            let t1 = Instant::now();
            out.clear();
            server
                .execute_frames(&frames, &mut out, &mut arena)
                .map_err(|e| format!("execute: {e}"))?;
            let t2 = Instant::now();
            let mut pos = 0;
            for (i, req) in batch.iter().enumerate() {
                let len = out
                    .get(pos..pos + 4)
                    .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]) as usize)
                    .ok_or("short response stream")?;
                let payload = out.get(pos + 4..pos + 4 + len).ok_or("short frame")?;
                let (got, resp) = protocol::decode_response(payload, ResponseKind::of(req))
                    .map_err(|e| format!("decode: {e}"))?;
                if got != first.wrapping_add(i as u32) {
                    return Err(format!("response id {got} out of order"));
                }
                if matches!(resp, Response::Fault | Response::BadRequest) {
                    return Err(format!("{req:?} answered {resp:?}"));
                }
                pos += 4 + len;
            }
            let t3 = Instant::now();
            tracer.record("protocol.encode_request", parent, t0, t1);
            tracer.record("CacheServer.execute_frames", parent, t1, t2);
            tracer.record("protocol.decode_response", parent, t2, t3);
            tracer.close(parent, "replay.batch", 0, t0, t3);
        }
        Ok(())
    })();
    server.shutdown();
    result
}

/// Replays the `recorded` batches as cache ops through a fresh cache's
/// `execute_batch_observed` and sets the `cache.*` metrics.
fn replay_cache(
    prefill: &[(u64, u64)],
    recorded: &[Request],
    tracer: &mut Tracer,
    v: &mut Values,
) -> Result<(), String> {
    let cache = ConcurrentBankedCache::new(cache_config(), BANKS);
    let mut ops = Vec::with_capacity(DEPTH.max(256));
    let mut outs = Vec::new();
    for chunk in prefill.chunks(256) {
        ops.clear();
        ops.extend(
            chunk
                .iter()
                .map(|&(k, val)| BatchOp::Write(protocol::route_key(k), val)),
        );
        cache.execute_batch(&ops, &mut outs);
    }
    let s0: CacheStats = cache.stats();
    let locks0 = cache.lock_acquisitions();
    let opt0 = cache.optimistic_hits();
    let (mut hold_ns, mut holds, mut reads, mut n) = (0u128, 0u64, 0u64, 0u64);
    for batch in recorded.chunks(DEPTH) {
        ops.clear();
        ops.extend(batch.iter().map(|req| match *req {
            Request::Get { key } => BatchOp::Read(protocol::route_key(key)),
            Request::Set { key, value } => BatchOp::Write(protocol::route_key(key), value),
            _ => BatchOp::Read(0),
        }));
        reads += ops.iter().filter(|o| matches!(o, BatchOp::Read(_))).count() as u64;
        n += ops.len() as u64;
        let t = Instant::now();
        cache.execute_batch_observed(&ops, &mut outs, |_, held| {
            hold_ns += held.as_nanos();
            holds += 1;
        });
        tracer.record(
            "ConcurrentBankedCache.execute_batch_observed",
            0,
            t,
            Instant::now(),
        );
        if let Some(bad) = outs.iter().find(|o| matches!(o, BatchOutcome::Failed(_))) {
            return Err(format!("{bad:?}"));
        }
    }
    let locks = cache.lock_acquisitions() - locks0;
    let opt = cache.optimistic_hits() - opt0;
    let s1 = cache.stats();
    let hits = (s1.read_hits + s1.write_hits) - (s0.read_hits + s0.write_hits);
    let misses = (s1.read_misses + s1.write_misses) - (s0.read_misses + s0.write_misses);
    let nf = n as f64;
    let exec_ns = tracer
        .total("ConcurrentBankedCache.execute_batch_observed")
        .1 as f64;
    v.set("cache.execute_ns_per_op", ratio(exec_ns, nf));
    v.set("cache.bank_hold_ns", ratio(hold_ns as f64, holds as f64));
    v.set("cache.locks_per_op", ratio(locks as f64, nf));
    v.set("cache.optimistic_frac", ratio(opt as f64, reads as f64));
    v.set(
        "cache.hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
    );
    v.set(
        "cache.writebacks_per_op",
        ratio((s1.writebacks - s0.writebacks) as f64, nf),
    );
    Ok(())
}

/// Re-injects the first recorded faults into a bank-sized `TwoDArray`
/// and times the `recover` call that repairs each.
fn replay_recovery(
    scheme: Arc<BankScheme>,
    faults: &[Fault],
    tracer: &mut Tracer,
) -> Result<(), String> {
    let mut array = TwoDArray::from_scheme(scheme);
    for fault in faults.iter().take(RECOVERY_REPLAYS) {
        for shape in &fault.shapes {
            array.inject(*shape);
        }
        let t = Instant::now();
        let report = array.recover();
        tracer.record("TwoDArray.recover", 0, t, Instant::now());
        report.map_err(|e| format!("{fault:?}: {e:?}"))?;
        if !array.audit() {
            return Err(format!("{fault:?} left the array dirty"));
        }
    }
    Ok(())
}
