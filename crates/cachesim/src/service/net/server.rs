//! The fault-tolerant TCP tier over [`ConcurrentBankedCache`]:
//! thread-per-connection acceptors, bounded per-bank admission with
//! explicit backpressure, per-connection deadlines with idle reaping, a
//! degraded mode that sheds requests targeting recovering banks, and a
//! graceful drain shutdown.
//!
//! # Failure domains
//!
//! The server's whole design goal is that failure stays local:
//!
//! * a **malformed frame** produces a typed [`ServerError`] and closes
//!   that one connection (after a best-effort `BAD_REQUEST` when the
//!   request id could still be parsed) — the process never panics on
//!   network input;
//! * a **slow or dead client** hits its read/write deadline and is
//!   reaped; its admission slots are released by RAII guards, so a
//!   stuck socket can never leak bank capacity;
//! * a **bank under recovery** sheds its requests with
//!   `DEGRADED` + retry-after while every healthy bank keeps serving at
//!   full throughput — degradation is graceful, not a hang;
//! * a **full admission queue** answers `BUSY` immediately instead of
//!   buffering unboundedly — memory stays bounded under any offered
//!   load.
//!
//! # Degraded mode
//!
//! A bank enters the degraded window when the health monitor observes
//! new error events on it (inline corrections, recoveries, scrub
//! finds), when a handler's operation on it exceeds
//! [`ServerConfig::slow_op_threshold`] (a recovery ran inline), or when
//! an operation returns an uncorrectable `EngineError`. The window
//! extends [`ServerConfig::degraded_window`] past the last trigger;
//! while it is open, requests routed to the bank are shed with a
//! `DEGRADED` response carrying the remaining window as its retry-after
//! hint. Administrative [`CacheServer::quarantine_bank`] sheds
//! indefinitely until lifted. The `HEALTH` opcode exposes all of it.
//!
//! # Batched execution
//!
//! The handler is batch-native: after a blocking [`protocol::next_frame`]
//! has a frame, every *complete* frame sitting in the connection's
//! `BufReader` — the first one included — is greedily drained and
//! decoded in place into a reusable [`BatchArena`], single ops and
//! `GET_MULTI`/`SET_MULTI` items alike. Only a frame split across reads
//! is copied out first, by [`protocol::read_frame`]. Every op is routed to its bank once
//! ([`ConcurrentBankedCache::route_batch`]); admission runs once per bank
//! *group* of that route (slots reserved in bulk, sheds decided per
//! item), the cache executes the admitted route via
//! [`ConcurrentBankedCache::execute_routed`] (at most one bank lock per
//! group, optimistic reads still per-op), and all responses go
//! out in one buffered write + flush. The arena and the connection's
//! `payload`/`out` buffers are reused across batches, so the clean
//! GET/SET serve path performs **zero heap allocations per request** —
//! pinned by the counting-allocator test in `bench/tests` and the
//! `net_batch.allocs_per_op` bench row.

use super::protocol::{
    self, Arrival, BankHealth, HealthReport, ItemOutcome, ProtocolError, Request, RequestFrame,
    Response, ScrubSnapshot, ServerError,
};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use twod_cache::{
    BatchOp, BatchOutcome, BatchRoute, ConcurrentBankedCache, Scrubber, ScrubberStats,
};

/// Configuration of a [`CacheServer`].
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Admission bound per bank: requests beyond this many concurrently
    /// executing on one bank get `BUSY` instead of queueing.
    pub max_inflight_per_bank: u32,
    /// Per-connection read deadline: a frame that started arriving must
    /// make progress within this window per read, or the connection is
    /// closed.
    pub read_timeout: Duration,
    /// Per-connection write deadline: a client that stops draining its
    /// responses is disconnected rather than buffered against.
    pub write_timeout: Duration,
    /// Idle reaping horizon: a connection with no traffic at all for
    /// this long is closed. Idleness is counted in consecutive idle
    /// polls of one `read_timeout` each, with no clock read: the
    /// connection is reaped once `read_timeout × polls ≥ idle_timeout`,
    /// so the horizon is rounded up to whole read timeouts.
    pub idle_timeout: Duration,
    /// How long a bank stays degraded past its last error observation.
    pub degraded_window: Duration,
    /// Retry-after hint returned with `BUSY` (admission) sheds and with
    /// quarantined-bank sheds.
    pub retry_after: Duration,
    /// Cadence of the background health monitor that watches per-bank
    /// observed-error counters.
    pub monitor_interval: Duration,
    /// A single cache operation taking longer than this marks its bank
    /// degraded (an inline recovery ran).
    pub slow_op_threshold: Duration,
    /// Hard cap on simultaneously open connections; accepts beyond it
    /// are closed immediately.
    pub max_connections: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_inflight_per_bank: 64,
            read_timeout: Duration::from_millis(500),
            write_timeout: Duration::from_millis(500),
            idle_timeout: Duration::from_secs(30),
            degraded_window: Duration::from_millis(20),
            retry_after: Duration::from_millis(5),
            monitor_interval: Duration::from_millis(2),
            slow_op_threshold: Duration::from_millis(5),
            max_connections: 1024,
        }
    }
}

/// Monotonic aggregate counters of a running server.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted.
    pub connections_accepted: u64,
    /// Connections closed for idling past the horizon.
    pub connections_reaped: u64,
    /// Connections closed on a protocol error.
    pub protocol_errors: u64,
    /// Requests answered (any status).
    pub requests: u64,
    /// Requests shed with `BUSY` (admission bound).
    pub busy_sheds: u64,
    /// Requests shed with `DEGRADED` (recovery window / quarantine).
    pub degraded_sheds: u64,
    /// Requests answered `FAULT` (uncorrectable damage).
    pub faults: u64,
    /// Requests answered `BAD_REQUEST`.
    pub bad_requests: u64,
    /// Frame batches executed (each batch = one arena fill, one bank
    /// grouping pass, one buffered response write).
    pub batches: u64,
    /// Keyed items carried inside `GET_MULTI`/`SET_MULTI` frames.
    pub multi_items: u64,
}

/// Per-bank admission gate + degraded-mode state, all lock-free.
struct BankGate {
    /// Requests currently admitted and executing against the bank.
    inflight: AtomicU32,
    /// Nanoseconds (on the server's monotonic clock) until which the
    /// bank sheds; `0` means healthy.
    degraded_until_ns: AtomicU64,
    /// Administrative quarantine: sheds until explicitly lifted.
    quarantined: AtomicBool,
    /// Requests this bank shed (`BUSY` + `DEGRADED`).
    shed: AtomicU64,
    /// Monitor bookkeeping: last observed-error count seen.
    last_observed: AtomicU64,
}

impl BankGate {
    fn new() -> Self {
        BankGate {
            inflight: AtomicU32::new(0),
            degraded_until_ns: AtomicU64::new(0),
            quarantined: AtomicBool::new(false),
            shed: AtomicU64::new(0),
            last_observed: AtomicU64::new(0),
        }
    }
}

/// RAII bulk-admission release: returns every bank group's reserved
/// slots on drop, so a panicking or erroring handler can never leak
/// bank capacity — the batch-era equivalent of a per-op admit guard.
struct AdmitRelease<'a> {
    gates: &'a [BankGate],
    admitted: &'a mut Vec<(usize, u32)>,
}

impl Drop for AdmitRelease<'_> {
    fn drop(&mut self) {
        for &(bank, n) in self.admitted.iter() {
            self.gates[bank].inflight.fetch_sub(n, Ordering::Release);
        }
        self.admitted.clear();
    }
}

struct Shared {
    cache: Arc<ConcurrentBankedCache>,
    scrubber: Option<Arc<Scrubber>>,
    cfg: ServerConfig,
    epoch: Instant,
    /// Set once at shutdown: acceptors stop accepting, handlers finish
    /// the request in flight (drain) and close.
    stop: AtomicBool,
    gates: Vec<BankGate>,
    open_connections: AtomicU64,
    stats: StatCells,
}

#[derive(Default)]
struct StatCells {
    connections_accepted: AtomicU64,
    connections_reaped: AtomicU64,
    protocol_errors: AtomicU64,
    requests: AtomicU64,
    busy_sheds: AtomicU64,
    degraded_sheds: AtomicU64,
    faults: AtomicU64,
    bad_requests: AtomicU64,
    batches: AtomicU64,
    multi_items: AtomicU64,
}

impl Shared {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }

    /// Marks a bank degraded for `cfg.degraded_window` from now. The
    /// window only ever extends (monotonic max), so concurrent triggers
    /// cannot shrink each other.
    fn mark_degraded(&self, bank: usize) {
        let until =
            self.now_ns() + self.cfg.degraded_window.as_nanos().min(u64::MAX as u128) as u64;
        self.gates[bank]
            .degraded_until_ns
            .fetch_max(until, Ordering::Relaxed);
    }

    /// Remaining shed window of a bank in milliseconds: `None` when the
    /// bank is healthy.
    fn shed_hint_ms(&self, bank: usize) -> Option<u32> {
        let gate = &self.gates[bank];
        if gate.quarantined.load(Ordering::Relaxed) {
            return Some(self.cfg.retry_after.as_millis().clamp(1, u32::MAX as u128) as u32);
        }
        let until = gate.degraded_until_ns.load(Ordering::Relaxed);
        if until == 0 {
            return None;
        }
        let now = self.now_ns();
        if now >= until {
            return None;
        }
        Some((((until - now) / 1_000_000) + 1).min(u32::MAX as u64) as u32)
    }

    fn health_report(&self) -> HealthReport {
        let now = self.now_ns();
        let banks = self
            .gates
            .iter()
            .enumerate()
            .map(|(i, gate)| {
                let until = gate.degraded_until_ns.load(Ordering::Relaxed);
                let degraded = until > now;
                BankHealth {
                    degraded,
                    quarantined: gate.quarantined.load(Ordering::Relaxed),
                    inflight: gate.inflight.load(Ordering::Relaxed),
                    admission_limit: self.cfg.max_inflight_per_bank,
                    observed_errors: gate.last_observed.load(Ordering::Relaxed),
                    shed: gate.shed.load(Ordering::Relaxed),
                    retry_after_ms: self.shed_hint_ms(i).unwrap_or(0),
                }
            })
            .collect();
        let scrubber = self.scrubber.as_ref().map(|s| s.stats());
        HealthReport {
            banks,
            clean_scan_gbps: scrubber
                .as_ref()
                .map_or(0.0, ScrubberStats::clean_scan_gbps),
            scrubber,
        }
    }

    fn scrub_snapshot(&self) -> ScrubSnapshot {
        match &self.scrubber {
            Some(s) => {
                let rel = s.reliability();
                ScrubSnapshot {
                    attached: true,
                    stats: s.stats(),
                    events: rel.events,
                    device_hours: rel.hours,
                    fit_per_mbit: rel.fit_per_mbit,
                }
            }
            None => ScrubSnapshot::default(),
        }
    }
}

/// A running `twod-server` instance: owns the listener, the acceptor
/// and monitor threads, and one handler thread per live connection.
///
/// # Examples
///
/// ```no_run
/// use std::sync::Arc;
/// use cachesim::net::{CacheServer, NetClient, ServerConfig};
/// use twod_cache::{CacheConfig, ConcurrentBankedCache};
///
/// let cache = Arc::new(ConcurrentBankedCache::new(CacheConfig::l1_64kb(), 4));
/// let server = CacheServer::spawn(cache, None, "127.0.0.1:0", ServerConfig::default()).unwrap();
/// let mut client = NetClient::connect(server.local_addr()).unwrap();
/// client.set(7, 42).unwrap();
/// assert_eq!(client.get(7).unwrap(), 42);
/// server.shutdown();
/// ```
pub struct CacheServer {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    monitor: Option<JoinHandle<()>>,
    /// Live + finished handler threads; reaped opportunistically by the
    /// acceptor and fully joined at shutdown.
    handlers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl CacheServer {
    /// Binds `addr` and starts serving `cache` (optionally reporting the
    /// given scrubber's telemetry over `HEALTH`/`SCRUB_STATS`).
    ///
    /// # Errors
    ///
    /// Returns the bind error if the address cannot be bound.
    pub fn spawn(
        cache: Arc<ConcurrentBankedCache>,
        scrubber: Option<Arc<Scrubber>>,
        addr: &str,
        cfg: ServerConfig,
    ) -> Result<CacheServer, ServerError> {
        let listener = TcpListener::bind(addr).map_err(ServerError::Io)?;
        let local_addr = listener.local_addr().map_err(ServerError::Io)?;
        let banks = cache.banks();
        let shared = Arc::new(Shared {
            cache,
            scrubber,
            cfg,
            epoch: Instant::now(),
            stop: AtomicBool::new(false),
            gates: (0..banks).map(|_| BankGate::new()).collect(),
            open_connections: AtomicU64::new(0),
            stats: StatCells::default(),
        });
        let handlers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let acceptor = {
            let shared = Arc::clone(&shared);
            let handlers = Arc::clone(&handlers);
            std::thread::Builder::new()
                .name("twod-acceptor".into())
                .spawn(move || accept_loop(&listener, &shared, &handlers))
                .map_err(ServerError::Io)?
        };
        let monitor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("twod-health-monitor".into())
                .spawn(move || monitor_loop(&shared))
                .map_err(ServerError::Io)?
        };
        Ok(CacheServer {
            shared,
            local_addr,
            acceptor: Some(acceptor),
            monitor: Some(monitor),
            handlers,
        })
    }

    /// The address the server is listening on (useful with port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Snapshot of the aggregate request counters.
    pub fn stats(&self) -> ServerStats {
        let s = &self.shared.stats;
        ServerStats {
            connections_accepted: s.connections_accepted.load(Ordering::Relaxed),
            connections_reaped: s.connections_reaped.load(Ordering::Relaxed),
            protocol_errors: s.protocol_errors.load(Ordering::Relaxed),
            requests: s.requests.load(Ordering::Relaxed),
            busy_sheds: s.busy_sheds.load(Ordering::Relaxed),
            degraded_sheds: s.degraded_sheds.load(Ordering::Relaxed),
            faults: s.faults.load(Ordering::Relaxed),
            bad_requests: s.bad_requests.load(Ordering::Relaxed),
            batches: s.batches.load(Ordering::Relaxed),
            multi_items: s.multi_items.load(Ordering::Relaxed),
        }
    }

    /// The health report the `HEALTH` opcode serves, available
    /// in-process without a socket.
    pub fn health(&self) -> HealthReport {
        self.shared.health_report()
    }

    /// Number of handler threads currently tracked by the accept loop.
    /// Finished handlers are reaped on every accept, so this stays
    /// bounded by the number of *live* connections (plus at most the
    /// finished-but-not-yet-reaped stragglers since the last accept) —
    /// it does not grow with the total connections ever served.
    pub fn tracked_handler_threads(&self) -> usize {
        self.handlers
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .len()
    }

    /// Deterministic in-process batch harness: decodes every
    /// length-prefixed frame in `frames`, executes them as one batch
    /// (exactly the path a pipelined connection takes after the greedy
    /// drain), and appends all responses to `out`. Returns the number
    /// of frames served.
    ///
    /// Benches and counting-allocator tests drive this to pin the
    /// batched serve path's lock and allocation behavior without a
    /// socket (and therefore without kernel buffering nondeterminism).
    ///
    /// # Errors
    ///
    /// Returns the typed [`ProtocolError`] on a malformed frame, after
    /// serving everything decoded before it — mirroring the connection
    /// handler's close-on-fatal behavior.
    pub fn execute_frames(
        &self,
        frames: &[u8],
        out: &mut Vec<u8>,
        arena: &mut BatchArena,
    ) -> Result<usize, ServerError> {
        arena.clear();
        let mut rest = frames;
        let mut fatal: Option<ProtocolError> = None;
        while !rest.is_empty() {
            if rest.len() < 4 {
                fatal = Some(ProtocolError::Truncated {
                    need: 4,
                    got: rest.len(),
                });
                break;
            }
            let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
            if len > protocol::MAX_FRAME_BYTES {
                fatal = Some(ProtocolError::Oversized { len });
                break;
            }
            if len == 0 {
                fatal = Some(ProtocolError::Empty);
                break;
            }
            if rest.len() < 4 + len {
                fatal = Some(ProtocolError::Truncated {
                    need: len,
                    got: rest.len() - 4,
                });
                break;
            }
            if let Err(f) = decode_frame_into(&self.shared, &rest[4..4 + len], arena) {
                fatal = Some(f.err);
                break;
            }
            rest = &rest[4 + len..];
        }
        let served = arena.frames.len();
        execute_arena(&self.shared, arena, out);
        match fatal {
            Some(err) => {
                self.shared
                    .stats
                    .protocol_errors
                    .fetch_add(1, Ordering::Relaxed);
                Err(ServerError::Protocol(err))
            }
            None => Ok(served),
        }
    }

    /// Administratively quarantines (or lifts quarantine from) one bank:
    /// while quarantined, every request routed to the bank is shed with
    /// `DEGRADED`. Chaos campaigns use this to force degradation
    /// deterministically.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range (an operator error, not network
    /// input — requests can never reach this).
    pub fn quarantine_bank(&self, bank: usize, quarantined: bool) {
        self.shared.gates[bank]
            .quarantined
            .store(quarantined, Ordering::Relaxed);
    }

    /// Gracefully shuts down: stops accepting, lets every handler finish
    /// the request it is executing and flush its responses (drain), then
    /// joins all threads. Idempotent-safe by construction (consumes the
    /// server).
    pub fn shutdown(mut self) {
        self.begin_shutdown();
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        if let Some(h) = self.monitor.take() {
            let _ = h.join();
        }
        let handlers = std::mem::take(
            &mut *self
                .handlers
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner()),
        );
        for h in handlers {
            let _ = h.join();
        }
    }

    fn begin_shutdown(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Unblock the acceptor's blocking `accept` with a self-connect;
        // if that fails (e.g. the listener already died) the acceptor's
        // own error path exits the loop.
        let _ = TcpStream::connect(self.local_addr);
    }
}

impl Drop for CacheServer {
    fn drop(&mut self) {
        // `shutdown()` takes `self` by value and clears the handles; a
        // plain drop performs the same sequence best-effort.
        if self.acceptor.is_some() || self.monitor.is_some() {
            self.begin_shutdown();
            if let Some(h) = self.acceptor.take() {
                let _ = h.join();
            }
            if let Some(h) = self.monitor.take() {
                let _ = h.join();
            }
            let handlers = std::mem::take(
                &mut *self
                    .handlers
                    .lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner()),
            );
            for h in handlers {
                let _ = h.join();
            }
        }
    }
}

impl std::fmt::Debug for CacheServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "CacheServer({} on {}, {:?})",
            self.shared.cache.banks(),
            self.local_addr,
            self.stats()
        )
    }
}

/// Accept loop: one handler thread per connection, with opportunistic
/// reaping of finished handler handles so the vector stays bounded by
/// the live connection count.
fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    handlers: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shared.stop.load(Ordering::SeqCst) {
            // The self-connect (or a late client) during shutdown.
            let _ = stream.shutdown(Shutdown::Both);
            return;
        }
        if shared.open_connections.load(Ordering::Relaxed) >= shared.cfg.max_connections as u64 {
            let _ = stream.shutdown(Shutdown::Both);
            continue;
        }
        shared.open_connections.fetch_add(1, Ordering::Relaxed);
        shared
            .stats
            .connections_accepted
            .fetch_add(1, Ordering::Relaxed);
        {
            // Reap finished handlers so the handle list tracks live
            // connections, not connection history.
            let mut list = handlers
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            list.retain(|h| !h.is_finished());
            let conn_shared = Arc::clone(shared);
            match std::thread::Builder::new()
                .name("twod-conn".into())
                .spawn(move || {
                    handle_connection(stream, &conn_shared);
                    conn_shared.open_connections.fetch_sub(1, Ordering::Relaxed);
                }) {
                Ok(handle) => list.push(handle),
                Err(_) => {
                    // Spawn failure (resource exhaustion): shed the
                    // connection instead of dying.
                    shared.open_connections.fetch_sub(1, Ordering::Relaxed);
                }
            }
        }
    }
}

/// Health monitor: watches per-bank observed-error counters and opens
/// the degraded window on any new activity, so requests arriving while
/// a bank is mid-recovery are shed rather than queued behind the
/// recovery lock.
fn monitor_loop(shared: &Arc<Shared>) {
    while !shared.stop.load(Ordering::SeqCst) {
        for bank in 0..shared.cache.banks() {
            let observed = shared.cache.bank_observed_errors(bank);
            let prev = shared.gates[bank]
                .last_observed
                .swap(observed, Ordering::Relaxed);
            if observed > prev {
                shared.mark_degraded(bank);
            }
        }
        // Sleep in short slices so shutdown never has to wait out a
        // long monitor cadence (benches park the monitor for hours).
        let mut remaining = shared.cfg.monitor_interval;
        while !remaining.is_zero() && !shared.stop.load(Ordering::SeqCst) {
            let slice = remaining.min(Duration::from_millis(20));
            std::thread::sleep(slice);
            remaining -= slice;
        }
    }
}

/// Per-connection handler: frame loop with deadlines, greedy batch
/// draining, and typed-error close paths.
fn handle_connection(stream: TcpStream, shared: &Arc<Shared>) {
    // Socket deadlines: every blocking read/write call is bounded, so a
    // dead peer cannot wedge this thread past its timeout.
    if stream
        .set_read_timeout(Some(shared.cfg.read_timeout))
        .is_err()
        || stream
            .set_write_timeout(Some(shared.cfg.write_timeout))
            .is_err()
        || stream.set_nodelay(true).is_err()
    {
        let _ = stream.shutdown(Shutdown::Both);
        return;
    }
    let reader_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => {
            let _ = stream.shutdown(Shutdown::Both);
            return;
        }
    };
    let mut reader = BufReader::new(reader_stream);
    let mut writer = BufWriter::new(stream);
    let mut payload: Vec<u8> = Vec::new();
    let mut out: Vec<u8> = Vec::new();
    let mut arena = BatchArena::new();
    // Consecutive idle polls, each one `read_timeout` long: the idle
    // clock, with no clock read per batch.
    let mut idle_polls = 0u32;
    let close_reason = loop {
        // Drain contract: once shutdown begins we stop reading new
        // frames; everything already answered has been flushed below.
        if shared.stop.load(Ordering::SeqCst) {
            break CloseReason::Drained;
        }
        let arrival = match protocol::next_frame(&mut reader, &mut payload) {
            Ok(Arrival::Eof) => break CloseReason::PeerClosed,
            Ok(Arrival::Idle) => {
                // Idle poll: nothing mid-frame. Reap when idle too long.
                idle_polls = idle_polls.saturating_add(1);
                if shared.cfg.read_timeout.saturating_mul(idle_polls) >= shared.cfg.idle_timeout {
                    shared
                        .stats
                        .connections_reaped
                        .fetch_add(1, Ordering::Relaxed);
                    break CloseReason::Idle;
                }
                continue;
            }
            Ok(arrival) => arrival,
            Err(ServerError::Protocol(_)) => {
                shared.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                break CloseReason::Protocol;
            }
            Err(_) => break CloseReason::PeerClosed,
        };
        idle_polls = 0;
        out.clear();
        arena.clear();
        // A frame split across reads was copied out; a complete one is
        // still in the buffer and is decoded there by the drain below.
        let mut fatal = match arrival {
            Arrival::Copied => decode_frame_into(shared, &payload, &mut arena).err(),
            _ => None,
        };
        // Greedy drain: every complete frame already buffered joins this
        // batch, so decode, bank grouping, and the flush below are paid
        // once per pipelined burst instead of once per request. The
        // drain never blocks — it only consumes bytes the kernel already
        // delivered.
        while fatal.is_none() {
            match protocol::complete_frame_len(reader.buffer()) {
                Ok(Some(len)) => {
                    let result =
                        decode_frame_into(shared, &reader.buffer()[4..4 + len], &mut arena);
                    reader.consume(4 + len);
                    fatal = result.err();
                }
                Ok(None) => break,
                Err(err) => {
                    fatal = Some(FatalDecode {
                        err,
                        bad_request_id: None,
                    });
                }
            }
        }
        // Everything decoded before the failure still gets served —
        // answers the peer already earned are not dropped on the floor.
        execute_arena(shared, &mut arena, &mut out);
        if let Some(fatal) = fatal {
            // Undecodable frame: best-effort BAD_REQUEST when the id was
            // parseable, then close (the framing after an undecodable
            // body cannot be trusted).
            shared.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
            if let Some(id) = fatal.bad_request_id {
                protocol::encode_response(id, &Response::BadRequest, &mut out);
            }
            let _ = writer.write_all(&out);
            let _ = writer.flush();
            break CloseReason::Protocol;
        }
        if protocol::write_all(&mut writer, &out).is_err() {
            break CloseReason::WriteFailed;
        }
        // Flush before the next blocking read so the client always sees
        // its answers; skip it while more request bytes are already
        // buffered (responses keep batching).
        if reader.buffer().is_empty() && writer.flush().is_err() {
            break CloseReason::WriteFailed;
        }
    };
    let _ = writer.flush();
    if let Ok(stream) = writer.into_inner() {
        let _ = stream.shutdown(Shutdown::Both);
    }
    let _ = close_reason;
}

/// Why a connection's frame loop ended (internal bookkeeping only).
enum CloseReason {
    PeerClosed,
    Idle,
    Protocol,
    WriteFailed,
    Drained,
}

/// Reusable decode/execute arena of one connection's frame batch. All
/// buffers retain capacity across batches, so once a connection's
/// traffic shape has been seen, the clean GET/SET serve path performs
/// zero heap allocations per request (counting-allocator pinned).
///
/// Obtainable by external drivers (benches, deterministic tests) for
/// use with [`CacheServer::execute_frames`]; the fields stay private —
/// the arena is a buffer, not an API.
#[derive(Debug, Default)]
pub struct BatchArena {
    /// Decoded frames in arrival order (responses are emitted in this
    /// order — batching never reorders answers).
    frames: Vec<FrameEntry>,
    /// Flattened keyed ops across all frames of the batch, the input to
    /// the cache's batch executor (a bad key holds a placeholder read
    /// that is never routed).
    ops: Vec<BatchOp>,
    /// What happened to each op, index-matched to `ops`.
    dispositions: Vec<Disposition>,
    /// The batch's one bank grouping: admission trims it, the executor
    /// runs it.
    route: BatchRoute,
    /// Batch executor results, index-matched to `ops`.
    outcomes: Vec<BatchOutcome>,
    /// Bulk admission grants `(bank, slots)`, released by RAII.
    admitted: Vec<(usize, u32)>,
}

impl BatchArena {
    /// Creates an empty arena; buffers grow on first use and are
    /// retained for reuse.
    pub fn new() -> Self {
        BatchArena::default()
    }

    fn clear(&mut self) {
        self.frames.clear();
        self.ops.clear();
        self.dispositions.clear();
    }

    fn push_op(&mut self, write: bool, key: u64, value: u64) -> usize {
        let idx = self.ops.len();
        let (addr, disposition) = if key > protocol::MAX_KEY {
            (0, Disposition::BadKey)
        } else {
            (protocol::route_key(key), Disposition::Pending)
        };
        self.ops.push(match write {
            true => BatchOp::Write(addr, value),
            false => BatchOp::Read(addr),
        });
        self.dispositions.push(disposition);
        idx
    }
}

/// One frame of a batch, pointing at its ops in the flattened arena.
#[derive(Clone, Copy, Debug)]
enum FrameEntry {
    /// Single keyed op (`GET`/`SET`): `op` indexes [`BatchArena::ops`].
    Single { id: u32, op: usize },
    /// Multi frame: `ops[start..start + len]`.
    Multi { id: u32, start: usize, len: usize },
    /// `HEALTH` introspection (answered at encode time).
    Health { id: u32 },
    /// `SCRUB_STATS` introspection.
    ScrubStats { id: u32 },
}

/// Where an op stands in the admission/execution pipeline.
#[derive(Clone, Copy, Debug)]
enum Disposition {
    /// Decoded, awaiting admission.
    Pending,
    /// Key above [`protocol::MAX_KEY`]: per-item `BAD_REQUEST`.
    BadKey,
    /// Shed on admission pressure with this hint.
    Busy { hint: u32 },
    /// Shed because the bank is degraded/quarantined.
    Degraded { hint: u32 },
    /// Admitted: outcome at the op's own [`BatchArena::outcomes`] index.
    Exec,
}

/// A frame that cannot be decoded: the typed error plus the echoed id
/// when the fixed header was still parseable (for the best-effort
/// `BAD_REQUEST` before closing).
#[derive(Debug)]
struct FatalDecode {
    err: ProtocolError,
    bad_request_id: Option<u32>,
}

/// Decodes one frame payload into the arena. Key validation happens
/// here (before any address arithmetic); admission and execution are
/// deferred to [`execute_arena`] so they can run bank-grouped.
fn decode_frame_into(
    shared: &Shared,
    payload: &[u8],
    arena: &mut BatchArena,
) -> Result<(), FatalDecode> {
    match protocol::decode_request_frame(payload) {
        Ok((id, RequestFrame::Single(req))) => {
            match req {
                Request::Get { key } => {
                    let op = arena.push_op(false, key, 0);
                    arena.frames.push(FrameEntry::Single { id, op });
                }
                Request::Set { key, value } => {
                    let op = arena.push_op(true, key, value);
                    arena.frames.push(FrameEntry::Single { id, op });
                }
                Request::Health => arena.frames.push(FrameEntry::Health { id }),
                Request::ScrubStats => arena.frames.push(FrameEntry::ScrubStats { id }),
            }
            Ok(())
        }
        Ok((id, RequestFrame::GetMulti(keys))) => {
            let start = arena.ops.len();
            for key in keys {
                arena.push_op(false, key, 0);
            }
            let len = arena.ops.len() - start;
            arena.frames.push(FrameEntry::Multi { id, start, len });
            shared
                .stats
                .multi_items
                .fetch_add(len as u64, Ordering::Relaxed);
            Ok(())
        }
        Ok((id, RequestFrame::SetMulti(pairs))) => {
            let start = arena.ops.len();
            for (key, value) in pairs {
                arena.push_op(true, key, value);
            }
            let len = arena.ops.len() - start;
            arena.frames.push(FrameEntry::Multi { id, start, len });
            shared
                .stats
                .multi_items
                .fetch_add(len as u64, Ordering::Relaxed);
            Ok(())
        }
        Err(err) => {
            // The id field sits at a fixed offset even for unknown
            // opcodes, so a confused-but-framed client can still learn
            // something before the close.
            let bad_request_id = match err {
                ProtocolError::UnknownOpcode(_) if payload.len() >= 5 => {
                    Some(u32::from_le_bytes([
                        payload[1], payload[2], payload[3], payload[4],
                    ]))
                }
                _ => None,
            };
            Err(FatalDecode {
                err,
                bad_request_id,
            })
        }
    }
}

/// Executes one decoded batch: bank-grouped admission, a single
/// batch-executor pass over the cache (at most one lock per bank
/// group), then responses encoded in frame arrival order. This is the
/// only place network input meets the storage engine, and it is
/// panic-free on any input: keys were validated at decode, admission
/// runs before any lock is touched, and the engine's typed
/// [`EngineError`](memarray::EngineError) maps to `FAULT` items.
fn execute_arena(shared: &Shared, arena: &mut BatchArena, out: &mut Vec<u8>) {
    if arena.frames.is_empty() {
        return;
    }
    // Route every pending op once, then admit one bank group at a time:
    // degraded/quarantine checked once per bank per batch, slots reserved
    // in bulk. Ops beyond the granted slots shed BUSY individually — the
    // *first* `granted` ops of the group (batch order) execute, so a shed
    // never reorders answers relative to an executed op of the same
    // frame.
    let BatchArena {
        ops,
        dispositions,
        route,
        outcomes,
        admitted,
        ..
    } = &mut *arena;
    shared.cache.route_batch(ops, route, |i| {
        matches!(dispositions[i], Disposition::Pending)
    });
    admitted.clear();
    let hint = busy_hint_ms(shared);
    route.admit(|bank, group| {
        let want = group.len() as u32;
        let gate = &shared.gates[bank];
        if let Some(hint) = shared.shed_hint_ms(bank) {
            gate.shed.fetch_add(u64::from(want), Ordering::Relaxed);
            for &i in group {
                dispositions[i as usize] = Disposition::Degraded { hint };
            }
            return 0;
        }
        let granted = reserve_slots(gate, shared.cfg.max_inflight_per_bank, want);
        if granted > 0 {
            admitted.push((bank, granted));
        }
        if granted < want {
            gate.shed
                .fetch_add(u64::from(want - granted), Ordering::Relaxed);
        }
        let (run, shed) = group.split_at(granted as usize);
        for &i in run {
            dispositions[i as usize] = Disposition::Exec;
        }
        for &i in shed {
            dispositions[i as usize] = Disposition::Busy { hint };
        }
        granted as usize
    });
    // Execute the admitted route; the RAII release returns every
    // reserved slot even if the engine panics. The observer hook is the
    // batch-era slow-op detector: a bank group whose guard was held
    // past the threshold ran an inline recovery, so the bank degrades.
    {
        let _release = AdmitRelease {
            gates: &shared.gates,
            admitted,
        };
        shared
            .cache
            .execute_routed(ops, route, outcomes, |bank, held| {
                if held >= shared.cfg.slow_op_threshold {
                    shared.mark_degraded(bank);
                }
            });
    }
    // Uncorrectable damage observed by the batch opens the owning
    // bank's degraded window, exactly like the scalar path did.
    for (bank, group) in route.groups() {
        if group
            .iter()
            .any(|&i| matches!(outcomes[i as usize], BatchOutcome::Failed(_)))
        {
            shared.mark_degraded(bank);
        }
    }
    // Emit responses in frame arrival order.
    for frame in &arena.frames {
        match *frame {
            FrameEntry::Single { id, op } => {
                let resp = match op_item(shared, arena.dispositions[op], &arena.outcomes[op]) {
                    ItemOutcome::Value(v) => Response::Value(v),
                    ItemOutcome::Ok => Response::Ok,
                    ItemOutcome::Busy { retry_after_ms } => Response::Busy { retry_after_ms },
                    ItemOutcome::Degraded { retry_after_ms } => {
                        Response::Degraded { retry_after_ms }
                    }
                    ItemOutcome::Fault => Response::Fault,
                    ItemOutcome::BadRequest => Response::BadRequest,
                };
                protocol::encode_response(id, &resp, out);
            }
            FrameEntry::Multi { id, start, len } => {
                let mut multi = protocol::begin_multi_response(id, len, out);
                for op in start..start + len {
                    multi.push(op_item(shared, arena.dispositions[op], &arena.outcomes[op]));
                }
                multi.finish();
            }
            FrameEntry::Health { id } => {
                protocol::encode_response(
                    id,
                    &Response::Health(Box::new(shared.health_report())),
                    out,
                );
            }
            FrameEntry::ScrubStats { id } => {
                let snap = Box::new(shared.scrub_snapshot());
                protocol::encode_response(id, &Response::ScrubStats(snap), out);
            }
        }
    }
    shared
        .stats
        .requests
        .fetch_add(arena.frames.len() as u64, Ordering::Relaxed);
    shared.stats.batches.fetch_add(1, Ordering::Relaxed);
}

/// Maps one executed/shed op to its wire item outcome, bumping the
/// aggregate stat counters (per item, matching the scalar-era
/// per-request tallies).
fn op_item(shared: &Shared, disposition: Disposition, outcome: &BatchOutcome) -> ItemOutcome {
    match disposition {
        Disposition::BadKey => {
            shared.stats.bad_requests.fetch_add(1, Ordering::Relaxed);
            ItemOutcome::BadRequest
        }
        Disposition::Busy { hint } => {
            shared.stats.busy_sheds.fetch_add(1, Ordering::Relaxed);
            ItemOutcome::Busy {
                retry_after_ms: hint,
            }
        }
        Disposition::Degraded { hint } => {
            shared.stats.degraded_sheds.fetch_add(1, Ordering::Relaxed);
            ItemOutcome::Degraded {
                retry_after_ms: hint,
            }
        }
        Disposition::Exec => match outcome {
            BatchOutcome::Value(v) => ItemOutcome::Value(*v),
            BatchOutcome::Written => ItemOutcome::Ok,
            BatchOutcome::Failed(_) => {
                shared.stats.faults.fetch_add(1, Ordering::Relaxed);
                ItemOutcome::Fault
            }
        },
        Disposition::Pending => {
            // Admission visits every bank, so a pending op past it is a
            // logic bug — but network-facing code sheds rather than
            // panics even on its own bugs.
            debug_assert!(false, "op left pending past admission");
            ItemOutcome::Busy {
                retry_after_ms: busy_hint_ms(shared),
            }
        }
    }
}

/// Reserves up to `want` admission slots on one bank gate (CAS loop
/// against the limit); returns how many were granted.
fn reserve_slots(gate: &BankGate, limit: u32, want: u32) -> u32 {
    let mut current = gate.inflight.load(Ordering::Relaxed);
    loop {
        if current >= limit {
            return 0;
        }
        let granted = want.min(limit - current);
        match gate.inflight.compare_exchange_weak(
            current,
            current + granted,
            Ordering::Acquire,
            Ordering::Relaxed,
        ) {
            Ok(_) => return granted,
            Err(actual) => current = actual,
        }
    }
}

/// The configured BUSY retry-after hint in milliseconds (≥ 1).
fn busy_hint_ms(shared: &Shared) -> u32 {
    shared
        .cfg
        .retry_after
        .as_millis()
        .clamp(1, u32::MAX as u128) as u32
}
