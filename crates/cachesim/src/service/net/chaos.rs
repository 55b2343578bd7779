//! The network phase of the chaos campaign: a live [`CacheServer`]
//! under concurrent client traffic while a fault storm strikes banks, a
//! quarantine toggles mid-run, and client connections are killed and
//! re-established mid-storm — verifying that acknowledged writes
//! survive every disconnect, reads are never wrong, and requests to
//! recovering banks are shed with `BUSY`/`DEGRADED` instead of hanging
//! or panicking.
//!
//! Both drivers run from a seed alone, against the in-process
//! campaign's cache fixture and scrubber tuning
//! ([`crate::service::campaign`]), and inject through
//! [`FaultScenario::inject`]: before every injection the target bank is
//! scrubbed clean, so each fault event is isolated and correctable by
//! construction — any lost write or wrong read is a real service bug,
//! not compound-damage bad luck, and a failed pre-injection scrub is
//! reported as an uncorrectable event.

use super::client::NetClient;
use super::protocol::{Request, Response};
use super::server::{CacheServer, ServerConfig, ServerStats};
use super::sharded::{ShardOutcome, ShardedClient};
use crate::service::campaign::{chaos_cache, json_object, CampaignConfig, FaultScenario, BANKS};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use twod_cache::{ConcurrentBankedCache, Scrubber};

/// Distinct key ranks per client partition.
const KEY_RANKS: usize = 2_000;
/// Fraction of requests that are `SET`s.
const WRITE_FRACTION: f64 = 0.35;
/// Shed-aware retry attempts per request in the final readbacks (the
/// last degraded windows may still be open).
const READBACK_ATTEMPTS: u32 = 16;

/// Concurrent single-server client connections.
const NET_CLIENTS: usize = 4;
/// Requests per single-server client.
const OPS_PER_CLIENT: u64 = 3_000;
/// Every `KILL_EVERY` requests a client abruptly drops its connection
/// and reconnects (mid-storm), then immediately re-reads one of its
/// acknowledged writes.
const KILL_EVERY: u64 = 500;
/// Fault injections of the single-server storm.
const NET_STORM_INJECTIONS: u32 = 24;
/// Pause between single-server storm injections.
const NET_STORM_INTERVAL: Duration = Duration::from_millis(5);
/// How long the mid-run administrative quarantine lasts.
const QUARANTINE_HOLD: Duration = Duration::from_millis(60);
/// Shed-aware retry attempts per single-server request.
const NET_RETRY_ATTEMPTS: u32 = 8;

/// Concurrent sharded-client threads.
const SHARD_CLIENTS: usize = 3;
/// Pipelined batches issued per sharded client.
const BATCHES_PER_CLIENT: u64 = 220;
/// Requests per pipelined batch.
const BATCH_DEPTH: usize = 16;
/// Fleet-wide batch-progress fraction at which the victim is killed
/// (progress-driven, not wall-clock, so the outage always lands
/// mid-traffic regardless of machine speed).
const KILL_AT_FRACTION: f64 = 0.2;
/// Progress fraction at which the victim restarts; the remaining
/// batches exercise directory refresh + lazy re-dial healing.
const RESTART_AT_FRACTION: f64 = 0.55;
/// Fault injections on the *survivor* while the victim is down (the
/// kill happens mid-storm, not in calm waters).
const SHARD_STORM_INJECTIONS: u32 = 8;
/// Pause between survivor storm injections: the storm spans ~50 ms of
/// the outage.
const SHARD_STORM_INTERVAL: Duration = Duration::from_micros(6_250);
/// Shed-aware retry attempts per sharded batch.
const SHARD_RETRY_ATTEMPTS: u32 = 6;

/// Result of one network chaos run ([`run_net_chaos`]); gate on
/// [`NetChaosReport::problems`].
#[derive(Clone, Debug, Default)]
pub struct NetChaosReport {
    /// Requests answered across all clients (including post-reconnect
    /// probes; shed retries count once).
    pub ops: u64,
    /// `SET`s acknowledged by the server.
    pub acked_writes: u64,
    /// Owned reads verified against a client's private model mid-run.
    pub verified_reads: u64,
    /// Mid-run verified reads that disagreed — **must be zero**.
    pub wrong_reads: u64,
    /// Acknowledged writes the final readback could not recover —
    /// **must be zero**.
    pub lost_acked_writes: u64,
    /// Acknowledged writes re-checked by the final readback.
    pub readback_checked: u64,
    /// Requests still shed `BUSY` (admission pressure) after retries.
    pub busy_sheds: u64,
    /// Requests still shed `DEGRADED` (recovery window / quarantine)
    /// after retries.
    pub degraded_sheds: u64,
    /// Requests answered `FAULT`.
    pub faults: u64,
    /// Forced disconnect/reconnect cycles performed.
    pub reconnects: u64,
    /// Read-your-writes checks performed immediately after a reconnect.
    pub reconnect_readbacks: u64,
    /// Fault injections the storm performed.
    pub injections: u32,
    /// Pre-injection scrubs that found uncorrectable damage — **must be
    /// zero** by the injection discipline.
    pub uncorrectable_events: u64,
    /// A `HEALTH` poll (over the wire) observed at least one degraded
    /// or quarantined bank mid-run — **must hold**.
    pub degraded_observed: bool,
    /// A later `HEALTH` poll observed every bank healthy again —
    /// **must hold**.
    pub degraded_cleared: bool,
    /// The served cache passed its full audit after the run — **must
    /// hold**.
    pub final_audit: bool,
    /// Server-side counters at shutdown.
    pub server_stats: ServerStats,
}

impl NetChaosReport {
    /// Every broken invariant, one phrase each; empty when healthy.
    /// Shed-retry exhaustion under storm is acceptable; silent loss is
    /// not.
    pub fn problems(&self) -> Vec<String> {
        let mut problems = delivery_problems(
            self.wrong_reads,
            self.lost_acked_writes,
            self.uncorrectable_events,
            self.final_audit,
        );
        if !self.degraded_observed {
            problems.push("degraded mode never observed over HEALTH".to_string());
        }
        if !self.degraded_cleared {
            problems.push("degradation never cleared after the storm".to_string());
        }
        problems
    }

    /// The report as stable, field-ordered JSON.
    pub fn to_json(&self, seed: u64) -> String {
        json_object(&[
            ("schema", "\"twod-repro/net-chaos-v2\"".to_string()),
            ("seed", seed.to_string()),
            ("ops", self.ops.to_string()),
            ("acked_writes", self.acked_writes.to_string()),
            ("verified_reads", self.verified_reads.to_string()),
            ("wrong_reads", self.wrong_reads.to_string()),
            ("lost_acked_writes", self.lost_acked_writes.to_string()),
            ("readback_checked", self.readback_checked.to_string()),
            ("busy_sheds", self.busy_sheds.to_string()),
            ("degraded_sheds", self.degraded_sheds.to_string()),
            ("faults", self.faults.to_string()),
            ("reconnects", self.reconnects.to_string()),
            ("injections", self.injections.to_string()),
            (
                "uncorrectable_events",
                self.uncorrectable_events.to_string(),
            ),
            ("degraded_observed", self.degraded_observed.to_string()),
            ("degraded_cleared", self.degraded_cleared.to_string()),
            ("final_audit", self.final_audit.to_string()),
        ])
    }
}

/// Result of one shard-kill chaos run ([`run_shard_chaos`]); gate on
/// [`ShardChaosReport::problems`].
#[derive(Clone, Debug, Default)]
pub struct ShardChaosReport {
    /// Requests answered across all clients (`ShardDown` slots
    /// excluded).
    pub ops: u64,
    /// `SET`s acknowledged by either shard.
    pub acked_writes: u64,
    /// Owned reads verified against a client's private model mid-run.
    pub verified_reads: u64,
    /// Mid-run verified reads that disagreed — **must be zero**.
    pub wrong_reads: u64,
    /// Slots answered [`ShardOutcome::ShardDown`] (expected nonzero:
    /// the victim really was unreachable).
    pub shard_down_slots: u64,
    /// Writes acknowledged *while the victim was down* — **must be
    /// positive**: the surviving shard kept serving its keys.
    pub survivor_acked_during_outage: u64,
    /// Acknowledged writes the final readback could not recover —
    /// **must be zero**.
    pub lost_acked_writes: u64,
    /// Acknowledged writes re-checked by the final readback.
    pub readback_checked: u64,
    /// Requests still shed `BUSY` after retries.
    pub busy_sheds: u64,
    /// Requests still shed `DEGRADED` after retries.
    pub degraded_sheds: u64,
    /// Requests answered `FAULT`.
    pub faults: u64,
    /// Lazy re-dials performed by the sharded clients (heals counted
    /// after each client's initial fan-out).
    pub reconnects: u64,
    /// Fault injections performed on the survivor during the outage.
    pub injections: u32,
    /// Pre-injection scrubs that found uncorrectable damage — **must be
    /// zero** by the injection discipline.
    pub uncorrectable_events: u64,
    /// The victim came back and the address directory was republished
    /// — **must hold**.
    pub victim_restarted: bool,
    /// Both shard caches passed their full audit after the run —
    /// **must hold**.
    pub final_audit: bool,
}

impl ShardChaosReport {
    /// Every broken invariant, one phrase each; empty when healthy.
    pub fn problems(&self) -> Vec<String> {
        let mut problems = delivery_problems(
            self.wrong_reads,
            self.lost_acked_writes,
            self.uncorrectable_events,
            self.final_audit,
        );
        if self.survivor_acked_during_outage == 0 {
            problems.push("survivor shard served no writes during the outage".to_string());
        }
        if !self.victim_restarted {
            problems.push("victim shard never restarted".to_string());
        }
        problems
    }

    /// The report as stable, field-ordered JSON.
    pub fn to_json(&self, seed: u64) -> String {
        json_object(&[
            ("schema", "\"twod-repro/shard-chaos-v2\"".to_string()),
            ("seed", seed.to_string()),
            ("ops", self.ops.to_string()),
            ("acked_writes", self.acked_writes.to_string()),
            ("verified_reads", self.verified_reads.to_string()),
            ("wrong_reads", self.wrong_reads.to_string()),
            ("lost_acked_writes", self.lost_acked_writes.to_string()),
            ("readback_checked", self.readback_checked.to_string()),
            ("shard_down_slots", self.shard_down_slots.to_string()),
            (
                "survivor_acked_during_outage",
                self.survivor_acked_during_outage.to_string(),
            ),
            ("busy_sheds", self.busy_sheds.to_string()),
            ("degraded_sheds", self.degraded_sheds.to_string()),
            ("faults", self.faults.to_string()),
            ("reconnects", self.reconnects.to_string()),
            ("injections", self.injections.to_string()),
            (
                "uncorrectable_events",
                self.uncorrectable_events.to_string(),
            ),
            ("victim_restarted", self.victim_restarted.to_string()),
            ("final_audit", self.final_audit.to_string()),
        ])
    }
}

/// The invariants both TCP drivers share: no wrong read, no lost
/// acknowledged write, no uncorrectable event, and a clean final audit.
fn delivery_problems(wrong: u64, lost: u64, uncorrectable: u64, audit: bool) -> Vec<String> {
    let mut problems: Vec<String> = [
        (wrong, "wrong read(s)"),
        (lost, "lost acknowledged write(s)"),
        (uncorrectable, "uncorrectable event(s)"),
    ]
    .into_iter()
    .filter(|&(count, _)| count > 0)
    .map(|(count, what)| format!("{count} {what}"))
    .collect();
    if !audit {
        problems.push("final audit failed".to_string());
    }
    problems
}

/// One client's read-your-writes model and response counts. Clients
/// write disjoint key partitions, so tallies merge without conflict.
#[derive(Debug, Default)]
struct ClientTally {
    ops: u64,
    acked_writes: u64,
    verified_reads: u64,
    wrong_reads: u64,
    busy_sheds: u64,
    degraded_sheds: u64,
    faults: u64,
    reconnects: u64,
    /// Probes right after a forced reconnect (single-server client).
    reconnect_readbacks: u64,
    /// Slots answered [`ShardOutcome::ShardDown`] (sharded client).
    shard_down_slots: u64,
    /// Writes acknowledged while the victim shard was down (sharded
    /// client).
    acked_during_outage: u64,
    /// Acknowledged value of every key this client wrote.
    model: HashMap<u64, u64>,
}

impl ClientTally {
    /// Classifies one answered request: an acknowledged `SET` enters
    /// the model, a `GET` of a modeled key is verified against it, and
    /// sheds and faults are counted. A `SET` that was not acknowledged
    /// leaves the key's earlier acknowledged value in the model: it must
    /// still be servable after recovery.
    fn record(&mut self, req: &Request, resp: &Response) {
        self.ops += 1;
        match (req, resp) {
            (Request::Set { key, value }, Response::Ok) => {
                self.acked_writes += 1;
                self.model.insert(*key, *value);
            }
            (Request::Get { key }, Response::Value(got)) => {
                if let Some(&expected) = self.model.get(key) {
                    self.verified_reads += 1;
                    if *got != expected {
                        self.wrong_reads += 1;
                    }
                }
            }
            (_, Response::Busy { .. }) => self.busy_sheds += 1,
            (_, Response::Degraded { .. }) => self.degraded_sheds += 1,
            (_, Response::Fault) => self.faults += 1,
            _ => {}
        }
    }

    /// Drops a request whose outcome is unknown (transport loss, shard
    /// down): a `SET` may or may not have committed, so its key leaves
    /// the model and is neither verified nor read back.
    fn forget(&mut self, req: &Request) {
        if let Request::Set { key, .. } = req {
            self.model.remove(key);
        }
    }

    /// Folds another client's tally into this one.
    fn merge(&mut self, other: ClientTally) {
        self.ops += other.ops;
        self.acked_writes += other.acked_writes;
        self.verified_reads += other.verified_reads;
        self.wrong_reads += other.wrong_reads;
        self.busy_sheds += other.busy_sheds;
        self.degraded_sheds += other.degraded_sheds;
        self.faults += other.faults;
        self.reconnects += other.reconnects;
        self.reconnect_readbacks += other.reconnect_readbacks;
        self.shard_down_slots += other.shard_down_slots;
        self.acked_during_outage += other.acked_during_outage;
        self.model.extend(other.model);
    }

    /// Re-reads every acknowledged write through `read` (the value read,
    /// or `None` on any failure) and returns how many were lost.
    fn readback(&self, mut read: impl FnMut(u64) -> Option<u64>) -> u64 {
        self.model
            .iter()
            .filter(|&(&key, &value)| read(key) != Some(value))
            .count() as u64
    }
}

/// Draws client `t`'s next request: a key from its own partition (keys
/// `== t mod clients`), a `SET` of a random value with probability
/// [`WRITE_FRACTION`].
fn next_request(rng: &mut StdRng, t: usize, clients: usize) -> Request {
    let rank = rng.gen_range(0..KEY_RANKS);
    let key = (rank as u64) * (clients as u64) + t as u64;
    if rng.gen_bool(WRITE_FRACTION) {
        Request::Set {
            key,
            value: rng.gen(),
        }
    } else {
        Request::Get { key }
    }
}

/// The TCP phases' fault storm: `injections` random in-coverage
/// rectangles of `1..=V` rows by `1..=2` columns, each placed by
/// [`FaultScenario::inject`] (scrub the bank, then inject), rotating
/// banks, `pause` apart, until `stop` is set. Returns the injections
/// fired.
fn storm(
    cache: &ConcurrentBankedCache,
    seed: u64,
    injections: u32,
    pause: Duration,
    stop: &AtomicBool,
    uncorrectable: &AtomicU64,
) -> u32 {
    let mut rng = StdRng::seed_from_u64(seed);
    let vertical = cache.lock_bank(0).config().data_scheme.vertical_rows;
    let mut fired = 0;
    for i in 0..injections {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let rect = FaultScenario::Rect {
            height: rng.gen_range(1..=vertical),
            width: rng.gen_range(1..=2),
        };
        rect.inject(cache, i as usize % BANKS, &mut rng, uncorrectable);
        fired += 1;
        std::thread::sleep(pause);
    }
    fired
}

/// Runs the network chaos phase end to end: spawn a server (with the
/// campaign scrubber), storm + quarantine + health-poll threads,
/// killing-and-reconnecting client threads, then a final readback of
/// every acknowledged write over a fresh connection.
///
/// # Panics
///
/// Panics if the loopback server or a client connection cannot be
/// established at all (environment failure, not a chaos outcome).
pub fn run_net_chaos(seed: u64) -> NetChaosReport {
    let cache = Arc::new(chaos_cache());
    let scrubber = Arc::new(Scrubber::spawn(
        Arc::clone(&cache),
        CampaignConfig::campaign_scrubber(),
    ));
    let server = CacheServer::spawn(
        Arc::clone(&cache),
        Some(Arc::clone(&scrubber)),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .expect("bind loopback chaos server");
    let addr = server.local_addr();

    let stop = AtomicBool::new(false);
    let degraded_observed = AtomicBool::new(false);
    let uncorrectable = AtomicU64::new(0);
    let (tally, injections, cleared) = std::thread::scope(|scope| {
        let storm = scope.spawn(|| {
            storm(
                &cache,
                seed ^ 0x5708_13FF,
                NET_STORM_INJECTIONS,
                NET_STORM_INTERVAL,
                &stop,
                &uncorrectable,
            )
        });
        // Quarantine toggler: force one bank into administrative
        // degradation mid-run, then lift it.
        scope.spawn(|| {
            std::thread::sleep(QUARANTINE_HOLD / 2);
            if !stop.load(Ordering::Relaxed) {
                server.quarantine_bank(0, true);
                std::thread::sleep(QUARANTINE_HOLD);
                server.quarantine_bank(0, false);
            }
        });
        // Health poller over the wire: degradation must be visible
        // through the HEALTH opcode while the storm runs.
        let poller = scope.spawn(|| health_poll_loop(addr, &stop, &degraded_observed));
        let clients: Vec<_> = (0..NET_CLIENTS)
            .map(|t| scope.spawn(move || run_client(t, addr, seed)))
            .collect();
        let mut tally = ClientTally::default();
        for client in clients {
            tally.merge(client.join().expect("chaos client thread panicked"));
        }
        stop.store(true, Ordering::Relaxed);
        let injections = storm.join().expect("storm thread panicked");
        let cleared = poller.join().expect("health poller panicked");
        (tally, injections, cleared)
    });

    // Final readback: every acknowledged write must be recoverable over
    // a fresh connection, with the storm over and quarantine lifted.
    let mut readback = NetClient::connect(addr).expect("readback connect");
    let lost_acked_writes =
        tally.readback(|key| match readback.get_retry(key, READBACK_ATTEMPTS) {
            Ok(Response::Value(v)) => Some(v),
            _ => None,
        });

    let server_stats = server.stats();
    server.shutdown();
    // Scrubber threads hold the cache Arc; stop them before auditing so
    // the audit sees a quiescent array.
    Arc::try_unwrap(scrubber)
        .map(Scrubber::stop)
        .unwrap_or_default();
    NetChaosReport {
        ops: tally.ops,
        acked_writes: tally.acked_writes,
        verified_reads: tally.verified_reads,
        wrong_reads: tally.wrong_reads,
        lost_acked_writes,
        readback_checked: tally.model.len() as u64,
        busy_sheds: tally.busy_sheds,
        degraded_sheds: tally.degraded_sheds,
        faults: tally.faults,
        reconnects: tally.reconnects,
        reconnect_readbacks: tally.reconnect_readbacks,
        injections,
        uncorrectable_events: uncorrectable.load(Ordering::Relaxed),
        degraded_observed: degraded_observed.load(Ordering::Relaxed),
        degraded_cleared: cleared,
        final_audit: cache.audit(),
        server_stats,
    }
}

/// Polls `HEALTH` over the wire; records when degradation is visible
/// and returns whether a poll after the storm saw every bank healthy.
fn health_poll_loop(addr: SocketAddr, stop: &AtomicBool, observed: &AtomicBool) -> bool {
    let mut client = match NetClient::connect(addr) {
        Ok(c) => c,
        Err(_) => return false,
    };
    while !stop.load(Ordering::Relaxed) {
        if let Ok(report) = client.health() {
            if report.degraded_banks() > 0 {
                observed.store(true, Ordering::Relaxed);
            }
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    // Post-storm: wait (bounded) for every degraded window to close.
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline {
        match client.health() {
            Ok(report) if report.degraded_banks() == 0 => return true,
            _ => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    false
}

/// One chaos client: owned-partition traffic with an acked-write model,
/// shed-aware retries, forced kills + reconnects, and an immediate
/// read-your-writes probe after every reconnect.
fn run_client(t: usize, addr: SocketAddr, seed: u64) -> ClientTally {
    let mut rng = StdRng::seed_from_u64(seed ^ (0xDEAD_0000 + t as u64));
    let mut tally = ClientTally::default();
    let mut client = match NetClient::connect(addr) {
        Ok(c) => c,
        Err(_) => return tally,
    };
    // Sends `req` with shed-aware retries and records the answer. On
    // transport loss the commit status is unknown: forget the request
    // and reconnect. False once the server cannot be reached again.
    let exchange = |client: &mut NetClient, tally: &mut ClientTally, req: &Request| match client
        .request_retry(req, NET_RETRY_ATTEMPTS)
    {
        Ok(resp) => {
            tally.record(req, &resp);
            true
        }
        Err(_) => {
            tally.forget(req);
            let reconnected = client.reconnect().is_ok();
            tally.reconnects += u64::from(reconnected);
            reconnected
        }
    };
    for i in 0..OPS_PER_CLIENT {
        // Forced kill: drop the socket abruptly mid-storm, reconnect,
        // and immediately verify one previously acknowledged write.
        if i > 0 && i % KILL_EVERY == 0 {
            if client.reconnect().is_err() {
                return tally;
            }
            tally.reconnects += 1;
            if let Some(&key) = tally.model.keys().next() {
                tally.reconnect_readbacks += 1;
                if !exchange(&mut client, &mut tally, &Request::Get { key }) {
                    return tally;
                }
            }
        }
        let req = next_request(&mut rng, t, NET_CLIENTS);
        if !exchange(&mut client, &mut tally, &req) {
            return tally;
        }
    }
    tally
}

/// Locks the shard address directory, recovering from poison.
fn lock(directory: &Mutex<Vec<SocketAddr>>) -> MutexGuard<'_, Vec<SocketAddr>> {
    directory
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Runs the shard-kill chaos phase: spawn two shard servers, start
/// sharded clients spraying ownership-verified traffic, kill shard 1
/// mid-storm (its process-equivalent: abrupt server shutdown), inject
/// faults on the survivor while it is the whole fleet, restart the
/// victim on the *same* cache (a rebooted node keeps its array) at a
/// fresh port, republish the address directory, and finally read back
/// every acknowledged write through a fresh sharded client.
///
/// # Panics
///
/// Panics if the loopback servers cannot be spawned (environment
/// failure, not a chaos outcome).
pub fn run_shard_chaos(seed: u64) -> ShardChaosReport {
    const VICTIM: usize = 1;
    let caches: Vec<Arc<ConcurrentBankedCache>> = (0..2).map(|_| Arc::new(chaos_cache())).collect();
    let spawn = |cache: &Arc<ConcurrentBankedCache>| {
        CacheServer::spawn(
            Arc::clone(cache),
            None,
            "127.0.0.1:0",
            ServerConfig::default(),
        )
    };
    let mut servers: Vec<Option<CacheServer>> = caches
        .iter()
        .map(|cache| Some(spawn(cache).expect("bind loopback shard server")))
        .collect();
    // The address directory a real fleet would keep in service
    // discovery: clients poll it and re-point shards that moved.
    let directory = Mutex::new(
        servers
            .iter()
            .flatten()
            .map(CacheServer::local_addr)
            .collect::<Vec<_>>(),
    );
    let outage_active = AtomicBool::new(false);
    let uncorrectable = AtomicU64::new(0);
    // Fleet-wide completed-batch counter: the coordinator keys the kill
    // and the restart off *traffic progress*, so the outage always
    // straddles live batches no matter how fast the machine is.
    let progress = AtomicU64::new(0);
    let wait_progress = |fraction: f64| {
        let target = (SHARD_CLIENTS as u64 * BATCHES_PER_CLIENT) as f64 * fraction;
        while progress.load(Ordering::Relaxed) < target as u64 {
            std::thread::sleep(Duration::from_millis(1));
        }
    };

    let (tally, injections, victim_restarted) = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..SHARD_CLIENTS)
            .map(|t| {
                let (directory, outage, progress) = (&directory, &outage_active, &progress);
                scope.spawn(move || run_shard_client(t, seed, directory, outage, progress))
            })
            .collect();

        // Coordinator: wait for traffic to be flowing, kill the victim,
        // storm the survivor, then restart the victim on the same cache
        // at a fresh port once enough of the run has happened under the
        // outage.
        wait_progress(KILL_AT_FRACTION);
        outage_active.store(true, Ordering::SeqCst);
        if let Some(victim) = servers[VICTIM].take() {
            victim.shutdown();
        }
        let injections = storm(
            &caches[1 - VICTIM],
            seed ^ 0x0DD_BA11,
            SHARD_STORM_INJECTIONS,
            SHARD_STORM_INTERVAL,
            &AtomicBool::new(false),
            &uncorrectable,
        );
        wait_progress(RESTART_AT_FRACTION);
        let restarted = spawn(&caches[VICTIM])
            .map(|server| {
                lock(&directory)[VICTIM] = server.local_addr();
                servers[VICTIM] = Some(server);
            })
            .is_ok();
        outage_active.store(false, Ordering::SeqCst);

        let mut tally = ClientTally::default();
        for client in clients {
            tally.merge(client.join().expect("shard chaos client panicked"));
        }
        (tally, injections, restarted)
    });

    // Final readback through a fresh sharded client over the final
    // directory: every acknowledged write must be recoverable now that
    // both shards are up (the victim kept its cache across restart).
    let mut readback = ShardedClient::new(&lock(&directory));
    let mut outcomes = Vec::new();
    let lost_acked_writes = tally.readback(|key| {
        readback.pipeline_retry(&[Request::Get { key }], READBACK_ATTEMPTS, &mut outcomes);
        match outcomes.first() {
            Some(ShardOutcome::Response(Response::Value(v))) => Some(*v),
            _ => None,
        }
    });

    for server in servers.into_iter().flatten() {
        server.shutdown();
    }
    ShardChaosReport {
        ops: tally.ops,
        acked_writes: tally.acked_writes,
        verified_reads: tally.verified_reads,
        wrong_reads: tally.wrong_reads,
        shard_down_slots: tally.shard_down_slots,
        survivor_acked_during_outage: tally.acked_during_outage,
        lost_acked_writes,
        readback_checked: tally.model.len() as u64,
        busy_sheds: tally.busy_sheds,
        degraded_sheds: tally.degraded_sheds,
        faults: tally.faults,
        reconnects: tally.reconnects,
        injections,
        uncorrectable_events: uncorrectable.load(Ordering::Relaxed),
        victim_restarted,
        final_audit: caches.iter().all(|cache| cache.audit()),
    }
}

/// One sharded chaos client: pipelined ownership-verified traffic
/// through a [`ShardedClient`], refreshing shard addresses from the
/// directory each batch (so a restarted victim heals mid-run).
fn run_shard_client(
    t: usize,
    seed: u64,
    directory: &Mutex<Vec<SocketAddr>>,
    outage_active: &AtomicBool,
    progress: &AtomicU64,
) -> ClientTally {
    let mut rng = StdRng::seed_from_u64(seed ^ (0x5AA2_D000 + t as u64));
    let mut tally = ClientTally::default();
    let mut client = ShardedClient::new(&lock(directory));
    let initial_dials = client.shard_count() as u64;
    let mut batch: Vec<Request> = Vec::with_capacity(BATCH_DEPTH);
    let mut outcomes: Vec<ShardOutcome> = Vec::with_capacity(BATCH_DEPTH);
    for _ in 0..BATCHES_PER_CLIENT {
        // Directory refresh: re-point any shard whose published address
        // moved (the restarted victim comes back on a new port).
        for (shard, &addr) in lock(directory).iter().enumerate() {
            if client.shard_addr(shard) != addr {
                client.set_shard_addr(shard, addr);
            }
        }
        batch.clear();
        batch.extend((0..BATCH_DEPTH).map(|_| next_request(&mut rng, t, SHARD_CLIENTS)));
        let during_outage = outage_active.load(Ordering::Relaxed);
        let acked_before = tally.acked_writes;
        client.pipeline_retry(&batch, SHARD_RETRY_ATTEMPTS, &mut outcomes);
        for (req, outcome) in batch.iter().zip(&outcomes) {
            match outcome {
                ShardOutcome::Response(resp) => tally.record(req, resp),
                ShardOutcome::ShardDown => {
                    tally.shard_down_slots += 1;
                    tally.forget(req);
                }
            }
        }
        if during_outage {
            tally.acked_during_outage += tally.acked_writes - acked_before;
        }
        progress.fetch_add(1, Ordering::Relaxed);
    }
    tally.reconnects = client.reconnects().saturating_sub(initial_dials);
    tally
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn client_tally_verifies_reads_against_acked_writes() {
        let mut tally = ClientTally::default();
        tally.record(&Request::Set { key: 1, value: 10 }, &Response::Ok);
        tally.record(&Request::Get { key: 1 }, &Response::Value(11));
        tally.record(&Request::Get { key: 1 }, &Response::Value(10));
        // A key never written is not verified.
        tally.record(&Request::Get { key: 2 }, &Response::Value(99));
        assert_eq!(tally.ops, 4);
        assert_eq!(tally.acked_writes, 1);
        assert_eq!(tally.verified_reads, 2);
        assert_eq!(tally.wrong_reads, 1);
    }

    #[test]
    fn forgotten_set_is_neither_verified_nor_read_back() {
        let mut tally = ClientTally::default();
        let set = Request::Set { key: 3, value: 30 };
        tally.record(&set, &Response::Ok);
        tally.forget(&set);
        tally.record(&Request::Get { key: 3 }, &Response::Value(31));
        assert_eq!(tally.verified_reads, 0);
        assert_eq!(tally.wrong_reads, 0);
        let mut asked = Vec::new();
        let lost = tally.readback(|key| {
            asked.push(key);
            None
        });
        assert_eq!((lost, asked.len()), (0, 0));
    }

    #[test]
    fn sheds_and_faults_land_in_their_own_counters() {
        let mut tally = ClientTally::default();
        let get = Request::Get { key: 5 };
        let set = Request::Set { key: 5, value: 50 };
        tally.record(&get, &Response::Busy { retry_after_ms: 1 });
        tally.record(&set, &Response::Degraded { retry_after_ms: 1 });
        tally.record(&set, &Response::Degraded { retry_after_ms: 2 });
        tally.record(&get, &Response::Fault);
        assert_eq!(
            (tally.busy_sheds, tally.degraded_sheds, tally.faults),
            (1, 2, 1)
        );
        // A shed or faulted SET is not acknowledged.
        assert_eq!(tally.acked_writes, 0);
        assert!(tally.model.is_empty());
    }

    #[test]
    fn merge_sums_counters_and_models() {
        let mut a = ClientTally::default();
        a.record(&Request::Set { key: 0, value: 1 }, &Response::Ok);
        a.record(
            &Request::Get { key: 0 },
            &Response::Busy { retry_after_ms: 1 },
        );
        a.reconnects = 2;
        let mut b = ClientTally::default();
        b.record(&Request::Set { key: 1, value: 2 }, &Response::Ok);
        b.record(&Request::Get { key: 1 }, &Response::Value(3));
        b.shard_down_slots = 4;
        a.merge(b);
        assert_eq!(a.ops, 4);
        assert_eq!(a.acked_writes, 2);
        assert_eq!((a.verified_reads, a.wrong_reads), (1, 1));
        assert_eq!(a.busy_sheds, 1);
        assert_eq!((a.reconnects, a.shard_down_slots), (2, 4));
        assert_eq!(a.model, HashMap::from([(0, 1), (1, 2)]));
    }

    #[test]
    fn readback_counts_missing_and_wrong_values_as_lost() {
        let mut tally = ClientTally::default();
        for key in 0..3 {
            tally.record(
                &Request::Set {
                    key,
                    value: key + 100,
                },
                &Response::Ok,
            );
        }
        // Key 0 reads back intact, key 1 is missing, key 2 is wrong.
        let lost = tally.readback(|key| match key {
            0 => Some(100),
            1 => None,
            _ => Some(0),
        });
        assert_eq!(lost, 2);
    }
}
