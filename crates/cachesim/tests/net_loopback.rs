//! Loopback integration tests for the network tier: a real
//! [`CacheServer`] on `127.0.0.1:0`, real TCP sockets, and the
//! robustness contract pinned end to end — read-your-writes across a
//! forced disconnect/reconnect, degraded-mode shedding under
//! quarantine, HEALTH introspection over the wire, and malformed
//! frames closing one connection without harming the server.

use cachesim::net::protocol::{self, status, MAX_KEY};
use cachesim::net::{
    CacheServer, ClientConfig, FrameRead, ItemOutcome, NetClient, Request, Response, ServerConfig,
    ServerError, ShardOutcome, ShardedClient,
};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};
use twod_cache::{CacheConfig, ConcurrentBankedCache, TwoDScheme};

const BANKS: usize = 4;

/// A small 4-bank server on an ephemeral loopback port, plus the cache
/// handle (for key→bank routing in the quarantine test).
fn spawn_server() -> (CacheServer, Arc<ConcurrentBankedCache>) {
    let config = CacheConfig {
        sets: 16,
        ways: 2,
        data_scheme: TwoDScheme::l1_paper(),
        tag_scheme: TwoDScheme {
            data_bits: 50,
            ..TwoDScheme::l1_paper()
        },
    };
    let cache = Arc::new(ConcurrentBankedCache::new(config, BANKS));
    let server = CacheServer::spawn(
        Arc::clone(&cache),
        None,
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .expect("bind loopback server");
    (server, cache)
}

/// The first key at/after `start` that routes to `bank`.
fn key_on_bank(cache: &ConcurrentBankedCache, bank: usize, start: u64) -> u64 {
    (start..start + 10_000)
        .find(|&k| cache.bank_of(protocol::route_key(k)) == bank)
        .expect("a key routing to the bank within 10k candidates")
}

#[test]
fn read_your_writes_survives_forced_reconnect() {
    let (server, _cache) = spawn_server();
    let mut client = NetClient::connect(server.local_addr()).expect("connect");

    let keys: Vec<u64> = (0..64u64).map(|i| i * 977 + 11).collect();
    for &k in &keys {
        client.set(k, k.wrapping_mul(0x9E37)).expect("set acked");
    }
    for &k in &keys {
        assert_eq!(client.get(k).expect("get"), k.wrapping_mul(0x9E37));
    }

    // Kill the connection abruptly (no polite shutdown) and reconnect:
    // every acknowledged write must still be visible. This is the
    // chaos campaign's core invariant, pinned deterministically here.
    client.reconnect().expect("reconnect");
    for &k in &keys {
        assert_eq!(
            client.get(k).expect("get after reconnect"),
            k.wrapping_mul(0x9E37),
            "acked write to key {k} lost across reconnect"
        );
    }

    // Overwrites after the reconnect win, and survive another one.
    for &k in &keys[..8] {
        client.set(k, !k).expect("overwrite");
    }
    client.reconnect().expect("second reconnect");
    for &k in &keys[..8] {
        assert_eq!(client.get(k).expect("get"), !k);
    }

    server.shutdown();
}

#[test]
fn quarantined_bank_sheds_with_hint_while_others_serve() {
    let (server, cache) = spawn_server();
    let mut client = NetClient::connect(server.local_addr()).expect("connect");

    let quarantined_key = key_on_bank(&cache, 0, 1);
    let healthy_key = key_on_bank(&cache, 1, 1);
    client.set(quarantined_key, 111).expect("seed quarantined");
    client.set(healthy_key, 222).expect("seed healthy");

    server.quarantine_bank(0, true);

    // Requests to the quarantined bank shed immediately with a usable
    // retry-after hint — no hang, no queueing.
    match client
        .request(&Request::Get {
            key: quarantined_key,
        })
        .expect("shed response arrives")
    {
        Response::Degraded { retry_after_ms } => {
            assert!(retry_after_ms > 0, "hint must be actionable");
        }
        other => panic!("expected Degraded from quarantined bank, got {other:?}"),
    }
    // Writes shed too — a quarantined bank accepts nothing.
    assert!(matches!(
        client
            .request(&Request::Set {
                key: quarantined_key,
                value: 5,
            })
            .expect("shed response arrives"),
        Response::Degraded { .. }
    ));

    // Healthy banks keep serving at full function during the outage.
    assert_eq!(client.get(healthy_key).expect("healthy get"), 222);

    // HEALTH over the wire reports exactly one bank down, as
    // quarantined (not error-degraded).
    let report = client.health().expect("health");
    assert_eq!(report.banks.len(), BANKS);
    assert_eq!(report.degraded_banks(), 1);
    assert!(report.banks[0].quarantined);
    assert!(report.banks[0].shed >= 2);

    // Lifting the quarantine restores service and the stored value —
    // shedding dropped requests, never state.
    server.quarantine_bank(0, false);
    match client
        .get_retry(quarantined_key, 8)
        .expect("retry after lift")
    {
        Response::Value(v) => assert_eq!(v, 111),
        other => panic!("bank did not recover after quarantine lift: {other:?}"),
    }
    assert_eq!(client.health().expect("health").degraded_banks(), 0);

    let stats = server.stats();
    assert!(stats.degraded_sheds >= 2);
    server.shutdown();
}

#[test]
fn health_and_scrub_stats_over_the_wire() {
    let (server, _cache) = spawn_server();
    let mut client = NetClient::connect(server.local_addr()).expect("connect");

    let report = client.health().expect("health");
    assert_eq!(report.banks.len(), BANKS);
    for bank in &report.banks {
        assert_eq!(
            bank.admission_limit,
            ServerConfig::default().max_inflight_per_bank
        );
        assert!(!bank.degraded && !bank.quarantined);
        assert_eq!(bank.retry_after_ms, 0);
    }
    // No scrubber attached to this server: health omits the aggregate
    // and SCRUB_STATS reports detached with zeroed counters.
    assert!(report.scrubber.is_none());
    let snap = client.scrub_stats().expect("scrub stats");
    assert!(!snap.attached);
    assert_eq!(snap.stats.rows_scanned, 0);

    server.shutdown();
}

#[test]
fn oversized_key_is_bad_request_not_truncation() {
    let (server, _cache) = spawn_server();
    let mut client = NetClient::connect(server.local_addr()).expect("connect");

    for bad_key in [MAX_KEY + 1, u64::MAX] {
        assert_eq!(
            client
                .request(&Request::Get { key: bad_key })
                .expect("response arrives"),
            Response::BadRequest
        );
        assert!(matches!(
            client.set(bad_key, 1),
            Err(ServerError::Rejected(status::BAD_REQUEST))
        ));
    }
    // The boundary key itself is valid.
    client.set(MAX_KEY, 77).expect("max key set");
    assert_eq!(client.get(MAX_KEY).expect("max key get"), 77);

    assert!(server.stats().bad_requests >= 4);
    server.shutdown();
}

#[test]
fn pipelined_batch_answers_in_order() {
    let (server, _cache) = spawn_server();
    let mut client = NetClient::connect(server.local_addr()).expect("connect");

    let reqs: Vec<Request> = (0..32u64)
        .flat_map(|i| {
            [
                Request::Set {
                    key: 5000 + i,
                    value: i * 3,
                },
                Request::Get { key: 5000 + i },
            ]
        })
        .collect();
    let resps = client.pipeline(&reqs).expect("pipelined batch");
    assert_eq!(resps.len(), reqs.len());
    for (i, pair) in resps.chunks(2).enumerate() {
        assert_eq!(pair[0], Response::Ok, "set #{i}");
        assert_eq!(pair[1], Response::Value(i as u64 * 3), "get #{i}");
    }

    server.shutdown();
}

#[test]
fn multi_frames_round_trip_over_the_wire() {
    let (server, _cache) = spawn_server();
    let mut client = NetClient::connect(server.local_addr()).expect("connect");

    let items: Vec<(u64, u64)> = (0..40u64).map(|i| (7000 + i * 13, i * i + 1)).collect();
    let mut out = Vec::new();
    client.set_multi(&items, &mut out).expect("set_multi");
    assert_eq!(out.len(), items.len());
    assert!(out.iter().all(|o| *o == ItemOutcome::Ok));

    let keys: Vec<u64> = items.iter().map(|&(k, _)| k).collect();
    client.get_multi(&keys, &mut out).expect("get_multi");
    assert_eq!(out.len(), keys.len());
    for (i, (o, &(_, v))) in out.iter().zip(&items).enumerate() {
        assert_eq!(*o, ItemOutcome::Value(v), "item #{i}");
    }

    // A bad key among good ones fails per-item, not per-frame: its
    // neighbors still serve.
    let mixed = [items[0].0, MAX_KEY + 1, items[1].0];
    client.get_multi(&mixed, &mut out).expect("mixed get_multi");
    assert_eq!(out[0], ItemOutcome::Value(items[0].1));
    assert_eq!(out[1], ItemOutcome::BadRequest);
    assert_eq!(out[2], ItemOutcome::Value(items[1].1));

    assert!(server.stats().multi_items >= (items.len() * 2 + 3) as u64);
    server.shutdown();
}

#[test]
fn busy_shedding_retries_resolve_in_order() {
    // One admission slot per bank: a pipelined batch into a single bank
    // gets exactly one grant per round, the rest shed BUSY with a hint.
    let config = CacheConfig {
        sets: 16,
        ways: 2,
        data_scheme: TwoDScheme::l1_paper(),
        tag_scheme: TwoDScheme {
            data_bits: 50,
            ..TwoDScheme::l1_paper()
        },
    };
    let cache = Arc::new(ConcurrentBankedCache::new(config, BANKS));
    let server = CacheServer::spawn(
        Arc::clone(&cache),
        None,
        "127.0.0.1:0",
        ServerConfig {
            max_inflight_per_bank: 1,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback server");
    let mut client = NetClient::connect(server.local_addr()).expect("connect");

    let keys: Vec<u64> = (1..10_000)
        .filter(|&k| cache.bank_of(protocol::route_key(k)) == 0)
        .take(8)
        .collect();
    let reqs: Vec<Request> = keys
        .iter()
        .enumerate()
        .map(|(i, &k)| Request::Set {
            key: k,
            value: 1000 + i as u64,
        })
        .collect();

    // One raw round: bulk admission grants one slot, the other seven
    // shed BUSY with an actionable hint.
    let first = client.pipeline(&reqs).expect("pipelined batch");
    assert_eq!(
        first
            .iter()
            .filter(|r| matches!(r, Response::Busy { retry_after_ms } if *retry_after_ms > 0))
            .count(),
        7,
        "single-slot bank must shed all but one of the batch: {first:?}",
    );

    // Retried: every slot resolves to its own request's answer,
    // position-matched — per-request retries must never reorder or
    // cross-wire responses.
    let resolved = client.pipeline_retry(&reqs, 16).expect("retried batch");
    assert_eq!(resolved.len(), reqs.len());
    for (i, r) in resolved.iter().enumerate() {
        assert_eq!(*r, Response::Ok, "slot {i} did not resolve: {resolved:?}");
    }
    for (i, &k) in keys.iter().enumerate() {
        assert_eq!(
            client.get(k).expect("readback"),
            1000 + i as u64,
            "key {k} holds another slot's value — retry cross-wired responses",
        );
    }

    assert!(server.stats().busy_sheds >= 7);
    server.shutdown();
}

#[test]
fn handler_threads_are_reaped_not_accumulated() {
    let (server, _cache) = spawn_server();

    // 60 short-lived sequential connections: each accept reaps finished
    // handlers, so the tracked set must stay bounded by live
    // connections (plus a small close-detection lag), not grow with
    // connection history.
    for i in 0..60u64 {
        let mut client = NetClient::connect(server.local_addr()).expect("connect");
        client.set(i, i + 1).expect("set");
        drop(client);
        // Brief pause so the handler observes the close before the next
        // accept's reap pass — keeps the bound tight and deterministic.
        std::thread::sleep(Duration::from_millis(2));
    }
    let tracked = server.tracked_handler_threads();
    assert!(
        tracked <= 4,
        "handler handles accumulated: {tracked} tracked after 60 closed connections",
    );
    server.shutdown();
}

#[test]
fn sharded_client_survives_shard_kill_and_restart() {
    let (server_a, _cache_a) = spawn_server();
    let (server_b, cache_b) = spawn_server();
    let addrs = vec![server_a.local_addr(), server_b.local_addr()];
    let mut client = ShardedClient::new(&addrs);

    // Seed both shards through the rendezvous split and remember who
    // owns what.
    let keys: Vec<u64> = (0..48u64).map(|i| i * 613 + 7).collect();
    let reqs: Vec<Request> = keys
        .iter()
        .map(|&k| Request::Set { key: k, value: !k })
        .collect();
    let mut out = Vec::new();
    client.pipeline(&reqs, &mut out);
    assert!(out
        .iter()
        .all(|o| *o == ShardOutcome::Response(Response::Ok)));
    let shard_b_keys: Vec<u64> = keys
        .iter()
        .copied()
        .filter(|&k| client.shard_of(k) == 1)
        .collect();
    assert!(
        !shard_b_keys.is_empty() && shard_b_keys.len() < keys.len(),
        "rendezvous should split 48 keys across both shards",
    );

    // Kill shard B. Reads of its keys report ShardDown; shard A keys
    // keep serving their values — the fleet degrades, never stalls.
    server_b.shutdown();
    let gets: Vec<Request> = keys.iter().map(|&k| Request::Get { key: k }).collect();
    client.pipeline(&gets, &mut out);
    for (i, (&k, o)) in keys.iter().zip(&out).enumerate() {
        if client.shard_of(k) == 1 {
            assert_eq!(*o, ShardOutcome::ShardDown, "slot {i}");
        } else {
            assert_eq!(*o, ShardOutcome::Response(Response::Value(!k)), "slot {i}");
        }
    }

    // Restart shard B on a fresh port over the SAME cache (state
    // survives the process respawn), repoint the client, and every key
    // serves again — including shard B's pre-kill acked writes.
    let server_b2 = CacheServer::spawn(
        Arc::clone(&cache_b),
        None,
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .expect("respawn shard B");
    client.set_shard_addr(1, server_b2.local_addr());
    client.pipeline(&gets, &mut out);
    for (i, (&k, o)) in keys.iter().zip(&out).enumerate() {
        assert_eq!(
            *o,
            ShardOutcome::Response(Response::Value(!k)),
            "slot {i} after restart",
        );
    }

    server_a.shutdown();
    server_b2.shutdown();
}

#[test]
fn malformed_frames_close_one_connection_not_the_server() {
    let (server, _cache) = spawn_server();
    let addr = server.local_addr();

    // An unknown opcode in a well-framed payload: the server answers
    // BAD_REQUEST (best effort, echoing the id) and closes.
    {
        let stream = TcpStream::connect(addr).expect("raw connect");
        stream
            .set_read_timeout(Some(Duration::from_millis(200)))
            .unwrap();
        let mut raw = stream.try_clone().expect("clone");
        let mut frame = 5u32.to_le_bytes().to_vec();
        frame.push(0xEE);
        frame.extend_from_slice(&42u32.to_le_bytes());
        raw.write_all(&frame).expect("send bogus opcode");
        raw.flush().unwrap();

        let mut reader = std::io::BufReader::new(stream);
        let mut payload = Vec::new();
        let mut got_bad_request = false;
        loop {
            match protocol::read_frame(&mut reader, &mut payload) {
                Ok(FrameRead::Frame) => {
                    let (id, resp) =
                        protocol::decode_response(&payload, cachesim::net::ResponseKind::Set)
                            .expect("decodable rejection");
                    assert_eq!(id, 42);
                    assert_eq!(resp, Response::BadRequest);
                    got_bad_request = true;
                }
                Ok(FrameRead::Idle) => continue,
                // Connection closed after the rejection.
                Ok(FrameRead::Eof) | Err(_) => break,
            }
        }
        assert!(got_bad_request, "server should reject before closing");
    }

    // A hostile length prefix (4 GiB): rejected from the prefix alone,
    // connection closed without a response.
    {
        let stream = TcpStream::connect(addr).expect("raw connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        let mut raw = stream.try_clone().expect("clone");
        raw.write_all(&u32::MAX.to_le_bytes()).expect("send length");
        raw.write_all(&[0u8; 32]).expect("send junk");
        raw.flush().unwrap();
        let mut reader = std::io::BufReader::new(stream);
        let mut payload = Vec::new();
        loop {
            match protocol::read_frame(&mut reader, &mut payload) {
                Ok(FrameRead::Eof) | Err(_) => break,
                Ok(FrameRead::Idle) | Ok(FrameRead::Frame) => continue,
            }
        }
    }

    // The server survived both hostile connections: a fresh client
    // gets full service, and the errors were counted.
    let mut client = NetClient::connect(addr).expect("post-abuse connect");
    client.set(9, 81).expect("set");
    assert_eq!(client.get(9).expect("get"), 81);
    assert!(server.stats().protocol_errors >= 1);

    server.shutdown();
}

#[test]
fn truncated_frame_then_silence_is_reaped_by_deadline() {
    let (server, _cache) = spawn_server();

    // Send half a frame (length says 10 bytes, deliver 3) and go
    // silent: the server's mid-frame deadline must close the
    // connection rather than wedge the handler thread.
    let stream = TcpStream::connect(server.local_addr()).expect("raw connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut raw = stream.try_clone().expect("clone");
    raw.write_all(&10u32.to_le_bytes()).expect("length");
    raw.write_all(&[1, 2, 3]).expect("partial payload");
    raw.flush().unwrap();

    let mut reader = std::io::BufReader::new(stream);
    let mut payload = Vec::new();
    loop {
        match protocol::read_frame(&mut reader, &mut payload) {
            Ok(FrameRead::Eof) | Err(_) => break,
            Ok(FrameRead::Idle) | Ok(FrameRead::Frame) => continue,
        }
    }

    // Server is still healthy for everyone else.
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    client.set(3, 14).expect("set");
    assert_eq!(client.get(3).expect("get"), 14);
    server.shutdown();
}

/// Writes `bytes` in pieces cut at `cuts`, pausing between writes so
/// each piece reaches the peer in its own read.
fn write_in_pieces(stream: &mut TcpStream, bytes: &[u8], cuts: &[usize]) {
    let mut from = 0;
    for &cut in cuts.iter().chain([bytes.len()].iter()) {
        stream.write_all(&bytes[from..cut]).expect("write piece");
        stream.flush().expect("flush piece");
        std::thread::sleep(Duration::from_millis(30));
        from = cut;
    }
}

#[test]
fn pipelined_responses_split_across_reads_arrive_in_order() {
    // A stand-in server: it reads the batch's request frames, then
    // answers with one frame's length prefix split across two writes
    // and another frame's payload split across two more, so the client
    // decodes some responses where they land and copies the split ones.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    const N: usize = 8;
    let peer = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        stream.set_nodelay(true).expect("nodelay");
        let mut reader = std::io::BufReader::new(stream.try_clone().expect("clone"));
        let mut payload = Vec::new();
        let mut answers = Vec::new();
        let mut starts = Vec::new();
        for _ in 0..N {
            assert_eq!(
                protocol::read_frame(&mut reader, &mut payload).expect("request"),
                FrameRead::Frame
            );
            let (id, req) = protocol::decode_request(&payload).expect("decodable request");
            let Request::Get { key } = req else {
                panic!("unexpected {req:?}");
            };
            starts.push(answers.len());
            protocol::encode_response(id, &Response::Value(key * 7), &mut answers);
        }
        // Cut inside frame 2's length prefix and inside frame 5's body.
        write_in_pieces(&mut stream, &answers, &[starts[2] + 2, starts[5] + 7]);
        stream
    });
    let cfg = ClientConfig {
        read_timeout: Duration::from_secs(2),
        ..ClientConfig::default()
    };
    let mut client = NetClient::connect_with(addr, cfg).expect("connect");
    let reqs: Vec<Request> = (0..N as u64).map(|key| Request::Get { key }).collect();
    let resps = client.pipeline(&reqs).expect("split responses");
    let want: Vec<Response> = (0..N as u64).map(|k| Response::Value(k * 7)).collect();
    assert_eq!(resps, want);
    drop(peer.join().expect("peer thread"));
}

#[test]
fn request_frame_split_across_reads_is_answered() {
    let (server, _cache) = spawn_server();
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    client.set(21, 2121).expect("set");
    client.set(22, 2222).expect("set");

    let mut stream = TcpStream::connect(server.local_addr()).expect("raw connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(2)))
        .expect("timeout");
    let mut reader = std::io::BufReader::new(stream.try_clone().expect("clone"));
    let mut payload = Vec::new();
    // One GET cut inside its length prefix, one cut inside its body.
    for (id, key, cut) in [(1u32, 21u64, 2usize), (2, 22, 9)] {
        let mut frame = Vec::new();
        protocol::encode_request(id, &Request::Get { key }, &mut frame);
        write_in_pieces(&mut stream, &frame, &[cut]);
        assert_eq!(
            protocol::read_frame(&mut reader, &mut payload).expect("response"),
            FrameRead::Frame
        );
        let (got, resp) = protocol::decode_response(&payload, cachesim::net::ResponseKind::Get)
            .expect("decodable response");
        assert_eq!(got, id);
        assert_eq!(resp, Response::Value(key * 101));
    }
    server.shutdown();
}

#[test]
fn client_deadline_expires_against_a_silent_peer() {
    // A peer that accepts and never answers.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let cfg = ClientConfig {
        read_timeout: Duration::from_millis(25),
        response_deadline: Duration::from_millis(250),
        ..ClientConfig::default()
    };
    let mut client =
        NetClient::connect_with(listener.local_addr().expect("addr"), cfg).expect("connect");
    let (_silent, _) = listener.accept().expect("accept");
    let begun = Instant::now();
    let err = client.get(1).expect_err("no answer can arrive");
    let waited = begun.elapsed();
    assert!(matches!(err, ServerError::DeadlineExpired), "{err:?}");
    assert!(
        waited >= cfg.response_deadline,
        "expired early: {waited:?} < {:?}",
        cfg.response_deadline
    );
    // About one read timeout past the deadline, with room for a busy
    // host's scheduling.
    let late = cfg.response_deadline + 2 * cfg.read_timeout + Duration::from_millis(150);
    assert!(waited <= late, "expired late: {waited:?} > {late:?}");
}

#[test]
fn silent_connection_is_reaped_after_idle_timeout() {
    let cache = Arc::new(ConcurrentBankedCache::new(
        CacheConfig {
            sets: 16,
            ways: 2,
            data_scheme: TwoDScheme::l1_paper(),
            tag_scheme: TwoDScheme {
                data_bits: 50,
                ..TwoDScheme::l1_paper()
            },
        },
        BANKS,
    ));
    let cfg = ServerConfig {
        read_timeout: Duration::from_millis(20),
        idle_timeout: Duration::from_millis(120),
        ..ServerConfig::default()
    };
    let server = CacheServer::spawn(cache, None, "127.0.0.1:0", cfg).expect("bind");

    // Traffic with gaps shorter than the idle timeout keeps a
    // connection open well past it; closing it is not a reap.
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    for i in 0..10u64 {
        client.set(i, i).expect("set");
        std::thread::sleep(Duration::from_millis(40));
    }
    assert_eq!(client.get(9).expect("get"), 9);
    assert_eq!(server.stats().connections_reaped, 0);
    drop(client);

    // A connection that never sends is closed by the server.
    let stream = TcpStream::connect(server.local_addr()).expect("raw connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let begun = Instant::now();
    let mut byte = [0u8; 1];
    let read = (&stream).read(&mut byte);
    assert!(
        matches!(read, Ok(0)) || read.is_err(),
        "server sent {read:?}"
    );
    assert!(begun.elapsed() >= cfg.idle_timeout, "reaped early");
    assert!(begun.elapsed() < Duration::from_secs(5), "never reaped");
    assert_eq!(server.stats().connections_reaped, 1);
    server.shutdown();
}
