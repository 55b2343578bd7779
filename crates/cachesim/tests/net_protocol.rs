//! Property tests for the `twod-server` wire codec: random round-trips
//! plus hostile inputs (truncated, corrupt, oversized, trailing-garbage
//! frames) must come back as typed [`ProtocolError`]s — never a panic
//! or an out-of-bounds read — and the key→address routing must stay
//! injective and inside the engine's tag-safe address range.

use cachesim::net::protocol::{self, MAX_FRAME_BYTES, MAX_KEY};
use cachesim::net::{
    BankHealth, HealthReport, ProtocolError, Request, Response, ResponseKind, ScrubSnapshot,
    ServerError,
};
use proptest::prelude::*;
use twod_cache::ScrubberStats;

fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        (0..=MAX_KEY).prop_map(|key| Request::Get { key }),
        (0..=MAX_KEY, any::<u64>()).prop_map(|(key, value)| Request::Set { key, value }),
        Just(Request::Health),
        Just(Request::ScrubStats),
    ]
}

fn arb_scrubber_stats() -> impl Strategy<Value = ScrubberStats> {
    any::<[u64; 10]>().prop_map(|v| ScrubberStats {
        slices: v[0],
        rows_scanned: v[1],
        errors_found: v[2],
        repairs: v[3],
        full_passes: v[4],
        uncorrectable: v[5],
        busy_ns: v[6],
        clean_rows_scanned: v[7],
        clean_busy_ns: v[8],
        clean_bytes_scanned: v[9],
    })
}

fn arb_bank_health() -> impl Strategy<Value = BankHealth> {
    (
        any::<bool>(),
        any::<bool>(),
        any::<u32>(),
        any::<u32>(),
        any::<u64>(),
        any::<u64>(),
        any::<u32>(),
    )
        .prop_map(
            |(degraded, quarantined, inflight, admission_limit, observed_errors, shed, retry)| {
                BankHealth {
                    degraded,
                    quarantined,
                    inflight,
                    admission_limit,
                    observed_errors,
                    shed,
                    retry_after_ms: retry,
                }
            },
        )
}

fn arb_health_report() -> impl Strategy<Value = HealthReport> {
    (
        proptest::collection::vec(arb_bank_health(), 0..12),
        proptest::option::of(arb_scrubber_stats()),
        // Finite floats only: the codec round-trips raw bits exactly,
        // but NaN breaks the PartialEq the assertion relies on.
        0.0..1e6f64,
    )
        .prop_map(|(banks, scrubber, clean_scan_gbps)| HealthReport {
            banks,
            scrubber,
            clean_scan_gbps,
        })
}

fn arb_scrub_snapshot() -> impl Strategy<Value = ScrubSnapshot> {
    (
        any::<bool>(),
        arb_scrubber_stats(),
        any::<u64>(),
        // Finite floats only: the codec round-trips raw bits exactly,
        // but NaN breaks the PartialEq the assertion relies on.
        0.0..1e15f64,
        0.0..1e9f64,
    )
        .prop_map(
            |(attached, stats, events, device_hours, fit_per_mbit)| ScrubSnapshot {
                attached,
                stats,
                events,
                device_hours,
                fit_per_mbit,
            },
        )
}

fn arb_kind() -> impl Strategy<Value = ResponseKind> {
    prop_oneof![
        Just(ResponseKind::Get),
        Just(ResponseKind::Set),
        Just(ResponseKind::Health),
        Just(ResponseKind::ScrubStats),
    ]
}

/// Responses paired with the [`ResponseKind`] a client would decode
/// them under (statuses with kind-independent bodies get a random kind).
fn arb_response() -> impl Strategy<Value = (Response, ResponseKind)> {
    prop_oneof![
        any::<u64>().prop_map(|v| (Response::Value(v), ResponseKind::Get)),
        Just((Response::Ok, ResponseKind::Set)),
        (any::<u32>(), arb_kind()).prop_map(|(ms, k)| (Response::Busy { retry_after_ms: ms }, k)),
        (any::<u32>(), arb_kind())
            .prop_map(|(ms, k)| (Response::Degraded { retry_after_ms: ms }, k)),
        arb_kind().prop_map(|k| (Response::Fault, k)),
        arb_kind().prop_map(|k| (Response::BadRequest, k)),
        arb_health_report().prop_map(|h| (Response::Health(Box::new(h)), ResponseKind::Health)),
        arb_scrub_snapshot()
            .prop_map(|s| (Response::ScrubStats(Box::new(s)), ResponseKind::ScrubStats)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every request round-trips through the codec byte-exactly, and
    /// the length prefix accounts for the whole frame.
    #[test]
    fn request_round_trips(id in any::<u32>(), req in arb_request()) {
        let mut buf = Vec::new();
        protocol::encode_request(id, &req, &mut buf);
        let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
        prop_assert_eq!(len + 4, buf.len());
        prop_assert!(len <= MAX_FRAME_BYTES);
        let (got_id, got) = protocol::decode_request(&buf[4..]).unwrap();
        prop_assert_eq!(got_id, id);
        prop_assert_eq!(got, req);
    }

    /// Every response — including health reports over random bank
    /// vectors and scrub snapshots — round-trips byte-exactly under the
    /// kind a pipelined client would decode it with.
    #[test]
    fn response_round_trips(id in any::<u32>(), case in arb_response()) {
        let (resp, kind) = case;
        let mut buf = Vec::new();
        protocol::encode_response(id, &resp, &mut buf);
        let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
        prop_assert_eq!(len + 4, buf.len());
        prop_assert!(len <= MAX_FRAME_BYTES);
        let (got_id, got) = protocol::decode_response(&buf[4..], kind).unwrap();
        prop_assert_eq!(got_id, id);
        prop_assert_eq!(got, resp);
    }

    /// Truncating a valid request payload at ANY byte boundary yields a
    /// typed error, never a panic and never a silent shorter decode.
    #[test]
    fn truncated_requests_are_typed_errors(
        id in any::<u32>(),
        req in arb_request(),
        frac in 0.0..1.0f64,
    ) {
        let mut buf = Vec::new();
        protocol::encode_request(id, &req, &mut buf);
        let payload = &buf[4..];
        let cut = ((payload.len() as f64) * frac) as usize;
        prop_assert!(cut < payload.len());
        prop_assert!(protocol::decode_request(&payload[..cut]).is_err());
    }

    /// Appending trailing garbage to a valid payload is caught — a
    /// framing desync surfaces at the first message, not silently.
    #[test]
    fn trailing_bytes_are_rejected(
        id in any::<u32>(),
        req in arb_request(),
        garbage in proptest::collection::vec(any::<u8>(), 1..8),
    ) {
        let mut buf = Vec::new();
        protocol::encode_request(id, &req, &mut buf);
        let mut payload = buf[4..].to_vec();
        let extra = garbage.len();
        payload.extend_from_slice(&garbage);
        prop_assert_eq!(
            protocol::decode_request(&payload),
            Err(ProtocolError::TrailingBytes { extra })
        );
    }

    /// Arbitrary byte soup fed to the request decoder returns Ok or a
    /// typed error — no panic, no out-of-bounds read.
    #[test]
    fn random_bytes_never_panic_request_decoder(
        bytes in proptest::collection::vec(any::<u8>(), 0..96),
    ) {
        let _ = protocol::decode_request(&bytes);
    }

    /// Arbitrary byte soup never panics the response decoder under any
    /// of the four kinds.
    #[test]
    fn random_bytes_never_panic_response_decoder(
        bytes in proptest::collection::vec(any::<u8>(), 0..160),
    ) {
        for kind in [
            ResponseKind::Get,
            ResponseKind::Set,
            ResponseKind::Health,
            ResponseKind::ScrubStats,
        ] {
            let _ = protocol::decode_response(&bytes, kind);
        }
    }

    /// Arbitrary byte streams never panic the framer, and a declared
    /// length beyond the cap is rejected without a giant allocation.
    #[test]
    fn random_streams_never_panic_read_frame(
        bytes in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut payload = Vec::new();
        let _ = protocol::read_frame(&mut &bytes[..], &mut payload);
        prop_assert!(payload.capacity() <= MAX_FRAME_BYTES);
    }

    /// An oversized declared length is rejected from the prefix alone.
    #[test]
    fn oversized_length_prefix_is_rejected(
        len in (MAX_FRAME_BYTES as u32 + 1)..=u32::MAX,
    ) {
        let mut bytes = len.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0u8; 8]);
        let mut payload = Vec::new();
        match protocol::read_frame(&mut &bytes[..], &mut payload) {
            Err(ServerError::Protocol(ProtocolError::Oversized { len: got })) => {
                prop_assert_eq!(got, len as usize);
            }
            other => prop_assert!(false, "expected Oversized, got {:?}", other),
        }
        prop_assert!(payload.capacity() <= MAX_FRAME_BYTES);
    }

    /// `GET_MULTI` frames round-trip through the batch-aware decoder:
    /// every key comes back in order, and the frame stays in cap.
    #[test]
    fn get_multi_round_trips(
        id in any::<u32>(),
        keys in proptest::collection::vec(0..=MAX_KEY, 0..96),
    ) {
        let mut buf = Vec::new();
        protocol::encode_get_multi(id, &keys, &mut buf).unwrap();
        let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
        prop_assert_eq!(len + 4, buf.len());
        prop_assert!(len <= MAX_FRAME_BYTES);
        let (got_id, frame) = protocol::decode_request_frame(&buf[4..]).unwrap();
        prop_assert_eq!(got_id, id);
        match frame {
            protocol::RequestFrame::GetMulti(iter) => {
                let got: Vec<u64> = iter.collect();
                prop_assert_eq!(got, keys);
            }
            other => prop_assert!(false, "expected GetMulti, got {:?}", other),
        }
    }

    /// `SET_MULTI` frames round-trip key/value pairs in order.
    #[test]
    fn set_multi_round_trips(
        id in any::<u32>(),
        items in proptest::collection::vec((0..=MAX_KEY, any::<u64>()), 0..64),
    ) {
        let mut buf = Vec::new();
        protocol::encode_set_multi(id, &items, &mut buf).unwrap();
        let (got_id, frame) = protocol::decode_request_frame(&buf[4..]).unwrap();
        prop_assert_eq!(got_id, id);
        match frame {
            protocol::RequestFrame::SetMulti(iter) => {
                let got: Vec<(u64, u64)> = iter.collect();
                prop_assert_eq!(got, items);
            }
            other => prop_assert!(false, "expected SetMulti, got {:?}", other),
        }
    }

    /// Truncating a multi frame at any byte boundary is a typed error,
    /// and byte soup never panics the batch-aware decoder.
    #[test]
    fn truncated_multi_frames_are_typed_errors(
        id in any::<u32>(),
        keys in proptest::collection::vec(0..=MAX_KEY, 1..32),
        frac in 0.0..1.0f64,
    ) {
        let mut buf = Vec::new();
        protocol::encode_get_multi(id, &keys, &mut buf).unwrap();
        let payload = &buf[4..];
        let cut = ((payload.len() as f64) * frac) as usize;
        prop_assert!(cut < payload.len());
        prop_assert!(protocol::decode_request_frame(&payload[..cut]).is_err());
    }

    /// Arbitrary byte soup fed to the batch-aware frame decoder returns
    /// Ok or a typed error — no panic, no out-of-bounds read.
    #[test]
    fn random_bytes_never_panic_frame_decoder(
        bytes in proptest::collection::vec(any::<u8>(), 0..96),
    ) {
        let _ = protocol::decode_request_frame(&bytes);
    }

    /// Multi responses round-trip every per-item status in order, under
    /// both the GET and SET interpretations of the OK payload.
    #[test]
    fn multi_responses_round_trip(
        id in any::<u32>(),
        items in proptest::collection::vec(
            prop_oneof![
                any::<u64>().prop_map(protocol::ItemOutcome::Value),
                Just(protocol::ItemOutcome::Ok),
                any::<u32>().prop_map(|ms| protocol::ItemOutcome::Busy { retry_after_ms: ms }),
                any::<u32>().prop_map(|ms| protocol::ItemOutcome::Degraded { retry_after_ms: ms }),
                Just(protocol::ItemOutcome::Fault),
                Just(protocol::ItemOutcome::BadRequest),
            ],
            0..48,
        ),
    ) {
        // Under the GET interpretation OK items carry a value; encode
        // what a server answering a GET_MULTI would (Value, never Ok).
        let sent: Vec<protocol::ItemOutcome> = items
            .iter()
            .map(|item| match *item {
                protocol::ItemOutcome::Ok => protocol::ItemOutcome::Value(0),
                other => other,
            })
            .collect();
        let mut buf = Vec::new();
        let mut frame = protocol::begin_multi_response(id, sent.len(), &mut buf);
        for item in &sent {
            frame.push(*item);
        }
        frame.finish();
        let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
        prop_assert_eq!(len + 4, buf.len());
        prop_assert!(len <= MAX_FRAME_BYTES);
        let mut got = Vec::new();
        let got_id = protocol::decode_multi_response(&buf[4..], true, &mut got).unwrap();
        prop_assert_eq!(got_id, id);
        prop_assert_eq!(got.clone(), sent.clone());
        // The SET interpretation collapses every OK payload to `Ok`.
        let want_set: Vec<protocol::ItemOutcome> = sent
            .iter()
            .map(|item| match *item {
                protocol::ItemOutcome::Value(_) => protocol::ItemOutcome::Ok,
                other => other,
            })
            .collect();
        protocol::decode_multi_response(&buf[4..], false, &mut got).unwrap();
        prop_assert_eq!(got, want_set);
    }

    /// Key routing is injective (distinct keys never share a cache
    /// word) and lands inside the tag-safe address range: below 2^54 so
    /// line numbers fit the engine's 48-bit stored tag, and 8-aligned.
    #[test]
    fn route_key_is_injective_and_tag_safe(a in 0..=MAX_KEY, b in 0..=MAX_KEY) {
        let ra = protocol::route_key(a);
        let rb = protocol::route_key(b);
        prop_assert!(ra < (1u64 << 54));
        prop_assert_eq!(ra % 8, 0);
        if a != b {
            prop_assert_ne!(ra, rb);
        } else {
            prop_assert_eq!(ra, rb);
        }
    }
}

/// Unknown opcodes and statuses are typed rejections, pinned exactly
/// (the proptests above only check "is an error").
#[test]
fn unknown_opcode_and_status_are_typed() {
    let mut payload = vec![0x7Fu8];
    payload.extend_from_slice(&9u32.to_le_bytes());
    assert_eq!(
        protocol::decode_request(&payload),
        Err(ProtocolError::UnknownOpcode(0x7F))
    );
    assert_eq!(
        protocol::decode_response(&payload, ResponseKind::Set),
        Err(ProtocolError::UnknownStatus(0x7F))
    );
    assert_eq!(protocol::decode_request(&[]), Err(ProtocolError::Empty));
}
