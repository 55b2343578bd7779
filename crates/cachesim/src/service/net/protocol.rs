//! Wire codec of the `twod-server` protocol: a length-prefixed binary
//! framing with typed, panic-free decoding.
//!
//! # Frame layout
//!
//! Every message — request or response — travels as one frame:
//!
//! ```text
//! +----------------+--------------------------------------+
//! | u32 LE: length | payload (`length` bytes)             |
//! +----------------+--------------------------------------+
//! payload:
//!   u8      opcode (request) / status (response)
//!   u32 LE  request id (echoed verbatim in the response)
//!   ...     body, fixed layout per opcode/status (below)
//! ```
//!
//! Request bodies: `GET` carries a `u64 LE` key; `SET` a `u64 LE` key
//! followed by a `u64 LE` value; `HEALTH` and `SCRUB_STATS` are empty.
//! Response bodies: `OK` to a `GET` carries the `u64 LE` value; `OK` to
//! a `SET` is empty; `BUSY` and `DEGRADED` carry a `u32 LE`
//! retry-after hint in milliseconds; `FAULT` and `BAD_REQUEST` are
//! empty; `OK` to `HEALTH`/`SCRUB_STATS` carries the serialized
//! [`HealthReport`] / [`ScrubSnapshot`].
//!
//! # Batched (multi-item) frames
//!
//! `GET_MULTI` and `SET_MULTI` carry many keyed operations in one
//! frame, which is what lets the server amortize decode, bank locks,
//! and the response write across a whole batch:
//!
//! ```text
//! GET_MULTI:  u8 op, u32 LE id, u16 LE count, count x u64 LE key
//! SET_MULTI:  u8 op, u32 LE id, u16 LE count, count x (u64 key, u64 value)
//! response:   u8 OK, u32 LE id, u16 LE count, count x (u8 status, u64 LE payload)
//! ```
//!
//! Item counts are bounded by [`MAX_MULTI_ITEMS`] so the largest legal
//! multi frame (and its response) stays within [`MAX_FRAME_BYTES`];
//! overflow is the typed [`ProtocolError::TooManyItems`], never a
//! truncation. Each response item carries its own status byte (the same
//! [`status`] codes single responses use) plus a `u64` payload — the
//! value for an `OK` get item, the retry-after hint (milliseconds) for
//! `BUSY`/`DEGRADED` items, `0` otherwise — so one frame can mix served
//! and shed items without reordering. See [`ItemOutcome`].
//!
//! Keys are capped at [`MAX_KEY`] (51 bits): the server maps keys to
//! aligned 64-bit word addresses through an invertible mixer
//! ([`route_key`]), and injectivity — two distinct keys can never alias
//! one cache word — only holds on the 51-bit domain. A larger key is a
//! `BAD_REQUEST`, not a silent truncation.
//!
//! # Robustness contract
//!
//! Decoding never panics and never reads out of bounds on any input:
//! truncated, oversized, trailing-garbage, unknown-opcode, and
//! unknown-status payloads all come back as typed [`ProtocolError`]s
//! (property-tested in `tests/net_protocol.rs`). Frames longer than
//! [`MAX_FRAME_BYTES`] are rejected from the length prefix alone, so a
//! hostile length can never cause an allocation burst.

use std::fmt;
use std::io::{self, BufRead, BufReader, Read, Write};
use twod_cache::ScrubberStats;

/// Hard ceiling on one frame's payload length. Large enough for a
/// [`HealthReport`] over [`MAX_HEALTH_BANKS`] banks, small enough that a
/// hostile length prefix cannot make the server allocate unboundedly.
pub const MAX_FRAME_BYTES: usize = 64 * 1024;

/// Largest key the protocol accepts (51 bits — see [`route_key`] for
/// why the domain is bounded by the engine's 48-bit stored tag width).
pub const MAX_KEY: u64 = (1 << 51) - 1;

/// Most banks a [`HealthReport`] will serialize (fits [`MAX_FRAME_BYTES`]
/// with generous slack).
pub const MAX_HEALTH_BANKS: usize = 1024;

/// Most items one `GET_MULTI`/`SET_MULTI` frame may carry. Sized so the
/// largest legal frame stays under [`MAX_FRAME_BYTES`]: a `SET_MULTI`
/// payload is `7 + 16 * count` bytes (64 007 at the cap) and the multi
/// response is `7 + 9 * count` (36 007), both with room to spare.
pub const MAX_MULTI_ITEMS: usize = 4000;

/// Request opcodes on the wire.
pub mod opcode {
    /// `GET key` — read one value.
    pub const GET: u8 = 0x01;
    /// `SET key value` — store one value.
    pub const SET: u8 = 0x02;
    /// `HEALTH` — per-bank health introspection.
    pub const HEALTH: u8 = 0x03;
    /// `SCRUB_STATS` — scrubber counters + reliability telemetry.
    pub const SCRUB_STATS: u8 = 0x04;
    /// `GET_MULTI count keys...` — read many values in one frame.
    pub const GET_MULTI: u8 = 0x05;
    /// `SET_MULTI count (key,value)...` — store many pairs in one frame.
    pub const SET_MULTI: u8 = 0x06;
}

/// Response status bytes on the wire.
pub mod status {
    /// Success (body layout depends on the request answered).
    pub const OK: u8 = 0x00;
    /// Admission bound hit — shed with a retry-after hint.
    pub const BUSY: u8 = 0x01;
    /// Target bank degraded/quarantined — shed with a retry-after hint.
    pub const DEGRADED: u8 = 0x02;
    /// Uncorrectable damage on the addressed word.
    pub const FAULT: u8 = 0x03;
    /// Structurally decodable but invalid request (e.g. oversized key).
    pub const BAD_REQUEST: u8 = 0x04;
}

/// A decoded client request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Request {
    /// Read the value stored under `key` (missing keys read as `0`, the
    /// cache's fill value).
    Get {
        /// The 51-bit key (see [`MAX_KEY`]).
        key: u64,
    },
    /// Store `value` under `key`.
    Set {
        /// The 51-bit key (see [`MAX_KEY`]).
        key: u64,
        /// The 64-bit value to store.
        value: u64,
    },
    /// Per-bank health introspection (degraded/quarantined flags,
    /// admission pressure, observed error counts).
    Health,
    /// Background-scrubber counters and live reliability telemetry.
    ScrubStats,
}

/// A decoded server response.
///
/// The two snapshot answers carry boxed payloads, so a `Response` is 16
/// bytes: the GET/SET answers a client collects per request stay one
/// tag and one `u64`, and a vector of them is moved and copied at that
/// size, however large a [`HealthReport`] is.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// `GET` succeeded with this value.
    Value(u64),
    /// `SET` was committed (acknowledged write: it must survive any
    /// fault the scheme covers, and any disconnect).
    Ok,
    /// The target bank's admission queue is full; retry after the hint.
    Busy {
        /// Suggested client backoff in milliseconds.
        retry_after_ms: u32,
    },
    /// The target bank is degraded (mid-recovery or quarantined); the
    /// request was shed, not queued. Healthy banks keep serving.
    Degraded {
        /// Suggested client backoff in milliseconds.
        retry_after_ms: u32,
    },
    /// The operation hit uncorrectable damage — the protection was
    /// defeated for this word.
    Fault,
    /// The request was structurally valid but semantically rejected
    /// (e.g. key above [`MAX_KEY`]).
    BadRequest,
    /// `HEALTH` snapshot.
    Health(Box<HealthReport>),
    /// `SCRUB_STATS` snapshot.
    ScrubStats(Box<ScrubSnapshot>),
}

impl Response {
    /// The wire status byte this response is carried under (see
    /// [`status`]).
    pub fn status_byte(&self) -> u8 {
        match self {
            Response::Value(_) | Response::Ok | Response::Health(_) | Response::ScrubStats(_) => {
                status::OK
            }
            Response::Busy { .. } => status::BUSY,
            Response::Degraded { .. } => status::DEGRADED,
            Response::Fault => status::FAULT,
            Response::BadRequest => status::BAD_REQUEST,
        }
    }
}

/// One bank's health as carried in a [`HealthReport`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BankHealth {
    /// Whether the bank is currently shedding requests (inside its
    /// degraded window following observed error activity).
    pub degraded: bool,
    /// Whether the bank is administratively quarantined.
    pub quarantined: bool,
    /// Requests currently admitted and executing against the bank.
    pub inflight: u32,
    /// The admission bound (`inflight` saturating here means BUSY).
    pub admission_limit: u32,
    /// Error events the bank has observed since construction
    /// (monotonic; inline corrections + recoveries + scrub finds).
    pub observed_errors: u64,
    /// Requests shed by this bank (BUSY + DEGRADED responses).
    pub shed: u64,
    /// Milliseconds until the degraded window expires (`0` when the
    /// bank is healthy; quarantine reports the configured hint).
    pub retry_after_ms: u32,
}

impl BankHealth {
    /// Admission occupancy: `inflight` as a fraction of the admission
    /// limit (`0.0` when the limit is zero). `1.0` means the next
    /// request sheds BUSY.
    pub fn occupancy(&self) -> f64 {
        if self.admission_limit == 0 {
            0.0
        } else {
            f64::from(self.inflight) / f64::from(self.admission_limit)
        }
    }
}

/// The `HEALTH` response payload: per-bank state plus optional scrubber
/// aggregates, enough for a load generator or chaos campaign to assert
/// that degradation was entered and exited.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HealthReport {
    /// Per-bank health, indexed by bank.
    pub banks: Vec<BankHealth>,
    /// Background scrubber counters, when a scrubber is attached.
    pub scrubber: Option<ScrubberStats>,
    /// The scrubber's clean-scan throughput in GB/s of storage swept
    /// (`0.0` when no scrubber is attached or nothing was scanned yet).
    /// Carried explicitly so a load balancer can weigh shards without
    /// re-deriving rates from raw counters.
    pub clean_scan_gbps: f64,
}

impl HealthReport {
    /// Banks currently shedding (degraded or quarantined).
    pub fn degraded_banks(&self) -> usize {
        self.banks
            .iter()
            .filter(|b| b.degraded || b.quarantined)
            .count()
    }

    /// Mean admission occupancy across banks (see
    /// [`BankHealth::occupancy`]); `0.0` for an empty report. A cheap
    /// single-number load signal for shard weighing.
    pub fn admission_occupancy(&self) -> f64 {
        if self.banks.is_empty() {
            return 0.0;
        }
        self.banks.iter().map(BankHealth::occupancy).sum::<f64>() / self.banks.len() as f64
    }
}

/// The `SCRUB_STATS` response payload: scrubber counters plus the live
/// FIT estimate, all zero/absent when no scrubber is attached.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ScrubSnapshot {
    /// Whether a background scrubber is attached to the server.
    pub attached: bool,
    /// Scrubber work counters (zeroed when detached).
    pub stats: ScrubberStats,
    /// Error events behind the FIT estimate.
    pub events: u64,
    /// Device-hours of exposure behind the FIT estimate.
    pub device_hours: f64,
    /// Maximum-likelihood FIT per megabit (0.0 when unavailable).
    pub fit_per_mbit: f64,
}

/// Errors produced by decoding a frame payload. Every variant is a
/// clean rejection of hostile or damaged input — never a panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProtocolError {
    /// The payload ended before the fixed layout was complete.
    Truncated {
        /// Bytes the layout needed.
        need: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// The length prefix exceeded [`MAX_FRAME_BYTES`].
    Oversized {
        /// The offending declared length.
        len: usize,
    },
    /// A zero-length payload (no opcode byte).
    Empty,
    /// Unknown request opcode.
    UnknownOpcode(u8),
    /// Unknown response status byte.
    UnknownStatus(u8),
    /// The payload carried more bytes than its layout defines —
    /// rejected so a framing desync is caught at the first message.
    TrailingBytes {
        /// Unconsumed byte count.
        extra: usize,
    },
    /// A health report declared more banks than [`MAX_HEALTH_BANKS`].
    TooManyBanks {
        /// The declared count.
        banks: usize,
    },
    /// A multi frame declared (or an encoder was asked for) more items
    /// than [`MAX_MULTI_ITEMS`].
    TooManyItems {
        /// The declared/requested item count.
        items: usize,
    },
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Truncated { need, got } => {
                write!(f, "truncated frame: layout needs {need} bytes, got {got}")
            }
            ProtocolError::Oversized { len } => {
                write!(f, "oversized frame: {len} bytes > max {MAX_FRAME_BYTES}")
            }
            ProtocolError::Empty => write!(f, "empty frame payload"),
            ProtocolError::UnknownOpcode(op) => write!(f, "unknown request opcode {op:#04x}"),
            ProtocolError::UnknownStatus(st) => write!(f, "unknown response status {st:#04x}"),
            ProtocolError::TrailingBytes { extra } => {
                write!(
                    f,
                    "frame carries {extra} trailing byte(s) beyond its layout"
                )
            }
            ProtocolError::TooManyBanks { banks } => {
                write!(
                    f,
                    "health report declares {banks} banks > max {MAX_HEALTH_BANKS}"
                )
            }
            ProtocolError::TooManyItems { items } => {
                write!(
                    f,
                    "multi frame declares {items} items > max {MAX_MULTI_ITEMS}"
                )
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

/// Errors of the network tier. A malformed frame or a dead socket
/// surfaces as one of these — never as a panic — so one hostile or
/// unlucky connection can only ever take down itself.
#[derive(Debug)]
pub enum ServerError {
    /// Socket-level failure (reset, refused, broken pipe, ...).
    Io(io::Error),
    /// The peer sent bytes that do not decode as a frame.
    Protocol(ProtocolError),
    /// The peer closed the connection (EOF at a frame boundary is a
    /// clean close; mid-frame it is reported as `Io`).
    Closed,
    /// A read or write missed its deadline.
    DeadlineExpired,
    /// The response id did not match the request id it answers — a
    /// pipelining desync (client-side check).
    IdMismatch {
        /// Id the client expected.
        expected: u32,
        /// Id the frame carried.
        got: u32,
    },
    /// The server answered with a non-success status where the caller
    /// required success; carries the wire status byte (see [`status`]).
    Rejected(u8),
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Io(e) => write!(f, "socket error: {e}"),
            ServerError::Protocol(e) => write!(f, "protocol error: {e}"),
            ServerError::Closed => write!(f, "connection closed by peer"),
            ServerError::DeadlineExpired => write!(f, "connection deadline expired"),
            ServerError::IdMismatch { expected, got } => {
                write!(f, "response id {got} does not answer request id {expected}")
            }
            ServerError::Rejected(st) => {
                write!(f, "request rejected by server (status {st:#04x})")
            }
        }
    }
}

impl std::error::Error for ServerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServerError::Io(e) => Some(e),
            ServerError::Protocol(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ServerError {
    fn from(e: io::Error) -> Self {
        match e.kind() {
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => ServerError::DeadlineExpired,
            io::ErrorKind::UnexpectedEof => ServerError::Closed,
            _ => ServerError::Io(e),
        }
    }
}

impl From<ProtocolError> for ServerError {
    fn from(e: ProtocolError) -> Self {
        ServerError::Protocol(e)
    }
}

/// Maps a key to the aligned 64-bit word address the cache serves it
/// from, through an invertible 51-bit mixer — the hashed key→bank
/// routing: consecutive keys scatter across banks instead of marching
/// through one line at a time, yet no two keys ever share a word.
///
/// Each step is a bijection on the 51-bit domain (odd multipliers are
/// invertible mod 2^51; `x ^= x >> k` is triangular), so the
/// composition is injective and the final `<< 3` maps it onto disjoint
/// aligned words.
///
/// Why 51 bits: addresses stay below 2^54, so line numbers stay below
/// 2^48 — the width of the engine's stored tag field. A wider key
/// domain would let two keys collide in a *truncated* tag and silently
/// alias each other's lines, breaking read-your-writes.
pub fn route_key(key: u64) -> u64 {
    const M51: u64 = (1 << 51) - 1;
    debug_assert!(key <= MAX_KEY, "caller must validate the key first");
    let mut x = key & M51;
    x ^= x >> 26;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9) & M51;
    x ^= x >> 24;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB) & M51;
    x ^= x >> 27;
    x << 3
}

/// Little-endian cursor over a frame payload: all reads bounds-checked,
/// all failures typed.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtocolError> {
        let end = self.pos.checked_add(n).ok_or(ProtocolError::Truncated {
            need: usize::MAX,
            got: self.buf.len(),
        })?;
        if end > self.buf.len() {
            return Err(ProtocolError::Truncated {
                need: end,
                got: self.buf.len(),
            });
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ProtocolError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, ProtocolError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, ProtocolError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn f64(&mut self) -> Result<f64, ProtocolError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// The layout is complete: any unconsumed bytes are a framing error.
    fn finish(self) -> Result<(), ProtocolError> {
        if self.pos != self.buf.len() {
            Err(ProtocolError::TrailingBytes {
                extra: self.buf.len() - self.pos,
            })
        } else {
            Ok(())
        }
    }
}

/// Appends one encoded request frame (length prefix included) to `buf`.
pub fn encode_request(id: u32, req: &Request, buf: &mut Vec<u8>) {
    let start = begin_frame(buf);
    match *req {
        Request::Get { key } => {
            buf.push(opcode::GET);
            buf.extend_from_slice(&id.to_le_bytes());
            buf.extend_from_slice(&key.to_le_bytes());
        }
        Request::Set { key, value } => {
            buf.push(opcode::SET);
            buf.extend_from_slice(&id.to_le_bytes());
            buf.extend_from_slice(&key.to_le_bytes());
            buf.extend_from_slice(&value.to_le_bytes());
        }
        Request::Health => {
            buf.push(opcode::HEALTH);
            buf.extend_from_slice(&id.to_le_bytes());
        }
        Request::ScrubStats => {
            buf.push(opcode::SCRUB_STATS);
            buf.extend_from_slice(&id.to_le_bytes());
        }
    }
    end_frame(buf, start);
}

/// Decodes one request payload (the bytes after the length prefix).
///
/// Single-op frames only: `GET_MULTI`/`SET_MULTI` payloads are rejected
/// as [`ProtocolError::UnknownOpcode`] here — batch-aware callers (the
/// server's drain path, multi-capable clients) use
/// [`decode_request_frame`], which decodes every opcode without
/// allocating.
pub fn decode_request(payload: &[u8]) -> Result<(u32, Request), ProtocolError> {
    if payload.is_empty() {
        return Err(ProtocolError::Empty);
    }
    let mut c = Cursor::new(payload);
    let op = c.u8()?;
    let id = c.u32()?;
    let req = match op {
        opcode::GET => Request::Get { key: c.u64()? },
        opcode::SET => Request::Set {
            key: c.u64()?,
            value: c.u64()?,
        },
        opcode::HEALTH => Request::Health,
        opcode::SCRUB_STATS => Request::ScrubStats,
        other => return Err(ProtocolError::UnknownOpcode(other)),
    };
    c.finish()?;
    Ok((id, req))
}

/// One decoded request frame, multi opcodes included. The multi
/// variants borrow the payload: item iteration is a bounds-prevalidated
/// walk over the raw bytes, so decoding a 4000-item frame allocates
/// nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RequestFrame<'a> {
    /// A single-op frame (`GET`/`SET`/`HEALTH`/`SCRUB_STATS`).
    Single(Request),
    /// A `GET_MULTI` frame: iterate the keys.
    GetMulti(MultiKeys<'a>),
    /// A `SET_MULTI` frame: iterate the `(key, value)` pairs.
    SetMulti(MultiPairs<'a>),
}

/// Iterator over a `GET_MULTI` frame's keys (borrowed from the
/// payload; length validated before construction, so iteration is
/// infallible).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MultiKeys<'a> {
    buf: &'a [u8],
}

impl Iterator for MultiKeys<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        let (head, rest) = self.buf.split_first_chunk::<8>()?;
        self.buf = rest;
        Some(u64::from_le_bytes(*head))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.buf.len() / 8;
        (n, Some(n))
    }
}

impl ExactSizeIterator for MultiKeys<'_> {}

/// Iterator over a `SET_MULTI` frame's `(key, value)` pairs (borrowed
/// from the payload; length validated before construction).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MultiPairs<'a> {
    buf: &'a [u8],
}

impl Iterator for MultiPairs<'_> {
    type Item = (u64, u64);

    fn next(&mut self) -> Option<(u64, u64)> {
        let (head, rest) = self.buf.split_first_chunk::<16>()?;
        self.buf = rest;
        let key = u64::from_le_bytes(head[..8].try_into().expect("8-byte chunk"));
        let value = u64::from_le_bytes(head[8..].try_into().expect("8-byte chunk"));
        Some((key, value))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.buf.len() / 16;
        (n, Some(n))
    }
}

impl ExactSizeIterator for MultiPairs<'_> {}

/// Decodes one request payload of *any* opcode, single or multi,
/// without allocating. Multi item counts beyond [`MAX_MULTI_ITEMS`] are
/// the typed [`ProtocolError::TooManyItems`]; short or long item arrays
/// are `Truncated`/`TrailingBytes`, exactly like the fixed layouts.
pub fn decode_request_frame(payload: &[u8]) -> Result<(u32, RequestFrame<'_>), ProtocolError> {
    if payload.is_empty() {
        return Err(ProtocolError::Empty);
    }
    let op = payload[0];
    if op != opcode::GET_MULTI && op != opcode::SET_MULTI {
        let (id, req) = decode_request(payload)?;
        return Ok((id, RequestFrame::Single(req)));
    }
    let mut c = Cursor::new(payload);
    let _ = c.u8()?;
    let id = c.u32()?;
    let count = u16::from_le_bytes(c.take(2)?.try_into().expect("2-byte take")) as usize;
    if count > MAX_MULTI_ITEMS {
        return Err(ProtocolError::TooManyItems { items: count });
    }
    let item_bytes = if op == opcode::GET_MULTI { 8 } else { 16 };
    let body = c.take(count * item_bytes)?;
    c.finish()?;
    let frame = if op == opcode::GET_MULTI {
        RequestFrame::GetMulti(MultiKeys { buf: body })
    } else {
        RequestFrame::SetMulti(MultiPairs { buf: body })
    };
    Ok((id, frame))
}

/// Appends one encoded `GET_MULTI` request frame to `buf`.
///
/// # Errors
///
/// [`ProtocolError::TooManyItems`] when `keys` exceeds
/// [`MAX_MULTI_ITEMS`] — the caller splits, the encoder never does.
pub fn encode_get_multi(id: u32, keys: &[u64], buf: &mut Vec<u8>) -> Result<(), ProtocolError> {
    if keys.len() > MAX_MULTI_ITEMS {
        return Err(ProtocolError::TooManyItems { items: keys.len() });
    }
    let start = begin_frame(buf);
    buf.push(opcode::GET_MULTI);
    buf.extend_from_slice(&id.to_le_bytes());
    buf.extend_from_slice(&(keys.len() as u16).to_le_bytes());
    for key in keys {
        buf.extend_from_slice(&key.to_le_bytes());
    }
    end_frame(buf, start);
    Ok(())
}

/// Appends one encoded `SET_MULTI` request frame to `buf`.
///
/// # Errors
///
/// [`ProtocolError::TooManyItems`] when `items` exceeds
/// [`MAX_MULTI_ITEMS`].
pub fn encode_set_multi(
    id: u32,
    items: &[(u64, u64)],
    buf: &mut Vec<u8>,
) -> Result<(), ProtocolError> {
    if items.len() > MAX_MULTI_ITEMS {
        return Err(ProtocolError::TooManyItems { items: items.len() });
    }
    let start = begin_frame(buf);
    buf.push(opcode::SET_MULTI);
    buf.extend_from_slice(&id.to_le_bytes());
    buf.extend_from_slice(&(items.len() as u16).to_le_bytes());
    for (key, value) in items {
        buf.extend_from_slice(&key.to_le_bytes());
        buf.extend_from_slice(&value.to_le_bytes());
    }
    end_frame(buf, start);
    Ok(())
}

/// Per-item outcome inside a multi response: the same vocabulary as
/// [`Response`], minus the introspection payloads, plus the explicit
/// get-value variant. One multi frame can mix served and shed items —
/// shedding is per bank, and a batch can span banks in different
/// states.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ItemOutcome {
    /// Get item served with this value.
    Value(u64),
    /// Set item committed (acknowledged write).
    Ok,
    /// Item shed on admission pressure; retry after the hint.
    Busy {
        /// Suggested backoff in milliseconds.
        retry_after_ms: u32,
    },
    /// Item shed because the owning bank is degraded/quarantined.
    Degraded {
        /// Suggested backoff in milliseconds.
        retry_after_ms: u32,
    },
    /// The item hit uncorrectable damage.
    Fault,
    /// The item was rejected (e.g. key above [`MAX_KEY`]).
    BadRequest,
}

/// Appends one encoded multi response frame (`count` items pushed
/// through the returned builder) to `buf`. The frame is finalized — and
/// its length prefix patched — by [`MultiResponseFrame::finish`].
pub fn begin_multi_response(id: u32, count: usize, buf: &mut Vec<u8>) -> MultiResponseFrame<'_> {
    debug_assert!(count <= MAX_MULTI_ITEMS, "count bounded by request decode");
    let start = begin_frame(buf);
    buf.push(status::OK);
    buf.extend_from_slice(&id.to_le_bytes());
    buf.extend_from_slice(&(count as u16).to_le_bytes());
    MultiResponseFrame {
        buf,
        start,
        declared: count,
        written: 0,
    }
}

/// In-progress multi response frame from [`begin_multi_response`]:
/// push exactly the declared number of items, then [`Self::finish`].
#[derive(Debug)]
pub struct MultiResponseFrame<'a> {
    buf: &'a mut Vec<u8>,
    start: usize,
    declared: usize,
    written: usize,
}

impl MultiResponseFrame<'_> {
    /// Appends one item outcome (status byte + `u64` payload).
    ///
    /// # Panics
    ///
    /// Panics when pushed past the declared count — that is a server
    /// logic bug, not a network condition.
    pub fn push(&mut self, item: ItemOutcome) {
        assert!(self.written < self.declared, "multi response overfilled");
        let (st, payload) = match item {
            ItemOutcome::Value(v) => (status::OK, v),
            ItemOutcome::Ok => (status::OK, 0),
            ItemOutcome::Busy { retry_after_ms } => (status::BUSY, u64::from(retry_after_ms)),
            ItemOutcome::Degraded { retry_after_ms } => {
                (status::DEGRADED, u64::from(retry_after_ms))
            }
            ItemOutcome::Fault => (status::FAULT, 0),
            ItemOutcome::BadRequest => (status::BAD_REQUEST, 0),
        };
        self.buf.push(st);
        self.buf.extend_from_slice(&payload.to_le_bytes());
        self.written += 1;
    }

    /// Patches the length prefix, completing the frame.
    ///
    /// # Panics
    ///
    /// Panics when fewer items than declared were pushed.
    pub fn finish(self) {
        assert_eq!(self.written, self.declared, "multi response underfilled");
        end_frame(self.buf, self.start);
    }
}

/// Decodes one multi response payload into `out` (cleared first),
/// returning the echoed request id. `get` selects whether `OK` items
/// decode as [`ItemOutcome::Value`] (answers to `GET_MULTI`) or
/// [`ItemOutcome::Ok`] (answers to `SET_MULTI`) — the caller knows
/// which request this frame answers.
pub fn decode_multi_response(
    payload: &[u8],
    get: bool,
    out: &mut Vec<ItemOutcome>,
) -> Result<u32, ProtocolError> {
    out.clear();
    if payload.is_empty() {
        return Err(ProtocolError::Empty);
    }
    let mut c = Cursor::new(payload);
    let st = c.u8()?;
    if st != status::OK {
        return Err(ProtocolError::UnknownStatus(st));
    }
    let id = c.u32()?;
    let count = u16::from_le_bytes(c.take(2)?.try_into().expect("2-byte take")) as usize;
    if count > MAX_MULTI_ITEMS {
        return Err(ProtocolError::TooManyItems { items: count });
    }
    out.reserve(count);
    for _ in 0..count {
        let st = c.u8()?;
        let payload = c.u64()?;
        out.push(match st {
            status::OK => {
                if get {
                    ItemOutcome::Value(payload)
                } else {
                    ItemOutcome::Ok
                }
            }
            status::BUSY => ItemOutcome::Busy {
                retry_after_ms: payload as u32,
            },
            status::DEGRADED => ItemOutcome::Degraded {
                retry_after_ms: payload as u32,
            },
            status::FAULT => ItemOutcome::Fault,
            status::BAD_REQUEST => ItemOutcome::BadRequest,
            other => return Err(ProtocolError::UnknownStatus(other)),
        });
    }
    c.finish()?;
    Ok(id)
}

/// Appends one encoded response frame (length prefix included) to `buf`.
pub fn encode_response(id: u32, resp: &Response, buf: &mut Vec<u8>) {
    let start = begin_frame(buf);
    let push_head = |buf: &mut Vec<u8>, st: u8| {
        buf.push(st);
        buf.extend_from_slice(&id.to_le_bytes());
    };
    match resp {
        Response::Value(v) => {
            push_head(buf, status::OK);
            buf.extend_from_slice(&v.to_le_bytes());
        }
        Response::Ok => push_head(buf, status::OK),
        Response::Busy { retry_after_ms } => {
            push_head(buf, status::BUSY);
            buf.extend_from_slice(&retry_after_ms.to_le_bytes());
        }
        Response::Degraded { retry_after_ms } => {
            push_head(buf, status::DEGRADED);
            buf.extend_from_slice(&retry_after_ms.to_le_bytes());
        }
        Response::Fault => push_head(buf, status::FAULT),
        Response::BadRequest => push_head(buf, status::BAD_REQUEST),
        Response::Health(report) => {
            push_head(buf, status::OK);
            encode_health(report, buf);
        }
        Response::ScrubStats(snap) => {
            push_head(buf, status::OK);
            encode_scrub(snap, buf);
        }
    }
    end_frame(buf, start);
}

/// The response layouts a `GET`/`SET` answer can take, used by
/// [`decode_response`] to disambiguate `OK` bodies (the status byte
/// alone does not say whether an `OK` carries a value).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResponseKind {
    /// Answer to `GET`: `OK` carries a `u64` value.
    Get,
    /// Answer to `SET`: `OK` is empty.
    Set,
    /// Answer to `HEALTH`: `OK` carries a [`HealthReport`].
    Health,
    /// Answer to `SCRUB_STATS`: `OK` carries a [`ScrubSnapshot`].
    ScrubStats,
}

impl ResponseKind {
    /// The response kind that answers `req`.
    pub fn of(req: &Request) -> Self {
        match req {
            Request::Get { .. } => ResponseKind::Get,
            Request::Set { .. } => ResponseKind::Set,
            Request::Health => ResponseKind::Health,
            Request::ScrubStats => ResponseKind::ScrubStats,
        }
    }
}

/// Decodes one response payload (the bytes after the length prefix).
/// `kind` selects the `OK` body layout — the caller knows which request
/// this frame answers (responses arrive in request order).
pub fn decode_response(
    payload: &[u8],
    kind: ResponseKind,
) -> Result<(u32, Response), ProtocolError> {
    if payload.is_empty() {
        return Err(ProtocolError::Empty);
    }
    let mut c = Cursor::new(payload);
    let st = c.u8()?;
    let id = c.u32()?;
    let resp = match st {
        status::OK => match kind {
            ResponseKind::Get => Response::Value(c.u64()?),
            ResponseKind::Set => Response::Ok,
            ResponseKind::Health => Response::Health(Box::new(decode_health(&mut c)?)),
            ResponseKind::ScrubStats => Response::ScrubStats(Box::new(decode_scrub(&mut c)?)),
        },
        status::BUSY => Response::Busy {
            retry_after_ms: c.u32()?,
        },
        status::DEGRADED => Response::Degraded {
            retry_after_ms: c.u32()?,
        },
        status::FAULT => Response::Fault,
        status::BAD_REQUEST => Response::BadRequest,
        other => return Err(ProtocolError::UnknownStatus(other)),
    };
    c.finish()?;
    Ok((id, resp))
}

fn encode_health(report: &HealthReport, buf: &mut Vec<u8>) {
    let banks = report.banks.len().min(MAX_HEALTH_BANKS);
    buf.extend_from_slice(&(banks as u32).to_le_bytes());
    for b in report.banks.iter().take(banks) {
        buf.push(u8::from(b.degraded) | (u8::from(b.quarantined) << 1));
        buf.extend_from_slice(&b.inflight.to_le_bytes());
        buf.extend_from_slice(&b.admission_limit.to_le_bytes());
        buf.extend_from_slice(&b.observed_errors.to_le_bytes());
        buf.extend_from_slice(&b.shed.to_le_bytes());
        buf.extend_from_slice(&b.retry_after_ms.to_le_bytes());
    }
    match &report.scrubber {
        Some(s) => {
            buf.push(1);
            encode_scrubber_stats(s, buf);
        }
        None => buf.push(0),
    }
    buf.extend_from_slice(&report.clean_scan_gbps.to_bits().to_le_bytes());
}

fn decode_health(c: &mut Cursor<'_>) -> Result<HealthReport, ProtocolError> {
    let banks = c.u32()? as usize;
    if banks > MAX_HEALTH_BANKS {
        return Err(ProtocolError::TooManyBanks { banks });
    }
    let mut report = HealthReport {
        banks: Vec::with_capacity(banks),
        scrubber: None,
        clean_scan_gbps: 0.0,
    };
    for _ in 0..banks {
        let flags = c.u8()?;
        report.banks.push(BankHealth {
            degraded: flags & 1 != 0,
            quarantined: flags & 2 != 0,
            inflight: c.u32()?,
            admission_limit: c.u32()?,
            observed_errors: c.u64()?,
            shed: c.u64()?,
            retry_after_ms: c.u32()?,
        });
    }
    if c.u8()? != 0 {
        report.scrubber = Some(decode_scrubber_stats(c)?);
    }
    report.clean_scan_gbps = c.f64()?;
    Ok(report)
}

fn encode_scrubber_stats(s: &ScrubberStats, buf: &mut Vec<u8>) {
    for v in [
        s.slices,
        s.rows_scanned,
        s.errors_found,
        s.repairs,
        s.full_passes,
        s.uncorrectable,
        s.busy_ns,
        s.clean_rows_scanned,
        s.clean_busy_ns,
        s.clean_bytes_scanned,
    ] {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

fn decode_scrubber_stats(c: &mut Cursor<'_>) -> Result<ScrubberStats, ProtocolError> {
    Ok(ScrubberStats {
        slices: c.u64()?,
        rows_scanned: c.u64()?,
        errors_found: c.u64()?,
        repairs: c.u64()?,
        full_passes: c.u64()?,
        uncorrectable: c.u64()?,
        busy_ns: c.u64()?,
        clean_rows_scanned: c.u64()?,
        clean_busy_ns: c.u64()?,
        clean_bytes_scanned: c.u64()?,
    })
}

fn encode_scrub(snap: &ScrubSnapshot, buf: &mut Vec<u8>) {
    buf.push(u8::from(snap.attached));
    encode_scrubber_stats(&snap.stats, buf);
    buf.extend_from_slice(&snap.events.to_le_bytes());
    buf.extend_from_slice(&snap.device_hours.to_bits().to_le_bytes());
    buf.extend_from_slice(&snap.fit_per_mbit.to_bits().to_le_bytes());
}

fn decode_scrub(c: &mut Cursor<'_>) -> Result<ScrubSnapshot, ProtocolError> {
    Ok(ScrubSnapshot {
        attached: c.u8()? != 0,
        stats: decode_scrubber_stats(c)?,
        events: c.u64()?,
        device_hours: c.f64()?,
        fit_per_mbit: c.f64()?,
    })
}

/// Reserves the length prefix; returns the patch position.
fn begin_frame(buf: &mut Vec<u8>) -> usize {
    let start = buf.len();
    buf.extend_from_slice(&[0u8; 4]);
    start
}

/// Patches the length prefix with the payload size.
fn end_frame(buf: &mut [u8], start: usize) {
    let len = (buf.len() - start - 4) as u32;
    buf[start..start + 4].copy_from_slice(&len.to_le_bytes());
}

/// Outcome of one [`read_frame`] attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameRead {
    /// A complete frame payload was read.
    Frame,
    /// Clean EOF at a frame boundary: the peer closed politely.
    Eof,
    /// The read deadline passed with *no* bytes of a new frame — the
    /// connection is merely idle. Callers decide whether to keep
    /// waiting or to reap.
    Idle,
}

/// Reads one length-prefixed frame payload into `payload` (cleared
/// first).
///
/// Timeout semantics: a timeout *before any byte of this frame* is
/// reported as [`FrameRead::Idle`] — the connection is quiet, not
/// broken. A timeout once the length prefix has started arriving is a
/// hard [`ServerError::DeadlineExpired`]: `read_exact` may already have
/// consumed part of the frame, so resynchronization is impossible and
/// the connection must close — a half-sent frame can stall a
/// connection for at most one read deadline, never wedge it.
///
/// # Errors
///
/// [`ServerError::Protocol`] on an oversized or empty declared length,
/// [`ServerError::Io`]/[`ServerError::DeadlineExpired`] on transport
/// failures, [`ServerError::Closed`] mapped from EOF inside a frame.
pub fn read_frame<R: Read>(r: &mut R, payload: &mut Vec<u8>) -> Result<FrameRead, ServerError> {
    let mut len_buf = [0u8; 4];
    // First byte separately: EOF here is a clean close, and a timeout
    // here is "idle" rather than a deadline violation.
    match r.read(&mut len_buf[..1]) {
        Ok(0) => return Ok(FrameRead::Eof),
        Ok(_) => {}
        Err(e) if is_timeout(&e) => return Ok(FrameRead::Idle),
        Err(e) => return Err(e.into()),
    }
    read_exact_mapped(r, &mut len_buf[1..])?;
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(ProtocolError::Oversized { len }.into());
    }
    if len == 0 {
        return Err(ProtocolError::Empty.into());
    }
    payload.clear();
    payload.resize(len, 0);
    read_exact_mapped(r, payload)?;
    Ok(FrameRead::Frame)
}

/// Payload length of the frame at the start of `buf` when the whole
/// frame is there, `None` when `buf` holds no frame or only part of one.
/// The length prefix is validated exactly as [`read_frame`] validates
/// it, so a hostile length is rejected the same way on both paths.
///
/// # Errors
///
/// [`ProtocolError::Oversized`] or [`ProtocolError::Empty`] on a bad
/// length prefix.
pub fn complete_frame_len(buf: &[u8]) -> Result<Option<usize>, ProtocolError> {
    let Some(&[a, b, c, d]) = buf.first_chunk::<4>() else {
        return Ok(None);
    };
    let len = u32::from_le_bytes([a, b, c, d]) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(ProtocolError::Oversized { len });
    }
    if len == 0 {
        return Err(ProtocolError::Empty);
    }
    Ok((buf.len() >= 4 + len).then_some(len))
}

/// Where [`next_frame`] left the next frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Arrival {
    /// The whole frame sits in the reader's buffer, its payload `len`
    /// bytes after the 4-byte prefix: decode
    /// `reader.buffer()[4..4 + len]` in place, then `consume(4 + len)`.
    Buffered(usize),
    /// The frame was split across reads, so [`read_frame`] copied its
    /// payload into the caller's buffer.
    Copied,
    /// Clean EOF at a frame boundary: the peer closed politely.
    Eof,
    /// The read deadline passed with no byte of a new frame.
    Idle,
}

/// Waits for the next frame on a buffered reader without copying it
/// when it can: a frame already complete in the buffer is left there
/// ([`Arrival::Buffered`]), and only a frame split across reads goes
/// through [`read_frame`] into `payload` ([`Arrival::Copied`]). An empty
/// buffer is refilled with one `read`; its timeout is
/// [`Arrival::Idle`], as in [`read_frame`].
///
/// # Errors
///
/// As [`read_frame`].
pub fn next_frame<R: Read>(
    reader: &mut BufReader<R>,
    payload: &mut Vec<u8>,
) -> Result<Arrival, ServerError> {
    if reader.buffer().is_empty() {
        match reader.fill_buf() {
            Ok([]) => return Ok(Arrival::Eof),
            Ok(_) => {}
            Err(e) if is_timeout(&e) => return Ok(Arrival::Idle),
            Err(e) => return Err(e.into()),
        }
    }
    if let Some(len) = complete_frame_len(reader.buffer())? {
        return Ok(Arrival::Buffered(len));
    }
    Ok(match read_frame(reader, payload)? {
        FrameRead::Frame => Arrival::Copied,
        FrameRead::Eof => Arrival::Eof,
        FrameRead::Idle => Arrival::Idle,
    })
}

/// Whether a read error is a socket read timeout.
fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// `read_exact` with EOF-inside-frame mapped to [`ServerError::Closed`].
fn read_exact_mapped<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<(), ServerError> {
    match r.read_exact(buf) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Err(ServerError::Closed),
        Err(e) => Err(e.into()),
    }
}

/// Writes pre-encoded frame bytes, mapping transport failures.
pub fn write_all<W: Write>(w: &mut W, bytes: &[u8]) -> Result<(), ServerError> {
    w.write_all(bytes)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips() {
        let cases = [
            Request::Get { key: 0 },
            Request::Get { key: MAX_KEY },
            Request::Set {
                key: 12345,
                value: u64::MAX,
            },
            Request::Health,
            Request::ScrubStats,
        ];
        for (i, req) in cases.iter().enumerate() {
            let mut buf = Vec::new();
            encode_request(i as u32, req, &mut buf);
            let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
            assert_eq!(len + 4, buf.len());
            let (id, back) = decode_request(&buf[4..]).unwrap();
            assert_eq!(id, i as u32);
            assert_eq!(back, *req);
        }
    }

    #[test]
    fn response_round_trips() {
        let health = Response::Health(Box::new(HealthReport {
            banks: vec![
                BankHealth {
                    degraded: true,
                    inflight: 3,
                    admission_limit: 64,
                    observed_errors: 17,
                    shed: 2,
                    retry_after_ms: 40,
                    ..BankHealth::default()
                },
                BankHealth::default(),
            ],
            scrubber: Some(ScrubberStats {
                slices: 9,
                repairs: 1,
                ..ScrubberStats::default()
            }),
            clean_scan_gbps: 3.25,
        }));
        let cases = [
            (Response::Value(7), ResponseKind::Get),
            (Response::Ok, ResponseKind::Set),
            (Response::Busy { retry_after_ms: 5 }, ResponseKind::Get),
            (Response::Degraded { retry_after_ms: 9 }, ResponseKind::Set),
            (Response::Fault, ResponseKind::Get),
            (Response::BadRequest, ResponseKind::Set),
            (health, ResponseKind::Health),
            (
                Response::ScrubStats(Box::new(ScrubSnapshot {
                    attached: true,
                    events: 3,
                    device_hours: 1.5,
                    fit_per_mbit: 0.25,
                    ..ScrubSnapshot::default()
                })),
                ResponseKind::ScrubStats,
            ),
        ];
        for (i, (resp, kind)) in cases.iter().enumerate() {
            let mut buf = Vec::new();
            encode_response(i as u32, resp, &mut buf);
            let (id, back) = decode_response(&buf[4..], *kind).unwrap();
            assert_eq!(id, i as u32);
            assert_eq!(back, *resp);
        }
    }

    #[test]
    fn truncation_and_garbage_are_typed_errors() {
        let mut buf = Vec::new();
        encode_request(1, &Request::Set { key: 1, value: 2 }, &mut buf);
        let payload = &buf[4..];
        for cut in 0..payload.len() {
            match decode_request(&payload[..cut]) {
                Err(_) => {}
                Ok(v) => panic!("truncated to {cut} bytes decoded as {v:?}"),
            }
        }
        assert_eq!(decode_request(&[]), Err(ProtocolError::Empty));
        assert!(matches!(
            decode_request(&[0xFF, 0, 0, 0, 0]),
            Err(ProtocolError::UnknownOpcode(0xFF))
        ));
        // Trailing garbage beyond the layout is rejected.
        let mut long = payload.to_vec();
        long.push(0xAA);
        assert!(matches!(
            decode_request(&long),
            Err(ProtocolError::TrailingBytes { extra: 1 })
        ));
    }

    #[test]
    fn read_frame_rejects_oversized_lengths_without_allocating() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(u32::MAX).to_le_bytes());
        bytes.extend_from_slice(&[0u8; 16]);
        let mut payload = Vec::new();
        match read_frame(&mut &bytes[..], &mut payload) {
            Err(ServerError::Protocol(ProtocolError::Oversized { len })) => {
                assert_eq!(len, u32::MAX as usize);
            }
            other => panic!("expected oversized rejection, got {other:?}"),
        }
        assert!(payload.capacity() < MAX_FRAME_BYTES);
    }

    #[test]
    fn multi_request_round_trips_without_alloc_on_decode() {
        let keys: Vec<u64> = (0..37u64).map(|i| i * 3 + 1).collect();
        let mut buf = Vec::new();
        encode_get_multi(9, &keys, &mut buf).unwrap();
        let (id, frame) = decode_request_frame(&buf[4..]).unwrap();
        assert_eq!(id, 9);
        match frame {
            RequestFrame::GetMulti(it) => {
                assert_eq!(it.len(), keys.len());
                assert!(it.eq(keys.iter().copied()));
            }
            other => panic!("expected GetMulti, got {other:?}"),
        }
        let items: Vec<(u64, u64)> = (0..11u64).map(|i| (i, i * i)).collect();
        buf.clear();
        encode_set_multi(3, &items, &mut buf).unwrap();
        let (id, frame) = decode_request_frame(&buf[4..]).unwrap();
        assert_eq!(id, 3);
        match frame {
            RequestFrame::SetMulti(it) => assert!(it.eq(items.iter().copied())),
            other => panic!("expected SetMulti, got {other:?}"),
        }
        // Single frames pass through the same decoder.
        buf.clear();
        encode_request(5, &Request::Get { key: 77 }, &mut buf);
        match decode_request_frame(&buf[4..]).unwrap() {
            (5, RequestFrame::Single(Request::Get { key: 77 })) => {}
            other => panic!("expected single GET, got {other:?}"),
        }
    }

    #[test]
    fn multi_item_bounds_are_typed_errors() {
        let too_many = vec![0u64; MAX_MULTI_ITEMS + 1];
        let mut buf = Vec::new();
        assert_eq!(
            encode_get_multi(1, &too_many, &mut buf),
            Err(ProtocolError::TooManyItems {
                items: MAX_MULTI_ITEMS + 1
            })
        );
        // A hostile declared count is rejected before any item walk.
        let mut payload = vec![opcode::GET_MULTI];
        payload.extend_from_slice(&1u32.to_le_bytes());
        payload.extend_from_slice(&(u16::MAX).to_le_bytes());
        assert_eq!(
            decode_request_frame(&payload),
            Err(ProtocolError::TooManyItems {
                items: u16::MAX as usize
            })
        );
        // Truncated and padded item arrays are framing errors.
        let keys = [1u64, 2, 3];
        buf.clear();
        encode_get_multi(2, &keys, &mut buf).unwrap();
        assert!(matches!(
            decode_request_frame(&buf[4..buf.len() - 1]),
            Err(ProtocolError::Truncated { .. })
        ));
        buf.push(0xAA);
        assert!(matches!(
            decode_request_frame(&buf[4..]),
            Err(ProtocolError::TrailingBytes { extra: 1 })
        ));
    }

    #[test]
    fn multi_response_round_trips_mixed_statuses() {
        let outcomes = [
            ItemOutcome::Value(u64::MAX),
            ItemOutcome::Busy { retry_after_ms: 7 },
            ItemOutcome::Degraded { retry_after_ms: 40 },
            ItemOutcome::Fault,
            ItemOutcome::BadRequest,
            ItemOutcome::Value(0),
        ];
        let mut buf = Vec::new();
        let mut frame = begin_multi_response(12, outcomes.len(), &mut buf);
        for o in outcomes {
            frame.push(o);
        }
        frame.finish();
        let mut back = Vec::new();
        let id = decode_multi_response(&buf[4..], true, &mut back).unwrap();
        assert_eq!(id, 12);
        assert_eq!(back, outcomes);
        // The same frame decoded as a SET_MULTI answer maps OK items to
        // plain acks.
        let id = decode_multi_response(&buf[4..], false, &mut back).unwrap();
        assert_eq!(id, 12);
        assert_eq!(back[0], ItemOutcome::Ok);
        assert_eq!(back[5], ItemOutcome::Ok);
    }

    #[test]
    fn decode_request_frame_matches_decode_request_on_multi_rejection() {
        // The single-op decoder stays single-op: multi payloads are
        // rejected rather than half-decoded.
        let mut buf = Vec::new();
        encode_get_multi(1, &[1, 2], &mut buf).unwrap();
        assert!(matches!(
            decode_request(&buf[4..]),
            Err(ProtocolError::UnknownOpcode(op)) if op == opcode::GET_MULTI
        ));
    }

    #[test]
    fn health_report_occupancy_and_gbps_round_trip() {
        let report = HealthReport {
            banks: vec![
                BankHealth {
                    inflight: 16,
                    admission_limit: 64,
                    ..BankHealth::default()
                },
                BankHealth {
                    inflight: 64,
                    admission_limit: 64,
                    ..BankHealth::default()
                },
            ],
            scrubber: None,
            clean_scan_gbps: 7.5,
        };
        assert!((report.admission_occupancy() - 0.625).abs() < 1e-12);
        let mut buf = Vec::new();
        encode_response(4, &Response::Health(Box::new(report.clone())), &mut buf);
        let (_, back) = decode_response(&buf[4..], ResponseKind::Health).unwrap();
        assert_eq!(back, Response::Health(Box::new(report)));
    }

    #[test]
    fn complete_frame_len_sees_only_whole_frames() {
        let mut buf = Vec::new();
        encode_request(7, &Request::Get { key: 3 }, &mut buf);
        let len = buf.len() - 4;
        for cut in 0..buf.len() {
            assert_eq!(complete_frame_len(&buf[..cut]), Ok(None), "cut at {cut}");
        }
        assert_eq!(complete_frame_len(&buf), Ok(Some(len)));
        buf.push(0xAB);
        assert_eq!(
            complete_frame_len(&buf),
            Ok(Some(len)),
            "next frame's bytes"
        );
        assert_eq!(
            complete_frame_len(&0u32.to_le_bytes()),
            Err(ProtocolError::Empty)
        );
        assert_eq!(
            complete_frame_len(&u32::MAX.to_le_bytes()),
            Err(ProtocolError::Oversized {
                len: u32::MAX as usize
            })
        );
    }

    #[test]
    fn response_stays_two_words() {
        // A GET answer is a tag and a u64; the snapshots are boxed so
        // they do not widen every response.
        assert!(std::mem::size_of::<Response>() <= 16);
    }

    #[test]
    fn route_key_is_injective_on_samples_and_spreads_banks() {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for key in 0..10_000u64 {
            let addr = route_key(key);
            assert_eq!(addr % 8, 0, "aligned");
            assert!(seen.insert(addr), "collision at key {key}");
        }
        // Consecutive keys land on different lines most of the time —
        // the routing actually scatters.
        let same_line = (0..999u64)
            .filter(|&k| route_key(k) / 64 == route_key(k + 1) / 64)
            .count();
        assert!(same_line < 100, "{same_line} consecutive-key line hits");
    }
}
