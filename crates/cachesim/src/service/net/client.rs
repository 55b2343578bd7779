//! Blocking TCP client for the `twod-server` protocol: single-request
//! convenience calls, pipelined batches, retry helpers that honor the
//! server's `BUSY`/`DEGRADED` retry-after hints, and reconnection (the
//! chaos campaign kills and re-establishes connections mid-storm).

use super::protocol::{
    self, Arrival, HealthReport, ItemOutcome, ProtocolError, Request, Response, ResponseKind,
    ScrubSnapshot, ServerError,
};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Timeouts governing one [`NetClient`] connection.
#[derive(Clone, Copy, Debug)]
pub struct ClientConfig {
    /// TCP connect timeout.
    pub connect_timeout: Duration,
    /// Per-`read` socket timeout (the client polls in units of this
    /// while waiting for a response).
    pub read_timeout: Duration,
    /// Per-`write` socket timeout.
    pub write_timeout: Duration,
    /// Overall deadline for one response to arrive; idle polls beyond
    /// this yield [`ServerError::DeadlineExpired`]. The clock is read
    /// only once a read has timed out, and the wait is taken to have
    /// begun one `read_timeout` before that first idle poll, so the
    /// error comes no sooner than this deadline and at most about one
    /// `read_timeout` after it.
    pub response_deadline: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Duration::from_secs(2),
            read_timeout: Duration::from_millis(100),
            write_timeout: Duration::from_millis(500),
            response_deadline: Duration::from_secs(5),
        }
    }
}

/// A blocking connection to a [`CacheServer`](super::CacheServer).
///
/// Requests carry monotonically increasing ids; every response echoes
/// its request's id and the client verifies the match, so a desynced
/// stream surfaces as a typed [`ServerError::IdMismatch`] rather than
/// silently mispairing answers.
#[derive(Debug)]
pub struct NetClient {
    addr: SocketAddr,
    cfg: ClientConfig,
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    next_id: u32,
    payload: Vec<u8>,
    out: Vec<u8>,
}

impl NetClient {
    /// Connects with default timeouts.
    ///
    /// # Errors
    ///
    /// [`ServerError::Io`] if the connection cannot be established.
    pub fn connect(addr: SocketAddr) -> Result<NetClient, ServerError> {
        NetClient::connect_with(addr, ClientConfig::default())
    }

    /// Connects with explicit timeouts.
    ///
    /// # Errors
    ///
    /// [`ServerError::Io`] if the connection cannot be established or
    /// its socket options cannot be set.
    pub fn connect_with(addr: SocketAddr, cfg: ClientConfig) -> Result<NetClient, ServerError> {
        let stream = TcpStream::connect_timeout(&addr, cfg.connect_timeout)?;
        stream.set_read_timeout(Some(cfg.read_timeout))?;
        stream.set_write_timeout(Some(cfg.write_timeout))?;
        stream.set_nodelay(true)?;
        let reader_stream = stream.try_clone()?;
        Ok(NetClient {
            addr,
            cfg,
            reader: BufReader::new(reader_stream),
            writer: BufWriter::new(stream),
            next_id: 1,
            payload: Vec::new(),
            out: Vec::new(),
        })
    }

    /// The server address this client connects to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Drops the current connection (abruptly, without a polite
    /// shutdown — this is how the chaos campaign kills connections
    /// mid-flight) and establishes a fresh one to the same address.
    ///
    /// # Errors
    ///
    /// [`ServerError::Io`] if the reconnect fails.
    pub fn reconnect(&mut self) -> Result<(), ServerError> {
        let _ = self.writer.get_ref().shutdown(Shutdown::Both);
        *self = NetClient::connect_with(self.addr, self.cfg)?;
        Ok(())
    }

    fn fresh_id(&mut self) -> u32 {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        id
    }

    /// Sends one request and waits for its response, verifying the id.
    ///
    /// # Errors
    ///
    /// Transport and framing failures as typed [`ServerError`]s;
    /// [`ServerError::DeadlineExpired`] if no response arrives within
    /// [`ClientConfig::response_deadline`].
    pub fn request(&mut self, req: &Request) -> Result<Response, ServerError> {
        let id = self.fresh_id();
        self.out.clear();
        protocol::encode_request(id, req, &mut self.out);
        protocol::write_all(&mut self.writer, &self.out)?;
        self.writer.flush().map_err(ServerError::from)?;
        self.read_response(id, ResponseKind::of(req))
    }

    /// Sends a batch of requests back-to-back (one flush), then reads
    /// the responses in order — the wire-level pipelining the server's
    /// frame loop is built for. Returns one response per request.
    ///
    /// # Errors
    ///
    /// Fails on the first transport/framing error; earlier responses in
    /// the batch are discarded.
    pub fn pipeline(&mut self, reqs: &[Request]) -> Result<Vec<Response>, ServerError> {
        let first_id = self.next_id;
        self.out.clear();
        for req in reqs {
            let id = self.fresh_id();
            protocol::encode_request(id, req, &mut self.out);
        }
        protocol::write_all(&mut self.writer, &self.out)?;
        self.writer.flush().map_err(ServerError::from)?;
        let mut responses = Vec::with_capacity(reqs.len());
        for (i, req) in reqs.iter().enumerate() {
            let id = first_id.wrapping_add(i as u32);
            responses.push(self.read_response(id, ResponseKind::of(req))?);
        }
        Ok(responses)
    }

    /// [`NetClient::pipeline`] with shed-aware retries: after each
    /// round, requests answered `BUSY`/`DEGRADED` are re-pipelined
    /// (only those — already-resolved slots are never re-sent), after
    /// sleeping the *largest* retry-after hint among them. Results land
    /// in their original slots, so the returned order always matches
    /// `reqs` regardless of how many rounds each request needed.
    ///
    /// # Errors
    ///
    /// Transport/framing errors abort the whole batch; exhausting
    /// `attempts` leaves the final shed responses in place (callers can
    /// distinguish "still shedding" from "broken").
    pub fn pipeline_retry(
        &mut self,
        reqs: &[Request],
        attempts: u32,
    ) -> Result<Vec<Response>, ServerError> {
        let mut responses = self.pipeline(reqs)?;
        let mut pending: Vec<usize> = Vec::new();
        let mut retry_reqs: Vec<Request> = Vec::new();
        for _ in 1..attempts.max(1) {
            pending.clear();
            let mut max_hint_ms = 0u32;
            for (i, resp) in responses.iter().enumerate() {
                if let Response::Busy { retry_after_ms } | Response::Degraded { retry_after_ms } =
                    *resp
                {
                    pending.push(i);
                    max_hint_ms = max_hint_ms.max(retry_after_ms.max(1));
                }
            }
            if pending.is_empty() {
                break;
            }
            std::thread::sleep(Duration::from_millis(u64::from(max_hint_ms.min(100))));
            retry_reqs.clear();
            retry_reqs.extend(pending.iter().map(|&i| reqs[i]));
            let retried = self.pipeline(&retry_reqs)?;
            for (&slot, resp) in pending.iter().zip(retried) {
                responses[slot] = resp;
            }
        }
        Ok(responses)
    }

    /// `GET_MULTI`: fetches many keys in one frame, filling `out` with
    /// one [`ItemOutcome`] per key, in key order. The outcome buffer is
    /// caller-owned so a hot loop reuses its capacity.
    ///
    /// # Errors
    ///
    /// Transport/framing errors,
    /// [`ProtocolError::TooManyItems`](super::protocol::ProtocolError::TooManyItems)
    /// (wrapped) when `keys` exceeds
    /// [`MAX_MULTI_ITEMS`](protocol::MAX_MULTI_ITEMS), and
    /// [`ServerError::IdMismatch`] on a desynced stream.
    pub fn get_multi(
        &mut self,
        keys: &[u64],
        out: &mut Vec<ItemOutcome>,
    ) -> Result<(), ServerError> {
        let id = self.fresh_id();
        self.out.clear();
        protocol::encode_get_multi(id, keys, &mut self.out)?;
        protocol::write_all(&mut self.writer, &self.out)?;
        self.writer.flush().map_err(ServerError::from)?;
        let got_id = self.await_frame(|frame| protocol::decode_multi_response(frame, true, out))?;
        if got_id != id {
            return Err(ServerError::IdMismatch {
                expected: id,
                got: got_id,
            });
        }
        Ok(())
    }

    /// `SET_MULTI`: writes many key/value pairs in one frame, filling
    /// `out` with one [`ItemOutcome`] per pair, in pair order.
    ///
    /// # Errors
    ///
    /// As [`NetClient::get_multi`].
    pub fn set_multi(
        &mut self,
        items: &[(u64, u64)],
        out: &mut Vec<ItemOutcome>,
    ) -> Result<(), ServerError> {
        let id = self.fresh_id();
        self.out.clear();
        protocol::encode_set_multi(id, items, &mut self.out)?;
        protocol::write_all(&mut self.writer, &self.out)?;
        self.writer.flush().map_err(ServerError::from)?;
        let got_id =
            self.await_frame(|frame| protocol::decode_multi_response(frame, false, out))?;
        if got_id != id {
            return Err(ServerError::IdMismatch {
                expected: id,
                got: got_id,
            });
        }
        Ok(())
    }

    /// `GET key`, returning the stored value.
    ///
    /// # Errors
    ///
    /// Transport errors, or [`ServerError::Rejected`] wrapping any
    /// non-`Value` response (`BUSY`/`DEGRADED`/`FAULT`/`BAD_REQUEST`).
    pub fn get(&mut self, key: u64) -> Result<u64, ServerError> {
        match self.request(&Request::Get { key })? {
            Response::Value(v) => Ok(v),
            other => Err(ServerError::Rejected(other.status_byte())),
        }
    }

    /// `SET key = value`.
    ///
    /// # Errors
    ///
    /// Transport errors, or [`ServerError::Rejected`] wrapping any
    /// non-`OK` response.
    pub fn set(&mut self, key: u64, value: u64) -> Result<(), ServerError> {
        match self.request(&Request::Set { key, value })? {
            Response::Ok => Ok(()),
            other => Err(ServerError::Rejected(other.status_byte())),
        }
    }

    /// `GET` with shed-aware retries (see [`NetClient::request_retry`]).
    ///
    /// # Errors
    ///
    /// Transport/framing errors.
    pub fn get_retry(&mut self, key: u64, attempts: u32) -> Result<Response, ServerError> {
        self.request_retry(&Request::Get { key }, attempts)
    }

    /// One request with shed-aware retries: `BUSY`/`DEGRADED` responses
    /// sleep the server's retry-after hint and try again, up to
    /// `attempts` total tries. The last response is returned (or an
    /// error).
    ///
    /// # Errors
    ///
    /// Transport/framing errors; exhausting `attempts` returns the
    /// final shed response as `Ok` so callers can distinguish "still
    /// shedding" from "broken".
    pub fn request_retry(&mut self, req: &Request, attempts: u32) -> Result<Response, ServerError> {
        let mut last = self.request(req)?;
        for _ in 1..attempts.max(1) {
            let hint_ms = match last {
                Response::Busy { retry_after_ms } | Response::Degraded { retry_after_ms } => {
                    retry_after_ms.max(1)
                }
                _ => return Ok(last),
            };
            std::thread::sleep(Duration::from_millis(u64::from(hint_ms.min(100))));
            last = self.request(req)?;
        }
        Ok(last)
    }

    /// Fetches the server's `HEALTH` report.
    ///
    /// # Errors
    ///
    /// Transport errors, or [`ServerError::Rejected`] on a non-health
    /// response.
    pub fn health(&mut self) -> Result<HealthReport, ServerError> {
        match self.request(&Request::Health)? {
            Response::Health(report) => Ok(*report),
            other => Err(ServerError::Rejected(other.status_byte())),
        }
    }

    /// Fetches the server's `SCRUB_STATS` snapshot.
    ///
    /// # Errors
    ///
    /// Transport errors, or [`ServerError::Rejected`] on a non-scrub
    /// response.
    pub fn scrub_stats(&mut self) -> Result<ScrubSnapshot, ServerError> {
        match self.request(&Request::ScrubStats)? {
            Response::ScrubStats(snap) => Ok(*snap),
            other => Err(ServerError::Rejected(other.status_byte())),
        }
    }

    /// Waits for the next response frame, polling through idle read
    /// timeouts until [`ClientConfig::response_deadline`], and decodes
    /// it with `decode`: in place when the whole frame already sits in
    /// the reader's buffer (then consumed), else from the copy of a
    /// frame split across reads. A response that arrives before its
    /// first read times out costs no clock read.
    fn await_frame<T>(
        &mut self,
        decode: impl FnOnce(&[u8]) -> Result<T, ProtocolError>,
    ) -> Result<T, ServerError> {
        let mut begun: Option<Instant> = None;
        loop {
            match protocol::next_frame(&mut self.reader, &mut self.payload)? {
                Arrival::Buffered(len) => {
                    let decoded = decode(&self.reader.buffer()[4..4 + len]);
                    self.reader.consume(4 + len);
                    return Ok(decoded?);
                }
                Arrival::Copied => return Ok(decode(&self.payload)?),
                Arrival::Eof => return Err(ServerError::Closed),
                Arrival::Idle => {
                    let now = Instant::now();
                    let begun = *begun.get_or_insert_with(|| {
                        now.checked_sub(self.cfg.read_timeout).unwrap_or(now)
                    });
                    if now.duration_since(begun) >= self.cfg.response_deadline {
                        return Err(ServerError::DeadlineExpired);
                    }
                }
            }
        }
    }

    /// Reads one response frame and verifies its id.
    fn read_response(&mut self, want_id: u32, kind: ResponseKind) -> Result<Response, ServerError> {
        let (id, resp) = self.await_frame(|frame| protocol::decode_response(frame, kind))?;
        if id != want_id {
            return Err(ServerError::IdMismatch {
                expected: want_id,
                got: id,
            });
        }
        Ok(resp)
    }
}
