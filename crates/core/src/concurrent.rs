//! A thread-safe sharded 2D-protected cache: the concurrency layer the
//! paper's banked L2 organization implies but a `&mut self` API cannot
//! express.
//!
//! [`ConcurrentBankedCache`] wraps each bank ([`ProtectedCache`]) in its
//! own lock and interleaves line addresses across banks, so accesses to
//! different banks proceed in parallel and a bank running its multi-bit
//! recovery march never stalls its siblings — exactly the independence
//! the per-bank vertical parity was designed around. The whole service
//! is `Send + Sync` and every operation takes `&self`, which is what
//! lets a multi-threaded frontend (see `cachesim::service`) drive it.
//!
//! # Lock discipline
//!
//! Every locked operation locks exactly one bank — the one owning the
//! address — for the duration of the access, including any transparent
//! recovery. Aggregation paths ([`Self::stats`], [`Self::audit`],
//! [`Self::scrub`]) visit banks one at a time; there is no global lock
//! anywhere, so no lock ordering and no deadlock.
//!
//! # The seqlock clean-read fast path
//!
//! The paper's premise is that clean reads are the overwhelmingly common
//! case: 2D coding makes them *verify-only* (re-encode the stored data
//! and compare its check bits; no mutation, no decode). That asymmetry
//! is what makes an optimistic read protocol sound here, so each bank
//! additionally carries a seqlock generation counter:
//!
//! * every lock acquisition ([`Self::lock_bank`]) bumps the bank's
//!   sequence to **odd** on entry and back to **even** on release —
//!   every locked operation is a *writer* for sequencing purposes, even
//!   logical reads (they mutate LRU stacks, stats, and scratch rows);
//! * [`Self::try_optimistic_read`] snapshots an even sequence, probes
//!   the tag and data grids through borrow-free verify-only
//!   [`memarray::ArrayProbe`]s, re-checks the sequence, and hands any
//!   torn read, odd sequence, dirty-word signal, or tag miss to the
//!   locked fallback path;
//! * [`Self::read`] tries the optimistic path first and falls back to
//!   the locked bank transparently.
//!
//! The full protocol — invariants, memory orderings with the
//! happens-before argument, and the torn-read fallback state machine —
//! is documented in `docs/CONCURRENCY.md`.

use crate::cache::{CacheGeometry, Divisor, TagEntry, TAG_ENTRY_BITS, TAG_KEY_BITS};
use crate::{CacheConfig, CacheStats, ProtectedCache, LINE_BYTES};
use memarray::{ArrayProbe, EngineError, EngineStats, ErrorShape, ScrubSlice};
use std::cell::{RefCell, UnsafeCell};
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// One bank: the protected cache plus the seqlock state guarding it.
///
/// The [`ProtectedCache`] lives in an [`UnsafeCell`] because optimistic
/// readers probe its grids while a writer may be mutating them under the
/// mutex — Rust's `&`/`&mut` aliasing rules cannot express a seqlock, so
/// the discipline is enforced by hand:
///
/// * `&mut ProtectedCache` is only ever formed while holding `lock`
///   (via [`BankGuard`]) or while holding `&mut` on the whole cache
///   (via [`ConcurrentBankedCache::bank_mut`]);
/// * lock-free readers never form *any* reference into the racing
///   storage — the [`ArrayProbe`]s read raw grid limbs with relaxed
///   atomic loads and all validation happens against the stack snapshot.
struct Bank {
    /// Seqlock generation counter: odd while a [`BankGuard`] is live,
    /// even when quiescent. Only ever mutated under `lock`.
    seq: AtomicU64,
    /// The writer-exclusion mutex. Holds no data — the payload lives in
    /// `cache` so readers can reach it without the borrow the mutex
    /// would impose.
    lock: Mutex<()>,
    cache: UnsafeCell<ProtectedCache>,
    /// Verify-only window onto `cache`'s data grid (captured once at
    /// construction; the grid's limb buffer never reallocates).
    data_probe: ArrayProbe,
    /// Verify-only window onto `cache`'s tag grid.
    tag_probe: ArrayProbe,
    /// Reads served by the optimistic path (they bypass the per-bank
    /// `CacheStats`, which only a locked borrow may touch).
    opt_hits: AtomicU64,
    /// Whether the bank's fault overlay holds stuck-at cells. The probes
    /// read raw grid limbs and cannot consult the overlay's `BTreeMap`
    /// lock-free, so optimistic reads are disabled while this is set.
    /// Refreshed on every [`BankGuard`] release; pessimistically pinned
    /// `true` by [`ConcurrentBankedCache::bank_mut`] (whose caller may
    /// inject faults without ever taking the lock).
    hard_faults: AtomicBool,
}

// SAFETY: `Bank` is shared across threads by design. All `&mut` access
// to the `UnsafeCell` payload is serialized by `lock` (or by `&mut self`
// on the owning cache), and the only lock-free access is through the
// probes' relaxed atomic limb loads, validated by the seqlock protocol
// (see module docs and docs/CONCURRENCY.md).
unsafe impl Send for Bank {}
unsafe impl Sync for Bank {}

impl Bank {
    fn new(config: CacheConfig) -> Self {
        let cache = ProtectedCache::new(config);
        // Capture the probes before the cache moves into the cell: they
        // point at the grids' heap limb buffers, which stay put when the
        // owning struct moves and are never reallocated afterwards.
        let data_probe = cache.data_array().probe();
        let tag_probe = cache.tag_array().probe();
        Bank {
            seq: AtomicU64::new(0),
            lock: Mutex::new(()),
            cache: UnsafeCell::new(cache),
            data_probe,
            tag_probe,
            opt_hits: AtomicU64::new(0),
            hard_faults: AtomicBool::new(false),
        }
    }
}

/// A locked bank: exclusive access to one [`ProtectedCache`], with the
/// bank's seqlock sequence held **odd** for as long as the guard lives.
///
/// Obtained from [`ConcurrentBankedCache::lock_bank`]. Dereferences to
/// the bank's [`ProtectedCache`], so existing `MutexGuard`-era call
/// sites (`cache.lock_bank(b).scrub_step(..)`, scrubber workers,
/// campaign drivers) work unchanged — and by construction every one of
/// them, including logical reads, sequences as a seqlock *writer*: lock
/// acquisition stores an odd sequence before any payload access is
/// possible, and the guard's `Drop` publishes the even successor with
/// `Release` ordering after all mutation is done.
pub struct BankGuard<'a> {
    bank: &'a Bank,
    /// Held for exclusion only; payload access goes through the cell.
    _lock: MutexGuard<'a, ()>,
}

impl Deref for BankGuard<'_> {
    type Target = ProtectedCache;

    fn deref(&self) -> &ProtectedCache {
        // SAFETY: the mutex is held, so no other `&mut` exists; lock-free
        // probes never form references into the payload.
        unsafe { &*self.bank.cache.get() }
    }
}

impl DerefMut for BankGuard<'_> {
    fn deref_mut(&mut self) -> &mut ProtectedCache {
        // SAFETY: as above — the mutex serializes all `&mut` access.
        unsafe { &mut *self.bank.cache.get() }
    }
}

impl Drop for BankGuard<'_> {
    fn drop(&mut self) {
        // Refresh the hard-fault hint while still sequenced: the store
        // lands before the even sequence below, so a reader that
        // validates against the new sequence also sees the new hint.
        let cache = unsafe { &*self.bank.cache.get() };
        let hard =
            !cache.data_array().fault_map().is_empty() || !cache.tag_array().fault_map().is_empty();
        self.bank.hard_faults.store(hard, Ordering::Relaxed);
        // Writer exit: publish the even successor. `Release` orders every
        // payload store of this critical section before the store, so a
        // reader whose `Acquire` snapshot observes it sees the section's
        // writes in full. The body runs before `_lock` drops, so the
        // sequence is even again before the mutex is released.
        let s = self.bank.seq.load(Ordering::Relaxed);
        self.bank.seq.store(s.wrapping_add(1), Ordering::Release);
    }
}

impl fmt::Debug for BankGuard<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BankGuard({:?})", **self)
    }
}

/// An address-interleaved, lock-per-bank array of [`ProtectedCache`]
/// banks with a `&self` (shared-reference) access API and a seqlock
/// optimistic fast path for clean read hits.
///
/// Lines are distributed across banks by line-address modulo, the same
/// mapping the paper's banked L2 uses. All banks are built from one
/// shared [`memarray::BankScheme`] per array kind, so the codec table
/// memory exists once regardless of the bank count.
///
/// # Examples
///
/// ```
/// use std::thread;
/// use twod_cache::{CacheConfig, ConcurrentBankedCache};
///
/// let l2 = ConcurrentBankedCache::new(CacheConfig::l1_64kb(), 4);
/// thread::scope(|s| {
///     for t in 0u64..4 {
///         let l2 = &l2;
///         s.spawn(move || {
///             let addr = 0x1000 + t * 8;
///             l2.write(addr, t + 1).unwrap();
///             assert_eq!(l2.read(addr).unwrap(), t + 1);
///         });
///     }
/// });
/// // Re-reads of resident clean lines are served lock-free.
/// assert!(l2.read(0x1000).is_ok());
/// assert!(l2.optimistic_hits() > 0);
/// ```
pub struct ConcurrentBankedCache {
    banks: Vec<Bank>,
    /// Divides line addresses by the bank count without a hardware
    /// division (any bank count, not only powers of two).
    bank_divisor: Divisor,
    /// The per-bank configuration, kept outside the banks so
    /// [`Self::capacity`] and `Debug` answer without taking a lock.
    config: CacheConfig,
    /// `Copy` snapshot of the per-bank address arithmetic, so the
    /// optimistic path computes (set, way, row, slot) coordinates
    /// without borrowing any bank.
    geometry: CacheGeometry,
    /// Total [`Self::lock_bank`] acquisitions, across banks and callers.
    /// The amortization ledger: batched execution's whole claim is that
    /// this grows sublinearly in operations served, and the bench gate
    /// pins locks-per-op against it.
    lock_acquisitions: AtomicU64,
}

/// One operation of a batch handed to
/// [`ConcurrentBankedCache::execute_batch`]. Ops carry full (global)
/// addresses; the batch executor routes each to its owning bank.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchOp {
    /// Read the aligned 64-bit word at the address.
    Read(u64),
    /// Write the value to the aligned 64-bit word at the address.
    Write(u64, u64),
}

impl BatchOp {
    /// The address the op targets.
    pub fn addr(&self) -> u64 {
        match *self {
            BatchOp::Read(addr) | BatchOp::Write(addr, _) => addr,
        }
    }
}

/// Per-op result of a batched execution, position-matched to the input
/// slice. `Failed` carries the bank's [`EngineError`] (protection
/// defeated), exactly what the scalar [`ConcurrentBankedCache::read`] /
/// [`ConcurrentBankedCache::write`] would have returned.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BatchOutcome {
    /// A read completed and produced this value.
    Value(u64),
    /// A write completed.
    Written,
    /// The owning bank's protection was defeated for this op.
    Failed(EngineError),
}

/// A batch's ops routed to their banks once: each op's bank and
/// bank-local address, and the op indices grouped by bank (ascending
/// bank order, batch order within a group), built by one O(N + banks)
/// counting sort with no division on the way
/// ([`ConcurrentBankedCache::route_batch`]).
///
/// The route is the one grouping of a batch: the network server reads
/// its groups for per-bank admission, trims them with
/// [`BatchRoute::admit`], and hands the same route to
/// [`ConcurrentBankedCache::execute_routed`]. Its buffers keep their
/// capacity, so routing allocates nothing once sized.
#[derive(Clone, Debug, Default)]
pub struct BatchRoute {
    /// Owning bank of each op, index-matched to the routed ops
    /// ([`UNROUTED`] for ops left out).
    bank: Vec<u32>,
    /// Bank-local address of each op, index-matched to the routed ops.
    local: Vec<u64>,
    /// Routed op indices, grouped by bank.
    order: Vec<u32>,
    /// The touched banks in ascending order: `(bank, start, end)` into
    /// `order`.
    groups: Vec<(u32, u32, u32)>,
    /// Counting-sort scratch, one counter per bank.
    counts: Vec<u32>,
}

/// [`BatchRoute::bank`] marker of an op the route leaves out.
const UNROUTED: u32 = u32::MAX;

impl BatchRoute {
    /// An empty route.
    pub const fn new() -> Self {
        BatchRoute {
            bank: Vec::new(),
            local: Vec::new(),
            order: Vec::new(),
            groups: Vec::new(),
            counts: Vec::new(),
        }
    }

    /// The routed ops grouped by bank: `(bank, op indices)` for every
    /// bank owning at least one op, in ascending bank order, with each
    /// group's indices in batch order.
    pub fn groups(&self) -> impl Iterator<Item = (usize, &[u32])> + '_ {
        self.groups
            .iter()
            .map(|&(bank, start, end)| (bank as usize, &self.order[start as usize..end as usize]))
    }

    /// Admission: calls `keep(bank, ops)` once per group and trims the
    /// group to its first `keep` ops (batch order), so a shed never
    /// runs ahead of an admitted op of the same bank. Trimmed ops are
    /// not executed.
    pub fn admit(&mut self, mut keep: impl FnMut(usize, &[u32]) -> usize) {
        for (bank, start, end) in &mut self.groups {
            let ops = &self.order[*start as usize..*end as usize];
            let kept = keep(*bank as usize, ops).min(ops.len());
            *end = *start + kept as u32;
        }
    }
}

thread_local! {
    /// Routing scratch of [`ConcurrentBankedCache::execute_batch_observed`],
    /// one per thread so batches allocate nothing once it is sized.
    static ROUTE: RefCell<BatchRoute> = const { RefCell::new(BatchRoute::new()) };
}

impl ConcurrentBankedCache {
    /// Creates `banks` independent banks, each configured per `config`.
    ///
    /// # Panics
    ///
    /// Panics if `banks == 0` or the per-bank geometry is invalid.
    pub fn new(config: CacheConfig, banks: usize) -> Self {
        assert!(banks > 0, "need at least one bank");
        ConcurrentBankedCache {
            banks: (0..banks).map(|_| Bank::new(config)).collect(),
            bank_divisor: Divisor::new(banks as u64),
            config,
            geometry: CacheGeometry::new(&config),
            lock_acquisitions: AtomicU64::new(0),
        }
    }

    /// Number of banks.
    pub fn banks(&self) -> usize {
        self.banks.len()
    }

    /// Total capacity across banks. Takes no lock.
    pub fn capacity(&self) -> usize {
        self.config.capacity() * self.banks.len()
    }

    /// Which bank serves `addr`.
    pub fn bank_of(&self, addr: u64) -> usize {
        self.route(addr).0
    }

    /// The owning bank of `addr` and its bank-local address (the line
    /// index within the bank, preserving the in-line offset).
    #[inline]
    fn route(&self, addr: u64) -> (usize, u64) {
        let line_bytes = LINE_BYTES as u64;
        let (local_line, bank) = self.bank_divisor.div_rem(addr / line_bytes);
        (bank as usize, local_line * line_bytes + addr % line_bytes)
    }

    /// Locks one bank and returns the guard, entering the bank's seqlock
    /// write side (sequence goes odd; see [`BankGuard`]). A bank whose
    /// lock was poisoned (a panic inside another thread's access) is
    /// recovered rather than propagated: the bank's own 2D consistency
    /// machinery — audits, scrubbing, recovery — is the integrity story,
    /// not the poison flag, and one crashed worker must not take a bank
    /// (and every line it shards) permanently offline.
    pub fn lock_bank(&self, index: usize) -> BankGuard<'_> {
        self.lock_acquisitions.fetch_add(1, Ordering::Relaxed);
        let bank = &self.banks[index];
        let lock = bank
            .lock
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        // Writer entry: make the sequence odd *before* any payload
        // mutation can happen. The store itself can be `Relaxed` (only
        // lock holders mutate `seq`, and the mutex serialized us); the
        // `Release` fence keeps it from sinking below the critical
        // section's payload stores, which is what lets a racing reader's
        // acquire-fence validation observe "writer active" whenever it
        // observed any of those stores (see docs/CONCURRENCY.md).
        let s = bank.seq.load(Ordering::Relaxed);
        bank.seq.store(s.wrapping_add(1), Ordering::Relaxed);
        fence(Ordering::Release);
        BankGuard { bank, _lock: lock }
    }

    /// Mutable access to one bank without locking (requires `&mut self`,
    /// which proves exclusive ownership — no optimistic reader can run
    /// concurrently, so no sequence bump is needed). The hard-fault hint
    /// is pessimistically pinned until the next locked access recomputes
    /// it, because the caller may inject stuck-at faults through the
    /// returned reference without ever taking the lock.
    pub fn bank_mut(&mut self, index: usize) -> &mut ProtectedCache {
        let bank = &mut self.banks[index];
        bank.hard_faults.store(true, Ordering::Relaxed);
        bank.cache.get_mut()
    }

    /// Attempts a lock-free optimistic read of the aligned 64-bit word at
    /// `addr`: the seqlock read side. Returns the value only when the
    /// whole attempt was provably race-free and clean —
    ///
    /// 1. the bank's hard-fault hint is clear (the probes bypass the
    ///    stuck-at overlay, so any stuck cell disables the fast path),
    /// 2. the sequence snapshot is even (no writer in the bank),
    /// 3. the tag lookup finds a valid matching way and that way's tag
    ///    word verifies clean (the other ways are screened out in the
    ///    interleaved domain without verification — a corrupted
    ///    non-match can only demote this attempt to the locked path,
    ///    never serve data),
    /// 4. the data word probes clean,
    /// 5. the sequence re-check equals the snapshot (no writer ran
    ///    during the probes — the value is not torn).
    ///
    /// `None` means "take the locked path": it covers misses as well as
    /// contention and dirty words, so the caller cannot distinguish them
    /// — [`Self::read`] does the fallback automatically and is what
    /// ordinary callers want.
    ///
    /// # Examples
    ///
    /// ```
    /// use twod_cache::{CacheConfig, ConcurrentBankedCache};
    ///
    /// let cache = ConcurrentBankedCache::new(CacheConfig::l1_64kb(), 2);
    /// // Line address 0x80 is line 2, which interleaves onto bank 0.
    /// cache.write(0x80, 7).unwrap();
    ///
    /// // Clean resident hit: served lock-free.
    /// assert_eq!(cache.try_optimistic_read(0x80), Some(7));
    /// // Miss: refused, the locked path would fill it.
    /// assert_eq!(cache.try_optimistic_read(0x4000_0000), None);
    /// // Writer in the bank (odd sequence): refused until it leaves.
    /// let guard = cache.lock_bank(0);
    /// assert_eq!(cache.try_optimistic_read(0x80), None);
    /// drop(guard);
    /// assert_eq!(cache.try_optimistic_read(0x80), Some(7));
    /// ```
    pub fn try_optimistic_read(&self, addr: u64) -> Option<u64> {
        let (bank, local) = self.route(addr);
        let value = self.optimistic_read(bank, local)?;
        self.banks[bank].opt_hits.fetch_add(1, Ordering::Relaxed);
        Some(value)
    }

    /// [`Self::try_optimistic_read`] of an already-routed address,
    /// leaving the bank's `opt_hits` tally to the caller (a batch adds
    /// one bank group's hits in one atomic add).
    fn optimistic_read(&self, bank_idx: usize, local: u64) -> Option<u64> {
        let bank = &self.banks[bank_idx];
        if bank.hard_faults.load(Ordering::Relaxed) {
            return None;
        }
        // Reader entry: snapshot the sequence. `Acquire` pairs with the
        // `Release` store of the previous writer's exit, so an even
        // snapshot implies that writer's payload stores are fully
        // visible.
        let s1 = bank.seq.load(Ordering::Acquire);
        if s1 & 1 == 1 {
            return None;
        }
        let (set, tag, word_in_line) = self.geometry.split(local);
        // Way scan, tuned to keep the common case cheap: one snapshot
        // covers every way whose tag entry shares a row, and one
        // comparison in the interleaved column domain screens all of
        // that row's entries against the wanted valid+tag bits at once
        // (`candidate_words`), with no extraction. Only a candidate way
        // is extracted, and that single fused step both verifies its
        // entry clean and confirms the full match. A corrupted (or torn)
        // non-matching tag can only cause a miss here — the fallback path
        // re-reads under the lock and recovers — while a matching tag is
        // never trusted without its clean check.
        let key = TagEntry::lookup_key(tag)?;
        let mut tag_snap = [0u64; memarray::PROBE_MAX_ROW_LIMBS];
        let mut snap_row = usize::MAX;
        let mut candidates = 0u64;
        let mut value = None;
        let mut coords = self.geometry.tag_coords(set, 0);
        for way in 0..self.geometry.ways {
            let (trow, tslot) = coords;
            coords = self.geometry.next_tag_coords(coords);
            if trow != snap_row {
                // SAFETY: the probes' source arrays live inside `self`
                // and are alive for the duration of this call; torn
                // snapshots are rejected by the sequence re-check below.
                let limbs = unsafe { bank.tag_probe.snapshot_row(trow, &mut tag_snap) }?;
                candidates = bank.tag_probe.candidate_words(limbs, key, TAG_KEY_BITS);
                snap_row = trow;
            }
            // (Words past 64 are never screened out, only extracted.)
            if tslot < 64 && candidates >> tslot & 1 == 0 {
                continue;
            }
            let entry = bank
                .tag_probe
                .clean_in(&tag_snap, tslot, 0, TAG_ENTRY_BITS)?;
            let entry = TagEntry::from_u64(entry);
            if entry.valid && entry.tag == tag {
                let (row, slot, sub) = self.geometry.data_coords(set, way, word_in_line);
                // SAFETY: as above.
                value = Some(unsafe { bank.data_probe.peek_word_u64(row, slot, sub, 64) }?);
                break;
            }
        }
        let value = value?;
        // Reader exit: the acquire fence orders the probe loads above
        // before the sequence re-check, pairing with the release fence
        // of a writer's entry — if any probe load observed a store from
        // a writer's critical section, the re-check observes that
        // writer's odd sequence (or a later one) and rejects.
        fence(Ordering::Acquire);
        if bank.seq.load(Ordering::Relaxed) != s1 {
            return None;
        }
        Some(value)
    }

    /// Reads the aligned 64-bit word at `addr`: lock-free via
    /// [`Self::try_optimistic_read`] when the word is a clean resident
    /// hit and nothing raced, else through the owning bank's lock (which
    /// runs misses, LRU updates, inline correction, and 2D recovery).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] if the owning bank's protection was
    /// defeated.
    pub fn read(&self, addr: u64) -> Result<u64, EngineError> {
        let (bank, local) = self.route(addr);
        if let Some(value) = self.optimistic_read(bank, local) {
            self.banks[bank].opt_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(value);
        }
        self.lock_bank(bank).read(local)
    }

    /// Writes the aligned 64-bit word at `addr`, locking only the owning
    /// bank (writes always take the lock — the seqlock has no optimistic
    /// write side).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] if the owning bank's protection was
    /// defeated.
    pub fn write(&self, addr: u64, value: u64) -> Result<(), EngineError> {
        let (bank, local) = self.route(addr);
        self.lock_bank(bank).write(local, value)
    }

    /// Routes `ops` into `route` (cleared and refilled): each op for which
    /// `include(index)` holds gets its owning bank and bank-local
    /// address, computed once and without a division, and the included
    /// ops are grouped by bank in one O(N + banks) counting sort that
    /// keeps batch order within each bank. Excluded ops belong to no
    /// group and are never executed.
    ///
    /// # Panics
    ///
    /// Panics if the batch holds `u32::MAX` ops or more.
    pub fn route_batch(
        &self,
        ops: &[BatchOp],
        route: &mut BatchRoute,
        mut include: impl FnMut(usize) -> bool,
    ) {
        assert!(ops.len() < UNROUTED as usize, "batch too large to route");
        route.bank.clear();
        route.local.clear();
        route.groups.clear();
        route.counts.clear();
        route.counts.resize(self.banks.len(), 0);
        for (i, op) in ops.iter().enumerate() {
            if include(i) {
                let (bank, local) = self.route(op.addr());
                route.counts[bank] += 1;
                route.bank.push(bank as u32);
                route.local.push(local);
            } else {
                route.bank.push(UNROUTED);
                route.local.push(0);
            }
        }
        // Prefix sums: each touched bank's group start, then its cursor.
        let mut next = 0u32;
        for (bank, count) in route.counts.iter_mut().enumerate() {
            if *count > 0 {
                route.groups.push((bank as u32, next, next + *count));
            }
            let start = next;
            next += *count;
            *count = start;
        }
        route.order.clear();
        route.order.resize(next as usize, 0);
        for (i, &bank) in route.bank.iter().enumerate() {
            if bank != UNROUTED {
                let cursor = &mut route.counts[bank as usize];
                route.order[*cursor as usize] = i as u32;
                *cursor += 1;
            }
        }
    }

    /// Executes the ops of `route`'s groups (built from `ops` by
    /// [`Self::route_batch`], possibly trimmed by [`BatchRoute::admit`]),
    /// bank group by bank group, so each bank pays **at most one**
    /// [`Self::lock_bank`] acquisition per batch — the amortization the
    /// batched network serve path is built on. Outcomes land in `out`
    /// position-matched to `ops` (`out` is cleared and refilled; its
    /// capacity is reused); ops outside every group are not executed and
    /// keep a `Written` placeholder.
    ///
    /// Per-op ordering within a bank follows batch order, and the
    /// bank guard is taken *lazily*:
    ///
    /// * while the bank's guard has not been taken yet, each read first
    ///   tries the seqlock optimistic path ([`Self::try_optimistic_read`])
    ///   — clean resident Zipf read traffic stays entirely lock-free even
    ///   inside a batch;
    /// * the first write (or first read that the optimistic path
    ///   refuses) locks the bank once, and every later op of that bank's
    ///   group runs under the same guard, in batch order.
    ///
    /// That lazy discipline is also the ordering argument: a read that
    /// must observe an earlier write *in the same batch* targets the
    /// same address, hence the same bank, hence runs after that write
    /// under the guard the write forced. Ops on different banks target
    /// different addresses, so executing bank groups in bank order (not
    /// arrival order) is unobservable. See docs/CONCURRENCY.md.
    ///
    /// `observe` is called once per bank group that actually took the
    /// lock, with the bank index and the time spent holding the guard —
    /// the hook the server's slow-op degraded-mode detection uses.
    ///
    /// # Panics
    ///
    /// Panics if `route` was not routed from a batch of `ops.len()` ops.
    pub fn execute_routed<F>(
        &self,
        ops: &[BatchOp],
        route: &BatchRoute,
        out: &mut Vec<BatchOutcome>,
        mut observe: F,
    ) where
        F: FnMut(usize, std::time::Duration),
    {
        assert_eq!(
            route.local.len(),
            ops.len(),
            "route built from another batch"
        );
        out.clear();
        out.resize(ops.len(), BatchOutcome::Written);
        for (bank_idx, group) in route.groups() {
            let mut guard: Option<BankGuard<'_>> = None;
            let mut entered = None;
            let mut opt_hits = 0;
            for &i in group {
                let i = i as usize;
                let local = route.local[i];
                match ops[i] {
                    BatchOp::Read(_) => {
                        if guard.is_none() {
                            if let Some(value) = self.optimistic_read(bank_idx, local) {
                                opt_hits += 1;
                                out[i] = BatchOutcome::Value(value);
                                continue;
                            }
                        }
                        let g = guard.get_or_insert_with(|| {
                            entered = Some(std::time::Instant::now());
                            self.lock_bank(bank_idx)
                        });
                        out[i] = match g.read(local) {
                            Ok(value) => BatchOutcome::Value(value),
                            Err(e) => BatchOutcome::Failed(e),
                        };
                    }
                    BatchOp::Write(_, value) => {
                        let g = guard.get_or_insert_with(|| {
                            entered = Some(std::time::Instant::now());
                            self.lock_bank(bank_idx)
                        });
                        out[i] = match g.write(local, value) {
                            Ok(()) => BatchOutcome::Written,
                            Err(e) => BatchOutcome::Failed(e),
                        };
                    }
                }
            }
            if opt_hits > 0 {
                self.banks[bank_idx]
                    .opt_hits
                    .fetch_add(opt_hits, Ordering::Relaxed);
            }
            if let Some(g) = guard {
                let held = entered.expect("guard implies entry timestamp").elapsed();
                drop(g);
                observe(bank_idx, held);
            }
        }
    }

    /// Executes a whole batch of reads and writes: [`Self::route_batch`]
    /// over every op into per-thread scratch, then
    /// [`Self::execute_routed`] (at most one lock per bank, lazy guards,
    /// outcomes position-matched to `ops` in `out`).
    pub fn execute_batch_observed<F>(
        &self,
        ops: &[BatchOp],
        out: &mut Vec<BatchOutcome>,
        observe: F,
    ) where
        F: FnMut(usize, std::time::Duration),
    {
        let run = |route: &mut BatchRoute| {
            self.route_batch(ops, route, |_| true);
            self.execute_routed(ops, route, out, observe);
        };
        ROUTE.with(|scratch| match scratch.try_borrow_mut() {
            Ok(mut route) => run(&mut route),
            // Re-entered from an `observe` hook: route into a fresh one.
            Err(_) => run(&mut BatchRoute::new()),
        });
    }

    /// [`Self::execute_batch_observed`] without the per-bank-group
    /// timing hook.
    ///
    /// # Examples
    ///
    /// ```
    /// use twod_cache::{BatchOp, BatchOutcome, CacheConfig, ConcurrentBankedCache};
    ///
    /// let c = ConcurrentBankedCache::new(CacheConfig::l1_64kb(), 4);
    /// let writes: Vec<BatchOp> = (0..32u64).map(|i| BatchOp::Write(i * 64, i + 1)).collect();
    /// let mut out = Vec::new();
    /// c.execute_batch(&writes, &mut out);
    /// let reads: Vec<BatchOp> = (0..32u64).map(|i| BatchOp::Read(i * 64)).collect();
    /// c.execute_batch(&reads, &mut out);
    /// assert!((0..32u64).all(|i| out[i as usize] == BatchOutcome::Value(i + 1)));
    /// ```
    pub fn execute_batch(&self, ops: &[BatchOp], out: &mut Vec<BatchOutcome>) {
        self.execute_batch_observed(ops, out, |_, _| {});
    }

    /// Total bank-lock acquisitions so far (monotonic, all callers —
    /// foreground ops, batches, scrubbers, stats aggregation). Deltas
    /// around a known op sequence give a deterministic locks-per-op
    /// figure; the bench gate holds batched execution to < 0.2 under
    /// pipelined Zipf traffic.
    pub fn lock_acquisitions(&self) -> u64 {
        self.lock_acquisitions.load(Ordering::Relaxed)
    }

    /// Injects an error into one bank's data array. Safe to call while
    /// other threads are accessing the cache — the owning bank is locked
    /// (sequencing out optimistic readers) for the injection, and its
    /// next access triggers recovery.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    pub fn inject_bank_error(&self, bank: usize, shape: ErrorShape) {
        self.lock_bank(bank).inject_data_error(shape);
    }

    /// Injects a stuck-at fault into one bank's data array. The bank's
    /// hard-fault hint is set before the injecting guard releases its
    /// sequence, so optimistic readers never probe past a stuck cell.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    pub fn inject_bank_hard_error(&self, bank: usize, shape: ErrorShape, stuck: bool) {
        self.lock_bank(bank).inject_data_hard_error(shape, stuck);
    }

    /// Scrubs every bank, one at a time — banks not currently being
    /// scrubbed stay available to other threads (scrubbing a bank
    /// sequences as a writer, pushing that bank's readers onto the
    /// locked path for the duration).
    ///
    /// # Errors
    ///
    /// Returns the first bank's [`EngineError`] if any bank holds
    /// uncorrectable damage.
    pub fn scrub(&self) -> Result<(), EngineError> {
        for i in 0..self.banks.len() {
            self.lock_bank(i).scrub()?;
        }
        Ok(())
    }

    /// Incremental scrub of one bank: locks the bank only for a
    /// `max_rows`-row slice (plus any recovery it triggers), so
    /// foreground accesses to the bank wait for a bounded scan instead
    /// of a whole-bank audit. See [`ProtectedCache::scrub_step`].
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] if the bank holds uncorrectable damage.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    pub fn scrub_bank_step(&self, bank: usize, max_rows: usize) -> Result<ScrubSlice, EngineError> {
        self.lock_bank(bank).scrub_step(max_rows)
    }

    /// Error events observed by one bank from any detection source
    /// (monotonic; see [`ProtectedCache::observed_errors`]).
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    pub fn bank_observed_errors(&self, bank: usize) -> u64 {
        self.lock_bank(bank).observed_errors()
    }

    /// Whether every bank passes its audit (locks one bank at a time).
    pub fn audit(&self) -> bool {
        (0..self.banks.len()).all(|i| self.lock_bank(i).audit())
    }

    /// Reads served by the optimistic lock-free path, across banks.
    /// These are genuine read hits; [`Self::stats`] already folds them
    /// into [`CacheStats::read_hits`].
    pub fn optimistic_hits(&self) -> u64 {
        self.banks
            .iter()
            .map(|b| b.opt_hits.load(Ordering::Relaxed))
            .sum()
    }

    /// Aggregated access statistics across banks, collected bank by bank
    /// without any global lock. Optimistic reads bypass the locked
    /// per-bank counters, so their tally is folded into
    /// [`CacheStats::read_hits`] here (an optimistic hit is by
    /// construction a read hit). The result is a consistent snapshot per
    /// bank, not across banks — under concurrent traffic the totals are
    /// momentarily approximate, which is the standard contract for
    /// sharded counters.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for i in 0..self.banks.len() {
            let s = self.lock_bank(i).stats();
            total.read_hits += s.read_hits + self.banks[i].opt_hits.load(Ordering::Relaxed);
            total.read_misses += s.read_misses;
            total.write_hits += s.write_hits;
            total.write_misses += s.write_misses;
            total.writebacks += s.writebacks;
            total.errors_corrected += s.errors_corrected;
        }
        total
    }

    /// Aggregated data-array engine statistics across banks (recoveries,
    /// extra reads, ...), collected bank by bank. Uses
    /// [`EngineStats::merge`], so every counter — including ones added
    /// after this aggregation was written — participates. Optimistic
    /// reads never touch the engine (they are verify-only against raw
    /// limbs), so they appear in no engine counter by design.
    pub fn data_engine_stats(&self) -> EngineStats {
        let mut total = EngineStats::default();
        for i in 0..self.banks.len() {
            total.merge(&self.lock_bank(i).data_engine_stats());
        }
        total
    }
}

impl fmt::Debug for ConcurrentBankedCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ConcurrentBankedCache({} banks x {}B)",
            self.banks.len(),
            self.config.capacity()
        )
    }
}

// The whole point of the type: it can be shared across threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ConcurrentBankedCache>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TwoDScheme;
    use std::thread;

    fn small_concurrent(banks: usize) -> ConcurrentBankedCache {
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
    fn shared_reference_read_write() {
        let c = small_concurrent(4);
        for i in 0..64u64 {
            c.write(i * 8, i + 1).unwrap();
        }
        for i in 0..64u64 {
            assert_eq!(c.read(i * 8).unwrap(), i + 1, "word {i}");
        }
        assert!(c.audit());
    }

    #[test]
    fn parallel_threads_span_all_banks() {
        let c = small_concurrent(4);
        thread::scope(|s| {
            for t in 0u64..4 {
                let c = &c;
                s.spawn(move || {
                    // Each thread touches every bank (stride one line).
                    for i in 0..32u64 {
                        let addr = (t * 32 + i) * 64;
                        c.write(addr, t * 1000 + i).unwrap();
                        assert_eq!(c.read(addr).unwrap(), t * 1000 + i);
                    }
                });
            }
        });
        let stats = c.stats();
        assert_eq!(stats.write_misses + stats.write_hits, 128);
        assert!(c.audit());
    }

    #[test]
    fn injection_under_shared_reference_recovers() {
        let c = small_concurrent(2);
        for i in 0..32u64 {
            c.write(i * 64, i ^ 0x5A).unwrap();
        }
        c.inject_bank_error(
            1,
            ErrorShape::Cluster {
                row: 0,
                col: 0,
                height: 16,
                width: 16,
            },
        );
        for i in 0..32u64 {
            assert_eq!(c.read(i * 64).unwrap(), i ^ 0x5A, "line {i}");
        }
        assert!(c.lock_bank(1).data_engine_stats().recoveries >= 1);
        assert_eq!(c.lock_bank(0).data_engine_stats().recoveries, 0);
        assert!(c.audit());
    }

    #[test]
    fn engine_stats_aggregate_across_banks() {
        let c = small_concurrent(2);
        for i in 0..16u64 {
            c.write(i * 64, i).unwrap();
        }
        let engine = c.data_engine_stats();
        assert!(engine.writes > 0);
        assert_eq!(
            engine.writes,
            c.lock_bank(0).data_engine_stats().writes + c.lock_bank(1).data_engine_stats().writes
        );
    }

    #[test]
    fn optimistic_hits_serve_clean_resident_reads() {
        let c = small_concurrent(2);
        for i in 0..16u64 {
            c.write(i * 64, i + 100).unwrap();
        }
        assert_eq!(c.optimistic_hits(), 0, "writes never take the fast path");
        for i in 0..16u64 {
            assert_eq!(c.read(i * 64).unwrap(), i + 100);
        }
        // Every read was a clean resident hit on a quiescent cache.
        assert_eq!(c.optimistic_hits(), 16);
        // The fold into stats counts them as ordinary read hits.
        let stats = c.stats();
        assert_eq!(stats.read_hits, 16);
        assert_eq!(stats.read_misses, 0);
    }

    #[test]
    fn optimistic_read_observes_locked_writes() {
        let c = small_concurrent(1);
        c.write(0x40, 1).unwrap();
        assert_eq!(c.try_optimistic_read(0x40), Some(1));
        c.write(0x40, 2).unwrap();
        assert_eq!(c.try_optimistic_read(0x40), Some(2), "no stale value");
    }

    #[test]
    fn optimistic_read_falls_back_while_bank_locked() {
        let c = small_concurrent(1);
        c.write(0x40, 7).unwrap();
        assert_eq!(c.try_optimistic_read(0x40), Some(7));
        {
            let guard = c.lock_bank(0);
            // Sequence is odd: the fast path must refuse.
            assert_eq!(c.try_optimistic_read(0x40), None);
            drop(guard);
        }
        // Quiescent again: the fast path resumes (and the locked read
        // still works, proving the fallback is never wedged).
        assert_eq!(c.try_optimistic_read(0x40), Some(7));
        assert_eq!(c.read(0x40).unwrap(), 7);
    }

    #[test]
    fn optimistic_read_falls_back_on_miss_and_dirty_words() {
        let c = small_concurrent(1);
        // Not resident: fast path refuses, full read allocates.
        assert_eq!(c.try_optimistic_read(0x80), None);
        assert_eq!(c.read(0x80).unwrap(), 0);
        // Recoverable transient damage covering the rows that store line
        // 0x80 (set 2 maps to rows 8/10): the clean check fails and the
        // fast path refuses even for resident lines.
        c.write(0x80, 5).unwrap();
        c.inject_bank_error(
            0,
            ErrorShape::Cluster {
                row: 0,
                col: 0,
                height: 16,
                width: 16,
            },
        );
        assert_eq!(c.try_optimistic_read(0x80), None);
        // The locked path recovers transparently.
        assert_eq!(c.read(0x80).unwrap(), 5);
    }

    #[test]
    fn optimistic_read_disabled_by_hard_faults() {
        let c = small_concurrent(1);
        c.write(0x40, 9).unwrap();
        assert_eq!(c.try_optimistic_read(0x40), Some(9));
        c.inject_bank_hard_error(0, ErrorShape::Single { row: 0, col: 0 }, true);
        // The probes cannot see the stuck-at overlay; the hint must
        // force every read onto the locked path.
        assert_eq!(c.try_optimistic_read(0x40), None);
        assert_eq!(c.read(0x40).unwrap(), 9);
    }

    #[test]
    fn batch_matches_scalar_ops_and_amortizes_locks() {
        let c = small_concurrent(4);
        // Warm 64 lines so batched reads are resident hits.
        for i in 0..64u64 {
            c.write(i * 64, i + 7).unwrap();
        }
        let reads: Vec<BatchOp> = (0..64u64).map(|i| BatchOp::Read(i * 64)).collect();
        let mut out = Vec::new();
        let before = c.lock_acquisitions();
        c.execute_batch(&reads, &mut out);
        assert_eq!(
            c.lock_acquisitions(),
            before,
            "clean resident batched reads must stay fully lock-free"
        );
        for (i, r) in out.iter().enumerate() {
            assert_eq!(*r, BatchOutcome::Value(i as u64 + 7), "read {i}");
        }
        // 64 writes across 4 banks: exactly one lock per bank.
        let writes: Vec<BatchOp> = (0..64u64)
            .map(|i| BatchOp::Write(i * 64, i + 100))
            .collect();
        let before = c.lock_acquisitions();
        c.execute_batch(&writes, &mut out);
        assert_eq!(c.lock_acquisitions() - before, 4, "one lock per bank");
        assert!(out.iter().all(|r| *r == BatchOutcome::Written));
        c.execute_batch(&reads, &mut out);
        for (i, r) in out.iter().enumerate() {
            assert_eq!(*r, BatchOutcome::Value(i as u64 + 100), "read-back {i}");
        }
    }

    #[test]
    fn mixed_batch_orders_same_address_write_before_read() {
        let c = small_concurrent(2);
        c.write(0x40, 1).unwrap();
        // Write then read of the same address inside one batch: the read
        // must observe the batch's own write (same bank, so the write
        // forces the guard and the read runs after it, locked).
        let ops = [
            BatchOp::Read(0x40),
            BatchOp::Write(0x40, 42),
            BatchOp::Read(0x40),
            BatchOp::Read(0x80),
        ];
        let mut out = Vec::new();
        c.execute_batch(&ops, &mut out);
        assert_eq!(
            out,
            vec![
                BatchOutcome::Value(1),
                BatchOutcome::Written,
                BatchOutcome::Value(42),
                BatchOutcome::Value(0),
            ]
        );
    }

    #[test]
    fn batch_observer_fires_once_per_locked_bank_group() {
        let c = small_concurrent(4);
        // 8 writes over 2 banks plus one optimistic-eligible read.
        for i in 0..8u64 {
            c.write(i * 64, i).unwrap();
        }
        let ops: Vec<BatchOp> = (0..8u64)
            .map(|i| BatchOp::Write((i % 2) * 64, i))
            .chain(std::iter::once(BatchOp::Read(2 * 64)))
            .collect();
        let mut out = Vec::new();
        let mut observed = Vec::new();
        c.execute_batch_observed(&ops, &mut out, |bank, _| observed.push(bank));
        assert_eq!(observed, vec![0, 1], "one observation per locked bank");
    }

    #[test]
    fn bank_mut_pins_hard_fault_hint_until_next_lock() {
        let mut c = small_concurrent(1);
        c.write(0x40, 3).unwrap();
        assert_eq!(c.try_optimistic_read(0x40), Some(3));
        // An exclusive borrow may have injected anything: pessimism.
        let _ = c.bank_mut(0).stats();
        assert_eq!(c.try_optimistic_read(0x40), None);
        // The next locked access recomputes the hint accurately.
        assert_eq!(c.read(0x40).unwrap(), 3);
        assert_eq!(c.try_optimistic_read(0x40), Some(3));
    }

    #[test]
    fn addresses_spread_across_banks() {
        let c = small_concurrent(4);
        let mut seen = [false; 4];
        for line in 0..16u64 {
            seen[c.bank_of(line * 64)] = true;
        }
        assert!(seen.iter().all(|&s| s));
        // Consecutive lines hit different banks.
        assert_ne!(c.bank_of(0), c.bank_of(64));
    }

    #[test]
    fn read_after_write_across_banks() {
        let c = small_concurrent(4);
        for i in 0..64u64 {
            c.write(i * 8, i + 1).unwrap();
        }
        for i in 0..64u64 {
            assert_eq!(c.read(i * 8).unwrap(), i + 1, "word {i}");
        }
    }

    #[test]
    fn bank_error_is_contained() {
        let c = small_concurrent(4);
        for i in 0..64u64 {
            c.write(i * 8, i ^ 0xABCD).unwrap();
        }
        c.inject_bank_error(
            2,
            ErrorShape::Cluster {
                row: 0,
                col: 0,
                height: 16,
                width: 16,
            },
        );
        // Every word in every bank still reads correctly; only bank 2
        // performs a recovery.
        for i in 0..64u64 {
            assert_eq!(c.read(i * 8).unwrap(), i ^ 0xABCD, "word {i}");
        }
        assert!(c.lock_bank(2).data_engine_stats().recoveries >= 1);
        assert_eq!(c.lock_bank(0).data_engine_stats().recoveries, 0);
        assert!(c.audit());
    }

    #[test]
    fn capacity_and_stats_aggregate() {
        let c = small_concurrent(2);
        assert_eq!(c.capacity(), 2 * 16 * 2 * 64);
        c.write(0, 1).unwrap();
        c.write(64, 2).unwrap(); // other bank
        let stats = c.stats();
        assert_eq!(stats.write_misses, 2);
    }

    #[test]
    fn local_addresses_do_not_collide() {
        // Two different global lines mapping to the same bank must get
        // different local addresses: distinct global addresses owned by
        // one bank must stay distinct after read/write round-trips.
        let c = small_concurrent(4);
        let a = 0u64; // line 0 -> bank 0 local line 0
        let b = 4 * 64; // line 4 -> bank 0 local line 1
        assert_eq!(c.bank_of(a), c.bank_of(b));
        c.write(a, 11).unwrap();
        c.write(b, 22).unwrap();
        assert_eq!(c.read(a).unwrap(), 11);
        assert_eq!(c.read(b).unwrap(), 22);
    }

    #[test]
    fn scrub_covers_all_banks() {
        let c = small_concurrent(3);
        for bank in 0..3 {
            c.inject_bank_error(bank, ErrorShape::Single { row: 1, col: 1 });
        }
        c.scrub().unwrap();
        assert!(c.audit());
    }
}
