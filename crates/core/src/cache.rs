//! A functional set-associative write-back cache whose data and tag
//! arrays are protected by 2D error coding — the paper's architecture as
//! an adoptable component.
//!
//! The cache stores 64-byte lines over a backing store, with LRU
//! replacement and write-back/write-allocate policy. Both the data array
//! and the tag array live inside [`memarray::TwoDArray`] banks, so every
//! write performs the read-before-write vertical update, every read is
//! checked by the horizontal code, and detected multi-bit errors trigger
//! the 2D recovery process transparently.

use crate::TwoDScheme;
use ecc::Bits;
use memarray::{EngineError, ErrorShape, TwoDArray};
use std::collections::HashMap;
use std::fmt;

/// Bytes per cache line.
pub const LINE_BYTES: usize = 64;

/// Construction parameters for a [`ProtectedCache`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of sets.
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
    /// Protection scheme for the data array.
    pub data_scheme: TwoDScheme,
    /// Protection scheme for the tag array (word width is overridden to
    /// fit the tag entry).
    pub tag_scheme: TwoDScheme,
}

impl CacheConfig {
    /// A 64kB 2-way cache with the paper's L1 protection.
    pub fn l1_64kb() -> Self {
        CacheConfig {
            sets: 512,
            ways: 2,
            data_scheme: TwoDScheme::l1_paper(),
            tag_scheme: TwoDScheme {
                data_bits: TAG_ENTRY_BITS,
                ..TwoDScheme::l1_paper()
            },
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.sets * self.ways * LINE_BYTES
    }
}

/// Tag entry width: 48-bit tag + valid + dirty bits.
pub(crate) const TAG_ENTRY_BITS: usize = 50;
/// Tag entry bits a lookup compares: the 48-bit tag plus the valid bit.
pub(crate) const TAG_KEY_BITS: usize = 49;
/// Stack-buffer capacity for line-granular row operations; interleave
/// degrees beyond this (none of the paper's schemes) fall back to
/// per-word accesses.
const MAX_INTERLEAVE: usize = 8;
/// Words of `data_bits` per line (64B lines).
const fn words_per_line(data_bits: usize) -> usize {
    LINE_BYTES * 8 / data_bits
}

/// Exact `n / d` and `n % d` for a divisor fixed at construction, by
/// multiplication instead of a runtime division (Granlund & Montgomery,
/// "Division by invariant integers using multiplication", 1994, fig.
/// 4.1 with N = 64): with `l = ceil(log2 d)` and
/// `m = floor(2^64 (2^l - d) / d) + 1`, `t = mulhi(m, n)` gives
/// `n / d = (t + (n - t) / 2) >> (l - 1)` (both shifts 0 when `d = 1`)
/// for every 64-bit `n` and `d`. One 64x64-bit multiply high replaces a
/// 64-bit `div`, which costs tens of cycles on common x86-64 parts. Any
/// divisor works: bank counts, set counts and interleave degrees need
/// not be powers of two.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Divisor {
    d: u64,
    m: u64,
    /// `min(l, 1)`.
    shift1: u32,
    /// `max(l, 1) - 1`.
    shift2: u32,
}

impl Divisor {
    /// # Panics
    ///
    /// Panics if `d == 0`.
    pub(crate) fn new(d: u64) -> Self {
        assert!(d > 0, "divisor must be nonzero");
        let l = 64 - (d - 1).leading_zeros();
        let d128 = u128::from(d);
        // 2^l - d < d, so m fits in 64 bits.
        let m = (((1u128 << 64) * ((1u128 << l) - d128)) / d128 + 1) as u64;
        Divisor {
            d,
            m,
            shift1: l.min(1),
            shift2: l.max(1) - 1,
        }
    }

    /// The divisor `d`.
    #[inline]
    pub(crate) fn get(self) -> u64 {
        self.d
    }

    /// `(n / d, n % d)`.
    #[inline]
    pub(crate) fn div_rem(self, n: u64) -> (u64, u64) {
        // t <= n, so neither the subtraction nor the sum can overflow.
        let t = ((u128::from(self.m) * u128::from(n)) >> 64) as u64;
        let q = (t + ((n - t) >> self.shift1)) >> self.shift2;
        (q, n - q * self.d)
    }
}

/// The pure address arithmetic of a [`ProtectedCache`]: how a byte
/// address splits into (set, tag, word) and where a logical word lives
/// inside the interleaved data/tag arrays. Extracted from the cache so
/// the optimistic read path in [`crate::ConcurrentBankedCache`] computes
/// coordinates from a `Copy` snapshot without borrowing any bank — the
/// cache's own accessors delegate here, keeping one source of truth.
/// Every runtime divisor is a precomputed [`Divisor`], so no coordinate
/// costs a hardware division.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct CacheGeometry {
    sets: Divisor,
    pub(crate) ways: usize,
    data_bits: Divisor,
    words_per_line: usize,
    data_interleave: Divisor,
    tag_interleave: Divisor,
}

impl CacheGeometry {
    pub(crate) fn new(config: &CacheConfig) -> Self {
        CacheGeometry {
            sets: Divisor::new(config.sets as u64),
            ways: config.ways,
            data_bits: Divisor::new(config.data_scheme.data_bits as u64),
            words_per_line: words_per_line(config.data_scheme.data_bits),
            data_interleave: Divisor::new(config.data_scheme.interleave as u64),
            tag_interleave: Divisor::new(config.tag_scheme.interleave as u64),
        }
    }

    /// Splits a byte address into (set, tag, 64-bit-word-in-line).
    #[inline]
    pub(crate) fn split(&self, addr: u64) -> (usize, u64, usize) {
        let (tag, set) = self.sets.div_rem(addr / LINE_BYTES as u64);
        let word_in_line = (addr as usize % LINE_BYTES) / 8;
        (set as usize, tag, word_in_line)
    }

    /// Data-array coordinates of `(set, way, word64)`: the (row, word
    /// slot, bit offset) storing the 64-bit word. The data array stores
    /// `data_bits`-bit words; a 64-bit word maps into one of them.
    #[inline]
    pub(crate) fn data_coords(
        &self,
        set: usize,
        way: usize,
        word64: usize,
    ) -> (usize, usize, usize) {
        // (stored word within the line, bit offset inside it)
        let (word, sub) = self.data_bits.div_rem(64 * word64 as u64);
        let word_index = (set * self.ways + way) * self.words_per_line + word as usize;
        let (row, slot) = self.data_interleave.div_rem(word_index as u64);
        (row as usize, slot as usize, sub as usize)
    }

    /// Tag-array coordinates (row, word slot) of `(set, way)`.
    #[inline]
    pub(crate) fn tag_coords(&self, set: usize, way: usize) -> (usize, usize) {
        let (row, slot) = self.tag_interleave.div_rem((set * self.ways + way) as u64);
        (row as usize, slot as usize)
    }

    /// Tag-array coordinates of `(set, way + 1)` from those of
    /// `(set, way)`: a set's entries are consecutive words, so a way scan
    /// steps slot by slot with no division.
    #[inline]
    pub(crate) fn next_tag_coords(&self, (row, slot): (usize, usize)) -> (usize, usize) {
        if slot + 1 == self.tag_interleave.get() as usize {
            (row + 1, 0)
        } else {
            (row, slot + 1)
        }
    }
}

/// Statistics of a protected cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Read hits.
    pub read_hits: u64,
    /// Read misses.
    pub read_misses: u64,
    /// Write hits.
    pub write_hits: u64,
    /// Write misses.
    pub write_misses: u64,
    /// Dirty lines written back to the backing store.
    pub writebacks: u64,
    /// Errors corrected transparently during accesses (any mechanism).
    pub errors_corrected: u64,
}

impl CacheStats {
    /// Hit ratio over all accesses.
    pub fn hit_ratio(&self) -> f64 {
        let hits = self.read_hits + self.write_hits;
        let total = hits + self.read_misses + self.write_misses;
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }
}

/// A 2D-protected set-associative write-back cache over a 64-bit address
/// space.
///
/// # Examples
///
/// ```
/// use twod_cache::{CacheConfig, ProtectedCache};
/// use memarray::ErrorShape;
///
/// let mut cache = ProtectedCache::new(CacheConfig::l1_64kb());
/// cache.write(0x1000, 0xDEAD_BEEF_0123_4567).unwrap();
///
/// // A 32x32 clustered upset in the data array is survivable.
/// cache.inject_data_error(ErrorShape::Cluster { row: 0, col: 0, height: 32, width: 32 });
/// assert_eq!(cache.read(0x1000).unwrap(), 0xDEAD_BEEF_0123_4567);
/// ```
pub struct ProtectedCache {
    config: CacheConfig,
    geometry: CacheGeometry,
    data: TwoDArray,
    tags: TwoDArray,
    /// LRU stacks per set (most recent first).
    lru: Vec<Vec<usize>>,
    /// Backing store (line-granular).
    memory: HashMap<u64, [u8; LINE_BYTES]>,
    stats: CacheStats,
}

impl ProtectedCache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not tile into whole rows (the data
    /// scheme's interleave must divide the words per set-row).
    pub fn new(config: CacheConfig) -> Self {
        let wpl = words_per_line(config.data_scheme.data_bits);
        let total_words = config.sets * config.ways * wpl;
        let data_rows = total_words / config.data_scheme.interleave;
        assert!(
            total_words.is_multiple_of(config.data_scheme.interleave),
            "data words must tile into interleaved rows"
        );
        let tag_entries = config.sets * config.ways;
        let tag_rows = tag_entries.div_ceil(config.tag_scheme.interleave);
        // Small arrays cannot hold more parity rows than data rows; clamp
        // the vertical interleave to the bank height.
        let mut data_cfg = config.data_scheme.bank_config(data_rows);
        data_cfg.vertical_rows = data_cfg.vertical_rows.min(data_rows);
        let mut tag_cfg = config.tag_scheme.bank_config(tag_rows);
        tag_cfg.vertical_rows = tag_cfg.vertical_rows.min(tag_rows);
        let data = TwoDArray::new(data_cfg);
        let tags = TwoDArray::new(tag_cfg);
        let lru = (0..config.sets)
            .map(|_| (0..config.ways).collect())
            .collect();
        ProtectedCache {
            config,
            geometry: CacheGeometry::new(&config),
            data,
            tags,
            lru,
            memory: HashMap::new(),
            stats: CacheStats::default(),
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Access statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Engine statistics of the data array (extra reads, recoveries...).
    pub fn data_engine_stats(&self) -> memarray::EngineStats {
        self.data.stats()
    }

    /// Read-only view of the protected data array (scheme inspection,
    /// codec-sharing assertions).
    pub fn data_array(&self) -> &TwoDArray {
        &self.data
    }

    /// Read-only view of the protected tag array.
    pub fn tag_array(&self) -> &TwoDArray {
        &self.tags
    }

    /// Pre-loads the backing store at `line_addr`.
    pub fn fill_memory(&mut self, line_addr: u64, bytes: [u8; LINE_BYTES]) {
        self.memory
            .insert(line_addr & !(LINE_BYTES as u64 - 1), bytes);
    }

    /// Reads the aligned 64-bit word at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] if an uncorrectable error defeated the
    /// protection (data loss is detected, never silent).
    pub fn read(&mut self, addr: u64) -> Result<u64, EngineError> {
        let (set, tag, word_in_line) = self.split(addr);
        let way = match self.lookup(set, tag)? {
            Some((w, _)) => {
                self.stats.read_hits += 1;
                w
            }
            None => {
                self.stats.read_misses += 1;
                self.allocate(set, tag, false)?
            }
        };
        self.touch(set, way);
        let word64 = self.read_line_word(set, way, word_in_line)?;
        Ok(word64)
    }

    /// Writes the aligned 64-bit word at `addr` (write-allocate).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] if an uncorrectable error defeated the
    /// protection.
    pub fn write(&mut self, addr: u64, value: u64) -> Result<(), EngineError> {
        let (set, tag, word_in_line) = self.split(addr);
        match self.lookup(set, tag)? {
            Some((way, entry)) => {
                self.stats.write_hits += 1;
                self.touch(set, way);
                self.write_line_word(set, way, word_in_line, value);
                // Mark dirty — but the lookup already returned the live
                // tag entry, so a line that is dirty stays as-is and the
                // protected tag read-modify-write disappears from the
                // steady-state write-hit path.
                if !entry.dirty {
                    self.write_tag(set, way, tag, true, true);
                }
            }
            None => {
                self.stats.write_misses += 1;
                // The allocation writes the tag entry exactly once, with
                // the dirty bit already set for this write.
                let way = self.allocate(set, tag, true)?;
                self.touch(set, way);
                self.write_line_word(set, way, word_in_line, value);
            }
        }
        Ok(())
    }

    /// Reads `buf.len()` bytes starting at `addr` (need not be aligned).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] if an uncorrectable error defeated the
    /// protection.
    pub fn read_bytes(&mut self, addr: u64, buf: &mut [u8]) -> Result<(), EngineError> {
        // Batch at word granularity: each aligned 64-bit word backing the
        // span is read exactly once, never once per byte.
        let mut i = 0usize;
        while i < buf.len() {
            let a = addr + i as u64;
            let off = (a % 8) as usize;
            let n = (8 - off).min(buf.len() - i);
            let word = self.read(a & !7)?.to_le_bytes();
            buf[i..i + n].copy_from_slice(&word[off..off + n]);
            i += n;
        }
        Ok(())
    }

    /// Writes `bytes` starting at `addr` (need not be aligned), batched
    /// at word granularity: a fully covered aligned word is written
    /// outright (no read), and a partially covered word costs exactly one
    /// read-modify-write — an 8-byte aligned span is one word op, not
    /// eight.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] if an uncorrectable error defeated the
    /// protection.
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) -> Result<(), EngineError> {
        let mut i = 0usize;
        while i < bytes.len() {
            let a = addr + i as u64;
            let off = (a % 8) as usize;
            let n = (8 - off).min(bytes.len() - i);
            let word_addr = a & !7;
            if n == 8 {
                // Full word covered: no read-before-merge needed.
                let mut w = [0u8; 8];
                w.copy_from_slice(&bytes[i..i + 8]);
                self.write(word_addr, u64::from_le_bytes(w))?;
            } else {
                let mut word = self.read(word_addr)?.to_le_bytes();
                word[off..off + n].copy_from_slice(&bytes[i..i + n]);
                self.write(word_addr, u64::from_le_bytes(word))?;
            }
            i += n;
        }
        Ok(())
    }

    /// Injects a transient error into the data array.
    pub fn inject_data_error(&mut self, shape: ErrorShape) {
        self.data.inject(shape);
    }

    /// Injects a stuck-at fault into the data array.
    pub fn inject_data_hard_error(&mut self, shape: ErrorShape, stuck: bool) {
        self.data.inject_hard(shape, stuck);
    }

    /// Injects a transient error into the tag array.
    pub fn inject_tag_error(&mut self, shape: ErrorShape) {
        self.tags.inject(shape);
    }

    /// Runs a scrub pass over both arrays.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] if either array holds uncorrectable damage.
    pub fn scrub(&mut self) -> Result<(), EngineError> {
        self.data.scrub()?;
        self.tags.scrub()?;
        Ok(())
    }

    /// Incremental scrub: advances the data array's scrub cursor by at
    /// most `max_rows` rows (see [`memarray::TwoDArray::scrub_step`]).
    /// When the data sweep wraps, the tag array — orders of magnitude
    /// smaller — is scrubbed whole, so one full sweep of slices covers
    /// everything [`ProtectedCache::scrub`] covers.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] if either array holds uncorrectable
    /// damage.
    pub fn scrub_step(&mut self, max_rows: usize) -> Result<memarray::ScrubSlice, EngineError> {
        let slice = self.data.scrub_step(max_rows)?;
        if slice.wrapped {
            self.tags.scrub()?;
        }
        Ok(slice)
    }

    /// Physical bytes one scanned data row represents (row columns —
    /// data plus check bits — divided by 8). Multiplied by
    /// `ScrubSlice::rows_scanned` this converts scrub progress into a
    /// bytes-swept figure for throughput accounting.
    pub fn scrub_row_bytes(&self) -> usize {
        self.data.cols().div_ceil(8)
    }

    /// Engine statistics of the tag array.
    pub fn tag_engine_stats(&self) -> memarray::EngineStats {
        self.tags.stats()
    }

    /// Error events observed by either array from any detection source
    /// (inline corrections, recoveries, scrub finds). Monotonic — the
    /// adaptive scrub-rate controller diffs successive snapshots to
    /// estimate this bank's live error traffic.
    pub fn observed_errors(&self) -> u64 {
        self.data.stats().observed_errors() + self.tags.stats().observed_errors()
    }

    /// Whether both arrays pass their full consistency audit.
    pub fn audit(&self) -> bool {
        self.data.audit() && self.tags.audit()
    }

    // ---- internals -----------------------------------------------------

    /// The `Copy` address-arithmetic snapshot of this cache (see
    /// [`CacheGeometry`]).
    pub(crate) fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    fn split(&self, addr: u64) -> (usize, u64, usize) {
        self.geometry().split(addr)
    }

    fn line_addr(&self, set: usize, tag: u64) -> u64 {
        (tag * self.config.sets as u64 + set as u64) * LINE_BYTES as u64
    }

    fn data_coords(&self, set: usize, way: usize, word64: usize) -> (usize, usize, usize) {
        self.geometry().data_coords(set, way, word64)
    }

    fn tag_coords(&self, set: usize, way: usize) -> (usize, usize) {
        self.geometry().tag_coords(set, way)
    }

    fn read_tag(&mut self, set: usize, way: usize) -> Result<TagEntry, EngineError> {
        let (row, slot) = self.tag_coords(set, way);
        // u64 fast lane: a clean tag entry (50 bits) moves straight from
        // the row limbs into a `u64` — no `Bits` temporaries, no decode.
        if let Some(raw) = self.tags.try_read_word_u64(row, slot, 0, TAG_ENTRY_BITS) {
            return Ok(TagEntry::from_u64(raw));
        }
        let out = self.tags.read_word(row, slot)?;
        Ok(TagEntry::from_bits(out.data()))
    }

    fn write_tag(&mut self, set: usize, way: usize, tag: u64, valid: bool, dirty: bool) {
        let (row, slot) = self.tag_coords(set, way);
        let entry = TagEntry { tag, valid, dirty };
        if self
            .tags
            .try_write_word_u64(row, slot, 0, entry.to_u64(), TAG_ENTRY_BITS)
            .is_some()
        {
            return;
        }
        self.tags
            .write_word(row, slot, &entry.to_bits(self.config.tag_scheme.data_bits));
    }

    /// Looks up `tag` in `set`, returning the matching way *and* its
    /// decoded tag entry so callers can skip the redundant protected tag
    /// re-read (e.g. the dirty-bit read-modify-write on write hits).
    fn lookup(&mut self, set: usize, tag: u64) -> Result<Option<(usize, TagEntry)>, EngineError> {
        for way in 0..self.config.ways {
            let entry = self.read_tag(set, way)?;
            if entry.valid && entry.tag == tag {
                return Ok(Some((way, entry)));
            }
        }
        Ok(None)
    }

    fn touch(&mut self, set: usize, way: usize) {
        let stack = &mut self.lru[set];
        if let Some(pos) = stack.iter().position(|&w| w == way) {
            stack.remove(pos);
        }
        stack.insert(0, way);
    }

    /// Allocates a way for (set, tag): evicts LRU (writing back dirty
    /// data), fills from memory. The fill writes each stored data row
    /// once through the line-granular lane (instead of a protected
    /// read-modify-write per 64-bit word) and the tag entry exactly once,
    /// with `dirty` pre-set for write allocations.
    fn allocate(&mut self, set: usize, tag: u64, dirty: bool) -> Result<usize, EngineError> {
        let victim = *self.lru[set].last().expect("nonempty LRU stack");
        let old = self.read_tag(set, victim)?;
        if old.valid && old.dirty {
            let line = self.collect_line(set, victim)?;
            let addr = self.line_addr(set, old.tag);
            self.memory.insert(addr, line);
            self.stats.writebacks += 1;
        }
        // Fill from memory (zeroes if never written).
        let addr = self.line_addr(set, tag);
        let line = *self.memory.entry(addr).or_insert([0u8; LINE_BYTES]);
        self.fill_line(set, victim, &line);
        self.write_tag(set, victim, tag, true, dirty);
        Ok(victim)
    }

    /// Whether the data geometry admits line-at-row granularity: 64-bit
    /// stored words whose line occupies whole interleaved rows. Returns
    /// the words-per-row chunk size.
    fn line_row_chunk(&self, set: usize, way: usize) -> Option<usize> {
        let il = self.config.data_scheme.interleave;
        if self.config.data_scheme.data_bits != 64 || il > MAX_INTERLEAVE {
            return None;
        }
        let wpl = LINE_BYTES / 8;
        let base = (set * self.config.ways + way) * wpl;
        (wpl.is_multiple_of(il) && base.is_multiple_of(il)).then_some(il)
    }

    /// Writes a full line into (set, way), one stored row at a time where
    /// the geometry allows: each covered row costs one read-before-write
    /// and one vertical-parity update instead of one RMW per word.
    fn fill_line(&mut self, set: usize, way: usize, line: &[u8; LINE_BYTES]) {
        let word_at = |w: usize| {
            let mut v = [0u8; 8];
            v.copy_from_slice(&line[w * 8..(w + 1) * 8]);
            u64::from_le_bytes(v)
        };
        if let Some(chunk) = self.line_row_chunk(set, way) {
            let mut vals = [0u64; MAX_INTERLEAVE];
            let mut w = 0;
            while w < LINE_BYTES / 8 {
                let (row, _, _) = self.data_coords(set, way, w);
                for k in 0..chunk {
                    vals[k] = word_at(w + k);
                }
                if !self.data.try_write_row_u64(row, &vals[..chunk]) {
                    // Row holds latent damage: per-word writes engage
                    // correction / recovery as before.
                    for k in 0..chunk {
                        self.write_line_word(set, way, w + k, vals[k]);
                    }
                }
                w += chunk;
            }
            return;
        }
        for w in 0..LINE_BYTES / 8 {
            self.write_line_word(set, way, w, word_at(w));
        }
    }

    /// Reads a full line from (set, way), one stored row at a time where
    /// the geometry allows (writeback path).
    fn collect_line(&mut self, set: usize, way: usize) -> Result<[u8; LINE_BYTES], EngineError> {
        let mut line = [0u8; LINE_BYTES];
        if let Some(chunk) = self.line_row_chunk(set, way) {
            let mut vals = [0u64; MAX_INTERLEAVE];
            let mut w = 0;
            while w < LINE_BYTES / 8 {
                let (row, _, _) = self.data_coords(set, way, w);
                if self.data.try_read_row_u64(row, &mut vals[..chunk]) {
                    for k in 0..chunk {
                        line[(w + k) * 8..(w + k + 1) * 8].copy_from_slice(&vals[k].to_le_bytes());
                    }
                } else {
                    for k in 0..chunk {
                        let v = self.read_line_word(set, way, w + k)?;
                        line[(w + k) * 8..(w + k + 1) * 8].copy_from_slice(&v.to_le_bytes());
                    }
                }
                w += chunk;
            }
            return Ok(line);
        }
        for w in 0..LINE_BYTES / 8 {
            let v = self.read_line_word(set, way, w)?;
            line[w * 8..(w + 1) * 8].copy_from_slice(&v.to_le_bytes());
        }
        Ok(line)
    }

    fn read_line_word(
        &mut self,
        set: usize,
        way: usize,
        word64: usize,
    ) -> Result<u64, EngineError> {
        let (row, slot, sub) = self.data_coords(set, way, word64);
        // u64 fast lane: a clean 64-bit window moves straight from the
        // row limbs to the caller with zero heap allocations.
        if let Some(v) = self.data.try_read_word_u64(row, slot, sub, 64) {
            return Ok(v);
        }
        let stored = self.data.read_word(row, slot)?;
        Ok(stored.data().slice(sub, 64).to_u64())
    }

    fn write_line_word(&mut self, set: usize, way: usize, word64: usize, value: u64) {
        let (row, slot, sub) = self.data_coords(set, way, word64);
        // u64 fast lane: clean stored word, XOR-delta update in place
        // (and silent-write suppression), zero heap allocations.
        if self
            .data
            .try_write_word_u64(row, slot, sub, value, 64)
            .is_some()
        {
            return;
        }
        let bits = self.config.data_scheme.data_bits;
        // Read-modify-write of the stored (possibly wider) word.
        let mut stored = match self.data.read_word(row, slot) {
            Ok(out) => out.into_data(),
            Err(_) => Bits::zeros(bits),
        };
        stored.write_slice(sub, &Bits::from_u64(value, 64));
        self.data.write_word(row, slot, &stored);
    }
}

impl fmt::Debug for ProtectedCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ProtectedCache({} sets x {} ways, {}B, scheme={:?})",
            self.config.sets,
            self.config.ways,
            self.config.capacity(),
            self.config.data_scheme.horizontal
        )
    }
}

/// Decoded tag-array entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct TagEntry {
    pub(crate) tag: u64,
    pub(crate) valid: bool,
    pub(crate) dirty: bool,
}

impl TagEntry {
    fn from_bits(bits: &Bits) -> Self {
        let tag = bits.slice(0, 48).to_u64();
        TagEntry {
            tag,
            valid: bits.get(48),
            dirty: bits.get(49),
        }
    }

    /// The low [`TAG_KEY_BITS`] bits of every valid entry holding `tag`:
    /// the pattern a lookup matches. `None` when `tag` needs more than 48
    /// bits, which no stored entry can hold (so nothing matches).
    pub(crate) fn lookup_key(tag: u64) -> Option<u64> {
        (tag >> 48 == 0).then_some(tag | 1 << 48)
    }

    /// Decodes the packed 50-bit form used by the u64 tag fast lane.
    pub(crate) fn from_u64(raw: u64) -> Self {
        TagEntry {
            tag: raw & ((1u64 << 48) - 1),
            valid: (raw >> 48) & 1 == 1,
            dirty: (raw >> 49) & 1 == 1,
        }
    }

    /// Packs the entry into the 50-bit form used by the u64 tag fast lane.
    fn to_u64(self) -> u64 {
        (self.tag & ((1u64 << 48) - 1))
            | (u64::from(self.valid) << 48)
            | (u64::from(self.dirty) << 49)
    }

    fn to_bits(self, width: usize) -> Bits {
        let mut b = Bits::zeros(width);
        b.write_slice(0, &Bits::from_u64(self.tag, 48));
        b.set(48, self.valid);
        b.set(49, self.dirty);
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn divisor_matches_hardware_division() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut divisors = vec![1u64, 2, 3, 5, 7, 24, 64, 65, 100, 641, 1 << 32];
        divisors.extend([(1 << 32) + 1, (1 << 63) - 1, 1 << 63, (1 << 63) + 1]);
        divisors.extend([u64::MAX - 1, u64::MAX]);
        // Random divisors of every width.
        divisors.extend((0..200).map(|i| (next() >> (i % 64)).max(1)));
        for d in divisors {
            let div = Divisor::new(d);
            let check = |n: u64| assert_eq!(div.div_rem(n), (n / d, n % d), "{n} / {d}");
            for n in [0, 1, d - 1, d, d.wrapping_add(1), u64::MAX - 1, u64::MAX] {
                check(n);
            }
            // The largest multiples of d and their neighbours, where an
            // off-by-one quotient would show.
            let top = u64::MAX / d * d;
            for n in [top, top - 1, top.wrapping_add(1), top - d, top - d + 1] {
                check(n);
            }
            for _ in 0..500 {
                let n = next();
                check(n);
                check(n >> 40);
                let near = n / d * d;
                check(near);
                check(near.wrapping_sub(1));
            }
        }
    }

    #[test]
    fn geometry_steps_tag_slots_like_division() {
        for (sets, ways, il) in [(24usize, 2usize, 4usize), (16, 4, 4), (5, 3, 2), (7, 5, 3)] {
            let config = CacheConfig {
                sets,
                ways,
                data_scheme: TwoDScheme::l1_paper(),
                tag_scheme: TwoDScheme {
                    data_bits: TAG_ENTRY_BITS,
                    interleave: il,
                    ..TwoDScheme::l1_paper()
                },
            };
            let g = CacheGeometry::new(&config);
            for set in 0..sets {
                let mut coords = g.tag_coords(set, 0);
                for way in 0..ways {
                    let idx = set * ways + way;
                    assert_eq!(coords, (idx / il, idx % il), "set {set} way {way}");
                    coords = g.next_tag_coords(coords);
                }
            }
        }
    }

    fn small_cache() -> ProtectedCache {
        // 16 sets x 2 ways x 64B = 2kB, quick for tests.
        ProtectedCache::new(CacheConfig {
            sets: 16,
            ways: 2,
            data_scheme: TwoDScheme::l1_paper(),
            tag_scheme: TwoDScheme {
                data_bits: TAG_ENTRY_BITS,
                ..TwoDScheme::l1_paper()
            },
        })
    }

    #[test]
    fn read_after_write() {
        let mut c = small_cache();
        c.write(0x40, 77).unwrap();
        assert_eq!(c.read(0x40).unwrap(), 77);
        assert_eq!(c.read(0x48).unwrap(), 0);
    }

    #[test]
    fn misses_then_hits() {
        let mut c = small_cache();
        assert_eq!(c.read(0x1000).unwrap(), 0);
        assert_eq!(c.stats().read_misses, 1);
        let _ = c.read(0x1000).unwrap();
        assert_eq!(c.stats().read_hits, 1);
    }

    #[test]
    fn eviction_writes_back_dirty_lines() {
        let mut c = small_cache();
        // Three lines mapping to set 0 in a 2-way cache (16 sets, 64B
        // lines -> stride 1024).
        c.write(0x0, 1).unwrap();
        c.write(0x400, 2).unwrap();
        c.write(0x800, 3).unwrap(); // evicts line 0x0
        assert!(c.stats().writebacks >= 1);
        // Line 0 returns from the backing store intact.
        assert_eq!(c.read(0x0).unwrap(), 1);
    }

    #[test]
    fn lru_order_respected() {
        let mut c = small_cache();
        c.write(0x0, 1).unwrap();
        c.write(0x400, 2).unwrap();
        let _ = c.read(0x0).unwrap(); // 0x400 now LRU
        c.write(0x800, 3).unwrap(); // evicts 0x400

        // 0x0 must still hit.
        let hits_before = c.stats().read_hits;
        let _ = c.read(0x0).unwrap();
        assert_eq!(c.stats().read_hits, hits_before + 1);
    }

    #[test]
    fn survives_clustered_data_error() {
        let mut c = small_cache();
        for i in 0..32u64 {
            c.write(0x40 * i, i * 3 + 1).unwrap();
        }
        c.inject_data_error(ErrorShape::Cluster {
            row: 0,
            col: 0,
            height: 16,
            width: 32,
        });
        for i in 0..32u64 {
            assert_eq!(c.read(0x40 * i).unwrap(), i * 3 + 1, "line {i}");
        }
    }

    #[test]
    fn survives_tag_array_error() {
        let mut c = small_cache();
        c.write(0x123 * 64, 9).unwrap();
        c.inject_tag_error(ErrorShape::Cluster {
            row: 0,
            col: 0,
            height: 4,
            width: 8,
        });
        assert_eq!(c.read(0x123 * 64).unwrap(), 9);
    }

    #[test]
    fn scrub_and_audit() {
        let mut c = small_cache();
        c.write(0x40, 5).unwrap();
        assert!(c.audit());
        c.inject_data_error(ErrorShape::Single { row: 1, col: 1 });
        c.scrub().unwrap();
        assert!(c.audit());
        assert_eq!(c.read(0x40).unwrap(), 5);
    }

    #[test]
    fn hit_ratio_accounting() {
        let mut c = small_cache();
        c.write(0x40, 1).unwrap(); // miss
        let _ = c.read(0x40).unwrap(); // hit
        let _ = c.read(0x40).unwrap(); // hit
        assert!((c.stats().hit_ratio() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn capacity() {
        assert_eq!(CacheConfig::l1_64kb().capacity(), 64 * 1024);
    }

    #[test]
    fn line_fill_writes_rows_not_words() {
        let mut c = small_cache();
        assert_eq!(c.read(0x1000).unwrap(), 0); // miss -> allocate fills the line
        let stats = c.data_engine_stats();
        // Eight 64-bit word writes served by two row-granular writes
        // (4-way interleave): one read-before-write per stored row, not
        // one per word.
        assert_eq!(stats.writes, 8);
        assert_eq!(stats.extra_reads, 2);
        assert_eq!(stats.reads, 1);
    }

    #[test]
    fn silent_store_suppressed() {
        let mut c = small_cache();
        c.write(0x80, 42).unwrap();
        let before = c.data_engine_stats().silent_writes;
        c.write(0x80, 42).unwrap(); // same value: all coding work skipped
        let after = c.data_engine_stats();
        assert_eq!(after.silent_writes, before + 1);
        assert_eq!(c.read(0x80).unwrap(), 42);
        // The dirty bit was already set, so the write-hit also skipped
        // the protected tag read-modify-write.
        assert!(c.audit());
    }

    #[test]
    fn aligned_byte_span_costs_one_word_op() {
        let mut c = small_cache();
        // Warm the line so the accesses below are pure hits.
        c.write(0x100, 0).unwrap();
        let before = c.data_engine_stats();
        c.write_bytes(0x100, &[7u8; 8]).unwrap();
        let after_write = c.data_engine_stats();
        assert_eq!(
            after_write.writes - before.writes,
            1,
            "aligned 8-byte span must be one word write"
        );
        assert_eq!(after_write.reads, before.reads, "no read-before-merge");
        let mut buf = [0u8; 8];
        c.read_bytes(0x100, &mut buf).unwrap();
        assert_eq!(buf, [7u8; 8]);
        assert_eq!(
            c.data_engine_stats().reads - after_write.reads,
            1,
            "aligned 8-byte read must be one word read"
        );
    }

    #[test]
    fn byte_level_roundtrip() {
        let mut c = small_cache();
        c.write_bytes(0x101, b"hello 2d coding").unwrap();
        let mut buf = [0u8; 15];
        c.read_bytes(0x101, &mut buf).unwrap();
        assert_eq!(&buf, b"hello 2d coding");
        // Unaligned spans crossing word and line boundaries.
        let mut long = [0u8; 80];
        c.write_bytes(0x3D, &(0..80u8).collect::<Vec<_>>()).unwrap();
        c.read_bytes(0x3D, &mut long).unwrap();
        assert_eq!(long.to_vec(), (0..80u8).collect::<Vec<_>>());
    }

    #[test]
    fn byte_writes_survive_errors() {
        let mut c = small_cache();
        c.write_bytes(0x200, b"resilient").unwrap();
        c.inject_data_error(ErrorShape::Cluster {
            row: 0,
            col: 0,
            height: 16,
            width: 16,
        });
        let mut buf = [0u8; 9];
        c.read_bytes(0x200, &mut buf).unwrap();
        assert_eq!(&buf, b"resilient");
    }
}
