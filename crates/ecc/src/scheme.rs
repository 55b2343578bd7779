//! Named protection-scheme registry tying the paper's scheme labels
//! (EDC8, SECDED, DECTED, QECPED, OECNED) to concrete codecs, and the
//! composite "scheme + physical interleaving" configurations compared in
//! Figures 1, 3, and 7.

use crate::logic::{LogicCost, LogicModel};
use crate::{Bch, Code, Edc, Secded};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};

/// The per-word code families evaluated in the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CodeKind {
    /// `n`-way interleaved parity, detection only (`EDCn`).
    Edc(usize),
    /// Single-error-correct / double-error-detect extended Hamming.
    Secded,
    /// Double-error-correct / triple-error-detect BCH (t = 2).
    Dected,
    /// Quad-error-correct / penta-error-detect BCH (t = 4).
    Qecped,
    /// Octa-error-correct / nona-error-detect BCH (t = 8).
    Oecned,
}

/// Process-wide registry of shared codec instances, keyed by
/// `(CodeKind, data_bits)`. Entries are held weakly so codecs free their
/// precomputed tables once every holder is dropped; the bank schemes of
/// `memarray`'s shared registry live for the process, and keep their
/// codecs alive with them.
type CodecRegistry = Mutex<HashMap<(CodeKind, usize), Weak<dyn Code + Send + Sync>>>;

fn codec_registry() -> &'static CodecRegistry {
    static REGISTRY: OnceLock<CodecRegistry> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Cumulative count of actual codec constructions performed by
/// [`CodeKind::build_shared`] (cache misses). Tests assert against deltas
/// of this counter to prove table sets are built once and shared.
static SHARED_CODEC_BUILDS: AtomicU64 = AtomicU64::new(0);

/// Total codec table sets constructed so far through the shared registry.
///
/// Monotonically increasing; take a snapshot before an operation and
/// compare after to count how many fresh table sets it caused.
pub fn shared_codec_builds() -> u64 {
    SHARED_CODEC_BUILDS.load(Ordering::SeqCst)
}

impl CodeKind {
    /// Instantiates the codec for a given data-word width.
    pub fn build(self, data_bits: usize) -> Box<dyn Code + Send + Sync> {
        match self {
            CodeKind::Edc(n) => Box::new(Edc::new(data_bits, n)),
            CodeKind::Secded => Box::new(Secded::new(data_bits)),
            CodeKind::Dected => Box::new(Bch::new(data_bits, 2)),
            CodeKind::Qecped => Box::new(Bch::new(data_bits, 4)),
            CodeKind::Oecned => Box::new(Bch::new(data_bits, 8)),
        }
    }

    /// Returns the process-wide shared codec instance for this kind and
    /// width, constructing it (and its precomputed parity/syndrome
    /// tables) only on first use. Every bank, array, and cache level
    /// asking for the same `(kind, data_bits)` pair receives clones of
    /// one `Arc`, so the table memory exists once regardless of how many
    /// banks the configuration is instantiated across.
    pub fn build_shared(self, data_bits: usize) -> Arc<dyn Code + Send + Sync> {
        let mut registry = codec_registry().lock().expect("codec registry poisoned");
        if let Some(existing) = registry.get(&(self, data_bits)).and_then(Weak::upgrade) {
            return existing;
        }
        let fresh: Arc<dyn Code + Send + Sync> = Arc::from(self.build(data_bits));
        SHARED_CODEC_BUILDS.fetch_add(1, Ordering::SeqCst);
        registry.insert((self, data_bits), Arc::downgrade(&fresh));
        fresh
    }

    /// Number of check bits the codec stores for `data_bits`-bit words.
    pub fn check_bits(self, data_bits: usize) -> usize {
        self.build(data_bits).check_bits()
    }

    /// Gate-level cost of the checker for `data_bits`-bit words.
    pub fn logic_cost(self, data_bits: usize) -> LogicCost {
        match self {
            CodeKind::Edc(n) => Edc::new(data_bits, n).logic_cost(),
            CodeKind::Secded => Secded::new(data_bits).logic_cost(),
            CodeKind::Dected => Bch::new(data_bits, 2).logic_cost(),
            CodeKind::Qecped => Bch::new(data_bits, 4).logic_cost(),
            CodeKind::Oecned => Bch::new(data_bits, 8).logic_cost(),
        }
    }

    /// Guaranteed random-error correction capability per word.
    pub fn correctable(self) -> usize {
        match self {
            CodeKind::Edc(_) => 0,
            CodeKind::Secded => 1,
            CodeKind::Dected => 2,
            CodeKind::Qecped => 4,
            CodeKind::Oecned => 8,
        }
    }

    /// Length of a contiguous in-word burst that is at least detected.
    pub fn burst_detectable(self, _data_bits: usize) -> usize {
        match self {
            CodeKind::Edc(n) => n,
            // t-correcting BCH detects t+1; SECDED detects 2.
            _ => self.correctable() + 1,
        }
    }

    /// Length of a contiguous in-word burst that is corrected.
    pub fn burst_correctable(self) -> usize {
        self.correctable()
    }

    /// The five labels used throughout the paper's figures.
    pub fn paper_set() -> [CodeKind; 5] {
        [
            CodeKind::Edc(8),
            CodeKind::Secded,
            CodeKind::Dected,
            CodeKind::Qecped,
            CodeKind::Oecned,
        ]
    }
}

impl fmt::Display for CodeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodeKind::Edc(n) => write!(f, "EDC{n}"),
            CodeKind::Secded => write!(f, "SECDED"),
            CodeKind::Dected => write!(f, "DECTED"),
            CodeKind::Qecped => write!(f, "QECPED"),
            CodeKind::Oecned => write!(f, "OECNED"),
        }
    }
}

/// A per-word code combined with a physical bit-interleaving degree —
/// the unit of comparison in Figures 1, 3, and 7 (e.g. `DECTED+Intv16`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct InterleavedScheme {
    /// The per-word code.
    pub code: CodeKind,
    /// Physical bit-interleaving degree (1 = none).
    pub interleave: usize,
}

impl InterleavedScheme {
    /// Creates a scheme descriptor.
    ///
    /// # Panics
    ///
    /// Panics if `interleave == 0`.
    pub fn new(code: CodeKind, interleave: usize) -> Self {
        assert!(interleave >= 1, "interleave degree must be >= 1");
        InterleavedScheme { code, interleave }
    }

    /// The physically contiguous error width (bits along a row) that the
    /// scheme corrects: per-word burst correction times interleave degree.
    pub fn row_burst_correctable(&self) -> usize {
        self.code.burst_correctable() * self.interleave
    }

    /// The physically contiguous error width that the scheme detects.
    pub fn row_burst_detectable(&self, data_bits: usize) -> usize {
        self.code.burst_detectable(data_bits) * self.interleave
    }

    /// Storage overhead relative to data bits.
    pub fn storage_overhead(&self, data_bits: usize) -> f64 {
        self.code.check_bits(data_bits) as f64 / data_bits as f64
    }

    /// The conventional configurations that reach 32-bit row coverage,
    /// as compared in Figure 7.
    pub fn conventional_32bit_set() -> [InterleavedScheme; 3] {
        [
            InterleavedScheme::new(CodeKind::Dected, 16),
            InterleavedScheme::new(CodeKind::Qecped, 8),
            InterleavedScheme::new(CodeKind::Oecned, 4),
        ]
    }

    /// The baseline both Figure 7 panels normalize to.
    pub fn figure7_baseline() -> InterleavedScheme {
        InterleavedScheme::new(CodeKind::Secded, 2)
    }
}

impl fmt::Display for InterleavedScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}+Intv{}", self.code, self.interleave)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_bits_match_figure1() {
        // Figure 1(b): extra storage for 64b and 256b words.
        let k64: Vec<usize> = CodeKind::paper_set()
            .iter()
            .map(|c| c.check_bits(64))
            .collect();
        assert_eq!(k64, vec![8, 8, 15, 29, 57]);
        let k256: Vec<usize> = CodeKind::paper_set()
            .iter()
            .map(|c| c.check_bits(256))
            .collect();
        assert_eq!(k256, vec![8, 10, 19, 37, 73]);
    }

    #[test]
    fn figure3_overheads() {
        // Figure 3 captions: SECDED+Intv4 12.5%, OECNED+Intv4 89.1%,
        // (2D horizontal EDC8 is also 12.5%; +32 parity rows -> 25%).
        let secded = InterleavedScheme::new(CodeKind::Secded, 4);
        assert!((secded.storage_overhead(64) - 0.125).abs() < 1e-9);
        let oecned = InterleavedScheme::new(CodeKind::Oecned, 4);
        assert!((oecned.storage_overhead(64) - 0.8906).abs() < 1e-3);
    }

    #[test]
    fn conventional_32bit_coverage() {
        for s in InterleavedScheme::conventional_32bit_set() {
            assert_eq!(s.row_burst_correctable(), 32, "{s}");
        }
        // 2D horizontal EDC8+Intv4 detects 32-bit row bursts.
        let h = InterleavedScheme::new(CodeKind::Edc(8), 4);
        assert_eq!(h.row_burst_detectable(64), 32);
        // EDC16+Intv2 also detects 32-bit bursts (L2 config).
        let h2 = InterleavedScheme::new(CodeKind::Edc(16), 2);
        assert_eq!(h2.row_burst_detectable(256), 32);
    }

    #[test]
    fn display_labels() {
        assert_eq!(CodeKind::Edc(8).to_string(), "EDC8");
        assert_eq!(
            InterleavedScheme::new(CodeKind::Dected, 16).to_string(),
            "DECTED+Intv16"
        );
    }

    #[test]
    fn build_shared_reuses_one_instance() {
        // One test covers the whole registry lifecycle: the build
        // counter is process-global, so splitting these assertions
        // across parallel #[test] fns would race.
        let first = CodeKind::Dected.build_shared(48);
        let second = CodeKind::Dected.build_shared(48);
        assert!(
            Arc::ptr_eq(&first, &second),
            "same (kind, width) must share one codec"
        );
        // A different width is a different codec.
        let other = CodeKind::Dected.build_shared(32);
        assert!(!Arc::ptr_eq(&first, &other));
        // Counter deltas: widths 44/45 with EDC4 are unique to this test,
        // and other tests in this binary never call build_shared, so the
        // deltas below are exact even under parallel test execution.
        let before = shared_codec_builds();
        let a = CodeKind::Edc(4).build_shared(44);
        let a2 = CodeKind::Edc(4).build_shared(44);
        assert_eq!(
            shared_codec_builds(),
            before + 1,
            "second request must not rebuild the tables"
        );
        assert!(Arc::ptr_eq(&a, &a2));
        drop(a);
        drop(a2);
        // The weak entry is dead; the next request constructs afresh.
        let _b = CodeKind::Edc(4).build_shared(44);
        assert_eq!(shared_codec_builds(), before + 2);
    }

    #[test]
    fn builds_working_codecs() {
        use crate::{Bits, Decoded};
        for kind in CodeKind::paper_set() {
            let code = kind.build(64);
            let data = Bits::from_u64(0x5A5A_5A5A_5A5A_5A5A, 64);
            let check = code.encode(&data);
            assert_eq!(code.decode(&data, &check), Decoded::Clean, "{kind}");
        }
    }
}
