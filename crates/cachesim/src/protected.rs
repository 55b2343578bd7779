//! The protected backing store behind the detailed L2 — the tentpole of
//! the "wake the simulator" milestone.
//!
//! [`ProtectedStore`] puts a real [`memarray::TwoDArray`] (or a
//! SECDED-per-line comparator at equal storage overhead) underneath the
//! banked L2 of [`crate::detailed::DetailedSim`]: every L2 fill read and
//! writeback touches an actual coded bank, and the correction or
//! recovery latency the array reports becomes extra bank occupancy —
//! which is how correction work back-pressures MSHRs and ports.
//!
//! The store doubles as an end-to-end *outcome oracle*. It keeps a
//! deterministic model of what every word slot should contain and
//! classifies every injected fault event into exactly one of the
//! NE/CE/DUE/SDC buckets used by the MultiECC/REGB evaluation idiom:
//!
//! * **NE** — no effect: the fault never became architecturally visible
//!   (zero observable flips, e.g. a stuck-at matching the stored value);
//! * **CE** — corrected error: every touched word decoded back to the
//!   modelled value via in-line correction or 2D recovery;
//! * **DUE** — detected uncorrectable error: the scheme reported data
//!   loss (for the SECDED-per-line comparator this includes outcomes
//!   only the 2D machinery could have repaired);
//! * **SDC** — silent data corruption: a word read back "clean" or
//!   "corrected" but its payload disagrees with the model.
//!
//! Fault *domains* follow the footprint of the injected shape: a
//! single-row upset is a **row** fault, a multi-row cluster within the
//! vertical interleave `V` is a **stripe** fault, and damage spanning
//! more than `V` rows (two hits in one stripe) is a **bank** fault.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

use ecc::Bits;
use memarray::{BankScheme, EngineError, ErrorShape, ReadKind, TwoDArray};
use reliability::{poisson, YieldModel};
use twod_cache::TwoDScheme;

use crate::{DetailedSim, ProtectionPolicy, SystemConfig, WorkloadProfile};

/// Data rows per store bank. 544 is chosen so the 2D L2 preset lands at
/// *exactly* the SECDED-per-line storage overhead:
/// `16/256 + 32/544 * (1 + 16/256) = 0.125 = 8/64` — the equal-overhead
/// comparison point the paper's Table 2 argues from.
pub const STORE_ROWS: usize = 544;

/// Banks per store (independent fault + recovery domains).
pub const STORE_BANKS: usize = 4;

/// Which protection scheme backs the store.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoreScheme {
    /// The paper's 2D L2 preset: EDC16 per 256-bit word horizontally,
    /// 32 interleaved vertical parity rows for correction.
    TwoD,
    /// SECDED-per-line comparator at equal storage overhead (8 check
    /// bits per 64-bit word). The underlying array still carries
    /// vertical machinery, but any outcome that *needed* it is counted
    /// as DUE: a per-line code alone could only have detected it.
    SecdedPerLine,
}

impl StoreScheme {
    /// Short machine-readable label used in reports and bench rows.
    pub fn label(&self) -> &'static str {
        match self {
            StoreScheme::TwoD => "2d",
            StoreScheme::SecdedPerLine => "secded",
        }
    }

    /// The core-crate scheme preset this store instantiates.
    pub fn preset(&self) -> TwoDScheme {
        match self {
            StoreScheme::TwoD => TwoDScheme::l2_paper(),
            StoreScheme::SecdedPerLine => TwoDScheme::yield_mode(),
        }
    }

    /// Storage overhead accounted to the scheme at [`STORE_ROWS`].
    ///
    /// For the SECDED comparator only the horizontal code is charged —
    /// the vertical rows are adapter machinery, not part of the design
    /// being modelled.
    pub fn accounted_overhead(&self) -> f64 {
        match self {
            StoreScheme::TwoD => self.preset().storage_overhead(STORE_ROWS),
            StoreScheme::SecdedPerLine => 8.0 / 64.0,
        }
    }
}

/// Where an injected fault landed, by footprint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultDomain {
    /// Confined to one data row.
    Row,
    /// Spans several rows but at most the vertical interleave `V`.
    Stripe,
    /// Spans more than `V` rows (or hits one stripe twice).
    Bank,
}

impl FaultDomain {
    /// Report label.
    pub fn label(&self) -> &'static str {
        match self {
            FaultDomain::Row => "row",
            FaultDomain::Stripe => "stripe",
            FaultDomain::Bank => "bank",
        }
    }
}

/// Terminal classification of one fault event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultOutcome {
    /// No architecturally visible effect.
    Ne,
    /// Corrected error.
    Ce,
    /// Detected uncorrectable error.
    Due,
    /// Silent data corruption.
    Sdc,
}

impl FaultOutcome {
    /// Report label.
    pub fn label(&self) -> &'static str {
        match self {
            FaultOutcome::Ne => "NE",
            FaultOutcome::Ce => "CE",
            FaultOutcome::Due => "DUE",
            FaultOutcome::Sdc => "SDC",
        }
    }
}

/// Raw evidence accumulated between `begin_event` and `take_evidence`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EventEvidence {
    /// Words fixed by in-line (horizontal) correction.
    pub corrected: u64,
    /// Words that required 2D vertical recovery.
    pub recovered: u64,
    /// Reads or scrubs that reported unrecoverable loss.
    pub uncorrectable: u64,
    /// Words whose decoded payload disagreed with the model.
    pub mismatch: u64,
}

impl EventEvidence {
    /// Whether any mechanism fired at all.
    pub fn any(&self) -> bool {
        self.corrected + self.recovered + self.uncorrectable + self.mismatch > 0
    }
}

/// Classifies one fault event; `None` means the fault is unaccounted
/// (observable flips were injected but no mechanism ever saw them —
/// a model bug, not a benign outcome, and the sim binary treats it as
/// fatal).
pub fn classify(scheme: StoreScheme, flips: usize, ev: &EventEvidence) -> Option<FaultOutcome> {
    if ev.mismatch > 0 {
        return Some(FaultOutcome::Sdc);
    }
    if ev.uncorrectable > 0 {
        return Some(FaultOutcome::Due);
    }
    if scheme == StoreScheme::SecdedPerLine && ev.recovered > 0 {
        // The comparator's per-line code detected but could not have
        // corrected this; only the (disallowed) vertical machinery did.
        return Some(FaultOutcome::Due);
    }
    if ev.corrected + ev.recovered > 0 {
        return Some(FaultOutcome::Ce);
    }
    if flips == 0 {
        return Some(FaultOutcome::Ne);
    }
    None
}

/// Records read evidence for one decoded word against its modelled
/// value (`None`: a slot never written, which must read back zero).
fn note_read(ev: &mut EventEvidence, kind: ReadKind, data: &Bits, expected: Option<&Bits>) {
    match kind {
        ReadKind::Clean => {}
        ReadKind::CorrectedInline => ev.corrected += 1,
        ReadKind::Recovered => ev.recovered += 1,
    }
    let matches = match expected {
        Some(e) => data == e,
        None => data.is_zero(),
    };
    if !matches {
        ev.mismatch += 1;
    }
}

/// Operation counters of one store (monotonic).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// L2 fill reads served.
    pub fill_reads: u64,
    /// L2 writebacks absorbed.
    pub writebacks: u64,
    /// Total correction/recovery cycles charged to the banks.
    pub penalty_cycles: u64,
}

/// A coded backing store for the detailed L2 model: real banks, a
/// deterministic content model, and per-event evidence collection.
///
/// The store is deliberately RNG-free: slot contents derive from the
/// line address and a write epoch, so a fault-free run is bit-identical
/// to an unprotected run of the same simulator (the equivalence the
/// test suite pins).
#[derive(Clone, Debug)]
pub struct ProtectedStore {
    kind: StoreScheme,
    scheme: Arc<BankScheme>,
    banks: Vec<TwoDArray>,
    /// Per bank: slot index -> expected word payload. `BTreeMap` keeps
    /// readback and rebuild order deterministic.
    model: Vec<BTreeMap<u32, Bits>>,
    write_epoch: u64,
    stats: StoreStats,
    evidence: EventEvidence,
    words_per_row: usize,
    data_bits: usize,
    /// Row-audit landing buffers of [`ProtectedStore::resolve_bank`], one
    /// per word of a row.
    row_data: Vec<Bits>,
    row_reads: Vec<Result<(ReadKind, u64), EngineError>>,
}

impl ProtectedStore {
    /// Builds a store with [`STORE_BANKS`] banks of [`STORE_ROWS`] rows
    /// sharing one [`BankScheme`] from the process-wide registry (live
    /// stores of one kind share one table set).
    pub fn new(kind: StoreScheme) -> Self {
        let scheme = BankScheme::shared(kind.preset().bank_config(STORE_ROWS));
        let banks: Vec<TwoDArray> = (0..STORE_BANKS)
            .map(|_| TwoDArray::from_scheme(Arc::clone(&scheme)))
            .collect();
        let words_per_row = banks[0].words_per_row();
        let data_bits = banks[0].layout().data_bits();
        ProtectedStore {
            kind,
            scheme,
            banks,
            model: (0..STORE_BANKS).map(|_| BTreeMap::new()).collect(),
            write_epoch: 0,
            stats: StoreStats::default(),
            evidence: EventEvidence::default(),
            words_per_row,
            data_bits,
            row_data: vec![Bits::zeros(data_bits); words_per_row],
            row_reads: vec![Ok((ReadKind::Clean, 0)); words_per_row],
        }
    }

    /// Which scheme backs this store.
    pub fn kind(&self) -> StoreScheme {
        self.kind
    }

    /// Operation counters.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Vertical interleave `V` of the backing scheme.
    pub fn vertical_rows(&self) -> usize {
        self.scheme.vertical_rows()
    }

    /// Physical column of `bit` of word `word` (for shaping injections).
    pub fn data_col(&self, word: usize, bit: usize) -> usize {
        self.banks[0].layout().data_col(word, bit)
    }

    /// Maps a line address to its (bank, row, word) slot.
    fn slot_of(&self, line: u64) -> (usize, usize, usize) {
        let bank = (line % STORE_BANKS as u64) as usize;
        let slots = (STORE_ROWS * self.words_per_row) as u64;
        let s = (line / STORE_BANKS as u64) % slots;
        (
            bank,
            (s as usize) / self.words_per_row,
            (s as usize) % self.words_per_row,
        )
    }

    /// Deterministic slot payload for `line` at write `epoch`
    /// (splitmix64 expansion — no RNG state involved).
    fn slot_value(&self, line: u64, epoch: u64) -> Bits {
        let mut limbs = vec![0u64; self.data_bits.div_ceil(64)];
        let mut x = line
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(epoch.wrapping_mul(0xBF58_476D_1CE4_E5B9));
        for limb in limbs.iter_mut() {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            *limb = z ^ (z >> 31);
        }
        Bits::from_limbs(&limbs, self.data_bits)
    }

    /// Serves an L2 fill read of `line`; returns the correction-latency
    /// penalty in array-access cycles (0 on the clean fast path).
    pub fn fill_read(&mut self, line: u64) -> u64 {
        self.stats.fill_reads += 1;
        let (bank, row, word) = self.slot_of(line);
        let key = (row * self.words_per_row + word) as u32;
        match self.banks[bank].read_word_timed(row, word) {
            Ok((outcome, cycles)) => {
                let expected = self.model[bank].get(&key);
                note_read(&mut self.evidence, outcome.kind(), outcome.data(), expected);
                self.stats.penalty_cycles += cycles;
                cycles
            }
            Err(_) => {
                self.evidence.uncorrectable += 1;
                let cycles = STORE_ROWS as u64;
                self.stats.penalty_cycles += cycles;
                cycles
            }
        }
    }

    /// Absorbs an L2 writeback of `line`; returns the correction-latency
    /// penalty the read-before-write incurred.
    pub fn writeback(&mut self, line: u64) -> u64 {
        self.stats.writebacks += 1;
        self.write_epoch += 1;
        let (bank, row, word) = self.slot_of(line);
        let key = (row * self.words_per_row + word) as u32;
        let value = self.slot_value(line, self.write_epoch);
        let cycles = self.banks[bank].write_word_timed(row, word, &value);
        // The RBW read verifies the old word, so any latent damage it
        // found is correction evidence (recovery if it cost more than
        // the in-line fix).
        if cycles == memarray::INLINE_CORRECT_CYCLES {
            self.evidence.corrected += 1;
        } else if cycles > 0 {
            self.evidence.recovered += 1;
        }
        self.model[bank].insert(key, value);
        self.stats.penalty_cycles += cycles;
        cycles
    }

    /// Starts a fault event: clears the evidence window.
    pub fn begin_event(&mut self) {
        self.evidence = EventEvidence::default();
    }

    /// Ends a fault event, returning the accumulated evidence.
    pub fn take_evidence(&mut self) -> EventEvidence {
        std::mem::take(&mut self.evidence)
    }

    /// Injects a transient fault into `bank`; returns observable flips.
    pub fn inject(&mut self, bank: usize, shape: ErrorShape) -> usize {
        self.banks[bank].inject(shape).flip_count()
    }

    /// Injects a stuck-at fault into `bank`; returns observable flips.
    pub fn inject_hard(&mut self, bank: usize, shape: ErrorShape, stuck: bool) -> usize {
        self.banks[bank].inject_hard(shape, stuck).flip_count()
    }

    /// Sweeps `bank` after a fault event: reads back *every* word slot
    /// against the model (so damage outside the working set cannot hide)
    /// and finishes with a scrub pass.
    ///
    /// Each row is read by one row audit ([`TwoDArray::read_row_timed`]:
    /// one clean check per row, per-word reads only from a dirty word
    /// on), and the model, already in slot order, is merge-joined
    /// alongside instead of looked up per word.
    pub fn resolve_bank(&mut self, bank: usize) {
        let mut model = self.model[bank].iter().peekable();
        let mut key = 0u32;
        for row in 0..STORE_ROWS {
            self.banks[bank].read_row_timed(row, &mut self.row_data, &mut self.row_reads);
            for (read, data) in self.row_reads.iter().zip(&self.row_data) {
                let expected = model.next_if(|&(&k, _)| k == key).map(|(_, v)| v);
                key += 1;
                match read {
                    Ok((kind, cycles)) => {
                        note_read(&mut self.evidence, *kind, data, expected);
                        self.stats.penalty_cycles += cycles;
                    }
                    Err(_) => self.evidence.uncorrectable += 1,
                }
            }
        }
        match self.banks[bank].scrub() {
            Ok(_) => {}
            Err(_) => self.evidence.uncorrectable += 1,
        }
    }

    /// Resets `bank` to a fresh array in place (clearing stuck faults,
    /// keeping its buffers) and replays the modelled contents — the
    /// "retire and remap" step between fault events.
    pub fn rebuild_bank(&mut self, bank: usize) {
        let array = &mut self.banks[bank];
        array.reset();
        for (&key, value) in &self.model[bank] {
            let row = key as usize / self.words_per_row;
            let word = key as usize % self.words_per_row;
            array.write_word(row, word, value);
        }
    }
}

/// One entry of the injection deck.
#[derive(Clone, Copy, Debug)]
struct Scenario {
    name: &'static str,
    domain: FaultDomain,
    /// The 2D scheme is expected to fully correct this shape.
    expect_ce_2d: bool,
}

const DECK: [Scenario; 7] = [
    Scenario {
        name: "single_bit",
        domain: FaultDomain::Row,
        expect_ce_2d: true,
    },
    Scenario {
        name: "word_double",
        domain: FaultDomain::Row,
        expect_ce_2d: true,
    },
    Scenario {
        name: "word_triple",
        domain: FaultDomain::Row,
        expect_ce_2d: true,
    },
    Scenario {
        name: "cluster_8x8",
        domain: FaultDomain::Stripe,
        expect_ce_2d: true,
    },
    Scenario {
        name: "row_wipe",
        domain: FaultDomain::Row,
        expect_ce_2d: true,
    },
    Scenario {
        name: "stripe_collision",
        domain: FaultDomain::Bank,
        expect_ce_2d: false,
    },
    Scenario {
        name: "stuck_benign",
        domain: FaultDomain::Row,
        expect_ce_2d: false,
    },
];

/// Injects scenario `idx` of the deck into `bank`; returns flips.
fn inject_scenario(store: &mut ProtectedStore, idx: usize, bank: usize, round: usize) -> usize {
    let base = 3 + round * 7; // keep clear of stripe-aligned corners
    let v = store.vertical_rows();
    match idx {
        0 => store.inject(
            bank,
            ErrorShape::Single {
                row: base + 11,
                col: store.data_col(0, 3),
            },
        ),
        1 => {
            let row = base + 23;
            store.inject(
                bank,
                ErrorShape::Single {
                    row,
                    col: store.data_col(0, 10),
                },
            ) + store.inject(
                bank,
                ErrorShape::Single {
                    row,
                    col: store.data_col(0, 11),
                },
            )
        }
        2 => {
            let row = base + 37;
            (20..23)
                .map(|bit| {
                    store.inject(
                        bank,
                        ErrorShape::Single {
                            row,
                            col: store.data_col(0, bit),
                        },
                    )
                })
                .sum()
        }
        3 => store.inject(
            bank,
            ErrorShape::Cluster {
                row: base + 50,
                col: store.data_col(0, 0),
                height: 8,
                width: 8,
            },
        ),
        4 => store.inject(bank, ErrorShape::Row { row: base + 100 }),
        5 => {
            // Two hits in the same column of the same stripe: the
            // vertical syndrome cancels, so 2D recovery must *detect*
            // but cannot correct — the designed-in DUE case.
            let row = base + 130;
            let col = store.data_col(0, 5);
            store.inject(bank, ErrorShape::Single { row, col })
                + store.inject(bank, ErrorShape::Single { row: row + v, col })
        }
        6 => store.inject_hard(
            bank,
            ErrorShape::Single {
                row: base + 200,
                col: store.data_col(0, 40),
            },
            false,
        ),
        _ => unreachable!("deck has {} scenarios", DECK.len()),
    }
}

/// Per-outcome tally.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OutcomeTally {
    /// No-effect events.
    pub ne: u64,
    /// Corrected events.
    pub ce: u64,
    /// Detected-uncorrectable events.
    pub due: u64,
    /// Silent-corruption events.
    pub sdc: u64,
    /// Events no mechanism accounted for (fatal).
    pub unaccounted: u64,
}

impl OutcomeTally {
    fn record(&mut self, outcome: Option<FaultOutcome>) {
        match outcome {
            Some(FaultOutcome::Ne) => self.ne += 1,
            Some(FaultOutcome::Ce) => self.ce += 1,
            Some(FaultOutcome::Due) => self.due += 1,
            Some(FaultOutcome::Sdc) => self.sdc += 1,
            None => self.unaccounted += 1,
        }
    }

    /// Total events tallied.
    pub fn total(&self) -> u64 {
        self.ne + self.ce + self.due + self.sdc + self.unaccounted
    }

    /// Fraction of the tallied events that ended as DUE (0 when none
    /// were tallied).
    pub fn due_fraction(&self) -> f64 {
        match self.total() {
            0 => 0.0,
            total => self.due as f64 / total as f64,
        }
    }
}

/// Results of one scheme's fault campaign.
#[derive(Clone, Debug)]
pub struct SchemeReport {
    /// Which scheme ran.
    pub scheme: StoreScheme,
    /// Storage overhead accounted to the scheme.
    pub overhead: f64,
    /// Aggregate outcome tally.
    pub totals: OutcomeTally,
    /// Tallies keyed by scenario name (deck order).
    pub per_scenario: Vec<(&'static str, OutcomeTally)>,
    /// Tallies keyed by fault domain (row, stripe, bank).
    pub per_domain: Vec<(&'static str, OutcomeTally)>,
    /// `expect_ce_2d` scenarios that did not come back CE (2D only).
    pub broken_expectations: u64,
    /// Final simulator statistics (timing side).
    pub sim: crate::detailed::DetailedStats,
    /// Final store counters.
    pub store: StoreStats,
}

/// Fault events the reliability roll-up expects over its field horizon.
const FIELD_EVENTS: f64 = 64.0;

/// Reliability projections fed from the measured DUE fractions. Each of
/// a Poisson count of field events (mean 64) retires a spare row with
/// the scheme's measured DUE probability, so retirements are exactly
/// Poisson with mean `64 * due_fraction`.
#[derive(Clone, Copy, Debug)]
pub struct ReliabilityProjection {
    /// Expected DUE block retirements over the projection horizon.
    pub due_retirements_2d: f64,
    /// One-sided 95% upper bound on the 2D retirements: the smallest
    /// count whose Poisson CDF reaches 0.95.
    pub due_retirements_p95_2d: u64,
    /// Expected retirements for the SECDED comparator.
    pub due_retirements_secded: f64,
    /// The SECDED comparator's 95% upper bound.
    pub due_retirements_p95_secded: u64,
    /// Projected yield with 2D after retiring that many spare rows.
    pub yield_2d: f64,
    /// Projected yield with SECDED after its retirements.
    pub yield_secded: f64,
}

/// Campaign configuration.
#[derive(Clone, Copy, Debug)]
pub struct SimCampaignConfig {
    /// RNG seed of the workload streams, the campaign's only randomness:
    /// the store, the deck and the reliability roll-up draw nothing.
    pub seed: u64,
    /// Rounds through the scenario deck per scheme.
    pub rounds: usize,
    /// Cycles simulated between campaign phases.
    pub window: u64,
}

impl SimCampaignConfig {
    /// The pinned CI configuration (also the committed baseline).
    pub fn quick(seed: u64) -> Self {
        SimCampaignConfig {
            seed,
            rounds: 2,
            window: 300,
        }
    }
}

/// Full campaign outcome: one report per scheme plus the reliability
/// roll-up.
#[derive(Clone, Debug)]
pub struct SimCampaignOutcome {
    /// Echo of the configuration.
    pub config: SimCampaignConfig,
    /// Per-scheme reports, `[TwoD, SecdedPerLine]`.
    pub schemes: Vec<SchemeReport>,
    /// Reliability projection from the measured rates.
    pub reliability: ReliabilityProjection,
}

impl SimCampaignOutcome {
    /// Whether the campaign is healthy: every fault accounted, zero SDC
    /// under 2D, and every `expect_ce_2d` scenario corrected by 2D.
    pub fn healthy(&self) -> bool {
        self.schemes.iter().all(|s| {
            let accounted = s.totals.unaccounted == 0;
            let no_2d_escape = match s.scheme {
                StoreScheme::TwoD => s.totals.sdc == 0 && s.broken_expectations == 0,
                StoreScheme::SecdedPerLine => true,
            };
            accounted && no_2d_escape
        })
    }

    /// Renders the classification report as stable-field-order JSON
    /// (hand-written so equal seeds produce byte-identical bytes).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n  \"schema\": \"twod-repro/sim-campaign-v2\",\n");
        let _ = writeln!(
            s,
            "  \"config\": {{ \"seed\": {}, \"rounds\": {}, \"window\": {} }},",
            self.config.seed, self.config.rounds, self.config.window
        );
        s.push_str("  \"schemes\": [\n");
        for (i, r) in self.schemes.iter().enumerate() {
            let _ = writeln!(s, "    {{");
            let _ = writeln!(s, "      \"scheme\": \"{}\",", r.scheme.label());
            let _ = writeln!(s, "      \"storage_overhead\": {:.6},", r.overhead);
            let _ = writeln!(s, "      \"totals\": {},", tally_json(&r.totals));
            s.push_str("      \"per_scenario\": {\n");
            for (j, (name, t)) in r.per_scenario.iter().enumerate() {
                let comma = if j + 1 < r.per_scenario.len() {
                    ","
                } else {
                    ""
                };
                let _ = writeln!(s, "        \"{}\": {}{}", name, tally_json(t), comma);
            }
            s.push_str("      },\n");
            s.push_str("      \"per_domain\": {\n");
            for (j, (name, t)) in r.per_domain.iter().enumerate() {
                let comma = if j + 1 < r.per_domain.len() { "," } else { "" };
                let _ = writeln!(s, "        \"{}\": {}{}", name, tally_json(t), comma);
            }
            s.push_str("      },\n");
            let _ = writeln!(
                s,
                "      \"broken_expectations\": {},",
                r.broken_expectations
            );
            let _ = writeln!(
                s,
                "      \"timing\": {{ \"cycles\": {}, \"references\": {}, \"cycles_per_ref\": {:.6}, \"mshr_occupancy_mean\": {:.6}, \"mshr_peak\": {}, \"correction_stall_cycles\": {}, \"correction_stall_frac\": {:.6}, \"l2_writebacks\": {} }},",
                r.sim.cycles,
                r.sim.references,
                r.sim.cycles_per_ref(),
                r.sim.mshr_occupancy_mean(),
                r.sim.mshr_peak,
                r.sim.correction_stall_cycles,
                r.sim.correction_stall_fraction(),
                r.sim.l2_writebacks
            );
            let _ = writeln!(
                s,
                "      \"store\": {{ \"fill_reads\": {}, \"writebacks\": {}, \"penalty_cycles\": {} }}",
                r.store.fill_reads, r.store.writebacks, r.store.penalty_cycles
            );
            let comma = if i + 1 < self.schemes.len() { "," } else { "" };
            let _ = writeln!(s, "    }}{}", comma);
        }
        s.push_str("  ],\n");
        let _ = writeln!(
            s,
            "  \"reliability\": {{ \"due_retirements_2d\": {:.6}, \"due_retirements_p95_2d\": {}, \"due_retirements_secded\": {:.6}, \"due_retirements_p95_secded\": {}, \"yield_2d\": {:.6}, \"yield_secded\": {:.6} }},",
            self.reliability.due_retirements_2d,
            self.reliability.due_retirements_p95_2d,
            self.reliability.due_retirements_secded,
            self.reliability.due_retirements_p95_secded,
            self.reliability.yield_2d,
            self.reliability.yield_secded
        );
        let _ = writeln!(s, "  \"healthy\": {}", self.healthy());
        s.push_str("}\n");
        s
    }
}

fn tally_json(t: &OutcomeTally) -> String {
    format!(
        "{{ \"ne\": {}, \"ce\": {}, \"due\": {}, \"sdc\": {}, \"unaccounted\": {} }}",
        t.ne, t.ce, t.due, t.sdc, t.unaccounted
    )
}

/// Runs `cfg.rounds` rounds of the deck through `sim`'s store.
fn run_scheme(cfg: &SimCampaignConfig, mut sim: DetailedSim) -> SchemeReport {
    let kind = sim.store().expect("store attached").kind();
    let mut totals = OutcomeTally::default();
    let mut per_scenario: Vec<(&'static str, OutcomeTally)> = DECK
        .iter()
        .map(|sc| (sc.name, OutcomeTally::default()))
        .collect();
    let mut per_domain: Vec<(&'static str, OutcomeTally)> = vec![
        ("row", OutcomeTally::default()),
        ("stripe", OutcomeTally::default()),
        ("bank", OutcomeTally::default()),
    ];
    let mut broken = 0u64;
    for round in 0..cfg.rounds {
        for (idx, scenario) in DECK.iter().enumerate() {
            sim.run_window(cfg.window);
            let store = sim.store_mut().expect("store attached");
            store.begin_event();
            let bank = (round * DECK.len() + idx) % STORE_BANKS;
            let flips = inject_scenario(store, idx, bank, round);
            sim.run_window(cfg.window);
            let store = sim.store_mut().expect("store attached");
            store.resolve_bank(bank);
            let ev = store.take_evidence();
            let outcome = classify(kind, flips, &ev);
            totals.record(outcome);
            per_scenario[idx].1.record(outcome);
            let d = match scenario.domain {
                FaultDomain::Row => 0,
                FaultDomain::Stripe => 1,
                FaultDomain::Bank => 2,
            };
            per_domain[d].1.record(outcome);
            if kind == StoreScheme::TwoD
                && scenario.expect_ce_2d
                && outcome != Some(FaultOutcome::Ce)
            {
                broken += 1;
            }
            store.rebuild_bank(bank);
        }
    }
    SchemeReport {
        scheme: kind,
        overhead: kind.accounted_overhead(),
        totals,
        per_scenario,
        per_domain,
        broken_expectations: broken,
        sim: sim.stats(),
        store: sim.store().expect("store attached").stats(),
    }
}

/// Runs the full two-scheme fault campaign: trace-driven multi-core
/// execution with the protected store under the L2, deterministic
/// seeded injection of the scenario deck, NE/CE/DUE/SDC classification
/// per fault domain, and a closed-form reliability roll-up
/// ([`ReliabilityProjection`]).
///
/// Both schemes start from one warmed checkpoint: warm-up draws only
/// from the simulator's own streams and never touches a store, so one
/// store-less simulator is warmed, cloned for the 2D scheme, and moved
/// into the SECDED scheme.
pub fn run_sim_campaign(cfg: SimCampaignConfig) -> SimCampaignOutcome {
    let mut warmed = DetailedSim::new(
        SystemConfig::fat_cmp(),
        ProtectionPolicy::full(),
        WorkloadProfile::oltp(),
        cfg.seed,
    );
    warmed.run_window(0);
    let twod = run_scheme(
        &cfg,
        warmed
            .clone()
            .with_store(ProtectedStore::new(StoreScheme::TwoD)),
    );
    let secded = run_scheme(
        &cfg,
        warmed.with_store(ProtectedStore::new(StoreScheme::SecdedPerLine)),
    );
    let due_2d = FIELD_EVENTS * twod.totals.due_fraction();
    let due_secded = FIELD_EVENTS * secded.totals.due_fraction();
    let ym = YieldModel::l2_16mb();
    let reliability = ReliabilityProjection {
        due_retirements_2d: due_2d,
        due_retirements_p95_2d: poisson::quantile(0.95, due_2d),
        due_retirements_secded: due_secded,
        due_retirements_p95_secded: poisson::quantile(0.95, due_secded),
        yield_2d: ym.yield_after_retirement(40, 64, due_2d.ceil() as u64),
        yield_secded: ym.yield_after_retirement(40, 64, due_secded.ceil() as u64),
    };
    let schemes = vec![twod, secded];

    SimCampaignOutcome {
        config: cfg,
        schemes,
        reliability,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_roundtrips_writebacks() {
        let mut store = ProtectedStore::new(StoreScheme::TwoD);
        store.begin_event();
        for line in 0..64u64 {
            assert_eq!(store.writeback(line), 0, "clean RBW costs nothing");
        }
        for line in 0..64u64 {
            assert_eq!(store.fill_read(line), 0, "clean reads cost nothing");
        }
        let ev = store.take_evidence();
        assert_eq!(
            ev,
            EventEvidence::default(),
            "clean traffic leaves no evidence"
        );
    }

    #[test]
    fn live_stores_of_one_kind_share_one_scheme() {
        let a = ProtectedStore::new(StoreScheme::TwoD);
        let b = ProtectedStore::new(StoreScheme::TwoD);
        let c = ProtectedStore::new(StoreScheme::SecdedPerLine);
        assert!(Arc::ptr_eq(&a.scheme, &b.scheme), "one table set per kind");
        assert!(!Arc::ptr_eq(&a.scheme, &c.scheme), "kinds differ");
        assert!(a
            .banks
            .iter()
            .all(|bank| Arc::ptr_eq(bank.scheme(), &a.scheme)));
    }

    #[test]
    fn equal_storage_overhead() {
        let d = StoreScheme::TwoD.accounted_overhead();
        let s = StoreScheme::SecdedPerLine.accounted_overhead();
        assert!(
            (d - s).abs() < 1e-12,
            "overheads must match exactly: 2d={d}, secded={s}"
        );
    }

    #[test]
    fn single_bit_is_corrected_everywhere() {
        for kind in [StoreScheme::TwoD, StoreScheme::SecdedPerLine] {
            let mut store = ProtectedStore::new(kind);
            store.begin_event();
            let flips = inject_scenario(&mut store, 0, 0, 0);
            assert_eq!(flips, 1);
            store.resolve_bank(0);
            let ev = store.take_evidence();
            assert_eq!(
                classify(kind, flips, &ev),
                Some(FaultOutcome::Ce),
                "{kind:?} must correct a single bit: {ev:?}"
            );
        }
    }

    #[test]
    fn stripe_collision_is_due_not_silent_under_2d() {
        let mut store = ProtectedStore::new(StoreScheme::TwoD);
        store.begin_event();
        let flips = inject_scenario(&mut store, 5, 0, 0);
        assert_eq!(flips, 2);
        store.resolve_bank(0);
        let ev = store.take_evidence();
        assert_eq!(
            classify(StoreScheme::TwoD, flips, &ev),
            Some(FaultOutcome::Due),
            "colliding stripe hits must be detected-uncorrectable: {ev:?}"
        );
    }

    #[test]
    fn rebuild_clears_damage() {
        let mut store = ProtectedStore::new(StoreScheme::TwoD);
        store.begin_event();
        for line in 0..32u64 {
            store.writeback(line);
        }
        inject_scenario(&mut store, 5, 0, 0);
        store.resolve_bank(0);
        store.rebuild_bank(0);
        store.begin_event();
        for line in 0..32u64 {
            store.fill_read(line);
        }
        store.resolve_bank(0);
        let ev = store.take_evidence();
        assert_eq!(ev, EventEvidence::default(), "rebuild must restore health");
    }

    #[test]
    fn in_place_rebuild_equals_fresh_bank() {
        let mut store = ProtectedStore::new(StoreScheme::TwoD);
        for line in (0..4_000u64).step_by(7) {
            store.writeback(line);
        }
        // Damage bank 0 past repair, with a stuck-at cell and a recovery
        // behind it, so the reset has buffers, overlay and stats to undo.
        inject_scenario(&mut store, 5, 0, 0);
        inject_scenario(&mut store, 3, 0, 0);
        store.resolve_bank(0);
        store.inject_hard(0, ErrorShape::Single { row: 9, col: 9 }, true);
        assert!(store.banks[0].stats().recoveries > 0);
        assert!(!store.banks[0].fault_map().is_empty());
        store.rebuild_bank(0);
        let mut fresh = TwoDArray::from_scheme(Arc::clone(&store.scheme));
        for (&key, value) in &store.model[0] {
            let key = key as usize;
            fresh.write_word(key / store.words_per_row, key % store.words_per_row, value);
        }
        let rebuilt = &store.banks[0];
        assert!(rebuilt.grid() == fresh.grid(), "grids differ");
        assert_eq!(rebuilt.vertical(), fresh.vertical());
        assert!(rebuilt.fault_map().is_empty());
        assert_eq!(rebuilt.stats(), fresh.stats());
        assert_eq!(rebuilt.scrub_cursor(), fresh.scrub_cursor());
    }

    #[test]
    fn reliability_rollup_is_closed_form() {
        let o = run_sim_campaign(SimCampaignConfig::quick(7));
        let r = o.reliability;
        let ym = YieldModel::l2_16mb();
        let rows = [
            (r.due_retirements_2d, r.due_retirements_p95_2d, r.yield_2d),
            (
                r.due_retirements_secded,
                r.due_retirements_p95_secded,
                r.yield_secded,
            ),
        ];
        for (scheme, (mean, p95, yld)) in o.schemes.iter().zip(rows) {
            let t = scheme.totals;
            assert!(t.due > 0, "{:?} saw no DUE", scheme.scheme);
            assert_eq!(mean, 64.0 * t.due as f64 / t.total() as f64);
            assert_eq!(p95, poisson::quantile(0.95, mean));
            assert!(p95 as f64 > mean);
            assert_eq!(yld, ym.yield_after_retirement(40, 64, mean.ceil() as u64));
        }
    }

    #[test]
    fn quick_campaign_is_healthy_and_deterministic() {
        let a = run_sim_campaign(SimCampaignConfig::quick(7));
        let b = run_sim_campaign(SimCampaignConfig::quick(7));
        assert!(a.healthy(), "quick campaign unhealthy:\n{}", a.to_json());
        assert_eq!(
            a.to_json(),
            b.to_json(),
            "equal seeds must be byte-identical"
        );
    }
}
