//! Manufacturing-yield model for caches with spare rows and/or ECC-based
//! hard-error correction — the analysis behind the paper's Figure 8(a).
//!
//! Following the Stapper-style assumption of hard faults distributed
//! uniformly at random over the array, the number of faults in one word
//! is approximately Poisson with mean `faults / words`. A word with one
//! fault is rescuable by in-line SECDED; a word with two or more faults
//! needs a spare. The cache yields if the number of words needing spares
//! does not exceed the spares provisioned.

use crate::poisson;
use rand::Rng;

/// Repair provisioning of a cache array.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RepairScheme {
    /// Only spare rows: every word with >= 1 faulty bit consumes a spare.
    SpareRows(u64),
    /// Only in-line SECDED: single-bit faulty words are fine, any word
    /// with a multi-bit fault kills the die.
    EccOnly,
    /// SECDED plus `n` spares: only multi-bit-faulty words need spares.
    EccPlusSpares(u64),
}

impl RepairScheme {
    /// Label used in the Figure 8(a) legend.
    pub fn label(&self) -> String {
        match self {
            RepairScheme::SpareRows(n) => format!("Spare_{n}"),
            RepairScheme::EccOnly => "ECC Only".to_string(),
            RepairScheme::EccPlusSpares(n) => format!("ECC + Spare_{n}"),
        }
    }
}

/// A cache array under the random-defect yield model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct YieldModel {
    /// Number of protected words.
    pub words: u64,
    /// Bits per codeword (data + check).
    pub word_bits: u64,
}

impl YieldModel {
    /// The paper's 16MB L2: 2^21 64-bit data words with SECDED (72,64).
    pub fn l2_16mb() -> Self {
        YieldModel {
            words: 16 * 1024 * 1024 * 8 / 64,
            word_bits: 72,
        }
    }

    /// Mean faults per word given `failing_cells` random faulty bits.
    pub fn lambda(&self, failing_cells: u64) -> f64 {
        failing_cells as f64 / self.words as f64
    }

    /// Probability one word holds at least one fault.
    pub fn p_word_faulty(&self, failing_cells: u64) -> f64 {
        let l = self.lambda(failing_cells);
        1.0 - (-l).exp()
    }

    /// Probability one word holds a multi-bit (>= 2) fault.
    pub fn p_word_multibit(&self, failing_cells: u64) -> f64 {
        let l = self.lambda(failing_cells);
        1.0 - (-l).exp() * (1.0 + l)
    }

    /// Yield under `scheme` with `failing_cells` random faulty bits: the
    /// probability that the words needing repair fit in the provisioned
    /// spares.
    pub fn yield_probability(&self, failing_cells: u64, scheme: RepairScheme) -> f64 {
        let (p_bad, spares) = match scheme {
            RepairScheme::SpareRows(n) => (self.p_word_faulty(failing_cells), n),
            RepairScheme::EccOnly => (self.p_word_multibit(failing_cells), 0),
            RepairScheme::EccPlusSpares(n) => (self.p_word_multibit(failing_cells), n),
        };
        // Words needing spares ~ Poisson(words * p_bad).
        let mu = self.words as f64 * p_bad;
        poisson::cdf(spares, mu)
    }

    /// Yield after in-field block retirement has consumed part of the
    /// spare budget: `retired_words` of the provisioned `spares` are
    /// already spent on DUE retirements (a fault campaign passes the
    /// ceiling of its expected count, `events * p_due`), leaving fewer
    /// for manufacturing defects.
    pub fn yield_after_retirement(
        &self,
        failing_cells: u64,
        spares: u64,
        retired_words: u64,
    ) -> f64 {
        let left = spares.saturating_sub(retired_words);
        self.yield_probability(failing_cells, RepairScheme::EccPlusSpares(left))
    }

    /// Failing-cell count at which the yield first drops below `target`
    /// (bisection over the monotone yield curve; granularity 1 cell).
    pub fn cells_at_yield(&self, target: f64, scheme: RepairScheme, max_cells: u64) -> u64 {
        let mut lo = 0u64;
        let mut hi = max_cells;
        if self.yield_probability(hi, scheme) >= target {
            return hi;
        }
        while lo + 1 < hi {
            let mid = lo + (hi - lo) / 2;
            if self.yield_probability(mid, scheme) >= target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        hi
    }

    /// Monte Carlo cross-check of the analytic yield: samples actual
    /// fault placements over the words and checks spare sufficiency.
    pub fn yield_monte_carlo<R: Rng>(
        &self,
        failing_cells: u64,
        scheme: RepairScheme,
        trials: usize,
        rng: &mut R,
    ) -> f64 {
        let mut survived = 0usize;
        for _ in 0..trials {
            let mut fault_counts = std::collections::HashMap::new();
            for _ in 0..failing_cells {
                let w = rng.gen_range(0..self.words);
                *fault_counts.entry(w).or_insert(0u32) += 1;
            }
            let ok = match scheme {
                RepairScheme::SpareRows(n) => fault_counts.len() as u64 <= n,
                RepairScheme::EccOnly => fault_counts.values().all(|&c| c < 2),
                RepairScheme::EccPlusSpares(n) => {
                    fault_counts.values().filter(|&&c| c >= 2).count() as u64 <= n
                }
            };
            if ok {
                survived += 1;
            }
        }
        survived as f64 / trials as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn figure8a_curve_ordering() {
        // At every defect count, ECC+Spare_32 >= ECC+Spare_16 >= ECC only,
        // and spare-only dies first.
        let m = YieldModel::l2_16mb();
        for cells in [200u64, 800, 1600, 2400, 3200, 4000] {
            let spare = m.yield_probability(cells, RepairScheme::SpareRows(128));
            let ecc = m.yield_probability(cells, RepairScheme::EccOnly);
            let ecc16 = m.yield_probability(cells, RepairScheme::EccPlusSpares(16));
            let ecc32 = m.yield_probability(cells, RepairScheme::EccPlusSpares(32));
            assert!(ecc32 >= ecc16 - 1e-12, "cells={cells}");
            assert!(ecc16 >= ecc - 1e-12, "cells={cells}");
            assert!(spare <= ecc32 + 1e-12, "cells={cells}");
        }
    }

    #[test]
    fn spare_only_dies_near_spare_count() {
        // With ~no fault collisions, every failing cell consumes a spare:
        // yield collapses once cells exceed the spare count.
        let m = YieldModel::l2_16mb();
        assert!(m.yield_probability(100, RepairScheme::SpareRows(128)) > 0.9);
        assert!(m.yield_probability(200, RepairScheme::SpareRows(128)) < 0.01);
    }

    #[test]
    fn ecc_only_degrades_midrange() {
        // E[multi-fault words] = F^2 / 2N: about 1 at F ~ 2000, so the
        // yield passes through ~40% there and keeps falling.
        let m = YieldModel::l2_16mb();
        let y2000 = m.yield_probability(2000, RepairScheme::EccOnly);
        assert!(y2000 > 0.2 && y2000 < 0.7, "yield at 2000 = {y2000}");
        let y4000 = m.yield_probability(4000, RepairScheme::EccOnly);
        assert!(y4000 < y2000);
    }

    #[test]
    fn ecc_plus_spares_stays_high_through_figure_range() {
        // The paper's headline: ECC + a small number of spares keeps
        // yield high across the whole 0..4000 defect range.
        let m = YieldModel::l2_16mb();
        assert!(m.yield_probability(4000, RepairScheme::EccPlusSpares(16)) > 0.9);
        assert!(m.yield_probability(4000, RepairScheme::EccPlusSpares(32)) > 0.99);
    }

    #[test]
    fn analytic_matches_monte_carlo_on_small_array() {
        let m = YieldModel {
            words: 4096,
            word_bits: 72,
        };
        let mut rng = StdRng::seed_from_u64(8);
        for scheme in [
            RepairScheme::SpareRows(64),
            RepairScheme::EccOnly,
            RepairScheme::EccPlusSpares(4),
        ] {
            let analytic = m.yield_probability(100, scheme);
            let mc = m.yield_monte_carlo(100, scheme, 400, &mut rng);
            assert!(
                (analytic - mc).abs() < 0.08,
                "{}: analytic {analytic} vs mc {mc}",
                scheme.label()
            );
        }
    }

    #[test]
    fn cells_at_yield_bisection() {
        let m = YieldModel::l2_16mb();
        let c = m.cells_at_yield(0.5, RepairScheme::EccOnly, 10_000);
        // Yield at c-1 above 50%, at c+1 below.
        assert!(m.yield_probability(c.saturating_sub(2), RepairScheme::EccOnly) >= 0.5);
        assert!(m.yield_probability(c + 2, RepairScheme::EccOnly) <= 0.5);
    }

    #[test]
    fn labels() {
        assert_eq!(RepairScheme::SpareRows(128).label(), "Spare_128");
        assert_eq!(RepairScheme::EccOnly.label(), "ECC Only");
        assert_eq!(RepairScheme::EccPlusSpares(16).label(), "ECC + Spare_16");
    }
}
