//! Monte Carlo cross-validation tying the analytic reliability claims to
//! the actual 2D engine: inject a hard fault plus a soft error into the
//! same word of a SECDED-protected bank and verify that 2D coding
//! recovers where plain SECDED cannot.

use ecc::{Bits, CodeKind};
use memarray::{ErrorShape, TwoDArray, TwoDConfig};
use rand::Rng;

/// Result of one combined hard+soft injection trial.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrialOutcome {
    /// All words read back their intended values.
    Survived,
    /// At least one word was lost (uncorrectable or wrong).
    Lost,
}

/// Runs `trials` experiments on a SECDED-horizontal 2D bank: each trial
/// plants one stuck-at cell, then flips a soft bit in the *same word*,
/// and checks whether every word still reads back correctly. Returns the
/// survival fraction (1.0 expected: the vertical code covers the combo).
pub fn survival_with_2d<R: Rng>(trials: usize, rng: &mut R) -> f64 {
    let config = TwoDConfig {
        rows: 64,
        horizontal: CodeKind::Secded,
        data_bits: 64,
        interleave: 2,
        vertical_rows: 16,
    };
    let mut survived = 0usize;
    for _ in 0..trials {
        if run_trial(config, rng) == TrialOutcome::Survived {
            survived += 1;
        }
    }
    survived as f64 / trials as f64
}

/// Same experiment decided by the horizontal SECDED alone (no recovery):
/// the combined double error is uncorrectable, so survival requires the
/// two errors to land in *different* words. With forced same-word
/// placement this returns 0.0 — the analytic model's premise.
pub fn survival_without_2d<R: Rng>(trials: usize, rng: &mut R) -> f64 {
    use ecc::{Code, Decoded, Secded};
    let code = Secded::new(64);
    let mut survived = 0usize;
    for _ in 0..trials {
        let data = Bits::from_u64(rng.gen(), 64);
        let check = code.encode(&data);
        let mut noisy = data.clone();
        // Hard fault + soft error in the same word, distinct positions.
        let hard = rng.gen_range(0..64);
        let mut soft = rng.gen_range(0..64);
        while soft == hard {
            soft = rng.gen_range(0..64);
        }
        noisy.flip(hard);
        noisy.flip(soft);
        match code.decode(&noisy, &check) {
            Decoded::Clean | Decoded::Corrected { .. } => {
                // A clean or "corrected" outcome on a double error would
                // be silent corruption; only exact recovery counts.
                if let Decoded::Corrected { data: fixed, .. } = code.decode(&noisy, &check) {
                    if fixed == data {
                        survived += 1;
                    }
                }
            }
            Decoded::Detected => {}
        }
    }
    survived as f64 / trials as f64
}

fn run_trial<R: Rng>(config: TwoDConfig, rng: &mut R) -> TrialOutcome {
    let mut bank = TwoDArray::new(config);
    let words = bank.words_per_row();
    let mut reference = vec![vec![Bits::zeros(config.data_bits); words]; bank.rows()];
    for r in 0..bank.rows() {
        for w in 0..words {
            let data = Bits::from_u64(rng.gen(), config.data_bits);
            bank.write_word(r, w, &data);
            reference[r][w] = data;
        }
    }
    // One stuck-at cell...
    let row = rng.gen_range(0..bank.rows());
    let word = rng.gen_range(0..words);
    let bit_a = rng.gen_range(0..config.data_bits);
    let col_a = bank.layout().data_col(word, bit_a);
    bank.inject_hard(ErrorShape::Single { row, col: col_a }, true);
    // ...plus a soft flip in the same word at a different bit.
    let mut bit_b = rng.gen_range(0..config.data_bits);
    while bit_b == bit_a {
        bit_b = rng.gen_range(0..config.data_bits);
    }
    let col_b = bank.layout().data_col(word, bit_b);
    bank.inject(ErrorShape::Single { row, col: col_b });
    // Read everything back.
    for r in 0..bank.rows() {
        for w in 0..words {
            match bank.read_word(r, w) {
                Ok(out) => {
                    if out.into_data() != reference[r][w] {
                        return TrialOutcome::Lost;
                    }
                }
                Err(_) => return TrialOutcome::Lost,
            }
        }
    }
    TrialOutcome::Survived
}

/// NE/CE/DUE/SDC rates measured by a fault campaign (e.g. the detailed
/// simulator's `run_sim_campaign`), ready for projection onto a field
/// population.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MeasuredRates {
    /// Total fault events injected.
    pub faults: u64,
    /// Events with no architecturally visible effect.
    pub ne: u64,
    /// Corrected events.
    pub ce: u64,
    /// Detected uncorrectable events (each retires a block in the
    /// field model).
    pub due: u64,
    /// Silent corruptions.
    pub sdc: u64,
}

impl MeasuredRates {
    /// Fraction of faults that end as DUE.
    pub fn due_fraction(&self) -> f64 {
        if self.faults == 0 {
            0.0
        } else {
            self.due as f64 / self.faults as f64
        }
    }

    /// Fraction of faults that end as SDC.
    pub fn sdc_fraction(&self) -> f64 {
        if self.faults == 0 {
            0.0
        } else {
            self.sdc as f64 / self.faults as f64
        }
    }

    /// Whether every fault landed in exactly one bucket.
    pub fn accounted(&self) -> bool {
        self.ne + self.ce + self.due + self.sdc == self.faults
    }
}

/// Samples `Poisson(lambda)` by chunked Knuth multiplication (chunking
/// keeps `exp(-lambda)` representable for large means).
fn poisson_sample<R: Rng>(lambda: f64, rng: &mut R) -> u64 {
    const CHUNK: f64 = 10.0;
    let chunk_limit = (-CHUNK).exp();
    let mut remaining = lambda;
    let mut total = 0u64;
    while remaining > 1e-12 {
        let (step, limit) = if remaining >= CHUNK {
            (CHUNK, chunk_limit)
        } else {
            (remaining, (-remaining).exp())
        };
        let mut k = 0u64;
        let mut p = 1.0f64;
        loop {
            k += 1;
            p *= rng.gen::<f64>();
            if p <= limit {
                break;
            }
        }
        total += k - 1;
        remaining -= step;
    }
    total
}

/// Projects measured DUE rates onto a field population: over a horizon
/// producing `expected_events` fault events (Poisson), each event
/// independently becomes a DUE block retirement with the measured
/// probability. Returns the mean retirements over `trials` Monte-Carlo
/// runs — the input to [`crate::YieldModel::yield_after_retirement`].
pub fn projected_retirements<R: Rng>(
    rates: &MeasuredRates,
    expected_events: f64,
    trials: usize,
    rng: &mut R,
) -> f64 {
    let p_due = rates.due_fraction();
    if trials == 0 || p_due <= 0.0 {
        return 0.0;
    }
    let mut total = 0u64;
    for _ in 0..trials {
        let events = poisson_sample(expected_events, rng);
        for _ in 0..events {
            if rng.gen_bool(p_due) {
                total += 1;
            }
        }
    }
    total as f64 / trials as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn twod_survives_hard_plus_soft_in_same_word() {
        let mut rng = StdRng::seed_from_u64(21);
        let survival = survival_with_2d(10, &mut rng);
        assert_eq!(survival, 1.0, "2D must correct hard+soft combinations");
    }

    #[test]
    fn plain_secded_loses_hard_plus_soft() {
        let mut rng = StdRng::seed_from_u64(22);
        let survival = survival_without_2d(200, &mut rng);
        assert_eq!(survival, 0.0, "SECDED alone cannot correct double errors");
    }

    #[test]
    fn poisson_sampler_tracks_mean() {
        let mut rng = StdRng::seed_from_u64(23);
        let n = 4_000;
        let mean: f64 = (0..n)
            .map(|_| poisson_sample(64.0, &mut rng) as f64)
            .sum::<f64>()
            / n as f64;
        assert!((mean - 64.0).abs() < 1.0, "sample mean {mean} far from 64");
    }

    #[test]
    fn retirements_scale_with_due_fraction() {
        let mut rng = StdRng::seed_from_u64(24);
        let half = MeasuredRates {
            faults: 10,
            ne: 0,
            ce: 5,
            due: 5,
            sdc: 0,
        };
        let none = MeasuredRates {
            faults: 10,
            ne: 5,
            ce: 5,
            due: 0,
            sdc: 0,
        };
        assert!(half.accounted() && none.accounted());
        let r_half = projected_retirements(&half, 100.0, 500, &mut rng);
        let r_none = projected_retirements(&none, 100.0, 500, &mut rng);
        assert!((r_half - 50.0).abs() < 5.0, "expected ~50, got {r_half}");
        assert_eq!(r_none, 0.0);
    }
}
