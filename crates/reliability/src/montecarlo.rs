//! Monte Carlo cross-validation tying the analytic reliability claims to
//! the actual 2D engine: inject a hard fault plus a soft error into the
//! same word of a SECDED-protected bank and verify that 2D coding
//! recovers where plain SECDED cannot.
//!
//! Only this cross-validation samples. Projecting a fault campaign's
//! measured DUE fraction onto a field population needs no sampling:
//! retirements are a Bernoulli thinning of a Poisson event count, so
//! they are exactly Poisson with mean `events * p_due`, and
//! [`crate::poisson`] gives its tail bounds.

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
}
