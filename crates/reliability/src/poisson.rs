//! Minimal numerically-stable Poisson utilities for the yield models.

/// Natural log of `n!` (Stirling's series above a small exact table).
pub fn ln_factorial(n: u64) -> f64 {
    const TABLE: [f64; 21] = [
        0.0,
        0.0,
        std::f64::consts::LN_2, // ln 2!
        1.791_759_469_228_055,
        3.178_053_830_347_946,
        4.787_491_742_782_046,
        6.579_251_212_010_101,
        8.525_161_361_065_415,
        10.604_602_902_745_25,
        12.801_827_480_081_469,
        15.104_412_573_075_516,
        17.502_307_845_873_887,
        19.987_214_495_661_885,
        22.552_163_853_123_42,
        25.191_221_182_738_68,
        27.899_271_383_840_894,
        30.671_860_106_080_675,
        33.505_073_450_136_89,
        36.395_445_208_033_05,
        39.339_884_187_199_495,
        42.335_616_460_753_485,
    ];
    if n <= 20 {
        return TABLE[n as usize];
    }
    let x = n as f64;
    // Stirling's approximation with the 1/(12n) correction term.
    x * x.ln() - x + 0.5 * (2.0 * std::f64::consts::PI * x).ln() + 1.0 / (12.0 * x)
}

/// log of the Poisson pmf at `k` with mean `mu`.
pub fn ln_pmf(k: u64, mu: f64) -> f64 {
    if mu <= 0.0 {
        return if k == 0 { 0.0 } else { f64::NEG_INFINITY };
    }
    -mu + k as f64 * mu.ln() - ln_factorial(k)
}

/// Poisson CDF `P(X <= k)` for mean `mu`, computed with a log-sum-exp
/// accumulation so extreme tails neither overflow nor underflow to NaN.
pub fn cdf(k: u64, mu: f64) -> f64 {
    if mu <= 0.0 {
        return 1.0;
    }
    // Accumulate pmf terms in linear space relative to the largest term.
    let mode = (mu.floor() as u64).min(k);
    let ln_max = ln_pmf(mode, mu);
    if ln_max == f64::NEG_INFINITY {
        return 0.0;
    }
    let mut sum = 0.0f64;
    for i in 0..=k {
        sum += (ln_pmf(i, mu) - ln_max).exp();
    }
    let ln_cdf = ln_max + sum.ln();
    ln_cdf.exp().clamp(0.0, 1.0)
}

/// The `level` quantile of a Poisson count with mean `mu`: the smallest
/// `k` with `cdf(k, mu) >= level`, i.e. the exact one-sided upper bound
/// at confidence `level`.
///
/// One pass over the `ln_pmf` terms, accumulated relative to the largest
/// term so far, so large means neither underflow nor overflow. Should
/// rounding keep the running sum just short of a `level` near 1, the
/// walk stops at the first `k` past the mean whose term no longer moves
/// the sum.
pub fn quantile(level: f64, mu: f64) -> u64 {
    if mu <= 0.0 {
        return 0;
    }
    let mut ln_ref = ln_pmf(0, mu);
    let mut sum = 1.0f64;
    let mut k = 0u64;
    loop {
        if (ln_ref + sum.ln()).exp() >= level {
            return k;
        }
        k += 1;
        let ln_term = ln_pmf(k, mu);
        if ln_term > ln_ref {
            sum = sum * (ln_ref - ln_term).exp() + 1.0;
            ln_ref = ln_term;
        } else {
            let before = sum;
            sum += (ln_term - ln_ref).exp();
            if sum == before && k as f64 > mu {
                return k;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factorial_matches_exact_values() {
        assert!((ln_factorial(5) - (120.0f64).ln()).abs() < 1e-12);
        assert!((ln_factorial(20) - 42.335_616_460_753_485).abs() < 1e-9);
        // Stirling region: 25! known value.
        let exact_25: f64 = 15511210043330985984000000.0f64;
        assert!((ln_factorial(25) - exact_25.ln()).abs() < 1e-6);
    }

    #[test]
    fn cdf_basics() {
        // P(X <= 0) = e^-mu.
        assert!((cdf(0, 2.0) - (-2.0f64).exp()).abs() < 1e-12);
        // Large k covers everything.
        assert!((cdf(100, 2.0) - 1.0).abs() < 1e-9);
        // Zero mean is certain.
        assert_eq!(cdf(0, 0.0), 1.0);
    }

    #[test]
    fn cdf_monotone_in_k() {
        let mu = 7.5;
        let mut last = 0.0;
        for k in 0..40 {
            let c = cdf(k, mu);
            assert!(c >= last - 1e-12, "k={k}");
            last = c;
        }
    }

    #[test]
    fn cdf_monotone_decreasing_in_mu() {
        let mut last = 1.0;
        for mu in [0.1, 1.0, 5.0, 20.0, 100.0] {
            let c = cdf(10, mu);
            assert!(c <= last + 1e-12, "mu={mu}");
            last = c;
        }
    }

    #[test]
    fn extreme_tail_does_not_nan() {
        let c = cdf(128, 4000.0);
        assert!(c.is_finite());
        assert!(c < 1e-100);
    }

    const MEANS: [f64; 6] = [0.0, 0.5, 64.0 / 7.0, 128.0 / 7.0, 64.0, 400.0];
    const LEVELS: [f64; 5] = [0.0, 0.05, 0.5, 0.95, 0.999];

    #[test]
    fn quantile_meets_its_definition() {
        for mu in MEANS {
            for level in LEVELS {
                let q = quantile(level, mu);
                assert!(
                    level <= cdf(q, mu),
                    "mu={mu} level={level}: cdf(q={q}) short"
                );
                if q > 0 {
                    assert!(
                        cdf(q - 1, mu) < level,
                        "mu={mu} level={level}: q={q} is not the smallest"
                    );
                }
            }
        }
        // The campaign's bounds: 64 events at DUE fractions 1/7 and 2/7.
        assert_eq!(quantile(0.95, 64.0 / 7.0), 14);
        assert_eq!(quantile(0.95, 128.0 / 7.0), 26);
    }

    #[test]
    fn quantile_is_monotone_in_mu() {
        for level in LEVELS {
            let mut last = 0;
            for step in 0..=400 {
                let q = quantile(level, step as f64 * 0.25);
                assert!(
                    q >= last,
                    "level={level} mu={}: {q} < {last}",
                    step as f64 * 0.25
                );
                last = q;
            }
        }
    }

    #[test]
    fn quantile_terminates_at_level_one() {
        for mu in MEANS {
            assert!(quantile(1.0, mu) as f64 >= mu);
        }
    }

    #[test]
    fn median_near_mean() {
        // For mu = 50, the median is ~50: CDF(49) < 0.5 <= CDF(50)-ish.
        assert!(cdf(40, 50.0) < 0.5);
        assert!(cdf(60, 50.0) > 0.5);
    }
}
