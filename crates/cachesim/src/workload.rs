//! Statistical workload models for the paper's six workloads.
//!
//! The paper drives its FLEXUS full-system simulations with commercial
//! (OLTP on DB2, DSS on DB2, SPECweb on Apache) and scientific (Moldyn,
//! Ocean, Sparse) workloads. We cannot rerun those binaries, so each
//! workload is modelled by the memory-access statistics it presents to
//! the cache hierarchy — instruction mix, miss ratios, and writeback
//! behaviour — with values calibrated so the simulated access mixes match
//! the per-100-cycle breakdowns of the paper's Figure 6.

use rand::Rng;

/// A seeded Zipf(θ) rank sampler over `n` items.
///
/// Item `i` (0-based, rank 0 most popular) is drawn with probability
/// `(i+1)^-θ / H_{n,θ}`. Cache traffic from large user populations is
/// classically Zipf-distributed, which makes this the reference
/// popularity model for the service-layer throughput driver: a small set
/// of hot lines absorbs most accesses while the tail keeps every bank
/// busy.
///
/// The CDF is precomputed at construction; sampling is one uniform draw
/// plus a binary search (`O(log n)`), allocation-free, and `&self` — one
/// sampler can be shared by many worker threads, each with its own RNG.
///
/// # Examples
///
/// ```
/// use cachesim::ZipfSampler;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let zipf = ZipfSampler::new(1000, 1.0);
/// let mut rng = StdRng::seed_from_u64(7);
/// let rank = zipf.sample(&mut rng);
/// assert!(rank < 1000);
/// ```
#[derive(Clone, Debug)]
pub struct ZipfSampler {
    /// `cdf[i]` = P(rank <= i); `cdf[n-1]` = 1.0.
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// Builds the sampler for `n` items with exponent `theta`.
    /// `theta = 0` degenerates to the uniform distribution; `theta = 1`
    /// is the classic Zipf law.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `theta` is negative or non-finite.
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one item");
        assert!(
            theta >= 0.0 && theta.is_finite(),
            "Zipf exponent must be finite and non-negative"
        );
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for i in 0..n {
            acc += ((i + 1) as f64).powf(-theta);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        ZipfSampler { cdf }
    }

    /// Number of items.
    pub fn n(&self) -> usize {
        self.cdf.len()
    }

    /// Probability of drawing rank `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn probability(&self, i: usize) -> f64 {
        if i == 0 {
            self.cdf[0]
        } else {
            self.cdf[i] - self.cdf[i - 1]
        }
    }

    /// Expected rank `E[i]` of one draw (a distribution moment tests pin
    /// against closed-form harmonic sums).
    pub fn mean_rank(&self) -> f64 {
        (0..self.n()).map(|i| i as f64 * self.probability(i)).sum()
    }

    /// Draws one rank in `0..n`.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        // partition_point returns the first index with cdf[i] >= u;
        // cdf is normalized so the search cannot run off the end for
        // u < 1.0, and u == 1.0 is excluded by gen()'s [0, 1) range.
        self.cdf.partition_point(|&c| c < u).min(self.n() - 1)
    }
}

/// Per-instruction memory behaviour of one workload.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WorkloadProfile {
    /// Display name.
    pub name: &'static str,
    /// Loads per instruction.
    pub load_per_instr: f64,
    /// Stores per instruction.
    pub store_per_instr: f64,
    /// Instruction-fetch L1I accesses per instruction (fetch groups).
    pub ifetch_per_instr: f64,
    /// L1D load miss ratio.
    pub l1d_miss: f64,
    /// L1I miss ratio.
    pub l1i_miss: f64,
    /// Fraction of L1 misses that also miss in L2.
    pub l2_miss: f64,
    /// Fraction of L1 fills that evict a dirty line (writeback to L2).
    pub dirty_evict: f64,
    /// Fraction of L1D misses satisfied by a dirty line in a peer L1
    /// (L1-to-L1 transfer of dirty data — coherence traffic).
    pub l1_to_l1: f64,
    /// Non-memory CPI component (branches, dependencies, FUs).
    pub base_cpi: f64,
}

impl WorkloadProfile {
    /// TPC-C-like online transaction processing on DB2: large instruction
    /// footprint, frequent dirty sharing, poor locality.
    pub fn oltp() -> Self {
        WorkloadProfile {
            name: "OLTP",
            load_per_instr: 0.25,
            store_per_instr: 0.14,
            ifetch_per_instr: 0.30,
            l1d_miss: 0.045,
            l1i_miss: 0.030,
            l2_miss: 0.25,
            dirty_evict: 0.45,
            l1_to_l1: 0.12,
            base_cpi: 0.9,
        }
    }

    /// TPC-H-like decision support on DB2: scan/join dominated, streaming
    /// reads, few writes.
    pub fn dss() -> Self {
        WorkloadProfile {
            name: "DSS",
            load_per_instr: 0.28,
            store_per_instr: 0.08,
            ifetch_per_instr: 0.28,
            l1d_miss: 0.035,
            l1i_miss: 0.012,
            l2_miss: 0.45,
            dirty_evict: 0.20,
            l1_to_l1: 0.04,
            base_cpi: 0.8,
        }
    }

    /// SPECweb99 on Apache: big instruction working set, kernel-heavy,
    /// moderate writes.
    pub fn web() -> Self {
        WorkloadProfile {
            name: "Web",
            load_per_instr: 0.24,
            store_per_instr: 0.12,
            ifetch_per_instr: 0.32,
            l1d_miss: 0.040,
            l1i_miss: 0.035,
            l2_miss: 0.30,
            dirty_evict: 0.40,
            l1_to_l1: 0.08,
            base_cpi: 0.95,
        }
    }

    /// Moldyn: molecular dynamics, cache-friendly with bursts of
    /// neighbour-list updates.
    pub fn moldyn() -> Self {
        WorkloadProfile {
            name: "Moldyn",
            load_per_instr: 0.30,
            store_per_instr: 0.16,
            ifetch_per_instr: 0.25,
            l1d_miss: 0.018,
            l1i_miss: 0.001,
            l2_miss: 0.30,
            dirty_evict: 0.55,
            l1_to_l1: 0.02,
            base_cpi: 0.7,
        }
    }

    /// Ocean (SPLASH-2-style grid solver): streaming stencil sweeps,
    /// large-footprint, many dirty evictions.
    pub fn ocean() -> Self {
        WorkloadProfile {
            name: "Ocean",
            load_per_instr: 0.32,
            store_per_instr: 0.17,
            ifetch_per_instr: 0.25,
            l1d_miss: 0.060,
            l1i_miss: 0.001,
            l2_miss: 0.50,
            dirty_evict: 0.60,
            l1_to_l1: 0.03,
            base_cpi: 0.75,
        }
    }

    /// Sparse matrix solve: irregular gathers, read-dominated.
    pub fn sparse() -> Self {
        WorkloadProfile {
            name: "Sparse",
            load_per_instr: 0.35,
            store_per_instr: 0.09,
            ifetch_per_instr: 0.25,
            l1d_miss: 0.055,
            l1i_miss: 0.001,
            l2_miss: 0.55,
            dirty_evict: 0.25,
            l1_to_l1: 0.02,
            base_cpi: 0.75,
        }
    }

    /// The six workloads in the paper's figure order.
    pub fn paper_set() -> [WorkloadProfile; 6] {
        [
            Self::oltp(),
            Self::dss(),
            Self::web(),
            Self::moldyn(),
            Self::ocean(),
            Self::sparse(),
        ]
    }

    /// The commercial subset (OLTP, DSS, Web).
    pub fn commercial_set() -> [WorkloadProfile; 3] {
        [Self::oltp(), Self::dss(), Self::web()]
    }

    /// The scientific subset (Moldyn, Ocean, Sparse).
    pub fn scientific_set() -> [WorkloadProfile; 3] {
        [Self::moldyn(), Self::ocean(), Self::sparse()]
    }

    /// Memory references per instruction (loads + stores).
    pub fn mem_per_instr(&self) -> f64 {
        self.load_per_instr + self.store_per_instr
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn zipf_probabilities_match_harmonic_closed_form() {
        // For θ=1 over n=100 items, p(rank 0) = 1/H_100 with
        // H_100 = 5.187377517639621 (closed form, computed externally).
        let zipf = ZipfSampler::new(100, 1.0);
        let h100 = 5.187_377_517_639_621;
        assert!((zipf.probability(0) - 1.0 / h100).abs() < 1e-12);
        assert!((zipf.probability(9) - 0.1 / h100).abs() < 1e-12);
        // Mean rank for θ=1 is (n - H_n)/H_n.
        assert!((zipf.mean_rank() - (100.0 - h100) / h100).abs() < 1e-9);
        // θ=0 degenerates to uniform.
        let uniform = ZipfSampler::new(10, 0.0);
        for i in 0..10 {
            assert!((uniform.probability(i) - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn zipf_empirical_moments_match_analytic() {
        let zipf = ZipfSampler::new(100, 1.0);
        let mut rng = StdRng::seed_from_u64(42);
        let draws = 200_000;
        let mut counts = vec![0u64; 100];
        let mut sum = 0.0f64;
        for _ in 0..draws {
            let r = zipf.sample(&mut rng);
            counts[r] += 1;
            sum += r as f64;
        }
        // First moment within 2% of the analytic mean rank (~18.28).
        let empirical_mean = sum / draws as f64;
        let analytic = zipf.mean_rank();
        assert!(
            (empirical_mean - analytic).abs() / analytic < 0.02,
            "mean rank {empirical_mean} vs analytic {analytic}"
        );
        // Head mass: empirical P(rank 0) within ±0.005 of 1/H_100.
        let p0 = counts[0] as f64 / draws as f64;
        assert!(
            (p0 - zipf.probability(0)).abs() < 0.005,
            "p0 {p0} vs {}",
            zipf.probability(0)
        );
        // Popularity is monotone over the first ranks.
        assert!(counts[0] > counts[1] && counts[1] > counts[3]);
    }

    #[test]
    fn zipf_seeded_streams_are_deterministic() {
        let zipf = ZipfSampler::new(64, 0.8);
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        for _ in 0..1000 {
            assert_eq!(zipf.sample(&mut a), zipf.sample(&mut b));
        }
    }

    #[test]
    fn profiles_are_probabilistically_sane() {
        for p in WorkloadProfile::paper_set() {
            assert!(
                p.load_per_instr > 0.0 && p.load_per_instr < 1.0,
                "{}",
                p.name
            );
            assert!(p.store_per_instr > 0.0 && p.store_per_instr < 1.0);
            assert!(p.l1d_miss > 0.0 && p.l1d_miss < 0.5);
            assert!(p.l1i_miss >= 0.0 && p.l1i_miss < 0.5);
            assert!(p.l2_miss > 0.0 && p.l2_miss <= 1.0);
            assert!(p.dirty_evict >= 0.0 && p.dirty_evict <= 1.0);
            assert!(p.l1_to_l1 >= 0.0 && p.l1_to_l1 <= 0.5);
            assert!(p.base_cpi > 0.0);
        }
    }

    #[test]
    fn commercial_have_instruction_pressure() {
        // The commercial workloads are distinguished by significant L1I
        // miss ratios; scientific kernels fit in the I-cache.
        for c in WorkloadProfile::commercial_set() {
            assert!(c.l1i_miss >= 0.01, "{}", c.name);
        }
        for s in WorkloadProfile::scientific_set() {
            assert!(s.l1i_miss < 0.01, "{}", s.name);
        }
    }

    #[test]
    fn set_order_matches_figures() {
        let names: Vec<&str> = WorkloadProfile::paper_set()
            .iter()
            .map(|p| p.name)
            .collect();
        assert_eq!(
            names,
            vec!["OLTP", "DSS", "Web", "Moldyn", "Ocean", "Sparse"]
        );
    }
}
