//! Seeded inputs: the request stream of the key-value workloads and the
//! clustered-fault stream of `fault_storm`. The same
//! seed always gives the same streams; the server only ever sees the
//! requests these generate.

use cachesim::net::Request;
use cachesim::ZipfSampler;
use memarray::ErrorShape;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Requests per pipelined batch.
pub const DEPTH: usize = 16;
/// Key universe: half the cache's 2,048 lines, so every key stays
/// resident.
pub const KEYS: usize = 1024;
/// Zipf exponent of key popularity.
const ZIPF_THETA: f64 = 1.1;
/// Share of requests that are `SET`s of a random value.
const WRITE_FRAC: f64 = 0.05;

/// The value a key holds after the prefill.
pub fn prefill_value(seed: u64, key: u64) -> u64 {
    // SplitMix64 finalizer: a fixed, well-mixed function of (seed, key).
    let mut z = seed ^ key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The request stream of the key-value workloads: keys `0..KEYS`, 95%
/// `GET` / 5% `SET`, Zipf-popular.
#[derive(Debug)]
pub struct RequestStream {
    seed: u64,
    rng: StdRng,
    sampler: ZipfSampler,
}

impl RequestStream {
    pub fn new(seed: u64) -> Self {
        RequestStream {
            seed,
            rng: StdRng::seed_from_u64(seed ^ 0xC0FF_EE00),
            sampler: ZipfSampler::new(KEYS, ZIPF_THETA),
        }
    }

    /// Every key with its prefill value.
    pub fn prefill(&self) -> Vec<(u64, u64)> {
        (0..KEYS as u64)
            .map(|key| (key, prefill_value(self.seed, key)))
            .collect()
    }

    /// Replaces `out` with the next [`DEPTH`] requests.
    pub fn next_batch(&mut self, out: &mut Vec<Request>) {
        out.clear();
        for _ in 0..DEPTH {
            let key = self.sampler.sample(&mut self.rng) as u64;
            if self.rng.gen_bool(WRITE_FRAC) {
                out.push(Request::Set {
                    key,
                    value: self.rng.gen(),
                });
            } else {
                out.push(Request::Get { key });
            }
        }
    }
}

/// One injected clustered fault: one or two rectangles in one bank whose
/// union is the named shape.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fault {
    pub bank: usize,
    pub kind: &'static str,
    pub shapes: Vec<ErrorShape>,
}

/// Seeded stream of clustered faults, every one inside the scheme's
/// `coverage()` box: rectangles, L-shapes and row strips (the burst
/// shapes of Etzion & Yaakobi, *Error-Correction of Multidimensional
/// Bursts*).
#[derive(Debug)]
pub struct FaultStream {
    rng: StdRng,
    banks: usize,
    rows: usize,
    cols: usize,
    cover: (usize, usize),
}

impl FaultStream {
    /// Faults for `banks` banks of `rows x cols` cells, each within
    /// `cover = (rows, cols)`.
    pub fn new(seed: u64, banks: usize, rows: usize, cols: usize, cover: (usize, usize)) -> Self {
        FaultStream {
            rng: StdRng::seed_from_u64(seed ^ 0xFA17_5707),
            banks,
            rows,
            cols,
            cover: (cover.0.min(rows), cover.1.min(cols)),
        }
    }

    pub fn next_fault(&mut self) -> Fault {
        let (ch, cw) = self.cover;
        let bank = self.rng.gen_range(0..self.banks);
        let (kind, h, w) = match self.rng.gen_range(0..3) {
            0 => (
                "rect",
                self.rng.gen_range(1..=ch),
                self.rng.gen_range(1..=cw),
            ),
            1 => (
                "l_shape",
                self.rng.gen_range(2..=ch.max(2)),
                self.rng.gen_range(2..=cw.max(2)),
            ),
            _ => ("row_strip", self.rng.gen_range(1..=2.min(ch)), cw),
        };
        let row = self.rng.gen_range(0..=self.rows - h);
        let col = self.rng.gen_range(0..=self.cols - w);
        let shapes = if kind == "l_shape" {
            // A vertical bar down the left edge and a horizontal bar
            // along the bottom edge of the h x w box.
            let bar: usize = self.rng.gen_range(1..=2);
            vec![
                ErrorShape::Cluster {
                    row,
                    col,
                    height: h,
                    width: bar.min(w),
                },
                ErrorShape::Cluster {
                    row: row + h - bar.min(h),
                    col,
                    height: bar.min(h),
                    width: w,
                },
            ]
        } else {
            vec![ErrorShape::Cluster {
                row,
                col,
                height: h,
                width: w,
            }]
        };
        Fault { bank, kind, shapes }
    }
}

/// Whether every cell of `fault` lies in a `rows x cols` array and the
/// union's bounding box fits `cover`.
pub fn fits(fault: &Fault, rows: usize, cols: usize, cover: (usize, usize)) -> bool {
    let mut cells = Vec::new();
    for shape in &fault.shapes {
        let inside = match *shape {
            ErrorShape::Cluster {
                row,
                col,
                height,
                width,
            } => row + height <= rows && col + width <= cols && height > 0 && width > 0,
            _ => false,
        };
        if !inside {
            return false;
        }
        cells.extend(shape.cells(rows, cols));
    }
    let (Some(r0), Some(r1)) = (
        cells.iter().map(|c| c.0).min(),
        cells.iter().map(|c| c.0).max(),
    ) else {
        return false;
    };
    let c0 = cells.iter().map(|c| c.1).min().unwrap_or(0);
    let c1 = cells.iter().map(|c| c.1).max().unwrap_or(0);
    r1 - r0 < cover.0 && c1 - c0 < cover.1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batches(seed: u64, n: usize) -> Vec<Request> {
        let mut s = RequestStream::new(seed);
        let mut all = Vec::new();
        let mut b = Vec::new();
        for _ in 0..n {
            s.next_batch(&mut b);
            all.extend_from_slice(&b);
        }
        all
    }

    #[test]
    fn request_streams_repeat_for_a_seed() {
        assert_eq!(batches(7, 200), batches(7, 200));
        assert_ne!(batches(7, 200), batches(8, 200));
    }

    #[test]
    fn requests_stay_inside_the_prefilled_keys() {
        let all = batches(3, 200);
        assert!(all.iter().any(|r| matches!(r, Request::Set { .. })));
        for req in all {
            let key = match req {
                Request::Get { key } | Request::Set { key, .. } => key,
                other => panic!("unexpected {other:?}"),
            };
            assert!(key < KEYS as u64);
        }
    }

    #[test]
    fn fault_streams_repeat_and_fit_coverage() {
        let (rows, cols) = (256, 288);
        let cover = twod_cache::TwoDScheme::l1_paper().coverage();
        let mut a = FaultStream::new(11, 8, rows, cols, cover);
        let mut b = FaultStream::new(11, 8, rows, cols, cover);
        let mut kinds = std::collections::BTreeSet::new();
        for _ in 0..2000 {
            let f = a.next_fault();
            assert_eq!(f, b.next_fault());
            assert!(fits(&f, rows, cols, cover), "{f:?} escapes {cover:?}");
            assert!(f.bank < 8);
            kinds.insert(f.kind);
        }
        assert_eq!(kinds.len(), 3, "every shape kind appears");
    }

    #[test]
    fn fits_rejects_oversized_unions() {
        let f = Fault {
            bank: 0,
            kind: "rect",
            shapes: vec![ErrorShape::Cluster {
                row: 0,
                col: 0,
                height: 33,
                width: 4,
            }],
        };
        assert!(!fits(&f, 256, 288, (32, 32)));
        let row = Fault {
            bank: 0,
            kind: "row",
            shapes: vec![ErrorShape::Row { row: 3 }],
        };
        assert!(!fits(&row, 256, 288, (32, 32)));
    }
}
