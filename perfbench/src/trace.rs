//! In-memory span recorder for the traced run, plus the percentile rule
//! every reported timing follows.
//!
//! Spans are recorded only from the benchmark's own code, around calls
//! into a layer's public functions, by the one [`Tracer`] of a run, and
//! written out as one CSV file when the run ends. Per-name totals are
//! kept beside the span list, so the per-layer metrics stay exact even
//! when the span list hits its cap.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Most spans a run keeps for the trace file.
const SPAN_CAP: usize = 100_000;

/// One timed call: `parent` is the id of the span that caused it (0 for
/// a root), times are nanoseconds since the run's epoch.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Span recorder. Disabled tracers record nothing and cost a
/// branch per call.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    next_id: u64,
    spans: Vec<Span>,
    dropped: u64,
    totals: Vec<(&'static str, u64, u64)>,
}

impl Tracer {
    /// A tracer timing spans from `epoch`.
    pub fn new(epoch: Instant, enabled: bool) -> Self {
        Tracer {
            epoch,
            enabled,
            next_id: 0,
            spans: Vec::new(),
            dropped: 0,
            totals: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Reserves the id of a span whose children are recorded before it
    /// ends (0 while disabled).
    pub fn open(&mut self) -> u64 {
        if !self.enabled {
            return 0;
        }
        self.next_id += 1;
        self.next_id
    }

    /// Records a span with a fresh id and returns that id.
    pub fn record(&mut self, name: &'static str, parent: u64, start: Instant, end: Instant) -> u64 {
        let id = self.open();
        self.close(id, name, parent, start, end);
        id
    }

    /// Records the span of an id reserved with [`Tracer::open`].
    pub fn close(
        &mut self,
        id: u64,
        name: &'static str,
        parent: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        let start_ns = start.saturating_duration_since(self.epoch).as_nanos() as u64;
        let end_ns = end.saturating_duration_since(self.epoch).as_nanos() as u64;
        let dur = end_ns.saturating_sub(start_ns);
        match self.totals.iter_mut().find(|t| t.0 == name) {
            Some(t) => {
                t.1 += 1;
                t.2 += dur;
            }
            None => self.totals.push((name, 1, dur)),
        }
        if self.spans.len() < SPAN_CAP {
            self.spans.push(Span {
                id,
                parent,
                name,
                start_ns,
                end_ns,
            });
        } else {
            self.dropped += 1;
        }
    }

    /// `(count, total ns)` of the spans recorded under `name`.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.totals
            .iter()
            .find(|t| t.0 == name)
            .map_or((0, 0), |t| (t.1, t.2))
    }

    /// Mean duration in nanoseconds of the spans named `name` (0 if none).
    pub fn mean_ns(&self, name: &str) -> f64 {
        let (n, ns) = self.total(name);
        if n == 0 {
            0.0
        } else {
            ns as f64 / n as f64
        }
    }

    /// Writes every kept span as CSV, ordered by start time.
    pub fn write_csv(&mut self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        self.spans.sort_by_key(|s| (s.start_ns, s.id));
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id,parent,name,start_ns,end_ns")?;
        for s in &self.spans {
            writeln!(
                w,
                "{},{},{},{},{}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        writeln!(w, "# dropped,{}", self.dropped)?;
        w.flush()
    }
}

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `q`-quantile of `sorted`, or an error naming how many
/// samples it would need when fewer than [`MIN_BEYOND`] lie beyond it.
pub fn percentile(sorted: &[u64], q: f64) -> Result<u64, String> {
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        let need = (MIN_BEYOND as f64 / (1.0 - q)).ceil() as usize + 1;
        return Err(format!(
            "p{} from {n} samples has {beyond} beyond it (needs about {need} samples)",
            q * 100.0
        ));
    }
    Ok(sorted[rank - 1])
}

/// Adds `n` to the count of second `sec`.
pub fn count_in(per_sec: &mut Vec<u64>, sec: usize, n: u64) {
    if per_sec.len() <= sec {
        per_sec.resize(sec + 1, 0);
    }
    per_sec[sec] += n;
}

/// Mean per-second rate over the whole seconds `0..seconds` of a
/// window that `keep` selects. The host's speed drifts between levels
/// for seconds at a time; a mean moves in proportion to the time spent
/// at each level, where a median of slices jumps between them.
pub fn mean_rate(per_sec: &[u64], seconds: u64, keep: impl Fn(u64) -> bool) -> f64 {
    let kept: Vec<u64> = (0..seconds)
        .filter(|&s| keep(s))
        .map(|s| per_sec.get(s as usize).copied().unwrap_or(0))
        .collect();
    if kept.is_empty() {
        0.0
    } else {
        kept.iter().sum::<u64>() as f64 / kept.len() as f64
    }
}

/// Median of a small set of measurements (set-up repeats, slices).
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 0.5), Ok(500));
        assert_eq!(percentile(&v, 0.99), Ok(990));
        assert!(percentile(&v, 0.995).is_err());
        let short: Vec<u64> = (1..=1009).collect();
        assert_eq!(percentile(&short, 0.99), Ok(999));
        assert!(percentile(&short[..1000], 0.991).is_err());
        assert!(percentile(&[], 0.5).is_err());
    }

    #[test]
    fn totals_survive_the_span_cap() {
        let mut a = Tracer::new(Instant::now(), true);
        for _ in 0..SPAN_CAP + 5 {
            let t = Instant::now();
            a.record("x", 0, t, t);
        }
        assert_eq!(a.total("x").0, SPAN_CAP as u64 + 5);
        assert_eq!(a.dropped, 5);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(Instant::now(), false);
        let now = Instant::now();
        assert_eq!(t.record("x", 0, now, now), 0);
        assert_eq!(t.total("x"), (0, 0));
    }
}
