//! Metric names, units and the result line every run ends with.

use crate::trace::Tracer;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["get_hot", "fault_storm", "sim_campaign"];

/// End-to-end metrics `(name, unit)`, reported with tracing off.
pub const END_TO_END: [(&str, &str); 6] = [
    ("throughput_rps", "1/s"),
    ("batch_p50_us", "us"),
    ("batch_p99_us", "us"),
    ("ok_frac", "frac"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics `(name, unit)`, reported by the traced run. A layer
/// a workload does not run reports 0.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("net.server_us_per_batch", "us"),
    ("net.codec_ns_per_req", "ns"),
    ("net.transport_us_per_batch", "us"),
    ("net.reqs_per_server_batch", "count"),
    ("net.shed_frac", "frac"),
    ("net.retry_rounds_per_batch", "count"),
    ("cache.execute_ns_per_op", "ns"),
    ("cache.bank_hold_ns", "ns"),
    ("cache.locks_per_op", "count"),
    ("cache.optimistic_frac", "frac"),
    ("cache.hit_ratio", "frac"),
    ("cache.writebacks_per_op", "count"),
    ("scrub.busy_frac", "frac"),
    ("scrub.clean_scan_gbps", "GB/s"),
    ("scrub.repairs", "count"),
    ("engine.inline_corrections_per_op", "count"),
    ("engine.recoveries", "count"),
    ("engine.recovery_rows_scanned", "count"),
    ("engine.extra_reads_per_op", "count"),
    ("engine.silent_write_frac", "frac"),
    ("engine.recovery_us", "us"),
    ("sim.host_ns_per_cycle", "ns"),
    ("sim.store_host_frac", "frac"),
    ("sim.cycles_per_ref_2d", "cycles"),
    ("sim.cycles_per_ref_secded", "cycles"),
    ("sim.mshr_wait_cycles", "cycles"),
    ("sim.correction_stall_frac", "frac"),
    ("sim.ne_2d", "count"),
    ("sim.ce_2d", "count"),
    ("sim.due_2d", "count"),
    ("sim.sdc_2d", "count"),
    ("sim.ne_secded", "count"),
    ("sim.ce_secded", "count"),
    ("sim.due_secded", "count"),
    ("sim.sdc_secded", "count"),
    ("trace.overhead_frac", "frac"),
];

/// Measured metric values by name.
#[derive(Debug, Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    /// Sets a metric; the name must be one of [`END_TO_END`] or
    /// [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|m| m.0 == name),
            "unknown metric {name}"
        );
        match self.0.iter_mut().find(|m| m.0 == name) {
            Some(m) => m.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.0 == name).map(|m| m.1)
    }
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness checks; any makes the run incorrect.
    pub failures: Vec<String>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
    pub metrics: Values,
    /// Spans of the traced run, written when the run ends.
    pub tracer: Option<Tracer>,
}

impl Outcome {
    pub fn fail(&mut self, why: String) {
        self.failures.push(why);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.failed == 0 && self.attempted > 0
    }

    /// The result line: every metric of the selected table, by name and
    /// with its unit. A metric the workload did not set reports 0; a
    /// non-finite value fails the run.
    pub fn result_line(&mut self, trace: bool) -> String {
        let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let mut metrics = Vec::with_capacity(table.len());
        for &(name, unit) in table {
            let mut value = self.metrics.get(name).unwrap_or(0.0);
            if !value.is_finite() {
                self.failures.push(format!("{name} is {value}"));
                value = 0.0;
            }
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether a metric or workload name uses only `[A-Za-z0-9_.-]`, starts
    /// with a letter or digit and has at most 64 characters.
    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// The `"name"` strings of one top-level array of `BENCHMARK.json`.
    fn names_in(json: &str, key: &str) -> Vec<String> {
        let start = json
            .find(&format!("\"{key}\""))
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"));
        let body = &json[start..];
        let end = body.find(']').expect("array closes");
        body[..end]
            .split("\"name\"")
            .skip(1)
            .map(|s| {
                let s = &s[s.find('"').expect("name value") + 1..];
                s[..s.find('"').expect("name ends")].to_string()
            })
            .collect()
    }

    #[test]
    fn names_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        assert_eq!(names_in(json, "workloads"), WORKLOADS);
        let e2e: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        assert_eq!(names_in(json, "end_to_end"), e2e);
        let layers: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(names_in(json, "per_layer"), layers);
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(
                json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} has unit {unit} in BENCHMARK.json"
            );
        }
    }

    #[test]
    fn names_use_the_allowed_characters_once() {
        let all: Vec<&str> = WORKLOADS
            .iter()
            .copied()
            .chain(END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0))
            .collect();
        for name in &all {
            assert!(valid_name(name), "{name}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "names are unique");
        assert!(!valid_name("bad name"));
        assert!(!valid_name("_lead"));
    }

    #[test]
    fn result_line_reports_every_metric_of_the_table() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.metrics.set("throughput_rps", 1.25);
        let line = o.result_line(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        for (name, _) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\"")));
        }
        assert!(line.contains("\"throughput_rps\": {\"value\": 1.25, \"unit\": \"1/s\"}"));
        o.metrics.set("sim.ne_2d", f64::NAN);
        o.result_line(true);
        assert!(!o.correct(), "a NaN metric fails the run");
    }
}
