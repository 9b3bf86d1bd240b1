//! The benchmark's metric names and units, and the result line.
//!
//! `BENCHMARK.json` at the repository root lists the same names; a test
//! keeps the two in step.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, printed with tracing off: `(name, unit)`.
///
/// `failed_pct` is printed beside them but travels in the result line's
/// `attempted`/`failed` counts rather than as a metric, because a metric
/// must never read 0.
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput_mb_s", "MB/s"),
    ("pass_s_p50", "s"),
    ("throughput_mb_cpu_s", "MB/s"),
    ("pass_cpu_s_p50", "s"),
    ("job_virtual_s_p50", "s"),
    ("job_virtual_s_tail", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by the traced run: `(name, unit)`. The
/// prefix up to the first `.` is the layer.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("data.gen_s", "s"),
    ("nlp.tokenize_mb_s", "MB/s"),
    ("nlp.self_pct", "%"),
    ("apps.map_ns_per_rec", "ns/rec"),
    ("apps.combine_ns_per_rec", "ns/rec"),
    ("apps.reduce_ns_per_rec", "ns/rec"),
    ("apps.map_work_pct", "%"),
    ("apps.combine_work_pct", "%"),
    ("apps.reduce_work_pct", "%"),
    ("io.read_ns_per_rec", "ns/rec"),
    ("io.compress_mb_s", "MB/s"),
    ("io.decompress_mb_s", "MB/s"),
    ("io.read_work_pct", "%"),
    ("io.self_pct", "%"),
    ("task.emit_ns_per_rec", "ns/rec"),
    ("task.sort_ns_per_rec", "ns/rec"),
    ("task.spill_ns_per_byte", "ns/B"),
    ("task.merge_ns_per_byte", "ns/B"),
    ("task.sort_indices_ns_per_rec", "ns/rec"),
    ("task.map_call_s", "s"),
    ("task.spills", "count"),
    ("task.map_idle_pct", "%"),
    ("task.support_idle_pct", "%"),
    ("task.reduce_merge_ns_per_byte", "ns/B"),
    ("task.write_ns_per_rec", "ns/rec"),
    ("task.reduce_call_s", "s"),
    ("task.peak_buffer_kb", "KB"),
    ("task.abstraction_cost_pct", "%"),
    ("task.emit_work_pct", "%"),
    ("task.sort_work_pct", "%"),
    ("task.spill_work_pct", "%"),
    ("task.merge_work_pct", "%"),
    ("task.reduce_merge_work_pct", "%"),
    ("task.write_work_pct", "%"),
    ("task.self_pct", "%"),
    ("core.freq_absorbed_pct", "%"),
    ("core.offer_ns", "ns"),
    ("core.spill_fraction_mean", "ratio"),
    ("core.self_pct", "%"),
    ("shuffle.bytes", "B"),
    ("shuffle.remote_pct", "%"),
    ("shuffle.fetch_ns_per_byte", "ns/B"),
    ("shuffle.wait_pct", "%"),
    ("shuffle.call_s", "s"),
    ("shuffle.fetch_work_pct", "%"),
    ("shuffle.self_pct", "%"),
    ("pool.busy_pct", "%"),
    ("cluster.driver_s", "s"),
    ("cluster.self_pct", "%"),
    ("dag.rounds", "count"),
    ("dag.stage_s", "s"),
    ("dag.self_pct", "%"),
    ("serve.call_s", "s"),
    ("serve.from_trace_s", "s"),
    ("serve.multiplex_s", "s"),
    ("serve.merge_traces_s", "s"),
    ("serve.solo_s", "s"),
    ("serve.self_pct", "%"),
    ("cache.hit_pct", "%"),
    ("cache.evictions", "count"),
    ("cache.resident_kb", "KB"),
    ("trace.entries", "count"),
    ("trace.export_mb_s", "MB/s"),
    ("trace.self_pct", "%"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.unattributed_pct", "%"),
];

/// Layers whose spans split the traced pass; each has a `<layer>.self_pct`
/// metric, and with `bench.unattributed_pct` they account for the pass.
pub const SPAN_LAYERS: &[&str] = &[
    "nlp", "io", "task", "core", "shuffle", "cluster", "dag", "serve", "trace",
];

/// Is `name` a well-formed metric name (`[A-Za-z0-9_.-]+`, at most 64
/// characters, starting with a letter or digit)?
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The unit of a named metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// One run's outcome: the four keys of the result line.
#[derive(Debug, Default)]
pub struct Report {
    /// Jobs attempted (timed and checked).
    pub attempted: u64,
    /// Jobs that errored, were rejected, or produced output that differs
    /// from the reference.
    pub failed: u64,
    /// Other correctness checks that failed (the traced run's direct
    /// drive not reproducing `run_job`).
    pub check_failures: Vec<String>,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Set a metric, which must be one of `END_TO_END` or `PER_LAYER`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(unit_of(name).is_some(), "unknown metric {name}");
        let value = if value.is_finite() { value } else { 0.0 };
        self.values.insert(name, value);
    }

    /// Set to 0 every per-layer metric of `layers` not set yet: the
    /// workload does not exercise those layers.
    pub fn zero_layers(&mut self, layers: &[&str]) {
        for (name, _) in PER_LAYER {
            let layer = name.split('.').next().unwrap_or(name);
            if layers.contains(&layer) {
                self.values.entry(name).or_insert(0.0);
            }
        }
    }

    /// All outputs matched and every check held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.check_failures.is_empty()
    }

    /// The result line over `names`, in their order. A name with no
    /// value is an error in the benchmark, reported as such.
    pub fn json_line(&self, names: &[(&str, &str)]) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, unit)) in names.iter().enumerate() {
            let v = self
                .values
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            let _ = write!(
                out,
                "{}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                if i == 0 { "" } else { ", " },
                json_number(*v)
            );
        }
        out.push_str("}}");
        Ok(out)
    }
}

/// A finite `f64` as a JSON number with every digit Rust's shortest
/// round-trip formatting gives it.
fn json_number(v: f64) -> String {
    let s = format!("{v:?}");
    if s.contains(['.', 'e']) {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_lists_every_metric_in_order() {
        let mut r = Report::default();
        r.set("pass_s_p50", 1.25);
        r.set("setup_s", 3.0);
        let line = r
            .json_line(&[("pass_s_p50", "s"), ("setup_s", "s")])
            .unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"pass_s_p50\": {\"value\": 1.25, \"unit\": \"s\"}, \"setup_s\": {\"value\": 3.0, \"unit\": \"s\"}}}"
        );
        assert!(r.json_line(&[("throughput_mb_s", "MB/s")]).is_err());
    }

    #[test]
    fn non_finite_values_are_recorded_as_zero() {
        let mut r = Report::default();
        r.set("pass_s_p50", f64::NAN);
        assert_eq!(r.values["pass_s_p50"], 0.0);
    }
}
