//! The metric catalogue and the one-line JSON result every run prints.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use pkgrec_trace::TraceReport;

/// End-to-end metrics: what a user of `pkgrec` sees. Printed by every
/// untraced run of every workload, each with its unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "op/s"),
    ("latency_p50_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run. A metric of a layer
/// the workload does not exercise reads 0 (no serve layer in the
/// library workloads, no sketch engine outside `sketch_catalog`).
/// Counters marked `count/op` are totals over the traced phase divided
/// by its ops (requests for the serve workloads).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("loadgen.late_p50_us", "us"),
    ("loadgen.late_p99_us", "us"),
    ("serve.latency_p99_us", "us"),
    ("serve.http_us_p50", "us"),
    ("serve.service_us_p50", "us"),
    ("serve.service_us_p99", "us"),
    ("serve.plan_cache_hit_ratio", "ratio"),
    ("serve.access_log_dropped", "count"),
    ("serve.deadline_partials", "count"),
    ("query.compile_us_p50", "us"),
    ("core.prepare_us_p50", "us"),
    ("core.solve_topk_us_p50", "us"),
    ("core.solve_bound_us_p50", "us"),
    ("core.solve_count_us_p50", "us"),
    ("core.solve_eval_us_p50", "us"),
    ("core.solve_qc_cq_us_p50", "us"),
    ("core.solve_qc_none_us_p50", "us"),
    ("core.solve_travel_us_p50", "us"),
    ("core.solve_thm41_us_p50", "us"),
    ("core.solve_par_count_us_p50", "us"),
    ("core.solve_p95_us", "us"),
    ("query.qc_probe_ns", "ns"),
    ("query.plan_probes", "count/op"),
    ("query.bitset_probes", "count/op"),
    ("query.bitset_share", "ratio"),
    ("enumerate.nodes", "count/op"),
    ("enumerate.valid", "count/op"),
    ("enumerate.useful_ratio", "ratio"),
    ("enumerate.pruned.cost", "count/op"),
    ("enumerate.pruned.compat", "count/op"),
    ("enumerate.pruned.budget", "count/op"),
    ("enumerate.pruned.floor", "count/op"),
    ("enumerate.busy_share", "ratio"),
    ("enumerate.steals", "count/op"),
    ("data.partition_ms", "ms"),
    ("sketch.phase_share.compile", "ratio"),
    ("sketch.phase_share.sketch", "ratio"),
    ("sketch.phase_share.refine", "ratio"),
    ("sketch.phase_share.verify", "ratio"),
    ("sketch.sub_solves", "count/op"),
    ("sketch.refines_improved", "count/op"),
    ("sketch.partitions_pruned", "count/op"),
    ("sketch.quality_ratio", "ratio"),
    ("guard.interrupted", "count/op"),
    ("trace.overhead_pct", "%"),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct RunReport {
    /// Operations attempted in the timed phases: requests, batch
    /// solves or sketch ops.
    pub attempted: u64,
    /// Attempted operations that failed: non-200 responses, answer
    /// mismatches, invalid packages, panics.
    pub failed: u64,
    /// Metric values by name (end-to-end and per-layer alike).
    pub metrics: BTreeMap<&'static str, f64>,
}

impl RunReport {
    /// Set a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Set the per-op counter metrics (and their ratios) from the trace
    /// counters `trace` gathered over `ops` operations.
    pub fn set_counters(&mut self, trace: &TraceReport, ops: u64) {
        let get = |name: &str| trace.counters.get(name).copied().unwrap_or(0) as f64;
        let per_op = |name: &str| get(name) / ops.max(1) as f64;
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        for (metric, counter) in [
            ("query.plan_probes", "query.plan_probes"),
            ("query.bitset_probes", "query.bitset_probes"),
            ("enumerate.nodes", "enumerate.nodes"),
            ("enumerate.valid", "enumerate.valid"),
            ("enumerate.pruned.cost", "enumerate.pruned.cost"),
            ("enumerate.pruned.compat", "enumerate.pruned.compat"),
            ("enumerate.pruned.budget", "enumerate.pruned.budget"),
            ("enumerate.pruned.floor", "enumerate.pruned.floor"),
            ("enumerate.steals", "enumerate.steals"),
            ("sketch.sub_solves", "sketch.sub_solves"),
            ("sketch.refines_improved", "sketch.refines.improved"),
            ("sketch.partitions_pruned", "sketch.partitions_pruned"),
            ("guard.interrupted", "guard.interrupted"),
        ] {
            self.set(metric, per_op(counter));
        }
        self.set(
            "query.bitset_share",
            ratio(get("query.bitset_probes"), get("query.plan_probes")),
        );
        self.set(
            "enumerate.useful_ratio",
            ratio(get("enumerate.valid"), get("enumerate.nodes")),
        );
    }

    /// Set `peak_rss_mb` to the process's peak resident set so far.
    /// Workloads call it right after their measured phases, before any
    /// extra set-up rounds.
    pub fn set_peak_rss(&mut self) -> Result<(), String> {
        let mb = peak_rss_mb().ok_or("VmHWM is unavailable")?;
        self.set("peak_rss_mb", mb);
        Ok(())
    }

    /// Count one attempted operation, failed or not.
    pub fn attempt(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`
    /// with exactly the metrics of `catalogue`, each with its unit.
    /// Errors when a catalogued metric was not measured or is not a
    /// finite number — the run is then broken, not merely slow.
    pub fn to_json(&self, catalogue: &[(&str, &str)]) -> Result<String, String> {
        let mut out = String::with_capacity(64 + catalogue.len() * 64);
        let _ = write!(
            out,
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        );
        for (i, (name, unit)) in catalogue.iter().enumerate() {
            let value = *self
                .metrics
                .get(name)
                .ok_or_else(|| format!("metric `{name}` was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric `{name}` is not finite: {value}"));
            }
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}"
            );
        }
        out.push_str("}}");
        Ok(out)
    }
}

/// The process's peak resident set (`VmHWM`), in MB (10^6 bytes);
/// `None` where `/proc/self/status` is unavailable.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024.0 / 1e6)
}

/// Whether `name` is a well-formed metric or workload name: starts
/// with a letter or digit, at most 64 of `[A-Za-z0-9_.-]`.
pub fn is_valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(is_valid_name(name), "{name}");
            assert!(seen.insert(*name), "duplicate {name}");
            assert!(!unit.is_empty() && unit.len() <= 16, "{unit}");
        }
        assert!(!is_valid_name(".x") && !is_valid_name("a b") && !is_valid_name(""));
    }

    #[test]
    fn counters_become_per_op_metrics_and_ratios() {
        let mut trace = TraceReport::default();
        for (name, n) in [
            ("enumerate.nodes", 400),
            ("enumerate.valid", 100),
            ("query.plan_probes", 50),
            ("query.bitset_probes", 10),
            ("sketch.refines.improved", 8),
        ] {
            trace.counters.insert(name.to_string(), n);
        }
        let mut r = RunReport::default();
        r.set_counters(&trace, 4);
        assert_eq!(r.metrics["enumerate.nodes"], 100.0);
        assert_eq!(r.metrics["sketch.refines_improved"], 2.0);
        assert_eq!(r.metrics["enumerate.steals"], 0.0, "absent counters read 0");
        assert_eq!(r.metrics["enumerate.useful_ratio"], 0.25);
        assert_eq!(r.metrics["query.bitset_share"], 0.2);
        r.set_counters(&TraceReport::default(), 0);
        assert_eq!(r.metrics["query.bitset_share"], 0.0, "no probes, no share");
    }

    #[test]
    fn result_line_has_every_metric_with_full_digits() {
        let mut r = RunReport::default();
        r.attempt(true);
        r.attempt(false);
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            r.set(name, 1.0 / (i + 3) as f64);
        }
        let line = r.to_json(END_TO_END).unwrap();
        let json = pkgrec_trace::json::parse(&line).unwrap();
        assert_eq!(json.get("correct").and_then(|v| v.as_bool()), Some(false));
        assert_eq!(json.get("attempted").and_then(|v| v.as_u64()), Some(2));
        assert_eq!(json.get("failed").and_then(|v| v.as_u64()), Some(1));
        let setup = json.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("value").and_then(|v| v.as_f64()), Some(1.0 / 3.0));
        assert_eq!(setup.get("unit").and_then(|v| v.as_str()), Some("s"));
        r.set("ops_per_s", f64::NAN);
        assert!(r.to_json(END_TO_END).is_err());
        assert!(
            r.to_json(PER_LAYER).is_err(),
            "unmeasured metrics are an error"
        );
    }
}
