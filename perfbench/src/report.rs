//! One workload's checks, failure counts and metrics, and the JSON line
//! that ends every run.

use crate::stats::{summarize, Samples};
use std::fmt::Display;

/// Metrics a user of the library sees, printed by `--trace 0` runs, with
/// their units. `BENCHMARK.json` lists the same names.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("serial_ms", "ms"),
    ("peak_rss_mib", "MiB"),
    ("qps", "1/s"),
    ("p50_us", "us"),
    ("p99_us", "us"),
];

/// Metrics of single layers, printed by `--trace 1` runs; 0 on workloads
/// that do not exercise the layer.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("scenario.build_ms", "ms"),
    ("scenario.residual_ms", "ms"),
    ("scenario.allocs", "count"),
    ("scenario.minor_faults", "count"),
    ("scenario.result_mib", "MiB"),
    ("batch.pack_ms", "ms"),
    ("batch.caps_ms", "ms"),
    ("batch.points", "count"),
    ("batch.lane_fill", "ratio"),
    ("kernel.sum_ms.dt", "ms"),
    ("kernel.sum_ms.mabc", "ms"),
    ("kernel.sum_ms.tdbc", "ms"),
    ("kernel.sum_ms.hbc", "ms"),
    ("kernel.maxmin_ms.dt", "ms"),
    ("kernel.maxmin_ms.mabc", "ms"),
    ("kernel.maxmin_ms.tdbc", "ms"),
    ("kernel.maxmin_ms.hbc", "ms"),
    ("lp.solves", "count"),
    ("lp.pivots", "count"),
    ("lp.pivots_per_solve", "ratio"),
    ("lp.warm_rate", "ratio"),
    ("fading.sample_ms", "ms"),
    ("fading.draws", "count"),
    ("par.threads", "count"),
    ("par.parallel_ms", "ms"),
    ("par.cpu_ms", "ms"),
    ("par.efficiency", "ratio"),
    ("serve.validate_ns", "ns"),
    ("serve.snap_ns", "ns"),
    ("serve.cache_get_ns", "ns"),
    ("serve.cache_insert_ns", "ns"),
    ("serve.solve_us", "us"),
    ("serve.hit_rate", "ratio"),
    ("serve.misses", "count"),
    ("serve.evictions", "count"),
    ("serve.kernel_solves", "count"),
    ("serve.simplex_solves", "count"),
    ("serve.drain_solved", "count"),
    ("trace.replay_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.spans", "count"),
];

/// `kernel.sum_ms.*` by protocol index.
pub const SUM_MS: [&str; 4] = [
    "kernel.sum_ms.dt",
    "kernel.sum_ms.mabc",
    "kernel.sum_ms.tdbc",
    "kernel.sum_ms.hbc",
];

/// `kernel.maxmin_ms.*` by protocol index.
pub const MAXMIN_MS: [&str; 4] = [
    "kernel.maxmin_ms.dt",
    "kernel.maxmin_ms.mabc",
    "kernel.maxmin_ms.tdbc",
    "kernel.maxmin_ms.hbc",
];

/// What one workload's run found.
#[derive(Debug)]
pub struct Report {
    /// The workload's name.
    pub workload: &'static str,
    values: Vec<(&'static str, f64)>,
    /// Operations attempted: solves, or answered queries.
    pub attempted: u64,
    /// Operations that failed, plus failed checks.
    pub failed: u64,
    /// `false` once any check failed.
    pub correct: bool,
}

impl Report {
    /// An empty report for `workload`.
    pub fn new(workload: &'static str) -> Self {
        Report {
            workload,
            values: Vec::new(),
            attempted: 0,
            failed: 0,
            correct: true,
        }
    }

    /// Prints and records one check.
    pub fn check(&mut self, what: &str, ok: bool, detail: impl Display) {
        println!(
            "check {} {what}: {detail}",
            if ok { "ok  " } else { "FAIL" }
        );
        if !ok {
            self.correct = false;
            self.failed += 1;
        }
    }

    /// Records a check repeated every pass; prints only when it fails.
    pub fn verify(&mut self, what: &str, ok: bool) {
        if !ok {
            self.check(what, false, "mismatch");
        }
    }

    /// Adds operations attempted and failed.
    pub fn tally(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Sets a metric of [`END_TO_END`] or [`PER_LAYER`]. A non-finite
    /// value fails the run and is reported as 0.
    ///
    /// # Panics
    ///
    /// Panics on a name neither list holds.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|&(n, _)| n == name),
            "unknown metric {name}"
        );
        let value = if value.is_finite() {
            value
        } else {
            self.check(name, false, format!("non-finite value {value}"));
            0.0
        };
        self.values.retain(|&(n, _)| n != name);
        self.values.push((name, value));
    }

    fn value(&self, name: &str) -> f64 {
        self.values
            .iter()
            .find(|&&(n, _)| n == name)
            .map_or(0.0, |&(_, v)| v)
    }

    /// Prints a timing's median, quartiles, deepest well-sampled tail
    /// and sample count in units of `unit_ns`; returns the median.
    pub fn timing(&self, label: &str, samples: &mut Samples, unit_ns: f64, unit: &str) -> f64 {
        let summary = samples.summary(unit_ns);
        print_summary(label, unit, summary)
    }

    /// [`Report::timing`] for plain per-pass values.
    pub fn values(&self, label: &str, values: &[f64], unit: &str) -> f64 {
        print_summary(label, unit, summarize(values))
    }
}

fn print_summary(label: &str, unit: &str, summary: Option<crate::stats::Summary>) -> f64 {
    match summary {
        Some(s) => {
            println!("timing {label} [{unit}] {}", s.render());
            s.median
        }
        None => {
            println!("timing {label} [{unit}] no samples");
            0.0
        }
    }
}

/// The run's last line: correctness, counts, and every metric of the
/// selected list for each report (prefixed by workload when there are
/// several).
pub fn json_line(reports: &[Report], trace: bool) -> String {
    let list: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let prefix = reports.len() > 1;
    let mut metrics = Vec::new();
    for r in reports {
        for &(name, unit) in list {
            let key = if prefix {
                format!("{}.{name}", r.workload)
            } else {
                name.to_string()
            };
            metrics.push(format!(
                "\"{key}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                r.value(name)
            ));
        }
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        reports.iter().all(|r| r.correct),
        reports.iter().map(|r| r.attempted).sum::<u64>().max(1),
        reports.iter().map(|r| r.failed).sum::<u64>(),
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_lists_every_metric_of_the_mode() {
        let mut r = Report::new("paper_sweep");
        r.set("serial_ms", 98.25);
        r.tally(10, 0);
        let line = json_line(std::slice::from_ref(&r), false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
        assert!(line.contains("\"serial_ms\": {\"value\": 98.25, \"unit\": \"ms\"}"));
        assert_eq!(line.matches("\"unit\"").count(), END_TO_END.len());
        let traced = json_line(&[r], true);
        assert_eq!(traced.matches("\"unit\"").count(), PER_LAYER.len());
    }

    #[test]
    fn failed_checks_clear_correctness_and_count() {
        let mut r = Report::new("serve_mixed");
        r.verify("answers agree", true);
        assert!(r.correct);
        r.verify("answers agree", false);
        r.set("qps", f64::NAN);
        assert!(!r.correct);
        assert_eq!(r.failed, 2);
        assert!(json_line(&[r], false).contains("\"qps\": {\"value\": 0,"));
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            text.matches("\"unit\":").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
        let listed = crate::WORKLOADS
            .iter()
            .filter(|w| text.contains(&format!("\"name\": \"{w}\", \"why\"")))
            .count();
        assert_eq!(listed, text.matches("\"why\":").count(), "unknown workload");
        assert!(listed >= 2);
        for (i, p) in bcc_core::Protocol::ALL.iter().enumerate() {
            let short = p.name().to_lowercase();
            assert!(SUM_MS[i].ends_with(&short) && MAXMIN_MS[i].ends_with(&short));
        }
    }
}
