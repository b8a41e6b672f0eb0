//! The run's result: named metrics with units, the correctness verdict,
//! and the final JSON line.

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What one benchmark invocation found.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Whether every correctness check passed.
    pub correct: bool,
    /// Operations attempted in the measured passes.
    pub attempted: u64,
    /// Operations that failed or returned a typed error.
    pub failed: u64,
    /// Metrics for the final JSON line.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// An empty, so far correct, report.
    #[must_use]
    pub fn new() -> Self {
        Self { correct: true, ..Self::default() }
    }

    /// Records a failed correctness check.
    pub fn fail(&mut self, what: &str) {
        eprintln!("CHECK FAILED: {what}");
        self.correct = false;
    }

    /// Records `what` as failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(&what());
        }
    }

    /// Adds a metric to the final JSON line.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name: name.to_string(), value, unit });
    }

    /// The final JSON line. A metric that is not a finite number cannot
    /// be written as JSON; it is written as `null` and the run is marked
    /// incorrect, since a measurement that produced no number is a fault.
    #[must_use]
    pub fn json(&mut self) -> String {
        let mut parts = Vec::with_capacity(self.metrics.len());
        let mut bad = Vec::new();
        for m in &self.metrics {
            let value = if m.value.is_finite() {
                format!("{:?}", m.value)
            } else {
                bad.push(m.name.clone());
                "null".to_string()
            };
            parts.push(format!("\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit));
        }
        for name in bad {
            self.fail(&format!("metric {name} is not a finite number"));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            parts.join(", ")
        )
    }
}

/// Prints one human-readable measurement line to standard output.
pub fn say(workload: &str, name: &str, value: f64, unit: &str, note: &str) {
    if note.is_empty() {
        println!("{workload:<13} {name:<28} {value:>14.6} {unit}");
    } else {
        println!("{workload:<13} {name:<28} {value:>14.6} {unit}  ({note})");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_four_result_keys() {
        let mut r = Report::new();
        r.attempted = 3;
        r.metric("setup_s", 0.25, "s");
        r.metric("op_p50_ms", 12.5, "ms");
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": \
             {\"value\": 0.25, \"unit\": \"s\"}, \"op_p50_ms\": {\"value\": 12.5, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    fn a_non_finite_metric_marks_the_run_incorrect() {
        let mut r = Report::new();
        r.metric("x", f64::NAN, "s");
        assert!(r.json().contains("\"value\": null"));
        assert!(!r.correct);
    }
}
