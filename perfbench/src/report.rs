//! Run outcome and the one-line JSON result.

use std::fmt::Write as _;

/// One reported figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as `BENCHMARK.json` lists it.
    pub unit: &'static str,
}

/// What one run observed.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted (KEM ops, service requests, simulator runs).
    pub attempted: u64,
    /// Attempted operations that failed, were shed, or gave a wrong
    /// output.
    pub failed: u64,
    /// Reasons the run is not valid even with every output correct (an
    /// open-loop generator that fell behind its schedule).
    pub invalid: Vec<String>,
    /// Reported metrics.
    pub metrics: Vec<Metric>,
    /// Provenance and configuration, printed ahead of the result line.
    pub header: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Sets (or overwrites) a metric; the unit comes from the metric
    /// tables in the crate root.
    ///
    /// # Panics
    ///
    /// Panics on a name no table lists: every emitted metric is declared.
    pub fn set(&mut self, name: &'static str, value: f64) {
        let unit = crate::E2E_METRICS
            .iter()
            .chain(crate::LAYER_METRICS.iter())
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("undeclared metric {name}"))
            .1;
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Metric { name, value, unit });
    }

    /// Whether a metric is set.
    #[must_use]
    pub fn has(&self, name: &str) -> bool {
        self.metrics.iter().any(|m| m.name == name)
    }

    /// (failed + shed + wrong output) / attempted.
    #[must_use]
    pub fn error_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// True when every output was right and the run is valid.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.invalid.is_empty() && self.attempted > 0
    }

    /// Keeps exactly the metrics of `table`, in its order.
    ///
    /// # Panics
    ///
    /// Panics if the run did not measure one of them.
    pub fn order_metrics(&mut self, table: &[(&'static str, &'static str)]) {
        let mut ordered = Vec::with_capacity(table.len());
        for (name, _) in table {
            let metric = self
                .metrics
                .iter()
                .find(|m| m.name == *name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            ordered.push(metric.clone());
        }
        self.metrics = ordered;
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    #[must_use]
    pub fn result_json(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }

    /// The provenance line: one JSON object of strings.
    #[must_use]
    pub fn header_json(&self) -> String {
        let fields: Vec<String> = self
            .header
            .iter()
            .map(|(k, v)| format!("\"{k}\": \"{}\"", escape(v)))
            .collect();
        format!("{{\"provenance\": {{{}}}}}", fields.join(", "))
    }
}

/// A finite number in JSON syntax, all digits kept (non-finite values,
/// which no metric should produce, become `null`).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}
