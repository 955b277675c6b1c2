//! Sample summaries, process memory, and the result record every run
//! prints.

use std::fmt::Write as _;

/// Latency samples in nanoseconds, summarized by exact order statistics.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<u64>);

impl Samples {
    pub fn push(&mut self, ns: u64) {
        self.0.push(ns);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    /// The `q`-quantile (nearest rank) in nanoseconds; 0 with no samples.
    pub fn quantile(&mut self, q: f64) -> u64 {
        if self.0.is_empty() {
            return 0;
        }
        let rank = ((self.0.len() as f64 * q).ceil() as usize).clamp(1, self.0.len()) - 1;
        *self.0.select_nth_unstable(rank).1
    }

    /// The `q`-quantile in microseconds.
    pub fn quantile_us(&mut self, q: f64) -> f64 {
        self.quantile(q) as f64 / 1e3
    }
}

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `num / den`, or 0 when the denominator is 0 (a layer that did no
/// work on the workload).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One fixed-rate open-loop step.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    /// Offered rate, requests per second.
    pub offered: f64,
    /// Requests answered per second of the step.
    pub answered: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    /// Requests due but unanswered when the step's schedule ended.
    pub backlog_end: u64,
}

impl Step {
    /// Get p99 within `slo_us`, and no more requests waiting at the end
    /// than arrive within `slo_us` (a longer queue outgrew the limit).
    pub fn meets(&self, slo_us: f64) -> bool {
        self.p99_us <= slo_us && self.backlog_end as f64 <= self.offered * slo_us / 1e6
    }

    pub fn line(&self, slo_us: f64) -> String {
        format!(
            "step {:.0}/s: {:.0}/s answered, get p50 {:.1} us p99 {:.1} us, backlog {} at end, SLO {}",
            self.offered,
            self.answered,
            self.p50_us,
            self.p99_us,
            self.backlog_end,
            if self.meets(slo_us) { "met" } else { "missed" }
        )
    }
}

/// The answered rate of the fastest step that met the SLO (0 if none).
pub fn rate_at_slo(steps: &[Step], slo_us: f64) -> f64 {
    steps
        .iter()
        .filter(|s| s.meets(slo_us))
        .map(|s| s.answered)
        .fold(0.0, f64::max)
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metrics in report order: the result's.
    pub metrics: Vec<Metric>,
    /// Metrics printed but kept out of the result (no bound).
    pub reported: Vec<Metric>,
    /// Requests (or engine operations) issued.
    pub attempted: u64,
    /// Requests whose reply failed the checker.
    pub failed: u64,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn put(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name, unit, value });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Correct when no request failed and every metric is a finite
    /// number.
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.attempted > 0
            && self
                .metrics
                .iter()
                .chain(&self.reported)
                .all(|m| m.value.is_finite())
    }

    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() {
                format!("{:e}", m.value)
            } else {
                "null".to_string()
            };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let mut s = Samples::default();
        for v in 1..=100 {
            s.push(v * 1000);
        }
        assert_eq!(s.quantile(0.5), 50_000);
        assert_eq!(s.quantile(0.99), 99_000);
        assert_eq!(s.quantile(1.0), 100_000);
        assert_eq!(Samples::default().quantile(0.5), 0);
    }

    #[test]
    fn json_keeps_every_digit() {
        let mut o = Outcome {
            attempted: 3,
            ..Default::default()
        };
        o.put("latency_ms", "ms", 1.203_456_789);
        let j = o.json();
        assert!(j.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(j.contains("\"latency_ms\": {\"value\": 1.203456789e0, \"unit\": \"ms\"}"));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
