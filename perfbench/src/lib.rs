//! End-to-end and per-layer benchmark of the crowdsourced-CDN planner.
//!
//! One run drives one named workload through the program's public API in
//! a closed loop, checks every output with an independent checker
//! ([`check`]), and reports either the end-to-end metrics (untraced run,
//! [`offline`] and [`online`]) or the per-layer metrics (traced run,
//! [`traced`]). See `README.md` in this directory for the workloads,
//! metrics and how the bounds were set.

#![forbid(unsafe_code)]

pub mod check;
pub mod offline;
pub mod online;
pub mod traced;
pub mod workload;

use std::fmt::Write as _;
use std::time::Duration;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The result of one benchmark run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Slot cycles attempted.
    pub attempted: u64,
    /// Slot cycles that failed a check.
    pub failed: u64,
    /// Reported metrics, in output order.
    pub metrics: Vec<Metric>,
    /// Why each failed slot cycle failed (printed to stderr).
    pub errors: Vec<String>,
}

impl Report {
    /// Appends a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Records `slots` failed slot cycles with their reason.
    pub fn fail(&mut self, slots: u64, why: String) {
        self.failed += slots;
        self.errors.push(why);
    }

    /// Whether every attempted slot cycle passed its checks.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The one-line JSON result object.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            // JSON has no NaN or infinity; a non-finite value is a bug
            // upstream and is reported as 0 so the line stays parseable.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile of `values` by the nearest-rank rule (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if q == 0.5 && sorted.len().is_multiple_of(2) {
        let hi = sorted.len() / 2;
        return (sorted[hi - 1] + sorted[hi]) / 2.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set of this process in MB (`VmHWM`), 0 where the
/// platform does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// SplitMix64: the benchmark's own seeded generator for sampling.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n` > 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
    }

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut r = Report { attempted: 3, ..Report::default() };
        r.metric("setup_s", 0.25, "s");
        r.metric("bad", f64::NAN, "ms");
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"bad\": {\"value\": 0.0, \"unit\": \"ms\"}}}"
        );
        r.fail(1, "broken".into());
        assert!(r.to_json().starts_with("{\"correct\": false, \"attempted\": 3, \"failed\": 1"));
    }
}
