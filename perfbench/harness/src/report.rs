//! Metric collection, the human-readable report, the JSON result line
//! and the report file.

use crate::hist::Histogram;
use std::fmt::Write as _;

/// One reported figure.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count behind the figure, when it is a percentile or a
    /// median over repetitions.
    pub samples: Option<u64>,
}

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// An ordered metric set.
#[derive(Default)]
pub struct Metrics {
    items: Vec<Metric>,
    /// Extra lines for the human-readable report (not part of the JSON
    /// result line).
    pub notes: Vec<String>,
}

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.put_n(name, value, unit, None);
    }

    pub fn put_n(&mut self, name: &str, value: f64, unit: &'static str, samples: Option<u64>) {
        let value = if value.is_finite() { value } else { 0.0 };
        if let Some(m) = self.items.iter_mut().find(|m| m.name == name) {
            m.value = value;
            m.unit = unit;
            m.samples = samples;
        } else {
            self.items.push(Metric {
                name: name.to_string(),
                value,
                unit,
                samples,
            });
        }
    }

    /// `setup_s`: the median of a run's set-up times, each listed in a
    /// note.
    pub fn put_setup(&mut self, times: &[f64]) {
        self.put_n("setup_s", median(times), "s", Some(times.len() as u64));
        let shown: Vec<String> = times.iter().map(|t| format!("{t:.3}")).collect();
        self.notes
            .push(format!("set-up times [{}] s", shown.join(" ")));
    }

    /// `name_p50` and `name_p99` from a nanosecond histogram, scaled by
    /// `div` (1e3 for µs), plus a note naming the highest percentile
    /// that keeps ten samples beyond it.
    pub fn put_hist(&mut self, name: &str, h: &Histogram, div: f64, unit: &'static str) {
        let n = Some(h.count());
        self.put_n(&format!("{name}_p50"), h.percentile(50.0) / div, unit, n);
        self.put_n(&format!("{name}_p99"), h.percentile(99.0) / div, unit, n);
        let tail = match h.tail_percentile() {
            Some(p) => format!("p{p} = {:.3} {unit}", h.percentile(p) / div),
            None => "too few samples for a tail".to_string(),
        };
        self.notes.push(format!(
            "{name}: n = {}, median {:.3} {unit}, {tail}",
            h.count(),
            h.percentile(50.0) / div
        ));
    }

    /// `name_p50` and `name_p99` as the median over windows (rounds, or
    /// fixed time slices) of each window's percentile — one burst of
    /// scheduler or neighbour noise moves one window, not the figure —
    /// plus a note with the pooled distribution's median, tail and count.
    pub fn put_windows(&mut self, name: &str, w: &Windows, div: f64, unit: &'static str) {
        let n = Some(w.pooled.count());
        self.put_n(&format!("{name}_p50"), median(&w.p50) / div, unit, n);
        self.put_n(&format!("{name}_p90"), median(&w.p90) / div, unit, n);
        self.put_n(&format!("{name}_p99"), median(&w.p99) / div, unit, n);
        let h = &w.pooled;
        let tail = match h.tail_percentile() {
            Some(p) => format!("p{p} = {:.3} {unit}", h.percentile(p) / div),
            None => "too few samples for a tail".to_string(),
        };
        let fmt = |v: &[f64]| {
            v.iter()
                .map(|x| format!("{:.1}", x / div))
                .collect::<Vec<_>>()
                .join(" ")
        };
        self.notes.push(format!(
            "{name}: median of {} windows' p50/p99; pooled n = {}, median {:.3} {unit}, {tail}; window p50s [{}] p99s [{}]",
            w.p50.len(),
            h.count(),
            h.percentile(50.0) / div,
            fmt(&w.p50),
            fmt(&w.p99)
        ));
    }

    pub fn items(&self) -> &[Metric] {
        &self.items
    }

    /// Keeps only the names in `keep`, in that order (absent names are
    /// reported as 0).
    pub fn select(&self, keep: &[(&str, &'static str)]) -> Vec<Metric> {
        keep.iter()
            .map(|(name, unit)| {
                self.items
                    .iter()
                    .find(|m| m.name == *name)
                    .cloned()
                    .unwrap_or(Metric {
                        name: name.to_string(),
                        value: 0.0,
                        unit,
                        samples: None,
                    })
            })
            .collect()
    }
}

/// Per-window percentiles of one latency, plus the pooled histogram.
#[derive(Default)]
pub struct Windows {
    pub p50: Vec<f64>,
    pub p90: Vec<f64>,
    pub p99: Vec<f64>,
    pub pooled: Histogram,
}

impl Windows {
    /// Adds one window's samples (an empty window is skipped).
    pub fn add(&mut self, h: &Histogram) {
        if h.count() == 0 {
            return;
        }
        self.p50.push(h.percentile(50.0));
        self.p90.push(h.percentile(90.0));
        self.p99.push(h.percentile(99.0));
        self.pooled.merge(h);
    }
}

/// Escapes a string for a JSON literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite float as a JSON number with every digit Rust prints.
pub fn json_num(v: f64) -> String {
    if !v.is_finite() {
        return "0".to_string();
    }
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

/// The one-line result object.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut body = String::new();
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            body.push_str(", ");
        }
        let _ = write!(
            body,
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(&m.name),
            json_num(m.value),
            json_str(m.unit)
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    )
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|v| v.parse::<f64>().ok())
            })
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Median of a sample (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_shape() {
        let mut m = Metrics::default();
        m.put("latency_ms", 1.25, "ms");
        m.put("setup_s", 2.0, "s");
        let line = result_line(true, 10, 0, m.items());
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \"setup_s\": {\"value\": 2.0, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn json_escapes() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_num(f64::NAN), "0");
        assert_eq!(json_num(3.0), "3.0");
    }
}
