//! The result of one benchmark run and how it is printed: readable lines
//! first, then the one-line JSON object that ends standard output.

use std::fmt::Display;

/// One named measurement with its unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Operations attempted and failed, the failures' reasons, and the metrics.
pub struct Outcome {
    title: String,
    notes: Vec<String>,
    failures: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn new(title: String) -> Self {
        Outcome {
            title,
            notes: Vec::new(),
            failures: Vec::new(),
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
        }
    }

    /// Counts one checked operation.
    pub fn tally<T>(&mut self, what: &str, result: &Result<T, String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            self.failures.push(format!("{what}: {e}"));
        }
    }

    /// Records a failed consistency check that is not an operation.
    pub fn fail(&mut self, what: impl Display) {
        self.failures.push(what.to_string());
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.failed == 0
    }

    pub fn print(&self) {
        println!("perfbench: {}", self.title);
        for m in &self.metrics {
            println!("  {:<34} {:>20} {}", m.name, m.value, m.unit);
        }
        for line in &self.notes {
            println!("  {line}");
        }
        for f in &self.failures {
            println!("  FAILED {f}");
            eprintln!("FAILED {f}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// Every digit of `v` (Rust prints the shortest exact round-trip form);
/// JSON has no NaN or infinity, so those print as 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Mean of `xs`; NaN if empty.
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// First and third quartiles of `xs`: the medians of its lower and upper
/// halves, each holding the middle value of an odd count. NaN if empty.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let half = v.len().div_ceil(2);
    (median(&v[..half]), median(&v[v.len() - half..]))
}

/// Smallest of `xs`; NaN if empty.
pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().reduce(f64::min).unwrap_or(f64::NAN)
}

/// The highest percentile of `xs` with at least ten samples beyond it, as
/// (percent, value): the eleventh largest sample. `None` for ten samples
/// or fewer.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let beyond = 10;
    if xs.len() <= beyond {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let i = v.len() - beyond - 1;
    Some((100.0 * (i + 1) as f64 / v.len() as f64, v[i]))
}

/// Median of `xs` (the mean of the middle two for an even count); NaN if
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The process's peak resident set, in MiB (`VmHWM` from
/// `/proc/self/status`); NaN where that file is missing.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}
