//! Registry exporters: Prometheus exposition text and JSON.
//!
//! Both are hand-rolled (no serde) and deterministic: maps are
//! `BTreeMap`-ordered, so two registries that compare equal render to
//! byte-identical text.

use std::io;
use std::path::Path;

use crate::registry::Registry;

/// Renders the registry in the Prometheus text exposition format.
///
/// Histograms expand into `_bucket{le="…"}`/`_sum`/`_count` series;
/// profiler spans become `qd_span_seconds_total{span="…"}` and
/// `qd_span_calls_total{span="…"}` counters.
pub fn to_prometheus(registry: &Registry) -> String {
    let mut out = String::new();
    // One TYPE line per family: labelled series of the same base name are
    // adjacent in the BTreeMap, so tracking the previous base suffices.
    let mut last_base = String::new();
    for (name, value) in registry.counters() {
        let base = name.split('{').next().unwrap_or(name);
        if base != last_base {
            out.push_str(&format!("# TYPE {base} counter\n"));
            last_base = base.to_string();
        }
        out.push_str(&format!("{name} {value}\n"));
    }
    last_base.clear();
    for (name, value) in registry.gauges() {
        let base = name.split('{').next().unwrap_or(name);
        if base != last_base {
            out.push_str(&format!("# TYPE {base} gauge\n"));
            last_base = base.to_string();
        }
        out.push_str(&format!("{name} {}\n", fmt_f64(*value)));
    }
    for (name, h) in registry.histograms() {
        out.push_str(&format!("# TYPE {name} histogram\n"));
        let cumulative = h.cumulative_counts();
        for (bound, cum) in h.bounds().iter().zip(&cumulative) {
            out.push_str(&format!("{name}_bucket{{le=\"{bound}\"}} {cum}\n"));
        }
        out.push_str(&format!(
            "{name}_bucket{{le=\"+Inf\"}} {}\n",
            cumulative.last().copied().unwrap_or(0)
        ));
        out.push_str(&format!("{name}_sum {}\n", h.sum()));
        out.push_str(&format!("{name}_count {}\n", h.count()));
    }
    if !registry.spans().is_empty() {
        out.push_str("# TYPE qd_span_seconds_total counter\n");
        for (path, stats) in registry.spans() {
            out.push_str(&format!(
                "{} {}\n",
                crate::labeled("qd_span_seconds_total", "span", path),
                fmt_f64(stats.nanos as f64 / 1e9)
            ));
        }
        out.push_str("# TYPE qd_span_calls_total counter\n");
        for (path, stats) in registry.spans() {
            out.push_str(&format!(
                "{} {}\n",
                crate::labeled("qd_span_calls_total", "span", path),
                stats.calls
            ));
        }
    }
    out
}

/// Renders the registry as a single JSON object with `counters`, `gauges`,
/// `histograms`, and `spans` sections.
pub fn to_json(registry: &Registry) -> String {
    let mut out = String::from("{\n  \"counters\": {");
    let mut first = true;
    for (name, value) in registry.counters() {
        push_entry(&mut out, &mut first, name, &value.to_string());
    }
    out.push_str("\n  },\n  \"gauges\": {");
    first = true;
    for (name, value) in registry.gauges() {
        push_entry(&mut out, &mut first, name, &fmt_f64(*value));
    }
    out.push_str("\n  },\n  \"histograms\": {");
    first = true;
    for (name, h) in registry.histograms() {
        let bounds: Vec<String> = h.bounds().iter().map(u64::to_string).collect();
        let counts: Vec<String> = h.bucket_counts().iter().map(u64::to_string).collect();
        let body = format!(
            "{{\"bounds\": [{}], \"counts\": [{}], \"sum\": {}, \"count\": {}}}",
            bounds.join(", "),
            counts.join(", "),
            h.sum(),
            h.count()
        );
        push_entry(&mut out, &mut first, name, &body);
    }
    out.push_str("\n  },\n  \"spans\": {");
    first = true;
    for (path, stats) in registry.spans() {
        let body = format!("{{\"calls\": {}, \"nanos\": {}}}", stats.calls, stats.nanos);
        push_entry(&mut out, &mut first, path, &body);
    }
    out.push_str("\n  }\n}\n");
    out
}

/// Writes the registry to `path`, choosing the format by extension:
/// `.json` renders [`to_json`], anything else the Prometheus text format.
pub fn write(registry: &Registry, path: impl AsRef<Path>) -> io::Result<()> {
    let path = path.as_ref();
    let text = if path.extension().is_some_and(|e| e == "json") {
        to_json(registry)
    } else {
        to_prometheus(registry)
    };
    std::fs::write(path, text)
}

fn push_entry(out: &mut String, first: &mut bool, key: &str, rendered: &str) {
    if !*first {
        out.push(',');
    }
    *first = false;
    out.push_str(&format!("\n    \"{}\": {rendered}", escape(key)));
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names;

    fn sample() -> Registry {
        let mut r = Registry::new();
        // One 12-bit message (the `le="16"` bucket) and one 700-bit one
        // (`+Inf`).
        r.charge_messages(2, 712, &[0, 0, 1, 0, 0, 0, 0, 0, 1]);
        r.add(
            crate::labeled(names::PHASE_ROUNDS, "phase", "bfs").as_str(),
            9,
        );
        r.add(
            crate::labeled(names::PHASE_ROUNDS, "phase", "dfs").as_str(),
            4,
        );
        r.set_gauge(names::PER_NODE_QUBITS, 33.0);
        r.record_span("exact/quantum", 2_000_000_000);
        r
    }

    #[test]
    fn prometheus_text_has_type_lines_and_histogram_series() {
        let text = to_prometheus(&sample());
        assert!(text.contains("# TYPE qd_messages_total counter"));
        assert!(text.contains("qd_messages_total 2"));
        // Labelled counters keep the base name in the TYPE line.
        assert!(text.contains("# TYPE qd_phase_rounds_total counter"));
        assert!(text.contains("qd_phase_rounds_total{phase=\"bfs\"} 9"));
        assert!(text.contains("qd_phase_rounds_total{phase=\"dfs\"} 4"));
        // Exactly one TYPE line per family, however many labelled series.
        assert_eq!(text.matches("# TYPE qd_phase_rounds_total").count(), 1);
        assert!(text.contains("qd_message_bits_bucket{le=\"16\"} 1"));
        assert!(text.contains("qd_message_bits_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("qd_message_bits_sum 712"));
        assert!(text.contains("qd_message_bits_count 2"));
        assert!(text.contains("qd_memory_per_node_qubits 33.0"));
        assert!(text.contains("qd_span_seconds_total{span=\"exact/quantum\"} 2.0"));
        assert!(text.contains("qd_span_calls_total{span=\"exact/quantum\"} 1"));
    }

    #[test]
    fn json_export_is_well_formed_and_complete() {
        let text = to_json(&sample());
        // The trace crate's hand-rolled parser doubles as a JSON validator.
        let parsed = trace_parse(&text);
        assert!(parsed, "export must be parseable JSON: {text}");
        assert!(text.contains("\"qd_payload_bits_total\": 712"));
        assert!(text.contains("\"sum\": 712"));
        assert!(text.contains("\"calls\": 1"));
    }

    // Minimal structural validation without a JSON dependency: balanced
    // braces/brackets outside strings and non-empty sections.
    fn trace_parse(text: &str) -> bool {
        let mut depth = 0i64;
        let mut in_str = false;
        let mut escaped = false;
        for c in text.chars() {
            if in_str {
                if escaped {
                    escaped = false;
                } else if c == '\\' {
                    escaped = true;
                } else if c == '"' {
                    in_str = false;
                }
                continue;
            }
            match c {
                '"' => in_str = true,
                '{' | '[' => depth += 1,
                '}' | ']' => depth -= 1,
                _ => {}
            }
            if depth < 0 {
                return false;
            }
        }
        depth == 0 && !in_str
    }

    #[test]
    fn equal_registries_render_identically() {
        assert_eq!(to_prometheus(&sample()), to_prometheus(&sample()));
        assert_eq!(to_json(&sample()), to_json(&sample()));
    }

    #[test]
    fn write_chooses_format_by_extension() {
        let dir = std::env::temp_dir();
        let json = dir.join(format!("qd-metrics-{}.json", std::process::id()));
        let prom = dir.join(format!("qd-metrics-{}.prom", std::process::id()));
        write(&sample(), &json).unwrap();
        write(&sample(), &prom).unwrap();
        assert!(std::fs::read_to_string(&json).unwrap().starts_with('{'));
        assert!(std::fs::read_to_string(&prom)
            .unwrap()
            .starts_with("# TYPE"));
        std::fs::remove_file(json).unwrap();
        std::fs::remove_file(prom).unwrap();
    }
}
