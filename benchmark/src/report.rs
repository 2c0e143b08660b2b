//! Printing a run: the per-workload table, the results file, and the
//! one-line JSON result.

use crate::host;
use crate::run::{Metric, Outcome};
use crate::stats::summarize;
use std::fmt::Write as _;

/// A finite number as JSON (non-finite values never reach the output
/// as numbers; they become 0 and the table shows them).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn esc(s: &str) -> String {
    let mut o = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(o, "\\u{:04x}", c as u32);
            }
            c => o.push(c),
        }
    }
    o
}

/// The table: each metric with its unit, median, quartiles and sample
/// count; with tracing, the measured and modeled seconds per region.
pub fn table(workload: &str, out: &Outcome) -> String {
    let mut t = String::new();
    let _ = writeln!(t, "workload {workload}");
    let _ = writeln!(
        t,
        "{:<28} {:>8} {:>14} {:>14} {:>14} {:>6}",
        "metric", "unit", "value", "q1", "q3", "n"
    );
    for m in &out.metrics {
        let (q1, q3) = if m.samples.is_empty() {
            (0.0, 0.0)
        } else {
            let s = summarize(&m.samples);
            (s.q1, s.q3)
        };
        let _ = writeln!(
            t,
            "{:<28} {:>8} {:>14.6e} {:>14.6e} {:>14.6e} {:>6}",
            m.name,
            m.unit,
            m.value,
            q1,
            q3,
            m.samples.len()
        );
    }
    if out.metric("solve_s_tail").is_some() {
        let _ = writeln!(
            t,
            "solve_s_tail is percentile {} of {} solves{}",
            out.tail_percentile,
            out.tail_samples,
            if out.tail_percentile == 100 {
                " (fewer than 11 solves: the slowest)"
            } else {
                ""
            }
        );
    }
    if !out.regions.is_empty() {
        let _ = writeln!(
            t,
            "{:<10} {:>14} {:>14}",
            "region", "measured s", "modeled s"
        );
        for (name, measured, modeled) in &out.regions {
            let _ = writeln!(t, "{name:<10} {measured:>14.6e} {modeled:>14.6e}");
        }
        if let (Some(s), Some(m)) = (out.metric("trace.solve_s"), out.metric("model.solve_s")) {
            let _ = writeln!(t, "{:<10} {:>14.6e} {:>14.6e}", "solve", s.value, m.value);
        }
    }
    for f in &out.failures {
        let _ = writeln!(t, "FAILED: {f}");
    }
    t
}

/// The last line of standard output: correctness, counts and every metric.
pub fn result_line(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                esc(&m.name),
                num(m.value),
                esc(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0 && out.attempted > 0,
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

fn metric_json(m: &Metric) -> String {
    let s = if m.samples.is_empty() {
        summarize(&[0.0])
    } else {
        summarize(&m.samples)
    };
    format!(
        "{{\"name\": \"{}\", \"unit\": \"{}\", \"value\": {}, \"q1\": {}, \"q3\": {}, \"samples\": {}}}",
        esc(&m.name),
        esc(m.unit),
        num(m.value),
        num(s.q1),
        num(s.q3),
        m.samples.len()
    )
}

/// The results file: host, settings, every metric with its quartiles and
/// sample count, the failures, and (traced run) every span.
pub fn results_json(workload: &str, seed: u64, seconds: f64, trace: bool, out: &Outcome) -> String {
    let mut j = String::from("{\n");
    let _ = writeln!(j, "  \"workload\": \"{}\",", esc(workload));
    let _ = writeln!(j, "  \"seed\": {seed},");
    let _ = writeln!(j, "  \"seconds\": {},", num(seconds));
    let _ = writeln!(j, "  \"trace\": {trace},");
    let _ = writeln!(
        j,
        "  \"host\": {{\"nproc\": {}, \"llc_bytes\": {}, \"commit\": \"{}\"}},",
        host::nproc(),
        host::llc_bytes().unwrap_or(0),
        esc(&host::commit())
    );
    let _ = writeln!(
        j,
        "  \"attempted\": {}, \"failed\": {},",
        out.attempted, out.failed
    );
    let _ = writeln!(
        j,
        "  \"tail\": {{\"percentile\": {}, \"samples\": {}}},",
        out.tail_percentile, out.tail_samples
    );
    let failures: Vec<String> = out
        .failures
        .iter()
        .map(|f| format!("\"{}\"", esc(f)))
        .collect();
    let _ = writeln!(j, "  \"failures\": [{}],", failures.join(", "));
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| format!("    {}", metric_json(m)))
        .collect();
    let _ = writeln!(j, "  \"metrics\": [\n{}\n  ],", metrics.join(",\n"));
    let spans: Vec<String> = out
        .spans
        .iter()
        .map(|s| {
            format!(
                "    {{\"name\": \"{}\", \"rank\": {}, \"solve\": {}, \"start_s\": {}, \"end_s\": {}, \"parent\": {}}}",
                esc(&s.name),
                s.rank,
                s.solve,
                num(s.start_s),
                num(s.end_s),
                s.parent.map_or("null".to_owned(), |p| p.to_string())
            )
        })
        .collect();
    let _ = writeln!(j, "  \"spans\": [\n{}\n  ]", spans.join(",\n"));
    j.push_str("}\n");
    j
}
