//! The table of several runs: every metric by name with unit, direction,
//! bound, median, quartiles and sample count — as text and as JSON.

use crate::harness::Workload;
use crate::schema::Metric;
use crate::stats;
use std::fmt::Write as _;

/// Per-metric samples of several runs of one workload.
pub type Table = Vec<(&'static Metric, Vec<f64>)>;

fn quartiles_or_same(v: &[f64]) -> (f64, f64) {
    if v.len() >= 2 {
        stats::quartiles(v)
    } else {
        (v[0], v[0])
    }
}

/// The table as aligned text, header included.
pub fn render(w: Workload, table: &Table) -> String {
    let mut out = format!(
        "{:<18} {:<30} {:<6} {:<7} {:>7} {:>14} {:>14} {:>14} {:>3}\n",
        "workload", "metric", "unit", "better", "bound", "median", "q1", "q3", "n"
    );
    for (m, v) in table {
        let (q1, q3) = quartiles_or_same(v);
        let _ = writeln!(
            out,
            "{:<18} {:<30} {:<6} {:<7} {:>7} {:>14.4} {:>14.4} {:>14.4} {:>3}",
            w.name(),
            m.name,
            m.unit,
            m.better.label(),
            m.bound
                .map(|b| format!("{:.0} %", b * 100.0))
                .unwrap_or_else(|| "-".into()),
            stats::median(v),
            q1,
            q3,
            v.len()
        );
    }
    out
}

/// One JSON object per metric of `table`.
pub fn rows_json(w: Workload, table: &Table) -> Vec<String> {
    table
        .iter()
        .map(|(m, v)| {
            let (q1, q3) = quartiles_or_same(v);
            format!(
                "{{\"workload\": \"{}\", \"metric\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}, \"median\": {}, \"q1\": {q1}, \"q3\": {q3}, \"samples\": {}}}",
                w.name(),
                m.name,
                m.unit,
                m.better.label(),
                m.bound
                    .map(|b| b.to_string())
                    .unwrap_or_else(|| "null".into()),
                stats::median(v),
                v.len()
            )
        })
        .collect()
}

/// The report file: all rows plus what produced them.
pub fn report_json(rows: &[String], seed: u64, seconds: f64) -> String {
    format!(
        "{{\n  \"seed\": {seed},\n  \"run_seconds\": {seconds},\n  \"results\": [\n    {}\n  ]\n}}\n",
        rows.join(",\n    ")
    )
}
