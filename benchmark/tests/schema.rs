//! The contract: names, units, bounds, and `BENCHMARK.json` itself.

use converse_benchmark::driver::Outcome;
use converse_benchmark::harness::Workload;
use converse_benchmark::report::{report_json, rows_json, Table};
use converse_benchmark::schema::{contract_json, why, END_TO_END, PER_LAYER, RUN_SECONDS};
use std::collections::BTreeSet;

fn is_name(s: &str) -> bool {
    let ok = |b: u8| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-');
    !s.is_empty() && s.len() <= 64 && s.as_bytes()[0].is_ascii_alphanumeric() && s.bytes().all(ok)
}

fn is_unit(s: &str) -> bool {
    let ok = |b: u8| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-');
    !s.is_empty() && s.len() <= 16 && s.bytes().all(ok)
}

#[test]
fn every_name_and_unit_is_well_formed_and_used_once() {
    let mut seen = BTreeSet::new();
    for w in Workload::ALL {
        assert!(is_name(w.name()), "{}", w.name());
        assert!(seen.insert(w.name()), "{} used twice", w.name());
        assert_eq!(Workload::parse(w.name()), Some(w));
        let reason = why(w);
        assert!(
            reason.len() <= 200,
            "{}: why is {} chars",
            w.name(),
            reason.len()
        );
        assert!(!reason.contains('\n'));
    }
    for m in END_TO_END.iter().chain(PER_LAYER) {
        assert!(is_name(m.name), "{}", m.name);
        assert!(is_unit(m.unit), "{}: unit {:?}", m.name, m.unit);
        assert!(seen.insert(m.name), "{} used twice", m.name);
    }
}

#[test]
fn the_contract_limits_hold() {
    assert!((2..=8).contains(&Workload::GATED.len()));
    assert!(Workload::GATED.iter().all(|w| Workload::ALL.contains(w)));
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
    assert!((1..=60).contains(&RUN_SECONDS));
    for m in END_TO_END {
        let b = m.bound.expect("every end-to-end metric has a bound");
        assert!(b > 0.0 && b <= 0.25, "{}: bound {b}", m.name);
    }
    for m in PER_LAYER {
        assert!(
            m.bound.is_none(),
            "{}: per-layer metrics have no bound",
            m.name
        );
        assert!(
            m.name.contains('.'),
            "{}: per-layer names are <crate>.<name>",
            m.name
        );
    }
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!((setup.unit, setup.better.label()), ("s", "lower"));
    let widest = END_TO_END
        .iter()
        .map(|m| m.bound.unwrap())
        .fold(0.0, f64::max);
    assert_eq!(setup.bound, Some(widest), "setup_s gets the largest bound");
    // The driver makes 4 + 22 × workloads runs inside 3420 s.
    let runs = 4 + 22 * Workload::GATED.len() as u32;
    assert!(
        runs * (RUN_SECONDS + 8) < 3420 - 120,
        "run_seconds leaves no room"
    );
    assert!(contract_json().len() <= 64 * 1024);
}

#[test]
fn benchmark_json_is_the_rendered_contract() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    assert_eq!(
        on_disk,
        contract_json(),
        "regenerate with `benchmark --print-contract > BENCHMARK.json`"
    );
}

#[test]
fn result_json_carries_every_metric_with_its_unit() {
    for (set, trace_flag) in [(END_TO_END, 0), (PER_LAYER, 1)] {
        let o = Outcome {
            metrics: set.iter().map(|m| (m, 1.2034)).collect(),
            attempted: 1000,
            failed: 0,
            detail: String::new(),
        };
        let json = o.json();
        assert!(
            json.starts_with(
                "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": {"
            ),
            "--trace {trace_flag}: {json}"
        );
        assert!(!json.contains('\n'));
        for m in set {
            let entry = format!(
                "\"{}\": {{\"value\": 1.2034, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
            assert!(json.contains(&entry), "missing {entry}");
        }
        assert_eq!(json.matches("\"value\"").count(), set.len());
    }
    let failed = Outcome {
        metrics: vec![],
        attempted: 10,
        failed: 1,
        detail: String::new(),
    };
    assert!(failed.json().starts_with("{\"correct\": false"));
}

#[test]
fn report_json_lists_unit_direction_bound_and_sample_count_for_every_metric() {
    let mut rows = Vec::new();
    for w in Workload::ALL {
        let table: Table = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|m| (m, vec![3.0, 1.0, 2.0]))
            .collect();
        rows.extend(rows_json(w, &table));
    }
    assert_eq!(
        rows.len(),
        Workload::ALL.len() * (END_TO_END.len() + PER_LAYER.len())
    );
    for row in &rows {
        for key in [
            "\"workload\": \"",
            "\"metric\": \"",
            "\"unit\": \"",
            "\"better\": \"",
            "\"bound\": ",
            "\"median\": 2",
            "\"q1\": 1",
            "\"q3\": 3",
            "\"samples\": 3",
        ] {
            assert!(row.contains(key), "{row} lacks {key}");
        }
    }
    assert!(rows[0].contains("\"bound\": 0.15,"));
    assert!(rows.last().unwrap().contains("\"bound\": null"));
    let doc = report_json(&rows, 1996, 30.0);
    assert!(doc.contains("\"seed\": 1996"));
    assert_eq!(doc.matches("\"metric\"").count(), rows.len());
}
