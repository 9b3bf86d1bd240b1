//! Metric names, units, and agreement with `BENCHMARK.json`.

use std::collections::BTreeSet;
use textmr_perfbench::metrics::{valid_name, END_TO_END, PER_LAYER, SPAN_LAYERS};

/// Every `"field": "…"` value inside the `key` array of `BENCHMARK.json`.
fn values_in(spec: &str, key: &str, field: &str) -> Vec<String> {
    let start = spec
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let body = &spec[start..];
    let end = body.find(']').expect("array ends");
    body[..end]
        .split(&format!("\"{field}\":"))
        .skip(1)
        .map(|s| {
            s.trim()
                .trim_start_matches('"')
                .split('"')
                .next()
                .unwrap()
                .to_string()
        })
        .collect()
}

fn names_in(spec: &str, key: &str) -> Vec<String> {
    values_in(spec, key, "name")
}

fn spec() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

#[test]
fn every_metric_name_is_well_formed_and_unique() {
    let mut seen = BTreeSet::new();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_name(name), "bad metric name {name:?}");
        assert!(seen.insert(*name), "duplicate metric name {name}");
        assert!(
            !unit.is_empty()
                && unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "bad unit {unit:?} for {name}"
        );
    }
}

#[test]
fn name_check_rejects_what_the_contract_forbids() {
    for bad in ["", ".x", "a b", "a/b", "a\"b", "é", &"x".repeat(65)] {
        assert!(!valid_name(bad), "{bad:?} accepted");
    }
    for good in ["a", "0x", "task.emit_ns_per_rec", "a-b.c_d"] {
        assert!(valid_name(good), "{good:?} rejected");
    }
}

#[test]
fn benchmark_json_lists_exactly_the_measured_metrics() {
    let spec = spec();
    let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
    let layer: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
    assert_eq!(names_in(&spec, "end_to_end"), e2e);
    assert_eq!(names_in(&spec, "per_layer"), layer);
    let units: Vec<String> = END_TO_END
        .iter()
        .chain(PER_LAYER)
        .map(|(_, u)| u.to_string())
        .collect();
    let mut listed = values_in(&spec, "end_to_end", "unit");
    listed.extend(values_in(&spec, "per_layer", "unit"));
    assert_eq!(listed, units);
    assert_eq!(
        names_in(&spec, "workloads"),
        textmr_perfbench::workloads::NAMES
    );
}

#[test]
fn every_span_layer_has_a_self_time_metric() {
    for layer in SPAN_LAYERS {
        let name = format!("{layer}.self_pct");
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "no {name} metric"
        );
    }
}
