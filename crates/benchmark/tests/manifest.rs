//! `BENCHMARK.json` at the repository root must declare exactly what the
//! benchmark measures: the same workloads, the same metrics with the same
//! units, directions and bounds, and a declared (end-to-end metric,
//! workload) pair for every per-layer metric to move.

use std::collections::BTreeSet;

use jportal_benchmark::metrics::{ordered, END_TO_END, LAYERS};
use jportal_benchmark::{run, workload, Phase, DEFAULT_SEED, WORKLOADS};
use jportal_obs::json::{parse, Value};

fn manifest() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    parse(&text).expect("BENCHMARK.json is valid JSON")
}

fn array<'v>(v: &'v Value, key: &str) -> &'v [Value] {
    match v.get(key) {
        Some(Value::Arr(items)) => items,
        other => panic!("{key} must be an array, got {other:?}"),
    }
}

fn keys(v: &Value) -> Vec<&str> {
    match v {
        Value::Obj(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("expected an object, got {other:?}"),
    }
}

fn text<'v>(v: &'v Value, key: &str) -> &'v str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("{key} must be a string in {v:?}"))
}

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

/// The metric names a manifest section declares.
fn declared(section: &str) -> BTreeSet<String> {
    array(&manifest(), section)
        .iter()
        .map(|m| text(m, "name").to_string())
        .collect()
}

#[test]
fn manifest_matches_the_declaration_tables() {
    let m = manifest();
    assert_eq!(
        keys(&m),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let paths: Vec<&str> = array(&m, "paths")
        .iter()
        .filter_map(Value::as_str)
        .collect();
    assert_eq!(paths, ["crates/benchmark"]);

    let workloads = array(&m, "workloads");
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (w, spec) in workloads.iter().zip(&WORKLOADS) {
        assert_eq!(keys(w), ["name", "why"]);
        assert_eq!(text(w, "name"), spec.name);
        assert_eq!(text(w, "why"), spec.why);
        assert!(valid_name(spec.name) && spec.why.len() <= 200);
    }

    let e2e = array(&m, "end_to_end");
    assert_eq!(e2e.len(), END_TO_END.len());
    for (entry, metric) in e2e.iter().zip(END_TO_END) {
        assert_eq!(keys(entry), ["name", "unit", "better", "bound"]);
        assert_eq!(text(entry, "name"), metric.name);
        assert_eq!(text(entry, "unit"), metric.unit);
        assert_eq!(text(entry, "better"), metric.better);
        assert_eq!(
            entry.get("bound").and_then(Value::as_num),
            Some(metric.bound)
        );
        assert!(
            metric.bound > 0.0 && metric.bound <= 0.25,
            "{}",
            metric.name
        );
        assert!(valid_name(metric.name) && valid_unit(metric.unit));
        assert!(["lower", "higher"].contains(&metric.better));
    }
    let setup = END_TO_END
        .iter()
        .find(|e| e.name == "setup_s")
        .expect("setup_s");
    assert_eq!((setup.unit, setup.better), ("s", "lower"));
    assert!(END_TO_END.iter().all(|e| e.bound <= setup.bound));

    let layers = array(&m, "per_layer");
    assert_eq!(layers.len(), LAYERS.len());
    let e2e_names: BTreeSet<&str> = END_TO_END.iter().map(|e| e.name).collect();
    let workload_names: BTreeSet<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    for (entry, layer) in layers.iter().zip(LAYERS) {
        assert_eq!(keys(entry), ["name", "unit", "better"]);
        assert_eq!(text(entry, "name"), layer.name);
        assert_eq!(text(entry, "unit"), layer.unit);
        assert_eq!(text(entry, "better"), layer.better);
        assert!(valid_name(layer.name) && valid_unit(layer.unit));
        assert!(["lower", "higher"].contains(&layer.better));
        assert!(!layer.module.is_empty(), "{} names no module", layer.name);
        assert!(!layer.moves.is_empty(), "{} moves nothing", layer.name);
        for (metric, w) in layer.moves {
            assert!(
                e2e_names.contains(metric),
                "{}: {metric} undeclared",
                layer.name
            );
            assert!(workload_names.contains(w), "{}: {w} undeclared", layer.name);
        }
    }
    let mut all: Vec<&str> = END_TO_END.iter().map(|e| e.name).collect();
    all.extend(LAYERS.iter().map(|l| l.name));
    let unique: BTreeSet<&str> = all.iter().copied().collect();
    assert_eq!(unique.len(), all.len(), "metric names are used once");
}

#[test]
fn a_clean_run_emits_exactly_the_declared_metrics_and_fails_nothing() {
    let spec = workload("lossy-fop").expect("declared").at_scale(2);
    let results = run(&spec, &[Phase::EndToEnd, Phase::Traced], DEFAULT_SEED, 0.0)
        .expect("no hard check fails");
    for (phase, outcome) in results {
        let section = match phase {
            Phase::EndToEnd => "end_to_end",
            Phase::Traced => "per_layer",
        };
        let emitted: BTreeSet<String> = outcome.values.keys().map(|k| k.to_string()).collect();
        assert_eq!(emitted, declared(section), "{section}");
        assert_eq!(outcome.failed, 0, "{section}");
        assert!(outcome.attempted > 0);
        let rows = ordered(&outcome.values, phase == Phase::Traced);
        assert!(rows.iter().all(|(_, v, _)| v.is_finite()));
        assert_eq!(outcome.spans.is_some(), phase == Phase::Traced);
    }
}
