//! Telemetry determinism: the *structure* of what the pipeline records —
//! every instrument registered `Determinism::Exact` and the span tree —
//! must be identical whether the analysis runs sequentially or fanned
//! out, exactly like the report itself. Timing (sketch values, span
//! durations) and the instruments registered `Determinism::Scheduling`
//! are excluded; everything else is part of the contract because it is
//! aggregated after the deterministic joins.

use jportal_bytecode::builder::ProgramBuilder;
use jportal_bytecode::{CmpKind, Instruction as I, Program};
use jportal_core::{JPortal, JPortalConfig, JPortalReport};
use jportal_jvm::runtime::{Jvm, JvmConfig, RunResult, ThreadSpec};
use jportal_obs::{exact_view, Determinism, TelemetryReport};
use std::collections::BTreeMap;

/// A branchy two-method loop, long enough that a small PT buffer with a
/// slow exporter drops data on every thread (so recovery, hole spans and
/// loss counters are all exercised).
fn workload() -> Program {
    let mut pb = ProgramBuilder::new();
    let c = pb.add_class("C", None, 0);
    let mut h = pb.method(c, "helper", 1, true);
    let odd = h.label();
    h.emit(I::Iload(0));
    h.emit(I::Iconst(2));
    h.emit(I::Irem);
    h.branch_if(CmpKind::Ne, odd);
    h.emit(I::Iconst(10));
    h.emit(I::Ireturn);
    h.bind(odd);
    h.emit(I::Iconst(20));
    h.emit(I::Ireturn);
    let helper = h.finish();
    let mut m = pb.method(c, "main", 0, false);
    let head = m.label();
    let done = m.label();
    m.emit(I::Iconst(120));
    m.emit(I::Istore(0));
    m.bind(head);
    m.emit(I::Iload(0));
    m.branch_if(CmpKind::Le, done);
    m.emit(I::Iload(0));
    m.emit(I::InvokeStatic(helper));
    m.emit(I::Pop);
    m.emit(I::Iinc(0, -1));
    m.jump(head);
    m.bind(done);
    m.emit(I::Return);
    let main = m.finish();
    pb.finish_with_entry(main).unwrap()
}

fn lossy_run(p: &Program, threads: usize) -> RunResult {
    let entry = p.entry();
    let specs: Vec<ThreadSpec> = (0..threads)
        .map(|_| ThreadSpec {
            method: entry,
            args: vec![],
        })
        .collect();
    Jvm::new(JvmConfig {
        cores: 2,
        pt_buffer_capacity: 640,
        drain_bytes_per_kilocycle: 6,
        c1_threshold: u64::MAX,
        c2_threshold: u64::MAX,
        ..JvmConfig::default()
    })
    .run_threads(p, &specs)
}

fn analyze_with(
    p: &Program,
    r: &RunResult,
    parallelism: Option<usize>,
) -> (JPortalReport, TelemetryReport) {
    let jp = JPortal::with_config(
        p,
        JPortalConfig {
            parallelism,
            ..JPortalConfig::default()
        },
    );
    let report = jp.analyze(r.traces.as_ref().unwrap(), &r.archive);
    (report, jp.telemetry())
}

/// Every `Exact` instrument's reading.
fn exact_metrics(t: &TelemetryReport) -> BTreeMap<String, Vec<u64>> {
    exact_view(&t.metrics, &[])
}

#[test]
fn counters_and_span_tree_match_across_parallelism() {
    let p = workload();
    let r = lossy_run(&p, 2);
    let traces = r.traces.as_ref().unwrap();
    assert!(
        traces.per_core.iter().any(|t| !t.losses.is_empty()),
        "workload must lose data for the test to mean anything"
    );

    let (report_seq, tel_seq) = analyze_with(&p, &r, Some(1));
    let (report_par, tel_par) = analyze_with(&p, &r, None);

    assert_eq!(report_seq, report_par, "report determinism contract");
    assert_eq!(
        exact_metrics(&tel_seq),
        exact_metrics(&tel_par),
        "every Exact instrument must read the same at any worker count"
    );
    assert_eq!(
        tel_seq.span_structure(),
        tel_par.span_structure(),
        "span categories, names, parents and args must be identical"
    );

    // The excluded instruments must still be recorded in both (values
    // free to differ), declared where they are registered.
    for t in [&tel_seq, &tel_par] {
        assert!(t.metrics.counter("cfg.dfa.hits").is_some());
        for name in [
            "counter.cfg.dfa.hits",
            "counter.lock.cfg.dfa_cache.acquires",
        ] {
            assert_eq!(t.metrics.determinism(name), Determinism::Scheduling);
        }
    }

    // Spot checks: recovery actually ran and was counted, and the span
    // tree has the per-stage spans hanging off the pipeline root.
    let holes = tel_seq.metrics.counter("core.recover.holes").unwrap();
    assert!(holes > 0, "lossy run must produce holes");
    let fills = tel_seq
        .span_structure()
        .iter()
        .filter(|s| s.contains("recover/assemble_thread/fill_hole"))
        .count();
    assert_eq!(fills as u64, holes, "one fill span per hole");
    assert!(tel_seq
        .span_structure()
        .iter()
        .any(|s| s.starts_with("decode/analyze/decode_segment")));
}

/// An instrument whose readings differ between worker counts passes
/// the comparison once it is registered `Scheduling`, and fails it when
/// registered `Exact`: the class, not a name list, decides.
#[test]
fn scheduling_instruments_are_outside_the_comparison() {
    let p = workload();
    let r = lossy_run(&p, 2);
    let traces = r.traces.as_ref().unwrap();
    let run = |workers: usize, class: Determinism| {
        let jp = JPortal::with_config(
            &p,
            JPortalConfig {
                parallelism: Some(workers),
                ..JPortalConfig::default()
            },
        );
        jp.analyze(traces, &r.archive);
        // Driven differently at one and at N workers.
        jp.obs()
            .registry()
            .counter_as("test.per_worker", class)
            .add(workers as u64 * 7);
        jp.telemetry()
    };
    let (one, n) = (
        run(1, Determinism::Scheduling),
        run(3, Determinism::Scheduling),
    );
    assert_ne!(
        one.metrics.counter("test.per_worker"),
        n.metrics.counter("test.per_worker")
    );
    assert_eq!(exact_metrics(&one), exact_metrics(&n));
    let (one, n) = (run(1, Determinism::Exact), run(3, Determinism::Exact));
    assert_ne!(exact_metrics(&one), exact_metrics(&n));
}

#[test]
fn collection_stats_are_input_determined() {
    let p = workload();
    let r = lossy_run(&p, 2);
    let (a, _) = analyze_with(&p, &r, Some(1));
    let (b, _) = analyze_with(&p, &r, Some(4));
    // `collection` is a pure function of the input traces, so unlike the
    // dfa cache it is bit-identical too (Debug covers every field).
    assert_eq!(format!("{:?}", a.collection), format!("{:?}", b.collection));
    assert!(a.collection.total_lost_bytes() > 0);
    assert_eq!(
        a.collection.per_core.len(),
        r.traces.as_ref().unwrap().per_core.len()
    );
}

#[test]
fn report_equality_ignores_telemetry_fields() {
    let p = workload();
    let r = lossy_run(&p, 1);
    let (mut a, _) = analyze_with(&p, &r, Some(1));
    let (b, _) = analyze_with(&p, &r, Some(1));
    // Perturb only the telemetry fields: equality must not notice.
    a.dfa_cache.hits += 1000;
    a.collection.end_ts += 1;
    assert_eq!(a, b, "equality is defined over threads only");
    // But a real difference in the reconstruction must be seen.
    a.threads[0].entries.pop();
    assert_ne!(a, b);
}

#[test]
fn disabled_observability_records_nothing_and_changes_nothing() {
    let p = workload();
    let r = lossy_run(&p, 1);
    let jp = JPortal::with_config(
        &p,
        JPortalConfig {
            observability: false,
            ..JPortalConfig::default()
        },
    );
    let dark = jp.analyze(r.traces.as_ref().unwrap(), &r.archive);
    let t = jp.telemetry();
    assert!(t.spans.is_empty());
    assert!(t.metrics.counters.is_empty());
    assert!(t.metrics.gauges.is_empty());
    assert!(t.metrics.sketches.is_empty());
    let (lit, _) = analyze_with(&p, &r, None);
    assert_eq!(dark, lit, "observability must never change the report");
}
