//! Hole-level recovery fan-out: a thread's holes fill in parallel, yet
//! the report, the decision journal and the span tree are identical at
//! every worker count.
//!
//! Two lossy inputs under the Figure 7 preset (ring 2272 B, drain 158
//! B/kcycle, one JIT debug record in ten lost): single-threaded fop, where
//! every idle worker goes to the holes, and three-threaded h2, where the
//! thread fan-out and the hole fan-out share the workers.

use jportal::core::{JPortal, JPortalConfig, JPortalReport};
use jportal::jvm::{JitConfig, Jvm, JvmConfig, RunResult};
use jportal::obs::TelemetryReport;
use jportal::workloads::{workload_by_name, Workload};

const FIG7_BUFFER: usize = 2272;
const FIG7_DRAIN: u64 = 158;

fn lossy_run(w: &Workload) -> RunResult {
    let r = Jvm::new(JvmConfig {
        cores: if w.multithreaded { 2 } else { 1 },
        pt_buffer_capacity: FIG7_BUFFER,
        drain_bytes_per_kilocycle: FIG7_DRAIN,
        jit: JitConfig {
            debug_degrade: 0.10,
            ..JitConfig::default()
        },
        ..JvmConfig::default()
    })
    .run_threads(&w.program, &w.threads);
    assert!(r.thread_errors.is_empty(), "{}: thread errors", w.name);
    r
}

/// Everything one analysis leaves behind that must not depend on the
/// worker count.
struct Outcome {
    report: JPortalReport,
    /// `Debug` text of the report with the scheduling-dependent DFA
    /// cache counters zeroed: covers quality and collection too.
    debug: String,
    journal: String,
    /// See [`span_structure`].
    spans: Vec<String>,
}

fn analyze(w: &Workload, r: &RunResult, parallelism: usize) -> Outcome {
    let jp = JPortal::with_config(
        &w.program,
        JPortalConfig {
            parallelism: Some(parallelism),
            ..JPortalConfig::default()
        },
    );
    let report = jp.analyze(r.traces.as_ref().expect("traced run"), &r.archive);
    let snap = jp.obs().journal_snapshot();
    assert_eq!(snap.dropped, 0, "{}: journal ring dropped records", w.name);
    let mut zeroed = report.clone();
    zeroed.dfa_cache = Default::default();
    Outcome {
        debug: format!("{zeroed:?}"),
        report,
        journal: snap.to_jsonl(),
        spans: span_structure(&jp.telemetry()),
    }
}

/// Sorted timing-free span structure. `prewarm` only exists with more
/// than one worker, and `segregate` records the configured worker count
/// as an argument: the one is dropped, the other masked.
fn span_structure(t: &TelemetryReport) -> Vec<String> {
    let mut v: Vec<String> = t
        .spans
        .iter()
        .filter(|s| s.name != "prewarm")
        .map(|s| {
            let mut s = s.clone();
            s.args.retain(|&(key, _)| key != "workers");
            s.structure()
        })
        .collect();
    v.sort();
    v
}

/// Analyzes `name@scale` at one, two and four workers. Every thread must
/// have at least `min_holes` holes, so each thread's fan-out really runs.
fn check(name: &str, scale: u32, min_holes: usize) {
    let w = workload_by_name(name, scale);
    let r = lossy_run(&w);
    let one = analyze(&w, &r, 1);
    for t in &one.report.threads {
        assert!(
            t.holes.len() >= min_holes,
            "{name}: thread {} has {} holes, the fan-out needs at least {min_holes}",
            t.thread,
            t.holes.len()
        );
    }
    let holes: usize = one.report.threads.iter().map(|t| t.holes.len()).sum();
    let fill_spans = one
        .spans
        .iter()
        .filter(|s| s.starts_with("recover/assemble_thread/fill_hole"))
        .count();
    assert_eq!(fill_spans, holes, "{name}: one fill span per hole");
    assert_eq!(
        one.journal.matches("\"hole_opened\"").count(),
        holes,
        "{name}: one journaled opening per hole"
    );

    for workers in [2, 4] {
        let many = analyze(&w, &r, workers);
        assert_eq!(one.report, many.report, "{name}: report at {workers}");
        assert_eq!(one.debug, many.debug, "{name}: report text at {workers}");
        assert_eq!(one.journal, many.journal, "{name}: journal at {workers}");
        assert_eq!(one.spans, many.spans, "{name}: span tree at {workers}");
    }
}

#[test]
fn single_thread_holes_fill_identically_at_any_worker_count() {
    // 133 holes on one thread: every worker goes to the holes.
    check("fop", 5, 8);
}

#[test]
fn multi_thread_holes_fill_identically_at_any_worker_count() {
    // Three threads with 7-8 holes each: at two workers the thread
    // fan-out takes every worker, at four the holes fan out too.
    let w = workload_by_name("h2", 2);
    assert_eq!(w.threads.len(), 3);
    check("h2", 2, 2);
}
