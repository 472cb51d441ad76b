//! The fan-outs inside one thread: a thread's holes fill in parallel,
//! and a long piece is cut into chunks that decode and project in
//! parallel, yet the report, the decision journal and the span tree are
//! identical at every worker count. The report is also identical with
//! observability off, where recovery skips more of tier 1's rejects
//! unvisited because no journal has to see them.
//!
//! Two lossy inputs under the Figure 7 preset (ring 2272 B, drain 158
//! B/kcycle, one JIT debug record in ten lost): single-threaded fop, where
//! every idle worker goes to the holes, and three-threaded h2, where the
//! thread fan-out and the hole fan-out share the workers. One lossless
//! input, sunflow at the smallest scale whose one piece is cut into four
//! chunks.

use jportal::core::{JPortal, JPortalConfig, JPortalReport};
use jportal::jvm::{JitConfig, Jvm, JvmConfig, RunResult};
use jportal::workloads::{workload_by_name, Workload};

const FIG7_BUFFER: usize = 2272;
const FIG7_DRAIN: u64 = 158;

fn lossy_run(w: &Workload) -> RunResult {
    run(w, FIG7_BUFFER, FIG7_DRAIN)
}

fn run(w: &Workload, buffer: usize, drain: u64) -> RunResult {
    let r = Jvm::new(JvmConfig {
        cores: if w.multithreaded { 2 } else { 1 },
        pt_buffer_capacity: buffer,
        drain_bytes_per_kilocycle: drain,
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
    /// See [`jportal::obs::TelemetryReport::span_structure`].
    spans: Vec<String>,
}

fn analyze(w: &Workload, r: &RunResult, parallelism: usize, observability: bool) -> Outcome {
    let jp = JPortal::with_config(
        &w.program,
        JPortalConfig {
            parallelism: Some(parallelism),
            observability,
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
        spans: jp.telemetry().span_structure(),
    }
}

/// Spans of `spans` whose structure starts with `prefix`.
fn count_spans(spans: &[String], prefix: &str) -> usize {
    spans.iter().filter(|s| s.starts_with(prefix)).count()
}

/// Analyzes `r` at one, two and four workers, and with observability off
/// at one and two: every analysis must match the one-worker one, which
/// is returned.
fn check_identical(name: &str, w: &Workload, r: &RunResult) -> Outcome {
    let one = analyze(w, r, 1, true);
    for workers in [2, 4] {
        let many = analyze(w, r, workers, true);
        assert_eq!(one.report, many.report, "{name}: report at {workers}");
        assert_eq!(one.debug, many.debug, "{name}: report text at {workers}");
        assert_eq!(one.journal, many.journal, "{name}: journal at {workers}");
        assert_eq!(one.spans, many.spans, "{name}: span tree at {workers}");
    }
    for workers in [1, 2] {
        let quiet = analyze(w, r, workers, false);
        assert_eq!(
            one.report, quiet.report,
            "{name}: report with observability off at {workers}"
        );
        assert_eq!(
            one.debug, quiet.debug,
            "{name}: report text with observability off at {workers}"
        );
        assert_eq!(
            quiet.journal.lines().count(),
            1,
            "{name}: only the summary line with observability off"
        );
    }
    one
}

/// Checks `name@scale` under the Figure 7 preset at every worker count.
/// Every thread must have at least `min_holes` holes, so each thread's
/// fan-out really runs.
fn check(name: &str, scale: u32, min_holes: usize) {
    let w = workload_by_name(name, scale);
    let r = lossy_run(&w);
    let one = check_identical(name, &w, &r);
    for t in &one.report.threads {
        assert!(
            t.holes.len() >= min_holes,
            "{name}: thread {} has {} holes, the fan-out needs at least {min_holes}",
            t.thread,
            t.holes.len()
        );
    }
    let holes: usize = one.report.threads.iter().map(|t| t.holes.len()).sum();
    assert_eq!(
        count_spans(&one.spans, "recover/assemble_thread/fill_hole"),
        holes,
        "{name}: one fill span per hole"
    );
    assert_eq!(
        count_spans(&one.spans, "recover/assemble_thread/index"),
        one.report.threads.len(),
        "{name}: one recovery index build per thread with holes"
    );
    assert_eq!(
        one.journal.matches("\"hole_opened\"").count(),
        holes,
        "{name}: one journaled opening per hole"
    );
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

#[test]
fn long_piece_chunks_identically_at_any_worker_count() {
    // Lossless sunflow@3 is one piece of 16,651 packets, cut into four
    // chunks that decode and project in parallel; the linter overlaps
    // entry emission whenever a second worker is free.
    let w = workload_by_name("sunflow", 3);
    let r = run(&w, 1 << 22, 1 << 20);
    let one = check_identical("sunflow", &w, &r);
    let [thread] = &one.report.threads[..] else {
        panic!("sunflow: one thread expected");
    };
    assert_eq!(thread.segments, 1, "sunflow: one lossless piece");
    assert_eq!(
        count_spans(&one.spans, "recover/assemble_thread/index"),
        0,
        "sunflow: a thread without holes builds no recovery index"
    );
    let count = |prefix: &str| {
        one.spans
            .iter()
            .filter(|s| s.starts_with(prefix) && s.contains("chunk="))
            .count()
    };
    let chunks = count("decode/analyze/decode_segment{");
    assert!(chunks >= 4, "sunflow: {chunks} chunks, expected at least 4");
    assert_eq!(
        count("project/analyze/project_segment{"),
        chunks,
        "sunflow: one projection span per chunk"
    );
    for stage in ["decode", "project"] {
        let stitch = format!("{stage}/analyze/stitch{{chunks={chunks}}}");
        assert!(one.spans.contains(&stitch), "sunflow: {stitch}");
    }
    let emit = format!(
        "recover/assemble_thread/emit{{entries={}}}",
        thread.entries.len()
    );
    assert!(one.spans.contains(&emit), "sunflow: {emit}");
    assert_eq!(
        one.journal.matches("\"segment_matched\"").count(),
        1,
        "sunflow: one journaled projection for the piece"
    );
}
