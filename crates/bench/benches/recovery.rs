//! The §5 ablation: Algorithm 3 (naive per-instruction CS search) vs
//! Algorithm 4 (three-tier abstraction-guided search with pruning).
//!
//! Both search every hole of fop@5 under the Figure 7 preset (ring
//! 2272 B, drain 158 B/kcycle, the evaluation harness's JVM posture):
//! 133 holes whose anchors have up to thousands of candidates each, the
//! regime lossy analysis spends its recovery time in.

use criterion::{criterion_group, criterion_main, Criterion};
use jportal_bench::harness;
use jportal_cfg::Icfg;
use jportal_core::decode_segment;
use jportal_core::threads::segregate;
use jportal_core::{Recovery, RecoveryConfig, RecoveryStats, SegmentView};
use jportal_jvm::runtime::Jvm;
use jportal_workloads::workload_by_name;

const FIG7_BUFFER: usize = 2272;
const FIG7_DRAIN: u64 = 158;

/// fop@5's one thread as recovery sees it: decoded segments, empty ones
/// dropped with their loss carried onto the next (the pipeline's
/// compaction). Nodes are left unprojected; the search reads symbols
/// only.
fn lossy_thread() -> (jportal_bytecode::Program, Vec<SegmentView>) {
    let w = workload_by_name("fop", 5);
    let r = Jvm::new(harness::jvm_config(
        &w,
        true,
        Some(FIG7_BUFFER),
        Some(FIG7_DRAIN),
    ))
    .run_threads(&w.program, &w.threads);
    let traces = r.traces.as_ref().expect("traced run");
    let per_thread = segregate(traces);
    assert_eq!(per_thread.len(), 1, "fop runs one thread");
    let pieces = per_thread.into_values().next().unwrap_or_default();
    let mut views = Vec::new();
    let mut pending_loss = None;
    for piece in &pieces {
        let d = decode_segment(&w.program, &r.archive, &piece.segment);
        if d.loss_before.is_some() {
            pending_loss = d.loss_before;
        }
        if d.events.is_empty() {
            continue;
        }
        views.push(SegmentView {
            nodes: vec![None; d.events.len()],
            breaks: Vec::new(),
            events: d.events,
            loss_before: pending_loss.take(),
        });
    }
    (w.program, views)
}

fn bench_recovery(c: &mut Criterion) {
    let (program, views) = lossy_thread();
    let icfg = Icfg::build(&program);
    let rec = Recovery::new(&program, &icfg, &views, RecoveryConfig::default());
    // The incomplete segment before every hole.
    let holes: Vec<usize> = (1..views.len())
        .filter(|&i| views[i].loss_before.is_some())
        .map(|i| i - 1)
        .collect();
    assert!(holes.len() >= 100, "fop@5 has {} holes", holes.len());

    // Both algorithms walk the same candidates; only what each one
    // computes per candidate differs.
    let (mut naive, mut guided) = (RecoveryStats::default(), RecoveryStats::default());
    for &i in &holes {
        rec.search_naive(i, &mut naive);
        rec.search_abstraction(i, &mut guided);
    }
    assert_eq!(naive.candidates, guided.candidates, "candidate counts");
    assert!(guided.pruned_tier1 > 0, "tier 1 prunes");
    println!(
        "recovery: {} holes, {} candidates, {} pruned at tier 1, {} at tier 2",
        holes.len(),
        guided.candidates,
        guided.pruned_tier1,
        guided.pruned_tier2
    );

    let mut g = c.benchmark_group("recovery");
    g.bench_function("algorithm3_naive_search", |b| {
        b.iter(|| {
            let mut stats = RecoveryStats::default();
            let mut found = 0;
            for &i in &holes {
                found += rec.search_naive(i, &mut stats).len();
            }
            found
        })
    });
    g.bench_function("algorithm4_abstraction_guided", |b| {
        b.iter(|| {
            let mut stats = RecoveryStats::default();
            let mut found = 0;
            for &i in &holes {
                found += rec.search_abstraction(i, &mut stats).len();
            }
            found
        })
    });
    g.finish();
}

criterion_group!(benches, bench_recovery);
criterion_main!(benches);
