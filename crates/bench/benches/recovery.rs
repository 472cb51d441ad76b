//! The §5 ablation: Algorithm 3 (naive per-instruction CS search) vs
//! Algorithm 4 (three-tier abstraction-guided search with pruning).
//!
//! Both search every hole of fop@5 under the Figure 7 preset (ring
//! 2272 B, drain 158 B/kcycle, the evaluation harness's JVM posture):
//! 133 holes whose anchors have up to thousands of candidates each, the
//! regime lossy analysis spends its recovery time in.
//!
//! The second half pins the SWAR suffix kernel, which every tier of
//! Algorithm 4 scores with, against its scalar oracle on a long shared
//! tail: the same score (hard assert) and, with `JPORTAL_BENCH_GATE=1`,
//! at least a 2× speedup, or the process exits non-zero.

use criterion::{criterion_group, criterion_main, Criterion};
use jportal_bench::harness;
use jportal_bytecode::OpKind;
use jportal_cfg::{Icfg, Sym};
use jportal_core::decode_segment;
use jportal_core::pack::{suffix_scalar, suffix_swar, PackedSyms};
use jportal_core::threads::segregate;
use jportal_core::{Recovery, RecoveryConfig, RecoveryStats, SegmentView};
use jportal_jvm::runtime::Jvm;
use jportal_workloads::workload_by_name;

const FIG7_BUFFER: usize = 2272;
const FIG7_DRAIN: u64 = 158;

/// The gated floor on the SWAR kernel's speedup over the scalar oracle.
const SWAR_MIN_SPEEDUP: f64 = 2.0;

fn gate() -> bool {
    std::env::var("JPORTAL_BENCH_GATE")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// splitmix64, so the kernel's input streams are the same on every run.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

fn random_sym(rng: &mut Rng) -> Sym {
    let op = OpKind::ALL[(rng.next() as usize) % OpKind::ALL.len()];
    match rng.next() % 3 {
        0 => Sym::branch(op, true),
        1 => Sym::branch(op, false),
        _ => Sym::plain(op),
    }
}

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

/// SWAR against scalar on a 12,000-symbol shared tail behind 500 and 900
/// random symbols: the regime `tier_suffix` hits on every candidate whose
/// prefix agrees far past the kernel's eight-symbol word.
fn bench_swar(c: &mut Criterion) {
    let mut rng = Rng(0xDECAF);
    let tail: Vec<Sym> = (0..12_000).map(|_| random_sym(&mut rng)).collect();
    let mut a: Vec<Sym> = (0..500).map(|_| random_sym(&mut rng)).collect();
    let mut b: Vec<Sym> = (0..900).map(|_| random_sym(&mut rng)).collect();
    a.extend_from_slice(&tail);
    b.extend_from_slice(&tail);
    let (pa, pb) = (PackedSyms::from_syms(&a), PackedSyms::from_syms(&b));
    let swar = || {
        suffix_swar(
            &pa.ops,
            &pa.dirs,
            a.len(),
            &pb.ops,
            &pb.dirs,
            b.len(),
            usize::MAX,
        )
    };
    let scalar = || {
        suffix_scalar(
            &pa.ops,
            &pa.dirs,
            a.len(),
            &pb.ops,
            &pb.dirs,
            b.len(),
            usize::MAX,
        )
    };
    assert_eq!(swar(), scalar(), "SWAR and scalar kernels disagree");
    assert!(swar() >= tail.len(), "shared tail not found");

    let mut g = c.benchmark_group("swar");
    g.bench_function("suffix_swar", |bch| bch.iter(swar));
    g.bench_function("suffix_scalar", |bch| bch.iter(scalar));
    g.finish();

    let min_ns = |name: &str| {
        c.results
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("{name} not measured"))
            .min_ns
    };
    let (swar_ns, scalar_ns) = (min_ns("suffix_swar"), min_ns("suffix_scalar"));
    let speedup = scalar_ns / swar_ns.max(1.0);
    println!(
        "swar gate: {swar_ns:.0} ns against {scalar_ns:.0} ns scalar per call, \
         {speedup:.2}x (floor {SWAR_MIN_SPEEDUP}x)"
    );
    if gate() && speedup < SWAR_MIN_SPEEDUP {
        eprintln!("FAILED: SWAR speedup {speedup:.2}x below the {SWAR_MIN_SPEEDUP}x floor");
        std::process::exit(1);
    }
}

criterion_group!(benches, bench_recovery, bench_swar);
criterion_main!(benches);
