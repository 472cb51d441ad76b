//! The two passes over one workload.
//!
//! * The **end-to-end pass** times `Jvm::run_threads`,
//!   `JPortal::with_config` and `JPortal::analyze` from outside, with no
//!   spans and the counting allocator's gate closed.
//! * The **traced pass** replays the pipeline stage by stage (see
//!   [`crate::replay`]) and derives the per-layer metrics from its spans,
//!   plus the paired comparisons (collection on/off, one worker against
//!   two, observability and summaries on/off) that no single span shows.
//!
//! Load shape: closed loop, one caller, one process. Calls run in
//! sequence; each kind of call is warmed up, then repeats until its share
//! of the time budget is spent (with a floor on the sample count). The
//! end-to-end pass warms up with three calls of each kind, the traced
//! pass with one. Every operation is checked: a panic, a report that
//! differs from the workload's one-worker reference, a lint diagnostic or
//! a failed JVM thread counts it as failed.

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use jportal_analysis::{AnalysisIndex, Rta, SummaryTable};
use jportal_cfg::Icfg;
use jportal_core::accuracy::breakdown;
use jportal_core::pipeline::ThreadReport;
use jportal_core::{JPortal, JPortalConfig, JPortalReport, RecoveryStats};
use jportal_ipt::{decode_packets_into, CollectedTraces, DecodeScratch};
use jportal_jvm::Jvm;

use crate::alloc::{self, mib};
use crate::metrics::Values;
use crate::replay::{Replay, StageDriver, STAGES};
use crate::spans::SpanLog;
use crate::stats::{median, quantile, ratio};
use crate::workloads::{same_traces, Collection, Subject};

/// Workers for `analyze` in the end-to-end pass (the reference machine's
/// core count).
pub const WORKERS: usize = 2;
/// Untimed calls before each timed loop of the end-to-end pass.
const WARMUPS: usize = 3;
/// Fewest samples any timed loop takes, whatever the budget.
const MIN_SAMPLES: usize = 5;
/// Gated (allocation-counting) analyses behind the memory metrics. Their
/// mean, not median, is reported: at two workers the peak is bimodal
/// (which threads' buffers overlap depends on scheduling, a 6 MiB step on
/// clean-lusearch), and a median of a near-even two-mode sample flips
/// between modes from run to run.
const MEMORY_SAMPLES: usize = 5;

/// Which pass to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// End-to-end metrics, tracing off.
    EndToEnd,
    /// Per-layer metrics from the stage replay.
    Traced,
}

/// What a pass measured.
#[derive(Debug)]
pub struct Outcome {
    /// Metric values by name: exactly the pass's declared metrics.
    pub values: Values,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The traced pass's span log.
    pub spans: Option<SpanLog>,
    /// The end-to-end pass's accuracy over each analog's first collection
    /// only (the published configuration at the default seed).
    pub first_collection_accuracy: Option<f64>,
}

/// Why an operation did not count.
enum Failure {
    /// The operation failed; the pass goes on.
    Op(String),
    /// A check the benchmark's own numbers depend on failed; the pass
    /// stops with an error.
    Fatal(String),
}

/// Counts operations and their failures.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    fatal: Option<String>,
}

impl Tally {
    /// Runs one operation, counting a panic or an `Err` as a failure.
    fn op<R>(&mut self, what: &str, f: impl FnOnce() -> Result<R, Failure>) -> Option<R> {
        self.attempted += 1;
        let why = match catch_unwind(AssertUnwindSafe(f)) {
            Ok(Ok(r)) => return Some(r),
            Ok(Err(Failure::Op(why))) => why,
            Ok(Err(Failure::Fatal(why))) => {
                self.fatal.get_or_insert_with(|| format!("{what}: {why}"));
                why
            }
            Err(_) => "panicked".to_string(),
        };
        self.failed += 1;
        if self.failed <= 3 {
            eprintln!("operation failed: {what}: {why}");
        }
        None
    }

    fn finish(self, values: Values, spans: Option<SpanLog>) -> Result<Outcome, String> {
        match self.fatal {
            Some(why) => Err(why),
            None => Ok(Outcome {
                values,
                attempted: self.attempted,
                failed: self.failed,
                spans,
                first_collection_accuracy: None,
            }),
        }
    }
}

/// Runs `one` at least [`MIN_SAMPLES`] times and until `until`, keeping
/// the samples of the calls that succeeded.
fn sample<T>(until: Instant, mut one: impl FnMut() -> Option<T>) -> Vec<T> {
    let mut samples = Vec::new();
    let mut calls = 0;
    while calls < MIN_SAMPLES || Instant::now() < until {
        calls += 1;
        samples.extend(one());
    }
    samples
}

/// Hands out consecutive shares of a time budget.
struct Budget {
    next: Instant,
    total: Duration,
}

impl Budget {
    fn new(seconds: f64) -> Budget {
        Budget {
            next: Instant::now(),
            total: Duration::from_secs_f64(seconds),
        }
    }

    /// The deadline of the next `share` of the budget.
    fn share(&mut self, share: f64) -> Instant {
        self.next = self.next.max(Instant::now()) + self.total.mul_f64(share);
        self.next
    }
}

fn config(workers: usize) -> JPortalConfig {
    JPortalConfig {
        parallelism: Some(workers),
        ..JPortalConfig::default()
    }
}

/// One workload's inputs with an analyzer per analog.
struct Bench<'s> {
    subjects: &'s [Subject],
    analyzers: Vec<JPortal<'s>>,
}

impl<'s> Bench<'s> {
    fn new(subjects: &'s [Subject], config: JPortalConfig) -> Bench<'s> {
        Bench {
            subjects,
            analyzers: subjects
                .iter()
                .map(|s| JPortal::with_config(&s.workload.program, config))
                .collect(),
        }
    }

    /// Every collection with the analyzer for its analog.
    fn inputs(&self) -> impl Iterator<Item = (&JPortal<'s>, &'s Subject, &'s Collection)> {
        self.analyzers
            .iter()
            .zip(self.subjects)
            .flat_map(|(jp, s)| s.collections.iter().map(move |c| (jp, s, c)))
    }
}

/// Every collection of every analog, in order.
fn collections(subjects: &[Subject]) -> impl Iterator<Item = (&Subject, &Collection)> {
    subjects
        .iter()
        .flat_map(|s| s.collections.iter().map(move |c| (s, c)))
}

fn check_lint(report: &JPortalReport) -> Result<(), Failure> {
    let diagnostics: usize = report.threads.iter().map(|t| t.lint.len()).sum();
    if diagnostics > 0 {
        return Err(Failure::Op(format!("{diagnostics} lint diagnostics")));
    }
    Ok(())
}

/// One analysis of every collection: the summed `analyze` wall time, each
/// report checked against `reference` outside the timer.
fn analyze_all(tally: &mut Tally, bench: &Bench<'_>, reference: &[JPortalReport]) -> Option<f64> {
    tally.op("analyze", || {
        let mut seconds = 0.0;
        for ((jp, _, c), r) in bench.inputs().zip(reference) {
            let t0 = Instant::now();
            let report = jp.analyze(c.traces(), &c.run.archive);
            seconds += t0.elapsed().as_secs_f64();
            if report.threads != r.threads {
                return Err(Failure::Op(
                    "report differs from the parallelism-1 reference".into(),
                ));
            }
            check_lint(&report)?;
        }
        Ok(seconds)
    })
}

/// The workload's reference reports: `config` at one worker, one per
/// collection. A report with lint diagnostics counts as a failed
/// operation but still serves as the reference.
fn reference_reports(
    tally: &mut Tally,
    subjects: &[Subject],
    config: JPortalConfig,
) -> Result<Vec<JPortalReport>, String> {
    let bench = Bench::new(
        subjects,
        JPortalConfig {
            parallelism: Some(1),
            ..config
        },
    );
    bench
        .inputs()
        .map(|(jp, _, c)| {
            let mut report = None;
            tally.op("reference analysis", || {
                let r = report.insert(jp.analyze(c.traces(), &c.run.archive));
                check_lint(r)
            });
            report.ok_or_else(|| "the reference analysis panicked".to_string())
        })
        .collect()
}

/// One run of every collection's JVM: summed host wall time. Traced runs
/// record no ground truth, and their traces must equal the truth-on
/// run's.
fn collect_all(tally: &mut Tally, subjects: &[Subject], traced: bool) -> Option<f64> {
    tally.op("collect", || {
        let mut seconds = 0.0;
        for (s, c) in collections(subjects) {
            let jvm = Jvm::new(if traced { &c.traced } else { &s.untraced }.clone());
            let t0 = Instant::now();
            let run = jvm.run_threads(&s.workload.program, &s.workload.threads);
            seconds += t0.elapsed().as_secs_f64();
            if !run.thread_errors.is_empty() {
                return Err(Failure::Op(format!(
                    "thread errors {:?}",
                    run.thread_errors
                )));
            }
            if traced
                && !run
                    .traces
                    .as_ref()
                    .is_some_and(|t| same_traces(t, c.traces()))
            {
                return Err(Failure::Fatal(
                    "traces with ground truth off differ from the truth-on run".into(),
                ));
            }
        }
        Ok(seconds)
    })
}

/// One set-up of every analog's analyzer: summed `with_config` time.
fn setup_all(tally: &mut Tally, subjects: &[Subject], config: JPortalConfig) -> Option<f64> {
    tally.op("setup", || {
        let mut seconds = 0.0;
        for s in subjects {
            let t0 = Instant::now();
            let jp = JPortal::with_config(&s.workload.program, config);
            seconds += t0.elapsed().as_secs_f64();
            drop(black_box(jp));
        }
        Ok(seconds)
    })
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0), |(s, n), v| (s + v, n + 1));
    ratio(sum, n as f64)
}

/// `(exported, lost)` PT bytes of a collection.
fn pt_bytes(traces: &CollectedTraces) -> (u64, u64) {
    traces.per_core.iter().fold((0, 0), |(e, l), t| {
        (
            e + t.bytes.len() as u64,
            l + t.losses.iter().map(|x| x.lost_bytes).sum::<u64>(),
        )
    })
}

/// `(exported, lost)` PT bytes over every collection.
fn total_pt_bytes(subjects: &[Subject]) -> (u64, u64) {
    collections(subjects).fold((0, 0), |(e, l), (_, c)| {
        let (ce, cl) = pt_bytes(c.traces());
        (e + ce, l + cl)
    })
}

/// Ground-truth events whose instruction transfers control: the retired
/// branches PT had to record.
fn control_events(s: &Subject, c: &Collection) -> u64 {
    let program = &s.workload.program;
    let truth = &c.run.truth;
    truth
        .threads()
        .into_iter()
        .flat_map(|t| truth.trace(t))
        .filter(|e| program.method(e.method).insn(e.bci).is_control())
        .count() as u64
}

/// Runs one pass over a workload's generated inputs for about `seconds`
/// of measurement.
///
/// # Errors
///
/// A message when a hard check failed: the traced replay disagreed with
/// `analyze`, traces recorded without ground truth differed from the
/// truth-on run, or the reference analysis panicked.
pub fn run_pass(subjects: &[Subject], phase: Phase, seconds: f64) -> Result<Outcome, String> {
    match phase {
        Phase::EndToEnd => end_to_end(subjects, seconds),
        Phase::Traced => traced(subjects, seconds),
    }
}

fn end_to_end(subjects: &[Subject], seconds: f64) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let reference = reference_reports(&mut tally, subjects, config(1))?;
    let mut v = Values::new();

    // Outcomes of the inputs themselves, the same on every run.
    let mut reports = reference.iter();
    let accuracies: Vec<Vec<f64>> = subjects
        .iter()
        .map(|s| {
            let program = &s.workload.program;
            let reports = reports.by_ref().take(s.collections.len());
            let scored = s.collections.iter().zip(reports);
            scored
                .map(|(c, r)| breakdown(program, &c.run.truth, r).overall)
                .collect()
        })
        .collect();
    v.insert("accuracy", mean(accuracies.iter().flatten().copied()));
    let first_accuracy = mean(accuracies.iter().map(|a| a[0]));
    let mut slowdowns = Vec::new();
    for s in subjects {
        let base = tally.op("untraced run", || {
            let run =
                Jvm::new(s.untraced.clone()).run_threads(&s.workload.program, &s.workload.threads);
            Ok(run.wall_cycles)
        });
        for c in &s.collections {
            slowdowns.push(ratio(c.run.wall_cycles as f64, base.unwrap_or(0) as f64));
        }
    }
    v.insert("collect_slowdown_x", mean(slowdowns.into_iter()));
    let (exported, lost) = total_pt_bytes(subjects);
    let branches: u64 = collections(subjects)
        .map(|(s, c)| control_events(s, c))
        .sum();
    v.insert(
        "pt_bytes_per_branch",
        ratio((exported + lost) as f64, branches as f64),
    );

    let bench = Bench::new(subjects, config(WORKERS));
    for _ in 0..WARMUPS {
        collect_all(&mut tally, subjects, true);
        setup_all(&mut tally, subjects, config(WORKERS));
        analyze_all(&mut tally, &bench, &reference);
    }
    let mut budget = Budget::new(seconds);
    let collect = sample(budget.share(0.25), || {
        collect_all(&mut tally, subjects, true)
    });
    let setup = sample(budget.share(0.2), || {
        setup_all(&mut tally, subjects, config(WORKERS))
    });
    let analyze = sample(budget.share(0.55), || {
        analyze_all(&mut tally, &bench, &reference)
    });
    v.insert("collect_s", median(&collect));
    v.insert("setup_s", median(&setup));
    v.insert("analyze_s", median(&analyze));

    let (mut peak, mut allocated) = (Vec::new(), Vec::new());
    for _ in 0..MEMORY_SAMPLES {
        let (ok, usage) = alloc::counting(|| analyze_all(&mut tally, &bench, &reference));
        if ok.is_some() {
            peak.push(mib(usage.peak));
            allocated.push(mib(usage.allocated));
        }
    }
    v.insert("peak_heap_mib", mean(peak.into_iter()));
    v.insert("alloc_mib", mean(allocated.into_iter()));
    let mut outcome = tally.finish(v, None)?;
    outcome.first_collection_accuracy = Some(first_accuracy);
    Ok(outcome)
}

fn traced(subjects: &[Subject], seconds: f64) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let reference = reference_reports(&mut tally, subjects, config(1))?;
    let mut v = Values::new();
    let mut budget = Budget::new(seconds);
    collection_layer(&mut tally, subjects, budget.share(0.2), &mut v);
    packet_decode_layer(subjects, budget.share(0.03), &mut v);
    setup_layer(&mut tally, subjects, budget.share(0.07), &mut v);
    let mut log = SpanLog::new();
    let attributed = stage_layers(
        &mut tally,
        subjects,
        &reference,
        budget.share(0.35),
        &mut log,
        &mut v,
    )?;
    counters(&reference, &mut v);
    analysis_variants(
        &mut tally,
        subjects,
        &reference,
        budget.share(0.35),
        attributed,
        &mut v,
    )?;
    tally.finish(v, Some(log))
}

/// Paired untraced/traced JVM runs, alternating which goes first, and
/// what the collections hold.
fn collection_layer(tally: &mut Tally, subjects: &[Subject], until: Instant, v: &mut Values) {
    collect_all(tally, subjects, false);
    collect_all(tally, subjects, true);
    let mut round = 0;
    let pairs = sample(until, || {
        round += 1;
        let traced_first = round % 2 == 0;
        let first = collect_all(tally, subjects, traced_first);
        let second = collect_all(tally, subjects, !traced_first);
        let (off, on) = if traced_first {
            (second?, first?)
        } else {
            (first?, second?)
        };
        Some((off, on - off))
    });
    let (untraced, overhead): (Vec<f64>, Vec<f64>) = pairs.into_iter().unzip();
    v.insert("jvm.run_untraced_s", median(&untraced));
    v.insert("ipt.collect_overhead_s", median(&overhead));
    let (exported, lost) = total_pt_bytes(subjects);
    v.insert("ipt.pt_bytes", (exported + lost) as f64);
    v.insert(
        "ipt.lost_frac",
        ratio(lost as f64, (exported + lost) as f64),
    );
}

/// Packet decode of every core's exported bytes, alone.
fn packet_decode_layer(subjects: &[Subject], until: Instant, v: &mut Values) {
    let mut scratch = DecodeScratch::new();
    let mut decode_all = || {
        let t0 = Instant::now();
        for (_, c) in collections(subjects) {
            for core in &c.traces().per_core {
                black_box(decode_packets_into(&core.bytes, &mut scratch));
            }
        }
        Some(t0.elapsed().as_secs_f64())
    };
    decode_all();
    let times = sample(until, decode_all);
    let seconds = median(&times);
    let packets = scratch.stats().packets / (times.len() as u64 + 1);
    let (exported, _) = total_pt_bytes(subjects);
    v.insert("ipt.packets", packets as f64);
    v.insert("ipt.packet_decode_s", seconds);
    v.insert("ipt.packet_decode_mib_per_s", ratio(mib(exported), seconds));
}

/// The static analyses `JPortal::with_config` runs, one at a time.
fn setup_layer(tally: &mut Tally, subjects: &[Subject], until: Instant, v: &mut Values) {
    let mut once = || {
        tally.op("setup components", || {
            let mut t = [0.0; 4];
            for s in subjects {
                let p = &s.workload.program;
                let t0 = Instant::now();
                let rta = Rta::analyze(p);
                let t1 = Instant::now();
                let icfg = Icfg::build_with_targets(p, &rta);
                let t2 = Instant::now();
                let summaries = SummaryTable::build(p, &icfg);
                let t3 = Instant::now();
                let index = AnalysisIndex::build(p);
                let t4 = Instant::now();
                black_box((rta, icfg, summaries, index));
                for (acc, d) in t.iter_mut().zip([t1 - t0, t2 - t1, t3 - t2, t4 - t3]) {
                    *acc += d.as_secs_f64();
                }
            }
            Ok(t)
        })
    };
    once();
    let rounds = sample(until, once);
    let names = [
        "analysis.rta_s",
        "cfg.icfg_build_s",
        "analysis.summaries_build_s",
        "analysis.index_build_s",
    ];
    for (i, name) in names.into_iter().enumerate() {
        v.insert(
            name,
            median(&rounds.iter().map(|t| t[i]).collect::<Vec<_>>()),
        );
    }
}

/// Stage replays at one worker: per-stage self time, per-hole fill
/// times, the same holes refilled at two workers, and one allocation-
/// counting replay. Returns the summed median stage self time.
fn stage_layers(
    tally: &mut Tally,
    subjects: &[Subject],
    reference: &[JPortalReport],
    until: Instant,
    log: &mut SpanLog,
    v: &mut Values,
) -> Result<f64, String> {
    let w1 = config(1);
    let bench = Bench::new(subjects, w1);
    let replay_all = |tally: &mut Tally, log: &mut SpanLog| {
        tally.op("replay", || {
            let mut out = Vec::new();
            for ((jportal, s, c), r) in bench.inputs().zip(reference) {
                let stages = StageDriver {
                    jportal,
                    config: &w1,
                    program: &s.workload.program,
                };
                let replay = stages.replay(c.traces(), &c.run.archive, log);
                if replay.threads != r.threads {
                    return Err(Failure::Fatal(
                        "the stage replay differs from analyze".into(),
                    ));
                }
                // Refill the same holes with candidate scoring fanned out.
                let fill_w2 = stages.fill_holes(&replay.lossy_threads, WORKERS, log);
                if fill_w2 != recovery_totals(&replay.threads) {
                    return Err(Failure::Op("two-worker fills differ".into()));
                }
                out.push((log.op() - 1, log.op(), replay));
            }
            Ok(out)
        })
    };
    replay_all(tally, &mut SpanLog::new());

    let mut stage_seconds: Vec<[f64; STAGES.len()]> = Vec::new();
    let (mut fills, mut fill_w2) = (Vec::new(), Vec::new());
    let mut last = Vec::new();
    let rounds = sample(until, || replay_all(tally, log));
    for replays in &rounds {
        let mut row = [0.0; STAGES.len()];
        let mut w2 = 0.0;
        for &(op, w2_op, _) in replays {
            let costs = log.self_costs(op);
            for (acc, stage) in row.iter_mut().zip(STAGES) {
                *acc += costs.get(stage).map_or(0.0, |c| c.seconds);
            }
            fills.extend(log.durations(op, "core.recover.fill"));
            w2 += log
                .durations(w2_op, "core.recover.fill")
                .iter()
                .sum::<f64>();
        }
        stage_seconds.push(row);
        fill_w2.push(w2);
    }
    if let Some(replays) = rounds.into_iter().last() {
        last = replays;
    }
    if last.is_empty() {
        return Err("no stage replay succeeded".into());
    }
    let stage = |i: usize| median(&stage_seconds.iter().map(|r| r[i]).collect::<Vec<_>>());
    let names = [
        "core.segregate_s",
        "core.decode_s",
        "core.project_s",
        "core.recover.index_s",
        "core.recover.fill_s",
        "core.assemble.emit_s",
        "analysis.lint_s",
    ];
    for (i, name) in names.into_iter().enumerate() {
        v.insert(name, stage(i));
    }
    v.insert("core.recover.fill_p50_ms", quantile(&fills, 0.5) * 1e3);
    v.insert("core.recover.fill_p90_ms", quantile(&fills, 0.9) * 1e3);
    v.insert("core.recover.fill_w2_s", median(&fill_w2));

    // One gated replay charges allocations to stages.
    let (mem, _) = alloc::counting(|| replay_all(tally, log));
    let mut bytes = [0u64; STAGES.len()];
    for &(op, _, _) in mem.iter().flatten() {
        let costs = log.self_costs(op);
        for (acc, stage) in bytes.iter_mut().zip(STAGES) {
            *acc += costs.get(stage).map_or(0, |c| c.bytes);
        }
    }
    v.insert("core.segregate.alloc_mib", mib(bytes[0]));
    v.insert("core.decode.alloc_mib", mib(bytes[1]));
    v.insert("core.project.alloc_mib", mib(bytes[2]));
    v.insert("core.recover.alloc_mib", mib(bytes[3] + bytes[4]));
    v.insert("core.assemble.alloc_mib", mib(bytes[5]));
    v.insert("analysis.lint.alloc_mib", mib(bytes[6]));

    let sum = |f: fn(&Replay) -> u64| last.iter().map(|(_, _, r)| f(r)).sum::<u64>() as f64;
    let events = sum(|r| r.events as u64);
    let (hits, misses) = (sum(|r| r.dfa.hits), sum(|r| r.dfa.misses));
    v.insert("ipt.resync_bytes", sum(|r| r.decode.resync_bytes));
    v.insert("core.pieces", sum(|r| r.pieces as u64));
    v.insert("core.decode.events", events);
    v.insert("core.decode.events_per_s", ratio(events, stage(1)));
    v.insert("analysis.lint.steps", sum(|r| r.lint_steps as u64));
    v.insert("cfg.dfa.misses", misses);
    v.insert("cfg.dfa.hit_ratio", ratio(hits, hits + misses));
    Ok((0..STAGES.len()).map(stage).sum())
}

fn recovery_totals(threads: &[ThreadReport]) -> RecoveryStats {
    let mut total = RecoveryStats::default();
    for t in threads {
        total.merge(&t.recovery);
    }
    total
}

/// Projection, recovery and lint counters of the reference reports.
fn counters(reference: &[JPortalReport], v: &mut Values) {
    let total = |f: fn(&ThreadReport) -> usize| -> f64 {
        reference
            .iter()
            .flat_map(|r| &r.threads)
            .map(f)
            .sum::<usize>() as f64
    };
    v.insert("analysis.lint.diagnostics", total(|t| t.lint.len()));
    v.insert("core.project.matched", total(|t| t.projection.matched));
    v.insert("core.project.unmatched", total(|t| t.projection.unmatched));
    v.insert("core.project.restarts", total(|t| t.projection.restarts));
    v.insert(
        "core.project.candidates_tried",
        total(|t| t.projection.candidates_tried),
    );
    v.insert(
        "core.project.candidates_pruned",
        total(|t| t.projection.candidates_pruned),
    );
    v.insert(
        "core.project.summary_pruned",
        total(|t| t.projection.summary_pruned),
    );
    let holes = total(|t| t.recovery.holes);
    let from_cs = total(|t| t.recovery.filled_from_cs);
    v.insert("core.recover.holes", holes);
    v.insert("core.recover.filled_from_cs", from_cs);
    v.insert(
        "core.recover.filled_by_walk",
        total(|t| t.recovery.filled_by_walk),
    );
    v.insert("core.recover.unfilled", total(|t| t.recovery.unfilled));
    v.insert("core.recover.candidates", total(|t| t.recovery.candidates));
    v.insert(
        "core.recover.pruned_tier1",
        total(|t| t.recovery.pruned_tier1),
    );
    v.insert(
        "core.recover.pruned_tier2",
        total(|t| t.recovery.pruned_tier2),
    );
    v.insert(
        "core.recover.summary_pruned",
        total(|t| t.recovery.summary_pruned),
    );
    v.insert(
        "core.recover.fallback_walks",
        total(|t| t.recovery.fallback_walks),
    );
    v.insert("core.recover.cs_fill_rate", ratio(from_cs, holes));
}

/// Whole analyses under four configurations — two workers, one worker,
/// observability off, summaries off — rotating which goes first.
fn analysis_variants(
    tally: &mut Tally,
    subjects: &[Subject],
    reference: &[JPortalReport],
    until: Instant,
    attributed: f64,
    v: &mut Values,
) -> Result<(), String> {
    let variants = [
        config(WORKERS),
        config(1),
        JPortalConfig {
            observability: false,
            ..config(WORKERS)
        },
        JPortalConfig {
            summaries: false,
            ..config(WORKERS)
        },
    ];
    let benches = variants.map(|c| Bench::new(subjects, c));
    // Summaries change the pruning counters in the report, so the
    // summaries-off variant has a reference of its own.
    let summaries_off = reference_reports(tally, subjects, variants[3])?;
    let references = [reference, reference, reference, &summaries_off];
    for (bench, r) in benches.iter().zip(references) {
        analyze_all(tally, bench, r);
    }
    let mut times: [Vec<f64>; 4] = Default::default();
    let mut round = 0;
    sample(until, || {
        for k in 0..variants.len() {
            let i = (round + k) % variants.len();
            times[i].extend(analyze_all(tally, &benches[i], references[i]));
        }
        round += 1;
        Some(())
    });
    let [w2, w1, obs_off, summaries_off] = times.each_ref().map(|t| median(t));
    v.insert("pipeline.analyze_w1_s", w1);
    v.insert("pipeline.analyze_p90_s", quantile(&times[0], 0.9));
    v.insert("pipeline.analyze_samples", times[0].len() as f64);
    v.insert("pipeline.unattributed_frac", 1.0 - ratio(attributed, w1));
    v.insert("par.speedup", ratio(w1, w2));
    v.insert("obs.overhead_frac", ratio(w2, obs_off) - 1.0);
    v.insert(
        "analysis.summaries_overhead_frac",
        ratio(w2, summaries_off) - 1.0,
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{generate, WORKLOADS};
    use crate::DEFAULT_SEED;

    fn small_lossy() -> Vec<Subject> {
        generate(&WORKLOADS[2].at_scale(1), DEFAULT_SEED).expect("inputs")
    }

    #[test]
    fn a_report_that_differs_from_the_reference_counts_as_failed() {
        let subjects = small_lossy();
        let mut tally = Tally::default();
        let reference = reference_reports(&mut tally, &subjects, config(1)).expect("reference");
        let bench = Bench::new(&subjects, config(WORKERS));
        assert!(analyze_all(&mut tally, &bench, &reference).is_some());
        assert_eq!(tally.failed, 0, "a clean run fails nothing");

        let mut tampered = reference.clone();
        tampered[0].threads[0].entries.pop();
        assert!(analyze_all(&mut tally, &bench, &tampered).is_none());
        let panicking = tally.op("panics", || -> Result<(), Failure> { panic!("boom") });
        assert!(panicking.is_none());
        assert_eq!(tally.failed, 2);
        assert_eq!(tally.attempted, reference.len() as u64 + 3);
        assert!(tally.fatal.is_none(), "ordinary failures are not fatal");
    }

    #[test]
    fn traces_that_differ_from_the_truth_on_run_are_fatal() {
        let mut subjects = small_lossy();
        let traces = subjects[0].collections[0]
            .run
            .traces
            .as_mut()
            .expect("traced");
        traces.per_core[0].bytes.push(0);
        let mut tally = Tally::default();
        assert!(collect_all(&mut tally, &subjects, true).is_none());
        assert!(tally.fatal.is_some());
        assert!(tally.finish(Values::new(), None).is_err());
    }

    #[test]
    fn a_replay_that_differs_from_analyze_is_fatal() {
        let subjects = small_lossy();
        let mut tally = Tally::default();
        let mut reference = reference_reports(&mut tally, &subjects, config(1)).expect("reference");
        reference[0].threads[0].entries.pop();
        let mut log = SpanLog::new();
        let until = Instant::now();
        let outcome = stage_layers(
            &mut tally,
            &subjects,
            &reference,
            until,
            &mut log,
            &mut Values::new(),
        );
        assert!(outcome.is_err());
    }
}
