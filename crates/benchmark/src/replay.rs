//! Stage-by-stage replay of [`JPortal::analyze`] at one worker, through
//! the public stage functions, with a span around each call.
//!
//! The replay makes the same calls in the same order as the pipeline at
//! `parallelism: Some(1)` — segregate, then decode and project every
//! piece, then per thread compaction, recovery indexing, one fill per
//! hole, entry emission and lint — and must produce the same
//! `ThreadReport`s. That equality is what lets per-stage times stand for
//! the shipped pipeline's.

use jportal_analysis::{lint_steps_summarized, LintStep};
use jportal_bytecode::Program;
use jportal_cfg::abs::{AbstractNfa, DfaCacheStats};
use jportal_cfg::MatchScratch;
use jportal_core::pipeline::ThreadReport;
use jportal_core::recover::FillScratch;
use jportal_core::threads::segregate_with_stats;
use jportal_core::{
    decode_segment, reconstruct::project_segment_with, Fill, JPortal, JPortalConfig,
    ProjectionStats, Recovery, RecoveryStats, SegmentView, TraceEntry, TraceOrigin,
};
use jportal_ipt::{CollectedTraces, DecodeStats};
use jportal_jvm::MetadataArchive;

use crate::spans::SpanLog;

/// Span names of the pipeline stages, in pipeline order. Their self
/// times sum to the replay's attributed time; everything else (the root,
/// the per-thread wrapper) is bookkeeping.
pub const STAGES: [&str; 7] = [
    "core.segregate",
    "core.decode",
    "core.project",
    "core.recover.index",
    "core.recover.fill",
    "core.assemble.emit",
    "analysis.lint",
];

/// What one replay produced besides its spans.
#[derive(Debug)]
pub struct Replay {
    /// The reconstructed threads; must equal the pipeline's report.
    pub threads: Vec<ThreadReport>,
    /// Thread pieces after segregation.
    pub pieces: usize,
    /// Decoded bytecode events.
    pub events: usize,
    /// Steps handed to the linter.
    pub lint_steps: usize,
    /// Packet-decode statistics from segregation.
    pub decode: DecodeStats,
    /// The replay's own abstract-DFA cache counters.
    pub dfa: DfaCacheStats,
    /// Compacted segments of every thread that had holes: the input of
    /// [`StageDriver::fill_holes`].
    pub lossy_threads: Vec<Vec<SegmentView>>,
}

/// Drives the pipeline's stages one call at a time (see the module
/// docs).
pub struct StageDriver<'a, 'p> {
    /// The analyzer (its ICFG, static-fact index and summaries).
    pub jportal: &'a JPortal<'p>,
    /// The configuration `jportal` was built with.
    pub config: &'a JPortalConfig,
    /// The analyzed program.
    pub program: &'p Program,
}

impl StageDriver<'_, '_> {
    /// Replays one analysis, recording spans into `log` under a fresh
    /// operation.
    pub fn replay(
        &self,
        traces: &CollectedTraces,
        archive: &MetadataArchive,
        log: &mut SpanLog,
    ) -> Replay {
        let (program, jp, config) = (self.program, self.jportal, self.config);
        let icfg = jp.icfg();
        log.begin_op();
        let root = log.open("pipeline.replay");
        let anfa = AbstractNfa::new(program, icfg);

        let (per_thread, decode) = log.time("core.segregate", || segregate_with_stats(traces, 1));
        let mut thread_pieces: Vec<_> = per_thread.into_iter().collect();
        thread_pieces.sort_by_key(|(t, _)| *t);

        let mut scratch = MatchScratch::new();
        let mut grouped = Vec::with_capacity(thread_pieces.len());
        let (mut pieces, mut events) = (0, 0);
        for (thread, thread_pieces) in &thread_pieces {
            let mut views = Vec::with_capacity(thread_pieces.len());
            let mut stats = ProjectionStats::default();
            for piece in thread_pieces {
                let decoded = log.time("core.decode", || {
                    decode_segment(program, archive, &piece.segment)
                });
                let proj = log.time("core.project", || {
                    project_segment_with(
                        program,
                        icfg,
                        &anfa,
                        &decoded.events,
                        &config.projection,
                        jp.summaries(),
                        &mut scratch,
                    )
                });
                stats.merge(&proj.stats);
                events += decoded.events.len();
                views.push(SegmentView {
                    events: decoded.events,
                    nodes: proj.nodes,
                    breaks: proj.breaks,
                    loss_before: decoded.loss_before,
                });
            }
            pieces += thread_pieces.len();
            grouped.push((*thread, views, stats));
        }

        let mut threads = Vec::with_capacity(grouped.len());
        let mut lossy_threads = Vec::new();
        let mut lint_steps = 0;
        for (thread, views, projection) in grouped {
            let assemble = log.open("core.assemble");
            let compacted = log.time("core.assemble.emit", || compact(views));
            let recovery = log.time("core.recover.index", || self.recovery(&compacted, 1));
            let mut recovery_stats = RecoveryStats::default();
            let mut holes = Vec::new();
            let mut fills: Vec<Option<Fill>> = (0..compacted.len()).map(|_| None).collect();
            let mut fill_scratch = FillScratch::new();
            for i in 1..compacted.len() {
                let Some(loss) = compacted[i].loss_before else {
                    continue;
                };
                holes.push((loss.first_ts, loss.last_ts));
                if !config.disable_recovery {
                    fills[i] = Some(log.time("core.recover.fill", || {
                        recovery.fill_hole_with(
                            &compacted,
                            i - 1,
                            i,
                            Some(loss),
                            &mut recovery_stats,
                            &mut fill_scratch,
                        )
                    }));
                }
            }
            drop(recovery);
            let (entries, steps) = log.time("core.assemble.emit", || emit(jp, &compacted, fills));
            lint_steps += steps.len();
            let lint = if config.lint {
                log.time("analysis.lint", || {
                    lint_steps_summarized(program, icfg, &steps, jp.summaries())
                })
            } else {
                Vec::new()
            };
            log.close(assemble);
            let segments = compacted.len();
            if !holes.is_empty() {
                lossy_threads.push(compacted);
            }
            threads.push(ThreadReport {
                thread,
                entries,
                holes,
                projection,
                recovery: recovery_stats,
                segments,
                lint,
            });
        }
        let dfa = anfa.dfa_stats();
        log.close(root);
        Replay {
            threads,
            pieces,
            events,
            lint_steps,
            decode,
            dfa,
            lossy_threads,
        }
    }

    /// Refills every hole of `lossy_threads` with candidate scoring fanned
    /// out over `workers`, one `core.recover.fill` span per hole under a
    /// fresh operation, and returns the recovery statistics, which are
    /// identical at any worker count.
    pub fn fill_holes(
        &self,
        lossy_threads: &[Vec<SegmentView>],
        workers: usize,
        log: &mut SpanLog,
    ) -> RecoveryStats {
        let mut stats = RecoveryStats::default();
        log.begin_op();
        for compacted in lossy_threads {
            let recovery = self.recovery(compacted, workers);
            let mut scratch = FillScratch::new();
            for i in 1..compacted.len() {
                if let Some(loss) = compacted[i].loss_before {
                    log.time("core.recover.fill", || {
                        recovery.fill_hole_with(
                            compacted,
                            i - 1,
                            i,
                            Some(loss),
                            &mut stats,
                            &mut scratch,
                        )
                    });
                }
            }
        }
        stats
    }

    /// The recovery engine over one thread's compacted segments, set up
    /// as the pipeline sets it up.
    fn recovery(&self, compacted: &[SegmentView], workers: usize) -> Recovery<'_> {
        let jp = self.jportal;
        let recovery = Recovery::new(self.program, jp.icfg(), compacted, self.config.recovery)
            .with_workers(workers)
            .with_dominators(jp.analysis());
        match jp.summaries() {
            Some(table) => recovery.with_summaries(table),
            None => recovery,
        }
    }
}

/// Drops empty segments, moving their loss marks onto the next one.
fn compact(views: Vec<SegmentView>) -> Vec<SegmentView> {
    let mut compacted = Vec::new();
    let mut pending_loss = None;
    for mut v in views {
        if v.loss_before.is_some() {
            pending_loss = v.loss_before;
        }
        if v.events.is_empty() {
            continue;
        }
        v.loss_before = pending_loss.take();
        compacted.push(v);
    }
    compacted
}

/// Emits the thread's timeline: each hole's fill, then the segment after
/// it, with one lint step per entry.
fn emit(
    jp: &JPortal<'_>,
    compacted: &[SegmentView],
    fills: Vec<Option<Fill>>,
) -> (Vec<TraceEntry>, Vec<LintStep>) {
    let mut entries = Vec::new();
    let mut steps = Vec::new();
    for (seg, fill) in compacted.iter().zip(fills) {
        if let Some(fill) = fill {
            entries.extend(fill.entries);
            steps.extend(fill.steps);
        }
        for (idx, (e, node)) in seg.events.iter().zip(&seg.nodes).enumerate() {
            let (method, bci) = match node {
                Some(n) => {
                    let (m, b) = jp.icfg().location(*n);
                    (Some(m), Some(b))
                }
                None => (e.method, e.bci),
            };
            entries.push(TraceEntry {
                op: e.sym.op,
                method,
                bci,
                ts: e.ts,
                origin: TraceOrigin::Decoded,
            });
            steps.push(LintStep {
                node: *node,
                op: e.sym.op,
                dir: e.sym.dir,
                boundary: idx == 0 || seg.breaks.binary_search(&idx).is_ok(),
                lossy: idx == 0,
            });
        }
    }
    (entries, steps)
}
