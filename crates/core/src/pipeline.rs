//! The end-to-end JPortal pipeline.
//!
//! Ties together trace segregation (§6), decoding (§3), ICFG projection
//! (§4) and missing-data recovery (§5) into one call:
//! [`JPortal::analyze`] takes what the online component collected — the
//! per-core PT traces with sideband and the exported machine-code
//! metadata — and produces, per thread, the reconstructed bytecode-level
//! control-flow trace with per-entry provenance.

use jportal_analysis::{
    lint_steps_journaled, lint_steps_summarized, AnalysisIndex, LintDiagnostic, LintStep,
    LintSummary, Rta, SummaryTable,
};
use jportal_bytecode::Program;
use jportal_cfg::abs::{AbstractNfa, DfaCacheStats};
use jportal_cfg::{Icfg, MatchScratch};
use jportal_ipt::{CollectedTraces, CollectionStats, LossRecord, ThreadId};
use jportal_jvm::MetadataArchive;
use jportal_obs::{
    Determinism, Gauge, JournalEvent, Obs, Sketch, TelemetryConfig, TelemetryPlane, TelemetryReport,
};
use std::cell::RefCell;
use std::ops::Range;

use crate::decode::{chunk_bounds, decode_chunk, stitch_chunks, BcSegment};
use crate::quality::{FillQuality, QualityReport, ThreadQuality};
use crate::reconstruct::{Projection, ProjectionConfig, ProjectionStats, Projector};
use crate::recover::{Fill, FillScratch, Recovery, RecoveryConfig, RecoveryStats, SegmentView};
pub use crate::recover::{TraceEntry, TraceOrigin};
use crate::threads::{segregate_with_stats, ThreadPiece};

/// Pipeline configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JPortalConfig {
    /// Projection (§4) tuning.
    pub projection: ProjectionConfig,
    /// Recovery (§5) tuning.
    pub recovery: RecoveryConfig,
    /// Disable recovery entirely (ablation: what decoding alone gives).
    pub disable_recovery: bool,
    /// Build the ICFG over RTA-refined virtual-call targets instead of
    /// plain CHA. Sound for traces produced by executions rooted at
    /// [`Program::entry`] (call sites in methods RTA cannot reach keep
    /// their full CHA target set, so even foreign roots only lose the
    /// refinement, never correctness). Shrinks NFA nondeterminism during
    /// projection and the recovery search space.
    pub devirtualize: bool,
    /// Run the trace-feasibility linter over every reconstructed thread
    /// timeline and attach the diagnostics to the report.
    pub lint: bool,
    /// Build interprocedural method summaries (an abstract-interpretation
    /// fixpoint over the ICFG, see `jportal_analysis::summary`) and run
    /// the feasibility linter in its interprocedural mode: it carries the
    /// call stack across seams instead of resetting it, checks returns
    /// against each method's exit ops, and flags branches that contradict
    /// a statically forced direction. Nothing else reads the summaries,
    /// so with [`JPortalConfig::lint`] on this selects only which lint
    /// checks run; reconstructed timelines and every statistic are
    /// identical with it on or off. Off is the legacy linter.
    pub summaries: bool,
    /// Worker threads for the offline fan-out: `None` uses every core,
    /// `Some(1)` is the exact legacy sequential path (no threads spawned).
    ///
    /// The report is **identical for every setting** — parallel stages
    /// reassemble their results in deterministic order, and each hole's
    /// fill depends only on the decoded segments, never on another fill.
    pub parallelism: Option<usize>,
    /// Record telemetry (metrics and spans) during analysis. Designed to
    /// be cheap enough to leave on in production: the hot matcher inner
    /// loop carries no probes at all, and every other site amortizes to a
    /// shard-striped relaxed atomic add. With `false`, every probe
    /// reduces to a single branch on a `None` handle — no allocation, no
    /// atomics, nothing recorded.
    pub observability: bool,
    /// Live telemetry plane (see `jportal_obs::plane`): periodic series
    /// snapshots published at pipeline stage boundaries, scrapeable
    /// while an analysis runs. `None` (the default) adds **nothing** —
    /// no plane, no ticks, no new atomics — and reports stay
    /// byte-identical to a build without the feature. `Some` implies an
    /// enabled recording handle even when
    /// [`JPortalConfig::observability`] is off (live telemetry without
    /// instruments would publish empty snapshots). The plane also
    /// serves the self-profile folded from the recorded spans (see
    /// `jportal_obs::profile`).
    pub telemetry: Option<TelemetryConfig>,
}

impl Default for JPortalConfig {
    fn default() -> JPortalConfig {
        JPortalConfig {
            projection: ProjectionConfig::default(),
            recovery: RecoveryConfig::default(),
            disable_recovery: false,
            devirtualize: true,
            lint: true,
            summaries: true,
            parallelism: None,
            observability: true,
            telemetry: None,
        }
    }
}

/// Per-thread reconstruction result.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadReport {
    /// The thread.
    pub thread: ThreadId,
    /// The reconstructed control-flow trace.
    pub entries: Vec<TraceEntry>,
    /// Hole time ranges `(first_ts, last_ts)` that recovery worked on.
    pub holes: Vec<(u64, u64)>,
    /// Projection statistics summed over segments.
    pub projection: ProjectionStats,
    /// Recovery statistics.
    pub recovery: RecoveryStats,
    /// Number of decoded segments.
    pub segments: usize,
    /// Feasibility-linter diagnostics over the reconstructed timeline
    /// (empty when linting is disabled or the timeline is clean).
    pub lint: Vec<LintDiagnostic>,
}

/// The full analysis result.
#[derive(Debug, Clone, Default)]
pub struct JPortalReport {
    /// Per-thread reconstructions, sorted by thread id.
    pub threads: Vec<ThreadReport>,
    /// Abstract-DFA transition-cache counters for this analysis
    /// (diagnostics; see [`DfaCacheStats`]).
    pub dfa_cache: DfaCacheStats,
    /// Per-core collection-side summary: what the online component
    /// exported and what it dropped (per-core lost bytes/packets,
    /// overflow spans, effective drain rate) before the offline pipeline
    /// ever ran.
    pub collection: CollectionStats,
    /// Per-fill confidence rollup (see [`crate::quality`]). Diagnostic,
    /// so excluded from report equality like `dfa_cache`/`collection`.
    pub quality: QualityReport,
}

/// Report equality deliberately ignores the telemetry fields —
/// [`JPortalReport::dfa_cache`], [`JPortalReport::collection`] and
/// [`JPortalReport::quality`].
/// The DFA cache counters depend on worker scheduling (two workers can
/// both miss on a key one of them is about to fill) and the collection
/// summary describes the *input* traces rather than the reconstruction;
/// only [`JPortalReport::threads`] is part of the determinism contract.
/// The same exclusion covers everything recorded through
/// [`JPortal::telemetry`]: metric values and span structure are
/// deterministic where documented, but timings never are.
impl PartialEq for JPortalReport {
    fn eq(&self, other: &JPortalReport) -> bool {
        self.threads == other.threads
    }
}

impl JPortalReport {
    /// The report for one thread.
    pub fn thread(&self, id: ThreadId) -> Option<&ThreadReport> {
        self.threads.iter().find(|t| t.thread == id)
    }

    /// Total reconstructed entries over all threads.
    pub fn total_entries(&self) -> usize {
        self.threads.iter().map(|t| t.entries.len()).sum()
    }

    /// Aggregated feasibility-linter summary over all threads.
    pub fn lint_summary(&self) -> LintSummary {
        let mut s = LintSummary::default();
        for t in &self.threads {
            s.merge(&LintSummary::of(&t.lint));
        }
        s
    }

    /// Entries by provenance: `(decoded, recovered, walked)`.
    pub fn provenance_counts(&self) -> (usize, usize, usize) {
        let mut d = 0;
        let mut r = 0;
        let mut w = 0;
        for t in &self.threads {
            for e in &t.entries {
                match e.origin {
                    TraceOrigin::Decoded => d += 1,
                    TraceOrigin::Recovered => r += 1,
                    TraceOrigin::Walked => w += 1,
                }
            }
        }
        (d, r, w)
    }
}

/// The JPortal offline analyzer.
///
/// # Examples
///
/// ```no_run
/// use jportal_bytecode::Program;
/// use jportal_core::JPortal;
/// use jportal_jvm::{Jvm, JvmConfig};
///
/// # fn example(program: &Program) {
/// let result = Jvm::new(JvmConfig::default()).run(program);
/// let jportal = JPortal::new(program);
/// let report = jportal.analyze(result.traces.as_ref().unwrap(), &result.archive);
/// for thread in &report.threads {
///     println!("{}: {} entries", thread.thread, thread.entries.len());
/// }
/// # }
/// ```
#[derive(Debug)]
pub struct JPortal<'p> {
    program: &'p Program,
    icfg: Icfg,
    /// Per-method static facts (dominators, loops), computed once before
    /// any parallel fan-out so every worker reads the same immutable
    /// index — part of the determinism contract.
    analysis: AnalysisIndex,
    /// Interprocedural method summaries, built once over the (possibly
    /// RTA-refined) ICFG and shared read-only by every worker; `None`
    /// when [`JPortalConfig::summaries`] is off.
    summaries: Option<SummaryTable>,
    config: JPortalConfig,
    /// Telemetry sink shared by every stage; inert when
    /// [`JPortalConfig::observability`] is off.
    obs: Obs,
    /// Live telemetry plane, present only when
    /// [`JPortalConfig::telemetry`] is on; ticked at stage boundaries.
    plane: Option<std::sync::Arc<TelemetryPlane>>,
}

thread_local! {
    /// One `MatchScratch` per worker thread for a whole fan-out (workers
    /// are fresh scoped threads per `par_map` call, so the thread-local
    /// starts empty and is reused across every piece or chunk the worker
    /// claims — no per-segment frontier allocations).
    static PROJ_SCRATCH: RefCell<MatchScratch> = RefCell::new(MatchScratch::new());
}

/// What every level-1 work item shares: the inputs beyond the piece and
/// the telemetry handles of the decode and projection stages.
struct Level1<'a, 'p> {
    archive: &'a MetadataArchive,
    anfa: &'a AbstractNfa<'p>,
    decode_sketch: Sketch,
    project_sketch: Sketch,
    arena_hw: Gauge,
    par_metrics: jportal_par::ParMetrics,
}

impl<'p> JPortal<'p> {
    /// Builds the analyzer (constructs the program's ICFG over RTA-refined
    /// call targets, plus the per-method static-fact index).
    pub fn new(program: &'p Program) -> JPortal<'p> {
        JPortal::with_config(program, JPortalConfig::default())
    }

    /// Builds the analyzer with explicit configuration.
    pub fn with_config(program: &'p Program, config: JPortalConfig) -> JPortal<'p> {
        let icfg = if config.devirtualize {
            let rta = Rta::analyze(program);
            Icfg::build_with_targets(program, &rta)
        } else {
            Icfg::build(program)
        };
        let summaries = config
            .summaries
            .then(|| SummaryTable::build(program, &icfg));
        let obs = Obs::new(config.observability || config.telemetry.is_some());
        let plane = config
            .telemetry
            .map(|t| TelemetryPlane::new(obs.clone(), t));
        JPortal {
            program,
            icfg,
            analysis: AnalysisIndex::build(program),
            summaries,
            obs,
            plane,
            config,
        }
    }

    /// The ICFG (exposed for clients that want to inspect projections).
    pub fn icfg(&self) -> &Icfg {
        &self.icfg
    }

    /// The static-fact index (exposed for clients and diagnostics).
    pub fn analysis(&self) -> &AnalysisIndex {
        &self.analysis
    }

    /// The interprocedural summary table, when
    /// [`JPortalConfig::summaries`] is on (exposed for clients and
    /// diagnostics).
    pub fn summaries(&self) -> Option<&SummaryTable> {
        self.summaries.as_ref()
    }

    /// The telemetry handle (for registering client metrics or opening
    /// client spans around calls into the analyzer).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// The live telemetry plane, when [`JPortalConfig::telemetry`] is
    /// on. Clone the `Arc` into anything that should feed or serve it:
    /// `TelemetryServer::bind` for scraping, `Jvm::with_telemetry` so
    /// collection-side ring drains tick it too.
    pub fn telemetry_plane(&self) -> Option<&std::sync::Arc<TelemetryPlane>> {
        self.plane.as_ref()
    }

    /// One stage-boundary tick of the live plane (no-op without one).
    /// The span opens with or without a plane, so the span tree does not
    /// depend on the configuration.
    fn tick_stage(&self) {
        let _tick = self.obs.span("pipeline", "plane_tick");
        if let Some(p) = &self.plane {
            p.tick_stage();
        }
    }

    /// Snapshot of everything recorded so far: metric values plus the
    /// span tree. Export with [`TelemetryReport::chrome_trace_json`],
    /// [`TelemetryReport::metrics_json`] or
    /// [`TelemetryReport::summary_table`]. Empty when
    /// [`JPortalConfig::observability`] is off.
    pub fn telemetry(&self) -> TelemetryReport {
        self.obs.telemetry()
    }

    /// Runs the full offline analysis.
    ///
    /// The work fans out over [`JPortalConfig::parallelism`] workers at
    /// two levels: decode+projection runs over every `(thread, piece)`
    /// pair of the whole trace at once (one global work list, so a core
    /// never idles because "its" thread finished early), and a long piece
    /// is cut into chunks that decode and project in parallel; then
    /// per-thread assembly — compaction, recovery, entry emission, lint —
    /// fans out across threads. Within a thread, recovery fans out over
    /// the holes: each fill reads only the thread's decoded segments, so
    /// holes are independent (§5 fills every hole from the run's complete
    /// segments). Results are reassembled in deterministic order at
    /// every join, so the report is identical for every worker count.
    pub fn analyze(&self, traces: &CollectedTraces, archive: &MetadataArchive) -> JPortalReport {
        let obs = &self.obs;
        let _analyze = obs
            .span("pipeline", "analyze")
            .record_sketch(&obs.registry().sketch("core.analyze.wall_us"));
        let workers = jportal_par::effective_workers(self.config.parallelism);
        let anfa = AbstractNfa::with_metrics(self.program, &self.icfg, obs.registry());
        {
            // The span opens at every worker count, so the span tree does
            // not depend on it.
            let _prewarm = obs.span("pipeline", "prewarm");
            if workers > 1 {
                // One up-front pass fills the ANFA closure caches so the
                // projection workers start hot instead of racing to
                // compute the same entries.
                anfa.prewarm(workers);
            }
        }

        // Collection-side telemetry: what the online component exported
        // and dropped, per core, before this pipeline ever saw the data.
        let collection = CollectionStats::of(traces);
        if obs.is_enabled() {
            collection.record_into(obs.registry());
            CollectionStats::emit_overflow_spans(traces, obs);
        }

        let (per_thread, decode_stats) = {
            let _segregate = obs.span("collect", "segregate");
            segregate_with_stats(traces, workers)
        };
        let mut thread_pieces: Vec<(ThreadId, Vec<ThreadPiece>)> = per_thread.into_iter().collect();
        thread_pieces.sort_by_key(|(t, _)| *t);
        // Stream-decode telemetry: summed in core order inside
        // `segregate_with_stats`, a pure function of the trace bytes —
        // identical at every parallelism setting.
        if obs.is_enabled() {
            let reg = obs.registry();
            reg.counter("ipt.decode.resync_bytes")
                .add(decode_stats.resync_bytes);
            reg.counter("ipt.decode.packets").add(decode_stats.packets);
        }
        self.tick_stage();

        // Level 1: decode + project every (thread, piece) pair globally.
        let work: Vec<(usize, usize)> = thread_pieces
            .iter()
            .enumerate()
            .flat_map(|(ti, (_, pieces))| (0..pieces.len()).map(move |pi| (ti, pi)))
            .collect();
        // Where each piece is cut: a function of the piece alone, so spans
        // and journals compare across worker counts.
        let bounds: Vec<Vec<usize>> = work
            .iter()
            .map(|&(ti, pi)| chunk_bounds(&thread_pieces[ti].1[pi].segment))
            .collect();
        let level1 = Level1 {
            archive,
            anfa: &anfa,
            decode_sketch: obs.registry().sketch("core.decode.wall_us"),
            project_sketch: obs.registry().sketch("core.project.wall_us"),
            // Thread-local scratch capacity outlives one analysis on the
            // calling thread, so the high-water mark depends on what ran
            // there before.
            arena_hw: obs
                .registry()
                .gauge_as("core.project.scratch_arena_hw", Determinism::Scheduling),
            // Every fan-out shares one queue gauge and collect-lock
            // counter: the pipeline never runs two fan-outs concurrently,
            // so the gauge always describes the active one.
            par_metrics: jportal_par::ParMetrics::register(obs.registry()),
        };
        // Whole pieces are one work item each: decode, then project.
        let whole: Vec<Option<(SegmentView, ProjectionStats)>> =
            jportal_par::par_map_metered(workers, &work, &level1.par_metrics, |w, &(ti, pi)| {
                let (thread, pieces) = &thread_pieces[ti];
                (bounds[w].len() == 2)
                    .then(|| self.project_piece(&level1, *thread, pi, &pieces[pi], &bounds[w], 1))
            });
        // Cut pieces follow one at a time, each fanning its chunks out
        // over every worker.
        let projected: Vec<(SegmentView, ProjectionStats)> = whole
            .into_iter()
            .zip(&work)
            .zip(&bounds)
            .map(|((done, &(ti, pi)), bounds)| {
                done.unwrap_or_else(|| {
                    let (thread, pieces) = &thread_pieces[ti];
                    self.project_piece(&level1, *thread, pi, &pieces[pi], bounds, workers)
                })
            })
            .collect();

        // Regroup per thread, reducing projection statistics in piece
        // order (merge is commutative, but a fixed order keeps the code
        // trivially deterministic).
        let mut grouped: Vec<(ThreadId, Vec<SegmentView>, ProjectionStats)> = thread_pieces
            .iter()
            .map(|(t, _)| (*t, Vec::new(), ProjectionStats::default()))
            .collect();
        for (&(ti, _), (view, stats)) in work.iter().zip(projected) {
            grouped[ti].1.push(view);
            grouped[ti].2.merge(&stats);
        }
        self.tick_stage();

        // Level 2: per-thread assembly, fanned out across threads. When
        // the thread fan-out already saturates the workers, each thread
        // fills its holes sequentially to avoid oversubscription; with
        // few threads the idle workers fill holes in parallel.
        let inner_workers = if grouped.len() >= workers { 1 } else { workers };
        let assembled: Vec<(ThreadReport, ThreadQuality)> = jportal_par::par_map_owned_metered(
            workers,
            grouped,
            &level1.par_metrics,
            |_, (thread, views, projection)| {
                self.assemble_thread(thread, views, projection, inner_workers)
            },
        );
        let mut threads = Vec::with_capacity(assembled.len());
        let mut quality = QualityReport::default();
        for (t, q) in assembled {
            threads.push(t);
            quality.threads.push(q);
        }

        // Per-stage totals are summed *after* the joins, from the
        // deterministically merged per-thread statistics, rather than
        // bumped inside workers — so these counters are part of the
        // determinism contract (unlike the scheduling-dependent
        // `cfg.dfa.*` cache counters, which record inline).
        if obs.is_enabled() {
            let reg = obs.registry();
            let sum = |f: fn(&ThreadReport) -> usize| -> u64 {
                threads.iter().map(|t| f(t) as u64).sum()
            };
            reg.counter("core.threads").add(threads.len() as u64);
            reg.counter("core.segments").add(sum(|t| t.segments));
            reg.counter("core.entries").add(sum(|t| t.entries.len()));
            reg.counter("core.project.matched")
                .add(sum(|t| t.projection.matched));
            reg.counter("core.project.unmatched")
                .add(sum(|t| t.projection.unmatched));
            reg.counter("core.project.restarts")
                .add(sum(|t| t.projection.restarts));
            reg.counter("core.project.candidates_tried")
                .add(sum(|t| t.projection.candidates_tried));
            reg.counter("core.project.candidates_pruned")
                .add(sum(|t| t.projection.candidates_pruned));
            reg.counter("core.recover.holes")
                .add(sum(|t| t.recovery.holes));
            reg.counter("core.recover.filled_from_cs")
                .add(sum(|t| t.recovery.filled_from_cs));
            reg.counter("core.recover.filled_by_walk")
                .add(sum(|t| t.recovery.filled_by_walk));
            reg.counter("core.recover.unfilled")
                .add(sum(|t| t.recovery.unfilled));
            reg.counter("core.recover.recovered_events")
                .add(sum(|t| t.recovery.recovered_events));
            reg.counter("core.recover.candidates")
                .add(sum(|t| t.recovery.candidates));
            reg.counter("core.recover.pruned_tier1")
                .add(sum(|t| t.recovery.pruned_tier1));
            reg.counter("core.recover.pruned_tier2")
                .add(sum(|t| t.recovery.pruned_tier2));
            reg.counter("core.recover.fallback_walks")
                .add(sum(|t| t.recovery.fallback_walks));
            reg.counter("core.recover.budget_truncations")
                .add(sum(|t| t.recovery.budget_truncations));
            reg.gauge_as("cfg.dfa.interned", Determinism::Scheduling)
                .set_max(anfa.dfa_stats().interned);
        }

        // `thread_pieces` was sorted by thread id and every join above is
        // order-preserving, so the report is already deterministically
        // sorted.
        let dfa_cache = anfa.dfa_stats();
        // Close the analyze span before the final stage tick so this
        // run's `core.analyze.wall_us` is in the published snapshot.
        drop(_analyze);
        self.tick_stage();
        JPortalReport {
            threads,
            dfa_cache,
            collection,
            quality,
        }
    }

    /// Decodes and projects a piece cut at `bounds` (see
    /// [`chunk_bounds`]): the chunks decode in parallel on up to
    /// `workers` threads, then project in parallel over the stitched
    /// events, and each stitch reproduces the whole-piece result
    /// (DESIGN.md §7, "Level 1 inside a piece"). A piece that is not cut
    /// is the one-chunk case, and its spans carry no chunk index or
    /// stitch.
    fn project_piece(
        &self,
        level1: &Level1<'_, '_>,
        thread: ThreadId,
        pi: usize,
        piece: &ThreadPiece,
        bounds: &[usize],
        workers: usize,
    ) -> (SegmentView, ProjectionStats) {
        let obs = &self.obs;
        let packet_chunks: Vec<Range<usize>> = bounds.windows(2).map(|b| b[0]..b[1]).collect();
        let cut = packet_chunks.len() > 1;
        // `piece.segment` carries its capture core from the per-core
        // drain path, so the decoded segment is already attributed
        // correctly. Worker threads start with an empty span stack, so
        // the parent is pinned explicitly — the span tree is identical
        // under any `parallelism`.
        let chunk_span = |cat, name, k: usize| {
            let span = obs.span(cat, name).parent("analyze");
            if cut {
                span.arg("chunk", k)
            } else {
                span
            }
        };
        let decoded = jportal_par::par_map_metered(
            workers,
            &packet_chunks,
            &level1.par_metrics,
            |k, range| {
                let _s = chunk_span("decode", "decode_segment", k)
                    .arg("core", piece.core)
                    .record_sketch(&level1.decode_sketch);
                decode_chunk(self.program, level1.archive, &piece.segment, range.clone())
            },
        );
        let (decoded, offsets) = {
            let _s = cut.then(|| {
                obs.span("decode", "stitch")
                    .parent("analyze")
                    .arg("chunks", packet_chunks.len())
            });
            stitch_chunks(
                self.program,
                level1.archive,
                &piece.segment,
                bounds,
                decoded,
                workers,
            )
        };

        let projector = Projector::new(
            self.program,
            &self.icfg,
            level1.anfa,
            &decoded.events,
            &self.config.projection,
        );
        let event_chunks: Vec<Range<usize>> = offsets.windows(2).map(|o| o[0]..o[1]).collect();
        let projected = jportal_par::par_map_metered(
            workers,
            &event_chunks,
            &level1.par_metrics,
            |k, range| {
                PROJ_SCRATCH.with(|s| {
                    let mut scratch = s.borrow_mut();
                    let _s = chunk_span("project", "project_segment", k)
                        .arg("events", range.len())
                        .record_sketch(&level1.project_sketch);
                    let chunk = projector.project_chunk(range.clone(), &mut scratch);
                    level1.arena_hw.set_max(scratch.arena_high_water() as u64);
                    chunk
                })
            },
        );
        let proj = PROJ_SCRATCH.with(|s| {
            let _s = cut.then(|| {
                obs.span("project", "stitch")
                    .parent("analyze")
                    .arg("chunks", event_chunks.len())
            });
            projector.stitch(projected, &mut s.borrow_mut())
        });
        self.segment_view(thread, pi, decoded, proj)
    }

    /// Journals piece `pi`'s projection and pairs its events with it.
    fn segment_view(
        &self,
        thread: ThreadId,
        pi: usize,
        decoded: BcSegment,
        proj: Projection,
    ) -> (SegmentView, ProjectionStats) {
        // Flight recorder: one `SegmentMatched` per piece, keyed
        // (thread, piece index, 0). Keys depend only on the work item, so
        // the sorted snapshot is identical at any worker count.
        let mut rec = self.obs.journal_recorder(thread.0);
        if rec.is_enabled() {
            rec.set_segment(pi as u32);
            rec.emit(JournalEvent::SegmentMatched {
                events: decoded.events.len() as u32,
                matched: proj.stats.matched as u32,
                restarts: proj.stats.restarts as u32,
                frontier_width: proj.stats.frontier_width_max as u32,
                candidates_tried: proj.stats.candidates_tried as u32,
                candidates_pruned: proj.stats.candidates_pruned as u32,
                dfa_path: proj.stats.dfa_runs > 0,
            });
        }
        (
            SegmentView {
                events: decoded.events,
                nodes: proj.nodes,
                breaks: proj.breaks,
                loss_before: decoded.loss_before,
            },
            proj.stats,
        )
    }

    /// Compacts one thread's projected segments, fills every hole
    /// across a lossy boundary, emits the final timeline and lints it.
    ///
    /// Holes fan out over `recovery_workers`: each fill reads only the
    /// immutable compacted segments and the recovery index, never
    /// another fill, so holes are independent. Every hole gets its own
    /// journal recorder (its records are keyed by the hole's IS segment)
    /// and its own statistics, merged in hole order, and emission walks
    /// the fills in hole order — the report, the journal and the span
    /// tree are identical at any worker count. With more than one
    /// worker, the linter runs beside entry emission.
    fn assemble_thread(
        &self,
        thread: ThreadId,
        views: Vec<SegmentView>,
        projection: ProjectionStats,
        recovery_workers: usize,
    ) -> (ThreadReport, ThreadQuality) {
        let obs = &self.obs;
        let _assemble = obs
            .span("recover", "assemble_thread")
            .parent("analyze")
            .arg("thread", thread.0)
            .record_sketch(&obs.registry().sketch("core.assemble.wall_us"));
        // Drop empty segments but keep their loss marks attached to
        // the following segment.
        let mut compacted: Vec<SegmentView> = Vec::new();
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

        // The thread's holes in timeline order, each as the index of the
        // segment after it and its loss record.
        let hole_posts: Vec<(usize, LossRecord)> = compacted
            .iter()
            .enumerate()
            .skip(1)
            .filter_map(|(i, v)| v.loss_before.map(|loss| (i, loss)))
            .collect();
        let holes: Vec<(u64, u64)> = hole_posts
            .iter()
            .map(|(_, loss)| (loss.first_ts, loss.last_ts))
            .collect();
        let fills = if self.config.disable_recovery || hole_posts.is_empty() {
            Vec::new()
        } else {
            self.fill_holes(thread, &compacted, &hole_posts, recovery_workers)
        };

        // Emit the timeline: each hole's fill, then the segment after it.
        let mut recovery_stats = RecoveryStats::default();
        let mut quality: Vec<FillQuality> = Vec::with_capacity(fills.len());
        let mut fill_entries = Vec::with_capacity(fills.len());
        let mut fill_steps = Vec::with_capacity(fills.len());
        for (&(post, _), (fill, stats)) in hole_posts.iter().zip(fills) {
            recovery_stats.merge(&stats);
            quality.push(FillQuality {
                hole: quality.len() + 1,
                origin: fill.entries.first().map(|e| e.origin),
                confidence: fill.confidence,
                entries: fill.entries.len(),
            });
            fill_entries.push((post, fill.entries));
            fill_steps.push((post, fill.steps));
        }
        let total = fill_entries.iter().map(|(_, e)| e.len()).sum::<usize>()
            + compacted.iter().map(|v| v.events.len()).sum::<usize>();
        let emit = obs.span("recover", "emit").arg("entries", total);
        let steps = emit_steps(&compacted, fill_steps, total);
        // With workers to spare, the linter reads the finished steps on
        // one while this thread writes the entries.
        let (entries, lint) = if recovery_workers > 1 && self.config.lint {
            std::thread::scope(|s| {
                let lint = s.spawn(|| self.lint_thread(thread, &steps));
                let entries = self.emit_entries(&compacted, fill_entries, total);
                drop(emit);
                let lint = lint
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
                (entries, lint)
            })
        } else {
            let entries = self.emit_entries(&compacted, fill_entries, total);
            drop(emit);
            (entries, self.lint_thread(thread, &steps))
        };

        (
            ThreadReport {
                thread,
                entries,
                holes,
                projection,
                recovery: recovery_stats,
                segments: compacted.len(),
                lint,
            },
            ThreadQuality {
                thread,
                fills: quality,
            },
        )
    }

    /// The trace entries of a thread's timeline: each hole's fill, then
    /// the segment after it, projected node first, raw decode fallback.
    fn emit_entries(
        &self,
        compacted: &[SegmentView],
        fills: Vec<(usize, Vec<TraceEntry>)>,
        total: usize,
    ) -> Vec<TraceEntry> {
        let mut entries = Vec::with_capacity(total);
        let mut fills = fills.into_iter().peekable();
        for (i, seg) in compacted.iter().enumerate() {
            if let Some((_, fill)) = fills.next_if(|&(post, _)| post == i) {
                entries.extend(fill);
            }
            entries.extend(seg.events.iter().zip(&seg.nodes).map(|(e, node)| {
                let (method, bci) = match node {
                    Some(n) => {
                        let (m, b) = self.icfg.location(*n);
                        (Some(m), Some(b))
                    }
                    None => (e.method, e.bci),
                };
                TraceEntry {
                    op: e.sym.op,
                    method,
                    bci,
                    ts: e.ts,
                    origin: TraceOrigin::Decoded,
                }
            }));
        }
        debug_assert_eq!(entries.len(), total);
        entries
    }

    /// Runs the feasibility linter over a thread's timeline, journaled
    /// when observability is on. The span is pinned under
    /// `assemble_thread`, because the linter may run on a worker.
    fn lint_thread(&self, thread: ThreadId, steps: &[LintStep]) -> Vec<LintDiagnostic> {
        if !self.config.lint {
            return Vec::new();
        }
        let obs = &self.obs;
        if obs.is_enabled() {
            // Lint breaks go under the reserved segment key so they sort
            // after every per-segment decision for the thread.
            let mut recorder = obs.journal_recorder(thread.0);
            recorder.set_segment(jportal_obs::journal::LINT_SEGMENT);
            lint_steps_journaled(
                self.program,
                &self.icfg,
                steps,
                self.summaries.as_ref(),
                obs,
                "assemble_thread",
                &mut recorder,
            )
        } else {
            lint_steps_summarized(self.program, &self.icfg, steps, self.summaries.as_ref())
        }
    }

    /// Fills the hole before `compacted[post]` for every `(post, loss)`
    /// of `hole_posts`, fanned out over `workers`, and returns each
    /// hole's fill with its own statistics, in hole order. The recovery
    /// index over the thread's segments is built once, here, so threads
    /// without a hole to fill never pay for it.
    fn fill_holes(
        &self,
        thread: ThreadId,
        compacted: &[SegmentView],
        hole_posts: &[(usize, LossRecord)],
        workers: usize,
    ) -> Vec<(Fill, RecoveryStats)> {
        // One walk scratch per worker thread, reused across every hole
        // the worker claims (the `PROJ_SCRATCH` pattern).
        thread_local! {
            static FILL_SCRATCH: RefCell<FillScratch> = RefCell::new(FillScratch::new());
        }
        let obs = &self.obs;
        let recovery = {
            let _index = obs.span("recover", "index");
            Recovery::new(self.program, &self.icfg, compacted, self.config.recovery)
                .with_dominators(&self.analysis)
        };
        let fill_sketch = obs.registry().sketch("core.recover.fill_wall_us");
        let scratch_hw = obs
            .registry()
            .gauge_as("core.recover.fill_scratch_hw", Determinism::Scheduling);
        jportal_par::par_map(workers, hole_posts, |h, &(post, loss)| {
            let hole = h + 1;
            // Worker threads start with an empty span stack, so the
            // parent is pinned explicitly.
            let _fill = obs
                .span("recover", "fill_hole")
                .parent("assemble_thread")
                .arg("thread", thread.0)
                .arg("hole", hole)
                .record_sketch(&fill_sketch);
            let mut recorder = obs.journal_recorder(thread.0);
            let mut stats = RecoveryStats::default();
            FILL_SCRATCH.with(|s| {
                let mut scratch = s.borrow_mut();
                let fill = recovery.fill_hole_journaled(
                    compacted,
                    post - 1,
                    post,
                    Some(loss),
                    &mut stats,
                    &mut scratch,
                    &mut recorder,
                    hole as u32,
                );
                scratch_hw.set_max(scratch.high_water() as u64);
                (fill, stats)
            })
        })
    }
}

/// The linter's steps over a thread's timeline, aligned one-to-one with
/// its entries. Segment starts are always seams (a hole or a fresh trace
/// buffer precedes them, so events may be missing — lossy); within a
/// segment, projection restarts (`breaks`) mark positions with no edge
/// guarantee to their predecessor, but every hardware-observed event in
/// between is present.
fn emit_steps(
    compacted: &[SegmentView],
    fills: Vec<(usize, Vec<LintStep>)>,
    total: usize,
) -> Vec<LintStep> {
    let mut steps = Vec::with_capacity(total);
    let mut fills = fills.into_iter().peekable();
    for (i, seg) in compacted.iter().enumerate() {
        if let Some((_, fill)) = fills.next_if(|&(post, _)| post == i) {
            steps.extend(fill);
        }
        // `breaks` is sorted, so one cursor walks it alongside the events.
        let mut seams = seg.breaks.iter().copied().peekable();
        for (idx, (e, node)) in seg.events.iter().zip(&seg.nodes).enumerate() {
            let seam = seams.next_if_eq(&idx).is_some();
            steps.push(LintStep {
                node: *node,
                op: e.sym.op,
                dir: e.sym.dir,
                boundary: idx == 0 || seam,
                lossy: idx == 0,
            });
        }
    }
    debug_assert_eq!(steps.len(), total);
    steps
}

#[cfg(test)]
mod tests {
    use super::*;
    use jportal_bytecode::builder::ProgramBuilder;
    use jportal_bytecode::{CmpKind, Instruction as I};
    use jportal_jvm::runtime::{Jvm, JvmConfig};

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
        m.emit(I::Iconst(50));
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

    use jportal_bytecode::Program;

    #[test]
    fn clean_run_reconstructs_everything_decoded() {
        let p = workload();
        let r = Jvm::new(JvmConfig {
            c1_threshold: u64::MAX,
            c2_threshold: u64::MAX,
            ..JvmConfig::default()
        })
        .run(&p);
        let jp = JPortal::new(&p);
        let report = jp.analyze(r.traces.as_ref().unwrap(), &r.archive);
        assert_eq!(report.threads.len(), 1);
        let t = &report.threads[0];
        let truth_len = r.truth.trace(ThreadId(0)).len();
        assert_eq!(t.entries.len(), truth_len, "lossless run: 1:1 entries");
        let (d, rec, w) = report.provenance_counts();
        assert_eq!(d, truth_len);
        assert_eq!(rec + w, 0);
        // Every entry's location must match the truth exactly.
        for (e, truth) in t.entries.iter().zip(r.truth.trace(ThreadId(0))) {
            assert_eq!(e.method, Some(truth.method));
            assert_eq!(e.bci, Some(truth.bci));
        }
    }

    #[test]
    fn lossy_run_recovers_some_entries() {
        let p = workload();
        let r = Jvm::new(JvmConfig {
            pt_buffer_capacity: 640,
            drain_bytes_per_kilocycle: 6,
            c1_threshold: u64::MAX,
            c2_threshold: u64::MAX,
            ..JvmConfig::default()
        })
        .run(&p);
        let traces = r.traces.as_ref().unwrap();
        assert!(
            !traces.per_core[0].losses.is_empty(),
            "this configuration must lose data"
        );
        let jp = JPortal::new(&p);
        let report = jp.analyze(traces, &r.archive);
        let t = &report.threads[0];
        assert!(t.recovery.holes > 0);
        assert!(!t.holes.is_empty());
        let (_d, rec, w) = report.provenance_counts();
        assert!(rec + w > 0, "recovery must contribute entries");
    }

    #[test]
    fn disable_recovery_ablation() {
        let p = workload();
        let r = Jvm::new(JvmConfig {
            pt_buffer_capacity: 640,
            drain_bytes_per_kilocycle: 6,
            c1_threshold: u64::MAX,
            c2_threshold: u64::MAX,
            ..JvmConfig::default()
        })
        .run(&p);
        let jp = JPortal::with_config(
            &p,
            JPortalConfig {
                disable_recovery: true,
                ..JPortalConfig::default()
            },
        );
        let report = jp.analyze(r.traces.as_ref().unwrap(), &r.archive);
        let (_, rec, w) = report.provenance_counts();
        assert_eq!(rec + w, 0);
    }

    #[test]
    fn jit_mode_entries_carry_locations() {
        let p = workload();
        let r = Jvm::new(JvmConfig {
            c1_threshold: 4,
            c2_threshold: 12,
            ..JvmConfig::default()
        })
        .run(&p);
        assert!(r.compilations > 0);
        let jp = JPortal::new(&p);
        let report = jp.analyze(r.traces.as_ref().unwrap(), &r.archive);
        let t = &report.threads[0];
        let with_loc = t
            .entries
            .iter()
            .filter(|e| e.method.is_some() && e.bci.is_some())
            .count();
        assert!(
            with_loc as f64 / t.entries.len() as f64 > 0.95,
            "nearly all entries should be located"
        );
    }
}
