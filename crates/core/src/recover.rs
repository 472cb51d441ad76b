//! Abstraction-guided missing-data recovery (§5).
//!
//! A hole `⋄` between two decoded segments is filled from a **complete
//! segment** (CS) whose context matches the **incomplete segment** (IS)
//! ending at the hole (Definition 5.1): the last `x` instructions before
//! the hole are the *anchor*; candidate CS positions matching the anchor
//! are ranked by the longest common suffix of their prefix with the IS,
//! compared through the three-tier abstraction hierarchy of Definition
//! 5.2 with the pruning guarantee of Theorem 5.5 — tier-1 (call
//! structure) comparisons reject most candidates before tier-2 (control
//! structure) or tier-3 (concrete) work happens (Algorithm 4; Algorithm 3
//! is the naive per-instruction scan kept as the benchmark baseline).
//!
//! The winning CS's suffix fills the hole until `y` consecutive
//! instructions match what follows the hole, bounded by the hole's
//! timestamp budget; if no CS works, a bounded ICFG walk connects the two
//! sides (the paper's random-path fallback).

use jportal_analysis::{AnalysisIndex, LintStep, SummaryTable};
use jportal_bytecode::{Bci, MethodId, OpKind, Program};
use jportal_cfg::{FxHashMap, Icfg, NodeId, Sym, Tier};
use jportal_corpus::pack::{suffix_swar, PackedSyms};
use jportal_corpus::Corpus;
use jportal_ipt::ring::LossRecord;
use jportal_obs::{CandidateOutcome, Journal, JournalEvent, JournalRecorder};
use std::collections::VecDeque;

use crate::decode::BcEvent;

/// Where a reconstructed trace entry came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceOrigin {
    /// Directly decoded from captured packets and projected (§3–§4).
    Decoded,
    /// Filled in from a matching complete segment (§5).
    Recovered,
    /// Filled in by the fallback ICFG walk (§5, last resort).
    Walked,
}

/// One entry of the final reconstructed control-flow trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry {
    /// Operation kind.
    pub op: OpKind,
    /// Method, when known (projection or JIT decode).
    pub method: Option<MethodId>,
    /// Bytecode index, when known.
    pub bci: Option<Bci>,
    /// Timestamp (interpolated for recovered entries).
    pub ts: u64,
    /// Provenance.
    pub origin: TraceOrigin,
}

/// One decoded segment with its projection, as recovery consumes it.
#[derive(Debug, Clone, Default)]
pub struct SegmentView {
    /// Decoded events.
    pub events: Vec<BcEvent>,
    /// Projected ICFG nodes, aligned with `events`.
    pub nodes: Vec<Option<NodeId>>,
    /// Projection restart seams: event indices with no ICFG-edge
    /// guarantee from the previous event (see
    /// [`crate::reconstruct::Projection::breaks`]). Sorted, never 0.
    pub breaks: Vec<usize>,
    /// Loss separating this segment from the previous one.
    pub loss_before: Option<LossRecord>,
}

/// The result of filling one hole: the spliced entries plus the
/// lint-relevant structure of the splice.
///
/// `steps` is aligned one-to-one with `entries`. A fill spliced from a
/// complete segment starts at a seam (`steps[0].boundary == true`) and
/// inherits the CS's own internal seams; a fallback ICFG walk is
/// edge-connected to both sides by construction, so its steps carry no
/// boundaries at all — the feasibility linter checks every one of its
/// transitions.
#[derive(Debug, Clone, Default)]
pub struct Fill {
    /// Recovered trace entries, in timeline order.
    pub entries: Vec<TraceEntry>,
    /// Feasibility-linter steps aligned with `entries`.
    pub steps: Vec<LintStep>,
    /// How much to trust this fill, in `[0, 1]`: the winning candidate's
    /// suffix strength × its score margin over the runner-up × the
    /// timestamp-budget coverage of the confirm scan × how well the fill
    /// length agrees with the hole's estimated event count, scaled down
    /// hard for fallback walks (see `confidence` in the journal event
    /// schema, DESIGN.md §13). `0.0` for an unfilled hole.
    pub confidence: f64,
}

/// Recovery tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryConfig {
    /// Anchor length `x` (instructions before the hole used to find CSes).
    pub anchor_len: usize,
    /// Confirmation length `y` (post-hole instructions that must match to
    /// end the fill).
    pub confirm_len: usize,
    /// How many top-ranked CSes to try (the paper's top-N list).
    pub top_n: usize,
    /// Budget multiplier applied to the hole's estimated event count.
    pub budget_factor: f64,
    /// Use the tiered pruning of Algorithm 4 (`false` = Algorithm 3).
    pub use_abstraction: bool,
    /// Maximum steps of the fallback ICFG walk.
    pub max_walk: usize,
}

impl Default for RecoveryConfig {
    fn default() -> RecoveryConfig {
        RecoveryConfig {
            anchor_len: 3,
            confirm_len: 4,
            top_n: 5,
            budget_factor: 2.0,
            use_abstraction: true,
            max_walk: 64,
        }
    }
}

/// Statistics from recovering one thread's holes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Holes encountered.
    pub holes: usize,
    /// Holes filled from a CS.
    pub filled_from_cs: usize,
    /// Holes filled by the fallback walk.
    pub filled_by_walk: usize,
    /// Holes left unfilled.
    pub unfilled: usize,
    /// Entries produced by recovery.
    pub recovered_events: usize,
    /// CS candidates examined.
    pub candidates: usize,
    /// Candidates rejected at tier 1.
    pub pruned_tier1: usize,
    /// Candidates rejected at tier 2.
    pub pruned_tier2: usize,
    /// Candidates rejected by the summary prefilter: the candidate's
    /// suffix provably contains no confirm window for this hole (checked
    /// against the per-segment op-kind position index), so it can never
    /// be chosen as the fill. Pruned candidates still run through the
    /// search gates and ranking — which keeps the chosen fill identical
    /// to a run without the prefilter — but skip all per-candidate
    /// journaling. Not counted in [`RecoveryStats::candidates`] (nor in
    /// the tier-prune tallies).
    pub summary_pruned: usize,
    /// Fallback ICFG walks attempted (successful or not); always ≥
    /// [`RecoveryStats::filled_by_walk`].
    pub fallback_walks: usize,
    /// Candidate confirm scans whose window was clipped by the hole's
    /// timestamp budget (the scan saw less than the candidate's full
    /// suffix, so a confirmation may have been missed).
    pub budget_truncations: usize,
    /// Holes that consulted the persistent segment corpus (only holes
    /// no in-run candidate could confirm — the corpus is a secondary
    /// source, so attaching one never changes an in-run fill).
    pub corpus_lookups: usize,
    /// Corpus candidates returned by the sharded anchor index across
    /// all lookups.
    pub corpus_candidates: usize,
    /// Corpus lookups whose winning candidate confirmed and filled the
    /// hole (these holes also count in
    /// [`RecoveryStats::filled_from_cs`]).
    pub corpus_hits: usize,
    /// Corpus lookups that found no confirmable candidate (the hole
    /// fell through to the fallback walk).
    pub corpus_misses: usize,
}

impl RecoveryStats {
    /// Folds another run's statistics into this one (commutative and
    /// associative, so parallel tree reduction equals sequential sums).
    pub fn merge(&mut self, other: &RecoveryStats) {
        self.holes += other.holes;
        self.filled_from_cs += other.filled_from_cs;
        self.filled_by_walk += other.filled_by_walk;
        self.unfilled += other.unfilled;
        self.recovered_events += other.recovered_events;
        self.candidates += other.candidates;
        self.pruned_tier1 += other.pruned_tier1;
        self.pruned_tier2 += other.pruned_tier2;
        self.summary_pruned += other.summary_pruned;
        self.fallback_walks += other.fallback_walks;
        self.budget_truncations += other.budget_truncations;
        self.corpus_lookups += other.corpus_lookups;
        self.corpus_candidates += other.corpus_candidates;
        self.corpus_hits += other.corpus_hits;
        self.corpus_misses += other.corpus_misses;
    }

    /// Fraction of considered candidates rejected by the tier-1
    /// (call-structure) comparison. `0.0` when nothing was considered.
    ///
    /// Rates are computed from the *merged* totals, never averaged per
    /// shard: `merge` sums numerators and denominators, so the rate of a
    /// merged stat equals the rate over the union of the runs.
    pub fn tier1_prune_rate(&self) -> f64 {
        if self.candidates == 0 {
            0.0
        } else {
            self.pruned_tier1 as f64 / self.candidates as f64
        }
    }

    /// Fraction of considered candidates rejected by the tier-2
    /// (control-structure) comparison. `0.0` when nothing was considered.
    pub fn tier2_prune_rate(&self) -> f64 {
        if self.candidates == 0 {
            0.0
        } else {
            self.pruned_tier2 as f64 / self.candidates as f64
        }
    }

    /// Fraction of the raw candidate set rejected by the interprocedural
    /// summary prefilter, over the *whole* set (survivors plus pruned) —
    /// the denominator the tier rates never see. `0.0` when nothing was
    /// considered.
    pub fn summary_prune_rate(&self) -> f64 {
        let total = self.candidates + self.summary_pruned;
        if total == 0 {
            0.0
        } else {
            self.summary_pruned as f64 / total as f64
        }
    }
}

/// Compatibility of two symbols for matching: same opcode, and branch
/// directions must not contradict.
fn sym_compat(a: Sym, b: Sym) -> bool {
    a.op == b.op && a.dir.matches(b.dir)
}

/// Human-readable anchor spelling for the journal: opcode mnemonics
/// joined with `·` (`invokestatic·iload·ifge`).
fn spell_anchor(anchor: &[Sym]) -> String {
    let mut out = String::new();
    for (i, s) in anchor.iter().enumerate() {
        if i > 0 {
            out.push('·');
        }
        out.push_str(s.op.mnemonic());
    }
    out
}

/// Confidence in `[0, 1]` as parts-per-million, the journal's
/// integer-only wire form.
fn ppm(confidence: f64) -> u32 {
    (confidence.clamp(0.0, 1.0) * 1_000_000.0).round() as u32
}

/// How well a fill's length agrees with the hole's timestamp-derived
/// event estimate, in `[0, 1]`: `min/max` of the two lengths. A fill
/// that plugs a fraction of the estimated loss — or overshoots it —
/// can at best align that fraction of the truth, whatever its splice
/// score, so this dominates when lengths disagree badly.
fn length_agreement(fill_len: usize, estimate: f64) -> f64 {
    let f = fill_len as f64;
    let e = estimate.max(1.0);
    (f.min(e) / f.max(e)).clamp(0.0, 1.0)
}

/// Confidence of a CS-sourced fill: suffix strength (how long the
/// common suffix is, saturating) × score margin over the best other
/// candidate (1.0 when the winner was the only candidate) × budget
/// coverage of the confirm scan (1.0 when the window was not clipped)
/// × length agreement with the hole's event estimate.
fn cs_confidence(
    score: usize,
    runner_up: usize,
    sole: bool,
    max_fill: usize,
    available: usize,
    fill_len: usize,
    estimate: f64,
) -> f64 {
    let strength = score as f64 / (score as f64 + 4.0);
    let margin_factor = if sole {
        1.0
    } else {
        let s = score.max(1) as f64;
        (0.5 + 0.5 * (s - runner_up as f64) / s).clamp(0.1, 1.0)
    };
    let coverage = if max_fill < available {
        max_fill as f64 / available as f64
    } else {
        1.0
    };
    strength * margin_factor * coverage * length_agreement(fill_len, estimate)
}

/// Confidence of a fallback-walk fill: capped low (the walk is a guess
/// consistent with the ICFG, not a witnessed execution) and scaled by
/// how much of the estimated loss the walk actually plugged.
fn walk_confidence(fill_len: usize, estimate: f64) -> f64 {
    0.3 * length_agreement(fill_len, estimate)
}

/// Pre-indexed segment: symbols plus tier-1/tier-2 position indices.
#[derive(Debug, Clone)]
struct IndexedSegment {
    syms: Vec<Sym>,
    /// The same symbols packed for the SWAR suffix kernel (op bytes
    /// eight per word, dir codes thirty-two per word) — the concrete
    /// tier scores on these, eight symbols per step.
    packed: PackedSyms,
    /// Positions of tier-1 (call-structure) symbols.
    t1: Vec<u32>,
    /// Positions of tier-2 (control) symbols.
    t2: Vec<u32>,
    /// Positions of each [`OpKind`] in `syms`, indexed by
    /// [`OpKind::index`]. Empty until [`IndexedSegment::build_op_index`]
    /// runs (only the summary prefilter reads it).
    op_pos: Vec<Vec<u32>>,
}

impl IndexedSegment {
    fn new(view: &SegmentView) -> IndexedSegment {
        let events = &view.events;
        let syms: Vec<Sym> = events.iter().map(|e| e.sym).collect();
        let mut t1 = Vec::new();
        let mut t2 = Vec::new();
        for (i, s) in syms.iter().enumerate() {
            match Tier::of_op(s.op) {
                Tier::CallStructure => {
                    t1.push(i as u32);
                    t2.push(i as u32);
                }
                Tier::Control => t2.push(i as u32),
                Tier::Concrete => {}
            }
        }
        IndexedSegment {
            packed: PackedSyms::from_syms(&syms),
            syms,
            t1,
            t2,
            op_pos: Vec::new(),
        }
    }

    /// Builds the per-[`OpKind`] position index used by the summary
    /// prefilter's confirm-window feasibility check.
    fn build_op_index(&mut self) {
        if !self.op_pos.is_empty() {
            return;
        }
        self.op_pos = vec![Vec::new(); OpKind::ALL.len()];
        for (i, s) in self.syms.iter().enumerate() {
            self.op_pos[s.op.index()].push(i as u32);
        }
    }

    /// Number of tier-l symbols at or before position `end` (exclusive).
    fn tier_count_before(&self, tier: Tier, end: usize) -> usize {
        let idx = match tier {
            Tier::CallStructure => &self.t1,
            Tier::Control => &self.t2,
            Tier::Concrete => return end,
        };
        idx.partition_point(|&p| (p as usize) < end)
    }

    /// Backward common-suffix length at tier `tier` between `self[..a]`
    /// and `other[..b]`, capped at `cap` comparisons.
    fn tier_suffix(
        &self,
        a: usize,
        other: &IndexedSegment,
        b: usize,
        tier: Tier,
        cap: usize,
    ) -> usize {
        match tier {
            // Concrete tier: the SWAR kernel, eight symbols per step.
            // Pinned byte-identical to the scalar backward scan by the
            // corpus crate's `swar_equivalence` proptest suite — the
            // packed `compat` (equal op byte, non-contradicting 2-bit
            // dir codes) is exactly `sym_compat`.
            Tier::Concrete => suffix_swar(
                &self.packed.ops,
                &self.packed.dirs,
                a,
                &other.packed.ops,
                &other.packed.dirs,
                b,
                cap,
            ),
            _ => {
                let (ia, ib) = match tier {
                    Tier::CallStructure => (&self.t1, &other.t1),
                    Tier::Control => (&self.t2, &other.t2),
                    Tier::Concrete => unreachable!(),
                };
                let ca = self.tier_count_before(tier, a);
                let cb = other.tier_count_before(tier, b);
                let mut n = 0;
                while n < cap && n < ca && n < cb {
                    let pa = ia[ca - 1 - n] as usize;
                    let pb = ib[cb - 1 - n] as usize;
                    if !sym_compat(self.syms[pa], other.syms[pb]) {
                        break;
                    }
                    n += 1;
                }
                n
            }
        }
    }
}

/// A CS candidate: `(segment index, anchor end offset)` — the anchor's
/// last symbol sits at `offset` (inclusive) in that segment.
type Candidate = (usize, usize);

/// Inserts `entry` into `best`, kept sorted by descending score, after
/// every entry with an equal score (ties keep arrival order), and keeps
/// at most `top_n` entries — the top-N list of Algorithms 3 and 4.
fn push_ranked(best: &mut Vec<(Candidate, usize)>, entry: (Candidate, usize), top_n: usize) {
    let pos = best.partition_point(|&(_, score)| score >= entry.1);
    if pos < top_n {
        best.insert(pos, entry);
        best.truncate(top_n);
    }
}

/// Per-hole confirm-window context handed to the summary prefilter: the
/// post-hole window the winning fill must reproduce and the hole's
/// timestamp budget (both exactly as the confirm scan will use them).
struct ConfirmCtx<'w> {
    post_window: &'w [Sym],
    budget: usize,
}

/// Occurrence probes [`Recovery::can_confirm`] spends per candidate
/// before giving up and keeping it. Keeps the prefilter's worst case
/// (a window of ubiquitous op kinds) cheaper than the scoring it
/// short-circuits; an undecided candidate is simply not pruned.
const CONFIRM_PROBE_CAP: usize = 64;

/// Key of the anchor index: the opcode sequence of an anchor window,
/// always one `Copy` word (see [`jportal_corpus::anchor_key`]).
///
/// Anchors are short (`anchor_len` defaults to 3), so the common case
/// packs the opcodes into one `u64` — `OpKind` is `#[repr(u8)]` — and a
/// probe is hash-one-word. Longer anchors (> 8 opcodes, never under
/// default configs) hash the op slice directly instead of allocating a
/// `Vec` spelling per lookup; hashed keys can collide, so
/// [`Recovery::candidates`] verifies each candidate's window against
/// the query ops for long anchors — a collision costs one wasted
/// compare, never a wrong candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct AnchorKey(u64);

impl AnchorKey {
    fn of(anchor: &[Sym]) -> AnchorKey {
        AnchorKey(jportal_corpus::anchor_key(anchor))
    }
}

/// Reusable buffers for [`Recovery::fill_hole_with`]: the fallback walk's
/// BFS parent map and queue, reused across every hole one worker fills.
#[derive(Debug, Default)]
pub struct FillScratch {
    parent: FxHashMap<NodeId, NodeId>,
    queue: VecDeque<(NodeId, usize)>,
    /// Corpus candidate buffer, reused across holes so the corpus
    /// lookup path stays allocation-free per hole.
    corpus_cands: Vec<jportal_corpus::CorpusCandidate>,
}

impl FillScratch {
    /// A fresh, empty scratch.
    pub fn new() -> FillScratch {
        FillScratch::default()
    }

    /// Capacity high-water mark (BFS parent-map plus queue slots), read
    /// into a telemetry gauge after each fill.
    pub fn high_water(&self) -> usize {
        self.parent.capacity() + self.queue.capacity()
    }
}

/// Per-hole cap on individually-journaled candidate events. Busy anchors
/// can have thousands of candidates; journaling the first few dozen
/// (always the head of the deterministic consideration order) keeps the
/// ring bounded while the tail is summarised by one
/// [`JournalEvent::CandidatesElided`].
const JOURNAL_CANDIDATES_MAX: u32 = 32;

/// Capped per-hole emitter of [`JournalEvent::CandidateConsidered`]
/// events. A hole's candidates are scanned sequentially, in index
/// order, so the event stream is the same at any worker count even
/// when different holes fill on different workers.
struct CandidateJournal<'r, 'j> {
    rec: Option<&'r mut JournalRecorder<'j>>,
    hole: u32,
    emitted: u32,
    elided: u32,
}

impl<'r, 'j> CandidateJournal<'r, 'j> {
    fn new(rec: Option<&'r mut JournalRecorder<'j>>, hole: u32) -> CandidateJournal<'r, 'j> {
        CandidateJournal {
            rec,
            hole,
            emitted: 0,
            elided: 0,
        }
    }

    fn consider(&mut self, rank: u32, cand: Candidate, outcome: CandidateOutcome, score: usize) {
        let Some(rec) = self.rec.as_deref_mut() else {
            return;
        };
        if self.emitted >= JOURNAL_CANDIDATES_MAX {
            self.elided += 1;
            return;
        }
        self.emitted += 1;
        rec.emit(JournalEvent::CandidateConsidered {
            hole: self.hole,
            rank,
            cs_segment: cand.0 as u32,
            offset: cand.1 as u32,
            outcome,
            score: score.min(u32::MAX as usize) as u32,
        });
    }

    fn finish(&mut self) {
        if self.elided > 0 {
            if let Some(rec) = self.rec.as_deref_mut() {
                rec.emit(JournalEvent::CandidatesElided {
                    hole: self.hole,
                    count: self.elided,
                });
            }
        }
    }
}

/// Recovery engine over one thread's segments.
#[derive(Debug)]
pub struct Recovery<'a> {
    program: &'a Program,
    icfg: &'a Icfg,
    cfg: RecoveryConfig,
    /// Per-method dominator facts for anchor ranking (optional).
    doms: Option<&'a AnalysisIndex>,
    /// Interprocedural method summaries for candidate prefiltering
    /// (optional; see [`Recovery::with_summaries`]).
    summaries: Option<&'a SummaryTable>,
    /// Persistent cross-run segment corpus, consulted as a **secondary**
    /// candidate source (optional; see [`Recovery::with_corpus`]).
    corpus: Option<&'a Corpus>,
    indexed: Vec<IndexedSegment>,
    /// Anchor index: packed op-kind key → candidate positions.
    anchor_index: FxHashMap<AnchorKey, Vec<Candidate>>,
}

impl<'a> Recovery<'a> {
    /// Builds the recovery engine, indexing all segments as CS sources.
    pub fn new(
        program: &'a Program,
        icfg: &'a Icfg,
        segments: &[SegmentView],
        cfg: RecoveryConfig,
    ) -> Recovery<'a> {
        let indexed: Vec<IndexedSegment> = segments.iter().map(IndexedSegment::new).collect();
        let x = cfg.anchor_len;
        let mut anchor_index: FxHashMap<AnchorKey, Vec<Candidate>> = FxHashMap::default();
        for (si, seg) in indexed.iter().enumerate() {
            if seg.syms.len() < x + 1 {
                continue;
            }
            // Anchor ends at `end` (inclusive); a suffix must follow.
            for end in (x - 1)..seg.syms.len() - 1 {
                let key = AnchorKey::of(&seg.syms[end + 1 - x..=end]);
                anchor_index.entry(key).or_default().push((si, end));
            }
        }
        Recovery {
            program,
            icfg,
            cfg,
            doms: None,
            summaries: None,
            corpus: None,
            indexed,
            anchor_index,
        }
    }

    /// Attaches a persistent segment corpus as a **secondary** candidate
    /// source: for a hole, the corpus is consulted only after every
    /// in-run candidate fails the confirm scan, and before the fallback
    /// walk. In-run fills are therefore byte-identical with or without a
    /// corpus attached — what the corpus changes is holes that would
    /// otherwise degrade to a low-confidence walk or stay unfilled, which
    /// is why fill rate and mean confidence are non-decreasing in corpus
    /// size. Ignored (with a miss-free stats profile) when the corpus was
    /// indexed for a different `anchor_len` than this engine's.
    pub fn with_corpus(mut self, corpus: &'a Corpus) -> Recovery<'a> {
        self.corpus = Some(corpus);
        self
    }

    /// Supplies per-method dominator facts. When present, candidates with
    /// equal common-suffix scores are re-ranked: an anchor whose located
    /// instructions **dominate** the hole's resume point (the first
    /// located node after the hole) is a stronger witness — every
    /// execution reaching the resume point must have passed through it —
    /// so it wins the tie. The re-rank is a stable sort over the already
    /// deterministic ranking, so reports stay identical at any worker
    /// count.
    pub fn with_dominators(mut self, doms: &'a AnalysisIndex) -> Recovery<'a> {
        self.doms = Some(doms);
        self
    }

    /// Kept for source compatibility; has no effect. Candidate scoring
    /// is sequential within a hole: the parallelism of recovery is over
    /// holes, which are independent and fill through `&self` (see
    /// `JPortal::analyze`).
    pub fn with_workers(self, _workers: usize) -> Recovery<'a> {
        self
    }

    /// Enables the summary prefilter. When present, candidates whose
    /// suffix **provably cannot contain this hole's confirm window**
    /// (the `y` post-hole symbols, within budget) are identified before
    /// the search runs — they can never be chosen as the fill. The check
    /// is **exact** up to a probe cap (an undecided candidate is kept),
    /// and pruned candidates still flow through Algorithm 4's gates and
    /// ranking unchanged (see [`Recovery::search_abstraction`]), so
    /// reconstructed timelines are identical with the prefilter on or
    /// off; what pruning buys is a shorter journal (pruned candidates
    /// emit no per-candidate events) and the `summary_pruned`
    /// diagnostics. It saves no scoring work.
    ///
    /// Method-identity-based pruning (matching the candidate's located
    /// method against the IS's) was deliberately rejected: a projection
    /// restart can *relocate* a run to any window-matching position, so
    /// located method identity is not trustworthy evidence on lossy
    /// input — the same reasoning that grades the linter's frame checks
    /// (see `jportal_analysis::lint`). Only op-kind facts recorded by
    /// the hardware survive relocation, and this prefilter uses nothing
    /// else.
    pub fn with_summaries(mut self, summaries: &'a SummaryTable) -> Recovery<'a> {
        self.summaries = Some(summaries);
        for seg in &mut self.indexed {
            seg.build_op_index();
        }
        self
    }

    /// Candidate CS positions for an IS ending with `anchor` syms, each
    /// tagged `true` if the summary prefilter proved it can never
    /// confirm for the hole described by `ctx` (pruned counts land in
    /// [`RecoveryStats::summary_pruned`], not in
    /// [`RecoveryStats::candidates`]).
    ///
    /// Streams over the anchor index's slice in index order — busy
    /// anchors have thousands of positions, and most candidates die at
    /// the first tier test, so nothing is collected.
    fn candidates<'s>(
        &'s self,
        is_seg: usize,
        anchor: &'s [Sym],
        ctx: Option<&'s ConfirmCtx<'_>>,
    ) -> impl Iterator<Item = (Candidate, bool)> + 's {
        let is_end = self.indexed[is_seg].syms.len() - 1;
        let positions = self
            .anchor_index
            .get(&AnchorKey::of(anchor))
            .map_or(&[][..], Vec::as_slice);
        positions
            .iter()
            .copied()
            // The IS's own tail is not a usable CS for itself.
            .filter(move |&(si, end)| !(si == is_seg && end == is_end))
            // Hashed long-anchor keys can collide: verify the
            // candidate's op window (≤ 8 op keys are exact).
            .filter(move |&(si, end)| {
                anchor.len() <= 8
                    || anchor
                        .iter()
                        .enumerate()
                        .all(|(k, a)| self.indexed[si].syms[end + 1 - anchor.len() + k].op == a.op)
            })
            .map(move |cand| {
                let dead = match ctx {
                    Some(c) if self.summaries.is_some() => !self.can_confirm(cand, c),
                    _ => false,
                };
                (cand, dead)
            })
    }

    /// `true` unless candidate `(si, end)`'s suffix provably contains no
    /// window matching `ctx.post_window` within `ctx.budget` — the exact
    /// success condition of the confirm scan in
    /// [`Recovery::fill_hole_with`]. The scan walks the occurrences of
    /// the window's rarest op kind (per-segment position index), so a
    /// hopeless candidate is usually rejected in O(log n); after
    /// [`CONFIRM_PROBE_CAP`] occurrence probes the candidate is kept
    /// (undecided ⇒ alive keeps the prefilter sound).
    fn can_confirm(&self, (si, end): Candidate, ctx: &ConfirmCtx<'_>) -> bool {
        let cs = &self.indexed[si];
        let suffix_start = end + 1;
        let y = ctx.post_window.len();
        let len = cs.syms.len();
        let available = len - suffix_start;
        if available < y {
            return false;
        }
        // Highest window start the confirm scan would try: `d` is capped
        // by the budget and the window must fit inside the segment.
        let hi = (suffix_start + ctx.budget.min(available)).min(len - y);
        let k_rare = (0..y)
            .min_by_key(|&k| cs.op_pos[ctx.post_window[k].op.index()].len())
            .unwrap_or(0);
        let positions = &cs.op_pos[ctx.post_window[k_rare].op.index()];
        let lo = suffix_start + k_rare;
        let mut probes = 0usize;
        for &p in &positions[positions.partition_point(|&q| (q as usize) < lo)..] {
            let p = p as usize;
            if p > hi + k_rare {
                break;
            }
            probes += 1;
            if probes > CONFIRM_PROBE_CAP {
                return true;
            }
            let from = p - k_rare;
            if ctx
                .post_window
                .iter()
                .enumerate()
                .all(|(k, &s)| sym_compat(cs.syms[from + k], s))
            {
                return true;
            }
        }
        false
    }

    /// **Algorithm 3**: naive CS search — full concrete comparison per
    /// candidate, keeping the `top_n` best (ties keep index order).
    pub fn search_naive(
        &self,
        is_seg: usize,
        stats: &mut RecoveryStats,
    ) -> Vec<(Candidate, usize)> {
        self.search_naive_journaled(is_seg, stats, None, &mut CandidateJournal::new(None, 0))
    }

    fn search_naive_journaled(
        &self,
        is_seg: usize,
        stats: &mut RecoveryStats,
        ctx: Option<&ConfirmCtx<'_>>,
        journal: &mut CandidateJournal<'_, '_>,
    ) -> Vec<(Candidate, usize)> {
        let is = &self.indexed[is_seg];
        if is.syms.len() < self.cfg.anchor_len {
            return Vec::new();
        }
        let anchor = &is.syms[is.syms.len() - self.cfg.anchor_len..];
        let mut best: Vec<(Candidate, usize)> = Vec::new();
        for (rank, (cand, dead)) in self.candidates(is_seg, anchor, ctx).enumerate() {
            let (si, end) = cand;
            let score = is.tier_suffix(
                is.syms.len(),
                &self.indexed[si],
                end + 1,
                Tier::Concrete,
                usize::MAX,
            );
            // Prefilter-pruned candidates keep their score (the ranking
            // must be identical with the prefilter off) but are not
            // journaled individually.
            if dead {
                stats.summary_pruned += 1;
            } else {
                stats.candidates += 1;
                journal.consider(rank as u32, cand, CandidateOutcome::Scored, score);
            }
            push_ranked(&mut best, (cand, score), self.cfg.top_n);
        }
        best
    }

    /// **Algorithm 4**: abstraction-guided CS search with tier-1/tier-2
    /// pruning (Theorem 5.5): once the top-N list is full, a candidate
    /// is dropped as soon as its cheap capped tier-1 or tier-2 suffix
    /// falls below that of the best candidate so far, before any
    /// concrete work.
    pub fn search_abstraction(
        &self,
        is_seg: usize,
        stats: &mut RecoveryStats,
    ) -> Vec<(Candidate, usize)> {
        self.search_abstraction_journaled(is_seg, stats, None, &mut CandidateJournal::new(None, 0))
    }

    /// Prefilter-pruned candidates are processed through **exactly** the
    /// same gates, maxima updates and ranking as live ones — the ranked
    /// list (and therefore the chosen fill) is identical with the
    /// prefilter on or off by construction, not by a theorem about what
    /// pruning may drop. They only skip the per-candidate journal events
    /// and are tallied as [`RecoveryStats::summary_pruned`] instead of
    /// [`RecoveryStats::candidates`].
    fn search_abstraction_journaled(
        &self,
        is_seg: usize,
        stats: &mut RecoveryStats,
        ctx: Option<&ConfirmCtx<'_>>,
        journal: &mut CandidateJournal<'_, '_>,
    ) -> Vec<(Candidate, usize)> {
        let is = &self.indexed[is_seg];
        if is.syms.len() < self.cfg.anchor_len {
            return Vec::new();
        }
        let anchor = &is.syms[is.syms.len() - self.cfg.anchor_len..];
        let mut best: Vec<(Candidate, usize)> = Vec::new();
        // Running maxima ⟨m1, m2, m3⟩ of Algorithm 4; pruning compares
        // against the weakest kept candidate when the list is full.
        let (mut m1, mut m2, mut m3) = (0usize, 0usize, 0usize);
        for (rank, (cand, dead)) in self.candidates(is_seg, anchor, ctx).enumerate() {
            let (si, end) = cand;
            let cs = &self.indexed[si];
            if dead {
                stats.summary_pruned += 1;
            } else {
                stats.candidates += 1;
            }
            let full = self.cfg.top_n > best.len();
            // Tier 1: cheap test first.
            let ml1 = is.tier_suffix(is.syms.len(), cs, end + 1, Tier::CallStructure, m1 + 64);
            if !full && ml1 < m1 {
                if !dead {
                    stats.pruned_tier1 += 1;
                    journal.consider(rank as u32, cand, CandidateOutcome::PrunedTier1, ml1);
                }
                continue;
            }
            let ml2 = is.tier_suffix(is.syms.len(), cs, end + 1, Tier::Control, m2 + 64);
            if !full && ml2 < m2 {
                if !dead {
                    stats.pruned_tier2 += 1;
                    journal.consider(rank as u32, cand, CandidateOutcome::PrunedTier2, ml2);
                }
                continue;
            }
            let ml3 = is.tier_suffix(is.syms.len(), cs, end + 1, Tier::Concrete, usize::MAX);
            if ml3 >= m3 {
                m3 = ml3;
                m1 = ml1;
                m2 = ml2;
            }
            if !dead {
                journal.consider(rank as u32, cand, CandidateOutcome::Scored, ml3);
            }
            push_ranked(&mut best, (cand, ml3), self.cfg.top_n);
        }
        best
    }

    /// Fills the hole after `is_seg` using the ranked candidates; returns
    /// the fill and how it was obtained. One-shot wrapper over
    /// [`Recovery::fill_hole_with`].
    pub fn fill_hole(
        &self,
        segments: &[SegmentView],
        is_seg: usize,
        post_seg: usize,
        loss: Option<LossRecord>,
        stats: &mut RecoveryStats,
    ) -> Fill {
        let mut scratch = FillScratch::new();
        self.fill_hole_with(segments, is_seg, post_seg, loss, stats, &mut scratch)
    }

    /// Fills the hole after `is_seg`, reusing `scratch` buffers for the
    /// fallback walk; callers filling many holes (one per loss record per
    /// thread) keep one scratch alive across all of them.
    pub fn fill_hole_with(
        &self,
        segments: &[SegmentView],
        is_seg: usize,
        post_seg: usize,
        loss: Option<LossRecord>,
        stats: &mut RecoveryStats,
        scratch: &mut FillScratch,
    ) -> Fill {
        let mut inert = Journal::recorder(None, 0);
        self.fill_hole_journaled(
            segments, is_seg, post_seg, loss, stats, scratch, &mut inert, 1,
        )
    }

    /// [`Recovery::fill_hole_with`] plus flight-recorder emission: the
    /// hole opening, every considered candidate (capped, with the tier it
    /// died at), the winner with its margin and confidence, the fallback
    /// walk, or the unfilled verdict — all through `recorder`, keyed
    /// under the IS's segment index. `hole` is the 1-based hole index
    /// within the thread (matching `ThreadReport::holes` order).
    #[allow(clippy::too_many_arguments)]
    pub fn fill_hole_journaled(
        &self,
        segments: &[SegmentView],
        is_seg: usize,
        post_seg: usize,
        loss: Option<LossRecord>,
        stats: &mut RecoveryStats,
        scratch: &mut FillScratch,
        recorder: &mut JournalRecorder<'_>,
        hole: u32,
    ) -> Fill {
        stats.holes += 1;
        let post = &self.indexed[post_seg];
        let budget = self.hole_budget(segments, is_seg, loss);
        // The raw (pre-`budget_factor`) event estimate: the best guess
        // at how many truth events the hole actually swallowed.
        let estimate = budget as f64 / self.cfg.budget_factor.max(1.0);

        if recorder.is_enabled() {
            recorder.set_segment(is_seg as u32);
            let is = &self.indexed[is_seg];
            let x = self.cfg.anchor_len.min(is.syms.len());
            let (first_ts, last_ts) = match loss {
                Some(l) => (l.first_ts, l.last_ts),
                None => (0, 0),
            };
            recorder.emit(JournalEvent::HoleOpened {
                hole,
                first_ts,
                last_ts,
                anchor_len: self.cfg.anchor_len as u32,
                anchor: spell_anchor(&is.syms[is.syms.len() - x..]),
                budget: budget as u64,
            });
        }
        let pre_candidates = stats.candidates;
        let pre_summary_pruned = stats.summary_pruned;
        // Confirm-window context for the summary prefilter: exactly the
        // window and budget the confirm scan below will use. An empty
        // post window means nothing can ever confirm, so there is no
        // point prefiltering.
        let post_window = &post.syms[..self.cfg.confirm_len.min(post.syms.len())];
        let ctx = (!post_window.is_empty()).then_some(ConfirmCtx {
            post_window,
            budget,
        });
        let mut journal =
            CandidateJournal::new(recorder.is_enabled().then_some(&mut *recorder), hole);
        let mut ranked = if self.cfg.use_abstraction {
            self.search_abstraction_journaled(is_seg, stats, ctx.as_ref(), &mut journal)
        } else {
            self.search_naive_journaled(is_seg, stats, ctx.as_ref(), &mut journal)
        };
        journal.finish();
        if self.summaries.is_some() {
            let pruned = stats.summary_pruned - pre_summary_pruned;
            let considered = stats.candidates - pre_candidates + pruned;
            if considered > 0 {
                recorder.emit(JournalEvent::SummaryPrefilter {
                    hole,
                    considered: considered as u32,
                    pruned: pruned as u32,
                });
            }
        }
        self.rank_with_dominators(&mut ranked, segments, post_seg);

        let y = self.cfg.confirm_len;
        for (idx, &((si, end), score)) in ranked.iter().enumerate() {
            let cs = &self.indexed[si];
            // Scan the CS suffix for a y-window matching the post-hole
            // beginning, within budget.
            let suffix_start = end + 1;
            let available = cs.syms.len().saturating_sub(suffix_start);
            let max_fill = budget.min(available);
            let truncated = max_fill < available;
            if truncated {
                stats.budget_truncations += 1;
            }
            let post_window = &post.syms[..y.min(post.syms.len())];
            if y >= 1 && post_window.is_empty() {
                continue;
            }
            let mut found: Option<usize> = None;
            for d in 0..=max_fill {
                let from = suffix_start + d;
                if from + post_window.len() > cs.syms.len() {
                    break;
                }
                if post_window
                    .iter()
                    .enumerate()
                    .all(|(k, &s)| sym_compat(cs.syms[from + k], s))
                {
                    found = Some(d);
                    break;
                }
            }
            if let Some(d) = found {
                let mut fill = self.entries_from_cs(segments, si, suffix_start, d, is_seg, loss);
                // Margin over the best *other* ranked score: candidates
                // earlier in rank order failed to confirm, so a non-top
                // winner gets margin 0 (its score was not the best).
                let runner_up = if idx == 0 {
                    ranked.get(1).map(|&(_, s)| s).unwrap_or(0)
                } else {
                    ranked[0].1
                };
                let sole = ranked.len() == 1;
                fill.confidence = cs_confidence(
                    score,
                    runner_up,
                    sole,
                    max_fill,
                    available,
                    fill.entries.len(),
                    estimate,
                );
                stats.filled_from_cs += 1;
                stats.recovered_events += fill.entries.len();
                recorder.emit(JournalEvent::CandidateChosen {
                    hole,
                    cs_segment: si as u32,
                    offset: end as u32,
                    score: score as u32,
                    runner_up: runner_up as u32,
                    margin: score.saturating_sub(runner_up) as u32,
                    fill_len: fill.entries.len() as u32,
                    budget: budget as u64,
                    truncated,
                    confidence_ppm: ppm(fill.confidence),
                });
                return fill;
            }
        }

        // Secondary source: the persistent cross-run corpus, consulted
        // only now that every in-run candidate has failed to confirm —
        // so attaching a corpus never changes an in-run fill, and a
        // growing corpus can only upgrade walk/unfilled holes.
        if let Some(fill) = self.corpus_fill(
            segments, is_seg, post_seg, loss, budget, estimate, stats, scratch, recorder, hole,
        ) {
            return fill;
        }

        // Fallback: walk the ICFG between the surrounding nodes.
        stats.fallback_walks += 1;
        if let Some(mut fill) = self.walk_fill(segments, is_seg, post_seg, loss, scratch) {
            fill.confidence = walk_confidence(fill.entries.len(), estimate);
            stats.filled_by_walk += 1;
            stats.recovered_events += fill.entries.len();
            recorder.emit(JournalEvent::FallbackWalk {
                hole,
                fill_len: fill.entries.len() as u32,
                confidence_ppm: ppm(fill.confidence),
            });
            return fill;
        }
        stats.unfilled += 1;
        recorder.emit(JournalEvent::HoleUnfilled { hole });
        Fill::default()
    }

    /// Tries to fill the hole from the persistent corpus: candidates
    /// come from the corpus's sharded anchor index
    /// (O(candidates-for-anchor) regardless of corpus size), are ranked
    /// by the SWAR common suffix against the IS, and the top-N run the
    /// same confirm scan as in-run candidates. Returns `None` — falling
    /// through to the walk — when no corpus is attached, its anchor
    /// length differs from the engine's, or nothing confirms.
    #[allow(clippy::too_many_arguments)]
    fn corpus_fill(
        &self,
        segments: &[SegmentView],
        is_seg: usize,
        post_seg: usize,
        loss: Option<LossRecord>,
        budget: usize,
        estimate: f64,
        stats: &mut RecoveryStats,
        scratch: &mut FillScratch,
        recorder: &mut JournalRecorder<'_>,
        hole: u32,
    ) -> Option<Fill> {
        let corpus = self.corpus?;
        let x = self.cfg.anchor_len;
        if corpus.anchor_len() != x || self.indexed[is_seg].syms.len() < x {
            return None;
        }
        let is = &self.indexed[is_seg];
        let post = &self.indexed[post_seg];
        let anchor = &is.syms[is.syms.len() - x..];
        corpus.candidates_into(anchor, &mut scratch.corpus_cands);
        stats.corpus_lookups += 1;
        stats.corpus_candidates += scratch.corpus_cands.len();

        // Rank by SWAR common suffix, index order breaking ties — the
        // corpus candidate order is deterministic, so the ranking is too.
        let mut ranked: Vec<((u32, u32), usize)> = scratch
            .corpus_cands
            .iter()
            .map(|&(seg, end)| {
                let v = corpus.segment(seg);
                let score = suffix_swar(
                    &is.packed.ops,
                    &is.packed.dirs,
                    is.syms.len(),
                    v.ops,
                    v.dirs,
                    end as usize + 1,
                    usize::MAX,
                );
                ((seg, end), score)
            })
            .collect();
        ranked.sort_by_key(|&(_, score)| std::cmp::Reverse(score));
        ranked.truncate(self.cfg.top_n);

        let y = self.cfg.confirm_len;
        let post_window = &post.syms[..y.min(post.syms.len())];
        if !(y >= 1 && post_window.is_empty()) {
            for (idx, &((seg, end), score)) in ranked.iter().enumerate() {
                let v = corpus.segment(seg);
                let suffix_start = end as usize + 1;
                let available = v.len - suffix_start;
                let max_fill = budget.min(available);
                if max_fill < available {
                    stats.budget_truncations += 1;
                }
                let mut found: Option<usize> = None;
                for d in 0..=max_fill {
                    let from = suffix_start + d;
                    if from + post_window.len() > v.len {
                        break;
                    }
                    if post_window
                        .iter()
                        .enumerate()
                        .all(|(k, &s)| sym_compat(v.sym(from + k), s))
                    {
                        found = Some(d);
                        break;
                    }
                }
                let Some(d) = found else { continue };
                let mut fill = Fill::default();
                let (t0, t1) = match loss {
                    Some(l) => (l.first_ts, l.last_ts),
                    None => {
                        let t = segments[is_seg].events.last().map(|e| e.ts).unwrap_or(0);
                        (t, t)
                    }
                };
                for k in 0..d {
                    let i = suffix_start + k;
                    let s = v.sym(i);
                    let (m, b) = v.loc(i);
                    let ts = if d > 1 {
                        t0 + (t1 - t0) * k as u64 / (d as u64 - 1).max(1)
                    } else {
                        t0
                    };
                    fill.entries.push(TraceEntry {
                        op: s.op,
                        method: m.map(MethodId),
                        bci: b.map(Bci),
                        ts,
                        origin: TraceOrigin::Recovered,
                    });
                    // Corpus entries carry no ICFG node (the corpus
                    // outlives any one projection), so the linter grades
                    // them like unlocated splices; seams carry over from
                    // the corpus segment's recorded projection breaks.
                    let boundary = k == 0 || v.breaks.binary_search(&(i as u32)).is_ok();
                    fill.steps.push(LintStep {
                        node: None,
                        op: s.op,
                        dir: s.dir,
                        boundary,
                        lossy: boundary,
                    });
                }
                let runner_up = if idx == 0 {
                    ranked.get(1).map(|&(_, s)| s).unwrap_or(0)
                } else {
                    ranked[0].1
                };
                let sole = ranked.len() == 1;
                fill.confidence = cs_confidence(
                    score,
                    runner_up,
                    sole,
                    max_fill,
                    available,
                    fill.entries.len(),
                    estimate,
                );
                stats.corpus_hits += 1;
                stats.filled_from_cs += 1;
                stats.recovered_events += fill.entries.len();
                recorder.emit(JournalEvent::CorpusLookup {
                    hole,
                    candidates: scratch.corpus_cands.len() as u32,
                    hit: true,
                    cs_segment: seg,
                    score: score.min(u32::MAX as usize) as u32,
                    fill_len: fill.entries.len() as u32,
                    confidence_ppm: ppm(fill.confidence),
                });
                return Some(fill);
            }
        }
        stats.corpus_misses += 1;
        recorder.emit(JournalEvent::CorpusLookup {
            hole,
            candidates: scratch.corpus_cands.len() as u32,
            hit: false,
            cs_segment: 0,
            score: 0,
            fill_len: 0,
            confidence_ppm: 0,
        });
        None
    }

    /// Stable dominator-informed re-rank of the candidate list (see
    /// [`Recovery::with_dominators`]): ties on the common-suffix score are
    /// broken by how many of the anchor's located instructions dominate
    /// the hole's resume point.
    fn rank_with_dominators(
        &self,
        ranked: &mut [(Candidate, usize)],
        segments: &[SegmentView],
        post_seg: usize,
    ) {
        let Some(doms) = self.doms else { return };
        let Some(&resume) = segments[post_seg].nodes.iter().flatten().next() else {
            return;
        };
        let (rm, rb) = self.icfg.location(resume);
        let x = self.cfg.anchor_len;
        let bonus = |&(si, end): &Candidate| -> usize {
            segments[si].nodes[end + 1 - x..=end]
                .iter()
                .flatten()
                .filter(|&&n| {
                    let (m, b) = self.icfg.location(n);
                    m == rm && doms.bci_dominates(m, b, rb)
                })
                .count()
        };
        ranked.sort_by_key(|(cand, score)| {
            (std::cmp::Reverse(*score), std::cmp::Reverse(bonus(cand)))
        });
    }

    /// Estimated maximum number of events the hole can hold, from its
    /// timestamp span and the IS's observed event rate.
    fn hole_budget(
        &self,
        segments: &[SegmentView],
        is_seg: usize,
        loss: Option<LossRecord>,
    ) -> usize {
        let Some(loss) = loss else {
            return self.cfg.max_walk;
        };
        let is = &segments[is_seg];
        let span = loss.last_ts.saturating_sub(loss.first_ts).max(1);
        let is_events = is.events.len().max(2) as f64;
        let is_span = is
            .events
            .last()
            .map(|l| l.ts.saturating_sub(is.events[0].ts))
            .unwrap_or(0)
            .max(1) as f64;
        let rate = is_events / is_span; // events per cycle
        ((span as f64 * rate * self.cfg.budget_factor) as usize).clamp(4, 100_000)
    }

    fn entries_from_cs(
        &self,
        segments: &[SegmentView],
        cs_seg: usize,
        from: usize,
        len: usize,
        is_seg: usize,
        loss: Option<LossRecord>,
    ) -> Fill {
        let cs = &segments[cs_seg];
        let (t0, t1) = match loss {
            Some(l) => (l.first_ts, l.last_ts),
            None => {
                let t = segments[is_seg].events.last().map(|e| e.ts).unwrap_or(0);
                (t, t)
            }
        };
        let mut fill = Fill::default();
        for k in 0..len {
            let e = &cs.events[from + k];
            let node = cs.nodes[from + k];
            let ts = if len > 1 {
                t0 + (t1 - t0) * k as u64 / (len as u64 - 1).max(1)
            } else {
                t0
            };
            let (method, bci) = match node {
                Some(n) => {
                    let (m, b) = self.icfg.location(n);
                    (Some(m), Some(b))
                }
                None => (e.method, e.bci),
            };
            fill.entries.push(TraceEntry {
                op: e.sym.op,
                method,
                bci,
                ts,
                origin: TraceOrigin::Recovered,
            });
            // The splice itself is a seam; inside the window, the CS's own
            // projection seams carry over.
            let boundary = k == 0 || cs.breaks.binary_search(&(from + k)).is_ok();
            // Spliced content stands in for events the hardware dropped:
            // every seam inside it is lossy for the linter.
            fill.steps.push(LintStep {
                node,
                op: e.sym.op,
                dir: e.sym.dir,
                boundary,
                lossy: boundary,
            });
        }
        fill
    }

    /// Fallback: bounded breadth-first walk on the ICFG from the last
    /// projected node before the hole to the first projected node after
    /// it (the paper "walks the ICFG and returns a random path").
    fn walk_fill(
        &self,
        segments: &[SegmentView],
        is_seg: usize,
        post_seg: usize,
        loss: Option<LossRecord>,
        scratch: &mut FillScratch,
    ) -> Option<Fill> {
        let from = segments[is_seg]
            .nodes
            .iter()
            .rev()
            .flatten()
            .next()
            .copied()?;
        let to = segments[post_seg].nodes.iter().flatten().next().copied()?;
        let max = self.cfg.max_walk;
        // BFS for a shortest connecting path, on reusable buffers.
        let parent = &mut scratch.parent;
        let queue = &mut scratch.queue;
        parent.clear();
        queue.clear();
        queue.push_back((from, 0usize));
        parent.insert(from, from);
        let mut reached = false;
        while let Some((n, d)) = queue.pop_front() {
            if n == to && d > 0 {
                reached = true;
                break;
            }
            if d >= max {
                continue;
            }
            for e in self.icfg.edges(n) {
                if let std::collections::hash_map::Entry::Vacant(v) = parent.entry(e.to) {
                    v.insert(n);
                    queue.push_back((e.to, d + 1));
                }
            }
        }
        if !reached {
            return None;
        }
        let mut path = Vec::new();
        let mut cur = to;
        while cur != from {
            path.push(cur);
            cur = parent[&cur];
        }
        path.reverse();
        // Drop the final node (it is the post segment's first event).
        path.pop();
        let (t0, t1) = match loss {
            Some(l) => (l.first_ts, l.last_ts),
            None => (0, 0),
        };
        let len = path.len().max(1) as u64;
        let mut fill = Fill::default();
        for (k, &n) in path.iter().enumerate() {
            let (m, b) = self.icfg.location(n);
            let insn = self.program.method(m).insn(b);
            let op = insn.op_kind();
            fill.entries.push(TraceEntry {
                op,
                method: Some(m),
                bci: Some(b),
                ts: t0 + (t1.saturating_sub(t0)) * k as u64 / len,
                origin: TraceOrigin::Walked,
            });
            // A walk is a real ICFG path starting at the IS's last located
            // node and ending one edge before the post segment's first —
            // edge-connected on both sides, so no boundaries: the linter
            // verifies every transition of the walk.
            fill.steps.push(LintStep::at(n, op));
        }
        Some(fill)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jportal_cfg::BranchDir;

    fn sym(op: OpKind) -> Sym {
        Sym::plain(op)
    }

    fn seg_from_ops(ops: &[OpKind]) -> SegmentView {
        SegmentView {
            events: ops
                .iter()
                .enumerate()
                .map(|(i, &op)| BcEvent {
                    sym: sym(op),
                    method: None,
                    bci: None,
                    ts: i as u64 * 10,
                })
                .collect(),
            nodes: vec![None; ops.len()],
            breaks: Vec::new(),
            loss_before: None,
        }
    }

    fn tiny_program() -> (Program, Icfg) {
        use jportal_bytecode::builder::ProgramBuilder;
        use jportal_bytecode::Instruction as I;
        let mut pb = ProgramBuilder::new();
        let c = pb.add_class("C", None, 0);
        let mut m = pb.method(c, "main", 0, false);
        m.emit(I::Iconst(1));
        m.emit(I::Pop);
        m.emit(I::Return);
        let id = m.finish();
        let p = pb.finish_with_entry(id).unwrap();
        let icfg = Icfg::build(&p);
        (p, icfg)
    }

    use jportal_bytecode::Program;

    #[test]
    fn indexed_segment_tiers() {
        let seg = IndexedSegment::new(&seg_from_ops(&[
            OpKind::Iload,
            OpKind::InvokeStatic,
            OpKind::Ifeq,
            OpKind::Iadd,
            OpKind::Ireturn,
        ]));
        assert_eq!(seg.t1, vec![1, 4]);
        assert_eq!(seg.t2, vec![1, 2, 4]);
        assert_eq!(seg.tier_count_before(Tier::CallStructure, 5), 2);
        assert_eq!(seg.tier_count_before(Tier::Control, 3), 2);
        assert_eq!(seg.tier_count_before(Tier::Concrete, 3), 3);
    }

    #[test]
    fn tier_suffix_lengths_obey_lemma_5_4() {
        // |α_l(ω0) ◦ α_l(ω1)| ≥ |α_l(ω0 ◦ ω1)| spot check.
        let a = IndexedSegment::new(&seg_from_ops(&[
            OpKind::Iload,
            OpKind::Ifeq,
            OpKind::Iadd,
            OpKind::Istore,
        ]));
        let b = IndexedSegment::new(&seg_from_ops(&[
            OpKind::Istore,
            OpKind::Ifeq,
            OpKind::Iadd,
            OpKind::Istore,
        ]));
        let m3 = a.tier_suffix(4, &b, 4, Tier::Concrete, usize::MAX);
        assert_eq!(m3, 3);
        let m2 = a.tier_suffix(4, &b, 4, Tier::Control, usize::MAX);
        assert_eq!(m2, 1, "one control symbol in the shared region");
        // Abstract suffix can only be ≥ the abstraction of the concrete
        // common suffix (here: equal).
        assert!(m2 >= 1);
    }

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// The summary prefilter's `can_confirm` must agree exactly with the
    /// literal confirm-scan success condition of `fill_hole_with` (scan
    /// `d ∈ 0..=budget.min(available)` for a window match): a pruned
    /// candidate that the scan would actually confirm changes the chosen
    /// fill, breaking the on/off report equivalence. Segments stay below
    /// [`CONFIRM_PROBE_CAP`] occurrences so the cap never forces a
    /// conservative "alive" answer and the check must be *exact*, not
    /// just sound.
    #[test]
    fn confirm_prefilter_matches_literal_confirm_scan() {
        use OpKind as O;
        let (p, icfg) = tiny_program();
        let pool = [
            O::Iadd,
            O::Isub,
            O::Dup,
            O::Pop,
            O::Ifeq,
            O::InvokeStatic,
            O::Ireturn,
        ];
        let mut s = 0x5EED_u64;
        let mut pruned = 0usize;
        let mut alive = 0usize;
        for _ in 0..200 {
            let len = 3 + (splitmix(&mut s) % 60) as usize;
            let ops: Vec<OpKind> = (0..len)
                .map(|_| pool[(splitmix(&mut s) % pool.len() as u64) as usize])
                .collect();
            let segs = vec![seg_from_ops(&ops)];
            let mut rec = Recovery::new(&p, &icfg, &segs, RecoveryConfig::default());
            for seg in &mut rec.indexed {
                seg.build_op_index();
            }
            for _ in 0..20 {
                let end = (splitmix(&mut s) % len as u64) as usize;
                let y = 1 + (splitmix(&mut s) % 5) as usize;
                let window: Vec<Sym> = (0..y)
                    .map(|_| sym(pool[(splitmix(&mut s) % pool.len() as u64) as usize]))
                    .collect();
                let budget = (splitmix(&mut s) % 40) as usize;
                let got = rec.can_confirm(
                    (0, end),
                    &ConfirmCtx {
                        post_window: &window,
                        budget,
                    },
                );
                // Literal reimplementation of the confirm scan.
                let suffix_start = end + 1;
                let available = len.saturating_sub(suffix_start);
                let expect = (0..=budget.min(available)).any(|d| {
                    let from = suffix_start + d;
                    from + y <= len
                        && window
                            .iter()
                            .enumerate()
                            .all(|(k, &w)| sym_compat(sym(ops[from + k]), w))
                });
                assert_eq!(
                    got, expect,
                    "ops={ops:?} end={end} window={window:?} budget={budget}"
                );
                if expect {
                    alive += 1;
                } else {
                    pruned += 1;
                }
            }
        }
        // The sweep must actually exercise both verdicts.
        assert!(pruned > 100, "too few unconfirmable cases: {pruned}");
        assert!(alive > 100, "too few confirmable cases: {alive}");
    }

    /// Builds the paper's Figure 6 scenario: an IS `…XEF⋄` with the true
    /// continuation `GHX`, a good CS containing `…CDXEFGHX…`, and a decoy
    /// whose anchor matches but whose prefix does not.
    fn figure6() -> (Program, Icfg, Vec<SegmentView>) {
        let (p, icfg) = tiny_program();
        use OpKind as O;
        // Alphabet mapping: A..Z → arbitrary distinct op kinds.
        let (a, b, c, d, e, f, g, h, x, j, y, m) = (
            O::Iadd,
            O::Isub,
            O::Imul,
            O::Iand,
            O::Ior,
            O::Ixor,
            O::Ishl,
            O::Ishr,
            O::Dup,
            O::Pop,
            O::Swap,
            O::Ineg,
        );
        // CS #1 (good): M C D X E F G H X B D C A C B X E F J Y X B
        let cs1 = seg_from_ops(&[
            m, c, d, x, e, f, g, h, x, b, d, c, a, c, b, x, e, f, j, y, x, b,
        ]);
        // CS #2 (decoy): A C D X E F B D C A — wait, the decoy in the
        // paper matches the anchor XEF but has a *different* prefix; build
        // one with no shared prefix before the anchor.
        let cs2 = seg_from_ops(&[y, j, x, e, f, j, j, j, j, j]);
        // IS: … C D X E F ⋄   (prefix shares "CD" with CS#1)
        let mut is = seg_from_ops(&[a, c, d, x, e, f]);
        is.loss_before = None;
        // Post segment: B D C A …
        let mut post = seg_from_ops(&[b, d, c, a, m, m]);
        post.loss_before = Some(LossRecord {
            stream_offset: 0,
            first_ts: 60,
            last_ts: 100,
            lost_bytes: 10,
            lost_packets: 3,
        });
        (p, icfg, vec![cs1, cs2, is, post])
    }

    #[test]
    fn figure6_recovery_prefers_the_matching_cs() {
        let (p, icfg, segs) = figure6();
        let cfg = RecoveryConfig {
            anchor_len: 3,
            confirm_len: 3,
            budget_factor: 16.0,
            ..RecoveryConfig::default()
        };
        let rec = Recovery::new(&p, &icfg, &segs, cfg);
        let mut stats = RecoveryStats::default();
        let fill = rec.fill_hole(&segs, 2, 3, segs[3].loss_before, &mut stats);
        // Fill must be G H X (the CS suffix up to where BDC matches).
        let ops: Vec<OpKind> = fill.entries.iter().map(|e| e.op).collect();
        assert_eq!(ops, vec![OpKind::Ishl, OpKind::Ishr, OpKind::Dup]);
        assert!(fill
            .entries
            .iter()
            .all(|e| e.origin == TraceOrigin::Recovered));
        // A CS splice starts at a seam; steps align with entries.
        assert_eq!(fill.steps.len(), fill.entries.len());
        assert!(fill.steps[0].boundary);
        assert_eq!(stats.filled_from_cs, 1);
        assert_eq!(stats.holes, 1);
    }

    #[test]
    fn algorithm3_and_algorithm4_rank_the_same_winner() {
        let (p, icfg, segs) = figure6();
        let cfg = RecoveryConfig {
            anchor_len: 3,
            confirm_len: 3,
            ..RecoveryConfig::default()
        };
        let rec = Recovery::new(&p, &icfg, &segs, cfg);
        let mut s3 = RecoveryStats::default();
        let mut s4 = RecoveryStats::default();
        let naive = rec.search_naive(2, &mut s3);
        let guided = rec.search_abstraction(2, &mut s4);
        assert!(!naive.is_empty() && !guided.is_empty());
        assert_eq!(naive[0].0, guided[0].0, "same best CS");
        assert_eq!(naive[0].1, guided[0].1, "same concrete suffix length");
    }

    #[test]
    fn timestamps_interpolate_across_the_hole() {
        let (p, icfg, segs) = figure6();
        let cfg = RecoveryConfig {
            anchor_len: 3,
            confirm_len: 3,
            budget_factor: 16.0,
            ..RecoveryConfig::default()
        };
        let rec = Recovery::new(&p, &icfg, &segs, cfg);
        let mut stats = RecoveryStats::default();
        let fill = rec.fill_hole(&segs, 2, 3, segs[3].loss_before, &mut stats);
        assert_eq!(fill.entries.first().unwrap().ts, 60);
        assert_eq!(fill.entries.last().unwrap().ts, 100);
    }

    #[test]
    fn unfillable_hole_falls_back_or_reports() {
        let (p, icfg) = tiny_program();
        // Two segments with nothing in common and no nodes projected:
        // neither CS search nor the walk can help.
        let segs = vec![
            seg_from_ops(&[OpKind::Iadd, OpKind::Isub, OpKind::Imul, OpKind::Iand]),
            seg_from_ops(&[OpKind::Swap, OpKind::Dup, OpKind::Pop]),
        ];
        let rec = Recovery::new(&p, &icfg, &segs, RecoveryConfig::default());
        let mut stats = RecoveryStats::default();
        let fill = rec.fill_hole(&segs, 0, 1, None, &mut stats);
        assert!(fill.entries.is_empty());
        assert_eq!(stats.unfilled, 1);
    }

    #[test]
    fn walk_fallback_connects_projected_nodes() {
        let (p, icfg) = tiny_program();
        // IS ends projected at node(main, 0); post starts at node(main, 2).
        let entry = p.entry();
        let mut is = seg_from_ops(&[OpKind::Iconst]);
        is.nodes = vec![Some(icfg.node(entry, Bci(0)))];
        let mut post = seg_from_ops(&[OpKind::Return]);
        post.nodes = vec![Some(icfg.node(entry, Bci(2)))];
        let segs = vec![is, post];
        let rec = Recovery::new(&p, &icfg, &segs, RecoveryConfig::default());
        let mut stats = RecoveryStats::default();
        let fill = rec.fill_hole(&segs, 0, 1, None, &mut stats);
        assert_eq!(stats.filled_by_walk, 1);
        // The walk passes through bci 1 (pop).
        assert_eq!(fill.entries.len(), 1);
        assert_eq!(fill.entries[0].op, OpKind::Pop);
        assert_eq!(fill.entries[0].origin, TraceOrigin::Walked);
        // Walk steps are located and boundary-free: fully lintable.
        assert!(fill.steps.iter().all(|s| s.node.is_some() && !s.boundary));
    }

    #[test]
    fn seeded_fault_in_recovered_segment_is_linted() {
        use jportal_analysis::{lint_steps, LintStep};
        let (p, icfg) = tiny_program();
        let entry = p.entry();
        let mut is = seg_from_ops(&[OpKind::Iconst]);
        is.nodes = vec![Some(icfg.node(entry, Bci(0)))];
        let mut post = seg_from_ops(&[OpKind::Return]);
        post.nodes = vec![Some(icfg.node(entry, Bci(2)))];
        let segs = vec![is, post];
        let rec = Recovery::new(&p, &icfg, &segs, RecoveryConfig::default());
        let mut stats = RecoveryStats::default();
        let fill = rec.fill_hole(&segs, 0, 1, None, &mut stats);
        assert_eq!(stats.filled_by_walk, 1);

        // Splice the fill between the located IS tail and post head, the
        // way `assemble_thread` does (segment starts are seams).
        let splice = |fill_steps: &[LintStep]| {
            let mut steps = vec![LintStep::at(icfg.node(entry, Bci(0)), OpKind::Iconst).seam()];
            steps.extend_from_slice(fill_steps);
            steps.push(LintStep::at(icfg.node(entry, Bci(2)), OpKind::Return));
            steps
        };
        // The honest fill is feasible end to end.
        assert!(lint_steps(&p, &icfg, &splice(&fill.steps)).is_empty());

        // Seeded fault: corrupt the recovered step to claim the walk
        // revisited bci 0 — no such ICFG edge exists, and the linter
        // must say so.
        let mut bad = fill.steps.clone();
        bad[0] = LintStep::at(icfg.node(entry, Bci(0)), OpKind::Iconst);
        let diags = lint_steps(&p, &icfg, &splice(&bad));
        assert!(
            !diags.is_empty(),
            "corrupted recovered segment must produce a diagnostic"
        );
    }

    #[test]
    fn dir_compat_matters_in_matching() {
        assert!(sym_compat(
            Sym::plain(OpKind::Ifeq),
            Sym::branch(OpKind::Ifeq, true)
        ));
        assert!(!sym_compat(
            Sym::branch(OpKind::Ifeq, false),
            Sym::branch(OpKind::Ifeq, true)
        ));
        assert!(!sym_compat(sym(OpKind::Iadd), sym(OpKind::Isub)));
        let _ = BranchDir::Unknown;
    }
}
