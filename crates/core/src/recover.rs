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
use jportal_cfg::{FxHashMap, FxHasher, Icfg, NodeId, Sym, Tier};
use jportal_ipt::ring::LossRecord;
use jportal_obs::{CandidateOutcome, Journal, JournalEvent, JournalRecorder};
use std::collections::VecDeque;
use std::hash::Hasher;

use crate::decode::BcEvent;
use crate::pack::{load8_ops, suffix_swar, PackedSyms};

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
    /// Always zero; kept for source compatibility. Every candidate
    /// counts in [`RecoveryStats::candidates`].
    pub summary_pruned: usize,
    /// Fallback ICFG walks attempted (successful or not); always ≥
    /// [`RecoveryStats::filled_by_walk`].
    pub fallback_walks: usize,
    /// Candidate confirm scans whose window was clipped by the hole's
    /// timestamp budget (the scan saw less than the candidate's full
    /// suffix, so a confirmation may have been missed).
    pub budget_truncations: usize,
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

/// Number of call-structure ops in an anchor entry's context word.
const CONTEXT_OPS: usize = 8;

/// Context word of a position with fewer than [`CONTEXT_OPS`]
/// call-structure ops before it. No real word equals it: every byte lane
/// of a real word holds an `OpKind`, and none is `0xff`.
const NO_CONTEXT: u64 = u64::MAX;

const _: () = assert!(OpKind::ALL.len() < 0xff);

/// One abstract tier of a segment (`α_l` of Definition 5.2): the tier's
/// symbols packed for the SWAR suffix kernel, plus a rank array that
/// maps a concrete position to a cursor into them.
#[derive(Debug, Clone)]
struct TierStream {
    /// `rank[i]`: how many tier symbols sit at positions `< i`
    /// (`len + 1` entries).
    rank: Vec<u32>,
    /// The tier's symbols, in order.
    packed: PackedSyms,
}

impl TierStream {
    fn new(syms: &[Sym], tier: Tier) -> TierStream {
        let mut stream = TierStream {
            rank: Vec::with_capacity(syms.len() + 1),
            packed: PackedSyms::default(),
        };
        for &s in syms {
            stream.rank.push(stream.packed.len as u32);
            if tier.keeps(s.op) {
                stream.packed.push(s);
            }
        }
        stream.rank.push(stream.packed.len as u32);
        stream
    }

    /// The [`CONTEXT_OPS`] tier op bytes before concrete position `end`
    /// as one word, or [`NO_CONTEXT`] when fewer precede it. Two
    /// positions whose words differ share a tier suffix shorter than
    /// [`CONTEXT_OPS`].
    fn context(&self, end: usize) -> u64 {
        let r = self.rank[end] as usize;
        if r >= CONTEXT_OPS {
            load8_ops(&self.packed.ops, r)
        } else {
            NO_CONTEXT
        }
    }
}

/// Pre-indexed segment: symbols, packed for the SWAR suffix kernel at
/// all three tiers.
#[derive(Debug, Clone)]
struct IndexedSegment {
    syms: Vec<Sym>,
    /// The same symbols packed for the SWAR suffix kernel (op bytes
    /// eight per word, dir codes thirty-two per word) — the concrete
    /// tier scores on these, eight symbols per step.
    packed: PackedSyms,
    /// Tier 1: call structure.
    calls: TierStream,
    /// Tier 2: control structure.
    control: TierStream,
    /// Positions of tier-1 symbols: the scalar scoring oracle's index.
    #[cfg(test)]
    t1: Vec<u32>,
    /// Positions of tier-2 symbols.
    #[cfg(test)]
    t2: Vec<u32>,
}

impl IndexedSegment {
    fn new(view: &SegmentView) -> IndexedSegment {
        let syms: Vec<Sym> = view.events.iter().map(|e| e.sym).collect();
        #[cfg(test)]
        let positions = |tier: Tier| -> Vec<u32> {
            (0..syms.len() as u32)
                .filter(|&i| tier.keeps(syms[i as usize].op))
                .collect()
        };
        IndexedSegment {
            packed: PackedSyms::from_syms(&syms),
            calls: TierStream::new(&syms, Tier::CallStructure),
            control: TierStream::new(&syms, Tier::Control),
            #[cfg(test)]
            t1: positions(Tier::CallStructure),
            #[cfg(test)]
            t2: positions(Tier::Control),
            syms,
        }
    }

    /// The packed stream of tier `tier` and the number of its symbols
    /// before concrete position `end` — the stream's suffix cursor.
    fn tier_stream(&self, tier: Tier, end: usize) -> (&PackedSyms, usize) {
        match tier {
            Tier::CallStructure => (&self.calls.packed, self.calls.rank[end] as usize),
            Tier::Control => (&self.control.packed, self.control.rank[end] as usize),
            Tier::Concrete => (&self.packed, end),
        }
    }

    /// Backward common-suffix length at tier `tier` between `self[..a]`
    /// and `other[..b]`, capped at `cap` comparisons.
    ///
    /// Every tier runs the SWAR kernel, eight symbols per step, on its
    /// own packed stream: the packed `compat` (equal op byte,
    /// non-contradicting 2-bit dir codes) is exactly `sym_compat`. The
    /// kernel is pinned to the scalar backward scan by the
    /// `swar_equivalence` suite, and the tier streams to the
    /// position-list scan ([`IndexedSegment::tier_suffix_reference`]) by
    /// this module's tests.
    fn tier_suffix(
        &self,
        a: usize,
        other: &IndexedSegment,
        b: usize,
        tier: Tier,
        cap: usize,
    ) -> usize {
        let (x, ca) = self.tier_stream(tier, a);
        let (y, cb) = other.tier_stream(tier, b);
        suffix_swar(&x.ops, &x.dirs, ca, &y.ops, &y.dirs, cb, cap)
    }

    /// Number of tier-`tier` symbols before position `end`, from the
    /// oracle position lists.
    #[cfg(test)]
    fn tier_count_before(&self, tier: Tier, end: usize) -> usize {
        let idx = match tier {
            Tier::CallStructure => &self.t1,
            Tier::Control => &self.t2,
            Tier::Concrete => return end,
        };
        idx.partition_point(|&p| (p as usize) < end)
    }

    /// The scalar scoring oracle for [`IndexedSegment::tier_suffix`]:
    /// two position-list cursors and a one-symbol-at-a-time backward
    /// scan through the concrete symbols.
    #[cfg(test)]
    fn tier_suffix_reference(
        &self,
        a: usize,
        other: &IndexedSegment,
        b: usize,
        tier: Tier,
        cap: usize,
    ) -> usize {
        // Concrete position of the `k`-th tier symbol.
        let position = |seg: &IndexedSegment, k: usize| -> usize {
            match tier {
                Tier::CallStructure => seg.t1[k] as usize,
                Tier::Control => seg.t2[k] as usize,
                Tier::Concrete => k,
            }
        };
        let ca = self.tier_count_before(tier, a);
        let cb = other.tier_count_before(tier, b);
        let mut n = 0;
        while n < cap && n < ca && n < cb {
            let pa = position(self, ca - 1 - n);
            let pb = position(other, cb - 1 - n);
            if !sym_compat(self.syms[pa], other.syms[pb]) {
                break;
            }
            n += 1;
        }
        n
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

/// Key of the anchor index: the opcode sequence of an anchor window,
/// always one `Copy` word.
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
    /// `(op + 1)` bytes folded big-endian for windows of up to eight
    /// ops (so a leading opcode 0 is distinguishable from absence), an
    /// Fx hash of the op bytes for longer windows.
    fn of(anchor: &[Sym]) -> AnchorKey {
        if anchor.len() <= 8 {
            let mut packed = 0u64;
            for s in anchor {
                packed = (packed << 8) | (s.op as u64 + 1);
            }
            AnchorKey(packed)
        } else {
            let mut h = FxHasher::default();
            for s in anchor {
                h.write_u8(s.op as u8);
            }
            AnchorKey(h.finish())
        }
    }
}

/// One candidate of the anchor index: where its anchor ends, plus the
/// tier-1 context word of the prefix it would be scored on.
#[derive(Debug, Clone, Copy, Default)]
struct AnchorEntry {
    seg: u32,
    end: u32,
    /// [`TierStream::context`] of tier 1 at `end + 1`: the last
    /// [`CONTEXT_OPS`] call-structure ops of the candidate's prefix.
    ctx: u64,
}

impl AnchorEntry {
    fn candidate(self) -> Candidate {
        (self.seg as usize, self.end as usize)
    }
}

/// The anchor index in compressed-sparse-row form: every anchor window
/// of the thread in one flat array, grouped by anchor key and in
/// `(segment, end)` order within a group.
#[derive(Debug)]
struct AnchorIndex {
    /// Anchor key → group number.
    groups: FxHashMap<AnchorKey, u32>,
    /// Group `g` is `entries[offsets[g]..offsets[g + 1]]`.
    offsets: Vec<u32>,
    entries: Vec<AnchorEntry>,
}

impl AnchorIndex {
    /// Indexes every window of `x` symbols that a suffix follows, in two
    /// passes: count each key's windows, then scatter them into place.
    fn build(indexed: &[IndexedSegment], x: usize) -> AnchorIndex {
        // Anchor ends at `end` (inclusive); a suffix must follow. An
        // empty anchor indexes nothing.
        let ends = |seg: &IndexedSegment| {
            if x == 0 || seg.syms.len() < x + 1 {
                0..0
            } else {
                (x - 1)..seg.syms.len() - 1
            }
        };
        let windows = || {
            indexed
                .iter()
                .enumerate()
                .flat_map(move |(si, seg)| ends(seg).map(move |end| (si, seg, end)))
        };
        let total = indexed.iter().map(|seg| ends(seg).len()).sum();
        let mut groups: FxHashMap<AnchorKey, u32> = FxHashMap::default();
        // Groups are numbered in first-seen order; `group_of` keeps each
        // window's group for the scatter.
        let mut counts: Vec<u32> = Vec::new();
        let mut group_of: Vec<u32> = Vec::with_capacity(total);
        for (_, seg, end) in windows() {
            let fresh = counts.len() as u32;
            let g = *groups
                .entry(AnchorKey::of(&seg.syms[end + 1 - x..=end]))
                .or_insert(fresh);
            if g == fresh {
                counts.push(0);
            }
            counts[g as usize] += 1;
            group_of.push(g);
        }
        let mut offsets = Vec::with_capacity(counts.len() + 1);
        let mut sum = 0u32;
        for c in counts.iter_mut() {
            offsets.push(sum);
            // From here on, `counts[g]` is group `g`'s write cursor.
            (*c, sum) = (sum, sum + *c);
        }
        offsets.push(sum);
        let mut entries = vec![AnchorEntry::default(); total];
        for ((si, seg, end), g) in windows().zip(group_of) {
            let cursor = &mut counts[g as usize];
            entries[*cursor as usize] = AnchorEntry {
                seg: si as u32,
                end: end as u32,
                ctx: seg.calls.context(end + 1),
            };
            *cursor += 1;
        }
        AnchorIndex {
            groups,
            offsets,
            entries,
        }
    }

    /// The windows spelling `key`, in `(segment, end)` order.
    fn group(&self, key: AnchorKey) -> &[AnchorEntry] {
        match self.groups.get(&key) {
            Some(&g) => {
                let g = g as usize;
                &self.entries[self.offsets[g] as usize..self.offsets[g + 1] as usize]
            }
            None => &[],
        }
    }
}

/// Reusable buffers for [`Recovery::fill_hole_with`]: the fallback walk's
/// BFS parent map and queue, reused across every hole one worker fills.
#[derive(Debug, Default)]
pub struct FillScratch {
    parent: FxHashMap<NodeId, NodeId>,
    queue: VecDeque<(NodeId, usize)>,
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
    /// Candidates decided without a visit (see
    /// [`CandidateJournal::skip`]), so tests can see the skip fire.
    #[cfg(test)]
    skipped: u32,
}

impl<'r, 'j> CandidateJournal<'r, 'j> {
    fn new(rec: Option<&'r mut JournalRecorder<'j>>, hole: u32) -> CandidateJournal<'r, 'j> {
        CandidateJournal {
            rec,
            hole,
            emitted: 0,
            elided: 0,
            #[cfg(test)]
            skipped: 0,
        }
    }

    /// `true` once no further candidate is journaled individually: the
    /// recorder is off, or the per-hole cap is reached.
    fn saturated(&self) -> bool {
        self.rec.is_none() || self.emitted >= JOURNAL_CANDIDATES_MAX
    }

    /// Accounts for a candidate that was decided without a visit, as
    /// [`CandidateJournal::consider`] would once saturated.
    fn skip(&mut self) {
        debug_assert!(self.saturated());
        #[cfg(test)]
        {
            self.skipped += 1;
        }
        if self.rec.is_some() {
            self.elided += 1;
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
    indexed: Vec<IndexedSegment>,
    /// Anchor index: packed op-kind key → candidate positions.
    anchor_index: AnchorIndex,
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
        let anchor_index = AnchorIndex::build(&indexed, cfg.anchor_len);
        Recovery {
            program,
            icfg,
            cfg,
            doms: None,
            indexed,
            anchor_index,
        }
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

    /// Kept for source compatibility; has no effect. Candidates are
    /// pruned by Algorithm 4's tier gates alone; method summaries serve
    /// only the feasibility linter (DESIGN.md §15).
    pub fn with_summaries(self, _summaries: &'a SummaryTable) -> Recovery<'a> {
        self
    }

    /// Candidate CS positions for an IS ending with `anchor` syms.
    ///
    /// Streams over the anchor index's slice in index order — busy
    /// anchors have thousands of positions, and most candidates die at
    /// the first tier test, so nothing is collected.
    fn candidates<'s>(
        &'s self,
        is_seg: usize,
        anchor: &'s [Sym],
    ) -> impl Iterator<Item = AnchorEntry> + 's {
        let is_end = self.indexed[is_seg].syms.len() - 1;
        self.anchor_index
            .group(AnchorKey::of(anchor))
            .iter()
            .copied()
            // The IS's own tail is not a usable CS for itself.
            .filter(move |e| !(e.seg as usize == is_seg && e.end as usize == is_end))
            // Hashed long-anchor keys can collide: verify the
            // candidate's op window (≤ 8 op keys are exact).
            .filter(move |e| {
                let (si, end) = e.candidate();
                anchor.len() <= 8
                    || anchor
                        .iter()
                        .enumerate()
                        .all(|(k, a)| self.indexed[si].syms[end + 1 - anchor.len() + k].op == a.op)
            })
    }

    /// **Algorithm 3**: naive CS search — full concrete comparison per
    /// candidate, keeping the `top_n` best (ties keep index order).
    pub fn search_naive(
        &self,
        is_seg: usize,
        stats: &mut RecoveryStats,
    ) -> Vec<(Candidate, usize)> {
        self.search_naive_journaled(is_seg, stats, &mut CandidateJournal::new(None, 0))
    }

    fn search_naive_journaled(
        &self,
        is_seg: usize,
        stats: &mut RecoveryStats,
        journal: &mut CandidateJournal<'_, '_>,
    ) -> Vec<(Candidate, usize)> {
        let is = &self.indexed[is_seg];
        if is.syms.len() < self.cfg.anchor_len {
            return Vec::new();
        }
        let anchor = &is.syms[is.syms.len() - self.cfg.anchor_len..];
        let mut best: Vec<(Candidate, usize)> = Vec::new();
        for (rank, entry) in self.candidates(is_seg, anchor).enumerate() {
            let cand = entry.candidate();
            let (si, end) = cand;
            let score = is.tier_suffix(
                is.syms.len(),
                &self.indexed[si],
                end + 1,
                Tier::Concrete,
                usize::MAX,
            );
            stats.candidates += 1;
            journal.consider(rank as u32, cand, CandidateOutcome::Scored, score);
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
        self.search_abstraction_journaled(is_seg, stats, &mut CandidateJournal::new(None, 0))
    }

    /// Algorithm 4 over the anchor's candidates, in index order.
    ///
    /// Most candidates die at tier 1, and most of those are **counted
    /// without a visit**: once the list is full and `m1 ≥ 8`, a
    /// candidate whose tier-1 context word differs from the hole's has a
    /// tier-1 suffix below 8 (tier-1 compatibility needs equal ops), so
    /// below `m1`, and the tier-1 gate would reject it. Its statistics
    /// are the gate's, and a saturated journal would only have counted
    /// it as elided, so reports, journals and statistics are those of
    /// the visiting loop.
    fn search_abstraction_journaled(
        &self,
        is_seg: usize,
        stats: &mut RecoveryStats,
        journal: &mut CandidateJournal<'_, '_>,
    ) -> Vec<(Candidate, usize)> {
        let is = &self.indexed[is_seg];
        let a = is.syms.len();
        if a < self.cfg.anchor_len {
            return Vec::new();
        }
        let anchor = &is.syms[a - self.cfg.anchor_len..];
        let hole_ctx = is.calls.context(a);
        let mut best: Vec<(Candidate, usize)> = Vec::new();
        // Running maxima ⟨m1, m2, m3⟩ of Algorithm 4: the tier suffixes
        // of the best candidate so far, which pruning compares against
        // once the list is full.
        let (mut m1, mut m2, mut m3) = (0usize, 0usize, 0usize);
        for (rank, entry) in self.candidates(is_seg, anchor).enumerate() {
            stats.candidates += 1;
            let full = best.len() >= self.cfg.top_n;
            if full && m1 >= CONTEXT_OPS && entry.ctx != hole_ctx && journal.saturated() {
                stats.pruned_tier1 += 1;
                journal.skip();
                continue;
            }
            let cand = entry.candidate();
            let cs = &self.indexed[cand.0];
            let b = cand.1 + 1;
            // Tier 1: cheap test first.
            let ml1 = is.tier_suffix(a, cs, b, Tier::CallStructure, m1 + 64);
            if full && ml1 < m1 {
                stats.pruned_tier1 += 1;
                journal.consider(rank as u32, cand, CandidateOutcome::PrunedTier1, ml1);
                continue;
            }
            let ml2 = is.tier_suffix(a, cs, b, Tier::Control, m2 + 64);
            if full && ml2 < m2 {
                stats.pruned_tier2 += 1;
                journal.consider(rank as u32, cand, CandidateOutcome::PrunedTier2, ml2);
                continue;
            }
            let ml3 = is.tier_suffix(a, cs, b, Tier::Concrete, usize::MAX);
            if ml3 >= m3 {
                // Once the list is full a new maximum has passed the
                // tier-1 gate, so `m1` never falls: the skip's
                // `full && m1 ≥ 8`, once met, holds for the rest of the
                // hole.
                debug_assert!(!full || ml1 >= m1, "m1 fell on a full list");
                m3 = ml3;
                m1 = ml1;
                m2 = ml2;
            }
            journal.consider(rank as u32, cand, CandidateOutcome::Scored, ml3);
            push_ranked(&mut best, (cand, ml3), self.cfg.top_n);
        }
        best
    }

    /// The visiting Algorithm 4 that
    /// [`Recovery::search_abstraction_journaled`] must match: every
    /// candidate is scored by the scalar oracle, none is skipped.
    #[cfg(test)]
    fn search_abstraction_reference(
        &self,
        is_seg: usize,
        stats: &mut RecoveryStats,
        journal: &mut CandidateJournal<'_, '_>,
    ) -> Vec<(Candidate, usize)> {
        let is = &self.indexed[is_seg];
        if is.syms.len() < self.cfg.anchor_len {
            return Vec::new();
        }
        let anchor = &is.syms[is.syms.len() - self.cfg.anchor_len..];
        let mut best: Vec<(Candidate, usize)> = Vec::new();
        let (mut m1, mut m2, mut m3) = (0usize, 0usize, 0usize);
        for (rank, entry) in self.candidates(is_seg, anchor).enumerate() {
            let cand = entry.candidate();
            let (si, end) = cand;
            let cs = &self.indexed[si];
            stats.candidates += 1;
            let full = self.cfg.top_n > best.len();
            let score = |tier, cap| is.tier_suffix_reference(is.syms.len(), cs, end + 1, tier, cap);
            let ml1 = score(Tier::CallStructure, m1 + 64);
            if !full && ml1 < m1 {
                stats.pruned_tier1 += 1;
                journal.consider(rank as u32, cand, CandidateOutcome::PrunedTier1, ml1);
                continue;
            }
            let ml2 = score(Tier::Control, m2 + 64);
            if !full && ml2 < m2 {
                stats.pruned_tier2 += 1;
                journal.consider(rank as u32, cand, CandidateOutcome::PrunedTier2, ml2);
                continue;
            }
            let ml3 = score(Tier::Concrete, usize::MAX);
            if ml3 >= m3 {
                m3 = ml3;
                m1 = ml1;
                m2 = ml2;
            }
            journal.consider(rank as u32, cand, CandidateOutcome::Scored, ml3);
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
        let mut journal =
            CandidateJournal::new(recorder.is_enabled().then_some(&mut *recorder), hole);
        let mut ranked = if self.cfg.use_abstraction {
            self.search_abstraction_journaled(is_seg, stats, &mut journal)
        } else {
            self.search_naive_journaled(is_seg, stats, &mut journal)
        };
        journal.finish();
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
    use proptest::prelude::*;

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
        // The rank arrays are the oracle lists' counts at every position.
        for tier in [Tier::CallStructure, Tier::Control, Tier::Concrete] {
            for end in 0..=seg.syms.len() {
                assert_eq!(
                    seg.tier_stream(tier, end).1,
                    seg.tier_count_before(tier, end),
                    "{tier:?} before {end}"
                );
            }
        }
        assert_eq!(seg.calls.packed.len, 2);
        assert_eq!(seg.control.packed.len, 3);
        assert_eq!(
            seg.calls.packed.get(1).0,
            OpKind::Ireturn as u8,
            "tier streams hold the tier's symbols in order"
        );
    }

    #[test]
    fn context_word_is_the_last_eight_call_ops() {
        use OpKind as O;
        let mut ops = vec![O::Iload];
        for k in 0..9 {
            ops.push(if k % 2 == 0 {
                O::InvokeStatic
            } else {
                O::Return
            });
            ops.push(O::Iadd);
        }
        let seg = IndexedSegment::new(&seg_from_ops(&ops));
        // Seven call ops before position 14, eight before 16.
        assert_eq!(seg.calls.context(14), NO_CONTEXT);
        let word = seg.calls.context(16);
        assert_ne!(word, NO_CONTEXT);
        let lanes: Vec<u8> = word.to_le_bytes().to_vec();
        let want: Vec<u8> = (0..8)
            .map(|k| if k % 2 == 0 { O::InvokeStatic } else { O::Return } as u8)
            .collect();
        assert_eq!(lanes, want);
        // Shifted by one call op, the word differs.
        assert_ne!(seg.calls.context(18), word);
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
    fn empty_anchor_finds_no_candidates() {
        let (p, icfg, segs) = figure6();
        let cfg = RecoveryConfig {
            anchor_len: 0,
            ..RecoveryConfig::default()
        };
        let rec = Recovery::new(&p, &icfg, &segs, cfg);
        let mut stats = RecoveryStats::default();
        assert!(rec.search_abstraction(2, &mut stats).is_empty());
        assert!(rec.search_naive(2, &mut stats).is_empty());
        assert_eq!(stats.candidates, 0);
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

    /// A segment over `syms`, timestamps ten cycles apart.
    fn seg_from_syms(syms: &[Sym]) -> SegmentView {
        let mut seg = seg_from_ops(&syms.iter().map(|s| s.op).collect::<Vec<_>>());
        for (e, &s) in seg.events.iter_mut().zip(syms) {
            e.sym = s;
        }
        seg
    }

    /// Symbols over a small alphabet dense in calls and returns (so
    /// tier-1 suffixes run past eight), with branch directions of all
    /// three kinds on the conditionals.
    fn arb_syms(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Sym>> {
        let ops = prop::sample::select(vec![
            OpKind::InvokeStatic,
            OpKind::InvokeStatic,
            OpKind::InvokeVirtual,
            OpKind::Return,
            OpKind::Return,
            OpKind::Ireturn,
            OpKind::Iload,
            OpKind::Ifeq,
            OpKind::Goto,
        ]);
        prop::collection::vec(
            (ops, 0u8..3).prop_map(|(op, d)| Sym {
                op,
                dir: if op == OpKind::Ifeq {
                    crate::pack::dir_from_code(d)
                } else {
                    BranchDir::Unknown
                },
            }),
            len,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Tiers 1 and 2 scored by the SWAR kernel on their packed
        /// streams equal the position-list scan, at every tier, cursor
        /// and cap (the concrete tier is covered too, against the same
        /// scalar loop).
        #[test]
        fn tier_suffix_swar_equals_position_lists(
            a in arb_syms(0..160),
            b in arb_syms(0..160),
            a_frac in 0usize..1000,
            b_frac in 0usize..1000,
            cap in prop::sample::select(vec![0usize, 1, 7, 8, 9, 17, 64, 72, usize::MAX]),
        ) {
            let x = IndexedSegment::new(&seg_from_syms(&a));
            let y = IndexedSegment::new(&seg_from_syms(&b));
            let ae = a_frac * a.len() / 999;
            let be = b_frac * b.len() / 999;
            for tier in [Tier::CallStructure, Tier::Control, Tier::Concrete] {
                prop_assert_eq!(
                    x.tier_suffix(ae, &y, be, tier, cap),
                    x.tier_suffix_reference(ae, &y, be, tier, cap),
                    "{:?} ae={} be={} cap={}", tier, ae, be, cap
                );
            }
            // Identical streams share everything up to the cap.
            prop_assert_eq!(
                x.tier_suffix(ae, &x, ae, Tier::CallStructure, cap),
                x.tier_suffix_reference(ae, &x, ae, Tier::CallStructure, cap)
            );
        }

        /// Algorithm 4 with the counted-not-visited skip equals the
        /// visiting reference on random segment sets: the same ranked
        /// list and every statistic, with the journal off, and with it on
        /// the same journal too.
        #[test]
        fn skipping_search_equals_the_visiting_reference(
            segs in prop::collection::vec(arb_syms(1..120), 2..7),
            top_n in 1usize..6,
            anchor_len in 1usize..4,
        ) {
            let (p, icfg) = tiny_program();
            let views: Vec<SegmentView> = segs.iter().map(|s| seg_from_syms(s)).collect();
            let cfg = RecoveryConfig { anchor_len, top_n, ..RecoveryConfig::default() };
            let rec = Recovery::new(&p, &icfg, &views, cfg);
            for is_seg in 0..views.len() {
                let (mut fast, mut slow) = (RecoveryStats::default(), RecoveryStats::default());
                let got = rec.search_abstraction(is_seg, &mut fast);
                let want = rec.search_abstraction_reference(
                    is_seg,
                    &mut slow,
                    &mut CandidateJournal::new(None, 0),
                );
                prop_assert_eq!(&got, &want, "journal off, IS {}", is_seg);
                prop_assert_eq!(fast, slow, "journal off, IS {}", is_seg);

                let (jf, js) = (Journal::new(), Journal::new());
                let (mut rf, mut rs) = (Journal::recorder(Some(&jf), 0), Journal::recorder(Some(&js), 0));
                let (mut fast, mut slow) = (RecoveryStats::default(), RecoveryStats::default());
                let mut cj = CandidateJournal::new(Some(&mut rf), 1);
                let got = rec.search_abstraction_journaled(is_seg, &mut fast, &mut cj);
                cj.finish();
                let mut cj = CandidateJournal::new(Some(&mut rs), 1);
                let want = rec.search_abstraction_reference(is_seg, &mut slow, &mut cj);
                cj.finish();
                prop_assert_eq!(&got, &want, "journal on, IS {}", is_seg);
                prop_assert_eq!(fast, slow, "journal on, IS {}", is_seg);
                prop_assert_eq!(jf.snapshot().to_jsonl(), js.snapshot().to_jsonl());
            }
        }
    }

    /// A hole whose first candidates fill the list with a tier-1 suffix
    /// of eight, followed by decoys whose call context differs: every
    /// decoy is counted without a visit, and nothing observable changes.
    #[test]
    fn tier1_skip_fires_on_foreign_call_contexts() {
        use OpKind as O;
        let (p, icfg) = tiny_program();
        let anchor = [O::Iload, O::Iadd, O::Pop];
        let with_calls = |call: OpKind, ret: OpKind| -> Vec<OpKind> {
            let mut ops = Vec::new();
            for _ in 0..4 {
                ops.extend([call, O::Iload, ret, O::Iadd]);
            }
            ops.extend(anchor);
            ops
        };
        let is = with_calls(O::InvokeStatic, O::Ireturn);
        let mut segs = Vec::new();
        for _ in 0..5 {
            let mut good = is.clone();
            good.push(O::Dup);
            segs.push(seg_from_ops(&good));
        }
        for _ in 0..20 {
            let mut decoy = with_calls(O::InvokeVirtual, O::Areturn);
            decoy.push(O::Swap);
            segs.push(seg_from_ops(&decoy));
        }
        segs.push(seg_from_ops(&is));
        let is_seg = segs.len() - 1;
        let rec = Recovery::new(&p, &icfg, &segs, RecoveryConfig::default());

        let mut fast = RecoveryStats::default();
        let mut journal = CandidateJournal::new(None, 0);
        let got = rec.search_abstraction_journaled(is_seg, &mut fast, &mut journal);
        assert_eq!(journal.skipped, 20, "every decoy is counted unvisited");
        let mut slow = RecoveryStats::default();
        let want = rec.search_abstraction_reference(
            is_seg,
            &mut slow,
            &mut CandidateJournal::new(None, 0),
        );
        assert_eq!(got, want);
        assert_eq!(fast, slow);
        assert_eq!((fast.candidates, fast.pruned_tier1), (25, 20));

        // A recording journal visits its first 32 candidates: all 25 here.
        let j = Journal::new();
        let mut r = Journal::recorder(Some(&j), 0);
        let mut journal = CandidateJournal::new(Some(&mut r), 1);
        let mut on = RecoveryStats::default();
        assert_eq!(
            rec.search_abstraction_journaled(is_seg, &mut on, &mut journal),
            want
        );
        assert_eq!((journal.skipped, on), (0, slow));
    }
}
