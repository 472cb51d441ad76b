//! Control-flow reconstruction (§4): projecting decoded segments onto the
//! ICFG.
//!
//! Each decoded segment is a string over the bytecode alphabet; the ICFG
//! is an NFA (Definition 4.1). Projection finds a path through the NFA
//! that spells the segment. Three refinements over the plain formulation:
//!
//! * JIT-decoded events carry exact `(method, bci)` locations, which pin
//!   the corresponding NFA state (the matching is *constrained*, not
//!   free);
//! * candidate start states are pre-filtered by the **abstract NFA**
//!   (Algorithm 2 / Theorem 4.4) when enabled;
//! * a mismatch does not abort: the longest matched prefix is emitted and
//!   matching restarts at the failing symbol — "a new subsequence starts"
//!   (§4, Challenges) — so dynamic transfers absent from the static ICFG
//!   degrade gracefully.

use jportal_analysis::SummaryTable;
use jportal_bytecode::Program;
use jportal_cfg::abs::AbstractNfa;
use jportal_cfg::{Icfg, MatchScratch, Nfa, NodeId, Sym};

use crate::decode::BcEvent;
use std::ops::Range;

/// Projection tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProjectionConfig {
    /// Use the abstraction-guided start filter (Algorithm 2). Disabling
    /// falls back to trying all candidate starts concretely (Algorithm 1's
    /// search space).
    pub use_abstraction: bool,
    /// Only run the abstract filter when at least this many candidate
    /// start states exist (tiny candidate sets are cheaper to try
    /// concretely).
    pub abstraction_threshold: usize,
    /// Cap on how many symbols of the pending run the abstract filter
    /// inspects (long runs reject quickly anyway).
    pub abstraction_lookahead: usize,
}

impl Default for ProjectionConfig {
    fn default() -> ProjectionConfig {
        ProjectionConfig {
            use_abstraction: true,
            abstraction_threshold: 4,
            abstraction_lookahead: 64,
        }
    }
}

/// Statistics from projecting one segment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProjectionStats {
    /// Events that received an ICFG node.
    pub matched: usize,
    /// Events left unmatched.
    pub unmatched: usize,
    /// Number of restarts (subsequence boundaries hit).
    pub restarts: usize,
    /// Candidate start states examined.
    pub candidates_tried: usize,
    /// Candidates rejected by the abstract filter.
    pub candidates_pruned: usize,
    /// Always zero; kept for source compatibility. Every rejected
    /// restart candidate counts in [`ProjectionStats::candidates_pruned`].
    pub summary_pruned: usize,
    /// Times the abstract start filter (the tabled DFA path) actually
    /// ran, as opposed to falling through to the concrete scan.
    pub dfa_runs: usize,
    /// Widest NFA frontier layer hit while matching (ambiguity
    /// high-water mark; 1 = the whole projection was unambiguous).
    pub frontier_width_max: usize,
}

impl ProjectionStats {
    /// Folds another segment's statistics into this one.
    ///
    /// Addition is commutative and associative, so any reduction order —
    /// sequential accumulation or a parallel tree reduce — produces the
    /// same totals.
    pub fn merge(&mut self, other: &ProjectionStats) {
        self.matched += other.matched;
        self.unmatched += other.unmatched;
        self.restarts += other.restarts;
        self.candidates_tried += other.candidates_tried;
        self.candidates_pruned += other.candidates_pruned;
        self.summary_pruned += other.summary_pruned;
        self.dfa_runs += other.dfa_runs;
        // `max` is likewise commutative and associative.
        self.frontier_width_max = self.frontier_width_max.max(other.frontier_width_max);
    }
}

/// The result of projecting one segment.
///
/// Within one matched run, consecutive located nodes are connected by a
/// real ICFG edge (the NFA only steps along edges). Across a restart seam
/// no such edge is guaranteed; [`Projection::breaks`] records where those
/// seams are so downstream consumers (notably the trace-feasibility
/// linter) do not treat them as adjacency violations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Projection {
    /// One entry per event, in order; `None` for events that could not be
    /// placed (no candidate state, or isolated mismatches).
    pub nodes: Vec<Option<NodeId>>,
    /// Event indices starting a new matched run — i.e. positions with no
    /// ICFG-edge guarantee from the previous event. Never contains 0.
    pub breaks: Vec<usize>,
    /// Matching statistics.
    pub stats: ProjectionStats,
}

/// Projects a decoded segment onto the ICFG.
///
/// Returns one `Option<NodeId>` per event (in order), the restart seam
/// positions, and statistics.
///
/// Convenience wrapper over [`project_segment_with`] with one-shot
/// scratch; pipeline workers hold a [`MatchScratch`] across segments.
pub fn project_segment(
    program: &Program,
    icfg: &Icfg,
    anfa: &AbstractNfa<'_>,
    events: &[BcEvent],
    cfg: &ProjectionConfig,
) -> Projection {
    project_segment_with(
        program,
        icfg,
        anfa,
        events,
        cfg,
        None,
        &mut MatchScratch::new(),
    )
}

/// [`project_segment`] with caller-provided scratch buffers for the
/// layered set-simulation (no per-symbol allocations; the frontier arena
/// is reused across matched runs and across segments).
///
/// `_summaries` is kept for source compatibility and ignored: restart
/// candidates are filtered by the abstract DFA alone (DESIGN.md §15).
#[allow(clippy::too_many_arguments)]
pub fn project_segment_with(
    program: &Program,
    icfg: &Icfg,
    anfa: &AbstractNfa<'_>,
    events: &[BcEvent],
    cfg: &ProjectionConfig,
    _summaries: Option<&SummaryTable>,
    scratch: &mut MatchScratch,
) -> Projection {
    let projector = Projector::new(program, icfg, anfa, events, cfg);
    let whole = projector.project_chunk(0..events.len(), scratch);
    projector.stitch(vec![whole], scratch)
}

/// One matched run: what projection found starting at one event.
#[derive(Debug, Clone, Copy)]
struct Run {
    /// The event the run starts at.
    start: usize,
    /// Events matched from `start`; 0 when that event is unplaceable.
    len: usize,
    /// Candidate start states examined.
    tried: usize,
    /// Candidates the abstract filter rejected.
    pruned: usize,
    /// Widest frontier layer of this run's match.
    peak: u32,
    /// Whether the abstract start filter ran.
    dfa: bool,
}

impl Run {
    /// Where the next run starts.
    fn end(&self) -> usize {
        self.start + self.len.max(1)
    }
}

/// The runs one chunk worker recorded (see [`Projector::project_chunk`]).
#[derive(Debug, Clone, Default)]
pub struct ProjectedChunk {
    /// Consecutive runs, the first starting at the chunk's first event,
    /// each ending inside the chunk.
    runs: Vec<Run>,
    /// Nodes of `runs`, from the first run's start to the last run's end.
    nodes: Vec<Option<NodeId>>,
}

/// Projection of one segment, cut into chunks that project in parallel.
///
/// Each matched run depends only on the position it starts at: the start
/// layer and the longest match read the segment's events from there on,
/// and nothing else crosses a restart. So a chunk can be projected
/// speculatively, as if a run restarts at its first event, and
/// [`Projector::stitch`] re-runs the true run that crosses each cut until
/// one ends on a speculated start; from there on the chunk's runs are the
/// true ones (the convergence of data-parallel finite-state machines,
/// Mytkowicz, Musuvathi and Schulte, ASPLOS 2014). A chunk stops matching
/// at its end, so the work and nodes of a chunk stay within its range even
/// when one run spans the whole segment, as in an interpreted-only trace;
/// the stitch runs each true run that crosses a cut in full.
/// [`project_segment_with`] is the one-chunk case.
pub struct Projector<'a, 'p> {
    nfa: Nfa<'a>,
    icfg: &'a Icfg,
    anfa: &'a AbstractNfa<'p>,
    events: &'a [BcEvent],
    /// The segment's symbols, so matched runs and abstraction windows are
    /// slices instead of per-restart collects.
    syms: Vec<Sym>,
    cfg: ProjectionConfig,
}

impl<'a, 'p> Projector<'a, 'p> {
    /// A projector over `events`.
    pub fn new(
        program: &'a Program,
        icfg: &'a Icfg,
        anfa: &'a AbstractNfa<'p>,
        events: &'a [BcEvent],
        cfg: &ProjectionConfig,
    ) -> Projector<'a, 'p> {
        Projector {
            nfa: Nfa::new(program, icfg),
            icfg,
            anfa,
            events,
            syms: events.iter().map(|e| e.sym).collect(),
            cfg: *cfg,
        }
    }

    /// Projects the chunk `range` speculatively: restarts a run at its
    /// first event and records runs until one reaches its end. That run
    /// is matched no further than the chunk's end and dropped, unless the
    /// chunk ends the segment; if it is a true run, the stitch runs it in
    /// full. The start-layer filter still reads its abstraction window
    /// past the cut, exactly as a whole-segment pass does.
    pub fn project_chunk(&self, range: Range<usize>, scratch: &mut MatchScratch) -> ProjectedChunk {
        let mut chunk = ProjectedChunk {
            runs: Vec::new(),
            nodes: Vec::with_capacity(range.len()),
        };
        let (mut starts, mut witness) = (Vec::new(), Vec::new());
        let cut = range.end < self.events.len();
        let mut i = range.start;
        while i < range.end {
            let kept = chunk.nodes.len();
            let run = self.run_at(
                i,
                range.end,
                scratch,
                &mut starts,
                &mut witness,
                &mut chunk.nodes,
            );
            if cut && run.len == range.end - i {
                // The match was still alive at the cut: its true length,
                // witness and frontier peak lie past the chunk.
                chunk.nodes.truncate(kept);
                break;
            }
            i = run.end();
            chunk.runs.push(run);
        }
        chunk
    }

    /// Joins the chunks [`Projector::project_chunk`] produced into the
    /// segment's projection, identical to projecting it in one pass:
    /// walking the chunks in order, it re-runs the true run at the next
    /// unplaced event until one ends on a speculated start, and from
    /// there takes the chunk's runs as they are. Nodes, seams and
    /// statistics come from true runs only. Events no chunk covers, such
    /// as the run a chunk dropped at its end, are projected here.
    pub fn stitch(&self, chunks: Vec<ProjectedChunk>, scratch: &mut MatchScratch) -> Projection {
        let n = self.events.len();
        let mut out = Projection::default();
        let mut nodes: Vec<Option<NodeId>> = Vec::new();
        let (mut starts, mut witness) = (Vec::new(), Vec::new());
        // The start of the next true run; `nodes` covers every event
        // before it.
        let mut p = 0usize;
        let mut rerun = |p: usize, nodes: &mut Vec<Option<NodeId>>, out: &mut Projection| {
            nodes.reserve_exact(n - nodes.len());
            let run = self.run_at(p, n, scratch, &mut starts, &mut witness, nodes);
            fold_run(out, &run, n);
            run.end()
        };
        for chunk in chunks {
            let runs = &chunk.runs;
            // Speculated runs that start before `p` lie inside true ones.
            let mut r = runs.partition_point(|run| run.start < p);
            while r < runs.len() {
                if runs[r].start != p {
                    p = rerun(p, &mut nodes, &mut out);
                    r += runs[r..].partition_point(|run| run.start < p);
                    continue;
                }
                // Converged: this run and every later one are true.
                for run in &runs[r..] {
                    fold_run(&mut out, run, n);
                }
                let from = p - runs[0].start;
                p = runs[runs.len() - 1].end();
                if nodes.is_empty() && from == 0 {
                    nodes = chunk.nodes;
                    nodes.reserve_exact(n - nodes.len());
                } else {
                    nodes.reserve_exact(n - nodes.len());
                    nodes.extend_from_slice(&chunk.nodes[from..]);
                }
                break;
            }
        }
        while p < n {
            p = rerun(p, &mut nodes, &mut out);
        }
        assert_eq!(nodes.len(), n, "one node slot per event");
        out.nodes = nodes;
        out
    }

    /// The run starting at event `i`, matched no further than event
    /// `end`; appends its nodes (one `None` for an unplaceable event) to
    /// `nodes`.
    fn run_at(
        &self,
        i: usize,
        end: usize,
        scratch: &mut MatchScratch,
        starts: &mut Vec<NodeId>,
        witness: &mut Vec<NodeId>,
        nodes: &mut Vec<Option<NodeId>>,
    ) -> Run {
        let events = self.events;
        let constraint = |e: &BcEvent| -> Option<NodeId> {
            match (e.method, e.bci) {
                (Some(m), Some(b)) => Some(self.icfg.node(m, b)),
                _ => None,
            }
        };
        scratch.reset_frontier_peak();
        let mut run = Run {
            start: i,
            len: 0,
            tried: 0,
            pruned: 0,
            peak: 0,
            dfa: false,
        };
        // Build the start layer for position i.
        let sym0 = events[i].sym;
        starts.clear();
        match constraint(&events[i]) {
            Some(n) => starts.push(n),
            None => {
                let candidates = self.nfa.start_candidates(sym0);
                run.tried = candidates.len();
                if self.cfg.use_abstraction && candidates.len() >= self.cfg.abstraction_threshold {
                    run.dfa = true;
                    let lookahead_end = i
                        .saturating_add(self.cfg.abstraction_lookahead)
                        .min(events.len());
                    let window = &self.syms[i..lookahead_end];
                    let abs = jportal_cfg::tier::abstract_seq(window, jportal_cfg::Tier::Control);
                    starts.extend(
                        candidates
                            .iter()
                            .copied()
                            .filter(|&n| self.anfa.abstract_accepts_from(n, sym0, &abs)),
                    );
                    run.pruned = candidates.len() - starts.len();
                } else {
                    starts.extend_from_slice(candidates);
                }
            }
        };
        if starts.is_empty() {
            // Unplaceable event; skip it.
            nodes.push(None);
            return run;
        }
        // Layered simulation with constraints, keeping the longest prefix.
        run.len = self.nfa.match_longest_constrained_with(
            starts,
            &self.syms[i..end],
            |k| constraint(&events[i + k]),
            scratch,
            witness,
        );
        nodes.extend(witness.iter().map(|&node| Some(node)));
        run.peak = scratch.frontier_peak();
        run
    }
}

/// Folds one true run of a segment of `n` events into `out`'s seams and
/// statistics.
fn fold_run(out: &mut Projection, run: &Run, n: usize) {
    // Every run but the first is a restart seam with no edge guarantee
    // behind it.
    if run.start > 0 {
        out.breaks.push(run.start);
    }
    let stats = &mut out.stats;
    stats.candidates_tried += run.tried;
    stats.candidates_pruned += run.pruned;
    stats.dfa_runs += usize::from(run.dfa);
    stats.frontier_width_max = stats.frontier_width_max.max(run.peak as usize);
    if run.len == 0 {
        // An unplaceable event counts as a restart even at the end.
        stats.unmatched += 1;
        stats.restarts += 1;
    } else {
        stats.matched += run.len;
        if run.end() < n {
            stats.restarts += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jportal_bytecode::builder::ProgramBuilder;
    use jportal_bytecode::{Bci, CmpKind, Instruction as I, MethodId, OpKind};
    use jportal_cfg::Sym;

    fn paper_fun() -> (Program, MethodId) {
        let mut pb = ProgramBuilder::new();
        let c = pb.add_class("Test", None, 0);
        let mut m = pb.method(c, "fun", 2, true);
        let else_ = m.label();
        let join = m.label();
        let odd = m.label();
        m.emit(I::Iload(0));
        m.branch_if(CmpKind::Eq, else_);
        m.emit(I::Iload(1));
        m.emit(I::Iconst(1));
        m.emit(I::Iadd);
        m.emit(I::Istore(1));
        m.jump(join);
        m.bind(else_);
        m.emit(I::Iload(1));
        m.emit(I::Iconst(2));
        m.emit(I::Isub);
        m.emit(I::Istore(1));
        m.bind(join);
        m.emit(I::Iload(1));
        m.emit(I::Iconst(2));
        m.emit(I::Irem);
        m.branch_if(CmpKind::Ne, odd);
        m.emit(I::Iconst(1));
        m.emit(I::Ireturn);
        m.bind(odd);
        m.emit(I::Iconst(0));
        m.emit(I::Ireturn);
        let fun = m.finish();
        let mut main = pb.method(c, "main", 0, false);
        main.emit(I::Iconst(0));
        main.emit(I::Iconst(7));
        main.emit(I::InvokeStatic(fun));
        main.emit(I::Pop);
        main.emit(I::Return);
        let main = main.finish();
        (pb.finish_with_entry(main).unwrap(), fun)
    }

    fn ev(op: OpKind, dir: Option<bool>) -> BcEvent {
        BcEvent {
            sym: match dir {
                Some(t) => Sym::branch(op, t),
                None => Sym::plain(op),
            },
            method: None,
            bci: None,
            ts: 0,
        }
    }

    fn ev_known(program: &Program, m: MethodId, bci: u32) -> BcEvent {
        let insn = program.method(m).insn(Bci(bci));
        BcEvent {
            sym: Sym::of_instruction(insn),
            method: Some(m),
            bci: Some(Bci(bci)),
            ts: 0,
        }
    }

    #[test]
    fn projects_an_unambiguous_interpreted_run() {
        let (p, fun) = paper_fun();
        let icfg = Icfg::build(&p);
        let anfa = AbstractNfa::new(&p, &icfg);
        let events = vec![
            ev(OpKind::Iload, None),
            ev(OpKind::Ifeq, Some(true)),
            ev(OpKind::Iload, None),
            ev(OpKind::Iconst, None),
            ev(OpKind::Isub, None),
            ev(OpKind::Istore, None),
        ];
        let proj = project_segment(&p, &icfg, &anfa, &events, &ProjectionConfig::default());
        let (nodes, stats) = (proj.nodes, proj.stats);
        assert_eq!(stats.unmatched, 0);
        let bcis: Vec<u32> = nodes.iter().map(|n| icfg.bci_of(n.unwrap()).0).collect();
        assert_eq!(bcis, vec![0, 1, 7, 8, 9, 10]);
        assert!(nodes.iter().all(|n| icfg.method_of(n.unwrap()) == fun));
    }

    #[test]
    fn constraints_pin_jit_events() {
        let (p, fun) = paper_fun();
        let icfg = Icfg::build(&p);
        let anfa = AbstractNfa::new(&p, &icfg);
        // Interp prefix, then JIT-decoded events with known locations.
        let events = vec![
            ev(OpKind::Iload, None),
            ev_known(&p, fun, 12),
            ev_known(&p, fun, 13),
        ];
        let proj = project_segment(&p, &icfg, &anfa, &events, &ProjectionConfig::default());
        let (nodes, stats) = (proj.nodes, proj.stats);
        assert_eq!(stats.unmatched, 0);
        // The free iload must resolve to bci 11 (the only iload whose
        // successor is bci 12).
        assert_eq!(icfg.bci_of(nodes[0].unwrap()), Bci(11));
        assert_eq!(icfg.bci_of(nodes[1].unwrap()), Bci(12));
    }

    #[test]
    fn mismatch_restarts_rather_than_fails() {
        let (p, _) = paper_fun();
        let icfg = Icfg::build(&p);
        let anfa = AbstractNfa::new(&p, &icfg);
        // irem → iadd never happens contiguously; the projector must
        // split into two matched runs.
        let events = vec![
            ev(OpKind::Iload, None),
            ev(OpKind::Iconst, None),
            ev(OpKind::Irem, None),
            ev(OpKind::Iadd, None),
            ev(OpKind::Istore, None),
        ];
        let proj = project_segment(&p, &icfg, &anfa, &events, &ProjectionConfig::default());
        let (nodes, stats) = (proj.nodes, proj.stats);
        assert!(stats.restarts >= 1);
        assert!(nodes[0].is_some() && nodes[2].is_some());
        assert!(nodes[3].is_some() && nodes[4].is_some());
        assert_eq!(icfg.bci_of(nodes[3].unwrap()), Bci(4));
    }

    #[test]
    fn abstraction_and_plain_projection_agree() {
        let (p, _) = paper_fun();
        let icfg = Icfg::build(&p);
        let anfa = AbstractNfa::new(&p, &icfg);
        let events = vec![
            ev(OpKind::Iload, None),
            ev(OpKind::Iconst, None),
            ev(OpKind::Irem, None),
            ev(OpKind::Ifne, Some(false)),
            ev(OpKind::Iconst, None),
            ev(OpKind::Ireturn, None),
        ];
        let with = project_segment(&p, &icfg, &anfa, &events, &ProjectionConfig::default());
        let without = project_segment(
            &p,
            &icfg,
            &anfa,
            &events,
            &ProjectionConfig {
                use_abstraction: false,
                ..ProjectionConfig::default()
            },
        );
        assert_eq!(with.nodes, without.nodes, "same projection either way");
        assert!(
            with.stats.candidates_pruned > 0,
            "abstraction pruned something"
        );
    }

    #[test]
    fn unknown_ops_are_skipped_gracefully() {
        let (p, _) = paper_fun();
        let icfg = Icfg::build(&p);
        let anfa = AbstractNfa::new(&p, &icfg);
        // `goto` exists in fun; `athrow` does not exist anywhere.
        let events = vec![ev(OpKind::Athrow, None), ev(OpKind::Iload, None)];
        let proj = project_segment(&p, &icfg, &anfa, &events, &ProjectionConfig::default());
        let (nodes, stats) = (proj.nodes, proj.stats);
        assert!(nodes[0].is_none());
        assert!(nodes[1].is_some());
        assert_eq!(stats.unmatched, 1);
    }

    #[test]
    fn directions_disambiguate_projection() {
        let (p, _) = paper_fun();
        let icfg = Icfg::build(&p);
        let anfa = AbstractNfa::new(&p, &icfg);
        let taken = vec![
            ev(OpKind::Irem, None),
            ev(OpKind::Ifne, Some(true)),
            ev(OpKind::Iconst, None),
        ];
        let not_taken = vec![
            ev(OpKind::Irem, None),
            ev(OpKind::Ifne, Some(false)),
            ev(OpKind::Iconst, None),
        ];
        let a = project_segment(&p, &icfg, &anfa, &taken, &ProjectionConfig::default());
        let b = project_segment(&p, &icfg, &anfa, &not_taken, &ProjectionConfig::default());
        assert_eq!(icfg.bci_of(a.nodes[2].unwrap()), Bci(17));
        assert_eq!(icfg.bci_of(b.nodes[2].unwrap()), Bci(15));
    }

    #[test]
    fn chunks_stop_matching_at_their_end() {
        // An interpreted counting loop: one matched run spans every cut.
        let mut pb = ProgramBuilder::new();
        let c = pb.add_class("Test", None, 0);
        let mut m = pb.method(c, "main", 0, false);
        let (head, done) = (m.label(), m.label());
        m.emit(I::Iconst(100));
        m.emit(I::Istore(0));
        m.bind(head);
        m.emit(I::Iload(0));
        m.branch_if(CmpKind::Le, done);
        m.emit(I::Iinc(0, -1));
        m.jump(head);
        m.bind(done);
        m.emit(I::Return);
        let main = m.finish();
        let p = pb.finish_with_entry(main).unwrap();
        let icfg = Icfg::build(&p);
        let anfa = AbstractNfa::new(&p, &icfg);
        let mut events = vec![ev(OpKind::Iconst, None), ev(OpKind::Istore, None)];
        for _ in 0..100 {
            events.push(ev(OpKind::Iload, None));
            events.push(ev(OpKind::Ifle, Some(false)));
            events.push(ev(OpKind::Iinc, None));
            events.push(ev(OpKind::Goto, None));
        }
        let cfg = ProjectionConfig::default();
        let whole = project_segment(&p, &icfg, &anfa, &events, &cfg);
        assert!(whole.breaks.is_empty(), "one run: {:?}", whole.breaks);

        let projector = Projector::new(&p, &icfg, &anfa, &events, &cfg);
        let mut scratch = MatchScratch::new();
        let cuts = [0, 97, 200, 301, events.len()];
        let chunks: Vec<ProjectedChunk> = cuts
            .windows(2)
            .map(|c| projector.project_chunk(c[0]..c[1], &mut scratch))
            .collect();
        for (chunk, c) in chunks.iter().zip(cuts.windows(2)) {
            assert!(chunk.nodes.len() <= c[1] - c[0], "nodes stay in the chunk");
            assert!(chunk.runs.iter().all(|r| r.end() <= c[1]));
        }
        // Only the chunk that ends the segment keeps the run reaching it.
        assert!(chunks[..3].iter().all(|c| c.runs.is_empty()));
        assert_eq!(chunks[3].runs.len(), 1);
        assert_eq!(projector.stitch(chunks, &mut scratch), whole);
    }

    use jportal_bytecode::Program;
}
