//! The big end-to-end property: **any** runnable program traced without
//! loss reconstructs its control flow exactly, through both execution
//! modes — the invariant the entire system hangs on. Alongside it, the
//! two stitches that let one long piece decode and project in parallel
//! reproduce the whole-piece results.

use proptest::prelude::*;

use jportal_bytecode::builder::ProgramBuilder;
use jportal_bytecode::{CmpKind, Instruction as I, Program};
use jportal_cfg::abs::AbstractNfa;
use jportal_cfg::{Icfg, MatchScratch};
use jportal_core::decode::{decode_chunk, decode_segment, stitch_chunks};
use jportal_core::reconstruct::{project_segment, ProjectedChunk, ProjectionConfig, Projector};
use jportal_core::JPortal;
use jportal_ipt::{decode_packets, segment_stream, Packet, RawSegment, ThreadId};
use jportal_jvm::runtime::{Jvm, JvmConfig};

/// A random two-method program: `main` loops calling `f(i)` whose body
/// has a random branchy shape. Always terminates and verifies.
fn arb_program() -> impl Strategy<Value = Program> {
    (
        1i64..30,                                 // loop iterations
        prop::collection::vec(any::<u8>(), 1..6), // f's block script
    )
        .prop_map(|(iters, script)| {
            let mut pb = ProgramBuilder::new();
            let c = pb.add_class("P", None, 0);
            let mut f = pb.method(c, "f", 1, true);
            let exit = f.label();
            let labels: Vec<_> = (0..script.len()).map(|_| f.label()).collect();
            for (bi, &b) in script.iter().enumerate() {
                f.bind(labels[bi]);
                match b % 4 {
                    0 => {
                        f.emit(I::Iload(0));
                        f.emit(I::Iconst(1 + i64::from(b % 5)));
                        f.emit(I::Iadd);
                        f.emit(I::Istore(0));
                    }
                    1 => {
                        f.emit(I::Iload(0));
                        f.emit(I::Iconst(2));
                        f.emit(I::Irem);
                        // Branch forward only.
                        let t = labels
                            .get(bi + 1 + (b as usize % 2))
                            .copied()
                            .unwrap_or(exit);
                        f.branch_if(CmpKind::Eq, t);
                    }
                    2 => {
                        f.emit(I::Iload(0));
                        f.emit(I::Ineg);
                        f.emit(I::Istore(0));
                    }
                    _ => {
                        let t = labels.get(bi + 2).copied().unwrap_or(exit);
                        f.jump(t);
                    }
                }
            }
            f.bind(exit);
            f.emit(I::Iload(0));
            f.emit(I::Ireturn);
            let fid = f.finish();

            let mut m = pb.method(c, "main", 0, false);
            m.reserve_locals(2);
            let head = m.label();
            let done = m.label();
            m.emit(I::Iconst(iters));
            m.emit(I::Istore(1));
            m.bind(head);
            m.emit(I::Iload(1));
            m.branch_if(CmpKind::Le, done);
            m.emit(I::Iload(1));
            m.emit(I::InvokeStatic(fid));
            m.emit(I::Pop);
            m.emit(I::Iinc(1, -1));
            m.jump(head);
            m.bind(done);
            m.emit(I::Return);
            let main = m.finish();
            pb.finish_with_entry(main)
                .expect("generated program verifies")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Lossless tracing + full pipeline == ground truth, exactly, for
    /// arbitrary programs — interpreted-only configuration.
    #[test]
    fn interpreted_reconstruction_is_exact(program in arb_program()) {
        let r = Jvm::new(JvmConfig {
            c1_threshold: u64::MAX,
            c2_threshold: u64::MAX,
            ..JvmConfig::default()
        })
        .run(&program);
        prop_assert!(r.thread_errors.is_empty());
        let report = JPortal::new(&program).analyze(r.traces.as_ref().unwrap(), &r.archive);
        let truth = r.truth.trace(ThreadId(0));
        let entries = &report.threads[0].entries;
        prop_assert_eq!(entries.len(), truth.len());
        for (e, t) in entries.iter().zip(truth) {
            prop_assert_eq!(e.method, Some(t.method));
            prop_assert_eq!(e.bci, Some(t.bci));
        }
    }

    /// Same invariant with aggressive tiered compilation: mode switches,
    /// JIT metadata and inline decoding must not cost a single event.
    #[test]
    fn tiered_reconstruction_is_exact(program in arb_program()) {
        let r = Jvm::new(JvmConfig {
            c1_threshold: 2,
            c2_threshold: 5,
            ..JvmConfig::default()
        })
        .run(&program);
        prop_assert!(r.thread_errors.is_empty());
        let report = JPortal::new(&program).analyze(r.traces.as_ref().unwrap(), &r.archive);
        let truth = r.truth.trace(ThreadId(0));
        let entries = &report.threads[0].entries;
        prop_assert_eq!(entries.len(), truth.len());
        for (e, t) in entries.iter().zip(truth) {
            prop_assert_eq!(e.method, Some(t.method));
            prop_assert_eq!(e.bci, Some(t.bci));
        }
    }

    /// Under arbitrary buffer pressure the pipeline never fabricates
    /// timestamps out of range and provenance counts stay consistent.
    #[test]
    fn lossy_pipeline_invariants(program in arb_program(), buffer in 96usize..2048) {
        let r = Jvm::new(JvmConfig {
            pt_buffer_capacity: buffer,
            drain_bytes_per_kilocycle: 15,
            c1_threshold: u64::MAX,
            c2_threshold: u64::MAX,
            ..JvmConfig::default()
        })
        .run(&program);
        let report = JPortal::new(&program).analyze(r.traces.as_ref().unwrap(), &r.archive);
        let (d, rec, w) = report.provenance_counts();
        prop_assert_eq!(d + rec + w, report.total_entries());
        for t in &report.threads {
            for e in &t.entries {
                prop_assert!(e.ts <= r.wall_cycles);
                if let (Some(m), Some(b)) = (e.method, e.bci) {
                    // Location is a real instruction of the right kind.
                    prop_assert_eq!(program.method(m).insn(b).op_kind(), e.op);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The parallelism knob is invisible in the output: the legacy
    /// sequential path (`parallelism = Some(1)`), an explicit 4-worker
    /// fan-out and the all-cores default produce byte-identical reports
    /// on a lossy multi-threaded workload — serialized forms compared
    /// verbatim, so even statistics ordering cannot drift.
    #[test]
    fn parallel_analysis_is_deterministic(
        program in arb_program(),
        buffer in 256usize..2048,
        threads in 1usize..4,
    ) {
        use jportal_core::JPortalConfig;
        use jportal_jvm::runtime::ThreadSpec;

        let jvm = Jvm::new(JvmConfig {
            cores: 2,
            quantum: 700,
            pt_buffer_capacity: buffer,
            drain_bytes_per_kilocycle: 15,
            c1_threshold: u64::MAX,
            c2_threshold: u64::MAX,
            ..JvmConfig::default()
        });
        let entry = program.entry();
        let specs: Vec<ThreadSpec> = (0..threads)
            .map(|_| ThreadSpec { method: entry, args: vec![] })
            .collect();
        let r = jvm.run_threads(&program, &specs);
        let traces = r.traces.as_ref().unwrap();

        let run = |parallelism| {
            JPortal::with_config(&program, JPortalConfig { parallelism, ..JPortalConfig::default() })
                .analyze(traces, &r.archive)
        };
        let mut sequential = run(Some(1));
        let mut four_workers = run(Some(4));
        let mut default_workers = run(None);

        // Structural equality and serialized byte equality. The DFA
        // transition-cache counters are scheduling-dependent diagnostics
        // (two workers can both count a miss for the same key), so report
        // equality excludes them and the serialized comparison zeroes
        // them; everything else must match byte for byte.
        prop_assert_eq!(&sequential, &four_workers);
        prop_assert_eq!(&sequential, &default_workers);
        sequential.dfa_cache = Default::default();
        four_workers.dfa_cache = Default::default();
        default_workers.dfa_cache = Default::default();
        let ser_seq = format!("{sequential:?}");
        prop_assert_eq!(&ser_seq, &format!("{four_workers:?}"));
        prop_assert_eq!(&ser_seq, &format!("{default_workers:?}"));
    }
}

/// `program` traced without loss, interpreted-only and with aggressive
/// tiered compilation: each run's raw segments.
fn lossless_segments(program: &Program) -> Vec<(jportal_jvm::RunResult, Vec<RawSegment>)> {
    [u64::MAX, 2]
        .into_iter()
        .map(|c1_threshold| {
            let r = Jvm::new(JvmConfig {
                c1_threshold,
                c2_threshold: c1_threshold.saturating_add(3),
                ..JvmConfig::default()
            })
            .run(program);
            assert!(r.thread_errors.is_empty());
            let traces = r.traces.as_ref().expect("tracing on");
            let packets = decode_packets(&traces.per_core[0].bytes);
            let raw = segment_stream(packets, &traces.per_core[0].losses, 0);
            (r, raw)
        })
        .collect()
}

/// Sorted distinct cut positions in `1..len` drawn from `picks`, framed
/// by `0` and `len`.
fn bounds_from(picks: &[u32], len: usize, allowed: impl Fn(usize) -> bool) -> Vec<usize> {
    let mut bounds: Vec<usize> = picks
        .iter()
        .map(|&p| p as usize % len.max(1))
        .filter(|&p| p > 0 && allowed(p))
        .collect();
    bounds.push(0);
    bounds.push(len);
    bounds.sort_unstable();
    bounds.dedup();
    bounds
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Cutting a piece at any TIPs and decoding the chunks speculatively
    /// reproduces the whole-piece decode once stitched.
    #[test]
    fn decoding_at_random_tip_cuts_equals_the_whole_decode(
        program in arb_program(),
        picks in prop::collection::vec(any::<u32>(), 1..8),
        workers in 1usize..4,
    ) {
        for (r, segments) in lossless_segments(&program) {
            for raw in &segments {
                let is_tip = |i: usize| matches!(
                    raw.packets()[i].packet,
                    Packet::Tip { .. } | Packet::TipPge { .. }
                );
                let bounds = bounds_from(&picks, raw.len(), is_tip);
                let chunks = bounds
                    .windows(2)
                    .map(|b| decode_chunk(&program, &r.archive, raw, b[0]..b[1]))
                    .collect();
                let (cut, offsets) =
                    stitch_chunks(&program, &r.archive, raw, &bounds, chunks, workers);
                let whole = decode_segment(&program, &r.archive, raw);
                prop_assert_eq!(offsets.len(), bounds.len());
                prop_assert_eq!(offsets[offsets.len() - 1], whole.events.len());
                prop_assert_eq!(cut.events, whole.events);
            }
        }
    }

    /// Projecting any chunking of a segment speculatively and stitching
    /// the chunks equals projecting it in one pass: nodes, seams and every
    /// statistic, the frontier peak included. So does stitching any
    /// subset of the chunks, which leaves the stitch to project the rest.
    #[test]
    fn projection_of_random_chunkings_equals_the_whole_projection(
        program in arb_program(),
        picks in prop::collection::vec(any::<u32>(), 0..10),
        dropped in any::<u32>(),
        use_abstraction in any::<bool>(),
    ) {
        let icfg = Icfg::build(&program);
        let anfa = AbstractNfa::new(&program, &icfg);
        let cfg = ProjectionConfig { use_abstraction, ..ProjectionConfig::default() };
        let mut scratch = MatchScratch::new();
        for (r, segments) in lossless_segments(&program) {
            for raw in &segments {
                let events = decode_segment(&program, &r.archive, raw).events;
                let whole = project_segment(&program, &icfg, &anfa, &events, &cfg);
                let bounds = bounds_from(&picks, events.len(), |_| true);
                let projector = Projector::new(&program, &icfg, &anfa, &events, &cfg);
                let chunks: Vec<ProjectedChunk> = bounds
                    .windows(2)
                    .map(|b| projector.project_chunk(b[0]..b[1], &mut scratch))
                    .collect();
                let kept: Vec<ProjectedChunk> = chunks
                    .iter()
                    .enumerate()
                    .filter(|&(k, _)| dropped >> (k % 32) & 1 == 0)
                    .map(|(_, c)| c.clone())
                    .collect();
                for chunks in [chunks, kept] {
                    let stitched = projector.stitch(chunks, &mut scratch);
                    prop_assert_eq!(&stitched.nodes, &whole.nodes);
                    prop_assert_eq!(&stitched.breaks, &whole.breaks);
                    prop_assert_eq!(stitched.stats, whole.stats);
                }
            }
        }
    }
}
