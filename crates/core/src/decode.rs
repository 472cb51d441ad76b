//! Trace decoding (§3): PT packets → bytecode instruction sequences.
//!
//! Interpreted code decodes by **template-range matching**: every
//! interpreted bytecode produced a dispatch TIP whose target falls inside
//! one opcode's template range (Figure 2); the following TNT bit gives a
//! conditional's direction. JIT-compiled code decodes by **walking the
//! exported code image** from each TIP target, consuming TNT bits at
//! compiled conditional branches and mapping machine PCs back to
//! `method@bci` through the blob's debug records — including inline
//! frames (Figure 3, §6 "Dealing with Inlined Code").
//!
//! Both run in one walker, because real traces interleave the two worlds
//! at every mode transition.

use jportal_bytecode::{Bci, MethodId, Program};
use jportal_cfg::{BranchDir, Sym};
use jportal_ipt::ring::LossRecord;
use jportal_ipt::{Packet, RawSegment};
use jportal_jvm::MetadataArchive;
use std::collections::VecDeque;

/// One decoded bytecode occurrence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BcEvent {
    /// The symbol (operation kind + branch direction when known).
    pub sym: Sym,
    /// Owning method — known for JIT-decoded events, unknown for
    /// interpreted ones (templates identify only the opcode).
    pub method: Option<MethodId>,
    /// Bytecode index — known for JIT-decoded events.
    pub bci: Option<Bci>,
    /// Timestamp of the packet that produced the event.
    pub ts: u64,
}

/// A decoded trace segment: a maximal run of events with no data loss
/// inside.
#[derive(Debug, Clone, Default)]
pub struct BcSegment {
    /// Decoded events in execution order.
    pub events: Vec<BcEvent>,
    /// The loss record separating this segment from its predecessor
    /// (`None` when the segment starts cleanly, e.g. at thread start or a
    /// scheduling split).
    pub loss_before: Option<LossRecord>,
    /// Core the segment was captured on.
    pub core: u32,
}

impl BcSegment {
    /// The symbols of the segment (the `ω` of §4).
    pub fn syms(&self) -> Vec<Sym> {
        self.events.iter().map(|e| e.sym).collect()
    }

    /// Timestamp of the first event (0 when empty).
    pub fn start_ts(&self) -> u64 {
        self.events.first().map(|e| e.ts).unwrap_or(0)
    }

    /// Timestamp of the last event (0 when empty).
    pub fn end_ts(&self) -> u64 {
        self.events.last().map(|e| e.ts).unwrap_or(0)
    }
}

/// Walker position inside JIT code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WalkState {
    /// Not inside walkable code; waiting for a TIP to anchor.
    Idle,
    /// Walking blob `archive index` at `pc`.
    Jit { blob: usize, pc: u64 },
    /// Paused at a conditional branch in a blob, waiting for a TNT bit.
    JitAtCond { blob: usize, pc: u64 },
}

/// Decodes one raw packet segment into bytecode events (§3).
///
/// The decoder is resilient by construction: unknown TIP targets, missing
/// TNT bits (dropped at segment boundaries) and debug-info gaps degrade
/// into skipped events rather than failures — the reconstruction and
/// recovery stages deal with the consequences, exactly as in the paper.
pub fn decode_segment(program: &Program, archive: &MetadataArchive, raw: &RawSegment) -> BcSegment {
    let mut out = BcSegment {
        events: Vec::new(),
        loss_before: raw.loss_before,
        core: raw.core,
    };
    let templates = &archive.templates;
    let mut state = WalkState::Idle;
    let mut tnt: VecDeque<bool> = VecDeque::new();
    // Index of an interpreted conditional event awaiting its direction.
    let mut pending_dir: Option<usize> = None;

    for tp in raw.packets() {
        let ts = tp.ts;
        match &tp.packet {
            Packet::Tnt { bits } => {
                tnt.extend(bits.iter());
                // An interpreted conditional consumes the first bit.
                if let Some(idx) = pending_dir.take() {
                    if let Some(bit) = tnt.pop_front() {
                        out.events[idx].sym.dir = BranchDir::from_taken(bit);
                    }
                }
                state = drain_jit(program, archive, state, &mut tnt, &mut out, ts);
            }
            Packet::Tip { ip, .. } | Packet::TipPge { ip, .. } => {
                pending_dir = None;
                state = anchor(archive, templates, *ip, ts, &mut out, &mut pending_dir);
                state = drain_jit(program, archive, state, &mut tnt, &mut out, ts);
            }
            Packet::TipPgd { .. } => {
                state = WalkState::Idle;
                pending_dir = None;
            }
            Packet::Fup { .. } => {
                // Asynchronous event: the walk stops here; the following
                // TIP re-anchors at the handler.
                state = WalkState::Idle;
                pending_dir = None;
            }
            Packet::Ovf => {
                // In-stream overflow marker: drop stale decoder state.
                state = WalkState::Idle;
                pending_dir = None;
                tnt.clear();
            }
            Packet::Psb | Packet::PsbEnd | Packet::Pad | Packet::Tsc { .. } => {}
        }
    }
    resolve_jit_branch_dirs(program, &mut out);
    out
}

/// Re-anchors the walker at a TIP target.
fn anchor(
    archive: &MetadataArchive,
    templates: &jportal_jvm::TemplateTable,
    ip: u64,
    ts: u64,
    out: &mut BcSegment,
    pending_dir: &mut Option<usize>,
) -> WalkState {
    if let Some(op) = templates.op_at(ip) {
        // Interpreted dispatch: the target template names the opcode.
        let sym = Sym::plain(op);
        out.events.push(BcEvent {
            sym,
            method: None,
            bci: None,
            ts,
        });
        let is_cond = matches!(
            op,
            jportal_bytecode::OpKind::Ifeq
                | jportal_bytecode::OpKind::Ifne
                | jportal_bytecode::OpKind::Iflt
                | jportal_bytecode::OpKind::Ifge
                | jportal_bytecode::OpKind::Ifgt
                | jportal_bytecode::OpKind::Ifle
                | jportal_bytecode::OpKind::IfIcmpeq
                | jportal_bytecode::OpKind::IfIcmpne
                | jportal_bytecode::OpKind::IfIcmplt
                | jportal_bytecode::OpKind::IfIcmpge
                | jportal_bytecode::OpKind::IfIcmpgt
                | jportal_bytecode::OpKind::IfIcmple
                | jportal_bytecode::OpKind::Ifnull
        );
        if is_cond {
            *pending_dir = Some(out.events.len() - 1);
        }
        WalkState::Idle
    } else if let Some(blob) = archive.lookup_index(ip, ts) {
        WalkState::Jit { blob, pc: ip }
    } else {
        WalkState::Idle
    }
}

/// Advances a JIT walk as far as available TNT bits allow.
fn drain_jit(
    program: &Program,
    archive: &MetadataArchive,
    mut state: WalkState,
    tnt: &mut VecDeque<bool>,
    out: &mut BcSegment,
    ts: u64,
) -> WalkState {
    loop {
        let (blob_idx, pc, at_cond) = match state {
            WalkState::Jit { blob, pc } => (blob, pc, false),
            WalkState::JitAtCond { blob, pc } => (blob, pc, true),
            WalkState::Idle => return WalkState::Idle,
        };
        let archived = &archive.blobs[blob_idx];
        let blob = &archived.compiled.blob;
        let Some(insn) = blob.insn_at(pc) else {
            return WalkState::Idle;
        };

        if !at_cond {
            // Emit the bytecode event anchored at this pc, if the debug
            // info still has a record here (degraded metadata loses some).
            if let Some(rec) = archived.compiled.debug.at_exact(pc) {
                let method = archived.compiled.debug.method_of(rec.inline_id);
                let m = program.method(method);
                if rec.bci.index() < m.code.len() {
                    let insn_bc = m.insn(rec.bci);
                    out.events.push(BcEvent {
                        sym: Sym::of_instruction(insn_bc),
                        method: Some(method),
                        bci: Some(rec.bci),
                        ts,
                    });
                }
            }
        }

        use jportal_jvm::MiKind;
        state = match insn.kind {
            MiKind::Other => WalkState::Jit {
                blob: blob_idx,
                pc: insn.next_addr(),
            },
            MiKind::Jump { target } | MiKind::Call { target } => WalkState::Jit {
                blob: blob_idx,
                pc: target,
            },
            MiKind::CondBranch { target, .. } => match tnt.pop_front() {
                Some(true) => WalkState::Jit {
                    blob: blob_idx,
                    pc: target,
                },
                Some(false) => WalkState::Jit {
                    blob: blob_idx,
                    pc: insn.next_addr(),
                },
                None => {
                    // Wait for more TNT bits at this instruction.
                    return WalkState::JitAtCond { blob: blob_idx, pc };
                }
            },
            MiKind::IndirectJump | MiKind::IndirectCall | MiKind::Ret => {
                // The next TIP re-anchors the walk.
                return WalkState::Idle;
            }
        };
        if state == WalkState::Idle {
            return state;
        }
        // Walking off the end of the blob ends the walk.
        if let WalkState::Jit { pc, .. } = state {
            if !blob.contains(pc) {
                return WalkState::Idle;
            }
        }
    }
}

/// Sets branch directions on JIT-decoded conditional events by looking at
/// the event that follows: if it is the branch's taken target, the branch
/// was taken; if it is the fall-through, it was not.
fn resolve_jit_branch_dirs(program: &Program, seg: &mut BcSegment) {
    for i in 0..seg.events.len() {
        let (Some(method), Some(bci)) = (seg.events[i].method, seg.events[i].bci) else {
            continue;
        };
        let insn = program.method(method).insn(bci);
        if !insn.is_conditional_branch() {
            continue;
        }
        let taken_target = insn.branch_targets()[0];
        if let Some(next) = seg.events.get(i + 1) {
            if next.method == Some(method) {
                if next.bci == Some(taken_target) {
                    seg.events[i].sym.dir = BranchDir::Taken;
                } else if next.bci == Some(bci.next()) {
                    seg.events[i].sym.dir = BranchDir::NotTaken;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jportal_bytecode::builder::ProgramBuilder;
    use jportal_bytecode::{CmpKind, Instruction as I, OpKind};
    use jportal_ipt::{decode_packets, segment_stream};
    use jportal_jvm::{Jvm, JvmConfig};

    fn paper_fun_program() -> Program {
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
        pb.finish_with_entry(main).unwrap()
    }

    fn run_and_decode(
        program: &Program,
        cfg: JvmConfig,
    ) -> (Vec<BcSegment>, jportal_jvm::RunResult) {
        let r = Jvm::new(cfg).run(program);
        let traces = r.traces.as_ref().expect("tracing on");
        let packets = decode_packets(&traces.per_core[0].bytes);
        let raw = segment_stream(packets, &traces.per_core[0].losses, 0);
        let segs = raw
            .iter()
            .map(|s| decode_segment(program, &r.archive, s))
            .collect();
        (segs, r)
    }

    #[test]
    fn interpreted_decode_matches_ground_truth_exactly() {
        let program = paper_fun_program();
        let cfg = JvmConfig {
            c1_threshold: u64::MAX,
            c2_threshold: u64::MAX,
            ..JvmConfig::default()
        };
        let (segs, r) = run_and_decode(&program, cfg);
        assert_eq!(segs.len(), 1, "no loss expected");
        let decoded_ops: Vec<OpKind> = segs[0].events.iter().map(|e| e.sym.op).collect();
        let truth: Vec<OpKind> = r
            .truth
            .trace(jportal_ipt::ThreadId(0))
            .iter()
            .map(|e| program.method(e.method).insn(e.bci).op_kind())
            .collect();
        assert_eq!(decoded_ops, truth, "opcode sequences must agree");
        // All interpreted events have unknown method.
        assert!(segs[0].events.iter().all(|e| e.method.is_none()));
    }

    #[test]
    fn interpreted_branch_directions_come_from_tnt() {
        let program = paper_fun_program();
        let cfg = JvmConfig {
            c1_threshold: u64::MAX,
            c2_threshold: u64::MAX,
            ..JvmConfig::default()
        };
        let (segs, r) = run_and_decode(&program, cfg);
        let truth = r.truth.trace(jportal_ipt::ThreadId(0));
        for (i, e) in segs[0].events.iter().enumerate() {
            if matches!(e.sym.op, OpKind::Ifeq | OpKind::Ifne) {
                // Direction must be known and agree with what the truth
                // trace did next.
                assert_ne!(e.sym.dir, BranchDir::Unknown, "event {i} has direction");
                let t = &truth[i];
                let insn = program.method(t.method).insn(t.bci);
                let taken_target = insn.branch_targets()[0];
                let actually_taken = truth[i + 1].bci == taken_target;
                assert_eq!(e.sym.dir, BranchDir::from_taken(actually_taken));
            }
        }
    }

    /// A program whose hot method gets JIT-compiled, then keeps running.
    fn hot_loop_program(iters: i64) -> Program {
        let mut pb = ProgramBuilder::new();
        let c = pb.add_class("C", None, 0);
        let mut h = pb.method(c, "hot", 1, true);
        let odd = h.label();
        h.emit(I::Iload(0));
        h.emit(I::Iconst(2));
        h.emit(I::Irem);
        h.branch_if(CmpKind::Ne, odd);
        h.emit(I::Iconst(100));
        h.emit(I::Ireturn);
        h.bind(odd);
        h.emit(I::Iconst(200));
        h.emit(I::Ireturn);
        let hot = h.finish();
        let mut m = pb.method(c, "main", 0, false);
        let head = m.label();
        let done = m.label();
        m.emit(I::Iconst(iters));
        m.emit(I::Istore(0));
        m.bind(head);
        m.emit(I::Iload(0));
        m.branch_if(CmpKind::Le, done);
        m.emit(I::Iload(0));
        m.emit(I::InvokeStatic(hot));
        m.emit(I::Pop);
        m.emit(I::Iinc(0, -1));
        m.jump(head);
        m.bind(done);
        m.emit(I::Return);
        let main = m.finish();
        pb.finish_with_entry(main).unwrap()
    }

    #[test]
    fn jit_decode_recovers_methods_and_bcis() {
        let program = hot_loop_program(60);
        let cfg = JvmConfig {
            c1_threshold: 5,
            c2_threshold: 20,
            ..JvmConfig::default()
        };
        let (segs, r) = run_and_decode(&program, cfg);
        assert!(r.compilations >= 1);
        let jit_events: Vec<&BcEvent> = segs
            .iter()
            .flat_map(|s| &s.events)
            .filter(|e| e.method.is_some())
            .collect();
        assert!(
            !jit_events.is_empty(),
            "compiled code must decode with known methods"
        );
        // Every JIT event's (method, bci) must be a real instruction whose
        // op kind matches the decoded symbol.
        for e in &jit_events {
            let insn = program.method(e.method.unwrap()).insn(e.bci.unwrap());
            assert_eq!(insn.op_kind(), e.sym.op);
        }
    }

    #[test]
    fn full_decoded_stream_matches_truth_even_across_modes() {
        let program = hot_loop_program(80);
        let cfg = JvmConfig {
            c1_threshold: 4,
            c2_threshold: 16,
            ..JvmConfig::default()
        };
        let (segs, r) = run_and_decode(&program, cfg);
        assert_eq!(segs.len(), 1, "big buffer: no loss");
        let decoded_ops: Vec<OpKind> = segs[0].events.iter().map(|e| e.sym.op).collect();
        let truth: Vec<OpKind> = r
            .truth
            .trace(jportal_ipt::ThreadId(0))
            .iter()
            .map(|e| program.method(e.method).insn(e.bci).op_kind())
            .collect();
        assert_eq!(
            decoded_ops, truth,
            "decode must be exact with pristine debug info"
        );
    }

    #[test]
    fn degraded_debug_info_loses_events_but_never_lies() {
        let program = hot_loop_program(80);
        let cfg = JvmConfig {
            c1_threshold: 4,
            c2_threshold: 16,
            jit: jportal_jvm::JitConfig {
                debug_degrade: 0.3,
                ..jportal_jvm::JitConfig::default()
            },
            ..JvmConfig::default()
        };
        let (segs, r) = run_and_decode(&program, cfg);
        let decoded: usize = segs.iter().map(|s| s.events.len()).sum();
        let truth_len = r.truth.trace(jportal_ipt::ThreadId(0)).len();
        assert!(decoded < truth_len, "degraded metadata drops events");
        // But whatever is decoded is still correct.
        for s in &segs {
            for e in &s.events {
                if let (Some(m), Some(b)) = (e.method, e.bci) {
                    assert_eq!(program.method(m).insn(b).op_kind(), e.sym.op);
                }
            }
        }
    }

    #[test]
    fn loss_segments_decode_independently() {
        let program = hot_loop_program(400);
        let cfg = JvmConfig {
            pt_buffer_capacity: 512,
            drain_bytes_per_kilocycle: 3,
            c1_threshold: u64::MAX,
            c2_threshold: u64::MAX,
            ..JvmConfig::default()
        };
        let (segs, _r) = run_and_decode(&program, cfg);
        assert!(segs.len() > 1, "loss must split the stream");
        let with_loss = segs.iter().filter(|s| s.loss_before.is_some()).count();
        assert!(with_loss >= 1);
        // Non-empty segments decode to valid events.
        let non_empty = segs.iter().filter(|s| !s.events.is_empty()).count();
        assert!(non_empty >= 2);
    }
}
