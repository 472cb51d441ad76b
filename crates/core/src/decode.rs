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
use jportal_ipt::{Packet, RawSegment, TimedPacket};
use jportal_jvm::MetadataArchive;
use std::collections::VecDeque;
use std::ops::Range;

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

/// Packets per chunk when a long piece is cut for parallel decoding
/// (DESIGN.md §7, "Level 1 inside a piece"): a piece of `L` packets is
/// cut into `⌊L / CHUNK_PACKETS⌋` chunks, so pieces under
/// `2 × CHUNK_PACKETS` packets stay whole. The rule depends only on the
/// piece, never on the worker count.
pub const CHUNK_PACKETS: usize = 4096;

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
/// TNT bits (dropped at segment boundaries), debug-info gaps and debug
/// records naming frames or methods the program does not have degrade
/// into skipped events rather than failures — the reconstruction and
/// recovery stages deal with the consequences, exactly as in the paper.
pub fn decode_segment(program: &Program, archive: &MetadataArchive, raw: &RawSegment) -> BcSegment {
    let chunk = decode_chunk(program, archive, raw, 0..raw.len());
    stitch_chunks(program, archive, raw, &[0, raw.len()], vec![chunk], 1).0
}

/// Where the pipeline cuts `raw` for parallel decoding: packet indices
/// `[0, c₁, …, L]`, one chunk between each pair.
///
/// A piece of `L` packets gets `⌊L / CHUNK_PACKETS⌋` chunks (pieces
/// under `2 × CHUNK_PACKETS` stay whole). Each cut is the first `Tip` or
/// `TipPge` at or after an even split point `k·L / chunks`; split points
/// whose TIP another cut already took, or that no TIP follows, add no
/// cut. A TIP replaces the walker's position, so only the TNT queue
/// crosses a cut (see [`stitch_chunks`]).
pub(crate) fn chunk_bounds(raw: &RawSegment) -> Vec<usize> {
    let packets = raw.packets();
    let len = packets.len();
    let chunks = len / CHUNK_PACKETS;
    let mut bounds = vec![0];
    for k in 1..chunks {
        let split = k * len / chunks;
        let last = *bounds.last().expect("bounds start at 0");
        if last >= split {
            // The previous cut's TIP is also the first at or after `split`.
            continue;
        }
        match packets[split..].iter().position(|tp| is_tip(&tp.packet)) {
            Some(at) => bounds.push(split + at),
            None => break,
        }
    }
    bounds.push(len);
    bounds
}

/// The packets that re-anchor the walker.
fn is_tip(packet: &Packet) -> bool {
    matches!(packet, Packet::Tip { .. } | Packet::TipPge { .. })
}

/// One chunk of a piece, decoded on its own (see [`decode_chunk`]).
#[derive(Debug, Clone, Default)]
pub struct DecodedChunk {
    /// Decoded events in order. Branch directions are resolved for every
    /// event but the last, whose successor may sit in the next chunk.
    events: Vec<BcEvent>,
    /// TNT bits still queued after the chunk's last packet.
    queued: VecDeque<bool>,
}

/// Decodes packets `range` of `raw` speculatively: as if the walker
/// entered the chunk with an empty TNT queue. That is exact for the
/// piece's first chunk, and for a chunk that starts at a TIP whose
/// predecessor left no bits queued; [`stitch_chunks`] re-decodes any
/// other chunk.
pub fn decode_chunk(
    program: &Program,
    archive: &MetadataArchive,
    raw: &RawSegment,
    range: Range<usize>,
) -> DecodedChunk {
    decode_from(program, archive, &raw.packets()[range], VecDeque::new())
}

/// Walks `packets` from a carried TNT queue, then resolves JIT branch
/// directions inside the chunk.
fn decode_from(
    program: &Program,
    archive: &MetadataArchive,
    packets: &[TimedPacket],
    queued: VecDeque<bool>,
) -> DecodedChunk {
    let mut walker = Walker {
        state: WalkState::Idle,
        tnt: queued,
        pending_dir: None,
    };
    let mut events = Vec::new();
    for tp in packets {
        walker.step(program, archive, tp, &mut events);
    }
    resolve_jit_branch_dirs(program, &mut events);
    DecodedChunk {
        events,
        queued: walker.tnt,
    }
}

/// Joins the chunks [`decode_chunk`] produced for consecutive packet
/// ranges `bounds` of `raw` into the piece's segment, identical to
/// [`decode_segment`] over the whole piece. Also returns the event offset
/// at which each chunk starts, followed by the event count.
///
/// At a TIP the walker drops its pending interpreted direction and
/// replaces its position, so only the TNT queue crosses a cut. A chunk
/// is therefore exact when the true decode of the chunk before it ended
/// with an empty queue; otherwise it is decoded again here, continuing
/// that queue. The last event of each chunk then gets its branch
/// direction from the event after it. The chunks are copied into the
/// segment on up to `workers` threads.
///
/// # Panics
///
/// Panics unless `bounds` holds one more entry than `chunks` and every
/// cut but the first starts at a `Tip` or `TipPge` packet.
pub fn stitch_chunks(
    program: &Program,
    archive: &MetadataArchive,
    raw: &RawSegment,
    bounds: &[usize],
    mut chunks: Vec<DecodedChunk>,
    workers: usize,
) -> (BcSegment, Vec<usize>) {
    assert_eq!(bounds.len(), chunks.len() + 1, "one chunk per bound pair");
    let packets = raw.packets();
    for k in 1..chunks.len() {
        assert!(
            packets.get(bounds[k]).is_some_and(|tp| is_tip(&tp.packet)),
            "chunk {k} must start at a TIP"
        );
        if !chunks[k - 1].queued.is_empty() {
            let queued = std::mem::take(&mut chunks[k - 1].queued);
            chunks[k] = decode_from(program, archive, &packets[bounds[k]..bounds[k + 1]], queued);
        }
    }

    let mut offsets = Vec::with_capacity(chunks.len() + 1);
    offsets.push(0);
    let events = if chunks.len() == 1 {
        let events = chunks.pop().expect("one chunk").events;
        offsets.push(events.len());
        events
    } else {
        let parts: Vec<&[BcEvent]> = chunks.iter().map(|c| &c.events[..]).collect();
        let mut events = jportal_par::par_concat(workers, &parts);
        for part in parts {
            offsets.push(offsets[offsets.len() - 1] + part.len());
        }
        for &at in &offsets[1..offsets.len() - 1] {
            if at > 0 && at < events.len() {
                let next = events[at];
                resolve_dir(program, &mut events[at - 1], &next);
            }
        }
        events
    };
    (
        BcSegment {
            events,
            loss_before: raw.loss_before,
            core: raw.core,
        },
        offsets,
    )
}

/// The decoder's state between two packets.
struct Walker {
    state: WalkState,
    tnt: VecDeque<bool>,
    /// Index (into the output) of an interpreted conditional event
    /// awaiting its direction.
    pending_dir: Option<usize>,
}

impl Walker {
    /// Consumes one packet, appending whatever it decodes to `out`.
    fn step(
        &mut self,
        program: &Program,
        archive: &MetadataArchive,
        tp: &TimedPacket,
        out: &mut Vec<BcEvent>,
    ) {
        let ts = tp.ts;
        match &tp.packet {
            Packet::Tnt { bits } => {
                self.tnt.extend(bits.iter());
                // An interpreted conditional consumes the first bit.
                if let Some(idx) = self.pending_dir.take() {
                    if let Some(bit) = self.tnt.pop_front() {
                        out[idx].sym.dir = BranchDir::from_taken(bit);
                    }
                }
                self.state = drain_jit(program, archive, self.state, &mut self.tnt, out, ts);
            }
            Packet::Tip { ip, .. } | Packet::TipPge { ip, .. } => {
                self.pending_dir = None;
                let state = anchor(archive, *ip, ts, out, &mut self.pending_dir);
                self.state = drain_jit(program, archive, state, &mut self.tnt, out, ts);
            }
            Packet::TipPgd { .. } => {
                self.state = WalkState::Idle;
                self.pending_dir = None;
            }
            Packet::Fup { .. } => {
                // Asynchronous event: the walk stops here; the following
                // TIP re-anchors at the handler.
                self.state = WalkState::Idle;
                self.pending_dir = None;
            }
            Packet::Ovf => {
                // In-stream overflow marker: drop stale decoder state.
                self.state = WalkState::Idle;
                self.pending_dir = None;
                self.tnt.clear();
            }
            Packet::Psb | Packet::PsbEnd | Packet::Pad | Packet::Tsc { .. } => {}
        }
    }
}

/// Re-anchors the walker at a TIP target.
fn anchor(
    archive: &MetadataArchive,
    ip: u64,
    ts: u64,
    out: &mut Vec<BcEvent>,
    pending_dir: &mut Option<usize>,
) -> WalkState {
    if let Some(op) = archive.templates.op_at(ip) {
        // Interpreted dispatch: the target template names the opcode.
        let sym = Sym::plain(op);
        out.push(BcEvent {
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
            *pending_dir = Some(out.len() - 1);
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
    out: &mut Vec<BcEvent>,
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
            // info still has a record here (degraded metadata loses some)
            // and the record names a frame, method and bci that exist.
            if let Some(rec) = archived.compiled.debug.at_exact(pc) {
                let located = archived
                    .compiled
                    .debug
                    .method_of(rec.inline_id)
                    .filter(|m| m.index() < program.method_count())
                    .map(|m| (m, program.method(m)));
                if let Some((method, m)) = located {
                    if rec.bci.index() < m.code.len() {
                        let insn_bc = m.insn(rec.bci);
                        out.push(BcEvent {
                            sym: Sym::of_instruction(insn_bc),
                            method: Some(method),
                            bci: Some(rec.bci),
                            ts,
                        });
                    }
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
/// the event that follows (see [`resolve_dir`]); the last event has no
/// successor here.
fn resolve_jit_branch_dirs(program: &Program, events: &mut [BcEvent]) {
    for i in 1..events.len() {
        let next = events[i];
        resolve_dir(program, &mut events[i - 1], &next);
    }
}

/// Sets the direction of a JIT-decoded conditional `event` from the event
/// after it: if `next` is the branch's taken target, the branch was
/// taken; if it is the fall-through, it was not.
fn resolve_dir(program: &Program, event: &mut BcEvent, next: &BcEvent) {
    let (Some(method), Some(bci)) = (event.method, event.bci) else {
        return;
    };
    let Some(taken) = program.method(method).insn(bci).conditional_target() else {
        return;
    };
    if next.method == Some(method) {
        if next.bci == Some(taken) {
            event.sym.dir = BranchDir::Taken;
        } else if next.bci == Some(bci.next()) {
            event.sym.dir = BranchDir::NotTaken;
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

    /// A tiered run of `hot_loop_program(iters)`: its one lossless
    /// segment and the run.
    fn tiered_segment(iters: i64) -> (Program, RawSegment, jportal_jvm::RunResult) {
        let program = hot_loop_program(iters);
        let r = Jvm::new(JvmConfig {
            c1_threshold: 4,
            c2_threshold: 16,
            ..JvmConfig::default()
        })
        .run(&program);
        let traces = r.traces.as_ref().expect("tracing on");
        let packets = decode_packets(&traces.per_core[0].bytes);
        let mut raw = segment_stream(packets, &traces.per_core[0].losses, 0);
        assert_eq!(raw.len(), 1, "big buffer: no loss");
        (program, raw.remove(0), r)
    }

    /// Decodes `raw` cut at `bounds` the way the pipeline does: the
    /// events and each chunk's event offset.
    fn decode_cut(
        program: &Program,
        archive: &MetadataArchive,
        raw: &RawSegment,
        bounds: &[usize],
        workers: usize,
    ) -> (Vec<BcEvent>, Vec<usize>) {
        let chunks = bounds
            .windows(2)
            .map(|b| decode_chunk(program, archive, raw, b[0]..b[1]))
            .collect();
        let (seg, offsets) = stitch_chunks(program, archive, raw, bounds, chunks, workers);
        (seg.events, offsets)
    }

    fn tips(raw: &RawSegment) -> Vec<usize> {
        (0..raw.len())
            .filter(|&i| is_tip(&raw.packets()[i].packet))
            .collect()
    }

    #[test]
    fn cuts_at_tips_reproduce_the_whole_decode() {
        let (program, raw, r) = tiered_segment(120);
        let whole = decode_segment(&program, &r.archive, &raw).events;
        let tips = tips(&raw);
        assert!(tips.len() > 20);
        for every in [1, 3, 7, tips.len() / 2] {
            let mut bounds = vec![0];
            bounds.extend(tips.iter().copied().filter(|&t| t > 0).step_by(every));
            bounds.push(raw.len());
            for workers in [1, 3] {
                assert_eq!(
                    decode_cut(&program, &r.archive, &raw, &bounds, workers).0,
                    whole,
                    "a cut at every {every}th TIP, {workers} workers"
                );
            }
        }
    }

    #[test]
    fn bits_queued_at_a_cut_are_decoded_again() {
        let (program, raw, r) = tiered_segment(120);
        let archive = &r.archive;
        let mut forced = 0;
        for &tip in tips(&raw).iter().filter(|&&t| t > 0) {
            // Queue three stale bits in front of the TIP, then cut there.
            let mut packets = raw.packets().to_vec();
            let stale = TimedPacket {
                packet: Packet::Tnt {
                    bits: jportal_ipt::TntBits::from_bools(&[true, false, true]),
                },
                ..packets[tip]
            };
            packets.insert(tip, stale);
            let raw = RawSegment::from_packets(packets, None, 0);
            let bounds = [0, tip + 1, raw.len()];
            let speculative = decode_chunk(&program, archive, &raw, tip + 1..raw.len());
            assert!(
                !decode_chunk(&program, archive, &raw, 0..tip + 1)
                    .queued
                    .is_empty(),
                "the stale bits stay queued at the cut"
            );
            let whole = decode_segment(&program, archive, &raw).events;
            let (cut, offsets) = decode_cut(&program, archive, &raw, &bounds, 2);
            assert_eq!(cut, whole, "the fallback re-decodes the chunk exactly");
            if cut[offsets[1]..] != speculative.events[..] {
                forced += 1;
            }
        }
        assert!(
            forced > 0,
            "some cut's speculative decode must differ from the true one"
        );
    }

    #[test]
    fn chunk_bounds_follow_the_cut_rule() {
        let piece = |len: usize, tips: &[usize]| {
            let packets = (0..len)
                .map(|i| TimedPacket {
                    packet: if tips.contains(&i) {
                        Packet::Tip {
                            compression: jportal_ipt::IpCompression::Full,
                            ip: 0x1000,
                        }
                    } else {
                        Packet::Pad
                    },
                    offset: i as u64,
                    ts: 0,
                })
                .collect();
            chunk_bounds(&RawSegment::from_packets(packets, None, 0))
        };
        let len = 3 * CHUNK_PACKETS + 100;
        // Split points at len/3 and 2·len/3 = 4129 and 8258.
        assert_eq!(piece(len, &[5000, 9000]), vec![0, 5000, 9000, len]);
        assert_eq!(piece(len, &[4129, 8258]), vec![0, 4129, 8258, len]);
        // No TIP after the second split point: one cut.
        assert_eq!(piece(len, &[100, 5000]), vec![0, 5000, len]);
        // One TIP past both split points serves as one cut.
        assert_eq!(piece(len, &[8300]), vec![0, 8300, len]);
        assert_eq!(piece(len, &[]), vec![0, len]);
        // Under two chunks' worth of packets a piece stays whole.
        assert_eq!(
            piece(2 * CHUNK_PACKETS - 1, &[5000]),
            vec![0, 2 * CHUNK_PACKETS - 1]
        );
        assert_eq!(
            piece(2 * CHUNK_PACKETS, &[5000]),
            vec![0, 5000, 2 * CHUNK_PACKETS]
        );
        assert_eq!(piece(0, &[]), vec![0, 0]);
    }

    #[test]
    fn chunk_boundaries_resolve_the_last_jit_branch() {
        let program = paper_fun_program();
        let archive = Jvm::new(JvmConfig::default()).run(&program).archive;
        let fun = MethodId(0);
        let code = &program.method(fun).code;
        let b = (0..code.len())
            .map(|i| Bci(i as u32))
            .find(|&b| program.method(fun).insn(b).is_conditional_branch())
            .expect("fun branches");
        let taken = program.method(fun).insn(b).branch_targets()[0];
        let at = |bci: Bci| BcEvent {
            sym: Sym::of_instruction(program.method(fun).insn(bci)),
            method: Some(fun),
            bci: Some(bci),
            ts: 0,
        };
        let tip = TimedPacket {
            packet: Packet::Tip {
                compression: jportal_ipt::IpCompression::Full,
                ip: 0x1000,
            },
            offset: 0,
            ts: 0,
        };
        let raw = RawSegment::from_packets(vec![tip; 3], None, 0);
        for (next, dir) in [(taken, BranchDir::Taken), (b.next(), BranchDir::NotTaken)] {
            // The branch ends chunk 0, an empty chunk 1 follows, and its
            // successor opens chunk 2.
            let chunks = [vec![at(b)], vec![], vec![at(next)]]
                .into_iter()
                .map(|events| DecodedChunk {
                    events,
                    queued: VecDeque::new(),
                })
                .collect();
            let (seg, offsets) = stitch_chunks(&program, &archive, &raw, &[0, 1, 2, 3], chunks, 2);
            assert_eq!(offsets, vec![0, 1, 1, 2]);
            assert_eq!(seg.events[0].sym.dir, dir, "successor at {next:?}");
        }
    }

    /// `archive` with every blob's debug table rebuilt by `rebuild` from
    /// the original table.
    fn rebuilt(
        archive: &MetadataArchive,
        rebuild: impl Fn(&jportal_jvm::DebugTable) -> jportal_jvm::DebugTable,
    ) -> MetadataArchive {
        let mut archive = archive.clone();
        for blob in &mut archive.blobs {
            blob.compiled.debug = rebuild(&blob.compiled.debug);
        }
        archive
    }

    #[test]
    fn malformed_debug_records_are_skipped_not_panicked_on() {
        use jportal_jvm::DebugTable;
        let (program, raw, r) = tiered_segment(80);
        let whole = decode_segment(&program, &r.archive, &raw).events;
        let jit_events = |events: &[BcEvent]| events.iter().filter(|e| e.method.is_some()).count();
        assert!(jit_events(&whole) > 0, "the run must reach compiled code");
        // Same frames, same records, `root` as the root method.
        let with_root = |root: MethodId, shift: u32| {
            move |t: &DebugTable| {
                let mut out = DebugTable::new(root);
                for f in &t.inline_tree()[1..] {
                    out.add_inline_frame(f.parent.expect("inlined"), f.method, f.caller_bci);
                }
                for rec in t.records() {
                    out.push(jportal_jvm::DebugRecord {
                        inline_id: rec.inline_id + shift,
                        ..*rec
                    });
                }
                out
            }
        };

        // A faithful rebuild decodes unchanged.
        let faithful = rebuilt(&r.archive, |t| {
            with_root(t.method_of(0).expect("root frame"), 0)(t)
        });
        assert_eq!(decode_segment(&program, &faithful, &raw).events, whole);

        // A root method outside the program: its records are skipped.
        let missing = MethodId(program.method_count() as u32 + 7);
        let foreign_root = rebuilt(&r.archive, with_root(missing, 0));
        let events = decode_segment(&program, &foreign_root, &raw).events;
        assert!(jit_events(&events) < jit_events(&whole));
        assert!(events.iter().all(|e| e.method != Some(missing)));

        // Inline ids past the tree: every record is skipped.
        let dangling = rebuilt(&r.archive, |t| {
            with_root(t.method_of(0).expect("root frame"), 1000)(t)
        });
        let events = decode_segment(&program, &dangling, &raw).events;
        assert_eq!(jit_events(&events), 0);
        assert!(events.len() < whole.len());
    }
}
