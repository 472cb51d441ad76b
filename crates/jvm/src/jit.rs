//! The tiered JIT compiler (C1/C2).
//!
//! Compiles a method's bytecode CFG to synthetic machine code:
//!
//! * **C1** lays blocks out in bytecode order and does not inline;
//! * **C2** lays blocks out in reverse post-order (so conditional branches
//!   get inverted when their taken side becomes the fall-through — real
//!   compilers do this constantly and it is exactly what makes mapping
//!   machine branches back to bytecode non-trivial) and **inlines** small
//!   statically-monomorphic callees, recording inline frames in the debug
//!   table (§3.2, §6 "Dealing with Inlined Code").
//!
//! Every bytecode's first machine PC gets a [`DebugRecord`]; branch,
//! switch, call and return sites additionally get [`OpInfo`] entries the
//! executor uses to emit hardware events at the right machine addresses.
//! The `debug_degrade` knob drops a fraction of debug records after
//! compilation, modelling the metadata imprecision of aggressive
//! optimization (the decoder sees the degraded table; the executor always
//! uses the exact side tables).

use std::collections::HashMap;

use jportal_bytecode::{Bci, Instruction, MethodId, Program};
use jportal_cfg::Cfg;

use crate::debug_info::{DebugRecord, DebugTable};
use crate::machine::{CodeBlob, MachineInsn, MiKind};

/// Compilation tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JitTier {
    /// Fast, non-inlining, bytecode-order layout.
    C1,
    /// Optimizing: inlining + block reordering.
    C2,
}

/// JIT configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JitConfig {
    /// Maximum callee size (bytecodes) eligible for inlining (C2).
    pub inline_max_size: usize,
    /// Maximum inline nesting depth (C2).
    pub inline_max_depth: u32,
    /// Fraction of debug records dropped after compilation (`0.0` = exact
    /// metadata; the paper's OpenJDK 12 metadata is "precise enough", so
    /// small values model it well).
    pub debug_degrade: f64,
    /// Seed for deterministic degradation.
    pub degrade_seed: u64,
}

impl Default for JitConfig {
    fn default() -> JitConfig {
        JitConfig {
            inline_max_size: 12,
            inline_max_depth: 2,
            debug_degrade: 0.0,
            degrade_seed: 0x5EED,
        }
    }
}

/// Executor-facing description of one compiled bytecode site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpInfo {
    /// No event-relevant machine structure.
    Plain,
    /// Conditional branch.
    Cond {
        /// Machine address of the conditional branch instruction.
        cond_addr: u64,
        /// `true` if the machine branch being taken means the bytecode
        /// branch was taken (layout may invert this).
        taken_means_bytecode_taken: bool,
    },
    /// Switch dispatch.
    Switch {
        /// Machine address of the indirect jump.
        dispatch_addr: u64,
    },
    /// Out-of-line call.
    CallOut {
        /// Machine address of the indirect call.
        call_addr: u64,
        /// Machine address execution resumes at after the callee returns.
        ret_to: u64,
    },
    /// Call inlined into this blob.
    CallInline {
        /// Inline frame id of the callee.
        callee: u32,
    },
    /// Method return from the root frame.
    Ret {
        /// Machine address of the `ret` instruction.
        ret_addr: u64,
    },
}

/// A compiled method: machine code + debug metadata + executor side
/// tables.
#[derive(Debug, Clone)]
pub struct CompiledMethod {
    /// The compiled (root) method.
    pub method: MethodId,
    /// Tier it was compiled at.
    pub tier: JitTier,
    /// The machine-code image.
    pub blob: CodeBlob,
    /// Debug metadata exported to JPortal (possibly degraded).
    pub debug: DebugTable,
    /// Exact machine PC of every `(inline_id, bci)` — the executor's
    /// ground-truth mapping, never degraded.
    bci_pc: HashMap<(u32, u32), u64>,
    /// Event-emission info per `(inline_id, bci)`.
    op_index: HashMap<(u32, u32), OpInfo>,
}

impl CompiledMethod {
    /// Entry address.
    pub fn entry(&self) -> u64 {
        self.blob.range().0
    }

    /// Exact machine PC of a bytecode site.
    pub fn pc_of(&self, inline_id: u32, bci: Bci) -> Option<u64> {
        self.bci_pc.get(&(inline_id, bci.0)).copied()
    }

    /// Executor info for a bytecode site.
    pub fn op_info(&self, inline_id: u32, bci: Bci) -> OpInfo {
        self.op_index
            .get(&(inline_id, bci.0))
            .copied()
            .unwrap_or(OpInfo::Plain)
    }

    /// Number of machine instructions (metadata-export cost basis).
    pub fn insn_count(&self) -> usize {
        self.blob.insns().len()
    }

    /// Rebases the compiled method so its code starts at `new_base`
    /// (compilation emits position-dependent addresses; the code cache
    /// relocates the blob into its allocation).
    pub fn relocate(&mut self, new_base: u64) {
        let (old_base, _) = self.blob.range();
        if new_base == old_base {
            return;
        }
        let shift = |a: u64| a.wrapping_add(new_base).wrapping_sub(old_base);
        let mut insns = self.blob.insns().to_vec();
        for i in &mut insns {
            i.addr = shift(i.addr);
            match &mut i.kind {
                MiKind::CondBranch { target, .. }
                | MiKind::Jump { target }
                | MiKind::Call { target } => *target = shift(*target),
                _ => {}
            }
        }
        self.blob = CodeBlob::new(new_base, insns);
        let mut debug = DebugTable::new(self.method);
        // Rebuild: copy inline tree then shifted records.
        for (i, f) in self.debug.inline_tree().iter().enumerate().skip(1) {
            let id =
                debug.add_inline_frame(f.parent.expect("non-root frame"), f.method, f.caller_bci);
            debug_assert_eq!(id as usize, i);
        }
        for r in self.debug.records() {
            debug.push(DebugRecord {
                pc: shift(r.pc),
                inline_id: r.inline_id,
                bci: r.bci,
            });
        }
        self.debug = debug;
        for pc in self.bci_pc.values_mut() {
            *pc = shift(*pc);
        }
        for info in self.op_index.values_mut() {
            match info {
                OpInfo::Cond { cond_addr, .. } => *cond_addr = shift(*cond_addr),
                OpInfo::Switch { dispatch_addr } => *dispatch_addr = shift(*dispatch_addr),
                OpInfo::CallOut { call_addr, ret_to } => {
                    *call_addr = shift(*call_addr);
                    *ret_to = shift(*ret_to);
                }
                OpInfo::Ret { ret_addr } => *ret_addr = shift(*ret_addr),
                OpInfo::Plain | OpInfo::CallInline { .. } => {}
            }
        }
    }
}

/// Compiles `method` at `tier`, placing code at `base` (allocated by the
/// code cache).
///
/// # Panics
///
/// Panics if the method is malformed (verified programs never are).
pub fn compile(
    program: &Program,
    method: MethodId,
    tier: JitTier,
    base: u64,
    cfg: &JitConfig,
) -> CompiledMethod {
    let mut c = Codegen {
        program,
        tier,
        cfg,
        debug: DebugTable::new(method),
        bci_pc: HashMap::new(),
        op_index: HashMap::new(),
        insns: Vec::new(),
        next_addr: base,
        fixups: Vec::new(),
    };

    let plan = c.build_plan(method, 0, &mut vec![method], 0);
    // Prologue.
    c.emit(MiKind::Other);
    c.emit(MiKind::Other);
    c.emit_plan(&plan);
    c.apply_fixups();

    let mut debug = c.debug;
    // Mix the method and tier into the seed so every blob loses a
    // *different* slice of its mapping.
    let seed = cfg
        .degrade_seed
        .wrapping_add(u64::from(method.0) << 32)
        .wrapping_add(match tier {
            JitTier::C1 => 1,
            JitTier::C2 => 2,
        });
    debug.degrade(cfg.debug_degrade, seed);
    CompiledMethod {
        method,
        tier,
        blob: CodeBlob::new(base, c.insns),
        debug,
        bci_pc: c.bci_pc,
        op_index: c.op_index,
    }
}

/// One planned emission item: a bytecode of some inline frame, plus the
/// spliced plan of an inlined callee right after a `CallInline` item.
#[derive(Debug)]
enum PlanItem {
    Op {
        inline_id: u32,
        bci: Bci,
    },
    /// Marks the start of an inlined callee's body (no machine code).
    Splice(Vec<PlanItem>),
}

struct Codegen<'p> {
    program: &'p Program,
    tier: JitTier,
    cfg: &'p JitConfig,
    debug: DebugTable,
    bci_pc: HashMap<(u32, u32), u64>,
    op_index: HashMap<(u32, u32), OpInfo>,
    insns: Vec<MachineInsn>,
    next_addr: u64,
    /// Pending branch-target patches: (insn index, inline_id, bci,
    /// patch slot) where slot 0 = CondBranch/Jump target.
    fixups: Vec<(usize, u32, u32)>,
}

impl<'p> Codegen<'p> {
    const INSN_LEN: u8 = 4;

    fn emit(&mut self, kind: MiKind) -> u64 {
        let addr = self.next_addr;
        self.insns.push(MachineInsn {
            addr,
            len: Self::INSN_LEN,
            kind,
        });
        self.next_addr += u64::from(Self::INSN_LEN);
        addr
    }

    /// Builds the emission plan for `method` as inline frame `inline_id`.
    fn build_plan(
        &mut self,
        method: MethodId,
        inline_id: u32,
        stack: &mut Vec<MethodId>,
        depth: u32,
    ) -> Vec<PlanItem> {
        let m = self.program.method(method);
        let layout: Vec<Bci> = match (self.tier, inline_id) {
            (JitTier::C2, 0) => {
                // Root frame of C2: RPO block layout.
                let cfg = Cfg::build(m);
                let mut order = Vec::with_capacity(m.code.len());
                for b in cfg.reverse_post_order() {
                    let blk = cfg.block(b);
                    for bci in blk.start.0..blk.end.0 {
                        order.push(Bci(bci));
                    }
                }
                order
            }
            _ => (0..m.code.len() as u32).map(Bci).collect(),
        };

        let mut plan = Vec::with_capacity(layout.len());
        for bci in layout {
            plan.push(PlanItem::Op { inline_id, bci });
            if self.tier == JitTier::C2 && depth < self.cfg.inline_max_depth {
                if let Some(callee) = self.inline_candidate(m.insn(bci), stack) {
                    let callee_id = self.debug.add_inline_frame(inline_id, callee, bci);
                    stack.push(callee);
                    let inner = self.build_plan(callee, callee_id, stack, depth + 1);
                    stack.pop();
                    // Replace the Op we just pushed with a CallInline
                    // marker by recording op_index now; the Op item stays
                    // (it anchors the invoke's debug record).
                    self.op_index
                        .insert((inline_id, bci.0), OpInfo::CallInline { callee: callee_id });
                    plan.push(PlanItem::Splice(inner));
                }
            }
        }
        plan
    }

    fn inline_candidate(&self, insn: &Instruction, stack: &[MethodId]) -> Option<MethodId> {
        let callee = match insn {
            Instruction::InvokeStatic(m) => *m,
            Instruction::InvokeVirtual { declared_in, slot } => {
                let targets = self.program.virtual_targets(*declared_in, *slot);
                if targets.len() == 1 {
                    targets[0]
                } else {
                    return None;
                }
            }
            _ => return None,
        };
        if stack.contains(&callee) {
            return None; // no recursive inlining
        }
        let code_len = self.program.method(callee).code.len();
        (code_len <= self.cfg.inline_max_size).then_some(callee)
    }

    fn emit_plan(&mut self, plan: &[PlanItem]) {
        // Flatten to know each item's successor (for fall-through checks).
        let flat = flatten(plan);
        for (idx, &(inline_id, bci)) in flat.iter().enumerate() {
            let method = self
                .debug
                .method_of(inline_id)
                .expect("the plan names only frames this compilation added");
            let insn = self.program.method(method).insn(bci).clone();
            let pc = self.next_addr;
            self.bci_pc.insert((inline_id, bci.0), pc);
            self.debug.push(DebugRecord { pc, inline_id, bci });
            let next_is_fallthrough = flat
                .get(idx + 1)
                .is_some_and(|&(i2, b2)| i2 == inline_id && b2 == bci.next());

            let inlined_call = matches!(
                self.op_index.get(&(inline_id, bci.0)),
                Some(OpInfo::CallInline { .. })
            );

            match &insn {
                _ if inlined_call => {
                    // Anchor insn for the inlined invoke (receiver null
                    // check / guard).
                    self.emit(MiKind::Other);
                }
                Instruction::If(..) | Instruction::IfICmp(..) | Instruction::IfNull(..) => {
                    let taken = insn.branch_targets()[0];
                    self.emit(MiKind::Other); // compare
                    let taken_is_next = flat
                        .get(idx + 1)
                        .is_some_and(|&(i2, b2)| i2 == inline_id && b2 == taken);
                    if taken_is_next && !next_is_fallthrough {
                        // Inverted branch: machine-taken goes to the
                        // bytecode fall-through.
                        let cond_addr = self.emit(MiKind::CondBranch {
                            target: 0,
                            taken_means_bytecode_taken: false,
                        });
                        let i = self.insns.len() - 1;
                        self.fixups.push((i, inline_id, bci.next().0));
                        self.op_index.insert(
                            (inline_id, bci.0),
                            OpInfo::Cond {
                                cond_addr,
                                taken_means_bytecode_taken: false,
                            },
                        );
                    } else {
                        let cond_addr = self.emit(MiKind::CondBranch {
                            target: 0,
                            taken_means_bytecode_taken: true,
                        });
                        let i = self.insns.len() - 1;
                        self.fixups.push((i, inline_id, taken.0));
                        self.op_index.insert(
                            (inline_id, bci.0),
                            OpInfo::Cond {
                                cond_addr,
                                taken_means_bytecode_taken: true,
                            },
                        );
                        if !next_is_fallthrough {
                            let j = self.emit(MiKind::Jump { target: 0 });
                            let _ = j;
                            let i = self.insns.len() - 1;
                            self.fixups.push((i, inline_id, bci.next().0));
                        }
                    }
                }
                Instruction::Goto(t) => {
                    self.emit(MiKind::Jump { target: 0 });
                    let i = self.insns.len() - 1;
                    self.fixups.push((i, inline_id, t.0));
                }
                Instruction::TableSwitch { .. } | Instruction::LookupSwitch { .. } => {
                    self.emit(MiKind::Other); // bounds / lookup
                    let dispatch_addr = self.emit(MiKind::IndirectJump);
                    self.op_index
                        .insert((inline_id, bci.0), OpInfo::Switch { dispatch_addr });
                }
                Instruction::InvokeStatic(_) | Instruction::InvokeVirtual { .. } => {
                    self.emit(MiKind::Other); // argument shuffle
                    let call_addr = self.emit(MiKind::IndirectCall);
                    let ret_to = self.next_addr;
                    self.op_index
                        .insert((inline_id, bci.0), OpInfo::CallOut { call_addr, ret_to });
                    // After an out-of-line call execution resumes here; if
                    // the next plan item is not the continuation, jump.
                    if !next_is_fallthrough {
                        let i_next = flat.get(idx + 1);
                        if i_next.is_some() {
                            self.emit(MiKind::Jump { target: 0 });
                            let i = self.insns.len() - 1;
                            self.fixups.push((i, inline_id, bci.next().0));
                        }
                    }
                }
                Instruction::Ireturn | Instruction::Areturn | Instruction::Return => {
                    if inline_id == 0 {
                        self.emit(MiKind::Other); // epilogue
                        let ret_addr = self.emit(MiKind::Ret);
                        self.op_index
                            .insert((inline_id, bci.0), OpInfo::Ret { ret_addr });
                    } else {
                        // Inline return: execution continues in the parent
                        // frame; jump to the continuation after the splice.
                        let parent = *self.debug.frame(inline_id);
                        self.emit(MiKind::Other);
                        self.emit(MiKind::Jump { target: 0 });
                        let i = self.insns.len() - 1;
                        self.fixups.push((
                            i,
                            parent.parent.expect("inline frame has parent"),
                            parent.caller_bci.next().0,
                        ));
                    }
                }
                _ => {
                    self.emit(MiKind::Other);
                    if !next_is_fallthrough && !insn.is_terminator() && flat.get(idx + 1).is_some()
                    {
                        self.emit(MiKind::Jump { target: 0 });
                        let i = self.insns.len() - 1;
                        self.fixups.push((i, inline_id, bci.next().0));
                    }
                }
            }
        }
    }

    fn apply_fixups(&mut self) {
        for &(insn_idx, inline_id, bci) in &self.fixups {
            let target_pc = *self
                .bci_pc
                .get(&(inline_id, bci))
                .unwrap_or_else(|| panic!("fixup target ({inline_id}, {bci}) not emitted"));
            match &mut self.insns[insn_idx].kind {
                MiKind::CondBranch { target, .. } | MiKind::Jump { target } => *target = target_pc,
                other => unreachable!("fixup on non-branch {other:?}"),
            }
        }
    }
}

fn flatten(plan: &[PlanItem]) -> Vec<(u32, Bci)> {
    let mut out = Vec::new();
    fn rec(items: &[PlanItem], out: &mut Vec<(u32, Bci)>) {
        for item in items {
            match item {
                PlanItem::Op { inline_id, bci } => out.push((*inline_id, *bci)),
                PlanItem::Splice(inner) => rec(inner, out),
            }
        }
    }
    rec(plan, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use jportal_bytecode::builder::ProgramBuilder;
    use jportal_bytecode::{CmpKind, Instruction as I};

    fn diamond_program() -> (Program, MethodId) {
        let mut pb = ProgramBuilder::new();
        let c = pb.add_class("C", None, 0);
        let mut m = pb.method(c, "f", 1, true);
        let els = m.label();
        let join = m.label();
        m.emit(I::Iload(0));
        m.branch_if(CmpKind::Eq, els);
        m.emit(I::Iconst(1));
        m.jump(join);
        m.bind(els);
        m.emit(I::Iconst(2));
        m.bind(join);
        m.emit(I::Ireturn);
        let f = m.finish();
        let mut main = pb.method(c, "main", 0, false);
        main.emit(I::Iconst(1));
        main.emit(I::InvokeStatic(f));
        main.emit(I::Pop);
        main.emit(I::Return);
        let main = main.finish();
        (pb.finish_with_entry(main).unwrap(), f)
    }

    #[test]
    fn c1_compiles_every_bci() {
        let (p, f) = diamond_program();
        let cm = compile(&p, f, JitTier::C1, 0x10_0000, &JitConfig::default());
        let code_len = p.method(f).code.len() as u32;
        for bci in 0..code_len {
            assert!(
                cm.pc_of(0, Bci(bci)).is_some(),
                "bci {bci} has a machine pc"
            );
        }
        assert_eq!(cm.entry(), 0x10_0000);
        assert!(cm.insn_count() >= code_len as usize);
    }

    #[test]
    fn branch_sites_have_cond_info() {
        let (p, f) = diamond_program();
        let cm = compile(&p, f, JitTier::C1, 0x10_0000, &JitConfig::default());
        match cm.op_info(0, Bci(1)) {
            OpInfo::Cond { cond_addr, .. } => {
                assert!(cm.blob.insn_at(cond_addr).is_some());
                match cm.blob.insn_at(cond_addr).unwrap().kind {
                    MiKind::CondBranch { target, .. } => {
                        // Taken target must be bci 4 (iconst 2) under C1
                        // bytecode-order layout.
                        assert_eq!(Some(target), cm.pc_of(0, Bci(4)));
                    }
                    other => panic!("expected CondBranch, got {other:?}"),
                }
            }
            other => panic!("expected Cond info, got {other:?}"),
        }
        match cm.op_info(0, Bci(5)) {
            OpInfo::Ret { ret_addr } => {
                assert_eq!(cm.blob.insn_at(ret_addr).unwrap().kind, MiKind::Ret);
            }
            other => panic!("expected Ret, got {other:?}"),
        }
    }

    #[test]
    fn debug_records_map_pcs_to_bcis() {
        let (p, f) = diamond_program();
        let cm = compile(&p, f, JitTier::C1, 0x20_0000, &JitConfig::default());
        for bci in 0..p.method(f).code.len() as u32 {
            let pc = cm.pc_of(0, Bci(bci)).unwrap();
            let rec = cm.debug.at_exact(pc).unwrap();
            assert_eq!(rec.bci, Bci(bci));
            assert_eq!(rec.inline_id, 0);
        }
    }

    #[test]
    fn c2_inlines_small_static_callee() {
        let (p, _) = diamond_program();
        let main = p.entry();
        let cm = compile(&p, main, JitTier::C2, 0x30_0000, &JitConfig::default());
        assert!(
            cm.debug.inline_tree().len() == 2,
            "callee f should be inlined"
        );
        match cm.op_info(0, Bci(1)) {
            OpInfo::CallInline { callee } => {
                assert_eq!(cm.debug.method_of(callee), Some(MethodId(0)));
                // The inlined callee's bcis all have machine pcs.
                for bci in 0..p.method(MethodId(0)).code.len() as u32 {
                    assert!(cm.pc_of(callee, Bci(bci)).is_some());
                }
            }
            other => panic!("expected inlined call, got {other:?}"),
        }
    }

    #[test]
    fn c1_never_inlines() {
        let (p, _) = diamond_program();
        let main = p.entry();
        let cm = compile(&p, main, JitTier::C1, 0x40_0000, &JitConfig::default());
        assert_eq!(cm.debug.inline_tree().len(), 1);
        assert!(matches!(cm.op_info(0, Bci(1)), OpInfo::CallOut { .. }));
    }

    #[test]
    fn all_branch_fixups_resolve_inside_blob() {
        let (p, f) = diamond_program();
        for tier in [JitTier::C1, JitTier::C2] {
            let cm = compile(&p, f, tier, 0x50_0000, &JitConfig::default());
            for insn in cm.blob.insns() {
                match insn.kind {
                    MiKind::CondBranch { target, .. } | MiKind::Jump { target } => {
                        assert!(
                            cm.blob.contains(target),
                            "{tier:?}: branch target {target:#x} escapes blob"
                        );
                        assert!(cm.blob.insn_at(target).is_some());
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn recursive_methods_are_not_inlined() {
        let mut pb = ProgramBuilder::new();
        let c = pb.add_class("C", None, 0);
        let mut m = pb.method(c, "fib", 1, true);
        let base = m.label();
        let id = m.id();
        m.emit(I::Iload(0));
        m.emit(I::Iconst(2));
        m.branch_if_icmp(CmpKind::Lt, base);
        m.emit(I::Iload(0));
        m.emit(I::Iconst(1));
        m.emit(I::Isub);
        m.emit(I::InvokeStatic(id));
        m.emit(I::Ireturn);
        m.bind(base);
        m.emit(I::Iload(0));
        m.emit(I::Ireturn);
        let fib = m.finish();
        let mut main = pb.method(c, "main", 0, false);
        main.emit(I::Iconst(5));
        main.emit(I::InvokeStatic(fib));
        main.emit(I::Pop);
        main.emit(I::Return);
        let main = main.finish();
        let p = pb.finish_with_entry(main).unwrap();
        let cm = compile(&p, fib, JitTier::C2, 0x60_0000, &JitConfig::default());
        assert!(matches!(cm.op_info(0, Bci(6)), OpInfo::CallOut { .. }));
    }

    #[test]
    fn degraded_debug_keeps_side_tables_exact() {
        let (p, f) = diamond_program();
        let cfg = JitConfig {
            debug_degrade: 0.8,
            ..JitConfig::default()
        };
        let cm = compile(&p, f, JitTier::C1, 0x70_0000, &cfg);
        // Debug table lost records…
        assert!(cm.debug.records().len() < p.method(f).code.len());
        // …but the executor's mapping is complete.
        for bci in 0..p.method(f).code.len() as u32 {
            assert!(cm.pc_of(0, Bci(bci)).is_some());
        }
    }
}
