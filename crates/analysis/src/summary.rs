//! Per-method abstract-interpretation summaries.
//!
//! One intra-method fixpoint pass over each method's bytecode computes a
//! [`MethodSummary`]: the op kinds the method can exit through and the
//! branches whose polarity is statically forced. The pass runs **once,
//! offline**, from the [`Program`] alone;
//! [`crate::interproc::SummaryTable`] then adds the interprocedural
//! queries (class-level callee reach, summary-equality classes) the
//! trace-feasibility linter's interprocedural mode consumes.
//!
//! # The abstract domain
//!
//! The operand stack is modeled as a vector of [`AbsVal`] values — the
//! flat lattice `⊥ < {Const(v), Null, NonNull} < Top` per slot, with
//! equal-or-Top join. Locals are **not** tracked (`iload`/`aload` push
//! `Top`), which keeps the pass linear and makes forced-branch facts
//! depend only on literally `iconst`-fed comparisons — exactly the shape
//! the bytecode generators emit for guard branches. A join that
//! disagrees on stack *depth* (impossible in verified bytecode, but the
//! pass must not trust its input) abandons abstraction and falls back to
//! purely syntactic facts, never to wrong ones.

use jportal_bytecode::{Bci, Instruction, MethodId, OpKind, Program};
use jportal_cfg::BranchDir;

// Dense per-op bitsets rely on every kind fitting one machine word.
const _: () = assert!(OpKind::ALL.len() <= 64);

/// A set of [`OpKind`]s as a 64-bit bitset.
///
/// # Examples
///
/// ```
/// use jportal_analysis::OpSet;
/// use jportal_bytecode::OpKind;
///
/// let mut s = OpSet::EMPTY;
/// s.insert(OpKind::Ireturn);
/// assert!(s.contains(OpKind::Ireturn));
/// assert!(!s.contains(OpKind::Areturn));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct OpSet(u64);

impl OpSet {
    /// The empty set.
    pub const EMPTY: OpSet = OpSet(0);

    /// Adds an operation kind.
    pub fn insert(&mut self, op: OpKind) {
        self.0 |= 1u64 << op.index();
    }

    /// `true` if `op` is in the set.
    pub fn contains(self, op: OpKind) -> bool {
        self.0 & (1u64 << op.index()) != 0
    }
}

/// One abstract operand-stack slot: the flat lattice over what the pass
/// can prove about a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AbsVal {
    /// Nothing known.
    Top,
    /// A known integer constant.
    Const(i64),
    /// The null reference.
    Null,
    /// A freshly allocated (definitely non-null) reference.
    NonNull,
}

impl AbsVal {
    fn join(self, other: AbsVal) -> AbsVal {
        if self == other {
            self
        } else {
            AbsVal::Top
        }
    }
}

/// Summary of one method, computed by abstract interpretation (or the
/// syntactic fallback — see [`MethodSummary::precise`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MethodSummary {
    /// Kinds of reachable exit instructions: returns, plus `athrow`
    /// occurrences no handler in the method covers.
    pub exit_ops: OpSet,
    /// Reachable conditional branches whose direction is the same on
    /// every path (sorted by bci). A traced occurrence contradicting the
    /// forced direction is infeasible.
    pub forced: Vec<(Bci, BranchDir)>,
    /// `true` when the abstract pass converged; `false` means the
    /// syntactic fallback ran, so every exit instruction counts as
    /// reachable and no branch is forced.
    pub precise: bool,
}

impl MethodSummary {
    /// Computes the summary of `method` in `program`.
    pub fn compute(program: &Program, method: MethodId) -> MethodSummary {
        let m = program.method(method);
        if m.code.is_empty() {
            // Verified programs never have empty methods; degrade
            // gracefully anyway rather than trusting the input.
            return syntactic_fallback(m);
        }
        abstract_pass(program, method).unwrap_or_else(|| syntactic_fallback(m))
    }

    /// The statically forced direction of the conditional branch at
    /// `bci`, if the pass proved one.
    pub fn forced_dir(&self, bci: Bci) -> Option<BranchDir> {
        self.forced
            .binary_search_by_key(&bci, |&(b, _)| b)
            .ok()
            .map(|i| self.forced[i].1)
    }
}

/// Pops/pushes of `insn` in `method`-context, with call effects sized
/// from the callee's signature. `None` when a virtual site has no
/// targets (the abstract pass then bails).
fn sized_stack_effect(program: &Program, insn: &Instruction) -> Option<(u16, u16)> {
    match insn {
        Instruction::InvokeStatic(callee) => {
            let c = program.method(*callee);
            Some(insn.stack_effect(c.n_args, c.returns_value))
        }
        Instruction::InvokeVirtual { declared_in, slot } => {
            let targets = program.virtual_targets(*declared_in, *slot);
            let c = program.method(*targets.first()?);
            Some(insn.stack_effect(c.n_args, c.returns_value))
        }
        _ => Some(insn.stack_effect(0, false)),
    }
}

/// Normal-flow successors of `bci` (fall-through plus explicit branch
/// targets; exception edges are handled separately by the caller).
fn normal_successors(insn: &Instruction, bci: Bci) -> Vec<Bci> {
    let mut out = insn.branch_targets();
    if !insn.is_terminator() {
        out.push(bci.next());
    }
    out
}

fn transfer(insn: &Instruction, stack: &mut Vec<AbsVal>, effect: (u16, u16)) -> bool {
    let (pops, pushes) = effect;
    if stack.len() < pops as usize {
        return false;
    }
    // Value-precise cases first; everything else pops/pushes Top.
    match insn {
        Instruction::Iconst(v) => stack.push(AbsVal::Const(*v)),
        Instruction::AconstNull => stack.push(AbsVal::Null),
        Instruction::New(_) | Instruction::NewArray => {
            for _ in 0..pops {
                stack.pop();
            }
            stack.push(AbsVal::NonNull);
        }
        Instruction::Dup => {
            let top = *stack.last().expect("depth checked");
            stack.push(top);
        }
        Instruction::Swap => {
            let n = stack.len();
            stack.swap(n - 1, n - 2);
        }
        _ => {
            for _ in 0..pops {
                stack.pop();
            }
            for _ in 0..pushes {
                stack.push(AbsVal::Top);
            }
        }
    }
    true
}

/// The worklist fixpoint. Returns `None` when the pass cannot trust its
/// own result (operand underflow, depth-mismatched join, or an
/// unsizable call) — callers fall back to [`syntactic_fallback`].
fn abstract_pass(program: &Program, method: MethodId) -> Option<MethodSummary> {
    let m = program.method(method);
    let n = m.code.len();
    let mut states: Vec<Option<Vec<AbsVal>>> = vec![None; n];
    states[0] = Some(Vec::new());
    let mut worklist = vec![Bci(0)];
    let mut on_list = vec![false; n];
    on_list[0] = true;

    let join_into = |states: &mut Vec<Option<Vec<AbsVal>>>,
                     worklist: &mut Vec<Bci>,
                     on_list: &mut Vec<bool>,
                     to: Bci,
                     incoming: &[AbsVal]|
     -> Option<()> {
        if to.index() >= n {
            return None;
        }
        let slot = &mut states[to.index()];
        let changed = match slot {
            None => {
                *slot = Some(incoming.to_vec());
                true
            }
            Some(existing) => {
                if existing.len() != incoming.len() {
                    return None;
                }
                let mut any = false;
                for (e, &i) in existing.iter_mut().zip(incoming) {
                    let j = e.join(i);
                    if j != *e {
                        *e = j;
                        any = true;
                    }
                }
                any
            }
        };
        if changed && !on_list[to.index()] {
            on_list[to.index()] = true;
            worklist.push(to);
        }
        Some(())
    };

    while let Some(bci) = worklist.pop() {
        on_list[bci.index()] = false;
        let insn = &m.code[bci.index()];
        let mut stack = states[bci.index()].clone().expect("on worklist ⇒ seeded");
        let effect = sized_stack_effect(program, insn)?;
        if !transfer(insn, &mut stack, effect) {
            return None;
        }
        for succ in normal_successors(insn, bci) {
            join_into(&mut states, &mut worklist, &mut on_list, succ, &stack)?;
        }
        if insn.can_throw() {
            // Exception entry clears the operand stack to the thrown
            // reference alone; the catch-class filter is ignored — a
            // handler the filter would skip just stays conservatively
            // reachable.
            let thrown = [AbsVal::Top];
            for h in m.handlers.iter().filter(|h| h.covers(bci)) {
                join_into(&mut states, &mut worklist, &mut on_list, h.handler, &thrown)?;
            }
        }
    }

    let mut exit_ops = OpSet::EMPTY;
    let mut forced = Vec::new();
    for (i, state) in states.iter().enumerate() {
        let Some(stack) = state else { continue };
        let bci = Bci(i as u32);
        let insn = &m.code[i];
        if is_exit(m, bci, insn) {
            exit_ops.insert(insn.op_kind());
        }
        if let Some(dir) = forced_direction(insn, stack) {
            forced.push((bci, dir));
        }
    }
    Some(MethodSummary {
        exit_ops,
        forced,
        precise: true,
    })
}

/// `true` if `insn` at `bci` leaves the method: a return, or an `athrow`
/// no handler in the method covers.
fn is_exit(m: &jportal_bytecode::Method, bci: Bci, insn: &Instruction) -> bool {
    insn.is_return()
        || (matches!(insn, Instruction::Athrow) && !m.handlers.iter().any(|h| h.covers(bci)))
}

/// The forced polarity of a reachable conditional branch, given its
/// converged entry state. `None` when the operands are not definite.
fn forced_direction(insn: &Instruction, stack: &[AbsVal]) -> Option<BranchDir> {
    match insn {
        Instruction::If(k, _) => match stack.last()? {
            AbsVal::Const(v) => Some(BranchDir::from_taken(k.eval(*v, 0))),
            _ => None,
        },
        Instruction::IfICmp(k, _) => {
            if stack.len() < 2 {
                return None;
            }
            match (&stack[stack.len() - 2], &stack[stack.len() - 1]) {
                (AbsVal::Const(a), AbsVal::Const(b)) => Some(BranchDir::from_taken(k.eval(*a, *b))),
                _ => None,
            }
        }
        Instruction::IfNull(_) => match stack.last()? {
            AbsVal::Null => Some(BranchDir::Taken),
            AbsVal::NonNull => Some(BranchDir::NotTaken),
            _ => None,
        },
        _ => None,
    }
}

/// The trivial over-approximation used when the abstract pass bails:
/// every instruction counts as reachable and no branch is forced.
fn syntactic_fallback(m: &jportal_bytecode::Method) -> MethodSummary {
    let mut exit_ops = OpSet::EMPTY;
    for (i, insn) in m.code.iter().enumerate() {
        if is_exit(m, Bci(i as u32), insn) {
            exit_ops.insert(insn.op_kind());
        }
    }
    MethodSummary {
        exit_ops,
        forced: Vec::new(),
        precise: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jportal_bytecode::builder::ProgramBuilder;
    use jportal_bytecode::{CmpKind, Instruction as I};

    fn single(program: &Program) -> MethodSummary {
        MethodSummary::compute(program, program.entry())
    }

    #[test]
    fn opset_membership() {
        let mut a = OpSet::EMPTY;
        assert!(!a.contains(OpKind::Iadd));
        a.insert(OpKind::Iadd);
        a.insert(OpKind::Probe);
        assert!(a.contains(OpKind::Iadd));
        assert!(a.contains(OpKind::Probe), "highest discriminant fits");
        assert!(!a.contains(OpKind::Isub));
    }

    #[test]
    fn straight_line_summary() {
        let mut pb = ProgramBuilder::new();
        let c = pb.add_class("C", None, 0);
        let mut m = pb.method(c, "main", 0, false);
        m.emit(I::Iconst(1)); // 0: depth 0
        m.emit(I::Iconst(2)); // 1: depth 1
        m.emit(I::Iadd); // 2: depth 2
        m.emit(I::Pop); // 3: depth 1
        m.emit(I::Return); // 4: depth 0
        let main = m.finish();
        let p = pb.finish_with_entry(main).unwrap();
        let s = single(&p);
        assert!(s.precise);
        assert!(s.exit_ops.contains(OpKind::Return));
        assert!(!s.exit_ops.contains(OpKind::Pop));
        assert!(s.forced.is_empty());
    }

    #[test]
    fn forced_branch_from_constant() {
        let mut pb = ProgramBuilder::new();
        let c = pb.add_class("C", None, 0);
        let mut m = pb.method(c, "main", 0, false);
        let skip = m.label();
        m.emit(I::Iconst(0)); // 0
        m.branch_if(CmpKind::Eq, skip); // 1: always taken (0 == 0)
        m.emit(I::Nop); // 2: unreachable in the concrete world
        m.bind(skip);
        m.emit(I::Return); // 3
        let main = m.finish();
        let p = pb.finish_with_entry(main).unwrap();
        let s = single(&p);
        assert!(s.precise);
        assert_eq!(s.forced_dir(Bci(1)), Some(BranchDir::Taken));
        assert_eq!(s.forced_dir(Bci(0)), None);
    }

    #[test]
    fn data_dependent_branch_is_not_forced() {
        let mut pb = ProgramBuilder::new();
        let c = pb.add_class("C", None, 0);
        let mut m = pb.method(c, "cond", 1, false);
        let skip = m.label();
        m.emit(I::Iload(0)); // 0: unknown value
        m.branch_if(CmpKind::Eq, skip); // 1
        m.emit(I::Nop); // 2
        m.bind(skip);
        m.emit(I::Return); // 3
        let cond = m.finish();
        let mut e = pb.method(c, "main", 0, false);
        e.emit(I::Iconst(5));
        e.emit(I::InvokeStatic(cond));
        e.emit(I::Return);
        let main = e.finish();
        let p = pb.finish_with_entry(main).unwrap();
        let s = MethodSummary::compute(&p, cond);
        assert!(s.precise);
        assert!(s.forced.is_empty());
    }

    #[test]
    fn join_widens_conflicting_constants() {
        // Two paths push different constants into the same branch: the
        // joined operand is Top, so the branch must not be forced.
        let mut pb = ProgramBuilder::new();
        let c = pb.add_class("C", None, 0);
        let mut m = pb.method(c, "cond", 1, false);
        let other = m.label();
        let join = m.label();
        let out = m.label();
        m.emit(I::Iload(0)); // 0
        m.branch_if(CmpKind::Eq, other); // 1
        m.emit(I::Iconst(0)); // 2
        m.jump(join); // 3
        m.bind(other);
        m.emit(I::Iconst(1)); // 4
        m.bind(join);
        m.branch_if(CmpKind::Eq, out); // 5: operand joins to Top
        m.emit(I::Nop); // 6
        m.bind(out);
        m.emit(I::Return); // 7
        let cond = m.finish();
        let mut e = pb.method(c, "main", 0, false);
        e.emit(I::Iconst(5));
        e.emit(I::InvokeStatic(cond));
        e.emit(I::Return);
        let main = e.finish();
        let p = pb.finish_with_entry(main).unwrap();
        let s = MethodSummary::compute(&p, cond);
        assert!(s.precise);
        assert_eq!(s.forced_dir(Bci(5)), None);
    }

    #[test]
    fn handler_entry_is_reachable_with_unit_stack() {
        let mut pb = ProgramBuilder::new();
        let c = pb.add_class("C", None, 0);
        let t = pb.add_class("Boom", None, 0);
        let mut m = pb.method(c, "div", 2, false);
        let handler = m.label();
        let out = m.label();
        m.emit(I::Iload(0)); // 0
        m.emit(I::Iload(1)); // 1
        m.emit(I::Idiv); // 2: may throw
        m.emit(I::Pop); // 3
        m.emit(I::Return); // 4
        m.bind(handler);
        m.emit(I::Pop); // 5: pops the thrown ref
        m.emit(I::Iconst(0)); // 6
        m.branch_if(CmpKind::Eq, out); // 7: always taken
        m.emit(I::Nop); // 8
        m.bind(out);
        m.emit(I::Return); // 9
        m.add_handler(Bci(2), Bci(3), handler, Some(t));
        let div = m.finish();
        let mut e = pb.method(c, "main", 0, false);
        e.emit(I::Iconst(8));
        e.emit(I::Iconst(2));
        e.emit(I::InvokeStatic(div));
        e.emit(I::Return);
        let main = e.finish();
        let p = pb.finish_with_entry(main).unwrap();
        let s = MethodSummary::compute(&p, div);
        // The handler's `pop` would underflow an empty entry stack and
        // make the pass bail, so precision shows the unit stack.
        assert!(s.precise);
        // The handler body is reachable via the exception edge even
        // though no normal edge leads there: its guard is forced.
        assert_eq!(s.forced_dir(Bci(7)), Some(BranchDir::Taken));
    }

    #[test]
    fn uncaught_athrow_is_an_exit() {
        let mut pb = ProgramBuilder::new();
        let c = pb.add_class("C", None, 0);
        let mut m = pb.method(c, "boom", 0, false);
        m.emit(I::New(c)); // 0
        m.emit(I::Athrow); // 1
        let boom = m.finish();
        let p = pb.finish_with_entry(boom).unwrap();
        let s = single(&p);
        assert!(s.exit_ops.contains(OpKind::Athrow));
    }

    #[test]
    fn ifnull_polarity_from_allocation() {
        let mut pb = ProgramBuilder::new();
        let c = pb.add_class("C", None, 0);
        let mut m = pb.method(c, "main", 0, false);
        let taken = m.label();
        m.emit(I::New(c)); // 0: NonNull
        m.branch_if_null(taken); // 1: never taken
        m.emit(I::Nop); // 2
        m.bind(taken);
        m.emit(I::Return); // 3
        let main = m.finish();
        let p = pb.finish_with_entry(main).unwrap();
        let s = single(&p);
        assert_eq!(s.forced_dir(Bci(1)), Some(BranchDir::NotTaken));
    }
}
