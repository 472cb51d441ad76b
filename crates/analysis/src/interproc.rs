//! Interprocedural lifting of per-method summaries.
//!
//! [`SummaryTable`] combines the intra-method facts of
//! [`crate::summary`] with the ICFG's call edges (already RTA-refined
//! when the pipeline devirtualizes) into the whole-program queries the
//! trace-feasibility linter's interprocedural mode asks:
//!
//! * **summary-equality classes** — methods whose instruction streams
//!   are op-kind-identical are indistinguishable to the opcode-granular
//!   decoder, so every check that asks "could the trace be in `m`?"
//!   must accept any member of `m`'s class. Queries here are therefore
//!   phrased over classes, never raw ids: a relocated window can never
//!   make the linter flag a method the decoder might have confused
//!   with the right one;
//! * **class-level callee reach** — whether a frame of `m` can
//!   (transitively) have a frame of some member of a class below it.
//!
//! The table is deterministic (fixed iteration orders, first-seen class
//! numbering) and immutable after [`SummaryTable::build`]; the pipeline
//! builds it once and shares it across workers behind an `Arc`, like
//! the ANFA caches.

use crate::summary::MethodSummary;
use jportal_bytecode::{Bci, MethodId, OpKind, Program};
use jportal_cfg::{BranchDir, EdgeKind, Icfg};
use std::collections::HashMap;

/// A dense bit matrix: one fixed-width bitset row per method.
#[derive(Debug, Clone)]
struct BitRows {
    words_per_row: usize,
    bits: Vec<u64>,
}

impl BitRows {
    fn new(rows: usize, width: usize) -> BitRows {
        let words_per_row = width.div_ceil(64);
        BitRows {
            words_per_row,
            bits: vec![0; rows * words_per_row],
        }
    }

    fn set(&mut self, row: usize, bit: usize) {
        self.bits[row * self.words_per_row + bit / 64] |= 1u64 << (bit % 64);
    }

    fn get(&self, row: usize, bit: usize) -> bool {
        self.bits[row * self.words_per_row + bit / 64] & (1u64 << (bit % 64)) != 0
    }

    /// `row |= other_row`; returns `true` if `row` changed.
    fn union_row(&mut self, row: usize, other: usize) -> bool {
        if row == other {
            return false;
        }
        let w = self.words_per_row;
        let mut changed = false;
        for k in 0..w {
            let v = self.bits[other * w + k];
            let dst = &mut self.bits[row * w + k];
            let next = *dst | v;
            if next != *dst {
                *dst = next;
                changed = true;
            }
        }
        changed
    }
}

/// Whole-program summary table: per-method summaries plus the
/// interprocedural closure over the ICFG's call edges.
#[derive(Debug, Clone)]
pub struct SummaryTable {
    summaries: Vec<MethodSummary>,
    /// Summary-equality class per method (first-seen numbering).
    class_of: Vec<u32>,
    /// Per-method class closure: bit `c` set iff some method of class
    /// `c` is in `{m} ∪ reach(m)`.
    class_reach: BitRows,
    /// Members per summary-equality class.
    class_size: Vec<u32>,
}

impl SummaryTable {
    /// Builds the table: one abstract-interpretation pass per method,
    /// then the interprocedural fixpoints over `icfg`'s call edges.
    pub fn build(program: &Program, icfg: &Icfg) -> SummaryTable {
        let n = program.method_count();
        let summaries: Vec<MethodSummary> = (0..n)
            .map(|i| MethodSummary::compute(program, MethodId(i as u32)))
            .collect();

        // Direct callees from the (possibly RTA-refined) ICFG.
        let mut callees: Vec<Vec<MethodId>> = vec![Vec::new(); n];
        for node in icfg.nodes() {
            for e in icfg.edges(node) {
                if e.kind == EdgeKind::Call {
                    callees[icfg.method_of(node).index()].push(icfg.method_of(e.to));
                }
            }
        }
        for c in &mut callees {
            c.sort_unstable();
            c.dedup();
        }

        // Transitive (non-reflexive) reach: reach(m) ⊇ {c} ∪ reach(c)
        // for every direct callee c. Plain round-robin fixpoint; the
        // call graphs here are small and shallow.
        let mut reach = BitRows::new(n, n);
        for (m, cs) in callees.iter().enumerate() {
            for c in cs {
                reach.set(m, c.index());
            }
        }
        loop {
            let mut changed = false;
            for (m, cs) in callees.iter().enumerate() {
                for c in cs {
                    if reach.union_row(m, c.index()) {
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }

        // Summary-equality classes: methods with identical op-kind
        // streams are indistinguishable to the opcode-granular decoder.
        let mut class_of = vec![0u32; n];
        let mut interned: HashMap<Vec<OpKind>, u32> = HashMap::new();
        for (i, slot) in class_of.iter_mut().enumerate() {
            let key: Vec<OpKind> = program
                .method(MethodId(i as u32))
                .code
                .iter()
                .map(|insn| insn.op_kind())
                .collect();
            let next = interned.len() as u32;
            *slot = *interned.entry(key).or_insert(next);
        }
        let n_classes = interned.len();
        let mut class_size = vec![0u32; n_classes];
        for &c in &class_of {
            class_size[c as usize] += 1;
        }

        let mut class_reach = BitRows::new(n, n_classes);
        for m in 0..n {
            class_reach.set(m, class_of[m] as usize);
            for (r, &c) in class_of.iter().enumerate() {
                if reach.get(m, r) {
                    class_reach.set(m, c as usize);
                }
            }
        }

        SummaryTable {
            summaries,
            class_of,
            class_reach,
            class_size,
        }
    }

    /// The per-method summary of `m`.
    pub fn summary(&self, m: MethodId) -> &MethodSummary {
        &self.summaries[m.index()]
    }

    /// `true` if `a` and `b` are the same method or op-kind-identical
    /// (the opcode-granular decoder cannot tell them apart).
    pub fn compatible(&self, a: MethodId, b: MethodId) -> bool {
        a == b || self.class_of[a.index()] == self.class_of[b.index()]
    }

    /// Class-level reach: `true` if `from` or a method a frame of `from`
    /// can transitively call is op-kind-identical to `to`. It stays
    /// `true` for every method the decoder might have confused with a
    /// genuinely reachable one.
    pub fn class_reaches(&self, from: MethodId, to: MethodId) -> bool {
        self.class_reach
            .get(from.index(), self.class_of[to.index()] as usize)
    }

    /// `true` if no *other* method shares `m`'s op-kind stream — the
    /// opcode-granular decoder cannot have relocated a window of `m`
    /// into a twin, so method-level facts (e.g. forced branch
    /// polarities, which depend on operand values twins may differ in)
    /// are safe to assert against located steps.
    pub fn class_is_singleton(&self, m: MethodId) -> bool {
        self.class_size[self.class_of[m.index()] as usize] == 1
    }

    /// The statically forced direction of the conditional branch at
    /// `(m, bci)`, if the intra-method pass proved one.
    pub fn forced_dir(&self, m: MethodId, bci: Bci) -> Option<BranchDir> {
        self.summaries[m.index()].forced_dir(bci)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jportal_bytecode::builder::ProgramBuilder;
    use jportal_bytecode::Instruction as I;

    /// leaf ← mid ← main, plus a `twin` that is op-kind-identical to
    /// `leaf` but never called.
    fn diamond() -> (Program, Icfg, [MethodId; 4]) {
        let mut pb = ProgramBuilder::new();
        let c = pb.add_class("C", None, 0);
        let mut f = pb.method(c, "leaf", 0, true);
        f.emit(I::Iconst(7));
        f.emit(I::Ireturn);
        let leaf = f.finish();
        let mut t = pb.method(c, "twin", 0, true);
        t.emit(I::Iconst(9)); // different operand, same op kinds
        t.emit(I::Ireturn);
        let twin = t.finish();
        let mut g = pb.method(c, "mid", 0, true);
        g.emit(I::InvokeStatic(leaf));
        g.emit(I::Ireturn);
        let mid = g.finish();
        let mut m = pb.method(c, "main", 0, false);
        m.emit(I::InvokeStatic(mid));
        m.emit(I::Pop);
        m.emit(I::Return);
        let main = m.finish();
        let p = pb.finish_with_entry(main).unwrap();
        let icfg = Icfg::build(&p);
        (p, icfg, [leaf, twin, mid, main])
    }

    #[test]
    fn class_reach_is_transitive_and_directed() {
        let (p, icfg, [leaf, _twin, mid, main]) = diamond();
        let t = SummaryTable::build(&p, &icfg);
        assert!(t.class_reaches(main, mid));
        assert!(t.class_reaches(main, leaf), "transitive");
        assert!(t.class_reaches(mid, leaf));
        assert!(!t.class_reaches(leaf, main));
        assert!(!t.class_reaches(mid, main));
    }

    #[test]
    fn class_reach_accepts_op_identical_twins() {
        let (p, icfg, [leaf, twin, _mid, main]) = diamond();
        let t = SummaryTable::build(&p, &icfg);
        assert!(t.compatible(leaf, twin), "same op-kind stream");
        assert!(!t.compatible(leaf, main));
        // `twin` is unreachable from main, but the decoder cannot tell
        // it from `leaf`, so the class query must keep it feasible.
        assert!(t.class_reaches(main, twin));
        assert!(t.class_reaches(main, leaf));
        assert!(t.class_reaches(main, main), "reflexive at class level");
        assert!(!t.class_reaches(leaf, main));
    }

    #[test]
    fn class_reach_terminates_on_recursion() {
        let mut pb = ProgramBuilder::new();
        let c = pb.add_class("C", None, 0);
        let mut r = pb.method(c, "rec", 1, false);
        let out = r.label();
        r.emit(I::Iload(0)); // 0
        r.branch_if(jportal_bytecode::CmpKind::Le, out); // 1
        r.emit(I::Iload(0)); // 2
        r.emit(I::InvokeStatic(r.id())); // 3
        r.bind(out);
        r.emit(I::Return); // 4
        let rec = r.finish();
        let mut m = pb.method(c, "main", 0, false);
        m.emit(I::Iconst(3));
        m.emit(I::InvokeStatic(rec));
        m.emit(I::Return);
        let main = m.finish();
        let p = pb.finish_with_entry(main).unwrap();
        let icfg = Icfg::build(&p);
        let t = SummaryTable::build(&p, &icfg);
        assert!(t.class_reaches(rec, rec));
        assert!(t.class_reaches(main, rec));
        assert!(!t.class_reaches(rec, main));
    }

    #[test]
    fn table_is_deterministic() {
        let (p, icfg, _) = diamond();
        let a = SummaryTable::build(&p, &icfg);
        let b = SummaryTable::build(&p, &icfg);
        assert_eq!(a.class_of, b.class_of);
        assert_eq!(a.class_reach.bits, b.class_reach.bits);
        assert_eq!(a.summaries, b.summaries);
    }
}
