//! JIT debug information (§3.2).
//!
//! The JIT records, at each step of compilation, the mapping from machine
//! PCs back to bytecode — `pc → method@bci`, with the full inline path
//! when the instruction comes from an inlined callee (§6 "Dealing with
//! Inlined Code"). HotSpot maintains this for deoptimization and exception
//! reporting; JPortal repurposes it for decoding.
//!
//! Debug-info *quality* is a first-class knob: `degrade(fraction, seed)`
//! drops records the way aggressive optimization blurs real mappings,
//! which is one of the paper's two residual inaccuracy sources
//! (Figure 7 discussion).

use jportal_bytecode::{Bci, MethodId};

/// One inline frame in a compiled method's inline tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InlineFrame {
    /// Parent frame id (`None` for the root = the compiled method itself).
    pub parent: Option<u32>,
    /// The (inlined) method.
    pub method: MethodId,
    /// Call-site bci in the parent at which this method was inlined.
    pub caller_bci: Bci,
}

/// One debug record: the bytecode location a machine PC was compiled from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DebugRecord {
    /// Machine PC this record anchors at.
    pub pc: u64,
    /// Inline frame the PC belongs to (index into the inline tree;
    /// 0 is the root method).
    pub inline_id: u32,
    /// Bytecode index within that frame's method.
    pub bci: Bci,
}

/// The per-blob debug table: sorted records plus the inline tree.
///
/// # Examples
///
/// ```
/// use jportal_bytecode::{Bci, MethodId};
/// use jportal_jvm::{DebugRecord, DebugTable};
///
/// let mut t = DebugTable::new(MethodId(3));
/// t.push(DebugRecord { pc: 0x100, inline_id: 0, bci: Bci(0) });
/// t.push(DebugRecord { pc: 0x108, inline_id: 0, bci: Bci(1) });
/// let rec = t.lookup(0x10A).unwrap();
/// assert_eq!(rec.bci, Bci(1));
/// assert_eq!(t.method_of(rec.inline_id), Some(MethodId(3)));
/// assert_eq!(t.method_of(7), None);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DebugTable {
    records: Vec<DebugRecord>,
    inline_tree: Vec<InlineFrame>,
}

impl DebugTable {
    /// Creates a table whose root frame is `root_method`.
    pub fn new(root_method: MethodId) -> DebugTable {
        DebugTable {
            records: Vec::new(),
            inline_tree: vec![InlineFrame {
                parent: None,
                method: root_method,
                caller_bci: Bci(0),
            }],
        }
    }

    /// Adds an inline frame; returns its id.
    pub fn add_inline_frame(&mut self, parent: u32, method: MethodId, caller_bci: Bci) -> u32 {
        self.inline_tree.push(InlineFrame {
            parent: Some(parent),
            method,
            caller_bci,
        });
        (self.inline_tree.len() - 1) as u32
    }

    /// Appends a record. Records must be pushed in ascending `pc` order.
    ///
    /// # Panics
    ///
    /// Panics if `pc` is not ≥ the last record's pc.
    pub fn push(&mut self, rec: DebugRecord) {
        if let Some(last) = self.records.last() {
            assert!(rec.pc >= last.pc, "debug records must be pc-sorted");
        }
        self.records.push(rec);
    }

    /// The record governing `pc`: the one with the greatest anchor ≤ `pc`.
    pub fn lookup(&self, pc: u64) -> Option<&DebugRecord> {
        match self.records.binary_search_by_key(&pc, |r| r.pc) {
            Ok(i) => Some(&self.records[i]),
            Err(0) => None,
            Err(i) => Some(&self.records[i - 1]),
        }
    }

    /// The record anchored exactly at `pc`, if any.
    pub fn at_exact(&self, pc: u64) -> Option<&DebugRecord> {
        self.records
            .binary_search_by_key(&pc, |r| r.pc)
            .ok()
            .map(|i| &self.records[i])
    }

    /// The method of an inline frame, or `None` when the table has no
    /// frame `inline_id` (a debug record read from an untrusted archive
    /// can name one).
    pub fn method_of(&self, inline_id: u32) -> Option<MethodId> {
        self.inline_tree
            .get(inline_id as usize)
            .map(|frame| frame.method)
    }

    /// The inline frame with the given id.
    pub fn frame(&self, inline_id: u32) -> &InlineFrame {
        &self.inline_tree[inline_id as usize]
    }

    /// The inline tree (index 0 is the root method).
    pub fn inline_tree(&self) -> &[InlineFrame] {
        &self.inline_tree
    }

    /// The full inline path of a frame, root first:
    /// `[(root, caller_bci₁), …, (leaf_method, _)]` — the chain of methods
    /// the paper recovers via "the inlined method's signature".
    pub fn inline_path(&self, inline_id: u32) -> Vec<(MethodId, Bci)> {
        let mut path = Vec::new();
        let mut cur = Some(inline_id);
        while let Some(id) = cur {
            let f = &self.inline_tree[id as usize];
            path.push((f.method, f.caller_bci));
            cur = f.parent;
        }
        path.reverse();
        path
    }

    /// All records.
    pub fn records(&self) -> &[DebugRecord] {
        &self.records
    }

    /// First pc mapped to `(inline_id, bci)`, if any (reverse lookup used
    /// for exception-handler entry addresses).
    pub fn pc_of(&self, inline_id: u32, bci: Bci) -> Option<u64> {
        self.records
            .iter()
            .find(|r| r.inline_id == inline_id && r.bci == bci)
            .map(|r| r.pc)
    }

    /// Degrades the table by dropping roughly `fraction` of the records
    /// (deterministically from `seed`), keeping the first record. Models
    /// the imprecision that loop transformations and aggressive inlining
    /// cause in real debug metadata.
    pub fn degrade(&mut self, fraction: f64, seed: u64) {
        if fraction <= 0.0 {
            return;
        }
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let threshold = (fraction.clamp(0.0, 1.0) * u64::MAX as f64) as u64;
        let mut first = true;
        self.records.retain(|_| {
            if first {
                first = false;
                return true;
            }
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state >= threshold
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> DebugTable {
        let mut t = DebugTable::new(MethodId(1));
        let callee = t.add_inline_frame(0, MethodId(2), Bci(5));
        t.push(DebugRecord {
            pc: 0x100,
            inline_id: 0,
            bci: Bci(0),
        });
        t.push(DebugRecord {
            pc: 0x110,
            inline_id: 0,
            bci: Bci(5),
        });
        t.push(DebugRecord {
            pc: 0x118,
            inline_id: callee,
            bci: Bci(0),
        });
        t.push(DebugRecord {
            pc: 0x120,
            inline_id: callee,
            bci: Bci(1),
        });
        t.push(DebugRecord {
            pc: 0x128,
            inline_id: 0,
            bci: Bci(6),
        });
        t
    }

    #[test]
    fn lookup_uses_preceding_anchor() {
        let t = table();
        assert!(t.lookup(0xFF).is_none());
        assert_eq!(t.lookup(0x100).unwrap().bci, Bci(0));
        assert_eq!(t.lookup(0x10C).unwrap().bci, Bci(0));
        assert_eq!(t.lookup(0x119).unwrap().inline_id, 1);
        assert_eq!(t.at_exact(0x118).unwrap().bci, Bci(0));
        assert!(t.at_exact(0x119).is_none());
    }

    #[test]
    fn inline_paths_root_first() {
        let t = table();
        assert_eq!(t.inline_path(0), vec![(MethodId(1), Bci(0))]);
        let p = t.inline_path(1);
        assert_eq!(p.len(), 2);
        assert_eq!(p[0].0, MethodId(1));
        assert_eq!(p[1], (MethodId(2), Bci(5)));
        assert_eq!(t.method_of(1), Some(MethodId(2)));
    }

    #[test]
    fn reverse_lookup_for_handlers() {
        let t = table();
        assert_eq!(t.pc_of(0, Bci(6)), Some(0x128));
        assert_eq!(t.pc_of(1, Bci(1)), Some(0x120));
        assert_eq!(t.pc_of(0, Bci(99)), None);
    }

    #[test]
    fn degrade_drops_records_deterministically() {
        let mut a = table();
        let mut b = table();
        a.degrade(0.5, 7);
        b.degrade(0.5, 7);
        assert_eq!(a.records(), b.records());
        assert!(a.records().len() < table().records().len());
        assert_eq!(a.records()[0].pc, 0x100, "first record survives");
        let mut c = table();
        c.degrade(0.0, 7);
        assert_eq!(c.records().len(), table().records().len());
    }

    #[test]
    #[should_panic(expected = "pc-sorted")]
    fn rejects_unsorted_pushes() {
        let mut t = DebugTable::new(MethodId(0));
        t.push(DebugRecord {
            pc: 0x10,
            inline_id: 0,
            bci: Bci(0),
        });
        t.push(DebugRecord {
            pc: 0x08,
            inline_id: 0,
            bci: Bci(1),
        });
    }
}
