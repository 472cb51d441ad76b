//! Packed symbol streams and the SWAR common-suffix kernel.
//!
//! Recovery's hot scoring loop is a backward scan comparing two symbol
//! streams one [`Sym`] at a time (`tier_suffix`, at each of the three
//! tiers). This module packs the streams so eight symbols are compared
//! per step:
//!
//! * **op bytes** — one byte per symbol ([`jportal_bytecode::OpKind`] is
//!   `#[repr(u8)]`), eight per `u64`, little-endian within the word:
//!   position `i` lives in word `i / 8`, byte lane `i % 8`.
//! * **dir lanes** — two bits per symbol, thirty-two per `u64`:
//!   `Unknown = 0`, `Taken = 1`, `NotTaken = 2`. Two directions
//!   *contradict* exactly when both bits of their XOR are set
//!   (`1 ^ 2 == 3`); `Unknown` never contradicts anything, matching
//!   [`jportal_cfg::BranchDir::matches`].
//!
//! The kernel loads the eight symbols ending at each cursor from both
//! streams, XORs the op words, reduces nonzero bytes and dir
//! contradictions to one high bit per byte lane, and counts matching
//! symbols with a single leading-zero count — the first mismatch falls
//! out of `leading_zeros(bad) / 8`. The scalar reference implementation
//! is kept alongside and pinned byte-identical by the
//! `swar_equivalence` proptest suite; both are exported so benches can
//! measure the speedup in the same run.

use jportal_cfg::{BranchDir, Sym};

/// Two-bit encoding of a [`BranchDir`] for the packed dir lanes.
#[inline]
fn dir_code(dir: BranchDir) -> u8 {
    match dir {
        BranchDir::Unknown => 0,
        BranchDir::Taken => 1,
        BranchDir::NotTaken => 2,
    }
}

/// Inverse of [`dir_code`].
#[inline]
pub fn dir_from_code(code: u8) -> BranchDir {
    match code & 3 {
        1 => BranchDir::Taken,
        2 => BranchDir::NotTaken,
        _ => BranchDir::Unknown,
    }
}

/// A symbol stream packed for SWAR comparison: op bytes eight per word,
/// dir codes thirty-two per word.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PackedSyms {
    /// Op bytes, position `i` at byte lane `i % 8` of word `i / 8`.
    pub ops: Vec<u64>,
    /// Dir codes, position `i` at bits `2 * (i % 32)` of word `i / 32`.
    pub dirs: Vec<u64>,
    /// Number of symbols.
    pub len: usize,
}

impl PackedSyms {
    /// Packs a symbol slice.
    pub fn from_syms(syms: &[Sym]) -> PackedSyms {
        let mut p = PackedSyms {
            ops: vec![0u64; syms.len().div_ceil(8)],
            dirs: vec![0u64; syms.len().div_ceil(32)],
            len: syms.len(),
        };
        for (i, s) in syms.iter().enumerate() {
            p.ops[i / 8] |= (s.op as u64) << ((i % 8) * 8);
            p.dirs[i / 32] |= (dir_code(s.dir) as u64) << ((i % 32) * 2);
        }
        p
    }

    /// Appends one symbol.
    pub fn push(&mut self, s: Sym) {
        let i = self.len;
        if i.is_multiple_of(8) {
            self.ops.push(0);
        }
        if i.is_multiple_of(32) {
            self.dirs.push(0);
        }
        self.ops[i / 8] |= (s.op as u64) << ((i % 8) * 8);
        self.dirs[i / 32] |= (dir_code(s.dir) as u64) << ((i % 32) * 2);
        self.len += 1;
    }

    /// The symbol at position `i`.
    #[inline]
    pub fn get(&self, i: usize) -> (u8, u8) {
        (op_at(&self.ops, i), dir_at(&self.dirs, i))
    }
}

/// Op byte at position `i` of a packed op stream.
#[inline]
fn op_at(ops: &[u64], i: usize) -> u8 {
    ((ops[i / 8] >> ((i % 8) * 8)) & 0xff) as u8
}

/// Dir code at position `i` of a packed dir stream.
#[inline]
fn dir_at(dirs: &[u64], i: usize) -> u8 {
    ((dirs[i / 32] >> ((i % 32) * 2)) & 3) as u8
}

/// `true` when the packed symbols are compatible for matching: same op
/// byte and non-contradicting directions (the packed form of
/// `Sym::op == Sym::op && BranchDir::matches`).
#[inline]
fn compat(a: (u8, u8), b: (u8, u8)) -> bool {
    a.0 == b.0 && (a.1 ^ b.1) != 3
}

/// Loads the eight op bytes at positions `p - 8 .. p` as one `u64`
/// (byte lane `j` = position `p - 8 + j`). Requires `p >= 8`; positions
/// up to `p - 1` must exist, which the suffix loop guarantees. Recovery
/// also keys candidates by this word (the last eight call-structure ops
/// before a position).
#[inline]
pub fn load8_ops(ops: &[u64], p: usize) -> u64 {
    let lo = p - 8;
    let wi = lo / 8;
    let shift = (lo % 8) * 8;
    if shift == 0 {
        ops[wi]
    } else {
        // The window straddles two words; `wi + 1 == (p - 1) / 8` is in
        // range because position `p - 1` exists.
        (ops[wi] >> shift) | (ops[wi + 1] << (64 - shift))
    }
}

/// Loads the eight dir codes at positions `p - 8 .. p` as sixteen bits
/// (lane `j` at bits `2j`). Requires `p >= 8`.
#[inline]
fn load8_dirs(dirs: &[u64], p: usize) -> u64 {
    let lo = p - 8;
    let wi = lo / 32;
    let shift = (lo % 32) * 2;
    let hi = if shift > 48 {
        // Window spills into the next word; in range iff positions past
        // the current word exist — a one-word overfetch would read past
        // a 32-aligned stream end, so fall back to a checked read.
        dirs.get(wi + 1).copied().unwrap_or(0)
    } else {
        0
    };
    let base = if shift == 0 {
        dirs[wi]
    } else {
        (dirs[wi] >> shift) | (hi << (64 - shift))
    };
    base & 0xffff
}

/// High bit of every nonzero byte lane (classic SWAR nonzero-byte
/// reduction).
#[inline]
fn nonzero_bytes(x: u64) -> u64 {
    const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
    (((x & LOW7) + LOW7) | x) & !LOW7
}

/// Spreads the per-lane dir-contradiction flags (bit `2j`) onto the op
/// mask's byte-lane high bits (bit `8j + 7`).
#[inline]
fn spread_dir_flags(contr: u64) -> u64 {
    let mut m = 0u64;
    // Eight fixed iterations; fully unrolled and branch-free in release.
    for j in 0..8 {
        m |= ((contr >> (2 * j)) & 1) << (8 * j + 7);
    }
    m
}

/// Backward common-suffix length between `a[.. a_end]` and
/// `b[.. b_end]`, capped at `cap` comparisons: the largest `n` such
/// that positions `a_end - 1 - k` and `b_end - 1 - k` are compatible
/// for all `k < n`. SWAR main loop, scalar tail.
pub fn suffix_swar(
    a_ops: &[u64],
    a_dirs: &[u64],
    a_end: usize,
    b_ops: &[u64],
    b_dirs: &[u64],
    b_end: usize,
    cap: usize,
) -> usize {
    let lim = cap.min(a_end).min(b_end);
    let mut n = 0usize;
    while n + 8 <= lim {
        let pa = a_end - n;
        let pb = b_end - n;
        let ox = load8_ops(a_ops, pa) ^ load8_ops(b_ops, pb);
        let dx = load8_dirs(a_dirs, pa) ^ load8_dirs(b_dirs, pb);
        // Lane j contradicts iff both bits of its XOR are set.
        let contr = dx & (dx >> 1) & 0x5555;
        let bad = nonzero_bytes(ox) | spread_dir_flags(contr);
        if bad == 0 {
            n += 8;
            continue;
        }
        // Byte lane 7 is position `p - 1`: matching symbols walking
        // backward are the clean high lanes of `bad`.
        return n + (bad.leading_zeros() / 8) as usize;
    }
    while n < lim {
        let sa = (op_at(a_ops, a_end - 1 - n), dir_at(a_dirs, a_end - 1 - n));
        let sb = (op_at(b_ops, b_end - 1 - n), dir_at(b_dirs, b_end - 1 - n));
        if !compat(sa, sb) {
            break;
        }
        n += 1;
    }
    n
}

/// Scalar reference for [`suffix_swar`]: the seed implementation's
/// backward one-symbol-at-a-time scan, kept verbatim as the equivalence
/// oracle and the bench baseline.
pub fn suffix_scalar(
    a_ops: &[u64],
    a_dirs: &[u64],
    a_end: usize,
    b_ops: &[u64],
    b_dirs: &[u64],
    b_end: usize,
    cap: usize,
) -> usize {
    let mut n = 0usize;
    while n < cap && n < a_end && n < b_end {
        let sa = (op_at(a_ops, a_end - 1 - n), dir_at(a_dirs, a_end - 1 - n));
        let sb = (op_at(b_ops, b_end - 1 - n), dir_at(b_dirs, b_end - 1 - n));
        if !compat(sa, sb) {
            break;
        }
        n += 1;
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use jportal_bytecode::OpKind;

    fn syms(spec: &[(OpKind, u8)]) -> Vec<Sym> {
        spec.iter()
            .map(|&(op, d)| Sym {
                op,
                dir: dir_from_code(d),
            })
            .collect()
    }

    #[test]
    fn pack_round_trips() {
        let s = syms(&[
            (OpKind::Iadd, 0),
            (OpKind::Ifeq, 1),
            (OpKind::Ifne, 2),
            (OpKind::InvokeStatic, 0),
        ]);
        let p = PackedSyms::from_syms(&s);
        assert_eq!(p.len, 4);
        for (i, sym) in s.iter().enumerate() {
            let (op, d) = p.get(i);
            assert_eq!(op, sym.op as u8);
            assert_eq!(dir_from_code(d), sym.dir);
        }
    }

    #[test]
    fn push_packs_like_from_syms() {
        let s: Vec<Sym> = (0..70)
            .map(|i| Sym {
                op: OpKind::ALL[i * 5 % OpKind::ALL.len()],
                dir: dir_from_code((i % 3) as u8),
            })
            .collect();
        let mut pushed = PackedSyms::default();
        for &sym in &s {
            pushed.push(sym);
        }
        assert_eq!(pushed, PackedSyms::from_syms(&s));
    }

    #[test]
    fn suffix_agrees_on_short_streams() {
        let a = PackedSyms::from_syms(&syms(&[
            (OpKind::Istore, 0),
            (OpKind::Ifeq, 0),
            (OpKind::Iadd, 0),
            (OpKind::Istore, 0),
        ]));
        let b = PackedSyms::from_syms(&syms(&[
            (OpKind::Iload, 0),
            (OpKind::Ifeq, 0),
            (OpKind::Iadd, 0),
            (OpKind::Istore, 0),
        ]));
        let got = suffix_swar(&a.ops, &a.dirs, 4, &b.ops, &b.dirs, 4, usize::MAX);
        assert_eq!(got, 3);
        assert_eq!(
            got,
            suffix_scalar(&a.ops, &a.dirs, 4, &b.ops, &b.dirs, 4, usize::MAX)
        );
    }

    #[test]
    fn dir_contradiction_breaks_the_suffix_unknown_does_not() {
        let a = PackedSyms::from_syms(&syms(&[(OpKind::Ifeq, 1), (OpKind::Iadd, 0)]));
        let contradicting = PackedSyms::from_syms(&syms(&[(OpKind::Ifeq, 2), (OpKind::Iadd, 0)]));
        let unknown = PackedSyms::from_syms(&syms(&[(OpKind::Ifeq, 0), (OpKind::Iadd, 0)]));
        assert_eq!(
            suffix_swar(
                &a.ops,
                &a.dirs,
                2,
                &contradicting.ops,
                &contradicting.dirs,
                2,
                usize::MAX
            ),
            1
        );
        assert_eq!(
            suffix_swar(
                &a.ops,
                &a.dirs,
                2,
                &unknown.ops,
                &unknown.dirs,
                2,
                usize::MAX
            ),
            2
        );
    }

    #[test]
    fn long_identical_suffix_crosses_word_boundaries() {
        let s: Vec<Sym> = (0..100)
            .map(|i| {
                Sym::plain(if i % 3 == 0 {
                    OpKind::Iadd
                } else {
                    OpKind::Pop
                })
            })
            .collect();
        let p = PackedSyms::from_syms(&s);
        for end in [8, 9, 17, 63, 64, 65, 100] {
            for cap in [0, 1, 7, 8, 9, 40, usize::MAX] {
                assert_eq!(
                    suffix_swar(&p.ops, &p.dirs, end, &p.ops, &p.dirs, end, cap),
                    cap.min(end),
                    "end={end} cap={cap}"
                );
            }
        }
    }

    #[test]
    fn misaligned_ends_agree_with_scalar() {
        let a: Vec<Sym> = (0..70)
            .map(|i| Sym::plain(OpKind::ALL[i * 7 % OpKind::ALL.len()]))
            .collect();
        let b: Vec<Sym> = (0..70)
            .map(|i| Sym::plain(OpKind::ALL[(i * 7 + i / 13) % OpKind::ALL.len()]))
            .collect();
        let pa = PackedSyms::from_syms(&a);
        let pb = PackedSyms::from_syms(&b);
        for ae in 1..=70 {
            for be in [1, 5, 13, 31, 64, 70] {
                let swar = suffix_swar(&pa.ops, &pa.dirs, ae, &pb.ops, &pb.dirs, be, usize::MAX);
                let scalar =
                    suffix_scalar(&pa.ops, &pa.dirs, ae, &pb.ops, &pb.dirs, be, usize::MAX);
                assert_eq!(swar, scalar, "ae={ae} be={be}");
            }
        }
    }
}
