//! Pins the SWAR suffix kernel byte-identical to the scalar oracle.
//!
//! `suffix_scalar` is the seed `tier_suffix` Concrete-tier scan kept
//! verbatim; recovery scores every candidate, at every tier, with
//! `suffix_swar`, so any divergence would silently change which CS wins
//! a hole. The properties sweep stream contents (ops, branch dirs
//! including `Unknown`), both end cursors across word boundaries, and
//! the cap, because the kernel's edge cases live exactly there:
//! misaligned eight-lane loads, dir lanes straddling words, scalar
//! tails shorter than one lane.

use proptest::prelude::*;

use jportal_bytecode::OpKind;
use jportal_cfg::Sym;
use jportal_core::pack::{dir_from_code, suffix_scalar, suffix_swar, PackedSyms};

/// Symbol streams with a deliberately tiny op alphabet (long accidental
/// suffixes) and all three dir codes.
fn arb_stream() -> impl Strategy<Value = Vec<Sym>> {
    let ops = prop::sample::select(vec![
        OpKind::Iadd,
        OpKind::Ifeq,
        OpKind::Goto,
        OpKind::InvokeVirtual,
    ]);
    prop::collection::vec(
        (ops, 0u8..3).prop_map(|(op, d)| Sym {
            op,
            dir: dir_from_code(d),
        }),
        1..140,
    )
}

/// Streams sharing a long common tail — forces the SWAR main loop to
/// run many full-lane iterations before the first mismatch.
fn arb_shared_tail() -> impl Strategy<Value = (Vec<Sym>, Vec<Sym>)> {
    (arb_stream(), arb_stream(), arb_stream()).prop_map(|(a, b, tail)| {
        let mut x = a;
        let mut y = b;
        x.extend(tail.iter().copied());
        y.extend(tail);
        (x, y)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary streams, arbitrary cursors, arbitrary cap: SWAR equals
    /// scalar exactly.
    #[test]
    fn swar_equals_scalar(
        a in arb_stream(),
        b in arb_stream(),
        ae_frac in 0usize..1000,
        be_frac in 0usize..1000,
        cap in prop::sample::select(vec![0usize, 1, 3, 7, 8, 9, 16, 64, usize::MAX]),
    ) {
        let ae = 1 + ae_frac * (a.len() - 1) / 999;
        let be = 1 + be_frac * (b.len() - 1) / 999;
        let pa = PackedSyms::from_syms(&a);
        let pb = PackedSyms::from_syms(&b);
        let swar = suffix_swar(&pa.ops, &pa.dirs, ae, &pb.ops, &pb.dirs, be, cap);
        let scalar = suffix_scalar(&pa.ops, &pa.dirs, ae, &pb.ops, &pb.dirs, be, cap);
        prop_assert_eq!(swar, scalar, "ae={} be={} cap={}", ae, be, cap);
    }

    /// Long shared tails (the case the kernel is for): still exact, and
    /// at least as long as the planted tail when uncapped.
    #[test]
    fn swar_equals_scalar_on_shared_tails(ab in arb_shared_tail()) {
        let (a, b) = ab;
        let pa = PackedSyms::from_syms(&a);
        let pb = PackedSyms::from_syms(&b);
        let swar = suffix_swar(&pa.ops, &pa.dirs, a.len(), &pb.ops, &pb.dirs, b.len(), usize::MAX);
        let scalar =
            suffix_scalar(&pa.ops, &pa.dirs, a.len(), &pb.ops, &pb.dirs, b.len(), usize::MAX);
        prop_assert_eq!(swar, scalar);
    }

    /// The packed form round-trips every symbol, so scoring the packed
    /// arenas is scoring the original streams.
    #[test]
    fn pack_round_trips(a in arb_stream()) {
        let p = PackedSyms::from_syms(&a);
        for (i, s) in a.iter().enumerate() {
            let (op, d) = p.get(i);
            prop_assert_eq!(op, s.op as u8);
            prop_assert_eq!(dir_from_code(d), s.dir);
        }
    }
}
