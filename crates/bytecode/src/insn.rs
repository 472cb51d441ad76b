//! The bytecode instruction set.

use std::fmt;

use crate::program::{Bci, ClassId, MethodId};

/// Comparison kinds shared by the `if<cond>` and `if_icmp<cond>` families.
///
/// `If(CmpKind::Eq, t)` corresponds to JVM `ifeq t` (branch when the popped
/// value compares equal to zero); `IfICmp(CmpKind::Lt, t)` corresponds to
/// `if_icmplt t` (branch when `a < b` for popped operands `a`, `b`).
///
/// # Examples
///
/// ```
/// use jportal_bytecode::CmpKind;
/// assert!(CmpKind::Lt.eval(1, 2));
/// assert!(!CmpKind::Ge.eval(1, 2));
/// assert_eq!(CmpKind::Eq.negate(), CmpKind::Ne);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CmpKind {
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `>=`
    Ge,
    /// `>`
    Gt,
    /// `<=`
    Le,
}

impl CmpKind {
    /// Evaluates the comparison on two integers.
    pub fn eval(self, a: i64, b: i64) -> bool {
        match self {
            CmpKind::Eq => a == b,
            CmpKind::Ne => a != b,
            CmpKind::Lt => a < b,
            CmpKind::Ge => a >= b,
            CmpKind::Gt => a > b,
            CmpKind::Le => a <= b,
        }
    }

    /// Returns the logically negated comparison.
    pub fn negate(self) -> CmpKind {
        match self {
            CmpKind::Eq => CmpKind::Ne,
            CmpKind::Ne => CmpKind::Eq,
            CmpKind::Lt => CmpKind::Ge,
            CmpKind::Ge => CmpKind::Lt,
            CmpKind::Gt => CmpKind::Le,
            CmpKind::Le => CmpKind::Gt,
        }
    }

    /// Lower-case mnemonic suffix (`eq`, `ne`, ...), as printed by `javap`.
    pub fn mnemonic(self) -> &'static str {
        match self {
            CmpKind::Eq => "eq",
            CmpKind::Ne => "ne",
            CmpKind::Lt => "lt",
            CmpKind::Ge => "ge",
            CmpKind::Gt => "gt",
            CmpKind::Le => "le",
        }
    }
}

impl fmt::Display for CmpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// A single bytecode instruction.
///
/// Branch targets are [`Bci`] values — indices into the owning method's code
/// array (the reproduction addresses instructions by index rather than by
/// byte offset; the mapping is bijective and the disassembler prints the
/// index as the "offset").
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Instruction {
    /// No operation.
    Nop,
    /// Push an integer constant (covers `iconst_*`, `bipush`, `sipush`, `ldc`).
    Iconst(i64),
    /// Push the `null` reference (`aconst_null`).
    AconstNull,
    /// Load integer from local slot.
    Iload(u16),
    /// Store integer to local slot.
    Istore(u16),
    /// Load reference from local slot.
    Aload(u16),
    /// Store reference to local slot.
    Astore(u16),
    /// Increment local slot by a constant (`iinc`).
    Iinc(u16, i32),
    /// Integer addition.
    Iadd,
    /// Integer subtraction.
    Isub,
    /// Integer multiplication.
    Imul,
    /// Integer division.
    ///
    /// Throws `ArithmeticException` (class 0 of the program's throwable set)
    /// on division by zero, like the JVM.
    Idiv,
    /// Integer remainder; throws on zero divisor.
    Irem,
    /// Integer negation.
    Ineg,
    /// Bitwise and.
    Iand,
    /// Bitwise or.
    Ior,
    /// Bitwise xor.
    Ixor,
    /// Shift left (mod 64).
    Ishl,
    /// Arithmetic shift right (mod 64).
    Ishr,
    /// Duplicate top of stack.
    Dup,
    /// Pop top of stack.
    Pop,
    /// Swap the two top stack slots.
    Swap,
    /// Unconditional branch.
    Goto(Bci),
    /// Conditional branch comparing the popped integer with zero
    /// (`ifeq` .. `ifle`).
    If(CmpKind, Bci),
    /// Conditional branch comparing two popped integers
    /// (`if_icmpeq` .. `if_icmple`).
    IfICmp(CmpKind, Bci),
    /// Branch if the popped reference is `null` (`ifnull`).
    IfNull(Bci),
    /// Dense switch over `[low, low + targets.len())` (`tableswitch`).
    TableSwitch {
        /// Lowest matched key.
        low: i64,
        /// Target per consecutive key.
        targets: Vec<Bci>,
        /// Target when no key matches.
        default: Bci,
    },
    /// Sparse switch (`lookupswitch`); pairs must be sorted by key.
    LookupSwitch {
        /// `(key, target)` pairs sorted by key.
        pairs: Vec<(i64, Bci)>,
        /// Target when no key matches.
        default: Bci,
    },
    /// Direct call to a static method.
    InvokeStatic(MethodId),
    /// Virtual call dispatched through the receiver's vtable slot.
    ///
    /// The receiver is the deepest popped operand (pushed before the
    /// arguments); `declared_in` names the statically known receiver class,
    /// used by the ICFG builder to enumerate potential targets.
    InvokeVirtual {
        /// Class whose vtable layout declares the slot.
        declared_in: ClassId,
        /// Vtable slot index.
        slot: u16,
    },
    /// Return an integer from the current method.
    Ireturn,
    /// Return a reference from the current method.
    Areturn,
    /// Return void.
    Return,
    /// Allocate an object of the class.
    New(ClassId),
    /// Push field `index` of the popped object reference.
    GetField(u16),
    /// Store the popped value into field `index` of the popped reference.
    PutField(u16),
    /// Allocate an integer array of the popped length (`newarray`).
    NewArray,
    /// Push `array[index]` for popped `array`, `index` (`iaload`);
    /// throws on out-of-bounds.
    ArrayLoad,
    /// Store popped value into `array[index]` (`iastore`); throws on
    /// out-of-bounds.
    ArrayStore,
    /// Push the length of the popped array reference.
    ArrayLength,
    /// Throw the popped reference as an exception (`athrow`).
    Athrow,
    /// Instrumentation probe inserted by a profiling pass (statement
    /// counters, Ball–Larus path registers, control-flow event emission).
    ///
    /// Stack-neutral and never throws; the simulated JVM executes it by
    /// updating the run's [`probe runtime`](ProbeKind) and charging the
    /// probe's cost to the simulated clock — which is how the baselines'
    /// overheads (paper Table 2) arise.
    Probe(ProbeKind),
}

/// What an instrumentation probe does when executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProbeKind {
    /// Increment global counter `id` (statement/block coverage).
    Count(u32),
    /// Set the frame's Ball–Larus path register to the value.
    PathSet(u32),
    /// Add to the frame's Ball–Larus path register.
    PathAdd(u32),
    /// Record the frame's path register under region `id` and reset it.
    PathCommit(u32),
    /// Append a control-flow event of the given encoded size in bytes
    /// (full control-flow tracing à la Ball–Larus 1994).
    Event(u32),
    /// Record a method-entry timestamp sample (hot-method profiling).
    MethodTimer(u32),
}

impl Instruction {
    /// The operation kind (fieldless discriminant) of this instruction.
    ///
    /// The template interpreter keys its machine-code templates on this.
    pub fn op_kind(&self) -> OpKind {
        match self {
            Instruction::Nop => OpKind::Nop,
            Instruction::Iconst(_) => OpKind::Iconst,
            Instruction::AconstNull => OpKind::AconstNull,
            Instruction::Iload(_) => OpKind::Iload,
            Instruction::Istore(_) => OpKind::Istore,
            Instruction::Aload(_) => OpKind::Aload,
            Instruction::Astore(_) => OpKind::Astore,
            Instruction::Iinc(..) => OpKind::Iinc,
            Instruction::Iadd => OpKind::Iadd,
            Instruction::Isub => OpKind::Isub,
            Instruction::Imul => OpKind::Imul,
            Instruction::Idiv => OpKind::Idiv,
            Instruction::Irem => OpKind::Irem,
            Instruction::Ineg => OpKind::Ineg,
            Instruction::Iand => OpKind::Iand,
            Instruction::Ior => OpKind::Ior,
            Instruction::Ixor => OpKind::Ixor,
            Instruction::Ishl => OpKind::Ishl,
            Instruction::Ishr => OpKind::Ishr,
            Instruction::Dup => OpKind::Dup,
            Instruction::Pop => OpKind::Pop,
            Instruction::Swap => OpKind::Swap,
            Instruction::Goto(_) => OpKind::Goto,
            Instruction::If(k, _) => match k {
                CmpKind::Eq => OpKind::Ifeq,
                CmpKind::Ne => OpKind::Ifne,
                CmpKind::Lt => OpKind::Iflt,
                CmpKind::Ge => OpKind::Ifge,
                CmpKind::Gt => OpKind::Ifgt,
                CmpKind::Le => OpKind::Ifle,
            },
            Instruction::IfICmp(k, _) => match k {
                CmpKind::Eq => OpKind::IfIcmpeq,
                CmpKind::Ne => OpKind::IfIcmpne,
                CmpKind::Lt => OpKind::IfIcmplt,
                CmpKind::Ge => OpKind::IfIcmpge,
                CmpKind::Gt => OpKind::IfIcmpgt,
                CmpKind::Le => OpKind::IfIcmple,
            },
            Instruction::IfNull(_) => OpKind::Ifnull,
            Instruction::TableSwitch { .. } => OpKind::TableSwitch,
            Instruction::LookupSwitch { .. } => OpKind::LookupSwitch,
            Instruction::InvokeStatic(_) => OpKind::InvokeStatic,
            Instruction::InvokeVirtual { .. } => OpKind::InvokeVirtual,
            Instruction::Ireturn => OpKind::Ireturn,
            Instruction::Areturn => OpKind::Areturn,
            Instruction::Return => OpKind::Return,
            Instruction::New(_) => OpKind::New,
            Instruction::GetField(_) => OpKind::GetField,
            Instruction::PutField(_) => OpKind::PutField,
            Instruction::NewArray => OpKind::NewArray,
            Instruction::ArrayLoad => OpKind::ArrayLoad,
            Instruction::ArrayStore => OpKind::ArrayStore,
            Instruction::ArrayLength => OpKind::ArrayLength,
            Instruction::Athrow => OpKind::Athrow,
            Instruction::Probe(_) => OpKind::Probe,
        }
    }

    /// `true` for conditional branches (`if*`, `if_icmp*`, `ifnull`).
    pub fn is_conditional_branch(&self) -> bool {
        self.conditional_target().is_some()
    }

    /// The taken target of a conditional branch; `None` for any other
    /// instruction.
    pub fn conditional_target(&self) -> Option<Bci> {
        match self {
            Instruction::If(_, t) | Instruction::IfICmp(_, t) | Instruction::IfNull(t) => Some(*t),
            _ => None,
        }
    }

    /// `true` for instructions that never fall through to `bci + 1`.
    pub fn is_terminator(&self) -> bool {
        matches!(
            self,
            Instruction::Goto(_)
                | Instruction::TableSwitch { .. }
                | Instruction::LookupSwitch { .. }
                | Instruction::Ireturn
                | Instruction::Areturn
                | Instruction::Return
                | Instruction::Athrow
        )
    }

    /// `true` for any control-transfer instruction (tier-2 instructions of
    /// Definition 5.2: branch, jump, switch, call, return, throw).
    pub fn is_control(&self) -> bool {
        self.is_conditional_branch()
            || self.is_terminator()
            || self.is_call()
            || matches!(self, Instruction::Goto(_))
    }

    /// `true` for call instructions (tier-1 together with returns).
    pub fn is_call(&self) -> bool {
        matches!(
            self,
            Instruction::InvokeStatic(_) | Instruction::InvokeVirtual { .. }
        )
    }

    /// `true` for return instructions.
    pub fn is_return(&self) -> bool {
        matches!(
            self,
            Instruction::Ireturn | Instruction::Areturn | Instruction::Return
        )
    }

    /// Explicit intra-method branch targets (excludes fall-through).
    pub fn branch_targets(&self) -> Vec<Bci> {
        match self {
            Instruction::Goto(t)
            | Instruction::If(_, t)
            | Instruction::IfICmp(_, t)
            | Instruction::IfNull(t) => vec![*t],
            Instruction::TableSwitch {
                targets, default, ..
            } => {
                let mut v = targets.clone();
                v.push(*default);
                v
            }
            Instruction::LookupSwitch { pairs, default } => {
                let mut v: Vec<Bci> = pairs.iter().map(|(_, t)| *t).collect();
                v.push(*default);
                v
            }
            _ => Vec::new(),
        }
    }

    /// Net operand-stack effect `(pops, pushes)` of executing this
    /// instruction, given the owning program's method table to size call
    /// pops/pushes.
    ///
    /// `n_args`/`returns_value` describe the callee for call instructions
    /// and are ignored otherwise.
    pub fn stack_effect(&self, callee_args: u16, callee_returns: bool) -> (u16, u16) {
        match self {
            Instruction::Nop | Instruction::Iinc(..) => (0, 0),
            Instruction::Iconst(_) | Instruction::AconstNull => (0, 1),
            Instruction::Iload(_) | Instruction::Aload(_) => (0, 1),
            Instruction::Istore(_) | Instruction::Astore(_) => (1, 0),
            Instruction::Iadd
            | Instruction::Isub
            | Instruction::Imul
            | Instruction::Idiv
            | Instruction::Irem
            | Instruction::Iand
            | Instruction::Ior
            | Instruction::Ixor
            | Instruction::Ishl
            | Instruction::Ishr => (2, 1),
            Instruction::Ineg => (1, 1),
            Instruction::Dup => (1, 2),
            Instruction::Pop => (1, 0),
            Instruction::Swap => (2, 2),
            Instruction::Goto(_) => (0, 0),
            Instruction::If(..) | Instruction::IfNull(_) => (1, 0),
            Instruction::IfICmp(..) => (2, 0),
            Instruction::TableSwitch { .. } | Instruction::LookupSwitch { .. } => (1, 0),
            Instruction::InvokeStatic(_) => (callee_args, u16::from(callee_returns)),
            // +1 pop for the receiver.
            Instruction::InvokeVirtual { .. } => (callee_args + 1, u16::from(callee_returns)),
            Instruction::Ireturn | Instruction::Areturn => (1, 0),
            Instruction::Return => (0, 0),
            Instruction::New(_) => (0, 1),
            Instruction::GetField(_) => (1, 1),
            Instruction::PutField(_) => (2, 0),
            Instruction::NewArray => (1, 1),
            Instruction::ArrayLoad => (2, 1),
            Instruction::ArrayStore => (3, 0),
            Instruction::ArrayLength => (1, 1),
            Instruction::Athrow => (1, 0),
            Instruction::Probe(_) => (0, 0),
        }
    }

    /// `true` if this instruction can raise a runtime exception
    /// (division by zero, null dereference, out-of-bounds, explicit throw).
    pub fn can_throw(&self) -> bool {
        matches!(
            self,
            Instruction::Idiv
                | Instruction::Irem
                | Instruction::GetField(_)
                | Instruction::PutField(_)
                | Instruction::ArrayLoad
                | Instruction::ArrayStore
                | Instruction::ArrayLength
                | Instruction::Athrow
                | Instruction::InvokeVirtual { .. }
        )
    }
}

macro_rules! op_kinds {
    ($($(#[$doc:meta])* $name:ident => $mnem:literal,)+) => {
        /// Fieldless operation kind: one value per interpreter template.
        ///
        /// The template interpreter of the simulated JVM installs one
        /// machine-code template per `OpKind`; JPortal's interpreted-mode
        /// decoder maps machine addresses back to the `OpKind` whose
        /// template range contains them (paper §3.1, Figure 2c).
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        #[repr(u8)]
        pub enum OpKind {
            $($(#[$doc])* $name,)+
        }

        impl OpKind {
            /// All operation kinds, in template-table order.
            pub const ALL: &'static [OpKind] = &[$(OpKind::$name,)+];

            /// The assembler mnemonic.
            pub fn mnemonic(self) -> &'static str {
                match self {
                    $(OpKind::$name => $mnem,)+
                }
            }
        }
    };
}

op_kinds! {
    /// `nop`
    Nop => "nop",
    /// `iconst` family / `bipush` / `sipush` / `ldc`
    Iconst => "iconst",
    /// `aconst_null`
    AconstNull => "aconst_null",
    /// `iload`
    Iload => "iload",
    /// `istore`
    Istore => "istore",
    /// `aload`
    Aload => "aload",
    /// `astore`
    Astore => "astore",
    /// `iinc`
    Iinc => "iinc",
    /// `iadd`
    Iadd => "iadd",
    /// `isub`
    Isub => "isub",
    /// `imul`
    Imul => "imul",
    /// `idiv`
    Idiv => "idiv",
    /// `irem`
    Irem => "irem",
    /// `ineg`
    Ineg => "ineg",
    /// `iand`
    Iand => "iand",
    /// `ior`
    Ior => "ior",
    /// `ixor`
    Ixor => "ixor",
    /// `ishl`
    Ishl => "ishl",
    /// `ishr`
    Ishr => "ishr",
    /// `dup`
    Dup => "dup",
    /// `pop`
    Pop => "pop",
    /// `swap`
    Swap => "swap",
    /// `goto`
    Goto => "goto",
    /// `ifeq`
    Ifeq => "ifeq",
    /// `ifne`
    Ifne => "ifne",
    /// `iflt`
    Iflt => "iflt",
    /// `ifge`
    Ifge => "ifge",
    /// `ifgt`
    Ifgt => "ifgt",
    /// `ifle`
    Ifle => "ifle",
    /// `if_icmpeq`
    IfIcmpeq => "if_icmpeq",
    /// `if_icmpne`
    IfIcmpne => "if_icmpne",
    /// `if_icmplt`
    IfIcmplt => "if_icmplt",
    /// `if_icmpge`
    IfIcmpge => "if_icmpge",
    /// `if_icmpgt`
    IfIcmpgt => "if_icmpgt",
    /// `if_icmple`
    IfIcmple => "if_icmple",
    /// `ifnull`
    Ifnull => "ifnull",
    /// `tableswitch`
    TableSwitch => "tableswitch",
    /// `lookupswitch`
    LookupSwitch => "lookupswitch",
    /// `invokestatic`
    InvokeStatic => "invokestatic",
    /// `invokevirtual`
    InvokeVirtual => "invokevirtual",
    /// `ireturn`
    Ireturn => "ireturn",
    /// `areturn`
    Areturn => "areturn",
    /// `return`
    Return => "return",
    /// `new`
    New => "new",
    /// `getfield`
    GetField => "getfield",
    /// `putfield`
    PutField => "putfield",
    /// `newarray`
    NewArray => "newarray",
    /// `iaload`
    ArrayLoad => "iaload",
    /// `iastore`
    ArrayStore => "iastore",
    /// `arraylength`
    ArrayLength => "arraylength",
    /// `athrow`
    Athrow => "athrow",
    /// instrumentation probe
    Probe => "probe",
}

impl OpKind {
    /// Index of this kind in the template table.
    ///
    /// `OpKind` is `#[repr(u8)]` with variants declared in template-table
    /// order, so the discriminant *is* the table index; dense per-op
    /// tables (e.g. the ICFG op index) rely on this being O(1).
    pub fn index(self) -> usize {
        self as usize
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmp_eval_matrix() {
        assert!(CmpKind::Eq.eval(3, 3));
        assert!(!CmpKind::Eq.eval(3, 4));
        assert!(CmpKind::Ne.eval(3, 4));
        assert!(CmpKind::Lt.eval(-1, 0));
        assert!(CmpKind::Ge.eval(0, 0));
        assert!(CmpKind::Gt.eval(5, 4));
        assert!(CmpKind::Le.eval(4, 4));
    }

    #[test]
    fn cmp_negate_is_involution() {
        for k in [
            CmpKind::Eq,
            CmpKind::Ne,
            CmpKind::Lt,
            CmpKind::Ge,
            CmpKind::Gt,
            CmpKind::Le,
        ] {
            assert_eq!(k.negate().negate(), k);
            // negation flips the outcome on every input pair
            for (a, b) in [(0, 0), (1, 2), (2, 1), (-3, 3)] {
                assert_ne!(k.eval(a, b), k.negate().eval(a, b));
            }
        }
    }

    #[test]
    fn op_kind_round_trip() {
        let insn = Instruction::If(CmpKind::Ge, Bci(7));
        assert_eq!(insn.op_kind(), OpKind::Ifge);
        assert_eq!(OpKind::Ifge.mnemonic(), "ifge");
        assert_eq!(OpKind::ALL[OpKind::Ifge.index()], OpKind::Ifge);
    }

    #[test]
    fn all_kinds_unique() {
        let mut seen = std::collections::HashSet::new();
        for &k in OpKind::ALL {
            assert!(seen.insert(k), "duplicate kind {k:?}");
        }
    }

    #[test]
    fn classification() {
        assert!(Instruction::Goto(Bci(0)).is_terminator());
        assert!(Instruction::Goto(Bci(0)).is_control());
        assert!(!Instruction::Goto(Bci(0)).is_conditional_branch());
        assert!(Instruction::If(CmpKind::Eq, Bci(0)).is_conditional_branch());
        assert_eq!(Instruction::Goto(Bci(3)).conditional_target(), None);
        assert_eq!(
            Instruction::IfICmp(CmpKind::Lt, Bci(4)).conditional_target(),
            Some(Bci(4))
        );
        assert_eq!(
            Instruction::IfNull(Bci(5)).conditional_target(),
            Some(Bci(5))
        );
        assert!(Instruction::InvokeStatic(MethodId(0)).is_call());
        assert!(Instruction::Ireturn.is_return());
        assert!(Instruction::Ireturn.is_terminator());
        assert!(!Instruction::Iadd.is_control());
        assert!(Instruction::Athrow.is_terminator());
        assert!(Instruction::TableSwitch {
            low: 0,
            targets: vec![],
            default: Bci(0)
        }
        .is_terminator());
    }

    #[test]
    fn branch_targets_enumeration() {
        let sw = Instruction::TableSwitch {
            low: 1,
            targets: vec![Bci(10), Bci(20)],
            default: Bci(30),
        };
        assert_eq!(sw.branch_targets(), vec![Bci(10), Bci(20), Bci(30)]);
        let ls = Instruction::LookupSwitch {
            pairs: vec![(1, Bci(5)), (9, Bci(6))],
            default: Bci(7),
        };
        assert_eq!(ls.branch_targets(), vec![Bci(5), Bci(6), Bci(7)]);
        assert!(Instruction::Iadd.branch_targets().is_empty());
    }

    #[test]
    fn stack_effects() {
        assert_eq!(Instruction::Iadd.stack_effect(0, false), (2, 1));
        assert_eq!(
            Instruction::InvokeStatic(MethodId(0)).stack_effect(3, true),
            (3, 1)
        );
        assert_eq!(
            Instruction::InvokeVirtual {
                declared_in: ClassId(0),
                slot: 0
            }
            .stack_effect(2, false),
            (3, 0)
        );
    }
}
