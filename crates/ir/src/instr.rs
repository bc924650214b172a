//! The instruction set of the intermediate language.
//!
//! The IL is ILOC-like: an unbounded set of virtual registers, explicit
//! memory operations carrying tag sets, and the paper's Table-1 hierarchy of
//! memory opcodes encoding increasingly specific knowledge:
//!
//! | op       | meaning                                             |
//! |----------|-----------------------------------------------------|
//! | `iconst` | *iLoad* — materialize a known constant              |
//! | `cload`  | *cLoad* — load an invariant but unknown value       |
//! | `sload`/`sstore` | scalar load/store of a single named location |
//! | `load`/`store`   | general pointer-based load/store            |

use crate::tag::{TagId, TagSet};
use std::fmt;

/// A virtual register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(pub u32);

impl Reg {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A basic-block id, local to one function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub u32);

impl BlockId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "B{}", self.0)
    }
}

/// A function id, local to one module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FuncId(pub u32);

impl FuncId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for FuncId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// Two-operand arithmetic and logical operators.
///
/// Integer and floating-point variants share opcodes; operand kinds are
/// dynamically typed in the VM and statically checked by the front end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variants are the standard operator mnemonics
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    And,
    Or,
    Xor,
    Shl,
    Shr,
}

impl BinOp {
    /// Mnemonic used by the printer/parser.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::Div => "div",
            BinOp::Rem => "rem",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::Shr => "shr",
        }
    }

    /// True for operators that are commutative over the integers.
    pub fn is_commutative(self) -> bool {
        matches!(
            self,
            BinOp::Add | BinOp::Mul | BinOp::And | BinOp::Or | BinOp::Xor
        )
    }
}

/// Comparison operators; results are integer 0 or 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variants are the standard comparison mnemonics
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    /// Mnemonic used by the printer/parser.
    pub fn mnemonic(self) -> &'static str {
        match self {
            CmpOp::Eq => "cmpeq",
            CmpOp::Ne => "cmpne",
            CmpOp::Lt => "cmplt",
            CmpOp::Le => "cmple",
            CmpOp::Gt => "cmpgt",
            CmpOp::Ge => "cmpge",
        }
    }

    /// The comparison with swapped operands (`a op b` == `b op.swap() a`).
    pub fn swapped(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    /// The logical negation (`!(a op b)` == `a op.negated() b`).
    pub fn negated(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
        }
    }
}

/// Single-operand operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    /// Arithmetic negation.
    Neg,
    /// Logical not (0 -> 1, nonzero -> 0).
    Not,
    /// Integer to floating point.
    IntToFloat,
    /// Floating point to integer (truncating).
    FloatToInt,
}

impl UnaryOp {
    /// Mnemonic used by the printer/parser.
    pub fn mnemonic(self) -> &'static str {
        match self {
            UnaryOp::Neg => "neg",
            UnaryOp::Not => "not",
            UnaryOp::IntToFloat => "i2f",
            UnaryOp::FloatToInt => "f2i",
        }
    }
}

/// Built-in routines the VM implements directly.
///
/// Intrinsics have no memory side effects except the `print_*` family, which
/// only writes the VM output stream (no tags).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Intrinsic {
    /// Print an integer followed by a newline.
    PrintInt,
    /// Print a float followed by a newline.
    PrintFloat,
    /// `sqrt(f64) -> f64`.
    Sqrt,
    /// `sin(f64) -> f64`.
    Sin,
    /// `cos(f64) -> f64`.
    Cos,
    /// `pow(f64, f64) -> f64`.
    Pow,
    /// `abs(i64) -> i64`.
    AbsInt,
    /// `fabs(f64) -> f64`.
    AbsFloat,
    /// `exit(i64) -> !` — stop the VM with a status code.
    Exit,
}

impl Intrinsic {
    /// Source-level name (used by the front end and the printer).
    pub fn name(self) -> &'static str {
        match self {
            Intrinsic::PrintInt => "print_int",
            Intrinsic::PrintFloat => "print_float",
            Intrinsic::Sqrt => "sqrt",
            Intrinsic::Sin => "sin",
            Intrinsic::Cos => "cos",
            Intrinsic::Pow => "pow",
            Intrinsic::AbsInt => "abs",
            Intrinsic::AbsFloat => "fabs",
            Intrinsic::Exit => "exit",
        }
    }

    /// Resolves a source-level name to an intrinsic.
    pub fn from_name(name: &str) -> Option<Intrinsic> {
        Some(match name {
            "print_int" => Intrinsic::PrintInt,
            "print_float" => Intrinsic::PrintFloat,
            "sqrt" => Intrinsic::Sqrt,
            "sin" => Intrinsic::Sin,
            "cos" => Intrinsic::Cos,
            "pow" => Intrinsic::Pow,
            "abs" => Intrinsic::AbsInt,
            "fabs" => Intrinsic::AbsFloat,
            "exit" => Intrinsic::Exit,
            _ => return None,
        })
    }

    /// Number of arguments the intrinsic expects.
    pub fn arity(self) -> usize {
        match self {
            Intrinsic::Pow => 2,
            _ => 1,
        }
    }

    /// True if the intrinsic produces a value.
    pub fn has_result(self) -> bool {
        !matches!(
            self,
            Intrinsic::PrintInt | Intrinsic::PrintFloat | Intrinsic::Exit
        )
    }
}

/// The target of a call.
#[derive(Debug, Clone, PartialEq)]
pub enum Callee {
    /// A direct call to a module function.
    Direct(FuncId),
    /// An indirect call through a register holding a function address.
    Indirect(Reg),
    /// A VM built-in.
    Intrinsic(Intrinsic),
}

/// The memory side effects of a call site: the tags the callee may
/// modify and may reference, the MOD/REF lists the paper attaches to
/// every call.
///
/// Kept out of line, behind the `Box` in [`Instr::Call`]: two inline tag
/// sets would make calls, a few percent of all instructions, set the
/// size of every instruction.
#[derive(Debug, Clone, PartialEq)]
pub struct CallEffects {
    /// Tags the call may write.
    pub mods: TagSet,
    /// Tags the call may read.
    pub refs: TagSet,
}

impl CallEffects {
    /// May write and read every tag: a call before analysis. Boxed, as
    /// [`Instr::Call`] holds it.
    pub fn all() -> Box<CallEffects> {
        Box::new(CallEffects {
            mods: TagSet::All,
            refs: TagSet::All,
        })
    }

    /// Writes and reads no tag: an intrinsic. Boxed, as [`Instr::Call`]
    /// holds it.
    pub fn none() -> Box<CallEffects> {
        Box::new(CallEffects {
            mods: TagSet::empty(),
            refs: TagSet::empty(),
        })
    }
}

/// One IL instruction.
///
/// The last instruction of every block must be a terminator
/// ([`Instr::is_terminator`]); terminators may not appear elsewhere.
///
/// The largest variants set the enum's 56 bytes: `load` and `store`
/// (two registers and an inline [`TagSet`]) and `call` (result, callee,
/// argument vector and its boxed [`CallEffects`]), at 48 bytes of fields
/// each. A unit test pins the size, so a field that outgrows them goes
/// out of line, as a call's two tag sets do.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // operand fields follow one uniform naming scheme
pub enum Instr {
    /// *iLoad*: materialize a known integer constant.
    IConst { dst: Reg, value: i64 },
    /// Materialize a known floating-point constant.
    FConst { dst: Reg, value: f64 },
    /// Materialize the address of a function (for function pointers).
    FuncAddr { dst: Reg, func: FuncId },
    /// Register-to-register copy.
    Copy { dst: Reg, src: Reg },
    /// Unary arithmetic.
    Unary { op: UnaryOp, dst: Reg, src: Reg },
    /// Binary arithmetic.
    Binary {
        op: BinOp,
        dst: Reg,
        lhs: Reg,
        rhs: Reg,
    },
    /// Comparison producing integer 0/1.
    Cmp {
        op: CmpOp,
        dst: Reg,
        lhs: Reg,
        rhs: Reg,
    },

    /// *cLoad*: load a value known to be invariant but unknown at compile
    /// time, from the single location `tag`.
    CLoad { dst: Reg, tag: TagId },
    /// Scalar load: the operation is known to read exactly `tag` (an
    /// *explicit* reference in the paper's terms).
    SLoad { dst: Reg, tag: TagId },
    /// Scalar store to exactly `tag`.
    SStore { src: Reg, tag: TagId },
    /// General pointer-based load through `addr`; may read any tag in
    /// `tags`. Ambiguous when `tags` is not a singleton.
    Load { dst: Reg, addr: Reg, tags: TagSet },
    /// General pointer-based store through `addr`.
    Store { src: Reg, addr: Reg, tags: TagSet },

    /// Materialize the address of `tag` (cell offset 0).
    Lea { dst: Reg, tag: TagId },
    /// Pointer arithmetic: `dst = base + offset` in cell units.
    PtrAdd { dst: Reg, base: Reg, offset: Reg },
    /// Heap allocation of `size` cells; all objects allocated here share the
    /// allocation-site tag `site`.
    Alloc { dst: Reg, size: Reg, site: TagId },

    /// Call. `effects` summarizes the callee's side effects on memory,
    /// exactly as the paper attaches MOD/REF tag lists to call sites.
    Call {
        dst: Option<Reg>,
        callee: Callee,
        args: Vec<Reg>,
        effects: Box<CallEffects>,
    },

    /// SSA φ-node; `args` pair predecessor blocks with incoming registers.
    Phi { dst: Reg, args: Vec<(BlockId, Reg)> },

    /// Unconditional jump (terminator).
    Jump { target: BlockId },
    /// Conditional branch on `cond != 0` (terminator).
    Branch {
        cond: Reg,
        then_bb: BlockId,
        else_bb: BlockId,
    },
    /// Function return (terminator).
    Ret { value: Option<Reg> },

    /// No operation (used transiently by rewrites; removed by `clean`).
    Nop,
}

impl Instr {
    /// True if the instruction ends a basic block.
    pub fn is_terminator(&self) -> bool {
        matches!(
            self,
            Instr::Jump { .. } | Instr::Branch { .. } | Instr::Ret { .. }
        )
    }

    /// True for the three load opcodes (`cload`, `sload`, `load`).
    ///
    /// Note that `iconst` (*iLoad*) is **not** a memory load: it materializes
    /// a known constant without touching memory, matching the paper's
    /// hierarchy where `iLoad` needs no tag.
    pub fn is_load(&self) -> bool {
        matches!(
            self,
            Instr::CLoad { .. } | Instr::SLoad { .. } | Instr::Load { .. }
        )
    }

    /// True for the two store opcodes.
    pub fn is_store(&self) -> bool {
        matches!(self, Instr::SStore { .. } | Instr::Store { .. })
    }

    /// True for any memory operation (loads, stores, allocation).
    pub fn is_memory(&self) -> bool {
        self.is_load() || self.is_store() || matches!(self, Instr::Alloc { .. })
    }

    /// The register defined by this instruction, if any.
    pub fn def(&self) -> Option<Reg> {
        match *self {
            Instr::IConst { dst, .. }
            | Instr::FConst { dst, .. }
            | Instr::FuncAddr { dst, .. }
            | Instr::Copy { dst, .. }
            | Instr::Unary { dst, .. }
            | Instr::Binary { dst, .. }
            | Instr::Cmp { dst, .. }
            | Instr::CLoad { dst, .. }
            | Instr::SLoad { dst, .. }
            | Instr::Load { dst, .. }
            | Instr::Lea { dst, .. }
            | Instr::PtrAdd { dst, .. }
            | Instr::Alloc { dst, .. }
            | Instr::Phi { dst, .. } => Some(dst),
            Instr::Call { dst, .. } => dst,
            _ => None,
        }
    }

    /// A mutable reference to the defined register, if any.
    pub fn def_mut(&mut self) -> Option<&mut Reg> {
        match self {
            Instr::IConst { dst, .. }
            | Instr::FConst { dst, .. }
            | Instr::FuncAddr { dst, .. }
            | Instr::Copy { dst, .. }
            | Instr::Unary { dst, .. }
            | Instr::Binary { dst, .. }
            | Instr::Cmp { dst, .. }
            | Instr::CLoad { dst, .. }
            | Instr::SLoad { dst, .. }
            | Instr::Load { dst, .. }
            | Instr::Lea { dst, .. }
            | Instr::PtrAdd { dst, .. }
            | Instr::Alloc { dst, .. }
            | Instr::Phi { dst, .. } => Some(dst),
            Instr::Call { dst, .. } => dst.as_mut(),
            _ => None,
        }
    }

    /// Invokes `f` on every register used (read) by this instruction.
    pub fn visit_uses(&self, mut f: impl FnMut(Reg)) {
        match self {
            Instr::Copy { src, .. } | Instr::Unary { src, .. } => f(*src),
            Instr::Binary { lhs, rhs, .. } | Instr::Cmp { lhs, rhs, .. } => {
                f(*lhs);
                f(*rhs);
            }
            Instr::SStore { src, .. } => f(*src),
            Instr::Load { addr, .. } => f(*addr),
            Instr::Store { src, addr, .. } => {
                f(*src);
                f(*addr);
            }
            Instr::PtrAdd { base, offset, .. } => {
                f(*base);
                f(*offset);
            }
            Instr::Alloc { size, .. } => f(*size),
            Instr::Call { callee, args, .. } => {
                if let Callee::Indirect(r) = callee {
                    f(*r);
                }
                for a in args {
                    f(*a);
                }
            }
            Instr::Phi { args, .. } => {
                for (_, r) in args {
                    f(*r);
                }
            }
            Instr::Branch { cond, .. } => f(*cond),
            Instr::Ret { value: Some(r) } => f(*r),
            _ => {}
        }
    }

    /// Invokes `f` on a mutable reference to every used register.
    pub fn visit_uses_mut(&mut self, mut f: impl FnMut(&mut Reg)) {
        match self {
            Instr::Copy { src, .. } | Instr::Unary { src, .. } => f(src),
            Instr::Binary { lhs, rhs, .. } | Instr::Cmp { lhs, rhs, .. } => {
                f(lhs);
                f(rhs);
            }
            Instr::SStore { src, .. } => f(src),
            Instr::Load { addr, .. } => f(addr),
            Instr::Store { src, addr, .. } => {
                f(src);
                f(addr);
            }
            Instr::PtrAdd { base, offset, .. } => {
                f(base);
                f(offset);
            }
            Instr::Alloc { size, .. } => f(size),
            Instr::Call { callee, args, .. } => {
                if let Callee::Indirect(r) = callee {
                    f(r);
                }
                for a in args {
                    f(a);
                }
            }
            Instr::Phi { args, .. } => {
                for (_, r) in args {
                    f(r);
                }
            }
            Instr::Branch { cond, .. } => f(cond),
            Instr::Ret { value: Some(r) } => f(r),
            _ => {}
        }
    }

    /// Collects the used registers into a vector (convenience for tests and
    /// analyses that want an owned list).
    pub fn uses(&self) -> Vec<Reg> {
        let mut v = Vec::new();
        self.visit_uses(|r| v.push(r));
        v
    }

    /// Successor blocks if this is a terminator.
    ///
    /// Returns an inline iterator (no heap allocation); a two-way branch
    /// with identical arms yields its target once.
    pub fn successors(&self) -> Successors {
        match self {
            Instr::Jump { target } => Successors {
                first: Some(*target),
                second: None,
            },
            Instr::Branch {
                then_bb, else_bb, ..
            } => Successors {
                first: Some(*then_bb),
                second: if then_bb == else_bb {
                    None
                } else {
                    Some(*else_bb)
                },
            },
            _ => Successors::empty(),
        }
    }

    /// Rewrites block references in terminators and φ-nodes via `f`.
    pub fn retarget_blocks(&mut self, mut f: impl FnMut(BlockId) -> BlockId) {
        match self {
            Instr::Jump { target } => *target = f(*target),
            Instr::Branch {
                then_bb, else_bb, ..
            } => {
                *then_bb = f(*then_bb);
                *else_bb = f(*else_bb);
            }
            Instr::Phi { args, .. } => {
                for (b, _) in args {
                    *b = f(*b);
                }
            }
            _ => {}
        }
    }

    /// True if the instruction has side effects beyond defining its result
    /// (stores, calls, allocation, control flow).
    pub fn has_side_effects(&self) -> bool {
        matches!(
            self,
            Instr::SStore { .. }
                | Instr::Store { .. }
                | Instr::Call { .. }
                | Instr::Alloc { .. }
                | Instr::Jump { .. }
                | Instr::Branch { .. }
                | Instr::Ret { .. }
        )
    }
}

/// Inline iterator over a terminator's successor blocks (zero, one, or two
/// of them) — the non-allocating replacement for the old `Vec<BlockId>`
/// return of [`Instr::successors`]. A conditional branch whose arms agree
/// yields its target once, preserving the historical dedup behavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Successors {
    first: Option<BlockId>,
    second: Option<BlockId>,
}

impl Successors {
    /// An iterator with no successors (non-terminators, `ret`).
    pub fn empty() -> Self {
        Successors {
            first: None,
            second: None,
        }
    }
}

impl Iterator for Successors {
    type Item = BlockId;

    fn next(&mut self) -> Option<BlockId> {
        self.first.take().or_else(|| self.second.take())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.len();
        (n, Some(n))
    }
}

impl ExactSizeIterator for Successors {
    fn len(&self) -> usize {
        self.first.is_some() as usize + self.second.is_some() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_keeps_calls_out_of_line() {
        // A field that outgrows `load`, `store` and `call` makes every
        // instruction bigger: move it out of line, as `CallEffects` is.
        assert_eq!(std::mem::size_of::<Instr>(), 56);
        assert_eq!(std::mem::size_of::<CallEffects>(), 80);
    }

    #[test]
    fn memory_hierarchy() {
        // Table 1: iconst is not a load; cload/sload/load are; sstore/store
        // are stores.
        let r = Reg(0);
        let t = TagId(0);
        assert!(!Instr::IConst { dst: r, value: 1 }.is_load());
        assert!(Instr::CLoad { dst: r, tag: t }.is_load());
        assert!(Instr::SLoad { dst: r, tag: t }.is_load());
        assert!(Instr::Load {
            dst: r,
            addr: r,
            tags: TagSet::All
        }
        .is_load());
        assert!(Instr::SStore { src: r, tag: t }.is_store());
        assert!(Instr::Store {
            src: r,
            addr: r,
            tags: TagSet::All
        }
        .is_store());
        assert!(!Instr::Copy { dst: r, src: r }.is_memory());
    }

    #[test]
    fn def_and_uses() {
        let i = Instr::Binary {
            op: BinOp::Add,
            dst: Reg(2),
            lhs: Reg(0),
            rhs: Reg(1),
        };
        assert_eq!(i.def(), Some(Reg(2)));
        assert_eq!(i.uses(), vec![Reg(0), Reg(1)]);

        let s = Instr::Store {
            src: Reg(3),
            addr: Reg(4),
            tags: TagSet::All,
        };
        assert_eq!(s.def(), None);
        assert_eq!(s.uses(), vec![Reg(3), Reg(4)]);
    }

    #[test]
    fn successors_dedup_same_target() {
        let b = Instr::Branch {
            cond: Reg(0),
            then_bb: BlockId(1),
            else_bb: BlockId(1),
        };
        assert_eq!(b.successors().collect::<Vec<_>>(), vec![BlockId(1)]);
        let b2 = Instr::Branch {
            cond: Reg(0),
            then_bb: BlockId(1),
            else_bb: BlockId(2),
        };
        assert_eq!(b2.successors().len(), 2);
        assert_eq!(b2.successors().size_hint(), (2, Some(2)));
        assert_eq!(Instr::Ret { value: None }.successors().count(), 0);
    }

    #[test]
    fn cmp_swap_negate() {
        assert_eq!(CmpOp::Lt.swapped(), CmpOp::Gt);
        assert_eq!(CmpOp::Lt.negated(), CmpOp::Ge);
        assert_eq!(CmpOp::Eq.swapped(), CmpOp::Eq);
    }

    #[test]
    fn intrinsic_roundtrip() {
        for i in [
            Intrinsic::PrintInt,
            Intrinsic::PrintFloat,
            Intrinsic::Sqrt,
            Intrinsic::Sin,
            Intrinsic::Cos,
            Intrinsic::Pow,
            Intrinsic::AbsInt,
            Intrinsic::AbsFloat,
            Intrinsic::Exit,
        ] {
            assert_eq!(Intrinsic::from_name(i.name()), Some(i));
        }
        assert_eq!(Intrinsic::from_name("bogus"), None);
    }
}
