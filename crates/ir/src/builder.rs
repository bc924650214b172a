//! A convenience builder for constructing functions instruction by
//! instruction.
//!
//! Used by the MiniC front end, by tests, and by anyone hand-writing IL:
//!
//! ```
//! use ir::{FunctionBuilder, Module, GlobalInit, BinOp};
//!
//! let mut module = Module::new();
//! let g = module.add_global("counter", 1, GlobalInit::Zero);
//! let mut b = FunctionBuilder::new("main", 0);
//! let one = b.iconst(1);
//! let cur = b.sload(g);
//! let next = b.binary(BinOp::Add, cur, one);
//! b.sstore(next, g);
//! b.ret(None);
//! module.add_func(b.finish());
//! assert!(module.main().is_some());
//! ```

use crate::function::Function;
use crate::instr::{
    BinOp, BlockId, CallEffects, Callee, CmpOp, FuncId, Instr, Intrinsic, Reg, UnaryOp,
};
use crate::tag::{TagId, TagSet};

/// Incremental function construction with a notion of the "current" block.
#[derive(Debug)]
pub struct FunctionBuilder {
    func: Function,
    current: BlockId,
}

impl FunctionBuilder {
    /// Starts building a function; the current block is the entry block.
    pub fn new(name: impl Into<String>, arity: usize) -> Self {
        let func = Function::new(name, arity);
        let current = func.entry;
        FunctionBuilder { func, current }
    }

    /// Marks the function as returning a value.
    pub fn returns_value(&mut self) -> &mut Self {
        self.func.has_result = true;
        self
    }

    /// Creates a new empty block (does not switch to it).
    pub fn new_block(&mut self) -> BlockId {
        self.func.new_block()
    }

    /// Switches the insertion point to `block`.
    pub fn switch_to(&mut self, block: BlockId) {
        self.current = block;
    }

    /// Allocates a fresh virtual register.
    pub fn new_reg(&mut self) -> Reg {
        self.func.new_reg()
    }

    /// True if the current block already ends in a terminator.
    pub fn is_terminated(&self) -> bool {
        self.func.block(self.current).terminator().is_some()
    }

    /// Appends a raw instruction to the current block.
    pub fn emit(&mut self, instr: Instr) {
        self.func.block_mut(self.current).instrs.push(instr);
    }

    fn emit_def(&mut self, make: impl FnOnce(Reg) -> Instr) -> Reg {
        let dst = self.new_reg();
        self.emit(make(dst));
        dst
    }

    /// `iconst` — materialize an integer constant.
    pub fn iconst(&mut self, value: i64) -> Reg {
        self.emit_def(|dst| Instr::IConst { dst, value })
    }

    /// Materialize a float constant.
    pub fn fconst(&mut self, value: f64) -> Reg {
        self.emit_def(|dst| Instr::FConst { dst, value })
    }

    /// Materialize a function address.
    pub fn func_addr(&mut self, func: FuncId) -> Reg {
        self.emit_def(|dst| Instr::FuncAddr { dst, func })
    }

    /// Register copy.
    pub fn copy(&mut self, src: Reg) -> Reg {
        self.emit_def(|dst| Instr::Copy { dst, src })
    }

    /// Unary operation.
    pub fn unary(&mut self, op: UnaryOp, src: Reg) -> Reg {
        self.emit_def(|dst| Instr::Unary { op, dst, src })
    }

    /// Binary operation.
    pub fn binary(&mut self, op: BinOp, lhs: Reg, rhs: Reg) -> Reg {
        self.emit_def(|dst| Instr::Binary { op, dst, lhs, rhs })
    }

    /// Comparison.
    pub fn cmp(&mut self, op: CmpOp, lhs: Reg, rhs: Reg) -> Reg {
        self.emit_def(|dst| Instr::Cmp { op, dst, lhs, rhs })
    }

    /// `cload` — invariant unknown value.
    pub fn cload(&mut self, tag: TagId) -> Reg {
        self.emit_def(|dst| Instr::CLoad { dst, tag })
    }

    /// `sload` — scalar load.
    pub fn sload(&mut self, tag: TagId) -> Reg {
        self.emit_def(|dst| Instr::SLoad { dst, tag })
    }

    /// `sstore` — scalar store.
    pub fn sstore(&mut self, src: Reg, tag: TagId) {
        self.emit(Instr::SStore { src, tag });
    }

    /// General pointer-based load.
    pub fn load(&mut self, addr: Reg, tags: TagSet) -> Reg {
        self.emit_def(|dst| Instr::Load { dst, addr, tags })
    }

    /// General pointer-based store.
    pub fn store(&mut self, src: Reg, addr: Reg, tags: TagSet) {
        self.emit(Instr::Store { src, addr, tags });
    }

    /// Address of a tag.
    pub fn lea(&mut self, tag: TagId) -> Reg {
        self.emit_def(|dst| Instr::Lea { dst, tag })
    }

    /// Pointer arithmetic in cell units.
    pub fn ptr_add(&mut self, base: Reg, offset: Reg) -> Reg {
        self.emit_def(|dst| Instr::PtrAdd { dst, base, offset })
    }

    /// Heap allocation at allocation-site tag `site`.
    pub fn alloc(&mut self, size: Reg, site: TagId) -> Reg {
        self.emit_def(|dst| Instr::Alloc { dst, size, site })
    }

    /// Direct call with a result.
    pub fn call(&mut self, func: FuncId, args: Vec<Reg>) -> Reg {
        self.emit_def(|dst| Instr::Call {
            dst: Some(dst),
            callee: Callee::Direct(func),
            args,
            effects: CallEffects::all(),
        })
    }

    /// Direct call with no result.
    pub fn call_void(&mut self, func: FuncId, args: Vec<Reg>) {
        self.emit(Instr::Call {
            dst: None,
            callee: Callee::Direct(func),
            args,
            effects: CallEffects::all(),
        });
    }

    /// Indirect call through a register.
    pub fn call_indirect(&mut self, target: Reg, args: Vec<Reg>, has_result: bool) -> Option<Reg> {
        let dst = if has_result {
            Some(self.new_reg())
        } else {
            None
        };
        self.emit(Instr::Call {
            dst,
            callee: Callee::Indirect(target),
            args,
            effects: CallEffects::all(),
        });
        dst
    }

    /// Intrinsic call; intrinsics touch no tagged memory.
    pub fn call_intrinsic(&mut self, intr: Intrinsic, args: Vec<Reg>) -> Option<Reg> {
        let dst = if intr.has_result() {
            Some(self.new_reg())
        } else {
            None
        };
        self.emit(Instr::Call {
            dst,
            callee: Callee::Intrinsic(intr),
            args,
            effects: CallEffects::none(),
        });
        dst
    }

    /// Unconditional jump.
    pub fn jump(&mut self, target: BlockId) {
        self.emit(Instr::Jump { target });
    }

    /// Conditional branch.
    pub fn branch(&mut self, cond: Reg, then_bb: BlockId, else_bb: BlockId) {
        self.emit(Instr::Branch {
            cond,
            then_bb,
            else_bb,
        });
    }

    /// Return.
    pub fn ret(&mut self, value: Option<Reg>) {
        self.emit(Instr::Ret { value });
    }

    /// Finishes construction and returns the function.
    pub fn finish(self) -> Function {
        self.func
    }

    /// Access the partially built function (for inspection in tests).
    pub fn func(&self) -> &Function {
        &self.func
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_blocks_and_regs() {
        let mut b = FunctionBuilder::new("f", 1);
        let k = b.iconst(10);
        assert_eq!(k, Reg(1)); // r0 is the parameter
        let body = b.new_block();
        b.jump(body);
        assert!(b.is_terminated());
        b.switch_to(body);
        assert!(!b.is_terminated());
        let s = b.binary(BinOp::Add, Reg(0), k);
        b.ret(Some(s));
        let f = b.finish();
        assert_eq!(f.blocks.len(), 2);
        assert_eq!(f.instr_count(), 4);
    }

    #[test]
    fn intrinsic_results() {
        let mut b = FunctionBuilder::new("f", 0);
        let x = b.fconst(2.0);
        let r = b.call_intrinsic(Intrinsic::Sqrt, vec![x]);
        assert!(r.is_some());
        let p = b.call_intrinsic(Intrinsic::PrintInt, vec![x]);
        assert!(p.is_none());
    }
}
