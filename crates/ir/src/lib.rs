//! The intermediate language (IL) of the register-promotion compiler.
//!
//! This crate is the foundation of a reproduction of *Register Promotion in
//! C Programs* (Cooper & Lu, PLDI 1997). The IL mirrors the paper's ILOC
//! dialect in the two ways that matter to the paper:
//!
//! 1. **Tags.** Every memory operation carries a list of *tags* — textual
//!    names for the memory locations it may use — and every call site
//!    carries MOD/REF tag lists summarizing the callee's side effects
//!    ([`TagSet`], [`TagTable`]).
//! 2. **A memory-op hierarchy** (the paper's Table 1): `iconst` (*iLoad*,
//!    known constant, no memory), [`Instr::CLoad`] (invariant unknown
//!    value), [`Instr::SLoad`]/[`Instr::SStore`] (scalar, explicit single
//!    location), and [`Instr::Load`]/[`Instr::Store`] (general pointer-based
//!    access).
//!
//! The IL has a round-trippable textual form; see [`parse_module`] and the
//! [`std::fmt::Display`] impl on [`Module`]:
//!
//! ```
//! let src = r#"
//! tag "g:x" global size=1
//! global "g:x" ints 41
//! func @main(0) result {
//! B0:
//!   r0 = sload "g:x"
//!   r1 = iconst 1
//!   r2 = add r0, r1
//!   ret r2
//! }
//! "#;
//! let module = ir::parse_module(src)?;
//! ir::validate(&module)?;
//! assert_eq!(ir::parse_module(&module.to_string())?, module);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod builder;
mod function;
pub mod hash;
mod instr;
mod parse;
mod print;
mod scratch;
mod tag;
mod validate;

pub use builder::FunctionBuilder;
pub use function::{Block, BodyStats, Function, Global, GlobalInit, Module};
pub use instr::{
    BinOp, BlockId, CallEffects, Callee, CmpOp, FuncId, Instr, Intrinsic, Reg, Successors, UnaryOp,
};
pub use parse::{parse_module, ParseIlError};
pub use print::{instr_to_string, module_to_string, tagset_to_string, write_instr, write_tagset};
pub use scratch::{free_parked, park, take, DenseMap, DenseSet, RewriteBuf, Slot};
pub use tag::{DenseTagSet, TagId, TagInfo, TagKind, TagSet, TagTable, INLINE_CAP};
pub use validate::{validate, ValidateError};
