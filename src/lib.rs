//! # register-promotion
//!
//! A from-scratch reproduction of **“Register Promotion in C Programs”**
//! (Keith D. Cooper and John Lu, PLDI 1997) as a Rust workspace: a research
//! C compiler with a tag-based intermediate language, interprocedural
//! MOD/REF and points-to analysis, the paper's loop-based register
//! promotion transformation, a full supporting optimizer, a
//! Chaitin–Briggs register allocator, and an instrumented interpreter that
//! regenerates the paper's dynamic operation/store/load figures.
//!
//! This crate is a facade that re-exports every subsystem under one name;
//! each subsystem is its own workspace crate:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`ir`] | `promo-ir` | tagged IL, textual form, validation |
//! | `cfg` | `promo-cfg` | CFG, dominators, loops, normalization |
//! | [`analysis`] | `promo-analysis` | MOD/REF, points-to, Steensgaard |
//! | [`promote`] | `promo-promote` | **the paper's transformation** |
//! | [`opt`] | `promo-opt` | LVN, PRE-style load elim, SCCP, LICM, DCE |
//! | [`regalloc`] | `promo-regalloc` | Chaitin–Briggs with coalescing/spilling |
//! | [`ssa`] | `promo-ssa` | pruned SSA construct/verify |
//! | [`minic`] | `promo-minic` | the MiniC front end |
//! | [`vm`] | `promo-vm` | instrumented interpreter |
//! | [`driver`] | `promo-driver` | pipeline configs + figure reporting |
//! | [`benchsuite`] | `promo-benchsuite` | the 14-program suite |
//!
//! ## Quickstart
//!
//! ```
//! use register_promotion::driver::prelude::*;
//!
//! let source = r#"
//!     int hits;
//!     int main() {
//!         int i;
//!         for (i = 0; i < 10000; i++) hits += 1;
//!         print_int(hits);
//!         return 0;
//!     }
//! "#;
//! // The paper's experiment: same program, promotion off vs on.
//! let run = |promote| -> Result<Outcome, Error> {
//!     Session::builder()
//!         .analysis(AnalysisLevel::ModRef)
//!         .promote(promote)
//!         .build()
//!         .compile(source)?
//!         .run(VmOptions::default())
//! };
//! let (base, promoted) = (run(false)?, run(true)?);
//! assert_eq!(base.output, promoted.output);
//! assert!(promoted.counts.stores < base.counts.stores / 100);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub use ::cfg;
pub use analysis;
pub use benchsuite;
pub use driver;
pub use ir;
pub use minic;
pub use opt;
pub use promote;
pub use regalloc;
pub use ssa;
pub use vm;
