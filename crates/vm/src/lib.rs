//! An instrumented interpreter for the register-promotion IL.
//!
//! The paper instruments each compiled program "to record the total number
//! of operations executed, stores executed, and loads executed" (its
//! Figures 5–7). This crate provides exactly that measurement substrate: an
//! interpreter over [`ir`] modules, decoded into a compact op array before
//! each run, with exact per-class dynamic counters derived from
//! per-segment entry counts, and a per-block [`Profile`] of where they
//! went.
//!
//! ```
//! use vm::{Vm, VmOptions};
//!
//! let module = ir::parse_module(r#"
//! tag "g:x" global size=1
//! global "g:x" ints 20
//! func @main(0) result {
//! B0:
//!   r0 = sload "g:x"
//!   r1 = iconst 22
//!   r2 = add r0, r1
//!   sstore r2, "g:x"
//!   r3 = sload "g:x"
//!   call $print_int(r3) mods{} refs{}
//!   ret r3
//! }
//! "#)?;
//! let out = Vm::run_main(&module, VmOptions::default())?;
//! assert_eq!(out.output, vec!["42"]);
//! assert_eq!(out.counts.loads, 2);
//! assert_eq!(out.counts.stores, 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod counts;
mod decode;
mod machine;
mod profile;
mod value;

pub use counts::ExecCounts;
pub use machine::{
    Outcome, Vm, VmError, VmOptions, MAX_HEAP_CELLS, MAX_OUTPUT_BYTES, MAX_OUTPUT_LINES,
};
pub use profile::{BlockProfile, FuncProfile, Profile};
pub use value::{ObjId, Ptr, Value};
