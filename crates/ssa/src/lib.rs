//! SSA form for the register-promotion IL.
//!
//! The paper's points-to analysis "converts each function into SSA form"
//! and propagates pointer values over SSA names (after Ruf). This crate
//! provides that machinery: pruned SSA construction (Cytron et al.
//! dominance-frontier placement + liveness pruning), SSA verification, and
//! destruction back to executable form via edge-split parallel copies.
//!
//! The default pipeline's analyses run at register granularity (a
//! documented substitution in `DESIGN.md`); the analysis crate's
//! `PointsToSsa` configuration uses this crate to run the paper's
//! SSA-name-granularity analysis, and the test suite checks both levels
//! agree on the benchmark suite.
//!
//! ```
//! let module = ir::parse_module(r#"
//! func @main(0) result {
//! B0:
//!   r0 = iconst 0
//!   jump B1
//! B1:
//!   r1 = iconst 1
//!   r0 = add r0, r1
//!   r2 = iconst 10
//!   r3 = cmplt r0, r2
//!   branch r3, B1, B2
//! B2:
//!   ret r0
//! }
//! "#)?;
//! let mut func = module.func(module.main().unwrap()).clone();
//! let map = ssa::construct(&mut func);
//! ssa::verify_ssa(&func)?;                 // r0 now has φ-managed versions
//! let removed = ssa::destruct(&mut func);  // back to executable copies
//! assert!(removed >= 1);
//! # let _ = map;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod construct;
mod destruct;
mod verify;

pub use construct::{construct, construct_in, SsaMap};
pub use destruct::{
    destruct, destruct_in, sequentialize_parallel_copy, split_critical_edges,
    split_critical_edges_in,
};
pub use verify::{verify_ssa, SsaError};
