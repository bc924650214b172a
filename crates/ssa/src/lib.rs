//! SSA form for the register-promotion IL.
//!
//! The paper's points-to analysis "converts each function into SSA form"
//! and propagates pointer values over SSA names (after Ruf). This crate
//! provides pruned SSA construction (Cytron et al. dominance-frontier
//! placement + liveness pruning) and SSA verification.
//!
//! The pipeline's points-to analysis runs over registers instead (a
//! substitution recorded in `DESIGN.md` §8.7). This crate is the
//! reference that checks it: `tests/ssa_analysis_agreement.rs` builds SSA
//! on a copy of each suite module and checks that every SSA name points
//! within the set of the register it versions. The VM executes φ-nodes
//! directly, so SSA form also runs as it is.
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
//! ssa::verify_ssa(&func)?;                // r0 now has φ-managed versions
//! assert!(func.next_reg > 4);             // new names for r0's versions
//! assert_eq!(map.origin_of(ir::Reg(4)), ir::Reg(0));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod construct;
mod verify;

pub use construct::{construct, SsaMap};
pub use verify::{verify_ssa, SsaError};
