//! Control-flow analysis for the register-promotion compiler: CFG
//! extraction, dominators (Lengauer–Tarjan and the iterative algorithm),
//! natural loops with a nesting forest, and loop normalization (landing
//! pads + dedicated exit blocks) exactly as the paper's compiler constructs
//! them.
//!
//! ```
//! use cfg::{Cfg, DomTree, LoopForest};
//!
//! let module = ir::parse_module(r#"
//! func @main(0) {
//! B0:
//!   r0 = iconst 10
//!   jump B1
//! B1:
//!   r1 = iconst 1
//!   r0 = sub r0, r1
//!   branch r0, B1, B2
//! B2:
//!   ret
//! }
//! "#)?;
//! let f = module.func(module.main().unwrap());
//! let g = Cfg::build(f);
//! let dom = DomTree::lengauer_tarjan(&g);
//! let loops = LoopForest::build(&g, &dom);
//! assert_eq!(loops.len(), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod analyses;
mod dataflow;
mod dom;
mod graph;
mod liveness;
mod loops;
mod normalize;
mod util;

pub use analyses::{BuildCounts, FunctionAnalyses, LoopGeometry};
pub use dataflow::{BlockWorklist, DataflowStats, Direction};
pub use dom::{DomScratch, DomTree};
pub use graph::Cfg;
pub use liveness::{
    for_each_instr_backwards, for_each_instr_backwards_in, liveness, liveness_sparse,
    liveness_sparse_into, LiveScratch, LiveSummaries, Liveness, RegSet,
};
pub use loops::{Loop, LoopForest, LoopId};
pub use normalize::{
    normalize_loops, normalize_loops_in, remove_unreachable_blocks, remove_unreachable_blocks_in,
};
