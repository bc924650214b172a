//! The per-worker pass scratch arena.
//!
//! Every pass in the fused chain exposes a `*_function_in`-style entry
//! point taking caller-owned scratch state (dense epoch-stamped side
//! tables, reusable worklists, rewrite buffers). [`PassScratch`] bundles
//! all of them: each [`crate::WorkerPool`] worker owns one, reuses it for
//! every function it carries through the chain, and keeps it across
//! pipeline runs — so a warm pool's steady-state hot loop allocates
//! nothing. See `DESIGN.md` §12 for the lifecycle and clearing rules.

/// Scratch state for one worker: everything the fused per-function pass
/// chain needs, reused across functions and across pipeline runs.
#[derive(Default)]
pub(crate) struct PassScratch {
    /// Scalar-optimizer scratch (lvn, constprop, loadelim, licm, dce,
    /// clean).
    pub(crate) opt: opt::OptScratch,
    /// Register-allocator scratch (interference matrices, round buffers,
    /// spill rewrite buffer).
    pub(crate) alloc: regalloc::AllocScratch,
}
