//! The pass chain's warm storage, parked on each thread between uses.
//!
//! Every pass in the fused chain exposes a `*_function_in`-style entry
//! point taking caller-owned scratch state (dense epoch-stamped side
//! tables, reusable worklists, rewrite buffers). [`PassScratch`] bundles
//! all of them, and each function rides through the chain with a
//! [`cfg::FunctionAnalyses`] shell. A thread reuses its scratch for every
//! function it carries and its shells for every run it submits, across
//! the sessions it compiles on, so a warm thread's hot loop allocates
//! nothing. Building a session frees the building thread's storage
//! ([`free_parked`]). See `DESIGN.md` §12 for the lifecycle and clearing
//! rules.

use ir::{park, take};
use std::cell::Cell;

/// The most analysis shells a thread keeps parked: enough for any
/// realistic module, small enough that one huge compilation does not pin
/// its peak memory.
const MAX_PARKED_ANALYSES: usize = 256;

thread_local! {
    static SCRATCH: Cell<Option<Box<PassScratch>>> = const { Cell::new(None) };
    static ANALYSES: Cell<Option<Vec<cfg::FunctionAnalyses>>> = const { Cell::new(None) };
}

/// Scratch state for one function's trip through the fused pass chain,
/// reused across functions and across pipeline runs.
#[derive(Default)]
pub(crate) struct PassScratch {
    /// Scalar-optimizer scratch (lvn, constprop, loadelim, licm, dce,
    /// clean).
    pub(crate) opt: opt::OptScratch,
    /// Register-allocator scratch (interference matrices, round buffers,
    /// spill rewrite buffer).
    pub(crate) alloc: regalloc::AllocScratch,
}

/// Frees the calling thread's front end ([`minic::compile`]), pass
/// scratch and analysis shells, as [`crate::SessionBuilder::build`] does.
pub(crate) fn free_parked() {
    minic::free_parked_frontend();
    ir::free_parked(&SCRATCH);
    ir::free_parked(&ANALYSES);
}

/// Runs `f` on the thread's pass scratch. A panic in `f` drops the
/// scratch, and the next call starts from a new one.
pub(crate) fn with_scratch<R>(f: impl FnOnce(&mut PassScratch) -> R) -> R {
    let mut scratch = take(&SCRATCH);
    let r = f(&mut scratch);
    park(&SCRATCH, scratch, |_| 0);
    r
}

/// Takes `n` per-function analysis shells: the last `n` the thread has
/// parked, topped up with new ones; the rest stay parked. Recycled shells
/// come back fully invalidated (every artifact stale, ledgers zeroed) but
/// with their buffers warm, so the next build round allocates almost
/// nothing. Hand them back with [`return_analyses`] when the run is done.
pub(crate) fn take_analyses(n: usize) -> Vec<cfg::FunctionAnalyses> {
    let mut parked = take(&ANALYSES);
    let rest = parked.len().saturating_sub(n);
    let mut out = Vec::with_capacity(n);
    out.extend(parked.drain(rest..));
    park(&ANALYSES, parked, Vec::len);
    for fa in &mut out {
        fa.recycle();
    }
    out.resize_with(n, cfg::FunctionAnalyses::new);
    out
}

/// Parks shells taken with [`take_analyses`] for the thread's next run,
/// freeing those beyond [`MAX_PARKED_ANALYSES`].
pub(crate) fn return_analyses(mut shells: Vec<cfg::FunctionAnalyses>) {
    let mut parked = take(&ANALYSES);
    parked.append(&mut shells);
    parked.truncate(MAX_PARKED_ANALYSES);
    park(&ANALYSES, parked, Vec::len);
}
