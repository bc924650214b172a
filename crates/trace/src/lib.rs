//! Optimization-remark telemetry for the register-promotion pipeline.
//!
//! The paper's entire evaluation is *counting what promotion did* —
//! loads/stores removed per loop, tags promoted versus blocked — so the
//! pipeline needs a structured way to say "tag `C` was promoted in the
//! loop at `B1`" or "tag `A` stayed in memory because a call mods it".
//! This crate is that layer:
//!
//! * [`Remark`] — one structured observation from one pass
//!   (`Promoted`/`Blocked`/`Spilled`/...), with [`BlockReason`] naming
//!   exactly *why* a candidate was rejected;
//! * [`PassEvent`] — a remark or a per-pass delta counter (instructions
//!   removed, loads/stores eliminated);
//! * [`FuncTrace`] — the per-function event buffer each worker fills while
//!   it carries a function through the pipeline. [`FuncTrace::stage`] runs
//!   one stage over a function body and records its delta: the only place
//!   a delta is computed, against a cached body-count snapshot that only a
//!   stage reporting a change rescans. A disabled trace makes every hook a
//!   no-op: one discriminant test, no allocation, no formatting;
//! * [`TraceLog`] — the per-module aggregate, assembled in deterministic
//!   function-index order after the parallel fan-out, serializable as
//!   JSONL ([`TraceLog::to_jsonl`] / [`TraceLog::from_jsonl`]) and as
//!   LLVM-style human-readable remarks ([`TraceLog::render_remarks`]).
//!
//! Determinism contract: events are buffered per function inside the
//! worker that owns the function (no cross-thread contention) and replayed
//! in function-index order, so the remark stream is byte-identical at any
//! worker count.

#![warn(missing_docs)]

mod alloc_probe;
mod event;
pub mod jsonl;
mod sink;

pub use alloc_probe::{AllocStats, CountingAlloc};
pub use event::{BlockReason, LoopRef, PassEvent, Remark, TraceRecord};
pub use jsonl::JsonlError;
pub use sink::{FuncTrace, TraceLog};
