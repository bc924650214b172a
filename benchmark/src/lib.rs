//! The repository benchmark for the register-promotion compiler.
//!
//! It drives the compiler only through its public API — `Session`,
//! `Compilation::run`, the MiniC `Frontend`, `driver::run_pipeline_in`,
//! `ir::validate` and `vm::Vm::run_main` — and measures what a user
//! sees: compile latency from source to validated optimized IL, heap
//! peak per compile, run time of the compiled program in the VM, and the
//! paper's dynamic operations, loads and stores, each checked against an
//! oracle that never passes through the optimizer. A separate traced run
//! times each layer. See `README.md` for the metrics, the workloads and
//! how to read a result.
//!
//! ```no_run
//! use promo_benchmark::{run, Options, Size, Workload, DEFAULT_SEED};
//!
//! let report = run(&Options {
//!     workload: Workload::Suite,
//!     seed: DEFAULT_SEED,
//!     trace: false,
//!     size: Size::full(10.0),
//! })?;
//! println!("{}", report.text());
//! # Ok::<(), String>(())
//! ```

#![warn(missing_docs)]

pub mod alloc;
mod edit;
mod json;
mod list;
mod measure;
pub mod metrics;
mod report;
mod spans;
pub mod stats;
mod workload;

pub use report::{Metric, ProgramRow, Report};
pub use spans::Span;
pub use workload::{golden, golden_text, reference_session, Budget, Size, Workload, DEFAULT_SEED};

/// Heap peaks per compile come from this allocator.
#[global_allocator]
static ALLOC: alloc::PeakAlloc = alloc::PeakAlloc;

/// One run of the benchmark.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which inputs to run.
    pub workload: Workload,
    /// Seed of the generated programs (`generated`, `edit`); the suite
    /// workloads have fixed inputs and ignore it.
    pub seed: u64,
    /// `false`: the end-to-end run. `true`: the traced run, which reports
    /// per-layer metrics instead.
    pub trace: bool,
    /// How much to measure.
    pub size: Size,
}

/// Runs one workload.
///
/// # Errors
///
/// Returns an error when the run cannot produce its metrics: an input is
/// missing, no sample was taken, or a tail percentile has fewer than
/// [`Size::min_beyond_tail`] samples beyond it. Wrong compiler output is
/// not an error: it is counted in [`Report::failed`].
pub fn run(options: &Options) -> Result<Report, String> {
    match options.workload {
        Workload::Edit => edit::run(options),
        _ => list::run(options),
    }
}
