//! The `Session` driver API: one owned object holding the pipeline
//! configuration and the persistent worker pool, handing back a
//! [`Compilation`] artifact per program.
//!
//! A session is built once with [`Session::builder`], the only way to
//! assemble a [`PipelineConfig`]; it amortizes its worker pool across
//! every program it compiles, and returns module, report and trace as one
//! value. Running the program is a separate step the caller takes on
//! that value: [`Compilation::run`] executes the compiled module in the
//! instrumented VM under the caller's [`VmOptions`] and folds any fault
//! into the unified [`Error`].
//!
//! Warm storage (front end, pass scratch, VM tables) belongs to the
//! calling thread, not the session (see [`crate::scratch`]), so threads
//! that share a session never wait for it, and sessions that share a
//! thread share it. Building a session frees the building thread's
//! compiler storage, so its first compile starts cold.
//!
//! ```
//! use driver::Session;
//! use vm::VmOptions;
//!
//! let session = Session::builder().trace(true).build();
//! let c = session.compile(
//!     r#"
//!     int counter;
//!     int main() {
//!         int i;
//!         for (i = 0; i < 100; i++) counter += 1;
//!         print_int(counter);
//!         return 0;
//!     }
//!     "#,
//! )?;
//! assert_eq!(c.run(VmOptions::default())?.output, vec!["100"]);
//! // The trace says *what* promotion did, structurally:
//! assert!(c
//!     .trace
//!     .remarks()
//!     .any(|(_, _, r)| matches!(r, trace::Remark::Promoted { .. })));
//! # Ok::<(), driver::Error>(())
//! ```

use crate::error::Error;
use crate::incremental::{FuncCache, DEFAULT_CACHE_BUDGET};
use crate::parallel::{resolve_threads, WorkerPool};
use crate::pipeline::{run_pipeline_core, PipelineConfig, PipelineReport};
use analysis::AnalysisLevel;
use ir::Module;
use regalloc::AllocOptions;
use std::sync::Mutex;
use trace::TraceLog;
use vm::{Outcome, Profile, Vm, VmOptions};

/// A configured compiler instance: pipeline configuration, a persistent
/// [`WorkerPool`] reused across every compilation, and, on an incremental
/// session, the function cache. Its compile entry points take `&self`,
/// so threads may share one session.
///
/// Construct with [`Session::builder()`] (or [`Session::default()`] for
/// the paper's default arm).
pub struct Session {
    config: PipelineConfig,
    pool: WorkerPool,
    /// The per-function incremental cache, present when the session was
    /// built with [`SessionBuilder::incremental`]. Compiles on such a
    /// session splice fingerprint-matching functions from here instead of
    /// re-running the fused pass chain.
    cache: Option<Mutex<FuncCache>>,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl Default for Session {
    fn default() -> Self {
        Session::builder().build()
    }
}

impl Session {
    /// Starts a session builder from the default configuration.
    pub fn builder() -> SessionBuilder {
        SessionBuilder::default()
    }

    /// The pipeline configuration this session runs.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Runs the pipeline over an already-built module in place, returning
    /// the report and trace log. The module is validated afterwards; a
    /// validation failure is returned as [`Error::Validate`] rather than
    /// a panic. On an incremental session the module's functions are
    /// fingerprinted against the session cache.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Registers`] (before anything runs) if the
    /// allocator's register file is too small for the module,
    /// [`Error::Alloc`] if allocation did not converge on some function,
    /// or [`Error::Validate`] if the pipeline produced invalid IL.
    pub fn optimize(&self, module: &mut Module) -> Result<(PipelineReport, TraceLog), Error> {
        self.check_registers(module)?;
        let (mut report, log) = match &self.cache {
            Some(cache) => {
                // A poisoned lock only means an earlier compile panicked;
                // the cache is mutated sequentially in the epilogue, one
                // whole entry at a time, so whatever it holds is valid.
                let mut cache = cache.lock().unwrap_or_else(|p| p.into_inner());
                run_pipeline_core(module, &self.config, &self.pool, Some(&mut cache))
            }
            None => run_pipeline_core(module, &self.config, &self.pool, None),
        };
        if let Some(e) = report.alloc_failure.take() {
            return Err(e.into());
        }
        ir::validate(module)?;
        Ok((report, log))
    }

    /// Checks that the allocator's register file can hold `module`: at
    /// least two registers (a binary operation reads two), and no fewer
    /// than any function needs at once. Below that the allocator cannot
    /// converge, so the session reports it instead of running.
    fn check_registers(&self, module: &Module) -> Result<(), Error> {
        let Some(opts) = &self.config.regalloc else {
            return Ok(());
        };
        let num_regs = opts.num_regs;
        if num_regs < 2 {
            return Err(Error::Registers {
                num_regs,
                needed: 2,
                func: None,
            });
        }
        for f in &module.funcs {
            let needed = registers_needed(f, num_regs);
            if needed > num_regs {
                return Err(Error::Registers {
                    num_regs,
                    needed,
                    func: Some(f.name.clone()),
                });
            }
        }
        Ok(())
    }

    /// Compiles MiniC source through the full pipeline, on the calling
    /// thread's warm front end ([`minic::compile`]).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Front`] if the source does not compile, or what
    /// [`optimize`](Self::optimize) returns.
    pub fn compile(&self, src: &str) -> Result<Compilation, Error> {
        let mut module = minic::compile(src)?;
        let (report, trace) = self.optimize(&mut module)?;
        Ok(Compilation {
            module,
            report,
            trace,
        })
    }
}

/// How many registers `func` needs at once: its parameters all arrive in
/// registers, and an instruction reads all its operands from registers
/// (an indirect call reads its target and every argument). Exact whenever
/// the answer exceeds `limit`: an instruction's operands are deduplicated
/// only when there are more of them than that, so the common case
/// allocates nothing.
fn registers_needed(func: &ir::Function, limit: usize) -> usize {
    let mut needed = func.arity;
    let mut distinct = Vec::new();
    for instr in func.blocks.iter().flat_map(|b| &b.instrs) {
        let mut operands = 0;
        instr.visit_uses(|_| operands += 1);
        if operands > limit.max(needed) {
            distinct.clear();
            instr.visit_uses(|r| {
                if !distinct.contains(&r) {
                    distinct.push(r);
                }
            });
            needed = needed.max(distinct.len());
        }
    }
    needed
}

/// Fluent builder for [`Session`], starting from the paper's default arm:
/// MOD/REF analysis, scalar promotion, the optimizer, and a 32-register
/// allocator.
///
/// ```
/// use analysis::AnalysisLevel;
/// use driver::Session;
///
/// let session = Session::builder()
///     .analysis(AnalysisLevel::PointsTo)
///     .pointer_promote(true)
///     .trace(true)
///     .build();
/// let c = session.compile("int main() { print_int(1); return 0; }")?;
/// assert!(c.report.alloc.is_some());
/// # Ok::<(), driver::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct SessionBuilder {
    config: PipelineConfig,
    incremental: bool,
    cache_budget: usize,
}

impl Default for SessionBuilder {
    fn default() -> Self {
        SessionBuilder {
            config: PipelineConfig::default(),
            incremental: false,
            cache_budget: DEFAULT_CACHE_BUDGET,
        }
    }
}

impl SessionBuilder {
    /// The paper's four measured variants in its row order:
    /// `{modref, pointer}` × `{without, with}` promotion. §3.3's
    /// pointer-based promotion was measured separately, so the headline
    /// figures use scalar promotion only (the default).
    pub fn figure_variants() -> [(&'static str, SessionBuilder); 4] {
        let arm = |level, promote| Session::builder().analysis(level).promote(promote);
        [
            ("modref/without", arm(AnalysisLevel::ModRef, false)),
            ("modref/with", arm(AnalysisLevel::ModRef, true)),
            ("pointer/without", arm(AnalysisLevel::PointsTo, false)),
            ("pointer/with", arm(AnalysisLevel::PointsTo, true)),
        ]
    }

    /// Sets the interprocedural analysis precision.
    pub fn analysis(mut self, level: AnalysisLevel) -> Self {
        self.config.analysis = level;
        self
    }

    /// Enables or disables scalar register promotion (§3.1).
    pub fn promote(mut self, on: bool) -> Self {
        self.config.promote = on;
        self
    }

    /// Enables or disables pointer-based promotion (§3.3).
    pub fn pointer_promote(mut self, on: bool) -> Self {
        self.config.pointer_promote = on;
        self
    }

    /// Sets the per-loop promotion pressure cap (`None` = unthrottled).
    pub fn promotion_cap(mut self, cap: Option<usize>) -> Self {
        self.config.promotion_cap = cap;
        self
    }

    /// Enables or disables the scalar optimizer.
    pub fn optimize(mut self, on: bool) -> Self {
        self.config.optimize = on;
        self
    }

    /// Sets register-allocation parameters (`None` leaves virtual
    /// registers).
    pub fn regalloc(mut self, opts: Option<AllocOptions>) -> Self {
        self.config.regalloc = opts;
        self
    }

    /// Sets the worker-thread count (`None` = environment/default).
    pub fn threads(mut self, threads: Option<usize>) -> Self {
        self.config.threads = threads;
        self
    }

    /// Enables or disables structured trace collection.
    pub fn trace(mut self, on: bool) -> Self {
        self.config.trace = on;
        self
    }

    /// Enables or disables content-addressed incremental recompilation.
    /// When on, the session keeps a per-function cache of the fused pass
    /// chain's output: a later compile splices every function whose
    /// fingerprint (canonical body, interprocedural facts, callee
    /// summaries, recursion flag) is unchanged, and runs the fused pass
    /// chain only over the rest.
    /// Output, report counters, and remark streams are byte-identical to
    /// a cold compile. Off by default.
    pub fn incremental(mut self, on: bool) -> Self {
        self.incremental = on;
        self
    }

    /// Sets the incremental cache's eviction budget in approximate bytes
    /// (default [`DEFAULT_CACHE_BUDGET`]). Least-recently-used entries
    /// are dropped after each compile until the cache fits. Implies
    /// nothing unless [`incremental`](Self::incremental) is on.
    pub fn cache_budget(mut self, bytes: usize) -> Self {
        self.cache_budget = bytes;
        self
    }

    /// Builds the session, spawning its worker pool (sized from the
    /// thread count), and frees the calling thread's front end, pass
    /// scratch and analysis shells, so that the same compiles on a new
    /// session allocate the same however warm the thread was.
    pub fn build(self) -> Session {
        crate::scratch::free_parked();
        Session {
            pool: WorkerPool::new(resolve_threads(self.config.threads)),
            config: self.config,
            cache: self
                .incremental
                .then(|| Mutex::new(FuncCache::new(self.cache_budget))),
        }
    }
}

/// Everything one program's trip through a [`Session`] produced.
#[derive(Debug)]
pub struct Compilation {
    /// The optimized (and validated) module.
    pub module: Module,
    /// Pass counters and timings.
    pub report: PipelineReport,
    /// The structured trace — empty unless the session was built with
    /// `.trace(true)`.
    pub trace: TraceLog,
}

impl Compilation {
    /// Executes the compiled module's `main` in the instrumented VM and
    /// returns the execution outcome (program output, exit code, dynamic
    /// operation counts). Compile-and-execute in one expression:
    ///
    /// ```
    /// use driver::Session;
    /// use vm::VmOptions;
    ///
    /// let out = Session::default()
    ///     .compile("int main() { print_int(6 * 7); return 0; }")?
    ///     .run(VmOptions::default())?;
    /// assert_eq!(out.output, vec!["42"]);
    /// # Ok::<(), driver::Error>(())
    /// ```
    ///
    /// It can be called repeatedly, e.g. with different step budgets.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Vm`] if execution faults.
    pub fn run(&self, options: VmOptions) -> Result<Outcome, Error> {
        Ok(Vm::run_main(&self.module, options)?)
    }

    /// [`Compilation::run`], plus where the operations went: how often
    /// each block of the compiled module ran and what it executed.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Vm`] if execution faults.
    pub fn run_profiled(&self, options: VmOptions) -> Result<(Outcome, Profile), Error> {
        Ok(Vm::run_main_profiled(&self.module, options)?)
    }

    /// The trace rendered as human-readable LLVM-style remark lines.
    pub fn remarks_text(&self) -> String {
        self.trace.render_remarks()
    }

    /// The trace serialized as JSONL (see `trace::jsonl` docs for the
    /// schema).
    pub fn trace_jsonl(&self) -> String {
        self.trace.to_jsonl()
    }
}
