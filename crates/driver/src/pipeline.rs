//! The compilation pipeline.
//!
//! Reproduces the paper's §5 setup: "Each version was optimized with value
//! numbering, partial redundancy elimination, constant propagation, loop
//! invariant code motion, dead code elimination, register allocation, and
//! a basic block cleaning pass", with register promotion running in the
//! early phases and pointer-based promotion after LICM (which hoists the
//! base addresses it needs).
//!
//! The per-function work fans out over a persistent [`WorkerPool`]
//! (owned by a [`crate::Session`], or passed to [`run_pipeline_in`]) in
//! exactly **two** rounds: one for loop normalization (the whole-module
//! interprocedural analysis needs every function normalized), then one
//! *fused* round that carries each function through its entire
//! intra-procedural chain — strengthen → promote → lvn → loadelim →
//! constprop → licm → (pointer-promote) → lvn(2) → dce → regalloc →
//! clean — with no barrier between passes. Barriers exist only where
//! whole-module state is genuinely required: before the interprocedural
//! analysis and at the sequential spill-tag commit.
//!
//! Loops are normalized twice: at the barrier, and again before LICM,
//! after value numbering and constant propagation may have folded
//! branches. Only those two passes and the cleaner change edges, and they
//! only remove them, so promotion and pointer promotion see every loop
//! with its landing pad and dedicated exits, and the allocator an entry
//! block that no edge re-enters. The one cleaning pass, which removes the
//! pads and exits left empty, runs last, as in the paper.
//!
//! The output is bit-identical at any thread count: per-function passes
//! share only the read-only tag table, and the allocator's spill tags are
//! committed in function-index order (see [`regalloc::commit_spills`]).
//! Per-pass wall clock is recorded *inside* the fused worker and
//! aggregated by pass name into [`PassTimings`]; for fused passes the
//! reported time is the summed per-function time (CPU time across
//! workers), not the barrier-to-barrier wall time. Each [`PassTiming`]
//! row carries a `cpu_summed` flag so consumers (and the benchmark
//! JSON) cannot silently compare the two kinds of number.

use crate::incremental::FuncCache;
use crate::parallel::WorkerPool;
use crate::scratch::{return_analyses, take_analyses, with_scratch, PassScratch};
use analysis::{tarjan_sccs, AnalysisLevel, CallGraph};
use ir::{FuncId, Module};
use promote::{PointerReport, PromotionReport, ScalarReport};
use regalloc::{AllocOptions, AllocReport, NotConverged, PendingSpill};
use std::time::{Duration, Instant};
use trace::{AllocStats, FuncTrace, TraceLog};

/// A pipeline configuration — one experimental arm.
///
/// Opaque: assemble one with [`crate::Session::builder`], which sets
/// every field, and read it back with [`crate::Session::config`].
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Interprocedural analysis precision.
    pub(crate) analysis: AnalysisLevel,
    /// Run scalar register promotion (§3.1).
    pub(crate) promote: bool,
    /// Run pointer-based promotion (§3.3) after LICM.
    pub(crate) pointer_promote: bool,
    /// Pressure throttle for scalar promotion (§7 of the paper): the
    /// `max_per_loop` argument of [`promote::promote_scalars_in_func`].
    pub(crate) promotion_cap: Option<usize>,
    /// Run the scalar optimizer (always on in the paper; off is useful
    /// for debugging).
    pub(crate) optimize: bool,
    /// Register allocation parameters; `None` leaves virtual registers.
    pub(crate) regalloc: Option<AllocOptions>,
    /// Worker threads for the per-function stages. `None` defers to the
    /// `PROMO_THREADS` environment variable, then to
    /// `std::thread::available_parallelism()`; `Some(1)` forces the
    /// sequential path. The compiled output is identical either way.
    pub(crate) threads: Option<usize>,
    /// Collect structured optimization remarks and per-pass deltas into a
    /// [`TraceLog`]. Off by default; when off, every trace hook is a
    /// single enum-discriminant test and no event is ever constructed.
    pub(crate) trace: bool,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            analysis: AnalysisLevel::ModRef,
            promote: true,
            pointer_promote: false,
            promotion_cap: None,
            optimize: true,
            regalloc: Some(AllocOptions::default()),
            threads: None,
            trace: false,
        }
    }
}

/// One pass's recorded time. Barrier passes (`normalize`, `analysis`)
/// report barrier-to-barrier wall time; passes inside the fused
/// per-function chain report per-function time summed across workers
/// (CPU time), which exceeds wall time whenever more than one worker is
/// busy. The `cpu_summed` flag distinguishes the two so the numbers are
/// never compared as if they were the same quantity.
#[derive(Debug, Clone)]
pub struct PassTiming {
    /// Pass label; repeated passes get distinct labels (`lvn`, `lvn(2)`).
    /// Always a static literal so recording a row never allocates.
    pub name: &'static str,
    /// Recorded duration — see `cpu_summed` for what it measures.
    pub elapsed: Duration,
    /// `true` if `elapsed` is per-function time summed across workers
    /// rather than wall time.
    pub cpu_summed: bool,
    /// Allocator traffic charged to this pass (calls and bytes). Real
    /// numbers only in binaries that install [`trace::CountingAlloc`] as
    /// the global allocator (the benchmark, the allocation-budget test);
    /// all zeros everywhere else. Counters are process-wide, so on
    /// multi-threaded runs a fused pass's figure includes whatever the
    /// other workers allocated during its window — exact on
    /// single-threaded runs, an attribution approximation otherwise.
    pub allocs: AllocStats,
}

/// Time of each pipeline pass, in execution order. Repeated passes get
/// distinct labels (`lvn`, `lvn(2)`, ...).
#[derive(Debug, Clone, Default)]
pub struct PassTimings {
    /// One row per pass in execution order.
    pub passes: Vec<PassTiming>,
}

impl PassTimings {
    /// Total across all recorded passes (wall and CPU-summed rows mixed;
    /// an upper bound on pipeline wall time).
    pub fn total(&self) -> Duration {
        self.passes.iter().map(|p| p.elapsed).sum()
    }

    /// Elapsed time of the first pass recorded under `name`.
    pub fn get(&self, name: &str) -> Option<Duration> {
        self.passes
            .iter()
            .find(|p| p.name == name)
            .map(|p| p.elapsed)
    }
}

/// What each pass did, for reports and ablations.
#[derive(Debug, Clone, Default)]
pub struct PipelineReport {
    /// Opcode strengthenings applied.
    pub strengthened: usize,
    /// Promotion activity.
    pub promotion: PromotionReport,
    /// Instructions rewritten by value numbering (both runs).
    pub lvn_rewrites: usize,
    /// Loads eliminated by the PRE-style pass.
    pub loads_eliminated: usize,
    /// Constants propagated.
    pub constants_folded: usize,
    /// Instructions hoisted by LICM.
    pub licm_moved: usize,
    /// Instructions removed by DCE.
    pub dce_removed: usize,
    /// Cleaning changes.
    pub cleaned: usize,
    /// Register allocation activity.
    pub alloc: Option<AllocReport>,
    /// The first function, in function order, that register allocation
    /// gave up on. The module is still valid IL, but that function holds
    /// virtual registers; [`crate::Session`] reports it as
    /// [`crate::Error::Alloc`], and callers of [`run_pipeline_in`] must
    /// check it themselves.
    pub alloc_failure: Option<NotConverged>,
    /// Per-pass wall-clock timings (scheduling-dependent; excluded from
    /// determinism comparisons).
    pub timings: PassTimings,
    /// How many times each analysis artifact (CFG, dominators, loop
    /// forest, loop geometry, liveness) was built across the whole run —
    /// the cache's effectiveness ledger. A rebuild-per-pass regression
    /// shows up here as a counter jump.
    pub analysis_builds: cfg::BuildCounts,
    /// Solver work performed by every fixpoint dataflow problem in the
    /// run (liveness, constprop, loadelim, DCE marking, points-to):
    /// blocks visited, transfer evaluations, worklist pushes. A solver
    /// that regresses toward whole-function resweeps shows up here as a
    /// counter jump.
    pub dataflow_stats: cfg::DataflowStats,
    /// What the incremental cache did this compile — `Some` only when the
    /// run went through a [`crate::Session`] built with
    /// [`crate::SessionBuilder::incremental`].
    pub incremental: Option<crate::incremental::IncrementalReport>,
}

/// Validates the module at a fan-out barrier, in debug builds: after
/// normalization, after the interprocedural analysis, and after the fused
/// per-function chain has run and spill tags are committed. (Passes inside
/// the fused chain see functions at different stages concurrently, so
/// whole-module validation between them is not meaningful.)
fn validate_at_barrier(module: &Module, pass: &str) {
    if cfg!(debug_assertions) {
        if let Err(e) = ir::validate(module) {
            panic!("pipeline produced invalid IL after {pass}: {e}");
        }
    }
}

/// Which functions sit on call-graph cycles (recursion blocks promotion of
/// their locals). Derived from the call graph the analysis barrier already
/// built — the pipeline never reconstructs it.
fn recursive_set(graph: &CallGraph, nfuncs: usize) -> Vec<bool> {
    let sccs = tarjan_sccs(graph);
    (0..nfuncs)
        .map(|i| graph.is_recursive(FuncId(i as u32), &sccs))
        .collect()
}

/// Everything one function's trip through the fused intra-procedural
/// chain produced: pass counters, the allocation outcome with its
/// uncommitted spill tags, and per-pass timings. `Clone` so the
/// incremental cache can memoize it and replay it on later compiles.
#[derive(Default, Clone)]
pub(crate) struct FuncOutcome {
    pub(crate) strengthened: usize,
    pub(crate) scalar: ScalarReport,
    pub(crate) pointer: PointerReport,
    pub(crate) lvn_rewrites: usize,
    pub(crate) loads_eliminated: usize,
    pub(crate) constants_folded: usize,
    pub(crate) licm_moved: usize,
    pub(crate) dce_removed: usize,
    pub(crate) cleaned: usize,
    pub(crate) alloc: Option<(Result<AllocReport, NotConverged>, Vec<PendingSpill>)>,
    pub(crate) timings: Vec<StageRow>,
}

/// One timed stage: its label, wall time, and allocator traffic.
type StageRow = (&'static str, Duration, AllocStats);

/// Runs `f` and appends its row to `rows`: the one clock behind the
/// barriers' and the fused chain's [`PassTimings`] rows. The allocation
/// snapshot is two relaxed atomic loads, so binaries that install
/// [`trace::CountingAlloc`] get per-pass allocator traffic for free
/// (everyone else records zeros).
fn timed<R>(rows: &mut Vec<StageRow>, name: &'static str, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let before = AllocStats::now();
    let r = f();
    rows.push((name, start.elapsed(), AllocStats::now().since(&before)));
    r
}

/// An `opt` pass as a trace stage. Every such pass returns the number of
/// changes it made, and 0 only when it left the body untouched, so the
/// count is the stage's change flag.
fn opt_pass(
    tr: &mut FuncTrace,
    pass: &'static str,
    func: &mut ir::Function,
    run: impl FnOnce(&mut ir::Function) -> usize,
) -> usize {
    tr.stage(pass, func, |f, _| {
        let n = run(f);
        (n, n != 0)
    })
}

/// Loop normalization as a `normalize` trace stage. Normalization reports
/// each edit it makes (a landing pad or exit block inserted, an
/// unreachable block removed) to the analysis cache as a shape change, so
/// an unchanged body version means an untouched body: in the usual case
/// (already normal, nothing to do) no body scan happens at all.
fn normalize(func: &mut ir::Function, fa: &mut cfg::FunctionAnalyses, tr: &mut FuncTrace) {
    tr.stage("normalize", func, |f, _| {
        let version = fa.body_version();
        cfg::normalize_loops_in(f, fa);
        ((), fa.body_version() != version)
    });
}

/// Carries one function through the entire fused chain. Reads only the
/// shared tag-table snapshot and per-function read-only facts, so any
/// number of these run concurrently; all tag-table writes are deferred as
/// [`PendingSpill`]s. `fa` is the function's shared analysis cache: a pass
/// that changes nothing leaves it warm, and every downstream pass then
/// reuses the artifacts instead of rebuilding them. `scratch` is the
/// worker's pass arena: every pass's dense side tables and buffers live
/// there, already sized by earlier functions, so the steady-state chain
/// runs allocation-free.
fn run_fused_chain(
    tags: &ir::TagTable,
    func: &mut ir::Function,
    fid: FuncId,
    recursive: bool,
    config: &PipelineConfig,
    fa: &mut cfg::FunctionAnalyses,
    scratch: &mut PassScratch,
    tr: &mut FuncTrace,
) -> FuncOutcome {
    // Room for every stage label the chain can emit, so the row vector
    // is one exact allocation instead of a doubling chain.
    let mut rows = Vec::with_capacity(16);
    let mut o = FuncOutcome {
        strengthened: timed(&mut rows, "strengthen", || {
            opt_pass(tr, "strengthen", func, |f| {
                opt::strengthen_function(tags, f, fid, recursive, fa)
            })
        }),
        ..Default::default()
    };
    if config.promote {
        let cap = config.promotion_cap;
        o.scalar = timed(&mut rows, "promote", || {
            tr.stage("promote", func, |f, tr| {
                let r = promote::promote_scalars_in_func(tags, f, fid, recursive, cap, fa, tr);
                (r, true)
            })
        });
    }
    let s = &mut scratch.opt;
    if config.optimize {
        o.lvn_rewrites += timed(&mut rows, "lvn", || {
            opt_pass(tr, "lvn", func, |f| opt::lvn_function_in(f, fa, &mut s.lvn))
        });
        o.loads_eliminated = timed(&mut rows, "loadelim", || {
            opt_pass(tr, "loadelim", func, |f| {
                opt::loadelim_function_in(f, fa, &mut s.loadelim)
            })
        });
        o.constants_folded = timed(&mut rows, "constprop", || {
            opt_pass(tr, "constprop", func, |f| {
                opt::constprop_function_in(f, fa, &mut s.constprop)
            })
        });
        o.licm_moved = timed(&mut rows, "licm", || {
            normalize(func, fa, tr);
            opt_pass(tr, "licm", func, |f| {
                opt::licm_function_in(f, fa, &mut s.licm)
            })
        });
    }
    if config.pointer_promote {
        // LICM has hoisted invariant base addresses, and nothing between
        // its normalization and here changes an edge.
        o.pointer = timed(&mut rows, "pointer-promote", || {
            tr.stage("pointer-promote", func, |f, tr| {
                (promote::promote_pointers_in_func(f, fa, tr), true)
            })
        });
    }
    if config.optimize {
        o.lvn_rewrites += timed(&mut rows, "lvn(2)", || {
            opt_pass(tr, "lvn", func, |f| opt::lvn_function_in(f, fa, &mut s.lvn))
        });
        o.dce_removed = timed(&mut rows, "dce", || {
            opt_pass(tr, "dce", func, |f| opt::dce_function_in(f, fa, &mut s.dce))
        });
    }
    if let Some(opts) = &config.regalloc {
        // Allocate against the read-only tag-table snapshot, recording
        // needed spill tags as provisional ids. The sequential
        // function-index-order commit after the barrier reproduces the
        // exact tag table (ids and names) of a sequential run.
        let r = timed(&mut rows, "regalloc", || {
            let mut pending = Vec::new();
            let r = tr.stage("regalloc", func, |f, tr| {
                let alloc = &mut scratch.alloc;
                let r =
                    regalloc::allocate_function_in(tags, f, fid, opts, &mut pending, fa, alloc, tr);
                (r, true)
            });
            (r, pending)
        });
        o.alloc = Some(r);
    }
    if config.optimize {
        // The paper's one cleaning pass, last. Until here every loop keeps
        // the landing pad and exit blocks that normalization gave it, so
        // the allocator's parameter copies land in an entry block no edge
        // re-enters. Cleaning is tag-agnostic, so it can run before the
        // provisional spill tags are interned.
        o.cleaned = timed(&mut rows, "clean", || {
            opt_pass(tr, "clean", func, |f| {
                opt::clean_function_in(f, fa, &mut s.clean)
            })
        });
    }
    o.timings = rows;
    o
}

/// Runs the configured pipeline over `module` in place, fanning the
/// per-function work out over a caller-provided [`WorkerPool`]: the one
/// public entry point beside [`crate::Session`], for callers that time
/// the front end and the pipeline separately. The pool's worker count is
/// what determines the parallelism (`config.threads` is only consulted
/// when a [`crate::Session`] builds its pool). The compiled output is
/// byte-identical for every pool size.
pub fn run_pipeline_in(
    module: &mut Module,
    config: &PipelineConfig,
    pool: &WorkerPool,
) -> PipelineReport {
    run_pipeline_core(module, config, pool, None).0
}

/// The one pipeline body behind both the plain and the incremental entry
/// points, returning the structured [`TraceLog`] beside the report. The
/// log is empty unless `config.trace` is set; when it is, events are
/// buffered per function inside the worker that owns the function and
/// assembled in function-index order, so the log is byte-identical at any
/// pool size. With `cache` set, functions whose fingerprints match the
/// cache are spliced instead of recompiled and the fused fan-out covers
/// only the residual set; the sequential epilogue (spill commit, counter
/// and trace assembly in function-index order) is identical either way,
/// which is what keeps warm output byte-identical to cold.
pub(crate) fn run_pipeline_core(
    module: &mut Module,
    config: &PipelineConfig,
    pool: &WorkerPool,
    mut cache: Option<&mut FuncCache>,
) -> (PipelineReport, TraceLog) {
    let mut report = PipelineReport::default();
    // One analysis cache per function, alive from normalization to the
    // final clean: every pass both consumes it and reports what it
    // invalidated, so converged passes cost zero rebuilds downstream. The
    // shells come recycled from this thread's earlier runs (warm buffers,
    // stale artifacts) and are parked on it again at the end of the run.
    let mut analyses = take_analyses(module.funcs.len());
    // One trace buffer per function, alive across every round that touches
    // the function, so each function's events arrive in chain order.
    let mut traces: Vec<FuncTrace> = module
        .funcs
        .iter()
        .map(|_| {
            if config.trace {
                FuncTrace::on()
            } else {
                FuncTrace::off()
            }
        })
        .collect();
    // The barriers' rows, then the chain's rows summed by pass name.
    let mut rows: Vec<StageRow> = Vec::new();
    timed(&mut rows, "normalize", || {
        let items: Vec<_> = module
            .funcs
            .iter_mut()
            .zip(analyses.iter_mut())
            .zip(traces.iter_mut())
            .collect();
        pool.run(items, |_, ((f, fa), tr)| normalize(f, fa, tr));
    });
    validate_at_barrier(module, "normalize");
    let outcome = timed(&mut rows, "analysis", || {
        analysis::analyze(module, config.analysis)
    });
    let barrier_rows = rows.len();
    report.dataflow_stats.add(&outcome.dataflow);
    validate_at_barrier(module, "analysis");
    // The interprocedural barrier mutates instruction tag sets (no
    // registers, no edges).
    for fa in &mut analyses {
        fa.note_body_changed();
    }
    // Whole-module facts the fused chain reads: which functions sit on
    // call-graph cycles, straight off the analysis barrier's call graph.
    let recursive = recursive_set(&outcome.call_graph, module.funcs.len());
    // Incremental layer: fingerprint every function against the cache,
    // splice the hits (cached body remapped into this module, chain
    // counters and trace suffix replayed), and leave only the misses for
    // the fused fan-out.
    let mut spliced: Vec<Option<FuncOutcome>> = module.funcs.iter().map(|_| None).collect();
    let mut fingerprints = Vec::new();
    let mut incr_report = None;
    if let Some(cache) = cache.as_deref_mut() {
        cache.begin_compile();
        let summaries = analysis::modref_summary_hashes(module, &outcome.modref);
        fingerprints = crate::incremental::compute_fingerprints(module, &summaries, &recursive);
        let mut rep = crate::incremental::IncrementalReport {
            funcs_total: module.funcs.len(),
            ..Default::default()
        };
        for (i, &(fp, h_body)) in fingerprints.iter().enumerate() {
            match cache.splice(module, i, fp) {
                Some((o, events)) => {
                    traces[i].append_events(events);
                    spliced[i] = Some(o);
                    rep.cache_hits += 1;
                }
                None => {
                    rep.funcs_recompiled += 1;
                    if cache.peek_body_hash(&module.funcs[i].name) == Some(h_body) {
                        rep.summary_invalidated += 1;
                    }
                }
            }
        }
        incr_report = Some(rep);
    }
    // Event counts before the chain runs: the suffix past each mark is
    // exactly what the chain appends, which is what the cache memoizes.
    let chain_marks: Vec<usize> = if cache.is_some() {
        traces.iter().map(|t| t.event_count()).collect()
    } else {
        Vec::new()
    };
    let chain_outcomes: Vec<(usize, FuncOutcome)> = {
        // `funcs` and `tags` are disjoint fields, so the mutable fan-out
        // and the shared tag-table snapshot coexist.
        let tags = &module.tags;
        let items: Vec<_> = module
            .funcs
            .iter_mut()
            .zip(analyses.iter_mut())
            .zip(traces.iter_mut())
            .enumerate()
            .filter(|(i, _)| spliced[*i].is_none())
            .map(|(i, ((func, fa), tr))| (i, func, fa, tr))
            .collect();
        pool.run(items, |_, (i, func, fa, tr)| {
            let fid = FuncId(i as u32);
            let o = with_scratch(|scratch| {
                run_fused_chain(tags, func, fid, recursive[i], config, fa, scratch, tr)
            });
            (i, o)
        })
    };
    let mut outcomes = spliced;
    let mut hit = vec![true; outcomes.len()];
    for (i, o) in chain_outcomes {
        outcomes[i] = Some(o);
        hit[i] = false;
    }
    // Sequential epilogue: commit spill tags in function-index order and
    // aggregate counters plus per-pass timings (summed by pass name, in
    // chain order).
    let commit_start = Instant::now();
    let mut alloc_total: Option<AllocReport> = None;
    for (fi, o) in outcomes.into_iter().enumerate() {
        let o = o.expect("every function has a chain or cache outcome");
        // Memoize fresh chain output before the spill commit rewrites the
        // provisional tags out of the body.
        if let Some(cache) = cache.as_deref_mut() {
            if !hit[fi] {
                let (fp, h_body) = fingerprints[fi];
                let events = traces[fi].events_from(chain_marks[fi]);
                cache.store(module, fi, fp, h_body, &o, events);
            }
        }
        report.strengthened += o.strengthened;
        report.promotion.scalar.loops += o.scalar.loops;
        report.promotion.scalar.promoted_tags += o.scalar.promoted_tags;
        report.promotion.scalar.lifts += o.scalar.lifts;
        report.promotion.scalar.rewritten_refs += o.scalar.rewritten_refs;
        report.promotion.pointer.promoted_bases += o.pointer.promoted_bases;
        report.promotion.pointer.rewritten_refs += o.pointer.rewritten_refs;
        report.promotion.pointer.lifts += o.pointer.lifts;
        report.lvn_rewrites += o.lvn_rewrites;
        report.loads_eliminated += o.loads_eliminated;
        report.constants_folded += o.constants_folded;
        report.licm_moved += o.licm_moved;
        report.dce_removed += o.dce_removed;
        report.cleaned += o.cleaned;
        if let Some((r, pending)) = o.alloc {
            regalloc::commit_spills(module, FuncId(fi as u32), pending);
            let total = alloc_total.get_or_insert_with(AllocReport::default);
            match r {
                Ok(r) => {
                    total.coalesced += r.coalesced;
                    total.spilled += r.spilled;
                    total.rematerialized += r.rematerialized;
                    total.spill_loads += r.spill_loads;
                    total.spill_stores += r.spill_stores;
                    total.rounds += r.rounds;
                }
                Err(e) => {
                    report.alloc_failure.get_or_insert(e);
                }
            }
        }
        for (name, d, a) in o.timings {
            match rows[barrier_rows..].iter_mut().find(|(n, _, _)| *n == name) {
                Some(entry) => {
                    entry.1 += d;
                    entry.2.merge(&a);
                }
                None => rows.push((name, d, a)),
            }
        }
    }
    report.alloc = alloc_total;
    for fa in &analyses {
        report.analysis_builds.add(&fa.builds);
        report.dataflow_stats.add(&fa.dataflow);
    }
    return_analyses(analyses);
    let commit_elapsed = commit_start.elapsed();
    report.timings.passes = rows
        .into_iter()
        .enumerate()
        .map(|(i, (name, elapsed, allocs))| PassTiming {
            name,
            // The spill-tag commit is the sequential tail of allocation;
            // account it there rather than inventing a pass label.
            elapsed: if name == "regalloc" {
                elapsed + commit_elapsed
            } else {
                elapsed
            },
            cpu_summed: i >= barrier_rows,
            allocs,
        })
        .collect();
    validate_at_barrier(module, "fused per-function chain");
    if let Some(cache) = cache {
        let rep = incr_report.as_mut().expect("incremental report started");
        rep.evictions = cache.evict_to_budget();
        rep.cache_bytes = cache.bytes();
    }
    report.incremental = incr_report;
    // Assemble the log in function-index order — the determinism
    // guarantee. Empty (and allocation-free) when tracing is off.
    let mut log = TraceLog::new();
    for (fi, tr) in traces.iter_mut().enumerate() {
        log.extend_func(&module.funcs[fi].name, tr.take_events());
        if hit[fi] {
            // Out-of-band marker: the rendered/serialized stream is
            // unchanged, but tests and tools can see the replay happened.
            log.mark_cached(&module.funcs[fi].name);
        }
    }
    (report, log)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{Session, SessionBuilder};
    use vm::{Outcome, VmOptions};

    const PROGRAM: &str = r#"
int g;
int h;
void bump_h() { h = h + 1; }
int main() {
    int i;
    for (i = 0; i < 500; i++) {
        g = g + i;
        bump_h();
    }
    print_int(g);
    print_int(h);
    return 0;
}
"#;

    fn run(builder: SessionBuilder) -> (Outcome, PipelineReport) {
        let c = builder.build().compile(PROGRAM).expect("compiles");
        (c.run(VmOptions::default()).expect("runs"), c.report)
    }

    #[test]
    fn all_four_variants_agree_on_output() {
        let mut outputs = Vec::new();
        for (name, builder) in SessionBuilder::figure_variants() {
            let (out, _) = run(builder);
            outputs.push((name, out.output));
        }
        for w in outputs.windows(2) {
            assert_eq!(w[0].1, w[1].1, "{} vs {}", w[0].0, w[1].0);
        }
    }

    #[test]
    fn promotion_reduces_memory_traffic() {
        let modref = || Session::builder().analysis(AnalysisLevel::ModRef);
        let without = run(modref().promote(false)).0;
        let with = run(modref().promote(true)).0;
        // g is promotable; h is pinned by the call.
        assert!(
            with.counts.stores + 400 <= without.counts.stores,
            "stores {} -> {}",
            without.counts.stores,
            with.counts.stores
        );
    }

    #[test]
    fn pipeline_report_is_populated() {
        let report = Session::default()
            .compile(PROGRAM)
            .expect("compiles")
            .report;
        assert!(report.alloc.is_some());
        assert!(report.promotion.scalar.promoted_tags >= 1);
        // Every executed pass left a timing row.
        assert!(report.timings.get("analysis").is_some());
        assert!(report.timings.get("regalloc").is_some());
        assert!(report.timings.total() > Duration::ZERO);
        // One clean, the chain's last stage.
        let names: Vec<_> = report.timings.passes.iter().map(|p| p.name).collect();
        assert_eq!(names.iter().filter(|&&n| n == "clean").count(), 1);
        assert_eq!(names.last(), Some(&"clean"), "{names:?}");
        assert!(!names.contains(&"clean(final)"), "{names:?}");
    }

    #[test]
    fn unoptimized_pipeline_still_runs() {
        let (out, _) = run(Session::builder()
            .optimize(false)
            .promote(false)
            .regalloc(None));
        assert_eq!(out.output, vec!["124750", "500"]);
    }

    #[test]
    fn thread_count_does_not_change_output() {
        let compile = |threads| {
            let c = Session::builder()
                .threads(Some(threads))
                .build()
                .compile(PROGRAM)
                .expect("compiles");
            (c.module, c.report)
        };
        let (m1, r1) = compile(1);
        let (m4, r4) = compile(4);
        assert_eq!(
            m1.to_string(),
            m4.to_string(),
            "printed IL must be identical"
        );
        assert_eq!(r1.strengthened, r4.strengthened);
        assert_eq!(r1.promotion, r4.promotion);
        assert_eq!(r1.alloc, r4.alloc);
    }
}
