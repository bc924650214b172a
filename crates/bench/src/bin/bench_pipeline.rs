//! Pipeline wall-clock benchmark: sequential vs parallel per-function
//! stages across a sweep of worker counts, with per-pass timings and
//! analysis-build counters.
//!
//! For each worker count in the sweep a [`driver::WorkerPool`] is created
//! *once*, outside the timing loop, and every iteration reuses it through
//! [`driver::run_pipeline_in`] — so the numbers measure the steady-state
//! pipeline, not thread spawning. Each measurement is min-of-N after one
//! untimed warmup run (the warmup lives in `bench_harness::timing::measure`).
//! Printed IL is asserted byte-identical across all worker counts while
//! we are here.
//!
//! The sweep defaults to {1, 2, 4, 8} clamped to 2× the machine's
//! `available_parallelism()` — on a single-core runner, 4- and 8-worker
//! runs measure pure scheduling overhead and tell us nothing. 1 and 2 are
//! always kept so the slowdown gate below stays meaningful; pass
//! `--force-sweep` to measure the full sweep regardless.
//!
//! Usage: `cargo run --release --bin bench_pipeline [output-path]
//!         [--max-2t-slowdown X] [--max-trace-overhead X] [--force-sweep]`
//!
//! An unknown flag, a second output path, or a missing or unparsable
//! value prints this usage and exits with status 2, so a misspelled gate
//! can never be dropped silently. An output file that cannot be written
//! is reported as `bench_pipeline: <path>: <error>`, also with status 2.
//!
//! With `--max-2t-slowdown X` the process exits nonzero if the 2-worker
//! total is more than `X` times the sequential total — the CI regression
//! gate for parallel overhead. The JSON also records
//! `available_parallelism`: on a single-core runner a 2-worker speedup
//! above 1.0 is physically impossible, so the gate bounds *overhead*
//! rather than demanding a speedup the hardware cannot deliver.
//!
//! The JSON also records the suite's analysis builds (constructions of
//! CFGs, dominator trees, loop forests, loop geometry and liveness) and
//! dataflow solver work, per program and in total. Those counters are
//! deterministic; `tests/work_counts.rs` pins them exactly.
//!
//! This binary installs [`trace::CountingAlloc`] as its global allocator,
//! so every `PassTiming` row carries real allocator-traffic numbers and
//! the JSON gains a suite-level `alloc_stats` column: allocator
//! calls/bytes of a steady-state sequential compile (second compile of
//! each program on a warm pool, scratch arenas reused).
//! `crates/driver/tests/alloc_budget.rs` holds that count, and the warm
//! front end's below, to a budget.
//!
//! The suite is also run sequentially with structured tracing enabled
//! (`SessionBuilder::trace`). With `--max-trace-overhead X` the process
//! exits nonzero if the traced total exceeds `X` times the untraced total
//! — the gate that keeps the telemetry layer honest about its "near-free
//! when on, free when off" contract. The collected remark streams are
//! concatenated (function names prefixed `program::`) and written as
//! `BENCH_remarks.jsonl` next to the JSON output, so every run leaves an
//! auditable record of what was promoted, what was blocked and why, and
//! what spilled across the whole suite.
//!
//! The front end is measured the same way the middle end is. One warm
//! [`minic::Frontend`] — interner, token buffer, AST pools — is fed the
//! whole suite in order, and each program gets per-phase timings (`lex`,
//! `parse`, `lower`) plus `frontend.alloc_stats`, the allocator traffic
//! of a steady-state compile on the warm buffers. Each program also gets
//! `e2e_ms`: source text through the warm front end and the sequential
//! pipeline to optimized IL, the number a user of `Session::compile`
//! experiences.
//!
//! The **warm-edit** scenario measures incremental recompilation the way
//! a developer experiences it: an incremental [`driver::Session`]
//! compiles [`benchsuite::warm_edit_pair`]'s base program to populate the
//! per-function fingerprint cache, then recompiles the edited variant —
//! one function's body changed, signatures and MOD/REF summaries intact —
//! with the round trip back to the base state kept outside the timed
//! region. The JSON's `warm_edit` object records `funcs_recompiled`,
//! `cache_hit_rate`, the warm-edit end-to-end time, and the cold
//! end-to-end time of the same edited source on a non-incremental
//! session (same warm front end, so the delta is purely the middle end's
//! cache). The warm output is asserted byte-identical to the cold one;
//! `tests/work_counts.rs` pins which functions the edit recompiles.

use bench_harness::timing::measure;
use driver::{run_pipeline_in, Session, WorkerPool};
use std::fmt::Write as _;
use std::path::Path;
use trace::AllocStats;

/// Count every allocation the benchmark makes, so the per-pass and
/// steady-state columns below are measured, not estimated.
#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;

const ITERS: usize = 5;
/// Iterations for the tracing-off/tracing-on pair. The two runs differ
/// by a few percent at most, so the pair gets more samples than the
/// sweep points, and both sides are measured back-to-back (same warmup
/// state, same thermal point) rather than reusing the sweep's
/// sequential number.
const TRACE_ITERS: usize = 15;
/// Iterations for the front-end phase timings and the end-to-end runs.
/// Front-end phases are microseconds each, so they get the most samples.
const FRONT_ITERS: usize = 25;
const FULL_SWEEP: [usize; 4] = [1, 2, 4, 8];

struct Run {
    threads: usize,
    /// Actual pool size: spawned workers plus the submitting thread.
    workers: usize,
    ms: f64,
}

struct ProgramResult {
    name: String,
    runs: Vec<Run>,
    /// `(label, milliseconds, cpu_summed, allocs)` per pass. Fused-chain
    /// passes report per-function time summed across workers (CPU time);
    /// those rows are emitted under a `cpu_ms` key instead of `ms` so they
    /// are never compared against barrier-to-barrier wall times. `allocs`
    /// is the pass's allocator traffic from the same (sequential,
    /// steady-state) reference run.
    passes: Vec<(&'static str, f64, bool, AllocStats)>,
    /// Analysis builds through the shared per-function cache.
    builds: cfg::BuildCounts,
    /// Sequential run time with tracing off, measured back-to-back with
    /// `trace_on_ms` so the pair differs only in tracing.
    trace_off_ms: f64,
    /// Sequential run time with structured tracing enabled.
    trace_on_ms: f64,
    /// Allocator traffic of a steady-state sequential compile: the second
    /// compile of this program on a warm pool, scratch arenas reused.
    alloc_stats: AllocStats,
    /// Dataflow solver work of the sparse worklist solvers.
    dataflow: cfg::DataflowStats,
    /// Front-end phase timings and allocator columns.
    frontend: FrontendResult,
    /// Source text to optimized IL through the warm front end and the
    /// sequential pipeline — what a `Session::compile` caller pays.
    e2e_ms: f64,
}

struct FrontendResult {
    /// Tokenizing into the recycled token buffer.
    lex_ms: f64,
    /// Building the pooled AST from the token buffer.
    parse_ms: f64,
    /// Lowering the pooled AST to an IL module.
    lower_ms: f64,
    /// Allocator traffic of a steady-state compile on the warm front end
    /// (interner populated, token/AST pools at high-water capacity).
    alloc_stats: AllocStats,
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A one-worker session with barrier validation off, so a timed run
/// measures the pipeline alone. Its configuration also drives the
/// sweep's pools: a pool's size, not the configuration, sets the worker
/// count of [`run_pipeline_in`].
fn session(trace: bool) -> Session {
    Session::builder()
        .threads(Some(1))
        .validate_each_pass(false)
        .trace(trace)
        .build()
}

fn alloc_json(a: &AllocStats) -> String {
    format!("{{ \"count\": {}, \"bytes\": {} }}", a.count, a.bytes)
}

fn dataflow_json(s: &cfg::DataflowStats) -> String {
    format!(
        "{{ \"blocks_visited\": {}, \"transfer_evals\": {}, \
         \"worklist_pushes\": {}, \"total\": {} }}",
        s.blocks_visited,
        s.transfer_evals,
        s.worklist_pushes,
        s.total()
    )
}

fn builds_json(c: &cfg::BuildCounts) -> String {
    format!(
        "{{ \"cfg\": {}, \"dom\": {}, \"forest\": {}, \"geometry\": {}, \
         \"liveness\": {}, \"total\": {} }}",
        c.cfg,
        c.dom,
        c.forest,
        c.geometry,
        c.liveness,
        c.total()
    )
}

const USAGE: &str = "usage: bench_pipeline [output-path] [--max-2t-slowdown X] \
     [--max-trace-overhead X] [--force-sweep]";

/// The command line: where to write the JSON, the CI gates, and whether
/// to force the full worker sweep.
#[derive(Debug, Default)]
struct Args {
    out_path: String,
    max_2t_slowdown: Option<f64>,
    max_trace_overhead: Option<f64>,
    force_sweep: bool,
}

/// The value following `flag`, parsed.
fn value<T: std::str::FromStr>(flag: &str, v: Option<String>) -> Result<Option<T>, String> {
    let v = v.ok_or_else(|| format!("{flag} needs a value"))?;
    v.parse()
        .map(Some)
        .map_err(|_| format!("{flag}: cannot parse `{v}`"))
}

/// Parses the arguments after the program name. Every flag must be known
/// and every value must parse; at most one bare argument, the output
/// path, is allowed.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        out_path: "BENCH_pipeline.json".to_string(),
        ..Args::default()
    };
    let mut path_given = false;
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--max-2t-slowdown" => out.max_2t_slowdown = value(&a, args.next())?,
            "--max-trace-overhead" => out.max_trace_overhead = value(&a, args.next())?,
            "--force-sweep" => out.force_sweep = true,
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            _ if path_given => return Err(format!("unexpected argument `{a}`")),
            _ => {
                out.out_path = a;
                path_given = true;
            }
        }
    }
    Ok(out)
}

fn main() {
    let Args {
        out_path,
        max_2t_slowdown,
        max_trace_overhead,
        force_sweep,
    } = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("bench_pipeline: {e}\n{USAGE}");
        std::process::exit(2);
    });

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let sweep: Vec<usize> = if force_sweep {
        FULL_SWEEP.to_vec()
    } else {
        // Keep 1 (the sequential reference) and 2 (the slowdown gate)
        // unconditionally; drop oversubscribed points that only measure
        // context-switch overhead.
        FULL_SWEEP
            .iter()
            .copied()
            .filter(|&t| t <= 2 || t <= 2 * cores)
            .collect()
    };
    let pools: Vec<WorkerPool> = sweep.iter().map(|&t| WorkerPool::new(t)).collect();
    let plain = session(false);
    let traced = session(true);

    let mut results = Vec::new();
    let mut remarks_jsonl = String::new();
    // One warm front end for the whole suite, exactly as a `Session`
    // holds one: every program after the first is compiled on buffers
    // the previous programs warmed.
    let mut warm_fe = minic::Frontend::new();
    for b in benchsuite::SUITE {
        eprintln!("benchmarking {} ...", b.name);
        let module = warm_fe.compile(b.source).expect("suite program compiles");
        // Front-end phase timings on the warm front end. Each phase
        // re-runs on the output of the previous one (the token buffer
        // and AST pools persist between calls).
        let lex_timing = measure(FRONT_ITERS, || {
            warm_fe.lex(b.source).expect("suite program lexes");
        });
        let parse_timing = measure(FRONT_ITERS, || {
            warm_fe.parse_lexed().expect("suite program parses");
        });
        let lower_timing = measure(FRONT_ITERS, || {
            warm_fe.lower_parsed().expect("suite program lowers");
        });
        // Steady-state front-end allocator traffic: the warm compile
        // above plus the timing loops have the pools at high-water
        // capacity; count one more full compile.
        let front_alloc_stats = {
            let before = AllocStats::now();
            warm_fe.compile(b.source).expect("suite program compiles");
            AllocStats::now().since(&before)
        };
        let mut runs = Vec::new();
        let mut reference_il: Option<String> = None;
        let mut passes = Vec::new();
        let mut builds = cfg::BuildCounts::default();
        let mut dataflow = cfg::DataflowStats::default();
        for (&threads, pool) in sweep.iter().zip(&pools) {
            let timing = measure(ITERS, || {
                let mut m = module.clone();
                run_pipeline_in(&mut m, plain.config(), pool);
            });
            // Determinism spot-check while we are here: every worker
            // count must produce byte-identical IL.
            let mut m = module.clone();
            let report = run_pipeline_in(&mut m, plain.config(), pool);
            let il = m.to_string();
            match &reference_il {
                None => {
                    reference_il = Some(il);
                    builds = report.analysis_builds;
                    dataflow = report.dataflow_stats;
                    passes = report
                        .timings
                        .passes
                        .iter()
                        .map(|p| (p.name, ms(p.elapsed), p.cpu_summed, p.allocs))
                        .collect();
                }
                Some(r) => assert_eq!(
                    r, &il,
                    "{}: pipeline at {threads} threads diverged from sequential",
                    b.name
                ),
            }
            runs.push(Run {
                threads,
                workers: pool.threads(),
                ms: ms(timing.min),
            });
        }
        // Steady-state allocator traffic: warm this program's arenas (and
        // every other per-run buffer) with one untimed compile, then count
        // a second compile. The snapshots bracket only the pipeline run —
        // the input module clone is built before the first read.
        let alloc_stats = {
            let mut m = module.clone();
            run_pipeline_in(&mut m, plain.config(), &pools[0]);
            let mut m = module.clone();
            let before = AllocStats::now();
            run_pipeline_in(&mut m, plain.config(), &pools[0]);
            AllocStats::now().since(&before)
        };
        // Tracing overhead: the same sequential pipeline with remark and
        // delta collection off vs on, measured back-to-back so the pair
        // differs only in tracing.
        let trace_off_timing = measure(TRACE_ITERS, || {
            let mut m = module.clone();
            run_pipeline_in(&mut m, plain.config(), &pools[0]);
        });
        let trace_timing = measure(TRACE_ITERS, || {
            let mut m = module.clone();
            run_pipeline_in(&mut m, traced.config(), &pools[0]);
        });
        // Collect the remark stream once (untimed) for the artifact, and
        // assert tracing is observation-only: same IL out.
        {
            let mut m = module.clone();
            let (_, mut log) = traced.optimize(&mut m).expect("suite program optimizes");
            assert_eq!(
                reference_il.as_deref(),
                Some(m.to_string().as_str()),
                "{}: enabling tracing changed the output",
                b.name
            );
            log.prefix_funcs(b.name);
            remarks_jsonl.push_str(&log.to_jsonl());
        }
        // End-to-end: source text to optimized IL. The warm front end and
        // the warm sequential pool are both reused across iterations —
        // the steady state a `Session` delivers.
        let e2e_timing = measure(FRONT_ITERS, || {
            let mut m = warm_fe.compile(b.source).expect("suite program compiles");
            run_pipeline_in(&mut m, plain.config(), &pools[0]);
        });
        results.push(ProgramResult {
            name: b.name.to_string(),
            runs,
            passes,
            builds,
            trace_off_ms: ms(trace_off_timing.min),
            trace_on_ms: ms(trace_timing.min),
            alloc_stats,
            dataflow,
            frontend: FrontendResult {
                lex_ms: ms(lex_timing.min),
                parse_ms: ms(parse_timing.min),
                lower_ms: ms(lower_timing.min),
                alloc_stats: front_alloc_stats,
            },
            e2e_ms: ms(e2e_timing.min),
        });
    }

    // Warm-edit scenario: one function of `compress` edited on an
    // incremental session whose cache holds the base program. Each timed
    // iteration recompiles the edit; the untimed base compile in between
    // restores the cache to the pre-edit state, so every sample measures
    // the same one-function miss rather than an all-hit splice.
    eprintln!("benchmarking warm-edit ...");
    let pair = benchsuite::warm_edit_pair();
    let warm_session = Session::builder()
        .threads(Some(1))
        .incremental(true)
        .build();
    let cold_session = Session::builder().threads(Some(1)).build();
    warm_session.compile(pair.base).expect("base compiles warm");
    let cold_edited = cold_session.compile(&pair.edited).expect("edited compiles");
    let warm_edited = warm_session
        .compile(&pair.edited)
        .expect("edited compiles warm");
    assert_eq!(
        warm_edited.module.to_string(),
        cold_edited.module.to_string(),
        "warm-edit splice diverged from a cold compile"
    );
    let mut warm_edit_incr = warm_edited
        .report
        .incremental
        .clone()
        .expect("incremental session reports cache activity");
    let mut warm_edit_ms = f64::INFINITY;
    for _ in 0..FRONT_ITERS {
        warm_session.compile(pair.base).expect("base compiles warm");
        let started = std::time::Instant::now();
        let c = warm_session
            .compile(&pair.edited)
            .expect("edited compiles warm");
        warm_edit_ms = warm_edit_ms.min(ms(started.elapsed()));
        warm_edit_incr = c
            .report
            .incremental
            .clone()
            .expect("incremental session reports cache activity");
    }
    // The cold side of the comparison: the same edited source through a
    // non-incremental session. Its front end is just as warm, so the
    // delta isolates the per-function cache.
    let cold_edit_timing = measure(FRONT_ITERS, || {
        cold_session.compile(&pair.edited).expect("edited compiles");
    });
    let cold_edit_ms = ms(cold_edit_timing.min);

    let total_at = |ti: usize| -> f64 { results.iter().map(|r| r.runs[ti].ms).sum() };
    let totals: Vec<f64> = (0..sweep.len()).map(total_at).collect();
    let total_seq = totals[0];
    let idx_2t = sweep.iter().position(|&t| t == 2).expect("sweep has 2");
    let total_2t = totals[idx_2t];
    let speedup_2t = total_seq / total_2t.max(1e-9);
    let total_trace_off: f64 = results.iter().map(|r| r.trace_off_ms).sum();
    let total_trace_on: f64 = results.iter().map(|r| r.trace_on_ms).sum();
    let trace_overhead = total_trace_on / total_trace_off.max(1e-9);
    let mut total_builds = cfg::BuildCounts::default();
    let mut total_dataflow = cfg::DataflowStats::default();
    let mut total_allocs = AllocStats::default();
    let mut total_front_allocs = AllocStats::default();
    let total_e2e: f64 = results.iter().map(|r| r.e2e_ms).sum();
    for r in &results {
        total_builds.add(&r.builds);
        total_dataflow.add(&r.dataflow);
        total_allocs.merge(&r.alloc_stats);
        total_front_allocs.merge(&r.frontend.alloc_stats);
    }

    // Hand-rolled JSON: names are suite identifiers and pass labels, none
    // of which need escaping.
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"pipeline\",");
    let _ = writeln!(json, "  \"iters\": {ITERS},");
    let _ = writeln!(json, "  \"available_parallelism\": {cores},");
    let _ = writeln!(
        json,
        "  \"sweep_threads\": [{}],",
        sweep
            .iter()
            .map(|t| t.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(json, "  \"total_sequential_ms\": {total_seq:.3},");
    let _ = writeln!(json, "  \"total_parallel_ms\": {total_2t:.3},");
    let _ = writeln!(json, "  \"total_speedup\": {speedup_2t:.3},");
    let _ = writeln!(json, "  \"total_trace_off_ms\": {total_trace_off:.3},");
    let _ = writeln!(json, "  \"total_trace_on_ms\": {total_trace_on:.3},");
    let _ = writeln!(json, "  \"trace_overhead\": {trace_overhead:.3},");
    let _ = writeln!(
        json,
        "  \"analysis_builds\": {},",
        builds_json(&total_builds)
    );
    let _ = writeln!(
        json,
        "  \"dataflow_stats\": {},",
        dataflow_json(&total_dataflow)
    );
    let _ = writeln!(json, "  \"alloc_stats\": {},", alloc_json(&total_allocs));
    let _ = writeln!(json, "  \"total_e2e_ms\": {total_e2e:.3},");
    let _ = writeln!(
        json,
        "  \"frontend_alloc_stats\": {},",
        alloc_json(&total_front_allocs)
    );
    let _ = writeln!(
        json,
        "  \"warm_edit\": {{ \"program\": \"{}\", \"funcs_total\": {}, \
         \"funcs_recompiled\": {}, \"cache_hits\": {}, \
         \"summary_invalidated\": {}, \"cache_hit_rate\": {:.3}, \
         \"warm_edit_e2e_ms\": {:.3}, \"cold_edit_e2e_ms\": {:.3}, \
         \"speedup\": {:.3} }},",
        pair.name,
        warm_edit_incr.funcs_total,
        warm_edit_incr.funcs_recompiled,
        warm_edit_incr.cache_hits,
        warm_edit_incr.summary_invalidated,
        warm_edit_incr.hit_rate(),
        warm_edit_ms,
        cold_edit_ms,
        cold_edit_ms / warm_edit_ms.max(1e-9)
    );
    json.push_str("  \"totals\": [\n");
    for (i, (&t, total)) in sweep.iter().zip(&totals).enumerate() {
        let comma = if i + 1 < sweep.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{ \"threads\": {t}, \"workers\": {}, \"ms\": {total:.3}, \"speedup\": {:.3} }}{comma}",
            pools[i].threads(),
            total_seq / total.max(1e-9)
        );
    }
    json.push_str("  ],\n");
    json.push_str("  \"programs\": [\n");
    for (i, r) in results.iter().enumerate() {
        json.push_str("    {\n");
        let _ = writeln!(json, "      \"name\": \"{}\",", r.name);
        let _ = writeln!(
            json,
            "      \"analysis_builds\": {},",
            builds_json(&r.builds)
        );
        let _ = writeln!(
            json,
            "      \"dataflow_stats\": {},",
            dataflow_json(&r.dataflow)
        );
        let _ = writeln!(
            json,
            "      \"alloc_stats\": {},",
            alloc_json(&r.alloc_stats)
        );
        let _ = writeln!(
            json,
            "      \"frontend\": {{ \"lex_ms\": {:.4}, \"parse_ms\": {:.4}, \
             \"lower_ms\": {:.4}, \"alloc_stats\": {} }},",
            r.frontend.lex_ms,
            r.frontend.parse_ms,
            r.frontend.lower_ms,
            alloc_json(&r.frontend.alloc_stats)
        );
        let _ = writeln!(json, "      \"e2e_ms\": {:.3},", r.e2e_ms);
        json.push_str("      \"runs\": [\n");
        for (j, run) in r.runs.iter().enumerate() {
            let comma = if j + 1 < r.runs.len() { "," } else { "" };
            let _ = writeln!(
                json,
                "        {{ \"threads\": {}, \"workers\": {}, \"ms\": {:.3}, \"speedup\": {:.3} }}{comma}",
                run.threads,
                run.workers,
                run.ms,
                r.runs[0].ms / run.ms.max(1e-9)
            );
        }
        json.push_str("      ],\n");
        json.push_str("      \"passes\": [\n");
        for (j, (name, pass_ms, cpu_summed, allocs)) in r.passes.iter().enumerate() {
            let comma = if j + 1 < r.passes.len() { "," } else { "" };
            // Fused passes get a distinct key: a consumer looking for
            // "ms" fails loudly on them instead of silently comparing
            // CPU-summed time against historical wall time.
            let key = if *cpu_summed { "cpu_ms" } else { "ms" };
            let _ = writeln!(
                json,
                "        {{ \"name\": \"{name}\", \"{key}\": {pass_ms:.3},                  \"allocs\": {}, \"alloc_bytes\": {} }}{comma}",
                allocs.count, allocs.bytes
            );
        }
        json.push_str("      ]\n");
        let comma = if i + 1 < results.len() { "," } else { "" };
        let _ = writeln!(json, "    }}{comma}");
    }
    json.push_str("  ]\n}\n");
    let remarks_path = Path::new(&out_path).with_file_name("BENCH_remarks.jsonl");
    for (path, contents) in [
        (Path::new(&out_path), &json),
        (&remarks_path, &remarks_jsonl),
    ] {
        if let Err(e) = std::fs::write(path, contents) {
            eprintln!("bench_pipeline: {}: {e}", path.display());
            std::process::exit(2);
        }
    }

    println!("pipeline benchmark ({cores} core(s) available), min of {ITERS} iters:");
    for (i, (&t, total)) in sweep.iter().zip(&totals).enumerate() {
        println!(
            "  threads={t} (pool size {}): {total:8.1} ms  speedup {:.3}x",
            pools[i].threads(),
            total_seq / total.max(1e-9)
        );
    }
    println!("  analysis builds: {}", total_builds.total());
    println!("  dataflow transfers: {}", total_dataflow.transfer_evals);
    println!(
        "  steady-state allocs: {} ({} KiB)",
        total_allocs.count,
        total_allocs.bytes / 1024
    );
    println!(
        "  tracing: {total_trace_off:.1} ms off vs {total_trace_on:.1} ms on \
         ({trace_overhead:.3}x), {} remark records -> {}",
        remarks_jsonl.lines().count(),
        remarks_path.display()
    );
    println!(
        "  front-end allocs: {} ({} KiB)",
        total_front_allocs.count,
        total_front_allocs.bytes / 1024
    );
    println!("  end-to-end (source -> optimized IL): {total_e2e:.1} ms");
    println!(
        "  warm edit ({}): {}/{} funcs recompiled (hit rate {:.3}), \
         {warm_edit_ms:.3} ms warm vs {cold_edit_ms:.3} ms cold ({:.2}x)",
        pair.name,
        warm_edit_incr.funcs_recompiled,
        warm_edit_incr.funcs_total,
        warm_edit_incr.hit_rate(),
        cold_edit_ms / warm_edit_ms.max(1e-9)
    );
    println!("  2-thread speedup {speedup_2t:.3}x -> {out_path}");

    let mut failed = false;
    if let Some(limit) = max_2t_slowdown {
        let slowdown = total_2t / total_seq.max(1e-9);
        if slowdown > limit {
            eprintln!(
                "FAIL: 2-worker run is {slowdown:.3}x the sequential time \
                 (limit {limit:.2}x) — parallel overhead regression"
            );
            failed = true;
        } else {
            println!("  gate: 2-worker slowdown {slowdown:.3}x within limit {limit:.2}x");
        }
    }
    if let Some(limit) = max_trace_overhead {
        if trace_overhead > limit {
            eprintln!(
                "FAIL: tracing-on run is {trace_overhead:.3}x the tracing-off time \
                 (limit {limit:.2}x) — the telemetry layer is no longer near-free"
            );
            failed = true;
        } else {
            println!("  gate: trace overhead {trace_overhead:.3}x within limit {limit:.2}x");
        }
    }
    if failed {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn unknown_flags_are_rejected_not_taken_as_the_output_path() {
        let err = parse(&["BENCH_pipeline.json", "--max-alocs", "2600"]).unwrap_err();
        assert!(err.contains("--max-alocs"), "{err}");
        assert!(parse(&["--no-scratch"]).is_err());
        assert!(parse(&["--fresh-frontend"]).is_err());
        let err = parse(&["--max-allocs", "2600"]).unwrap_err();
        assert!(err.contains("--max-allocs"), "{err}");
    }

    #[test]
    fn gate_values_must_be_present_and_parse() {
        assert!(parse(&["--max-trace-overhead"]).is_err());
        assert!(parse(&["--max-trace-overhead", "many"]).is_err());
        assert!(parse(&["a.json", "b.json"]).is_err());
        let args = parse(&["out.json", "--max-trace-overhead", "1.15", "--force-sweep"]).unwrap();
        assert_eq!(args.out_path, "out.json");
        assert_eq!(args.max_trace_overhead, Some(1.15));
        assert!(args.force_sweep);
    }
}
