//! Pipeline wall-clock benchmark: the two CI timing gates, and the
//! suite's remark stream.
//!
//! Each suite program's pipeline is timed on a one-worker and a
//! two-worker [`driver::WorkerPool`] (min of 5), then on one worker with
//! structured tracing off and on, back-to-back (min of 15). Each minimum
//! follows one untimed warmup (`bench_harness::timing::measure`), and the
//! pools are created once, outside the timing loops, so the numbers
//! measure the steady-state pipeline, not thread spawning. The printed IL
//! is asserted byte-identical across the three kinds of run.
//!
//! Usage: `cargo run --release -p promo-bench --bin bench_pipeline
//!         [output-path] [--max-2t-slowdown X] [--max-trace-overhead X]`
//!
//! The timings go to the output path (default `BENCH_pipeline.json`),
//! and the suite's remark streams, function names prefixed `program::`,
//! to `BENCH_remarks.jsonl` beside it.
//!
//! `--max-2t-slowdown X` exits with status 1 if the 2-worker total is
//! more than `X` times the 1-worker total; on a single-core runner a
//! speedup is impossible, so the gate bounds overhead (the JSON records
//! `available_parallelism`). `--max-trace-overhead X` exits with status 1
//! if the traced total exceeds `X` times the untraced one, keeping the
//! telemetry layer "near-free when on, free when off". An unknown flag,
//! a second output path, a missing or unparsable value, or an output
//! file that cannot be written exits with status 2 and a message, so a
//! misspelled gate is never dropped silently.
//!
//! Per-layer times come from the repository benchmark's traced run
//! (`promo-benchmark --trace 1`); the work counters are pinned by
//! `tests/work_counts.rs` and the allocations bounded by
//! `crates/driver/tests/alloc_budget.rs`.

use bench_harness::timing::measure;
use driver::{run_pipeline_in, Session, WorkerPool};
use std::fmt::Write as _;
use std::path::Path;

/// Iterations for the one-worker/two-worker pair.
const ITERS: usize = 5;
/// Iterations for the tracing-off/tracing-on pair. The two runs differ
/// by a few percent at most, so the pair gets more samples.
const TRACE_ITERS: usize = 15;
/// The per-program minimum times, in milliseconds, by JSON key: the two
/// gates' pairs, 1 vs 2 workers and tracing off vs on.
const KEYS: [&str; 4] = [
    "sequential_ms",
    "parallel_ms",
    "trace_off_ms",
    "trace_on_ms",
];

/// A one-worker session. The pool handed to [`run_pipeline_in`], not this
/// configuration, sets a timed run's worker count.
fn session(trace: bool) -> Session {
    Session::builder().threads(Some(1)).trace(trace).build()
}

const USAGE: &str =
    "usage: bench_pipeline [output-path] [--max-2t-slowdown X] [--max-trace-overhead X]";

/// The command line: where to write the JSON, and the CI gates.
#[derive(Debug, Default)]
struct Args {
    out_path: String,
    max_2t_slowdown: Option<f64>,
    max_trace_overhead: Option<f64>,
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

/// Checks one gate: prints the reading, and returns whether it failed.
fn gate(what: &str, ratio: f64, limit: Option<f64>) -> bool {
    let Some(limit) = limit else { return false };
    if ratio > limit {
        eprintln!("FAIL: {what} {ratio:.3}x exceeds limit {limit:.2}x");
        return true;
    }
    println!("  gate: {what} {ratio:.3}x within limit {limit:.2}x");
    false
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("bench_pipeline: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let (pool_1t, pool_2t) = (WorkerPool::new(1), WorkerPool::new(2));
    let (plain, traced) = (session(false), session(true));

    let mut results: Vec<(&str, [f64; 4])> = Vec::new();
    let mut remarks_jsonl = String::new();
    for b in benchsuite::SUITE {
        eprintln!("benchmarking {} ...", b.name);
        let module = minic::compile(b.source).expect("suite program compiles");
        let time = |iters, s: &Session, pool| {
            let run = measure(iters, || {
                run_pipeline_in(&mut module.clone(), s.config(), pool);
            });
            run.min.as_secs_f64() * 1e3
        };
        let times = [
            time(ITERS, &plain, &pool_1t),
            time(ITERS, &plain, &pool_2t),
            time(TRACE_ITERS, &plain, &pool_1t),
            time(TRACE_ITERS, &traced, &pool_1t),
        ];
        // Untimed: one more run of each kind, to check that neither the
        // second worker nor tracing changes the IL, and to collect the
        // remark stream.
        let il = |pool| {
            let mut m = module.clone();
            run_pipeline_in(&mut m, plain.config(), pool);
            m.to_string()
        };
        let reference = il(&pool_1t);
        assert_eq!(reference, il(&pool_2t), "{}: 2 workers diverged", b.name);
        let mut m = module.clone();
        let (_, mut log) = traced.optimize(&mut m).expect("suite program optimizes");
        assert_eq!(reference, m.to_string(), "{}: tracing changed IL", b.name);
        log.prefix_funcs(b.name);
        remarks_jsonl.push_str(&log.to_jsonl());
        results.push((b.name, times));
    }
    let totals: [f64; 4] = std::array::from_fn(|k| results.iter().map(|(_, t)| t[k]).sum());
    let [total_seq, total_2t, total_trace_off, total_trace_on] = totals;
    let slowdown_2t = total_2t / total_seq.max(1e-9);
    let trace_overhead = total_trace_on / total_trace_off.max(1e-9);

    // Hand-rolled JSON: the names are suite identifiers, none of which
    // need escaping.
    let mut json = format!(
        "{{\n  \"bench\": \"pipeline\",\n  \"iters\": {ITERS},\n  \
         \"trace_iters\": {TRACE_ITERS},\n  \"available_parallelism\": {cores},\n"
    );
    for (k, v) in KEYS.iter().zip(totals) {
        let _ = writeln!(json, "  \"total_{k}\": {v:.3},");
    }
    let _ = writeln!(json, "  \"total_speedup\": {:.3},", 1.0 / slowdown_2t);
    let _ = writeln!(json, "  \"trace_overhead\": {trace_overhead:.3},");
    json.push_str("  \"programs\": [\n");
    for (i, (name, times)) in results.iter().enumerate() {
        let fields: Vec<String> = KEYS
            .iter()
            .zip(times)
            .map(|(k, v)| format!("\"{k}\": {v:.3}"))
            .collect();
        let comma = if i + 1 < results.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{ \"name\": \"{name}\", {} }}{comma}",
            fields.join(", ")
        );
    }
    json.push_str("  ]\n}\n");
    let remarks_path = Path::new(&args.out_path).with_file_name("BENCH_remarks.jsonl");
    for (path, contents) in [
        (Path::new(&args.out_path), &json),
        (&remarks_path, &remarks_jsonl),
    ] {
        if let Err(e) = std::fs::write(path, contents) {
            eprintln!("bench_pipeline: {}: {e}", path.display());
            std::process::exit(2);
        }
    }

    println!("pipeline benchmark ({cores} core(s) available):");
    println!(
        "  1 worker {total_seq:.1} ms vs 2 workers {total_2t:.1} ms (min of {ITERS}) -> {}",
        args.out_path
    );
    println!(
        "  tracing off {total_trace_off:.1} ms vs on {total_trace_on:.1} ms \
         (min of {TRACE_ITERS}), {} remark records -> {}",
        remarks_jsonl.lines().count(),
        remarks_path.display()
    );
    let failed_2t = gate("2-worker slowdown", slowdown_2t, args.max_2t_slowdown);
    let failed_trace = gate("trace overhead", trace_overhead, args.max_trace_overhead);
    if failed_2t || failed_trace {
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
        let err = parse(&["--force-sweep"]).unwrap_err();
        assert!(err.contains("--force-sweep"), "{err}");
    }

    #[test]
    fn gate_values_must_be_present_and_parse() {
        assert!(parse(&["--max-trace-overhead"]).is_err());
        assert!(parse(&["--max-trace-overhead", "many"]).is_err());
        assert!(parse(&["a.json", "b.json"]).is_err());
        let args = parse(&["out.json", "--max-trace-overhead", "1.15"]).unwrap();
        assert_eq!(args.out_path, "out.json");
        assert_eq!(args.max_trace_overhead, Some(1.15));
    }
}
