//! `promoc` — the register-promotion compiler, as a command-line tool.
//!
//! ```text
//! promoc run     FILE [flags]      compile, optimize, execute, report counts
//! promoc compile FILE [flags]      print the optimized IL
//! promoc measure FILE              the paper's 2x2 experiment on one file
//! promoc bench   NAME              the 2x2 experiment on a suite program
//! promoc suite                     list the benchmark suite
//!
//! flags:
//!   --analysis addrtaken|modref|steens|pointer   (default modref)
//!   --no-promote          disable register promotion
//!   --ptr-promote         enable §3.3 pointer-based promotion
//!   --no-opt              disable the scalar optimizer
//!   --no-regalloc         keep virtual registers
//!   --regs K              machine registers (default 32)
//!   --max-steps N         VM step budget for `run`
//!   --remarks             print optimization remarks to stderr
//!   --trace-json PATH     write the structured trace as JSONL ("-" = stdout)
//! ```

use analysis::AnalysisLevel;
use driver::{measure_program, Compilation, Metric, Session};
use regalloc::AllocOptions;
use std::process::ExitCode;
use vm::VmOptions;

fn usage() -> ! {
    eprintln!("{}", HELP.trim());
    std::process::exit(2);
}

const HELP: &str = r#"
promoc — the register-promotion compiler (Cooper & Lu, PLDI 1997)

usage:
  promoc run     FILE [flags]   compile, optimize, execute, report counts
  promoc compile FILE [flags]   print the optimized IL
  promoc measure FILE           the paper's 2x2 experiment on one file
  promoc bench   NAME           the 2x2 experiment on a suite program
  promoc suite                  list the benchmark suite

flags:
  --analysis addrtaken|modref|steens|pointer   (default modref)
  --no-promote      disable register promotion
  --ptr-promote     enable §3.3 pointer-based promotion
  --no-opt          disable the scalar optimizer
  --no-regalloc     keep virtual registers
  --regs K          machine registers (default 32)
  --max-steps N     VM step budget for `run`
  --remarks         print optimization remarks (what was promoted where,
                    what was blocked and why, what spilled) to stderr
  --trace-json PATH write the structured trace as JSONL; "-" for stdout
"#;

struct Options {
    builder: driver::SessionBuilder,
    vm: VmOptions,
    remarks: bool,
    trace_json: Option<String>,
}

fn parse_flags(args: &[String]) -> Result<Options, String> {
    let mut builder = Session::builder();
    let mut vm = VmOptions::default();
    let mut remarks = false;
    let mut trace_json: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--analysis" => {
                i += 1;
                let name = args.get(i).ok_or("--analysis needs a value")?;
                let level = AnalysisLevel::ALL
                    .into_iter()
                    .find(|l| l.label() == name)
                    .ok_or_else(|| {
                        format!(
                            "unknown analysis level `{name}` (expected one of: {})",
                            AnalysisLevel::ALL.map(AnalysisLevel::label).join(", ")
                        )
                    })?;
                builder = builder.analysis(level);
            }
            "--no-promote" => builder = builder.promote(false),
            "--ptr-promote" => builder = builder.pointer_promote(true),
            "--no-opt" => builder = builder.optimize(false),
            "--no-regalloc" => builder = builder.regalloc(None),
            "--regs" => {
                i += 1;
                let k: usize = args
                    .get(i)
                    .ok_or("--regs needs a value")?
                    .parse()
                    .map_err(|_| "--regs needs an integer")?;
                builder = builder.regalloc(Some(AllocOptions {
                    num_regs: k,
                    ..Default::default()
                }));
            }
            "--max-steps" => {
                i += 1;
                vm.max_steps = args
                    .get(i)
                    .ok_or("--max-steps needs a value")?
                    .parse()
                    .map_err(|_| "--max-steps needs an integer")?;
            }
            "--remarks" => remarks = true,
            "--trace-json" => {
                i += 1;
                trace_json = Some(args.get(i).ok_or("--trace-json needs a path")?.clone());
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
        i += 1;
    }
    if remarks || trace_json.is_some() {
        builder = builder.trace(true);
    }
    Ok(Options {
        builder,
        vm,
        remarks,
        trace_json,
    })
}

/// Emits the requested trace outputs: remarks to stderr, JSONL to the
/// requested path (or stdout for `-`).
fn emit_trace(opts: &Options, c: &Compilation) -> Result<(), String> {
    if opts.remarks {
        eprint!("{}", c.remarks_text());
    }
    if let Some(path) = &opts.trace_json {
        let jsonl = c.trace_jsonl();
        if path == "-" {
            print!("{jsonl}");
        } else {
            std::fs::write(path, jsonl).map_err(|e| format!("{path}: {e}"))?;
        }
    }
    Ok(())
}

fn cmd_run(path: &str, opts: Options) -> Result<(), String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let session = opts.builder.clone().build();
    let c = session.compile(&src).map_err(|e| e.to_string())?;
    // The trace goes out before the run, so a run that faults still
    // reports what was promoted or blocked.
    emit_trace(&opts, &c)?;
    let outcome = c.run(opts.vm).map_err(|e| e.to_string())?;
    for line in &outcome.output {
        println!("{line}");
    }
    eprintln!("; exit code  {}", outcome.exit_code);
    eprintln!(
        "; executed   total={} loads={} stores={} copies={} calls={}",
        outcome.counts.total,
        outcome.counts.loads,
        outcome.counts.stores,
        outcome.counts.copies,
        outcome.counts.calls
    );
    eprintln!(
        "; promotion  {} tags, {} refs rewritten, {} lift ops",
        c.report.promotion.scalar.promoted_tags,
        c.report.promotion.scalar.rewritten_refs,
        c.report.promotion.scalar.lifts
    );
    if let Some(a) = &c.report.alloc {
        eprintln!(
            "; regalloc   {} coalesced, {} spilled, {} rematerialized",
            a.coalesced, a.spilled, a.rematerialized
        );
    }
    Ok(())
}

fn cmd_compile(path: &str, opts: Options) -> Result<(), String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let session = opts.builder.clone().build();
    let c = session.compile(&src).map_err(|e| e.to_string())?;
    emit_trace(&opts, &c)?;
    print!("{}", c.module);
    Ok(())
}

/// Rejects the arguments left after a command that takes no flags,
/// naming the first.
fn no_flags(rest: &[String]) -> Result<(), String> {
    rest.first()
        .map_or(Ok(()), |extra| Err(format!("unknown flag `{extra}`")))
}

fn cmd_measure(name: &str, source: &str) -> Result<(), String> {
    let rows = measure_program(name, source).map_err(|e| e.to_string())?;
    for metric in [Metric::TotalOps, Metric::Stores, Metric::Loads] {
        println!("{}", driver::render_figure(metric, &rows));
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    let result = match cmd.as_str() {
        "run" | "compile" => {
            let Some(path) = args.get(1) else { usage() };
            match parse_flags(&args[2..]) {
                Ok(opts) if cmd == "run" => cmd_run(path, opts),
                Ok(opts) => cmd_compile(path, opts),
                Err(e) => Err(e),
            }
        }
        "measure" => {
            let Some(path) = args.get(1) else { usage() };
            no_flags(&args[2..]).and_then(|()| match std::fs::read_to_string(path) {
                Ok(src) => cmd_measure(path, &src),
                Err(e) => Err(format!("{path}: {e}")),
            })
        }
        "bench" => {
            let Some(name) = args.get(1) else { usage() };
            no_flags(&args[2..]).and_then(|()| match benchsuite::find(name) {
                Some(b) => cmd_measure(b.name, b.source),
                None => Err(format!("unknown benchmark `{name}`; try `promoc suite`")),
            })
        }
        "suite" => no_flags(&args[1..]).map(|()| {
            for b in benchsuite::SUITE {
                println!("{:<10} {}", b.name, b.description);
            }
        }),
        "--help" | "-h" | "help" => {
            println!("{}", HELP.trim());
            Ok(())
        }
        _ => usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("promoc: {e}");
            ExitCode::FAILURE
        }
    }
}
