//! Differential fuzzing CLI.
//!
//! ```text
//! promo-fuzz [--seed N] [--count N] [--edit N] [--time-budget SECS]
//!            [--reduce] [--out DIR] [--max-steps N] [--replay FILE]...
//!            [--sabotage]
//! ```
//!
//! Checks `count` generated programs (seeds `seed..seed+count`) against
//! the differential oracle, optionally reducing and persisting every
//! failure under `--out` (default `results/fuzz/`). Exits nonzero when
//! any oracle violation was found, so CI can gate on it.
//!
//! `--edit N` applies N cumulative single-function mutations after each
//! passing seed and holds every mutant to the oracle matrix plus the
//! incremental-recompilation differential (a persistent warm session vs
//! a cold one). `--replay FILE` skips generation and runs the oracle on
//! an existing reproducer (repeatable). `--sabotage` plants a deliberate
//! miscompile in the default arm — a self-test that must *fail*.

use fuzz::{run_campaign, CampaignOptions, Oracle, Verdict};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

fn parse_u64(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: promo-fuzz [--seed N] [--count N] [--edit N] [--time-budget SECS] \
         [--reduce] [--out DIR] [--max-steps N] [--replay FILE]... [--sabotage]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut options = CampaignOptions {
        count: 100,
        out_dir: Some(PathBuf::from("results/fuzz")),
        ..CampaignOptions::default()
    };
    let mut replays: Vec<PathBuf> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| -> Option<String> {
            let v = args.next();
            if v.is_none() {
                eprintln!("promo-fuzz: {name} needs a value");
            }
            v
        };
        match arg.as_str() {
            "--seed" => match value("--seed").and_then(|v| parse_u64(&v)) {
                Some(v) => options.seed = v,
                None => return usage(),
            },
            "--count" => match value("--count").and_then(|v| parse_u64(&v)) {
                Some(v) => options.count = v,
                None => return usage(),
            },
            "--edit" => match value("--edit").and_then(|v| parse_u64(&v)) {
                Some(v) => options.edits = v,
                None => return usage(),
            },
            "--time-budget" => match value("--time-budget").and_then(|v| parse_u64(&v)) {
                Some(v) => options.time_budget = Some(Duration::from_secs(v)),
                None => return usage(),
            },
            "--max-steps" => match value("--max-steps").and_then(|v| parse_u64(&v)) {
                Some(v) => options.oracle.max_steps = v,
                None => return usage(),
            },
            "--out" => match value("--out") {
                Some(v) => options.out_dir = Some(PathBuf::from(v)),
                None => return usage(),
            },
            "--replay" => match value("--replay") {
                Some(v) => replays.push(PathBuf::from(v)),
                None => return usage(),
            },
            "--dump" => match value("--dump").and_then(|v| parse_u64(&v)) {
                Some(v) => {
                    print!("{}", fuzz::generate(v).render());
                    return ExitCode::SUCCESS;
                }
                None => return usage(),
            },
            "--reduce" => options.reduce = true,
            "--sabotage" => options.oracle.sabotage = true,
            _ => {
                eprintln!("promo-fuzz: unknown argument {arg:?}");
                return usage();
            }
        }
    }

    if !replays.is_empty() {
        let oracle = Oracle::new(options.oracle.clone());
        let mut bad = 0u32;
        for path in &replays {
            let source = match std::fs::read_to_string(path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("promo-fuzz: cannot read {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            };
            match oracle.check(&source) {
                Verdict::Pass => println!("{}: pass", path.display()),
                Verdict::Skip(why) => println!("{}: skip ({why})", path.display()),
                Verdict::Fail(f) => {
                    bad += 1;
                    println!(
                        "{}: FAIL [{} / {}] {}",
                        path.display(),
                        f.arm.label(),
                        f.kind.label(),
                        f.detail
                    );
                }
            }
        }
        return if bad == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    let summary = match run_campaign(&options) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("promo-fuzz: corpus I/O error: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "promo-fuzz: {} checked ({} passed, {} skipped, {} failed{}) from seed {:#x}",
        summary.checked,
        summary.passed,
        summary.skipped,
        summary.failures.len(),
        if summary.edits_checked > 0 {
            format!(
                ", {} edit-mode mutants, {} cache hits, {} evictions",
                summary.edits_checked, summary.cache_hits, summary.evictions
            )
        } else {
            String::new()
        },
        options.seed,
    );
    let s = &summary.stats;
    println!(
        "  constructs: {} globals, {} ptr-globals, {} derefs, {} addr-of-local, \
         {} indexes, {} mallocs, {} for / {} while / {} do, {} ifs, {} calls, \
         {} recursive-helpers, {} breaks, {} continues",
        s.globals,
        s.global_ptrs,
        s.derefs,
        s.addr_of_local,
        s.indexes,
        s.mallocs,
        s.fors,
        s.whiles,
        s.do_whiles,
        s.ifs,
        s.calls,
        s.recursive_helpers,
        s.breaks,
        s.continues,
    );
    for f in &summary.failures {
        println!(
            "  seed {:#x}: [{} / {}] {}{}",
            f.seed,
            f.failure.arm.label(),
            f.failure.kind.label(),
            f.failure.detail,
            f.reduced_statements
                .map(|n| format!(" (reduced to {n} statements)"))
                .unwrap_or_default(),
        );
    }
    if summary.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        if let Some(dir) = &options.out_dir {
            println!("  corpus written under {}", dir.display());
        }
        ExitCode::FAILURE
    }
}
