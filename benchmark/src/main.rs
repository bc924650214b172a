//! `promo-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! [--out FILE] [--spans FILE]`
//!
//! Runs one workload, prints every metric as `name value unit` followed
//! by `#` notes, and prints as its last line one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`. With
//! `--trace 0` (the default) the metrics are the end-to-end ones, with
//! `--trace 1` the per-layer ones. `--out` writes the full report as
//! JSON and `--spans` writes a traced run's spans as JSON lines.

use promo_benchmark::{run, Options, Size, Workload, DEFAULT_SEED};
use std::process::ExitCode;

const USAGE: &str = "usage: promo-benchmark --workload <suite|pressure|generated|edit> \
                     [--seed N] [--seconds S] [--trace 0|1] [--out FILE] [--spans FILE]";

struct Args {
    options: Options,
    out: Option<String>,
    spans: Option<String>,
}

fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 20.0;
    let mut trace = false;
    let (mut out, mut spans) = (None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = parse_seed(&value).ok_or_else(bad)?,
            "--seconds" => {
                seconds = value.parse::<f64>().map_err(|_| bad())?;
                if !(seconds.is_finite() && seconds > 0.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => out = Some(value),
            "--spans" => spans = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        options: Options {
            workload: workload.ok_or("--workload is required")?,
            seed,
            trace,
            size: Size::full(seconds),
        },
        out,
        spans,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&args.options) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("benchmark aborted: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", report.text());
    let written = write(args.out, || report.to_json())
        .and_then(|()| write(args.spans, || report.spans_jsonl()));
    if let Err(e) = written {
        eprintln!("{e}");
        return ExitCode::FAILURE;
    }
    println!("{}", report.result_line());
    ExitCode::SUCCESS
}

fn write(path: Option<String>, contents: impl FnOnce() -> String) -> Result<(), String> {
    match path {
        Some(path) => {
            std::fs::write(&path, contents()).map_err(|e| format!("cannot write {path}: {e}"))
        }
        None => Ok(()),
    }
}
