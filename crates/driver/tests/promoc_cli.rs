//! End-to-end tests of the `promoc` command line: each test writes a MiniC
//! file, runs the built binary on it, and checks its exit status and what
//! it printed. Every run must finish within [`DEADLINE`]; a hang fails the
//! test instead of stalling the suite.

use driver::prelude::AnalysisLevel;
use driver::Session;
use std::io::Read;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const DEADLINE: Duration = Duration::from_secs(5);

/// A global updated in a loop. Its initializing store lets value
/// numbering forward the value into the landing pad, so once promoted the
/// loop executes no load at all.
const LOOP: &str = "int g;
int main() {
    int i;
    g = 0;
    for (i = 0; i < 100; i++) g = g + i;
    print_int(g);
    return 0;
}
";

/// What one `promoc` run left behind.
struct Run {
    code: Option<i32>,
    stdout: String,
    stderr: String,
}

/// Writes `source` to a file of its own and runs `promoc <cmd> FILE
/// <flags>` on it.
fn promoc(name: &str, source: &str, cmd: &str, flags: &[&str]) -> Run {
    let path: PathBuf =
        std::env::temp_dir().join(format!("promoc-cli-{}-{name}.c", std::process::id()));
    std::fs::write(&path, source).expect("write the source file");
    let file = path.to_str().expect("a UTF-8 temp path");
    let args: Vec<&str> = [cmd, file].iter().chain(flags).copied().collect();
    let run = promoc_args(&args);
    let _ = std::fs::remove_file(&path);
    run
}

/// Runs `promoc <args>`, killing the process if it outlives [`DEADLINE`].
fn promoc_args(args: &[&str]) -> Run {
    let mut child = Command::new(env!("CARGO_BIN_EXE_promoc"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn promoc");
    let stdout = drain(child.stdout.take().expect("piped stdout"));
    let stderr = drain(child.stderr.take().expect("piped stderr"));
    let start = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll promoc") {
            break status;
        }
        if start.elapsed() > DEADLINE {
            child.kill().expect("kill promoc");
            child.wait().expect("reap promoc");
            panic!("promoc {args:?} ran past {DEADLINE:?}");
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    Run {
        code: status.code(),
        stdout: stdout.join().expect("stdout reader"),
        stderr: stderr.join().expect("stderr reader"),
    }
}

/// Reads `pipe` to its end on a thread of its own, so a large output
/// cannot fill the pipe and stall the process while it is polled.
fn drain(mut pipe: impl Read + Send + 'static) -> JoinHandle<String> {
    std::thread::spawn(move || {
        let mut text = String::new();
        pipe.read_to_string(&mut text).expect("read promoc output");
        text
    })
}

/// Asserts that `run` failed with status 1 and a diagnostic naming `want`.
fn assert_rejected(run: &Run, want: &str) {
    assert_eq!(run.code, Some(1), "stderr: {}", run.stderr);
    assert!(run.stderr.starts_with("promoc: "), "{}", run.stderr);
    assert!(run.stderr.contains(want), "{}", run.stderr);
    assert!(!run.stderr.contains("panicked"), "{}", run.stderr);
}

#[test]
fn run_prints_the_output_and_a_load_free_executed_line() {
    let run = promoc("run", LOOP, "run", &[]);
    assert_eq!(run.code, Some(0), "stderr: {}", run.stderr);
    assert_eq!(run.stdout, "4950\n");
    let executed = run
        .stderr
        .lines()
        .find(|l| l.starts_with("; executed"))
        .unwrap_or_else(|| panic!("no executed line in {}", run.stderr));
    assert!(executed.contains(" loads=0 "), "{executed}");
}

#[test]
fn compile_prints_the_sessions_module() {
    let run = promoc("compile", LOOP, "compile", &[]);
    assert_eq!(run.code, Some(0), "stderr: {}", run.stderr);
    let module = Session::default().compile(LOOP).expect("compiles").module;
    assert_eq!(run.stdout, module.to_string());
}

#[test]
fn trace_json_on_stdout_is_the_sessions_trace() {
    let run = promoc("trace", LOOP, "run", &["--trace-json", "-"]);
    assert_eq!(run.code, Some(0), "stderr: {}", run.stderr);
    let want = Session::builder()
        .trace(true)
        .build()
        .compile(LOOP)
        .expect("compiles")
        .trace;
    // The JSONL comes first, then the program's own output.
    let jsonl = run
        .stdout
        .strip_suffix("4950\n")
        .unwrap_or_else(|| panic!("no program output after the trace: {}", run.stdout));
    let log = trace::TraceLog::from_jsonl(jsonl).expect("promoc prints valid JSONL");
    assert!(!log.is_empty());
    assert_eq!(log.records, want.records);
}

#[test]
fn a_run_past_its_step_budget_still_prints_its_remarks() {
    let run = promoc("steps", LOOP, "run", &["--remarks", "--max-steps", "10"]);
    assert_eq!(run.code, Some(1), "stderr: {}", run.stderr);
    assert_eq!(run.stdout, "");
    let (remarks, last) = run
        .stderr
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or_else(|| panic!("no remarks before the fault: {}", run.stderr));
    assert!(
        remarks.contains("remark: @main: promote: 'g:g' promoted in loop"),
        "{remarks}"
    );
    assert!(
        remarks.lines().all(|l| l.starts_with("remark: ")),
        "{remarks}"
    );
    assert_eq!(last, "promoc: vm fault: step limit of 10 exceeded");
}

#[test]
fn an_unknown_flag_is_named() {
    let run = promoc("flag", LOOP, "run", &["--bogus"]);
    assert_ne!(run.code, Some(0));
    assert!(run.stderr.contains("--bogus"), "{}", run.stderr);
}

/// Asserts that `run` answered an argument its command does not take the
/// way `run` and `compile` answer an unknown flag: status 1, one
/// `promoc:` line naming `extra`, and nothing on stdout.
fn assert_extra_rejected(run: &Run, extra: &str) {
    assert_rejected(run, &format!("unknown flag `{extra}`"));
    assert_eq!(run.stderr.lines().count(), 1, "{}", run.stderr);
    assert_eq!(run.stdout, "");
}

#[test]
fn measure_names_an_extra_argument() {
    let run = promoc(
        "measure-extra",
        LOOP,
        "measure",
        &["--regs", "1", "--bogus"],
    );
    assert_extra_rejected(&run, "--regs");
}

#[test]
fn bench_names_an_extra_argument() {
    assert_extra_rejected(&promoc_args(&["bench", "mlink", "--no-opt"]), "--no-opt");
}

#[test]
fn suite_names_an_extra_argument() {
    assert_extra_rejected(&promoc_args(&["suite", "extra"]), "extra");
}

#[test]
fn measure_reports_a_file_that_does_not_compile() {
    let run = promoc("measure", "int main() { return x; }\n", "measure", &[]);
    assert_rejected(&run, "unknown identifier `x`");
}

#[test]
fn a_register_file_below_two_is_reported() {
    for regs in ["0", "1"] {
        let run = promoc(&format!("regs{regs}"), LOOP, "run", &["--regs", regs]);
        assert_rejected(&run, "at least 2 registers");
    }
}

#[test]
fn a_register_file_below_a_functions_arity_is_reported() {
    let source = "int f(int a, int b, int c) { return a + b + c; }
int main() { print_int(f(1, 2, 3)); return 0; }
";
    let run = promoc("arity", source, "run", &["--regs", "2"]);
    assert_rejected(&run, "3 registers for @f");
}

#[test]
fn an_oversized_register_file_sizes_nothing_by_it() {
    // Neither the allocator's select mask nor the program's frames may
    // be sized by the requested count: at `usize::MAX` either aborts.
    let source = "int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }
int main() { print_int(fib(15)); return 0; }
";
    let run = promoc(
        "huge-regs",
        source,
        "run",
        &["--regs", "18446744073709551615"],
    );
    assert_eq!(run.code, Some(0), "stderr: {}", run.stderr);
    assert_eq!(run.stdout, "610\n");
}

#[test]
fn analysis_levels_are_named_by_their_labels() {
    for level in AnalysisLevel::ALL {
        let run = promoc(level.label(), LOOP, "run", &["--analysis", level.label()]);
        assert_eq!(run.code, Some(0), "{level}: {}", run.stderr);
        assert_eq!(run.stdout, "4950\n", "{level}");
    }
    let run = promoc("pointer-ssa", LOOP, "run", &["--analysis", "pointer-ssa"]);
    assert_rejected(
        &run,
        "unknown analysis level `pointer-ssa` (expected one of: addrtaken, modref, steens, pointer)",
    );
    assert_eq!(run.stderr.lines().count(), 1, "{}", run.stderr);
    assert_eq!(run.stdout, "");
}

/// Reduced from generated program 49220: at 4 registers each spill round
/// of `@f2` re-spills the temporary the previous round rematerialized,
/// until the round bound stops it.
const NONCONVERGING_AT_4: &str = "int g0 = 2;
int g1 = 4;
int f0(int d, int a, int b) {
    return 0;
}
int f2(int a, int b) {
    g1 = ((-(0 - 1)) < f0(6, 1, 9));
    if ((!f0(5, 13, b))) {
        g0 = (a <= (b == a));
    }
    return 0;
}
int main() {
    print_int(f2(1, 2));
    return 0;
}
";

#[test]
fn an_allocation_that_does_not_converge_is_reported() {
    let run = promoc("livelock", NONCONVERGING_AT_4, "run", &["--regs", "4"]);
    assert_rejected(&run, "@f2 onto 4 registers did not converge");
    assert_eq!(run.stderr.lines().count(), 1, "{}", run.stderr);
    // One register more, and the same program compiles and runs.
    let run = promoc("livelock5", NONCONVERGING_AT_4, "run", &["--regs", "5"]);
    assert_eq!(run.code, Some(0), "stderr: {}", run.stderr);
    assert_eq!(run.stdout, "0\n");
}

#[test]
fn a_malloc_the_vm_cannot_hold_is_reported() {
    let source = "int main() {
    int *p;
    p = malloc(4611686018427387904);
    p[0] = 1;
    print_int(p[0]);
    return 0;
}
";
    let run = promoc("huge-malloc", source, "run", &[]);
    assert_rejected(&run, "out of memory: malloc of 4611686018427387904 cells");
}

#[test]
fn pointer_arithmetic_wraps_in_every_build() {
    // a + big + big + 2 wraps back onto a[0]; a debug build used to
    // panic with "attempt to add with overflow".
    let source = "int a[4];
int main() {
    int *p;
    int big;
    big = 9223372036854775807;
    a[0] = 7;
    p = a;
    p = p + big;
    p = p + big;
    p = p + 2;
    print_int(*p);
    return 0;
}
";
    for flags in [
        &[][..],
        &["--no-opt"],
        &["--analysis", "pointer", "--ptr-promote"],
    ] {
        let run = promoc("ptr-wrap", source, "run", flags);
        assert_eq!(run.code, Some(0), "{flags:?}: {}", run.stderr);
        assert_eq!(run.stdout, "7\n", "{flags:?}");
    }
}

/// Inputs that nested deeper than a thread's stack: 20,000 parentheses,
/// 20,000 blocks, and a sum of 50,000 terms.
fn too_deep() -> [(&'static str, String); 3] {
    [
        (
            "parens",
            format!(
                "int main() {{ return {}1{}; }}\n",
                "(".repeat(20_000),
                ")".repeat(20_000)
            ),
        ),
        (
            "blocks",
            format!(
                "int main() {{ {}{} return 0; }}\n",
                "{".repeat(20_000),
                "}".repeat(20_000)
            ),
        ),
        (
            "sum",
            format!(
                "int main() {{ int x = 1; return x{}; }}\n",
                "+x".repeat(49_999)
            ),
        ),
    ]
}

#[test]
fn nesting_past_the_bound_is_reported() {
    let want = format!("nesting deeper than {} levels", minic::MAX_NESTING);
    for (name, source) in too_deep() {
        let run = promoc(&format!("deep-{name}"), &source, "run", &[]);
        assert_rejected(&run, &want);
        assert_eq!(run.stderr.lines().count(), 1, "{}", run.stderr);
    }
}

#[test]
fn a_session_on_a_small_stack_recovers_from_too_deep_input() {
    let suite = benchsuite::SUITE.first().expect("a suite program");
    let fresh = Session::default()
        .compile(suite.source)
        .expect("compiles")
        .module
        .to_string();
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(move || {
            let session = Session::builder().threads(Some(1)).build();
            for (name, source) in too_deep() {
                let e = session.compile(&source).expect_err(name);
                assert!(e.to_string().contains("nesting deeper than"), "{name}: {e}");
                let il = session.compile(suite.source).expect("compiles");
                assert!(
                    il.module.to_string() == fresh,
                    "{} after rejecting {name} differs from a fresh session's IL",
                    suite.name
                );
            }
        })
        .expect("spawn")
        .join()
        .expect("no stack overflow or panic");
}
