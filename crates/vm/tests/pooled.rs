//! A run takes its decode tables, objects, cell buffers and register
//! files from what earlier runs on its thread left parked. These tests
//! run a sequence of modules on one thread and check that each outcome,
//! fault and profile equals the same module's run on a freshly spawned
//! thread, whose pool is empty — including runs that stop with frames and
//! objects live, and programs whose output depends on object numbers.

use vm::{Outcome, Profile, Vm, VmError, VmOptions};

/// What one module's runs gave: a plain run and a profiled one.
type Runs = (
    Result<Outcome, VmError>,
    Result<(Outcome, Profile), VmError>,
);

/// A program to run, the limits to run it under, and the fault it stops
/// with, if any.
struct Case {
    name: String,
    module: ir::Module,
    options: VmOptions,
    stops: Option<VmError>,
}

fn case(name: &str, src: &str, options: VmOptions, stops: Option<VmError>) -> Case {
    Case {
        name: name.to_string(),
        module: minic::compile(src).unwrap_or_else(|e| panic!("{name}: {e}")),
        options,
        stops,
    }
}

fn limits(max_steps: u64, max_depth: usize) -> VmOptions {
    VmOptions {
        max_steps,
        max_depth,
    }
}

/// Each run on a thread of its own, whose pool is empty.
fn fresh(c: &Case) -> Runs {
    std::thread::scope(|s| {
        let plain = s.spawn(|| Vm::run_main(&c.module, c.options.clone()));
        let profiled = s.spawn(|| Vm::run_main_profiled(&c.module, c.options.clone()));
        (
            plain.join().expect("plain run"),
            profiled.join().expect("profiled run"),
        )
    })
}

/// Sixty calls, each with a local array live while it runs.
const CALLS: &str = r#"
int work(int n) {
  int a[8];
  int i;
  for (i = 0; i < 8; i++) a[i] = n + i;
  return a[n % 8];
}
int main() {
  int i;
  int s = 0;
  for (i = 0; i < 60; i++) s = s + work(i);
  print_int(s);
  return 0;
}
"#;

/// Recursion 40 deep, a local array in every frame.
const RECURSION: &str = r#"
int down(int n) {
  int a[4];
  a[0] = n;
  if (n == 0) return 0;
  return down(n - 1) + a[0];
}
int main() { print_int(down(40)); return 0; }
"#;

const DIVISION: &str = r#"
int quot(int a, int b) {
  int t[2];
  t[0] = a;
  t[1] = b;
  return t[0] / t[1];
}
int main() {
  int k[3];
  k[0] = 5;
  print_int(quot(10, 2));
  print_int(quot(k[0], k[0] - 5));
  return 0;
}
"#;

const EXIT: &str = r#"
void leave(int code) { int a[2]; a[0] = code; exit(a[0]); }
int nest(int n) {
  int b[3];
  b[1] = n;
  if (n == 0) leave(7);
  return nest(n - 1) + b[1];
}
int main() { print_int(1); nest(5); print_int(2); return 0; }
"#;

/// Past `vm::MAX_HEAP_CELLS` (2^20) by 1,000 cells.
const HEAP_BOUND: &str = r#"
int main() {
  int *p = malloc(1000);
  p[999] = 1;
  print_int(p[999]);
  int *q = malloc(1048576);
  return q[0];
}
"#;

/// `malloc`, and output that depends on object numbers: `g`, `h` and
/// `main`'s `loc` are objects 0 to 2 and `a` is 3; `b` takes slot 4,
/// which `stamp`'s frame freed, and `c` a new slot 5.
const POINTERS: &str = r#"
int g[2];
int h[3];
int stamp() { int loc[3]; loc[0] = 1; return loc[0]; }
int main() {
  int loc[2];
  int *a = malloc(2);
  stamp();
  int *b = malloc(4);
  int *c = malloc(2);
  int i;
  for (i = 0; i < 4; i++) b[i] = i * i;
  print_int(a < b);
  print_int(b < c);
  print_int(c < a);
  print_int(&g[1] < &h[0]);
  print_int(&loc[0] < &g[0]);
  print_int(&loc[1] < a);
  print_int(b[3]);
  return 0;
}
"#;

fn cases() -> Vec<Case> {
    let mut cases: Vec<Case> = benchsuite::SUITE
        .iter()
        .map(|b| case(b.name, b.source, VmOptions::default(), None))
        .collect();
    // Budgets that run out in `main`, inside `work`, and not at all.
    for max_steps in [1, 40, 333, 1_000, 2_500] {
        let name = format!("calls/steps={max_steps}");
        let stops = Some(VmError::StepLimit(max_steps));
        cases.push(case(&name, CALLS, limits(max_steps, 2_000), stops));
    }
    cases.push(case("calls", CALLS, VmOptions::default(), None));
    // `down(0)` runs at depth 42.
    for max_depth in [10, 41] {
        let name = format!("recursion/depth={max_depth}");
        let stops = Some(VmError::StackOverflow(max_depth));
        cases.push(case(&name, RECURSION, limits(1 << 20, max_depth), stops));
    }
    cases.push(case("recursion", RECURSION, VmOptions::default(), None));
    let heap = "malloc of 1048576 cells with 1000 already allocated exceeds the \
                1048576-cell heap";
    for (name, src, stops) in [
        ("division", DIVISION, Some(VmError::DivisionByZero)),
        ("exit", EXIT, None),
        (
            "heap-bound",
            HEAP_BOUND,
            Some(VmError::OutOfMemory(heap.into())),
        ),
        ("pointers", POINTERS, None),
    ] {
        cases.push(case(name, src, VmOptions::default(), stops));
    }
    cases
}

#[test]
fn pooled_runs_equal_runs_on_a_fresh_thread() {
    let cases = cases();
    let expected: Vec<Runs> = cases.iter().map(fresh).collect();
    for (c, (plain, _)) in cases.iter().zip(&expected) {
        assert_eq!(plain.as_ref().err(), c.stops.as_ref(), "{}", c.name);
    }
    // Forward and then backward, so each run takes what a different
    // program left parked.
    let runs = cases.iter().zip(&expected);
    for (c, (plain, profiled)) in runs.clone().chain(runs.rev()) {
        let options = || c.options.clone();
        assert_eq!(&Vm::run_main(&c.module, options()), plain, "{}", c.name);
        let again = Vm::run_main_profiled(&c.module, options());
        assert_eq!(&again, profiled, "{} (profiled)", c.name);
    }
}

#[test]
fn exit_and_object_numbers_read_as_the_sources_say() {
    let exit = fresh(&case("exit", EXIT, VmOptions::default(), None));
    let out = exit.0.expect("`exit` completes the run");
    assert_eq!((out.exit_code, out.output), (7, vec!["1".to_string()]));
    let pointers = fresh(&case("pointers", POINTERS, VmOptions::default(), None));
    let out = pointers.0.expect("runs");
    assert_eq!(out.output, ["1", "1", "0", "1", "0", "1", "9"]);
}
