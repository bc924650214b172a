//! Every optimization pass, applied alone, must preserve program
//! behaviour — checked on real suite programs and on targeted
//! mini-programs with sharp edges (aliasing, recursion, zero-trip loops).

use vm::{Vm, VmOptions};

type Pass = (&'static str, fn(&mut ir::Module));

fn passes() -> Vec<Pass> {
    vec![
        ("normalize", |m| {
            for f in &mut m.funcs {
                cfg::normalize_loops(f);
            }
        }),
        ("analyze-modref", |m| {
            analysis::analyze(m, analysis::AnalysisLevel::ModRef);
        }),
        ("analyze-pointer", |m| {
            analysis::analyze(m, analysis::AnalysisLevel::PointsTo);
        }),
        ("strengthen", |m| {
            analysis::analyze(m, analysis::AnalysisLevel::PointsTo);
            opt::strengthen(m);
        }),
        ("promote", |m| {
            analysis::analyze(m, analysis::AnalysisLevel::ModRef);
            opt::strengthen(m);
            promote::promote_module(m);
        }),
        ("promote-pointer", |m| {
            analysis::analyze(m, analysis::AnalysisLevel::PointsTo);
            opt::strengthen(m);
            opt::licm(m);
            promote::promote_module(m);
            for f in &mut m.funcs {
                promote::promote_pointers_in_func(
                    f,
                    &mut cfg::FunctionAnalyses::new(),
                    &mut trace::FuncTrace::off(),
                );
            }
        }),
        ("lvn", |m| {
            opt::lvn(m);
        }),
        ("loadelim", |m| {
            analysis::analyze(m, analysis::AnalysisLevel::ModRef);
            opt::loadelim(m);
        }),
        ("constprop", |m| {
            opt::constprop(m);
        }),
        ("licm", |m| {
            analysis::analyze(m, analysis::AnalysisLevel::ModRef);
            opt::licm(m);
        }),
        ("dce", |m| {
            opt::dce(m);
        }),
        ("clean", |m| {
            opt::clean(m);
        }),
        ("regalloc", |m| {
            regalloc::allocate(m, &regalloc::AllocOptions::default())
                .expect("allocation converges");
        }),
        ("regalloc-tight", |m| {
            regalloc::allocate(
                m,
                &regalloc::AllocOptions {
                    num_regs: 6,
                    ..Default::default()
                },
            )
            .expect("allocation converges");
        }),
        ("ssa-construct", |m| {
            for f in &mut m.funcs {
                ssa::construct(f);
                ssa::verify_ssa(f).expect("valid SSA");
            }
        }),
    ]
}

fn check(name: &str, src: &str) {
    let base = minic::compile(src).unwrap_or_else(|e| panic!("{name}: {e}"));
    let expected = Vm::run_main(&base, VmOptions::default())
        .unwrap_or_else(|e| panic!("{name} baseline: {e}"))
        .output;
    for (pass, f) in passes() {
        let mut m = base.clone();
        f(&mut m);
        ir::validate(&m).unwrap_or_else(|e| panic!("{name} after {pass}: invalid IL: {e}"));
        let out = Vm::run_main(&m, VmOptions::default())
            .unwrap_or_else(|e| panic!("{name} after {pass}: {e}"));
        assert_eq!(
            expected, out.output,
            "{name}: pass {pass} changed behaviour"
        );
    }
}

#[test]
fn fast_suite_programs_survive_every_pass() {
    for name in ["allroots", "fft"] {
        let b = benchsuite::find(name).expect("suite");
        check(b.name, b.source);
    }
}

#[test]
fn aliasing_corner_cases_survive_every_pass() {
    check(
        "alias-corners",
        r#"
int a;
int b;
int *pp;
int pick = 3;
int main() {
    pp = &a;
    if (pick > 2) pp = &b;
    int i;
    for (i = 0; i < 30; i++) {
        *pp = *pp + i;
        a = a + 1;
        b = b * 1;
    }
    print_int(a);
    print_int(b);
    return 0;
}
"#,
    );
}

#[test]
fn recursion_survives_every_pass() {
    check(
        "recursion",
        r#"
int count;
int ack(int m, int n) {
    count = count + 1;
    if (m == 0) return n + 1;
    if (n == 0) return ack(m - 1, 1);
    return ack(m - 1, ack(m, n - 1));
}
int main() {
    print_int(ack(2, 3));
    print_int(count);
    return 0;
}
"#,
    );
}

#[test]
fn heap_lists_survive_every_pass() {
    check(
        "heap-list",
        r#"
int main() {
    int *head = 0;
    int i;
    for (i = 1; i <= 8; i++) {
        int *node = malloc(2);
        node[0] = i * i;
        node[1] = head;
        head = node;
    }
    int s = 0;
    while (head != 0) {
        s += head[0];
        head = head[1];
    }
    print_int(s);
    return 0;
}
"#,
    );
}

#[test]
fn zero_trip_and_once_loops_survive_every_pass() {
    check(
        "trip-counts",
        r#"
int g = 11;
int n0;
int n1 = 1;
int main() {
    int i;
    for (i = 0; i < n0; i++) { g = g * 7; }
    for (i = 0; i < n1; i++) { g = g + 1; }
    print_int(g);
    return 0;
}
"#,
    );
}

#[test]
fn doubles_survive_every_pass() {
    check(
        "floating",
        r#"
double acc;
int main() {
    int i;
    for (i = 1; i <= 20; i++) {
        acc = acc + 1.0 / i;
    }
    print_float(acc);
    print_float(sqrt(acc));
    return 0;
}
"#,
    );
}
