//! Behavioural tests for the register allocator.

use ir::{BinOp, FunctionBuilder, Instr, Module};
use regalloc::{allocate, AllocOptions};
use vm::{Vm, VmOptions};

fn check(src: &str, opts: &AllocOptions) -> (vm::Outcome, vm::Outcome, regalloc::AllocReport) {
    let mut m = minic::compile(src).expect("compile");
    analysis::analyze(&mut m, analysis::AnalysisLevel::ModRef);
    let before = Vm::run_main(&m, VmOptions::default()).expect("run before");
    let report = allocate(&mut m, opts).expect("allocation converges");
    ir::validate(&m).expect("valid after allocation");
    let after = Vm::run_main(&m, VmOptions::default()).expect("run after");
    assert_eq!(before.output, after.output, "behaviour preserved");
    (before, after, report)
}

const MANY_LIVE: &str = r#"
int main() {
    int a = 1; int b = 2; int c = 3; int d = 4; int e = 5;
    int f = 6; int g = 7; int h = 8; int i = 9; int j = 10;
    int s1 = a + b; int s2 = c + d; int s3 = e + f; int s4 = g + h;
    int s5 = i + j;
    print_int(s1 + s2 + s3 + s4 + s5 + a + b + c + d + e + f + g + h + i + j);
    return 0;
}
"#;

#[test]
fn fits_in_default_registers_without_spills() {
    let (_, _, report) = check(MANY_LIVE, &AllocOptions::default());
    assert_eq!(report.spilled, 0);
}

#[test]
fn tight_register_file_forces_spills_but_stays_correct() {
    let opts = AllocOptions {
        num_regs: 4,
        ..Default::default()
    };
    let (before, after, report) = check(MANY_LIVE, &opts);
    assert!(
        report.spilled > 0,
        "4 registers cannot hold 10+ live values"
    );
    // Spill traffic shows up as extra loads/stores.
    assert!(after.counts.loads > before.counts.loads);
    assert!(after.counts.stores > before.counts.stores);
}

#[test]
fn coalescing_removes_promotion_style_copies() {
    // The assignments produce chains of copies; coalescing should remove
    // essentially all of them.
    let src = r#"
int main() {
    int x = 0;
    int i;
    for (i = 0; i < 100; i++) {
        x = x + 1;
    }
    print_int(x);
    return 0;
}
"#;
    let (before, after, report) = check(src, &AllocOptions::default());
    assert!(report.coalesced > 0);
    assert!(
        after.counts.copies < before.counts.copies,
        "copies {} -> {}",
        before.counts.copies,
        after.counts.copies
    );
}

#[test]
fn functions_with_parameters_allocate_correctly() {
    let src = r#"
int combine(int a, int b, int c, int d) {
    return a * 1000 + b * 100 + c * 10 + d;
}
int main() {
    print_int(combine(1, 2, 3, 4));
    return 0;
}
"#;
    let (_, after, _) = check(src, &AllocOptions::default());
    assert_eq!(after.output, vec!["1234"]);
}

#[test]
fn parameters_spill_when_registers_are_scarce() {
    let src = r#"
int mix(int a, int b, int c) {
    int x = a + b;
    int y = b + c;
    int z = a + c;
    int w = x * y + z;
    a = a + w;
    return a + x + y + z;
}
int main() {
    print_int(mix(3, 5, 7));
    return 0;
}
"#;
    let opts = AllocOptions {
        num_regs: 3,
        ..Default::default()
    };
    let (_, after, _) = check(src, &opts);
    assert_eq!(after.output, vec!["139"]);
    // All functions fit in 3 registers afterwards.
}

#[test]
fn allocated_code_respects_register_bound() {
    let src = r#"
int fib(int n) {
    if (n < 2) return n;
    return fib(n - 1) + fib(n - 2);
}
int main() {
    print_int(fib(10));
    return 0;
}
"#;
    let mut m = minic::compile(src).unwrap();
    let opts = AllocOptions {
        num_regs: 8,
        ..Default::default()
    };
    allocate(&mut m, &opts).expect("allocation converges");
    for f in &m.funcs {
        assert!(f.next_reg <= 8, "@{} uses {} registers", f.name, f.next_reg);
    }
    let out = Vm::run_main(&m, VmOptions::default()).unwrap();
    assert_eq!(out.output, vec!["55"]);
}

#[test]
fn spilled_loop_variables_keep_semantics() {
    let src = r#"
int main() {
    int i; int j;
    int a = 0; int b = 1; int c = 2; int d = 3; int e = 4;
    for (i = 0; i < 10; i++) {
        for (j = 0; j < 10; j++) {
            a = a + b;
            b = b + c;
            c = c + d;
            d = d + e;
            e = e + 1;
        }
    }
    print_int(a); print_int(b); print_int(c); print_int(d); print_int(e);
    return 0;
}
"#;
    let opts = AllocOptions {
        num_regs: 4,
        ..Default::default()
    };
    let (_, _, report) = check(src, &opts);
    assert!(report.spilled > 0);
}

#[test]
fn dead_rematerializable_def_does_not_livelock() {
    // Found by the differential fuzzer (promo-fuzz seed 0xc10039): a
    // constant-like def with no remaining uses but full interference
    // degree. Its spill cost is the lowest on the board, so select picks
    // it as the victim every round — and rematerialization used to
    // "handle" it without changing the body (no uses to rewrite), leaving
    // the node in the graph and the allocator re-spilling it until the
    // convergence assert fired. Rematerialization must delete the dead
    // def so every round makes progress.
    let mut b = FunctionBuilder::new("main", 0);
    b.returns_value();
    let c1 = b.iconst(1);
    let c2 = b.iconst(2);
    let c3 = b.iconst(3);
    let c4 = b.iconst(4);
    let _dead = b.iconst(42); // never used; interferes with c1..c4
    let s = b.binary(BinOp::Add, c1, c2);
    let t = b.binary(BinOp::Add, c3, c4);
    let u = b.binary(BinOp::Add, s, t);
    b.ret(Some(u));
    let mut m = Module::new();
    m.add_func(b.finish());
    let opts = AllocOptions {
        num_regs: 4,
        max_rounds: 8,
    };
    let report = allocate(&mut m, &opts).expect("allocation converges");
    assert!(
        report.rematerialized >= 1,
        "the dead constant must be the spill victim (got {report:?})"
    );
    assert_eq!(report.spilled, 0, "nothing should reach memory");
    ir::validate(&m).expect("valid after allocation");
    // The dead def is gone, not merely recolored.
    let main = &m.funcs[0];
    let consts: Vec<i64> = main
        .blocks
        .iter()
        .flat_map(|bl| &bl.instrs)
        .filter_map(|i| match i {
            Instr::IConst { value, .. } => Some(*value),
            _ => None,
        })
        .collect();
    assert!(!consts.contains(&42), "dead def deleted, found {consts:?}");
    let out = Vm::run_main(&m, VmOptions::default()).expect("runs");
    assert_eq!(out.exit_code, 10);
}

#[test]
fn double_values_survive_allocation() {
    let src = r#"
int main() {
    double a = 1.5; double b = 2.5; double c = 4.0;
    double d = a * b + c;
    print_float(d);
    print_float(sqrt(c));
    return 0;
}
"#;
    let (_, after, _) = check(
        src,
        &AllocOptions {
            num_regs: 4,
            ..Default::default()
        },
    );
    assert_eq!(after.output, vec!["7.750000", "2.000000"]);
}
