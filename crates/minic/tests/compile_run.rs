//! End-to-end tests: MiniC source → IL → interpreted execution.

use vm::{Vm, VmOptions};

fn run(src: &str) -> vm::Outcome {
    let module = minic::compile(src).expect("compile");
    ir::validate(&module).expect("valid IL");
    Vm::run_main(&module, VmOptions::default()).expect("run")
}

fn output(src: &str) -> Vec<String> {
    run(src).output
}

#[test]
fn arithmetic_and_precedence() {
    assert_eq!(
        output("int main() { print_int(1 + 2 * 3 - 4 / 2); return 0; }"),
        vec!["5"]
    );
    assert_eq!(
        output("int main() { print_int((1 + 2) * (3 - 4) / 3); return 0; }"),
        vec!["-1"]
    );
    assert_eq!(
        output("int main() { print_int(7 % 3); return 0; }"),
        vec!["1"]
    );
    assert_eq!(
        output("int main() { print_int(1 << 4); return 0; }"),
        vec!["16"]
    );
    assert_eq!(
        output("int main() { print_int(6 & 3); return 0; }"),
        vec!["2"]
    );
    assert_eq!(
        output("int main() { print_int(6 | 3); return 0; }"),
        vec!["7"]
    );
    assert_eq!(
        output("int main() { print_int(6 ^ 3); return 0; }"),
        vec!["5"]
    );
}

#[test]
fn comparisons_and_logic() {
    assert_eq!(
        output("int main() { print_int(3 < 4 && 4 <= 4 && 5 > 4 && 4 >= 4); return 0; }"),
        vec!["1"]
    );
    assert_eq!(
        output("int main() { print_int(1 == 2 || 2 != 2 || !0); return 0; }"),
        vec!["1"]
    );
}

#[test]
fn short_circuit_skips_side_effects() {
    let out = output(
        r#"
int hits;
int bump() { hits = hits + 1; return 1; }
int main() {
    int r = 0 && bump();
    r = 1 || bump();
    print_int(hits);
    return 0;
}
"#,
    );
    assert_eq!(out, vec!["0"]);
}

#[test]
fn doubles_and_conversions() {
    assert_eq!(
        output("int main() { double d = 3; print_float(d / 2); return 0; }"),
        vec!["1.500000"]
    );
    assert_eq!(
        output("int main() { int x = 7.9; print_int(x); return 0; }"),
        vec!["7"]
    );
    assert_eq!(
        output("int main() { print_float(sqrt(16.0)); return 0; }"),
        vec!["4.000000"]
    );
    assert_eq!(
        output("int main() { print_float(pow(2.0, 10.0)); return 0; }"),
        vec!["1024.000000"]
    );
}

#[test]
fn control_flow() {
    assert_eq!(
        output(
            r#"
int main() {
    int i;
    int evens = 0;
    int total = 0;
    for (i = 0; i < 20; i++) {
        if (i % 2 == 0) { evens++; } else { continue; }
        if (i > 10) break;
        total += i;
    }
    print_int(evens);
    print_int(total);
    return 0;
}
"#
        ),
        vec!["7", "30"] // evens seen: 0..=12 step 2 (7 of them); total = 0+2+4+6+8+10
    );
}

#[test]
fn while_and_do_while() {
    assert_eq!(
        output(
            r#"
int main() {
    int n = 5;
    int f = 1;
    while (n > 1) { f *= n; n--; }
    print_int(f);
    int c = 0;
    do { c++; } while (c < 3);
    print_int(c);
    do { c++; } while (0);
    print_int(c);
    return 0;
}
"#
        ),
        vec!["120", "3", "4"]
    );
}

#[test]
fn globals_persist_across_calls() {
    assert_eq!(
        output(
            r#"
int count = 10;
void bump() { count += 1; }
int main() {
    bump(); bump(); bump();
    print_int(count);
    return 0;
}
"#
        ),
        vec!["13"]
    );
}

#[test]
fn recursion() {
    assert_eq!(
        output(
            r#"
int fib(int n) {
    if (n < 2) return n;
    return fib(n - 1) + fib(n - 2);
}
int main() { print_int(fib(15)); return 0; }
"#
        ),
        vec!["610"]
    );
}

#[test]
fn pointers_and_address_of() {
    assert_eq!(
        output(
            r#"
void set(int *p, int v) { *p = v; }
int main() {
    int x = 1;
    set(&x, 42);
    print_int(x);
    int *q = &x;
    *q = *q + 1;
    print_int(x);
    return 0;
}
"#
        ),
        vec!["42", "43"]
    );
}

#[test]
fn arrays_1d() {
    assert_eq!(
        output(
            r#"
int a[8];
int main() {
    int i;
    for (i = 0; i < 8; i++) a[i] = i * i;
    int s = 0;
    for (i = 0; i < 8; i++) s += a[i];
    print_int(s);
    return 0;
}
"#
        ),
        vec!["140"]
    );
}

#[test]
fn arrays_2d() {
    assert_eq!(
        output(
            r#"
int m[3][4];
int main() {
    int i; int j;
    for (i = 0; i < 3; i++)
        for (j = 0; j < 4; j++)
            m[i][j] = i * 10 + j;
    print_int(m[2][3]);
    print_int(m[0][0]);
    int s = 0;
    for (i = 0; i < 3; i++)
        for (j = 0; j < 4; j++)
            s += m[i][j];
    print_int(s);
    return 0;
}
"#
        ),
        vec!["23", "0", "138"]
    );
}

#[test]
fn local_arrays() {
    assert_eq!(
        output(
            r#"
int main() {
    int buf[5];
    int i;
    for (i = 0; i < 5; i++) buf[i] = i + 1;
    print_int(buf[0] + buf[4]);
    return 0;
}
"#
        ),
        vec!["6"]
    );
}

#[test]
fn array_decay_to_pointer_param() {
    assert_eq!(
        output(
            r#"
int sum(int *a, int n) {
    int s = 0;
    int i;
    for (i = 0; i < n; i++) s += a[i];
    return s;
}
int data[4] = {10, 20, 30, 40};
int main() { print_int(sum(data, 4)); return 0; }
"#
        ),
        vec!["100"]
    );
}

#[test]
fn global_initializers() {
    assert_eq!(
        output(
            r#"
int x = -5;
double d = 2.5;
int a[3] = {7, 8, 9};
double f[2] = {0.5, 1.5};
int main() {
    print_int(x + a[0] + a[1] + a[2]);
    print_float(d + f[0] + f[1]);
    return 0;
}
"#
        ),
        vec!["19", "4.500000"]
    );
}

#[test]
fn malloc_and_heap() {
    assert_eq!(
        output(
            r#"
int main() {
    int *p = malloc(10);
    int i;
    for (i = 0; i < 10; i++) p[i] = i;
    int s = 0;
    for (i = 0; i < 10; i++) s += p[i];
    print_int(s);
    return 0;
}
"#
        ),
        vec!["45"]
    );
}

#[test]
fn linked_list_via_heap() {
    // cells: [value, next]; null is 0.
    assert_eq!(
        output(
            r#"
int main() {
    int *head = 0;
    int i;
    for (i = 1; i <= 5; i++) {
        int *node = malloc(2);
        node[0] = i;
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
"#
        ),
        vec!["15"]
    );
}

#[test]
fn pointer_arithmetic_walk() {
    assert_eq!(
        output(
            r#"
int a[5] = {1, 2, 3, 4, 5};
int main() {
    int *p = a;
    int *end = a + 5;
    int s = 0;
    while (p < end) {
        s += *p;
        p = p + 1;
    }
    print_int(s);
    return 0;
}
"#
        ),
        vec!["15"]
    );
}

#[test]
fn function_pointers() {
    assert_eq!(
        output(
            r#"
int g;
int twice(int x) { return 2 * x; }
int thrice(int x) { return 3 * x; }
void bump() { g = g + 1; }
int main() {
    func f = twice;
    print_int(f(10));
    f = &thrice;
    print_int(f(10));
    f = bump;
    f();
    print_int(g);
    return 0;
}
"#
        ),
        vec!["20", "30", "1"]
    );
}

#[test]
fn shadowing_scopes() {
    assert_eq!(
        output(
            r#"
int x = 100;
int main() {
    int x = 1;
    {
        int x = 2;
        print_int(x);
    }
    print_int(x);
    return 0;
}
"#
        ),
        vec!["2", "1"]
    );
}

#[test]
fn exit_stops_program() {
    let out = run(r#"
int main() {
    print_int(1);
    exit(3);
    print_int(2);
    return 0;
}
"#);
    assert_eq!(out.output, vec!["1"]);
    assert_eq!(out.exit_code, 3);
}

#[test]
fn addressed_local_is_memory_resident() {
    // `x` has its address taken, so unoptimized code must reference memory.
    let out = run(r#"
int main() {
    int x = 0;
    int *p = &x;
    int i;
    for (i = 0; i < 100; i++) { x = x + 1; }
    print_int(x + *p);
    return 0;
}
"#);
    assert_eq!(out.output, vec!["200"]);
    // x is loaded and stored in the loop: at least 100 loads and stores.
    assert!(out.counts.loads >= 100, "loads = {}", out.counts.loads);
    assert!(out.counts.stores >= 100, "stores = {}", out.counts.stores);
}

#[test]
fn unaddressed_local_stays_in_registers() {
    let out = run(r#"
int main() {
    int x = 0;
    int i;
    for (i = 0; i < 100; i++) { x = x + 1; }
    print_int(x);
    return 0;
}
"#);
    assert_eq!(out.output, vec!["100"]);
    assert_eq!(out.counts.loads, 0);
    assert_eq!(out.counts.stores, 0);
}

#[test]
fn global_access_is_memory_before_promotion() {
    let out = run(r#"
int g;
int main() {
    int i;
    for (i = 0; i < 50; i++) { g = g + 1; }
    print_int(g);
    return 0;
}
"#);
    assert_eq!(out.output, vec!["50"]);
    assert!(out.counts.loads >= 50);
    assert!(out.counts.stores >= 50);
}

#[test]
fn type_errors_are_reported() {
    for (src, needle) in [
        ("int main() { return x; }", "unknown identifier"),
        ("int main() { int x; return x(1); }", "cannot call"),
        ("int main() { double d; return d % 2; }", "invalid operands"),
        ("int main() { break; }", "break outside a loop"),
        ("void f() { return 1; }", "void function returns a value"),
        (
            "int main() { int a[3]; a = 0; return 0; }",
            "cannot convert",
        ),
        (
            "int f(int x) { return x; } int main() { return f(); }",
            "expects 1 arguments",
        ),
        (
            "int main() { print_int(1, 2); return 0; }",
            "expects 1 arguments",
        ),
        ("int sqrt(int x) { return x; }", "builtin"),
    ] {
        let e = minic::compile(src).expect_err(src);
        assert!(
            e.message.contains(needle),
            "source {src:?}: expected {needle:?} in {:?}",
            e.message
        );
    }
}

#[test]
fn comments_and_formatting() {
    assert_eq!(
        output("int main() { /* block */ int x = 1; // line\n print_int(x); return 0; }"),
        vec!["1"]
    );
}

#[test]
fn deeply_nested_loops() {
    assert_eq!(
        output(
            r#"
int main() {
    int i; int j; int k;
    int n = 0;
    for (i = 0; i < 3; i++)
        for (j = 0; j < 3; j++)
            for (k = 0; k < 3; k++)
                n++;
    print_int(n);
    return 0;
}
"#
        ),
        vec!["27"]
    );
}

#[test]
fn figure3_shape_runs() {
    // The paper's Figure 3 kernel: B[i] += A[i][j].
    assert_eq!(
        output(
            r#"
int A[4][5];
int B[4];
int main() {
    int i; int j;
    for (i = 0; i < 4; i++)
        for (j = 0; j < 5; j++)
            A[i][j] = i + j;
    for (i = 0; i < 4; i++) {
        B[i] = 0;
        for (j = 0; j < 5; j++) {
            B[i] += A[i][j];
        }
    }
    print_int(B[0] + B[1] + B[2] + B[3]);
    return 0;
}
"#
        ),
        vec!["70"]
    );
}
