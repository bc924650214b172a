//! SSA construction must preserve behaviour on real compiled programs,
//! including loops, calls, and recursion: construct → verify → run (the
//! VM executes φ directly).
//!
//! The randomized cases use an in-tree xorshift64* generator so the test
//! is deterministic and builds offline.

use vm::{Vm, VmOptions};

fn roundtrip(src: &str) {
    let module = minic::compile(src).expect("compile");
    let before = Vm::run_main(&module, VmOptions::default()).expect("baseline");
    let mut in_ssa = module.clone();
    for f in &mut in_ssa.funcs {
        ssa::construct(f);
        ssa::verify_ssa(f).unwrap_or_else(|e| panic!("{}: {e}", f.name));
    }
    ir::validate(&in_ssa).expect("valid IL in SSA form");
    let after = Vm::run_main(&in_ssa, VmOptions::default()).expect("ssa form runs");
    assert_eq!(
        before.output, after.output,
        "construction preserves behaviour"
    );
}

#[test]
fn loops_and_conditionals() {
    roundtrip(
        r#"
int g;
int main() {
    int x = 0;
    int i;
    for (i = 0; i < 50; i++) {
        if (i % 3 == 0) { x = x + 2; } else { x = x - 1; }
        g = g + x;
    }
    print_int(x);
    print_int(g);
    return 0;
}
"#,
    );
}

#[test]
fn nested_loops_with_breaks() {
    roundtrip(
        r#"
int main() {
    int s = 0;
    int i; int j;
    for (i = 0; i < 10; i++) {
        for (j = 0; j < 10; j++) {
            s = s + i * j;
            if (s > 500) break;
        }
        if (s > 800) break;
    }
    print_int(s);
    return 0;
}
"#,
    );
}

#[test]
fn recursion_and_calls() {
    roundtrip(
        r#"
int fib(int n) {
    if (n < 2) return n;
    return fib(n - 1) + fib(n - 2);
}
int main() {
    print_int(fib(12));
    return 0;
}
"#,
    );
}

#[test]
fn swap_pattern_exercises_parallel_copies() {
    // Classic φ-swap: two values exchanged every iteration, so the VM's
    // edge moves for the loop header's φs must act as one parallel copy.
    roundtrip(
        r#"
int main() {
    int a = 1;
    int b = 2;
    int i;
    for (i = 0; i < 7; i++) {
        int t = a;
        a = b;
        b = t + 1;
    }
    print_int(a);
    print_int(b);
    return 0;
}
"#,
    );
}

#[test]
fn pointer_code_roundtrips() {
    roundtrip(
        r#"
int data[16];
int main() {
    int *p = data;
    int i;
    for (i = 0; i < 16; i++) {
        *p = i * i;
        p = p + 1;
    }
    int s = 0;
    for (i = 0; i < 16; i++) s += data[i];
    print_int(s);
    return 0;
}
"#,
    );
}

fn generated(globals: usize, depth: usize, stmts: &[(usize, usize, i32)]) -> String {
    use std::fmt::Write;
    let mut src = String::new();
    for g in 0..globals {
        let _ = writeln!(src, "int g{g} = {};", g + 1);
    }
    src.push_str("int main() {\n    int a = 1; int b = 2;\n");
    for d in 0..depth {
        let _ = writeln!(src, "    int i{d};");
        let _ = writeln!(src, "    for (i{d} = 0; i{d} < 3; i{d}++) {{");
    }
    for (op, g, c) in stmts {
        let g = g % globals;
        match op % 4 {
            0 => {
                let _ = writeln!(src, "        a = a + g{g} + {c};");
            }
            1 => {
                let _ = writeln!(
                    src,
                    "        if (a % 2) {{ b = a; }} else {{ a = b + {c}; }}"
                );
            }
            2 => {
                let _ = writeln!(src, "        g{g} = g{g} + b;");
            }
            _ => {
                let _ = writeln!(src, "        int t = a; a = b; b = t + {c};");
            }
        }
    }
    for _ in 0..depth {
        src.push_str("    }\n");
    }
    src.push_str("    print_int(a); print_int(b);\n");
    for g in 0..globals {
        let _ = writeln!(src, "    print_int(g{g});");
    }
    src.push_str("    return 0;\n}\n");
    src
}

/// Deterministic xorshift64* PRNG.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

#[test]
fn random_programs_roundtrip() {
    let mut rng = Rng::new(0x55A_0C41);
    for _case in 0..64 {
        let globals = 1 + rng.below(3);
        let depth = rng.below(4);
        let n_stmts = 1 + rng.below(7);
        let stmts: Vec<(usize, usize, i32)> = (0..n_stmts)
            .map(|_| (rng.below(4), rng.below(4), 1 + rng.below(8) as i32))
            .collect();
        roundtrip(&generated(globals, depth, &stmts));
    }
}
