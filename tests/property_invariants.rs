//! Property-based tests over randomly generated control flow and
//! randomly generated MiniC programs.
//!
//! Random inputs come from an in-tree xorshift64* generator: every case
//! is reproducible from the fixed seed and no external crates are needed
//! (the build must work offline).

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

/// Builds a function with `n` blocks and pseudo-random control flow.
fn random_cfg_function(n: usize, edges: &[(usize, usize, usize)]) -> ir::Function {
    let mut b = ir::FunctionBuilder::new("f", 0);
    let cond = b.iconst(1);
    for _ in 1..n {
        b.new_block();
    }
    for (i, &(kind, t1, t2)) in edges.iter().enumerate().take(n) {
        b.switch_to(ir::BlockId(i as u32));
        match kind % 3 {
            0 => b.ret(None),
            1 => b.jump(ir::BlockId((t1 % n) as u32)),
            _ => b.branch(
                cond,
                ir::BlockId((t1 % n) as u32),
                ir::BlockId((t2 % n) as u32),
            ),
        }
    }
    b.finish()
}

fn random_edges(rng: &mut Rng, count: usize, max_target: usize) -> Vec<(usize, usize, usize)> {
    (0..count)
        .map(|_| (rng.below(3), rng.below(max_target), rng.below(max_target)))
        .collect()
}

/// Lengauer–Tarjan and the iterative algorithm agree on arbitrary
/// (including irreducible) graphs.
#[test]
fn dominator_algorithms_agree() {
    let mut rng = Rng::new(0xD031_47A5);
    for case in 0..200 {
        let n = 1 + rng.below(23);
        let edges = random_edges(&mut rng, 24, 24);
        let f = random_cfg_function(n, &edges);
        let g = cfg::Cfg::build(&f);
        let lt = cfg::DomTree::lengauer_tarjan(&g);
        let it = cfg::DomTree::iterative(&g);
        assert_eq!(lt, it, "case {case}: dominator algorithms disagree (n={n})");
    }
}

/// Loop normalization never breaks validity and is idempotent.
#[test]
fn normalization_is_sound_and_idempotent() {
    let mut rng = Rng::new(0x0A11_CE55);
    for case in 0..200 {
        let n = 1 + rng.below(15);
        let edges = random_edges(&mut rng, 16, 16);
        let mut f = random_cfg_function(n, &edges);
        cfg::normalize_loops(&mut f);
        let mut m = ir::Module::new();
        m.add_func(f.clone());
        assert!(
            ir::validate(&m).is_ok(),
            "case {case}: normalization broke validity"
        );
        let once = f.clone();
        cfg::normalize_loops(&mut f);
        assert_eq!(once, f, "case {case}: normalization not idempotent");
    }
}

/// A tiny deterministic MiniC program generator: a loop nest over global
/// scalars with random updates, guards, and helper calls.
fn generate_program(
    globals: usize,
    depth: usize,
    stmts: &[(usize, usize, usize, i32)],
    pin_mask: usize,
) -> String {
    use std::fmt::Write;
    let mut src = String::new();
    for g in 0..globals {
        let _ = writeln!(src, "int g{g} = {};", g * 3 + 1);
    }
    // A helper that touches a subset of the globals (pins them in loops
    // that call it).
    src.push_str("void touch() {\n");
    for g in 0..globals {
        if pin_mask & (1 << g) != 0 {
            let _ = writeln!(src, "    g{g} = g{g} + 1;");
        }
    }
    src.push_str("}\n");
    src.push_str("int main() {\n");
    for d in 0..depth {
        let _ = writeln!(src, "    int i{d};");
        let _ = writeln!(src, "    for (i{d} = 0; i{d} < 4; i{d}++) {{");
    }
    for (k, (op, a, b, c)) in stmts.iter().enumerate() {
        let a = a % globals;
        let b = b % globals;
        match op % 5 {
            0 => {
                let _ = writeln!(src, "        g{a} = g{a} + {c};");
            }
            1 => {
                let _ = writeln!(src, "        g{a} = g{b} * 2 + g{a};");
            }
            2 => {
                let _ = writeln!(src, "        if (g{a} % 3 == {}) g{b} = g{b} + 1;", k % 3);
            }
            3 => {
                let _ = writeln!(src, "        touch();");
            }
            _ => {
                let _ = writeln!(src, "        g{a} = g{a} ^ (g{b} + {c});");
            }
        }
    }
    for _ in 0..depth {
        src.push_str("    }\n");
    }
    for g in 0..globals {
        let _ = writeln!(src, "    print_int(g{g});");
    }
    src.push_str("    return 0;\n}\n");
    src
}

fn random_program(rng: &mut Rng) -> String {
    let globals = 1 + rng.below(4);
    let depth = 1 + rng.below(3);
    let n_stmts = 1 + rng.below(7);
    let stmts: Vec<(usize, usize, usize, i32)> = (0..n_stmts)
        .map(|_| {
            (
                rng.below(5),
                rng.below(5),
                rng.below(5),
                1 + rng.below(6) as i32,
            )
        })
        .collect();
    let pin_mask = rng.below(32);
    generate_program(globals, depth, &stmts, pin_mask)
}

/// The paper's master invariant: promotion (and the whole pipeline at
/// any precision) never changes program behaviour, and never increases
/// the number of executed loads or stores beyond the lift overhead.
#[test]
fn pipeline_preserves_behaviour_on_random_programs() {
    let mut rng = Rng::new(0x91BE_11E5);
    for _case in 0..48 {
        let src = random_program(&mut rng);
        let mut reference: Option<Vec<String>> = None;
        for (label, builder) in driver::SessionBuilder::figure_variants() {
            let out = builder
                .build()
                .compile(&src)
                .and_then(|c| c.run(vm::VmOptions::default()))
                .unwrap_or_else(|e| panic!("{label} on\n{src}\n: {e}"));
            match &reference {
                None => reference = Some(out.output),
                Some(r) => {
                    assert_eq!(r, &out.output, "variant {label} diverged on\n{src}")
                }
            }
        }
    }
}

/// Promotion alone (no other passes) is behaviour-preserving and
/// never increases memory traffic by more than the lift overhead
/// (2 ops per loop per promoted tag, conservatively bounded).
#[test]
fn promotion_bounds_memory_traffic() {
    let mut rng = Rng::new(0xB0CA_1057);
    for _case in 0..48 {
        let src = random_program(&mut rng);
        let mut base = minic::compile(&src).expect("compile");
        analysis::analyze(&mut base, analysis::AnalysisLevel::ModRef);
        let before = vm::Vm::run_main(&base, vm::VmOptions::default()).expect("run");
        let mut promoted = base.clone();
        opt::strengthen(&mut promoted);
        let report = promote::promote_module(&mut promoted);
        let after = vm::Vm::run_main(&promoted, vm::VmOptions::default()).expect("run");
        assert_eq!(before.output, after.output);
        // Loose lift-overhead bound: each lift executes at most once per
        // enclosing-loop entry; total loop entries are bounded by total
        // control transfers.
        let overhead = (report.lifts as u64 + 1) * (before.counts.control + 1);
        assert!(
            after.counts.memory_ops() <= before.counts.memory_ops() + overhead,
            "memory {} -> {} with lift overhead bound {}",
            before.counts.memory_ops(),
            after.counts.memory_ops(),
            overhead
        );
    }
}
