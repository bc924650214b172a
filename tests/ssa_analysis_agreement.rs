//! Checks the register-granularity substitution for the paper's SSA-based
//! points-to analysis (`DESIGN.md` §8.7). The pipeline's `pointer` level
//! propagates over registers; the paper propagates over SSA names. Here
//! each suite module is normalized as at the analysis barrier, and a side
//! copy is converted to pruned SSA. Both are analyzed, and every SSA
//! name's points-to set (tags and functions) must lie within the set of
//! the register it versions: SSA names can only be sharper, never wider,
//! so the register level keeps every alias the paper's level sees.
//! EXPERIMENTS.md ("SSA-name points-to: the measured gap") records what
//! the sharper sets were worth when a pipeline level installed them.

use analysis::{points_to_analyze, PointerFacts, Pts};
use driver::prelude::*;
use ir::Module;

/// Per function and SSA name: the name's set and the set of the register
/// it versions, for `src` normalized as at the analysis barrier.
fn ssa_and_register_sets(src: &str) -> Vec<Vec<(Pts, Pts)>> {
    let mut module = minic::compile(src).expect("compiles");
    for f in &mut module.funcs {
        cfg::normalize_loops(f);
    }
    let registers = points_to_analyze(&module);
    let mut in_ssa: Module = module.clone();
    let origins: Vec<ssa::SsaMap> = in_ssa
        .funcs
        .iter_mut()
        .map(|f| {
            let map = ssa::construct(f);
            ssa::verify_ssa(f).unwrap_or_else(|e| panic!("{}: {e}", f.name));
            map
        })
        .collect();
    let PointerFacts { regs: names } = points_to_analyze(&in_ssa);
    names
        .into_iter()
        .zip(&origins)
        .zip(&registers.regs)
        .map(|((names, map), regs)| {
            names
                .into_iter()
                .enumerate()
                .map(|(r, name)| {
                    let origin = map.origin_of(ir::Reg(r as u32));
                    (name, regs[origin.index()].clone())
                })
                .collect()
        })
        .collect()
}

fn within(name: &Pts, reg: &Pts) -> bool {
    name.tags.is_subset(&reg.tags) && name.funcs.is_subset(&reg.funcs)
}

#[test]
fn ssa_names_point_within_their_registers_on_every_suite_program() {
    for b in benchsuite::SUITE {
        let sets = ssa_and_register_sets(b.source);
        let mut pointers = 0;
        for (fi, func) in sets.iter().enumerate() {
            for (r, (name, reg)) in func.iter().enumerate() {
                assert!(
                    within(name, reg),
                    "{}: function {fi}, SSA name r{r}: {name:?} is not within {reg:?}",
                    b.name
                );
                pointers += usize::from(!name.tags.is_empty() || !name.funcs.is_empty());
            }
        }
        assert!(pointers > 0, "{}: no SSA name points anywhere", b.name);
    }
}

#[test]
fn ssa_granularity_is_at_least_as_precise_on_reassigned_pointers() {
    // p points at x, is dereferenced, then repointed at y and dereferenced
    // again. Register granularity merges both targets into p's one set;
    // SSA granularity keeps p1 = &x apart from p2 = &y.
    let src = r#"
int x;
int y;
int main() {
    int *p = &x;
    *p = 1;
    p = &y;
    *p = 2;
    print_int(x);
    print_int(y);
    return 0;
}
"#;
    let sets = ssa_and_register_sets(src);
    for (name, reg) in sets.iter().flatten() {
        assert!(within(name, reg), "{name:?} is not within {reg:?}");
    }
    // Names that point somewhere, with their size and their register's.
    // (The registers construction renamed away keep empty sets.)
    let sizes: Vec<(usize, usize)> = sets
        .iter()
        .flatten()
        .filter(|(name, _)| !name.tags.is_empty())
        .map(|(name, reg)| (name.tags.len(), reg.tags.len()))
        .collect();
    // In definition order: `&x`, p's first version, `&y`, p's second.
    // Each version of p has one target, out of the register's two.
    assert_eq!(sizes, vec![(1, 1), (1, 2), (1, 1), (1, 2)]);

    // The merged set stays sound: with promotion at register granularity,
    // the program still prints both stored values.
    let c = Session::builder()
        .analysis(AnalysisLevel::PointsTo)
        .promote(true)
        .build()
        .compile(src)
        .expect("pipeline");
    let out = c.run(VmOptions::default()).expect("runs");
    assert_eq!(out.output, vec!["1", "2"]);
}
