//! Validates the register-granularity substitution for the paper's
//! SSA-based points-to analysis (`DESIGN.md` §8): on every suite program,
//! the default `PointsTo` level and the paper-faithful `PointsToSsa`
//! level must enable exactly the same promotions and produce identical
//! program output.

use analysis::AnalysisLevel;
use driver::prelude::*;

fn promoted_tags(src: &str, level: AnalysisLevel) -> (usize, Vec<String>) {
    let c = Session::builder()
        .analysis(level)
        .promote(true)
        .build()
        .compile(src)
        .expect("pipeline");
    let out = c.run(VmOptions::default()).expect("runs");
    (c.report.promotion.scalar.promoted_tags, out.output)
}

#[test]
fn ssa_and_register_granularity_promote_identically_on_fast_programs() {
    for name in ["allroots", "fft", "bc", "dhrystone", "gzip_dec"] {
        let b = benchsuite::find(name).expect("suite program");
        let (reg_tags, reg_out) = promoted_tags(b.source, AnalysisLevel::PointsTo);
        let (ssa_tags, ssa_out) = promoted_tags(b.source, AnalysisLevel::PointsToSsa);
        assert_eq!(reg_out, ssa_out, "{name}: outputs agree");
        assert_eq!(
            reg_tags, ssa_tags,
            "{name}: both analyses enable the same promotions"
        );
    }
}

#[test]
fn ssa_granularity_is_at_least_as_precise_on_reassigned_pointers() {
    // p points at x, is dereferenced, then repointed at y and dereferenced
    // again. Register granularity merges both targets into p's one set;
    // SSA granularity distinguishes p1 = &x from p2 = &y. Both must be
    // sound; SSA must leave each store a singleton.
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
    // Soundness + equivalence of observable behaviour.
    let (_, reg_out) = promoted_tags(src, AnalysisLevel::PointsTo);
    let (_, ssa_out) = promoted_tags(src, AnalysisLevel::PointsToSsa);
    assert_eq!(reg_out, ssa_out);
    assert_eq!(reg_out, vec!["1", "2"]);

    // Inspect precision directly: after SSA-level analysis, both stores
    // carry singleton tag sets.
    let mut m = minic::compile(src).unwrap();
    analysis::analyze(&mut m, AnalysisLevel::PointsToSsa);
    let singles = m
        .funcs
        .iter()
        .flat_map(|f| f.blocks.iter())
        .flat_map(|b| b.instrs.iter())
        .filter(|i| matches!(i, ir::Instr::Store { tags, .. } if tags.as_singleton().is_some()))
        .count();
    assert_eq!(singles, 2, "each store pinned to exactly one target");
}
