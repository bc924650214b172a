//! Direct tests of the paper's prose claims, sentence by sentence.

use analysis::AnalysisLevel;
use driver::prelude::*;

/// Compiles and executes through the Session API, returning the outcome
/// and report pair the old tuple helpers used to.
fn run(src: &str, builder: SessionBuilder) -> Result<(Outcome, PipelineReport), Error> {
    let c = builder.build().compile(src)?;
    Ok((c.run(VmOptions::default())?, c.report))
}

/// §5: "Register promotion's main benefit seems to be transforming
/// multiple stores of a promoted variable in a loop to a single store at
/// the loop's exit, an effect that other optimization passes cannot
/// achieve."
#[test]
fn no_other_pass_can_remove_loop_stores() {
    let src = r#"
int g;
int main() {
    int i;
    for (i = 0; i < 1000; i++) {
        g = g + i;
    }
    print_int(g);
    return 0;
}
"#;
    // The FULL optimizer without promotion: value numbering, load
    // elimination, constant propagation, LICM, DCE, clean, allocation.
    let no_promo = Session::builder()
        .analysis(AnalysisLevel::PointsTo)
        .promote(false);
    let (base, _) = run(src, no_promo).unwrap();
    assert!(
        base.counts.stores >= 1000,
        "no other pass removes the loop stores: {}",
        base.counts.stores
    );
    // Promotion converts them to one store at the loop exit.
    let promo = Session::builder()
        .analysis(AnalysisLevel::PointsTo)
        .promote(true);
    let (with, _) = run(src, promo).unwrap();
    assert_eq!(base.output, with.output);
    assert!(
        with.counts.stores <= 2,
        "a single store at the exit: {}",
        with.counts.stores
    );
}

/// §1/§5: "these results are relatively insensitive to the precision of
/// the pointer analysis" — for programs without the aliasing patterns
/// that need points-to, MOD/REF alone recovers the entire benefit.
#[test]
fn modref_matches_pointer_analysis_where_the_paper_says_so() {
    for name in ["mlink", "clean", "indent", "go", "dhrystone"] {
        let b = benchsuite::find(name).unwrap();
        let mut per_level = Vec::new();
        for level in [AnalysisLevel::ModRef, AnalysisLevel::PointsTo] {
            let builder = Session::builder().analysis(level).promote(true);
            let (out, _) = run(b.source, builder).unwrap_or_else(|e| panic!("{name}: {e}"));
            per_level.push((out.counts.loads, out.counts.stores));
        }
        assert_eq!(per_level[0], per_level[1], "{name}: modref == pointer");
    }
}

/// §5: "Most of the improvements were the result of global variables
/// which are normally placed in memory being promoted to registers."
#[test]
fn promoted_tags_are_predominantly_globals() {
    let b = benchsuite::find("mlink").unwrap();
    let mut m = minic::compile(b.source).unwrap();
    analysis::analyze(&mut m, AnalysisLevel::ModRef);
    opt::strengthen(&mut m);
    for fi in 0..m.funcs.len() {
        cfg::normalize_loops(&mut m.funcs[fi]);
    }
    let mut global_tags = 0;
    let mut other_tags = 0;
    for func in &m.funcs {
        for t in promote::promotable_tags(func).iter() {
            match m.tags.info(t).kind {
                ir::TagKind::Global => global_tags += 1,
                _ => other_tags += 1,
            }
        }
    }
    assert!(global_tags > 0);
    assert!(
        global_tags >= other_tags,
        "globals dominate the promoted set: {global_tags} vs {other_tags}"
    );
}

/// §2: "if multiple names exist for a value, it must be stored to memory
/// after every definition and loaded from memory before each use" — and
/// the compiler must keep doing that when analysis cannot prove otherwise.
#[test]
fn aliased_values_keep_their_memory_traffic() {
    let src = r#"
int x;
int y;
int which;
int *p;
int main() {
    if (which) { p = &x; } else { p = &y; }
    int i;
    for (i = 0; i < 100; i++) {
        x = x + 1;
        *p = *p + 1;
    }
    print_int(x);
    print_int(y);
    return 0;
}
"#;
    let builder = Session::builder()
        .analysis(AnalysisLevel::PointsTo)
        .promote(true);
    let (out, report) = run(src, builder).unwrap();
    assert_eq!(out.output, vec!["100", "100"]);
    // Neither x nor y may be enregistered (either may be *p)... but the
    // pointer variable p itself is an unaliased global scalar, and
    // promotion correctly claims exactly it.
    assert_eq!(report.promotion.scalar.promoted_tags, 1);
    let mut m = minic::compile(src).unwrap();
    analysis::analyze(&mut m, AnalysisLevel::PointsTo);
    for fi in 0..m.funcs.len() {
        cfg::normalize_loops(&mut m.funcs[fi]);
    }
    let main = m.main().unwrap();
    let promotable = promote::promotable_tags(m.func(main));
    let names: Vec<&str> = promotable
        .iter()
        .map(|t| m.tags.info(t).name.as_str())
        .collect();
    assert_eq!(names, vec!["g:p"], "only the pointer variable itself");
    // The aliased cells keep their full memory traffic.
    assert!(out.counts.stores >= 200);
}

/// §3.1 equations: "a tag t is only loaded and stored around the
/// outermost loop where it may be promoted" — one lift, not one per loop
/// level.
#[test]
fn lift_happens_at_the_outermost_safe_loop_only() {
    let src = r#"
int g;
int main() {
    int i; int j; int k;
    for (i = 0; i < 10; i++)
        for (j = 0; j < 10; j++)
            for (k = 0; k < 10; k++)
                g = g + 1;
    print_int(g);
    return 0;
}
"#;
    let builder = Session::builder()
        .analysis(AnalysisLevel::ModRef)
        .promote(true);
    let (out, _) = run(src, builder).unwrap();
    assert_eq!(out.output, vec!["1000"]);
    // One load before the nest, one store after: not 10 or 100.
    assert!(out.counts.loads <= 5, "loads = {}", out.counts.loads);
    assert!(out.counts.stores <= 5, "stores = {}", out.counts.stores);
}

/// §2 Table 1: the opcode hierarchy is observable end to end — after
/// points-to analysis and strengthening, a provably unambiguous pointer
/// dereference executes as a *scalar* access.
#[test]
fn table1_hierarchy_strengthens_end_to_end() {
    let src = r#"
int cell;
int main() {
    int *p = &cell;
    int i;
    int s = 0;
    for (i = 0; i < 10; i++) {
        *p = i;
        s = s + *p;
    }
    print_int(s);
    return 0;
}
"#;
    // Promotion off so the access class is visible in the counts.
    let builder = Session::builder()
        .analysis(AnalysisLevel::PointsTo)
        .promote(false);
    let (out, _) = run(src, builder).unwrap();
    assert_eq!(out.output, vec!["45"]);
    assert_eq!(
        out.counts.ptr_loads, 0,
        "every load strengthened to scalar form"
    );
    assert_eq!(
        out.counts.ptr_stores, 0,
        "every store strengthened to scalar form"
    );
}
