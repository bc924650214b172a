//! The paper's Figure 3: promoting the array reference `B[i]` in
//! `for (j...) B[i] += A[i][j];` — the address of `B[i]` is invariant in
//! the inner loop, so pointer-based promotion (§3.3) keeps the element in
//! a register `rb` exactly as the figure's transformed code shows.

use analysis::AnalysisLevel;
use driver::prelude::*;

/// Compiles and executes through the Session API, returning the outcome
/// and report pair the old tuple helpers used to.
fn run_config(src: &str, builder: SessionBuilder) -> Result<(Outcome, PipelineReport), Error> {
    let c = builder.build().compile(src)?;
    Ok((c.run(VmOptions::default())?, c.report))
}

const DIM_X: i64 = 12;
const DIM_Y: i64 = 16;

fn figure3_source() -> String {
    format!(
        r#"
int A[{x}][{y}];
int B[{x}];
int main() {{
    int i; int j;
    for (i = 0; i < {x}; i++)
        for (j = 0; j < {y}; j++)
            A[i][j] = i * 3 + j;
    for (i = 0; i < {x}; i++) {{
        B[i] = 0;
        for (j = 0; j < {y}; j++) {{
            B[i] += A[i][j];
        }}
    }}
    int s = 0;
    for (i = 0; i < {x}; i++) s += B[i];
    print_int(s);
    return 0;
}}
"#,
        x = DIM_X,
        y = DIM_Y
    )
}

fn expected_sum() -> i64 {
    let mut s = 0;
    for i in 0..DIM_X {
        for j in 0..DIM_Y {
            s += i * 3 + j;
        }
    }
    s
}

#[test]
fn pointer_promotion_keeps_b_i_in_a_register() {
    let src = figure3_source();
    let scalar_only = Session::builder()
        .analysis(AnalysisLevel::PointsTo)
        .promote(true);
    let with_ptr = scalar_only.clone().pointer_promote(true);
    let (base, _) = run_config(&src, scalar_only.clone()).expect("scalar");
    let (ptr, report) = run_config(&src, with_ptr).expect("pointer");
    assert_eq!(base.output, ptr.output);
    assert_eq!(base.output, vec![expected_sum().to_string()]);
    assert!(
        report.promotion.pointer.promoted_bases >= 1,
        "the B[i] base was promoted: {report:?}"
    );
    // The inner-loop load and store of B[i] become copies: the figure's
    // DIM_X * DIM_Y * 2 accumulator memory ops collapse to about
    // DIM_X * 2 (one load before and one store after each inner loop).
    let saved = (DIM_X * DIM_Y * 2 - DIM_X * 2) as u64;
    assert!(
        ptr.counts.memory_ops() + saved / 2 <= base.counts.memory_ops(),
        "memory ops {} -> {} (expected roughly {} fewer)",
        base.counts.memory_ops(),
        ptr.counts.memory_ops(),
        saved
    );
}

#[test]
fn scalar_promotion_alone_cannot_do_this() {
    // The paper's point: the loop-based scalar algorithm does not promote
    // array references; only §3.3 catches B[i].
    let src = figure3_source();
    let c = Session::builder()
        .analysis(AnalysisLevel::PointsTo)
        .promote(true)
        .build()
        .compile(&src)
        .expect("compile");
    let (module, report) = (c.module, c.report);
    assert_eq!(report.promotion.pointer.promoted_bases, 0);
    // The inner loop still stores through a pointer into B every iteration.
    let b_tag = module.tags.lookup("g:B").expect("B's tag");
    let stores_to_b = module
        .funcs
        .iter()
        .flat_map(|f| f.blocks.iter())
        .flat_map(|b| b.instrs.iter())
        .filter(|i| match i {
            ir::Instr::Store { tags, .. } => tags.contains(b_tag),
            _ => false,
        })
        .count();
    assert!(stores_to_b > 0, "B is still accessed through memory");
}
