//! Exact dynamic counts, pinned: every suite program under five pipeline
//! arms must execute exactly the operations, loads, stores and per-class
//! counts recorded in `tests/golden/exec_counts.txt`, with the recorded
//! exit code and output. The counts are the paper's Figures 5–7 metric;
//! any change to how the VM counts, or to what the pipeline emits, shows
//! up here as a named row. The runs go through the profiled path, whose
//! per-block counts must add up to the whole-run counts.
//!
//! After a deliberate change to the optimizer or to a suite program,
//! rewrite the file with `PROMO_BLESS_COUNTS=1 cargo test --test
//! exec_counts` and review the diff.

use analysis::AnalysisLevel;
use driver::prelude::*;
use std::fmt::Write as _;
use std::path::Path;

fn arms() -> Vec<(&'static str, Session)> {
    let one = |b: SessionBuilder| b.threads(Some(1)).build();
    vec![
        (
            "reference",
            one(Session::builder()
                .optimize(false)
                .promote(false)
                .regalloc(None)),
        ),
        ("default", one(Session::builder())),
        (
            "pointer",
            one(Session::builder()
                .analysis(AnalysisLevel::PointsTo)
                .pointer_promote(true)),
        ),
        (
            "tight",
            one(Session::builder().regalloc(Some(AllocOptions {
                num_regs: 8,
                ..Default::default()
            }))),
        ),
        (
            "steens",
            one(Session::builder().analysis(AnalysisLevel::Steensgaard)),
        ),
    ]
}

#[test]
fn suite_counts_match_the_golden_table() {
    let mut actual = String::new();
    for (arm, session) in arms() {
        for b in benchsuite::SUITE {
            let (out, profile) = session
                .compile(b.source)
                .and_then(|c| c.run_profiled(VmOptions::default()))
                .unwrap_or_else(|e| panic!("{} [{arm}]: {e}", b.name));
            assert_eq!(profile.total(), out.counts, "{} [{arm}]", b.name);
            writeln!(actual, "{} {arm} {out}", b.name).unwrap();
        }
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/exec_counts.txt");
    bench_harness::golden::check(&path, &actual);
}

/// The README's example: a global summed in a 100-trip loop. With
/// promotion the loop body's block runs as often, executes half the
/// operations and touches memory not at all.
#[test]
fn promotion_removes_the_loop_bodys_memory_traffic() {
    const SRC: &str = "int g;\nint main() {\n  int i;\n  \
                       for (i = 0; i < 100; i = i + 1) { g = g + i; }\n  \
                       print_int(g);\n  return 0;\n}\n";
    let body = |builder: SessionBuilder| {
        let session = builder.threads(Some(1)).build();
        let c = session.compile(SRC).expect("compiles");
        let (out, profile) = c.run_profiled(VmOptions::default()).expect("runs");
        assert_eq!(out.output, ["4950"]);
        let main = profile.func(c.module.lookup_func("main").expect("main"));
        // The body is the first of the blocks that run once per trip; the
        // increment's block follows it.
        let body = main.blocks.iter().find(|b| b.entries == 100);
        let c = body.expect("a block runs once per trip").counts;
        (c.total, c.loads, c.stores)
    };
    assert_eq!(body(Session::builder().promote(false)), (400, 100, 100));
    assert_eq!(body(Session::builder()), (200, 0, 0));
}
