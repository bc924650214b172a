//! The compiler's work, pinned: every suite program on the default arm
//! and at 8 registers must build exactly the analysis artifacts (CFG,
//! dominators, loop forest, loop geometry, liveness) and do exactly the
//! dataflow solver work (blocks visited, transfer evaluations, worklist
//! pushes) recorded in `tests/golden/work_counts.txt`, and the warm edit
//! of `benchsuite::warm_edit_pair` on an incremental session must
//! recompile exactly the recorded functions. The counts are deterministic,
//! so a pass that starts rebuilding what it used to reuse, a solver that
//! drifts back toward dense resweeps, or a cache key that starts missing
//! shows up here as a named row, however small the drift.
//!
//! Each program's row must also be the same on a fresh session, on a
//! warm session's second compile, and at 2 workers.
//!
//! After a deliberate change to the optimizer or to a suite program,
//! rewrite the file with `PROMO_BLESS_COUNTS=1 cargo test --test
//! work_counts` and review the diff.

use driver::prelude::*;
use std::fmt::Write as _;
use std::path::Path;

fn arms() -> [(&'static str, SessionBuilder); 2] {
    [
        ("default", Session::builder()),
        (
            "tight",
            Session::builder().regalloc(Some(AllocOptions {
                num_regs: 8,
                ..Default::default()
            })),
        ),
    ]
}

/// The five analysis-build counters, then the three dataflow counters.
fn work(report: &PipelineReport) -> String {
    let b = &report.analysis_builds;
    let d = &report.dataflow_stats;
    format!(
        "cfg={} dom={} forest={} geometry={} liveness={} \
         blocks_visited={} transfer_evals={} worklist_pushes={}",
        b.cfg,
        b.dom,
        b.forest,
        b.geometry,
        b.liveness,
        d.blocks_visited,
        d.transfer_evals,
        d.worklist_pushes
    )
}

fn compile(session: &Session, name: &str, src: &str) -> PipelineReport {
    session
        .compile(src)
        .unwrap_or_else(|e| panic!("{name}: {e}"))
        .report
}

#[test]
fn work_counts_match_the_golden_table() {
    let mut actual = String::new();
    for (arm, builder) in arms() {
        let warm = builder.clone().threads(Some(1)).build();
        let two = builder.clone().threads(Some(2)).build();
        let mut total = PipelineReport::default();
        for b in benchsuite::SUITE {
            let fresh = compile(&builder.clone().threads(Some(1)).build(), b.name, b.source);
            // Warm `warm` on this program; its second compile is checked.
            compile(&warm, b.name, b.source);
            let row = work(&fresh);
            for (how, report) in [
                ("a warm second compile", compile(&warm, b.name, b.source)),
                ("2 workers", compile(&two, b.name, b.source)),
            ] {
                assert_eq!(work(&report), row, "{} [{arm}] on {how}", b.name);
            }
            total.analysis_builds.add(&fresh.analysis_builds);
            total.dataflow_stats.add(&fresh.dataflow_stats);
            writeln!(actual, "{} {arm} {row}", b.name).unwrap();
        }
        writeln!(
            actual,
            "total {arm} builds={} {}",
            total.analysis_builds.total(),
            work(&total)
        )
        .unwrap();
    }

    let pair = benchsuite::warm_edit_pair();
    let session = Session::builder()
        .threads(Some(1))
        .incremental(true)
        .build();
    session.compile(pair.base).expect("base compiles");
    let edited = session.compile(&pair.edited).expect("edited compiles");
    let incr = edited
        .report
        .incremental
        .as_ref()
        .expect("incremental session reports cache activity");
    let recompiled: Vec<&str> = edited
        .module
        .funcs
        .iter()
        .map(|f| f.name.as_str())
        .filter(|f| !edited.trace.is_cached(f))
        .collect();
    writeln!(
        actual,
        "warm_edit {} funcs_total={} funcs_recompiled={} cache_hits={} \
         summary_invalidated={} recompiled={}",
        pair.name,
        incr.funcs_total,
        incr.funcs_recompiled,
        incr.cache_hits,
        incr.summary_invalidated,
        recompiled.join(",")
    )
    .unwrap();

    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/work_counts.txt");
    bench_harness::golden::check(&path, &actual);
}
