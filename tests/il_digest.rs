//! Byte-identical output, pinned: every suite program under the five
//! pipeline arms of `tests/exec_counts.rs`, built with tracing on, must
//! print exactly the optimized IL and the JSONL remark stream whose
//! FNV-1a digests are recorded in `tests/golden/il_digest.txt`. A change
//! that claims to leave the compiler's output alone (a faster solver, a
//! different hash table) shows up here as a named row if it does not.
//!
//! After a deliberate change to the optimizer or to a suite program,
//! rewrite the file with `PROMO_BLESS_COUNTS=1 cargo test --test
//! il_digest` and review the diff.

use analysis::AnalysisLevel;
use bench_harness::golden::{check, fnv1a};
use driver::prelude::*;
use std::fmt::Write as _;
use std::path::Path;

/// The arms of `tests/exec_counts.rs`, with tracing on.
fn arms() -> Vec<(&'static str, Session)> {
    let one = |b: SessionBuilder| b.threads(Some(1)).trace(true).build();
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
fn suite_il_and_remarks_match_the_golden_digests() {
    let mut actual = String::new();
    for (arm, session) in arms() {
        for b in benchsuite::SUITE {
            let c = session
                .compile(b.source)
                .unwrap_or_else(|e| panic!("{} [{arm}]: {e}", b.name));
            let il = ir::module_to_string(&c.module);
            writeln!(
                actual,
                "{} {arm} il={:016x} trace={:016x}",
                b.name,
                fnv1a(il.as_bytes()),
                fnv1a(c.trace_jsonl().as_bytes()),
            )
            .unwrap();
        }
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/il_digest.txt");
    check(&path, &actual);
}
