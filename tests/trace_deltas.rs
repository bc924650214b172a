//! Trace deltas telescope. Every stage that changes a function records
//! its before-minus-after static counts (instructions, loads, stores) as a
//! `Delta` event, measured against the snapshot the previous stage left.
//! Summed over one function, the deltas must therefore equal the counts of
//! its unoptimized body (`minic::compile`) minus those of its optimized
//! body — on every arm, and on warm incremental compiles whose chain
//! events are replayed from the cache. A stale snapshot anywhere breaks
//! the sum for that function; the golden digests would only say that some
//! output changed.

use analysis::AnalysisLevel;
use driver::prelude::*;
use std::collections::HashMap;
use trace::PassEvent;

/// `(instrs, loads, stores)` of one function body.
fn counts(func: &ir::Function) -> [i64; 3] {
    let s = func.body_stats();
    [s.instrs as i64, s.loads as i64, s.stores as i64]
}

/// Checks one compile of `src`: for every function, the sum of its delta
/// events equals its unoptimized counts minus its optimized counts.
/// Returns the number of functions checked.
fn assert_deltas_telescope(what: &str, src: &str, c: &Compilation) -> usize {
    let mut sums: HashMap<&str, [i64; 3]> = HashMap::new();
    for r in &c.trace.records {
        if let PassEvent::Delta {
            instrs_removed,
            loads_removed,
            stores_removed,
            ..
        } = r.event
        {
            let delta = [instrs_removed, loads_removed, stores_removed];
            let sum = sums.entry(r.func.as_str()).or_default();
            *sum = [0, 1, 2].map(|i| sum[i] + delta[i]);
        }
    }
    assert!(!sums.is_empty(), "{what}: no delta recorded");
    let before = minic::compile(src).unwrap_or_else(|e| panic!("{what}: {e}"));
    assert_eq!(before.funcs.len(), c.module.funcs.len(), "{what}");
    for (b, a) in before.funcs.iter().zip(&c.module.funcs) {
        assert_eq!(b.name, a.name, "{what}");
        let (b_counts, a_counts) = (counts(b), counts(a));
        let want = [0, 1, 2].map(|i| b_counts[i] - a_counts[i]);
        let got = sums.get(b.name.as_str()).copied().unwrap_or_default();
        assert_eq!(
            got, want,
            "{what}: @{}: summed deltas vs (instrs, loads, stores) {b_counts:?} -> {a_counts:?}",
            b.name
        );
    }
    before.funcs.len()
}

/// The cold arms: the default, points-to with pointer promotion, and a
/// tight register file that spills.
fn cold_arms() -> Vec<(&'static str, Session)> {
    let traced = |b: SessionBuilder| b.threads(Some(1)).trace(true).build();
    vec![
        ("default", traced(Session::builder())),
        (
            "pointer",
            traced(
                Session::builder()
                    .analysis(AnalysisLevel::PointsTo)
                    .pointer_promote(true),
            ),
        ),
        (
            "tight",
            traced(Session::builder().regalloc(Some(AllocOptions {
                num_regs: 8,
                ..Default::default()
            }))),
        ),
    ]
}

#[test]
fn deltas_telescope_on_every_cold_arm() {
    for (arm, session) in cold_arms() {
        let mut funcs = 0;
        for b in benchsuite::SUITE {
            let what = format!("{} [{arm}]", b.name);
            let c = session
                .compile(b.source)
                .unwrap_or_else(|e| panic!("{what}: {e}"));
            funcs += assert_deltas_telescope(&what, b.source, &c);
        }
        assert!(funcs > benchsuite::SUITE.len(), "{arm}: {funcs} functions");
    }
}

#[test]
fn deltas_telescope_on_warm_incremental_recompiles() {
    let session = Session::builder()
        .threads(Some(1))
        .trace(true)
        .incremental(true)
        .build();
    let pair = benchsuite::warm_edit_pair();
    let mut programs: Vec<(String, &str)> = vec![
        ("base".into(), pair.base),
        ("edited".into(), &pair.edited),
        ("base again".into(), pair.base),
    ];
    for b in benchsuite::SUITE {
        programs.push((b.name.into(), b.source));
        programs.push((format!("{} again", b.name), b.source));
    }
    let mut replayed = 0;
    for (name, src) in programs {
        let what = format!("{name} [warm]");
        let c = session
            .compile(src)
            .unwrap_or_else(|e| panic!("{what}: {e}"));
        assert_deltas_telescope(&what, src, &c);
        replayed += c.trace.cached_funcs().len();
    }
    assert!(replayed > 0, "no compile replayed cached chain events");
}
