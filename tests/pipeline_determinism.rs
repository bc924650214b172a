//! The parallel pipeline is bit-deterministic: any worker count produces
//! byte-identical printed IL and identical report counters.
//!
//! This is the load-bearing guarantee behind the per-function fan-out —
//! per-function passes share only the read-only tag table, and regalloc's
//! spill tags are committed in function-index order — so it is checked
//! across the whole benchmark suite at every figure variant.

use driver::{PipelineReport, Session, SessionBuilder};

fn counters(r: &PipelineReport) -> (usize, String, usize, usize, usize, usize, usize, usize) {
    (
        r.strengthened,
        format!("{:?}{:?}", r.promotion, r.alloc),
        r.lvn_rewrites,
        r.loads_eliminated,
        r.constants_folded,
        r.licm_moved,
        r.dce_removed,
        r.cleaned,
    )
}

/// Runs a session's pipeline over a copy of `base`.
fn optimize(session: &Session, base: &ir::Module) -> (ir::Module, PipelineReport, String) {
    let mut m = base.clone();
    let (report, log) = session.optimize(&mut m).expect("pipeline output validates");
    (m, report, log.to_jsonl())
}

#[test]
fn parallel_pipeline_matches_sequential_everywhere() {
    let variants: Vec<(&str, Vec<Session>)> = SessionBuilder::figure_variants()
        .into_iter()
        .map(|(label, builder)| {
            let at = |n| builder.clone().threads(Some(n)).build();
            (label, vec![at(1), at(2), at(8)])
        })
        .collect();
    for b in benchsuite::SUITE {
        let base = minic::compile(b.source).unwrap_or_else(|e| panic!("{}: {e}", b.name));
        for (label, sessions) in &variants {
            let (m_seq, r_seq, _) = optimize(&sessions[0], &base);
            for (session, workers) in sessions[1..].iter().zip([2, 8]) {
                let (m_par, r_par, _) = optimize(session, &base);
                assert_eq!(
                    m_seq.to_string(),
                    m_par.to_string(),
                    "{}/{label}: printed IL diverged between 1 and {workers} threads",
                    b.name
                );
                assert_eq!(
                    counters(&r_seq),
                    counters(&r_par),
                    "{}/{label}: report counters diverged at {workers} threads",
                    b.name
                );
            }
        }
    }
}

/// The remark stream is part of the determinism contract: with tracing
/// on, every worker count must produce a byte-identical JSONL trace (and
/// the same IL as the untraced pipeline). Events are buffered
/// per-function in the workers and assembled in function-index order, so
/// scheduling must not be observable.
#[test]
fn remark_streams_are_identical_across_worker_counts() {
    let sessions: Vec<(usize, Session)> = [1, 2, 8]
        .into_iter()
        .map(|n| (n, Session::builder().threads(Some(n)).trace(true).build()))
        .collect();
    let mut suite_records = 0usize;
    for b in benchsuite::SUITE {
        let base = minic::compile(b.source).unwrap_or_else(|e| panic!("{}: {e}", b.name));
        let mut reference: Option<String> = None;
        for (workers, session) in &sessions {
            let (_, _, jsonl) = optimize(session, &base);
            suite_records += jsonl.lines().count();
            match &reference {
                None => reference = Some(jsonl),
                Some(r) => assert_eq!(
                    r, &jsonl,
                    "{}: remark stream diverged between 1 and {workers} workers",
                    b.name
                ),
            }
        }
    }
    assert!(suite_records > 0, "the suite must emit remarks");
}

#[test]
fn env_override_is_equivalent_to_explicit() {
    // PROMO_THREADS only fills in when the config leaves threads unset.
    assert_eq!(driver::resolve_threads(Some(1)), 1);
    assert_eq!(driver::resolve_threads(Some(6)), 6);
    let b = &benchsuite::SUITE[0];
    let base = minic::compile(b.source).expect("compile");
    let (with_auto, _, _) = optimize(&Session::builder().threads(None).build(), &base);
    let (with_one, _, _) = optimize(&Session::builder().threads(Some(1)).build(), &base);
    assert_eq!(with_auto.to_string(), with_one.to_string());
}
