//! The allocator's rounds are incremental: each function's liveness is
//! solved once, the parameter rename, a coalescing sweep and a spill round
//! re-solve only the registers they changed, and a spill round in a
//! function without parameters patches the interference graph instead of
//! rebuilding it. Debug builds check every such step against a solve and
//! a build from scratch (`cfg::FunctionAnalyses::note_regs_changed` and
//! the allocator's graph check), so this test, run in a debug build,
//! drives those checks through the suite at register counts from starved
//! to roomy and through the CI campaign's programs (seeds from `0xC0FFEE`)
//! at 4 and 8 registers. Every compile must come back `Ok`, or as the typed
//! error for a register file too small for some function or an allocation
//! that did not converge, and an `Ok` compile must have solved liveness
//! exactly once per function.

use driver::prelude::*;
use fuzz::generate;

const FIRST_SEED: u64 = 0xC0FFEE;

fn session(num_regs: usize) -> Session {
    Session::builder()
        .threads(Some(1))
        .regalloc(Some(AllocOptions {
            num_regs,
            ..AllocOptions::default()
        }))
        .build()
}

/// Compiles `src` at `k` registers; returns whether it allocated.
fn allocate(session: &Session, k: usize, name: &str, src: &str) -> bool {
    match session.compile(src) {
        Ok(c) => {
            assert_eq!(
                c.report.analysis_builds.liveness,
                c.module.funcs.len() as u64,
                "{name} at {k} registers: one liveness solve per function"
            );
            true
        }
        Err(Error::Registers { num_regs, .. }) => {
            assert_eq!(num_regs, k, "{name}");
            false
        }
        Err(Error::Alloc(e)) => {
            assert_eq!(e.num_regs, k, "{name}");
            false
        }
        Err(e) => panic!("{name} at {k} registers: {e}"),
    }
}

#[test]
fn suite_allocates_incrementally_at_every_register_count() {
    let mut ok = 0;
    for k in [2, 3, 4, 6, 8, 16, 32] {
        let session = session(k);
        for b in benchsuite::SUITE {
            ok += usize::from(allocate(&session, k, b.name, b.source));
        }
    }
    // From 6 registers up every suite program allocates.
    assert!(ok >= 4 * benchsuite::SUITE.len(), "{ok} compiles allocated");
}

#[test]
fn campaign_programs_allocate_incrementally_at_4_and_8_registers() {
    let mut ok = 0;
    for k in [4, 8] {
        let session = session(k);
        for seed in FIRST_SEED..FIRST_SEED + 200 {
            let name = format!("seed {seed:#x}");
            ok += usize::from(allocate(&session, k, &name, &generate(seed).render()));
        }
    }
    assert!(ok > 200, "{ok} of 400 compiles allocated");
}
