//! Generator guarantees: every seed yields a program the whole pipeline
//! accepts and the VM runs trap-free, generation is deterministic, and a
//! modest campaign exercises every construct the grammar can emit.

use driver::prelude::*;
use fuzz::{generate, ConstructStats};

/// Seeds covered by the compile/run sweep. Matches the CI smoke run's
/// count so a generator regression fails here before it fails in CI.
const SWEEP: u64 = 300;

#[test]
fn every_seed_compiles_and_runs_cleanly() {
    // One warm session for the whole sweep — this is the Session API's
    // whole point, and it keeps 300 compiles under a few seconds.
    let session = Session::builder().threads(Some(1)).build();
    for seed in 0..SWEEP {
        let source = generate(seed).render();
        let outcome = session
            .compile(&source)
            .and_then(|c| c.run(VmOptions::default()))
            .unwrap_or_else(|e| panic!("seed {seed:#x}: {e}\n{source}"));
        assert_eq!(
            outcome.exit_code, 0,
            "seed {seed:#x}: main must return 0\n{source}"
        );
    }
}

#[test]
fn generation_is_deterministic() {
    for seed in [0, 1, 0xC0FFEE, u64::MAX] {
        let a = generate(seed).render();
        let b = generate(seed).render();
        assert_eq!(a, b, "seed {seed:#x} must be reproducible");
    }
    assert_ne!(
        generate(7).render(),
        generate(8).render(),
        "adjacent seeds should differ"
    );
}

#[test]
fn campaign_exercises_every_construct() {
    let mut stats = ConstructStats::default();
    for seed in 0..SWEEP {
        stats.merge(&ConstructStats::of(&generate(seed)));
    }
    // Every counter the generator can emit must actually fire over a
    // 300-seed campaign; a silent zero means a grammar path is dead.
    let hits = [
        ("globals", stats.globals),
        ("global_arrays", stats.global_arrays),
        ("global_ptrs", stats.global_ptrs),
        ("helpers", stats.helpers),
        ("recursive_helpers", stats.recursive_helpers),
        ("fors", stats.fors),
        ("whiles", stats.whiles),
        ("do_whiles", stats.do_whiles),
        ("ifs", stats.ifs),
        ("derefs", stats.derefs),
        ("addr_of_local", stats.addr_of_local),
        ("addr_of_global", stats.addr_of_global),
        ("indexes", stats.indexes),
        ("mallocs", stats.mallocs),
        ("local_arrays", stats.local_arrays),
        ("calls", stats.calls),
        ("compound_assigns", stats.compound_assigns),
        ("incrs", stats.incrs),
        ("breaks", stats.breaks),
        ("continues", stats.continues),
        ("prints", stats.prints),
        ("divisions", stats.divisions),
        ("shifts", stats.shifts),
    ];
    for (name, n) in hits {
        assert!(n > 0, "construct {name} never generated in {SWEEP} seeds");
    }
}
