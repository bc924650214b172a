//! Regression corpus: every reproducer checked in under `corpus/` once
//! tripped the oracle (or the compiler itself) and must now pass the full
//! configuration matrix. `promo-fuzz --replay corpus/<file>.c` runs the
//! same check from the command line.

use driver::prelude::*;
use fuzz::{Oracle, OracleOptions, Verdict};
use std::path::Path;

#[test]
fn checked_in_reproducers_stay_fixed() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus");
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("corpus directory exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "c"))
        .collect();
    entries.sort();
    assert!(!entries.is_empty(), "corpus must not be empty");
    let oracle = Oracle::new(OracleOptions::default());
    for path in entries {
        let source = std::fs::read_to_string(&path).expect("readable reproducer");
        match oracle.check(&source) {
            Verdict::Pass => {}
            v => panic!("{}: regressed: {v:?}", path.display()),
        }
    }
}

/// The oracle allocates onto 32 and 8 registers. This reproducer also
/// looped forever at 4 and did not converge at 2, so it runs at each of
/// those too, against the output C gives.
#[test]
fn entry_loop_reproducer_returns_at_every_register_count() {
    let path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus/param-reassigned-in-entry-loop.c");
    let source = std::fs::read_to_string(&path).expect("readable reproducer");
    for num_regs in [32, 8, 4, 2] {
        let session = Session::builder()
            .regalloc(Some(AllocOptions {
                num_regs,
                ..AllocOptions::default()
            }))
            .build();
        let out = session
            .compile(&source)
            .and_then(|c| {
                c.run(VmOptions {
                    max_steps: 100_000,
                    ..VmOptions::default()
                })
            })
            .unwrap_or_else(|e| panic!("{num_regs} registers: {e}"));
        assert_eq!(out.output, ["0"], "{num_regs} registers");
    }
}
