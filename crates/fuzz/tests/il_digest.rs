//! Byte-identical output on generated programs, pinned: each of 200
//! seeded programs, compiled with tracing on under the default, the
//! 8-register and the 4-register arm, must print exactly the optimized IL
//! and the JSONL remark stream whose FNV-1a digests are recorded in
//! `tests/golden/il_digest.txt`. The seeds start at the benchmark's
//! `0xBE9C`, so they are programs the suite never exercises. The
//! 4-register `starved` arm is the allocator's heavy-pressure pin: nearly
//! every program spills or rematerializes there, so it covers the spill,
//! rematerialization and blocked-simplify paths far more densely than
//! `tight`.
//!
//! After a deliberate change to the generator or the pipeline, rewrite the
//! file with `PROMO_BLESS_COUNTS=1 cargo test -p promo-fuzz --test
//! il_digest` and review the diff.

use bench_harness::golden::{check, fnv1a};
use driver::prelude::*;
use fuzz::generate;
use std::fmt::Write as _;
use std::path::Path;

const FIRST_SEED: u64 = 0xBE9C;
const SEEDS: u64 = 200;

fn arms() -> Vec<(&'static str, Session)> {
    let one = |b: SessionBuilder| b.threads(Some(1)).trace(true).build();
    vec![
        ("default", one(Session::builder())),
        (
            "tight",
            one(Session::builder().regalloc(Some(AllocOptions {
                num_regs: 8,
                max_rounds: 512,
            }))),
        ),
        (
            "starved",
            one(Session::builder().regalloc(Some(AllocOptions {
                num_regs: 4,
                max_rounds: 512,
            }))),
        ),
    ]
}

#[test]
fn generated_il_and_remarks_match_the_golden_digests() {
    let programs: Vec<String> = (0..SEEDS)
        .map(|i| generate(FIRST_SEED + i).render())
        .collect();
    let mut actual = String::new();
    for (arm, session) in arms() {
        for (i, src) in programs.iter().enumerate() {
            let seed = FIRST_SEED + i as u64;
            let c = session
                .compile(src)
                .unwrap_or_else(|e| panic!("seed{seed} [{arm}]: {e}"));
            let il = ir::module_to_string(&c.module);
            writeln!(
                actual,
                "seed{seed} {arm} il={:016x} trace={:016x}",
                fnv1a(il.as_bytes()),
                fnv1a(c.trace_jsonl().as_bytes()),
            )
            .unwrap();
        }
    }
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    check(&dir.join("tests/golden/il_digest.txt"), &actual);
}
