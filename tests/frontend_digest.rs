//! The front end's own output, pinned: one warm `minic::Frontend`, fed
//! every suite program in turn on the same recycled interner, token
//! buffer and AST pools, must print exactly the unoptimized IL whose
//! FNV-1a digests are recorded in `tests/golden/frontend_digest.txt`; fed
//! the ten malformed sources of `benchsuite::MALFORMED` after that, it
//! must report exactly the recorded diagnostic text. A front-end change
//! that renumbers tags or registers, leaks state from one program into
//! the next, or moves an error position shows up here as a named row.
//! `crates/fuzz/tests/frontend_digest.rs` pins the generated programs the
//! fuzz campaign checks the same way.
//!
//! After a deliberate change to the front end or to a suite program,
//! rewrite the file with `PROMO_BLESS_COUNTS=1 cargo test --test
//! frontend_digest` and review the diff.

use bench_harness::golden::{check, fnv1a};
use std::fmt::Write as _;
use std::path::Path;

#[test]
fn suite_il_and_diagnostics_match_the_golden_file() {
    let mut warm = minic::Frontend::new();
    let mut actual = String::new();
    for b in benchsuite::SUITE {
        let module = warm
            .compile(b.source)
            .unwrap_or_else(|e| panic!("{}: {e}", b.name));
        let il = ir::module_to_string(&module);
        writeln!(actual, "{} il={:016x}", b.name, fnv1a(il.as_bytes())).unwrap();
    }
    // One source per front-end phase and error kind, each of which must
    // keep its position and message.
    for src in benchsuite::MALFORMED {
        let text = warm.compile(src).expect_err("case must fail").to_string();
        writeln!(actual, "{src:?} => {text}").unwrap();
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/frontend_digest.txt");
    check(&path, &actual);
}
