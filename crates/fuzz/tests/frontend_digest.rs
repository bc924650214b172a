//! The front end's output on generated programs, pinned: one warm
//! `minic::Frontend`, fed the 14 suite programs and then the 300 programs
//! the CI fuzz campaign checks (seeds from `0xC0FFEE`), all on the same
//! recycled buffers, must print exactly the unoptimized IL whose FNV-1a
//! digests are recorded in `tests/golden/frontend_digest.txt`. The suite's
//! own rows live in the root package's `tests/golden/frontend_digest.txt`.
//!
//! After a deliberate change to the generator or the front end, rewrite
//! the file with `PROMO_BLESS_COUNTS=1 cargo test -p promo-fuzz --test
//! frontend_digest` and review the diff.

use bench_harness::golden::{check, fnv1a};
use fuzz::generate;
use std::fmt::Write as _;
use std::path::Path;

const FIRST_SEED: u64 = 0xC0FFEE;
const SEEDS: u64 = 300;

#[test]
fn generated_programs_lower_to_the_golden_il() {
    let mut warm = minic::Frontend::new();
    for b in benchsuite::SUITE {
        warm.compile(b.source)
            .unwrap_or_else(|e| panic!("{}: {e}", b.name));
    }
    let mut actual = String::new();
    for seed in FIRST_SEED..FIRST_SEED + SEEDS {
        let src = generate(seed).render();
        let module = warm
            .compile(&src)
            .unwrap_or_else(|e| panic!("seed{seed}: {e}"));
        let il = ir::module_to_string(&module);
        writeln!(actual, "seed{seed} il={:016x}", fnv1a(il.as_bytes())).unwrap();
    }
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    check(&dir.join("tests/golden/frontend_digest.txt"), &actual);
}
