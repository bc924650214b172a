//! The golden outputs in `golden/` are the oracle of the `suite` and
//! `pressure` workloads. This test regenerates them from the unoptimized
//! reference compiler and requires the checked-in files, and the copies
//! embedded in the benchmark, to equal them. After a deliberate change to
//! a suite program, rewrite them with `PROMO_BENCH_BLESS=1`.

use promo_benchmark::{golden, golden_text, reference_session};
use std::path::Path;
use vm::VmOptions;

#[test]
fn golden_outputs_match_the_unoptimized_reference() {
    let reference = reference_session();
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("golden");
    let bless = std::env::var_os("PROMO_BENCH_BLESS").is_some();
    let mut stale = Vec::new();
    for bench in benchsuite::SUITE {
        let out = reference
            .compile(bench.source)
            .and_then(|c| c.run(VmOptions::default()))
            .unwrap_or_else(|e| panic!("{}: reference run failed: {e}", bench.name));
        let text = golden_text(&out);
        let path = dir.join(format!("{}.txt", bench.name));
        if bless {
            std::fs::write(&path, &text).expect("golden directory is writable");
            continue;
        }
        let on_disk = std::fs::read_to_string(&path).unwrap_or_default();
        if on_disk != text || golden(bench.name) != Some(text.as_str()) {
            stale.push(bench.name);
        }
    }
    assert!(
        stale.is_empty(),
        "golden outputs differ from the reference for {stale:?}"
    );
}
