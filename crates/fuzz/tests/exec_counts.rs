//! Exact dynamic counts on generated programs, pinned: each seed under
//! three arms must execute exactly the counts recorded in
//! `tests/golden/exec_counts.txt`, or fail with exactly the recorded VM
//! error. The step budget is small on purpose, so some rows end in the
//! step limit and pin where it strikes. The checked-in corpus rides along.
//!
//! After a deliberate change to the generator or the pipeline, rewrite the
//! file with `PROMO_BLESS_COUNTS=1 cargo test -p promo-fuzz --test
//! exec_counts` and review the diff.

use driver::prelude::*;
use fuzz::generate;
use std::fmt::Write as _;
use std::path::Path;

const SEEDS: u64 = 400;
const MAX_STEPS: u64 = 200_000;

fn arms() -> Vec<(&'static str, Session)> {
    let one = |b: SessionBuilder| b.threads(Some(1)).build();
    vec![
        (
            "reference",
            one(Session::builder()
                .optimize(false)
                .promote(false)
                .analysis(AnalysisLevel::AddressTaken)
                .regalloc(None)),
        ),
        ("default", one(Session::builder())),
        (
            "tight",
            one(Session::builder().regalloc(Some(AllocOptions {
                num_regs: 8,
                max_rounds: 512,
            }))),
        ),
    ]
}

#[test]
fn generated_counts_match_the_golden_table() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut programs: Vec<(String, String)> = (0..SEEDS)
        .map(|seed| (format!("seed{seed}"), generate(seed).render()))
        .collect();
    let mut corpus: Vec<_> = std::fs::read_dir(dir.join("corpus"))
        .expect("corpus directory exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "c"))
        .collect();
    corpus.sort();
    for path in corpus {
        let name = path.file_stem().unwrap().to_string_lossy().into_owned();
        programs.push((name, std::fs::read_to_string(&path).expect("readable")));
    }
    let vm = VmOptions {
        max_steps: MAX_STEPS,
        ..VmOptions::default()
    };
    let mut actual = String::new();
    for (arm, session) in arms() {
        for (name, src) in &programs {
            let compiled = session
                .compile(src)
                .unwrap_or_else(|e| panic!("{name} [{arm}]: {e}"));
            match compiled.run(vm.clone()) {
                Ok(out) => writeln!(actual, "{name} {arm} {out}"),
                Err(e) => writeln!(actual, "{name} {arm} error={e}"),
            }
            .unwrap();
        }
    }
    bench_harness::golden::check(&dir.join("tests/golden/exec_counts.txt"), &actual);
}
