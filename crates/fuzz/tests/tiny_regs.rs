//! No panics at tiny register files: the CI campaign's programs (seeds
//! from `0xC0FFEE`), compiled onto 2, 3 and 4 registers, must each come
//! back as `Ok` or as a typed [`Error`] — too few registers for some
//! function, or an allocation that did not converge — never as a panic.
//! At these sizes the allocator can livelock (a round re-spills the
//! temporary the previous round rematerialized), and the round bound
//! used to end it with a panic.
//!
//! The default run covers the first 200 seeds; the `#[ignore]`d sweep
//! covers 1,000 (`cargo test --release -p promo-fuzz --test tiny_regs --
//! --ignored`).

use driver::prelude::*;
use driver::WorkerPool;
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

/// Compiles `seeds` programs at each tiny register count; returns how
/// many compiles ended in each outcome: (ok, too few registers, did not
/// converge).
fn sweep(seeds: u64) -> (usize, usize, usize) {
    let mut tally = (0, 0, 0);
    for k in [2, 3, 4] {
        let session = session(k);
        for seed in FIRST_SEED..FIRST_SEED + seeds {
            match session.compile(&generate(seed).render()) {
                Ok(_) => tally.0 += 1,
                Err(Error::Registers { num_regs, .. }) => {
                    assert_eq!(num_regs, k, "seed {seed}");
                    tally.1 += 1;
                }
                Err(Error::Alloc(e)) => {
                    assert_eq!(e.num_regs, k, "seed {seed}");
                    tally.2 += 1;
                }
                Err(e) => panic!("seed {seed} at {k} registers: {e}"),
            }
        }
    }
    tally
}

#[test]
fn tiny_register_files_give_ok_or_a_typed_error() {
    let (ok, registers, alloc) = sweep(200);
    assert_eq!(ok + registers + alloc, 600);
    assert!(ok > 0, "some programs fit in a tiny register file");
}

#[test]
#[ignore = "1,000 seeds at three register counts; run in release"]
fn tiny_register_files_give_ok_or_a_typed_error_over_1000_seeds() {
    let (ok, registers, alloc) = sweep(1000);
    assert_eq!(ok + registers + alloc, 3000);
    assert!(alloc > 0, "the K=2 and K=3 livelocks are in this range");
}

#[test]
fn the_known_livelocks_name_their_function_and_register_count() {
    let session = session(4);
    for (seed, func) in [(49220, "f2"), (12649321, "f0")] {
        match session.compile(&generate(seed).render()) {
            Err(Error::Alloc(e)) => {
                assert_eq!((e.func.as_str(), e.num_regs), (func, 4), "seed {seed}");
                let message = Error::Alloc(e).to_string();
                assert!(
                    message.contains(&format!("@{func} onto 4 registers")),
                    "{message}"
                );
            }
            other => panic!("seed {seed}: expected a non-convergence error, got {other:?}"),
        }
    }
    // The session stays usable after the error.
    session
        .compile("int main() { print_int(1); return 0; }")
        .expect("a small program still compiles");
}

#[test]
fn the_pipeline_entry_point_reports_a_livelock_in_its_report() {
    // `run_pipeline_in` returns a report, not a `Result`: the failure
    // rides in it, and the module stays valid IL.
    let config = session(4).config().clone();
    let mut module = minic::compile(&generate(49220).render()).expect("front end");
    let report = driver::run_pipeline_in(&mut module, &config, &WorkerPool::new(1));
    let failure = report.alloc_failure.expect("@f2 does not converge");
    assert_eq!((failure.func.as_str(), failure.num_regs), ("f2", 4));
    ir::validate(&module).expect("valid IL");
}
