//! Threads that share a `Session`, and sessions that share a thread.
//!
//! A session's compile entry points take `&self`, so threads may share
//! one. Its warm storage (front end, pass scratch, analysis shells) is not
//! the session's but each thread's: two threads sharing a session compile
//! on storage of their own, and two sessions on one thread compile on the
//! same storage, one after the other. Either way, and after a run that
//! panicked on the thread, every module must print the IL a new session of
//! the same configuration prints on a thread no compile has touched.

use analysis::AnalysisLevel;
use benchsuite::SUITE;
use driver::{run_pipeline_in, Session, SessionBuilder, WorkerPool};
use regalloc::AllocOptions;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Barrier;

/// How many times each thread or session walks the suite.
const ROUNDS: usize = 3;

/// The IL of `src` compiled on a new session built from `builder`, on a
/// fresh thread.
fn fresh(builder: &SessionBuilder, src: &str) -> String {
    std::thread::scope(|s| {
        s.spawn(|| compile(&builder.clone().build(), src))
            .join()
            .expect("fresh compile")
    })
}

/// The IL a fresh thread prints for each suite program.
fn fresh_suite(builder: &SessionBuilder) -> Vec<String> {
    SUITE.iter().map(|b| fresh(builder, b.source)).collect()
}

fn compile(session: &Session, src: &str) -> String {
    session
        .compile(src)
        .expect("suite program compiles")
        .module
        .to_string()
}

/// The fuzz oracle's unoptimized reference arm.
fn reference_arm() -> SessionBuilder {
    Session::builder()
        .threads(Some(1))
        .optimize(false)
        .promote(false)
        .pointer_promote(false)
        .analysis(AnalysisLevel::AddressTaken)
        .regalloc(None)
}

#[test]
fn threads_sharing_a_session_print_a_fresh_threads_il() {
    for workers in [1, 2] {
        let builder = Session::builder().threads(Some(workers));
        let want = fresh_suite(&builder);
        let session = builder.build();
        let in_step = Barrier::new(2);
        let wrong: Vec<String> = std::thread::scope(|s| {
            let threads: Vec<_> = [0, SUITE.len() / 2]
                .into_iter()
                .map(|start| {
                    let (session, want, in_step) = (&session, &want, &in_step);
                    // The two threads walk the suite from different
                    // programs and start each compile together, so each
                    // compiles a different program than the other at the
                    // same time, and a different one than it compiled
                    // before. A mismatch or a panic is recorded, not
                    // raised, so neither thread is left at the barrier.
                    s.spawn(move || {
                        let mut wrong = Vec::new();
                        for round in 0..ROUNDS {
                            for k in 0..SUITE.len() {
                                let i = (start + k) % SUITE.len();
                                in_step.wait();
                                let got = catch_unwind(AssertUnwindSafe(|| {
                                    compile(session, SUITE[i].source)
                                }));
                                if got.as_ref().ok() != Some(&want[i]) {
                                    wrong.push(format!("{} in round {round}", SUITE[i].name));
                                }
                            }
                        }
                        wrong
                    })
                })
                .collect();
            threads
                .into_iter()
                .flat_map(|t| t.join().expect("compiling thread"))
                .collect()
        });
        assert!(
            wrong.is_empty(),
            "on a {workers}-worker session shared by two threads, these differ \
             from a fresh thread's IL: {wrong:?}"
        );
    }
}

#[test]
fn sessions_interleaved_on_one_thread_print_a_fresh_threads_il() {
    let arms = [
        ("default", Session::builder().threads(Some(1))),
        ("reference", reference_arm()),
    ];
    let want: Vec<Vec<String>> = arms.iter().map(|(_, b)| fresh_suite(b)).collect();
    let sessions: Vec<Session> = arms.iter().map(|(_, b)| b.clone().build()).collect();
    for round in 0..ROUNDS {
        for (i, b) in SUITE.iter().enumerate() {
            for ((arm, _), (session, want)) in arms.iter().zip(sessions.iter().zip(&want)) {
                assert!(
                    compile(session, b.source) == want[i],
                    "{} in round {round} on the {arm} session, interleaved with \
                     another, differs from a fresh thread's IL",
                    b.name,
                );
            }
        }
    }
}

/// A pipeline run that panics part-way drops the pass scratch and shells
/// it took, dirty, and the next compile on the thread must not see them.
/// The panic is the register allocator's: unlike `Session`,
/// `run_pipeline_in` does not check that every function's parameters fit
/// the register file.
#[test]
fn a_compile_after_a_panicked_run_prints_a_fresh_threads_il() {
    let builder = Session::builder().threads(Some(1));
    let narrow = Session::builder()
        .threads(Some(1))
        .regalloc(Some(AllocOptions {
            num_regs: 2,
            ..AllocOptions::default()
        }))
        .build();
    let session = builder.clone().build();
    let src = SUITE[0].source;
    compile(&session, src);
    let mut module = minic::compile(
        "int f(int a, int b, int c) { return a + b + c; } int main() { return f(1, 2, 3); }",
    )
    .expect("compiles");
    let unwound = catch_unwind(AssertUnwindSafe(|| {
        run_pipeline_in(&mut module, narrow.config(), &WorkerPool::new(1))
    }));
    assert!(unwound.is_err(), "three parameters fit two registers");
    assert_eq!(compile(&session, src), fresh(&builder, src));
}
