//! Allocation-budget regression tests for the zero-allocation hot loops.
//!
//! The steady-state claim — a warm session compiles a program it has seen
//! before almost entirely out of recycled shells and per-thread scratch
//! arenas — is enforced here as a hard budget, not just reported by the
//! benchmark. The tests install [`trace::CountingAlloc`] as the process
//! allocator, warm a single-threaded session on every suite program
//! once, then count allocator calls across a second compile of each and
//! pin the total. The budget is the benchmark's measured steady state
//! (~1.5k calls across the suite) plus headroom for platform variance;
//! losing scratch reuse anywhere in the chain puts the total back in the
//! fresh-allocation regime (~10k calls) and trips the gate immediately.
//! The front end has a budget of its own, and so does the VM: a second
//! run of each compiled suite program on a warm thread.
//!
//! Counts, not bytes, are pinned: a count regression means a per-function
//! or per-run allocation crept back into a hot loop.

#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;

use driver::{Compilation, Session};
use std::sync::{Mutex, MutexGuard};
use trace::AllocStats;
use vm::VmOptions;

/// The allocator counters are process-wide and the test harness runs
/// tests on parallel threads, so each test holds this lock while it
/// counts; otherwise one test's allocations land in the other's total.
static COUNTING: Mutex<()> = Mutex::new(());

fn counting_alone() -> MutexGuard<'static, ()> {
    // A failed test poisons the lock; the counters it guards stay valid.
    COUNTING.lock().unwrap_or_else(|e| e.into_inner())
}

/// Upper bound on allocator calls for one steady-state compile of the
/// whole suite. Measured at ~1.5k after the scratch-arena work (vs ~10k
/// with a fresh arena per function, before the fresh-arena mode was
/// deleted); the slack covers allocator-independent noise, not a
/// regression.
const STEADY_STATE_ALLOC_BUDGET: u64 = 2_600;

/// Upper bound on allocator calls for one steady-state *front-end*
/// compile of the whole suite (lex + parse + lower on a warm
/// [`minic::Frontend`]). Measured at ~1.6k after the interned front end
/// landed (vs ~8.7k through the since-deleted `String`/`Box` front end).
const FRONTEND_ALLOC_BUDGET: u64 = 2_500;

/// Upper bound on allocator calls for a second run of every compiled
/// suite program on a warm thread. Measured at 79, 56 of them the
/// printed lines' `String`s and most of the rest the output vectors'
/// growth, against 409 when every run decoded into fresh tables and
/// built its VM from fresh storage.
const STEADY_STATE_RUN_ALLOC_BUDGET: u64 = 120;

/// Upper bound on allocator calls one such run makes beyond one per
/// printed line: its output vector's growth (two calls up to eight
/// lines) and a float line's formatting. Measured at most 3.
const RUN_BEYOND_OUTPUT_ALLOC_BUDGET: u64 = 5;

#[test]
fn steady_state_suite_compile_stays_within_alloc_budget() {
    let _alone = counting_alone();
    let session = Session::builder().threads(Some(1)).build();
    // Parse everything up front so frontend traffic stays out of the
    // measurement, then warm the thread on a first compile of each program.
    let modules: Vec<ir::Module> = benchsuite::SUITE
        .iter()
        .map(|b| minic::compile(b.source).expect("suite program compiles"))
        .collect();
    for module in &modules {
        let mut warm = module.clone();
        session.optimize(&mut warm).expect("warmup run validates");
    }
    // Steady state: a second compile of every program on the warm thread.
    let mut total = AllocStats::default();
    for (b, module) in benchsuite::SUITE.iter().zip(&modules) {
        let mut m = module.clone();
        let before = AllocStats::now();
        session
            .optimize(&mut m)
            .expect("steady-state run validates");
        let used = AllocStats::now().since(&before);
        total.merge(&used);
        // Per-program sanity in the failure message: which program blew up.
        assert!(
            used.count <= STEADY_STATE_ALLOC_BUDGET,
            "steady-state compile of {} alone used {} allocs (budget for the \
             whole suite is {STEADY_STATE_ALLOC_BUDGET})",
            b.name,
            used.count,
        );
    }
    assert!(
        total.count <= STEADY_STATE_ALLOC_BUDGET,
        "steady-state suite compile used {} allocs ({} KiB), budget is \
         {STEADY_STATE_ALLOC_BUDGET} — a per-function allocation has crept \
         back into the hot loop",
        total.count,
        total.bytes / 1024,
    );
}

#[test]
fn steady_state_frontend_compile_stays_within_alloc_budget() {
    let _alone = counting_alone();
    let mut fe = minic::Frontend::new();
    // Warm the interner, token buffer, and AST pools on a first compile
    // of every program.
    for b in benchsuite::SUITE {
        fe.compile(b.source).expect("suite program compiles");
    }
    // Steady state: a second front-end compile of every program on the
    // warm buffers.
    let mut total = AllocStats::default();
    for b in benchsuite::SUITE {
        let before = AllocStats::now();
        let module = fe.compile(b.source).expect("suite program compiles");
        let used = AllocStats::now().since(&before);
        drop(module);
        total.merge(&used);
        assert!(
            used.count <= FRONTEND_ALLOC_BUDGET,
            "steady-state front-end compile of {} alone used {} allocs \
             (budget for the whole suite is {FRONTEND_ALLOC_BUDGET})",
            b.name,
            used.count,
        );
    }
    assert!(
        total.count <= FRONTEND_ALLOC_BUDGET,
        "steady-state front-end suite compile used {} allocs ({} KiB), \
         budget is {FRONTEND_ALLOC_BUDGET} — a per-compile allocation has \
         crept back into the lexer, parser, or lowerer",
        total.count,
        total.bytes / 1024,
    );
}

#[test]
fn steady_state_suite_runs_stay_within_alloc_budget() {
    let _alone = counting_alone();
    let session = Session::builder().threads(Some(1)).build();
    let compiled: Vec<Compilation> = benchsuite::SUITE
        .iter()
        .map(|b| session.compile(b.source).expect("suite program compiles"))
        .collect();
    // Warm the thread's VM pool on a first run of every program.
    for c in &compiled {
        c.run(VmOptions::default()).expect("suite program runs");
    }
    // Steady state: a second run of every program on the warm thread.
    let mut total = AllocStats::default();
    for (b, c) in benchsuite::SUITE.iter().zip(&compiled) {
        let before = AllocStats::now();
        let out = c.run(VmOptions::default()).expect("suite program runs");
        let used = AllocStats::now().since(&before);
        total.merge(&used);
        let lines = out.output.len() as u64;
        assert!(
            used.count <= lines + RUN_BEYOND_OUTPUT_ALLOC_BUDGET,
            "steady-state run of {} used {} allocs for {lines} printed lines \
             (budget: one per line and {RUN_BEYOND_OUTPUT_ALLOC_BUDGET} more)",
            b.name,
            used.count,
        );
    }
    assert!(
        total.count <= STEADY_STATE_RUN_ALLOC_BUDGET,
        "steady-state suite runs used {} allocs ({} KiB), budget is \
         {STEADY_STATE_RUN_ALLOC_BUDGET} — a run no longer takes its tables \
         and storage from the thread's pool",
        total.count,
        total.bytes / 1024,
    );
}

/// Building a session frees the thread's front end, pass scratch and
/// shells, so compiles on a new session count the allocations they count
/// on a fresh thread, however warm their own thread is; the repository
/// benchmark demands equal counts from two identical runs on one thread.
#[test]
fn a_new_session_allocates_as_on_a_fresh_thread() {
    let _alone = counting_alone();
    let counts = || -> Vec<u64> {
        let session = Session::builder().threads(Some(1)).build();
        benchsuite::SUITE
            .iter()
            .map(|b| {
                let before = AllocStats::now();
                let c = session.compile(b.source).expect("suite program compiles");
                let calls = AllocStats::now().since(&before).count;
                drop(c);
                calls
            })
            .collect()
    };
    // Warms this thread, and absorbs what the harness allocates as the
    // previous test ends.
    counts();
    let fresh = std::thread::scope(|s| s.spawn(counts).join().expect("fresh thread"));
    assert_eq!(counts(), fresh);
}
