//! Differential fuzzing for the register-promotion pipeline.
//!
//! Three pieces, all deterministic and dependency-free:
//!
//! * [`gen`] — a grammar-directed generator mapping a seed to a closed,
//!   trap-free, terminating MiniC program that leans on the constructs
//!   promotion cares about: globals, pointers, address-taken locals,
//!   arrays, loops, and calls.
//! * [`oracle`] — a differential execution oracle running each program
//!   through the full configuration matrix (unoptimized reference,
//!   default pipeline, points-to + pointer promotion, worker counts 2
//!   and 8, and a register-starved allocator) and comparing outputs,
//!   exit codes, dynamic memory traffic, and IL determinism.
//! * [`mod@reduce`] — a delta-debugging reducer that shrinks a failing
//!   program at statement/expression granularity while the same oracle
//!   violation persists.
//!
//! [`run_campaign`] glues them together and [`corpus`] persists failures
//! as JSONL plus standalone `.c` reproducers. The `promo-fuzz` binary is
//! a thin CLI over this module; CI runs it as a bounded smoke test.

#![warn(missing_docs)]

pub mod ast;
pub mod corpus;
pub mod gen;
pub mod oracle;
pub mod reduce;
pub mod rng;
mod visit;

pub use gen::{generate, mutate, ConstructStats};
pub use oracle::{Arm, EditOracle, Failure, FailureKind, Oracle, OracleOptions, Verdict};
pub use reduce::{reduce, Reduction};

use std::io;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Campaign configuration (mirrors the `promo-fuzz` CLI).
#[derive(Debug, Clone)]
pub struct CampaignOptions {
    /// First seed; program `i` uses `seed + i`.
    pub seed: u64,
    /// Number of programs to check.
    pub count: u64,
    /// Optional wall-clock cap; the campaign stops cleanly when it hits
    /// the budget.
    pub time_budget: Option<Duration>,
    /// Shrink every failure with the reducer.
    pub reduce: bool,
    /// Where to write the failure corpus (`None` keeps it in memory).
    pub out_dir: Option<PathBuf>,
    /// Oracle knobs (step budget, sabotage test hook).
    pub oracle: OracleOptions,
    /// Edit mode: after each passing seed, apply this many cumulative
    /// single-function mutations and hold every mutant to (a) the full
    /// oracle matrix and (b) the [`EditOracle`] — a persistent
    /// incremental session whose output must stay byte-identical to a
    /// cold compile. `0` disables edit mode.
    pub edits: u64,
}

impl Default for CampaignOptions {
    fn default() -> Self {
        CampaignOptions {
            seed: 0,
            count: 100,
            time_budget: None,
            reduce: false,
            out_dir: None,
            oracle: OracleOptions::default(),
            edits: 0,
        }
    }
}

/// One failing program from a campaign.
#[derive(Debug, Clone)]
pub struct CampaignFailure {
    /// Seed that produced it.
    pub seed: u64,
    /// The oracle violation.
    pub failure: Failure,
    /// The generated source.
    pub source: String,
    /// The reduced source, when reduction ran.
    pub reduced_source: Option<String>,
    /// Statement count of the reduced program.
    pub reduced_statements: Option<usize>,
}

/// What a campaign did.
#[derive(Debug, Clone, Default)]
pub struct CampaignSummary {
    /// Programs checked (≤ `count` under a time budget).
    pub checked: u64,
    /// Programs on which every arm agreed.
    pub passed: u64,
    /// Programs whose reference arm faulted (not usable witnesses).
    pub skipped: u64,
    /// Mutated programs checked in edit mode (matrix + incremental
    /// differential each).
    pub edits_checked: u64,
    /// Functions the edit mode's warm session spliced from its cache.
    pub cache_hits: u64,
    /// Entries the edit mode's warm session evicted from its cache.
    pub evictions: u64,
    /// Oracle violations.
    pub failures: Vec<CampaignFailure>,
    /// Aggregate construct coverage across all generated programs.
    pub stats: ConstructStats,
}

/// Runs a fuzzing campaign: generate, check, optionally reduce, and
/// persist failures. Deterministic for a fixed `(seed, count)` — a time
/// budget only ever truncates the sequence.
///
/// # Errors
///
/// Returns an error only for corpus I/O failures; oracle violations are
/// reported in the summary, not as errors.
pub fn run_campaign(options: &CampaignOptions) -> io::Result<CampaignSummary> {
    let oracle = Oracle::new(options.oracle.clone());
    let mut edit_oracle = (options.edits > 0).then(|| EditOracle::new(&options.oracle));
    let started = Instant::now();
    let mut summary = CampaignSummary::default();
    for i in 0..options.count {
        if let Some(budget) = options.time_budget {
            if started.elapsed() >= budget {
                break;
            }
        }
        let seed = options.seed.wrapping_add(i);
        let program = generate(seed);
        summary.stats.merge(&ConstructStats::of(&program));
        let source = program.render();
        summary.checked += 1;
        match oracle.check(&source) {
            Verdict::Pass => {
                summary.passed += 1;
                if let Some(edit_oracle) = &mut edit_oracle {
                    run_edits(options, &oracle, edit_oracle, seed, program, &mut summary)?;
                }
            }
            Verdict::Skip(_) => summary.skipped += 1,
            Verdict::Fail(failure) => {
                let reduction = if options.reduce {
                    Some(reduce(&program, &failure, &oracle))
                } else {
                    None
                };
                if let Some(dir) = &options.out_dir {
                    corpus::write_failure(dir, seed, &source, &failure, reduction.as_ref())?;
                }
                summary.failures.push(CampaignFailure {
                    seed,
                    failure,
                    source,
                    reduced_source: reduction.as_ref().map(|r| r.program.render()),
                    reduced_statements: reduction.as_ref().map(|r| r.to_statements),
                });
            }
        }
    }
    if let Some(edit_oracle) = edit_oracle {
        summary.cache_hits = edit_oracle.cache_hits;
        summary.evictions = edit_oracle.evictions;
    }
    Ok(summary)
}

/// Edit mode for one passing seed: warm the incremental session's cache
/// with the base program, then apply `options.edits` cumulative
/// single-function mutations, holding each mutant to the full oracle
/// matrix *and* the incremental-vs-cold differential. Mutant failures
/// are recorded without reduction (the warm cache's state is part of the
/// reproduction recipe, which the reducer cannot replay).
fn run_edits(
    options: &CampaignOptions,
    oracle: &Oracle,
    edit_oracle: &mut EditOracle,
    seed: u64,
    program: ast::Program,
    summary: &mut CampaignSummary,
) -> io::Result<()> {
    let record =
        |summary: &mut CampaignSummary, edit: u64, src: &str, failure: Failure| -> io::Result<()> {
            if let Some(dir) = &options.out_dir {
                // A distinct pseudo-seed keyed by the edit index keeps
                // mutant reproducers from clobbering the base seed's file.
                corpus::write_failure(dir, seed ^ (0xED17 << 44) ^ edit, src, &failure, None)?;
            }
            summary.failures.push(CampaignFailure {
                seed,
                failure,
                source: src.to_string(),
                reduced_source: None,
                reduced_statements: None,
            });
            Ok(())
        };
    if let Verdict::Fail(f) = edit_oracle.check(&program.render()) {
        record(summary, 0, &program.render(), f)?;
    }
    let mut current = program;
    for e in 1..=options.edits {
        current = mutate(&current, seed.wrapping_add(e));
        let src = current.render();
        summary.edits_checked += 1;
        match oracle.check(&src) {
            Verdict::Pass => {}
            Verdict::Skip(_) => summary.skipped += 1,
            Verdict::Fail(f) => record(summary, e, &src, f)?,
        }
        if let Verdict::Fail(f) = edit_oracle.check(&src) {
            record(summary, e, &src, f)?;
        }
    }
    Ok(())
}
