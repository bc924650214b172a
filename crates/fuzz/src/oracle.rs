//! The differential execution oracle.
//!
//! One [`Oracle`] owns a persistent [`Session`] per configuration arm
//! (so worker pools and warm front ends amortize across a whole
//! campaign) and checks each program end to end:
//!
//! * **reference** — the `-O0` arm: no optimizer, no promotion, no
//!   allocator. Its output/exit code is ground truth.
//! * **behavioral arms** — default pipeline, points-to + pointer
//!   promotion, a register-starved allocator, and Steensgaard analysis:
//!   each must reproduce the reference output and exit code exactly.
//! * **determinism arms** — worker counts 2 and 8 must produce
//!   bit-identical IL (compared as rendered text) and identical dynamic
//!   counts to the single-threaded default arm.
//! * **traffic invariant** — the paper's whole point: optimized code may
//!   not execute more loads+stores than the reference beyond a lift
//!   allowance, unless the allocator spilled (the paper's `water`
//!   anomaly, where promotion plus spilling legitimately adds traffic).
//!
//! A `sabotage` test hook deliberately corrupts the first integer
//! constant in `main` *after* optimization of the default arm — a valid
//! IL mutation the oracle must catch, used to test the oracle and the
//! reducer themselves.

use driver::prelude::*;
use ir::Instr;

/// Default VM step budget per arm execution. Generated programs finish
/// in well under a million steps; the budget only exists to bound
/// pathological reducer candidates.
pub const DEFAULT_MAX_STEPS: u64 = 1 << 28;

/// The [`EditOracle`] warm session's cache budget, in approximate bytes.
/// Over `--seed 0xED17`'s 100 seeds with 3 edits each, the cache peaks
/// at 39,730 bytes, so the 64 MiB default never evicts. At 16 KiB, 208
/// of the 400 compiles evict (442 entries) and 74 of the 177 functions
/// that splice at the default still splice, so the differential covers
/// both paths.
const EDIT_CACHE_BUDGET: usize = 16 << 10;

/// Which oracle arm observed a failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arm {
    /// The unoptimized reference pipeline.
    Reference,
    /// Default pipeline (MOD/REF, scalar promotion, 32-register
    /// allocator).
    Default,
    /// Points-to analysis plus pointer promotion.
    Pointer,
    /// Worker pool of 2 threads (IL + counts determinism vs Default).
    Workers2,
    /// Worker pool of 8 threads (IL + counts determinism vs Default).
    Workers8,
    /// 8-register allocator (spill-heavy; output equality only).
    TightRegs,
    /// Steensgaard analysis (output equality only).
    Steens,
    /// Persistent `incremental(true)` session (edit mode): IL, remarks,
    /// and dynamic counts must be byte-identical to a fresh cold session
    /// on every version of an edited program.
    Incremental,
}

impl Arm {
    /// Stable lowercase label (corpus records, CLI output).
    pub fn label(self) -> &'static str {
        match self {
            Arm::Reference => "reference",
            Arm::Default => "default",
            Arm::Pointer => "pointer",
            Arm::Workers2 => "workers2",
            Arm::Workers8 => "workers8",
            Arm::TightRegs => "tight-regs",
            Arm::Steens => "steens",
            Arm::Incremental => "incremental",
        }
    }
}

/// What kind of oracle violation occurred.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// An arm rejected a program another arm accepted (or the generator
    /// produced something the front end rejects).
    CompileError,
    /// An arm faulted at runtime while the reference ran clean.
    VmFault,
    /// Printed output diverged from the reference.
    OutputMismatch,
    /// Exit code diverged from the reference.
    ExitMismatch,
    /// Optimized code executed more memory traffic than the reference
    /// plus the lift allowance (without spilling to excuse it).
    TrafficRegression,
    /// A multi-worker arm produced different IL or dynamic counts than
    /// the single-threaded default arm.
    Determinism,
}

impl FailureKind {
    /// Stable lowercase label.
    pub fn label(self) -> &'static str {
        match self {
            FailureKind::CompileError => "compile-error",
            FailureKind::VmFault => "vm-fault",
            FailureKind::OutputMismatch => "output-mismatch",
            FailureKind::ExitMismatch => "exit-mismatch",
            FailureKind::TrafficRegression => "traffic-regression",
            FailureKind::Determinism => "determinism",
        }
    }
}

/// One oracle violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Failure {
    /// Arm that diverged.
    pub arm: Arm,
    /// Violation category.
    pub kind: FailureKind,
    /// Human-readable specifics (first diverging line, counts, …).
    pub detail: String,
}

/// Oracle result for one program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Every arm agreed.
    Pass,
    /// The reference arm itself faulted (resource budget), so the
    /// program is not a usable differential witness. Never produced for
    /// programs straight out of the generator — only for reducer
    /// candidates that broke a generator invariant.
    Skip(String),
    /// An arm violated the oracle.
    Fail(Failure),
}

impl Verdict {
    /// The failure, if this verdict is one.
    pub fn failure(&self) -> Option<&Failure> {
        match self {
            Verdict::Fail(f) => Some(f),
            _ => None,
        }
    }
}

/// Oracle knobs.
#[derive(Debug, Clone)]
pub struct OracleOptions {
    /// VM step budget per execution.
    pub max_steps: u64,
    /// Test hook: corrupt the first `iconst` in `main` of the default
    /// arm after optimization, to verify the oracle catches a planted
    /// miscompile end to end.
    pub sabotage: bool,
}

impl Default for OracleOptions {
    fn default() -> Self {
        OracleOptions {
            max_steps: DEFAULT_MAX_STEPS,
            sabotage: false,
        }
    }
}

impl OracleOptions {
    /// The VM options every execution runs under: this step budget.
    fn vm(&self) -> VmOptions {
        VmOptions {
            max_steps: self.max_steps,
            ..VmOptions::default()
        }
    }
}

struct ConfiguredArm {
    arm: Arm,
    session: Session,
}

/// The differential oracle; construct once, [`check`](Oracle::check)
/// many programs.
pub struct Oracle {
    reference: Session,
    behavioral: Vec<ConfiguredArm>,
    workers: Vec<ConfiguredArm>,
    options: OracleOptions,
}

impl Oracle {
    /// Builds every arm's session up front.
    pub fn new(options: OracleOptions) -> Oracle {
        let single = |b: SessionBuilder| b.threads(Some(1)).build();
        let reference = single(
            Session::builder()
                .optimize(false)
                .promote(false)
                .pointer_promote(false)
                .analysis(AnalysisLevel::AddressTaken)
                .regalloc(None),
        );
        let behavioral = vec![
            ConfiguredArm {
                arm: Arm::Default,
                session: single(Session::builder()),
            },
            ConfiguredArm {
                arm: Arm::Pointer,
                session: single(
                    Session::builder()
                        .analysis(AnalysisLevel::PointsTo)
                        .pointer_promote(true),
                ),
            },
            ConfiguredArm {
                arm: Arm::TightRegs,
                // Spill-heavy on purpose; the generous round bound keeps
                // the allocator's convergence assert (a safety valve, not
                // an oracle) out of the picture.
                session: single(Session::builder().regalloc(Some(AllocOptions {
                    num_regs: 8,
                    max_rounds: 512,
                }))),
            },
            ConfiguredArm {
                arm: Arm::Steens,
                session: single(Session::builder().analysis(AnalysisLevel::Steensgaard)),
            },
        ];
        let workers = vec![
            ConfiguredArm {
                arm: Arm::Workers2,
                session: Session::builder().threads(Some(2)).build(),
            },
            ConfiguredArm {
                arm: Arm::Workers8,
                session: Session::builder().threads(Some(8)).build(),
            },
        ];
        Oracle {
            reference,
            behavioral,
            workers,
            options,
        }
    }

    /// Runs the full matrix over one program.
    pub fn check(&self, src: &str) -> Verdict {
        // Reference arm: compile…
        let ref_comp = match self.reference.compile(src) {
            Ok(c) => c,
            Err(e) => {
                return Verdict::Fail(Failure {
                    arm: Arm::Reference,
                    kind: FailureKind::CompileError,
                    detail: e.to_string(),
                })
            }
        };
        // …and execute. A reference fault means the program is not a
        // usable witness (a reducer candidate broke an invariant).
        let reference = match ref_comp.run(self.options.vm()) {
            Ok(o) => o,
            Err(e) => return Verdict::Skip(format!("reference arm fault: {e}")),
        };
        let base_traffic = reference.counts.loads + reference.counts.stores;

        // Behavioral arms.
        let mut default_il = String::new();
        let mut default_counts = ExecCounts::default();
        for ca in &self.behavioral {
            let mut comp = match ca.session.compile(src) {
                Ok(c) => c,
                Err(e) => {
                    return Verdict::Fail(Failure {
                        arm: ca.arm,
                        kind: FailureKind::CompileError,
                        detail: e.to_string(),
                    })
                }
            };
            if ca.arm == Arm::Default && self.options.sabotage {
                sabotage_first_iconst(&mut comp.module);
            }
            let out = match comp.run(self.options.vm()) {
                Ok(o) => o,
                Err(e) => {
                    return Verdict::Fail(Failure {
                        arm: ca.arm,
                        kind: FailureKind::VmFault,
                        detail: e.to_string(),
                    })
                }
            };
            if let Some(f) = compare_behavior(ca.arm, &reference, &out) {
                return Verdict::Fail(f);
            }
            // The paper's invariant, on the promoting arms only; spills
            // excuse extra traffic (the `water` anomaly).
            if matches!(ca.arm, Arm::Default | Arm::Pointer) {
                let spilled = comp.report.alloc.as_ref().map_or(0, |a| a.spilled);
                if spilled == 0 {
                    let lifts =
                        comp.report.promotion.scalar.lifts + comp.report.promotion.pointer.lifts;
                    let allowance = (lifts as u64 + 1) * (reference.counts.control + 1);
                    let traffic = out.counts.loads + out.counts.stores;
                    if traffic > base_traffic + allowance {
                        return Verdict::Fail(Failure {
                            arm: ca.arm,
                            kind: FailureKind::TrafficRegression,
                            detail: format!(
                                "optimized loads+stores {traffic} > reference {base_traffic} \
                                 + allowance {allowance} (lifts {lifts}, no spills)"
                            ),
                        });
                    }
                }
            }
            if ca.arm == Arm::Default {
                default_il = comp.module.to_string();
                default_counts = out.counts;
            }
        }

        // Worker determinism arms: same config as Default, more threads;
        // IL and dynamic counts must be bit-identical.
        for ca in &self.workers {
            let comp = match ca.session.compile(src) {
                Ok(c) => c,
                Err(e) => {
                    return Verdict::Fail(Failure {
                        arm: ca.arm,
                        kind: FailureKind::CompileError,
                        detail: e.to_string(),
                    })
                }
            };
            if comp.module.to_string() != default_il {
                return Verdict::Fail(Failure {
                    arm: ca.arm,
                    kind: FailureKind::Determinism,
                    detail: "optimized IL differs from the single-threaded arm".into(),
                });
            }
            let out = match comp.run(self.options.vm()) {
                Ok(o) => o,
                Err(e) => {
                    return Verdict::Fail(Failure {
                        arm: ca.arm,
                        kind: FailureKind::VmFault,
                        detail: e.to_string(),
                    })
                }
            };
            if out.counts != default_counts {
                return Verdict::Fail(Failure {
                    arm: ca.arm,
                    kind: FailureKind::Determinism,
                    detail: format!(
                        "dynamic counts differ from the single-threaded arm: {:?} vs {:?}",
                        out.counts, default_counts
                    ),
                });
            }
            if let Some(f) = compare_behavior(ca.arm, &reference, &out) {
                return Verdict::Fail(f);
            }
        }

        Verdict::Pass
    }
}

/// The incremental-recompilation differential: one persistent
/// `incremental(true)` session accumulates its per-function cache across
/// every program and edit it sees, and each compile is compared — IL
/// text, rendered remarks, trace JSONL, program output, exit code, and
/// full dynamic [`ExecCounts`] — against a fresh cold [`Session`] of the
/// same configuration, compiled and run on a fresh thread so that its
/// front end, scratch, analysis shells and VM storage are clean too. Any
/// divergence means cached splicing or reused storage changed observable
/// behavior, which the design forbids. The warm session's cache budget is
/// small enough that checks also run after evictions.
pub struct EditOracle {
    warm: Session,
    vm: VmOptions,
    /// Functions the warm session spliced from its cache, over every
    /// check so far.
    pub cache_hits: u64,
    /// Entries the warm session evicted from its cache, over every check
    /// so far.
    pub evictions: u64,
}

impl EditOracle {
    /// Builds the persistent warm session.
    pub fn new(options: &OracleOptions) -> EditOracle {
        EditOracle {
            warm: Session::builder()
                .threads(Some(1))
                .trace(true)
                .incremental(true)
                .cache_budget(EDIT_CACHE_BUDGET)
                .build(),
            vm: options.vm(),
            cache_hits: 0,
            evictions: 0,
        }
    }

    /// Compiles `src` on the warm session and on a cold one on a fresh
    /// thread, and demands byte-identical artifacts and dynamic counts.
    pub fn check(&mut self, src: &str) -> Verdict {
        let fail = |kind, detail: String| {
            Verdict::Fail(Failure {
                arm: Arm::Incremental,
                kind,
                detail,
            })
        };
        let warm = match self.warm.compile(src) {
            Ok(c) => c,
            Err(e) => {
                return fail(
                    FailureKind::CompileError,
                    format!("incremental session rejected the program: {e}"),
                )
            }
        };
        if let Some(incr) = &warm.report.incremental {
            self.cache_hits += incr.cache_hits as u64;
            self.evictions += incr.evictions as u64;
        }
        let vm = &self.vm;
        let cold = std::thread::scope(|s| {
            s.spawn(|| {
                let session = Session::builder().threads(Some(1)).trace(true).build();
                let c = session.compile(src)?;
                let ran = c.run(vm.clone());
                Ok::<_, Error>((c, ran))
            })
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
        });
        let (cold, cold_run) = match cold {
            Ok(c) => c,
            Err(e) => {
                return fail(
                    FailureKind::CompileError,
                    format!("cold session rejected what the warm one took: {e}"),
                )
            }
        };
        if warm.module.to_string() != cold.module.to_string() {
            return fail(
                FailureKind::Determinism,
                "optimized IL differs from a cold compile".into(),
            );
        }
        if warm.remarks_text() != cold.remarks_text() {
            return fail(
                FailureKind::Determinism,
                "rendered remarks differ from a cold compile".into(),
            );
        }
        if warm.trace_jsonl() != cold.trace_jsonl() {
            return fail(
                FailureKind::Determinism,
                "trace JSONL differs from a cold compile".into(),
            );
        }
        let wout = match warm.run(self.vm.clone()) {
            Ok(o) => o,
            Err(e) => return Verdict::Skip(format!("warm arm fault: {e}")),
        };
        let cout = match cold_run {
            Ok(o) => o,
            Err(e) => {
                return fail(
                    FailureKind::VmFault,
                    format!("cold run faulted where the warm run finished: {e}"),
                )
            }
        };
        if let Some(f) = compare_behavior(Arm::Incremental, &cout, &wout) {
            return Verdict::Fail(f);
        }
        // The VM's dynamic operation counts (loads, stores, everything)
        // must match exactly: splicing a cached body may not change what
        // the program executes.
        if wout.counts != cout.counts {
            return fail(
                FailureKind::Determinism,
                format!(
                    "dynamic counts differ from a cold compile: {:?} vs {:?}",
                    wout.counts, cout.counts
                ),
            );
        }
        Verdict::Pass
    }
}

/// Output/exit-code equality against the reference arm.
fn compare_behavior(arm: Arm, reference: &Outcome, out: &Outcome) -> Option<Failure> {
    if out.output != reference.output {
        let at = reference
            .output
            .iter()
            .zip(out.output.iter())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| reference.output.len().min(out.output.len()));
        let expected = reference
            .output
            .get(at)
            .map(String::as_str)
            .unwrap_or("<end>");
        let got = out.output.get(at).map(String::as_str).unwrap_or("<end>");
        return Some(Failure {
            arm,
            kind: FailureKind::OutputMismatch,
            detail: format!(
                "line {at}: expected {expected:?}, got {got:?} \
                 ({} vs {} lines total)",
                reference.output.len(),
                out.output.len()
            ),
        });
    }
    if out.exit_code != reference.exit_code {
        return Some(Failure {
            arm,
            kind: FailureKind::ExitMismatch,
            detail: format!(
                "expected exit {}, got {}",
                reference.exit_code, out.exit_code
            ),
        });
    }
    None
}

/// Bumps the first `iconst` in `main` — a valid-IL miscompile used to
/// prove the oracle and reducer catch real divergence. Returns whether a
/// constant was found.
fn sabotage_first_iconst(module: &mut ir::Module) -> bool {
    let Some(main) = module.main() else {
        return false;
    };
    for block in &mut module.funcs[main.0 as usize].blocks {
        for instr in &mut block.instrs {
            if let Instr::IConst { value, .. } = instr {
                *value = value.wrapping_add(1);
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_program_passes_every_arm() {
        let oracle = Oracle::new(OracleOptions::default());
        let verdict = oracle.check(
            r#"
int g = 2;
int main() {
    int i;
    for (i = 0; i < 50; i++) g += i;
    print_int(g);
    return 0;
}
"#,
        );
        assert_eq!(verdict, Verdict::Pass);
    }

    #[test]
    fn sabotage_is_caught_as_default_arm_divergence() {
        let oracle = Oracle::new(OracleOptions {
            sabotage: true,
            ..OracleOptions::default()
        });
        let verdict = oracle.check(
            r#"
int main() {
    print_int(41);
    return 0;
}
"#,
        );
        let failure = verdict.failure().expect("sabotage must be caught");
        assert_eq!(failure.arm, Arm::Default);
        assert_eq!(failure.kind, FailureKind::OutputMismatch);
    }

    #[test]
    fn edit_oracle_matches_cold_across_mutation_sequences() {
        let mut edit_oracle = EditOracle::new(&OracleOptions::default());
        for seed in [3u64, 11] {
            let mut program = crate::generate(seed);
            assert_eq!(edit_oracle.check(&program.render()), Verdict::Pass);
            for e in 1..=3u64 {
                program = crate::mutate(&program, seed.wrapping_add(e));
                assert_eq!(
                    edit_oracle.check(&program.render()),
                    Verdict::Pass,
                    "seed {seed} edit {e}"
                );
            }
        }
    }

    #[test]
    fn edit_campaign_checks_mutants() {
        // Four seeds are the fewest from seed 0 whose entries outgrow the
        // warm session's cache budget.
        let summary = crate::run_campaign(&crate::CampaignOptions {
            count: 4,
            edits: 2,
            ..crate::CampaignOptions::default()
        })
        .unwrap();
        assert_eq!(summary.checked, 4);
        assert_eq!(
            summary.edits_checked,
            2 * summary.passed,
            "every passing seed gets its full edit sequence"
        );
        assert!(summary.failures.is_empty(), "{:?}", summary.failures);
        assert!(summary.cache_hits > 0, "{summary:?}");
        assert!(summary.evictions > 0, "{summary:?}");
    }

    #[test]
    fn compile_error_is_attributed_to_the_reference_arm() {
        let oracle = Oracle::new(OracleOptions::default());
        let verdict = oracle.check("int main( {");
        let failure = verdict.failure().expect("syntax error must fail");
        assert_eq!(failure.arm, Arm::Reference);
        assert_eq!(failure.kind, FailureKind::CompileError);
    }
}
