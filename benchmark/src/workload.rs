//! The four workloads, their inputs and their oracles.

use driver::prelude::*;
use std::collections::BTreeSet;
use std::fmt::Display;

/// The seed the benchmark runs with unless told otherwise. The held-out
/// seed, kept out of development, is `0x5EED` (see the README).
pub const DEFAULT_SEED: u64 = 0xBE9C;

/// Generated programs whose unoptimized run needs more steps than this
/// are skipped. Their run time is heavy-tailed: the slowest 3 % of seeds
/// execute up to 73 M operations and would turn a workload about
/// per-compile cost into one about the VM, which `suite` already covers.
pub(crate) const REFERENCE_STEP_CAP: u64 = 1_000_000;

/// Seeded programs in one `edit` cycle are followed by this many
/// cumulative single-function edits.
pub(crate) const EDITS_PER_PROGRAM: u64 = 3;

/// One set of inputs the benchmark runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's 14 programs on the default arm: its own traffic.
    Suite,
    /// The same 14 programs with 8 registers, so the allocator spills.
    Pressure,
    /// Seeded fuzz programs: small, call- and pointer-heavy, held out
    /// from the suite.
    Generated,
    /// One incremental session fed seeded programs, their edits and the
    /// suite's warm-edit pair.
    Edit,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::Suite,
        Workload::Pressure,
        Workload::Generated,
        Workload::Edit,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Suite => "suite",
            Workload::Pressure => "pressure",
            Workload::Generated => "generated",
            Workload::Edit => "edit",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The compiler under test: the paper's default arm (MOD/REF, scalar
    /// promotion, 32 registers) on one worker, with 8 registers for
    /// `pressure` and the incremental cache for `edit`.
    pub(crate) fn session(self) -> Session {
        let builder = Session::builder().threads(Some(1));
        match self {
            Workload::Suite | Workload::Generated => builder,
            Workload::Pressure => builder.regalloc(Some(AllocOptions {
                num_regs: 8,
                ..AllocOptions::default()
            })),
            Workload::Edit => builder.incremental(true),
        }
        .build()
    }

    /// VM executions per program: the minimum when measuring for a time.
    /// `edit` runs each version once, inside its loop, so that its
    /// oracle leaves time for compiles.
    pub(crate) fn vm_runs(self) -> usize {
        match self {
            Workload::Suite | Workload::Pressure => 5,
            Workload::Generated => 3,
            Workload::Edit => 1,
        }
    }
}

/// How much a run measures.
#[derive(Debug, Clone, PartialEq)]
pub struct Size {
    /// Suite programs that `suite` and `pressure` use.
    pub suite: Vec<&'static str>,
    /// Programs in `generated`, not counting skipped seeds.
    pub generated: usize,
    /// When the measured phases end.
    pub budget: Budget,
    /// Samples that must lie beyond a reported tail percentile; with
    /// fewer the run fails rather than report a tail set by outliers.
    pub min_beyond_tail: usize,
}

/// When the measured phases of a run end.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// Measure for this many seconds. `suite`, `pressure` and `generated`
    /// spend two thirds in timed compiles and one third in timed VM runs
    /// (at least [`Workload::vm_runs`] rounds); `edit` spends all of it in
    /// its loop.
    Seconds(f64),
    /// Exactly this many timed compiles, and this many VM executions per
    /// program: two runs of one size then do identical work.
    Count {
        /// Timed compiles.
        compiles: usize,
        /// VM executions per program.
        vm_runs: usize,
    },
}

impl Budget {
    /// The least time set-up is repeated for: one second when measuring
    /// for a time, nothing extra when counting.
    pub(crate) fn setup_secs(self) -> f64 {
        match self {
            Budget::Seconds(_) => 1.0,
            Budget::Count { .. } => 0.0,
        }
    }
}

impl Size {
    /// The size the benchmark command runs: all 14 suite programs, 1000
    /// generated programs, and at least ten samples beyond every tail
    /// percentile.
    pub fn full(seconds: f64) -> Size {
        Size {
            suite: benchsuite::SUITE.iter().map(|b| b.name).collect(),
            generated: 1000,
            budget: Budget::Seconds(seconds),
            min_beyond_tail: 10,
        }
    }

    /// A tiny deterministic size for tests: two short suite programs,
    /// eight generated programs, 200 compiles and one VM execution per
    /// program, and a tail rule loose enough for 200 samples.
    pub fn smoke() -> Size {
        Size {
            suite: vec!["fft", "allroots"],
            generated: 8,
            budget: Budget::Count {
                compiles: 200,
                vm_runs: 1,
            },
            min_beyond_tail: 1,
        }
    }
}

/// One program of a workload and what it must do when run.
pub(crate) struct Program {
    pub(crate) name: String,
    pub(crate) source: String,
    pub(crate) lines: usize,
    pub(crate) expected: Expected,
}

/// The oracle for one program: output lines and exit code, plus the
/// unoptimized reference's dynamic counts that traffic ratios divide by.
pub(crate) struct Expected {
    pub(crate) output: Vec<String>,
    pub(crate) exit_code: i64,
    pub(crate) reference: ExecCounts,
}

impl Expected {
    pub(crate) fn of(out: Outcome) -> Expected {
        Expected {
            output: out.output,
            exit_code: out.exit_code,
            reference: out.counts,
        }
    }

    /// Whether `out` printed the expected lines and exited as expected.
    pub(crate) fn check(&self, out: &Outcome) -> Result<(), String> {
        if out.output != self.output {
            let at = self
                .output
                .iter()
                .zip(&out.output)
                .position(|(a, b)| a != b)
                .unwrap_or(self.output.len().min(out.output.len()));
            return Err(format!(
                "output line {at}: expected {:?}, got {:?}",
                self.output.get(at),
                out.output.get(at)
            ));
        }
        if out.exit_code != self.exit_code {
            return Err(format!(
                "exit code {} instead of {}",
                out.exit_code, self.exit_code
            ));
        }
        Ok(())
    }
}

/// Attempted and failed programs of a run, and the first few reasons.
#[derive(Default)]
pub(crate) struct Tally {
    pub(crate) attempted: usize,
    pub(crate) skipped: usize,
    failed: BTreeSet<String>,
    pub(crate) reasons: Vec<String>,
}

impl Tally {
    /// Marks `program` failed; a program counts once however often it
    /// fails.
    pub(crate) fn fail(&mut self, program: &str, why: impl Display) {
        if self.failed.insert(program.to_string()) && self.reasons.len() < 20 {
            self.reasons.push(format!("{program}: {why}"));
        }
    }

    pub(crate) fn failed(&self) -> usize {
        self.failed.len()
    }

    pub(crate) fn has_failed(&self, program: &str) -> bool {
        self.failed.contains(program)
    }
}

/// The unoptimized reference compiler: no optimizer, promotion or
/// register allocator, address-taken analysis only. Its output is the
/// ground truth of the fuzz oracle and of the golden files.
pub fn reference_session() -> Session {
    Session::builder()
        .threads(Some(1))
        .optimize(false)
        .promote(false)
        .pointer_promote(false)
        .analysis(AnalysisLevel::AddressTaken)
        .regalloc(None)
        .build()
}

/// Compiles and runs `src` on the reference, within `max_steps`.
pub(crate) fn reference_run(
    reference: &Session,
    src: &str,
    max_steps: u64,
) -> Result<Outcome, Error> {
    reference.compile(src)?.run(VmOptions {
        max_steps,
        ..VmOptions::default()
    })
}

/// The golden-file form of an execution: `exit <code>`, then each
/// printed line.
pub fn golden_text(out: &Outcome) -> String {
    let mut text = format!("exit {}\n", out.exit_code);
    for line in &out.output {
        text.push_str(line);
        text.push('\n');
    }
    text
}

/// The checked-in golden output of suite program `name`.
pub fn golden(name: &str) -> Option<&'static str> {
    GOLDEN
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, text)| *text)
}

const GOLDEN: &[(&str, &str)] = &[
    ("tsp", include_str!("../golden/tsp.txt")),
    ("mlink", include_str!("../golden/mlink.txt")),
    ("fft", include_str!("../golden/fft.txt")),
    ("clean", include_str!("../golden/clean.txt")),
    ("compress", include_str!("../golden/compress.txt")),
    ("go", include_str!("../golden/go.txt")),
    ("dhrystone", include_str!("../golden/dhrystone.txt")),
    ("water", include_str!("../golden/water.txt")),
    ("indent", include_str!("../golden/indent.txt")),
    ("allroots", include_str!("../golden/allroots.txt")),
    ("bc", include_str!("../golden/bc.txt")),
    ("bison", include_str!("../golden/bison.txt")),
    ("gzip_enc", include_str!("../golden/gzip_enc.txt")),
    ("gzip_dec", include_str!("../golden/gzip_dec.txt")),
];

/// The suite programs called `names`, with their golden output as the
/// oracle. The reference run supplies the dynamic counts; if it disagrees
/// with the golden file the compiler is broken before the optimizer, and
/// the program is counted failed.
pub(crate) fn suite_programs(names: &[&str], tally: &mut Tally) -> Result<Vec<Program>, String> {
    let reference = reference_session();
    let mut programs = Vec::new();
    for &name in names {
        let bench = benchsuite::find(name).ok_or_else(|| format!("no suite program {name}"))?;
        let golden = golden(name).ok_or_else(|| format!("no golden output for {name}"))?;
        tally.attempted += 1;
        let reference =
            match reference_run(&reference, bench.source, VmOptions::default().max_steps) {
                Ok(out) => out,
                Err(e) => {
                    tally.fail(name, format_args!("reference run: {e}"));
                    continue;
                }
            };
        if golden_text(&reference) != golden {
            tally.fail(name, "the reference run differs from its golden output");
        }
        let mut lines = golden.lines();
        let exit_code = lines
            .next()
            .and_then(|l| l.strip_prefix("exit "))
            .and_then(|c| c.parse().ok())
            .ok_or_else(|| format!("golden/{name}.txt does not start with `exit <code>`"))?;
        programs.push(Program {
            name: name.to_string(),
            source: bench.source.to_string(),
            lines: bench.source.lines().count(),
            expected: Expected {
                output: lines.map(str::to_string).collect(),
                exit_code,
                reference: reference.counts,
            },
        });
    }
    Ok(programs)
}

/// The first `count` generated programs from `seed` on whose reference
/// run finishes within [`REFERENCE_STEP_CAP`]; the others are skipped.
pub(crate) fn generated_programs(seed: u64, count: usize, tally: &mut Tally) -> Vec<Program> {
    let reference = reference_session();
    let mut programs = Vec::new();
    let mut i = 0u64;
    while programs.len() < count {
        let s = seed.wrapping_add(i);
        i += 1;
        let name = format!("seed-{s}");
        let source = fuzz::generate(s).render();
        match capped_expected(&reference, &source) {
            Ok(None) => tally.skipped += 1,
            Ok(Some(expected)) => {
                tally.attempted += 1;
                programs.push(Program {
                    name,
                    lines: source.lines().count(),
                    source,
                    expected,
                });
            }
            Err(e) => {
                tally.attempted += 1;
                tally.fail(&name, format_args!("reference compile: {e}"));
            }
        }
    }
    programs
}

/// The oracle of a generated or edited program: its reference run
/// within [`REFERENCE_STEP_CAP`], or `None` when that run does not finish
/// (the program is skipped).
pub(crate) fn capped_expected(reference: &Session, src: &str) -> Result<Option<Expected>, Error> {
    match reference_run(reference, src, REFERENCE_STEP_CAP) {
        Ok(out) => Ok(Some(Expected::of(out))),
        Err(Error::Vm(_)) => Ok(None),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(output: &[&str], exit_code: i64) -> Outcome {
        Outcome {
            result: None,
            exit_code,
            output: output.iter().map(|s| s.to_string()).collect(),
            counts: ExecCounts::default(),
        }
    }

    #[test]
    fn the_oracle_rejects_wrong_output_and_exit_codes() {
        let expected = Expected::of(outcome(&["1", "2"], 0));
        assert_eq!(expected.check(&outcome(&["1", "2"], 0)), Ok(()));
        let wrong_line = expected.check(&outcome(&["1", "3"], 0)).unwrap_err();
        assert!(wrong_line.contains("output line 1"), "{wrong_line}");
        assert!(expected.check(&outcome(&["1"], 0)).is_err());
        assert!(expected.check(&outcome(&["1", "2"], 1)).is_err());
    }

    #[test]
    fn suite_programs_parse_their_golden_output() {
        let mut tally = Tally::default();
        let programs = suite_programs(&["fft"], &mut tally).expect("fft is in the suite");
        assert_eq!(tally.failed(), 0, "{:?}", tally.reasons);
        let expected = &programs[0].expected;
        let lines: Vec<&str> = expected.output.iter().map(String::as_str).collect();
        let text = golden_text(&outcome(&lines, expected.exit_code));
        assert_eq!(golden("fft"), Some(text.as_str()));
    }
}
