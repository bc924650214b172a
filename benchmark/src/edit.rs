//! `edit`: one incremental session, fed seeded programs each followed by
//! cumulative single-function edits, interleaved with the suite's
//! warm-edit pair, whose two versions alternate. It is the only workload
//! that runs the fingerprint, splice and cache-store code; the others
//! bypass it, so for them an incremental-layer change should change
//! nothing.

use crate::measure::{
    self, execute, setup, timed_compile, CompileSample, LayerSample, Limit, Phase, RunRecord,
    Timed, Traced,
};
use crate::report::Report;
use crate::spans::Recorder;
use crate::workload::{
    capped_expected, reference_run, reference_session, Expected, Tally, EDITS_PER_PROGRAM,
};
use crate::{alloc, Budget, Options, Workload};
use driver::prelude::*;
use std::time::Instant;

pub(crate) fn run(o: &Options) -> Result<Report, String> {
    let mut tally = Tally::default();
    let pair = benchsuite::warm_edit_pair();
    let reference = reference_session();
    // The same configuration without the cache: every warm compile must
    // print exactly the IL this session prints for the same source.
    let cold = Session::builder().threads(Some(1)).build();
    // The warm-edit pair's two versions with their cold IL, each checked
    // once against the reference run.
    let mut pair_il = Vec::new();
    for (name, src) in [
        ("compress", pair.base),
        ("compress.edited", pair.edited.as_str()),
    ] {
        let c = cold.compile(src).map_err(|e| format!("{name}: {e}"))?;
        let expected = reference_run(&reference, src, VmOptions::default().max_steps)
            .map_err(|e| format!("{name} reference: {e}"))?;
        tally.attempted += 1;
        let ran = c
            .run(VmOptions::default())
            .map_err(|e| e.to_string())
            .and_then(|out| Expected::of(expected).check(&out));
        if let Err(e) = ran {
            tally.fail(name, e);
        }
        pair_il.push((name, src, c.module.to_string()));
    }

    let (session, setup_s) = setup(
        || Workload::Edit.session(),
        &[pair.base],
        o.size.budget.setup_secs(),
    );
    let (limit, vm_runs) = match o.size.budget {
        Budget::Seconds(s) => (Limit::Seconds(s), Workload::Edit.vm_runs()),
        Budget::Count { compiles, vm_runs } => (Limit::Count(compiles), vm_runs),
    };
    let mut phase = Phase::new(limit);
    let mut run = Steps {
        session: &session,
        tally,
        samples: Vec::new(),
        runs: Vec::new(),
        records: Vec::new(),
        names: Vec::new(),
        traced: o.trace.then(|| (minic::Frontend::new(), Traced::new())),
    };
    let mut cycles = 0usize;
    'run: for i in 0u64.. {
        let seed = o.seed.wrapping_add(i);
        let mut program = fuzz::generate(seed);
        let base = program.render();
        // The base version only fills the cache; its edits are timed and
        // checked.
        if let Err(e) = session.compile(&base) {
            run.tally.attempted += 1;
            run.tally.fail(&format!("seed-{seed}"), e);
            continue;
        }
        for e in 1..=EDITS_PER_PROGRAM {
            program = fuzz::mutate(&program, seed.wrapping_add(e));
            let src = program.render();
            let name = format!("seed-{seed}.edit{e}");
            let expected = match capped_expected(&reference, &src) {
                Ok(Some(expected)) => expected,
                skipped_or_failed => {
                    if let Err(err) = skipped_or_failed {
                        run.tally.attempted += 1;
                        run.tally.fail(&name, err);
                    } else {
                        run.tally.skipped += 1;
                    }
                    // Later edits build on this version, so the session
                    // still compiles it, untimed.
                    let _ = session.compile(&src);
                    continue;
                }
            };
            if phase.over() {
                break 'run;
            }
            phase.tick();
            let input = run.names.len();
            if let Some(c) = run.step(&name, &src, input) {
                let il_matches = cold
                    .compile(&src)
                    .is_ok_and(|cold| cold.module.to_string() == c.module.to_string());
                if il_matches {
                    run.execute(&name, &c, &expected, vm_runs);
                } else {
                    run.tally.fail(&name, "warm IL differs from a cold compile");
                }
            }
        }
        // One warm-edit cycle: the pair's other version, which differs
        // from the cached one in one function. Its IL must equal the cold
        // compile's; the cold compile's run was checked above, so every
        // cycle is checked without running the program again.
        if phase.over() {
            break 'run;
        }
        phase.tick();
        let version = (cycles + 1) % 2;
        cycles += 1;
        let (pair_name, src, cold_il) = &pair_il[version];
        let name = format!("{pair_name}@{seed}");
        if let Some(c) = run.step(&name, src, PAIR_INPUTS[version]) {
            if c.module.to_string() != *cold_il {
                run.tally.fail(&name, "warm IL differs from a cold compile");
            }
        }
    }

    let mut report = Report::new(o, &run.tally);
    report.vm_runs = run.runs.len();
    report.programs = run.names;
    match run.traced {
        Some((_, t)) => report.set_traced(t)?,
        None => {
            report.compile_samples = run.samples.len();
            let e2e = measure::end_to_end(setup_s, &run.samples, &run.runs, &run.records, &o.size)?;
            report.metrics = e2e.metrics;
            report.interference = e2e.factors;
        }
    }
    Ok(report)
}

/// Inputs of the warm-edit pair's two versions, out of the way of the
/// step indices that name edited versions.
const PAIR_INPUTS: [usize; 2] = [usize::MAX - 1, usize::MAX];

/// The timed steps of an `edit` run and what they collect.
struct Steps<'s> {
    session: &'s Session,
    tally: Tally,
    samples: Vec<CompileSample>,
    runs: Vec<Timed>,
    records: Vec<RunRecord>,
    /// One per timed compile; its index labels the compile's spans.
    names: Vec<String>,
    traced: Option<(minic::Frontend, Traced)>,
}

impl Steps<'_> {
    /// One timed compile of `src` on the warm session; a traced run
    /// traces every other step and times the rest untraced. Returns the
    /// compilation unless it failed.
    fn step(&mut self, name: &str, src: &str, input: usize) -> Option<Compilation> {
        self.tally.attempted += 1;
        self.names.push(name.to_string());
        let program = self.names.len() - 1;
        let result = match &mut self.traced {
            Some((fe, t)) if program % 2 == 1 => {
                t.rec.program = program;
                t.rec.sample = t.layers.len();
                traced_compile(fe, self.session, src, &mut t.rec).map(|(c, layer)| {
                    t.layers.push(layer);
                    c
                })
            }
            traced => {
                let (result, secs, peak) = timed_compile(self.session, src);
                match traced {
                    Some((_, t)) => t.untraced_secs.push(secs),
                    None => self.samples.push(CompileSample {
                        timed: Timed::new(secs, input),
                        lines: src.lines().count(),
                        peak,
                    }),
                }
                result.map_err(|e| e.to_string())
            }
        };
        result.map_err(|e| self.tally.fail(name, e)).ok()
    }

    /// Runs the compiled version of the latest step `runs` times against
    /// its oracle and records the times and the dynamic counts.
    fn execute(&mut self, name: &str, c: &Compilation, expected: &Expected, runs: usize) {
        let input = self.names.len() - 1;
        let mut counts = ExecCounts::default();
        for _ in 0..runs {
            match execute(c, expected, self.traced.as_mut().map(|(_, t)| t), input) {
                Ok((secs, n)) => {
                    self.runs.push(Timed::new(secs, input));
                    counts = n;
                }
                Err(e) => {
                    self.tally.fail(name, e);
                    return;
                }
            }
        }
        if let Some((_, t)) = &mut self.traced {
            t.mem_ratios.push(measure::ratio(
                counts.memory_ops(),
                expected.reference.memory_ops(),
            ));
        }
        self.records.push(RunRecord {
            input,
            counts,
            reference: expected.reference,
        });
    }
}

/// A traced `Session::compile`. The session's own front end and
/// validation cannot be timed from outside, so the same source is first
/// lexed, parsed and lowered on the benchmark's warm front end, and the
/// result validated once more; `driver.pipeline` is what remains of the
/// call's time.
fn traced_compile(
    fe: &mut minic::Frontend,
    session: &Session,
    src: &str,
    rec: &mut Recorder,
) -> Result<(Compilation, LayerSample), String> {
    let a0 = alloc::calls();
    let f0 = Instant::now();
    fe.lex(src).map_err(|e| e.to_string())?;
    let f1 = Instant::now();
    fe.parse_lexed().map_err(|e| e.to_string())?;
    let f2 = Instant::now();
    drop(fe.lower_parsed().map_err(|e| e.to_string())?);
    let f3 = Instant::now();
    let a1 = alloc::calls();
    let start = Instant::now();
    let c = session.compile(src).map_err(|e| e.to_string())?;
    let end = Instant::now();
    let a2 = alloc::calls();
    let v0 = Instant::now();
    ir::validate(&c.module).map_err(|e| format!("invalid IL: {e}"))?;
    let validate = v0.elapsed();
    let (lex, parse, lower) = (f1 - f0, f2 - f1, f3 - f2);
    let pipeline = (end - start).saturating_sub(lex + parse + lower + validate);
    rec.compile(
        start,
        [lex, parse, lower, pipeline, validate],
        &c.report.timings,
    );
    let frontend_allocs = a1 - a0;
    let layer = LayerSample::new(
        &c.report,
        c.module.funcs.len(),
        fe.tokens().len(),
        (f3 - f0).as_secs_f64(),
        frontend_allocs,
        (a2 - a1).saturating_sub(frontend_allocs),
    );
    Ok((c, layer))
}
