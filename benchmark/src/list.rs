//! `suite`, `pressure` and `generated`: a fixed list of programs,
//! compiled round-robin on one warm session (closed loop: each compile
//! is issued when the previous one returns), then executed round-robin.

use crate::measure::{
    self, execute, setup, timed_compile, CompileSample, LayerSample, Limit, Phase, RunRecord,
    Timed, Traced,
};
use crate::report::{ProgramRow, Report};
use crate::spans::Recorder;
use crate::workload::{generated_programs, suite_programs, Tally};
use crate::{alloc, stats, Budget, Options, Workload};
use driver::prelude::*;
use driver::WorkerPool;
use std::time::Instant;

pub(crate) fn run(o: &Options) -> Result<Report, String> {
    let mut tally = Tally::default();
    let programs = match o.workload {
        Workload::Generated => generated_programs(o.seed, o.size.generated, &mut tally),
        _ => suite_programs(&o.size.suite, &mut tally)?,
    };
    let inputs: Vec<&str> = programs.iter().map(|p| p.source.as_str()).collect();
    let (session, setup_s) = setup(|| o.workload.session(), &inputs, o.size.budget.setup_secs());
    let (compile_limit, vm_seconds, vm_runs) = match o.size.budget {
        Budget::Seconds(s) => (Limit::Seconds(s * 2.0 / 3.0), s / 3.0, o.workload.vm_runs()),
        Budget::Count { compiles, vm_runs } => (Limit::Count(compiles), 0.0, vm_runs),
    };
    let mut live: Vec<bool> = programs
        .iter()
        .map(|p| !tally.has_failed(&p.name))
        .collect();
    let mut traced = o.trace.then(|| {
        // The traced path compiles on its own front end and pool; warm
        // them as the session was warmed.
        let mut path = TracedPath::new();
        for p in &programs {
            let _ = path.compile(session.config(), &p.source, &mut Recorder::new());
        }
        (path, Traced::new())
    });

    // Compile phase. A traced run compiles each program twice in a row,
    // untraced and traced, so both see the same machine state; the second
    // compile of a program finds its caches warm, so the order alternates.
    let mut phase = Phase::new(compile_limit);
    let mut samples = Vec::new();
    let mut round = 0;
    'phase: while live.contains(&true) {
        round += 1;
        for (i, p) in programs.iter().enumerate() {
            if !live[i] {
                continue;
            }
            if phase.over() {
                break 'phase;
            }
            phase.tick();
            let trace_first = round % 2 == 0;
            let mut traced_ok = Ok(());
            if trace_first {
                traced_ok = trace(&mut traced, session.config(), &p.source, i);
            }
            let (result, secs, peak) = timed_compile(&session, &p.source);
            if !trace_first {
                traced_ok = trace(&mut traced, session.config(), &p.source, i);
            }
            if let Err(e) = result.map(drop).map_err(|e| e.to_string()).and(traced_ok) {
                tally.fail(&p.name, e);
                live[i] = false;
                continue;
            }
            match &mut traced {
                None => samples.push(CompileSample {
                    timed: Timed::new(secs, i),
                    lines: p.lines,
                    peak,
                }),
                Some((_, t)) => t.untraced_secs.push(secs),
            }
        }
    }

    // VM phase: one compile per program, then rounds of executions until
    // the time is up and every program has run `vm_runs` times.
    let mut compiled = Vec::new();
    for (i, p) in programs.iter().enumerate() {
        if !live[i] {
            continue;
        }
        match session.compile(&p.source) {
            Ok(c) => compiled.push((i, c)),
            Err(e) => {
                tally.fail(&p.name, e);
                live[i] = false;
            }
        }
    }
    let mut runs = Vec::new();
    let mut counts = vec![None; programs.len()];
    let vm_phase = Phase::new(Limit::Seconds(vm_seconds));
    for round in 0.. {
        if round >= vm_runs && vm_phase.over() {
            break;
        }
        for (i, c) in &compiled {
            if !live[*i] {
                continue;
            }
            let t = traced.as_mut().map(|(_, t)| t);
            match execute(c, &programs[*i].expected, t, *i) {
                Ok((secs, n)) => {
                    runs.push(Timed::new(secs, *i));
                    counts[*i] = Some(n);
                }
                Err(e) => {
                    tally.fail(&programs[*i].name, e);
                    live[*i] = false;
                }
            }
        }
    }
    let records: Vec<RunRecord> = (0..programs.len())
        .filter(|&i| live[i])
        .filter_map(|i| {
            Some(RunRecord {
                input: i,
                counts: counts[i]?,
                reference: programs[i].expected.reference,
            })
        })
        .collect();

    let mut report = Report::new(o, &tally);
    report.programs = programs.iter().map(|p| p.name.clone()).collect();
    report.vm_runs = runs.len();
    if let Some((_, mut t)) = traced {
        for r in &records {
            t.mem_ratios.push(measure::ratio(
                r.counts.memory_ops(),
                r.reference.memory_ops(),
            ));
        }
        report.set_traced(t)?;
        return Ok(report);
    }
    report.compile_samples = samples.len();
    let e2e = measure::end_to_end(setup_s, &samples, &runs, &records, &o.size)?;
    if o.workload != Workload::Generated {
        let compile_inputs: Vec<usize> = samples.iter().map(|s| s.timed.input).collect();
        let run_inputs: Vec<usize> = runs.iter().map(|r| r.input).collect();
        report.rows = records
            .iter()
            .map(|r| ProgramRow {
                program: programs[r.input].name.clone(),
                compile_ms_p50: median_of(&e2e.compile, &compile_inputs, r.input) * 1e3,
                run_ms: median_of(&e2e.runs, &run_inputs, r.input) * 1e3,
                dyn_ops: r.counts.total,
                dyn_loads: r.counts.loads,
                dyn_stores: r.counts.stores,
            })
            .collect();
    }
    report.metrics = e2e.metrics;
    report.interference = e2e.factors;
    Ok(report)
}

/// The median of the `secs` whose entry in `inputs` is `input`.
fn median_of(secs: &[f64], inputs: &[usize], input: usize) -> f64 {
    let mine: Vec<f64> = secs
        .iter()
        .zip(inputs)
        .filter(|(_, &i)| i == input)
        .map(|(s, _)| *s)
        .collect();
    stats::median(&mine)
}

/// Traces one compile of program `index`, when the run is traced.
fn trace(
    traced: &mut Option<(TracedPath, Traced)>,
    config: &PipelineConfig,
    src: &str,
    index: usize,
) -> Result<(), String> {
    let Some((path, t)) = traced else {
        return Ok(());
    };
    t.rec.program = index;
    t.rec.sample = t.layers.len();
    let layer = path.compile(config, src, &mut t.rec)?;
    t.layers.push(layer);
    Ok(())
}

/// The traced compile path: the session's pipeline configuration on the
/// benchmark's own warm front end and one-worker pool, so each layer can
/// be timed from outside.
struct TracedPath {
    frontend: minic::Frontend,
    pool: WorkerPool,
}

impl TracedPath {
    fn new() -> TracedPath {
        TracedPath {
            frontend: minic::Frontend::new(),
            pool: WorkerPool::new(1),
        }
    }

    /// `minic.lex` → `minic.parse` → `minic.lower` → `driver.pipeline` →
    /// `ir.validate`, the same work `Session::compile` does, each step
    /// timed and recorded under one `compile` span.
    fn compile(
        &mut self,
        config: &PipelineConfig,
        src: &str,
        rec: &mut Recorder,
    ) -> Result<LayerSample, String> {
        let fe = &mut self.frontend;
        let a0 = alloc::calls();
        let t0 = Instant::now();
        fe.lex(src).map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        fe.parse_lexed().map_err(|e| e.to_string())?;
        let t2 = Instant::now();
        let mut module = fe.lower_parsed().map_err(|e| e.to_string())?;
        let t3 = Instant::now();
        let a1 = alloc::calls();
        let report = driver::run_pipeline_in(&mut module, config, &self.pool);
        let t4 = Instant::now();
        let a2 = alloc::calls();
        ir::validate(&module).map_err(|e| format!("invalid IL: {e}"))?;
        let t5 = Instant::now();
        rec.compile(
            t0,
            [t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4],
            &report.timings,
        );
        Ok(LayerSample::new(
            &report,
            module.funcs.len(),
            fe.tokens().len(),
            (t3 - t0).as_secs_f64(),
            a1 - a0,
            a2 - a1,
        ))
    }
}
