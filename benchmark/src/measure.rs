//! Timing machinery shared by the workloads: measured phases, timed
//! compiles with their heap peak, repeated set-up, the interference
//! correction, and the reduction of samples to metrics.
//!
//! # Interference
//!
//! The benchmark shares its machine. Neighbours contend for cache and
//! memory bandwidth in bursts lasting from milliseconds to tens of
//! minutes, and during one every compile and VM run is slower by a
//! common factor, up to about 1.6×. Medians over a whole run move with
//! those bursts by up to 50 % from run to run. So right after every timed
//! event the benchmark times a calibration kernel of its own, which
//! hashes and sorts on buffers it allocated once, and divides the event's
//! time by how much slower than on a quiet machine the kernel ran around
//! it (see [`denoise`]). Over six 20-second `suite` runs in a noisy hour
//! on the reference machine, raw compile medians ranged over 54 % and
//! corrected ones over 12 %. The kernel is the benchmark's code, which
//! the compiler under test cannot change, so a change that makes the
//! compiler slower shows undiminished.

use crate::report::Metric;
use crate::spans::{self, Recorder};
use crate::workload::Expected;
use crate::{alloc, stats, Size};
use driver::prelude::*;
use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher};
use std::hint::black_box;
use std::time::Instant;

/// Set-up is repeated at least this many times with fresh sessions; the
/// last one is the session the run then times.
const SETUP_MIN_REPS: usize = 5;

/// Kernel times an interference factor is taken over: those of the
/// nearest this many events before and after an event. Fewer leave more
/// of the kernel's own noise in each factor; more let bursts shorter than
/// the neighbourhood through uncorrected. Over the suite, 16 a side is
/// about 20 ms.
const NEIGHBOURS: usize = 16;

/// Values the calibration kernel hashes and sorts.
const KERNEL_VALUES: usize = 5000;

/// Slots of the calibration kernel's hash table, a power of two.
const KERNEL_SLOTS: usize = 8192;

const EMPTY_SLOT: u64 = u64::MAX;

/// The calibration kernel's time on a quiet reference machine (2-vCPU
/// Xeon VM at 2.0 GHz). Corrected times are times at that machine's
/// quiet speed; on another machine they are off by a constant factor,
/// the same for the parent and the change.
const KERNEL_REF_SECS: f64 = 200e-6;

/// When a measured phase ends.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Limit {
    Seconds(f64),
    Count(usize),
}

/// A measured phase: decides when it is over.
pub(crate) struct Phase {
    start: Instant,
    limit: Limit,
    done: usize,
}

impl Phase {
    pub(crate) fn new(limit: Limit) -> Phase {
        Phase {
            start: Instant::now(),
            limit,
            done: 0,
        }
    }

    pub(crate) fn over(&self) -> bool {
        match self.limit {
            Limit::Seconds(secs) => self.start.elapsed().as_secs_f64() >= secs,
            Limit::Count(n) => self.done >= n,
        }
    }

    /// Counts one event taken.
    pub(crate) fn tick(&mut self) {
        self.done += 1;
    }
}

thread_local! {
    /// The calibration kernel's buffers, allocated once: the kernel never
    /// calls the allocator, whose state the compiler under test changes.
    static KERNEL_BUFFERS: RefCell<(Vec<u64>, Vec<u64>)> =
        RefCell::new((Vec::with_capacity(KERNEL_VALUES), vec![EMPTY_SLOT; KERNEL_SLOTS]));
}

/// The calibration kernel: hashes fixed pseudo-random keys into an
/// open-addressing table and sorts the values, as a compile hashes names
/// and walks its tables.
fn kernel(values: &mut Vec<u64>, slots: &mut [u64]) -> u64 {
    values.clear();
    slots.fill(EMPTY_SLOT);
    let hasher = BuildHasherDefault::<DefaultHasher>::default();
    let mask = slots.len() - 1;
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut distinct = 0;
    for _ in 0..KERNEL_VALUES {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        values.push(x % 100_000);
        let key = x % 4096;
        let mut i = hasher.hash_one(key) as usize & mask;
        while slots[i] != EMPTY_SLOT && slots[i] != key {
            i = (i + 1) & mask;
        }
        if slots[i] == EMPTY_SLOT {
            slots[i] = key;
            distinct += 1;
        }
    }
    values.sort_unstable();
    values[KERNEL_VALUES / 2] + distinct
}

/// One timed event, a compile or a VM execution, the input it timed, and
/// the calibration kernel's time right after it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Timed {
    pub(crate) secs: f64,
    pub(crate) input: usize,
    kernel_secs: f64,
}

impl Timed {
    /// Records an event that took `secs`, then times the kernel.
    pub(crate) fn new(secs: f64, input: usize) -> Timed {
        let kernel_secs = KERNEL_BUFFERS.with_borrow_mut(|(values, slots)| {
            let start = Instant::now();
            black_box(kernel(values, slots));
            start.elapsed().as_secs_f64()
        });
        Timed {
            secs,
            input,
            kernel_secs,
        }
    }
}

/// Each event's time divided by the interference factor around it, and
/// the factors; `events` are in the order they were taken. An event's
/// factor is the median kernel time of the [`NEIGHBOURS`] events on
/// either side of it, over [`KERNEL_REF_SECS`]: how much slower than
/// quiet the machine ran then.
pub(crate) fn denoise(events: &[Timed]) -> (Vec<f64>, Vec<f64>) {
    let n = events.len();
    let width = (2 * NEIGHBOURS + 1).min(n);
    let factors: Vec<f64> = (0..n)
        .map(|j| {
            let lo = j.saturating_sub(NEIGHBOURS).min(n - width);
            let around: Vec<f64> = events[lo..lo + width]
                .iter()
                .map(|e| e.kernel_secs)
                .collect();
            stats::median(&around) / KERNEL_REF_SECS
        })
        .collect();
    let adjusted = events
        .iter()
        .zip(&factors)
        .map(|(e, f)| e.secs / f)
        .collect();
    (adjusted, factors)
}

/// One timed compile.
pub(crate) struct CompileSample {
    pub(crate) timed: Timed,
    pub(crate) lines: usize,
    /// Heap high-water mark during the call, above the bytes live at entry.
    pub(crate) peak: usize,
}

/// `Session::compile(src)`: its result, wall time and heap peak above
/// the bytes live at entry.
pub(crate) fn timed_compile(
    session: &Session,
    src: &str,
) -> (Result<Compilation, Error>, f64, usize) {
    let entry = alloc::reset_peak();
    let start = Instant::now();
    let result = black_box(session.compile(black_box(src)));
    let secs = start.elapsed().as_secs_f64();
    (result, secs, alloc::peak().saturating_sub(entry))
}

/// Builds a fresh session and compiles every input on it once (cold
/// interner, arenas and cache), at least [`SETUP_MIN_REPS`] times and
/// for at least `min_secs`. Returns the last session, warm, and the
/// median set-up time, each repetition corrected for interference like
/// any timed event. Compile errors are left for the timed phases to
/// report.
pub(crate) fn setup(build: impl Fn() -> Session, inputs: &[&str], min_secs: f64) -> (Session, f64) {
    let mut reps: Vec<Timed> = Vec::new();
    let mut session = None;
    while reps.len() < SETUP_MIN_REPS || reps.iter().map(|r| r.secs).sum::<f64>() < min_secs {
        drop(session.take());
        let start = Instant::now();
        let fresh = build();
        for src in inputs {
            let _ = black_box(fresh.compile(src));
        }
        reps.push(Timed::new(start.elapsed().as_secs_f64(), 0));
        session = Some(fresh);
    }
    (
        session.expect("set-up ran at least once"),
        stats::median(&denoise(&reps).0),
    )
}

/// The dynamic counts of one executed input, next to its reference's.
pub(crate) struct RunRecord {
    pub(crate) input: usize,
    pub(crate) counts: ExecCounts,
    pub(crate) reference: ExecCounts,
}

/// The share of the reference's operations an optimized run still
/// executes, `(optimized + 1) / (reference + 1)`; the added one keeps a
/// program without stores defined.
pub(crate) fn ratio(optimized: u64, reference: u64) -> f64 {
    (optimized + 1) as f64 / (reference + 1) as f64
}

fn metric(name: &'static str, value: f64) -> Metric {
    Metric {
        name,
        value,
        unit: crate::metrics::def(name).unit,
    }
}

/// What an untraced run reduces to.
pub(crate) struct EndToEnd {
    pub(crate) metrics: Vec<Metric>,
    /// The compile phase's interference factors, for the report's notes.
    pub(crate) factors: Vec<f64>,
    /// Corrected compile times, in the order of the samples.
    pub(crate) compile: Vec<f64>,
    /// Corrected VM times, in the order of the runs.
    pub(crate) runs: Vec<f64>,
}

/// The end-to-end metrics of an untraced run. `runs` are the timed VM
/// executions; their `input` ties them to `records`.
pub(crate) fn end_to_end(
    setup_s: f64,
    samples: &[CompileSample],
    runs: &[Timed],
    records: &[RunRecord],
    size: &Size,
) -> Result<EndToEnd, String> {
    if samples.is_empty() || records.is_empty() {
        return Err("no compile or no VM run finished".into());
    }
    let (times, factors) = denoise(&samples.iter().map(|s| s.timed).collect::<Vec<_>>());
    let p99 = stats::tail_percentile(&times, 99, size.min_beyond_tail)
        .map_err(|e| format!("compile samples: {e}"))?;
    let lines: usize = samples.iter().map(|s| s.lines).sum();
    let mut peaks: HashMap<usize, usize> = HashMap::new();
    for s in samples {
        let p = peaks.entry(s.timed.input).or_default();
        *p = (*p).max(s.peak);
    }
    let peaks: Vec<f64> = peaks.values().map(|&p| p as f64 / 1024.0).collect();

    let (run_secs, _) = denoise(runs);
    let mut per_input: HashMap<usize, Vec<f64>> = HashMap::new();
    for (e, secs) in runs.iter().zip(&run_secs) {
        per_input.entry(e.input).or_default().push(*secs);
    }
    let ns_per_ref_op: Vec<f64> = records
        .iter()
        .map(|r| stats::median(&per_input[&r.input]) * 1e9 / r.reference.total.max(1) as f64)
        .collect();
    let dyn_ratio = |f: fn(&ExecCounts) -> u64| {
        let v: Vec<f64> = records
            .iter()
            .map(|r| ratio(f(&r.counts), f(&r.reference)))
            .collect();
        stats::geomean(&v)
    };
    let metrics = vec![
        metric("setup_s", setup_s),
        metric("compile_ms_p50", stats::median(&times) * 1e3),
        metric("compile_ms_p99", p99 * 1e3),
        metric(
            "compile_lines_per_s",
            lines as f64 / times.iter().sum::<f64>(),
        ),
        metric("compile_peak_kib", stats::median(&peaks)),
        metric("run_ns_per_ref_op", stats::geomean(&ns_per_ref_op)),
        metric("dyn_ops_ratio", dyn_ratio(|c| c.total)),
        metric("dyn_loads_ratio", dyn_ratio(|c| c.loads)),
        metric("dyn_stores_ratio", dyn_ratio(|c| c.stores)),
    ];
    Ok(EndToEnd {
        metrics,
        factors,
        compile: times,
        runs: run_secs,
    })
}

/// What one traced compile reported, besides its spans.
pub(crate) struct LayerSample {
    tokens: usize,
    frontend_secs: f64,
    minic_allocs: u64,
    driver_allocs: u64,
    analysis_builds: u64,
    transfer_evals: u64,
    promoted_tags: usize,
    lifts: usize,
    spilled: usize,
    spill_ops: usize,
    rounds: usize,
    funcs_total: usize,
    funcs_recompiled: usize,
    cache_hits: usize,
    summary_invalidated: usize,
    evictions: usize,
    cache_bytes: usize,
}

impl LayerSample {
    /// The counters of `report` for a module of `funcs` functions, plus
    /// what the benchmark measured around the front end and the pipeline.
    /// Without an incremental cache every function is recompiled and
    /// nothing is hit, evicted or held.
    pub(crate) fn new(
        report: &PipelineReport,
        funcs: usize,
        tokens: usize,
        frontend_secs: f64,
        minic_allocs: u64,
        driver_allocs: u64,
    ) -> LayerSample {
        let alloc = report.alloc.clone().unwrap_or_default();
        let incr = report.incremental.clone().unwrap_or(IncrementalReport {
            funcs_total: funcs,
            funcs_recompiled: funcs,
            ..IncrementalReport::default()
        });
        LayerSample {
            tokens,
            frontend_secs,
            minic_allocs,
            driver_allocs,
            analysis_builds: report.analysis_builds.total(),
            transfer_evals: report.dataflow_stats.transfer_evals,
            promoted_tags: report.promotion.scalar.promoted_tags,
            lifts: report.promotion.scalar.lifts,
            spilled: alloc.spilled,
            spill_ops: alloc.spill_loads + alloc.spill_stores,
            rounds: alloc.rounds,
            funcs_total: incr.funcs_total,
            funcs_recompiled: incr.funcs_recompiled,
            cache_hits: incr.cache_hits,
            summary_invalidated: incr.summary_invalidated,
            evictions: incr.evictions,
            cache_bytes: incr.cache_bytes,
        }
    }
}

/// Everything a traced run collects.
pub(crate) struct Traced {
    pub(crate) rec: Recorder,
    /// One per traced compile; its index is the compile's span sample.
    pub(crate) layers: Vec<LayerSample>,
    /// Untraced compile times, taken alternately with the traced ones.
    pub(crate) untraced_secs: Vec<f64>,
    pub(crate) vm_ops: u64,
    pub(crate) vm_secs: f64,
    /// Optimized over reference loads+stores, per program.
    pub(crate) mem_ratios: Vec<f64>,
    /// Executions recorded as `vm.run` spans so far.
    pub(crate) vm_samples: usize,
}

impl Traced {
    pub(crate) fn new() -> Traced {
        Traced {
            rec: Recorder::new(),
            layers: Vec::new(),
            untraced_secs: Vec::new(),
            vm_ops: 0,
            vm_secs: 0.0,
            mem_ratios: Vec::new(),
            vm_samples: 0,
        }
    }

    /// `Vm::run_main` on `module`, recorded as a `vm.run` span; returns
    /// the outcome and the wall time in seconds.
    fn run_vm(&mut self, module: &ir::Module, program: usize) -> (Result<Outcome, VmError>, f64) {
        let start = Instant::now();
        let out = black_box(vm::Vm::run_main(module, VmOptions::default()));
        let end = Instant::now();
        self.rec.program = program;
        self.rec.sample = self.vm_samples;
        let (s, e) = (self.rec.ns(start), self.rec.ns(end));
        self.rec.push("vm.run", None, s, e);
        self.vm_samples += 1;
        let secs = (end - start).as_secs_f64();
        if let Ok(out) = &out {
            self.vm_ops += out.counts.total;
            self.vm_secs += secs;
        }
        (out, secs)
    }
}

/// Executes the compiled program once and checks the outcome against
/// `expected`; returns the wall time in seconds and the dynamic counts.
/// A traced run records the execution as a `vm.run` span.
pub(crate) fn execute(
    c: &Compilation,
    expected: &Expected,
    traced: Option<&mut Traced>,
    program: usize,
) -> Result<(f64, ExecCounts), String> {
    let (out, secs) = match traced {
        Some(t) => {
            let (out, secs) = t.run_vm(&c.module, program);
            (out.map_err(|e| e.to_string()), secs)
        }
        None => {
            let start = Instant::now();
            let out = black_box(c.run(VmOptions::default()));
            (
                out.map_err(|e| e.to_string()),
                start.elapsed().as_secs_f64(),
            )
        }
    };
    let out = out.map_err(|e| format!("VM fault: {e}"))?;
    expected.check(&out)?;
    Ok((secs, out.counts))
}

/// The per-layer metrics of a traced run.
pub(crate) fn per_layer(t: &Traced) -> Result<Vec<Metric>, String> {
    let n = t.layers.len();
    if n == 0 || t.untraced_secs.is_empty() || t.vm_secs <= 0.0 || t.mem_ratios.is_empty() {
        return Err("the traced run took no samples".into());
    }
    let spans = &t.rec.spans;
    let layer = |f: &dyn Fn(&LayerSample) -> f64| {
        stats::median(&t.layers.iter().map(f).collect::<Vec<_>>())
    };
    let span_us = |name: &str| stats::median(&spans::per_sample_us(spans, name, n));
    // Pipeline wall time not covered by any reported row.
    let mut other_us = spans::per_sample_us(spans, "driver.pipeline", n);
    for s in spans {
        if s.parent.is_some_and(|p| spans[p].name == "driver.pipeline") {
            other_us[s.sample] -= (s.end_ns - s.start_ns) as f64 / 1e3;
        }
    }
    let traced_compile_s = stats::median(&spans::per_sample_us(spans, "compile", n)) / 1e6;
    // Pooled over all traced compiles: per compile, the rate is mostly
    // all or nothing.
    let cache_hits: usize = t.layers.iter().map(|l| l.cache_hits).sum();
    let funcs: usize = t.layers.iter().map(|l| l.funcs_total).sum::<usize>().max(1);
    let mut m = Vec::new();
    for name in [
        "minic.lex_us",
        "minic.parse_us",
        "minic.lower_us",
        "cfg.normalize_us",
        "analysis.barrier_us",
        "opt.strengthen_us",
        "opt.lvn_us",
        "opt.loadelim_us",
        "opt.constprop_us",
        "opt.licm_us",
        "opt.lvn2_us",
        "opt.dce_us",
        "opt.clean_us",
        "opt.clean_final_us",
        "promote.promote_us",
        "regalloc.regalloc_us",
        "driver.pipeline_us",
        "ir.validate_us",
    ] {
        let span = name.strip_suffix("_us").expect("time metrics end in _us");
        m.push(metric(name, span_us(span)));
    }
    m.extend([
        metric(
            "minic.tokens_per_s",
            layer(&|l| l.tokens as f64 / l.frontend_secs),
        ),
        metric("minic.allocs", layer(&|l| l.minic_allocs as f64)),
        metric("cfg.analysis_builds", layer(&|l| l.analysis_builds as f64)),
        metric("cfg.transfer_evals", layer(&|l| l.transfer_evals as f64)),
        metric("promote.promoted_tags", layer(&|l| l.promoted_tags as f64)),
        metric("promote.lifts", layer(&|l| l.lifts as f64)),
        metric("promote.mem_ops_ratio", stats::median(&t.mem_ratios)),
        metric("regalloc.spilled", layer(&|l| l.spilled as f64)),
        metric("regalloc.spill_ops", layer(&|l| l.spill_ops as f64)),
        metric("regalloc.rounds", layer(&|l| l.rounds as f64)),
        metric("driver.other_us", stats::median(&other_us)),
        metric("driver.allocs", layer(&|l| l.driver_allocs as f64)),
        metric(
            "driver.funcs_recompiled",
            layer(&|l| l.funcs_recompiled as f64),
        ),
        metric("driver.cache_hit_rate", cache_hits as f64 / funcs as f64),
        metric(
            "driver.summary_invalidated",
            layer(&|l| l.summary_invalidated as f64),
        ),
        metric("driver.evictions", layer(&|l| l.evictions as f64)),
        metric(
            "driver.cache_kib",
            layer(&|l| l.cache_bytes as f64 / 1024.0),
        ),
        metric("vm.mops_per_s", t.vm_ops as f64 / t.vm_secs / 1e6),
        metric(
            "trace_overhead",
            traced_compile_s / stats::median(&t.untraced_secs),
        ),
    ]);
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(values: &[f64], expected: f64) -> bool {
        values
            .iter()
            .all(|v| (v - expected).abs() < 1e-9 * expected)
    }

    #[test]
    fn a_common_slowdown_cancels_and_a_slower_compiler_shows() {
        // 100 events on a quiet machine, then 100 with everything 1.5x
        // slower, the kernel included.
        let events: Vec<Timed> = (0..200)
            .map(|i| {
                let slow = if i < 100 { 1.0 } else { 1.5 };
                Timed {
                    secs: 1e-3 * slow,
                    input: 0,
                    kernel_secs: KERNEL_REF_SECS * slow,
                }
            })
            .collect();
        let (adjusted, factors) = denoise(&events);
        assert!(close(&adjusted, 1e-3), "{adjusted:?}");
        assert!(close(&factors[..84], 1.0) && close(&factors[116..], 1.5));
        // The compiler 20 % slower on the same machine.
        let slower: Vec<Timed> = events
            .iter()
            .map(|e| Timed {
                secs: e.secs * 1.2,
                ..*e
            })
            .collect();
        assert!(close(&denoise(&slower).0, 1.2e-3));
    }

    #[test]
    fn the_kernel_is_deterministic() {
        let mut values = Vec::with_capacity(KERNEL_VALUES);
        let mut slots = vec![EMPTY_SLOT; KERNEL_SLOTS];
        let first = kernel(&mut values, &mut slots);
        assert_eq!(kernel(&mut values, &mut slots), first);
        assert_eq!(
            values.capacity(),
            KERNEL_VALUES,
            "the kernel never grows its buffers"
        );
    }
}
