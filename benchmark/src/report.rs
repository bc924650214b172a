//! A run's result and the forms it is printed in.

use crate::measure::{self, Traced};
use crate::spans::{self, Span};
use crate::workload::Tally;
use crate::{json, metrics, stats, Options, Workload};
use std::fmt::Write as _;

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Catalog name (see [`crate::metrics`]).
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Catalog unit.
    pub unit: &'static str,
}

/// One suite program's numbers in a `suite` or `pressure` run.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramRow {
    /// Suite program name.
    pub program: String,
    /// Median timed compile of this program.
    pub compile_ms_p50: f64,
    /// Median VM execution of the optimized program.
    pub run_ms: f64,
    /// Dynamic operations of the optimized program.
    pub dyn_ops: u64,
    /// Dynamic loads of the optimized program.
    pub dyn_loads: u64,
    /// Dynamic stores of the optimized program.
    pub dyn_stores: u64,
}

/// What one run measured and whether the compiler's outputs were right.
#[derive(Debug, Clone)]
pub struct Report {
    /// The workload run.
    pub workload: Workload,
    /// Its seed.
    pub seed: u64,
    /// Whether this was the traced run.
    pub trace: bool,
    /// Distinct programs checked against their oracle.
    pub attempted: usize,
    /// Programs that failed to compile, faulted, or disagreed with the
    /// oracle.
    pub failed: usize,
    /// Generated programs left out because their reference run did not
    /// finish within the step cap.
    pub skipped: usize,
    /// The first few failures, with reasons.
    pub failures: Vec<String>,
    /// Timed compiles behind the end-to-end metrics.
    pub compile_samples: usize,
    /// Timed VM executions.
    pub vm_runs: usize,
    /// Interference factor around each compile of the untraced run: how
    /// much slower than the quiet reference machine it ran then.
    pub interference: Vec<f64>,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced
    /// run), in catalog order.
    pub metrics: Vec<Metric>,
    /// Per-program rows (`suite` and `pressure`, untraced run).
    pub rows: Vec<ProgramRow>,
    /// Median self time of each span name, in microseconds (traced run).
    pub self_us: Vec<(&'static str, f64)>,
    /// Program names that spans refer to by index.
    pub programs: Vec<String>,
    /// Every recorded span (traced run).
    pub spans: Vec<Span>,
}

impl Report {
    pub(crate) fn new(o: &Options, tally: &Tally) -> Report {
        Report {
            workload: o.workload,
            seed: o.seed,
            trace: o.trace,
            attempted: tally.attempted,
            failed: tally.failed(),
            skipped: tally.skipped,
            failures: tally.reasons.clone(),
            compile_samples: 0,
            vm_runs: 0,
            interference: Vec::new(),
            metrics: Vec::new(),
            rows: Vec::new(),
            self_us: Vec::new(),
            programs: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub(crate) fn set_traced(&mut self, t: Traced) -> Result<(), String> {
        self.metrics = measure::per_layer(&t)?;
        let order = |m: &Metric| metrics::PER_LAYER.iter().position(|d| d.name == m.name);
        self.metrics.sort_by_key(order);
        self.compile_samples = t.layers.len();
        self.self_us = spans::self_us(&t.rec.spans);
        self.spans = t.rec.spans;
        Ok(())
    }

    /// No program failed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The value of metric `name`, if this run emitted it.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Every metric as `name value unit`, followed by `#` lines saying
    /// what the run did.
    pub fn text(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = writeln!(out, "{} {} {}", m.name, m.value, m.unit);
        }
        let _ = writeln!(
            out,
            "# workload {} seed {} trace {}: {} attempted, {} failed, {} skipped, \
             {} timed compiles, {} timed VM runs",
            self.workload.name(),
            self.seed,
            u8::from(self.trace),
            self.attempted,
            self.failed,
            self.skipped,
            self.compile_samples,
            self.vm_runs
        );
        if self.interference.len() >= 2 {
            let [q1, med, q3] = stats::quartiles(&self.interference);
            let _ = writeln!(
                out,
                "# interference factor over {} compiles: q1 {q1:.3} median {med:.3} q3 {q3:.3}",
                self.interference.len()
            );
        }
        for f in &self.failures {
            let _ = writeln!(out, "# FAILED {f}");
        }
        if !self.rows.is_empty() {
            let _ = writeln!(
                out,
                "# program compile_ms_p50 run_ms dyn_ops dyn_loads dyn_stores"
            );
            for r in &self.rows {
                let _ = writeln!(
                    out,
                    "# {} {:.4} {:.3} {} {} {}",
                    r.program, r.compile_ms_p50, r.run_ms, r.dyn_ops, r.dyn_loads, r.dyn_stores
                );
            }
        }
        if !self.self_us.is_empty() {
            let _ = writeln!(out, "# self time, median per span (us)");
            for (name, us) in &self.self_us {
                let _ = writeln!(out, "# {name} {us:.3}");
            }
        }
        out
    }

    fn metrics_json(&self) -> String {
        let fields: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::string(m.name),
                    json::number(m.value),
                    json::string(m.unit)
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    /// The one-line JSON result a run prints last:
    /// `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted,
            self.failed,
            self.metrics_json()
        )
    }

    /// The result with everything the run knows, for `--out`.
    pub fn to_json(&self) -> String {
        let strings = |v: &[String]| {
            v.iter()
                .map(|s| json::string(s))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|r| {
                format!(
                    "{{\"program\": {}, \"compile_ms_p50\": {}, \"run_ms\": {}, \
                     \"dyn_ops\": {}, \"dyn_loads\": {}, \"dyn_stores\": {}}}",
                    json::string(&r.program),
                    json::number(r.compile_ms_p50),
                    json::number(r.run_ms),
                    r.dyn_ops,
                    r.dyn_loads,
                    r.dyn_stores
                )
            })
            .collect();
        let self_us: Vec<String> = self
            .self_us
            .iter()
            .map(|(n, us)| format!("{}: {}", json::string(n), json::number(*us)))
            .collect();
        let interference: Vec<String> =
            self.interference.iter().map(|v| json::number(*v)).collect();
        format!(
            "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"correct\": {}, \
             \"attempted\": {}, \"failed\": {}, \"skipped\": {}, \"failures\": [{}], \
             \"compile_samples\": {}, \"vm_runs\": {}, \"interference\": [{}], \
             \"metrics\": {}, \"rows\": [{}], \"self_us\": {{{}}}}}\n",
            json::string(self.workload.name()),
            self.seed,
            self.trace,
            self.correct(),
            self.attempted,
            self.failed,
            self.skipped,
            strings(&self.failures),
            self.compile_samples,
            self.vm_runs,
            interference.join(", "),
            self.metrics_json(),
            rows.join(", "),
            self_us.join(", ")
        )
    }

    /// The traced run's spans as JSON lines.
    pub fn spans_jsonl(&self) -> String {
        spans::jsonl(&self.spans, self.workload.name(), &self.programs)
    }
}
