//! Spans of the traced run. They are recorded in memory from the
//! benchmark's own files, around its calls into each layer, and written
//! out only when the run ends.
//!
//! A compile is one root `compile` span. Its children are `minic.lex`,
//! `minic.parse`, `minic.lower`, `driver.pipeline` and `ir.validate`,
//! laid end to end; the rows the pipeline reports in
//! `PipelineReport::timings` become children of `driver.pipeline`, laid
//! end to end from its start because the rows carry durations but no
//! start times. Each VM execution is a root `vm.run` span.

use crate::json;
use driver::PassTimings;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name, e.g. `minic.lex` or `opt.constprop`.
    pub name: &'static str,
    /// Index of the enclosing span in the same list, `None` for a root.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the program in the report's program list.
    pub program: usize,
    /// Which compile (or, for `vm.run`, which execution) of the run.
    pub sample: usize,
    /// `true` for a pipeline row that sums per-function time across
    /// workers rather than measuring wall time (the `cpu_summed` flag of
    /// `driver::PassTiming`). With the one worker used here the two agree.
    pub cpu_summed: bool,
}

impl Span {
    fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// Collects spans; `program` and `sample` label every span pushed.
pub(crate) struct Recorder {
    origin: Instant,
    pub(crate) program: usize,
    pub(crate) sample: usize,
    pub(crate) spans: Vec<Span>,
}

impl Recorder {
    pub(crate) fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            program: 0,
            sample: 0,
            spans: Vec::new(),
        }
    }

    /// `t` in nanoseconds since the recorder was created.
    pub(crate) fn ns(&self, t: Instant) -> u64 {
        ns(t.saturating_duration_since(self.origin))
    }

    pub(crate) fn push(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: end_ns.max(start_ns),
            program: self.program,
            sample: self.sample,
            cpu_summed: false,
        });
        self.spans.len() - 1
    }

    /// Records one compile from `start`: a `compile` span holding the
    /// `stages` — lex, parse, lower, pipeline, validate — end to end, and
    /// the pipeline's timing rows end to end inside `driver.pipeline`.
    pub(crate) fn compile(&mut self, start: Instant, stages: [Duration; 5], timings: &PassTimings) {
        const STAGES: [&str; 5] = [
            "minic.lex",
            "minic.parse",
            "minic.lower",
            "driver.pipeline",
            "ir.validate",
        ];
        let mut at = self.ns(start);
        let end = at + stages.iter().map(|&d| ns(d)).sum::<u64>();
        let root = self.push("compile", None, at, end);
        for (name, d) in STAGES.into_iter().zip(stages) {
            let stage = self.push(name, Some(root), at, at + ns(d));
            if name == "driver.pipeline" {
                let mut row_at = at;
                for row in &timings.passes {
                    let i = self.push(
                        row_span(row.name),
                        Some(stage),
                        row_at,
                        row_at + ns(row.elapsed),
                    );
                    self.spans[i].cpu_summed = row.cpu_summed;
                    row_at += ns(row.elapsed);
                }
            }
            at += ns(d);
        }
    }
}

fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// The span name of a `PassTiming` row, named after the layer that runs
/// it. A row this table does not know keeps the pipeline's own label.
fn row_span(row: &'static str) -> &'static str {
    match row {
        "normalize" => "cfg.normalize",
        "analysis" => "analysis.barrier",
        "strengthen" => "opt.strengthen",
        "promote" => "promote.promote",
        "lvn" => "opt.lvn",
        "loadelim" => "opt.loadelim",
        "constprop" => "opt.constprop",
        "licm" => "opt.licm",
        "pointer-promote" => "promote.pointer",
        "lvn(2)" => "opt.lvn2",
        "dce" => "opt.dce",
        "clean" => "opt.clean",
        "regalloc" => "regalloc.regalloc",
        "clean(final)" => "opt.clean_final",
        other => other,
    }
}

/// For each of `samples` compiles, the summed duration in microseconds
/// of its spans called `name` (0 where it has none).
pub(crate) fn per_sample_us(spans: &[Span], name: &str, samples: usize) -> Vec<f64> {
    let mut v = vec![0.0; samples];
    for s in spans.iter().filter(|s| s.name == name) {
        v[s.sample] += s.us();
    }
    v
}

/// Self time per span name: each span's duration minus its children's,
/// as the median over the spans of that name, in microseconds. Names in
/// order of first appearance.
pub(crate) fn self_us(spans: &[Span]) -> Vec<(&'static str, f64)> {
    let mut child_us = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_us[p] += s.us();
        }
    }
    let mut by_name: Vec<(&'static str, Vec<f64>)> = Vec::new();
    for (s, child) in spans.iter().zip(&child_us) {
        let own = (s.us() - child).max(0.0);
        match by_name.iter_mut().find(|(n, _)| *n == s.name) {
            Some((_, v)) => v.push(own),
            None => by_name.push((s.name, vec![own])),
        }
    }
    by_name
        .into_iter()
        .map(|(n, v)| (n, crate::stats::median(&v)))
        .collect()
}

/// The spans as JSON lines, one object per span.
pub(crate) fn jsonl(spans: &[Span], workload: &str, programs: &[String]) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{i},\"name\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\
             \"workload\":{},\"program\":{},\"sample\":{},\"cpu_summed\":{}}}",
            json::string(s.name),
            s.start_ns,
            s.end_ns,
            json::string(workload),
            json::string(&programs[s.program]),
            s.sample,
            s.cpu_summed
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_compile_nests_stages_and_rows() {
        let mut r = Recorder::new();
        let us = Duration::from_micros;
        let timings = PassTimings {
            passes: vec![driver::PassTiming {
                name: "lvn",
                elapsed: us(2),
                cpu_summed: true,
                allocs: Default::default(),
            }],
        };
        r.compile(r.origin, [us(3), us(1), us(1), us(4), us(1)], &timings);
        let names: Vec<&str> = r.spans.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "compile",
                "minic.lex",
                "minic.parse",
                "minic.lower",
                "driver.pipeline",
                "opt.lvn",
                "ir.validate"
            ]
        );
        assert_eq!(r.spans[5].parent, Some(4));
        assert!(r.spans[5].cpu_summed);
        let own = self_us(&r.spans);
        assert_eq!(own[0], ("compile", 0.0));
        assert_eq!(own[4], ("driver.pipeline", 2.0));
        assert_eq!(per_sample_us(&r.spans, "minic.lex", 1), vec![3.0]);
        let lines = jsonl(&r.spans, "suite", &["tsp".to_string()]);
        assert_eq!(lines.lines().count(), 7);
        assert!(lines.contains("\"parent\":4"), "{lines}");
    }
}
