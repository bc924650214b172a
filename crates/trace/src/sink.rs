//! The per-function event buffer and the whole-module log.

use crate::event::{PassEvent, Remark, TraceRecord};
use crate::jsonl::{self, JsonlError};

/// A body's static `(instrs, loads, stores)`: what a
/// [`PassEvent::Delta`] is the before-minus-after of. A body type opts in
/// to [`FuncTrace::stage`] with `impl From<&Body> for (usize, usize,
/// usize)` (`ir::Function` does).
type Counts = (usize, usize, usize);

/// The per-function event buffer a worker fills while it carries one
/// function through the pipeline's stages.
///
/// A disabled trace ([`FuncTrace::off`]) holds no buffer, and that is the
/// whole zero-cost story: every hook starts with one discriminant test
/// and returns, with no allocation, no string formatting, no tag-name
/// resolution. A disabled pipeline run never constructs a single event.
#[derive(Debug, Default)]
pub struct FuncTrace(Option<Buffer>);

/// What an enabled [`FuncTrace`] holds.
#[derive(Debug, Default)]
struct Buffer {
    /// The buffered events, in stage order.
    events: Vec<PassEvent>,
    /// The function's counts as of the last [`FuncTrace::stage`] exit
    /// (the *snapshot*). Consecutive stages chain through it — stage N's
    /// after-count is stage N+1's before-count — so tracing scans a body
    /// at most once per stage that changed it.
    stats: Option<Counts>,
}

impl FuncTrace {
    /// A disabled trace.
    pub fn off() -> FuncTrace {
        FuncTrace(None)
    }

    /// An enabled, empty trace. The vector is lazily grown; an enabled
    /// trace over a function no pass touches stays allocation-free.
    pub fn on() -> FuncTrace {
        FuncTrace(Some(Buffer::default()))
    }

    /// True when events are being collected. Passes must guard any work
    /// done *only* to build events (set scans, reason classification)
    /// behind this, which is what keeps disabled tracing free.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Records a structured remark.
    #[inline]
    pub fn remark(&mut self, pass: &'static str, remark: Remark) {
        if let Some(buf) = &mut self.0 {
            buf.events.push(PassEvent::Remark { pass, remark });
        }
    }

    /// Runs one pipeline stage over `body` and records its
    /// before-minus-after [`PassEvent::Delta`] under `pass`: the one place
    /// a delta is computed. `run` gets the body and this trace (for
    /// remarks) and returns its result plus whether it may have changed
    /// the body. The body is counted through its `(instrs, loads,
    /// stores)` conversion (for `ir::Function`, its `body_stats`).
    ///
    /// With tracing off this is a direct call. With it on, the
    /// before-count is the snapshot the previous stage left, or a scan if
    /// there is none. The body is rescanned afterwards only when `run`
    /// reports a change; otherwise the snapshot stands, so a stage may
    /// report "unchanged" only when it left the body untouched. An
    /// all-zero delta is dropped (a stage that changed nothing says
    /// nothing), and the after-count becomes the new snapshot.
    #[inline]
    pub fn stage<B, R>(
        &mut self,
        pass: &'static str,
        body: &mut B,
        run: impl FnOnce(&mut B, &mut FuncTrace) -> (R, bool),
    ) -> R
    where
        for<'b> &'b B: Into<Counts>,
    {
        let before = match &self.0 {
            None => return run(body, self).0,
            Some(buf) => buf.stats.unwrap_or_else(|| (&*body).into()),
        };
        let (result, changed) = run(body, self);
        let after = if changed { (&*body).into() } else { before };
        if let Some(buf) = &mut self.0 {
            if after != before {
                let removed = |before: usize, after: usize| before as i64 - after as i64;
                buf.events.push(PassEvent::Delta {
                    pass,
                    instrs_removed: removed(before.0, after.0),
                    loads_removed: removed(before.1, after.1),
                    stores_removed: removed(before.2, after.2),
                });
            }
            buf.stats = Some(after);
        }
        result
    }

    /// Drains the buffered events, leaving the trace enabled-and-empty
    /// (or off, if it was off).
    pub fn take_events(&mut self) -> Vec<PassEvent> {
        match &mut self.0 {
            None => Vec::new(),
            Some(buf) => {
                buf.stats = None;
                std::mem::take(&mut buf.events)
            }
        }
    }

    /// Number of events buffered so far. The incremental driver snapshots
    /// this before the fused chain runs so it can carve out exactly the
    /// chain's event suffix for caching.
    pub fn event_count(&self) -> usize {
        self.0.as_ref().map_or(0, |buf| buf.events.len())
    }

    /// Clones the events from index `from` to the end — the suffix a
    /// cached function's chain trip appended past an
    /// [`event_count`](Self::event_count) snapshot.
    pub fn events_from(&self, from: usize) -> Vec<PassEvent> {
        match &self.0 {
            None => Vec::new(),
            Some(buf) => buf.events.get(from..).unwrap_or_default().to_vec(),
        }
    }

    /// Appends pre-recorded events (a cached chain suffix being replayed
    /// into a live trace). No-op when the trace is off.
    pub fn append_events(&mut self, replayed: Vec<PassEvent>) {
        if let Some(buf) = &mut self.0 {
            buf.events.extend(replayed);
        }
    }
}

/// The whole-module trace: every function's events, in function-index
/// order. This is what a [`crate::TraceLog`]-returning pipeline run hands
/// back, what `--trace-json` serializes, and what the determinism tests
/// compare across worker counts.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct TraceLog {
    /// Records in deterministic (function-index, then chain) order.
    pub records: Vec<TraceRecord>,
    /// Functions whose chain events were *replayed* from the incremental
    /// cache rather than produced by a live pass run, in function-index
    /// order. Kept out of band — serialization
    /// ([`to_jsonl`](Self::to_jsonl)) and rendering are unaffected, so a
    /// cached compile's remark stream stays byte-identical to a cold one.
    cached: Vec<String>,
}

impl TraceLog {
    /// An empty log.
    pub fn new() -> TraceLog {
        TraceLog::default()
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing was recorded (always the case when tracing was
    /// disabled).
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Appends every event of one function, in order.
    pub fn extend_func(&mut self, func: &str, events: Vec<PassEvent>) {
        for event in events {
            self.records.push(TraceRecord {
                func: func.to_string(),
                event,
            });
        }
    }

    /// Marks one function's chain events as `Cached` (replayed from the
    /// incremental cache). Out-of-band metadata: it never changes the
    /// serialized or rendered remark stream.
    pub fn mark_cached(&mut self, func: &str) {
        self.cached.push(func.to_string());
    }

    /// Functions marked [`mark_cached`](Self::mark_cached), in marking
    /// order.
    pub fn cached_funcs(&self) -> &[String] {
        &self.cached
    }

    /// True if `func`'s chain events came from the incremental cache.
    pub fn is_cached(&self, func: &str) -> bool {
        self.cached.iter().any(|f| f == func)
    }

    /// Iterates the structured remarks (deltas skipped), with their pass
    /// labels and owning functions: `(func, pass, remark)`.
    pub fn remarks(&self) -> impl Iterator<Item = (&str, &'static str, &Remark)> {
        self.records.iter().filter_map(|r| match &r.event {
            PassEvent::Remark { pass, remark } => Some((r.func.as_str(), *pass, remark)),
            PassEvent::Delta { .. } => None,
        })
    }

    /// Prefixes every record's function name with `prefix::` — used when
    /// logs from several modules are concatenated into one artifact (the
    /// benchmark suite's remark dump).
    pub fn prefix_funcs(&mut self, prefix: &str) {
        for r in &mut self.records {
            r.func = format!("{prefix}::{}", r.func);
        }
    }

    /// Serializes the log as JSONL: one self-contained JSON object per
    /// line, schema documented in [`crate::jsonl`].
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            out.push_str(&jsonl::record_to_json(r));
            out.push('\n');
        }
        out
    }

    /// Parses a JSONL string produced by [`to_jsonl`](Self::to_jsonl)
    /// (round-trip guaranteed; unknown keys are ignored for forward
    /// compatibility).
    ///
    /// # Errors
    ///
    /// Returns the first malformed line with its line number.
    pub fn from_jsonl(s: &str) -> Result<TraceLog, JsonlError> {
        let mut log = TraceLog::new();
        for (i, line) in s.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let rec = jsonl::record_from_json(line)
                .map_err(|e| JsonlError::new(format!("line {}: {}", i + 1, e.message())))?;
            log.records.push(rec);
        }
        Ok(log)
    }

    /// Renders the whole log as human-readable LLVM-style remark lines.
    pub fn render_remarks(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            out.push_str(&r.render());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stand-in body: one op per char, `l` a load, `s` a store.
    struct Body(String);

    impl From<&Body> for Counts {
        fn from(b: &Body) -> Counts {
            let count = |c| b.0.chars().filter(|&x| x == c).count();
            (b.0.len(), count('l'), count('s'))
        }
    }

    /// Drops the body's store and reports a change.
    fn dce(b: &mut Body, _: &mut FuncTrace) -> ((), bool) {
        b.0 = b.0.replace('s', "");
        ((), true)
    }

    fn snapshot(tr: &FuncTrace) -> Option<Counts> {
        tr.0.as_ref().and_then(|buf| buf.stats)
    }

    fn delta(pass: &'static str, instrs: i64, loads: i64, stores: i64) -> PassEvent {
        PassEvent::Delta {
            pass,
            instrs_removed: instrs,
            loads_removed: loads,
            stores_removed: stores,
        }
    }

    #[test]
    fn off_trace_records_nothing() {
        let mut tr = FuncTrace::off();
        assert!(!tr.enabled());
        tr.remark("promote", Remark::Spilled { reg: 1, round: 1 });
        let mut body = Body("cslr".into());
        let got = tr.stage("dce", &mut body, |b, tr| {
            assert!(!tr.enabled());
            (7, dce(b, tr).1)
        });
        assert_eq!((got, body.0.as_str()), (7, "clr"), "the stage ran");
        assert_eq!(snapshot(&tr), None);
        assert!(tr.take_events().is_empty());
    }

    #[test]
    fn zero_deltas_are_dropped() {
        let mut tr = FuncTrace::on();
        let mut body = Body("cslr".into());
        // Rewrites an op in place: a change, but an all-zero delta.
        tr.stage("lvn", &mut body, |b, _| {
            b.0 = b.0.replace('c', "x");
            ((), true)
        });
        tr.stage("dce", &mut body, dce);
        let events = tr.take_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].pass(), "dce");
    }

    #[test]
    fn a_changed_stage_rescans_and_updates_the_snapshot() {
        let mut tr = FuncTrace::on();
        let mut body = Body("cslr".into());
        tr.stage("dce", &mut body, dce);
        assert_eq!(snapshot(&tr), Some((3, 1, 0)));
        // Lift insertion: negative counts, measured from the new snapshot.
        tr.stage("promote", &mut body, |b, _| {
            b.0 = format!("lc{}s", b.0);
            ((), true)
        });
        assert_eq!(snapshot(&tr), Some((6, 2, 1)));
        let want = vec![delta("dce", 1, 0, 1), delta("promote", -3, -1, -1)];
        assert_eq!(tr.take_events(), want);
    }

    #[test]
    fn an_unchanged_stage_reuses_the_snapshot_without_rescanning() {
        let mut tr = FuncTrace::on();
        let mut body = Body("cslr".into());
        tr.stage("normalize", &mut body, |_, _| ((), true));
        assert_eq!(snapshot(&tr), Some((4, 1, 1)));
        // A stage that edits the body but reports no change: nothing is
        // rescanned, so the snapshot and the event list stand.
        tr.stage("lvn", &mut body, |b, tr| ((), !dce(b, tr).1));
        assert_eq!(snapshot(&tr), Some((4, 1, 1)));
        assert_eq!(tr.event_count(), 0);
        // The next stage that rescans measures from the reused snapshot,
        // so the hidden edit lands on it.
        tr.stage("clean", &mut body, |_, _| ((), true));
        assert_eq!(tr.take_events(), vec![delta("clean", 1, 0, 1)]);
    }
}
