//! End-to-end tests for the structured optimization-remark telemetry:
//! the [`driver::Session`] API with tracing enabled must explain, per
//! loop and per tag, what promotion did and why it declined — and the
//! trace must be observation-only (identical IL with tracing on or off)
//! and round-trip exactly through its JSONL serialization.

use driver::Session;
use trace::{BlockReason, Remark, TraceLog};
use vm::VmOptions;

/// A MiniC program with one promotable global (`hot`: referenced only
/// explicitly inside the loop) and one call-pinned global (`pinned`:
/// stored explicitly in the loop body *and* modified by `bump()`, so the
/// call's MOD set makes it ambiguous — the paper's equation 2 keeps it
/// out of L_PROMOTABLE).
const COUNTER: &str = r#"
int hot;
int pinned;

void bump(void) { pinned = pinned + 1; }

int main(void) {
    int i;
    for (i = 0; i < 100; i++) {
        hot = hot + 1;
        pinned = pinned + 2;
        bump();
    }
    print_int(hot);
    print_int(pinned);
    return 0;
}
"#;

/// The paper's Figure 2 worked example as IL (same source as
/// `tests/figure2_example.rs`): loops B1 ⊃ B3 ⊃ B5 over tags A, B, C,
/// with a call that mods A in the outer loop and one that refs B in the
/// middle loop.
const FIGURE2: &str = r#"
tag "A" global size=1 addressed
tag "B" global size=1 addressed
tag "C" global size=1 addressed
global "A" ints 3
global "B" ints 5
global "C" ints 0
func @ext_a(0) {
B0:
  r0 = sload "A"
  r1 = iconst 1
  r2 = add r0, r1
  sstore r2, "A"
  ret
}
func @ext_b(0) {
B0:
  r0 = sload "B"
  ret
}
func @main(0) result {
B0:
  r0 = sload "C"
  r10 = iconst 0
  jump B1
B1:
  sstore r0, "C"
  call @ext_a() mods{"A"} refs{"A"}
  jump B2
B2:
  r1 = sload "A"
  r11 = iconst 0
  jump B3
B3:
  sstore r1, "B"
  call @ext_b() mods{} refs{"B"}
  r12 = iconst 0
  jump B4
B4:
  jump B5
B5:
  r2 = sload "A"
  r0 = add r0, r2
  jump B6
B6:
  r13 = iconst 1
  r12 = add r12, r13
  r14 = iconst 3
  r15 = cmplt r12, r14
  branch r15, B5, B7
B7:
  r16 = iconst 1
  r11 = add r11, r16
  r17 = iconst 3
  r18 = cmplt r11, r17
  branch r18, B3, B8
B8:
  r19 = iconst 1
  r10 = add r10, r19
  r20 = iconst 3
  r21 = cmplt r10, r20
  branch r21, B1, B9
B9:
  sstore r2, "C"
  r22 = sload "C"
  ret r22
}
"#;

#[test]
fn counter_loop_yields_promoted_and_call_blocked_remarks() {
    let session = Session::builder().trace(true).build();
    let c = session.compile(COUNTER).expect("compiles");
    let outcome = c.run(VmOptions::default()).expect("runs");
    assert_eq!(outcome.output, vec!["100", "300"]);

    // `hot` is promoted for the whole loop... (the front end names
    // global tags `g:<name>`)
    assert!(
        c.trace.remarks().any(|(func, _, r)| {
            func == "main"
                && matches!(r, Remark::Promoted { tag, in_loop, .. }
                    if tag == "g:hot" && in_loop.depth == 1)
        }),
        "no Promoted remark for `hot`:\n{}",
        c.remarks_text()
    );
    // ...and `pinned` is reported blocked, with the call named as the
    // culprit.
    assert!(
        c.trace.remarks().any(|(func, _, r)| {
            func == "main"
                && matches!(r, Remark::Blocked { tag, reason, .. }
                    if tag == "g:pinned" && *reason == BlockReason::CallModRef)
        }),
        "no CallModRef Blocked remark for `pinned`:\n{}",
        c.remarks_text()
    );
}

#[test]
fn figure2_remarks_match_the_papers_table() {
    let mut m = ir::parse_module(FIGURE2).expect("parse");
    let session = Session::builder().trace(true).build();
    let (_, log) = session.optimize(&mut m).expect("optimize");

    // PROMOTABLE(B1) = {C}: C is promoted across the whole outer loop.
    assert!(
        log.remarks().any(|(func, pass, r)| {
            func == "main"
                && pass == "promote"
                && matches!(r, Remark::Promoted { tag, in_loop, .. }
                    if tag == "C" && in_loop.depth == 1)
        }),
        "no Promoted remark for C at depth 1:\n{}",
        log.render_remarks()
    );
    // A is kept out of the outer loop's PROMOTABLE set by the call that
    // mods it — and the remark says exactly that.
    assert!(
        log.remarks().any(|(func, _, r)| {
            func == "main"
                && matches!(r, Remark::Blocked { tag, in_loop, reason }
                    if tag == "A" && in_loop.depth == 1
                        && *reason == BlockReason::CallModRef)
        }),
        "no CallModRef Blocked remark for A in the outer loop:\n{}",
        log.render_remarks()
    );
    // PROMOTABLE(B3) = {A}: inside the call-free middle loop A does get
    // promoted.
    assert!(
        log.remarks().any(|(func, _, r)| {
            func == "main"
                && matches!(r, Remark::Promoted { tag, in_loop, .. }
                    if tag == "A" && in_loop.depth >= 2)
        }),
        "no Promoted remark for A in an inner loop:\n{}",
        log.render_remarks()
    );
}

#[test]
fn trace_round_trips_through_jsonl() {
    let mut m = ir::parse_module(FIGURE2).expect("parse");
    let session = Session::builder().trace(true).build();
    let (_, log) = session.optimize(&mut m).expect("optimize");
    assert!(!log.is_empty(), "figure 2 must produce remarks");
    let jsonl = log.to_jsonl();
    let parsed = TraceLog::from_jsonl(&jsonl).expect("parse our own JSONL");
    assert_eq!(parsed, log, "JSONL round-trip must be exact");
}

#[test]
fn disabled_tracing_is_silent_and_changes_nothing() {
    let traced = Session::builder()
        .trace(true)
        .build()
        .compile(COUNTER)
        .expect("traced compile");
    let untraced = Session::builder()
        .build()
        .compile(COUNTER)
        .expect("untraced compile");
    assert!(!traced.trace.is_empty());
    assert!(untraced.trace.is_empty(), "tracing off must record nothing");
    assert_eq!(
        traced.module.to_string(),
        untraced.module.to_string(),
        "tracing must be observation-only"
    );
}
