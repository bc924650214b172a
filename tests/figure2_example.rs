//! The paper's Figure 2 worked example, end to end.
//!
//! Figure 2 shows a triply nested loop (headers B1 ⊃ B3 ⊃ B5) over three
//! tags A, B, C with a call referencing A ambiguously in the outer loop
//! and one referencing B in the middle loop. The paper's table gives:
//!
//! ```text
//! L_PROMOTABLE(B1) = {C}   L_LIFT(B1) = {C}
//! L_PROMOTABLE(B3) = {A}   L_LIFT(B3) = {A}
//! L_PROMOTABLE(B5) = {A}   L_LIFT(B5) = {}
//! ```
//!
//! and describes the rewrite: C loaded in B1's landing pad and stored in
//! its exit; A loaded in B3's landing pad and stored in B3's exit; the
//! inner references become copies.

use ir::DenseTagSet;
use promote::{block_sets, LoopSets};

/// Figure 2 as a runnable program: the "remaining code" the paper leaves
/// implicit is filled in with counted loops so the example executes.
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

fn tag(m: &ir::Module, name: &str) -> ir::TagId {
    m.tags.lookup(name).unwrap()
}

#[test]
fn equation_sets_match_the_papers_table() {
    let mut m = ir::parse_module(FIGURE2).expect("parse");
    let main = m.lookup_func("main").unwrap();
    cfg::normalize_loops(&mut m.funcs[main.index()]);
    let mut analyses = cfg::FunctionAnalyses::new();
    let (_, forest, _) = analyses.loop_view(m.func(main));
    assert_eq!(forest.len(), 3, "three nested loops");
    let blocks = block_sets(m.func(main));
    let sets = LoopSets::solve(&blocks, forest);
    let order = forest.outer_to_inner();
    let (outer, middle, inner) = (order[0], order[1], order[2]);
    let (a, b, c) = (tag(&m, "A"), tag(&m, "B"), tag(&m, "C"));
    // The paper's PROMOTABLE column.
    assert_eq!(sets.promotable[outer.index()], DenseTagSet::singleton(c));
    assert_eq!(sets.promotable[middle.index()], DenseTagSet::singleton(a));
    assert_eq!(sets.promotable[inner.index()], DenseTagSet::singleton(a));
    // The paper's LIFT column.
    assert_eq!(sets.lift[outer.index()], DenseTagSet::singleton(c));
    assert_eq!(sets.lift[middle.index()], DenseTagSet::singleton(a));
    assert!(sets.lift[inner.index()].is_empty());
    // B is explicit but ambiguous in the middle loop.
    assert!(sets.explicit[middle.index()].contains(b));
    assert!(sets.ambiguous[middle.index()].contains(b));
    assert!(!sets.promotable[middle.index()].contains(b));
}

#[test]
fn rewrite_places_lifts_exactly_as_described() {
    let mut m = ir::parse_module(FIGURE2).expect("parse");
    let report = promote::promote_module(&mut m);
    ir::validate(&m).expect("valid");
    assert_eq!(report.promoted_tags, 2, "A and C");
    let func = m.func(m.lookup_func("main").unwrap());
    let mut analyses = cfg::FunctionAnalyses::new();
    let (_, forest, geom) = analyses.loop_view(func);
    let (a, c) = (tag(&m, "A"), tag(&m, "C"));
    let order = forest.outer_to_inner();
    let (outer, middle) = (order[0], order[1]);
    // C's load sits in the outer landing pad; its store in the outer exit.
    let outer_pad = geom.landing_pad(outer);
    assert!(
        func.block(outer_pad)
            .instrs
            .iter()
            .any(|i| matches!(i, ir::Instr::SLoad { tag, .. } if *tag == c)),
        "sload C in the outer landing pad"
    );
    for &e in geom.exits(outer) {
        assert!(
            func.block(e)
                .instrs
                .iter()
                .any(|i| matches!(i, ir::Instr::SStore { tag, .. } if *tag == c)),
            "sstore C in the outer exit"
        );
    }
    // A's load sits in the middle loop's landing pad (not the inner one).
    let middle_pad = geom.landing_pad(middle);
    assert!(
        func.block(middle_pad)
            .instrs
            .iter()
            .any(|i| matches!(i, ir::Instr::SLoad { tag, .. } if *tag == a)),
        "sload A in the middle landing pad"
    );
    // No memory reference to A remains inside the inner loop.
    let inner = order[2];
    for &bid in &forest.get(inner).blocks {
        for instr in &func.block(bid).instrs {
            if let ir::Instr::SLoad { tag, .. } | ir::Instr::SStore { tag, .. } = instr {
                assert_ne!(*tag, a, "A is register-resident in the inner loop");
            }
        }
    }
}

#[test]
fn behaviour_is_preserved_and_traffic_drops() {
    let m0 = ir::parse_module(FIGURE2).expect("parse");
    let before = vm::Vm::run_main(&m0, vm::VmOptions::default()).expect("run");
    let mut m = m0.clone();
    promote::promote_module(&mut m);
    let after = vm::Vm::run_main(&m, vm::VmOptions::default()).expect("run promoted");
    assert_eq!(before.result, after.result);
    assert!(after.counts.loads < before.counts.loads);
    assert!(after.counts.stores < before.counts.stores);
}
