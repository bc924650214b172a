//! Scalar register promotion: the rewrite half of §3.1.
//!
//! For every tag in some `L_PROMOTABLE`, a virtual register is created;
//! references inside loops where the tag is promotable become register
//! copies, the tag is loaded in the landing pad of every loop in whose
//! `L_LIFT` it appears, and stored in each such loop's exit blocks.

use crate::equations::{block_sets, LoopSets};
use cfg::FunctionAnalyses;
use ir::{DenseTagSet, FuncId, Function, Instr, Reg, TagId, TagTable};
use std::collections::{BTreeMap, BTreeSet};
use trace::{BlockReason, FuncTrace, LoopRef, Remark};

/// What scalar promotion did to one function.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScalarReport {
    /// Number of loops examined.
    pub loops: usize,
    /// Distinct tags promoted somewhere in the function.
    pub promoted_tags: usize,
    /// Loads/stores inserted around loops (lift edges × tags).
    pub lifts: usize,
    /// Memory references rewritten to copies.
    pub rewritten_refs: usize,
}

/// Runs scalar promotion on one (already loop-normalized) function. It
/// needs only the read-only tag table and the function body, so
/// independent functions can be promoted concurrently.
///
/// The body must be analyzed and strengthened (`opt::strengthen`), as the
/// pipeline's fused chain leaves it: only `sload`/`sstore`/`cload` are
/// rewritten, so a unique-cell pointer operation that was not strengthened
/// blocks its tag instead of being promoted.
///
/// `func_is_recursive` must say whether the function lies on a call-graph
/// cycle; a [`Remark::Blocked`] reports it as the reason a singleton
/// pointer reference to one of the function's own locals blocked
/// promotion.
///
/// `max_per_loop` is the paper's §7 proposal made concrete: "we may need
/// to extend our promotion algorithm with an explicit decision-making
/// process that considers register pressure and frequency of use before
/// promoting a value" (Carr adopted "a bin-packing discipline to throttle
/// the promotion process"). When set, each loop keeps only its
/// `max_per_loop` most-referenced promotable tags; the rest stay in
/// memory rather than risk being spilled back by the allocator.
///
/// When `tr` is enabled, every loop's verdict is reported: a
/// [`Remark::Promoted`] per (tag, loop) that equation (3) admits (with
/// the lift placement from equation (4)), and a [`Remark::Blocked`] with
/// a concrete [`BlockReason`] per explicitly-referenced tag that
/// `L_AMBIGUOUS` claims.
#[allow(clippy::too_many_arguments)]
pub fn promote_scalars_in_func(
    tags: &TagTable,
    func: &mut Function,
    func_id: FuncId,
    func_is_recursive: bool,
    max_per_loop: Option<usize>,
    analyses: &mut FunctionAnalyses,
    tr: &mut FuncTrace,
) -> ScalarReport {
    let (_, forest, geom) = analyses.loop_view(func);
    let mut report = ScalarReport {
        loops: forest.len(),
        ..Default::default()
    };
    if forest.is_empty() {
        return report;
    }
    let blocks = block_sets(func);
    let mut sets = LoopSets::solve(&blocks, forest);
    if let Some(cap) = max_per_loop {
        throttle(func, forest, &mut sets, cap);
    }
    if tr.enabled() {
        // Emitted before the rewrite below, while the loop bodies still
        // hold the memory operations the verdicts are about.
        emit_promotion_remarks(tags, func, func_id, func_is_recursive, forest, &sets, tr);
    }
    let promotable = sets.all_promotable();
    if promotable.is_empty() {
        return report;
    }
    report.promoted_tags = promotable.len();
    // One virtual register per promoted tag.
    let mut tag_reg: BTreeMap<TagId, Reg> = BTreeMap::new();
    for t in promotable.iter() {
        let r = func.new_reg();
        tag_reg.insert(t, r);
    }
    // Step 5: rewrite references inside loops where the tag is promotable.
    let nblocks = func.blocks.len();
    for bi in 0..nblocks {
        let here = sets.promotable_in_block(forest, ir::BlockId(bi as u32));
        if here.is_empty() {
            continue;
        }
        let mut rewritten: Vec<(usize, Instr)> = Vec::new();
        for (ii, instr) in func.blocks[bi].instrs.iter().enumerate() {
            let new = match instr {
                Instr::SLoad { dst, tag } | Instr::CLoad { dst, tag } if here.contains(*tag) => {
                    Some(Instr::Copy {
                        dst: *dst,
                        src: tag_reg[tag],
                    })
                }
                Instr::SStore { src, tag } if here.contains(*tag) => Some(Instr::Copy {
                    dst: tag_reg[tag],
                    src: *src,
                }),
                _ => None,
            };
            if let Some(n) = new {
                rewritten.push((ii, n));
            }
        }
        report.rewritten_refs += rewritten.len();
        for (ii, n) in rewritten {
            func.blocks[bi].instrs[ii] = n;
        }
    }
    // Step 6: lift — load in the landing pad of, and store at the exits
    // of, every loop where the tag appears in L_LIFT.
    //
    // Refinement over the paper's presentation: a tag that is never
    // *stored* anywhere in the loop cannot have changed, so the demotion
    // stores are skipped (otherwise promotion would manufacture store
    // traffic for read-only values, which the paper's flat rows — tsp,
    // allroots — show its implementation did not do).
    //
    // Demotion stores are inserted at the *front* of exit blocks and
    // promotion loads just before the landing pad's terminator, so a block
    // serving as both (exit of one loop, pad of the next) stays correct.
    let stored_in_loop: Vec<BTreeSet<TagId>> = {
        forest
            .loops
            .iter()
            .map(|l| {
                let mut stored = BTreeSet::new();
                for &b in &l.blocks {
                    for instr in &func.blocks[b.index()].instrs {
                        match instr {
                            Instr::SStore { tag, .. } => {
                                stored.insert(*tag);
                            }
                            // Rewritten stores are already copies into the
                            // promotion register; track them through it.
                            Instr::Copy { dst, .. } => {
                                if let Some((&t, _)) = tag_reg.iter().find(|(_, v)| **v == *dst) {
                                    stored.insert(t);
                                }
                            }
                            _ => {}
                        }
                    }
                }
                stored
            })
            .collect()
    };
    let mut exit_inserts: BTreeMap<usize, Vec<Instr>> = BTreeMap::new();
    let mut pad_inserts: BTreeMap<usize, Vec<Instr>> = BTreeMap::new();
    for li in 0..forest.len() {
        let l = cfg::LoopId(li as u32);
        for t in sets.lift[li].iter() {
            let v = tag_reg[&t];
            pad_inserts
                .entry(geom.landing_pad(l).index())
                .or_default()
                .push(Instr::SLoad { dst: v, tag: t });
            report.lifts += 1;
            if stored_in_loop[li].contains(&t) {
                for &e in geom.exits(l) {
                    exit_inserts
                        .entry(e.index())
                        .or_default()
                        .push(Instr::SStore { src: v, tag: t });
                }
                report.lifts += geom.exits(l).len();
            }
        }
    }
    for (bi, instrs) in exit_inserts {
        for (k, instr) in instrs.into_iter().enumerate() {
            func.blocks[bi].instrs.insert(k, instr);
        }
    }
    for (bi, instrs) in pad_inserts {
        for instr in instrs {
            func.blocks[bi].insert_before_terminator(instr);
        }
    }
    // Promotion rewrites references and inserts lift code into existing
    // blocks; the CFG shape is untouched.
    if report.rewritten_refs > 0 || report.lifts > 0 {
        analyses.note_body_changed();
    }
    report
}

/// Reports, per loop in index order, every promoted tag (with its lift
/// placement) and every blocked explicit candidate (with why).
fn emit_promotion_remarks(
    tags: &TagTable,
    func: &Function,
    func_id: FuncId,
    func_is_recursive: bool,
    forest: &cfg::LoopForest,
    sets: &LoopSets,
    tr: &mut FuncTrace,
) {
    for li in 0..forest.len() {
        let l = &forest.loops[li];
        let in_loop = LoopRef {
            header: l.header.0,
            depth: l.depth as u32,
        };
        for t in sets.promotable[li].iter() {
            // The lift lands at the outermost enclosing loop where the tag
            // is still promotable — equation (4) unrolled.
            let mut at = li;
            while let Some(p) = forest.loops[at].parent {
                if !sets.promotable[p.index()].contains(t) {
                    break;
                }
                at = p.index();
            }
            tr.remark(
                "promote",
                Remark::Promoted {
                    tag: tags.info(t).name.clone(),
                    in_loop,
                    lifted_from: forest.loops[at].header.0,
                },
            );
        }
        // Blocked = L_EXPLICIT ∩ L_AMBIGUOUS: referenced by rewritable
        // operations, but claimed by equation (2). (Throttled-out tags are
        // not "blocked" — they were promotable and deliberately skipped.)
        for t in sets.explicit[li].iter() {
            if !sets.ambiguous[li].contains(t) {
                continue;
            }
            tr.remark(
                "promote",
                Remark::Blocked {
                    tag: tags.info(t).name.clone(),
                    in_loop,
                    reason: blocked_reason(tags, func, func_id, func_is_recursive, l, t),
                },
            );
        }
    }
}

/// Pins down which clause of the ambiguity definition claimed `t` in loop
/// `l`, by rescanning the loop body the way [`block_sets`] did.
fn blocked_reason(
    tags: &TagTable,
    func: &Function,
    func_id: FuncId,
    func_is_recursive: bool,
    l: &cfg::Loop,
    t: TagId,
) -> BlockReason {
    let mut multi_ref = false;
    for &b in &l.blocks {
        for instr in &func.blocks[b.index()].instrs {
            match instr {
                Instr::Call { effects, .. }
                    if effects.mods.contains(t) || effects.refs.contains(t) =>
                {
                    return BlockReason::CallModRef;
                }
                Instr::Load { tags: ts, .. } | Instr::Store { tags: ts, .. } => {
                    multi_ref |= ts.contains(t) && ts.as_singleton() != Some(t);
                }
                _ => {}
            }
        }
    }
    if multi_ref {
        BlockReason::AmbiguousRef
    } else if func_is_recursive && tags.info(t).kind.owner() == Some(func_id.0) {
        // The only ambiguity is a singleton pointer access, which
        // strengthening left alone because it fails the unique-cell test;
        // say whether recursion or storage shape is the culprit.
        BlockReason::RecursionFlag
    } else {
        BlockReason::AddressTaken
    }
}

/// Applies the pressure throttle: each loop keeps only its `cap`
/// most-frequently-referenced promotable tags, and `L_LIFT` is re-derived
/// from the trimmed sets (equation (4) of the paper).
fn throttle(func: &Function, forest: &cfg::LoopForest, sets: &mut LoopSets, cap: usize) {
    for li in 0..forest.len() {
        if sets.promotable[li].len() <= cap {
            continue;
        }
        // Frequency of use: explicit references within the loop.
        let mut freq: BTreeMap<TagId, usize> = BTreeMap::new();
        for &b in &forest.loops[li].blocks {
            for instr in &func.blocks[b.index()].instrs {
                if let Instr::SLoad { tag, .. }
                | Instr::SStore { tag, .. }
                | Instr::CLoad { tag, .. } = instr
                {
                    *freq.entry(*tag).or_default() += 1;
                }
            }
        }
        let mut ranked: Vec<TagId> = sets.promotable[li].iter().collect();
        ranked.sort_by_key(|t| std::cmp::Reverse(freq.get(t).copied().unwrap_or(0)));
        sets.promotable[li] = ranked.into_iter().take(cap).collect();
    }
    // Re-derive L_LIFT (equation 4) from the throttled promotable sets.
    for li in 0..forest.len() {
        sets.lift[li] = match forest.loops[li].parent {
            None => sets.promotable[li].clone(),
            Some(p) => sets.promotable[li].difference(&sets.promotable[p.index()]),
        };
    }
}

/// Set of tags promotable anywhere in `func` (analyzed and strengthened,
/// like [`promote_scalars_in_func`]'s input) — exposed for tests.
pub fn promotable_tags(func: &Function) -> DenseTagSet {
    let mut analyses = FunctionAnalyses::new();
    let (_, forest, _) = analyses.loop_view(func);
    if forest.is_empty() {
        return DenseTagSet::new();
    }
    LoopSets::solve(&block_sets(func), forest).all_promotable()
}

#[cfg(test)]
mod tests {
    use crate::promote_module;
    use ir::Module;
    use vm::{Vm, VmOptions};

    fn prepare(src: &str) -> Module {
        let mut m = minic::compile(src).expect("compile");
        for fi in 0..m.funcs.len() {
            cfg::normalize_loops(&mut m.funcs[fi]);
        }
        analysis::analyze(&mut m, analysis::AnalysisLevel::ModRef);
        m
    }

    #[test]
    fn promotes_global_in_hot_loop() {
        let src = r#"
int g;
int main() {
    int i;
    for (i = 0; i < 1000; i++) { g = g + 1; }
    print_int(g);
    return 0;
}
"#;
        let mut m = prepare(src);
        let before = Vm::run_main(&m, VmOptions::default()).unwrap();
        let report = promote_module(&mut m);
        ir::validate(&m).expect("valid after promotion");
        let after = Vm::run_main(&m, VmOptions::default()).unwrap();
        assert_eq!(after.output, before.output);
        assert!(report.promoted_tags >= 1);
        // 1000 loads + 1000 stores collapse to 1 load + 1 store.
        assert!(before.counts.loads >= 1000);
        assert!(after.counts.loads <= before.counts.loads - 999);
        assert!(after.counts.stores <= before.counts.stores - 999);
    }

    #[test]
    fn call_in_loop_blocks_promotion() {
        let src = r#"
int g;
void touch() { g = g + 1; }
int main() {
    int i;
    for (i = 0; i < 100; i++) { g = g + 1; touch(); }
    print_int(g);
    return 0;
}
"#;
        let mut m = prepare(src);
        let before = Vm::run_main(&m, VmOptions::default()).unwrap();
        promote_module(&mut m);
        ir::validate(&m).unwrap();
        let after = Vm::run_main(&m, VmOptions::default()).unwrap();
        assert_eq!(after.output, before.output);
        // g is ambiguous in the loop (the call mods it): no load removal.
        assert_eq!(after.counts.loads, before.counts.loads);
        assert_eq!(after.counts.stores, before.counts.stores);
    }

    #[test]
    fn unrelated_call_does_not_block_with_modref() {
        let src = r#"
int g;
int h;
void touch_h() { h = h + 1; }
int main() {
    int i;
    for (i = 0; i < 100; i++) { g = g + 1; touch_h(); }
    print_int(g);
    print_int(h);
    return 0;
}
"#;
        let mut m = prepare(src);
        let before = Vm::run_main(&m, VmOptions::default()).unwrap();
        promote_module(&mut m);
        ir::validate(&m).unwrap();
        let after = Vm::run_main(&m, VmOptions::default()).unwrap();
        assert_eq!(after.output, before.output);
        // g promoted even though the loop calls touch_h (MOD/REF shows the
        // call cannot touch g).
        assert!(after.counts.loads < before.counts.loads);
    }

    #[test]
    fn pointer_alias_blocks_promotion() {
        let src = r#"
int g;
int main() {
    int i;
    int *p = &g;
    for (i = 0; i < 50; i++) {
        g = g + 1;
        *p = *p + 1;
    }
    print_int(g);
    return 0;
}
"#;
        // With ModRef, *p carries the singleton {g}. Unstrengthened, that
        // load and store are ambiguous references to g, so g stays in
        // memory. (The pipeline strengthens them to `sload`/`sstore`
        // first, and then g is promoted.)
        let mut m = prepare(src);
        let before = Vm::run_main(&m, VmOptions::default()).unwrap();
        promote_module(&mut m);
        ir::validate(&m).unwrap();
        let after = Vm::run_main(&m, VmOptions::default()).unwrap();
        assert_eq!(after.output, before.output);
        assert_eq!(after.output, vec!["100"]);
        assert_eq!(after.counts.loads, before.counts.loads);
    }

    #[test]
    fn multi_target_pointer_blocks_promotion() {
        let src = r#"
int g;
int h;
int pick;
int main() {
    int i;
    int *p = &g;
    if (pick) { p = &h; }
    for (i = 0; i < 50; i++) {
        g = g + 1;
        *p = *p + 1;
    }
    print_int(g);
    print_int(h);
    return 0;
}
"#;
        let mut m = minic::compile(src).unwrap();
        for fi in 0..m.funcs.len() {
            cfg::normalize_loops(&mut m.funcs[fi]);
        }
        analysis::analyze(&mut m, analysis::AnalysisLevel::PointsTo);
        let before = Vm::run_main(&m, VmOptions::default()).unwrap();
        promote_module(&mut m);
        ir::validate(&m).unwrap();
        let after = Vm::run_main(&m, VmOptions::default()).unwrap();
        assert_eq!(after.output, before.output);
        assert_eq!(after.output, vec!["100", "0"]);
        // g must NOT have been promoted: *p = {g, h} is ambiguous.
        assert_eq!(after.counts.loads, before.counts.loads);
    }

    #[test]
    fn nested_loops_lift_to_outermost_safe_level() {
        // The Figure 2 situation, source-level: C is promotable across the
        // whole nest; A only in the middle loop.
        let src = r#"
int c;
int a;
void touch_a() { a = a + 1; }
int main() {
    int i; int j;
    for (i = 0; i < 10; i++) {
        c = c + 1;
        touch_a();
        for (j = 0; j < 10; j++) {
            c = c + a;
        }
    }
    print_int(c);
    print_int(a);
    return 0;
}
"#;
        let mut m = prepare(src);
        let before = Vm::run_main(&m, VmOptions::default()).unwrap();
        promote_module(&mut m);
        ir::validate(&m).unwrap();
        let after = Vm::run_main(&m, VmOptions::default()).unwrap();
        assert_eq!(after.output, before.output);
        // c: ~220 memory refs before, 2 after. a: unpromotable in the
        // outer loop (call), promotable in the inner (load only).
        assert!(before.counts.loads > 200);
        assert!(after.counts.loads < 60, "loads = {}", after.counts.loads);
    }

    #[test]
    fn zero_trip_loop_is_still_correct() {
        // The landing-pad load and exit store execute even when the loop
        // body never does; the paper's dhrystone anomaly in miniature.
        let src = r#"
int g = 7;
int main() {
    int i;
    for (i = 0; i < 0; i++) { g = g + 1; }
    print_int(g);
    return 0;
}
"#;
        let mut m = prepare(src);
        promote_module(&mut m);
        ir::validate(&m).unwrap();
        let after = Vm::run_main(&m, VmOptions::default()).unwrap();
        assert_eq!(after.output, vec!["7"]);
        // The lift itself costs one load and one store.
        assert!(after.counts.loads >= 1);
        assert!(after.counts.stores >= 1);
    }

    #[test]
    fn break_paths_demote_correctly() {
        let src = r#"
int g;
int limit = 5;
int main() {
    int i;
    for (i = 0; i < 100; i++) {
        g = g + 1;
        if (g == limit) break;
    }
    print_int(g);
    return 0;
}
"#;
        let mut m = prepare(src);
        let before = Vm::run_main(&m, VmOptions::default()).unwrap();
        promote_module(&mut m);
        ir::validate(&m).unwrap();
        let after = Vm::run_main(&m, VmOptions::default()).unwrap();
        assert_eq!(after.output, before.output);
        assert_eq!(after.output, vec!["5"]);
        assert!(after.counts.loads < before.counts.loads);
    }

    #[test]
    fn addressed_local_promotes_when_unaliased_in_loop() {
        let src = r#"
int use_later(int *p) { return *p; }
int main() {
    int x = 0;
    int i;
    for (i = 0; i < 200; i++) { x = x + 2; }
    print_int(use_later(&x));
    return 0;
}
"#;
        let mut m = minic::compile(src).unwrap();
        for fi in 0..m.funcs.len() {
            cfg::normalize_loops(&mut m.funcs[fi]);
        }
        analysis::analyze(&mut m, analysis::AnalysisLevel::PointsTo);
        let before = Vm::run_main(&m, VmOptions::default()).unwrap();
        promote_module(&mut m);
        ir::validate(&m).unwrap();
        let after = Vm::run_main(&m, VmOptions::default()).unwrap();
        assert_eq!(after.output, before.output);
        assert_eq!(after.output, vec!["400"]);
        assert!(after.counts.loads < before.counts.loads);
    }
}
