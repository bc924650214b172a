//! Loop-invariant code motion.
//!
//! Hoists pure computations — and scalar loads of tags that nothing in the
//! loop can modify — into the loop's landing pad. On the non-SSA IL a
//! hoist is legal when the destination register has exactly one definition
//! in the whole function and every operand is defined outside the loop (or
//! by something already hoisted); faulting operations (`div`/`rem` by a
//! non-constant) are never speculated.

use cfg::{FunctionAnalyses, LoopForest};
use ir::{BinOp, DenseMap, Function, Instr, Module, Reg, TagSet};

/// The payload of a cloneable constant definition — enough to mint a fresh
/// copy in the landing pad without keeping a cloned [`Instr`] around.
#[derive(Clone, Copy)]
enum ConstVal {
    Int(i64),
    Float(f64),
}

impl Default for ConstVal {
    fn default() -> Self {
        ConstVal::Int(0)
    }
}

impl ConstVal {
    fn mint(self, dst: Reg) -> Instr {
        match self {
            ConstVal::Int(value) => Instr::IConst { dst, value },
            ConstVal::Float(value) => Instr::FConst { dst, value },
        }
    }
}

/// Reusable hoisting state for [`licm_function_in`]: dense per-register
/// side tables (definition counts, per-loop in-loop counts, cloneable
/// constants, per-loop pad clones) plus the block list, hoist mask, and
/// pending-hoist buffer that let each block be rebuilt in one compaction
/// sweep instead of one `Vec::remove`/`insert` shift per hoist.
#[derive(Default)]
pub struct LicmScratch {
    def_count: DenseMap<u32>,
    defs_in_loop: Vec<DenseMap<u32>>,
    const_of: DenseMap<ConstVal>,
    pad_clones: DenseMap<u32>,
    blocks: Vec<ir::BlockId>,
    to_pad: Vec<Instr>,
    hoist_mask: Vec<bool>,
    const_operands: Vec<Reg>,
}

/// Constants are never *moved* out of loops — on the paper's ILOC they
/// would be immediate operands with no live range at all, so stretching
/// them across a loop only manufactures register pressure. Instead, when a
/// hoisted consumer needs one, the constant is *cloned* into the landing
/// pad.
fn constant_def(instr: &Instr) -> bool {
    matches!(instr, Instr::IConst { .. } | Instr::FConst { .. })
}

/// True for instructions that may be executed speculatively. `const_of`
/// holds the function's single-definition constants.
fn is_speculable(instr: &Instr, const_of: &DenseMap<ConstVal>) -> bool {
    match instr {
        Instr::FuncAddr { .. }
        | Instr::Copy { .. }
        | Instr::Unary { .. }
        | Instr::Cmp { .. }
        | Instr::Lea { .. }
        | Instr::PtrAdd { .. } => true,
        Instr::Binary {
            op: BinOp::Div | BinOp::Rem,
            rhs,
            ..
        } => {
            // Only speculate division by a nonzero constant.
            matches!(const_of.get(rhs.0), Some(ConstVal::Int(v)) if v != 0)
        }
        Instr::Binary { .. } => true,
        _ => false,
    }
}

/// Tags possibly modified anywhere in the loop `li` of `func`.
fn loop_mods(func: &Function, forest: &LoopForest, li: usize) -> TagSet {
    let mut mods = TagSet::empty();
    for &b in &forest.loops[li].blocks {
        for instr in &func.blocks[b.index()].instrs {
            match instr {
                Instr::SStore { tag, .. } => mods.insert(*tag),
                Instr::Store { tags, .. } => {
                    mods.union_with(tags);
                }
                Instr::Call { effects, .. } => {
                    mods.union_with(&effects.mods);
                }
                _ => {}
            }
        }
    }
    mods
}

/// Runs LICM over one (normalized) function against caller-owned
/// scratch tables. Returns instructions moved.
///
/// Semantics are identical to hoisting one instruction at a time; the
/// difference is mechanical. Hoist decisions mark instructions (the slot
/// is replaced by a nop and the instruction moves to a pending buffer, so
/// later decisions in the same sweep observe exactly the
/// already-hoisted state), and each swept block is then compacted once
/// and its pending hoists spliced into the landing pad in one shift —
/// instead of one `Vec::remove` plus one `insert_before_terminator` per
/// hoist.
pub fn licm_function_in(
    func: &mut Function,
    analyses: &mut FunctionAnalyses,
    scratch: &mut LicmScratch,
) -> usize {
    let (_, forest, geom) = analyses.loop_view(func);
    if forest.is_empty() {
        return 0;
    }
    let nregs = func.next_reg as usize;
    let LicmScratch {
        def_count,
        defs_in_loop,
        const_of,
        pad_clones,
        blocks,
        to_pad,
        hoist_mask,
        const_operands,
    } = scratch;
    // Whole-function definition counts (single-def requirement).
    def_count.reset(nregs);
    for block in &func.blocks {
        for instr in &block.instrs {
            if let Some(d) = instr.def() {
                let c = def_count.get(d.0).unwrap_or(0);
                def_count.insert(d.0, c + 1);
            }
        }
    }
    // Per-loop in-loop definition counts, updated as hoists happen.
    if defs_in_loop.len() < forest.len() {
        defs_in_loop.resize_with(forest.len(), DenseMap::default);
    }
    for (li, l) in forest.loops.iter().enumerate() {
        let dl = &mut defs_in_loop[li];
        dl.reset(nregs);
        for &b in &l.blocks {
            for instr in &func.blocks[b.index()].instrs {
                if let Some(d) = instr.def() {
                    let c = dl.get(d.0).unwrap_or(0);
                    dl.insert(d.0, c + 1);
                }
            }
        }
    }
    // Single-definition constants, for pad cloning (payload only — no
    // instruction clones).
    const_of.reset(nregs);
    for block in &func.blocks {
        for instr in &block.instrs {
            if let Some(d) = instr.def() {
                if constant_def(instr) && def_count.get(d.0) == Some(1) {
                    let val = match instr {
                        Instr::IConst { value, .. } => ConstVal::Int(*value),
                        Instr::FConst { value, .. } => ConstVal::Float(*value),
                        _ => unreachable!("constant_def"),
                    };
                    const_of.insert(d.0, val);
                }
            }
        }
    }
    let mut moved = 0;
    for li in forest.inner_to_outer() {
        let li = li.index();
        let pad = geom.landing_pads[li];
        let mods = loop_mods(func, forest, li);
        // Constants already cloned into this loop's pad: original -> clone.
        pad_clones.reset(0);
        blocks.clear();
        blocks.extend(
            forest.loops[li]
                .blocks
                .iter()
                .copied()
                .filter(|b| forest.block_loop[b.index()] == Some(cfg::LoopId(li as u32))),
        );
        // Iterate to fixpoint so chains of invariant ops cascade out.
        loop {
            let mut hoisted_any = false;
            for &b in blocks.iter() {
                let len = func.blocks[b.index()].instrs.len();
                hoist_mask.clear();
                hoist_mask.resize(len, false);
                debug_assert!(to_pad.is_empty());
                for i in 0..len {
                    let hoist = {
                        let instr = &func.blocks[b.index()].instrs[i];
                        let hoistable = match instr {
                            Instr::SLoad { tag, .. } | Instr::CLoad { tag, .. } => {
                                !mods.contains(*tag)
                            }
                            other => is_speculable(other, const_of),
                        };
                        let single_def = instr
                            .def()
                            .map(|d| def_count.get(d.0) == Some(1))
                            .unwrap_or(false);
                        // An operand is invariant if it is not defined in
                        // the loop, or is a single-def constant we can
                        // clone into the pad.
                        let mut operands_invariant = true;
                        const_operands.clear();
                        let dl = &defs_in_loop[li];
                        instr.visit_uses(|r| {
                            if dl.get(r.0).unwrap_or(0) > 0 {
                                if const_of.get(r.0).is_some() {
                                    const_operands.push(r);
                                } else {
                                    operands_invariant = false;
                                }
                            }
                        });
                        hoistable && single_def && operands_invariant && !instr.is_terminator()
                    };
                    if !hoist {
                        continue;
                    }
                    // Clone any in-loop constant operands into the pad and
                    // retarget the hoisted instruction to the clones. The
                    // clones enter the pending buffer *before* their
                    // consumer, preserving the one-at-a-time pad order.
                    for k in 0..const_operands.len() {
                        let r = const_operands[k];
                        let clone_reg = match pad_clones.get(r.0) {
                            Some(c) => Reg(c),
                            None => {
                                let nr = Reg(func.next_reg);
                                func.next_reg += 1;
                                to_pad.push(const_of.get(r.0).expect("const operand").mint(nr));
                                pad_clones.insert(r.0, nr.0);
                                // The clone lives in this loop's pad,
                                // which sits inside every enclosing
                                // loop: record the definition there so
                                // outer-loop hoisting cannot float a
                                // consumer above it.
                                let mut anc = forest.loops[li].parent;
                                while let Some(a) = anc {
                                    let dl = &mut defs_in_loop[a.index()];
                                    let c = dl.get(nr.0).unwrap_or(0);
                                    dl.insert(nr.0, c + 1);
                                    anc = forest.loops[a.index()].parent;
                                }
                                nr
                            }
                        };
                        func.blocks[b.index()].instrs[i].visit_uses_mut(|u| {
                            if *u == r {
                                *u = clone_reg;
                            }
                        });
                    }
                    // Mark: move the instruction to the pending buffer and
                    // leave a nop in its slot until the block compacts.
                    let instr =
                        std::mem::replace(&mut func.blocks[b.index()].instrs[i], Instr::Nop);
                    let d = instr.def().expect("hoistable instructions define");
                    // The register is no longer defined in this loop;
                    // enclosing loops still contain it (the pad is
                    // inside the parent loop), so only this level
                    // changes.
                    if let Some(c) = defs_in_loop[li].get(d.0) {
                        defs_in_loop[li].insert(d.0, c - 1);
                    }
                    to_pad.push(instr);
                    hoist_mask[i] = true;
                    moved += 1;
                    hoisted_any = true;
                }
                if !to_pad.is_empty() {
                    // Compact the swept block (drop the nop placeholders)
                    // and splice all pending hoists before the pad's
                    // terminator in one shift.
                    let instrs = &mut func.blocks[b.index()].instrs;
                    let mut w = 0;
                    for r in 0..len {
                        if !hoist_mask[r] {
                            instrs.swap(w, r);
                            w += 1;
                        }
                    }
                    instrs.truncate(w);
                    func.block_mut(pad)
                        .splice_before_terminator(to_pad.drain(..));
                }
            }
            if !hoisted_any {
                break;
            }
        }
    }
    // Hoisting moves instructions between existing blocks and mints pad
    // constants: live ranges change, edges do not.
    if moved > 0 {
        analyses.note_body_changed();
    }
    moved
}

/// Runs LICM over every function, sharing one scratch.
pub fn licm(module: &mut Module) -> usize {
    let mut moved = 0;
    let mut scratch = LicmScratch::default();
    for func in &mut module.funcs {
        let mut analyses = FunctionAnalyses::new();
        cfg::normalize_loops_in(func, &mut analyses);
        moved += licm_function_in(func, &mut analyses, &mut scratch);
    }
    moved
}

#[cfg(test)]
mod tests {
    use super::*;
    use vm::{Vm, VmOptions};

    fn check_behaviour(src: &str) -> (vm::Outcome, vm::Outcome, usize) {
        let mut m = minic::compile(src).unwrap();
        analysis::analyze(&mut m, analysis::AnalysisLevel::ModRef);
        let before = Vm::run_main(&m, VmOptions::default()).unwrap();
        let n = licm(&mut m);
        ir::validate(&m).expect("valid after licm");
        let after = Vm::run_main(&m, VmOptions::default()).unwrap();
        assert_eq!(before.output, after.output);
        (before, after, n)
    }

    #[test]
    fn hoists_invariant_arithmetic() {
        let (before, after, n) = check_behaviour(
            r#"
int main() {
    int i;
    int n = 40;
    int s = 0;
    for (i = 0; i < 1000; i++) {
        s = s + (n * n + 2);
    }
    print_int(s);
    return 0;
}
"#,
        );
        assert!(n >= 1, "hoisted something");
        // n*n and +2 leave the loop: at least ~2000 ops saved.
        assert!(after.counts.total + 1500 < before.counts.total);
    }

    #[test]
    fn hoists_loads_of_unmodified_tags() {
        let (before, after, n) = check_behaviour(
            r#"
int k = 17;
int main() {
    int i;
    int s = 0;
    for (i = 0; i < 500; i++) {
        s = s + k;
    }
    print_int(s);
    return 0;
}
"#,
        );
        assert!(n >= 1);
        // The 500 loads of k become 1.
        assert!(after.counts.loads <= before.counts.loads - 499);
    }

    #[test]
    fn does_not_hoist_loads_of_modified_tags() {
        let (before, after, _) = check_behaviour(
            r#"
int k = 0;
int main() {
    int i;
    for (i = 0; i < 100; i++) {
        k = k + i;
    }
    print_int(k);
    return 0;
}
"#,
        );
        // k is stored in the loop: its loads must stay put.
        assert_eq!(after.counts.loads, before.counts.loads);
    }

    #[test]
    fn does_not_speculate_division() {
        let (_, _, _) = check_behaviour(
            r#"
int main() {
    int i;
    int d = 0;
    int s = 0;
    for (i = 1; i < 10; i++) {
        if (i > 5) { d = i; }
        if (d != 0) { s = s + 100 / d; }
    }
    print_int(s);
    return 0;
}
"#,
        );
        // Reaching here means the guarded division was not hoisted into a
        // path where d == 0 (the VM would have trapped).
    }

    #[test]
    fn nested_loops_cascade_outward() {
        let (before, after, _) = check_behaviour(
            r#"
int main() {
    int i; int j;
    int a = 3;
    int s = 0;
    for (i = 0; i < 50; i++) {
        for (j = 0; j < 50; j++) {
            s = s + a * a * a;
        }
    }
    print_int(s);
    return 0;
}
"#,
        );
        // a*a*a leaves both loops: ~2 ops × 2500 iterations saved.
        assert!(after.counts.total + 4000 < before.counts.total);
    }
}
