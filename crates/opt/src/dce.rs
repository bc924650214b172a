//! Dead-code elimination.
//!
//! Classic mark-and-sweep over virtual registers: roots are the operands
//! of side-effecting instructions (stores, calls, terminators); any pure
//! instruction whose result is transitively unused is deleted. Loads count
//! as pure — deleting a dead load is precisely the payoff of register
//! promotion's rewrites.
//!
//! Liveness propagates sparsely along a def→uses map: when a register
//! first becomes live, the operands of its pure definitions are marked and
//! queued, so each definition's use list is walked once instead of once
//! per dense fixpoint sweep.

use cfg::{DataflowStats, FunctionAnalyses};
use ir::{Function, Module, Reg};

/// Reusable mark-and-sweep buffers for [`dce_function_in`]: the live
/// bitmap plus the CSR def→uses map of the sparse marker. All vectors are
/// length-reset (`clear` + `resize`) per call, so their capacity survives
/// across functions and the steady state allocates nothing.
#[derive(Default)]
pub struct DceScratch {
    live: Vec<bool>,
    counts: Vec<usize>,
    offsets: Vec<usize>,
    fill: Vec<usize>,
    operands: Vec<Reg>,
    wl: Vec<Reg>,
}

/// Marks live registers sparsely: a CSR def→uses map (for each register,
/// the operands of all its pure definitions) plus a stack of registers
/// whose liveness is new.
fn mark_sparse(func: &Function, scratch: &mut DceScratch, stats: &mut DataflowStats) {
    let nregs = func.next_reg as usize;
    // Count each pure definition's operands against its destination.
    let counts = &mut scratch.counts;
    counts.clear();
    counts.resize(nregs + 1, 0);
    for block in &func.blocks {
        for instr in &block.instrs {
            if let Some(d) = instr.def() {
                if !instr.has_side_effects() {
                    instr.visit_uses(|_| counts[d.index()] += 1);
                }
            }
        }
    }
    // Prefix-sum into CSR offsets.
    let offsets = &mut scratch.offsets;
    offsets.clear();
    offsets.resize(nregs + 1, 0);
    let mut total = 0;
    for r in 0..nregs {
        offsets[r] = total;
        total += counts[r];
    }
    offsets[nregs] = total;
    let fill = &mut scratch.fill;
    fill.clear();
    fill.extend_from_slice(offsets);
    let operands = &mut scratch.operands;
    operands.clear();
    operands.resize(total, Reg(0));
    for block in &func.blocks {
        for instr in &block.instrs {
            if let Some(d) = instr.def() {
                if !instr.has_side_effects() {
                    instr.visit_uses(|r| {
                        operands[fill[d.index()]] = r;
                        fill[d.index()] += 1;
                    });
                }
            }
        }
    }
    // Worklist of registers that just became live.
    let live = &mut scratch.live;
    let wl = &mut scratch.wl;
    wl.clear();
    wl.extend(
        live.iter()
            .enumerate()
            .filter(|(_, l)| **l)
            .map(|(r, _)| Reg(r as u32)),
    );
    stats.worklist_pushes += wl.len() as u64;
    while let Some(r) = wl.pop() {
        stats.transfer_evals += 1;
        for &u in &operands[offsets[r.index()]..offsets[r.index() + 1]] {
            if !live[u.index()] {
                live[u.index()] = true;
                stats.worklist_pushes += 1;
                wl.push(u);
            }
        }
    }
}

/// Runs DCE on one function against caller-owned scratch buffers.
/// Returns the number of instructions removed.
pub fn dce_function_in(
    func: &mut Function,
    analyses: &mut FunctionAnalyses,
    scratch: &mut DceScratch,
) -> usize {
    let nregs = func.next_reg as usize;
    scratch.live.clear();
    scratch.live.resize(nregs, false);
    // Seed with uses of side-effecting/control instructions.
    for block in &func.blocks {
        for instr in &block.instrs {
            if instr.has_side_effects() {
                instr.visit_uses(|r| scratch.live[r.index()] = true);
            }
        }
    }
    // Propagate: a live def makes its operands live.
    let mut stats = DataflowStats::default();
    mark_sparse(func, scratch, &mut stats);
    analyses.dataflow.add(&stats);
    // Sweep.
    let live = &scratch.live;
    let mut removed = 0;
    for block in &mut func.blocks {
        let before = block.instrs.len();
        block.instrs.retain(|instr| {
            if instr.has_side_effects() {
                return true;
            }
            match instr.def() {
                Some(d) => live[d.index()],
                // Pure instructions without a def cannot exist, but keep
                // anything unknown.
                None => true,
            }
        });
        removed += before - block.instrs.len();
    }
    // Deleting pure instructions never touches terminators: body tier.
    if removed > 0 {
        analyses.note_body_changed();
    }
    removed
}

/// Runs DCE over every function, sharing one scratch.
pub fn dce(module: &mut Module) -> usize {
    let mut removed = 0;
    let mut scratch = DceScratch::default();
    for func in &mut module.funcs {
        removed += dce_function_in(func, &mut FunctionAnalyses::new(), &mut scratch);
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir::{BinOp, FunctionBuilder, Intrinsic};

    /// `dce_function_in` on `f` with a fresh cache and scratch.
    fn dce_alone(f: &mut Function) -> usize {
        dce_function_in(f, &mut FunctionAnalyses::new(), &mut DceScratch::default())
    }

    #[test]
    fn removes_dead_chains() {
        let mut b = FunctionBuilder::new("f", 0);
        let a = b.iconst(1);
        let c = b.iconst(2);
        let _dead = b.binary(BinOp::Add, a, c); // unused
        let live = b.binary(BinOp::Mul, a, c);
        b.ret(Some(live));
        let mut f = b.finish();
        f.has_result = true;
        assert_eq!(dce_alone(&mut f), 1);
        assert_eq!(f.instr_count(), 4);
    }

    #[test]
    fn keeps_side_effects() {
        let mut b = FunctionBuilder::new("f", 0);
        let a = b.iconst(7);
        b.call_intrinsic(Intrinsic::PrintInt, vec![a]);
        b.ret(None);
        let mut f = b.finish();
        assert_eq!(dce_alone(&mut f), 0);
    }

    #[test]
    fn removes_dead_loads_and_their_addressing() {
        let src = r#"
tag "g:a" global size=8 addressed
global "g:a" zero
func @main(0) {
B0:
  r0 = lea "g:a"
  r1 = iconst 3
  r2 = ptradd r0, r1
  r3 = load [r2] {"g:a"}
  ret
}
"#;
        let mut m = ir::parse_module(src).unwrap();
        let removed = dce(&mut m);
        assert_eq!(removed, 4);
        assert_eq!(m.funcs[0].instr_count(), 1);
    }

    #[test]
    fn transitive_liveness_through_copies() {
        let mut b = FunctionBuilder::new("f", 0);
        let a = b.iconst(1);
        let c = b.copy(a);
        let d = b.copy(c);
        b.ret(Some(d));
        let mut f = b.finish();
        f.has_result = true;
        assert_eq!(dce_alone(&mut f), 0);
    }
}
