//! The basic-block cleaning pass.
//!
//! The paper's pipeline ends with "a basic block cleaning pass", and its
//! CFG construction notes that "empty blocks are automatically removed
//! after optimization". This pass removes `nop`s, threads jumps through
//! empty forwarding blocks, folds constant branches left by constant
//! propagation, and deletes unreachable blocks.

use cfg::{remove_unreachable_blocks_in, FunctionAnalyses};
use ir::{BlockId, Function, Instr, Module};

/// Reusable buffers for [`clean_function_in`]: the jump-forwarding table,
/// length-reset per round so its capacity survives across functions.
#[derive(Default)]
pub struct CleanScratch {
    forward: Vec<Option<BlockId>>,
}

/// Runs the cleaner on one function against caller-owned scratch
/// buffers. Returns the number of changes.
pub fn clean_function_in(
    func: &mut Function,
    analyses: &mut FunctionAnalyses,
    scratch: &mut CleanScratch,
) -> usize {
    let mut changes = 0;
    // 1. Drop nops. Removing a nop changes no live range and no edge, so
    //    it does not dirty the cache at all.
    for block in &mut func.blocks {
        let before = block.instrs.len();
        block.instrs.retain(|i| !matches!(i, Instr::Nop));
        changes += before - block.instrs.len();
    }
    // 2. Fold branches with equal targets, then 3. thread jumps through
    //    empty forwarders. The two feed each other: threading can leave a
    //    branch whose arms now agree, and folding it can leave its block a
    //    forwarder. So they repeat until a round changes nothing. Without
    //    a forwarder cycle, a round after the first changes something
    //    only if the one before it folded a branch, so the block count
    //    bounds the rounds. The loop stops there in any case, so a cycle
    //    of empty forwarders, which the hop guard cuts off at an
    //    arbitrary block, cannot make it spin.
    //    Threading would have to change the predecessor labels of
    //    φ-nodes, so a function with any is not threaded (the pipeline is
    //    φ-free, but stay safe).
    let has_phis = func
        .blocks
        .iter()
        .any(|b| b.instrs.iter().any(|i| matches!(i, Instr::Phi { .. })));
    let mut shape_changes = 0;
    for _ in 0..=func.blocks.len() {
        let mut round = fold_equal_branches(func);
        if !has_phis {
            round += thread_jumps(func, &mut scratch.forward);
        }
        if round == 0 {
            break;
        }
        shape_changes += round;
    }
    changes += shape_changes;
    if shape_changes > 0 {
        analyses.note_shape_changed();
    }
    // 4. Delete newly unreachable blocks (reports its own invalidation).
    changes += remove_unreachable_blocks_in(func, analyses);
    changes
}

/// Folds branches with equal targets into jumps (shape tier: the
/// duplicate edge collapses). Returns the number folded.
fn fold_equal_branches(func: &mut Function) -> usize {
    let mut folded = 0;
    for block in &mut func.blocks {
        if let Some(Instr::Branch {
            then_bb, else_bb, ..
        }) = block.instrs.last()
        {
            if then_bb == else_bb {
                let t = *then_bb;
                *block.instrs.last_mut().expect("terminator") = Instr::Jump { target: t };
                folded += 1;
            }
        }
    }
    folded
}

/// Threads jumps through empty forwarding blocks (a block whose only
/// instruction is `jump`), moving the entry past a forwarder too. Returns
/// the number of edges retargeted, plus one if the entry moved.
fn thread_jumps(func: &mut Function, forward: &mut Vec<Option<BlockId>>) -> usize {
    let n = func.blocks.len();
    forward.clear();
    forward.resize(n, None);
    for id in func.block_ids() {
        let block = func.block(id);
        if block.instrs.len() == 1 {
            if let Some(Instr::Jump { target }) = block.instrs.first() {
                if *target != id {
                    forward[id.index()] = Some(*target);
                }
            }
        }
    }
    // Resolve forwarding chains (with cycle guard).
    let resolve = |mut b: BlockId| {
        let mut hops = 0;
        while let Some(next) = forward[b.index()] {
            b = next;
            hops += 1;
            if hops > n {
                break;
            }
        }
        b
    };
    let mut threaded = 0;
    for id in func.block_ids() {
        if let Some(t) = func.block_mut(id).terminator_mut() {
            t.retarget_blocks(|b| {
                let r = resolve(b);
                if r != b {
                    threaded += 1;
                }
                r
            });
        }
    }
    let new_entry = resolve(func.entry);
    if new_entry != func.entry {
        func.entry = new_entry;
        threaded += 1;
    }
    threaded
}

/// Runs the cleaner over every function, sharing one scratch.
pub fn clean(module: &mut Module) -> usize {
    let mut changes = 0;
    let mut scratch = CleanScratch::default();
    for func in &mut module.funcs {
        changes += clean_function_in(func, &mut FunctionAnalyses::new(), &mut scratch);
    }
    changes
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir::FunctionBuilder;

    /// `clean_function_in` on `f` with a fresh cache and scratch.
    fn clean_alone(f: &mut Function) -> usize {
        clean_function_in(
            f,
            &mut FunctionAnalyses::new(),
            &mut CleanScratch::default(),
        )
    }

    #[test]
    fn removes_nops_and_threads_jumps() {
        let mut b = FunctionBuilder::new("f", 0);
        let fwd = b.new_block();
        let end = b.new_block();
        b.emit(Instr::Nop);
        b.jump(fwd);
        b.switch_to(fwd);
        b.jump(end);
        b.switch_to(end);
        b.ret(None);
        let mut f = b.finish();
        let changes = clean_alone(&mut f);
        assert!(changes >= 2);
        // After nop removal B0 itself becomes a forwarder, so everything
        // collapses to the single return block.
        assert_eq!(f.blocks.len(), 1);
        assert!(matches!(
            f.block(f.entry).terminator(),
            Some(Instr::Ret { .. })
        ));
    }

    #[test]
    fn folds_same_target_branches() {
        let mut b = FunctionBuilder::new("f", 0);
        let c = b.iconst(1);
        let t = b.new_block();
        b.branch(c, t, t);
        b.switch_to(t);
        b.ret(None);
        let mut f = b.finish();
        clean_alone(&mut f);
        assert!(matches!(
            f.block(f.entry).terminator(),
            Some(Instr::Jump { .. })
        ));
    }

    #[test]
    fn entry_forwarder_is_resolved() {
        let mut b = FunctionBuilder::new("f", 0);
        let real = b.new_block();
        b.jump(real);
        b.switch_to(real);
        b.ret(None);
        let mut f = b.finish();
        clean_alone(&mut f);
        assert_eq!(f.blocks.len(), 1);
        assert!(matches!(
            f.block(f.entry).terminator(),
            Some(Instr::Ret { .. })
        ));
    }

    #[test]
    fn branch_to_forwarders_of_one_block_becomes_a_jump() {
        // Threading both arms leaves `branch c, end, end`, which the same
        // call must fold.
        let mut b = FunctionBuilder::new("f", 0);
        let c = b.iconst(1);
        let left = b.new_block();
        let right = b.new_block();
        let end = b.new_block();
        b.branch(c, left, right);
        b.switch_to(left);
        b.jump(end);
        b.switch_to(right);
        b.jump(end);
        b.switch_to(end);
        b.ret(None);
        let mut f = b.finish();
        clean_alone(&mut f);
        assert_eq!(f.blocks.len(), 2);
        let Some(&Instr::Jump { target }) = f.block(f.entry).terminator() else {
            panic!("entry should end in a jump: {f:?}");
        };
        assert!(matches!(
            f.block(target).terminator(),
            Some(Instr::Ret { .. })
        ));
        assert_eq!(clean_alone(&mut f), 0, "one call reaches the fixpoint");
    }

    #[test]
    fn forwarder_cycles_terminate_and_validate() {
        // The entry forwards into a cycle of `len` empty forwarders.
        for len in [2, 3] {
            let mut b = FunctionBuilder::new("f", 0);
            let cycle: Vec<_> = (0..len).map(|_| b.new_block()).collect();
            b.jump(cycle[0]);
            for (i, &blk) in cycle.iter().enumerate() {
                b.switch_to(blk);
                b.jump(cycle[(i + 1) % len]);
            }
            let mut f = b.finish();
            clean_alone(&mut f);
            let mut m = Module::new();
            m.add_func(f);
            ir::validate(&m).unwrap_or_else(|e| panic!("{len}-cycle: {e}"));
        }
    }

    #[test]
    fn self_loop_jump_is_kept() {
        // A single-block infinite loop must not be threaded into nothing.
        let mut b = FunctionBuilder::new("f", 0);
        let l = b.new_block();
        b.jump(l);
        b.switch_to(l);
        b.jump(l);
        let mut f = b.finish();
        clean_alone(&mut f);
        let m = {
            let mut m = Module::new();
            m.add_func(f);
            m
        };
        ir::validate(&m).expect("still valid");
    }
}
