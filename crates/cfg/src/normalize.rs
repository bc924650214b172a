//! Loop normalization: landing pads and dedicated exit blocks.
//!
//! The paper's compiler "automatically inserts landing pads and exits as
//! part of constructing the control-flow graph; empty blocks are
//! automatically removed after optimization". This module reproduces that:
//! after [`normalize_loops`] every natural loop has
//!
//! * a unique **landing pad** — a block outside the loop that is the only
//!   non-loop predecessor of the header and whose only successor is the
//!   header (promotion inserts the initial load there), and
//! * **dedicated exit blocks** — every exit edge leads to a block whose
//!   predecessors are all inside the loop (promotion inserts the final
//!   stores there).

use crate::analyses::FunctionAnalyses;
use ir::{BlockId, Function, Instr};

/// Removes blocks unreachable from the entry, compacting ids.
///
/// Returns the number of blocks removed.
pub fn remove_unreachable_blocks(func: &mut Function) -> usize {
    remove_unreachable_blocks_in(func, &mut FunctionAnalyses::new())
}

/// Cache-aware [`remove_unreachable_blocks`]: reads the CFG through
/// `analyses` (a no-op when it is warm) and reports the removal as a shape
/// change only when blocks were actually deleted.
pub fn remove_unreachable_blocks_in(func: &mut Function, analyses: &mut FunctionAnalyses) -> usize {
    let cfg = analyses.cfg(func);
    let n = func.blocks.len();
    let removed = n - cfg.rpo.len();
    if removed == 0 {
        return 0;
    }
    let mut remap: Vec<Option<BlockId>> = vec![None; n];
    let mut new_blocks = Vec::with_capacity(cfg.rpo.len());
    // Keep original relative order for stability.
    for id in func.block_ids() {
        if cfg.is_reachable(id) {
            remap[id.index()] = Some(BlockId(new_blocks.len() as u32));
            new_blocks.push(std::mem::take(&mut func.blocks[id.index()]));
        }
    }
    for block in &mut new_blocks {
        // Drop φ-entries for removed predecessors, then retarget.
        for instr in &mut block.instrs {
            if let Instr::Phi { args, .. } = instr {
                args.retain(|(b, _)| remap[b.index()].is_some());
            }
            instr.retarget_blocks(|b| remap[b.index()].expect("reachable target"));
        }
    }
    func.blocks = new_blocks;
    func.entry = remap[func.entry.index()].expect("entry reachable");
    analyses.note_shape_changed();
    removed
}

fn has_phis(func: &Function) -> bool {
    func.blocks
        .iter()
        .any(|b| b.instrs.iter().any(|i| matches!(i, Instr::Phi { .. })))
}

/// Retargets the `old -> ` edges of `from`'s terminator to `new`.
fn retarget_edge(func: &mut Function, from: BlockId, old: BlockId, new: BlockId) {
    if let Some(t) = func.block_mut(from).terminator_mut() {
        t.retarget_blocks(|b| if b == old { new } else { b });
    }
}

/// One round of landing-pad insertion. Returns true if anything changed;
/// the caller reports the shape change to `analyses`.
fn insert_landing_pads(func: &mut Function, analyses: &mut FunctionAnalyses) -> bool {
    let (cfg, forest) = analyses.cfg_forest(func);
    for l in &forest.loops {
        let header = l.header;
        // Scan the header's outside predecessors without collecting them:
        // on a converged function (every round after the first) this loop
        // body allocates nothing.
        let mut n_outside = 0usize;
        let mut first_outside = None;
        for &p in &cfg.preds[header.index()] {
            if cfg.is_reachable(p) && !l.contains(p) {
                n_outside += 1;
                first_outside.get_or_insert(p);
            }
        }
        // A loop headed by the entry block has an implicit entry edge that
        // cannot be retargeted; reroute the function entry through a fresh
        // pad instead.
        if header == func.entry {
            let pad = func.new_block();
            func.block_mut(pad)
                .instrs
                .push(Instr::Jump { target: header });
            for &p in &cfg.preds[header.index()] {
                if cfg.is_reachable(p) && !l.contains(p) {
                    retarget_edge(func, p, header, pad);
                }
            }
            func.entry = pad;
            return true;
        }
        let already_pad =
            n_outside == 1 && first_outside.is_some_and(|p| cfg.succs[p.index()].len() == 1);
        if already_pad {
            continue;
        }
        // Create the pad and retarget every outside entry edge through it.
        let pad = func.new_block();
        func.block_mut(pad)
            .instrs
            .push(Instr::Jump { target: header });
        for &p in &cfg.preds[header.index()] {
            if cfg.is_reachable(p) && !l.contains(p) {
                retarget_edge(func, p, header, pad);
            }
        }
        return true;
    }
    false
}

/// One round of exit-block dedication. Returns true if anything changed;
/// the caller reports the shape change to `analyses`.
fn insert_exit_blocks(func: &mut Function, analyses: &mut FunctionAnalyses) -> bool {
    let (cfg, forest) = analyses.cfg_forest(func);
    for l in &forest.loops {
        for &(from, to) in &l.exit_edges {
            let shared = cfg.preds[to.index()]
                .iter()
                .any(|p| cfg.is_reachable(*p) && !l.contains(*p));
            // A dedicated exit block must also not be a loop header (we
            // never want demotion stores inside another loop's header).
            let is_header = forest.loop_with_header(to).is_some();
            if shared || is_header {
                let exit = func.new_block();
                func.block_mut(exit).instrs.push(Instr::Jump { target: to });
                retarget_edge(func, from, to, exit);
                return true;
            }
        }
    }
    false
}

/// Normalizes every natural loop of `func` to have a landing pad and
/// dedicated exit blocks.
///
/// # Panics
///
/// Panics if the function contains φ-nodes (normalization runs before any
/// SSA construction in the pipeline) or if normalization fails to converge
/// (which would indicate a bug).
pub fn normalize_loops(func: &mut Function) {
    normalize_loops_in(func, &mut FunctionAnalyses::new());
}

/// Cache-aware [`normalize_loops`]: the unreachable-block sweep, the
/// landing-pad check, and the exit-block check all share one CFG/dominator/
/// loop-forest build per round instead of constructing their own (the old
/// code built the CFG three times and the dominator tree twice even on a
/// fully-converged function). With a warm cache a converged call performs
/// **zero** analysis builds.
///
/// # Panics
///
/// Same conditions as [`normalize_loops`].
pub fn normalize_loops_in(func: &mut Function, analyses: &mut FunctionAnalyses) {
    assert!(
        !has_phis(func),
        "normalize_loops requires a phi-free function"
    );
    remove_unreachable_blocks_in(func, analyses);
    let mut budget = 4 * func.blocks.len() + 64;
    loop {
        if insert_landing_pads(func, analyses) {
            analyses.note_shape_changed();
            budget -= 1;
            assert!(budget > 0, "landing-pad insertion did not converge");
            continue;
        }
        if insert_exit_blocks(func, analyses) {
            analyses.note_shape_changed();
            budget -= 1;
            assert!(budget > 0, "exit-block insertion did not converge");
            continue;
        }
        break;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LoopId;
    use ir::{FunctionBuilder, Module};

    /// Loop whose header is targeted directly by the entry (no pad) and
    /// whose exit goes straight to a shared return block.
    fn raw_loop() -> Function {
        let mut b = FunctionBuilder::new("f", 0);
        let c = b.iconst(1);
        let header = b.new_block();
        let body = b.new_block();
        let tail = b.new_block();
        // entry branches directly to header or tail -> tail shared.
        b.branch(c, header, tail);
        b.switch_to(header);
        b.branch(c, body, tail);
        b.switch_to(body);
        b.jump(header);
        b.switch_to(tail);
        b.ret(None);
        b.finish()
    }

    fn validated(func: Function) -> Function {
        let mut m = Module::new();
        m.add_func(func);
        ir::validate(&m).expect("valid");
        m.funcs.pop().unwrap()
    }

    #[test]
    fn normalizes_raw_loop() {
        let mut f = raw_loop();
        normalize_loops(&mut f);
        let f = validated(f);
        let mut analyses = FunctionAnalyses::new();
        let (cfg, forest, geom) = analyses.loop_view(&f);
        assert_eq!(forest.len(), 1);
        let l = LoopId(0);
        let pad = geom.landing_pad(l);
        // The pad jumps only to the header and is outside the loop.
        assert_eq!(cfg.succs[pad.index()], vec![forest.get(l).header]);
        assert!(!forest.get(l).contains(pad));
        // Exits are dedicated.
        for &e in geom.exits(l) {
            for p in &cfg.preds[e.index()] {
                assert!(forest.get(l).contains(*p));
            }
        }
    }

    #[test]
    fn nested_loops_get_pads_inside_parent() {
        // for(i) { for(j) { body } }
        let mut b = FunctionBuilder::new("f", 0);
        let c = b.iconst(1);
        let oh = b.new_block();
        let ih = b.new_block();
        let ib = b.new_block();
        let ol = b.new_block();
        let done = b.new_block();
        b.jump(oh);
        b.switch_to(oh);
        b.branch(c, ih, done);
        b.switch_to(ih);
        b.branch(c, ib, ol);
        b.switch_to(ib);
        b.jump(ih);
        b.switch_to(ol);
        b.jump(oh);
        b.switch_to(done);
        b.ret(None);
        let mut f = b.finish();
        normalize_loops(&mut f);
        let f = validated(f);
        let mut analyses = FunctionAnalyses::new();
        let (_, forest, geom) = analyses.loop_view(&f);
        assert_eq!(forest.len(), 2);
        let inner = forest.inner_to_outer().into_iter().next().unwrap();
        let outer = forest.get(inner).parent.expect("nested");
        // The inner pad lies inside the outer loop.
        let pad = geom.landing_pad(inner);
        assert!(forest.get(outer).contains(pad));
        // The inner exit blocks lie inside the outer loop.
        for &e in geom.exits(inner) {
            assert!(forest.get(outer).contains(e));
        }
    }

    #[test]
    fn idempotent() {
        let mut f = raw_loop();
        normalize_loops(&mut f);
        let once = f.clone();
        normalize_loops(&mut f);
        assert_eq!(once, f);
    }

    #[test]
    fn removes_unreachable() {
        let mut b = FunctionBuilder::new("f", 0);
        let dead = b.new_block();
        b.ret(None);
        b.switch_to(dead);
        b.ret(None);
        let mut f = b.finish();
        assert_eq!(remove_unreachable_blocks(&mut f), 1);
        assert_eq!(f.blocks.len(), 1);
        assert_eq!(remove_unreachable_blocks(&mut f), 0);
    }

    #[test]
    fn loop_free_function_untouched() {
        let mut b = FunctionBuilder::new("f", 0);
        b.ret(None);
        let mut f = b.finish();
        let before = f.clone();
        normalize_loops(&mut f);
        assert_eq!(before, f);
    }
}
