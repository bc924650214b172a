//! Natural-loop detection and the loop nesting forest.
//!
//! The promotion algorithm analyzes one loop at a time, innermost first, and
//! needs for each loop: its blocks, its parent in the nesting forest, its
//! landing pad (unique preheader) and its exit blocks. Loops are identified
//! from back edges `t -> h` where `h` dominates `t`; back edges sharing a
//! header are merged into one loop, as is conventional.

use crate::dom::DomTree;
use crate::graph::Cfg;
use ir::BlockId;
use std::collections::BTreeSet;

/// Index of a loop in a [`LoopForest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LoopId(pub u32);

impl LoopId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One natural loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Loop {
    /// The loop header (target of the back edges).
    pub header: BlockId,
    /// All blocks in the loop, including the header.
    pub blocks: BTreeSet<BlockId>,
    /// Enclosing loop, if any.
    pub parent: Option<LoopId>,
    /// Directly nested loops.
    pub children: Vec<LoopId>,
    /// Nesting depth (outermost loops have depth 1).
    pub depth: usize,
    /// Exit edges `(from inside, to outside)`.
    pub exit_edges: Vec<(BlockId, BlockId)>,
}

impl Loop {
    /// True if `b` belongs to the loop.
    pub fn contains(&self, b: BlockId) -> bool {
        self.blocks.contains(&b)
    }
}

/// All natural loops of one function, with nesting structure.
#[derive(Debug, Clone, Default)]
pub struct LoopForest {
    /// The loops; inner loops always have larger depth than their parents.
    pub loops: Vec<Loop>,
    /// Innermost loop containing each block, if any.
    pub block_loop: Vec<Option<LoopId>>,
    /// Builder scratch (back-edge headers, bodies under construction, the
    /// walk worklist, and the size-sort permutation), kept only for its
    /// capacity between [`LoopForest::build_into`] calls.
    scratch: ForestScratch,
}

/// See [`LoopForest::scratch`]. Contents between builds are stale by
/// design; equality of forests deliberately ignores this.
#[derive(Debug, Clone, Default)]
struct ForestScratch {
    headers: Vec<BlockId>,
    bodies: Vec<BTreeSet<BlockId>>,
    work: Vec<BlockId>,
    order: Vec<usize>,
}

impl PartialEq for LoopForest {
    fn eq(&self, other: &Self) -> bool {
        self.loops == other.loops && self.block_loop == other.block_loop
    }
}

impl Eq for LoopForest {}

impl LoopForest {
    /// Detects natural loops in `cfg` using dominator information.
    ///
    /// Irreducible cycles (cycles whose entry is not a dominator) produce no
    /// loops; the promoter simply sees no promotion opportunity there.
    pub fn build(cfg: &Cfg, dom: &DomTree) -> LoopForest {
        let mut out = LoopForest::default();
        LoopForest::build_into(cfg, dom, &mut out);
        out
    }

    /// [`build`](Self::build) writing into an existing forest, reusing its
    /// outer vectors — the reduced-allocation rebuild path for a warm
    /// analysis shell. (Per-loop `BTreeSet` bodies are rebuilt node by
    /// node; they are small.)
    pub fn build_into(cfg: &Cfg, dom: &DomTree, out: &mut LoopForest) {
        // 1. Find back edges and collect loop bodies per header.
        let ForestScratch {
            headers,
            bodies,
            work,
            order,
        } = &mut out.scratch;
        headers.clear();
        // Stale (empty, `mem::take`n) sets from the previous build are
        // recycled as slots; `BTreeSet` holds no capacity, so only the
        // outer vector's buffer is preserved.
        bodies.clear();
        for &b in &cfg.rpo {
            for &s in &cfg.succs[b.index()] {
                if dom.dominates(s, b) {
                    // Back edge b -> s.
                    let idx = match headers.iter().position(|&h| h == s) {
                        Some(i) => i,
                        None => {
                            headers.push(s);
                            bodies.push(BTreeSet::from([s]));
                            headers.len() - 1
                        }
                    };
                    // Walk predecessors from the latch up to the header.
                    let body = &mut bodies[idx];
                    work.clear();
                    work.push(b);
                    while let Some(x) = work.pop() {
                        if body.insert(x) {
                            for &p in &cfg.preds[x.index()] {
                                if cfg.is_reachable(p) && !body.contains(&p) {
                                    work.push(p);
                                }
                            }
                        }
                    }
                }
            }
        }
        // 2. Sort loops by body size ascending so children precede parents,
        //    then derive nesting: the parent of a loop is the smallest loop
        //    strictly containing its header.
        order.clear();
        order.extend(0..headers.len());
        order.sort_by_key(|&i| bodies[i].len());
        let loops = &mut out.loops;
        // Overwrite surviving slots in place so each loop's `children` and
        // `exit_edges` buffers keep their capacity across builds.
        for l in loops.iter_mut() {
            l.children.clear();
            l.exit_edges.clear();
        }
        loops.truncate(order.len());
        let reused = loops.len();
        for (slot, &i) in loops.iter_mut().zip(order.iter()) {
            slot.header = headers[i];
            slot.blocks = std::mem::take(&mut bodies[i]);
            slot.parent = None;
            slot.depth = 0;
        }
        loops.reserve(order.len() - reused);
        for &i in &order[reused..] {
            loops.push(Loop {
                header: headers[i],
                blocks: std::mem::take(&mut bodies[i]),
                parent: None,
                children: Vec::new(),
                depth: 0,
                exit_edges: Vec::new(),
            });
        }
        // Parent = the smallest other loop that contains this loop's header
        // and is strictly larger.
        for i in 0..loops.len() {
            for j in 0..loops.len() {
                if i == j {
                    continue;
                }
                if loops[j].blocks.len() > loops[i].blocks.len()
                    && loops[j].blocks.contains(&loops[i].header)
                {
                    // Candidate parent; keep the smallest.
                    match loops[i].parent {
                        Some(p) if loops[p.index()].blocks.len() <= loops[j].blocks.len() => {}
                        _ => loops[i].parent = Some(LoopId(j as u32)),
                    }
                }
            }
        }
        for i in 0..loops.len() {
            if let Some(p) = loops[i].parent {
                loops[p.index()].children.push(LoopId(i as u32));
            }
        }
        // Depths: walk parent chains.
        for i in 0..loops.len() {
            let mut d = 1;
            let mut cur = loops[i].parent;
            while let Some(p) = cur {
                d += 1;
                cur = loops[p.index()].parent;
            }
            loops[i].depth = d;
        }
        // Exit edges.
        for l in loops.iter_mut() {
            for &b in &l.blocks {
                for &s in &cfg.succs[b.index()] {
                    if !l.blocks.contains(&s) {
                        l.exit_edges.push((b, s));
                    }
                }
            }
        }
        // Innermost loop per block = the smallest loop containing it.
        let block_loop = &mut out.block_loop;
        block_loop.clear();
        block_loop.resize(cfg.len(), None);
        for (li, l) in loops.iter().enumerate() {
            for &b in &l.blocks {
                let slot = &mut block_loop[b.index()];
                match *slot {
                    Some(old) if loops[old.index()].blocks.len() <= l.blocks.len() => {}
                    _ => *slot = Some(LoopId(li as u32)),
                }
            }
        }
    }

    /// Number of loops.
    pub fn len(&self) -> usize {
        self.loops.len()
    }

    /// True if the function is loop-free.
    pub fn is_empty(&self) -> bool {
        self.loops.is_empty()
    }

    /// Access a loop.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn get(&self, id: LoopId) -> &Loop {
        &self.loops[id.index()]
    }

    /// Loop ids ordered innermost-first (children before parents).
    pub fn inner_to_outer(&self) -> Vec<LoopId> {
        let mut ids: Vec<LoopId> = (0..self.loops.len() as u32).map(LoopId).collect();
        ids.sort_by_key(|id| std::cmp::Reverse(self.loops[id.index()].depth));
        ids
    }

    /// Loop ids ordered outermost-first (parents before children).
    pub fn outer_to_inner(&self) -> Vec<LoopId> {
        let mut ids = self.inner_to_outer();
        ids.reverse();
        ids
    }

    /// The loop whose header is `h`, if any.
    pub fn loop_with_header(&self, h: BlockId) -> Option<LoopId> {
        self.loops
            .iter()
            .position(|l| l.header == h)
            .map(|i| LoopId(i as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir::{Function, FunctionBuilder};

    /// while-loop: B0 -> B1(header) -> {B2(body) -> B1, B3(exit)}
    fn single_loop() -> Function {
        let mut b = FunctionBuilder::new("f", 0);
        let c = b.iconst(1);
        let header = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        b.jump(header);
        b.switch_to(header);
        b.branch(c, body, exit);
        b.switch_to(body);
        b.jump(header);
        b.switch_to(exit);
        b.ret(None);
        b.finish()
    }

    /// Two nested loops: outer header B1, inner header B2.
    fn nested_loops() -> Function {
        let mut b = FunctionBuilder::new("f", 0);
        let c = b.iconst(1);
        let outer_h = b.new_block(); // B1
        let inner_h = b.new_block(); // B2
        let inner_body = b.new_block(); // B3
        let outer_latch = b.new_block(); // B4
        let exit = b.new_block(); // B5
        b.jump(outer_h);
        b.switch_to(outer_h);
        b.branch(c, inner_h, exit);
        b.switch_to(inner_h);
        b.branch(c, inner_body, outer_latch);
        b.switch_to(inner_body);
        b.jump(inner_h);
        b.switch_to(outer_latch);
        b.jump(outer_h);
        b.switch_to(exit);
        b.ret(None);
        b.finish()
    }

    fn forest(f: &Function) -> LoopForest {
        let cfg = Cfg::build(f);
        let dom = DomTree::lengauer_tarjan(&cfg);
        LoopForest::build(&cfg, &dom)
    }

    #[test]
    fn finds_single_loop() {
        let f = single_loop();
        let lf = forest(&f);
        assert_eq!(lf.len(), 1);
        let l = &lf.loops[0];
        assert_eq!(l.header, BlockId(1));
        assert_eq!(l.blocks, BTreeSet::from([BlockId(1), BlockId(2)]));
        assert_eq!(l.depth, 1);
        assert_eq!(l.exit_edges, vec![(BlockId(1), BlockId(3))]);
    }

    #[test]
    fn finds_nested_loops() {
        let f = nested_loops();
        let lf = forest(&f);
        assert_eq!(lf.len(), 2);
        let outer = lf.loop_with_header(BlockId(1)).unwrap();
        let inner = lf.loop_with_header(BlockId(2)).unwrap();
        assert_eq!(lf.get(inner).parent, Some(outer));
        assert_eq!(lf.get(outer).parent, None);
        assert_eq!(lf.get(inner).depth, 2);
        assert_eq!(lf.get(outer).depth, 1);
        assert!(lf.get(outer).blocks.is_superset(&lf.get(inner).blocks));
        // inner_to_outer puts the inner loop first
        let order = lf.inner_to_outer();
        assert_eq!(order[0], inner);
        assert_eq!(order[1], outer);
        // block_loop maps the inner body to the inner loop
        assert_eq!(lf.block_loop[BlockId(3).index()], Some(inner));
        assert_eq!(lf.block_loop[BlockId(4).index()], Some(outer));
    }

    #[test]
    fn straight_line_has_no_loops() {
        let mut b = FunctionBuilder::new("f", 0);
        b.ret(None);
        let f = b.finish();
        assert!(forest(&f).is_empty());
    }

    #[test]
    fn self_loop_block() {
        let mut b = FunctionBuilder::new("f", 0);
        let c = b.iconst(1);
        let l = b.new_block();
        let exit = b.new_block();
        b.jump(l);
        b.switch_to(l);
        b.branch(c, l, exit);
        b.switch_to(exit);
        b.ret(None);
        let f = b.finish();
        let lf = forest(&f);
        assert_eq!(lf.len(), 1);
        assert_eq!(lf.loops[0].blocks.len(), 1);
        assert_eq!(lf.loops[0].header, l);
    }

    #[test]
    fn irreducible_cycle_yields_no_loop() {
        // Entry branches into both B1 and B2 which form a cycle; neither
        // dominates the other, so no natural loop exists.
        let mut b = FunctionBuilder::new("f", 0);
        let c = b.iconst(1);
        let b1 = b.new_block();
        let b2 = b.new_block();
        let exit = b.new_block();
        b.branch(c, b1, b2);
        b.switch_to(b1);
        b.branch(c, b2, exit);
        b.switch_to(b2);
        b.branch(c, b1, exit);
        b.switch_to(exit);
        b.ret(None);
        let f = b.finish();
        assert!(forest(&f).is_empty());
    }

    #[test]
    fn shared_header_back_edges_merge() {
        // Two latches to one header -> a single loop.
        let mut b = FunctionBuilder::new("f", 0);
        let c = b.iconst(1);
        let h = b.new_block();
        let l1 = b.new_block();
        let l2 = b.new_block();
        let exit = b.new_block();
        b.jump(h);
        b.switch_to(h);
        b.branch(c, l1, l2);
        b.switch_to(l1);
        b.branch(c, h, exit);
        b.switch_to(l2);
        b.jump(h);
        b.switch_to(exit);
        b.ret(None);
        let f = b.finish();
        let lf = forest(&f);
        assert_eq!(lf.len(), 1);
        assert_eq!(lf.loops[0].blocks.len(), 3);
    }
}
