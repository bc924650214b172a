//! Backward liveness analysis over virtual registers.
//!
//! The solver is a sparse backward worklist over the [`BlockWorklist`]
//! engine: blocks are popped in postorder and re-enqueued (predecessors
//! only) when their live-in set actually changes. The per-block use/def
//! summaries live in [`LiveSummaries`] so the analysis cache can keep them
//! across regalloc's spill rounds and rescan only the blocks a round
//! actually touched. A solve starts every boundary in/out set from empty,
//! which keeps the result the exact least fixpoint (a warm-started
//! boundary set could carry stale bits around a loop forever).
//! The analysis cache keeps that guarantee across an edit that changed how
//! a few registers occur (regalloc's merges, renames and spills): it
//! clears just their bits and re-solves them one register at a time, from
//! the blocks that use them.

use crate::dataflow::{BlockWorklist, DataflowStats, Direction};
use crate::graph::Cfg;
use ir::{BlockId, Function, Instr, Reg};
use std::collections::BTreeSet;

/// A dense bitset over virtual registers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RegSet {
    bits: Vec<u64>,
}

impl RegSet {
    /// An empty set sized for `n` registers.
    pub fn new(n: usize) -> Self {
        RegSet {
            bits: vec![0; n.div_ceil(64)],
        }
    }

    /// Empties the set and resizes it for `n` registers in place, keeping
    /// the word buffer's capacity — the reuse path for solver scratch that
    /// outlives one function.
    pub fn reset(&mut self, n: usize) {
        self.bits.clear();
        self.bits.resize(n.div_ceil(64), 0);
    }

    /// Inserts `r`; returns true if newly inserted.
    pub fn insert(&mut self, r: Reg) -> bool {
        let w = r.index() / 64;
        let m = 1u64 << (r.index() % 64);
        let was = self.bits[w] & m != 0;
        self.bits[w] |= m;
        !was
    }

    /// Resizes the set for `n` registers, keeping its members below `n`.
    pub fn resize(&mut self, n: usize) {
        self.bits.resize(n.div_ceil(64), 0);
        if let Some(last) = self.bits.last_mut().filter(|_| !n.is_multiple_of(64)) {
            *last &= (1 << (n % 64)) - 1;
        }
    }

    /// Removes `r`.
    pub fn remove(&mut self, r: Reg) {
        let w = r.index() / 64;
        self.bits[w] &= !(1u64 << (r.index() % 64));
    }

    /// Membership test.
    pub fn contains(&self, r: Reg) -> bool {
        self.bits[r.index() / 64] & (1u64 << (r.index() % 64)) != 0
    }

    /// In-place union; returns true if `self` grew. When `other` tracks
    /// more registers than `self`, only the overlapping words are merged.
    pub fn union_with(&mut self, other: &RegSet) -> bool {
        let mut grew = false;
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            let new = *a | *b;
            grew |= new != *a;
            *a = new;
        }
        grew
    }

    /// In-place difference: removes every member of `other`, a word at a
    /// time. When `other` tracks fewer registers than `self` (a summary
    /// scanned before `next_reg` grew), only the overlapping words change.
    pub fn difference_with(&mut self, other: &RegSet) {
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a &= !*b;
        }
    }

    /// Whether `self` and `other` share a member. Only the overlapping
    /// words are compared, as in [`union_with`](Self::union_with).
    pub fn intersects(&self, other: &RegSet) -> bool {
        self.bits.iter().zip(&other.bits).any(|(a, b)| a & b != 0)
    }

    /// Empties the set without changing its capacity.
    pub fn clear(&mut self) {
        self.bits.fill(0);
    }

    /// Makes `self` a copy of `other`, adopting its size.
    pub fn copy_from(&mut self, other: &RegSet) {
        self.bits.clear();
        self.bits.extend_from_slice(&other.bits);
    }

    /// Iterates members in ascending order, visiting only the set bits of
    /// each word.
    pub fn iter(&self) -> impl Iterator<Item = Reg> + '_ {
        self.bits.iter().enumerate().flat_map(|(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let i = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                Some(Reg((w * 64 + i) as u32))
            })
        })
    }

    /// The backing words, 64 registers per word, lowest register in bit 0
    /// of word 0. Exposed so dense consumers (the interference-graph
    /// builder) can union a whole live set into their own rows word-wise
    /// instead of iterating members.
    pub fn words(&self) -> &[u64] {
        &self.bits
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.bits.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&b| b == 0)
    }
}

/// Per-block live-in/live-out sets.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Liveness {
    /// Live-in per block.
    pub live_in: Vec<RegSet>,
    /// Live-out per block.
    pub live_out: Vec<RegSet>,
}

/// Cached per-block (upward-exposed use, def) summaries — the only part of
/// a liveness solve that reads instructions. The analysis cache keeps one
/// of these per function and rescans only dirty blocks between solves.
///
/// A summary scanned before `next_reg` grew is shorter than the current
/// register space; that is fine, because a block that was not touched
/// cannot mention a register that did not exist when it was scanned, and
/// [`RegSet::union_with`] and [`RegSet::difference_with`] touch only the
/// overlapping words.
#[derive(Debug, Clone, Default)]
pub struct LiveSummaries {
    use_s: Vec<RegSet>,
    def_s: Vec<RegSet>,
    /// Sets parked by a shrinking rescan, recycled when the block count
    /// grows again (see `util::resize_pooled`).
    spare: Vec<RegSet>,
}

impl LiveSummaries {
    /// Number of blocks summarized.
    pub fn len(&self) -> usize {
        self.use_s.len()
    }

    /// True if no blocks are summarized.
    pub fn is_empty(&self) -> bool {
        self.use_s.is_empty()
    }

    fn scan_into(func: &Function, bi: usize, nregs: usize, u: &mut RegSet, d: &mut RegSet) {
        u.reset(nregs);
        d.reset(nregs);
        for instr in &func.blocks[bi].instrs {
            instr.visit_uses(|r| {
                if !d.contains(r) {
                    u.insert(r);
                }
            });
            if let Some(r) = instr.def() {
                d.insert(r);
            }
        }
    }

    /// Unions every block's summaries into `out`: the registers the
    /// function mentions. A use that is not upward-exposed follows a
    /// definition in its block, so the definitions cover it.
    pub(crate) fn union_into(&self, out: &mut RegSet) {
        for (u, d) in self.use_s.iter().zip(&self.def_s) {
            out.union_with(u);
            out.union_with(d);
        }
    }

    /// Whether block `bi` mentions a register of `regs`, as a definition
    /// or a use.
    pub(crate) fn mentions(&self, bi: usize, regs: &RegSet) -> bool {
        self.use_s[bi].intersects(regs) || self.def_s[bi].intersects(regs)
    }

    /// Rescans every block of `func`, reusing the per-block sets in place.
    pub fn rescan_all(&mut self, func: &Function) {
        let nregs = func.next_reg as usize;
        let n = func.blocks.len();
        reset_sets(&mut self.use_s, &mut self.spare, n, nregs);
        reset_sets(&mut self.def_s, &mut self.spare, n, nregs);
        for bi in 0..n {
            Self::scan_into(func, bi, nregs, &mut self.use_s[bi], &mut self.def_s[bi]);
        }
    }

    /// Rescans only the given block indices, leaving the rest untouched.
    /// The block count must match the function (shape changes force a
    /// [`rescan_all`](Self::rescan_all)).
    pub fn rescan_blocks(&mut self, func: &Function, blocks: &BTreeSet<usize>) {
        debug_assert_eq!(self.use_s.len(), func.blocks.len());
        let nregs = func.next_reg as usize;
        for &bi in blocks {
            Self::scan_into(func, bi, nregs, &mut self.use_s[bi], &mut self.def_s[bi]);
        }
    }
}

/// Resets a per-block set vector to `n` empty sets over `nregs` registers,
/// reusing the outer vector and every set's word buffer; sets cut off by a
/// shrink are parked in `spare` and recycled on the next grow.
fn reset_sets(v: &mut Vec<RegSet>, spare: &mut Vec<RegSet>, n: usize, nregs: usize) {
    crate::util::resize_pooled(v, spare, n, |s| s.reset(nregs));
}

/// Computes liveness for `func` with the sparse backward worklist solver.
pub fn liveness(func: &Function, cfg: &Cfg) -> Liveness {
    let mut summaries = LiveSummaries::default();
    summaries.rescan_all(func);
    liveness_sparse(func, cfg, &summaries, &mut DataflowStats::default())
}

/// The sparse backward solve over prebuilt summaries. Boundary sets start
/// empty, so the result is the least fixpoint regardless of how stale the
/// previous solve was.
pub fn liveness_sparse(
    func: &Function,
    cfg: &Cfg,
    summaries: &LiveSummaries,
    stats: &mut DataflowStats,
) -> Liveness {
    let mut out = Liveness {
        live_in: Vec::new(),
        live_out: Vec::new(),
    };
    liveness_sparse_into(
        func,
        cfg,
        summaries,
        stats,
        &mut LiveScratch::default(),
        &mut out,
    );
    out
}

/// Reusable working memory for [`liveness_sparse_into`]: the block
/// worklist and the candidate live-in set, and the pending (block,
/// register) pairs of an update. The analysis cache keeps one per function
/// shell so repeat solves allocate nothing.
#[derive(Debug, Default)]
pub struct LiveScratch {
    wl: BlockWorklist,
    inn: RegSet,
    pending: Vec<(BlockId, Reg)>,
    /// Parked live-in/live-out sets from shrinking solves (see
    /// `util::resize_pooled`).
    spare: Vec<RegSet>,
}

/// [`liveness_sparse`] writing into an existing [`Liveness`], reusing its
/// per-block sets and `scratch`'s worklist — the allocation-free rebuild
/// path for a warm analysis shell.
pub fn liveness_sparse_into(
    func: &Function,
    cfg: &Cfg,
    summaries: &LiveSummaries,
    stats: &mut DataflowStats,
    scratch: &mut LiveScratch,
    result: &mut Liveness,
) {
    let n = func.blocks.len();
    let nregs = func.next_reg as usize;
    debug_assert_eq!(summaries.len(), n);
    reset_sets(&mut result.live_in, &mut scratch.spare, n, nregs);
    reset_sets(&mut result.live_out, &mut scratch.spare, n, nregs);
    let live_in = &mut result.live_in;
    let live_out = &mut result.live_out;
    let wl = &mut scratch.wl;
    wl.reset(cfg, Direction::Backward);
    wl.seed_all(cfg, stats);
    // Scratch for the candidate live-in; swapped into place on change.
    let inn = &mut scratch.inn;
    inn.reset(nregs);
    while let Some(b) = wl.pop(stats) {
        let bi = b.index();
        stats.transfer_evals += 1;
        // out = ∪ in[succs]
        let out = &mut live_out[bi];
        out.clear();
        for s in &cfg.succs[bi] {
            out.union_with(&live_in[s.index()]);
        }
        // in = use ∪ (out − def)
        inn.copy_from(out);
        inn.difference_with(&summaries.def_s[bi]);
        inn.union_with(&summaries.use_s[bi]);
        if *inn != live_in[bi] {
            std::mem::swap(inn, &mut live_in[bi]);
            for &p in &cfg.preds[bi] {
                wl.push(p, stats);
            }
        }
    }
}

/// Re-solves the bits of `regs` in `result` after an edit that changed
/// how those registers occur and nothing else: every other register has
/// the uses and definitions it had when `result` was solved, and the
/// edges are the same. `summaries` must already describe the edited
/// body. Every set is resized for `func.next_reg` and the bits of `regs`
/// are cleared everywhere. A register's liveness does not depend on any
/// other's, so each cleared bit is then re-solved on its own, sparsely: a
/// register is live into a reachable block that uses it before any
/// definition, and from there live out of each reachable predecessor and
/// into each one that does not define it. Each (block, register) pair is
/// pushed once, when its live-in bit is set, and counts as one visit,
/// transfer and push in `stats`. The other registers' bits are untouched,
/// so the result is the least fixpoint of the edited body, whatever the
/// edit renamed, merged or deleted.
pub(crate) fn liveness_update_into(
    func: &Function,
    cfg: &Cfg,
    summaries: &LiveSummaries,
    regs: &RegSet,
    stats: &mut DataflowStats,
    scratch: &mut LiveScratch,
    result: &mut Liveness,
) {
    let nregs = func.next_reg as usize;
    debug_assert_eq!(summaries.len(), func.blocks.len());
    debug_assert_eq!(result.live_in.len(), func.blocks.len());
    let (live_in, live_out) = (&mut result.live_in, &mut result.live_out);
    for set in live_in.iter_mut().chain(live_out.iter_mut()) {
        set.resize(nregs);
        set.difference_with(regs);
    }
    let pending = &mut scratch.pending;
    pending.clear();
    for &b in &cfg.rpo {
        let bi = b.index();
        for (w, (&u, &r)) in summaries.use_s[bi].bits.iter().zip(&regs.bits).enumerate() {
            let mut bits = u & r;
            while bits != 0 {
                let reg = Reg((w * 64) as u32 + bits.trailing_zeros());
                bits &= bits - 1;
                live_in[bi].insert(reg);
                pending.push((b, reg));
            }
        }
    }
    stats.worklist_pushes += pending.len() as u64;
    while let Some((b, reg)) = pending.pop() {
        stats.blocks_visited += 1;
        stats.transfer_evals += 1;
        for &p in cfg.preds[b.index()]
            .iter()
            .filter(|&&p| cfg.is_reachable(p))
        {
            let pi = p.index();
            live_out[pi].insert(reg);
            // A summary the edit did not rescan may be sized for fewer
            // registers; the new ones are not defined there.
            let defined = summaries.def_s[pi]
                .bits
                .get(reg.index() / 64)
                .is_some_and(|w| w & (1 << (reg.index() % 64)) != 0);
            if !defined && live_in[pi].insert(reg) {
                stats.worklist_pushes += 1;
                pending.push((p, reg));
            }
        }
    }
}

/// Walks a block backwards invoking `visit(instr_index, instr, live_after)`
/// with the set of registers live *after* each instruction.
pub fn for_each_instr_backwards(
    func: &Function,
    live: &Liveness,
    block: ir::BlockId,
    visit: impl FnMut(usize, &Instr, &RegSet),
) {
    let mut current = RegSet::new(0);
    for_each_instr_backwards_in(func, live, block, &mut current, visit);
}

/// [`for_each_instr_backwards`] with a caller-owned cursor set, so a loop
/// over many blocks (the interference-graph build) clones no `RegSet` per
/// block: `current`'s backing words are reused across calls.
pub fn for_each_instr_backwards_in(
    func: &Function,
    live: &Liveness,
    block: ir::BlockId,
    current: &mut RegSet,
    mut visit: impl FnMut(usize, &Instr, &RegSet),
) {
    current.copy_from(&live.live_out[block.index()]);
    for (i, instr) in func.block(block).instrs.iter().enumerate().rev() {
        visit(i, instr, current);
        if let Some(d) = instr.def() {
            current.remove(d);
        }
        instr.visit_uses(|r| {
            current.insert(r);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir::{BinOp, FunctionBuilder};

    #[test]
    fn regset_basics() {
        let mut s = RegSet::new(130);
        assert!(s.insert(Reg(0)));
        assert!(s.insert(Reg(129)));
        assert!(!s.insert(Reg(0)));
        assert!(s.contains(Reg(129)));
        assert_eq!(s.len(), 2);
        s.remove(Reg(0));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![Reg(129)]);
    }

    #[test]
    fn regset_resize_keeps_the_members_below_the_new_size() {
        let mut s = RegSet::new(70);
        for r in [3, 63, 64, 69] {
            s.insert(Reg(r));
        }
        s.resize(200);
        s.insert(Reg(199));
        assert_eq!(
            s.iter().map(|r| r.0).collect::<Vec<_>>(),
            [3, 63, 64, 69, 199]
        );
        s.resize(65);
        assert_eq!(s, {
            let mut t = RegSet::new(65);
            for r in [3, 63, 64] {
                t.insert(Reg(r));
            }
            t
        });
    }

    /// A set over `n` registers holding each one with probability ~1/4,
    /// from a xorshift64 stream.
    fn random_set(state: &mut u64, n: usize) -> RegSet {
        let mut s = RegSet::new(n);
        for r in 0..n {
            *state ^= *state << 13;
            *state ^= *state >> 7;
            *state ^= *state << 17;
            if state.is_multiple_of(4) {
                s.insert(Reg(r as u32));
            }
        }
        s
    }

    /// The bit-probe model: every register below `64 × words`, tested
    /// one at a time.
    fn probed(s: &RegSet) -> Vec<Reg> {
        (0..s.words().len() * 64)
            .map(|r| Reg(r as u32))
            .filter(|&r| s.contains(r))
            .collect()
    }

    #[test]
    fn regset_iter_matches_a_bit_probe_in_ascending_order() {
        let mut state = 0x9E37_79B9_7F4A_7C15;
        for n in [0, 1, 63, 64, 65, 127, 128, 129, 300] {
            for _ in 0..20 {
                let s = random_set(&mut state, n);
                let got: Vec<Reg> = s.iter().collect();
                assert_eq!(got, probed(&s), "n={n}");
                assert!(got.windows(2).all(|w| w[0] < w[1]), "n={n}: ascending");
                assert_eq!(got.len(), s.len());
            }
        }
        let mut edges = RegSet::new(192);
        for r in [0, 63, 64, 127, 128, 191] {
            edges.insert(Reg(r));
        }
        let want: Vec<Reg> = [0, 63, 64, 127, 128, 191].map(Reg).into();
        assert_eq!(edges.iter().collect::<Vec<_>>(), want);
    }

    #[test]
    fn regset_difference_matches_member_removal_at_any_lengths() {
        let mut state = 0xD1FF_0000_0000_00D5;
        for (na, nb) in [
            (130, 130),
            (300, 70),
            (70, 300),
            (64, 0),
            (0, 64),
            (200, 129),
        ] {
            for _ in 0..20 {
                let a = random_set(&mut state, na);
                let b = random_set(&mut state, nb);
                let mut want = a.clone();
                for r in b.iter().filter(|r| r.index() < na) {
                    want.remove(r);
                }
                let mut got = a.clone();
                got.difference_with(&b);
                assert_eq!(got, want, "|a|={na} |b|={nb}");
                assert_eq!(got.words().len(), a.words().len(), "length is kept");
            }
        }
    }

    #[test]
    fn loop_carried_liveness() {
        // r0 = 10; loop: r0 = r0 - r1; branch r0 loop, exit; exit: ret r0
        let mut b = FunctionBuilder::new("f", 0);
        let r0 = b.iconst(10);
        let r1 = b.iconst(1);
        let l = b.new_block();
        let e = b.new_block();
        b.jump(l);
        b.switch_to(l);
        b.emit(Instr::Binary {
            op: BinOp::Sub,
            dst: r0,
            lhs: r0,
            rhs: r1,
        });
        b.branch(r0, l, e);
        b.switch_to(e);
        b.ret(Some(r0));
        let mut f = b.finish();
        f.has_result = true;
        let cfg = Cfg::build(&f);
        let live = liveness(&f, &cfg);
        // r0 and r1 are live around the loop.
        assert!(live.live_in[l.index()].contains(r0));
        assert!(live.live_in[l.index()].contains(r1));
        assert!(
            live.live_out[l.index()].contains(r1),
            "r1 needed next iteration"
        );
        assert!(!live.live_out[e.index()].contains(r0));
    }

    #[test]
    fn backward_walk_reports_live_after() {
        let mut b = FunctionBuilder::new("f", 0);
        let a = b.iconst(1);
        let c = b.iconst(2);
        let d = b.binary(BinOp::Add, a, c);
        b.ret(Some(d));
        let mut f = b.finish();
        f.has_result = true;
        let cfg = Cfg::build(&f);
        let live = liveness(&f, &cfg);
        let mut seen = Vec::new();
        for_each_instr_backwards(&f, &live, ir::BlockId(0), |i, _, after| {
            seen.push((i, after.len()));
        });
        // After the add, only d is live; after the first iconst, a is live
        // (c not yet defined walking forward, but we're walking backward).
        assert_eq!(seen[0], (3, 0)); // after ret
        assert_eq!(seen[1], (2, 1)); // after add: {d}
        assert_eq!(seen[2], (1, 2)); // after second iconst: {a, c}
        assert_eq!(seen[3], (0, 1)); // after first iconst: {a}
    }
}
