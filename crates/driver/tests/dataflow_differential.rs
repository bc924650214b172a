//! Differential test of the sparse worklist dataflow solvers against
//! reference models of the dense full-resweep fixpoints they replaced, on
//! randomized functions.
//!
//! Two bug classes hide in a worklist solver. *Under-propagation*: a
//! changed fact fails to re-enqueue a dependent block (a missed
//! subscription, a bad direction, a dropped unreachable-predecessor
//! edge), so the solver stops short of the fixpoint and silently reports
//! smaller sets. *Over-pruning*: SCCP's executable-edge tracking marks a
//! runtime-reachable path dead and constprop folds a value that is not
//! actually constant. Both produce answers that look plausible in
//! isolation — the only reliable oracle is a dense solver, which visits
//! everything until nothing changes. The models here are such solvers,
//! written against the public IL: these tests drive the passes and the
//! models over the same randomized inputs (loops, irreducible tangles,
//! unreachable blocks, redefinitions) and demand exact agreement where
//! the problems are precision-equal (liveness, DCE) and lattice-ordered
//! agreement where sparse is deliberately stronger (conditional constant
//! propagation). SCCP, which keeps block-entry state only for registers
//! read before being defined in some block, must also fold exactly what a
//! full-width reference model folds. Load elimination and points-to keep
//! their dense loops as test code beside the pass, where the private
//! transfer functions are.
//!
//! Random inputs come from an in-tree xorshift64* generator: every case
//! is reproducible from the fixed seed and no external crates are needed
//! (the build must work offline).

use cfg::{Cfg, DataflowStats, FunctionAnalyses, LiveSummaries, Liveness, RegSet};
use ir::{BinOp, BlockId, Function, FunctionBuilder, Instr, Reg, TagId, TagKind, TagTable};
use opt::Lat;
use vm::VmOptions;

/// Deterministic xorshift64* PRNG.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Builds a function with random register dataflow, random multi-block
/// control flow (loops, irreducible tangles, and unreachable blocks
/// included), constant-guarded branches for SCCP to prune, and scalar
/// loads/stores through a small set of global tags for the memory
/// problems to chew on.
fn random_function(rng: &mut Rng, tags: &[TagId]) -> Function {
    let arity = rng.below(3);
    let mut b = FunctionBuilder::new("f", arity);
    let nblocks = 1 + rng.below(7);
    for _ in 1..nblocks {
        b.new_block();
    }
    let mut regs: Vec<Reg> = (0..arity as u32).map(Reg).collect();
    if regs.is_empty() {
        b.switch_to(BlockId(0));
        regs.push(b.iconst(1));
    }
    for bi in 0..nblocks {
        b.switch_to(BlockId(bi as u32));
        if b.is_terminated() {
            continue;
        }
        for _ in 0..rng.below(8) {
            let pick = |rng: &mut Rng, regs: &[Reg]| regs[rng.below(regs.len())];
            match rng.below(7) {
                0 => regs.push(b.iconst(rng.below(100) as i64)),
                1 => {
                    let (l, r) = (pick(rng, &regs), pick(rng, &regs));
                    regs.push(b.binary(BinOp::Add, l, r));
                }
                2 => {
                    // Redefine an existing register.
                    let (d, l, r) = (pick(rng, &regs), pick(rng, &regs), pick(rng, &regs));
                    b.emit(Instr::Binary {
                        op: BinOp::Mul,
                        dst: d,
                        lhs: l,
                        rhs: r,
                    });
                }
                3 => {
                    let s = pick(rng, &regs);
                    regs.push(b.copy(s));
                }
                4 => regs.push(b.sload(tags[rng.below(tags.len())])),
                5 => {
                    let s = pick(rng, &regs);
                    b.sstore(s, tags[rng.below(tags.len())]);
                }
                _ => {
                    let (d, s) = (pick(rng, &regs), pick(rng, &regs));
                    b.emit(Instr::Copy { dst: d, src: s });
                }
            }
        }
        // A quarter of branch conditions are fresh constants, so SCCP's
        // executable-edge pruning actually fires on these inputs.
        let v = if rng.below(4) == 0 {
            b.iconst(rng.below(2) as i64)
        } else {
            regs[rng.below(regs.len())]
        };
        match rng.below(3) {
            0 => b.ret(None),
            1 => b.jump(BlockId(rng.below(nblocks) as u32)),
            _ => b.branch(
                v,
                BlockId(rng.below(nblocks) as u32),
                BlockId(rng.below(nblocks) as u32),
            ),
        }
    }
    b.finish()
}

fn test_tags() -> (TagTable, Vec<TagId>) {
    let mut tags = TagTable::new();
    let ids = (0..3)
        .map(|i| tags.intern(format!("g{i}"), TagKind::Global, 1))
        .collect();
    (tags, ids)
}

fn sparse_cache() -> FunctionAnalyses {
    FunctionAnalyses::new()
}

/// The dense iterate-to-fixpoint liveness the sparse solver replaced:
/// sweep the reachable blocks in postorder, recomputing
/// `out = ∪ in[succs]` and `in = use ∪ (out − def)`, until no live-in set
/// changes. Counts one transfer evaluation per block visit into `evals`.
fn model_liveness(func: &Function, cfg: &Cfg, evals: &mut u64) -> Liveness {
    let (n, nregs) = (func.blocks.len(), func.next_reg as usize);
    let mut uses = vec![RegSet::new(nregs); n];
    let mut defs = vec![RegSet::new(nregs); n];
    for (bi, block) in func.blocks.iter().enumerate() {
        for instr in &block.instrs {
            instr.visit_uses(|r| {
                if !defs[bi].contains(r) {
                    uses[bi].insert(r);
                }
            });
            if let Some(d) = instr.def() {
                defs[bi].insert(d);
            }
        }
    }
    let mut live = Liveness {
        live_in: vec![RegSet::new(nregs); n],
        live_out: vec![RegSet::new(nregs); n],
    };
    let mut changed = true;
    while changed {
        changed = false;
        for &b in cfg.rpo.iter().rev() {
            let bi = b.index();
            *evals += 1;
            let mut out = RegSet::new(nregs);
            for s in &cfg.succs[bi] {
                out.union_with(&live.live_in[s.index()]);
            }
            let mut inn = out.clone();
            inn.difference_with(&defs[bi]);
            inn.union_with(&uses[bi]);
            live.live_out[bi] = out;
            if inn != live.live_in[bi] {
                live.live_in[bi] = inn;
                changed = true;
            }
        }
    }
    live
}

fn dense_liveness(func: &Function) -> Liveness {
    model_liveness(func, &Cfg::build(func), &mut 0)
}

/// The sparse backward-worklist liveness must compute exactly the dense
/// solver's least fixpoint — liveness has no sparse-only precision, so
/// any discrepancy is an under-propagation bug.
#[test]
fn sparse_liveness_matches_dense_on_random_functions() {
    let (_, tag_ids) = test_tags();
    let mut rng = Rng::new(0xD1FF_0000_0000_0001);
    for case in 0..300 {
        let func = random_function(&mut rng, &tag_ids);
        let mut fa = sparse_cache();
        let dense = dense_liveness(&func);
        assert_eq!(
            fa.liveness(&func),
            &dense,
            "case {case}: sparse liveness diverged from dense\n{func:?}"
        );
    }
}

/// Block-scoped invalidation: after editing one block and reporting only
/// that block dirty, the partially-rescanned summaries must still produce
/// the exact fresh fixpoint. A stale-summary bug (the rescan missing a
/// block it needed) shows up as a liveness mismatch here.
#[test]
fn incremental_liveness_after_scoped_edit_matches_fresh() {
    let (_, tag_ids) = test_tags();
    let mut rng = Rng::new(0xD1FF_0000_0000_0002);
    for case in 0..300 {
        let mut func = random_function(&mut rng, &tag_ids);
        let mut fa = sparse_cache();
        fa.liveness(&func); // warm the summaries
                            // Edit one random block: define a fresh register and feed it to
                            // the terminator's block via a use in the same block (an
                            // insertion that changes both use and def summaries there).
        let bi = rng.below(func.blocks.len());
        let new = Reg(func.next_reg);
        func.next_reg += 1;
        func.blocks[bi]
            .instrs
            .insert(0, Instr::IConst { dst: new, value: 7 });
        func.blocks[bi].instrs.insert(
            1,
            Instr::Binary {
                op: BinOp::Add,
                dst: new,
                lhs: new,
                rhs: new,
            },
        );
        fa.note_body_changed_blocks([BlockId(bi as u32)]);
        let fresh = dense_liveness(&func);
        assert_eq!(
            fa.liveness(&func),
            &fresh,
            "case {case}: incremental liveness diverged after editing block {bi}\n{func:?}"
        );
    }
}

/// A counting loop: `r0 = 10; do { r0 -= r1 } while (r0); return r0`.
fn countdown(arity: usize) -> Function {
    let mut b = FunctionBuilder::new("f", arity);
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
    f
}

#[test]
fn sparse_liveness_agrees_with_dense_on_loops() {
    let f = countdown(2);
    let cfg = Cfg::build(&f);
    assert_eq!(cfg::liveness(&f, &cfg), dense_liveness(&f));
}

/// A loop forces the dense solver through an extra confirming sweep of
/// every block; the sparse solver re-pops only the loop blocks.
#[test]
fn sparse_liveness_does_less_transfer_work_than_dense_on_a_loop() {
    let f = countdown(0);
    let cfg = Cfg::build(&f);
    let mut summaries = LiveSummaries::default();
    summaries.rescan_all(&f);
    let mut sparse = DataflowStats::default();
    cfg::liveness_sparse(&f, &cfg, &summaries, &mut sparse);
    let mut dense = 0;
    model_liveness(&f, &cfg, &mut dense);
    assert!(
        sparse.transfer_evals < dense,
        "sparse {} >= dense {dense}",
        sparse.transfer_evals
    );
}

/// Rescanning only the edited block's summaries must give the dense
/// fixpoint of the edited function.
#[test]
fn partial_rescan_tracks_an_edit() {
    let mut b = FunctionBuilder::new("f", 0);
    let a = b.iconst(1);
    let c = b.iconst(2);
    let d = b.binary(BinOp::Add, a, c);
    b.ret(Some(d));
    let mut f = b.finish();
    f.has_result = true;
    let cfg = Cfg::build(&f);
    let mut summaries = LiveSummaries::default();
    summaries.rescan_all(&f);
    // Edit block 0: append a new register definition and use it in ret.
    let new = Reg(f.next_reg);
    f.next_reg += 1;
    let last = f.blocks[0].instrs.len() - 1;
    f.blocks[0]
        .instrs
        .insert(last, Instr::Copy { dst: new, src: d });
    f.blocks[0].instrs[last + 1] = Instr::Ret { value: Some(new) };
    summaries.rescan_blocks(&f, &std::collections::BTreeSet::from([0]));
    let got = cfg::liveness_sparse(&f, &cfg, &summaries, &mut DataflowStats::default());
    assert_eq!(got, dense_liveness(&f));
}

/// The analysis cache's block-scoped invalidation, on a diamond: after
/// one block is edited and reported, the cached liveness is rebuilt once
/// and equals the dense fixpoint.
#[test]
fn block_scoped_invalidation_matches_full_rebuild() {
    let mut b = FunctionBuilder::new("f", 0);
    let c = b.iconst(1);
    let t = b.new_block();
    let e = b.new_block();
    let j = b.new_block();
    b.branch(c, t, e);
    b.switch_to(t);
    b.jump(j);
    b.switch_to(e);
    b.jump(j);
    b.switch_to(j);
    b.ret(None);
    let mut f = b.finish();
    let mut fa = FunctionAnalyses::new();
    fa.liveness(&f);
    // Edit block 1 only: define a fresh register there.
    let new = Reg(f.next_reg);
    f.next_reg += 1;
    f.blocks[1]
        .instrs
        .insert(0, Instr::IConst { dst: new, value: 9 });
    fa.note_body_changed_blocks([BlockId(1)]);
    let got = fa.liveness(&f).clone();
    assert_eq!(got, dense_liveness(&f));
    assert_eq!(fa.builds.liveness, 2);
}

/// The dense mark-and-sweep the sparse marker replaced: roots are the
/// operands of side-effecting instructions; every live pure definition
/// marks its operands, resweeping the whole function until nothing
/// changes; then every pure instruction with a dead result goes.
fn model_dce(func: &mut Function) -> usize {
    let mut live = vec![false; func.next_reg as usize];
    for instr in func.blocks.iter().flat_map(|b| &b.instrs) {
        if instr.has_side_effects() {
            instr.visit_uses(|r| live[r.index()] = true);
        }
    }
    let mut changed = true;
    while changed {
        changed = false;
        for instr in func.blocks.iter().flat_map(|b| &b.instrs) {
            match instr.def() {
                Some(d) if live[d.index()] && !instr.has_side_effects() => {
                    instr.visit_uses(|r| {
                        changed |= !live[r.index()];
                        live[r.index()] = true;
                    });
                }
                _ => {}
            }
        }
    }
    let mut removed = 0;
    for block in &mut func.blocks {
        let before = block.instrs.len();
        block
            .instrs
            .retain(|i| i.has_side_effects() || i.def().is_none_or(|d| live[d.index()]));
        removed += before - block.instrs.len();
    }
    removed
}

/// DCE's CSR-worklist marking is precision-equal to the dense resweep, so
/// the rewritten functions must come out byte-identical. (Load
/// elimination's twin of this check lives beside the pass, in
/// `opt::loadelim`.)
#[test]
fn sparse_dce_rewrites_identically_to_dense() {
    let (_, tag_ids) = test_tags();
    let mut rng = Rng::new(0xD1FF_0000_0000_0003);
    for case in 0..300 {
        let func = random_function(&mut rng, &tag_ids);
        let mut f_sparse = func.clone();
        let mut f_dense = func.clone();
        let ns = opt::dce_function_in(
            &mut f_sparse,
            &mut sparse_cache(),
            &mut opt::DceScratch::default(),
        );
        let nd = model_dce(&mut f_dense);
        assert_eq!(ns, nd, "case {case}: dce removal counts diverged");
        assert_eq!(
            f_sparse, f_dense,
            "case {case}: dce output diverged\n{func:?}"
        );
    }
}

/// Adds φ-nodes to the head of random reachable blocks, one argument per
/// predecessor. An argument may name a register with no reaching
/// definition, and the φ may define a fresh register or redefine an old
/// one.
fn with_phis(rng: &mut Rng, mut func: Function) -> Function {
    let cfg = Cfg::build(&func);
    for &b in &cfg.rpo {
        let preds = &cfg.preds[b.index()];
        if preds.is_empty() || rng.below(2) == 0 {
            continue;
        }
        let dst = if rng.below(2) == 0 {
            func.next_reg += 1;
            Reg(func.next_reg - 1)
        } else {
            Reg(rng.below(func.next_reg as usize) as u32)
        };
        let args = preds
            .iter()
            .map(|&p| (p, Reg(rng.below(func.next_reg as usize) as u32)))
            .collect();
        func.blocks[b.index()]
            .instrs
            .insert(0, Instr::Phi { dst, args });
    }
    func
}

/// The lattice value `instr` assigns under `state`, for the instructions
/// `random_function` and `with_phis` emit.
fn model_eval(instr: &Instr, state: &[Lat]) -> Lat {
    let get = |r: &Reg| state[r.index()];
    match instr {
        Instr::IConst { value, .. } => Lat::Int(*value),
        Instr::Copy { src, .. } => get(src),
        Instr::Binary { op, lhs, rhs, .. } => match (get(lhs), get(rhs)) {
            (Lat::Int(a), Lat::Int(b)) => Lat::Int(match op {
                BinOp::Add => a.wrapping_add(b),
                BinOp::Mul => a.wrapping_mul(b),
                _ => unreachable!("random functions only add and multiply"),
            }),
            (Lat::Top, _) | (_, Lat::Top) => Lat::Top,
            _ => Lat::Bottom,
        },
        Instr::Phi { args, .. } => args.iter().fold(Lat::Top, |v, (_, r)| v.meet(get(r))),
        _ => Lat::Bottom,
    }
}

fn model_step(instr: &Instr, state: &mut [Lat]) {
    let v = model_eval(instr, state);
    if let Some(d) = instr.def() {
        state[d.index()] = v;
    }
}

/// A solved constant lattice over the full register width: which blocks
/// execute, and every register's value at each block entry.
struct ModelLattice {
    executable: Vec<bool>,
    input: Vec<Vec<Lat>>,
}

impl ModelLattice {
    /// Nothing executable yet, every entry value ⊤ — except the
    /// parameters, which are unknown at the entry.
    fn start(func: &Function) -> ModelLattice {
        let (n, nregs) = (func.blocks.len(), func.next_reg as usize);
        let mut input = vec![vec![Lat::Top; nregs]; n];
        input[func.entry.index()][..func.arity].fill(Lat::Bottom);
        ModelLattice {
            executable: vec![false; n],
            input,
        }
    }

    /// Marks `s` executable and meets `state` into its entry values;
    /// returns true if either changed.
    fn flow_into(&mut self, s: BlockId, state: &[Lat]) -> bool {
        let si = s.index();
        let mut changed = !self.executable[si];
        self.executable[si] = true;
        for (slot, v) in self.input[si].iter_mut().zip(state) {
            let m = slot.meet(*v);
            changed |= m != *slot;
            *slot = m;
        }
        changed
    }
}

/// The state at the end of block `bi` under `lat`.
fn model_exit(func: &Function, lat: &ModelLattice, bi: usize) -> Vec<Lat> {
    let mut state = lat.input[bi].clone();
    for instr in &func.blocks[bi].instrs {
        model_step(instr, &mut state);
    }
    state
}

/// The reference model of `opt::constprop_function_in`'s solver: SCCP with a
/// full-width state, a slot for every register at every block entry,
/// copied at each visit and met along each executable edge. Blocks pop in
/// reverse postorder, as from `cfg::BlockWorklist`: a branch on a ⊤
/// condition marks both edges, so the visit order is part of the answer.
fn model_sccp(func: &Function, cfg: &Cfg) -> ModelLattice {
    let mut lat = ModelLattice::start(func);
    let entry = func.entry.index();
    lat.executable[entry] = true;
    let mut queue = std::collections::BTreeSet::from([(cfg.rpo_index[entry], entry)]);
    while let Some((_, bi)) = queue.pop_first() {
        let state = model_exit(func, &lat, bi);
        let taken = match func.blocks[bi].instrs.last() {
            Some(Instr::Branch {
                cond,
                then_bb,
                else_bb,
            }) => match state[cond.index()] {
                Lat::Int(c) => Some(if c != 0 { *then_bb } else { *else_bb }),
                _ => None,
            },
            _ => None,
        };
        for &s in &cfg.succs[bi] {
            if taken.is_some_and(|t| t != s) {
                continue;
            }
            if lat.flow_into(s, &state) {
                queue.insert((cfg.rpo_index[s.index()], s.index()));
            }
        }
    }
    lat
}

/// The dense iterate-to-fixpoint sweep SCCP replaced: every CFG edge is
/// live, so every reachable block executes, and the reachable blocks are
/// swept in reverse postorder until no entry value changes. Counts one
/// transfer evaluation per instruction visited into `evals`.
fn model_dense_constants(func: &Function, cfg: &Cfg, evals: &mut u64) -> ModelLattice {
    let mut lat = ModelLattice::start(func);
    for &b in &cfg.rpo {
        lat.executable[b.index()] = true;
    }
    let mut changed = true;
    while changed {
        changed = false;
        for &b in &cfg.rpo {
            let bi = b.index();
            *evals += func.blocks[bi].instrs.len() as u64;
            let state = model_exit(func, &lat, bi);
            for &s in &cfg.succs[bi] {
                changed |= lat.flow_into(s, &state);
            }
        }
    }
    lat
}

/// Folds `func` under `lat` as `opt::constprop_function_in` does: constant
/// binary results become `iconst`, branches on constants become jumps,
/// blocks that do not execute stay untouched. Returns the rewrite count.
fn model_fold(func: &mut Function, cfg: &Cfg, lat: &ModelLattice) -> usize {
    let mut rewrites = 0;
    for &b in &cfg.rpo {
        let bi = b.index();
        if !lat.executable[bi] {
            continue;
        }
        let mut state = lat.input[bi].clone();
        for instr in &mut func.blocks[bi].instrs {
            let folded = match *instr {
                Instr::Binary { dst, .. } => match model_eval(instr, &state) {
                    Lat::Int(value) => Some(Instr::IConst { dst, value }),
                    _ => None,
                },
                Instr::Branch {
                    cond,
                    then_bb,
                    else_bb,
                } => match state[cond.index()] {
                    Lat::Int(c) => Some(Instr::Jump {
                        target: if c != 0 { then_bb } else { else_bb },
                    }),
                    _ => None,
                },
                _ => None,
            };
            model_step(instr, &mut state);
            if let Some(new) = folded.filter(|new| new != instr) {
                *instr = new;
                rewrites += 1;
            }
        }
    }
    rewrites
}

/// The reference model of `opt::constprop_function_in`: `model_sccp`
/// then `model_fold`.
fn model_constprop(func: &mut Function) -> usize {
    let cfg = Cfg::build(func);
    let lat = model_sccp(func, &cfg);
    model_fold(func, &cfg, &lat)
}

/// Conditional constant propagation is *deliberately* stronger than the
/// dense solver, but only in one direction. The lattice invariant: every
/// block the sparse solver marks executable is executable under dense
/// reachability, and on those blocks each register's sparse value is at
/// or above the dense value in the lattice order (meet(sparse, dense) ==
/// dense). A sparse value *below* dense means SCCP wrongly pruned a path
/// that feeds the join.
#[test]
fn sccp_lattice_dominates_dense_on_executable_blocks() {
    let (_, tag_ids) = test_tags();
    let mut rng = Rng::new(0xD1FF_0000_0000_0004);
    for case in 0..300 {
        let func = random_function(&mut rng, &tag_ids);
        let mut stats = DataflowStats::default();
        let cfg = Cfg::build(&func);
        let sparse = opt::analyze_constants(&func, &cfg, &mut stats);
        let dense = model_dense_constants(&func, &cfg, &mut 0);
        for bi in 0..func.blocks.len() {
            if !sparse.executable[bi] {
                continue;
            }
            assert!(
                dense.executable[bi],
                "case {case}: sparse marked block {bi} executable but dense did not"
            );
            for (r, (s, d)) in sparse.input[bi].iter().zip(&dense.input[bi]).enumerate() {
                assert_eq!(
                    Lat::meet(*s, *d),
                    *d,
                    "case {case}: r{r} at block {bi}: sparse {s:?} is not \
                     at-or-above dense {d:?}\n{func:?}"
                );
            }
        }
    }
}

/// SCCP keeps block-entry state only for registers some block reads
/// before defining them. No other register's entry value is ever read, so
/// the pass must fold exactly what the full-width model folds: on random
/// functions with φ-nodes, parameters and uses with no reaching
/// definition, the rewritten functions and the rewrite counts agree.
#[test]
fn constprop_folds_exactly_what_the_full_width_model_folds() {
    let (_, tag_ids) = test_tags();
    let mut rng = Rng::new(0xD1FF_0000_0000_0005);
    let mut total = 0;
    for case in 0..500 {
        let func = random_function(&mut rng, &tag_ids);
        let func = with_phis(&mut rng, func);
        let mut got = func.clone();
        let n = opt::constprop_function_in(
            &mut got,
            &mut sparse_cache(),
            &mut opt::ConstScratch::default(),
        );
        let mut want = func.clone();
        let m = model_constprop(&mut want);
        assert_eq!(n, m, "case {case}: rewrite counts diverged\n{func:?}");
        assert_eq!(got, want, "case {case}: folds diverged\n{func:?}");
        total += n;
    }
    assert!(total > 200, "the random functions fold too little: {total}");
}

/// The SCCP payoff the dense solver cannot deliver: a branch on a known
/// constant makes one arm non-executable, so the join only meets the
/// taken arm's value and the fold goes through. The dense solver joins
/// both arms and must leave the add alone.
#[test]
fn sccp_folds_through_a_dead_branch_arm_where_dense_cannot() {
    let build = || {
        let mut b = FunctionBuilder::new("f", 0);
        for _ in 0..3 {
            b.new_block();
        }
        // B0: c = 1; branch c, B1, B2
        let c = b.iconst(1);
        b.branch(c, BlockId(1), BlockId(2));
        // B1: x = 5; jump B3
        b.switch_to(BlockId(1));
        let x = b.iconst(5);
        b.emit(Instr::Copy {
            dst: Reg(9),
            src: x,
        });
        b.jump(BlockId(3));
        // B2 (dead): x' = 7; jump B3
        b.switch_to(BlockId(2));
        let y = b.iconst(7);
        b.emit(Instr::Copy {
            dst: Reg(9),
            src: y,
        });
        b.jump(BlockId(3));
        // B3: sum = r9 + r9; ret
        b.switch_to(BlockId(3));
        b.emit(Instr::Binary {
            op: BinOp::Add,
            dst: Reg(10),
            lhs: Reg(9),
            rhs: Reg(9),
        });
        b.ret(Some(Reg(10)));
        let mut f = b.finish();
        f.has_result = true;
        f.next_reg = f.next_reg.max(11);
        f
    };

    let mut f_sparse = build();
    opt::constprop_function_in(
        &mut f_sparse,
        &mut sparse_cache(),
        &mut opt::ConstScratch::default(),
    );
    let folded = f_sparse.blocks[3].instrs.iter().any(|i| {
        matches!(
            i,
            Instr::IConst {
                dst: Reg(10),
                value: 10
            }
        )
    });
    assert!(
        folded,
        "sparse constprop must fold r10 = r9 + r9 to 10 through the dead arm\n{f_sparse:?}"
    );

    let mut f_dense = build();
    let cfg = Cfg::build(&f_dense);
    let lat = model_dense_constants(&f_dense, &cfg, &mut 0);
    model_fold(&mut f_dense, &cfg, &lat);
    let folded = f_dense.blocks[3]
        .instrs
        .iter()
        .any(|i| matches!(i, Instr::IConst { dst: Reg(10), .. }));
    assert!(
        !folded,
        "dense constprop sees both arms (5 meet 7 = ⊥) and must not fold\n{f_dense:?}"
    );
}

/// The sparse solver never visits the dead arm of a constant branch; the
/// dense sweep treats every edge as live and sweeps every block until a
/// confirming pass changes nothing.
#[test]
fn sparse_constprop_skips_dead_work_the_dense_sweep_does() {
    let src = r#"
func @main(0) result {
B0:
  r0 = iconst 1
  branch r0, B1, B2
B1:
  r1 = iconst 5
  jump B3
B2:
  r1 = iconst 7
  jump B3
B3:
  r2 = add r1, r1
  ret r2
}
"#;
    let m = ir::parse_module(src).unwrap();
    let f = &m.funcs[0];
    let cfg = Cfg::build(f);
    let mut sparse = DataflowStats::default();
    let lat = opt::analyze_constants(f, &cfg, &mut sparse);
    let mut dense = 0;
    let dense_lat = model_dense_constants(f, &cfg, &mut dense);
    assert!(!lat.executable[2], "B2 is dead under SCCP");
    assert!(dense_lat.executable[2], "dense treats every edge as live");
    assert!(sparse.transfer_evals < dense);
}

/// Transfer evaluations the dense-resweep pipeline made on
/// `pipeline_agrees_with_the_reference_and_beats_dense_work`'s program,
/// measured before the dense solvers were retired; the sparse pipeline
/// made 140 on the same program.
const DENSE_PIPELINE_TRANSFER_EVALS: u64 = 302;

/// End to end: the full pipeline must print what the unoptimized
/// reference prints, and its solver work must stay strictly below what
/// the dense-resweep pipeline did on the same program.
#[test]
fn pipeline_agrees_with_the_reference_and_beats_dense_work() {
    let src = r#"
int g;
int h;
void bump() { h = h + 1; }
int main() {
    int i;
    int mode = 0;
    for (i = 0; i < 100; i++) {
        if (mode) { g = g + 2; } else { g = g + 1; }
        bump();
    }
    print_int(g);
    print_int(h);
    return 0;
}
"#;
    let run = |builder: driver::SessionBuilder| {
        let c = builder
            .threads(Some(1))
            .build()
            .compile(src)
            .expect("compiles");
        (c.run(VmOptions::default()).expect("runs"), c.report)
    };
    let (out, report) = run(driver::Session::builder());
    let (reference, _) = run(driver::Session::builder()
        .optimize(false)
        .promote(false)
        .regalloc(None));
    assert_eq!(out.output, reference.output, "pipeline diverged");
    assert_eq!(out.output, vec!["100", "100"]);
    assert!(
        report.dataflow_stats.transfer_evals < DENSE_PIPELINE_TRANSFER_EVALS,
        "sparse ({}) must do strictly less transfer work than dense ({})",
        report.dataflow_stats.transfer_evals,
        DENSE_PIPELINE_TRANSFER_EVALS
    );
}
