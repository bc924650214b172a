//! Whole-program points-to analysis.
//!
//! Modeled on the analysis the paper built (after Ruf): whole-program,
//! context-insensitive, heap split by allocation site, explicit names for
//! non-local memory, recursion approximated by collapsing an addressed
//! local of a recursive function onto one name (which our tag scheme does
//! by construction — one tag names every activation's instance, so strong
//! updates are never performed).
//!
//! Where the paper converts each function to SSA form and propagates over
//! SSA names, we propagate over virtual registers with an
//! inclusion-constraint (Andersen-style) worklist; for the pointer
//! variables our front end produces, register granularity loses no
//! precision that the paper's experiments depend on — the substitution is
//! recorded in `DESIGN.md`.

use cfg::DataflowStats;
use ir::{Callee, DenseTagSet, FuncId, Instr, Module, Reg, TagId};
use std::collections::{BTreeSet, VecDeque};

/// An abstract pointer target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Target {
    /// The storage named by a tag.
    Tag(TagId),
    /// A function (for function pointers / indirect calls).
    Func(FuncId),
}

/// The result of points-to analysis.
#[derive(Debug, Clone)]
pub struct PointsTo {
    /// Per function, per register: the set of targets the register may
    /// point to.
    pub reg_pts: Vec<Vec<BTreeSet<Target>>>,
    /// Per tag: the targets that pointers *stored in* that storage may
    /// point to.
    pub tag_pts: Vec<BTreeSet<Target>>,
}

impl PointsTo {
    /// The tags register `r` of function `f` may address.
    pub fn reg_tags(&self, f: FuncId, r: Reg) -> DenseTagSet {
        self.reg_pts[f.index()][r.index()]
            .iter()
            .filter_map(|t| match t {
                Target::Tag(t) => Some(*t),
                Target::Func(_) => None,
            })
            .collect()
    }

    /// The functions register `r` of function `f` may target.
    pub fn reg_funcs(&self, f: FuncId, r: Reg) -> BTreeSet<FuncId> {
        self.reg_pts[f.index()][r.index()]
            .iter()
            .filter_map(|t| match t {
                Target::Func(g) => Some(*g),
                Target::Tag(_) => None,
            })
            .collect()
    }

    /// Per-call-site indirect targets, keyed by `(caller index, target
    /// register)` — the precision MOD/REF installation needs.
    pub fn site_targets(&self, module: &Module) -> crate::SiteTargets {
        let mut out = crate::SiteTargets::new();
        for (fi, func) in module.funcs.iter().enumerate() {
            for block in &func.blocks {
                for instr in &block.instrs {
                    if let Instr::Call {
                        callee: Callee::Indirect(r),
                        ..
                    } = instr
                    {
                        out.insert((fi as u32, *r), self.reg_funcs(FuncId(fi as u32), *r));
                    }
                }
            }
        }
        out
    }

    /// Indirect-call target sets per function (union over that function's
    /// indirect call sites), for rebuilding a sharper call graph.
    pub fn indirect_targets(&self, module: &Module) -> Vec<BTreeSet<FuncId>> {
        let mut out = vec![BTreeSet::new(); module.funcs.len()];
        for (fi, func) in module.funcs.iter().enumerate() {
            for block in &func.blocks {
                for instr in &block.instrs {
                    if let Instr::Call {
                        callee: Callee::Indirect(r),
                        ..
                    } = instr
                    {
                        out[fi].extend(self.reg_funcs(FuncId(fi as u32), *r));
                    }
                }
            }
        }
        out
    }
}

/// Runs the analysis to a fixpoint with the demand-driven solver.
pub fn analyze(module: &Module) -> PointsTo {
    analyze_with(module, &mut DataflowStats::default())
}

/// Empty points-to sets for every register and tag of `module`.
fn empty_sets(module: &Module) -> PointsTo {
    PointsTo {
        reg_pts: module
            .funcs
            .iter()
            .map(|f| vec![BTreeSet::new(); f.next_reg as usize])
            .collect(),
        tag_pts: vec![BTreeSet::new(); module.tags.len()],
    }
}

/// Runs the analysis to a fixpoint, counting work into `stats`.
///
/// The solver is demand-driven: a function-level worklist with *dynamic
/// subscriptions*. Each sweep of a function records which tag cells and
/// which callees' return values its transfer functions read; when one of
/// those sets later grows, only the subscribed functions are re-swept. A
/// function also re-sweeps itself while its own register sets are still
/// growing (intra-function chains and loops).
pub fn analyze_with(module: &Module, stats: &mut DataflowStats) -> PointsTo {
    let nf = module.funcs.len();
    let mut pt = empty_sets(module);
    let mut deps = Deps::new(module);
    // Seed every function once, in index order (deterministic).
    for fi in 0..nf {
        deps.enqueue(fi);
    }
    let mut guard = 0usize;
    while let Some(fi) = deps.queue.pop_front() {
        deps.queued[fi] = false;
        deps.current = fi;
        stats.blocks_visited += 1;
        guard += 1;
        assert!(guard <= 10_000 * nf.max(1), "points-to failed to converge");
        for block in &module.funcs[fi].blocks {
            for instr in &block.instrs {
                stats.transfer_evals += 1;
                flow(module, &mut pt, &mut deps, fi, instr);
            }
        }
    }
    stats.worklist_pushes += deps.pushes;
    pt
}

/// Dynamic dependencies for the demand-driven solver: who has to re-run
/// when a points-to set grows.
struct Deps {
    /// Per tag: functions whose transfer read the tag's points-to set.
    tag_readers: Vec<BTreeSet<usize>>,
    /// Per function: callers that read its return-value points-to sets.
    ret_readers: Vec<BTreeSet<usize>>,
    /// Per function: register indices its `ret` instructions return.
    ret_regs: Vec<BTreeSet<usize>>,
    queue: VecDeque<usize>,
    queued: Vec<bool>,
    /// The function currently being swept (subscriptions attach to it).
    current: usize,
    pushes: u64,
}

impl Deps {
    fn new(module: &Module) -> Deps {
        let nf = module.funcs.len();
        let mut ret_regs = vec![BTreeSet::new(); nf];
        for (fi, func) in module.funcs.iter().enumerate() {
            for block in &func.blocks {
                if let Some(Instr::Ret { value: Some(r) }) = block.instrs.last() {
                    ret_regs[fi].insert(r.index());
                }
            }
        }
        Deps {
            tag_readers: vec![BTreeSet::new(); module.tags.len()],
            ret_readers: vec![BTreeSet::new(); nf],
            ret_regs,
            queue: VecDeque::new(),
            queued: vec![false; nf],
            current: 0,
            pushes: 0,
        }
    }

    fn enqueue(&mut self, f: usize) {
        if self.queued[f] {
            return;
        }
        self.queued[f] = true;
        self.pushes += 1;
        self.queue.push_back(f);
    }

    /// The current sweep read `tag_pts[t]`.
    fn note_tag_read(&mut self, t: usize) {
        self.tag_readers[t].insert(self.current);
    }

    /// The current sweep read `g`'s return-value sets.
    fn note_ret_read(&mut self, g: usize) {
        self.ret_readers[g].insert(self.current);
    }

    /// `tag_pts[t]` grew: re-run everyone who ever read it.
    fn tag_grew(&mut self, t: usize) {
        for f in self.tag_readers[t].clone() {
            self.enqueue(f);
        }
    }

    /// `reg_pts[g][r]` grew: `g`'s own transfers may read it, and if it is
    /// a return register, so may every caller of `g`.
    fn reg_grew(&mut self, g: usize, r: usize) {
        self.enqueue(g);
        if self.ret_regs[g].contains(&r) {
            for f in self.ret_readers[g].clone() {
                self.enqueue(f);
            }
        }
    }
}

/// Applies one instruction's transfer function; returns true if anything
/// grew. Growth and reads are reported to `deps` so the demand-driven
/// solver knows what to re-run.
fn flow(module: &Module, pt: &mut PointsTo, deps: &mut Deps, fi: usize, instr: &Instr) -> bool {
    fn add(dst: &mut BTreeSet<Target>, items: &BTreeSet<Target>) -> bool {
        let before = dst.len();
        dst.extend(items.iter().copied());
        dst.len() != before
    }
    fn add_one(dst: &mut BTreeSet<Target>, t: Target) -> bool {
        dst.insert(t)
    }
    let regs = |pt: &PointsTo, r: Reg| pt.reg_pts[fi][r.index()].clone();
    match instr {
        Instr::Lea { dst, tag } => {
            let grew = add_one(&mut pt.reg_pts[fi][dst.index()], Target::Tag(*tag));
            if grew {
                deps.reg_grew(fi, dst.index());
            }
            grew
        }
        Instr::Alloc { dst, site, .. } => {
            let grew = add_one(&mut pt.reg_pts[fi][dst.index()], Target::Tag(*site));
            if grew {
                deps.reg_grew(fi, dst.index());
            }
            grew
        }
        Instr::FuncAddr { dst, func } => {
            let grew = add_one(&mut pt.reg_pts[fi][dst.index()], Target::Func(*func));
            if grew {
                deps.reg_grew(fi, dst.index());
            }
            grew
        }
        Instr::Copy { dst, src } | Instr::Unary { dst, src, .. } => {
            let s = regs(pt, *src);
            let grew = add(&mut pt.reg_pts[fi][dst.index()], &s);
            if grew {
                deps.reg_grew(fi, dst.index());
            }
            grew
        }
        Instr::PtrAdd { dst, base, .. } => {
            let s = regs(pt, *base);
            let grew = add(&mut pt.reg_pts[fi][dst.index()], &s);
            if grew {
                deps.reg_grew(fi, dst.index());
            }
            grew
        }
        Instr::Binary { dst, lhs, rhs, .. } => {
            // Conservative: arithmetic may smuggle a pointer through int
            // cells (MiniC permits pointer<->int flows).
            let mut s = regs(pt, *lhs);
            s.extend(regs(pt, *rhs));
            let grew = add(&mut pt.reg_pts[fi][dst.index()], &s);
            if grew {
                deps.reg_grew(fi, dst.index());
            }
            grew
        }
        Instr::Phi { dst, args } => {
            let mut s = BTreeSet::new();
            for (_, r) in args {
                s.extend(regs(pt, *r));
            }
            let grew = add(&mut pt.reg_pts[fi][dst.index()], &s);
            if grew {
                deps.reg_grew(fi, dst.index());
            }
            grew
        }
        Instr::SLoad { dst, tag } | Instr::CLoad { dst, tag } => {
            deps.note_tag_read(tag.index());
            let s = pt.tag_pts[tag.index()].clone();
            let grew = add(&mut pt.reg_pts[fi][dst.index()], &s);
            if grew {
                deps.reg_grew(fi, dst.index());
            }
            grew
        }
        Instr::SStore { src, tag } => {
            let s = regs(pt, *src);
            let grew = add(&mut pt.tag_pts[tag.index()], &s);
            if grew {
                deps.tag_grew(tag.index());
            }
            grew
        }
        Instr::Load { dst, addr, .. } => {
            let mut s = BTreeSet::new();
            for t in regs(pt, *addr) {
                if let Target::Tag(t) = t {
                    deps.note_tag_read(t.index());
                    s.extend(pt.tag_pts[t.index()].iter().copied());
                }
            }
            let grew = add(&mut pt.reg_pts[fi][dst.index()], &s);
            if grew {
                deps.reg_grew(fi, dst.index());
            }
            grew
        }
        Instr::Store { src, addr, .. } => {
            let vals = regs(pt, *src);
            let mut changed = false;
            for t in regs(pt, *addr) {
                if let Target::Tag(t) = t {
                    if add(&mut pt.tag_pts[t.index()], &vals) {
                        deps.tag_grew(t.index());
                        changed = true;
                    }
                }
            }
            changed
        }
        Instr::Call {
            dst, callee, args, ..
        } => {
            // Parameter binding and result flow, context-insensitively.
            let targets: Vec<FuncId> = match callee {
                Callee::Direct(g) => vec![*g],
                Callee::Indirect(r) => pt.reg_pts[fi][r.index()]
                    .iter()
                    .filter_map(|t| match t {
                        Target::Func(g) => Some(*g),
                        _ => None,
                    })
                    .collect(),
                Callee::Intrinsic(_) => return false,
            };
            let mut changed = false;
            for g in targets {
                let callee_fn = module.func(g);
                for (i, a) in args.iter().enumerate().take(callee_fn.arity) {
                    let s = regs(pt, *a);
                    if add(&mut pt.reg_pts[g.index()][i], &s) {
                        deps.reg_grew(g.index(), i);
                        changed = true;
                    }
                }
                if let Some(d) = dst {
                    // Union of all values returned by g.
                    deps.note_ret_read(g.index());
                    let mut rets = BTreeSet::new();
                    for block in &callee_fn.blocks {
                        if let Some(Instr::Ret { value: Some(r) }) = block.instrs.last() {
                            rets.extend(pt.reg_pts[g.index()][r.index()].iter().copied());
                        }
                    }
                    if add(&mut pt.reg_pts[fi][d.index()], &rets) {
                        deps.reg_grew(fi, d.index());
                        changed = true;
                    }
                }
            }
            changed
        }
        _ => false,
    }
}

/// Uses points-to results to shrink pointer-op tag sets in place.
///
/// Each `load`/`store` through register `r` gets
/// `pts(r) ∩ current tag set`; an empty points-to set (a pointer the
/// analysis never saw created) conservatively keeps the current set.
pub fn apply(module: &mut Module, pt: &PointsTo) {
    for fi in 0..module.funcs.len() {
        let f = FuncId(fi as u32);
        for bi in 0..module.funcs[fi].blocks.len() {
            for ii in 0..module.funcs[fi].blocks[bi].instrs.len() {
                let instr = &module.funcs[fi].blocks[bi].instrs[ii];
                let (addr, old) = match instr {
                    Instr::Load { addr, tags, .. } | Instr::Store { addr, tags, .. } => {
                        (*addr, tags.clone())
                    }
                    _ => continue,
                };
                let pts = pt.reg_tags(f, addr);
                if pts.is_empty() {
                    continue;
                }
                let new = old.intersect_universe(&pts);
                match &mut module.funcs[fi].blocks[bi].instrs[ii] {
                    Instr::Load { tags, .. } | Instr::Store { tags, .. } => *tags = new,
                    _ => unreachable!(),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir::TagSet;

    fn compile(src: &str) -> Module {
        minic::compile(src).expect("compile")
    }

    /// The round-robin solver the demand-driven one replaced: sweep every
    /// instruction in the module until nothing grows. Its subscriptions
    /// are recorded but never consulted.
    fn analyze_dense(module: &Module, stats: &mut DataflowStats) -> PointsTo {
        let mut pt = empty_sets(module);
        let mut deps = Deps::new(module);
        let mut changed = true;
        while changed {
            changed = false;
            for fi in 0..module.funcs.len() {
                stats.blocks_visited += 1;
                for block in &module.funcs[fi].blocks {
                    for instr in &block.instrs {
                        stats.transfer_evals += 1;
                        changed |= flow(module, &mut pt, &mut deps, fi, instr);
                    }
                }
            }
        }
        pt
    }

    fn tag(m: &Module, name: &str) -> TagId {
        m.tags.lookup(name).unwrap_or_else(|| panic!("tag {name}"))
    }

    /// Find the tag set of the first Store in a function.
    fn first_store_tags(m: &Module, func: &str) -> TagSet {
        let f = m.func(m.lookup_func(func).unwrap());
        f.blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .find_map(|i| match i {
                Instr::Store { tags, .. } => Some(tags.clone()),
                _ => None,
            })
            .expect("store")
    }

    #[test]
    fn distinguishes_two_pointers() {
        let mut m = compile(
            r#"
int main() {
    int x = 0;
    int y = 0;
    int *p = &x;
    int *q = &y;
    *p = 1;
    *q = 2;
    return x + y;
}
"#,
        );
        let pt = analyze(&m);
        apply(&mut m, &pt);
        let x_tag = tag(&m, "main.x");
        let y_tag = tag(&m, "main.y");
        let main = m.func(m.main().unwrap());
        let stores: Vec<TagSet> = main
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .filter_map(|i| match i {
                Instr::Store { tags, .. } => Some(tags.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(stores.len(), 2);
        assert_eq!(stores[0].as_singleton(), Some(x_tag));
        assert_eq!(stores[1].as_singleton(), Some(y_tag));
    }

    #[test]
    fn merges_at_join_points() {
        let mut m = compile(
            r#"
int pick;
int main() {
    int x = 0;
    int y = 0;
    int *p;
    if (pick) { p = &x; } else { p = &y; }
    *p = 1;
    return x + y;
}
"#,
        );
        let pt = analyze(&m);
        apply(&mut m, &pt);
        let s = first_store_tags(&m, "main");
        assert!(s.contains(tag(&m, "main.x")));
        assert!(s.contains(tag(&m, "main.y")));
        assert_eq!(s.len(), Some(2));
    }

    #[test]
    fn flows_through_parameters() {
        let mut m = compile(
            r#"
void set(int *p) { *p = 7; }
int main() {
    int a = 0;
    set(&a);
    return a;
}
"#,
        );
        let pt = analyze(&m);
        apply(&mut m, &pt);
        let s = first_store_tags(&m, "set");
        assert_eq!(s.as_singleton(), Some(tag(&m, "main.a")));
    }

    #[test]
    fn heap_sites_are_distinguished() {
        let mut m = compile(
            r#"
int main() {
    int *p = malloc(4);
    int *q = malloc(4);
    p[0] = 1;
    q[0] = 2;
    return p[0] + q[0];
}
"#,
        );
        let pt = analyze(&m);
        apply(&mut m, &pt);
        let main = m.func(m.main().unwrap());
        let stores: Vec<TagSet> = main
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .filter_map(|i| match i {
                Instr::Store { tags, .. } => Some(tags.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(stores[0].as_singleton(), Some(tag(&m, "heap@0")));
        assert_eq!(stores[1].as_singleton(), Some(tag(&m, "heap@1")));
    }

    #[test]
    fn pointers_stored_in_memory_flow_back_out() {
        let mut m = compile(
            r#"
int *cell;
int target;
int main() {
    cell = &target;
    int *p = cell;
    *p = 3;
    return target;
}
"#,
        );
        let pt = analyze(&m);
        apply(&mut m, &pt);
        let s = first_store_tags(&m, "main");
        assert_eq!(s.as_singleton(), Some(tag(&m, "g:target")));
    }

    #[test]
    fn function_pointers_resolve_indirect_calls() {
        let m = compile(
            r#"
int f1(int x) { return x + 1; }
int f2(int x) { return x + 2; }
int main() {
    func g = f1;
    if (g(0)) { g = &f2; }
    return g(1);
}
"#,
        );
        let pt = analyze(&m);
        let targets = pt.indirect_targets(&m);
        let main = m.main().unwrap();
        let f1 = m.lookup_func("f1").unwrap();
        let f2 = m.lookup_func("f2").unwrap();
        assert!(targets[main.index()].contains(&f1));
        assert!(targets[main.index()].contains(&f2));
    }

    #[test]
    fn demand_driven_matches_dense_and_does_less_work() {
        // Multi-function program with stores through memory, parameter
        // flow, return flow, and an indirect call — every subscription
        // kind the demand-driven solver tracks.
        let m = compile(
            r#"
int *cell;
int target;
int slot;
int *give() { return &slot; }
void set(int *p) { *p = 7; }
int pad1() { return 1; }
int pad2() { return 2; }
int pad3() { return 3; }
int main() {
    cell = &target;
    int *p = cell;
    *p = 3;
    int *q = give();
    set(q);
    func g = pad1;
    if (pad2()) { g = &pad3; }
    return g(0);
}
"#,
        );
        let mut sparse_stats = DataflowStats::default();
        let sparse = analyze_with(&m, &mut sparse_stats);
        let mut dense_stats = DataflowStats::default();
        let dense = analyze_dense(&m, &mut dense_stats);
        assert_eq!(sparse.reg_pts, dense.reg_pts);
        assert_eq!(sparse.tag_pts, dense.tag_pts);
        assert!(
            sparse_stats.transfer_evals < dense_stats.transfer_evals,
            "sparse {} >= dense {}",
            sparse_stats.transfer_evals,
            dense_stats.transfer_evals
        );
    }

    #[test]
    fn return_values_carry_pointers() {
        let mut m = compile(
            r#"
int slot;
int *give() { return &slot; }
int main() {
    int *p = give();
    *p = 9;
    return slot;
}
"#,
        );
        let pt = analyze(&m);
        apply(&mut m, &pt);
        let s = first_store_tags(&m, "main");
        assert_eq!(s.as_singleton(), Some(tag(&m, "g:slot")));
    }

    /// The demand-driven solver must reach exactly the dense round-robin
    /// fixpoint on whole programs, including function pointers flowing
    /// through globals and return values crossing function boundaries.
    #[test]
    fn demand_driven_points_to_matches_dense_on_minic_programs() {
        let programs = [
            r#"
int g;
int *p;
int pick;
int deref() { return *p; }
void setup() { p = &g; }
int main() {
    setup();
    g = 41;
    if (pick) { g = g + 1; }
    print_int(deref());
    return 0;
}
"#,
            r#"
int a;
int b;
int apply(int x) { return x + a; }
int twice(int x) { return apply(apply(x)); }
int main() {
    a = 3;
    b = twice(4);
    print_int(b);
    return 0;
}
"#,
        ];
        for (i, src) in programs.iter().enumerate() {
            let module = compile(src);
            let mut stats = DataflowStats::default();
            let sparse = analyze_with(&module, &mut stats);
            let dense = analyze_dense(&module, &mut stats);
            assert_eq!(
                sparse.reg_pts, dense.reg_pts,
                "program {i}: register points-to sets diverged"
            );
            assert_eq!(
                sparse.tag_pts, dense.tag_pts,
                "program {i}: tag points-to sets diverged"
            );
        }
    }
}
