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
//! inclusion-constraint (Andersen-style) worklist. A reseated register
//! carries the union of its SSA versions' sets, so it is never sharper
//! than the paper's names and never misses one of their targets
//! (`tests/ssa_analysis_agreement.rs` checks every name on the suite).
//! What the sharper names were worth, 0.007% of executed loads, is
//! measured in `EXPERIMENTS.md`; the substitution is recorded in
//! `DESIGN.md` §8.7.

use crate::facts::{PointerFacts, Pts};
use cfg::DataflowStats;
use ir::{Callee, DenseTagSet, FuncId, Instr, Module, Reg};
use std::collections::{BTreeSet, VecDeque};

/// Runs the analysis to a fixpoint with the demand-driven solver.
pub fn analyze(module: &Module) -> PointerFacts {
    analyze_with(module, &mut DataflowStats::default())
}

/// The solver's sets: per function and register, and per tag for the
/// pointers *stored in* that tag's storage.
struct Sets {
    regs: Vec<Vec<Pts>>,
    cells: Vec<Pts>,
}

impl Sets {
    /// Empty points-to sets for every register and tag of `module`.
    fn new(module: &Module) -> Sets {
        Sets {
            regs: module
                .funcs
                .iter()
                .map(|f| vec![Pts::default(); f.next_reg as usize])
                .collect(),
            cells: vec![Pts::default(); module.tags.len()],
        }
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
pub fn analyze_with(module: &Module, stats: &mut DataflowStats) -> PointerFacts {
    PointerFacts {
        regs: solve(module, stats).regs,
    }
}

/// [`analyze_with`]'s solver; its per-tag cells are kept for the tests.
fn solve(module: &Module, stats: &mut DataflowStats) -> Sets {
    let nf = module.funcs.len();
    let mut sets = Sets::new(module);
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
                flow(module, &mut sets, &mut deps, fi, instr);
            }
        }
    }
    stats.worklist_pushes += deps.pushes;
    sets
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

    /// The current sweep read `cells[t]`.
    fn note_tag_read(&mut self, t: usize) {
        self.tag_readers[t].insert(self.current);
    }

    /// The current sweep read `g`'s return-value sets.
    fn note_ret_read(&mut self, g: usize) {
        self.ret_readers[g].insert(self.current);
    }

    /// `cells[t]` grew: re-run everyone who ever read it.
    fn tag_grew(&mut self, t: usize) {
        for f in self.tag_readers[t].clone() {
            self.enqueue(f);
        }
    }

    /// `regs[g][r]` grew: `g`'s own transfers may read it, and if it is
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
fn flow(module: &Module, sets: &mut Sets, deps: &mut Deps, fi: usize, instr: &Instr) -> bool {
    let reg = |sets: &Sets, r: &Reg| sets.regs[fi][r.index()].clone();
    // An instruction that defines a register computes what flows into it;
    // the tail below grows the register and notifies its readers.
    let (dst, s) = match instr {
        Instr::Lea { dst, tag } | Instr::Alloc { dst, site: tag, .. } => (
            dst,
            Pts {
                tags: DenseTagSet::singleton(*tag),
                funcs: BTreeSet::new(),
            },
        ),
        Instr::FuncAddr { dst, func } => (
            dst,
            Pts {
                tags: DenseTagSet::new(),
                funcs: BTreeSet::from([*func]),
            },
        ),
        Instr::Copy { dst, src }
        | Instr::Unary { dst, src, .. }
        | Instr::PtrAdd { dst, base: src, .. } => (dst, reg(sets, src)),
        Instr::Binary { dst, lhs, rhs, .. } => {
            // Conservative: arithmetic may smuggle a pointer through int
            // cells (MiniC permits pointer<->int flows).
            let mut s = reg(sets, lhs);
            s.union_with(&sets.regs[fi][rhs.index()]);
            (dst, s)
        }
        Instr::Phi { dst, args } => {
            let mut s = Pts::default();
            for (_, r) in args {
                s.union_with(&sets.regs[fi][r.index()]);
            }
            (dst, s)
        }
        Instr::SLoad { dst, tag } | Instr::CLoad { dst, tag } => {
            deps.note_tag_read(tag.index());
            (dst, sets.cells[tag.index()].clone())
        }
        Instr::Load { dst, addr, .. } => {
            let mut s = Pts::default();
            for t in sets.regs[fi][addr.index()].tags.iter() {
                deps.note_tag_read(t.index());
                s.union_with(&sets.cells[t.index()]);
            }
            (dst, s)
        }
        Instr::SStore { src, tag } => {
            let grew = sets.cells[tag.index()].union_with(&sets.regs[fi][src.index()]);
            if grew {
                deps.tag_grew(tag.index());
            }
            return grew;
        }
        Instr::Store { src, addr, .. } => {
            let Sets { regs, cells } = sets;
            let mut changed = false;
            for t in regs[fi][addr.index()].tags.iter() {
                if cells[t.index()].union_with(&regs[fi][src.index()]) {
                    deps.tag_grew(t.index());
                    changed = true;
                }
            }
            return changed;
        }
        Instr::Call {
            dst, callee, args, ..
        } => {
            // Parameter binding and result flow, context-insensitively.
            let targets: Vec<FuncId> = match callee {
                Callee::Direct(g) => vec![*g],
                Callee::Indirect(r) => sets.regs[fi][r.index()].funcs.iter().copied().collect(),
                Callee::Intrinsic(_) => return false,
            };
            let mut changed = false;
            for g in targets {
                let callee_fn = module.func(g);
                for (i, a) in args.iter().enumerate().take(callee_fn.arity) {
                    let s = reg(sets, a);
                    if sets.regs[g.index()][i].union_with(&s) {
                        deps.reg_grew(g.index(), i);
                        changed = true;
                    }
                }
                if let Some(d) = dst {
                    // Union of all values returned by g.
                    deps.note_ret_read(g.index());
                    let mut rets = Pts::default();
                    for block in &callee_fn.blocks {
                        if let Some(Instr::Ret { value: Some(r) }) = block.instrs.last() {
                            rets.union_with(&sets.regs[g.index()][r.index()]);
                        }
                    }
                    if sets.regs[fi][d.index()].union_with(&rets) {
                        deps.reg_grew(fi, d.index());
                        changed = true;
                    }
                }
            }
            return changed;
        }
        _ => return false,
    };
    let grew = sets.regs[fi][dst.index()].union_with(&s);
    if grew {
        deps.reg_grew(fi, dst.index());
    }
    grew
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir::{TagId, TagSet};

    fn compile(src: &str) -> Module {
        minic::compile(src).expect("compile")
    }

    /// The round-robin solver the demand-driven one replaced: sweep every
    /// instruction in the module until nothing grows. Its subscriptions
    /// are recorded but never consulted.
    fn analyze_dense(module: &Module, stats: &mut DataflowStats) -> Sets {
        let mut sets = Sets::new(module);
        let mut deps = Deps::new(module);
        let mut changed = true;
        while changed {
            changed = false;
            for fi in 0..module.funcs.len() {
                stats.blocks_visited += 1;
                for block in &module.funcs[fi].blocks {
                    for instr in &block.instrs {
                        stats.transfer_evals += 1;
                        changed |= flow(module, &mut sets, &mut deps, fi, instr);
                    }
                }
            }
        }
        sets
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
        analyze(&m).install(&mut m);
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
        analyze(&m).install(&mut m);
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
        analyze(&m).install(&mut m);
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
        analyze(&m).install(&mut m);
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
        analyze(&m).install(&mut m);
        let s = first_store_tags(&m, "main");
        assert_eq!(s.as_singleton(), Some(tag(&m, "g:target")));
    }

    #[test]
    fn function_pointers_resolve_indirect_calls() {
        let mut m = compile(
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
        let (graph, _) = analyze(&m).install(&mut m);
        let main = m.main().unwrap();
        let f1 = m.lookup_func("f1").unwrap();
        let f2 = m.lookup_func("f2").unwrap();
        assert_eq!(graph.callees[main.index()], BTreeSet::from([f1, f2]));
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
        let sparse = solve(&m, &mut sparse_stats);
        let mut dense_stats = DataflowStats::default();
        let dense = analyze_dense(&m, &mut dense_stats);
        assert_eq!(sparse.regs, dense.regs);
        assert_eq!(sparse.cells, dense.cells);
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
        analyze(&m).install(&mut m);
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
            let sparse = solve(&module, &mut stats);
            let dense = analyze_dense(&module, &mut stats);
            assert_eq!(
                sparse.regs, dense.regs,
                "program {i}: register points-to sets diverged"
            );
            assert_eq!(
                sparse.cells, dense.cells,
                "program {i}: tag points-to sets diverged"
            );
        }
    }
}
