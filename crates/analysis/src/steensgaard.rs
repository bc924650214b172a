//! Steensgaard-style unification-based points-to analysis.
//!
//! The paper's related-work section cites Steensgaard's almost-linear-time
//! flow-insensitive analysis; we implement it as an **ablation level**
//! between plain MOD/REF and the inclusion-based points-to analysis, to
//! measure how much promotion benefit each notch of precision buys.

use crate::facts::{PointerFacts, Pts};
use ir::{Callee, DenseTagSet, FuncId, Instr, Module, TagId};
use std::collections::BTreeSet;

/// Union-find node index.
type Node = usize;

struct Uf {
    parent: Vec<Node>,
    /// The single points-to successor of each equivalence class.
    pts: Vec<Option<Node>>,
    /// Functions contained in each class (for indirect-call targets).
    funcs: Vec<BTreeSet<FuncId>>,
}

impl Uf {
    fn new() -> Self {
        Uf {
            parent: Vec::new(),
            pts: Vec::new(),
            funcs: Vec::new(),
        }
    }

    fn fresh(&mut self) -> Node {
        let n = self.parent.len();
        self.parent.push(n);
        self.pts.push(None);
        self.funcs.push(BTreeSet::new());
        n
    }

    fn find(&mut self, mut x: Node) -> Node {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    /// Recursively unifies two classes and their points-to successors.
    fn unify(&mut self, a: Node, b: Node) {
        let (a, b) = (self.find(a), self.find(b));
        if a == b {
            return;
        }
        self.parent[b] = a;
        let fb = std::mem::take(&mut self.funcs[b]);
        self.funcs[a].extend(fb);
        match (self.pts[a], self.pts[b]) {
            (Some(pa), Some(pb)) => self.unify(pa, pb),
            (None, Some(pb)) => self.pts[a] = Some(pb),
            _ => {}
        }
    }

    /// The points-to successor of `x`'s class, created on demand.
    fn pt(&mut self, x: Node) -> Node {
        let r = self.find(x);
        match self.pts[r] {
            Some(p) => self.find(p),
            None => {
                let p = self.fresh();
                self.pts[r] = Some(p);
                p
            }
        }
    }
}

/// Runs the unification analysis.
pub fn analyze(module: &Module) -> PointerFacts {
    let mut uf = Uf::new();
    // One node per tag...
    let tag_node: Vec<Node> = (0..module.tags.len()).map(|_| uf.fresh()).collect();
    // ...and one per register of each function.
    let reg_node: Vec<Vec<Node>> = module
        .funcs
        .iter()
        .map(|f| (0..f.next_reg as usize).map(|_| uf.fresh()).collect())
        .collect();
    // Function objects get nodes so function pointers unify meaningfully.
    let func_node: Vec<Node> = (0..module.funcs.len())
        .map(|i| {
            let n = uf.fresh();
            uf.funcs[n].insert(FuncId(i as u32));
            n
        })
        .collect();

    // A single pass establishes all constraints (unification is symmetric
    // and order-independent) except those of indirect calls, whose target
    // sets grow as classes merge. So the passes repeat until one resolves
    // no new target. Target sets only grow, so a pass that resolves as
    // many targets as the one before saw the same targets at every call
    // site: every unification it made had been made already, and the
    // classes are final.
    let mut resolved_before = None;
    loop {
        let mut resolved = 0;
        for (fi, func) in module.funcs.iter().enumerate() {
            for block in &func.blocks {
                for instr in &block.instrs {
                    match instr {
                        Instr::Lea { dst, tag } => {
                            let p = uf.pt(reg_node[fi][dst.index()]);
                            uf.unify(p, tag_node[tag.index()]);
                        }
                        Instr::Alloc { dst, site, .. } => {
                            let p = uf.pt(reg_node[fi][dst.index()]);
                            uf.unify(p, tag_node[site.index()]);
                        }
                        Instr::FuncAddr { dst, func: g } => {
                            let p = uf.pt(reg_node[fi][dst.index()]);
                            uf.unify(p, func_node[g.index()]);
                        }
                        Instr::Copy { dst, src } | Instr::Unary { dst, src, .. } => {
                            let pd = uf.pt(reg_node[fi][dst.index()]);
                            let ps = uf.pt(reg_node[fi][src.index()]);
                            uf.unify(pd, ps);
                        }
                        Instr::PtrAdd { dst, base, .. } => {
                            let pd = uf.pt(reg_node[fi][dst.index()]);
                            let ps = uf.pt(reg_node[fi][base.index()]);
                            uf.unify(pd, ps);
                        }
                        Instr::Binary { dst, lhs, rhs, .. } => {
                            let pd = uf.pt(reg_node[fi][dst.index()]);
                            let pl = uf.pt(reg_node[fi][lhs.index()]);
                            let pr = uf.pt(reg_node[fi][rhs.index()]);
                            uf.unify(pd, pl);
                            uf.unify(pd, pr);
                        }
                        Instr::Phi { dst, args } => {
                            let pd = uf.pt(reg_node[fi][dst.index()]);
                            for (_, r) in args {
                                let pr = uf.pt(reg_node[fi][r.index()]);
                                uf.unify(pd, pr);
                            }
                        }
                        Instr::SLoad { dst, tag } | Instr::CLoad { dst, tag } => {
                            // dst = *tag-cell: unify pt(dst) with pt(tag).
                            let pd = uf.pt(reg_node[fi][dst.index()]);
                            let pc = uf.pt(tag_node[tag.index()]);
                            uf.unify(pd, pc);
                        }
                        Instr::SStore { src, tag } => {
                            let ps = uf.pt(reg_node[fi][src.index()]);
                            let pc = uf.pt(tag_node[tag.index()]);
                            uf.unify(ps, pc);
                        }
                        Instr::Load { dst, addr, .. } => {
                            let pd = uf.pt(reg_node[fi][dst.index()]);
                            let pa = uf.pt(reg_node[fi][addr.index()]);
                            let ppa = uf.pt(pa);
                            uf.unify(pd, ppa);
                        }
                        Instr::Store { src, addr, .. } => {
                            let ps = uf.pt(reg_node[fi][src.index()]);
                            let pa = uf.pt(reg_node[fi][addr.index()]);
                            let ppa = uf.pt(pa);
                            uf.unify(ps, ppa);
                        }
                        Instr::Call {
                            dst, callee, args, ..
                        } => {
                            let targets: Vec<FuncId> = match callee {
                                Callee::Direct(g) => vec![*g],
                                Callee::Indirect(r) => {
                                    let p = uf.pt(reg_node[fi][r.index()]);
                                    resolved += uf.funcs[p].len();
                                    uf.funcs[p].iter().copied().collect()
                                }
                                Callee::Intrinsic(_) => continue,
                            };
                            for g in targets {
                                let callee_fn = module.func(g);
                                for (i, a) in args.iter().enumerate().take(callee_fn.arity) {
                                    let pa = uf.pt(reg_node[fi][a.index()]);
                                    let pp = uf.pt(reg_node[g.index()][i]);
                                    uf.unify(pa, pp);
                                }
                                if let Some(d) = dst {
                                    for block in &callee_fn.blocks {
                                        if let Some(Instr::Ret { value: Some(r) }) =
                                            block.instrs.last()
                                        {
                                            let pr = uf.pt(reg_node[g.index()][r.index()]);
                                            let pd = uf.pt(reg_node[fi][d.index()]);
                                            uf.unify(pr, pd);
                                        }
                                    }
                                }
                            }
                        }
                        _ => {}
                    }
                }
            }
        }
        if resolved_before == Some(resolved) {
            break;
        }
        resolved_before = Some(resolved);
    }

    // Read out: tags per class.
    let mut class_tags: std::collections::HashMap<Node, DenseTagSet> = Default::default();
    for (ti, &n) in tag_node.iter().enumerate() {
        let r = uf.find(n);
        class_tags.entry(r).or_default().insert(TagId(ti as u32));
    }
    let regs = reg_node
        .iter()
        .map(|nodes| {
            nodes
                .iter()
                .map(|&node| {
                    let root = uf.find(node);
                    let Some(p) = uf.pts[root] else {
                        return Pts::default();
                    };
                    let pr = uf.find(p);
                    Pts {
                        tags: class_tags.get(&pr).cloned().unwrap_or_default(),
                        funcs: uf.funcs[pr].clone(),
                    }
                })
                .collect()
        })
        .collect();
    PointerFacts { regs }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compile(src: &str) -> Module {
        minic::compile(src).expect("compile")
    }

    #[test]
    fn unification_merges_where_inclusion_would_not() {
        // p points to x then q = p; q also reassigned to &y. Unification
        // collapses {x, y} into one class for *both* p and q; the
        // inclusion-based analysis keeps p = {x}.
        let m = compile(
            r#"
int main() {
    int x = 0;
    int y = 0;
    int *p = &x;
    int *q = p;
    q = &y;
    *p = 1;
    return x + y;
}
"#,
        );
        let st = analyze(&m);
        let main = m.main().unwrap();
        // Find the register used by the store through p.
        let f = m.func(main);
        let addr = f
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .find_map(|i| match i {
                Instr::Store { addr, .. } => Some(*addr),
                _ => None,
            })
            .expect("store");
        let tags = &st.regs[main.index()][addr.index()].tags;
        let x = m.tags.lookup("main.x").unwrap();
        let y = m.tags.lookup("main.y").unwrap();
        assert!(
            tags.contains(x) && tags.contains(y),
            "unification merges x and y"
        );

        // The inclusion-based analysis is strictly more precise here.
        let pt = crate::points_to::analyze(&m);
        let precise = &pt.regs[main.index()][addr.index()].tags;
        assert!(precise.contains(x));
        assert!(!precise.contains(y));
    }

    #[test]
    fn still_separates_unrelated_pointers() {
        let m = compile(
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
        let st = analyze(&m);
        let main = m.main().unwrap();
        let f = m.func(main);
        let addrs: Vec<ir::Reg> = f
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .filter_map(|i| match i {
                Instr::Store { addr, .. } => Some(*addr),
                _ => None,
            })
            .collect();
        let x = m.tags.lookup("main.x").unwrap();
        let y = m.tags.lookup("main.y").unwrap();
        let tags = |r: ir::Reg| &st.regs[main.index()][r.index()].tags;
        assert!(tags(addrs[0]).contains(x));
        assert!(!tags(addrs[0]).contains(y));
        assert!(tags(addrs[1]).contains(y));
    }

    #[test]
    fn function_pointer_targets() {
        let mut m = compile(
            r#"
int a(int x) { return x; }
int b(int x) { return x; }
int main() {
    func f = a;
    return f(1);
}
"#,
        );
        let (graph, _) = analyze(&m).install(&mut m);
        let main = m.main().unwrap();
        let a = m.lookup_func("a").unwrap();
        assert_eq!(graph.callees[main.index()], BTreeSet::from([a]));
    }

    #[test]
    fn indirect_calls_resolve_to_a_fixpoint() {
        // `d4` is reached only through a chain of four indirect calls.
        // Callees precede their callers here, so each call resolves one
        // pass after the one before it: `d4`'s parameter meets `&x` only
        // in the fourth pass.
        let m = compile(
            r#"
int x;
int y;
int d4(int *p) { *p = *p + 1; return 0; }
int c3(func f, int *p) { return f(p); }
int c2(func f, func g, int *p) { return f(g, p); }
int c1(func f, func g, func h, int *p) { return f(g, h, p); }
int main() {
    func a = c1;
    d4(&y);
    a(c2, c3, d4, &x);
    return 0;
}
"#,
        );
        let st = analyze(&m);
        let d4 = m.lookup_func("d4").unwrap();
        let p = &st.regs[d4.index()][0].tags;
        assert!(p.contains(m.tags.lookup("g:x").unwrap()), "{p:?}");
        assert!(p.contains(m.tags.lookup("g:y").unwrap()), "{p:?}");
    }
}
