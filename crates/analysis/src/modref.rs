//! Interprocedural MOD/REF analysis (§4 of the paper).
//!
//! The analysis proceeds exactly as the paper describes:
//!
//! 1. Tag sets of pointer-based memory operations are limited to tags that
//!    have had their **address taken**, and a local's tag appears only in
//!    operations of **descendants** of the function that creates it.
//! 2. Function tag sets (MOD and REF) are the union of the tags the
//!    function and its call-graph descendants use, computed by condensing
//!    the call graph into SCCs and processing them in reverse topological
//!    order; all functions in an SCC share tag sets.
//! 3. Each call site receives the callee's MOD/REF sets, filtered to tags
//!    visible in the caller.
//!
//! All set algebra here runs on [`DenseTagSet`], so the SCC propagation
//! unions and the per-call-site visibility filters are word-wise kernels
//! once the sets grow past the inline capacity.

use crate::callgraph::{tarjan_sccs, CallGraph};
use ir::{Callee, DenseTagSet, FuncId, Instr, Module, TagKind, TagSet};
use std::collections::BTreeSet;

/// Per-function tag visibility: which tags a function's code could possibly
/// name.
#[derive(Debug, Clone)]
pub struct Visibility {
    /// Visible tag set per function.
    pub visible: Vec<DenseTagSet>,
}

impl Visibility {
    /// Computes visibility: globals, heap, and spill tags are visible
    /// everywhere; a local/param tag is visible exactly in the descendants
    /// of its owner.
    pub fn compute(module: &Module, graph: &CallGraph) -> Visibility {
        let n = module.funcs.len();
        let mut visible: Vec<DenseTagSet> = vec![DenseTagSet::new(); n];
        let mut everywhere = DenseTagSet::new();
        for (id, info) in module.tags.iter() {
            match info.kind {
                TagKind::Global | TagKind::Heap { .. } => {
                    everywhere.insert(id);
                }
                TagKind::Spill { owner } | TagKind::Local { owner } | TagKind::Param { owner } => {
                    for f in graph.descendants(FuncId(owner)) {
                        visible[f.index()].insert(id);
                    }
                }
            }
        }
        for v in &mut visible {
            v.union_with(&everywhere);
        }
        Visibility { visible }
    }
}

/// The computed MOD/REF summaries.
#[derive(Debug, Clone)]
pub struct ModRef {
    /// Tags possibly modified by each function (including via callees).
    pub func_mods: Vec<DenseTagSet>,
    /// Tags possibly referenced by each function (including via callees).
    pub func_refs: Vec<DenseTagSet>,
}

/// Shrinks pointer-based operation tag sets per the address-taken and
/// visibility rules, without any points-to information.
///
/// Every `load`/`store` tag set is intersected with
/// `address-taken ∩ visible(f)`; `{*}` becomes that whole set.
pub fn limit_pointer_ops(module: &mut Module, graph: &CallGraph) {
    let vis = Visibility::compute(module, graph);
    let at = module.tags.address_taken_set();
    for fi in 0..module.funcs.len() {
        let universe = at.intersect(&vis.visible[fi]);
        for block in &mut module.funcs[fi].blocks {
            for instr in &mut block.instrs {
                match instr {
                    Instr::Load { tags, .. } | Instr::Store { tags, .. } => {
                        *tags = tags.intersect_universe(&universe);
                    }
                    _ => {}
                }
            }
        }
    }
}

/// Computes MOD/REF function summaries over the (already limited) tag sets
/// and installs them at every call site.
pub fn compute_and_apply(module: &mut Module, graph: &CallGraph) -> ModRef {
    compute_and_apply_with_sites(module, graph, None)
}

/// A per-call-site resolver for indirect calls: maps `(caller, target
/// register)` to the functions the register may hold. Pointer analysis
/// supplies this; without it every indirect call conservatively targets
/// all addressed functions.
pub type SiteTargets = std::collections::HashMap<(u32, ir::Reg), BTreeSet<FuncId>>;

/// Like [`compute_and_apply`], but indirect call sites whose target
/// register appears in `sites` receive only those targets' effects.
pub fn compute_and_apply_with_sites(
    module: &mut Module,
    graph: &CallGraph,
    sites: Option<&SiteTargets>,
) -> ModRef {
    let n = module.funcs.len();
    let vis = Visibility::compute(module, graph);
    // Direct effects per function.
    let mut func_mods: Vec<DenseTagSet> = vec![DenseTagSet::new(); n];
    let mut func_refs: Vec<DenseTagSet> = vec![DenseTagSet::new(); n];
    for (fi, func) in module.funcs.iter().enumerate() {
        for block in &func.blocks {
            for instr in &block.instrs {
                match instr {
                    Instr::SStore { tag, .. } => {
                        func_mods[fi].insert(*tag);
                    }
                    Instr::SLoad { tag, .. } | Instr::CLoad { tag, .. } => {
                        func_refs[fi].insert(*tag);
                    }
                    Instr::Store { tags, .. } => match tags {
                        TagSet::All => {
                            func_mods[fi].union_with(&vis.visible[fi]);
                        }
                        TagSet::Set(s) => {
                            func_mods[fi].union_with(s);
                        }
                    },
                    Instr::Load { tags, .. } => match tags {
                        TagSet::All => {
                            func_refs[fi].union_with(&vis.visible[fi]);
                        }
                        TagSet::Set(s) => {
                            func_refs[fi].union_with(s);
                        }
                    },
                    _ => {}
                }
            }
        }
    }
    // Propagate over SCCs in reverse topological order (callees first).
    let sccs = tarjan_sccs(graph);
    for comp in &sccs.components {
        // Union of direct effects and callee effects over the component.
        let mut mods = DenseTagSet::new();
        let mut refs = DenseTagSet::new();
        for &f in comp {
            mods.union_with(&func_mods[f.index()]);
            refs.union_with(&func_refs[f.index()]);
            for &g in &graph.callees[f.index()] {
                // Callees in earlier components are final; callees in this
                // component contribute their direct effects (already
                // unioned above on their turn in `comp`).
                mods.union_with(&func_mods[g.index()]);
                refs.union_with(&func_refs[g.index()]);
            }
        }
        for &f in comp {
            func_mods[f.index()] = mods.clone();
            func_refs[f.index()] = refs.clone();
        }
    }
    // Install at call sites, filtered to caller-visible tags.
    for fi in 0..n {
        let visible = &vis.visible[fi];
        let all_addressed: Vec<FuncId> = graph.addressed_funcs.iter().copied().collect();
        for block in &mut module.funcs[fi].blocks {
            for instr in &mut block.instrs {
                if let Instr::Call {
                    callee, effects, ..
                } = instr
                {
                    let targets: Vec<FuncId> = match callee {
                        Callee::Direct(g) => vec![*g],
                        Callee::Indirect(r) => sites
                            .and_then(|s| s.get(&(fi as u32, *r)))
                            .map(|t| t.iter().copied().collect())
                            .unwrap_or_else(|| all_addressed.clone()),
                        Callee::Intrinsic(_) => {
                            // Intrinsics touch no tagged memory.
                            effects.mods = TagSet::empty();
                            effects.refs = TagSet::empty();
                            continue;
                        }
                    };
                    let mut m = DenseTagSet::new();
                    let mut r = DenseTagSet::new();
                    for g in targets {
                        m.union_with(&func_mods[g.index()].intersect(visible));
                        r.union_with(&func_refs[g.index()].intersect(visible));
                    }
                    effects.mods = TagSet::Set(m);
                    effects.refs = TagSet::Set(r);
                }
            }
        }
    }
    ModRef {
        func_mods,
        func_refs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir::TagId;

    fn compile(src: &str) -> Module {
        minic::compile(src).expect("compile")
    }

    fn tag(module: &Module, name: &str) -> TagId {
        module
            .tags
            .lookup(name)
            .unwrap_or_else(|| panic!("tag {name}"))
    }

    #[test]
    fn pointer_ops_limited_to_address_taken() {
        let mut m = compile(
            r#"
int g;
int h;
int main() {
    int x = 0;
    int *p = &x;
    *p = g + h;
    return x;
}
"#,
        );
        let graph = CallGraph::build(&m, None);
        limit_pointer_ops(&mut m, &graph);
        let x_tag = tag(&m, "main.x");
        let main = m.func(m.main().unwrap());
        let store = main
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .find_map(|i| match i {
                Instr::Store { tags, .. } => Some(tags.clone()),
                _ => None,
            })
            .expect("store through p");
        // Only x has its address taken: g and h are not in the set.
        assert!(store.contains(x_tag));
        assert!(!store.contains(tag(&m, "g:g")));
        assert!(!store.contains(tag(&m, "g:h")));
    }

    #[test]
    fn call_sites_receive_callee_effects() {
        let mut m = compile(
            r#"
int g;
int h;
void touch_g() { g = g + 1; }
int read_h() { return h; }
int main() {
    touch_g();
    int v = read_h();
    return v;
}
"#,
        );
        let graph = CallGraph::build(&m, None);
        limit_pointer_ops(&mut m, &graph);
        compute_and_apply(&mut m, &graph);
        let g_tag = tag(&m, "g:g");
        let h_tag = tag(&m, "g:h");
        let main = m.func(m.main().unwrap());
        let calls: Vec<(TagSet, TagSet)> = main
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .filter_map(|i| match i {
                Instr::Call { effects, .. } => Some((effects.mods.clone(), effects.refs.clone())),
                _ => None,
            })
            .collect();
        assert_eq!(calls.len(), 2);
        // touch_g mods g, refs g; read_h refs h only.
        assert!(calls[0].0.contains(g_tag));
        assert!(!calls[0].0.contains(h_tag));
        assert!(!calls[1].0.contains(g_tag) && !calls[1].0.contains(h_tag));
        assert!(calls[1].1.contains(h_tag));
    }

    #[test]
    fn effects_propagate_through_the_call_graph() {
        let mut m = compile(
            r#"
int g;
void leaf() { g = 1; }
void mid() { leaf(); }
int main() { mid(); return g; }
"#,
        );
        let graph = CallGraph::build(&m, None);
        limit_pointer_ops(&mut m, &graph);
        let mr = compute_and_apply(&mut m, &graph);
        let g_tag = tag(&m, "g:g");
        let mid = m.lookup_func("mid").unwrap();
        let main = m.main().unwrap();
        assert!(mr.func_mods[mid.index()].contains(g_tag));
        assert!(mr.func_mods[main.index()].contains(g_tag));
    }

    #[test]
    fn mutual_recursion_shares_tag_sets() {
        let mut m = compile(
            r#"
int a;
int b;
int even(int n) { if (n == 0) return 1; a = n; return odd(n - 1); }
int odd(int n) { if (n == 0) return 0; b = n; return even(n - 1); }
int main() { return even(10); }
"#,
        );
        let graph = CallGraph::build(&m, None);
        limit_pointer_ops(&mut m, &graph);
        let mr = compute_and_apply(&mut m, &graph);
        let a_tag = tag(&m, "g:a");
        let b_tag = tag(&m, "g:b");
        let even = m.lookup_func("even").unwrap();
        let odd = m.lookup_func("odd").unwrap();
        for f in [even, odd] {
            assert!(mr.func_mods[f.index()].contains(a_tag));
            assert!(mr.func_mods[f.index()].contains(b_tag));
        }
    }

    #[test]
    fn locals_invisible_to_non_descendants() {
        let mut m = compile(
            r#"
void stranger(int *p) { *p = 1; }
int main() {
    int x = 0;
    int *q = &x;
    *q = 2;
    return x;
}
"#,
        );
        // `stranger` is never called from main, so main.x must not appear
        // in stranger's store tag set.
        let graph = CallGraph::build(&m, None);
        limit_pointer_ops(&mut m, &graph);
        let x_tag = tag(&m, "main.x");
        let stranger = m.func(m.lookup_func("stranger").unwrap());
        let store_tags = stranger
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .find_map(|i| match i {
                Instr::Store { tags, .. } => Some(tags.clone()),
                _ => None,
            })
            .expect("store");
        assert!(!store_tags.contains(x_tag));
    }

    #[test]
    fn intrinsic_calls_have_empty_sets() {
        let mut m = compile("int main() { print_int(1); return 0; }");
        let graph = CallGraph::build(&m, None);
        compute_and_apply(&mut m, &graph);
        let main = m.func(m.main().unwrap());
        for i in main.blocks.iter().flat_map(|b| &b.instrs) {
            if let Instr::Call { effects, .. } = i {
                assert!(effects.mods.is_empty() && effects.refs.is_empty());
            }
        }
    }
}
