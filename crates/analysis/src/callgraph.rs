//! Call-graph construction and Tarjan SCC condensation.
//!
//! The MOD/REF analysis processes the strongly-connected components of the
//! call graph in reverse topological order, exactly as described in §4 of
//! the paper; functions inside one SCC share a tag set.

use crate::modref::SiteTargets;
use ir::{Callee, FuncId, Instr, Module};
use std::collections::BTreeSet;

/// The static call graph of a module.
#[derive(Debug, Clone)]
pub struct CallGraph {
    /// Direct (and resolved indirect) callees per function.
    pub callees: Vec<BTreeSet<FuncId>>,
    /// Functions whose address is taken (targets of any indirect call under
    /// the conservative assumption).
    pub addressed_funcs: BTreeSet<FuncId>,
    /// True per function if it contains an indirect call.
    pub has_indirect_call: Vec<bool>,
}

impl CallGraph {
    /// Builds the call graph. An indirect call resolves to its entry in
    /// `sites` (from a pointer analysis); without one it conservatively
    /// targets every addressed function.
    pub fn build(module: &Module, sites: Option<&SiteTargets>) -> CallGraph {
        let n = module.funcs.len();
        let mut addressed_funcs = BTreeSet::new();
        for func in &module.funcs {
            for block in &func.blocks {
                for instr in &block.instrs {
                    if let Instr::FuncAddr { func: f, .. } = instr {
                        addressed_funcs.insert(*f);
                    }
                }
            }
        }
        let mut callees = vec![BTreeSet::new(); n];
        let mut has_indirect_call = vec![false; n];
        for (fi, func) in module.funcs.iter().enumerate() {
            for block in &func.blocks {
                for instr in &block.instrs {
                    if let Instr::Call { callee, .. } = instr {
                        match callee {
                            Callee::Direct(g) => {
                                callees[fi].insert(*g);
                            }
                            Callee::Indirect(r) => {
                                has_indirect_call[fi] = true;
                                let site = sites.and_then(|s| s.get(&(fi as u32, *r)));
                                callees[fi].extend(site.unwrap_or(&addressed_funcs));
                            }
                            Callee::Intrinsic(_) => {}
                        }
                    }
                }
            }
        }
        CallGraph {
            callees,
            addressed_funcs,
            has_indirect_call,
        }
    }

    /// Number of functions.
    pub fn len(&self) -> usize {
        self.callees.len()
    }

    /// True if the module has no functions.
    pub fn is_empty(&self) -> bool {
        self.callees.is_empty()
    }

    /// Functions reachable from `f`, including `f` itself (the
    /// "descendants" in the paper's visibility rule).
    pub fn descendants(&self, f: FuncId) -> BTreeSet<FuncId> {
        let mut seen = BTreeSet::from([f]);
        let mut work = vec![f];
        while let Some(g) = work.pop() {
            for &h in &self.callees[g.index()] {
                if seen.insert(h) {
                    work.push(h);
                }
            }
        }
        seen
    }

    /// True if `f` participates in recursion (lies on a call-graph cycle,
    /// including direct self-recursion).
    pub fn is_recursive(&self, f: FuncId, sccs: &Sccs) -> bool {
        let comp = sccs.component_of[f.index()];
        sccs.components[comp].len() > 1 || self.callees[f.index()].contains(&f)
    }
}

/// Strongly-connected components of the call graph.
#[derive(Debug, Clone)]
pub struct Sccs {
    /// Components in **reverse topological order** (callees before
    /// callers).
    pub components: Vec<Vec<FuncId>>,
    /// Component index per function.
    pub component_of: Vec<usize>,
}

/// Computes SCCs with Tarjan's algorithm (iterative formulation).
pub fn tarjan_sccs(graph: &CallGraph) -> Sccs {
    let n = graph.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut components: Vec<Vec<FuncId>> = Vec::new();
    let mut component_of = vec![usize::MAX; n];

    // Explicit DFS state: (node, child iterator position).
    enum FrameState {
        Enter,
        Resume(usize),
    }
    // One child buffer for every visit and one call stack for every root:
    // refilled per use, allocated once.
    let mut children: Vec<usize> = Vec::new();
    let mut call_stack: Vec<(usize, FrameState)> = Vec::new();
    for start in 0..n {
        if index[start] != usize::MAX {
            continue;
        }
        call_stack.clear();
        call_stack.push((start, FrameState::Enter));
        while let Some((v, state)) = call_stack.pop() {
            let mut child_pos = match state {
                FrameState::Enter => {
                    index[v] = next_index;
                    low[v] = next_index;
                    next_index += 1;
                    stack.push(v);
                    on_stack[v] = true;
                    0
                }
                FrameState::Resume(pos) => {
                    // Returning from a child: fold its lowlink.
                    let child = graph.callees[v]
                        .iter()
                        .nth(pos - 1)
                        .expect("resumed child exists")
                        .index();
                    low[v] = low[v].min(low[child]);
                    pos
                }
            };
            children.clear();
            children.extend(graph.callees[v].iter().map(|c| c.index()));
            let mut descended = false;
            while child_pos < children.len() {
                let w = children[child_pos];
                child_pos += 1;
                if index[w] == usize::MAX {
                    call_stack.push((v, FrameState::Resume(child_pos)));
                    call_stack.push((w, FrameState::Enter));
                    descended = true;
                    break;
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            }
            if descended {
                continue;
            }
            if low[v] == index[v] {
                let mut comp = Vec::new();
                loop {
                    let w = stack.pop().expect("scc stack");
                    on_stack[w] = false;
                    component_of[w] = components.len();
                    comp.push(FuncId(w as u32));
                    if w == v {
                        break;
                    }
                }
                components.push(comp);
            }
        }
    }
    Sccs {
        components,
        component_of,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir::FunctionBuilder;

    fn module_with_calls(edges: &[(usize, usize)], n: usize) -> Module {
        let mut m = Module::new();
        for i in 0..n {
            let mut b = FunctionBuilder::new(format!("f{i}"), 0);
            b.ret(None);
            m.add_func(b.finish());
        }
        for &(from, to) in edges {
            let callee = FuncId(to as u32);
            let call = Instr::Call {
                dst: None,
                callee: Callee::Direct(callee),
                args: vec![],
                effects: ir::CallEffects::all(),
            };
            m.funcs[from].blocks[0].instrs.insert(0, call);
        }
        m
    }

    #[test]
    fn linear_chain_sccs_in_reverse_topo_order() {
        // f0 -> f1 -> f2
        let m = module_with_calls(&[(0, 1), (1, 2)], 3);
        let g = CallGraph::build(&m, None);
        let sccs = tarjan_sccs(&g);
        assert_eq!(sccs.components.len(), 3);
        // Callees come first.
        let order: Vec<u32> = sccs.components.iter().map(|c| c[0].0).collect();
        assert_eq!(order, vec![2, 1, 0]);
    }

    #[test]
    fn mutual_recursion_is_one_component() {
        // f0 <-> f1, f2 alone calling f0.
        let m = module_with_calls(&[(0, 1), (1, 0), (2, 0)], 3);
        let g = CallGraph::build(&m, None);
        let sccs = tarjan_sccs(&g);
        assert_eq!(sccs.components.len(), 2);
        assert_eq!(sccs.component_of[0], sccs.component_of[1]);
        assert!(g.is_recursive(FuncId(0), &sccs));
        assert!(g.is_recursive(FuncId(1), &sccs));
        assert!(!g.is_recursive(FuncId(2), &sccs));
    }

    #[test]
    fn self_recursion_detected() {
        let m = module_with_calls(&[(0, 0)], 1);
        let g = CallGraph::build(&m, None);
        let sccs = tarjan_sccs(&g);
        assert!(g.is_recursive(FuncId(0), &sccs));
    }

    #[test]
    fn descendants() {
        let m = module_with_calls(&[(0, 1), (1, 2), (3, 3)], 4);
        let g = CallGraph::build(&m, None);
        let d = g.descendants(FuncId(0));
        assert_eq!(d, BTreeSet::from([FuncId(0), FuncId(1), FuncId(2)]));
        assert_eq!(g.descendants(FuncId(2)), BTreeSet::from([FuncId(2)]));
    }

    #[test]
    fn indirect_calls_resolve_to_addressed_functions() {
        let mut m = module_with_calls(&[], 3);
        // f0 takes f2's address and calls indirectly.
        let fa = Instr::FuncAddr {
            dst: ir::Reg(0),
            func: FuncId(2),
        };
        let call = Instr::Call {
            dst: None,
            callee: Callee::Indirect(ir::Reg(0)),
            args: vec![],
            effects: ir::CallEffects::all(),
        };
        m.funcs[0].next_reg = 1;
        m.funcs[0].blocks[0].instrs.insert(0, call);
        m.funcs[0].blocks[0].instrs.insert(0, fa);
        let g = CallGraph::build(&m, None);
        assert!(g.has_indirect_call[0]);
        assert_eq!(g.addressed_funcs, BTreeSet::from([FuncId(2)]));
        assert!(g.callees[0].contains(&FuncId(2)));
        assert!(!g.callees[0].contains(&FuncId(1)));
    }
}
