//! The result both pointer analyses return, and its one installer.
//!
//! The inclusion-based analysis ([`crate::points_to_analyze`]) and the
//! Steensgaard ablation ([`crate::steensgaard_analyze`]) each find, per
//! register, the tags it may address and the functions it may hold.
//! [`PointerFacts::install`] is the only place such facts reach the IL.

use crate::callgraph::CallGraph;
use crate::modref::{compute_and_apply_with_sites, ModRef, SiteTargets};
use ir::{Callee, DenseTagSet, FuncId, Instr, Module};
use std::collections::BTreeSet;

/// What one register, or the storage of one tag, may point to.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Pts {
    /// Tags whose storage it may address.
    pub tags: DenseTagSet,
    /// Functions it may hold: the targets of an indirect call through it.
    pub funcs: BTreeSet<FuncId>,
}

impl Pts {
    /// Adds `other`'s members; true if any was new.
    pub(crate) fn union_with(&mut self, other: &Pts) -> bool {
        let before = self.funcs.len();
        self.funcs.extend(&other.funcs);
        self.tags.union_with(&other.tags) | (self.funcs.len() != before)
    }
}

/// A pointer analysis's result: `regs[f][r]` is what register `r` of
/// function `f` may point to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PointerFacts {
    /// Per function, per register.
    pub regs: Vec<Vec<Pts>>,
}

impl PointerFacts {
    /// Installs the facts in `module`, as §4 of the paper describes.
    ///
    /// Each `load`/`store` through register `r` gets `pts(r) ∩ current tag
    /// set`; an empty points-to set (a pointer the analysis never saw
    /// created) conservatively keeps the current set. Each indirect call
    /// resolves to the functions its target register may hold; those
    /// per-site targets build the call graph, and MOD/REF is then repeated
    /// over it.
    pub fn install(&self, module: &mut Module) -> (CallGraph, ModRef) {
        let mut sites = SiteTargets::new();
        for (fi, (func, regs)) in module.funcs.iter_mut().zip(&self.regs).enumerate() {
            for instr in func.blocks.iter_mut().flat_map(|b| &mut b.instrs) {
                match instr {
                    Instr::Load { addr, tags, .. } | Instr::Store { addr, tags, .. } => {
                        let pts = &regs[addr.index()].tags;
                        if !pts.is_empty() {
                            *tags = tags.intersect_universe(pts);
                        }
                    }
                    Instr::Call {
                        callee: Callee::Indirect(r),
                        ..
                    } => {
                        sites.insert((fi as u32, *r), regs[r.index()].funcs.clone());
                    }
                    _ => {}
                }
            }
        }
        let graph = CallGraph::build(module, Some(&sites));
        let modref = compute_and_apply_with_sites(module, &graph, Some(&sites));
        (graph, modref)
    }
}
