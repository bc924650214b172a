//! Interprocedural analysis for the register-promotion compiler.
//!
//! This crate implements the analysis half of the paper (§4): the MOD/REF
//! analysis with address-taken and visibility filtering and call-graph SCC
//! propagation, the whole-program points-to analysis (after Ruf), and — as
//! an ablation — a Steensgaard-style unification analysis. Each analysis
//! runs over and then *rewrites* the tag sets in an [`ir::Module`]; the
//! promoter and the optimizer read only the tag sets, so swapping analysis
//! levels is exactly the experiment of Figures 5–7. Both pointer analyses
//! return a [`PointerFacts`], and [`PointerFacts::install`] is the only
//! place their results reach the IL.
//!
//! ```
//! use analysis::{analyze, AnalysisLevel};
//!
//! let mut module = minic::compile(r#"
//!     int g;
//!     void bump() { g = g + 1; }
//!     int main() { bump(); return g; }
//! "#)?;
//! let outcome = analyze(&mut module, AnalysisLevel::PointsTo);
//! assert_eq!(outcome.level, AnalysisLevel::PointsTo);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod callgraph;
mod facts;
mod modref;
mod points_to;
mod steensgaard;
mod strength;
mod summary;

pub use callgraph::{tarjan_sccs, CallGraph, Sccs};
pub use facts::{PointerFacts, Pts};
pub use modref::{
    compute_and_apply, compute_and_apply_with_sites, limit_pointer_ops, ModRef, SiteTargets,
    Visibility,
};
pub use points_to::{analyze as points_to_analyze, analyze_with as points_to_analyze_with};
pub use steensgaard::analyze as steensgaard_analyze;
pub use strength::singleton_is_unique_cell;
pub use summary::modref_summary_hashes;

use ir::{Instr, Module, TagSet};
use std::fmt;

/// The precision level of interprocedural analysis, the independent
/// variable of the paper's experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AnalysisLevel {
    /// Address-taken + visibility filtering only; call sites assume the
    /// whole visible set. (A baseline below anything the paper measures.)
    AddressTaken,
    /// The paper's MOD/REF analysis.
    ModRef,
    /// MOD/REF sharpened by the inclusion-based points-to analysis, with
    /// MOD/REF re-run afterwards — the paper's "pointer" configuration.
    /// It propagates over registers where the paper uses SSA names
    /// (`DESIGN.md` §8.7).
    PointsTo,
    /// MOD/REF sharpened by Steensgaard-style unification (ablation).
    Steensgaard,
}

impl AnalysisLevel {
    /// All levels, weakest first.
    pub const ALL: [AnalysisLevel; 4] = [
        AnalysisLevel::AddressTaken,
        AnalysisLevel::ModRef,
        AnalysisLevel::Steensgaard,
        AnalysisLevel::PointsTo,
    ];

    /// The name used in reports (the paper prints `modref` / `pointer`).
    pub fn label(self) -> &'static str {
        match self {
            AnalysisLevel::AddressTaken => "addrtaken",
            AnalysisLevel::ModRef => "modref",
            AnalysisLevel::PointsTo => "pointer",
            AnalysisLevel::Steensgaard => "steens",
        }
    }
}

impl fmt::Display for AnalysisLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The result of running [`analyze`].
#[derive(Debug, Clone)]
pub struct AnalysisOutcome {
    /// The level that ran.
    pub level: AnalysisLevel,
    /// Final call graph (sharpened by pointer analysis when available).
    pub call_graph: CallGraph,
    /// Function MOD/REF summaries (empty sets at `AddressTaken` level).
    pub modref: ModRef,
    /// Solver work done by the points-to fixpoint (zero for levels that
    /// run no points-to analysis).
    pub dataflow: cfg::DataflowStats,
}

/// Runs interprocedural analysis at `level`, rewriting the module's tag
/// sets and call-site MOD/REF lists in place.
pub fn analyze(module: &mut Module, level: AnalysisLevel) -> AnalysisOutcome {
    let mut dataflow = cfg::DataflowStats::default();
    let graph = CallGraph::build(module, None);
    limit_pointer_ops(module, &graph);
    let (graph, modref) = match level {
        AnalysisLevel::AddressTaken => {
            // Weakest sound call summaries: everything visible.
            let vis = Visibility::compute(module, &graph);
            let n = module.funcs.len();
            for fi in 0..n {
                let visible = vis.visible[fi].clone();
                for block in &mut module.funcs[fi].blocks {
                    for instr in &mut block.instrs {
                        if let Instr::Call {
                            callee, effects, ..
                        } = instr
                        {
                            if matches!(callee, ir::Callee::Intrinsic(_)) {
                                effects.mods = TagSet::empty();
                                effects.refs = TagSet::empty();
                            } else {
                                effects.mods = TagSet::Set(visible.clone());
                                effects.refs = TagSet::Set(visible.clone());
                            }
                        }
                    }
                }
            }
            let modref = ModRef {
                func_mods: vec![Default::default(); module.funcs.len()],
                func_refs: vec![Default::default(); module.funcs.len()],
            };
            (graph, modref)
        }
        AnalysisLevel::ModRef => {
            let modref = compute_and_apply(module, &graph);
            (graph, modref)
        }
        // The paper's "MOD/REF analysis is then repeated" with the
        // sharper tag sets and per-site indirect-call targets.
        AnalysisLevel::PointsTo => points_to_analyze_with(module, &mut dataflow).install(module),
        AnalysisLevel::Steensgaard => steensgaard_analyze(module).install(module),
    };
    AnalysisOutcome {
        level,
        call_graph: graph,
        modref,
        dataflow,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tag-set sizes of the module's `load`/`store` instructions, one
    /// per instruction; `None` is the universal set.
    fn pointer_op_sets(module: &Module) -> Vec<Option<usize>> {
        let instrs = module
            .funcs
            .iter()
            .flat_map(|f| &f.blocks)
            .flat_map(|b| &b.instrs);
        instrs
            .filter_map(|i| match i {
                Instr::Load { tags, .. } | Instr::Store { tags, .. } => Some(tags.len()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn precision_is_monotone_across_levels() {
        let src = r#"
int g;
int h;
int data[16];
void writer(int *p) { *p = g; }
int main() {
    int i;
    int x = 0;
    for (i = 0; i < 16; i++) {
        writer(&x);
        data[i] = x + h;
    }
    return x;
}
"#;
        let mut means = Vec::new();
        for level in [
            AnalysisLevel::AddressTaken,
            AnalysisLevel::Steensgaard,
            AnalysisLevel::PointsTo,
        ] {
            let mut m = minic::compile(src).unwrap();
            analyze(&mut m, level);
            ir::validate(&m).expect("still valid");
            let explicit: Vec<usize> = pointer_op_sets(&m).into_iter().flatten().collect();
            means.push(explicit.iter().sum::<usize>() as f64 / explicit.len().max(1) as f64);
        }
        // Monotonically non-increasing mean explicit tag-set size.
        assert!(means[0] >= means[1], "{means:?}");
        assert!(means[1] >= means[2], "{means:?}");
    }

    #[test]
    fn pointsto_gives_singleton_for_unique_target() {
        let src = r#"
int g;
int main() {
    int x = 0;
    int *p = &x;
    *p = g;
    return x;
}
"#;
        let mut m = minic::compile(src).unwrap();
        analyze(&mut m, AnalysisLevel::PointsTo);
        let sets = pointer_op_sets(&m);
        assert!(!sets.is_empty());
        assert!(sets.iter().all(|&n| n == Some(1)), "{sets:?}");
    }

    #[test]
    fn analysis_preserves_behaviour() {
        let src = r#"
int g;
int acc[8];
void step(int *p, int k) { *p = *p + k; g = g + 1; }
int main() {
    int i;
    int x = 0;
    for (i = 0; i < 8; i++) {
        step(&x, i);
        acc[i] = x;
    }
    print_int(x);
    print_int(g);
    return 0;
}
"#;
        let baseline = {
            let m = minic::compile(src).unwrap();
            vm::Vm::run_main(&m, vm::VmOptions::default()).unwrap()
        };
        for level in AnalysisLevel::ALL {
            let mut m = minic::compile(src).unwrap();
            analyze(&mut m, level);
            ir::validate(&m).expect("valid after analysis");
            let out = vm::Vm::run_main(&m, vm::VmOptions::default()).unwrap();
            assert_eq!(out.output, baseline.output, "level {level}");
            // Analysis rewrites only tag sets: no level changes an
            // executed instruction.
            assert_eq!(out.counts, baseline.counts, "level {level}");
        }
    }
}
