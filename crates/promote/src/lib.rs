//! Register promotion — the primary contribution of *Register Promotion in
//! C Programs* (Cooper & Lu, PLDI 1997).
//!
//! Promotion allows a value that normally resides in memory to reside in a
//! register for portions of the code. This crate implements both halves of
//! the paper's transformation:
//!
//! * **Scalar promotion** (§3.1): the data-flow equations of Figure 1 over
//!   the loop nesting forest, followed by the rewrite that loads each
//!   promotable tag in the landing pad of the outermost loop where it is
//!   safe, converts interior references to register copies, and stores the
//!   value back at the loop exits.
//! * **Pointer-based promotion** (§3.3): promotion of loop-invariant
//!   pointer references (e.g. `B[i]` inside a `j` loop) when all accesses
//!   to the referenced tags go through one invariant base register.
//!
//! Scalar promotion classifies memory operations by opcode, as the
//! paper's equations do: `sload`, `sstore` and `cload` are explicit,
//! `load` and `store` ambiguous. Its input is analyzed IL that
//! `opt::strengthen` (the pipeline's first per-function stage) has
//! already strengthened up Table 1, so every singleton pointer operation
//! that denotes a unique cell is an `sload`/`sstore` by the time promotion
//! sees it. That unique-cell decision is made once, in the `analysis`
//! crate, and only strengthening asks it.
//!
//! The pipeline calls the per-function entry points,
//! [`promote_scalars_in_func`] and [`promote_pointers_in_func`], with its
//! own analysis cache and trace: they emit remarks into the
//! `trace::FuncTrace` they are given, and the driver records their
//! before-minus-after delta around each call. [`promote_module`] runs
//! scalar promotion over a whole module.
//!
//! ```
//! use promote::promote_module;
//!
//! let mut module = minic::compile(r#"
//!     int g;
//!     int main() {
//!         int i;
//!         for (i = 0; i < 100; i++) { g = g + 1; }
//!         return g;
//!     }
//! "#)?;
//! analysis::analyze(&mut module, analysis::AnalysisLevel::ModRef);
//! // No pointer operations, so `opt::strengthen` would change nothing.
//! let report = promote_module(&mut module);
//! assert_eq!(report.promoted_tags, 1); // g promoted in the loop
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod equations;
mod pointer;
mod scalar;

pub use equations::{block_sets, BlockSets, LoopSets};
pub use pointer::{promote_pointers_in_func, PointerReport};
pub use scalar::{promotable_tags, promote_scalars_in_func, ScalarReport};

use analysis::{tarjan_sccs, CallGraph};
use cfg::FunctionAnalyses;
use ir::Module;
use trace::FuncTrace;

/// Aggregate report over a module.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PromotionReport {
    /// Scalar promotion totals.
    pub scalar: ScalarReport,
    /// Pointer-based promotion totals.
    pub pointer: PointerReport,
}

/// Runs scalar promotion over every function of `module`: the
/// module-wide convenience over [`promote_scalars_in_func`], the
/// per-function entry point the pipeline's fused chain calls (and traces)
/// itself.
///
/// Loop normalization (landing pads + dedicated exits) is performed
/// first. The module must be analyzed ([`analysis::analyze`]) and
/// strengthened (`opt::strengthen`), which is what every pipeline compile
/// hands promotion: a unique-cell pointer operation left unstrengthened
/// is ambiguous here, so its tag stays in memory. Promotion is sound over
/// any input, merely unproductive without those two steps.
pub fn promote_module(module: &mut Module) -> ScalarReport {
    let graph = CallGraph::build(module, None);
    let sccs = tarjan_sccs(&graph);
    let mut report = ScalarReport::default();
    for fi in 0..module.funcs.len() {
        let f = ir::FuncId(fi as u32);
        let func = &mut module.funcs[fi];
        cfg::normalize_loops(func);
        let r = scalar::promote_scalars_in_func(
            &module.tags,
            func,
            f,
            graph.is_recursive(f, &sccs),
            None,
            &mut FunctionAnalyses::new(),
            &mut FuncTrace::off(),
        );
        report.loops += r.loops;
        report.promoted_tags += r.promoted_tags;
        report.lifts += r.lifts;
        report.rewritten_refs += r.rewritten_refs;
    }
    debug_assert!(
        ir::validate(module).is_ok(),
        "promotion produced invalid IL"
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use vm::{Vm, VmOptions};

    #[test]
    fn end_to_end_scalar_and_pointer() {
        let src = r#"
int g;
int B[8];
int A[8][8];
int main() {
    int i; int j;
    for (i = 0; i < 8; i++)
        for (j = 0; j < 8; j++)
            A[i][j] = i * j;
    for (i = 0; i < 8; i++) {
        int *p = &B[i];
        for (j = 0; j < 8; j++) {
            *p += A[i][j];
            g = g + 1;
        }
    }
    print_int(g);
    print_int(B[7]);
    return 0;
}
"#;
        let mut m = minic::compile(src).unwrap();
        analysis::analyze(&mut m, analysis::AnalysisLevel::PointsTo);
        let before = Vm::run_main(&m, VmOptions::default()).unwrap();
        let scalar = promote_module(&mut m);
        let mut promoted_bases = 0;
        for func in &mut m.funcs {
            let r =
                promote_pointers_in_func(func, &mut FunctionAnalyses::new(), &mut FuncTrace::off());
            promoted_bases += r.promoted_bases;
        }
        ir::validate(&m).unwrap();
        let after = Vm::run_main(&m, VmOptions::default()).unwrap();
        assert_eq!(after.output, before.output);
        assert!(scalar.promoted_tags >= 1);
        assert!(promoted_bases >= 1);
        assert!(after.counts.memory_ops() < before.counts.memory_ops());
    }

    #[test]
    fn promotion_is_idempotent_on_counts() {
        let src = r#"
int g;
int main() {
    int i;
    for (i = 0; i < 64; i++) { g = g + i; }
    print_int(g);
    return 0;
}
"#;
        let mut m = minic::compile(src).unwrap();
        analysis::analyze(&mut m, analysis::AnalysisLevel::ModRef);
        promote_module(&mut m);
        let once = Vm::run_main(&m, VmOptions::default()).unwrap();
        promote_module(&mut m);
        let twice = Vm::run_main(&m, VmOptions::default()).unwrap();
        assert_eq!(once.output, twice.output);
        assert_eq!(once.counts.loads, twice.counts.loads);
        assert_eq!(once.counts.stores, twice.counts.stores);
    }
}
