//! The input contract scalar promotion relies on, pinned: promotion counts
//! every `load`/`store` as an ambiguous reference, so strengthening (the
//! first stage of the fused chain) must already have rewritten each one
//! that denotes a unique cell to `sload`/`sstore`. The 14 suite programs
//! and the 300 programs the CI fuzz campaign checks (seeds from
//! `0xC0FFEE`) are compiled at every analysis level with promotion, the
//! optimizer and the allocator off, so the output is the IL exactly as
//! strengthening left it, and no pointer operation in it may carry a
//! singleton tag set that `analysis::singleton_is_unique_cell` accepts.

use analysis::{singleton_is_unique_cell, tarjan_sccs, AnalysisLevel};
use driver::prelude::*;
use fuzz::generate;
use ir::{FuncId, Instr};

const FIRST_SEED: u64 = 0xC0FFEE;
const SEEDS: u64 = 300;

#[test]
fn strengthening_leaves_no_unique_cell_pointer_operation() {
    let mut programs: Vec<(String, String)> = benchsuite::SUITE
        .iter()
        .map(|b| (b.name.to_string(), b.source.to_string()))
        .collect();
    programs.extend(
        (FIRST_SEED..FIRST_SEED + SEEDS)
            .map(|seed| (format!("seed{seed}"), generate(seed).render())),
    );
    let mut pointer_ops = 0;
    for level in AnalysisLevel::ALL {
        let session = Session::builder()
            .analysis(level)
            .promote(false)
            .optimize(false)
            .regalloc(None)
            .threads(Some(1))
            .build();
        for (name, src) in &programs {
            let module = session
                .compile(src)
                .unwrap_or_else(|e| panic!("{name} [{level:?}]: {e}"))
                .module;
            // The recursion flags strengthening saw come from the analysis
            // barrier's call graph, which a fresh analysis reproduces.
            let mut analyzed = minic::compile(src).expect("compiled above");
            let graph = analysis::analyze(&mut analyzed, level).call_graph;
            let sccs = tarjan_sccs(&graph);
            for (fi, func) in module.funcs.iter().enumerate() {
                let f = FuncId(fi as u32);
                let recursive = graph.is_recursive(f, &sccs);
                for instr in func.blocks.iter().flat_map(|b| &b.instrs) {
                    let (Instr::Load { tags, .. } | Instr::Store { tags, .. }) = instr else {
                        continue;
                    };
                    pointer_ops += 1;
                    if let Some(t) = tags.as_singleton() {
                        assert!(
                            !singleton_is_unique_cell(&module.tags, f, recursive, t),
                            "{name} [{level:?}] @{}: unstrengthened {instr:?}",
                            func.name
                        );
                    }
                }
            }
        }
    }
    assert!(pointer_ops > 0, "the programs exercise pointer operations");
}
