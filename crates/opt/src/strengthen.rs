//! Memory-opcode strengthening.
//!
//! After interprocedural analysis shrinks tag sets, a pointer-based
//! `load`/`store` whose tag set is a singleton naming a unique cell (see
//! [`analysis::singleton_is_unique_cell`]) carries exactly the information
//! of the scalar opcodes — so it is rewritten up the paper's Table-1
//! hierarchy to `sload`/`sstore`. This is the mechanism by which "shrinking
//! the tag sets ... produces better results from several of the
//! optimizations": value numbering and load elimination then treat the
//! access like any other scalar reference.

use analysis::{singleton_is_unique_cell, tarjan_sccs, CallGraph};
use cfg::FunctionAnalyses;
use ir::{FuncId, Function, Instr, Module, TagTable};

/// Strengthens qualifying pointer ops to scalar ops module-wide. Returns
/// the number of instructions rewritten.
pub fn strengthen(module: &mut Module) -> usize {
    let graph = CallGraph::build(module, None);
    let sccs = tarjan_sccs(&graph);
    let mut rewrites = 0;
    for fi in 0..module.funcs.len() {
        let f = FuncId(fi as u32);
        let recursive = graph.is_recursive(f, &sccs);
        rewrites += strengthen_function(
            &module.tags,
            &mut module.funcs[fi],
            f,
            recursive,
            &mut FunctionAnalyses::new(),
        );
    }
    rewrites
}

/// Per-function strengthening: reads only the tag table, so the parallel
/// pipeline can fan it out once the driver has computed the recursive-set.
pub fn strengthen_function(
    tags_table: &TagTable,
    func: &mut Function,
    func_id: FuncId,
    func_is_recursive: bool,
    analyses: &mut FunctionAnalyses,
) -> usize {
    let mut rewrites = 0;
    for block in &mut func.blocks {
        for instr in &mut block.instrs {
            let new = match &*instr {
                Instr::Load { dst, tags, .. } => match tags.as_singleton() {
                    Some(t)
                        if singleton_is_unique_cell(tags_table, func_id, func_is_recursive, t) =>
                    {
                        Some(Instr::SLoad { dst: *dst, tag: t })
                    }
                    _ => None,
                },
                Instr::Store { src, tags, .. } => match tags.as_singleton() {
                    Some(t)
                        if singleton_is_unique_cell(tags_table, func_id, func_is_recursive, t) =>
                    {
                        Some(Instr::SStore { src: *src, tag: t })
                    }
                    _ => None,
                },
                _ => None,
            };
            if let Some(n) = new {
                *instr = n;
                rewrites += 1;
            }
        }
    }
    // Opcode swaps on straight-line memory ops: body tier.
    if rewrites > 0 {
        analyses.note_body_changed();
    }
    rewrites
}

#[cfg(test)]
mod tests {
    use super::*;
    use vm::{Vm, VmOptions};

    #[test]
    fn strengthens_unique_singleton_ops() {
        let src = r#"
int g;
int main() {
    int *p = &g;
    *p = 5;
    int v = *p;
    print_int(v);
    return 0;
}
"#;
        let mut m = minic::compile(src).unwrap();
        analysis::analyze(&mut m, analysis::AnalysisLevel::PointsTo);
        let before = Vm::run_main(&m, VmOptions::default()).unwrap();
        let n = strengthen(&mut m);
        ir::validate(&m).unwrap();
        assert_eq!(n, 2);
        let after = Vm::run_main(&m, VmOptions::default()).unwrap();
        assert_eq!(before.output, after.output);
        assert_eq!(after.counts.scalar_loads, before.counts.scalar_loads + 1);
        assert_eq!(after.counts.ptr_loads, before.counts.ptr_loads - 1);
    }

    #[test]
    fn leaves_arrays_and_multi_target_ops() {
        let src = r#"
int a[4];
int g;
int h;
int pick;
int main() {
    int *q = &g;
    if (pick) { q = &h; }
    a[1] = 2;
    *q = 3;
    return a[1] + g;
}
"#;
        let mut m = minic::compile(src).unwrap();
        analysis::analyze(&mut m, analysis::AnalysisLevel::PointsTo);
        let n = strengthen(&mut m);
        // a[1] is a singleton but an array tag; *q has two targets.
        assert_eq!(n, 0);
    }

    #[test]
    fn recursion_blocks_local_strengthening() {
        let src = r#"
int walk(int n) {
    int slot = n;
    int *p = &slot;
    if (n == 0) return *p;
    return walk(n - 1) + *p;
}
int main() { return walk(3); }
"#;
        let mut m = minic::compile(src).unwrap();
        analysis::analyze(&mut m, analysis::AnalysisLevel::PointsTo);
        let before = Vm::run_main(&m, VmOptions::default()).unwrap();
        let n = strengthen(&mut m);
        let after = Vm::run_main(&m, VmOptions::default()).unwrap();
        assert_eq!(n, 0, "walk is recursive; slot has many live cells");
        assert_eq!(before.exit_code, after.exit_code);
    }
}
