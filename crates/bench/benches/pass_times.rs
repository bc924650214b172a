//! Compile-time cost of each pipeline pass on real suite programs.
//!
//! Complements `promotion_scaling`: times the front end, the two
//! interprocedural analyses, promotion, each scalar optimization, and
//! register allocation on the two largest suite programs. The paper's
//! implicit claim — analysis dominates, promotion itself "runs quite
//! quickly" — is directly visible in these numbers.
//!
//! Plain `std::time::Instant` harness (`harness = false`): no external
//! bench framework so the build works offline. Run with
//! `cargo bench --bench pass_times`.

use bench_harness::timing::time_case;

fn prepared(src: &str) -> ir::Module {
    let mut m = minic::compile(src).expect("compile");
    for fi in 0..m.funcs.len() {
        cfg::normalize_loops(&mut m.funcs[fi]);
    }
    m
}

fn main() {
    let programs = ["mlink", "gzip_enc"];
    for name in programs {
        let b = benchsuite::find(name).expect("suite");

        time_case(&format!("passes/{name}/frontend"), || {
            minic::compile(b.source).expect("compile");
        });

        let base = prepared(b.source);
        time_case(&format!("passes/{name}/modref"), || {
            let mut m = base.clone();
            analysis::analyze(&mut m, analysis::AnalysisLevel::ModRef);
        });
        time_case(&format!("passes/{name}/points_to"), || {
            let mut m = base.clone();
            analysis::analyze(&mut m, analysis::AnalysisLevel::PointsTo);
        });

        let mut analyzed = base.clone();
        analysis::analyze(&mut analyzed, analysis::AnalysisLevel::ModRef);
        opt::strengthen(&mut analyzed);
        time_case(&format!("passes/{name}/promotion"), || {
            let mut m = analyzed.clone();
            promote::promote_module(&mut m);
        });
        time_case(&format!("passes/{name}/lvn"), || {
            let mut m = analyzed.clone();
            opt::lvn(&mut m);
        });
        time_case(&format!("passes/{name}/loadelim"), || {
            let mut m = analyzed.clone();
            opt::loadelim(&mut m);
        });
        time_case(&format!("passes/{name}/licm"), || {
            let mut m = analyzed.clone();
            opt::licm(&mut m);
        });
        time_case(&format!("passes/{name}/regalloc"), || {
            let mut m = analyzed.clone();
            regalloc::allocate(&mut m, &regalloc::AllocOptions::default())
                .expect("allocation converges");
        });
    }
}
