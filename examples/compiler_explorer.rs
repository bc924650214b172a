//! Compiler explorer: print the IL of a program at each pipeline stage.
//!
//! Pass a path to a MiniC file, or run with no arguments for a built-in
//! demo. Shows the tagged IL after lowering, after analysis (watch the
//! `{*}` tag sets shrink), after promotion (watch loads/stores become
//! copies and lifts appear in landing pads), and after the full pipeline.
//!
//! Run with: `cargo run --example compiler_explorer [file.c]`

use analysis::AnalysisLevel;

const DEMO: &str = r#"
int hits;
int misses;
void record() { misses = misses + 1; }
int main() {
    int i;
    for (i = 0; i < 1000; i++) {
        hits = hits + 1;
        if (i % 100 == 0) record();
    }
    print_int(hits);
    print_int(misses);
    return 0;
}
"#;

fn banner(title: &str) {
    println!("\n==================== {title} ====================");
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let source = match std::env::args().nth(1) {
        Some(path) => std::fs::read_to_string(path)?,
        None => DEMO.to_string(),
    };

    banner("1. after lowering (front end output)");
    let module = minic::compile(&source)?;
    println!("{module}");

    banner("2. after MOD/REF analysis (tag sets shrunk)");
    let mut analyzed = module.clone();
    for fi in 0..analyzed.funcs.len() {
        cfg::normalize_loops(&mut analyzed.funcs[fi]);
    }
    analysis::analyze(&mut analyzed, AnalysisLevel::ModRef);
    opt::strengthen(&mut analyzed);
    println!("{analyzed}");

    banner("3. after register promotion (lifts + copies)");
    let mut promoted = analyzed.clone();
    let report = promote::promote_module(&mut promoted);
    println!("{promoted}");
    println!(
        "; promoted {} tag(s), rewrote {} reference(s), inserted {} lift op(s)",
        report.promoted_tags, report.rewritten_refs, report.lifts
    );

    banner("4. after the full pipeline (optimized + allocated)");
    let final_module = driver::Session::default().compile(&source)?.module;
    println!("{final_module}");

    banner("execution");
    let out = vm::Vm::run_main(&final_module, vm::VmOptions::default())?;
    println!("output: {:?}", out.output);
    println!("counts: {}", out.counts);
    Ok(())
}
