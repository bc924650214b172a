//! Quickstart: compile a MiniC program with and without register
//! promotion and compare the dynamic memory traffic — the paper's core
//! experiment in thirty lines.
//!
//! Run with: `cargo run --example quickstart`

use analysis::AnalysisLevel;
use driver::prelude::*;

const PROGRAM: &str = r#"
int total;                 // a global: it lives in memory
void audit() { }           // a call that provably touches nothing

int main() {
    int i;
    for (i = 0; i < 100000; i++) {
        total = total + i; // load + store per iteration... until promoted
        audit();
    }
    print_int(total);
    return 0;
}
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("source:\n{PROGRAM}");
    for promote in [false, true] {
        let builder = Session::builder()
            .analysis(AnalysisLevel::ModRef)
            .promote(promote);
        let c = builder.build().compile(PROGRAM)?;
        let (outcome, report) = (c.run(VmOptions::default())?, c.report);
        println!(
            "promotion {:<3}  output={:?}  total={:>7}  loads={:>7}  stores={:>7}",
            if promote { "on" } else { "off" },
            outcome.output,
            outcome.counts.total,
            outcome.counts.loads,
            outcome.counts.stores,
        );
        if promote {
            println!(
                "              ({} tag promoted, {} references rewritten to copies)",
                report.promotion.scalar.promoted_tags, report.promotion.scalar.rewritten_refs
            );
        }
    }
    println!("\nThe 100000 loads and 100000 stores of `total` collapsed to one of each.");
    Ok(())
}
