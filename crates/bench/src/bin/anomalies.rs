//! Reproduces the paper's three degradation stories:
//!
//! * `dhrystone` — promotion in a loop that always executes once;
//! * `bison` — promotion of values only touched on a dead error path;
//! * `water` — 28 promoted values vs the register file: a K-sweep shows
//!   where spills give the savings back. (The paper's 1997 Chaitin-style
//!   allocator over-spilled at K≈32; this Briggs-conservative allocator
//!   with rematerialization needs a tighter file to cross over.)

use bench_harness::{pressure_sweep, pressure_text};
use driver::{measure_program, Metric};

fn main() {
    for name in ["dhrystone", "bison"] {
        let b = benchsuite::find(name).expect("suite program");
        let rows = measure_program(b.name, b.source).expect("suite program compiles and runs");
        println!("{name}: {}", b.paper_expectation);
        for row in &rows {
            println!("  {}", row.format(Metric::TotalOps));
        }
        println!();
    }
    let water = benchsuite::find("water").expect("water");
    let points = pressure_sweep(water.source, &[8, 12, 16, 24, 32, 48]);
    println!("{}", pressure_text("water", &points));
}
