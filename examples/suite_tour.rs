//! A guided tour of the 14-program benchmark suite (the paper's Figure 4):
//! what each program is, what the paper measured for it, and a live
//! measurement of one program of your choice.
//!
//! Run with: `cargo run --release --example suite_tour [program]`

use driver::{measure_program, Metric};

fn main() {
    println!("The paper's benchmark suite (Figure 4), as modeled here:\n");
    println!("{:<10} {:<45} paper expectation", "name", "description");
    for b in benchsuite::SUITE {
        println!(
            "{:<10} {:<45} {}",
            b.name, b.description, b.paper_expectation
        );
    }
    let pick = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "clean".to_string());
    let Some(b) = benchsuite::find(&pick) else {
        eprintln!("unknown benchmark {pick}");
        std::process::exit(1);
    };
    println!(
        "\nLive measurement of `{}` (this runs the 2x2 experiment):\n",
        b.name
    );
    let rows = measure_program(b.name, b.source).expect("suite program compiles and runs");
    for metric in [Metric::TotalOps, Metric::Stores, Metric::Loads] {
        println!("{}", driver::render_figure(metric, &rows));
    }
    println!("paper expectation: {}", b.paper_expectation);
}
