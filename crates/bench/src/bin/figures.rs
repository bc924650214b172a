//! Regenerates Figures 5, 6, and 7 of the paper in one run.
//!
//! Usage: `cargo run --release -p promo-bench --bin figures [program]`

use bench_harness::measure_suite;
use driver::{render_figure, Metric};

fn main() {
    let only = std::env::args().nth(1);
    let rows = measure_suite(only.as_deref());
    for metric in [Metric::TotalOps, Metric::Stores, Metric::Loads] {
        println!("{}", render_figure(metric, &rows));
    }
}
