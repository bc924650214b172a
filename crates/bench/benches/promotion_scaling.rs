//! Compile-time scaling of the promotion algorithm (§3.1's cost claim).
//!
//! The paper bounds the promoter at `O(Eα(E,B) + T·(C + LB + LX))` and
//! says "in practice, it runs quite quickly". This bench generates
//! synthetic loop nests with growing block counts / loop counts / tag
//! counts and times `promote_module`, so regressions from near-linear
//! behaviour are visible.
//!
//! Plain `std::time::Instant` harness (`harness = false`): no external
//! bench framework so the build works offline. Run with
//! `cargo bench --bench promotion_scaling`.

use bench_harness::timing::time_case;
use ir::{BinOp, CmpOp, FunctionBuilder, GlobalInit, Module};

/// Builds a module whose `main` has `seq` consecutive loops, each `depth`
/// deep, touching `tags` global scalars.
fn synthetic(seq: usize, depth: usize, tags: usize) -> Module {
    let mut m = Module::new();
    let tag_ids: Vec<_> = (0..tags)
        .map(|i| m.add_global(&format!("g{i}"), 1, GlobalInit::Zero))
        .collect();
    let mut b = FunctionBuilder::new("main", 0);
    for s in 0..seq {
        // depth nested loops, innermost touching all tags.
        let mut headers = Vec::new();
        let mut bodies = Vec::new();
        for _ in 0..depth {
            headers.push(b.new_block());
            bodies.push(b.new_block());
        }
        let exit = b.new_block();
        let counter = b.iconst(4);
        b.jump(headers[0]);
        for d in 0..depth {
            b.switch_to(headers[d]);
            let z = b.iconst(0);
            let c = b.cmp(CmpOp::Gt, counter, z);
            let out = if d == 0 { exit } else { headers[d - 1] };
            b.branch(c, bodies[d], out);
            b.switch_to(bodies[d]);
            if d == depth - 1 {
                for &t in &tag_ids {
                    let v = b.sload(t);
                    let one = b.iconst(1);
                    let n = b.binary(BinOp::Add, v, one);
                    b.sstore(n, t);
                }
                b.jump(headers[d]);
            } else {
                b.jump(headers[d + 1]);
            }
        }
        b.switch_to(exit);
        let _ = s;
        let cont = b.new_block();
        b.jump(cont);
        b.switch_to(cont);
    }
    b.ret(None);
    m.add_func(b.finish());
    ir::validate(&m).expect("synthetic module is valid");
    m
}

fn main() {
    // Sweep block count via sequential loops.
    for &seq in &[4usize, 16, 64, 256] {
        let module = synthetic(seq, 2, 8);
        time_case(&format!("promotion_scaling/loops/{seq}"), || {
            let mut m = module.clone();
            promote::promote_module(&mut m);
        });
    }
    // Sweep nesting depth.
    for &depth in &[2usize, 4, 8, 16] {
        let module = synthetic(4, depth, 8);
        time_case(&format!("promotion_scaling/depth/{depth}"), || {
            let mut m = module.clone();
            promote::promote_module(&mut m);
        });
    }
    // Sweep tag count.
    for &tags in &[8usize, 32, 128, 512] {
        let module = synthetic(8, 2, tags);
        time_case(&format!("promotion_scaling/tags/{tags}"), || {
            let mut m = module.clone();
            promote::promote_module(&mut m);
        });
    }
}
