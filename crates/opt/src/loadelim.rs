//! Global redundant-load elimination.
//!
//! The paper's compiler uses partial redundancy elimination with memory
//! tags to "achieve most of the effects of promotion in straight-line
//! code", chiefly by eliminating redundant loads (stores are treated
//! conservatively). This pass implements that load-elimination core as a
//! forward *available-scalar-values* data-flow problem: at each point, for
//! each tag, which register is known to hold the tag's current value. A
//! later `sload` of an available tag becomes a register copy.

use cfg::{BlockWorklist, Cfg, DataflowStats, Direction, FunctionAnalyses};
use ir::hash::FxHashMap;
use ir::{Function, Instr, Module, Reg, TagId, TagSet};

/// The per-point fact: tag -> register holding its value. `None` is ⊤
/// (unvisited).
type Avail = Option<FxHashMap<TagId, Reg>>;

/// Reusable solver state for [`loadelim_function_in`]: the per-block input
/// facts, a free pool of cleared fact maps the inputs are recycled
/// through, the walking fact map, and the worklist. Every map keeps its
/// hash-table capacity while parked in the pool, so the steady state
/// allocates nothing.
#[derive(Default)]
pub struct LoadelimScratch {
    input: Vec<Avail>,
    pool: Vec<FxHashMap<TagId, Reg>>,
    facts: FxHashMap<TagId, Reg>,
    wl: BlockWorklist,
}

impl LoadelimScratch {
    /// Recycles last call's fact maps into the pool and re-sizes the input
    /// vector to `n` ⊤ entries.
    fn begin(&mut self, n: usize) {
        for slot in self.input.iter_mut() {
            if let Some(mut m) = slot.take() {
                m.clear();
                self.pool.push(m);
            }
        }
        self.input.clear();
        self.input.resize(n, None);
    }
}

/// Meets `out` into a successor's input fact in place; returns true if the
/// input changed. ⊤ adopts `out` wholesale (into a map recycled from
/// `pool`); otherwise the intersection only ever shrinks, so retaining
/// agreeing entries suffices.
fn meet_into(
    input: &mut Avail,
    out: &FxHashMap<TagId, Reg>,
    pool: &mut Vec<FxHashMap<TagId, Reg>>,
) -> bool {
    match input {
        None => {
            let mut m = pool.pop().unwrap_or_default();
            m.extend(out.iter().map(|(&t, &r)| (t, r)));
            *input = Some(m);
            true
        }
        Some(m) => {
            let before = m.len();
            m.retain(|t, r| out.get(t) == Some(r));
            m.len() != before
        }
    }
}

/// Applies one instruction to the fact map. When `rewrite` is true,
/// redundant loads are rewritten; returns 1 for a rewrite.
fn transfer(instr: &mut Instr, facts: &mut FxHashMap<TagId, Reg>, rewrite: bool) -> usize {
    let mut changed = 0;
    // A definition of register r invalidates any fact r was holding.
    if let Some(d) = instr.def() {
        facts.retain(|_, r| *r != d);
    }
    match instr {
        Instr::SLoad { dst, tag } | Instr::CLoad { dst, tag } => {
            if let Some(&r) = facts.get(tag) {
                if rewrite {
                    let d = *dst;
                    *instr = Instr::Copy { dst: d, src: r };
                    facts.retain(|_, h| *h != d);
                    // d now also holds the value; keep the original home.
                    changed = 1;
                }
            } else {
                facts.insert(*tag, *dst);
            }
        }
        Instr::SStore { src, tag } => {
            facts.insert(*tag, *src);
        }
        Instr::Store { tags, .. } => match tags {
            TagSet::All => facts.clear(),
            TagSet::Set(s) => {
                for t in s.iter() {
                    facts.remove(&t);
                }
            }
        },
        Instr::Call { effects, .. } => match &effects.mods {
            TagSet::All => facts.clear(),
            TagSet::Set(s) => {
                for t in s.iter() {
                    facts.remove(&t);
                }
            }
        },
        _ => {}
    }
    changed
}

/// Runs redundant-load elimination on one function against
/// caller-owned scratch state. Returns loads rewritten to copies.
pub fn loadelim_function_in(
    func: &mut Function,
    analyses: &mut FunctionAnalyses,
    scratch: &mut LoadelimScratch,
) -> usize {
    let mut stats = DataflowStats::default();
    let cfg = analyses.cfg(func);
    solve(func, cfg, scratch, &mut stats);
    let rewrites = rewrite(func, cfg, scratch);
    analyses.dataflow.add(&stats);
    // Rewrites turn loads into copies in place: operand-only.
    if rewrites > 0 {
        analyses.note_body_changed();
    }
    rewrites
}

/// Solves the available-values problem into `scratch.input` with a sparse
/// worklist: a block re-runs only when its input shrank.
fn solve(func: &mut Function, cfg: &Cfg, scratch: &mut LoadelimScratch, stats: &mut DataflowStats) {
    scratch.begin(func.blocks.len());
    let LoadelimScratch {
        input,
        pool,
        facts,
        wl,
    } = scratch;
    input[func.entry.index()] = Some(pool.pop().unwrap_or_default());
    wl.reset(cfg, Direction::Forward);
    wl.push(func.entry, stats);
    while let Some(b) = wl.pop(stats) {
        facts.clear();
        facts.extend(input[b.index()].as_ref().expect("queued implies visited"));
        for instr in &mut func.block_mut(b).instrs {
            stats.transfer_evals += 1;
            transfer(instr, facts, false);
        }
        for &s in &cfg.succs[b.index()] {
            if meet_into(&mut input[s.index()], facts, pool) {
                wl.push(s, stats);
            }
        }
    }
}

/// Rewrites every load whose tag is available under the solved
/// `scratch.input`; returns the number rewritten.
fn rewrite(func: &mut Function, cfg: &Cfg, scratch: &mut LoadelimScratch) -> usize {
    let mut rewrites = 0;
    for &b in &cfg.rpo {
        let Some(block_in) = scratch.input[b.index()].as_ref() else {
            continue;
        };
        scratch.facts.clear();
        scratch.facts.extend(block_in);
        for instr in &mut func.block_mut(b).instrs {
            rewrites += transfer(instr, &mut scratch.facts, true);
        }
    }
    rewrites
}

/// Runs redundant-load elimination over every function, sharing one
/// scratch.
pub fn loadelim(module: &mut Module) -> usize {
    let mut n = 0;
    let mut scratch = LoadelimScratch::default();
    for func in &mut module.funcs {
        n += loadelim_function_in(func, &mut FunctionAnalyses::new(), &mut scratch);
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir::{BinOp, BlockId, FunctionBuilder, TagKind, TagTable};
    use vm::{Vm, VmOptions};

    /// The dense fixpoint the sparse worklist replaced: every visited
    /// block is swept again in reverse postorder until no input changes.
    fn solve_dense(func: &mut Function, cfg: &Cfg, scratch: &mut LoadelimScratch) {
        scratch.begin(func.blocks.len());
        let LoadelimScratch {
            input, pool, facts, ..
        } = scratch;
        input[func.entry.index()] = Some(pool.pop().unwrap_or_default());
        let mut changed = true;
        while changed {
            changed = false;
            for &b in &cfg.rpo {
                let Some(block_in) = input[b.index()].as_ref() else {
                    continue;
                };
                facts.clear();
                facts.extend(block_in);
                for instr in &mut func.block_mut(b).instrs {
                    transfer(instr, facts, false);
                }
                for s in &cfg.succs[b.index()] {
                    changed |= meet_into(&mut input[s.index()], facts, pool);
                }
            }
        }
    }

    /// Deterministic xorshift64* PRNG.
    struct Rng(u64);

    impl Rng {
        fn new(seed: u64) -> Self {
            Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
        }
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// Builds a function with random register dataflow, random multi-block
    /// control flow (loops, irreducible tangles, and unreachable blocks
    /// included), constant-guarded branches for SCCP to prune, and scalar
    /// loads/stores through a small set of global tags for the memory
    /// problems to chew on.
    fn random_function(rng: &mut Rng, tags: &[TagId]) -> Function {
        let arity = rng.below(3);
        let mut b = FunctionBuilder::new("f", arity);
        let nblocks = 1 + rng.below(7);
        for _ in 1..nblocks {
            b.new_block();
        }
        let mut regs: Vec<Reg> = (0..arity as u32).map(Reg).collect();
        if regs.is_empty() {
            b.switch_to(BlockId(0));
            regs.push(b.iconst(1));
        }
        for bi in 0..nblocks {
            b.switch_to(BlockId(bi as u32));
            if b.is_terminated() {
                continue;
            }
            for _ in 0..rng.below(8) {
                let pick = |rng: &mut Rng, regs: &[Reg]| regs[rng.below(regs.len())];
                match rng.below(7) {
                    0 => regs.push(b.iconst(rng.below(100) as i64)),
                    1 => {
                        let (l, r) = (pick(rng, &regs), pick(rng, &regs));
                        regs.push(b.binary(BinOp::Add, l, r));
                    }
                    2 => {
                        // Redefine an existing register.
                        let (d, l, r) = (pick(rng, &regs), pick(rng, &regs), pick(rng, &regs));
                        b.emit(Instr::Binary {
                            op: BinOp::Mul,
                            dst: d,
                            lhs: l,
                            rhs: r,
                        });
                    }
                    3 => {
                        let s = pick(rng, &regs);
                        regs.push(b.copy(s));
                    }
                    4 => regs.push(b.sload(tags[rng.below(tags.len())])),
                    5 => {
                        let s = pick(rng, &regs);
                        b.sstore(s, tags[rng.below(tags.len())]);
                    }
                    _ => {
                        let (d, s) = (pick(rng, &regs), pick(rng, &regs));
                        b.emit(Instr::Copy { dst: d, src: s });
                    }
                }
            }
            // A quarter of branch conditions are fresh constants, so SCCP's
            // executable-edge pruning actually fires on these inputs.
            let v = if rng.below(4) == 0 {
                b.iconst(rng.below(2) as i64)
            } else {
                regs[rng.below(regs.len())]
            };
            match rng.below(3) {
                0 => b.ret(None),
                1 => b.jump(BlockId(rng.below(nblocks) as u32)),
                _ => b.branch(
                    v,
                    BlockId(rng.below(nblocks) as u32),
                    BlockId(rng.below(nblocks) as u32),
                ),
            }
        }
        b.finish()
    }

    fn test_tags() -> (TagTable, Vec<TagId>) {
        let mut tags = TagTable::new();
        let ids = (0..3)
            .map(|i| tags.intern(format!("g{i}"), TagKind::Global, 1))
            .collect();
        (tags, ids)
    }

    /// The sparse worklist is precision-equal to the dense fixpoint, so on
    /// random functions (loops, irreducible tangles, unreachable blocks,
    /// redefinitions) both must rewrite the same loads.
    #[test]
    fn sparse_loadelim_rewrites_identically_to_dense() {
        let (_, tag_ids) = test_tags();
        let mut rng = Rng::new(0xD1FF_0000_0000_0003);
        for case in 0..300 {
            let func = random_function(&mut rng, &tag_ids);
            let mut f_sparse = func.clone();
            let ns = loadelim_function_in(
                &mut f_sparse,
                &mut FunctionAnalyses::new(),
                &mut LoadelimScratch::default(),
            );
            let mut f_dense = func.clone();
            let cfg = Cfg::build(&f_dense);
            let mut scratch = LoadelimScratch::default();
            solve_dense(&mut f_dense, &cfg, &mut scratch);
            let nd = rewrite(&mut f_dense, &cfg, &mut scratch);
            assert_eq!(ns, nd, "case {case}: loadelim rewrite counts diverged");
            assert_eq!(
                f_sparse, f_dense,
                "case {case}: loadelim output diverged\n{func:?}"
            );
        }
    }

    fn run_pair(src: &str) -> (vm::Outcome, vm::Outcome, usize) {
        let mut m = minic::compile(src).unwrap();
        analysis::analyze(&mut m, analysis::AnalysisLevel::ModRef);
        let before = Vm::run_main(&m, VmOptions::default()).unwrap();
        let n = loadelim(&mut m);
        ir::validate(&m).expect("valid");
        let after = Vm::run_main(&m, VmOptions::default()).unwrap();
        assert_eq!(before.output, after.output);
        (before, after, n)
    }

    #[test]
    fn straight_line_reloads_become_copies() {
        let (before, after, n) = run_pair(
            r#"
int g;
int main() {
    g = 4;
    int a = g + 1;
    int b = g + 2;
    int c = g + 3;
    print_int(a + b + c);
    return 0;
}
"#,
        );
        assert!(n >= 3, "all three loads forwarded from the store, got {n}");
        assert!(after.counts.loads + 3 <= before.counts.loads);
    }

    #[test]
    fn cross_block_availability() {
        let (before, after, n) = run_pair(
            r#"
int g = 9;
int pick;
int main() {
    int a = g;
    int b;
    if (pick) { b = g + 1; } else { b = g + 2; }
    int c = g;
    print_int(a + b + c);
    return 0;
}
"#,
        );
        // Loads in both arms and after the join forward from the first
        // (3 static rewrites; 2 of them execute on any one path).
        assert!(n >= 3);
        assert_eq!(after.counts.loads, before.counts.loads - 2);
    }

    #[test]
    fn kills_across_calls_that_mod() {
        let (before, after, _) = run_pair(
            r#"
int g = 1;
void bump() { g = g + 1; }
int main() {
    int a = g;
    bump();
    int b = g;
    print_int(a + b);
    return 0;
}
"#,
        );
        // The second load of g must survive (bump mods g); bump's internal
        // load of g forwards nothing.
        assert_eq!(after.counts.loads, before.counts.loads);
    }

    #[test]
    fn partial_availability_is_not_enough() {
        let (before, after, _) = run_pair(
            r#"
int g = 3;
int pick = 1;
int main() {
    int a = 0;
    if (pick) { a = g; }
    int b = g;
    print_int(a + b);
    return 0;
}
"#,
        );
        // g is available on only one path into the join: the must-analysis
        // keeps the load.
        assert_eq!(after.counts.loads, before.counts.loads);
    }

    #[test]
    fn register_redefinition_kills_facts() {
        let (_, after, _) = run_pair(
            r#"
int g = 5;
int h = 7;
int main() {
    int a = g;
    a = h;
    int b = g;
    print_int(a + b);
    return 0;
}
"#,
        );
        assert_eq!(after.output, vec!["12"]);
    }
}
