//! Differential test of scratch-arena reuse against compilation on a
//! clean arena, on randomized modules.
//!
//! The zero-allocation hot loop threads per-thread `PassScratch`
//! arenas and recycled analysis shells through every pass. Two bug
//! classes hide in that kind of reuse. *Leakage*: a pass reads state left
//! behind by the previous function (a dense table whose generation stamp
//! was not bumped, a worklist that was not drained, a recycled shell whose
//! version keys alias a different function's body), so the output depends
//! on compilation order or worker count. *Partial clearing*: an epoch
//! reset that skips one side table produces correct output for most
//! functions and garbage only when the stale entry happens to collide.
//! Both produce miscompiles that no single-compile test catches. The
//! oracle is each function compiled alone: a one-function module with the
//! same tag table, on a brand-new one-worker session on a fresh thread,
//! runs on a clean arena with fresh analysis shells (warm storage belongs
//! to the thread, not the session). The random modules contain no calls,
//! so nothing else about a function's compile depends on its neighbours.
//! These tests compile the same randomized modules on long-lived sessions
//! at several worker counts and demand, for every function, the
//! reference's printed body and remark events.
//!
//! Random inputs come from an in-tree xorshift64* generator: every case
//! is reproducible from the fixed seed and no external crates are needed
//! (the build must work offline).

use driver::Session;
use ir::{BinOp, BlockId, Function, FunctionBuilder, Instr, Module, Reg, TagId, TagKind, TagTable};
use trace::TraceRecord;

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
/// control flow (loops and irreducible tangles included), and scalar
/// loads/stores through a small set of global tags — enough surface for
/// every pass in the chain to fire on some fraction of the cases.
fn random_function(name: &str, rng: &mut Rng, tags: &[TagId]) -> Function {
    let arity = rng.below(3);
    let mut b = FunctionBuilder::new(name, arity);
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
        let v = regs[rng.below(regs.len())];
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

/// A module of several random functions over a shared tag table —
/// enough functions that a multi-worker run actually interleaves them.
fn random_module(rng: &mut Rng) -> Module {
    let mut module = Module::new();
    let mut tags = TagTable::new();
    let tag_ids: Vec<TagId> = (0..3)
        .map(|i| tags.intern(format!("g{i}"), TagKind::Global, 1))
        .collect();
    module.tags = tags;
    let nfuncs = 1 + rng.below(5);
    for i in 0..nfuncs {
        module
            .funcs
            .push(random_function(&format!("f{i}"), rng, &tag_ids));
    }
    module
}

/// One function's compile: its printed body and its trace records.
type FuncOutput = (String, Vec<TraceRecord>);

/// Compiles a copy of `module` on `session`, returning every function's
/// output in module order.
fn compile_on(session: &Session, module: &Module) -> Vec<FuncOutput> {
    let mut m = module.clone();
    let (_report, log) = session.optimize(&mut m).expect("pipeline must validate");
    let printed = m.to_string();
    let bodies = printed.split("func @").skip(1);
    m.funcs
        .iter()
        .zip(bodies)
        .map(|(f, body)| {
            let records = log.records.iter().filter(|r| r.func == f.name);
            (body.to_string(), records.cloned().collect())
        })
        .collect()
}

fn session(threads: usize) -> Session {
    Session::builder()
        .threads(Some(threads))
        .trace(true)
        .build()
}

/// The reference output of every function of `module`: each compiled
/// alone, in a one-function module with the same tag table, on a
/// brand-new one-worker session on a thread of its own, whose arenas and
/// shells no earlier compile has touched.
fn reference(module: &Module) -> Vec<FuncOutput> {
    module
        .funcs
        .iter()
        .map(|f| {
            let mut alone = Module::new();
            alone.tags = module.tags.clone();
            alone.funcs.push(f.clone());
            std::thread::scope(|s| {
                s.spawn(|| compile_on(&session(1), &alone).remove(0))
                    .join()
                    .expect("reference compile")
            })
        })
        .collect()
}

/// Asserts that `got` matches the per-function reference `want`.
fn assert_matches(got: &[FuncOutput], want: &[FuncOutput], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: function count");
    for (i, ((il, events), (want_il, want_events))) in got.iter().zip(want).enumerate() {
        assert_eq!(il, want_il, "{what}: f{i} body");
        assert_eq!(events, want_events, "{what}: f{i} remarks");
    }
}

/// Reused-scratch compilation must match the clean-arena reference —
/// same printed body, same remark events for every function — at every
/// worker count. The sessions are built once and fed every case in
/// sequence, so each case (after the first) runs on arenas and recycled
/// shells the previous cases dirtied.
#[test]
fn scratch_reuse_is_byte_identical_across_workers() {
    let mut rng = Rng::new(0x5C2A_7C41_0DDB_EEF5);
    let reused: Vec<Session> = [1, 2, 8].iter().map(|&w| session(w)).collect();
    for case in 0..40 {
        let module = random_module(&mut rng);
        let want = reference(&module);
        for (s, workers) in reused.iter().zip([1, 2, 8]) {
            let got = compile_on(s, &module);
            assert_matches(
                &got,
                &want,
                &format!("case {case}: reused scratch, {workers} workers"),
            );
        }
    }
}

/// Two consecutive runs of the same module on one session must both match
/// the clean-arena reference: the second run executes entirely on the
/// warm threads (recycled shells, dirtied arenas) that the first run left
/// behind.
#[test]
fn consecutive_runs_on_one_pool_agree() {
    let mut rng = Rng::new(0xB1A5_ED5E_55C7_A7C8);
    let warm = session(2);
    for case in 0..25 {
        let module = random_module(&mut rng);
        let want = reference(&module);
        let first = compile_on(&warm, &module);
        let second = compile_on(&warm, &module);
        assert_matches(&first, &want, &format!("case {case}: first warm run"));
        assert_matches(&second, &want, &format!("case {case}: second warm run"));
    }
}
