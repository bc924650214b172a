//! Global conditional constant propagation.
//!
//! A forward data-flow analysis over virtual registers with the classic
//! three-level lattice (⊤ / constant / ⊥). Definitions whose operands are
//! all constants are folded to `iconst`/`fconst`, and branches on constant
//! conditions become jumps (which `clean` then exploits to delete dead
//! arms).
//!
//! The solver is sparse *conditional* constant propagation in the style
//! of Wegman/Zadeck: it tracks which blocks are executable, marks only the
//! taken edge of a branch whose condition has resolved to a constant, and
//! never lets values flowing along a dead edge pollute a join. That is
//! strictly stronger than a dense sweep (which treats every CFG edge as
//! live) — a join reached constantly from only one arm of a constant
//! branch keeps its constant.
//!
//! The solver keeps block-entry values only for the function's *global
//! names*, the registers some block reads before defining them, found by
//! one linear pre-scan. Every other register is written before it is
//! read in each block that reads it, so its entry value is never read.
//! Dropping those slots changes no fixpoint and no fold; it makes a block
//! visit or an edge meet cost O(globals) instead of O(registers).

use cfg::{BlockWorklist, Cfg, DataflowStats, Direction, FunctionAnalyses, RegSet};
use ir::{BinOp, CmpOp, Function, Instr, Module, Reg, UnaryOp};

/// One register's abstract value: unknown-as-yet (⊤), a proven constant,
/// or proven varying (⊥).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Lat {
    /// No executable definition seen yet.
    Top,
    /// Every executable path assigns this integer.
    Int(i64),
    /// Every executable path assigns this float.
    Float(f64),
    /// Conflicting or unfoldable definitions.
    Bottom,
}

impl Lat {
    /// Lattice meet (greatest lower bound).
    pub fn meet(self, other: Lat) -> Lat {
        match (self, other) {
            (Lat::Top, x) | (x, Lat::Top) => x,
            (a, b) if a == b => a,
            _ => Lat::Bottom,
        }
    }
}

/// Computes the lattice value `instr` assigns to its destination under
/// `state`, without touching `state`. Instructions with no destination
/// evaluate to ⊥.
fn eval(instr: &Instr, state: &[Lat]) -> Lat {
    let get = |state: &[Lat], r: Reg| state[r.index()];
    match instr {
        Instr::IConst { value, .. } => Lat::Int(*value),
        Instr::FConst { value, .. } => Lat::Float(*value),
        Instr::Copy { src, .. } => get(state, *src),
        Instr::Unary { op, src, .. } => match (op, get(state, *src)) {
            (UnaryOp::Neg, Lat::Int(a)) => Lat::Int(a.wrapping_neg()),
            (UnaryOp::Neg, Lat::Float(a)) => Lat::Float(-a),
            (UnaryOp::Not, Lat::Int(a)) => Lat::Int((a == 0) as i64),
            (UnaryOp::IntToFloat, Lat::Int(a)) => Lat::Float(a as f64),
            (UnaryOp::FloatToInt, Lat::Float(a)) => Lat::Int(a as i64),
            (_, Lat::Top) => Lat::Top,
            _ => Lat::Bottom,
        },
        Instr::Binary { op, lhs, rhs, .. } => match (get(state, *lhs), get(state, *rhs)) {
            (Lat::Int(a), Lat::Int(b)) => {
                match fold_int(*op, a, b) {
                    Some(v) => Lat::Int(v),
                    None => Lat::Bottom, // division by zero traps at run time
                }
            }
            (Lat::Float(a), Lat::Float(b)) => match op {
                BinOp::Add => Lat::Float(a + b),
                BinOp::Sub => Lat::Float(a - b),
                BinOp::Mul => Lat::Float(a * b),
                BinOp::Div => Lat::Float(a / b),
                _ => Lat::Bottom,
            },
            (Lat::Top, _) | (_, Lat::Top) => Lat::Top,
            _ => Lat::Bottom,
        },
        Instr::Cmp { op, lhs, rhs, .. } => match (get(state, *lhs), get(state, *rhs)) {
            (Lat::Int(a), Lat::Int(b)) => Lat::Int(fold_cmp(*op, a, b)),
            (Lat::Top, _) | (_, Lat::Top) => Lat::Top,
            _ => Lat::Bottom,
        },
        Instr::Phi { args, .. } => {
            let mut v = Lat::Top;
            for (_, r) in args {
                v = v.meet(get(state, *r));
            }
            v
        }
        _ => Lat::Bottom,
    }
}

/// Applies `instr` to `state`.
fn transfer(instr: &Instr, state: &mut [Lat]) {
    let val = eval(instr, state);
    if let Some(d) = instr.def() {
        state[d.index()] = val;
    }
}

fn fold_int(op: BinOp, a: i64, b: i64) -> Option<i64> {
    Some(match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Div => {
            if b == 0 {
                return None;
            }
            a.wrapping_div(b)
        }
        BinOp::Rem => {
            if b == 0 {
                return None;
            }
            a.wrapping_rem(b)
        }
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        BinOp::Shl => a.wrapping_shl((b & 63) as u32),
        BinOp::Shr => a.wrapping_shr((b & 63) as u32),
    })
}

fn fold_cmp(op: CmpOp, a: i64, b: i64) -> i64 {
    (match op {
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
        CmpOp::Lt => a < b,
        CmpOp::Le => a <= b,
        CmpOp::Gt => a > b,
        CmpOp::Ge => a >= b,
    }) as i64
}

/// The solved constant lattice: which blocks can execute given the
/// constants found so far, and each register's value at every block entry.
/// Exposed so differential tests can compare solver precision directly.
#[derive(Debug, Clone)]
pub struct ConstLattice {
    /// True for blocks reachable along executable edges only: fewer than
    /// the CFG-reachable blocks when a branch condition is a constant.
    pub executable: Vec<bool>,
    /// Lattice value per register at each block's entry. A register that
    /// no block reads before defining it reports ⊤ everywhere: its entry
    /// value is never observed, so the solver keeps no slot for it.
    pub input: Vec<Vec<Lat>>,
}

/// Reusable solver state for [`constprop_function_in`]: the global names
/// (see the module docs) and the pre-scan that finds them, their entry
/// values per block, the executable-block bitmap, the walking state, and
/// the worklist. Length-reset per call; capacity survives across
/// functions.
#[derive(Default)]
pub struct ConstScratch {
    /// The global names, ascending: the registers some block reads
    /// before defining them (as in semi-pruned SSA).
    globals: Vec<Reg>,
    /// Pre-scan state: the global names as a set, and the block that last
    /// defined each register.
    read_first: RegSet,
    defined_in: Vec<u32>,
    /// Entry values per block, flattened: `globals.len()` per block, in
    /// `globals` order.
    input: Vec<Lat>,
    executable: Vec<bool>,
    /// The walking state, one value per register.
    state: Vec<Lat>,
    wl: BlockWorklist,
}

impl ConstScratch {
    /// One linear scan of `func` that collects its global names into
    /// `globals`. Liveness's upward-exposed-use summaries name the same
    /// registers per block, but they are private to the analysis cache
    /// and refreshed only when liveness is rebuilt.
    fn find_globals(&mut self, func: &Function) {
        let nregs = func.next_reg as usize;
        self.read_first.reset(nregs);
        self.defined_in.clear();
        self.defined_in.resize(nregs, u32::MAX);
        for (bi, block) in func.blocks.iter().enumerate() {
            let bi = bi as u32;
            for instr in &block.instrs {
                instr.visit_uses(|r| {
                    if self.defined_in[r.index()] != bi {
                        self.read_first.insert(r);
                    }
                });
                if let Some(d) = instr.def() {
                    self.defined_in[d.index()] = bi;
                }
            }
        }
        self.globals.clear();
        self.globals.extend(self.read_first.iter());
    }
}

/// Block `bi`'s row of a flat per-block table `width` values wide.
fn row(table: &[Lat], bi: usize, width: usize) -> &[Lat] {
    &table[bi * width..(bi + 1) * width]
}

/// Loads a block's entry values into the walking state.
fn enter(state: &mut [Lat], globals: &[Reg], input: &[Lat]) {
    for (r, &v) in globals.iter().zip(input) {
        state[r.index()] = v;
    }
}

/// Meets the walking state into a successor's entry values; returns true
/// if any of them changed.
fn meet_into(input: &mut [Lat], globals: &[Reg], state: &[Lat]) -> bool {
    let mut changed = false;
    for (slot, r) in input.iter_mut().zip(globals) {
        let m = slot.meet(state[r.index()]);
        if m != *slot {
            *slot = m;
            changed = true;
        }
    }
    changed
}

/// [`analyze_constants`] into caller-owned scratch buffers. On return
/// `scratch.executable` and `scratch.input` (flat, `scratch.globals.len()`
/// per block) hold the solution.
fn analyze_constants_in(
    func: &Function,
    cfg: &Cfg,
    stats: &mut DataflowStats,
    scratch: &mut ConstScratch,
) {
    scratch.find_globals(func);
    let ConstScratch {
        globals,
        input,
        executable,
        state,
        wl,
        ..
    } = scratch;
    let width = globals.len();
    let n = func.blocks.len();
    input.clear();
    input.resize(n * width, Lat::Top);
    executable.clear();
    executable.resize(n, false);
    state.clear();
    state.resize(func.next_reg as usize, Lat::Top);
    // Parameters are unknown. They are the lowest registers, so the ones
    // that are global names lead `globals`.
    let params = globals.partition_point(|r| r.index() < func.arity);
    let entry = func.entry.index() * width;
    input[entry..entry + params].fill(Lat::Bottom);
    // Sparse conditional constant propagation. The executable set and the
    // per-block inputs both grow monotonically, so the worklist terminates
    // at the least fixpoint over executable edges.
    executable[func.entry.index()] = true;
    wl.reset(cfg, Direction::Forward);
    wl.push(func.entry, stats);
    while let Some(b) = wl.pop(stats) {
        let bi = b.index();
        enter(state, globals, row(input, bi, width));
        for instr in &func.block(b).instrs {
            stats.transfer_evals += 1;
            transfer(instr, state);
        }
        // A branch whose condition has resolved to a constant executes
        // only its taken edge; everything else keeps all successors.
        let taken: Option<ir::BlockId> = match func.block(b).instrs.last() {
            Some(Instr::Branch {
                cond,
                then_bb,
                else_bb,
            }) => match state[cond.index()] {
                Lat::Int(c) => Some(if c != 0 { *then_bb } else { *else_bb }),
                _ => None,
            },
            _ => None,
        };
        for &s in cfg.succs[bi].iter() {
            if let Some(t) = taken {
                if s != t {
                    continue;
                }
            }
            let si = s.index();
            let mut changed = !executable[si];
            executable[si] = true;
            changed |= meet_into(&mut input[si * width..(si + 1) * width], globals, state);
            if changed {
                wl.push(s, stats);
            }
        }
    }
}

/// Solves the constant lattice for `func` by sparse conditional constant
/// propagation: only the entry is seeded, a branch whose condition is a
/// known constant marks only its taken edge, and blocks are re-enqueued
/// only when their input actually changes. Work is counted into `stats`.
pub fn analyze_constants(func: &Function, cfg: &Cfg, stats: &mut DataflowStats) -> ConstLattice {
    let mut scratch = ConstScratch::default();
    analyze_constants_in(func, cfg, stats, &mut scratch);
    let width = scratch.globals.len();
    let input = (0..func.blocks.len())
        .map(|bi| {
            let mut regs = vec![Lat::Top; func.next_reg as usize];
            enter(&mut regs, &scratch.globals, row(&scratch.input, bi, width));
            regs
        })
        .collect();
    ConstLattice {
        executable: scratch.executable,
        input,
    }
}

/// Runs constant propagation over one function against caller-owned
/// scratch buffers. Returns rewrites made.
pub fn constprop_function_in(
    func: &mut Function,
    analyses: &mut FunctionAnalyses,
    scratch: &mut ConstScratch,
) -> usize {
    let mut stats = DataflowStats::default();
    let cfg = analyses.cfg(func);
    analyze_constants_in(func, cfg, &mut stats, scratch);
    // Rewrite pass: fold definitions and branches. Blocks the solver
    // proved non-executable are left untouched — once their incoming
    // branches fold to jumps, `clean` removes them outright.
    let mut rewrites = 0;
    let mut branch_folds = 0;
    let width = scratch.globals.len();
    let state = &mut scratch.state;
    for &b in &cfg.rpo {
        let bi = b.index();
        if !scratch.executable[bi] {
            continue;
        }
        enter(state, &scratch.globals, row(&scratch.input, bi, width));
        for instr in &mut func.block_mut(b).instrs {
            let folded: Option<Instr> = match instr {
                Instr::Binary { dst, .. } | Instr::Cmp { dst, .. } | Instr::Unary { dst, .. } => {
                    let dst = *dst;
                    match eval(instr, &state) {
                        Lat::Int(v) => Some(Instr::IConst { dst, value: v }),
                        Lat::Float(v) => Some(Instr::FConst { dst, value: v }),
                        _ => None,
                    }
                }
                Instr::Branch {
                    cond,
                    then_bb,
                    else_bb,
                } => match state[cond.index()] {
                    Lat::Int(c) => Some(Instr::Jump {
                        target: if c != 0 { *then_bb } else { *else_bb },
                    }),
                    _ => None,
                },
                _ => None,
            };
            transfer(instr, state);
            if let Some(new) = folded {
                if *instr != new {
                    if matches!(new, Instr::Jump { .. }) {
                        branch_folds += 1;
                    }
                    *instr = new;
                    rewrites += 1;
                }
            }
        }
    }
    analyses.dataflow.add(&stats);
    // Folding a branch to a jump deletes an edge; constant folds only
    // rewrite operands.
    if branch_folds > 0 {
        analyses.note_shape_changed();
    } else if rewrites > 0 {
        analyses.note_body_changed();
    }
    rewrites
}

/// Runs constant propagation over every function, sharing one scratch.
pub fn constprop(module: &mut Module) -> usize {
    let mut n = 0;
    let mut scratch = ConstScratch::default();
    for func in &mut module.funcs {
        n += constprop_function_in(func, &mut FunctionAnalyses::new(), &mut scratch);
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn propagates_across_blocks() {
        let src = r#"
func @main(0) result {
B0:
  r0 = iconst 21
  jump B1
B1:
  r1 = add r0, r0
  ret r1
}
"#;
        let mut m = ir::parse_module(src).unwrap();
        let n = constprop(&mut m);
        assert_eq!(n, 1);
        assert!(matches!(
            m.funcs[0].blocks[1].instrs[0],
            Instr::IConst { value: 42, .. }
        ));
    }

    #[test]
    fn merges_conflicting_paths_to_bottom() {
        let src = r#"
func @main(1) result {
B0:
  branch r0, B1, B2
B1:
  r1 = iconst 1
  jump B3
B2:
  r1 = iconst 2
  jump B3
B3:
  r2 = add r1, r1
  ret r2
}
"#;
        let mut m = ir::parse_module(src).unwrap();
        let n = constprop(&mut m);
        assert_eq!(n, 0, "r1 is not constant at the join");
    }

    #[test]
    fn agreeing_paths_stay_constant() {
        let src = r#"
func @main(1) result {
B0:
  branch r0, B1, B2
B1:
  r1 = iconst 5
  jump B3
B2:
  r1 = iconst 5
  jump B3
B3:
  r2 = add r1, r1
  ret r2
}
"#;
        let mut m = ir::parse_module(src).unwrap();
        let n = constprop(&mut m);
        assert_eq!(n, 1);
        assert!(matches!(
            m.funcs[0].blocks[3].instrs[0],
            Instr::IConst { value: 10, .. }
        ));
    }

    #[test]
    fn folds_constant_branches() {
        let src = r#"
func @main(0) result {
B0:
  r0 = iconst 0
  branch r0, B1, B2
B1:
  r1 = iconst 111
  ret r1
B2:
  r2 = iconst 222
  ret r2
}
"#;
        let mut m = ir::parse_module(src).unwrap();
        constprop(&mut m);
        assert!(matches!(
            m.funcs[0].blocks[0].instrs[1],
            Instr::Jump { target } if target == ir::BlockId(2)
        ));
    }

    #[test]
    fn loop_carried_values_are_bottom() {
        let src = r#"
func @main(0) result {
B0:
  r0 = iconst 10
  jump B1
B1:
  r1 = iconst 1
  r0 = sub r0, r1
  branch r0, B1, B2
B2:
  ret r0
}
"#;
        let mut m = ir::parse_module(src).unwrap();
        let before = vm::Vm::run_main(&m, vm::VmOptions::default()).unwrap();
        constprop(&mut m);
        ir::validate(&m).unwrap();
        let after = vm::Vm::run_main(&m, vm::VmOptions::default()).unwrap();
        assert_eq!(before.exit_code, after.exit_code);
        // The loop body subtraction must not be folded.
        assert!(matches!(
            m.funcs[0].blocks[1].instrs[1],
            Instr::Binary { .. }
        ));
    }

    #[test]
    fn dead_branch_arm_does_not_pollute_the_join() {
        // r0 is the constant 1, so B2 never executes. A dense sweep would
        // still meet B2's r1 = 7 into the join and lose the fold; SCCP
        // keeps r1 = 5 and folds the add.
        let src = r#"
func @main(0) result {
B0:
  r0 = iconst 1
  branch r0, B1, B2
B1:
  r1 = iconst 5
  jump B3
B2:
  r1 = iconst 7
  jump B3
B3:
  r2 = add r1, r1
  ret r2
}
"#;
        let mut m = ir::parse_module(src).unwrap();
        let n = constprop(&mut m);
        assert!(
            matches!(
                m.funcs[0].blocks[3].instrs[0],
                Instr::IConst { value: 10, .. }
            ),
            "join fold lost: {:?}",
            m.funcs[0].blocks[3].instrs[0]
        );
        assert!(matches!(
            m.funcs[0].blocks[0].instrs[1],
            Instr::Jump { target } if target == ir::BlockId(1)
        ));
        assert!(n >= 2);
        ir::validate(&m).unwrap();
    }

    #[test]
    fn division_by_zero_not_folded() {
        let src = r#"
func @main(0) result {
B0:
  r0 = iconst 1
  r1 = iconst 0
  r2 = div r0, r1
  ret r2
}
"#;
        let mut m = ir::parse_module(src).unwrap();
        constprop(&mut m);
        assert!(matches!(
            m.funcs[0].blocks[0].instrs[2],
            Instr::Binary { .. }
        ));
    }
}
