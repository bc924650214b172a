//! Local value numbering.
//!
//! Per-block value numbering with constant folding, commutative
//! canonicalization, a few algebraic identities, copy propagation, and
//! tag-aware forwarding of scalar memory values (a `sload` after an
//! `sstore`/`sload` of the same tag with no intervening kill reuses the
//! register instead of touching memory).

use cfg::FunctionAnalyses;
use ir::hash::FxHashMap;
use ir::{BinOp, CmpOp, DenseMap, Function, Instr, Module, Reg, TagId, TagSet, UnaryOp};

type Vn = u32;

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum ExprKey {
    IntConst(i64),
    FloatConst(u64),
    FuncAddr(u32),
    Unary(UnaryOp, Vn),
    Binary(BinOp, Vn, Vn),
    Cmp(CmpOp, Vn, Vn),
    Lea(TagId),
    PtrAdd(Vn, Vn),
}

/// Reusable value-numbering tables: the per-block state of [`lvn_function_in`],
/// hoisted into a scratch arena so the steady state allocates nothing.
///
/// The register- and value-number-keyed tables are epoch-cleared
/// [`DenseMap`]s; the expression and scalar-memory tables stay hashed
/// (their keys — structured expressions and tag ids, which may be huge
/// provisional-spill values — are not dense) with the deterministic Fx
/// hasher, and keep their capacity across blocks and functions via
/// `clear`.
#[derive(Default)]
pub struct LvnScratch {
    next_vn: Vn,
    reg_vn: DenseMap<Vn>,
    expr_vn: FxHashMap<ExprKey, Vn>,
    vn_const: DenseMap<i64>,
    vn_home: DenseMap<u32>,
    /// Scalar memory state: tag -> value number currently in the cell.
    mem: FxHashMap<TagId, Vn>,
}

impl LvnScratch {
    /// Forgets all block-local state; `nregs` sizes the register table.
    fn begin_block(&mut self, nregs: usize) {
        self.next_vn = 0;
        self.reg_vn.reset(nregs);
        self.vn_const.reset(0);
        self.vn_home.reset(0);
        self.expr_vn.clear();
        self.mem.clear();
    }

    fn fresh(&mut self) -> Vn {
        self.next_vn += 1;
        self.next_vn
    }

    fn vn_of(&mut self, r: Reg) -> Vn {
        if let Some(v) = self.reg_vn.get(r.0) {
            v
        } else {
            let v = self.fresh();
            self.reg_vn.insert(r.0, v);
            self.vn_home.insert(v, r.0);
            v
        }
    }

    /// The register currently holding `vn`, if any (validated against
    /// redefinition).
    fn home(&self, vn: Vn) -> Option<Reg> {
        let r = self.vn_home.get(vn)?;
        (self.reg_vn.get(r) == Some(vn)).then_some(Reg(r))
    }

    fn set_reg(&mut self, r: Reg, vn: Vn) {
        self.reg_vn.insert(r.0, vn);
        // Prefer the earliest live home; adopt r if the old home died.
        match self.home(vn) {
            Some(_) => {}
            None => {
                self.vn_home.insert(vn, r.0);
            }
        }
    }

    fn kill_mem(&mut self, tags: &TagSet) {
        match tags {
            TagSet::All => self.mem.clear(),
            TagSet::Set(s) => {
                for t in s.iter() {
                    self.mem.remove(&t);
                }
            }
        }
    }
}

/// Rewrites operand `r` to the canonical home of its value number.
fn canon(t: &mut LvnScratch, r: Reg) -> Reg {
    let vn = t.vn_of(r);
    t.home(vn).unwrap_or(r)
}

fn fold_int_binary(op: BinOp, a: i64, b: i64) -> Option<i64> {
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
    let r = match op {
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
        CmpOp::Lt => a < b,
        CmpOp::Le => a <= b,
        CmpOp::Gt => a > b,
        CmpOp::Ge => a >= b,
    };
    r as i64
}

/// Runs local value numbering over one function against caller-owned
/// scratch tables. Returns the number of instructions rewritten.
pub fn lvn_function_in(
    func: &mut Function,
    analyses: &mut FunctionAnalyses,
    scratch: &mut LvnScratch,
) -> usize {
    let mut changes = 0;
    let mut branch_folds = 0;
    let nregs = func.next_reg as usize;
    for block in &mut func.blocks {
        scratch.begin_block(nregs);
        for instr in &mut block.instrs {
            let was_branch = matches!(instr, Instr::Branch { .. });
            let c = lvn_instr(scratch, instr);
            changes += c;
            if c > 0 && was_branch && matches!(instr, Instr::Jump { .. }) {
                branch_folds += 1;
            }
        }
    }
    // A folded branch removes an edge; everything else only rewrites
    // operands within blocks.
    if branch_folds > 0 {
        analyses.note_shape_changed();
    } else if changes > 0 {
        analyses.note_body_changed();
    }
    changes
}

/// Processes one instruction; returns 1 if it was rewritten.
fn lvn_instr(t: &mut LvnScratch, instr: &mut Instr) -> usize {
    let mut changed = 0;
    // First canonicalize operands (copy propagation). Tracking the change
    // inside the visit avoids the old whole-instruction clone-and-compare
    // probe: only use operands can change here, so a reg-level comparison
    // is exact.
    match instr {
        // φ operands must not be rewritten with block-local information.
        Instr::Phi { .. } => {}
        _ => instr.visit_uses_mut(|r| {
            let c = canon(t, *r);
            if c != *r {
                *r = c;
                changed = 1;
            }
        }),
    }
    match instr {
        Instr::IConst { dst, value } => {
            let key = ExprKey::IntConst(*value);
            let vn = match t.expr_vn.get(&key) {
                Some(&vn) => vn,
                None => {
                    let vn = t.fresh();
                    t.expr_vn.insert(key, vn);
                    t.vn_const.insert(vn, *value);
                    vn
                }
            };
            t.set_reg(*dst, vn);
        }
        Instr::FConst { dst, value } => {
            let key = ExprKey::FloatConst(value.to_bits());
            let vn = *t.expr_vn.entry(key).or_insert_with(|| {
                t.next_vn += 1;
                t.next_vn
            });
            t.set_reg(*dst, vn);
        }
        Instr::FuncAddr { dst, func } => {
            let key = ExprKey::FuncAddr(func.0);
            let vn = *t.expr_vn.entry(key).or_insert_with(|| {
                t.next_vn += 1;
                t.next_vn
            });
            t.set_reg(*dst, vn);
        }
        Instr::Copy { dst, src } => {
            let vn = t.vn_of(*src);
            t.set_reg(*dst, vn);
        }
        Instr::Unary { op, dst, src } => {
            let vs = t.vn_of(*src);
            // Fold integer negation/not of constants.
            if let Some(c) = t.vn_const.get(vs) {
                let folded = match op {
                    UnaryOp::Neg => Some(c.wrapping_neg()),
                    UnaryOp::Not => Some((c == 0) as i64),
                    _ => None,
                };
                if let Some(v) = folded {
                    let d = *dst;
                    *instr = Instr::IConst { dst: d, value: v };
                    return 1 + lvn_instr(t, instr);
                }
            }
            let key = ExprKey::Unary(*op, vs);
            match t.expr_vn.get(&key) {
                Some(&vn) => {
                    if let Some(home) = t.home(vn) {
                        let d = *dst;
                        *instr = Instr::Copy { dst: d, src: home };
                        changed = 1;
                        t.set_reg(d, vn);
                    } else {
                        t.set_reg(*dst, vn);
                    }
                }
                None => {
                    let vn = t.fresh();
                    t.expr_vn.insert(key, vn);
                    t.set_reg(*dst, vn);
                }
            }
        }
        Instr::Binary { op, dst, lhs, rhs } => {
            let mut vl = t.vn_of(*lhs);
            let mut vr = t.vn_of(*rhs);
            let cl = t.vn_const.get(vl);
            let cr = t.vn_const.get(vr);
            // Constant folding.
            if let (Some(a), Some(b)) = (cl, cr) {
                if let Some(v) = fold_int_binary(*op, a, b) {
                    let d = *dst;
                    *instr = Instr::IConst { dst: d, value: v };
                    return 1 + lvn_instr(t, instr);
                }
            }
            // Algebraic identities (integer-only where value-safe).
            let identity: Option<Reg> = match (*op, cl, cr) {
                (BinOp::Add, Some(0), _) => t.home(vr),
                (BinOp::Add, _, Some(0)) | (BinOp::Sub, _, Some(0)) => t.home(vl),
                (BinOp::Mul, Some(1), _) => t.home(vr),
                (BinOp::Mul, _, Some(1)) | (BinOp::Div, _, Some(1)) => t.home(vl),
                _ => None,
            };
            if let Some(src) = identity {
                let d = *dst;
                *instr = Instr::Copy { dst: d, src };
                return 1 + lvn_instr(t, instr);
            }
            if (*op == BinOp::Sub || *op == BinOp::Xor) && vl == vr {
                let d = *dst;
                *instr = Instr::IConst { dst: d, value: 0 };
                return 1 + lvn_instr(t, instr);
            }
            if op.is_commutative() && vl > vr {
                std::mem::swap(&mut vl, &mut vr);
            }
            let key = ExprKey::Binary(*op, vl, vr);
            match t.expr_vn.get(&key) {
                Some(&vn) => {
                    if let Some(home) = t.home(vn) {
                        let d = *dst;
                        *instr = Instr::Copy { dst: d, src: home };
                        changed = 1;
                        t.set_reg(d, vn);
                    } else {
                        t.set_reg(*dst, vn);
                    }
                }
                None => {
                    let vn = t.fresh();
                    t.expr_vn.insert(key, vn);
                    t.set_reg(*dst, vn);
                }
            }
        }
        Instr::Cmp { op, dst, lhs, rhs } => {
            let vl = t.vn_of(*lhs);
            let vr = t.vn_of(*rhs);
            if let (Some(a), Some(b)) = (t.vn_const.get(vl), t.vn_const.get(vr)) {
                let d = *dst;
                let v = fold_cmp(*op, a, b);
                *instr = Instr::IConst { dst: d, value: v };
                return 1 + lvn_instr(t, instr);
            }
            let key = ExprKey::Cmp(*op, vl, vr);
            match t.expr_vn.get(&key) {
                Some(&vn) => {
                    if let Some(home) = t.home(vn) {
                        let d = *dst;
                        *instr = Instr::Copy { dst: d, src: home };
                        changed = 1;
                        t.set_reg(d, vn);
                    } else {
                        t.set_reg(*dst, vn);
                    }
                }
                None => {
                    let vn = t.fresh();
                    t.expr_vn.insert(key, vn);
                    t.set_reg(*dst, vn);
                }
            }
        }
        Instr::Lea { dst, tag } => {
            let key = ExprKey::Lea(*tag);
            let vn = *t.expr_vn.entry(key).or_insert_with(|| {
                t.next_vn += 1;
                t.next_vn
            });
            // No copy rewrite for lea (it is cheap), but CSE the number so
            // dependent ptradds unify.
            t.set_reg(*dst, vn);
        }
        Instr::PtrAdd { dst, base, offset } => {
            let vb = t.vn_of(*base);
            let vo = t.vn_of(*offset);
            let key = ExprKey::PtrAdd(vb, vo);
            match t.expr_vn.get(&key) {
                Some(&vn) => {
                    if let Some(home) = t.home(vn) {
                        let d = *dst;
                        *instr = Instr::Copy { dst: d, src: home };
                        changed = 1;
                        t.set_reg(d, vn);
                    } else {
                        t.set_reg(*dst, vn);
                    }
                }
                None => {
                    let vn = t.fresh();
                    t.expr_vn.insert(key, vn);
                    t.set_reg(*dst, vn);
                }
            }
        }
        // Scalar memory forwarding.
        Instr::SLoad { dst, tag } | Instr::CLoad { dst, tag } => {
            if let Some(&vn) = t.mem.get(tag) {
                if let Some(home) = t.home(vn) {
                    let d = *dst;
                    *instr = Instr::Copy { dst: d, src: home };
                    t.set_reg(d, vn);
                    return 1;
                }
            }
            let vn = t.fresh();
            t.mem.insert(*tag, vn);
            t.set_reg(*dst, vn);
        }
        Instr::SStore { src, tag } => {
            let vn = t.vn_of(*src);
            t.mem.insert(*tag, vn);
        }
        Instr::Load { dst, tags, .. } => {
            // Pointer loads invalidate nothing but their value is opaque.
            let _ = tags;
            let vn = t.fresh();
            t.set_reg(*dst, vn);
        }
        Instr::Store { tags, .. } => t.kill_mem(tags),
        Instr::Alloc { dst, .. } => {
            let vn = t.fresh();
            t.set_reg(*dst, vn);
        }
        Instr::Call { dst, effects, .. } => {
            t.kill_mem(&effects.mods);
            if let Some(d) = *dst {
                let vn = t.fresh();
                t.set_reg(d, vn);
            }
        }
        Instr::Branch {
            cond,
            then_bb,
            else_bb,
        } => {
            // Fold constant branches so `clean` can delete dead arms.
            let vn = t.vn_of(*cond);
            if let Some(c) = t.vn_const.get(vn) {
                let target = if c != 0 { *then_bb } else { *else_bb };
                *instr = Instr::Jump { target };
                return 1;
            }
        }
        Instr::Phi { dst, .. } => {
            let vn = t.fresh();
            t.set_reg(*dst, vn);
        }
        Instr::Jump { .. } | Instr::Ret { .. } | Instr::Nop => {}
    }
    changed
}

/// Runs local value numbering over every function, sharing one scratch.
pub fn lvn(module: &mut Module) -> usize {
    let mut changes = 0;
    let mut scratch = LvnScratch::default();
    for func in &mut module.funcs {
        changes += lvn_function_in(func, &mut FunctionAnalyses::new(), &mut scratch);
    }
    changes
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_src(src: &str) -> (ir::Module, usize) {
        let mut m = ir::parse_module(src).unwrap();
        let n = lvn(&mut m);
        ir::validate(&m).expect("valid after lvn");
        (m, n)
    }

    #[test]
    fn folds_constants_and_branches() {
        let (m, n) = run_src(
            r#"
func @main(0) {
B0:
  r0 = iconst 6
  r1 = iconst 7
  r2 = mul r0, r1
  r3 = cmpgt r2, r0
  branch r3, B1, B2
B1:
  ret
B2:
  ret
}
"#,
        );
        assert!(n >= 3);
        let f = &m.funcs[0];
        assert!(matches!(
            f.blocks[0].instrs[2],
            Instr::IConst { value: 42, .. }
        ));
        assert!(matches!(f.blocks[0].instrs[4], Instr::Jump { .. }));
    }

    #[test]
    fn cse_of_repeated_expressions() {
        let (m, _) = run_src(
            r#"
func @main(2) result {
B0:
  r2 = add r0, r1
  r3 = add r1, r0
  r4 = add r2, r3
  ret r4
}
"#,
        );
        // Commutativity: r3 = copy r2.
        assert!(matches!(m.funcs[0].blocks[0].instrs[1], Instr::Copy { .. }));
    }

    #[test]
    fn forwards_stored_scalar_values() {
        let (m, _) = run_src(
            r#"
tag "g" global size=1
global "g" zero
func @main(1) result {
B0:
  sstore r0, "g"
  r1 = sload "g"
  ret r1
}
"#,
        );
        assert!(matches!(m.funcs[0].blocks[0].instrs[1], Instr::Copy { .. }));
    }

    #[test]
    fn redundant_loads_collapse_until_killed() {
        let (m, _) = run_src(
            r#"
tag "g" global size=1 addressed
global "g" zero
func @main(1) result {
B0:
  r1 = sload "g"
  r2 = sload "g"
  r3 = lea "g"
  store r0, [r3] {"g"}
  r4 = sload "g"
  ret r4
}
"#,
        );
        let instrs = &m.funcs[0].blocks[0].instrs;
        assert!(
            matches!(instrs[1], Instr::Copy { .. }),
            "second load forwarded"
        );
        assert!(
            matches!(instrs[4], Instr::SLoad { .. }),
            "load after kill reloads"
        );
    }

    #[test]
    fn call_kills_modified_tags_only() {
        let (m, _) = run_src(
            r#"
tag "g" global size=1
tag "h" global size=1
global "g" zero
global "h" zero
func @touch(0) {
B0:
  ret
}
func @main(0) result {
B0:
  r0 = sload "g"
  r1 = sload "h"
  call @touch() mods{"h"} refs{}
  r2 = sload "g"
  r3 = sload "h"
  r4 = add r2, r3
  ret r4
}
"#,
        );
        let instrs = &m.funcs[1].blocks[0].instrs;
        assert!(
            matches!(instrs[3], Instr::Copy { .. }),
            "g survives the call"
        );
        assert!(matches!(instrs[4], Instr::SLoad { .. }), "h was killed");
    }

    #[test]
    fn algebraic_identities() {
        let (m, _) = run_src(
            r#"
func @main(1) result {
B0:
  r1 = iconst 0
  r2 = add r0, r1
  r3 = sub r0, r0
  ret r2
}
"#,
        );
        let instrs = &m.funcs[0].blocks[0].instrs;
        assert!(matches!(instrs[1], Instr::Copy { .. }));
        assert!(matches!(instrs[2], Instr::IConst { value: 0, .. }));
    }

    #[test]
    fn behaviour_preserved_end_to_end() {
        let src = r#"
int g;
int main() {
    int i;
    int s = 0;
    for (i = 0; i < 10; i++) {
        s = s + i * 2 + i * 2;
        g = s;
    }
    print_int(g);
    return 0;
}
"#;
        let m0 = minic::compile(src).unwrap();
        let before = vm::Vm::run_main(&m0, vm::VmOptions::default()).unwrap();
        let mut m = m0.clone();
        lvn(&mut m);
        ir::validate(&m).unwrap();
        let after = vm::Vm::run_main(&m, vm::VmOptions::default()).unwrap();
        assert_eq!(after.output, before.output);
        assert!(after.counts.total <= before.counts.total);
    }
}
