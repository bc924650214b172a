//! Grammar-directed program generation.
//!
//! [`generate`] maps a seed to a closed MiniC program that is — by
//! construction — type-correct, trap-free, and terminating:
//!
//! * every division/remainder denominator is forced odd with `| 1`;
//! * shift amounts are masked with `& 15`;
//! * array lengths are powers of two and every index is masked with
//!   `& (len - 1)` (safe for negative indices in two's complement);
//! * every local is initialized at its declaration, and arrays/malloc
//!   cells are filled by a paired init loop before any read;
//! * loops count a dedicated variable the generated body can never
//!   assign, and recursion decrements a depth parameter seeded with a
//!   small constant, so termination is structural;
//! * global pointers are seated (`p = &g;`) at the top of `main` before
//!   any code that could dereference them runs.
//!
//! The VM's wrapping arithmetic makes everything else total, so the only
//! runtime faults a *generated* program can hit are resource budgets.

use crate::ast::{BinOp, Expr, Global, Helper, LValue, LoopKind, Program, Stmt};
use crate::rng::Rng;

/// How often each grammar construct appeared in a program (or a whole
/// campaign, via [`ConstructStats::merge`]). The generator tests assert
/// minimum hit rates so coverage cannot silently rot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConstructStats {
    /// Scalar globals.
    pub globals: usize,
    /// Global arrays.
    pub global_arrays: usize,
    /// Global pointer variables.
    pub global_ptrs: usize,
    /// Helper functions.
    pub helpers: usize,
    /// Self-recursive helpers.
    pub recursive_helpers: usize,
    /// `for` loops.
    pub fors: usize,
    /// `while` loops.
    pub whiles: usize,
    /// `do … while` loops.
    pub do_whiles: usize,
    /// `if` statements.
    pub ifs: usize,
    /// Pointer dereferences (reads and writes).
    pub derefs: usize,
    /// `&local` — address-taken locals.
    pub addr_of_local: usize,
    /// `&global`.
    pub addr_of_global: usize,
    /// Array element reads/writes.
    pub indexes: usize,
    /// `malloc` sites.
    pub mallocs: usize,
    /// Local array declarations.
    pub local_arrays: usize,
    /// Helper call sites.
    pub calls: usize,
    /// Compound assignments (`+=` etc.).
    pub compound_assigns: usize,
    /// `++`/`--` statements.
    pub incrs: usize,
    /// `break` statements.
    pub breaks: usize,
    /// `continue` statements.
    pub continues: usize,
    /// `print_int` statements in the body (epilogue prints excluded).
    pub prints: usize,
    /// Division/remainder operations.
    pub divisions: usize,
    /// Shift operations.
    pub shifts: usize,
}

impl ConstructStats {
    /// Adds `other` into `self` (campaign aggregation).
    pub fn merge(&mut self, other: &ConstructStats) {
        let pairs: [(&mut usize, usize); 23] = [
            (&mut self.globals, other.globals),
            (&mut self.global_arrays, other.global_arrays),
            (&mut self.global_ptrs, other.global_ptrs),
            (&mut self.helpers, other.helpers),
            (&mut self.recursive_helpers, other.recursive_helpers),
            (&mut self.fors, other.fors),
            (&mut self.whiles, other.whiles),
            (&mut self.do_whiles, other.do_whiles),
            (&mut self.ifs, other.ifs),
            (&mut self.derefs, other.derefs),
            (&mut self.addr_of_local, other.addr_of_local),
            (&mut self.addr_of_global, other.addr_of_global),
            (&mut self.indexes, other.indexes),
            (&mut self.mallocs, other.mallocs),
            (&mut self.local_arrays, other.local_arrays),
            (&mut self.calls, other.calls),
            (&mut self.compound_assigns, other.compound_assigns),
            (&mut self.incrs, other.incrs),
            (&mut self.breaks, other.breaks),
            (&mut self.continues, other.continues),
            (&mut self.prints, other.prints),
            (&mut self.divisions, other.divisions),
            (&mut self.shifts, other.shifts),
        ];
        for (a, b) in pairs {
            *a += b;
        }
    }

    /// Computes the stats of one program by walking its AST.
    pub fn of(p: &Program) -> ConstructStats {
        let mut s = ConstructStats::default();
        let global_names: Vec<&str> = p.globals.iter().map(|g| g.name()).collect();
        for g in &p.globals {
            match g {
                Global::Scalar { .. } => s.globals += 1,
                Global::Array { .. } => s.global_arrays += 1,
                Global::Ptr { .. } => s.global_ptrs += 1,
            }
        }
        for h in &p.helpers {
            s.helpers += 1;
            if h.recursive {
                s.recursive_helpers += 1;
            }
            stats_stmts(&h.body, &global_names, &mut s);
            stats_expr(&h.ret, &mut s);
        }
        stats_stmts(&p.main_body, &global_names, &mut s);
        s
    }
}

fn stats_expr(e: &Expr, s: &mut ConstructStats) {
    match e {
        Expr::Const(_) | Expr::Var(_) => {}
        Expr::Deref(_) => s.derefs += 1,
        Expr::Index(_, i) => {
            s.indexes += 1;
            stats_expr(i, s);
        }
        Expr::Neg(a) | Expr::Not(a) => stats_expr(a, s),
        Expr::Bin(op, a, b) => {
            match op {
                BinOp::Div | BinOp::Rem => s.divisions += 1,
                BinOp::Shl | BinOp::Shr => s.shifts += 1,
                _ => {}
            }
            stats_expr(a, s);
            stats_expr(b, s);
        }
        Expr::Call(_, args) => {
            s.calls += 1;
            for a in args {
                stats_expr(a, s);
            }
        }
    }
}

fn stats_addr(target: &str, globals: &[&str], s: &mut ConstructStats) {
    if globals.contains(&target) {
        s.addr_of_global += 1;
    } else {
        s.addr_of_local += 1;
    }
}

fn stats_stmts(stmts: &[Stmt], globals: &[&str], s: &mut ConstructStats) {
    for st in stmts {
        match st {
            Stmt::DeclInt { init, .. } => stats_expr(init, s),
            Stmt::DeclPtr { target, .. } => stats_addr(target, globals, s),
            Stmt::DeclMalloc { .. } => s.mallocs += 1,
            Stmt::DeclArr { .. } => s.local_arrays += 1,
            Stmt::Assign { op, lhs, rhs } => {
                if op.is_some() {
                    s.compound_assigns += 1;
                }
                match lhs {
                    LValue::Var(_) => {}
                    LValue::Deref(_) => s.derefs += 1,
                    LValue::Index(_, i) => {
                        s.indexes += 1;
                        stats_expr(i, s);
                    }
                }
                stats_expr(rhs, s);
            }
            Stmt::Incr { .. } => s.incrs += 1,
            Stmt::PtrAssign { target, .. } => stats_addr(target, globals, s),
            Stmt::If {
                cond,
                then_s,
                else_s,
            } => {
                s.ifs += 1;
                stats_expr(cond, s);
                stats_stmts(then_s, globals, s);
                stats_stmts(else_s, globals, s);
            }
            Stmt::Loop { kind, body, .. } => {
                match kind {
                    LoopKind::For => s.fors += 1,
                    LoopKind::While => s.whiles += 1,
                    LoopKind::DoWhile => s.do_whiles += 1,
                }
                stats_stmts(body, globals, s);
            }
            Stmt::Print(e) => {
                s.prints += 1;
                stats_expr(e, s);
            }
            Stmt::ExprStmt(e) => stats_expr(e, s),
            Stmt::Break => s.breaks += 1,
            Stmt::Continue => s.continues += 1,
        }
    }
}

/// What the expression/statement generators may reference at one point
/// in the program.
#[derive(Debug, Clone, Default)]
struct Scope {
    /// Readable int scalars (locals, counters, params, scalar globals).
    readable: Vec<String>,
    /// Assignable int scalars (excludes loop counters and parameters).
    writable: Vec<String>,
    /// `int *` variables currently safe to dereference.
    ptrs: Vec<String>,
    /// Arrays safe to read (fully initialized): `(name, len)`.
    arrays: Vec<(String, usize)>,
    /// Scalars whose address may be taken, with `is_local` flags.
    addressable: Vec<(String, bool)>,
    /// Callable helpers: `(name, extra_args, recursive)`.
    callables: Vec<(String, usize, bool)>,
}

/// Where a statement is being generated, loop-wise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LoopCtx {
    /// Not inside any generated loop.
    None,
    /// Inside a `while`/`do` loop — `break` is legal, `continue` is not
    /// (the counter increment lives at the end of the body).
    BreakOnly,
    /// Inside a `for` loop — both `break` and `continue` are legal.
    ForLoop,
}

struct Gen {
    rng: Rng,
    next_local: usize,
    next_counter: usize,
}

impl Gen {
    fn fresh_local(&mut self) -> String {
        let n = self.next_local;
        self.next_local += 1;
        format!("v{n}")
    }

    fn fresh_counter(&mut self) -> String {
        let n = self.next_counter;
        self.next_counter += 1;
        format!("c{n}")
    }

    // -- expressions ---------------------------------------------------

    fn const_expr(&mut self) -> Expr {
        Expr::Const(if self.rng.chance(1, 8) {
            self.rng.range(-100_000, 100_000)
        } else {
            self.rng.range(-8, 16)
        })
    }

    fn leaf(&mut self, scope: &Scope) -> Expr {
        let mut options: Vec<u32> = vec![0, 0];
        if !scope.readable.is_empty() {
            options.extend([1, 1, 1]);
        }
        if !scope.ptrs.is_empty() {
            options.extend([2, 2]);
        }
        if !scope.arrays.is_empty() {
            options.extend([3, 3]);
        }
        match *self.rng.pick(&options) {
            0 => self.const_expr(),
            1 => Expr::Var(self.rng.pick(&scope.readable).clone()),
            2 => Expr::Deref(self.rng.pick(&scope.ptrs).clone()),
            _ => {
                let (name, len) = self.rng.pick(&scope.arrays).clone();
                Expr::Index(name, Box::new(self.masked_index(scope, len)))
            }
        }
    }

    /// An index expression masked to `[0, len)` — `len` is a power of
    /// two, and `& (len - 1)` is nonnegative even for negative operands.
    fn masked_index(&mut self, scope: &Scope, len: usize) -> Expr {
        let inner = if self.rng.chance(1, 2) && !scope.readable.is_empty() {
            Expr::Var(self.rng.pick(&scope.readable).clone())
        } else {
            self.const_expr()
        };
        Expr::Bin(
            BinOp::BitAnd,
            Box::new(inner),
            Box::new(Expr::Const(len as i64 - 1)),
        )
    }

    fn expr(&mut self, scope: &Scope, depth: usize) -> Expr {
        if depth == 0 || self.rng.chance(1, 4) {
            return self.leaf(scope);
        }
        match self.rng.below(12) {
            // Plain wrapping arithmetic / bitwise / comparisons.
            0..=5 => {
                let op = *self.rng.pick(&[
                    BinOp::Add,
                    BinOp::Add,
                    BinOp::Sub,
                    BinOp::Mul,
                    BinOp::BitAnd,
                    BinOp::BitOr,
                    BinOp::BitXor,
                    BinOp::Lt,
                    BinOp::Le,
                    BinOp::Gt,
                    BinOp::Ge,
                    BinOp::Eq,
                    BinOp::Ne,
                    BinOp::LAnd,
                    BinOp::LOr,
                ]);
                Expr::Bin(
                    op,
                    Box::new(self.expr(scope, depth - 1)),
                    Box::new(self.expr(scope, depth - 1)),
                )
            }
            // Division/remainder with an always-odd denominator.
            6 => {
                let op = *self.rng.pick(&[BinOp::Div, BinOp::Rem]);
                let den = Expr::Bin(
                    BinOp::BitOr,
                    Box::new(self.expr(scope, depth - 1)),
                    Box::new(Expr::Const(1)),
                );
                Expr::Bin(op, Box::new(self.expr(scope, depth - 1)), Box::new(den))
            }
            // Shifts with a masked amount.
            7 => {
                let op = *self.rng.pick(&[BinOp::Shl, BinOp::Shr]);
                let amt = Expr::Bin(
                    BinOp::BitAnd,
                    Box::new(self.expr(scope, depth - 1)),
                    Box::new(Expr::Const(15)),
                );
                Expr::Bin(op, Box::new(self.expr(scope, depth - 1)), Box::new(amt))
            }
            8 => Expr::Neg(Box::new(self.expr(scope, depth - 1))),
            9 => Expr::Not(Box::new(self.expr(scope, depth - 1))),
            // Helper call (falls back to a leaf when none are in scope).
            _ => match scope.callables.is_empty() {
                true => self.leaf(scope),
                false => {
                    let (name, extra, recursive) = self.rng.pick(&scope.callables).clone();
                    let mut args = Vec::new();
                    if recursive {
                        // Depth argument: a small constant bounds the
                        // recursion structurally.
                        args.push(Expr::Const(self.rng.range(1, 6)));
                    }
                    for _ in 0..extra {
                        args.push(self.expr(scope, depth - 1));
                    }
                    Expr::Call(name, args)
                }
            },
        }
    }

    // -- statements ----------------------------------------------------

    /// One writable location, preferring variety.
    fn lvalue(&mut self, scope: &Scope) -> Option<LValue> {
        let mut options: Vec<u32> = Vec::new();
        if !scope.writable.is_empty() {
            options.extend([0, 0, 0]);
        }
        if !scope.ptrs.is_empty() {
            options.extend([1, 1]);
        }
        if !scope.arrays.is_empty() {
            options.extend([2, 2]);
        }
        if options.is_empty() {
            return None;
        }
        Some(match *self.rng.pick(&options) {
            0 => LValue::Var(self.rng.pick(&scope.writable).clone()),
            1 => LValue::Deref(self.rng.pick(&scope.ptrs).clone()),
            _ => {
                let (name, len) = self.rng.pick(&scope.arrays).clone();
                LValue::Index(name, self.masked_index(scope, len))
            }
        })
    }

    /// An array-fill loop: `for (c = 0; c < len; c++) { a[c] = e; }` —
    /// paired with every local array / malloc declaration so cells are
    /// initialized before any read.
    fn fill_loop(&mut self, name: &str, len: usize) -> Stmt {
        let counter = self.fresh_counter();
        let value = if self.rng.chance(1, 2) {
            Expr::Var(counter.clone())
        } else {
            self.const_expr()
        };
        Stmt::Loop {
            kind: LoopKind::For,
            counter: counter.clone(),
            bound: len as i64,
            body: vec![Stmt::Assign {
                op: None,
                lhs: LValue::Index(name.to_string(), Expr::Var(counter)),
                rhs: value,
            }],
        }
    }

    /// Appends one generated statement (occasionally a declaration pair)
    /// to `out`, updating `scope` with anything it declares.
    fn stmt(&mut self, scope: &mut Scope, ctx: LoopCtx, nest: usize, out: &mut Vec<Stmt>) {
        let roll = self.rng.below(20);
        match roll {
            // Declarations.
            0 | 1 => {
                let name = self.fresh_local();
                let init = self.expr(scope, 2);
                out.push(Stmt::DeclInt {
                    name: name.clone(),
                    init,
                });
                scope.readable.push(name.clone());
                scope.writable.push(name.clone());
                scope.addressable.push((name, true));
            }
            2 if !scope.addressable.is_empty() => {
                let name = self.fresh_local();
                let (target, _) = self.rng.pick(&scope.addressable).clone();
                out.push(Stmt::DeclPtr {
                    name: name.clone(),
                    target,
                });
                scope.ptrs.push(name);
            }
            3 if nest == 0 => {
                // Arrays and malloc only at block depth 0: the paired
                // fill loop must dominate every later read.
                let name = self.fresh_local();
                let len = *self.rng.pick(&[4usize, 8, 16]);
                if self.rng.chance(1, 2) {
                    out.push(Stmt::DeclMalloc {
                        name: name.clone(),
                        len,
                    });
                } else {
                    out.push(Stmt::DeclArr {
                        name: name.clone(),
                        len,
                    });
                }
                out.push(self.fill_loop(&name, len));
                scope.arrays.push((name, len));
            }
            // Mutation.
            4..=8 => {
                if let Some(lhs) = self.lvalue(scope) {
                    let op = if self.rng.chance(1, 3) {
                        Some(*self.rng.pick(&[BinOp::Add, BinOp::Sub, BinOp::Mul]))
                    } else {
                        None
                    };
                    let rhs = self.expr(scope, 2);
                    out.push(Stmt::Assign { op, lhs, rhs });
                }
            }
            9 if !scope.writable.is_empty() => {
                out.push(Stmt::Incr {
                    name: self.rng.pick(&scope.writable).clone(),
                    down: self.rng.chance(1, 2),
                });
            }
            // Reseats only at block depth 0: an outer pointer must never
            // be seated to an inner block's local (whose storage the
            // optimizer may treat as dead after the block).
            10 if nest == 0 && !scope.ptrs.is_empty() && !scope.addressable.is_empty() => {
                let name = self.rng.pick(&scope.ptrs).clone();
                let (target, _) = self.rng.pick(&scope.addressable).clone();
                out.push(Stmt::PtrAssign { name, target });
            }
            // Control flow.
            11 | 12 => {
                let cond = self.expr(scope, 2);
                let mut inner = scope.clone();
                let then_len = 1 + self.rng.below(3) as usize;
                let then_s = self.block(&mut inner, ctx, nest + 1, then_len);
                let else_s = if self.rng.chance(1, 2) {
                    let mut inner = scope.clone();
                    let else_len = 1 + self.rng.below(2) as usize;
                    self.block(&mut inner, ctx, nest + 1, else_len)
                } else {
                    Vec::new()
                };
                out.push(Stmt::If {
                    cond,
                    then_s,
                    else_s,
                });
            }
            13 | 14 if nest < 3 => {
                let kind = *self.rng.pick(&[
                    LoopKind::For,
                    LoopKind::For,
                    LoopKind::While,
                    LoopKind::DoWhile,
                ]);
                let counter = self.fresh_counter();
                let bound = self.rng.range(2, 12);
                let mut inner = scope.clone();
                // The body may *read* the counter but never assign it.
                inner.readable.push(counter.clone());
                let inner_ctx = match kind {
                    LoopKind::For => LoopCtx::ForLoop,
                    _ => LoopCtx::BreakOnly,
                };
                let body_len = 1 + self.rng.below(4) as usize;
                let body = self.block(&mut inner, inner_ctx, nest + 1, body_len);
                out.push(Stmt::Loop {
                    kind,
                    counter,
                    bound,
                    body,
                });
            }
            15 if ctx != LoopCtx::None => {
                // Guarded early exit: `if (cond) break/continue;`.
                let cond = self.expr(scope, 1);
                let jump = if ctx == LoopCtx::ForLoop && self.rng.chance(1, 2) {
                    Stmt::Continue
                } else {
                    Stmt::Break
                };
                out.push(Stmt::If {
                    cond,
                    then_s: vec![jump],
                    else_s: Vec::new(),
                });
            }
            // Observation and calls.
            16 | 17 => out.push(Stmt::Print(self.expr(scope, 2))),
            _ if !scope.callables.is_empty() => {
                let (name, extra, recursive) = self.rng.pick(&scope.callables).clone();
                let mut args = Vec::new();
                if recursive {
                    args.push(Expr::Const(self.rng.range(1, 6)));
                }
                for _ in 0..extra {
                    args.push(self.expr(scope, 1));
                }
                out.push(Stmt::ExprStmt(Expr::Call(name, args)));
            }
            _ => out.push(Stmt::Print(self.expr(scope, 1))),
        }
    }

    fn block(&mut self, scope: &mut Scope, ctx: LoopCtx, nest: usize, len: usize) -> Vec<Stmt> {
        let mut out = Vec::new();
        for _ in 0..len {
            self.stmt(scope, ctx, nest, &mut out);
        }
        out
    }
}

/// The scope every function starts from: scalar and array globals.
/// Global pointers are excluded — they are null until `main` seats them,
/// so only `main`'s generator (which emits the seats first) may
/// dereference them.
fn base_scope(globals: &[Global]) -> Scope {
    let mut s = Scope::default();
    for gl in globals {
        match gl {
            Global::Scalar { name, .. } => {
                s.readable.push(name.clone());
                s.writable.push(name.clone());
                s.addressable.push((name.clone(), false));
            }
            Global::Array { name, len } => s.arrays.push((name.clone(), *len)),
            Global::Ptr { .. } => {}
        }
    }
    s
}

/// Generates the program for one seed. Deterministic: the same seed
/// always yields the identical program.
pub fn generate(seed: u64) -> Program {
    let mut g = Gen {
        rng: Rng::new(seed),
        next_local: 0,
        next_counter: 0,
    };
    let mut p = Program::default();

    // Globals: scalars, sometimes an array, sometimes pointers.
    let n_scalars = g.rng.range(2, 5);
    for i in 0..n_scalars {
        p.globals.push(Global::Scalar {
            name: format!("g{i}"),
            init: g.rng.range(-4, 12),
        });
    }
    for i in 0..g.rng.range(0, 2) {
        p.globals.push(Global::Array {
            name: format!("ga{i}"),
            len: *g.rng.pick(&[4usize, 8, 16]),
        });
    }
    let n_ptrs = g.rng.range(0, 2);
    for i in 0..n_ptrs {
        p.globals.push(Global::Ptr {
            name: format!("gp{i}"),
        });
    }

    let base_scope = base_scope(&p.globals);

    // Helpers: each may call every earlier helper (and itself when
    // recursive), so the call graph is loop-free apart from bounded
    // self-recursion.
    let n_helpers = g.rng.range(0, 3);
    for i in 0..n_helpers {
        let recursive = g.rng.chance(1, 3);
        let mut params = Vec::new();
        if recursive {
            params.push(format!("h{i}d"));
        }
        for j in 0..g.rng.range(0, 2) {
            params.push(format!("h{i}a{j}"));
        }
        let mut scope = base_scope.clone();
        for (k, param) in params.iter().enumerate() {
            // Parameters are read-only; in particular the depth
            // parameter of a recursive helper must never be assigned.
            let _ = k;
            scope.readable.push(param.clone());
        }
        for h in &p.helpers {
            let extra = h.params.len() - usize::from(h.recursive);
            scope.callables.push((h.name.clone(), extra, h.recursive));
        }
        // The return expression of a recursive helper renders twice:
        // once in the base case *above* the body, so it may only use
        // the pre-body scope (params and globals, not body locals).
        let pre_body = scope.clone();
        let body_len = 2 + g.rng.below(4) as usize;
        let body = g.block(&mut scope, LoopCtx::None, 1, body_len);
        let ret = if recursive {
            g.expr(&pre_body, 2)
        } else {
            g.expr(&scope, 2)
        };
        p.helpers.push(Helper {
            name: format!("f{i}"),
            params,
            recursive,
            body,
            ret,
        });
    }

    // Main: seat every global pointer first, then the generated body.
    let mut scope = base_scope;
    for h in &p.helpers {
        let extra = h.params.len() - usize::from(h.recursive);
        scope.callables.push((h.name.clone(), extra, h.recursive));
    }
    let scalar_names: Vec<String> = p
        .globals
        .iter()
        .filter_map(|gl| match gl {
            Global::Scalar { name, .. } => Some(name.clone()),
            _ => None,
        })
        .collect();
    for gl in &p.globals {
        if let Global::Ptr { name } = gl {
            let target = g.rng.pick(&scalar_names).clone();
            p.main_body.push(Stmt::PtrAssign {
                name: name.clone(),
                target,
            });
            scope.ptrs.push(name.clone());
        }
    }
    let body_len = 6 + g.rng.below(14) as usize;
    let body = g.block(&mut scope, LoopCtx::None, 0, body_len);
    p.main_body.extend(body);
    p
}

/// Applies one single-function edit: regenerates the body (and return
/// expression) of one helper, or `main`'s suffix after the pointer-seat
/// prologue, under exactly the invariants [`generate`] guarantees — so a
/// mutated program is still closed, trap-free, and terminating.
/// Signatures, globals, and every other function are untouched, which is
/// what makes mutants useful for exercising incremental recompilation:
/// only the edited function's fingerprint (plus any caller whose callee
/// summary changed) should miss the cache. Deterministic in
/// `(program, seed)`.
pub fn mutate(program: &Program, seed: u64) -> Program {
    let mut p = program.clone();
    let mut g = Gen {
        rng: Rng::new(seed.wrapping_mul(0x9e37_79b9).wrapping_add(1)),
        // A namespace the base generator never reaches, so regenerated
        // declarations cannot collide with surviving ones.
        next_local: 10_000,
        next_counter: 10_000,
    };
    let base = base_scope(&p.globals);
    let target = g.rng.below(p.helpers.len() as u64 + 1) as usize;
    if target < p.helpers.len() {
        // Rebuild the helper's scope the way `generate` did: globals,
        // its own (read-only) parameters, and every *earlier* helper.
        let mut scope = base;
        for param in &p.helpers[target].params {
            scope.readable.push(param.clone());
        }
        for h in &p.helpers[..target] {
            let extra = h.params.len() - usize::from(h.recursive);
            scope.callables.push((h.name.clone(), extra, h.recursive));
        }
        let pre_body = scope.clone();
        let body_len = 2 + g.rng.below(4) as usize;
        let body = g.block(&mut scope, LoopCtx::None, 1, body_len);
        let recursive = p.helpers[target].recursive;
        let ret = if recursive {
            // The base case renders above the body, so it may only use
            // the pre-body scope.
            g.expr(&pre_body, 2)
        } else {
            g.expr(&scope, 2)
        };
        let h = &mut p.helpers[target];
        h.body = body;
        h.ret = ret;
    } else {
        // Regenerate `main` below the seat prologue; the seats stay, so
        // every global pointer is still seated before any dereference.
        let mut scope = base;
        for h in &p.helpers {
            let extra = h.params.len() - usize::from(h.recursive);
            scope.callables.push((h.name.clone(), extra, h.recursive));
        }
        let mut seats = 0;
        for gl in &p.globals {
            if let Global::Ptr { name } = gl {
                scope.ptrs.push(name.clone());
                seats += 1;
            }
        }
        p.main_body.truncate(seats);
        let body_len = 6 + g.rng.below(14) as usize;
        let body = g.block(&mut scope, LoopCtx::None, 0, body_len);
        p.main_body.extend(body);
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for seed in 0..20 {
            assert_eq!(generate(seed), generate(seed), "seed {seed}");
            assert_eq!(generate(seed).render(), generate(seed).render());
        }
        assert_ne!(generate(1), generate(2));
    }

    #[test]
    fn mutation_is_deterministic_and_single_function() {
        for seed in 0..30u64 {
            let base = generate(seed);
            let m1 = mutate(&base, seed ^ 0xABCD);
            let m2 = mutate(&base, seed ^ 0xABCD);
            assert_eq!(m1, m2, "seed {seed}");
            assert_ne!(m1, base, "mutation must change the program: seed {seed}");
            // Globals and every function signature survive untouched.
            assert_eq!(m1.globals, base.globals);
            assert_eq!(m1.helpers.len(), base.helpers.len());
            for (a, b) in m1.helpers.iter().zip(base.helpers.iter()) {
                assert_eq!(a.name, b.name);
                assert_eq!(a.params, b.params);
                assert_eq!(a.recursive, b.recursive);
            }
            // Exactly one function's code changed.
            let mut changed = usize::from(m1.main_body != base.main_body);
            changed += m1
                .helpers
                .iter()
                .zip(base.helpers.iter())
                .filter(|(a, b)| a.body != b.body || a.ret != b.ret)
                .count();
            assert_eq!(changed, 1, "seed {seed}");
            // The pointer-seat prologue survives a main-body rewrite.
            let seats = base
                .globals
                .iter()
                .filter(|g| matches!(g, Global::Ptr { .. }))
                .count();
            assert_eq!(m1.main_body[..seats], base.main_body[..seats]);
        }
    }

    #[test]
    fn mutants_still_compile_and_terminate() {
        use driver::prelude::{Session, VmOptions};
        let session = Session::builder().threads(Some(1)).build();
        for seed in 0..10u64 {
            let mut p = generate(seed);
            for e in 0..3u64 {
                p = mutate(&p, seed.wrapping_add(e));
                session
                    .compile(&p.render())
                    .and_then(|c| c.run(VmOptions::default()))
                    .unwrap_or_else(|err| panic!("seed {seed} edit {e}: {err}"));
            }
        }
    }

    #[test]
    fn stats_count_constructs() {
        let mut total = ConstructStats::default();
        for seed in 0..50 {
            total.merge(&ConstructStats::of(&generate(seed)));
        }
        // 50 programs must collectively hit the core constructs.
        assert!(total.globals >= 100, "globals: {}", total.globals);
        assert!(total.fors > 0, "for loops");
        assert!(total.ifs > 0, "ifs");
        assert!(total.derefs > 0, "derefs");
        assert!(total.calls > 0, "calls");
        assert!(total.prints > 0, "prints");
    }
}
