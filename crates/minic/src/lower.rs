//! Semantic analysis and lowering of MiniC to the tagged IL.
//!
//! Storage decisions follow the paper's front end: every value the compiler
//! can prove unaliased lives in a virtual register from the start, while
//! **globals**, **address-taken locals/parameters**, and **arrays** live in
//! memory behind tags. Scalar accesses to tagged memory lower to explicit
//! `sload`/`sstore`; pointer dereferences lower to general `load`/`store`
//! with the conservative `{*}` tag set (the front end "must behave
//! conservatively and assume that an operation may reference any memory
//! location" — the interprocedural analyses shrink these sets later).
//! Direct array indexing keeps the array's singleton tag set.
//!
//! Lowering never compares names as bytes: scope tables, function
//! signatures, global variables, and the addressed-variable set all key on
//! interned [`Symbol`]s, and a name is only resolved back to its string at
//! the IL boundary (tag names, `Function` names, intrinsic lookup, error
//! messages). The lookup tables themselves live in a [`LowerScratch`]
//! recycled across compiles by [`crate::Frontend`].

use crate::ast::*;
use crate::error::{FrontError, Phase};
use crate::intern::{Interner, Symbol};
use crate::token::Pos;
use ir::hash::{FxHashMap, FxHashSet};
use ir::{
    BinOp, CmpOp, FuncId, FunctionBuilder, GlobalInit, Instr, Intrinsic, Module, Reg, TagId,
    TagKind, TagSet, UnaryOp as IrUnary,
};

type Result<T> = std::result::Result<T, FrontError>;

fn err<T>(pos: Pos, message: impl Into<String>) -> Result<T> {
    Err(FrontError::new(Phase::Sema, pos, message))
}

/// Where a variable lives.
#[derive(Debug, Clone)]
enum Place {
    /// In a virtual register (unaliased scalars).
    Reg(Reg),
    /// In tagged memory (globals, arrays, address-taken variables).
    Mem(TagId),
}

#[derive(Debug, Clone)]
struct VarInfo {
    ty: Type,
    place: Place,
}

/// An evaluated lvalue.
enum LValue {
    Reg(Reg, Type),
    Scalar(TagId, Type),
    Cell { addr: Reg, tags: TagSet, ty: Type },
}

impl LValue {
    fn ty(&self) -> &Type {
        match self {
            LValue::Reg(_, t) | LValue::Scalar(_, t) => t,
            LValue::Cell { ty, .. } => ty,
        }
    }
}

/// Reusable lowering tables, recycled across compiles by
/// [`crate::Frontend`]: signature and global maps, the per-function
/// addressed-variable set, and the flat scope stack.
#[derive(Debug, Default)]
pub struct LowerScratch {
    func_sigs: FxHashMap<Symbol, (FuncId, Option<Type>, Vec<Type>)>,
    global_vars: FxHashMap<Symbol, (TagId, Type)>,
    addressed: FxHashSet<Symbol>,
    scope_vars: Vec<(Symbol, VarInfo)>,
    scope_marks: Vec<usize>,
    loop_stack: Vec<(ir::BlockId, ir::BlockId)>,
}

/// Scans a function body for identifiers whose address is taken with `&`.
fn collect_addressed(program: &Program, body: StmtList, out: &mut FxHashSet<Symbol>) {
    fn expr(p: &Program, id: ExprId, out: &mut FxHashSet<Symbol>) {
        match p.expr(id).kind {
            ExprKind::AddrOf(inner) => {
                // `&x` forces x into memory; `&a[i]` forces a into memory
                // (arrays are already there).
                let mut base = inner;
                while let ExprKind::Index(b, i) = p.expr(base).kind {
                    expr(p, i, out);
                    base = b;
                }
                if let ExprKind::Ident(name) = p.expr(base).kind {
                    out.insert(name);
                } else {
                    expr(p, base, out);
                }
            }
            ExprKind::Unary(_, a) | ExprKind::Deref(a) | ExprKind::Malloc(a) => expr(p, a, out),
            ExprKind::Binary(_, a, b) | ExprKind::Assign(a, b) | ExprKind::Index(a, b) => {
                expr(p, a, out);
                expr(p, b, out);
            }
            ExprKind::Call(f, args) => {
                expr(p, f, out);
                for &a in p.expr_list(args) {
                    expr(p, a, out);
                }
            }
            ExprKind::IntLit(_) | ExprKind::FloatLit(_) | ExprKind::Ident(_) => {}
        }
    }
    fn stmt(p: &Program, id: StmtId, out: &mut FxHashSet<Symbol>) {
        match p.stmt(id) {
            Stmt::Decl { init, .. } => {
                if let Some(e) = init {
                    expr(p, *e, out);
                }
            }
            Stmt::Expr(e) => expr(p, *e, out),
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                expr(p, *cond, out);
                for &s in p
                    .stmt_list(*then_body)
                    .iter()
                    .chain(p.stmt_list(*else_body))
                {
                    stmt(p, s, out);
                }
            }
            Stmt::While { cond, body } | Stmt::DoWhile { body, cond } => {
                expr(p, *cond, out);
                for &s in p.stmt_list(*body) {
                    stmt(p, s, out);
                }
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                if let Some(s) = init {
                    stmt(p, *s, out);
                }
                if let Some(e) = cond {
                    expr(p, *e, out);
                }
                if let Some(e) = step {
                    expr(p, *e, out);
                }
                for &s in p.stmt_list(*body) {
                    stmt(p, s, out);
                }
            }
            Stmt::Return { value, .. } => {
                if let Some(e) = value {
                    expr(p, *e, out);
                }
            }
            Stmt::Break(_) | Stmt::Continue(_) => {}
            Stmt::Block(body) => {
                for &s in p.stmt_list(*body) {
                    stmt(p, s, out);
                }
            }
        }
    }
    for &s in program.stmt_list(body) {
        stmt(program, s, out);
    }
}

struct Lowerer<'p> {
    program: &'p Program,
    interner: &'p Interner,
    module: Module,
    scratch: &'p mut LowerScratch,
    heap_sites: u32,
}

struct FuncCtx {
    b: FunctionBuilder,
    func_index: u32,
    func_name: Symbol,
    ret: Option<Type>,
    /// Flat scope stack: `scope_marks` records where each scope starts in
    /// `scope_vars`; lookup scans innermost-first.
    scope_vars: Vec<(Symbol, VarInfo)>,
    scope_marks: Vec<usize>,
    addressed: FxHashSet<Symbol>,
    /// (break target, continue target) stack.
    loop_stack: Vec<(ir::BlockId, ir::BlockId)>,
    local_tag_counter: u32,
}

impl FuncCtx {
    fn lookup(&self, name: Symbol) -> Option<&VarInfo> {
        self.scope_vars
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|(_, info)| info)
    }

    fn enter_scope(&mut self) {
        self.scope_marks.push(self.scope_vars.len());
    }

    fn exit_scope(&mut self) {
        let mark = self.scope_marks.pop().expect("scope underflow");
        self.scope_vars.truncate(mark);
    }

    fn declare(&mut self, name: Symbol, info: VarInfo) {
        self.scope_vars.push((name, info));
    }
}

impl<'p> Lowerer<'p> {
    fn run(
        program: &'p Program,
        interner: &'p Interner,
        scratch: &'p mut LowerScratch,
    ) -> Result<Module> {
        scratch.func_sigs.clear();
        scratch.global_vars.clear();
        scratch.scope_vars.clear();
        scratch.scope_marks.clear();
        scratch.loop_stack.clear();
        let mut l = Lowerer {
            program,
            interner,
            module: Module::new(),
            scratch,
            heap_sites: 0,
        };
        l.declare_globals()?;
        l.declare_functions()?;
        for f in &program.funcs {
            l.lower_function(f)?;
        }
        Ok(l.module)
    }

    fn name(&self, sym: Symbol) -> &'p str {
        self.interner.name(sym)
    }

    /// The position of a pooled expression (cold paths: errors,
    /// conversion diagnostics).
    fn epos(&self, e: ExprId) -> Pos {
        self.program.expr(e).pos
    }

    fn declare_globals(&mut self) -> Result<()> {
        for g in &self.program.globals {
            if self.scratch.global_vars.contains_key(&g.name) {
                return err(g.pos, format!("duplicate global `{}`", self.name(g.name)));
            }
            let size = g.ty.size_cells();
            let init = match (&g.init, &g.ty) {
                (None, _) => GlobalInit::Zero,
                (Some(GlobalInitAst::Scalar(e)), ty) if ty.is_scalar() => {
                    let e = self.program.expr(*e);
                    match (&e.kind, ty) {
                        (ExprKind::IntLit(v), Type::Int) => GlobalInit::Ints(vec![*v]),
                        (ExprKind::IntLit(v), Type::Double) => GlobalInit::Floats(vec![*v as f64]),
                        (ExprKind::FloatLit(v), Type::Double) => GlobalInit::Floats(vec![*v]),
                        (ExprKind::Unary(UnaryOp::Neg, inner), _) => {
                            match (&self.program.expr(*inner).kind, ty) {
                                (ExprKind::IntLit(v), Type::Int) => GlobalInit::Ints(vec![-*v]),
                                (ExprKind::IntLit(v), Type::Double) => {
                                    GlobalInit::Floats(vec![-(*v as f64)])
                                }
                                (ExprKind::FloatLit(v), Type::Double) => {
                                    GlobalInit::Floats(vec![-*v])
                                }
                                _ => return err(e.pos, "global initializers must be literals"),
                            }
                        }
                        _ => return err(e.pos, "global initializers must be literals"),
                    }
                }
                (Some(GlobalInitAst::List(items)), Type::Array(elem, _)) => {
                    let leaf = {
                        let mut t: &Type = elem;
                        while let Type::Array(inner, _) = t {
                            t = inner;
                        }
                        t.clone()
                    };
                    let mut ints = Vec::new();
                    let mut floats = Vec::new();
                    for &item in self.program.expr_list(*items) {
                        let item = self.program.expr(item);
                        match (&item.kind, &leaf) {
                            (ExprKind::IntLit(v), Type::Int) => ints.push(*v),
                            (ExprKind::IntLit(v), Type::Double) => floats.push(*v as f64),
                            (ExprKind::FloatLit(v), Type::Double) => floats.push(*v),
                            _ => {
                                return err(
                                    item.pos,
                                    "array initializers must be literals of the element type",
                                )
                            }
                        }
                    }
                    if ints.len().max(floats.len()) > size {
                        return err(g.pos, "too many initializers");
                    }
                    if matches!(leaf, Type::Int) {
                        GlobalInit::Ints(ints)
                    } else {
                        GlobalInit::Floats(floats)
                    }
                }
                (Some(_), _) => return err(g.pos, "initializer does not match type"),
            };
            // Double globals default to float zero cells.
            let init = match (&init, &g.ty) {
                (GlobalInit::Zero, Type::Double) => GlobalInit::Floats(vec![0.0]),
                (GlobalInit::Zero, Type::Array(elem, _)) => {
                    let mut t: &Type = elem;
                    while let Type::Array(inner, _) = t {
                        t = inner;
                    }
                    if matches!(t, Type::Double) {
                        GlobalInit::Floats(vec![])
                    } else {
                        GlobalInit::Zero
                    }
                }
                _ => init,
            };
            let tag = self
                .module
                .add_global(self.interner.name(g.name), size, init);
            self.scratch.global_vars.insert(g.name, (tag, g.ty.clone()));
        }
        Ok(())
    }

    fn declare_functions(&mut self) -> Result<()> {
        for (i, f) in self.program.funcs.iter().enumerate() {
            if self.scratch.func_sigs.contains_key(&f.name) {
                return err(f.pos, format!("duplicate function `{}`", self.name(f.name)));
            }
            let name = self.interner.name(f.name);
            if Intrinsic::from_name(name).is_some() || name == "malloc" {
                return err(
                    f.pos,
                    format!("`{name}` is a builtin and cannot be redefined"),
                );
            }
            let params: Vec<Type> = self
                .program
                .param_list(f.params)
                .iter()
                .map(|(_, t)| t.clone())
                .collect();
            self.scratch
                .func_sigs
                .insert(f.name, (FuncId(i as u32), f.ret.clone(), params));
        }
        Ok(())
    }

    fn lower_function(&mut self, f: &'p FuncDecl) -> Result<()> {
        let func_index = self.scratch.func_sigs[&f.name].0 .0;
        let params = self.program.param_list(f.params);
        let mut b = FunctionBuilder::new(self.interner.name(f.name), params.len());
        if f.ret.is_some() {
            b.returns_value();
        }
        let mut addressed = std::mem::take(&mut self.scratch.addressed);
        addressed.clear();
        collect_addressed(self.program, f.body, &mut addressed);
        let mut ctx = FuncCtx {
            b,
            func_index,
            func_name: f.name,
            ret: f.ret.clone(),
            scope_vars: std::mem::take(&mut self.scratch.scope_vars),
            scope_marks: std::mem::take(&mut self.scratch.scope_marks),
            addressed,
            loop_stack: std::mem::take(&mut self.scratch.loop_stack),
            local_tag_counter: 0,
        };
        ctx.enter_scope();
        // Bind parameters.
        for (i, (name, ty)) in params.iter().enumerate() {
            if !ty.is_scalar() {
                return err(
                    f.pos,
                    format!(
                        "parameter `{}` has array type; use a pointer",
                        self.name(*name)
                    ),
                );
            }
            let incoming = Reg(i as u32);
            let place = if ctx.addressed.contains(name) {
                let tag = self.new_local_tag(&mut ctx, *name, 1, true);
                ctx.b.sstore(incoming, tag);
                Place::Mem(tag)
            } else {
                Place::Reg(incoming)
            };
            ctx.declare(
                *name,
                VarInfo {
                    ty: ty.clone(),
                    place,
                },
            );
        }
        self.lower_block(&mut ctx, f.body)?;
        // Implicit return if control can fall off the end.
        if !ctx.b.is_terminated() {
            match &ctx.ret {
                None => ctx.b.ret(None),
                Some(Type::Double) => {
                    let z = ctx.b.fconst(0.0);
                    ctx.b.ret(Some(z));
                }
                Some(_) => {
                    let z = ctx.b.iconst(0);
                    ctx.b.ret(Some(z));
                }
            }
        }
        self.module.add_func(ctx.b.finish());
        // Hand the per-function tables back for the next function.
        ctx.scope_vars.clear();
        ctx.scope_marks.clear();
        ctx.loop_stack.clear();
        self.scratch.scope_vars = ctx.scope_vars;
        self.scratch.scope_marks = ctx.scope_marks;
        self.scratch.loop_stack = ctx.loop_stack;
        self.scratch.addressed = ctx.addressed;
        Ok(())
    }

    fn new_local_tag(
        &mut self,
        ctx: &mut FuncCtx,
        name: Symbol,
        size: usize,
        param: bool,
    ) -> TagId {
        // Unique tag name even with shadowed declarations.
        let base = format!(
            "{}.{}",
            self.interner.name(ctx.func_name),
            self.interner.name(name)
        );
        let unique = if self.module.tags.lookup(&base).is_none() {
            base
        } else {
            ctx.local_tag_counter += 1;
            format!("{}.{}", base, ctx.local_tag_counter)
        };
        let kind = if param {
            TagKind::Param {
                owner: ctx.func_index,
            }
        } else {
            TagKind::Local {
                owner: ctx.func_index,
            }
        };
        self.module.tags.intern(unique, kind, size)
    }

    fn lower_block(&mut self, ctx: &mut FuncCtx, body: StmtList) -> Result<()> {
        ctx.enter_scope();
        for &s in self.program.stmt_list(body) {
            self.lower_stmt(ctx, s)?;
        }
        ctx.exit_scope();
        Ok(())
    }

    fn lower_stmt(&mut self, ctx: &mut FuncCtx, sid: StmtId) -> Result<()> {
        // Statements after a terminator are unreachable; park them in a
        // fresh block which `remove_unreachable_blocks` deletes later.
        if ctx.b.is_terminated() {
            let limbo = ctx.b.new_block();
            ctx.b.switch_to(limbo);
        }
        match self.program.stmt(sid) {
            Stmt::Decl {
                name,
                ty,
                init,
                pos,
            } => {
                let needs_memory = !ty.is_scalar() || ctx.addressed.contains(name);
                let place = if needs_memory {
                    let tag = self.new_local_tag(ctx, *name, ty.size_cells(), false);
                    Place::Mem(tag)
                } else {
                    Place::Reg(ctx.b.new_reg())
                };
                let info = VarInfo {
                    ty: ty.clone(),
                    place,
                };
                if let Some(e) = init {
                    if !ty.is_scalar() {
                        return err(*pos, "array locals cannot have initializers");
                    }
                    let (r, rty) = self.lower_expr(ctx, *e)?;
                    let r = self.convert(ctx, r, &rty, ty, self.epos(*e))?;
                    match &info.place {
                        Place::Reg(dst) => ctx.b.emit(Instr::Copy { dst: *dst, src: r }),
                        Place::Mem(tag) => ctx.b.sstore(r, *tag),
                    }
                }
                ctx.declare(*name, info);
            }
            Stmt::Expr(e) => {
                self.lower_expr_maybe_void(ctx, *e)?;
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let c = self.lower_condition(ctx, *cond)?;
                let then_bb = ctx.b.new_block();
                let else_bb = ctx.b.new_block();
                let join = ctx.b.new_block();
                ctx.b.branch(c, then_bb, else_bb);
                ctx.b.switch_to(then_bb);
                self.lower_block(ctx, *then_body)?;
                if !ctx.b.is_terminated() {
                    ctx.b.jump(join);
                }
                ctx.b.switch_to(else_bb);
                self.lower_block(ctx, *else_body)?;
                if !ctx.b.is_terminated() {
                    ctx.b.jump(join);
                }
                ctx.b.switch_to(join);
            }
            Stmt::While { cond, body } => {
                let header = ctx.b.new_block();
                let body_bb = ctx.b.new_block();
                let exit = ctx.b.new_block();
                ctx.b.jump(header);
                ctx.b.switch_to(header);
                let c = self.lower_condition(ctx, *cond)?;
                ctx.b.branch(c, body_bb, exit);
                ctx.b.switch_to(body_bb);
                ctx.loop_stack.push((exit, header));
                self.lower_block(ctx, *body)?;
                ctx.loop_stack.pop();
                if !ctx.b.is_terminated() {
                    ctx.b.jump(header);
                }
                ctx.b.switch_to(exit);
            }
            Stmt::DoWhile { body, cond } => {
                let body_bb = ctx.b.new_block();
                let latch = ctx.b.new_block();
                let exit = ctx.b.new_block();
                ctx.b.jump(body_bb);
                ctx.b.switch_to(body_bb);
                ctx.loop_stack.push((exit, latch));
                self.lower_block(ctx, *body)?;
                ctx.loop_stack.pop();
                if !ctx.b.is_terminated() {
                    ctx.b.jump(latch);
                }
                ctx.b.switch_to(latch);
                let c = self.lower_condition(ctx, *cond)?;
                ctx.b.branch(c, body_bb, exit);
                ctx.b.switch_to(exit);
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                ctx.enter_scope();
                if let Some(s) = init {
                    self.lower_stmt(ctx, *s)?;
                }
                let header = ctx.b.new_block();
                let body_bb = ctx.b.new_block();
                let step_bb = ctx.b.new_block();
                let exit = ctx.b.new_block();
                ctx.b.jump(header);
                ctx.b.switch_to(header);
                match cond {
                    Some(c) => {
                        let r = self.lower_condition(ctx, *c)?;
                        ctx.b.branch(r, body_bb, exit);
                    }
                    None => ctx.b.jump(body_bb),
                }
                ctx.b.switch_to(body_bb);
                ctx.loop_stack.push((exit, step_bb));
                self.lower_block(ctx, *body)?;
                ctx.loop_stack.pop();
                if !ctx.b.is_terminated() {
                    ctx.b.jump(step_bb);
                }
                ctx.b.switch_to(step_bb);
                if let Some(e) = step {
                    self.lower_expr_maybe_void(ctx, *e)?;
                }
                ctx.b.jump(header);
                ctx.b.switch_to(exit);
                ctx.exit_scope();
            }
            Stmt::Return { value, pos } => match (&ctx.ret, value) {
                (None, None) => ctx.b.ret(None),
                (None, Some(_)) => return err(*pos, "void function returns a value"),
                (Some(_), None) => return err(*pos, "non-void function returns no value"),
                (Some(rt), Some(e)) => {
                    let rt = rt.clone();
                    let (r, ty) = self.lower_expr(ctx, *e)?;
                    let r = self.convert(ctx, r, &ty, &rt, self.epos(*e))?;
                    ctx.b.ret(Some(r));
                }
            },
            Stmt::Break(pos) => match ctx.loop_stack.last() {
                Some(&(brk, _)) => ctx.b.jump(brk),
                None => return err(*pos, "break outside a loop"),
            },
            Stmt::Continue(pos) => match ctx.loop_stack.last() {
                Some(&(_, cont)) => ctx.b.jump(cont),
                None => return err(*pos, "continue outside a loop"),
            },
            Stmt::Block(body) => self.lower_block(ctx, *body)?,
        }
        Ok(())
    }

    /// Lowers an expression used only as a condition; the result is an int.
    fn lower_condition(&mut self, ctx: &mut FuncCtx, e: ExprId) -> Result<Reg> {
        let (r, ty) = self.lower_expr(ctx, e)?;
        match ty {
            Type::Int => Ok(r),
            // Non-int conditions compare against zero.
            Type::Double => {
                let z = ctx.b.fconst(0.0);
                Ok(ctx.b.cmp(CmpOp::Ne, r, z))
            }
            Type::Ptr(_) | Type::Func => {
                let z = ctx.b.iconst(0);
                Ok(ctx.b.cmp(CmpOp::Ne, r, z))
            }
            Type::Array(..) => err(self.epos(e), "array used as a condition"),
        }
    }

    /// Lowers an expression statement, permitting void calls.
    fn lower_expr_maybe_void(&mut self, ctx: &mut FuncCtx, e: ExprId) -> Result<()> {
        let node = self.program.expr(e);
        if let ExprKind::Call(callee, args) = node.kind {
            self.lower_call(ctx, callee, args, node.pos)?;
            Ok(())
        } else {
            self.lower_expr(ctx, e).map(|_| ())
        }
    }

    /// Lowers an rvalue. Arrays decay to pointers.
    fn lower_expr(&mut self, ctx: &mut FuncCtx, e: ExprId) -> Result<(Reg, Type)> {
        let Expr { kind, pos } = *self.program.expr(e);
        match kind {
            ExprKind::IntLit(v) => Ok((ctx.b.iconst(v), Type::Int)),
            ExprKind::FloatLit(v) => Ok((ctx.b.fconst(v), Type::Double)),
            ExprKind::Ident(name) => {
                if let Some(info) = ctx.lookup(name).cloned() {
                    return self.read_place(ctx, &info, pos);
                }
                if let Some((tag, ty)) = self.scratch.global_vars.get(&name).cloned() {
                    let info = VarInfo {
                        ty,
                        place: Place::Mem(tag),
                    };
                    return self.read_place(ctx, &info, pos);
                }
                if let Some(&(fid, _, _)) = self.scratch.func_sigs.get(&name) {
                    // A bare function name is a function pointer.
                    return Ok((ctx.b.func_addr(fid), Type::Func));
                }
                err(pos, format!("unknown identifier `{}`", self.name(name)))
            }
            ExprKind::Unary(UnaryOp::Neg, inner) => {
                let (r, ty) = self.lower_expr(ctx, inner)?;
                if !ty.is_arith() {
                    return err(pos, format!("cannot negate `{ty}`"));
                }
                Ok((ctx.b.unary(IrUnary::Neg, r), ty))
            }
            ExprKind::Unary(UnaryOp::Not, inner) => {
                let r = self.lower_condition(ctx, inner)?;
                Ok((ctx.b.unary(IrUnary::Not, r), Type::Int))
            }
            ExprKind::Binary(op, a, bx) => self.lower_binary(ctx, op, a, bx, pos),
            ExprKind::Assign(lhs, rhs) => {
                let lv = self.lower_lvalue(ctx, lhs)?;
                let (r, rty) = self.lower_expr(ctx, rhs)?;
                let target_ty = lv.ty().clone();
                let r = self.convert(ctx, r, &rty, &target_ty, self.epos(rhs))?;
                match lv {
                    LValue::Reg(dst, _) => ctx.b.emit(Instr::Copy { dst, src: r }),
                    LValue::Scalar(tag, _) => ctx.b.sstore(r, tag),
                    LValue::Cell { addr, tags, .. } => ctx.b.store(r, addr, tags),
                }
                Ok((r, target_ty))
            }
            ExprKind::Call(callee, args) => match self.lower_call(ctx, callee, args, pos)? {
                Some(rt) => Ok(rt),
                None => err(pos, "void call used as a value"),
            },
            ExprKind::Index(..) | ExprKind::Deref(_) => {
                let lv = self.lower_lvalue(ctx, e)?;
                self.read_lvalue(ctx, lv, pos)
            }
            ExprKind::AddrOf(inner) => {
                // `&f` for a function yields a function pointer.
                if let ExprKind::Ident(name) = self.program.expr(inner).kind {
                    if ctx.lookup(name).is_none() && !self.scratch.global_vars.contains_key(&name) {
                        if let Some(&(fid, _, _)) = self.scratch.func_sigs.get(&name) {
                            return Ok((ctx.b.func_addr(fid), Type::Func));
                        }
                    }
                }
                let (addr, pointee) = self.lower_addr(ctx, inner)?;
                Ok((addr, Type::Ptr(Box::new(pointee))))
            }
            ExprKind::Malloc(n) => {
                let (r, ty) = self.lower_expr(ctx, n)?;
                if ty != Type::Int {
                    return err(self.epos(n), "malloc size must be int");
                }
                let site = self.heap_sites;
                self.heap_sites += 1;
                let tag =
                    self.module
                        .tags
                        .intern(format!("heap@{site}"), TagKind::Heap { site }, 1);
                // `Ptr(Int)` is the generic heap pointer; assignment allows
                // any pointer-to-pointer conversion.
                Ok((ctx.b.alloc(r, tag), Type::Ptr(Box::new(Type::Int))))
            }
        }
    }

    fn read_place(&mut self, ctx: &mut FuncCtx, info: &VarInfo, pos: Pos) -> Result<(Reg, Type)> {
        match (&info.place, &info.ty) {
            // Arrays decay to a pointer to their first element.
            (Place::Mem(tag), Type::Array(elem, _)) => {
                self.module.tags.mark_address_taken(*tag);
                Ok((ctx.b.lea(*tag), Type::Ptr(elem.clone())))
            }
            (Place::Mem(tag), ty) => Ok((ctx.b.sload(*tag), ty.clone())),
            (Place::Reg(r), ty) => Ok((*r, ty.clone())),
            #[allow(unreachable_patterns)]
            _ => err(pos, "unsupported read"),
        }
    }

    fn read_lvalue(&mut self, ctx: &mut FuncCtx, lv: LValue, pos: Pos) -> Result<(Reg, Type)> {
        match lv {
            LValue::Reg(r, ty) => Ok((r, ty)),
            LValue::Scalar(tag, ty) => Ok((ctx.b.sload(tag), ty)),
            LValue::Cell { addr, tags, ty } => match ty {
                // An array cell (row of a 2-D array) decays to its address.
                Type::Array(elem, _) => Ok((addr, Type::Ptr(elem))),
                ty => Ok((ctx.b.load(addr, tags), ty)),
            },
            #[allow(unreachable_patterns)]
            _ => err(pos, "unsupported lvalue read"),
        }
    }

    /// Lowers an lvalue expression.
    fn lower_lvalue(&mut self, ctx: &mut FuncCtx, e: ExprId) -> Result<LValue> {
        let Expr { kind, pos } = *self.program.expr(e);
        match kind {
            ExprKind::Ident(name) => {
                if let Some(info) = ctx.lookup(name).cloned() {
                    return Ok(match (&info.place, &info.ty) {
                        (Place::Reg(r), ty) => LValue::Reg(*r, ty.clone()),
                        (Place::Mem(tag), ty) => LValue::Scalar(*tag, ty.clone()),
                    });
                }
                if let Some((tag, ty)) = self.scratch.global_vars.get(&name).cloned() {
                    return Ok(LValue::Scalar(tag, ty));
                }
                err(pos, format!("unknown identifier `{}`", self.name(name)))
            }
            ExprKind::Deref(inner) => {
                let (addr, ty) = self.lower_expr(ctx, inner)?;
                match ty {
                    Type::Ptr(pointee) => Ok(LValue::Cell {
                        addr,
                        tags: TagSet::All,
                        ty: (*pointee).clone(),
                    }),
                    other => err(pos, format!("cannot dereference `{other}`")),
                }
            }
            ExprKind::Index(base, idx) => {
                let (addr, elem, tags) = self.lower_index_addr(ctx, base, idx, pos)?;
                Ok(LValue::Cell {
                    addr,
                    tags,
                    ty: elem,
                })
            }
            ExprKind::IntLit(_) | ExprKind::FloatLit(_) => {
                err(pos, "expression is not assignable: a literal")
            }
            ExprKind::Unary(..) | ExprKind::Binary(..) => {
                err(pos, "expression is not assignable: an operator's result")
            }
            ExprKind::Assign(..) => err(pos, "expression is not assignable: an assignment"),
            ExprKind::Call(..) => err(pos, "expression is not assignable: a call"),
            ExprKind::AddrOf(_) => err(pos, "expression is not assignable: an address"),
            ExprKind::Malloc(_) => err(pos, "expression is not assignable: a malloc"),
        }
    }

    /// Computes the address of `base[idx]`, tracking the best-known tag set.
    fn lower_index_addr(
        &mut self,
        ctx: &mut FuncCtx,
        base: ExprId,
        idx: ExprId,
        pos: Pos,
    ) -> Result<(Reg, Type, TagSet)> {
        // Direct indexing of a named array keeps the singleton tag set.
        let (base_addr, elem_ty, tags) = self.lower_base_addr(ctx, base)?;
        let (i, ity) = self.lower_expr(ctx, idx)?;
        if ity != Type::Int {
            return err(pos, "array index must be int");
        }
        let scale = elem_ty.size_cells();
        let off = if scale == 1 {
            i
        } else {
            let s = ctx.b.iconst(scale as i64);
            ctx.b.binary(BinOp::Mul, i, s)
        };
        let addr = ctx.b.ptr_add(base_addr, off);
        Ok((addr, elem_ty, tags))
    }

    /// The address and element type of an indexable base expression.
    fn lower_base_addr(&mut self, ctx: &mut FuncCtx, base: ExprId) -> Result<(Reg, Type, TagSet)> {
        let Expr { kind, pos } = *self.program.expr(base);
        match kind {
            ExprKind::Ident(name) => {
                let info = if let Some(i) = ctx.lookup(name).cloned() {
                    Some(i)
                } else {
                    self.scratch
                        .global_vars
                        .get(&name)
                        .cloned()
                        .map(|(tag, ty)| VarInfo {
                            ty,
                            place: Place::Mem(tag),
                        })
                };
                let Some(info) = info else {
                    return err(pos, format!("unknown identifier `{}`", self.name(name)));
                };
                match (&info.place, &info.ty) {
                    (Place::Mem(tag), Type::Array(elem, _)) => {
                        self.module.tags.mark_address_taken(*tag);
                        let addr = ctx.b.lea(*tag);
                        Ok((addr, (**elem).clone(), TagSet::single(*tag)))
                    }
                    (_, Type::Ptr(pointee)) => {
                        let pointee = (**pointee).clone();
                        let (r, _) = self.read_place(ctx, &info, pos)?;
                        Ok((r, pointee, TagSet::All))
                    }
                    (_, other) => err(pos, format!("cannot index `{other}`")),
                }
            }
            ExprKind::Index(b2, i2) => {
                // Multi-dimensional indexing: the inner index yields a row.
                let (addr, elem, tags) = self.lower_index_addr(ctx, b2, i2, pos)?;
                match elem {
                    Type::Array(inner, _) => Ok((addr, *inner, tags)),
                    Type::Ptr(inner) => {
                        // A pointer stored in an array cell: load it.
                        let p = ctx.b.load(addr, tags);
                        Ok((p, *inner, TagSet::All))
                    }
                    other => err(pos, format!("cannot index `{other}`")),
                }
            }
            _ => {
                let (r, ty) = self.lower_expr(ctx, base)?;
                match ty {
                    Type::Ptr(pointee) => Ok((r, *pointee, TagSet::All)),
                    other => err(pos, format!("cannot index `{other}`")),
                }
            }
        }
    }

    /// The address of an lvalue, for `&e`.
    fn lower_addr(&mut self, ctx: &mut FuncCtx, e: ExprId) -> Result<(Reg, Type)> {
        let Expr { kind, pos } = *self.program.expr(e);
        match kind {
            ExprKind::Ident(name) => {
                let info = if let Some(i) = ctx.lookup(name).cloned() {
                    Some(i)
                } else {
                    self.scratch
                        .global_vars
                        .get(&name)
                        .cloned()
                        .map(|(tag, ty)| VarInfo {
                            ty,
                            place: Place::Mem(tag),
                        })
                };
                let Some(info) = info else {
                    return err(pos, format!("unknown identifier `{}`", self.name(name)));
                };
                match &info.place {
                    Place::Mem(tag) => {
                        self.module.tags.mark_address_taken(*tag);
                        let ty = match &info.ty {
                            Type::Array(elem, _) => (**elem).clone(),
                            t => t.clone(),
                        };
                        Ok((ctx.b.lea(*tag), ty))
                    }
                    Place::Reg(_) => err(
                        pos,
                        format!(
                            "internal error: `&{}` but variable is in a register",
                            self.name(name)
                        ),
                    ),
                }
            }
            ExprKind::Index(base, idx) => {
                let (addr, elem, _) = self.lower_index_addr(ctx, base, idx, pos)?;
                Ok((addr, elem))
            }
            ExprKind::Deref(inner) => {
                let (r, ty) = self.lower_expr(ctx, inner)?;
                match ty {
                    Type::Ptr(p) => Ok((r, *p)),
                    other => err(pos, format!("cannot dereference `{other}`")),
                }
            }
            _ => err(pos, "cannot take the address of this expression"),
        }
    }

    fn lower_binary(
        &mut self,
        ctx: &mut FuncCtx,
        op: BinaryOp,
        a: ExprId,
        b: ExprId,
        pos: Pos,
    ) -> Result<(Reg, Type)> {
        // Short-circuit operators get control flow.
        if matches!(op, BinaryOp::LogAnd | BinaryOp::LogOr) {
            return self.lower_short_circuit(ctx, op, a, b);
        }
        let (ra, ta) = self.lower_expr(ctx, a)?;
        let (rb, tb) = self.lower_expr(ctx, b)?;
        // Pointer arithmetic.
        if matches!(op, BinaryOp::Add | BinaryOp::Sub) {
            match (&ta, &tb) {
                (Type::Ptr(elem), Type::Int) => {
                    let scaled = self.scale_index(ctx, rb, elem.size_cells());
                    let off = if op == BinaryOp::Sub {
                        ctx.b.unary(IrUnary::Neg, scaled)
                    } else {
                        scaled
                    };
                    return Ok((ctx.b.ptr_add(ra, off), ta.clone()));
                }
                (Type::Int, Type::Ptr(elem)) if op == BinaryOp::Add => {
                    let scaled = self.scale_index(ctx, ra, elem.size_cells());
                    return Ok((ctx.b.ptr_add(rb, scaled), tb.clone()));
                }
                _ => {}
            }
        }
        if op.is_comparison() {
            let cmp = match op {
                BinaryOp::Eq => CmpOp::Eq,
                BinaryOp::Ne => CmpOp::Ne,
                BinaryOp::Lt => CmpOp::Lt,
                BinaryOp::Le => CmpOp::Le,
                BinaryOp::Gt => CmpOp::Gt,
                BinaryOp::Ge => CmpOp::Ge,
                _ => unreachable!(),
            };
            let (ra, rb) = self.unify_arith_or_ptr(ctx, ra, &ta, rb, &tb, pos)?;
            return Ok((ctx.b.cmp(cmp, ra, rb), Type::Int));
        }
        // Plain arithmetic.
        let int_only = matches!(
            op,
            BinaryOp::Rem
                | BinaryOp::BitAnd
                | BinaryOp::BitOr
                | BinaryOp::BitXor
                | BinaryOp::Shl
                | BinaryOp::Shr
        );
        let irop = match op {
            BinaryOp::Add => BinOp::Add,
            BinaryOp::Sub => BinOp::Sub,
            BinaryOp::Mul => BinOp::Mul,
            BinaryOp::Div => BinOp::Div,
            BinaryOp::Rem => BinOp::Rem,
            BinaryOp::BitAnd => BinOp::And,
            BinaryOp::BitOr => BinOp::Or,
            BinaryOp::BitXor => BinOp::Xor,
            BinaryOp::Shl => BinOp::Shl,
            BinaryOp::Shr => BinOp::Shr,
            _ => unreachable!("handled above"),
        };
        match (&ta, &tb) {
            (Type::Int, Type::Int) => Ok((ctx.b.binary(irop, ra, rb), Type::Int)),
            (Type::Double, Type::Double) if !int_only => {
                Ok((ctx.b.binary(irop, ra, rb), Type::Double))
            }
            (Type::Int, Type::Double) if !int_only => {
                let ra = ctx.b.unary(IrUnary::IntToFloat, ra);
                Ok((ctx.b.binary(irop, ra, rb), Type::Double))
            }
            (Type::Double, Type::Int) if !int_only => {
                let rb = ctx.b.unary(IrUnary::IntToFloat, rb);
                Ok((ctx.b.binary(irop, ra, rb), Type::Double))
            }
            _ => err(pos, format!("invalid operands `{ta}` and `{tb}`")),
        }
    }

    fn scale_index(&mut self, ctx: &mut FuncCtx, r: Reg, scale: usize) -> Reg {
        if scale == 1 {
            r
        } else {
            let s = ctx.b.iconst(scale as i64);
            ctx.b.binary(BinOp::Mul, r, s)
        }
    }

    fn unify_arith_or_ptr(
        &mut self,
        ctx: &mut FuncCtx,
        ra: Reg,
        ta: &Type,
        rb: Reg,
        tb: &Type,
        pos: Pos,
    ) -> Result<(Reg, Reg)> {
        match (ta, tb) {
            (Type::Int, Type::Int)
            | (Type::Double, Type::Double)
            | (Type::Ptr(_), Type::Ptr(_))
            | (Type::Func, Type::Func)
            // Pointer vs. integer zero (null comparisons).
            | (Type::Ptr(_), Type::Int)
            | (Type::Int, Type::Ptr(_)) => Ok((ra, rb)),
            (Type::Int, Type::Double) => Ok((ctx.b.unary(IrUnary::IntToFloat, ra), rb)),
            (Type::Double, Type::Int) => Ok((ra, ctx.b.unary(IrUnary::IntToFloat, rb))),
            _ => err(pos, format!("cannot compare `{ta}` with `{tb}`")),
        }
    }

    fn lower_short_circuit(
        &mut self,
        ctx: &mut FuncCtx,
        op: BinaryOp,
        a: ExprId,
        b: ExprId,
    ) -> Result<(Reg, Type)> {
        let result = ctx.b.new_reg();
        let rhs_bb = ctx.b.new_block();
        let short_bb = ctx.b.new_block();
        let join = ctx.b.new_block();
        let ca = self.lower_condition(ctx, a)?;
        match op {
            BinaryOp::LogAnd => ctx.b.branch(ca, rhs_bb, short_bb),
            BinaryOp::LogOr => ctx.b.branch(ca, short_bb, rhs_bb),
            _ => unreachable!(),
        }
        ctx.b.switch_to(short_bb);
        let short_val = ctx.b.iconst((op == BinaryOp::LogOr) as i64);
        ctx.b.emit(Instr::Copy {
            dst: result,
            src: short_val,
        });
        ctx.b.jump(join);
        ctx.b.switch_to(rhs_bb);
        let cb = self.lower_condition(ctx, b)?;
        // Normalize to 0/1.
        let z = ctx.b.iconst(0);
        let norm = ctx.b.cmp(CmpOp::Ne, cb, z);
        ctx.b.emit(Instr::Copy {
            dst: result,
            src: norm,
        });
        ctx.b.jump(join);
        ctx.b.switch_to(join);
        Ok((result, Type::Int))
    }

    /// Lowers a call expression. Returns the (reg, type) of the result, or
    /// `None` for a void call.
    fn lower_call(
        &mut self,
        ctx: &mut FuncCtx,
        callee: ExprId,
        args: ExprList,
        pos: Pos,
    ) -> Result<Option<(Reg, Type)>> {
        let ExprKind::Ident(name) = self.program.expr(callee).kind else {
            // Calling a computed expression: must be func-typed.
            let (r, ty) = self.lower_expr(ctx, callee)?;
            if ty != Type::Func {
                return err(pos, format!("cannot call a value of type `{ty}`"));
            }
            return self.lower_indirect_call(ctx, r, args);
        };
        // Local/global variables shadow functions.
        let var_info = ctx.lookup(name).cloned().or_else(|| {
            self.scratch
                .global_vars
                .get(&name)
                .cloned()
                .map(|(tag, ty)| VarInfo {
                    ty,
                    place: Place::Mem(tag),
                })
        });
        if let Some(info) = var_info {
            if info.ty != Type::Func {
                return err(
                    pos,
                    format!("cannot call `{}` of type `{}`", self.name(name), info.ty),
                );
            }
            let (r, _) = self.read_place(ctx, &info, pos)?;
            return self.lower_indirect_call(ctx, r, args);
        }
        if let Some(&(fid, ref ret, ref params)) = self.scratch.func_sigs.get(&name) {
            let ret = ret.clone();
            let params = params.clone();
            if args.len() != params.len() {
                return err(
                    pos,
                    format!(
                        "`{}` expects {} arguments, got {}",
                        self.name(name),
                        params.len(),
                        args.len()
                    ),
                );
            }
            let mut argv = Vec::with_capacity(args.len());
            for (&arg, pty) in self.program.expr_list(args).iter().zip(&params) {
                let (r, ty) = self.lower_expr(ctx, arg)?;
                argv.push(self.convert(ctx, r, &ty, pty, self.epos(arg))?);
            }
            return Ok(match ret {
                Some(rt) => Some((ctx.b.call(fid, argv), rt)),
                None => {
                    ctx.b.call_void(fid, argv);
                    None
                }
            });
        }
        if let Some(intr) = Intrinsic::from_name(self.name(name)) {
            return self.lower_intrinsic(ctx, intr, args, pos);
        }
        err(pos, format!("unknown function `{}`", self.name(name)))
    }

    fn lower_indirect_call(
        &mut self,
        ctx: &mut FuncCtx,
        target: Reg,
        args: ExprList,
    ) -> Result<Option<(Reg, Type)>> {
        let mut argv = Vec::with_capacity(args.len());
        for &arg in self.program.expr_list(args) {
            let (r, _) = self.lower_expr(ctx, arg)?;
            argv.push(r);
        }
        // Indirect callees are dynamically checked; MiniC gives them an
        // int result (the common case for our table-driven benchmarks).
        let r = ctx
            .b
            .call_indirect(target, argv, true)
            .expect("result requested");
        Ok(Some((r, Type::Int)))
    }

    fn lower_intrinsic(
        &mut self,
        ctx: &mut FuncCtx,
        intr: Intrinsic,
        args: ExprList,
        pos: Pos,
    ) -> Result<Option<(Reg, Type)>> {
        if args.len() != intr.arity() {
            return err(
                pos,
                format!(
                    "`{}` expects {} arguments, got {}",
                    intr.name(),
                    intr.arity(),
                    args.len()
                ),
            );
        }
        let (param_tys, ret): (Vec<Type>, Option<Type>) = match intr {
            Intrinsic::PrintInt => (vec![Type::Int], None),
            Intrinsic::PrintFloat => (vec![Type::Double], None),
            Intrinsic::Sqrt | Intrinsic::Sin | Intrinsic::Cos | Intrinsic::AbsFloat => {
                (vec![Type::Double], Some(Type::Double))
            }
            Intrinsic::Pow => (vec![Type::Double, Type::Double], Some(Type::Double)),
            Intrinsic::AbsInt => (vec![Type::Int], Some(Type::Int)),
            Intrinsic::Exit => (vec![Type::Int], None),
        };
        let mut argv = Vec::with_capacity(args.len());
        for (&arg, pty) in self.program.expr_list(args).iter().zip(&param_tys) {
            let (r, ty) = self.lower_expr(ctx, arg)?;
            argv.push(self.convert(ctx, r, &ty, pty, self.epos(arg))?);
        }
        let result = ctx.b.call_intrinsic(intr, argv);
        Ok(result.map(|r| (r, ret.expect("intrinsics with results declare them"))))
    }

    /// Inserts implicit conversions for assignment-like contexts.
    fn convert(
        &mut self,
        ctx: &mut FuncCtx,
        r: Reg,
        from: &Type,
        to: &Type,
        pos: Pos,
    ) -> Result<Reg> {
        match (from, to) {
            (a, b) if a == b => Ok(r),
            (Type::Int, Type::Double) => Ok(ctx.b.unary(IrUnary::IntToFloat, r)),
            (Type::Double, Type::Int) => Ok(ctx.b.unary(IrUnary::FloatToInt, r)),
            // Any pointer converts to any pointer (mirrors C's permissive
            // `void*` flows through malloc and generic routines).
            (Type::Ptr(_), Type::Ptr(_)) => Ok(r),
            // MiniC memory cells are untyped at run time, and the language
            // has no structs; linked data structures therefore store
            // pointers in `int` cells. Pointer<->int flows are permitted
            // statically (the null-pointer idiom `p = 0` included) and
            // checked dynamically by the VM at each use.
            (Type::Int, Type::Ptr(_)) | (Type::Ptr(_), Type::Int) => Ok(r),
            (Type::Func, Type::Func) | (Type::Func, Type::Int) | (Type::Int, Type::Func) => Ok(r),
            (a, b) => err(pos, format!("cannot convert `{a}` to `{b}`")),
        }
    }
}

/// Lowers a parsed [`Program`] to an IL module, reusing `scratch`'s
/// tables.
///
/// # Errors
///
/// Returns the first semantic error.
pub fn lower_program(
    program: &Program,
    interner: &Interner,
    scratch: &mut LowerScratch,
) -> Result<Module> {
    let module = Lowerer::run(program, interner, scratch)?;
    debug_assert!(
        ir::validate(&module).is_ok(),
        "lowering produced invalid IL"
    );
    Ok(module)
}
