//! Recursive-descent parser for MiniC.
//!
//! MiniC is the C subset this reproduction compiles: `int`/`double`
//! scalars, pointers, 1-D and 2-D arrays, globals with initializers,
//! functions (including recursion and `func`-typed function pointers),
//! `malloc`, and the usual statement forms. Compound assignments and
//! `++`/`--` are desugared to plain assignments by the parser; a desugared
//! left-hand side is therefore evaluated twice, so MiniC forbids
//! side-effecting lvalues under those forms (as our programs never need
//! them).
//!
//! The parser reads a token slice (tokens are `Copy` — no `clone()` per
//! `peek`) and builds the arena [`Program`]: nodes go straight into the
//! pools, child lists are accumulated on reusable stacks in
//! [`ParseScratch`] and flushed as contiguous ranges when each level
//! completes. Desugaring *shares* the lvalue's node between the two sides
//! of the rewritten assignment instead of cloning the subtree.

use crate::ast::*;
use crate::error::{FrontError, Phase};
use crate::intern::{Interner, Symbol};
use crate::token::{Pos, Tok, Token};

/// Reusable child-list stacks for the parser; owned by
/// [`crate::Frontend`] so repeat parses push into warm buffers.
#[derive(Debug, Default)]
pub struct ParseScratch {
    expr_stack: Vec<ExprId>,
    stmt_stack: Vec<StmtId>,
    param_stack: Vec<(Symbol, Type)>,
}

struct Parser<'a> {
    toks: &'a [Token],
    pos: usize,
    interner: &'a Interner,
    /// The pre-interned name `malloc`, special-cased in `parse_primary`.
    malloc: Symbol,
    program: &'a mut Program,
    scratch: &'a mut ParseScratch,
    /// Levels of nesting open at the current token; see [`MAX_NESTING`].
    depth: u32,
}

type Result<T> = std::result::Result<T, FrontError>;

/// How deep a program may nest, counting parentheses, prefix operators,
/// subscripts, calls and argument lists, statements inside statements,
/// pointer stars and array dimensions, and each operator of a binary or
/// postfix chain (`x+x+…+x` is a tree as deep as it is long). Parsing,
/// the addressed-variable scan and lowering all recurse on that depth, so
/// deeper input is a parse error rather than a stack overflow.
///
/// A chain can stack up to twice the bound: `x + !…!x + x + … + x` puts
/// its deep first operand under the whole chain. 128 leaves room for that
/// on a 2 MiB thread stack in a debug build, where the front end
/// overflows at about 280 nested blocks or a 410-deep expression tree.
/// The deepest nesting in the benchmark suite and in 26,400 generated and
/// mutated fuzz programs is 21.
pub const MAX_NESTING: u32 = 128;

impl<'a> Parser<'a> {
    fn peek(&self) -> Tok {
        self.toks[self.pos].tok
    }

    fn peek2(&self) -> Tok {
        self.toks[(self.pos + 1).min(self.toks.len() - 1)].tok
    }

    fn here(&self) -> Pos {
        self.toks[self.pos].pos
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].tok;
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T> {
        Err(FrontError::new(Phase::Parse, self.here(), message))
    }

    fn expect(&mut self, tok: Tok) -> Result<()> {
        if self.peek() == tok {
            self.bump();
            Ok(())
        } else {
            self.err(format!(
                "expected `{}`, found `{}`",
                tok.display(self.interner),
                self.peek().display(self.interner)
            ))
        }
    }

    /// Opens one more level of nesting, at the current token; closed by
    /// [`Parser::leave`].
    fn enter(&mut self) -> Result<()> {
        if self.depth == MAX_NESTING {
            return self.err(format!("nesting deeper than {MAX_NESTING} levels"));
        }
        self.depth += 1;
        Ok(())
    }

    fn leave(&mut self, levels: u32) {
        self.depth -= levels;
    }

    fn eat(&mut self, tok: Tok) -> bool {
        if self.peek() == tok {
            self.bump();
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> Result<Symbol> {
        match self.peek() {
            Tok::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => self.err(format!(
                "expected identifier, found `{}`",
                other.display(self.interner)
            )),
        }
    }

    /// True if the current token begins a type.
    fn at_type(&self) -> bool {
        matches!(
            self.peek(),
            Tok::KwInt | Tok::KwDouble | Tok::KwFunc | Tok::KwVoid
        )
    }

    /// Parses a base type plus pointer stars. Returns `None` for `void`.
    fn parse_type(&mut self) -> Result<Option<Type>> {
        let base = match self.bump() {
            Tok::KwInt => Some(Type::Int),
            Tok::KwDouble => Some(Type::Double),
            Tok::KwFunc => Some(Type::Func),
            Tok::KwVoid => None,
            other => {
                return self.err(format!(
                    "expected type, found `{}`",
                    other.display(self.interner)
                ))
            }
        };
        let mut ty = base;
        let mut levels = 0;
        while self.eat(Tok::Star) {
            match ty {
                Some(t) => ty = Some(Type::Ptr(Box::new(t))),
                None => return self.err("pointer to void is not supported"),
            }
            self.enter()?;
            levels += 1;
        }
        self.leave(levels);
        Ok(ty)
    }

    /// Parses `[N][M]...` dimensions onto `ty` (innermost dimension last).
    fn parse_dims(&mut self, mut ty: Type) -> Result<Type> {
        let mut dims = Vec::new();
        while self.eat(Tok::LBracket) {
            self.enter()?;
            match self.bump() {
                Tok::Int(n) if n > 0 => dims.push(n as usize),
                other => {
                    return self.err(format!(
                        "expected array size, found `{}`",
                        other.display(self.interner)
                    ))
                }
            }
            self.expect(Tok::RBracket)?;
        }
        self.leave(dims.len() as u32);
        for &n in dims.iter().rev() {
            ty = Type::Array(Box::new(ty), n);
        }
        Ok(ty)
    }

    fn parse_program(&mut self) -> Result<()> {
        while self.peek() != Tok::Eof {
            let pos = self.here();
            if !self.at_type() {
                return self.err(format!(
                    "expected a declaration, found `{}`",
                    self.peek().display(self.interner)
                ));
            }
            let ty = self.parse_type()?;
            let name = self.ident()?;
            if self.peek() == Tok::LParen {
                let f = self.parse_func(ty, name, pos)?;
                self.program.funcs.push(f);
            } else {
                let ty = ty.ok_or_else(|| {
                    FrontError::new(Phase::Parse, pos, "global variables cannot be void")
                })?;
                let g = self.parse_global(ty, name, pos)?;
                self.program.globals.push(g);
            }
        }
        Ok(())
    }

    fn parse_global(&mut self, ty: Type, name: Symbol, pos: Pos) -> Result<GlobalDecl> {
        let ty = self.parse_dims(ty)?;
        let init = if self.eat(Tok::Assign) {
            if self.eat(Tok::LBrace) {
                let mark = self.scratch.expr_stack.len();
                loop {
                    let item = self.parse_expr()?;
                    self.scratch.expr_stack.push(item);
                    if !self.eat(Tok::Comma) {
                        break;
                    }
                }
                self.expect(Tok::RBrace)?;
                let items = self
                    .program
                    .push_expr_list(&mut self.scratch.expr_stack, mark);
                Some(GlobalInitAst::List(items))
            } else {
                Some(GlobalInitAst::Scalar(self.parse_expr()?))
            }
        } else {
            None
        };
        self.expect(Tok::Semi)?;
        Ok(GlobalDecl {
            name,
            ty,
            init,
            pos,
        })
    }

    fn parse_func(&mut self, ret: Option<Type>, name: Symbol, pos: Pos) -> Result<FuncDecl> {
        self.expect(Tok::LParen)?;
        let mark = self.scratch.param_stack.len();
        if !self.eat(Tok::RParen) {
            // `void` alone means no parameters.
            if self.peek() == Tok::KwVoid && self.peek2() == Tok::RParen {
                self.bump();
                self.expect(Tok::RParen)?;
            } else {
                loop {
                    let pty = self.parse_type()?.ok_or_else(|| {
                        FrontError::new(Phase::Parse, self.here(), "void parameter")
                    })?;
                    let pname = self.ident()?;
                    // Array parameters decay to pointers: `int a[]`,
                    // `int m[][20]`.
                    let mut pty = pty;
                    if self.peek() == Tok::LBracket {
                        self.bump();
                        // Optional first dimension is ignored.
                        if let Tok::Int(_) = self.peek() {
                            self.bump();
                        }
                        self.expect(Tok::RBracket)?;
                        let inner = self.parse_dims(pty)?;
                        pty = Type::Ptr(Box::new(inner));
                    }
                    self.scratch.param_stack.push((pname, pty));
                    if !self.eat(Tok::Comma) {
                        break;
                    }
                }
                self.expect(Tok::RParen)?;
            }
        }
        let params = self
            .program
            .push_param_list(&mut self.scratch.param_stack, mark);
        self.expect(Tok::LBrace)?;
        let body = self.parse_block_body()?;
        Ok(FuncDecl {
            name,
            ret,
            params,
            body,
            pos,
        })
    }

    fn parse_block_body(&mut self) -> Result<StmtList> {
        let mark = self.scratch.stmt_stack.len();
        while !self.eat(Tok::RBrace) {
            if self.peek() == Tok::Eof {
                return self.err("unterminated block");
            }
            let s = self.parse_stmt()?;
            self.scratch.stmt_stack.push(s);
        }
        Ok(self
            .program
            .push_stmt_list(&mut self.scratch.stmt_stack, mark))
    }

    fn parse_stmt(&mut self) -> Result<StmtId> {
        self.enter()?;
        let pos = self.here();
        let stmt = match self.peek() {
            Tok::KwInt | Tok::KwDouble | Tok::KwFunc => {
                let ty = self.parse_type()?.expect("non-void here");
                let name = self.ident()?;
                let ty = self.parse_dims(ty)?;
                let init = if self.eat(Tok::Assign) {
                    Some(self.parse_expr()?)
                } else {
                    None
                };
                self.expect(Tok::Semi)?;
                Stmt::Decl {
                    name,
                    ty,
                    init,
                    pos,
                }
            }
            Tok::KwIf => {
                self.bump();
                self.expect(Tok::LParen)?;
                let cond = self.parse_expr()?;
                self.expect(Tok::RParen)?;
                let then_body = self.parse_stmt_as_block()?;
                let else_body = if self.eat(Tok::KwElse) {
                    self.parse_stmt_as_block()?
                } else {
                    StmtList::empty()
                };
                Stmt::If {
                    cond,
                    then_body,
                    else_body,
                }
            }
            Tok::KwWhile => {
                self.bump();
                self.expect(Tok::LParen)?;
                let cond = self.parse_expr()?;
                self.expect(Tok::RParen)?;
                let body = self.parse_stmt_as_block()?;
                Stmt::While { cond, body }
            }
            Tok::KwDo => {
                self.bump();
                let body = self.parse_stmt_as_block()?;
                self.expect(Tok::KwWhile)?;
                self.expect(Tok::LParen)?;
                let cond = self.parse_expr()?;
                self.expect(Tok::RParen)?;
                self.expect(Tok::Semi)?;
                Stmt::DoWhile { body, cond }
            }
            Tok::KwFor => {
                self.bump();
                self.expect(Tok::LParen)?;
                let init = if self.peek() == Tok::Semi {
                    self.bump();
                    None
                } else if self.at_type() {
                    // C99-style `for (int i = 0; ...)`.
                    Some(self.parse_stmt()?)
                } else {
                    let e = self.parse_expr()?;
                    self.expect(Tok::Semi)?;
                    Some(self.program.add_stmt(Stmt::Expr(e)))
                };
                let cond = if self.peek() == Tok::Semi {
                    None
                } else {
                    Some(self.parse_expr()?)
                };
                self.expect(Tok::Semi)?;
                let step = if self.peek() == Tok::RParen {
                    None
                } else {
                    Some(self.parse_expr()?)
                };
                self.expect(Tok::RParen)?;
                let body = self.parse_stmt_as_block()?;
                Stmt::For {
                    init,
                    cond,
                    step,
                    body,
                }
            }
            Tok::KwReturn => {
                self.bump();
                let value = if self.peek() == Tok::Semi {
                    None
                } else {
                    Some(self.parse_expr()?)
                };
                self.expect(Tok::Semi)?;
                Stmt::Return { value, pos }
            }
            Tok::KwBreak => {
                self.bump();
                self.expect(Tok::Semi)?;
                Stmt::Break(pos)
            }
            Tok::KwContinue => {
                self.bump();
                self.expect(Tok::Semi)?;
                Stmt::Continue(pos)
            }
            Tok::LBrace => {
                self.bump();
                Stmt::Block(self.parse_block_body()?)
            }
            Tok::Semi => {
                self.bump();
                Stmt::Block(StmtList::empty())
            }
            _ => {
                let e = self.parse_expr()?;
                self.expect(Tok::Semi)?;
                Stmt::Expr(e)
            }
        };
        self.leave(1);
        Ok(self.program.add_stmt(stmt))
    }

    fn parse_stmt_as_block(&mut self) -> Result<StmtList> {
        if self.eat(Tok::LBrace) {
            self.parse_block_body()
        } else {
            let mark = self.scratch.stmt_stack.len();
            let s = self.parse_stmt()?;
            self.scratch.stmt_stack.push(s);
            Ok(self
                .program
                .push_stmt_list(&mut self.scratch.stmt_stack, mark))
        }
    }

    fn parse_expr(&mut self) -> Result<ExprId> {
        self.enter()?;
        let e = self.parse_assign()?;
        self.leave(1);
        Ok(e)
    }

    fn parse_assign(&mut self) -> Result<ExprId> {
        let lhs = self.parse_binary(0)?;
        let pos = self.here();
        let compound = |op: BinaryOp| Some(op);
        let op = match self.peek() {
            Tok::Assign => None,
            Tok::PlusAssign => compound(BinaryOp::Add),
            Tok::MinusAssign => compound(BinaryOp::Sub),
            Tok::StarAssign => compound(BinaryOp::Mul),
            Tok::SlashAssign => compound(BinaryOp::Div),
            Tok::PercentAssign => compound(BinaryOp::Rem),
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.parse_expr()?;
        // Compound assignment shares `lhs` between both sides of the
        // desugared form — an arena id, not a subtree clone.
        let rhs = match op {
            None => rhs,
            Some(op) => self.program.add_expr(ExprKind::Binary(op, lhs, rhs), pos),
        };
        Ok(self.program.add_expr(ExprKind::Assign(lhs, rhs), pos))
    }

    /// Precedence-climbing binary expression parser. Each operator it
    /// takes nests the expression one level deeper.
    fn parse_binary(&mut self, min_prec: u8) -> Result<ExprId> {
        let mut lhs = self.parse_unary()?;
        let mut levels = 0;
        loop {
            let (op, prec) = match self.peek() {
                Tok::OrOr => (BinaryOp::LogOr, 1),
                Tok::AndAnd => (BinaryOp::LogAnd, 2),
                Tok::Pipe => (BinaryOp::BitOr, 3),
                Tok::Caret => (BinaryOp::BitXor, 4),
                Tok::Amp => (BinaryOp::BitAnd, 5),
                Tok::EqEq => (BinaryOp::Eq, 6),
                Tok::NotEq => (BinaryOp::Ne, 6),
                Tok::Lt => (BinaryOp::Lt, 7),
                Tok::Le => (BinaryOp::Le, 7),
                Tok::Gt => (BinaryOp::Gt, 7),
                Tok::Ge => (BinaryOp::Ge, 7),
                Tok::Shl => (BinaryOp::Shl, 8),
                Tok::Shr => (BinaryOp::Shr, 8),
                Tok::Plus => (BinaryOp::Add, 9),
                Tok::Minus => (BinaryOp::Sub, 9),
                Tok::Star => (BinaryOp::Mul, 10),
                Tok::Slash => (BinaryOp::Div, 10),
                Tok::Percent => (BinaryOp::Rem, 10),
                _ => break,
            };
            if prec < min_prec {
                break;
            }
            self.enter()?;
            levels += 1;
            let pos = self.here();
            self.bump();
            let rhs = self.parse_binary(prec + 1)?;
            lhs = self.program.add_expr(ExprKind::Binary(op, lhs, rhs), pos);
        }
        self.leave(levels);
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<ExprId> {
        let pos = self.here();
        match self.peek() {
            Tok::Minus => {
                self.bump();
                let e = self.parse_operand()?;
                Ok(self.program.add_expr(ExprKind::Unary(UnaryOp::Neg, e), pos))
            }
            Tok::Bang => {
                self.bump();
                let e = self.parse_operand()?;
                Ok(self.program.add_expr(ExprKind::Unary(UnaryOp::Not, e), pos))
            }
            Tok::Star => {
                self.bump();
                let e = self.parse_operand()?;
                Ok(self.program.add_expr(ExprKind::Deref(e), pos))
            }
            Tok::Amp => {
                self.bump();
                let e = self.parse_operand()?;
                Ok(self.program.add_expr(ExprKind::AddrOf(e), pos))
            }
            Tok::PlusPlus | Tok::MinusMinus => {
                let op = if self.bump() == Tok::PlusPlus {
                    BinaryOp::Add
                } else {
                    BinaryOp::Sub
                };
                let e = self.parse_operand()?;
                Ok(self.desugar_incr(e, op, pos))
            }
            _ => self.parse_postfix(),
        }
    }

    /// The operand of a prefix operator, one level deeper.
    fn parse_operand(&mut self) -> Result<ExprId> {
        self.enter()?;
        let e = self.parse_unary()?;
        self.leave(1);
        Ok(e)
    }

    /// A primary expression and the subscripts, calls and increments
    /// after it, each of which nests it one level deeper.
    fn parse_postfix(&mut self) -> Result<ExprId> {
        let mut e = self.parse_primary()?;
        let mut levels = 0;
        loop {
            let pos = self.here();
            match self.peek() {
                Tok::LBracket => {
                    self.bump();
                    let idx = self.parse_expr()?;
                    self.expect(Tok::RBracket)?;
                    e = self.program.add_expr(ExprKind::Index(e, idx), pos);
                }
                Tok::LParen => {
                    self.bump();
                    let mark = self.scratch.expr_stack.len();
                    if !self.eat(Tok::RParen) {
                        loop {
                            let arg = self.parse_expr()?;
                            self.scratch.expr_stack.push(arg);
                            if !self.eat(Tok::Comma) {
                                break;
                            }
                        }
                        self.expect(Tok::RParen)?;
                    }
                    let args = self
                        .program
                        .push_expr_list(&mut self.scratch.expr_stack, mark);
                    e = self.program.add_expr(ExprKind::Call(e, args), pos);
                }
                Tok::PlusPlus => {
                    self.bump();
                    e = self.desugar_incr(e, BinaryOp::Add, pos);
                }
                Tok::MinusMinus => {
                    self.bump();
                    e = self.desugar_incr(e, BinaryOp::Sub, pos);
                }
                _ => break,
            }
            self.enter()?;
            levels += 1;
        }
        self.leave(levels);
        Ok(e)
    }

    fn parse_primary(&mut self) -> Result<ExprId> {
        let pos = self.here();
        match self.bump() {
            Tok::Int(v) => Ok(self.program.add_expr(ExprKind::IntLit(v), pos)),
            Tok::Float(v) => Ok(self.program.add_expr(ExprKind::FloatLit(v), pos)),
            Tok::Ident(name) if name == self.malloc && self.peek() == Tok::LParen => {
                self.bump();
                let n = self.parse_expr()?;
                self.expect(Tok::RParen)?;
                Ok(self.program.add_expr(ExprKind::Malloc(n), pos))
            }
            Tok::Ident(name) => Ok(self.program.add_expr(ExprKind::Ident(name), pos)),
            Tok::LParen => {
                let e = self.parse_expr()?;
                self.expect(Tok::RParen)?;
                Ok(e)
            }
            other => Err(FrontError::new(
                Phase::Parse,
                pos,
                format!(
                    "expected expression, found `{}`",
                    other.display(self.interner)
                ),
            )),
        }
    }

    /// Desugars `e++`/`++e` to `e = e + 1` (and `--` likewise), sharing
    /// `e`'s node on both sides. MiniC gives both forms the *new* value,
    /// so they should only be used where the value is discarded.
    fn desugar_incr(&mut self, e: ExprId, op: BinaryOp, pos: Pos) -> ExprId {
        let one = self.program.add_expr(ExprKind::IntLit(1), pos);
        let rhs = self.program.add_expr(ExprKind::Binary(op, e, one), pos);
        self.program.add_expr(ExprKind::Assign(e, rhs), pos)
    }
}

/// Parses a lexed token stream into `program` (cleared first).
///
/// `malloc` is the interned name `"malloc"`, which the grammar
/// special-cases as the allocation primitive.
///
/// # Errors
///
/// Returns the first syntactic error with its source position.
pub fn parse_tokens(
    toks: &[Token],
    interner: &Interner,
    malloc: Symbol,
    program: &mut Program,
    scratch: &mut ParseScratch,
) -> std::result::Result<(), FrontError> {
    program.clear();
    scratch.expr_stack.clear();
    scratch.stmt_stack.clear();
    scratch.param_stack.clear();
    let mut p = Parser {
        toks,
        pos: 0,
        interner,
        malloc,
        program,
        scratch,
        depth: 0,
    };
    p.parse_program()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend::Frontend;

    fn parse(src: &str) -> std::result::Result<Frontend, FrontError> {
        let mut fe = Frontend::new();
        fe.parse(src)?;
        Ok(fe)
    }

    #[test]
    fn parses_globals_and_functions() {
        let fe = parse(
            r#"
int g = 5;
int arr[4] = {1, 2, 3, 4};
double mat[2][3];
int *ptr;

int add(int a, int b) { return a + b; }
void noop() { }
"#,
        )
        .unwrap();
        let p = fe.program();
        assert_eq!(p.globals.len(), 4);
        assert_eq!(p.funcs.len(), 2);
        assert_eq!(p.globals[2].ty.size_cells(), 6);
        assert_eq!(p.globals[3].ty, Type::Ptr(Box::new(Type::Int)));
        assert_eq!(fe.interner().name(p.globals[0].name), "g");
        assert_eq!(p.param_list(p.funcs[0].params).len(), 2);
        assert!(p.funcs[1].ret.is_none());
    }

    #[test]
    fn parses_statements() {
        let fe = parse(
            r#"
int main() {
  int i;
  int total = 0;
  for (i = 0; i < 10; i++) {
    if (i % 2 == 0) { total += i; } else { continue; }
  }
  while (total > 5) { total--; break; }
  do { total = total + 1; } while (total < 0);
  return total;
}
"#,
        )
        .unwrap();
        let p = fe.program();
        assert_eq!(p.funcs.len(), 1);
        let body = p.stmt_list(p.funcs[0].body);
        assert!(matches!(p.stmt(body[2]), Stmt::For { .. }));
    }

    #[test]
    fn precedence() {
        let fe = parse("int main() { return 1 + 2 * 3 < 7 && 1; }").unwrap();
        let p = fe.program();
        let body = p.stmt_list(p.funcs[0].body);
        let Stmt::Return { value: Some(e), .. } = p.stmt(body[0]) else {
            panic!("expected return");
        };
        // Top-level operator must be `&&`.
        assert!(matches!(
            p.expr(*e).kind,
            ExprKind::Binary(BinaryOp::LogAnd, _, _)
        ));
    }

    #[test]
    fn compound_assignment_desugars_without_cloning() {
        let fe = parse("int main() { int x; x += 2; return x; }").unwrap();
        let p = fe.program();
        let body = p.stmt_list(p.funcs[0].body);
        let Stmt::Expr(e) = p.stmt(body[1]) else {
            panic!()
        };
        let ExprKind::Assign(lhs, rhs) = p.expr(*e).kind else {
            panic!("expected assign")
        };
        assert!(matches!(p.expr(lhs).kind, ExprKind::Ident(_)));
        let ExprKind::Binary(BinaryOp::Add, a, _) = p.expr(rhs).kind else {
            panic!("expected desugared add")
        };
        // The desugared RHS reuses the lvalue's arena node, not a copy.
        assert_eq!(a, lhs);
    }

    #[test]
    fn increment_desugars_without_cloning() {
        let fe = parse("int main() { int x; x++; --x; return x; }").unwrap();
        let p = fe.program();
        let body = p.stmt_list(p.funcs[0].body);
        for stmt in &body[1..3] {
            let Stmt::Expr(e) = p.stmt(*stmt) else {
                panic!()
            };
            let ExprKind::Assign(lhs, rhs) = p.expr(*e).kind else {
                panic!("expected assign")
            };
            let ExprKind::Binary(_, a, _) = p.expr(rhs).kind else {
                panic!("expected binary")
            };
            assert_eq!(a, lhs);
        }
    }

    #[test]
    fn pointers_and_indexing() {
        let fe = parse(
            r#"
int sum(int *a, int n) {
  int s = 0;
  int i;
  for (i = 0; i < n; i = i + 1) s = s + a[i];
  return s;
}
"#,
        )
        .unwrap();
        let p = fe.program();
        assert_eq!(
            p.param_list(p.funcs[0].params)[0].1,
            Type::Ptr(Box::new(Type::Int))
        );
    }

    #[test]
    fn array_params_decay() {
        let fe = parse("void f(int a[], int m[][3]) { }").unwrap();
        let p = fe.program();
        let params = p.param_list(p.funcs[0].params);
        assert_eq!(params[0].1, Type::Ptr(Box::new(Type::Int)));
        assert_eq!(
            params[1].1,
            Type::Ptr(Box::new(Type::Array(Box::new(Type::Int), 3)))
        );
    }

    #[test]
    fn malloc_and_addressof() {
        let fe = parse(
            r#"
int main() {
  int *p = malloc(10);
  int x = 0;
  int *q = &x;
  *q = 1;
  p[3] = *q;
  return p[3];
}
"#,
        )
        .unwrap();
        let p = fe.program();
        let body = p.stmt_list(p.funcs[0].body);
        let Stmt::Decl { init: Some(e), .. } = p.stmt(body[0]) else {
            panic!()
        };
        assert!(matches!(p.expr(*e).kind, ExprKind::Malloc(_)));
    }

    #[test]
    fn error_positions() {
        let e = parse("int main() { return 1 + ; }").unwrap_err();
        assert_eq!(e.pos.line, 1);
        assert!(e.message.contains("expected expression"));
    }

    #[test]
    fn rejects_void_global() {
        let e = parse("void g;").unwrap_err();
        assert!(e.message.contains("void"));
    }
}
