//! The MiniC abstract syntax tree, stored in flat arenas.
//!
//! Tree edges are `u32` indices ([`ExprId`], [`StmtId`]) into pools owned
//! by the [`Program`] instead of `Box` pointers, and child lists are
//! contiguous ranges ([`ExprList`], [`StmtList`]) into side pools instead
//! of per-node `Vec`s. A parse therefore performs a handful of amortized
//! `Vec` pushes rather than one heap allocation per node, and the pools
//! are recycled across compiles by [`crate::Frontend`] the same way the
//! pass chain recycles its scratch tables. Names are interned
//! [`Symbol`]s; resolve them through the interner that lexed the program.

use crate::intern::Symbol;
use crate::token::Pos;
use std::fmt;

/// A MiniC type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Type {
    /// 64-bit integer.
    Int,
    /// 64-bit float.
    Double,
    /// A function pointer (dynamically checked arity).
    Func,
    /// Pointer to `T`.
    Ptr(Box<Type>),
    /// Array of `n` elements of `T` (possibly itself an array).
    Array(Box<Type>, usize),
}

impl Type {
    /// Size in value cells.
    pub fn size_cells(&self) -> usize {
        match self {
            Type::Array(elem, n) => elem.size_cells() * n,
            _ => 1,
        }
    }

    /// True for scalar (single-cell) types.
    pub fn is_scalar(&self) -> bool {
        !matches!(self, Type::Array(..))
    }

    /// True for arithmetic types.
    pub fn is_arith(&self) -> bool {
        matches!(self, Type::Int | Type::Double)
    }

    /// The type a value of this type has after array-to-pointer decay.
    pub fn decayed(&self) -> Type {
        match self {
            Type::Array(elem, _) => Type::Ptr(elem.clone()),
            other => other.clone(),
        }
    }

    /// The pointee/element type for pointers and arrays.
    pub fn element(&self) -> Option<&Type> {
        match self {
            Type::Ptr(t) | Type::Array(t, _) => Some(t),
            _ => None,
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Int => write!(f, "int"),
            Type::Double => write!(f, "double"),
            Type::Func => write!(f, "func"),
            Type::Ptr(t) => write!(f, "{t}*"),
            Type::Array(t, n) => write!(f, "{t}[{n}]"),
        }
    }
}

/// Binary operators (after desugaring compound assignment).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `&`
    BitAnd,
    /// `|`
    BitOr,
    /// `^`
    BitXor,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&` (short-circuit)
    LogAnd,
    /// `||` (short-circuit)
    LogOr,
}

impl BinaryOp {
    /// True for the six comparison operators.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinaryOp::Eq | BinaryOp::Ne | BinaryOp::Lt | BinaryOp::Le | BinaryOp::Gt | BinaryOp::Ge
        )
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// `-`
    Neg,
    /// `!`
    Not,
}

/// An expression's index in its [`Program`]'s expression pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExprId(pub u32);

/// A statement's index in its [`Program`]'s statement pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StmtId(pub u32);

/// A contiguous run of [`ExprId`]s in the program's sequence pool —
/// argument lists and initializer lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExprList {
    pub(crate) start: u32,
    pub(crate) len: u32,
}

impl ExprList {
    /// An empty list.
    pub fn empty() -> ExprList {
        ExprList { start: 0, len: 0 }
    }

    /// Number of expressions in the list.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when the list has no expressions.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// A contiguous run of [`StmtId`]s in the program's sequence pool —
/// statement blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StmtList {
    pub(crate) start: u32,
    pub(crate) len: u32,
}

impl StmtList {
    /// An empty block.
    pub fn empty() -> StmtList {
        StmtList { start: 0, len: 0 }
    }

    /// Number of statements in the block.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when the block has no statements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// An expression with its source position.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Expr {
    /// The expression.
    pub kind: ExprKind,
    /// Source position.
    pub pos: Pos,
}

/// Expression kinds. Children are arena ids; the parser may share a
/// subtree between two edges (compound-assignment and `++`/`--`
/// desugaring reuse the lvalue id on both sides), which is sound because
/// lowering never mutates nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExprKind {
    /// Integer literal.
    IntLit(i64),
    /// Float literal.
    FloatLit(f64),
    /// Variable or function name.
    Ident(Symbol),
    /// Unary operation.
    Unary(UnaryOp, ExprId),
    /// Binary operation.
    Binary(BinaryOp, ExprId, ExprId),
    /// Assignment `lhs = rhs` (compound assignments are desugared by the
    /// parser).
    Assign(ExprId, ExprId),
    /// Call; the callee is an expression (an identifier naming a function
    /// or intrinsic, or a `func`-typed variable).
    Call(ExprId, ExprList),
    /// Indexing `base[index]`.
    Index(ExprId, ExprId),
    /// Dereference `*e`.
    Deref(ExprId),
    /// Address-of `&e` (of an identifier or an index expression).
    AddrOf(ExprId),
    /// Heap allocation `malloc(n)` of `n` cells.
    Malloc(ExprId),
}

/// A statement.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // field names mirror the surface syntax
pub enum Stmt {
    /// Local declaration with optional initializer.
    Decl {
        name: Symbol,
        ty: Type,
        init: Option<ExprId>,
        pos: Pos,
    },
    /// Expression statement.
    Expr(ExprId),
    /// `if` with optional `else`.
    If {
        cond: ExprId,
        then_body: StmtList,
        else_body: StmtList,
    },
    /// `while` loop.
    While { cond: ExprId, body: StmtList },
    /// `do { } while (cond);` loop.
    DoWhile { body: StmtList, cond: ExprId },
    /// `for` loop; all three headers optional.
    For {
        init: Option<StmtId>,
        cond: Option<ExprId>,
        step: Option<ExprId>,
        body: StmtList,
    },
    /// `return` with optional value.
    Return { value: Option<ExprId>, pos: Pos },
    /// `break`.
    Break(Pos),
    /// `continue`.
    Continue(Pos),
    /// Nested block.
    Block(StmtList),
}

/// Initializer for a global variable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GlobalInitAst {
    /// A single number.
    Scalar(ExprId),
    /// `{ a, b, c }` for arrays.
    List(ExprList),
}

/// A global variable declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalDecl {
    /// Name.
    pub name: Symbol,
    /// Declared type.
    pub ty: Type,
    /// Optional initializer (literals only).
    pub init: Option<GlobalInitAst>,
    /// Position.
    pub pos: Pos,
}

/// A parameter list: a contiguous run in the program's parameter pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParamList {
    pub(crate) start: u32,
    pub(crate) len: u32,
}

impl ParamList {
    /// Number of parameters.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True for a nullary function.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// A function definition.
#[derive(Debug, Clone, PartialEq)]
pub struct FuncDecl {
    /// Name.
    pub name: Symbol,
    /// Return type; `None` = `void`.
    pub ret: Option<Type>,
    /// Parameters.
    pub params: ParamList,
    /// Body.
    pub body: StmtList,
    /// Position.
    pub pos: Pos,
}

/// A whole translation unit: declarations plus the flat node pools every
/// id indexes into.
///
/// The pools survive [`Program::clear`], so a recycled program re-parses
/// without reallocating (beyond first-compile growth). All reads go
/// through the accessor methods; ids and lists from a cleared program
/// must not be used against the refilled one.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Program {
    /// Global variables, in declaration order.
    pub globals: Vec<GlobalDecl>,
    /// Functions, in declaration order.
    pub funcs: Vec<FuncDecl>,
    exprs: Vec<Expr>,
    stmts: Vec<Stmt>,
    expr_seq: Vec<ExprId>,
    stmt_seq: Vec<StmtId>,
    params: Vec<(Symbol, Type)>,
}

impl Program {
    /// The expression behind an id.
    pub fn expr(&self, id: ExprId) -> &Expr {
        &self.exprs[id.0 as usize]
    }

    /// The statement behind an id.
    pub fn stmt(&self, id: StmtId) -> &Stmt {
        &self.stmts[id.0 as usize]
    }

    /// The expression ids of a list.
    pub fn expr_list(&self, list: ExprList) -> &[ExprId] {
        &self.expr_seq[list.start as usize..(list.start + list.len) as usize]
    }

    /// The statement ids of a block.
    pub fn stmt_list(&self, list: StmtList) -> &[StmtId] {
        &self.stmt_seq[list.start as usize..(list.start + list.len) as usize]
    }

    /// The `(name, type)` pairs of a parameter list.
    pub fn param_list(&self, list: ParamList) -> &[(Symbol, Type)] {
        &self.params[list.start as usize..(list.start + list.len) as usize]
    }

    /// Adds an expression to the pool.
    pub fn add_expr(&mut self, kind: ExprKind, pos: Pos) -> ExprId {
        let id = ExprId(self.exprs.len() as u32);
        self.exprs.push(Expr { kind, pos });
        id
    }

    /// Adds a statement to the pool.
    pub fn add_stmt(&mut self, stmt: Stmt) -> StmtId {
        let id = StmtId(self.stmts.len() as u32);
        self.stmts.push(stmt);
        id
    }

    /// Moves `stack[mark..]` into the expression-sequence pool, returning
    /// the list covering it. The parser builds child lists on a reusable
    /// stack and flushes each completed level here.
    pub fn push_expr_list(&mut self, stack: &mut Vec<ExprId>, mark: usize) -> ExprList {
        let start = self.expr_seq.len() as u32;
        self.expr_seq.extend(stack.drain(mark..));
        ExprList {
            start,
            len: self.expr_seq.len() as u32 - start,
        }
    }

    /// Moves `stack[mark..]` into the statement-sequence pool, returning
    /// the block covering it.
    pub fn push_stmt_list(&mut self, stack: &mut Vec<StmtId>, mark: usize) -> StmtList {
        let start = self.stmt_seq.len() as u32;
        self.stmt_seq.extend(stack.drain(mark..));
        StmtList {
            start,
            len: self.stmt_seq.len() as u32 - start,
        }
    }

    /// Moves `stack[mark..]` into the parameter pool.
    pub fn push_param_list(&mut self, stack: &mut Vec<(Symbol, Type)>, mark: usize) -> ParamList {
        let start = self.params.len() as u32;
        self.params.extend(stack.drain(mark..));
        ParamList {
            start,
            len: self.params.len() as u32 - start,
        }
    }

    /// Empties the program while keeping every pool's capacity, ready to
    /// be refilled by the next parse.
    pub fn clear(&mut self) {
        self.globals.clear();
        self.funcs.clear();
        self.exprs.clear();
        self.stmts.clear();
        self.expr_seq.clear();
        self.stmt_seq.clear();
        self.params.clear();
    }

    /// Total pooled expression nodes (diagnostics/tests).
    pub fn expr_count(&self) -> usize {
        self.exprs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_sizes() {
        assert_eq!(Type::Int.size_cells(), 1);
        assert_eq!(Type::Ptr(Box::new(Type::Double)).size_cells(), 1);
        let row = Type::Array(Box::new(Type::Int), 20);
        let mat = Type::Array(Box::new(row.clone()), 10);
        assert_eq!(row.size_cells(), 20);
        assert_eq!(mat.size_cells(), 200);
        assert!(!mat.is_scalar());
        assert_eq!(mat.decayed(), Type::Ptr(Box::new(row)));
    }

    #[test]
    fn type_display() {
        assert_eq!(Type::Ptr(Box::new(Type::Int)).to_string(), "int*");
        assert_eq!(
            Type::Array(Box::new(Type::Double), 3).to_string(),
            "double[3]"
        );
    }

    #[test]
    fn pools_recycle() {
        let mut p = Program::default();
        let pos = Pos::default();
        let a = p.add_expr(ExprKind::IntLit(1), pos);
        let b = p.add_expr(ExprKind::IntLit(2), pos);
        let mut stack = vec![a, b];
        let list = p.push_expr_list(&mut stack, 0);
        assert_eq!(p.expr_list(list), &[a, b]);
        assert!(stack.is_empty());
        p.clear();
        assert_eq!(p.expr_count(), 0);
        let c = p.add_expr(ExprKind::IntLit(3), pos);
        assert_eq!(c, ExprId(0));
        assert!(matches!(p.expr(c).kind, ExprKind::IntLit(3)));
    }

    #[test]
    fn list_flush_is_lifo_safe() {
        // Simulate nested argument lists sharing one stack: the inner
        // list flushes first and the outer keeps its own elements.
        let mut p = Program::default();
        let pos = Pos::default();
        let outer1 = p.add_expr(ExprKind::IntLit(1), pos);
        let inner1 = p.add_expr(ExprKind::IntLit(10), pos);
        let inner2 = p.add_expr(ExprKind::IntLit(20), pos);
        let mut stack = Vec::new();
        stack.push(outer1);
        let outer_mark = stack.len();
        stack.push(inner1);
        stack.push(inner2);
        let inner = p.push_expr_list(&mut stack, outer_mark);
        let outer2 = p.add_expr(ExprKind::Call(inner1, inner), pos);
        stack.push(outer2);
        let outer = p.push_expr_list(&mut stack, 0);
        assert_eq!(p.expr_list(inner), &[inner1, inner2]);
        assert_eq!(p.expr_list(outer), &[outer1, outer2]);
    }
}
