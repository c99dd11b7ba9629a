//! Abstract syntax tree of the DSL.

use tssa_ir::Type;

/// A parsed `def` function.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Function {
    /// Function name.
    pub name: String,
    /// Typed parameters.
    pub params: Vec<(String, Type)>,
    /// Body statements.
    pub body: Vec<Stmt>,
}

/// A statement.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Stmt {
    /// `target = value`
    Assign {
        /// Assignment target.
        target: Target,
        /// Right-hand side.
        value: Expr,
        /// Source line.
        line: usize,
    },
    /// `target op= value`
    AugAssign {
        /// Assignment target.
        target: Target,
        /// `+`, `-`, `*` or `/`.
        op: AugOp,
        /// Right-hand side.
        value: Expr,
        /// Source line.
        line: usize,
    },
    /// `for var in range(count):`
    For {
        /// Induction variable name.
        var: String,
        /// Trip count expression.
        count: Expr,
        /// Loop body.
        body: Vec<Stmt>,
        /// Source line.
        line: usize,
    },
    /// `while cond:` — a condition-driven loop.
    While {
        /// Loop condition, evaluated before entry and after every iteration.
        cond: Expr,
        /// Loop body.
        body: Vec<Stmt>,
        /// Source line.
        line: usize,
    },
    /// `if cond: … else: …`
    If {
        /// Branch condition.
        cond: Expr,
        /// Then branch.
        then_body: Vec<Stmt>,
        /// Else branch (possibly empty).
        else_body: Vec<Stmt>,
        /// Source line.
        line: usize,
    },
    /// `return a, b`
    Return {
        /// Returned expressions.
        values: Vec<Expr>,
        /// Source line.
        line: usize,
    },
    /// A bare expression (side-effecting method call).
    Expr {
        /// The expression.
        expr: Expr,
        /// Source line.
        line: usize,
    },
}

/// Assignment target.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Target {
    /// A plain variable.
    Name(String),
    /// `base[subs…] = …`: a partial (view-level) write.
    Subscript {
        /// The subscripted expression.
        base: Expr,
        /// Subscript items, outermost first.
        subs: Vec<Sub>,
    },
}

/// Augmented-assignment operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AugOp {
    /// `+=`
    Add,
    /// `-=`
    Sub,
    /// `*=`
    Mul,
    /// `/=`
    Div,
}

/// One subscript item.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Sub {
    /// `a[i]` — select.
    Index(Expr),
    /// `a[lo:hi:step]` — slice (any bound may be omitted).
    Range {
        /// Start bound.
        start: Option<Expr>,
        /// End bound.
        end: Option<Expr>,
        /// Step.
        step: Option<Expr>,
    },
    /// `a[:, …]` — keep the whole dimension.
    Full,
}

/// Binary arithmetic operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `//`
    FloorDiv,
    /// `%`
    Mod,
}

/// Comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Expr {
    /// Variable reference.
    Name(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// Boolean literal.
    Bool(bool),
    /// Unary minus.
    Neg(Box<Expr>),
    /// `not e`.
    Not(Box<Expr>),
    /// Arithmetic.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Comparison.
    Compare {
        /// Operator.
        op: CmpOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// `and` / `or`.
    BoolOp {
        /// `true` = and, `false` = or.
        is_and: bool,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Free-function call.
    Call {
        /// Function name.
        func: String,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// Method call.
    MethodCall {
        /// Receiver.
        recv: Box<Expr>,
        /// Method name.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// Subscript (view).
    Subscript {
        /// Base expression.
        base: Box<Expr>,
        /// Subscript items.
        subs: Vec<Sub>,
    },
    /// `[a, b, c]` list literal (shapes, concat operands).
    List(Vec<Expr>),
}
