//! Recursive-descent parser for the DSL.

use tssa_ir::Type;

use crate::ast::{AugOp, BinOp, CmpOp, Expr, Function, Stmt, Sub, Target};
use crate::lexer::{tokenize, Tok, Token};
use crate::FrontendError;

/// Parse one `def` function from source.
///
/// # Errors
///
/// Returns a [`FrontendError`] with the line of the first syntax error.
pub(crate) fn parse(source: &str) -> Result<Function, FrontendError> {
    let toks = tokenize(source)?;
    let mut p = Parser { toks, pos: 0 };
    p.function()
}

struct Parser {
    toks: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos.min(self.toks.len() - 1)].kind
    }

    fn line(&self) -> usize {
        self.toks[self.pos.min(self.toks.len() - 1)].line
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos.min(self.toks.len() - 1)].kind.clone();
        self.pos += 1;
        t
    }

    fn eat(&mut self, kind: &Tok) -> bool {
        if self.peek() == kind {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: Tok, what: &str) -> Result<(), FrontendError> {
        if self.eat(&kind) {
            Ok(())
        } else {
            Err(FrontendError::at(
                self.line(),
                format!("expected {what}, found {:?}", self.peek()),
            ))
        }
    }

    fn ident(&mut self, what: &str) -> Result<String, FrontendError> {
        match self.bump() {
            Tok::Ident(s) => Ok(s),
            other => Err(FrontendError::at(
                self.line(),
                format!("expected {what}, found {other:?}"),
            )),
        }
    }

    fn function(&mut self) -> Result<Function, FrontendError> {
        self.expect(Tok::Def, "`def`")?;
        let name = self.ident("function name")?;
        self.expect(Tok::LParen, "`(`")?;
        let mut params = Vec::new();
        if !self.eat(&Tok::RParen) {
            loop {
                let pname = self.ident("parameter name")?;
                self.expect(Tok::Colon, "`:` before parameter type")?;
                let ty = self.ty()?;
                params.push((pname, ty));
                if self.eat(&Tok::RParen) {
                    break;
                }
                self.expect(Tok::Comma, "`,`")?;
            }
        }
        self.expect(Tok::Colon, "`:`")?;
        self.expect(Tok::Newline, "newline")?;
        let body = self.block()?;
        Ok(Function { name, params, body })
    }

    fn ty(&mut self) -> Result<Type, FrontendError> {
        let name = self.ident("type")?;
        match name.as_str() {
            "Tensor" => Ok(Type::Tensor),
            "int" => Ok(Type::Int),
            "float" => Ok(Type::Float),
            "bool" => Ok(Type::Bool),
            other => Err(FrontendError::at(
                self.line(),
                format!("unknown type `{other}`"),
            )),
        }
    }

    fn block(&mut self) -> Result<Vec<Stmt>, FrontendError> {
        self.expect(Tok::Indent, "an indented block")?;
        let mut stmts = Vec::new();
        loop {
            if self.eat(&Tok::Dedent) || matches!(self.peek(), Tok::Eof) {
                break;
            }
            stmts.push(self.stmt()?);
        }
        if stmts.is_empty() {
            return Err(FrontendError::at(self.line(), "empty block"));
        }
        Ok(stmts)
    }

    fn stmt(&mut self) -> Result<Stmt, FrontendError> {
        let line = self.line();
        match self.peek().clone() {
            Tok::Return => {
                self.bump();
                let mut values = vec![self.expr()?];
                while self.eat(&Tok::Comma) {
                    values.push(self.expr()?);
                }
                self.expect(Tok::Newline, "newline")?;
                Ok(Stmt::Return { values, line })
            }
            Tok::For => {
                self.bump();
                let var = self.ident("loop variable")?;
                self.expect(Tok::In, "`in`")?;
                let range = self.ident("`range`")?;
                if range != "range" {
                    return Err(FrontendError::at(
                        line,
                        "only `range(...)` loops are supported",
                    ));
                }
                self.expect(Tok::LParen, "`(`")?;
                let count = self.expr()?;
                self.expect(Tok::RParen, "`)`")?;
                self.expect(Tok::Colon, "`:`")?;
                self.expect(Tok::Newline, "newline")?;
                let body = self.block()?;
                Ok(Stmt::For {
                    var,
                    count,
                    body,
                    line,
                })
            }
            Tok::While => {
                self.bump();
                let cond = self.expr()?;
                self.expect(Tok::Colon, "`:`")?;
                self.expect(Tok::Newline, "newline")?;
                let body = self.block()?;
                Ok(Stmt::While { cond, body, line })
            }
            Tok::If => {
                self.bump();
                let cond = self.expr()?;
                self.expect(Tok::Colon, "`:`")?;
                self.expect(Tok::Newline, "newline")?;
                let then_body = self.block()?;
                let else_body = if self.eat(&Tok::Else) {
                    self.expect(Tok::Colon, "`:`")?;
                    self.expect(Tok::Newline, "newline")?;
                    self.block()?
                } else {
                    Vec::new()
                };
                Ok(Stmt::If {
                    cond,
                    then_body,
                    else_body,
                    line,
                })
            }
            _ => {
                let e = self.expr()?;
                let stmt = match self.peek() {
                    Tok::Assign => {
                        self.bump();
                        let value = self.expr()?;
                        Stmt::Assign {
                            target: expr_to_target(e, line)?,
                            value,
                            line,
                        }
                    }
                    Tok::PlusEq | Tok::MinusEq | Tok::StarEq | Tok::SlashEq => {
                        let op = match self.bump() {
                            Tok::PlusEq => AugOp::Add,
                            Tok::MinusEq => AugOp::Sub,
                            Tok::StarEq => AugOp::Mul,
                            _ => AugOp::Div,
                        };
                        let value = self.expr()?;
                        Stmt::AugAssign {
                            target: expr_to_target(e, line)?,
                            op,
                            value,
                            line,
                        }
                    }
                    _ => Stmt::Expr { expr: e, line },
                };
                self.expect(Tok::Newline, "newline")?;
                Ok(stmt)
            }
        }
    }

    // ----------------------------------------------------------- expressions

    fn expr(&mut self) -> Result<Expr, FrontendError> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr, FrontendError> {
        let mut lhs = self.and_expr()?;
        while self.eat(&Tok::Or) {
            let rhs = self.and_expr()?;
            lhs = Expr::BoolOp {
                is_and: false,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr, FrontendError> {
        let mut lhs = self.not_expr()?;
        while self.eat(&Tok::And) {
            let rhs = self.not_expr()?;
            lhs = Expr::BoolOp {
                is_and: true,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> Result<Expr, FrontendError> {
        if self.eat(&Tok::Not) {
            Ok(Expr::Not(Box::new(self.not_expr()?)))
        } else {
            self.comparison()
        }
    }

    fn comparison(&mut self) -> Result<Expr, FrontendError> {
        let lhs = self.additive()?;
        let op = match self.peek() {
            Tok::Lt => CmpOp::Lt,
            Tok::Le => CmpOp::Le,
            Tok::Gt => CmpOp::Gt,
            Tok::Ge => CmpOp::Ge,
            Tok::EqEq => CmpOp::Eq,
            Tok::NotEq => CmpOp::Ne,
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.additive()?;
        Ok(Expr::Compare {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        })
    }

    fn additive(&mut self) -> Result<Expr, FrontendError> {
        let mut lhs = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                Tok::Plus => BinOp::Add,
                Tok::Minus => BinOp::Sub,
                _ => return Ok(lhs),
            };
            self.bump();
            let rhs = self.multiplicative()?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
    }

    fn multiplicative(&mut self) -> Result<Expr, FrontendError> {
        let mut lhs = self.unary()?;
        loop {
            let op = match self.peek() {
                Tok::Star => BinOp::Mul,
                Tok::Slash => BinOp::Div,
                Tok::SlashSlash => BinOp::FloorDiv,
                Tok::Percent => BinOp::Mod,
                _ => return Ok(lhs),
            };
            self.bump();
            let rhs = self.unary()?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
    }

    fn unary(&mut self) -> Result<Expr, FrontendError> {
        if self.eat(&Tok::Minus) {
            Ok(Expr::Neg(Box::new(self.unary()?)))
        } else {
            self.postfix()
        }
    }

    fn postfix(&mut self) -> Result<Expr, FrontendError> {
        let mut e = self.atom()?;
        loop {
            match self.peek() {
                Tok::Dot => {
                    self.bump();
                    let name = self.ident("method name")?;
                    self.expect(Tok::LParen, "`(`")?;
                    let args = self.args()?;
                    e = Expr::MethodCall {
                        recv: Box::new(e),
                        name,
                        args,
                    };
                }
                Tok::LBracket => {
                    self.bump();
                    let mut subs = vec![self.sub()?];
                    while self.eat(&Tok::Comma) {
                        subs.push(self.sub()?);
                    }
                    self.expect(Tok::RBracket, "`]`")?;
                    e = Expr::Subscript {
                        base: Box::new(e),
                        subs,
                    };
                }
                _ => return Ok(e),
            }
        }
    }

    fn sub(&mut self) -> Result<Sub, FrontendError> {
        // A subscript item: `:`, `expr`, `expr:expr`, `:expr`, `expr::step` …
        if self.eat(&Tok::Colon) {
            // ':' with optional end / step
            return self.sub_range(None);
        }
        let first = self.expr()?;
        if self.eat(&Tok::Colon) {
            self.sub_range(Some(first))
        } else {
            Ok(Sub::Index(first))
        }
    }

    fn sub_range(&mut self, start: Option<Expr>) -> Result<Sub, FrontendError> {
        let mut end = None;
        let mut step = None;
        if !matches!(self.peek(), Tok::Comma | Tok::RBracket | Tok::Colon) {
            end = Some(self.expr()?);
        }
        if self.eat(&Tok::Colon) && !matches!(self.peek(), Tok::Comma | Tok::RBracket) {
            step = Some(self.expr()?);
        }
        if start.is_none() && end.is_none() && step.is_none() {
            return Ok(Sub::Full);
        }
        Ok(Sub::Range { start, end, step })
    }

    fn args(&mut self) -> Result<Vec<Expr>, FrontendError> {
        let mut args = Vec::new();
        if self.eat(&Tok::RParen) {
            return Ok(args);
        }
        loop {
            args.push(self.expr()?);
            if self.eat(&Tok::RParen) {
                return Ok(args);
            }
            self.expect(Tok::Comma, "`,`")?;
        }
    }

    fn atom(&mut self) -> Result<Expr, FrontendError> {
        let line = self.line();
        match self.bump() {
            Tok::Int(v) => Ok(Expr::Int(v)),
            Tok::Float(v) => Ok(Expr::Float(v)),
            Tok::True => Ok(Expr::Bool(true)),
            Tok::False => Ok(Expr::Bool(false)),
            Tok::Ident(name) => {
                if self.eat(&Tok::LParen) {
                    let args = self.args()?;
                    Ok(Expr::Call { func: name, args })
                } else {
                    Ok(Expr::Name(name))
                }
            }
            Tok::LParen => {
                let e = self.expr()?;
                self.expect(Tok::RParen, "`)`")?;
                Ok(e)
            }
            Tok::LBracket => {
                let mut items = Vec::new();
                if !self.eat(&Tok::RBracket) {
                    loop {
                        items.push(self.expr()?);
                        if self.eat(&Tok::RBracket) {
                            break;
                        }
                        self.expect(Tok::Comma, "`,`")?;
                    }
                }
                Ok(Expr::List(items))
            }
            other => Err(FrontendError::at(
                line,
                format!("unexpected token {other:?} in expression"),
            )),
        }
    }
}

fn expr_to_target(e: Expr, line: usize) -> Result<Target, FrontendError> {
    match e {
        Expr::Name(n) => Ok(Target::Name(n)),
        Expr::Subscript { base, subs } => Ok(Target::Subscript { base: *base, subs }),
        _ => Err(FrontendError::at(line, "invalid assignment target")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_signature_and_body() {
        let f = parse(
            "def f(x: Tensor, n: int):
                 y = x.clone()
                 return y
        ",
        )
        .unwrap();
        assert_eq!(f.name, "f");
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.params[1], ("n".into(), Type::Int));
        assert_eq!(f.body.len(), 2);
    }

    #[test]
    fn parses_for_and_if() {
        let f = parse(
            "def f(x: Tensor, n: int):
                 for i in range(n):
                     if i < 2:
                         x = x.relu()
                     else:
                         x = x.sigmoid()
                 return x
        ",
        )
        .unwrap();
        let Stmt::For { body, .. } = &f.body[0] else {
            panic!("statement 0 should be a for loop, got {:?}", f.body[0]);
        };
        assert!(matches!(body[0], Stmt::If { .. }));
    }

    #[test]
    fn parses_subscripts() {
        let f = parse(
            "def f(a: Tensor, i: int):
                 b = a[i]
                 c = a[1:4]
                 d = a[:, 0]
                 e = a[::2]
                 a[i] = b + c
                 return d, e
        ",
        )
        .unwrap();
        let Stmt::Assign { value, .. } = &f.body[0] else {
            panic!("statement 0 should be an assignment, got {:?}", f.body[0])
        };
        assert!(matches!(value, Expr::Subscript { .. }));
        let Stmt::Assign { target, .. } = &f.body[4] else {
            panic!("statement 4 should be an assignment, got {:?}", f.body[4])
        };
        assert!(matches!(target, Target::Subscript { .. }));
        let Stmt::Assign { value: e_val, .. } = &f.body[3] else {
            panic!("statement 3 should be an assignment, got {:?}", f.body[3])
        };
        let Expr::Subscript { subs, .. } = e_val else {
            panic!("`a[::2]` should parse as a subscript, got {e_val:?}")
        };
        assert!(matches!(subs[0], Sub::Range { .. }));
    }

    #[test]
    fn parses_precedence() {
        let f = parse(
            "def f(a: int, b: int):
                 c = a + b * 2 - 1
                 d = a < b and b < 10 or not True
                 return c, d
        ",
        )
        .unwrap();
        let Stmt::Assign { value, .. } = &f.body[0] else {
            panic!("statement 0 should be an assignment, got {:?}", f.body[0])
        };
        // (a + (b*2)) - 1: top is Sub
        assert!(matches!(value, Expr::Binary { op: BinOp::Sub, .. }));
    }

    #[test]
    fn parses_method_chains_and_calls() {
        let f = parse(
            "def f(x: Tensor):
                 y = sigmoid(x).transpose(0, 1).sum(0)
                 z = cat([x, y], 0)
                 return z
        ",
        )
        .unwrap();
        assert_eq!(f.body.len(), 3);
    }

    #[test]
    fn rejects_bad_targets() {
        assert!(parse("def f(x: int):\n    1 = x\n    return x\n").is_err());
        assert!(parse("def f(x: int):\n    return x +\n").is_err());
        assert!(parse("def f(x: badtype):\n    return x\n").is_err());
    }

    /// Every malformed form must come back as a [`FrontendError`] carrying
    /// the offending line and a message naming what the parser wanted —
    /// never a panic.
    #[test]
    fn malformed_forms_yield_diagnostics() {
        let cases: &[(&str, usize, &str)] = &[
            // Signature errors, all on line 1.
            ("fn f(x: Tensor):\n    return x\n", 1, "`def`"),
            (
                "def f(x Tensor):\n    return x\n",
                1,
                "`:` before parameter type",
            ),
            ("def f(x: Tensor:\n    return x\n", 1, "`,`"),
            ("def f(x: Tensor)\n    return x\n", 1, "`:`"),
            // Body errors carry the body line.
            (
                "def f(n: int):\n    for i range(n):\n        n = i\n    return n\n",
                2,
                "`in`",
            ),
            (
                "def f(n: int):\n    for i in count(n):\n        n = i\n    return n\n",
                2,
                "range",
            ),
            (
                "def f(n: int):\n    if n < 1\n        n = 2\n    return n\n",
                2,
                "`:`",
            ),
            ("def f(n: int):\n    m = (n + 1\n    return m\n", 2, "`)`"),
            ("def f(n: int):\n    m = n[1\n    return m\n", 2, "`]`"),
            ("def f(n: int):\n    return n +\n", 2, "expected"),
        ];
        for (source, line, needle) in cases {
            let err = parse(source).expect_err(source);
            assert_eq!(err.line, *line, "wrong line for {source:?}: {err}");
            assert!(
                err.message.contains(needle),
                "diagnostic for {source:?} should mention {needle:?}, got: {err}"
            );
        }
    }

    #[test]
    fn missing_indent_is_reported() {
        let err = parse("def f(n: int):\nreturn n\n").expect_err("body must be indented");
        assert!(
            err.message.contains("indent"),
            "should ask for an indented block, got: {err}"
        );
    }

    #[test]
    fn parses_augmented_assignment() {
        let f = parse(
            "def f(a: Tensor, i: int):
                 a[i] += 1.0
                 i += 1
                 return a
        ",
        )
        .unwrap();
        assert!(matches!(f.body[0], Stmt::AugAssign { op: AugOp::Add, .. }));
    }
}
