//! Lowering from AST to graph IR with scalar SSA.
//!
//! Whole-variable rebinding (including through `for`/`if`) becomes loop
//! carries and branch outputs — the functional-SSA capture TorchScript
//! performs (§2.2 of the paper). *Partial* writes (`a[i] = …`, `t.add_(s)`)
//! lower to view + mutation nodes and are deliberately left imperative:
//! eliminating them is the job of the TensorSSA conversion.

use std::collections::HashMap;

use tssa_ir::{
    BinaryKind, BlockId, ConstValue, Graph, MutateKind, Op, ScalarKind, SrcSpan, Type, UnaryKind,
    ValueId, ViewKind,
};

use crate::ast::{AugOp, BinOp, CmpOp, Expr, Function, Stmt, Sub, Target};
use crate::FrontendError;

type Env = HashMap<String, ValueId>;

/// Lower a parsed function to graph IR.
///
/// # Errors
///
/// Returns a [`FrontendError`] on the offending statement's line on type
/// errors, unknown functions/methods, a builtin given the wrong number of
/// arguments, or unsupported constructs (e.g. `return` inside control
/// flow).
pub(crate) fn lower(func: &Function) -> Result<Graph, FrontendError> {
    let mut lw = Lowerer {
        g: Graph::new(),
        line: 0,
    };
    let mut env = Env::new();
    for (name, ty) in &func.params {
        let v = lw.g.add_input(name, ty.clone());
        env.insert(name.clone(), v);
    }
    let top = lw.g.top();
    let (ret, body) = match func.body.split_last() {
        Some((Stmt::Return { values, line }, body)) => (Some((values, *line)), body),
        _ => (None, func.body.as_slice()),
    };
    for stmt in body {
        lw.stmt(stmt, top, &mut env)?;
    }
    // Without a return, the error stays on the last statement's line.
    let Some((values, line)) = ret else {
        return lw.err("function must end with a return");
    };
    lw.set_line(line);
    let mut rets = Vec::with_capacity(values.len());
    for v in values {
        rets.push(lw.expr(v, top, &mut env)?);
    }
    lw.g.set_returns(top, &rets);
    lw.g.set_current_span(None);
    Ok(lw.g)
}

struct Lowerer {
    g: Graph,
    /// Line of the statement being lowered: the span of every node appended
    /// and the line of every error raised.
    line: usize,
}

/// The arguments of one builtin call, read only through the `arg*`
/// accessors of [`Lowerer`] once [`Lowerer::takes`] has checked their
/// count. A method's receiver, already lowered, is argument 0.
struct Args<'e> {
    name: &'e str,
    recv: Option<ValueId>,
    rest: &'e [Expr],
    block: BlockId,
}

impl<'e> Args<'e> {
    fn count(&self) -> usize {
        usize::from(self.recv.is_some()) + self.rest.len()
    }

    /// The source of argument `i`; a receiver has none.
    fn src(&self, i: usize) -> Option<&'e Expr> {
        let skip = usize::from(self.recv.is_some());
        i.checked_sub(skip).and_then(|k| self.rest.get(k))
    }
}

/// Names rebound by `stmts` given the current environment (mutations through
/// views and tensor `+=` do not rebind; scalar `+=` does).
fn rebound_names(stmts: &[Stmt], env: &Env, g: &Graph, out: &mut Vec<String>) {
    for s in stmts {
        match s {
            Stmt::Assign {
                target: Target::Name(n),
                ..
            } if env.contains_key(n) && !out.contains(n) => {
                out.push(n.clone());
            }
            Stmt::AugAssign {
                target: Target::Name(n),
                ..
            } => {
                if let Some(&v) = env.get(n) {
                    if g.value(v).ty != Type::Tensor && !out.contains(n) {
                        out.push(n.clone());
                    }
                }
            }
            Stmt::For { body, .. } | Stmt::While { body, .. } => rebound_names(body, env, g, out),
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                rebound_names(then_body, env, g, out);
                rebound_names(else_body, env, g, out);
            }
            _ => {}
        }
    }
}

fn literal_int(e: &Expr) -> Option<i64> {
    match e {
        Expr::Int(v) => Some(*v),
        Expr::Neg(inner) => literal_int(inner).map(|v| -v),
        _ => None,
    }
}

fn literal_int_list(e: &Expr) -> Option<Vec<i64>> {
    match e {
        Expr::List(items) => items.iter().map(literal_int).collect(),
        _ => None,
    }
}

impl Lowerer {
    fn err<T>(&self, message: impl Into<String>) -> Result<T, FrontendError> {
        Err(FrontendError::at(self.line, message))
    }

    fn set_line(&mut self, line: usize) {
        self.line = line;
        self.g.set_current_span(Some(SrcSpan::line(line)));
    }

    fn ty(&self, v: ValueId) -> Type {
        self.g.value(v).ty.clone()
    }

    fn c_int(&mut self, block: BlockId, v: i64) -> ValueId {
        self.g.constant_in(block, ConstValue::Int(v))
    }

    fn c_float(&mut self, block: BlockId, v: f64) -> ValueId {
        self.g.constant_in(block, ConstValue::Float(v))
    }

    fn c_bool(&mut self, block: BlockId, v: bool) -> ValueId {
        self.g.constant_in(block, ConstValue::Bool(v))
    }

    fn one(&mut self, block: BlockId, op: impl Into<Op>, inputs: &[ValueId], ty: Type) -> ValueId {
        let n = self.g.append(block, op.into(), inputs, &[ty]);
        self.g.out(n)
    }

    /// Coerce an Int value to Float (identity for Float).
    fn coerce_float(&mut self, block: BlockId, v: ValueId) -> Result<ValueId, FrontendError> {
        match self.ty(v) {
            Type::Float => Ok(v),
            Type::Int => Ok(self.one(block, ScalarKind::IntToFloat, &[v], Type::Float)),
            other => self.err(format!("expected a scalar, found {other}")),
        }
    }

    // ---------------------------------------------------------- statements

    fn stmt(&mut self, stmt: &Stmt, block: BlockId, env: &mut Env) -> Result<(), FrontendError> {
        // Every node appended while lowering this statement inherits its
        // source line, so lints on the resulting graph can point at source.
        let line = match stmt {
            Stmt::Expr { line, .. }
            | Stmt::Assign { line, .. }
            | Stmt::AugAssign { line, .. }
            | Stmt::If { line, .. }
            | Stmt::For { line, .. }
            | Stmt::While { line, .. }
            | Stmt::Return { line, .. } => *line,
        };
        self.set_line(line);
        match stmt {
            Stmt::Return { .. } => self.err("return is only allowed at the end of the function"),
            Stmt::Expr { expr, .. } => self.expr(expr, block, env).map(drop),
            Stmt::Assign {
                target: Target::Name(name),
                value,
                ..
            } => {
                let v = self.expr(value, block, env)?;
                env.insert(name.clone(), v);
                Ok(())
            }
            Stmt::Assign {
                target: Target::Subscript { base, subs },
                value,
                ..
            } => {
                let view = self.subscript(base, subs, block, env)?;
                let rhs = self.expr(value, block, env)?;
                let kind = match self.ty(rhs) {
                    Type::Tensor => MutateKind::Copy,
                    Type::Float | Type::Int => MutateKind::Fill,
                    other => return self.err(format!("cannot store {other} into a tensor")),
                };
                self.mutate(kind, &mut [view, rhs], block)
            }
            Stmt::AugAssign {
                target, op, value, ..
            } => {
                let view = match target {
                    Target::Name(name) => {
                        let Some(&cur) = env.get(name) else {
                            return self.err(format!("undefined variable `{name}`"));
                        };
                        if self.ty(cur) != Type::Tensor {
                            // Scalar augmented assignment rebinds.
                            let bin = match op {
                                AugOp::Add => BinOp::Add,
                                AugOp::Sub => BinOp::Sub,
                                AugOp::Mul => BinOp::Mul,
                                AugOp::Div => BinOp::Div,
                            };
                            let rhs = self.expr(value, block, env)?;
                            let v = self.binary(bin, cur, rhs, block)?;
                            env.insert(name.clone(), v);
                            return Ok(());
                        }
                        cur
                    }
                    Target::Subscript { base, subs } => self.subscript(base, subs, block, env)?,
                };
                let kind = match op {
                    AugOp::Add => MutateKind::Add,
                    AugOp::Sub => MutateKind::Sub,
                    AugOp::Mul => MutateKind::Mul,
                    AugOp::Div => MutateKind::Div,
                };
                let rhs = self.expr(value, block, env)?;
                self.mutate(kind, &mut [view, rhs], block)
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
                ..
            } => self.if_stmt(cond, then_body, else_body, block, env),
            Stmt::For {
                var, count, body, ..
            } => {
                let trip = self.expr(count, block, env)?;
                if self.ty(trip) != Type::Int {
                    return self.err("range() needs an int");
                }
                let go = self.c_bool(block, true);
                let head = [trip, go];
                self.loop_stmt(head, Some(var), body, block, env, |lw, b, _| {
                    Ok(lw.c_bool(b, true))
                })
            }
            Stmt::While { cond, body, .. } => {
                let go = self.host_bool(cond, "while", block, env)?;
                let head = [self.c_int(block, i64::MAX), go];
                self.loop_stmt(head, None, body, block, env, |lw, b, env| {
                    lw.host_bool(cond, "while", b, env)
                })
            }
        }
    }

    /// Lower a nested body, then return to the enclosing statement's line.
    fn body(&mut self, stmts: &[Stmt], block: BlockId, env: &mut Env) -> Result<(), FrontendError> {
        let line = self.line;
        for s in stmts {
            self.stmt(s, block, env)?;
        }
        self.set_line(line);
        Ok(())
    }

    /// The one `Op::Mutate` append: `inputs[0]` is written in place from
    /// `inputs[1..]`, which are coerced to floats for `fill_` and `clamp_`.
    /// A scalar operand of `add_` … `div_` becomes the `add_scalar_` or
    /// `mul_scalar_` it stands for.
    fn mutate(
        &mut self,
        kind: MutateKind,
        inputs: &mut [ValueId],
        block: BlockId,
    ) -> Result<(), FrontendError> {
        use MutateKind::{Add, AddScalar, Clamp, Div, Fill, Mul, MulScalar, Sub};
        let kind = match (kind, &mut *inputs) {
            (Fill | Clamp, [_, operands @ ..]) => {
                for v in operands {
                    *v = self.coerce_float(block, *v)?;
                }
                kind
            }
            (Add | Sub | Mul | Div, [_, rhs]) => match self.ty(*rhs) {
                Type::Tensor => kind,
                Type::Float | Type::Int => {
                    let f = self.coerce_float(block, *rhs)?;
                    let (kind, operand) = match kind {
                        Sub => (
                            AddScalar,
                            self.one(block, ScalarKind::FloatNeg, &[f], Type::Float),
                        ),
                        Div => {
                            let one = self.c_float(block, 1.0);
                            let inv = self.one(block, ScalarKind::FloatDiv, &[one, f], Type::Float);
                            (MulScalar, inv)
                        }
                        Mul => (MulScalar, f),
                        _ => (AddScalar, f),
                    };
                    *rhs = operand;
                    kind
                }
                other => return self.err(format!("cannot combine tensor with {other} in place")),
            },
            (MutateKind::Copy, [_, src]) => match self.ty(*src) {
                Type::Tensor => kind,
                other => return self.err(format!("`copy_` needs a tensor source, got {other}")),
            },
            _ => kind,
        };
        self.g
            .append(block, Op::Mutate(kind), inputs, &[Type::Tensor]);
        Ok(())
    }

    /// `cond` lowered and checked to be a host bool.
    fn host_bool(
        &mut self,
        cond: &Expr,
        what: &str,
        block: BlockId,
        env: &mut Env,
    ) -> Result<ValueId, FrontendError> {
        let v = self.expr(cond, block, env)?;
        if self.ty(v) != Type::Bool {
            return self.err(format!(
                "{what} condition must be a host bool (use `.item()` on tensors)"
            ));
        }
        Ok(v)
    }

    fn if_stmt(
        &mut self,
        cond: &Expr,
        then_body: &[Stmt],
        else_body: &[Stmt],
        block: BlockId,
        env: &mut Env,
    ) -> Result<(), FrontendError> {
        let cond_v = self.host_bool(cond, "if", block, env)?;
        let if_node = self.g.append(block, Op::If, &[cond_v], &[]);
        let then_b = self.g.add_node_block(if_node);
        let else_b = self.g.add_node_block(if_node);
        let mut env_then = env.clone();
        self.body(then_body, then_b, &mut env_then)?;
        let mut env_else = env.clone();
        self.body(else_body, else_b, &mut env_else)?;

        // Variables visible before the branch whose binding changed in
        // either arm become If outputs.
        let mut changed: Vec<String> = Vec::new();
        let mut names: Vec<&String> = env.keys().collect();
        names.sort();
        for name in names {
            let before = env[name];
            let t = env_then.get(name).copied().unwrap_or(before);
            let e = env_else.get(name).copied().unwrap_or(before);
            if t != before || e != before {
                if self.ty(t) != self.ty(e) {
                    return self.err(format!("`{name}` has different types in the two branches"));
                }
                changed.push(name.clone());
            }
        }
        for name in &changed {
            let t = env_then[name];
            let e = env_else[name];
            self.g.push_return(then_b, t);
            self.g.push_return(else_b, e);
            let ty = self.ty(t);
            let out = self.g.add_output(if_node, ty);
            env.insert(name.clone(), out);
        }
        Ok(())
    }

    /// The `prim::Loop` behind `for` and `while`: `head` is its trip count
    /// and entry condition, names the body rebinds are carried, `var` (if
    /// any) binds the iteration number, and `next` lowers the body's
    /// continue condition after the body. `while` follows TorchScript: its
    /// trip count is `i64::MAX` and its condition is evaluated before entry
    /// and again at the end of every iteration.
    fn loop_stmt(
        &mut self,
        head: [ValueId; 2],
        var: Option<&str>,
        body: &[Stmt],
        block: BlockId,
        env: &mut Env,
        next: impl FnOnce(&mut Self, BlockId, &mut Env) -> Result<ValueId, FrontendError>,
    ) -> Result<(), FrontendError> {
        let mut carried: Vec<String> = Vec::new();
        rebound_names(body, env, &self.g, &mut carried);
        let mut inputs = head.to_vec();
        inputs.extend(carried.iter().map(|n| env[n]));
        let types: Vec<Type> = inputs[2..].iter().map(|&v| self.ty(v)).collect();
        let loop_node = self.g.append(block, Op::Loop, &inputs, &types);
        let body_b = self.g.add_node_block(loop_node);
        let i = self.g.add_block_param(body_b, Type::Int);
        let mut env_body = env.clone();
        if let Some(var) = var {
            env_body.insert(var.to_string(), i);
        }
        for (name, ty) in carried.iter().zip(types) {
            let p = self.g.add_block_param(body_b, ty);
            env_body.insert(name.clone(), p);
        }
        self.body(body, body_b, &mut env_body)?;
        let mut rets = vec![next(self, body_b, &mut env_body)?];
        rets.extend(carried.iter().map(|n| env_body[n]));
        self.g.set_returns(body_b, &rets);
        for (name, &out) in carried.iter().zip(&self.g.node(loop_node).outputs) {
            env.insert(name.clone(), out);
        }
        Ok(())
    }

    // ---------------------------------------------------------- expressions

    fn expr(&mut self, e: &Expr, block: BlockId, env: &mut Env) -> Result<ValueId, FrontendError> {
        match e {
            Expr::Name(n) => match env.get(n) {
                Some(&v) => Ok(v),
                None => self.err(format!("undefined variable `{n}`")),
            },
            Expr::Int(v) => Ok(self.c_int(block, *v)),
            Expr::Float(v) => Ok(self.c_float(block, *v)),
            Expr::Bool(v) => Ok(self.c_bool(block, *v)),
            Expr::Neg(inner) => {
                let v = self.expr(inner, block, env)?;
                Ok(match self.ty(v) {
                    Type::Int => self.one(block, ScalarKind::IntNeg, &[v], Type::Int),
                    Type::Float => self.one(block, ScalarKind::FloatNeg, &[v], Type::Float),
                    Type::Tensor => self.one(block, UnaryKind::Neg, &[v], Type::Tensor),
                    other => return self.err(format!("cannot negate {other}")),
                })
            }
            Expr::Not(inner) => {
                let v = self.expr(inner, block, env)?;
                Ok(match self.ty(v) {
                    Type::Bool => self.one(block, ScalarKind::BoolNot, &[v], Type::Bool),
                    Type::Tensor => self.one(block, UnaryKind::LogicalNot, &[v], Type::Tensor),
                    other => return self.err(format!("cannot apply `not` to {other}")),
                })
            }
            Expr::Binary { op, lhs, rhs } => {
                let l = self.expr(lhs, block, env)?;
                let r = self.expr(rhs, block, env)?;
                self.binary(*op, l, r, block)
            }
            Expr::Compare { op, lhs, rhs } => {
                let l = self.expr(lhs, block, env)?;
                let r = self.expr(rhs, block, env)?;
                self.compare(*op, l, r, block)
            }
            Expr::BoolOp { is_and, lhs, rhs } => {
                let l = self.expr(lhs, block, env)?;
                let r = self.expr(rhs, block, env)?;
                match (self.ty(l), self.ty(r)) {
                    (Type::Bool, Type::Bool) => {
                        let op = if *is_and {
                            ScalarKind::BoolAnd
                        } else {
                            ScalarKind::BoolOr
                        };
                        Ok(self.one(block, op, &[l, r], Type::Bool))
                    }
                    (Type::Tensor, Type::Tensor) => {
                        let op = if *is_and {
                            BinaryKind::LogicalAnd
                        } else {
                            BinaryKind::LogicalOr
                        };
                        Ok(self.one(block, op, &[l, r], Type::Tensor))
                    }
                    (a, b) => self.err(format!("cannot combine {a} and {b} with and/or")),
                }
            }
            Expr::Subscript { base, subs } => self.subscript(base, subs, block, env),
            Expr::Call { func, args } => {
                let a = Args {
                    name: func,
                    recv: None,
                    rest: args,
                    block,
                };
                self.call(&a, env)
            }
            Expr::MethodCall { recv, name, args } => self.method(recv, name, args, block, env),
            Expr::List(_) => self.err("list literal is only valid as an operator argument"),
        }
    }

    /// `base[subs]` as a chain of select and slice views.
    fn subscript(
        &mut self,
        base: &Expr,
        subs: &[Sub],
        block: BlockId,
        env: &mut Env,
    ) -> Result<ValueId, FrontendError> {
        let mut cur = self.expr(base, block, env)?;
        if self.ty(cur) != Type::Tensor {
            return self.err("only tensors can be subscripted");
        }
        let mut dim = 0i64;
        for sub in subs {
            match sub {
                Sub::Index(e) => {
                    let idx = self.expr(e, block, env)?;
                    if self.ty(idx) != Type::Int {
                        return self.err("tensor indices must be ints");
                    }
                    cur = self.one(
                        block,
                        Op::View(ViewKind::Select { dim }),
                        &[cur, idx],
                        Type::Tensor,
                    );
                }
                Sub::Range { start, end, step } => {
                    let s = match start {
                        Some(e) => self.expr(e, block, env)?,
                        None => self.c_int(block, 0),
                    };
                    let e_v = match end {
                        Some(e) => self.expr(e, block, env)?,
                        None => self.c_int(block, i64::MAX),
                    };
                    let st = match step {
                        Some(e) => self.expr(e, block, env)?,
                        None => self.c_int(block, 1),
                    };
                    cur = self.one(
                        block,
                        Op::View(ViewKind::SliceView { dim }),
                        &[cur, s, e_v, st],
                        Type::Tensor,
                    );
                    dim += 1;
                }
                Sub::Full => dim += 1,
            }
        }
        Ok(cur)
    }

    fn binary(
        &mut self,
        op: BinOp,
        l: ValueId,
        r: ValueId,
        block: BlockId,
    ) -> Result<ValueId, FrontendError> {
        use Type::*;
        Ok(match (self.ty(l), self.ty(r)) {
            (Int, Int) => {
                let o = match op {
                    BinOp::Add => ScalarKind::IntAdd,
                    BinOp::Sub => ScalarKind::IntSub,
                    BinOp::Mul => ScalarKind::IntMul,
                    BinOp::FloorDiv => ScalarKind::IntDiv,
                    BinOp::Mod => ScalarKind::IntMod,
                    BinOp::Div => {
                        let lf = self.coerce_float(block, l)?;
                        let rf = self.coerce_float(block, r)?;
                        return Ok(self.one(block, ScalarKind::FloatDiv, &[lf, rf], Float));
                    }
                };
                self.one(block, o, &[l, r], Int)
            }
            (Float, Float) | (Float, Int) | (Int, Float) => {
                let lf = self.coerce_float(block, l)?;
                let rf = self.coerce_float(block, r)?;
                let o = match op {
                    BinOp::Add => ScalarKind::FloatAdd,
                    BinOp::Sub => ScalarKind::FloatSub,
                    BinOp::Mul => ScalarKind::FloatMul,
                    BinOp::Div | BinOp::FloorDiv => ScalarKind::FloatDiv,
                    BinOp::Mod => return self.err("float modulo is not supported"),
                };
                self.one(block, o, &[lf, rf], Float)
            }
            (Tensor, Tensor) => {
                let o = match op {
                    BinOp::Add => BinaryKind::Add,
                    BinOp::Sub => BinaryKind::Sub,
                    BinOp::Mul => BinaryKind::Mul,
                    BinOp::Div => BinaryKind::Div,
                    BinOp::FloorDiv | BinOp::Mod => {
                        return self.err("floor-div/mod are not defined on tensors")
                    }
                };
                self.one(block, o, &[l, r], Tensor)
            }
            (Tensor, Float) | (Tensor, Int) => {
                let s = self.coerce_float(block, r)?;
                let o = match op {
                    BinOp::Add => UnaryKind::AddScalar,
                    BinOp::Sub => UnaryKind::SubScalar,
                    BinOp::Mul => UnaryKind::MulScalar,
                    BinOp::Div => UnaryKind::DivScalar,
                    BinOp::FloorDiv | BinOp::Mod => {
                        return self.err("floor-div/mod are not defined on tensors")
                    }
                };
                self.one(block, o, &[l, s], Tensor)
            }
            (Float, Tensor) | (Int, Tensor) => {
                let s = self.coerce_float(block, l)?;
                match op {
                    BinOp::Add => self.one(block, UnaryKind::AddScalar, &[r, s], Tensor),
                    BinOp::Mul => self.one(block, UnaryKind::MulScalar, &[r, s], Tensor),
                    BinOp::Sub => {
                        // s - t = (-t) + s
                        let neg = self.one(block, UnaryKind::Neg, &[r], Tensor);
                        self.one(block, UnaryKind::AddScalar, &[neg, s], Tensor)
                    }
                    BinOp::Div => {
                        // s / t = s * t^-1
                        let m1 = self.c_float(block, -1.0);
                        let inv = self.one(block, UnaryKind::PowScalar, &[r, m1], Tensor);
                        self.one(block, UnaryKind::MulScalar, &[inv, s], Tensor)
                    }
                    BinOp::FloorDiv | BinOp::Mod => {
                        return self.err("floor-div/mod are not defined on tensors")
                    }
                }
            }
            (a, b) => return self.err(format!("cannot apply arithmetic to {a} and {b}")),
        })
    }

    fn compare(
        &mut self,
        op: CmpOp,
        l: ValueId,
        r: ValueId,
        block: BlockId,
    ) -> Result<ValueId, FrontendError> {
        use Type::*;
        Ok(match (self.ty(l), self.ty(r)) {
            (Int, Int) => {
                let o = match op {
                    CmpOp::Lt => ScalarKind::IntLt,
                    CmpOp::Le => ScalarKind::IntLe,
                    CmpOp::Gt => ScalarKind::IntGt,
                    CmpOp::Ge => ScalarKind::IntGe,
                    CmpOp::Eq => ScalarKind::IntEq,
                    CmpOp::Ne => ScalarKind::IntNe,
                };
                self.one(block, o, &[l, r], Bool)
            }
            (Float, Float) | (Float, Int) | (Int, Float) => {
                let lf = self.coerce_float(block, l)?;
                let rf = self.coerce_float(block, r)?;
                match op {
                    CmpOp::Lt => self.one(block, ScalarKind::FloatLt, &[lf, rf], Bool),
                    CmpOp::Gt => self.one(block, ScalarKind::FloatGt, &[lf, rf], Bool),
                    CmpOp::Le => {
                        let gt = self.one(block, ScalarKind::FloatGt, &[lf, rf], Bool);
                        self.one(block, ScalarKind::BoolNot, &[gt], Bool)
                    }
                    CmpOp::Ge => {
                        let lt = self.one(block, ScalarKind::FloatLt, &[lf, rf], Bool);
                        self.one(block, ScalarKind::BoolNot, &[lt], Bool)
                    }
                    CmpOp::Eq | CmpOp::Ne => return self.err("float equality is not supported"),
                }
            }
            (Tensor, Tensor) => self.tensor_compare(op, l, r, block),
            (Tensor, Float) | (Tensor, Int) => {
                let s = self.coerce_float(block, r)?;
                let full = self.one(block, Op::FullLike, &[l, s], Tensor);
                self.tensor_compare(op, l, full, block)
            }
            (Float, Tensor) | (Int, Tensor) => {
                let s = self.coerce_float(block, l)?;
                let full = self.one(block, Op::FullLike, &[r, s], Tensor);
                self.tensor_compare(op, full, r, block)
            }
            (a, b) => return self.err(format!("cannot compare {a} and {b}")),
        })
    }

    fn tensor_compare(&mut self, op: CmpOp, l: ValueId, r: ValueId, block: BlockId) -> ValueId {
        let o = match op {
            CmpOp::Lt => BinaryKind::Lt,
            CmpOp::Le => BinaryKind::Le,
            CmpOp::Gt => BinaryKind::Gt,
            CmpOp::Ge => BinaryKind::Ge,
            CmpOp::Eq | CmpOp::Ne => BinaryKind::Eq,
        };
        let v = self.one(block, o, &[l, r], Type::Tensor);
        if op == CmpOp::Ne {
            self.one(block, UnaryKind::LogicalNot, &[v], Type::Tensor)
        } else {
            v
        }
    }

    // ------------------------------------------------- builtin arguments

    /// Checks that `a` holds exactly `n` arguments, a receiver included.
    fn takes(&self, a: &Args, n: usize) -> Result<(), FrontendError> {
        if a.count() == n {
            return Ok(());
        }
        let n = n.saturating_sub(usize::from(a.recv.is_some()));
        let s = if n == 1 { "" } else { "s" };
        let got = a.rest.len();
        self.err(format!("`{}` takes {n} argument{s}, got {got}", a.name))
    }

    fn arg_src<'e>(&self, a: &Args<'e>, i: usize) -> Result<&'e Expr, FrontendError> {
        match a.src(i) {
            Some(e) => Ok(e),
            None => self.err(format!("`{}` has no argument {i}", a.name)),
        }
    }

    /// Argument `i` as any value.
    fn arg(&mut self, a: &Args, i: usize, env: &mut Env) -> Result<ValueId, FrontendError> {
        match (a.recv, i) {
            (Some(r), 0) => Ok(r),
            _ => {
                let e = self.arg_src(a, i)?;
                self.expr(e, a.block, env)
            }
        }
    }

    fn arg_tensor(&mut self, a: &Args, i: usize, env: &mut Env) -> Result<ValueId, FrontendError> {
        let v = self.arg(a, i, env)?;
        if self.ty(v) != Type::Tensor {
            return self.err(format!("`{}` argument {i} must be a tensor", a.name));
        }
        Ok(v)
    }

    fn arg_float(&mut self, a: &Args, i: usize, env: &mut Env) -> Result<ValueId, FrontendError> {
        let v = self.arg(a, i, env)?;
        self.coerce_float(a.block, v)
    }

    fn arg_int(&self, a: &Args, i: usize) -> Result<i64, FrontendError> {
        match literal_int(self.arg_src(a, i)?) {
            Some(v) => Ok(v),
            None => self.err(format!("`{}` argument {i} must be a literal int", a.name)),
        }
    }

    fn arg_ints(&self, a: &Args, i: usize) -> Result<Vec<i64>, FrontendError> {
        match literal_int_list(self.arg_src(a, i)?) {
            Some(v) => Ok(v),
            None => self.err(format!(
                "`{}` argument {i} must be a literal int list",
                a.name
            )),
        }
    }

    // ------------------------------------------------------------ builtins

    fn call(&mut self, a: &Args, env: &mut Env) -> Result<ValueId, FrontendError> {
        let block = a.block;
        if let Some((op, n)) = tensor_builtin(a.name) {
            self.takes(a, n)?;
            let mut inputs = Vec::with_capacity(n);
            for i in 0..n {
                inputs.push(self.arg_tensor(a, i, env)?);
            }
            return Ok(self.one(block, op, &inputs, Type::Tensor));
        }
        Ok(match a.name {
            "zeros" | "ones" => {
                self.takes(a, 1)?;
                let shape = self.arg_ints(a, 0)?;
                let op = if a.name == "zeros" {
                    Op::Zeros { shape }
                } else {
                    Op::Ones { shape }
                };
                self.one(block, op, &[], Type::Tensor)
            }
            "full" => {
                self.takes(a, 2)?;
                let shape = self.arg_ints(a, 0)?;
                let f = self.arg_float(a, 1, env)?;
                self.one(block, Op::Full { shape }, &[f], Type::Tensor)
            }
            "arange" => {
                self.takes(a, 1)?;
                let n = self.arg(a, 0, env)?;
                self.one(block, Op::Arange, &[n], Type::Tensor)
            }
            "full_like" | "pow" => {
                self.takes(a, 2)?;
                let t = self.arg_tensor(a, 0, env)?;
                let f = self.arg_float(a, 1, env)?;
                let op = if a.name == "pow" {
                    Op::Unary(UnaryKind::PowScalar)
                } else {
                    Op::FullLike
                };
                self.one(block, op, &[t, f], Type::Tensor)
            }
            "cat" | "stack" => {
                self.takes(a, 2)?;
                let Expr::List(items) = self.arg_src(a, 0)? else {
                    return self.err(format!("`{}` argument 0 must be a list", a.name));
                };
                let dim = self.arg_int(a, 1)?;
                let mut vals = Vec::with_capacity(items.len());
                for item in items {
                    vals.push(self.expr(item, block, env)?);
                }
                let op = if a.name == "cat" {
                    Op::Concat { dim }
                } else {
                    Op::Stack { dim }
                };
                self.one(block, op, &vals, Type::Tensor)
            }
            "gather" | "index_select" => {
                self.takes(a, 3)?;
                let t = self.arg_tensor(a, 0, env)?;
                let dim = self.arg_int(a, 1)?;
                let idx = self.arg_tensor(a, 2, env)?;
                let op = if a.name == "gather" {
                    Op::Gather { dim }
                } else {
                    Op::IndexSelect { dim }
                };
                self.one(block, op, &[t, idx], Type::Tensor)
            }
            "float" => {
                self.takes(a, 1)?;
                self.arg_float(a, 0, env)?
            }
            other => return self.err(format!("unknown function `{other}`")),
        })
    }

    fn method(
        &mut self,
        recv: &Expr,
        name: &str,
        args: &[Expr],
        block: BlockId,
        env: &mut Env,
    ) -> Result<ValueId, FrontendError> {
        let r = self.expr(recv, block, env)?;
        if self.ty(r) != Type::Tensor {
            return self.err(format!("method `{name}` requires a tensor receiver"));
        }
        let a = Args {
            name,
            recv: Some(r),
            rest: args,
            block,
        };
        // The spellings shared with a call (`x.relu()`, `x.matmul(b)`).
        if activation(name).is_some() || matches!(name, "matmul" | "bmm") {
            return self.call(&a, env);
        }
        let in_place = MutateKind::from_name(name)
            .filter(|k| !matches!(k, MutateKind::AddScalar | MutateKind::MulScalar));
        if let Some(kind) = in_place {
            self.takes(&a, kind.arity())?;
            let mut inputs = Vec::with_capacity(kind.arity());
            for i in 0..kind.arity() {
                inputs.push(self.arg(&a, i, env)?);
            }
            self.mutate(kind, &mut inputs, block)?;
            return Ok(r);
        }
        let (op, ty) = match name {
            "clone" | "contiguous" | "item" | "item_int" | "item_bool" => {
                self.takes(&a, 1)?;
                match name {
                    "clone" => (Op::CloneOp, Type::Tensor),
                    "contiguous" => (Op::Contiguous, Type::Tensor),
                    "item" => (Op::ItemFloat, Type::Float),
                    "item_int" => (Op::ItemInt, Type::Int),
                    _ => (Op::ItemBool, Type::Bool),
                }
            }
            "clamp" => {
                self.takes(&a, 3)?;
                let lo = self.arg_float(&a, 1, env)?;
                let hi = self.arg_float(&a, 2, env)?;
                return Ok(self.one(block, UnaryKind::Clamp, &[r, lo, hi], Type::Tensor));
            }
            "softmax" | "cumsum" | "size" => {
                self.takes(&a, 2)?;
                let dim = self.arg_int(&a, 1)?;
                match name {
                    "softmax" => (Op::Softmax { dim }, Type::Tensor),
                    "cumsum" => (Op::Cumsum { dim }, Type::Tensor),
                    _ => (Op::Size { dim }, Type::Int),
                }
            }
            "sum" | "mean" | "max" | "min" | "argmax" => {
                // `keepdim` is an optional literal second argument.
                self.takes(&a, a.count().clamp(2, 3))?;
                let dim = self.arg_int(&a, 1)?;
                let keepdim = match a.src(2) {
                    None | Some(Expr::Bool(false)) => false,
                    Some(Expr::Bool(true)) => true,
                    Some(_) => return self.err(format!("`{name}` keepdim must be True or False")),
                };
                let op = match name {
                    "sum" => Op::SumDim { dim, keepdim },
                    "mean" => Op::MeanDim { dim, keepdim },
                    "max" => Op::MaxDim { dim, keepdim },
                    "min" => Op::MinDim { dim, keepdim },
                    _ => Op::ArgmaxDim { dim, keepdim },
                };
                (op, Type::Tensor)
            }
            "reshape" => {
                self.takes(&a, 2)?;
                let shape = self.arg_ints(&a, 1)?;
                (Op::Reshape { shape }, Type::Tensor)
            }
            "transpose" | "permute" | "unsqueeze" | "squeeze" | "view" | "expand" => {
                self.takes(&a, if name == "transpose" { 3 } else { 2 })?;
                let int = |i| self.arg_int(&a, i);
                let ints = |i| self.arg_ints(&a, i);
                let view = match name {
                    "transpose" => ViewKind::Transpose {
                        dim0: int(1)?,
                        dim1: int(2)?,
                    },
                    "permute" => ViewKind::Permute { perm: ints(1)? },
                    "unsqueeze" => ViewKind::Unsqueeze { dim: int(1)? },
                    "squeeze" => ViewKind::Squeeze { dim: int(1)? },
                    "view" => ViewKind::ViewShape { shape: ints(1)? },
                    _ => ViewKind::Expand { shape: ints(1)? },
                };
                (Op::View(view), Type::Tensor)
            }
            other => return self.err(format!("unknown method `{other}`")),
        };
        Ok(self.one(block, op, &[r], ty))
    }
}

/// The element functions the DSL spells both as a call (`relu(x)`) and as
/// a method (`x.relu()`), under their IR names.
fn activation(name: &str) -> Option<UnaryKind> {
    use UnaryKind::{Abs, Exp, Log, Neg, Relu, Sigmoid, Sqrt, Tanh};
    UnaryKind::from_name(name)
        .filter(|k| [Sigmoid, Exp, Relu, Tanh, Log, Sqrt, Abs, Neg].contains(k))
}

/// The builtins whose arguments are all tensors, with their count.
fn tensor_builtin(name: &str) -> Option<(Op, usize)> {
    if let Some(kind) = activation(name) {
        return Some((Op::Unary(kind), 1));
    }
    Some(match name {
        "zeros_like" => (Op::ZerosLike, 1),
        "ones_like" => (Op::OnesLike, 1),
        "minimum" => (Op::Binary(BinaryKind::Minimum), 2),
        "maximum" => (Op::Binary(BinaryKind::Maximum), 2),
        "matmul" => (Op::Matmul, 2),
        "bmm" => (Op::Bmm, 2),
        "where" => (Op::WhereSelect, 3),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;

    #[test]
    fn lowers_figure4() {
        let g = compile(
            "def f(b0: Tensor, n: int):
                 b = b0.clone()
                 for i in range(n):
                     b[i] = b[i] + 1.0
                 return b
        ",
        )
        .unwrap();
        let text = g.to_string();
        assert!(text.contains("prim::Loop"), "{text}");
        assert!(text.contains("aten::select"), "{text}");
        assert!(text.contains("aten::copy_"), "{text}");
        assert!(g.verify().is_ok());
    }

    #[test]
    fn nodes_carry_source_spans() {
        let g = compile(
            "def f(b0: Tensor, n: int):
                 b = b0.clone()
                 for i in range(n):
                     b[i] = b[i] + 1.0
                 return b
        ",
        )
        .unwrap();
        assert!(g.span_count() > 0);
        // The mutation was written on line 4 of the source.
        let m = g
            .nodes_recursive(g.top())
            .into_iter()
            .find(|&n| g.node(n).op.is_mutation())
            .unwrap();
        assert_eq!(g.node_span(m).map(|s| s.line), Some(4));
    }

    #[test]
    fn scalar_ssa_through_if() {
        let g = compile(
            "def f(x: Tensor, c: bool):
                 y = x.relu()
                 if c:
                     y = y.sigmoid()
                 else:
                     y = y.tanh()
                 return y
        ",
        )
        .unwrap();
        let text = g.to_string();
        assert!(text.contains("prim::If"), "{text}");
        // Both branches return their version of y.
        let iff = g
            .nodes_recursive(g.top())
            .into_iter()
            .find(|&n| g.node(n).op == Op::If)
            .unwrap();
        assert_eq!(g.node(iff).outputs.len(), 1);
    }

    #[test]
    fn scalar_ssa_through_loop() {
        let g = compile(
            "def f(h: Tensor, n: int):
                 acc = 0
                 for i in range(n):
                     h = h.tanh()
                     acc = acc + i
                 return h
        ",
        )
        .unwrap();
        let lp = g
            .nodes_recursive(g.top())
            .into_iter()
            .find(|&n| g.node(n).op == Op::Loop)
            .unwrap();
        // Two carried values: h (tensor) and acc (int).
        assert_eq!(g.node(lp).outputs.len(), 2);
    }

    #[test]
    fn tensor_augassign_does_not_rebind() {
        let g = compile(
            "def f(x: Tensor, n: int):
                 b = x.clone()
                 for i in range(n):
                     b += 1.0
                 return b
        ",
        )
        .unwrap();
        let lp = g
            .nodes_recursive(g.top())
            .into_iter()
            .find(|&n| g.node(n).op == Op::Loop)
            .unwrap();
        // In-place add mutates storage: nothing is carried.
        assert_eq!(g.node(lp).outputs.len(), 0);
        assert!(g.to_string().contains("aten::add_scalar_"));
    }

    #[test]
    fn multidim_subscript_mix() {
        let g = compile(
            "def f(a: Tensor):
                 v = a[:, 0]
                 w = a[1:3, :]
                 a[0, 1:2] = v[0:1]
                 return w
        ",
        )
        .unwrap();
        let text = g.to_string();
        assert!(text.contains("aten::select[dim=1]"), "{text}");
        assert!(text.contains("aten::slice[dim=0]"), "{text}");
    }

    #[test]
    fn comparisons_and_where() {
        let g = compile(
            "def f(x: Tensor):
                 mask = x > 0.5
                 y = where(mask, x, zeros_like(x))
                 return y
        ",
        )
        .unwrap();
        let text = g.to_string();
        assert!(text.contains("aten::gt"), "{text}");
        assert!(text.contains("aten::where"), "{text}");
        assert!(text.contains("aten::full_like"), "{text}");
    }

    #[test]
    fn rejects_misplaced_return_and_unknowns() {
        assert!(compile(
            "def f(x: Tensor, c: bool):
                 if c:
                     return x
                 else:
                     return x
                 return x
        "
        )
        .is_err());
        assert!(compile("def f(x: Tensor):\n    y = frobnicate(x)\n    return y\n").is_err());
        assert!(compile("def f(x: Tensor):\n    y = x.frobnicate()\n    return y\n").is_err());
        assert!(compile("def f(x: Tensor):\n    y = x.relu()\n").is_err());
    }

    #[test]
    fn branch_type_mismatch_is_rejected() {
        assert!(compile(
            "def f(x: Tensor, c: bool):
                 y = 1
                 if c:
                     y = x.relu()
                 else:
                     y = 2
                 return y
        "
        )
        .is_err());
    }

    #[test]
    fn while_loop_lowers_to_conditional_loop() {
        let g = compile(
            "def f(x: Tensor, n: int):
                 h = x.clone()
                 k = 0
                 while k < n:
                     h = h.tanh()
                     k += 1
                 return h
        ",
        )
        .unwrap();
        let lp = g
            .nodes_recursive(g.top())
            .into_iter()
            .find(|&n| g.node(n).op == Op::Loop)
            .unwrap();
        // Carries h and k; condition recomputed in the body.
        assert_eq!(g.node(lp).outputs.len(), 2);
        assert!(g.verify().is_ok(), "{:?}\n{g}", g.verify());
        let body = g.node(lp).blocks[0];
        let cond_ret = g.block(body).returns[0];
        assert_eq!(g.value(cond_ret).ty, Type::Bool);
    }

    #[test]
    fn while_condition_must_be_bool() {
        assert!(compile(
            "def f(x: Tensor):
                 while x:
                     x = x.relu()
                 return x
        "
        )
        .is_err());
    }

    #[test]
    fn scalar_arith_and_methods() {
        let g = compile(
            "def f(x: Tensor, n: int):
                 m = x.size(0)
                 k = (m + n) * 2 - 1
                 l = k // 2 % 3
                 s = x.sum(0).item()
                 t = s * 2.0 + float(l)
                 y = x * t
                 return y
        ",
        )
        .unwrap();
        let text = g.to_string();
        assert!(text.contains("aten::size"), "{text}");
        assert!(text.contains("aten::item_float"), "{text}");
        assert!(text.contains("aten::int_to_float"), "{text}");
    }
}
