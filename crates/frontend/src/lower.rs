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
/// Returns a [`FrontendError`] on type errors, unknown functions/methods or
/// unsupported constructs (e.g. `return` inside control flow).
pub(crate) fn lower(func: &Function) -> Result<Graph, FrontendError> {
    let mut lw = Lowerer { g: Graph::new() };
    let mut env = Env::new();
    for (name, ty) in &func.params {
        let v = lw.g.add_input(name, ty.clone());
        env.insert(name.clone(), v);
    }
    let top = lw.g.top();
    let mut returned = false;
    for (i, stmt) in func.body.iter().enumerate() {
        if let Stmt::Return { values, line } = stmt {
            if i + 1 != func.body.len() {
                return Err(FrontendError::at(
                    *line,
                    "return must be the last statement",
                ));
            }
            lw.g.set_current_span(Some(SrcSpan::line(*line)));
            let mut rets = Vec::new();
            for v in values {
                rets.push(lw.expr(v, top, &mut env)?);
            }
            lw.g.set_returns(top, &rets);
            returned = true;
        } else {
            lw.stmt(stmt, top, &mut env)?;
        }
    }
    lw.g.set_current_span(None);
    if !returned {
        return Err(FrontendError::at(0, "function must end with a return"));
    }
    Ok(lw.g)
}

struct Lowerer {
    g: Graph,
}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, FrontendError> {
    Err(FrontendError::at(line, message))
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
    fn coerce_float(
        &mut self,
        block: BlockId,
        v: ValueId,
        line: usize,
    ) -> Result<ValueId, FrontendError> {
        match self.ty(v) {
            Type::Float => Ok(v),
            Type::Int => Ok(self.one(block, ScalarKind::IntToFloat, &[v], Type::Float)),
            other => err(line, format!("expected a scalar, found {other}")),
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
        if line > 0 {
            self.g.set_current_span(Some(SrcSpan::line(line)));
        }
        match stmt {
            Stmt::Return { line, .. } => {
                err(*line, "return is only allowed at the end of the function")
            }
            Stmt::Expr { expr, .. } => {
                self.expr(expr, block, env)?;
                Ok(())
            }
            Stmt::Assign {
                target,
                value,
                line,
            } => match target {
                Target::Name(name) => {
                    let v = self.expr(value, block, env)?;
                    env.insert(name.clone(), v);
                    Ok(())
                }
                Target::Subscript { base, subs } => {
                    let base_v = self.expr(base, block, env)?;
                    let view = self.view_chain(base_v, subs, block, env, *line)?;
                    let rhs = self.expr(value, block, env)?;
                    match self.ty(rhs) {
                        Type::Tensor => {
                            self.g.append(
                                block,
                                Op::Mutate(MutateKind::Copy),
                                &[view, rhs],
                                &[Type::Tensor],
                            );
                        }
                        Type::Float | Type::Int => {
                            let f = self.coerce_float(block, rhs, *line)?;
                            self.g.append(
                                block,
                                Op::Mutate(MutateKind::Fill),
                                &[view, f],
                                &[Type::Tensor],
                            );
                        }
                        other => return err(*line, format!("cannot store {other} into a tensor")),
                    }
                    Ok(())
                }
            },
            Stmt::AugAssign {
                target,
                op,
                value,
                line,
            } => {
                match target {
                    Target::Name(name) => {
                        let Some(&cur) = env.get(name) else {
                            return err(*line, format!("undefined variable `{name}`"));
                        };
                        if self.ty(cur) == Type::Tensor {
                            self.mutate_binary(cur, *op, value, block, env, *line)?;
                        } else {
                            // Scalar augmented assignment rebinds.
                            let bin = match op {
                                AugOp::Add => BinOp::Add,
                                AugOp::Sub => BinOp::Sub,
                                AugOp::Mul => BinOp::Mul,
                                AugOp::Div => BinOp::Div,
                            };
                            let rhs = self.expr(value, block, env)?;
                            let v = self.binary(bin, cur, rhs, block, *line)?;
                            env.insert(name.clone(), v);
                        }
                    }
                    Target::Subscript { base, subs } => {
                        let base_v = self.expr(base, block, env)?;
                        let view = self.view_chain(base_v, subs, block, env, *line)?;
                        self.mutate_binary(view, *op, value, block, env, *line)?;
                    }
                }
                Ok(())
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
                line,
            } => self.if_stmt(cond, then_body, else_body, block, env, *line),
            Stmt::For {
                var,
                count,
                body,
                line,
            } => self.for_stmt(var, count, body, block, env, *line),
            Stmt::While { cond, body, line } => self.while_stmt(cond, body, block, env, *line),
        }
    }

    /// In-place `target op= value` on a tensor view.
    fn mutate_binary(
        &mut self,
        view: ValueId,
        op: AugOp,
        value: &Expr,
        block: BlockId,
        env: &mut Env,
        line: usize,
    ) -> Result<(), FrontendError> {
        let rhs = self.expr(value, block, env)?;
        match self.ty(rhs) {
            Type::Tensor => {
                let kind = match op {
                    AugOp::Add => MutateKind::Add,
                    AugOp::Sub => MutateKind::Sub,
                    AugOp::Mul => MutateKind::Mul,
                    AugOp::Div => MutateKind::Div,
                };
                self.g
                    .append(block, Op::Mutate(kind), &[view, rhs], &[Type::Tensor]);
            }
            Type::Float | Type::Int => {
                let f = self.coerce_float(block, rhs, line)?;
                let (kind, operand) = match op {
                    AugOp::Add => (MutateKind::AddScalar, f),
                    AugOp::Sub => {
                        let neg = self.one(block, ScalarKind::FloatNeg, &[f], Type::Float);
                        (MutateKind::AddScalar, neg)
                    }
                    AugOp::Mul => (MutateKind::MulScalar, f),
                    AugOp::Div => {
                        let one = self.c_float(block, 1.0);
                        let inv = self.one(block, ScalarKind::FloatDiv, &[one, f], Type::Float);
                        (MutateKind::MulScalar, inv)
                    }
                };
                self.g
                    .append(block, Op::Mutate(kind), &[view, operand], &[Type::Tensor]);
            }
            other => return err(line, format!("cannot combine tensor with {other} in place")),
        }
        Ok(())
    }

    fn if_stmt(
        &mut self,
        cond: &Expr,
        then_body: &[Stmt],
        else_body: &[Stmt],
        block: BlockId,
        env: &mut Env,
        line: usize,
    ) -> Result<(), FrontendError> {
        let cond_v = self.expr(cond, block, env)?;
        if self.ty(cond_v) != Type::Bool {
            return err(
                line,
                "if condition must be a host bool (use `.item()` on tensors)",
            );
        }
        let if_node = self.g.append(block, Op::If, &[cond_v], &[]);
        let then_b = self.g.add_node_block(if_node);
        let else_b = self.g.add_node_block(if_node);

        let mut env_then = env.clone();
        for s in then_body {
            self.stmt(s, then_b, &mut env_then)?;
        }
        let mut env_else = env.clone();
        for s in else_body {
            self.stmt(s, else_b, &mut env_else)?;
        }

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
                    return err(
                        line,
                        format!("`{name}` has different types in the two branches"),
                    );
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

    fn for_stmt(
        &mut self,
        var: &str,
        count: &Expr,
        body: &[Stmt],
        block: BlockId,
        env: &mut Env,
        line: usize,
    ) -> Result<(), FrontendError> {
        let n = self.expr(count, block, env)?;
        if self.ty(n) != Type::Int {
            return err(line, "range() needs an int");
        }
        let t = self.c_bool(block, true);
        let mut carried: Vec<String> = Vec::new();
        rebound_names(body, env, &self.g, &mut carried);
        let inits: Vec<ValueId> = carried.iter().map(|n| env[n]).collect();
        let out_types: Vec<Type> = inits.iter().map(|&v| self.ty(v)).collect();

        let mut loop_inputs = vec![n, t];
        loop_inputs.extend_from_slice(&inits);
        let loop_node = self.g.append(block, Op::Loop, &loop_inputs, &out_types);
        let body_b = self.g.add_node_block(loop_node);
        let i_p = self.g.add_block_param(body_b, Type::Int);
        let mut env_body = env.clone();
        env_body.insert(var.to_string(), i_p);
        for (k, name) in carried.iter().enumerate() {
            let p = self.g.add_block_param(body_b, out_types[k].clone());
            env_body.insert(name.clone(), p);
        }
        for s in body {
            self.stmt(s, body_b, &mut env_body)?;
        }
        let cond = self.c_bool(body_b, true);
        let mut rets = vec![cond];
        for name in &carried {
            rets.push(env_body[name]);
        }
        self.g.set_returns(body_b, &rets);
        for (k, name) in carried.iter().enumerate() {
            let out = self.g.node(loop_node).outputs[k];
            env.insert(name.clone(), out);
        }
        Ok(())
    }

    /// `while cond:` lowers to a `prim::Loop` with trip count `i64::MAX`:
    /// the condition is evaluated once before entry (the loop's initial
    /// condition) and re-evaluated at the end of every iteration (the body's
    /// condition return), following TorchScript's convention.
    fn while_stmt(
        &mut self,
        cond: &Expr,
        body: &[Stmt],
        block: BlockId,
        env: &mut Env,
        line: usize,
    ) -> Result<(), FrontendError> {
        let init_cond = self.expr(cond, block, env)?;
        if self.ty(init_cond) != Type::Bool {
            return err(line, "while condition must be a host bool");
        }
        let trip = self.c_int(block, i64::MAX);
        let mut carried: Vec<String> = Vec::new();
        rebound_names(body, env, &self.g, &mut carried);
        let inits: Vec<ValueId> = carried.iter().map(|n| env[n]).collect();
        let out_types: Vec<Type> = inits.iter().map(|&v| self.ty(v)).collect();

        let mut loop_inputs = vec![trip, init_cond];
        loop_inputs.extend_from_slice(&inits);
        let loop_node = self.g.append(block, Op::Loop, &loop_inputs, &out_types);
        let body_b = self.g.add_node_block(loop_node);
        let _i = self.g.add_block_param(body_b, Type::Int);
        let mut env_body = env.clone();
        for (k, name) in carried.iter().enumerate() {
            let p = self.g.add_block_param(body_b, out_types[k].clone());
            env_body.insert(name.clone(), p);
        }
        for s in body {
            self.stmt(s, body_b, &mut env_body)?;
        }
        let next_cond = self.expr(cond, body_b, &mut env_body)?;
        if self.ty(next_cond) != Type::Bool {
            return err(line, "while condition must be a host bool");
        }
        let mut rets = vec![next_cond];
        for name in &carried {
            rets.push(env_body[name]);
        }
        self.g.set_returns(body_b, &rets);
        for (k, name) in carried.iter().enumerate() {
            let out = self.g.node(loop_node).outputs[k];
            env.insert(name.clone(), out);
        }
        Ok(())
    }

    // ---------------------------------------------------------- expressions

    fn expr(&mut self, e: &Expr, block: BlockId, env: &mut Env) -> Result<ValueId, FrontendError> {
        match e {
            Expr::Name(n) => env
                .get(n)
                .copied()
                .ok_or_else(|| FrontendError::at(0, format!("undefined variable `{n}`"))),
            Expr::Int(v) => Ok(self.c_int(block, *v)),
            Expr::Float(v) => Ok(self.c_float(block, *v)),
            Expr::Bool(v) => Ok(self.c_bool(block, *v)),
            Expr::Neg(inner) => {
                let v = self.expr(inner, block, env)?;
                Ok(match self.ty(v) {
                    Type::Int => self.one(block, ScalarKind::IntNeg, &[v], Type::Int),
                    Type::Float => self.one(block, ScalarKind::FloatNeg, &[v], Type::Float),
                    Type::Tensor => self.one(block, UnaryKind::Neg, &[v], Type::Tensor),
                    other => return err(0, format!("cannot negate {other}")),
                })
            }
            Expr::Not(inner) => {
                let v = self.expr(inner, block, env)?;
                Ok(match self.ty(v) {
                    Type::Bool => self.one(block, ScalarKind::BoolNot, &[v], Type::Bool),
                    Type::Tensor => self.one(block, UnaryKind::LogicalNot, &[v], Type::Tensor),
                    other => return err(0, format!("cannot apply `not` to {other}")),
                })
            }
            Expr::Binary { op, lhs, rhs } => {
                let l = self.expr(lhs, block, env)?;
                let r = self.expr(rhs, block, env)?;
                self.binary(*op, l, r, block, 0)
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
                    (a, b) => err(0, format!("cannot combine {a} and {b} with and/or")),
                }
            }
            Expr::Subscript { base, subs } => {
                let b = self.expr(base, block, env)?;
                self.view_chain(b, subs, block, env, 0)
            }
            Expr::Call { func, args } => self.call(func, args, block, env),
            Expr::MethodCall { recv, name, args } => self.method(recv, name, args, block, env),
            Expr::List(_) => err(0, "list literal is only valid as an operator argument"),
        }
    }

    fn view_chain(
        &mut self,
        base: ValueId,
        subs: &[Sub],
        block: BlockId,
        env: &mut Env,
        line: usize,
    ) -> Result<ValueId, FrontendError> {
        if self.ty(base) != Type::Tensor {
            return err(line, "only tensors can be subscripted");
        }
        let mut cur = base;
        let mut dim = 0i64;
        for sub in subs {
            match sub {
                Sub::Index(e) => {
                    let idx = self.expr(e, block, env)?;
                    if self.ty(idx) != Type::Int {
                        return err(line, "tensor indices must be ints");
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
        line: usize,
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
                        let lf = self.coerce_float(block, l, line)?;
                        let rf = self.coerce_float(block, r, line)?;
                        return Ok(self.one(block, ScalarKind::FloatDiv, &[lf, rf], Float));
                    }
                };
                self.one(block, o, &[l, r], Int)
            }
            (Float, Float) | (Float, Int) | (Int, Float) => {
                let lf = self.coerce_float(block, l, line)?;
                let rf = self.coerce_float(block, r, line)?;
                let o = match op {
                    BinOp::Add => ScalarKind::FloatAdd,
                    BinOp::Sub => ScalarKind::FloatSub,
                    BinOp::Mul => ScalarKind::FloatMul,
                    BinOp::Div | BinOp::FloorDiv => ScalarKind::FloatDiv,
                    BinOp::Mod => return err(line, "float modulo is not supported"),
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
                        return err(line, "floor-div/mod are not defined on tensors")
                    }
                };
                self.one(block, o, &[l, r], Tensor)
            }
            (Tensor, Float) | (Tensor, Int) => {
                let s = self.coerce_float(block, r, line)?;
                let o = match op {
                    BinOp::Add => UnaryKind::AddScalar,
                    BinOp::Sub => UnaryKind::SubScalar,
                    BinOp::Mul => UnaryKind::MulScalar,
                    BinOp::Div => UnaryKind::DivScalar,
                    BinOp::FloorDiv | BinOp::Mod => {
                        return err(line, "floor-div/mod are not defined on tensors")
                    }
                };
                self.one(block, o, &[l, s], Tensor)
            }
            (Float, Tensor) | (Int, Tensor) => {
                let s = self.coerce_float(block, l, line)?;
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
                        return err(line, "floor-div/mod are not defined on tensors")
                    }
                }
            }
            (a, b) => return err(line, format!("cannot apply arithmetic to {a} and {b}")),
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
                let lf = self.coerce_float(block, l, 0)?;
                let rf = self.coerce_float(block, r, 0)?;
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
                    CmpOp::Eq | CmpOp::Ne => return err(0, "float equality is not supported"),
                }
            }
            (Tensor, Tensor) => self.tensor_compare(op, l, r, block),
            (Tensor, Float) | (Tensor, Int) => {
                let s = self.coerce_float(block, r, 0)?;
                let full = self.one(block, Op::FullLike, &[l, s], Tensor);
                self.tensor_compare(op, l, full, block)
            }
            (Float, Tensor) | (Int, Tensor) => {
                let s = self.coerce_float(block, l, 0)?;
                let full = self.one(block, Op::FullLike, &[r, s], Tensor);
                self.tensor_compare(op, full, r, block)
            }
            (a, b) => return err(0, format!("cannot compare {a} and {b}")),
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

    fn call(
        &mut self,
        func: &str,
        args: &[Expr],
        block: BlockId,
        env: &mut Env,
    ) -> Result<ValueId, FrontendError> {
        let tensor_arg =
            |lw: &mut Self, env: &mut Env, i: usize| -> Result<ValueId, FrontendError> {
                let v = lw.expr(&args[i], block, env)?;
                if lw.ty(v) != Type::Tensor {
                    return err(0, format!("`{func}` argument {i} must be a tensor"));
                }
                Ok(v)
            };
        if let Some(kind) = activation(func) {
            let t = tensor_arg(self, env, 0)?;
            return Ok(self.one(block, Op::Unary(kind), &[t], Type::Tensor));
        }
        match func {
            "zeros" | "ones" => {
                let shape = literal_int_list(&args[0])
                    .ok_or_else(|| FrontendError::at(0, "zeros/ones need a literal shape list"))?;
                let op = if func == "zeros" {
                    Op::Zeros { shape }
                } else {
                    Op::Ones { shape }
                };
                Ok(self.one(block, op, &[], Type::Tensor))
            }
            "full" => {
                let shape = literal_int_list(&args[0])
                    .ok_or_else(|| FrontendError::at(0, "full needs a literal shape list"))?;
                let v = self.expr(&args[1], block, env)?;
                let f = self.coerce_float(block, v, 0)?;
                Ok(self.one(block, Op::Full { shape }, &[f], Type::Tensor))
            }
            "arange" => {
                let n = self.expr(&args[0], block, env)?;
                Ok(self.one(block, Op::Arange, &[n], Type::Tensor))
            }
            "zeros_like" | "ones_like" => {
                let t = tensor_arg(self, env, 0)?;
                let op = if func == "zeros_like" {
                    Op::ZerosLike
                } else {
                    Op::OnesLike
                };
                Ok(self.one(block, op, &[t], Type::Tensor))
            }
            "full_like" => {
                let t = tensor_arg(self, env, 0)?;
                let v = self.expr(&args[1], block, env)?;
                let f = self.coerce_float(block, v, 0)?;
                Ok(self.one(block, Op::FullLike, &[t, f], Type::Tensor))
            }
            "cat" | "stack" => {
                let Expr::List(items) = &args[0] else {
                    return err(0, "cat/stack need a list of tensors");
                };
                let dim = literal_int(&args[1])
                    .ok_or_else(|| FrontendError::at(0, "cat/stack need a literal dim"))?;
                let mut vals = Vec::new();
                for item in items {
                    let v = self.expr(item, block, env)?;
                    vals.push(v);
                }
                let op = if func == "cat" {
                    Op::Concat { dim }
                } else {
                    Op::Stack { dim }
                };
                Ok(self.one(block, op, &vals, Type::Tensor))
            }
            "where" => {
                let c = tensor_arg(self, env, 0)?;
                let a = tensor_arg(self, env, 1)?;
                let b = tensor_arg(self, env, 2)?;
                Ok(self.one(block, Op::WhereSelect, &[c, a, b], Type::Tensor))
            }
            "minimum" | "maximum" => {
                let a = tensor_arg(self, env, 0)?;
                let b = tensor_arg(self, env, 1)?;
                let op = if func == "minimum" {
                    BinaryKind::Minimum
                } else {
                    BinaryKind::Maximum
                };
                Ok(self.one(block, op, &[a, b], Type::Tensor))
            }
            "pow" => {
                let t = tensor_arg(self, env, 0)?;
                let v = self.expr(&args[1], block, env)?;
                let f = self.coerce_float(block, v, 0)?;
                Ok(self.one(block, UnaryKind::PowScalar, &[t, f], Type::Tensor))
            }
            "matmul" => {
                let a = tensor_arg(self, env, 0)?;
                let b = tensor_arg(self, env, 1)?;
                Ok(self.one(block, Op::Matmul, &[a, b], Type::Tensor))
            }
            "bmm" => {
                let a = tensor_arg(self, env, 0)?;
                let b = tensor_arg(self, env, 1)?;
                Ok(self.one(block, Op::Bmm, &[a, b], Type::Tensor))
            }
            "gather" => {
                let t = tensor_arg(self, env, 0)?;
                let dim = literal_int(&args[1])
                    .ok_or_else(|| FrontendError::at(0, "gather needs a literal dim"))?;
                let idx = tensor_arg(self, env, 2)?;
                Ok(self.one(block, Op::Gather { dim }, &[t, idx], Type::Tensor))
            }
            "index_select" => {
                let t = tensor_arg(self, env, 0)?;
                let dim = literal_int(&args[1])
                    .ok_or_else(|| FrontendError::at(0, "index_select needs a literal dim"))?;
                let idx = tensor_arg(self, env, 2)?;
                Ok(self.one(block, Op::IndexSelect { dim }, &[t, idx], Type::Tensor))
            }
            "float" => {
                let v = self.expr(&args[0], block, env)?;
                self.coerce_float(block, v, 0)
            }
            other => err(0, format!("unknown function `{other}`")),
        }
    }

    #[allow(clippy::too_many_lines)]
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
            return err(0, format!("method `{name}` requires a tensor receiver"));
        }
        let lit = |e: &Expr, what: &str| -> Result<i64, FrontendError> {
            literal_int(e)
                .ok_or_else(|| FrontendError::at(0, format!("`{name}` needs a literal {what}")))
        };
        let keepdim = |args: &[Expr]| -> bool { matches!(args.get(1), Some(Expr::Bool(true))) };
        if let Some(kind) = activation(name) {
            return Ok(self.one(block, Op::Unary(kind), &[r], Type::Tensor));
        }
        Ok(match name {
            "clone" => self.one(block, Op::CloneOp, &[r], Type::Tensor),
            "contiguous" => self.one(block, Op::Contiguous, &[r], Type::Tensor),
            "clamp" => {
                let lo = self.expr(&args[0], block, env)?;
                let hi = self.expr(&args[1], block, env)?;
                let lo = self.coerce_float(block, lo, 0)?;
                let hi = self.coerce_float(block, hi, 0)?;
                self.one(block, UnaryKind::Clamp, &[r, lo, hi], Type::Tensor)
            }
            "softmax" => {
                let dim = lit(&args[0], "dim")?;
                self.one(block, Op::Softmax { dim }, &[r], Type::Tensor)
            }
            "cumsum" => {
                let dim = lit(&args[0], "dim")?;
                self.one(block, Op::Cumsum { dim }, &[r], Type::Tensor)
            }
            "sum" | "mean" | "max" | "min" | "argmax" => {
                let dim = lit(&args[0], "dim")?;
                let kd = keepdim(args);
                let op = match name {
                    "sum" => Op::SumDim { dim, keepdim: kd },
                    "mean" => Op::MeanDim { dim, keepdim: kd },
                    "max" => Op::MaxDim { dim, keepdim: kd },
                    "min" => Op::MinDim { dim, keepdim: kd },
                    _ => Op::ArgmaxDim { dim, keepdim: kd },
                };
                self.one(block, op, &[r], Type::Tensor)
            }
            "matmul" => {
                let b = self.expr(&args[0], block, env)?;
                self.one(block, Op::Matmul, &[r, b], Type::Tensor)
            }
            "bmm" => {
                let b = self.expr(&args[0], block, env)?;
                self.one(block, Op::Bmm, &[r, b], Type::Tensor)
            }
            "size" => {
                let dim = lit(&args[0], "dim")?;
                self.one(block, Op::Size { dim }, &[r], Type::Int)
            }
            "item" => self.one(block, Op::ItemFloat, &[r], Type::Float),
            "item_int" => self.one(block, Op::ItemInt, &[r], Type::Int),
            "item_bool" => self.one(block, Op::ItemBool, &[r], Type::Bool),
            "transpose" => {
                let d0 = lit(&args[0], "dim")?;
                let d1 = lit(&args[1], "dim")?;
                self.one(
                    block,
                    Op::View(ViewKind::Transpose { dim0: d0, dim1: d1 }),
                    &[r],
                    Type::Tensor,
                )
            }
            "permute" => {
                let perm = literal_int_list(&args[0])
                    .ok_or_else(|| FrontendError::at(0, "permute needs a literal list"))?;
                self.one(
                    block,
                    Op::View(ViewKind::Permute { perm }),
                    &[r],
                    Type::Tensor,
                )
            }
            "unsqueeze" => {
                let dim = lit(&args[0], "dim")?;
                self.one(
                    block,
                    Op::View(ViewKind::Unsqueeze { dim }),
                    &[r],
                    Type::Tensor,
                )
            }
            "squeeze" => {
                let dim = lit(&args[0], "dim")?;
                self.one(
                    block,
                    Op::View(ViewKind::Squeeze { dim }),
                    &[r],
                    Type::Tensor,
                )
            }
            "view" => {
                let shape = literal_int_list(&args[0])
                    .ok_or_else(|| FrontendError::at(0, "view needs a literal shape"))?;
                self.one(
                    block,
                    Op::View(ViewKind::ViewShape { shape }),
                    &[r],
                    Type::Tensor,
                )
            }
            "expand" => {
                let shape = literal_int_list(&args[0])
                    .ok_or_else(|| FrontendError::at(0, "expand needs a literal shape"))?;
                self.one(
                    block,
                    Op::View(ViewKind::Expand { shape }),
                    &[r],
                    Type::Tensor,
                )
            }
            "reshape" => {
                let shape = literal_int_list(&args[0])
                    .ok_or_else(|| FrontendError::at(0, "reshape needs a literal shape"))?;
                self.one(block, Op::Reshape { shape }, &[r], Type::Tensor)
            }
            // ------------------------------------------------ in-place ops
            "copy_" => {
                let s = self.expr(&args[0], block, env)?;
                self.g.append(
                    block,
                    Op::Mutate(MutateKind::Copy),
                    &[r, s],
                    &[Type::Tensor],
                );
                r
            }
            "fill_" => {
                let v = self.expr(&args[0], block, env)?;
                let f = self.coerce_float(block, v, 0)?;
                self.g.append(
                    block,
                    Op::Mutate(MutateKind::Fill),
                    &[r, f],
                    &[Type::Tensor],
                );
                r
            }
            "add_" | "sub_" | "mul_" | "div_" => {
                let s = self.expr(&args[0], block, env)?;
                if self.ty(s) == Type::Tensor {
                    let kind = match name {
                        "add_" => MutateKind::Add,
                        "sub_" => MutateKind::Sub,
                        "mul_" => MutateKind::Mul,
                        _ => MutateKind::Div,
                    };
                    self.g
                        .append(block, Op::Mutate(kind), &[r, s], &[Type::Tensor]);
                } else {
                    let aug = match name {
                        "add_" => AugOp::Add,
                        "sub_" => AugOp::Sub,
                        "mul_" => AugOp::Mul,
                        _ => AugOp::Div,
                    };
                    self.mutate_binary(r, aug, &args[0], block, env, 0)?;
                }
                r
            }
            "relu_" | "sigmoid_" | "tanh_" | "exp_" | "neg_" => {
                let kind = match name {
                    "relu_" => MutateKind::Relu,
                    "sigmoid_" => MutateKind::Sigmoid,
                    "tanh_" => MutateKind::Tanh,
                    "exp_" => MutateKind::Exp,
                    _ => MutateKind::Neg,
                };
                self.g
                    .append(block, Op::Mutate(kind), &[r], &[Type::Tensor]);
                r
            }
            "clamp_" => {
                let lo = self.expr(&args[0], block, env)?;
                let hi = self.expr(&args[1], block, env)?;
                let lo = self.coerce_float(block, lo, 0)?;
                let hi = self.coerce_float(block, hi, 0)?;
                self.g.append(
                    block,
                    Op::Mutate(MutateKind::Clamp),
                    &[r, lo, hi],
                    &[Type::Tensor],
                );
                r
            }
            other => return err(0, format!("unknown method `{other}`")),
        })
    }
}

/// The element functions the DSL spells both as a call (`relu(x)`) and as
/// a method (`x.relu()`), under their IR names.
fn activation(name: &str) -> Option<UnaryKind> {
    use UnaryKind::{Abs, Exp, Log, Neg, Relu, Sigmoid, Sqrt, Tanh};
    UnaryKind::from_name(name)
        .filter(|k| [Sigmoid, Exp, Relu, Tanh, Log, Sqrt, Abs, Neg].contains(k))
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
