//! Structural and scoping verification of graphs.

use std::error::Error;
use std::fmt;

use crate::graph::{BlockId, Graph, NodeId, ValueId};
use crate::ops::Op;
use crate::types::Type;

/// The class of invariant a [`VerifyError`] reports, so tooling (the lint
/// crate, the pass sanitizer) can pattern-match on failures instead of
/// parsing the rendered message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum VerifyErrorKind {
    /// An operand or return references a value id the graph never created.
    DanglingValue,
    /// An operand is defined after (or lexically outside) its use.
    OperandOutOfScope,
    /// `prim::Constant` with inputs or the wrong output count.
    BadConstant,
    /// `prim::If` arity/typing/block-shape violation.
    BadIf,
    /// `prim::Loop` deviates from the TorchScript convention.
    BadLoop,
    /// Mutation arity, receiver type, or output count violation.
    BadMutation,
    /// `immut::access` / view arity mismatch.
    BadView,
    /// `immut::assign` arity mismatch.
    BadAssign,
    /// `tssa::update` is not 2-in 0-out.
    BadUpdate,
    /// `prim::FusionGroup` block shape violation.
    BadFusionGroup,
    /// `prim::ParallelMap` block/trip-count violation.
    BadParallelMap,
    /// A block return references a value defined in a non-enclosing block.
    ReturnOutOfScope,
}

/// Error produced by [`Graph::verify`].
///
/// Structured: `kind` names the violated invariant and `node`/`value`/
/// `block` locate it, so passes and lints can match on failures; `message`
/// keeps the human-readable rendering.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyError {
    /// The violated invariant.
    pub kind: VerifyErrorKind,
    /// Offending node, when the violation is attached to one.
    pub node: Option<NodeId>,
    /// Offending value (out-of-scope operand, dangling return, …).
    pub value: Option<ValueId>,
    /// Offending block, for return-scoping violations.
    pub block: Option<BlockId>,
    /// Human-readable description including the offending node.
    pub message: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ir verification failed: {}", self.message)
    }
}

impl Error for VerifyError {}

impl Graph {
    fn err(&self, node: NodeId, kind: VerifyErrorKind, what: &str) -> VerifyError {
        VerifyError {
            kind,
            node: Some(node),
            value: None,
            block: None,
            message: format!(
                "node {} ({}): {what}",
                node.index(),
                self.node(node).op.name()
            ),
        }
    }

    fn check_value_in_scope(&self, v: ValueId, user: NodeId) -> Result<(), VerifyError> {
        if v.index() >= self.value_count() {
            let mut e = self.err(user, VerifyErrorKind::DanglingValue, "dangling value id");
            e.value = Some(v);
            return Err(e);
        }
        if !self.value_available_at(v, user) {
            let mut e = self.err(
                user,
                VerifyErrorKind::OperandOutOfScope,
                &format!("operand {} not in scope", self.value_name(v)),
            );
            e.value = Some(v);
            return Err(e);
        }
        Ok(())
    }

    /// Verify structural invariants:
    ///
    /// * every operand is defined before (and in scope at) its use;
    /// * `prim::If` has one bool input, two blocks, and block returns match
    ///   the node outputs in arity;
    /// * `prim::Loop` follows the TorchScript convention
    ///   (`inputs = (n, cond, carried…)`, `params = (i, carried…)`,
    ///   `returns = (cond, carried…)`, `outputs = carried…`);
    /// * mutation nodes have the documented arity and tensor receiver;
    /// * block returns reference in-scope values.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn verify(&self) -> Result<(), VerifyError> {
        for n in self.nodes_recursive(self.top()) {
            let node = self.node(n);
            for &inp in &node.inputs {
                self.check_value_in_scope(inp, n)?;
            }
            match &node.op {
                Op::Constant(_) if (!node.inputs.is_empty() || node.outputs.len() != 1) => {
                    return Err(self.err(
                        n,
                        VerifyErrorKind::BadConstant,
                        "constant must be 0-in 1-out",
                    ));
                }
                Op::If => {
                    if node.inputs.len() != 1 {
                        return Err(self.err(
                            n,
                            VerifyErrorKind::BadIf,
                            "if takes exactly one condition",
                        ));
                    }
                    if self.value(node.inputs[0]).ty != Type::Bool {
                        return Err(self.err(
                            n,
                            VerifyErrorKind::BadIf,
                            "if condition must be bool",
                        ));
                    }
                    if node.blocks.len() != 2 {
                        return Err(self.err(n, VerifyErrorKind::BadIf, "if must have two blocks"));
                    }
                    for &b in &node.blocks {
                        if !self.block(b).params.is_empty() {
                            return Err(self.err(
                                n,
                                VerifyErrorKind::BadIf,
                                "if blocks take no params",
                            ));
                        }
                        if self.block(b).returns.len() != node.outputs.len() {
                            return Err(self.err(
                                n,
                                VerifyErrorKind::BadIf,
                                "if block returns must match outputs",
                            ));
                        }
                    }
                }
                Op::Loop => {
                    if node.inputs.len() < 2 {
                        return Err(self.err(
                            n,
                            VerifyErrorKind::BadLoop,
                            "loop needs (trip_count, cond, carried...)",
                        ));
                    }
                    if self.value(node.inputs[0]).ty != Type::Int {
                        return Err(self.err(
                            n,
                            VerifyErrorKind::BadLoop,
                            "loop trip count must be int",
                        ));
                    }
                    if self.value(node.inputs[1]).ty != Type::Bool {
                        return Err(self.err(
                            n,
                            VerifyErrorKind::BadLoop,
                            "loop initial condition must be bool",
                        ));
                    }
                    if node.blocks.len() != 1 {
                        return Err(self.err(
                            n,
                            VerifyErrorKind::BadLoop,
                            "loop must have one body block",
                        ));
                    }
                    let carried = node.inputs.len() - 2;
                    let b = self.block(node.blocks[0]);
                    if b.params.len() != carried + 1 {
                        return Err(self.err(
                            n,
                            VerifyErrorKind::BadLoop,
                            "loop body params must be (iter, carried...)",
                        ));
                    }
                    if b.params
                        .first()
                        .map(|&p| self.value(p).ty != Type::Int)
                        .unwrap_or(true)
                    {
                        return Err(self.err(
                            n,
                            VerifyErrorKind::BadLoop,
                            "loop iteration param must be int",
                        ));
                    }
                    if b.returns.len() != carried + 1 {
                        return Err(self.err(
                            n,
                            VerifyErrorKind::BadLoop,
                            "loop body returns must be (cond, carried...)",
                        ));
                    }
                    if node.outputs.len() != carried {
                        return Err(self.err(
                            n,
                            VerifyErrorKind::BadLoop,
                            "loop outputs must match carried values",
                        ));
                    }
                }
                Op::Mutate(k) => {
                    if node.inputs.len() != k.arity() {
                        return Err(self.err(
                            n,
                            VerifyErrorKind::BadMutation,
                            "mutation arity mismatch",
                        ));
                    }
                    if self.value(node.inputs[0]).ty != Type::Tensor {
                        return Err(self.err(
                            n,
                            VerifyErrorKind::BadMutation,
                            "mutation receiver must be tensor",
                        ));
                    }
                    if node.outputs.len() > 1 {
                        return Err(self.err(
                            n,
                            VerifyErrorKind::BadMutation,
                            "mutation has at most one (alias) output",
                        ));
                    }
                }
                Op::View(k) | Op::Access(k) if node.inputs.len() != 1 + k.extra_inputs() => {
                    return Err(self.err(
                        n,
                        VerifyErrorKind::BadView,
                        "view/access arity mismatch",
                    ));
                }
                Op::Assign(k) if node.inputs.len() != 2 + k.extra_inputs() => {
                    return Err(self.err(n, VerifyErrorKind::BadAssign, "assign arity mismatch"));
                }
                Op::Update if (node.inputs.len() != 2 || !node.outputs.is_empty()) => {
                    return Err(self.err(
                        n,
                        VerifyErrorKind::BadUpdate,
                        "update must be 2-in 0-out",
                    ));
                }
                Op::FusionGroup => {
                    if node.blocks.len() != 1 {
                        return Err(self.err(
                            n,
                            VerifyErrorKind::BadFusionGroup,
                            "fusion group must have one block",
                        ));
                    }
                    let b = self.block(node.blocks[0]);
                    if b.params.len() != node.inputs.len() {
                        return Err(self.err(
                            n,
                            VerifyErrorKind::BadFusionGroup,
                            "fusion group params must match inputs",
                        ));
                    }
                    if b.returns.len() != node.outputs.len() {
                        return Err(self.err(
                            n,
                            VerifyErrorKind::BadFusionGroup,
                            "fusion group returns must match outputs",
                        ));
                    }
                }
                Op::ParallelMap { .. } => {
                    if node.blocks.len() != 1 {
                        return Err(self.err(
                            n,
                            VerifyErrorKind::BadParallelMap,
                            "parallel map must have one block",
                        ));
                    }
                    if node.inputs.is_empty() || self.value(node.inputs[0]).ty != Type::Int {
                        return Err(self.err(
                            n,
                            VerifyErrorKind::BadParallelMap,
                            "parallel map needs int trip count first",
                        ));
                    }
                }
                _ => {}
            }
        }
        // Block returns must reference values in scope at the end of their
        // block; model this as availability at a virtual trailing position by
        // checking the def block is the block itself or an ancestor.
        for b in self.block_ids() {
            let blk = self.block(b);
            for &r in &blk.returns {
                if r.index() >= self.value_count() {
                    return Err(VerifyError {
                        kind: VerifyErrorKind::DanglingValue,
                        node: None,
                        value: Some(r),
                        block: Some(b),
                        message: format!("block {} returns dangling value", b.index()),
                    });
                }
                let db = self.def_block(r);
                if !self.block_is_ancestor(db, b) {
                    return Err(VerifyError {
                        kind: VerifyErrorKind::ReturnOutOfScope,
                        node: None,
                        value: Some(r),
                        block: Some(b),
                        message: format!(
                            "block {} return {} defined in non-enclosing block",
                            b.index(),
                            self.value_name(r)
                        ),
                    });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::VerifyErrorKind;
    use crate::graph::Graph;
    use crate::ops::{MutateKind, Op, UnaryKind};
    use crate::types::{ConstValue, Type};

    #[test]
    fn errors_carry_kind_and_location() {
        let mut g = Graph::new();
        let x = g.add_input("x", Type::Tensor);
        let m = g.append(g.top(), Op::Mutate(MutateKind::Copy), &[x], &[Type::Tensor]);
        let err = g.verify().unwrap_err();
        assert_eq!(err.kind, VerifyErrorKind::BadMutation);
        assert_eq!(err.node, Some(m));
        // Display rendering is unchanged by the structured representation.
        assert_eq!(
            err.to_string(),
            format!(
                "ir verification failed: node {} (aten::copy_): mutation arity mismatch",
                m.index()
            )
        );
    }

    #[test]
    fn valid_graph_passes() {
        let mut g = Graph::new();
        let x = g.add_input("x", Type::Tensor);
        let n = g.append(g.top(), UnaryKind::Relu, &[x], &[Type::Tensor]);
        let y = g.out(n);
        g.set_returns(g.top(), &[y]);
        assert!(g.verify().is_ok());
    }

    #[test]
    fn use_before_def_fails() {
        let mut g = Graph::new();
        let x = g.add_input("x", Type::Tensor);
        let a = g.append(g.top(), UnaryKind::Relu, &[x], &[Type::Tensor]);
        let b = g.append(g.top(), UnaryKind::Sigmoid, &[x], &[Type::Tensor]);
        let bv = g.out(b);
        // Rewrite a's operand to b's output: use before def.
        let av = g.out(a);
        g.replace_all_uses(x, bv);
        let _ = av;
        assert!(g.verify().is_err());
    }

    #[test]
    fn if_requires_bool_condition() {
        let mut g = Graph::new();
        let x = g.add_input("x", Type::Tensor);
        let iff = g.append(g.top(), Op::If, &[x], &[]);
        let tb = g.add_node_block(iff);
        let eb = g.add_node_block(iff);
        g.set_returns(tb, &[]);
        g.set_returns(eb, &[]);
        assert!(g.verify().is_err());
    }

    #[test]
    fn loop_conventions_enforced() {
        let mut g = Graph::new();
        let n = g.add_input("n", Type::Int);
        let t = g.constant_bool(true);
        let x = g.add_input("x", Type::Tensor);
        let lp = g.append(g.top(), Op::Loop, &[n, t, x], &[Type::Tensor]);
        let body = g.add_node_block(lp);
        let _i = g.add_block_param(body, Type::Int);
        let c = g.add_block_param(body, Type::Tensor);
        let cond = g.constant_in(body, ConstValue::Bool(true));
        g.set_returns(body, &[cond, c]);
        assert!(g.verify().is_ok());
        // Drop the carried return: arity violation.
        g.set_returns(body, &[cond]);
        assert!(g.verify().is_err());
    }

    #[test]
    fn mutation_arity_checked() {
        let mut g = Graph::new();
        let x = g.add_input("x", Type::Tensor);
        g.append(g.top(), Op::Mutate(MutateKind::Copy), &[x], &[Type::Tensor]);
        assert!(g.verify().is_err());
    }

    #[test]
    fn inner_value_cannot_escape_via_returns() {
        let mut g = Graph::new();
        let c = g.constant_bool(true);
        let iff = g.append(g.top(), Op::If, &[c], &[Type::Tensor]);
        let tb = g.add_node_block(iff);
        let eb = g.add_node_block(iff);
        let z = g.append(tb, Op::Zeros { shape: vec![1] }, &[], &[Type::Tensor]);
        let zv = g.out(z);
        g.set_returns(tb, &[zv]);
        g.set_returns(eb, &[zv]); // defined in sibling block: out of scope
        assert!(g.verify().is_err());
    }
}
