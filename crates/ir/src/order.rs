//! Program order and dominance for structured control flow.
//!
//! Because control flow is structured (blocks nest inside `prim::If` /
//! `prim::Loop` nodes, no arbitrary jumps), dominance reduces to lexical
//! facts: node `A` dominates node `B` iff `A`'s block is an ancestor of (or
//! the same as) `B`'s block and `A` precedes `B`'s enclosing node chain
//! within that block.

use crate::graph::{BlockId, Graph, NodeId, ValueDef, ValueId};

impl Graph {
    /// Whether `ancestor` is `block` or one of its transitive parents.
    pub fn block_is_ancestor(&self, ancestor: BlockId, block: BlockId) -> bool {
        let mut cur = block;
        loop {
            if cur == ancestor {
                return true;
            }
            match self.block(cur).owner {
                Some(node) => cur = self.node(node).owner,
                None => return false,
            }
        }
    }

    /// The chain of blocks from the top block down to `block` (inclusive).
    pub fn block_ancestry(&self, block: BlockId) -> Vec<BlockId> {
        let mut chain = vec![block];
        let mut cur = block;
        while let Some(node) = self.block(cur).owner {
            cur = self.node(node).owner;
            chain.push(cur);
        }
        chain.reverse();
        chain
    }

    /// The node in `ancestor_block` whose nested blocks (transitively)
    /// contain `node`; `node` itself if it lives directly in the block.
    ///
    /// Returns `None` when `node` is not inside `ancestor_block` at all.
    pub fn enclosing_node_in(&self, ancestor_block: BlockId, node: NodeId) -> Option<NodeId> {
        let mut cur = node;
        loop {
            let b = self.node(cur).owner;
            if b == ancestor_block {
                return Some(cur);
            }
            match self.block(b).owner {
                Some(owner) => cur = owner,
                None => return None,
            }
        }
    }

    /// Strict dominance: every execution reaching `b` has executed `a` first
    /// and `a`'s outputs are in scope at `b`.
    pub fn dominates(&self, a: NodeId, b: NodeId) -> bool {
        if a == b {
            return false;
        }
        let block_a = self.node(a).owner;
        let Some(anchor) = self.enclosing_node_in(block_a, b) else {
            return false;
        };
        if anchor == a {
            // b is nested inside a; a has not finished executing.
            return false;
        }
        self.node_index(a) < self.node_index(anchor)
    }

    /// Whether `value` is in scope at `user` (defined by a dominating node or
    /// a parameter of an enclosing block).
    pub fn value_available_at(&self, value: ValueId, user: NodeId) -> bool {
        match self.value(value).def {
            ValueDef::NodeOut { node, .. } => self.dominates(node, user),
            ValueDef::BlockParam { block, .. } => {
                self.block_is_ancestor(block, self.node(user).owner)
            }
        }
    }

    /// Lexicographic program position of a node: the path of block-local
    /// indices from the top block. Ordering positions orders nodes in
    /// pre-order program order.
    pub fn position(&self, node: NodeId) -> Vec<usize> {
        let mut path = Vec::new();
        let mut cur = node;
        loop {
            path.push(self.node_index(cur));
            let b = self.node(cur).owner;
            match self.block(b).owner {
                Some(owner) => cur = owner,
                None => break,
            }
        }
        path.reverse();
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{Op, UnaryKind};
    use crate::types::Type;

    /// graph: n0; if { n_then } ; n1
    fn fixture() -> (Graph, NodeId, NodeId, NodeId, NodeId) {
        let mut g = Graph::new();
        let x = g.add_input("x", Type::Tensor);
        let n0 = g.append(g.top(), UnaryKind::Relu, &[x], &[Type::Tensor]);
        let c = g.constant_bool(true);
        let iff = g.append(g.top(), Op::If, &[c], &[Type::Tensor]);
        let then_b = g.add_node_block(iff);
        let else_b = g.add_node_block(iff);
        let v0 = g.out(n0);
        let nt = g.append(then_b, UnaryKind::Sigmoid, &[v0], &[Type::Tensor]);
        let ntv = g.out(nt);
        g.set_returns(then_b, &[ntv]);
        g.set_returns(else_b, &[v0]);
        let iv = g.out(iff);
        let n1 = g.append(g.top(), UnaryKind::Tanh, &[iv], &[Type::Tensor]);
        (g, n0, iff, nt, n1)
    }

    #[test]
    fn same_block_dominance_is_order() {
        let (g, n0, iff, _nt, n1) = fixture();
        assert!(g.dominates(n0, iff));
        assert!(g.dominates(iff, n1));
        assert!(!g.dominates(n1, n0));
        assert!(!g.dominates(n0, n0));
    }

    #[test]
    fn outer_dominates_inner_but_not_vice_versa() {
        let (g, n0, iff, nt, n1) = fixture();
        assert!(g.dominates(n0, nt));
        assert!(!g.dominates(nt, n1)); // inner does not dominate outer
        assert!(!g.dominates(iff, nt)); // owner doesn't dominate its body
    }

    #[test]
    fn ancestry_and_enclosing() {
        let (g, _n0, iff, nt, _n1) = fixture();
        let then_b = g.node(iff).blocks[0];
        assert!(g.block_is_ancestor(g.top(), then_b));
        assert!(!g.block_is_ancestor(then_b, g.top()));
        assert_eq!(g.enclosing_node_in(g.top(), nt), Some(iff));
        assert_eq!(g.enclosing_node_in(then_b, nt), Some(nt));
        assert_eq!(g.block_ancestry(then_b), vec![g.top(), then_b]);
    }

    #[test]
    fn availability_includes_block_params() {
        let mut g = Graph::new();
        let n = g.add_input("n", Type::Int);
        let t0 = g.constant_bool(true);
        let x = g.add_input("x", Type::Tensor);
        let lp = g.append(g.top(), Op::Loop, &[n, t0, x], &[Type::Tensor]);
        let body = g.add_node_block(lp);
        let i = g.add_block_param(body, Type::Int);
        let carried = g.add_block_param(body, Type::Tensor);
        let inner = g.append(body, UnaryKind::Relu, &[carried], &[Type::Tensor]);
        let iv = g.out(inner);
        let cond = g.constant_in(body, crate::types::ConstValue::Bool(true));
        g.set_returns(body, &[cond, iv]);
        assert!(g.value_available_at(carried, inner));
        assert!(g.value_available_at(i, inner));
        assert!(g.value_available_at(x, inner));
        // loop output is not available inside the body
        let lo = g.out(lp);
        assert!(!g.value_available_at(lo, inner));
    }

    #[test]
    fn positions_order_preorder() {
        let (g, n0, iff, nt, n1) = fixture();
        assert!(g.position(n0) < g.position(iff));
        assert!(g.position(iff) < g.position(nt));
        assert!(g.position(nt) < g.position(n1));
    }
}
