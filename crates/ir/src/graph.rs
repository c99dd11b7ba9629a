//! Arena-based graph, block, node and value storage plus the mutation API
//! used by the compiler passes.

use std::collections::HashMap;

use crate::ops::Op;
use crate::types::{ConstValue, Type};

/// A source location in the frontend program a node was lowered from.
///
/// `line` is 1-based (0 = unknown); `col` is 1-based when the frontend can
/// attribute one and 0 otherwise (the DSL lexer currently tracks lines
/// only). Spans live in a side table on the [`Graph`] rather than on
/// [`Node`] so graphs built programmatically or parsed from text pay
/// nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SrcSpan {
    /// 1-based source line (0 = unknown).
    pub line: u32,
    /// 1-based source column (0 = unknown).
    pub col: u32,
}

impl SrcSpan {
    /// A span covering `line` with no column information.
    pub fn line(line: usize) -> SrcSpan {
        SrcSpan {
            line: line as u32,
            col: 0,
        }
    }
}

impl std::fmt::Display for SrcSpan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.col > 0 {
            write!(f, "line {}:{}", self.line, self.col)
        } else {
            write!(f, "line {}", self.line)
        }
    }
}

/// Identifier of a [`Value`] within its [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ValueId(pub(crate) u32);

/// Identifier of a [`Node`] within its [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

/// Identifier of a [`Block`] within its [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub(crate) u32);

impl ValueId {
    /// Raw index (stable for the graph's lifetime).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuild an id from [`ValueId::index`]; only meaningful for indices
    /// obtained from the same graph.
    pub fn from_index(index: usize) -> ValueId {
        ValueId(index as u32)
    }
}

impl NodeId {
    /// Raw index (stable for the graph's lifetime).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl BlockId {
    /// Raw index (stable for the graph's lifetime).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Where a value is defined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueDef {
    /// Output `index` of `node`.
    NodeOut {
        /// Defining node.
        node: NodeId,
        /// Output position.
        index: usize,
    },
    /// Parameter `index` of `block`.
    BlockParam {
        /// Defining block.
        block: BlockId,
        /// Parameter position.
        index: usize,
    },
}

/// An SSA value.
#[derive(Debug, Clone)]
pub struct Value {
    /// Type of the value.
    pub ty: Type,
    /// Definition site.
    pub def: ValueDef,
    /// Optional debug name (graph inputs keep their source name).
    pub name: Option<String>,
}

/// An operation instance.
#[derive(Debug, Clone)]
pub struct Node {
    /// The operator.
    pub op: Op,
    /// Operand values, in order.
    pub inputs: Vec<ValueId>,
    /// Result values, in order.
    pub outputs: Vec<ValueId>,
    /// Nested blocks (`prim::If` has two, `prim::Loop` one, …).
    pub blocks: Vec<BlockId>,
    /// The block containing this node.
    pub owner: BlockId,
    pub(crate) dead: bool,
}

/// A straight-line sequence of nodes with parameters and returns.
#[derive(Debug, Clone)]
pub struct Block {
    /// Block parameters (loop carries, graph inputs for the top block).
    pub params: Vec<ValueId>,
    /// Nodes in execution order.
    pub nodes: Vec<NodeId>,
    /// Values returned to the owning node (graph outputs for the top block).
    pub returns: Vec<ValueId>,
    /// The node this block belongs to (`None` for the top-level block).
    pub owner: Option<NodeId>,
}

/// A use site of a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Use {
    /// Operand `operand` of `node`.
    Operand {
        /// Using node.
        node: NodeId,
        /// Operand position.
        operand: usize,
    },
    /// Entry `index` of `block`'s returns.
    Return {
        /// Using block.
        block: BlockId,
        /// Return position.
        index: usize,
    },
}

/// A graph-level IR program: a tree of blocks rooted at [`Graph::top`].
#[derive(Debug, Clone)]
pub struct Graph {
    values: Vec<Value>,
    nodes: Vec<Node>,
    blocks: Vec<Block>,
    top: BlockId,
    /// Source spans per node (sparse: only frontend-lowered nodes have one).
    spans: HashMap<NodeId, SrcSpan>,
    /// Span stamped onto every node created while set (the frontend points
    /// it at the statement currently being lowered).
    current_span: Option<SrcSpan>,
}

impl Default for Graph {
    fn default() -> Self {
        Graph::new()
    }
}

impl Graph {
    /// An empty graph with a top-level block and no inputs.
    pub fn new() -> Graph {
        let top_block = Block {
            params: Vec::new(),
            nodes: Vec::new(),
            returns: Vec::new(),
            owner: None,
        };
        Graph {
            values: Vec::new(),
            nodes: Vec::new(),
            blocks: vec![top_block],
            top: BlockId(0),
            spans: HashMap::new(),
            current_span: None,
        }
    }

    /// Stamp `span` onto every node created until the next call (or `None`
    /// to stop stamping). The frontend sets this to the statement being
    /// lowered so diagnostics can point at source lines.
    pub fn set_current_span(&mut self, span: Option<SrcSpan>) {
        self.current_span = span;
    }

    /// The source span of `node`, when the frontend attributed one.
    pub fn node_span(&self, node: NodeId) -> Option<SrcSpan> {
        self.spans.get(&node).copied()
    }

    /// Number of nodes carrying a source span.
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// The top-level block (graph body).
    pub fn top(&self) -> BlockId {
        self.top
    }

    // ------------------------------------------------------------ accessors

    /// Immutable node access.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a node of this graph.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Immutable value access.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a value of this graph.
    pub fn value(&self, id: ValueId) -> &Value {
        &self.values[id.index()]
    }

    /// Immutable block access.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a block of this graph.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.index()]
    }

    /// Whether a node has been removed.
    pub fn is_removed(&self, id: NodeId) -> bool {
        self.nodes[id.index()].dead
    }

    /// Number of live nodes in the whole graph.
    pub fn live_node_count(&self) -> usize {
        self.nodes.iter().filter(|n| !n.dead).count()
    }

    /// Total number of values ever created (ids are never reused).
    pub fn value_count(&self) -> usize {
        self.values.len()
    }

    /// Iterate all block ids (in creation order).
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> + '_ {
        (0..self.blocks.len() as u32).map(BlockId)
    }

    /// Single output of a node.
    ///
    /// # Panics
    ///
    /// Panics if the node does not have exactly one output.
    pub fn out(&self, node: NodeId) -> ValueId {
        let outs = &self.node(node).outputs;
        assert_eq!(outs.len(), 1, "node has {} outputs", outs.len());
        outs[0]
    }

    // --------------------------------------------------------- construction

    fn new_value(&mut self, ty: Type, def: ValueDef, name: Option<String>) -> ValueId {
        let id = ValueId(self.values.len() as u32);
        self.values.push(Value { ty, def, name });
        id
    }

    /// Add a graph input (parameter of the top block).
    pub fn add_input(&mut self, name: &str, ty: Type) -> ValueId {
        let top = self.top;
        self.add_block_param_named(top, ty, Some(name.to_string()))
    }

    /// Add a parameter to `block`.
    pub fn add_block_param(&mut self, block: BlockId, ty: Type) -> ValueId {
        self.add_block_param_named(block, ty, None)
    }

    fn add_block_param_named(&mut self, block: BlockId, ty: Type, name: Option<String>) -> ValueId {
        let index = self.blocks[block.index()].params.len();
        let v = self.new_value(ty, ValueDef::BlockParam { block, index }, name);
        self.blocks[block.index()].params.push(v);
        v
    }

    fn make_node(
        &mut self,
        block: BlockId,
        op: impl Into<Op>,
        inputs: &[ValueId],
        out_types: &[Type],
    ) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            op: op.into(),
            inputs: inputs.to_vec(),
            outputs: Vec::new(),
            blocks: Vec::new(),
            owner: block,
            dead: false,
        });
        if let Some(span) = self.current_span {
            self.spans.insert(id, span);
        }
        for (i, ty) in out_types.iter().enumerate() {
            let v = self.new_value(ty.clone(), ValueDef::NodeOut { node: id, index: i }, None);
            self.nodes[id.index()].outputs.push(v);
        }
        id
    }

    /// Append a node at the end of `block`. Like every node builder it takes
    /// an [`Op`] or a kind that is one (`UnaryKind::Relu`).
    pub fn append(
        &mut self,
        block: BlockId,
        op: impl Into<Op>,
        inputs: &[ValueId],
        out_types: &[Type],
    ) -> NodeId {
        let id = self.make_node(block, op, inputs, out_types);
        self.blocks[block.index()].nodes.push(id);
        id
    }

    /// Insert a node at `index` within `block`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is past the end of the block.
    pub fn insert(
        &mut self,
        block: BlockId,
        index: usize,
        op: impl Into<Op>,
        inputs: &[ValueId],
        out_types: &[Type],
    ) -> NodeId {
        let id = self.make_node(block, op, inputs, out_types);
        self.blocks[block.index()].nodes.insert(index, id);
        id
    }

    /// Insert a node immediately before `anchor` in the same block.
    pub fn insert_before(
        &mut self,
        anchor: NodeId,
        op: impl Into<Op>,
        inputs: &[ValueId],
        out_types: &[Type],
    ) -> NodeId {
        let block = self.node(anchor).owner;
        let idx = self.node_index(anchor);
        self.insert(block, idx, op, inputs, out_types)
    }

    /// Insert a node immediately after `anchor` in the same block.
    pub fn insert_after(
        &mut self,
        anchor: NodeId,
        op: impl Into<Op>,
        inputs: &[ValueId],
        out_types: &[Type],
    ) -> NodeId {
        let block = self.node(anchor).owner;
        let idx = self.node_index(anchor);
        self.insert(block, idx + 1, op, inputs, out_types)
    }

    /// Insert a node at the beginning of `block`.
    pub fn prepend(
        &mut self,
        block: BlockId,
        op: impl Into<Op>,
        inputs: &[ValueId],
        out_types: &[Type],
    ) -> NodeId {
        self.insert(block, 0, op, inputs, out_types)
    }

    /// Create a nested block owned by `node` (appended to its block list).
    pub fn add_node_block(&mut self, node: NodeId) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(Block {
            params: Vec::new(),
            nodes: Vec::new(),
            returns: Vec::new(),
            owner: Some(node),
        });
        self.nodes[node.index()].blocks.push(id);
        id
    }

    /// Add an extra output value to `node`.
    pub fn add_output(&mut self, node: NodeId, ty: Type) -> ValueId {
        let index = self.node(node).outputs.len();
        let v = self.new_value(ty, ValueDef::NodeOut { node, index }, None);
        self.nodes[node.index()].outputs.push(v);
        v
    }

    /// Add an extra input to `node`.
    pub fn add_node_input(&mut self, node: NodeId, value: ValueId) {
        self.nodes[node.index()].inputs.push(value);
    }

    /// Replace the returns of `block`.
    pub fn set_returns(&mut self, block: BlockId, values: &[ValueId]) {
        self.blocks[block.index()].returns = values.to_vec();
    }

    /// Append one value to the returns of `block`.
    pub fn push_return(&mut self, block: BlockId, value: ValueId) {
        self.blocks[block.index()].returns.push(value);
    }

    /// Convenience: append a `prim::Constant` to the top block.
    pub fn constant(&mut self, value: ConstValue) -> ValueId {
        let ty = value.ty();
        let top = self.top;
        let n = self.append(top, Op::Constant(value), &[], &[ty]);
        self.out(n)
    }

    /// Convenience: an integer constant in the top block.
    pub fn constant_int(&mut self, v: i64) -> ValueId {
        self.constant(ConstValue::Int(v))
    }

    /// Convenience: a float constant in the top block.
    pub fn constant_float(&mut self, v: f64) -> ValueId {
        self.constant(ConstValue::Float(v))
    }

    /// Convenience: a boolean constant in the top block.
    pub fn constant_bool(&mut self, v: bool) -> ValueId {
        self.constant(ConstValue::Bool(v))
    }

    /// A constant placed in a specific block (needed inside loop bodies so
    /// verification's dominance check passes without hoisting).
    pub fn constant_in(&mut self, block: BlockId, value: ConstValue) -> ValueId {
        let ty = value.ty();
        let n = self.append(block, Op::Constant(value), &[], &[ty]);
        self.out(n)
    }

    // ------------------------------------------------------------ mutation

    /// Replace the operator of `node` in place (arity must stay compatible;
    /// used e.g. to rewrite `aten::select` into `immut::select`).
    pub fn set_op(&mut self, node: NodeId, op: Op) {
        self.nodes[node.index()].op = op;
    }

    /// Rewrite operand `index` of `node`.
    pub fn set_input(&mut self, node: NodeId, index: usize, value: ValueId) {
        self.nodes[node.index()].inputs[index] = value;
    }

    /// Replace the whole operand list of `node`.
    pub fn set_inputs(&mut self, node: NodeId, inputs: &[ValueId]) {
        self.nodes[node.index()].inputs = inputs.to_vec();
    }

    /// Attach a debug name to `value` (used by the printer; parsed graphs
    /// keep their textual names through round trips).
    pub(crate) fn set_value_name(&mut self, value: ValueId, name: &str) {
        self.values[value.index()].name = Some(name.to_string());
    }

    /// Remove operand `index` of `node`.
    pub fn remove_node_input(&mut self, node: NodeId, index: usize) {
        self.nodes[node.index()].inputs.remove(index);
    }

    /// Remove output `index` of `node`, re-indexing the definitions of the
    /// outputs that follow. The removed value must be unused.
    pub fn remove_output(&mut self, node: NodeId, index: usize) {
        let removed = self.nodes[node.index()].outputs.remove(index);
        debug_assert!(
            self.uses(removed).is_empty(),
            "removing a used output {removed:?}"
        );
        for (i, &out) in self.nodes[node.index()]
            .outputs
            .iter()
            .enumerate()
            .skip(index)
        {
            if let ValueDef::NodeOut { node: n, .. } = self.values[out.index()].def {
                self.values[out.index()].def = ValueDef::NodeOut { node: n, index: i };
            }
        }
    }

    /// Remove parameter `index` of `block`, re-indexing the parameters that
    /// follow. The removed value must be unused.
    pub fn remove_block_param(&mut self, block: BlockId, index: usize) {
        let removed = self.blocks[block.index()].params.remove(index);
        debug_assert!(
            self.uses(removed).is_empty(),
            "removing a used block param {removed:?}"
        );
        let params = self.blocks[block.index()].params.clone();
        for (i, &p) in params.iter().enumerate().skip(index) {
            if let ValueDef::BlockParam { block: b, .. } = self.values[p.index()].def {
                self.values[p.index()].def = ValueDef::BlockParam { block: b, index: i };
            }
        }
    }

    /// Remove return `index` of `block`.
    pub fn remove_return(&mut self, block: BlockId, index: usize) {
        self.blocks[block.index()].returns.remove(index);
    }

    /// Remove `node` from its block (its values become undefined; callers
    /// must have rerouted all uses first).
    pub fn remove_node(&mut self, node: NodeId) {
        let block = self.node(node).owner;
        self.blocks[block.index()].nodes.retain(|&n| n != node);
        self.nodes[node.index()].dead = true;
    }

    /// Move `node` out of its current block to immediately before `anchor`
    /// (which may live in a different block). The caller is responsible for
    /// scoping: every operand must still be in scope at the new position.
    pub fn move_node_before(&mut self, node: NodeId, anchor: NodeId) {
        let from = self.node(node).owner;
        self.blocks[from.index()].nodes.retain(|&n| n != node);
        let to = self.node(anchor).owner;
        let idx = self.node_index(anchor);
        self.blocks[to.index()].nodes.insert(idx, node);
        self.nodes[node.index()].owner = to;
    }

    /// Position of `node` within its owning block.
    ///
    /// # Panics
    ///
    /// Panics if the node has been removed.
    pub(crate) fn node_index(&self, node: NodeId) -> usize {
        let block = self.node(node).owner;
        self.blocks[block.index()]
            .nodes
            .iter()
            .position(|&n| n == node)
            .expect("node not in its owner block")
    }

    /// All use sites of `value` (operands and block returns), in no
    /// particular order.
    pub fn uses(&self, value: ValueId) -> Vec<Use> {
        let mut uses = Vec::new();
        for (bi, b) in self.blocks.iter().enumerate() {
            for (i, &r) in b.returns.iter().enumerate() {
                if r == value {
                    uses.push(Use::Return {
                        block: BlockId(bi as u32),
                        index: i,
                    });
                }
            }
        }
        for (ni, n) in self.nodes.iter().enumerate() {
            if n.dead {
                continue;
            }
            for (i, &inp) in n.inputs.iter().enumerate() {
                if inp == value {
                    uses.push(Use::Operand {
                        node: NodeId(ni as u32),
                        operand: i,
                    });
                }
            }
        }
        uses
    }

    /// Whether `value` has any uses (stops at the first one).
    pub fn has_uses(&self, value: ValueId) -> bool {
        self.blocks.iter().any(|b| b.returns.contains(&value))
            || self
                .nodes
                .iter()
                .any(|n| !n.dead && n.inputs.contains(&value))
    }

    /// Rewrite one use site to reference `new`.
    pub fn rewrite_use(&mut self, site: Use, new: ValueId) {
        match site {
            Use::Operand { node, operand } => {
                self.nodes[node.index()].inputs[operand] = new;
            }
            Use::Return { block, index } => {
                self.blocks[block.index()].returns[index] = new;
            }
        }
    }

    /// Replace every use of `old` with `new`.
    pub fn replace_all_uses(&mut self, old: ValueId, new: ValueId) {
        for site in self.uses(old) {
            self.rewrite_use(site, new);
        }
    }

    /// The block in which `value` is defined.
    pub fn def_block(&self, value: ValueId) -> BlockId {
        match self.value(value).def {
            ValueDef::NodeOut { node, .. } => self.node(node).owner,
            ValueDef::BlockParam { block, .. } => block,
        }
    }

    /// The defining node of `value`, if it is a node output.
    pub fn def_node(&self, value: ValueId) -> Option<NodeId> {
        match self.value(value).def {
            ValueDef::NodeOut { node, .. } => Some(node),
            ValueDef::BlockParam { .. } => None,
        }
    }

    /// All live nodes of `block` and (recursively) its nested blocks, in
    /// pre-order program order.
    pub fn nodes_recursive(&self, block: BlockId) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.collect_nodes(block, &mut out);
        out
    }

    fn collect_nodes(&self, block: BlockId, out: &mut Vec<NodeId>) {
        for &n in &self.blocks[block.index()].nodes {
            out.push(n);
            for &b in &self.nodes[n.index()].blocks {
                self.collect_nodes(b, out);
            }
        }
    }

    /// Display name for a value: its debug name or `%<id>`.
    pub fn value_name(&self, value: ValueId) -> String {
        match &self.value(value).name {
            Some(n) => format!("%{n}"),
            None => format!("%{}", value.index()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{MutateKind, Op, UnaryKind, ViewKind};

    #[test]
    fn build_straight_line() {
        let mut g = Graph::new();
        let x = g.add_input("x", Type::Tensor);
        let n = g.append(g.top(), UnaryKind::Relu, &[x], &[Type::Tensor]);
        let y = g.out(n);
        g.set_returns(g.top(), &[y]);
        assert_eq!(g.block(g.top()).nodes.len(), 1);
        assert_eq!(g.value(y).ty, Type::Tensor);
        assert_eq!(g.def_node(y), Some(n));
        assert_eq!(g.def_block(x), g.top());
    }

    #[test]
    fn insertion_order() {
        let mut g = Graph::new();
        let x = g.add_input("x", Type::Tensor);
        let a = g.append(g.top(), UnaryKind::Relu, &[x], &[Type::Tensor]);
        let b = g.insert_before(a, UnaryKind::Sigmoid, &[x], &[Type::Tensor]);
        let c = g.insert_after(a, UnaryKind::Tanh, &[x], &[Type::Tensor]);
        let order: Vec<NodeId> = g.block(g.top()).nodes.clone();
        assert_eq!(order, vec![b, a, c]);
        assert_eq!(g.node_index(a), 1);
    }

    #[test]
    fn uses_and_replacement() {
        let mut g = Graph::new();
        let x = g.add_input("x", Type::Tensor);
        let n1 = g.append(g.top(), UnaryKind::Relu, &[x], &[Type::Tensor]);
        let n2 = g.append(g.top(), UnaryKind::Sigmoid, &[x], &[Type::Tensor]);
        let r1 = g.out(n1);
        g.set_returns(g.top(), &[x]);
        assert_eq!(g.uses(x).len(), 3);
        g.replace_all_uses(x, r1);
        assert_eq!(g.node(n2).inputs[0], r1);
        assert_eq!(g.block(g.top()).returns[0], r1);
        // n1 now uses r1 too (self-reference created deliberately by this
        // blanket replacement; passes use ordered variants instead).
        assert_eq!(g.node(n1).inputs[0], r1);
    }

    #[test]
    fn nested_blocks() {
        let mut g = Graph::new();
        let c = g.constant_bool(true);
        let iff = g.append(g.top(), Op::If, &[c], &[Type::Tensor]);
        let then_b = g.add_node_block(iff);
        let else_b = g.add_node_block(iff);
        let t1 = g.append(then_b, Op::Zeros { shape: vec![2] }, &[], &[Type::Tensor]);
        let e1 = g.append(else_b, Op::Ones { shape: vec![2] }, &[], &[Type::Tensor]);
        let (t1v, e1v) = (g.out(t1), g.out(e1));
        g.set_returns(then_b, &[t1v]);
        g.set_returns(else_b, &[e1v]);
        assert_eq!(g.node(iff).blocks.len(), 2);
        assert_eq!(g.block(then_b).owner, Some(iff));
        let all = g.nodes_recursive(g.top());
        assert_eq!(all.len(), 4);
    }

    #[test]
    fn remove_node_unlinks() {
        let mut g = Graph::new();
        let x = g.add_input("x", Type::Tensor);
        let n = g.append(g.top(), UnaryKind::Relu, &[x], &[Type::Tensor]);
        assert_eq!(g.live_node_count(), 1);
        g.remove_node(n);
        assert!(g.is_removed(n));
        assert_eq!(g.live_node_count(), 0);
        assert!(g.block(g.top()).nodes.is_empty());
    }

    #[test]
    fn view_and_mutate_nodes() {
        let mut g = Graph::new();
        let x = g.add_input("x", Type::Tensor);
        let i = g.constant_int(0);
        let sel = g.append(
            g.top(),
            Op::View(ViewKind::Select { dim: 0 }),
            &[x, i],
            &[Type::Tensor],
        );
        let v = g.out(sel);
        let m = g.append(g.top(), Op::Mutate(MutateKind::Relu), &[v], &[Type::Tensor]);
        assert!(g.node(sel).op.is_view());
        assert!(g.node(m).op.is_mutation());
    }
}
