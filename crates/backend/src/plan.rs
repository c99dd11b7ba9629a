//! [`ExecPlan`]: the half of execution that depends only on the graph.
//!
//! Built once where a program is compiled or decoded and shared by every
//! run. It numbers each fusion group's values into dense slots, picks every
//! body node's kernel, resolves operands to slot indices and works out which
//! slots are still read after each node — so that a launch
//! (`fused::run_group`) only binds shapes, strides and scalar operands. For
//! the blocks around the groups it records which values the block lets go
//! of at a launch or at a loop, which is what lets their storage be written
//! in place instead of copied.

use tssa_ir::{BlockId, Graph, NodeId, Op, ValueId};
use tssa_tensor::{BinaryOp, DType};

use crate::ops::{binary_op, dtype_of};
use crate::ExecError;

/// The shape-independent execution plan of one graph. Derived from the
/// graph alone: build it with [`ExecPlan::new`] next to the graph it
/// describes and pass the two together to `Executor::run_plan`.
#[derive(Debug)]
pub struct ExecPlan {
    /// `Graph::value_count()`: the size of the register file.
    pub(crate) values: usize,
    /// By `NodeId::index()`: where in `planned` the node's plan is. Most
    /// nodes have none, and a graph's arena keeps the nodes passes removed.
    index: Vec<u32>,
    planned: Vec<NodePlan>,
}

#[derive(Debug)]
enum NodePlan {
    /// A group that cannot be lowered fails every launch the same way.
    Group(Result<GroupPlan, ExecError>),
    Loop(LoopPlan),
}

/// Which carried values a `prim::Loop` may move instead of clone.
#[derive(Debug)]
pub(crate) struct LoopPlan {
    /// Per initial carried input: the enclosing block never reads it again.
    pub init_dies: Vec<bool>,
    /// Per carried return of the body: it is the body's own value (so the
    /// next iteration rebinds it anyway) and is returned once.
    pub ret_moves: Vec<bool>,
}

/// One `prim::FusionGroup`, lowered. Slot `k < n_in` is input `k`, slot
/// `n_in + i` the output of body node `i`; a slot that owns a buffer owns
/// the buffer of its own index.
#[derive(Debug)]
pub(crate) struct GroupPlan {
    pub n_in: usize,
    /// One per body node, in order.
    pub nodes: Vec<PlanNode>,
    /// The slots the group returns.
    pub rets: Vec<usize>,
    /// Per slot: the last body node that reads it, directly or through a
    /// slot that may be a view of it; `usize::MAX` once returned.
    pub last_use: Vec<usize>,
    /// Per input: how the body uses it.
    pub uses: Vec<InputUse>,
    /// Per input: the enclosing block never reads it after this launch and
    /// the body could write its buffer in place or return it, so a tensor
    /// nobody else holds is taken instead of borrowed. (One that is only
    /// read is cheaper to borrow than to unwrap.)
    pub donate: Vec<bool>,
}

/// How much of a group input its body reads; the most that any node does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum InputUse {
    /// Its shape, dtype or host value only: a scalar needs no buffer.
    Meta,
    /// Elements, but only through accesses: the cost model charges the
    /// accessed elements rather than its full size (parallel-map bodies
    /// read one slice per iteration).
    Viewed,
    /// A kernel reads it whole.
    Read,
}

#[derive(Debug)]
pub(crate) struct PlanNode {
    /// The body node this was lowered from.
    pub id: NodeId,
    pub kind: Kind,
    /// The slot of each operand, in operand order: the tensor operands the
    /// kind names first, then the inputs that supply its scalar attributes.
    pub operands: Vec<usize>,
    /// Whether the cost model counts one flop per output element.
    pub compute: bool,
}

/// What a body node runs.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Kind {
    /// `f(a)`; which `f`, and its scalar operands, come from the op.
    Unary,
    /// `f(a, b)`, broadcast.
    Binary(BinaryOp),
    /// `c ? a : b`, broadcast.
    Where,
    /// A tensor shaped like `a`, filled with the constant or with scalar
    /// operand 1.
    Fill(Option<f32>),
    /// `a` broadcast to the shape and cast to the dtype of `b`.
    BroadcastLike,
    /// `a` cast to a dtype.
    Cast(DType),
    /// A view of `a`: runs nothing unless a strided `a` is reshaped.
    Access,
    /// A copy of `a` with `b` written over a view of it.
    Assign,
}

impl Kind {
    /// How many leading operands are tensors.
    fn tensors(self) -> usize {
        match self {
            Kind::Unary | Kind::Fill(_) | Kind::Cast(_) | Kind::Access => 1,
            Kind::Binary(_) | Kind::BroadcastLike | Kind::Assign => 2,
            Kind::Where => 3,
        }
    }

    /// `(operands whose elements the kernel reads, operand the output may
    /// be a view of)`. An access reads nothing itself — what reads its
    /// output reads the base through it.
    fn reads(self) -> (&'static [usize], Option<usize>) {
        match self {
            Kind::Unary => (&[0], None),
            Kind::Binary(_) | Kind::Assign => (&[0, 1], None),
            Kind::Where => (&[0, 1, 2], None),
            Kind::Fill(_) => (&[], None),
            Kind::BroadcastLike | Kind::Cast(_) => (&[0], Some(0)),
            Kind::Access => (&[], Some(0)),
        }
    }
}

const UNBOUND: usize = usize::MAX;

impl ExecPlan {
    /// Plan `graph`: one walk over its nodes.
    pub fn new(graph: &Graph) -> ExecPlan {
        let mut b = Builder {
            g: graph,
            live: vec![false; graph.value_count()],
            slot_of: vec![UNBOUND; graph.value_count()],
            planned: Vec::new(),
        };
        b.block(graph.top());
        let len = b.planned.iter().map(|(n, _)| n.index() + 1).max();
        let mut index = vec![u32::MAX; len.unwrap_or(0)];
        for (at, (n, _)) in b.planned.iter().enumerate() {
            index[n.index()] = at as u32;
        }
        ExecPlan {
            values: graph.value_count(),
            index,
            planned: b.planned.into_iter().map(|(_, plan)| plan).collect(),
        }
    }

    /// What running a graph with another graph's plan reports.
    pub(crate) fn foreign() -> ExecError {
        ExecError::unsupported("execution plan is of another graph")
    }

    fn node(&self, n: NodeId) -> Option<&NodePlan> {
        let at = *self.index.get(n.index())?;
        self.planned.get(at as usize)
    }

    /// The lowering of fusion group `n`.
    pub(crate) fn group(&self, n: NodeId) -> Result<&GroupPlan, ExecError> {
        match self.node(n) {
            Some(NodePlan::Group(lowered)) => lowered.as_ref().map_err(Clone::clone),
            _ => Err(ExecPlan::foreign()),
        }
    }

    /// The carried-value moves of loop `n`.
    pub(crate) fn carried(&self, n: NodeId) -> Result<&LoopPlan, ExecError> {
        match self.node(n) {
            Some(NodePlan::Loop(moves)) => Ok(moves),
            _ => Err(ExecPlan::foreign()),
        }
    }
}

struct Builder<'g> {
    g: &'g Graph,
    /// Per value: read after the point the backwards walk has reached.
    live: Vec<bool>,
    /// Per value: its slot in the group being lowered.
    slot_of: Vec<usize>,
    planned: Vec<(NodeId, NodePlan)>,
}

impl Builder<'_> {
    /// Walk `b` backwards. Blocks nested in a node are walked when the node
    /// is reached, so everything they read from outside counts as read by
    /// the node.
    fn block(&mut self, b: BlockId) {
        let g = self.g;
        for &r in &g.block(b).returns {
            self.live[r.index()] = true;
        }
        for &n in g.block(b).nodes.iter().rev() {
            let node = g.node(n);
            // A group's body is closed over its parameters and its values
            // are slots, not registers.
            if node.op != Op::FusionGroup {
                for &nested in &node.blocks {
                    self.block(nested);
                }
            }
            // A value dies at this node if it belongs to this block (one
            // defined further out may be read by the next iteration), is
            // not read later, and is this node's operand once.
            let dies = |&v: &ValueId| {
                let once = node.inputs.iter().filter(|&&o| o == v).count() == 1;
                g.def_block(v) == b && !self.live[v.index()] && once
            };
            match node.op {
                Op::FusionGroup => {
                    let dies = node.inputs.iter().map(dies).collect();
                    let lowered = self.group(n, dies);
                    self.planned.push((n, NodePlan::Group(lowered)));
                }
                Op::Loop => {
                    let init_dies = node.inputs.iter().skip(2).map(dies).collect();
                    let body = node.blocks[0];
                    let rets = &g.block(body).returns;
                    let ret_moves = (rets.iter().skip(1))
                        .map(|&r| {
                            g.def_block(r) == body && rets.iter().filter(|&&o| o == r).count() == 1
                        })
                        .collect();
                    let moves = LoopPlan {
                        init_dies,
                        ret_moves,
                    };
                    self.planned.push((n, NodePlan::Loop(moves)));
                }
                _ => {}
            }
            for &v in &node.inputs {
                self.live[v.index()] = true;
            }
        }
    }

    /// Lower fusion group `group`, of whose inputs the enclosing block lets
    /// go of those that `dies` says.
    fn group(&mut self, group: NodeId, dies: Vec<bool>) -> Result<GroupPlan, ExecError> {
        let g = self.g;
        let body = g.block(g.node(group).blocks[0]);
        let lowered = self.lower(group, dies);
        // The numbering is this group's only.
        let outputs = body.nodes.iter().flat_map(|&n| &g.node(n).outputs);
        for v in body.params.iter().chain(outputs) {
            self.slot_of[v.index()] = UNBOUND;
        }
        lowered
    }

    /// Everything in a launch of `group` that does not depend on shapes.
    fn lower(&mut self, group: NodeId, mut dies: Vec<bool>) -> Result<GroupPlan, ExecError> {
        let g = self.g;
        let body = g.block(g.node(group).blocks[0]);
        let n_in = body.params.len();
        if n_in != dies.len() {
            return Err(ExecError::ArityMismatch {
                expected: n_in,
                found: dies.len(),
            });
        }
        let n_slots = n_in + body.nodes.len();
        for (k, &p) in body.params.iter().enumerate() {
            self.slot_of[p.index()] = k;
        }
        let mut nodes = Vec::with_capacity(body.nodes.len());
        let mut last_use = vec![0usize; n_slots];
        let mut uses = vec![InputUse::Meta; n_in];
        // Per input: an assign writes over it, or it is returned.
        let mut wanted = vec![false; n_in];
        // The slot a slot may be a view of.
        let mut parent = vec![UNBOUND; n_slots];
        for (idx, &n) in body.nodes.iter().enumerate() {
            let node = g.node(n);
            let operands: Vec<usize> = (node.inputs.iter())
                .map(|v| self.slot_of[v.index()])
                .collect();
            let (kind, compute) = kind_of(&node.op)?;
            if operands.len() < kind.tensors() || operands.contains(&UNBOUND) {
                return Err(ExecError::unsupported(
                    "group operand missing or out of compilation scope",
                ));
            }
            let (reads, view_of) = kind.reads();
            let viewed = view_of.map(|v| (v, InputUse::Viewed));
            for (r, how) in reads.iter().map(|&r| (r, InputUse::Read)).chain(viewed) {
                for s in seen_through(&parent, operands[r]) {
                    last_use[s] = idx;
                }
                if let Some(u) = uses.get_mut(operands[r]) {
                    *u = (*u).max(how);
                }
            }
            if let Some(v) = view_of {
                parent[n_in + idx] = operands[v];
            }
            if matches!(kind, Kind::Assign) {
                for s in seen_through(&parent, operands[0]).filter(|&s| s < n_in) {
                    wanted[s] = true;
                }
            }
            // An input read as a scalar attribute stays in its register,
            // where a launch looks for it.
            for &s in &operands[kind.tensors()..] {
                if let Some(d) = dies.get_mut(s) {
                    *d = false;
                }
            }
            if let Some(&o) = node.outputs.first() {
                self.slot_of[o.index()] = n_in + idx;
            }
            nodes.push(PlanNode {
                id: n,
                kind,
                operands,
                compute,
            });
        }
        let rets: Option<Vec<usize>> = (body.returns.iter())
            .map(|r| Some(self.slot_of[r.index()]).filter(|&s| s != UNBOUND))
            .collect();
        let rets = rets.ok_or_else(|| ExecError::unsupported("group return not computed"))?;
        for s in rets.iter().flat_map(|&r| seen_through(&parent, r)) {
            last_use[s] = usize::MAX;
            if let Some(w) = wanted.get_mut(s) {
                *w = true;
            }
        }
        let donate = dies.iter().zip(wanted).map(|(&d, w)| d && w).collect();
        Ok(GroupPlan {
            n_in,
            nodes,
            rets,
            last_use,
            uses,
            donate,
        })
    }
}

/// Slot `s` and every slot it may be a view of: whose buffer a read (or a
/// write, or a return) of `s` may reach.
fn seen_through(parent: &[usize], s: usize) -> impl Iterator<Item = usize> + '_ {
    let bound = |s: usize| Some(s).filter(|&s| s != UNBOUND);
    std::iter::successors(bound(s), move |&s| bound(parent[s]))
}

/// The kernel `op` runs inside a group, and whether it counts as compute.
fn kind_of(op: &Op) -> Result<(Kind, bool), ExecError> {
    Ok(match op {
        Op::Unary(_) => (Kind::Unary, true),
        Op::Binary(k) => (Kind::Binary(binary_op(*k)), true),
        Op::WhereSelect => (Kind::Where, true),
        Op::FullLike => (Kind::Fill(None), false),
        Op::OnesLike => (Kind::Fill(Some(1.0)), false),
        Op::ZerosLike => (Kind::Fill(Some(0.0)), false),
        Op::BroadcastLike => (Kind::BroadcastLike, false),
        Op::Cast { dtype } => (Kind::Cast(dtype_of(*dtype)), true),
        Op::Access(_) => (Kind::Access, false),
        Op::Assign(_) => (Kind::Assign, false),
        other => {
            return Err(ExecError::unsupported(format!(
                "operator {} inside fusion group",
                other.name()
            )))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tssa_ir::parse_graph;

    /// The plans of `src`'s groups and of its loops.
    fn planned(src: &str) -> (Vec<Result<GroupPlan, ExecError>>, Vec<LoopPlan>) {
        let g = parse_graph(src).unwrap_or_else(|e| panic!("{src}\n{e}"));
        let (mut groups, mut loops) = (Vec::new(), Vec::new());
        for plan in ExecPlan::new(&g).planned {
            match plan {
                NodePlan::Group(lowered) => groups.push(lowered),
                NodePlan::Loop(moves) => loops.push(moves),
            }
        }
        (groups, loops)
    }

    #[test]
    fn a_carried_tensor_is_let_go_of_where_the_body_last_reads_it() {
        let (groups, loops) = planned(
            "graph(%x : Tensor, %w : Tensor, %n : int):
               %t : bool = prim::Constant[value=true]()
               %c0 : Tensor = aten::clone(%x)
               %h0 : Tensor = aten::clone(%x)
               %c : Tensor, %h : Tensor = prim::Loop(%n, %t, %c0, %h0)
                 block0(%i : int, %cc : Tensor, %hh : Tensor):
                   %m : Tensor = aten::relu(%hh)
                   %o : Tensor, %k : Tensor = prim::FusionGroup(%cc, %m, %w, %i, %hh)
                     block0(%p : Tensor, %q : Tensor, %r : Tensor, %j : int, %s : Tensor):
                       %a : Tensor = aten::add(%q, %r)
                       %b : Tensor = aten::mul(%a, %s)
                       %v : Tensor = immut::assign_select[dim=0](%p, %b, %j)
                       -> (%v, %b)
                   -> (%t, %o, %hh)
               %z : Tensor = aten::neg(%h0)
               return (%c, %h, %z)",
        );
        let group = groups[0].as_ref().unwrap();
        // %cc dies at the launch and is written over. %m dies too but is
        // only read; %w is the graph's, %i supplies an attribute, %hh is
        // returned by the body afterwards.
        assert_eq!(group.donate, [true, false, false, false, false]);
        assert_eq!(group.rets, [7, 6]);
        // %c0 is the loop's to keep; %h0 is read again after it. Both
        // returns are the body's own values, returned once.
        assert_eq!(loops[0].init_dies, [true, false]);
        assert_eq!(loops[0].ret_moves, [true, true]);
    }

    #[test]
    fn what_is_shared_captured_or_passed_twice_is_kept() {
        let (groups, loops) = planned(
            "graph(%x : Tensor, %n : int):
               %t : bool = prim::Constant[value=true]()
               %a : Tensor = aten::clone(%x)
               %b : Tensor = aten::clone(%x)
               %c : Tensor, %d : Tensor, %e : Tensor = prim::Loop(%n, %t, %a, %a, %b)
                 block0(%i : int, %p : Tensor, %q : Tensor, %r : Tensor):
                   %o : Tensor = prim::FusionGroup(%p, %p, %b)
                     block0(%u : Tensor, %v : Tensor, %w : Tensor):
                       %s : Tensor = aten::add(%u, %w)
                       -> (%s)
                   -> (%t, %o, %o, %x)
               return (%c, %d, %e)",
        );
        // %p twice; %b from outside the body.
        assert_eq!(groups[0].as_ref().unwrap().donate, [false, false, false]);
        // %a twice; %b read inside the body.
        assert_eq!(loops[0].init_dies, [false, false, false]);
        // %o twice; %x is not the body's.
        assert_eq!(loops[0].ret_moves, [false, false, false]);
    }

    #[test]
    fn an_input_returned_through_a_view_is_worth_taking() {
        let (groups, _) = planned(
            "graph(%x : Tensor, %l : Tensor):
               %a : Tensor = aten::relu(%x)
               %o : Tensor = prim::FusionGroup(%a, %l)
                 block0(%p : Tensor, %q : Tensor):
                   %b : Tensor = aten::broadcast_like(%p, %q)
                   -> (%b)
               return (%o)",
        );
        // Both die at the launch; only %a's buffer can become the output.
        assert_eq!(groups[0].as_ref().unwrap().donate, [true, false]);
    }

    #[test]
    fn a_read_through_a_view_keeps_the_viewed_slot_alive() {
        let (groups, _) = planned(
            "graph(%x : Tensor, %i : int):
               %o : Tensor, %k : Tensor = prim::FusionGroup(%x, %i)
                 block0(%p : Tensor, %j : int):
                   %a : Tensor = aten::relu(%p)
                   %v : Tensor = immut::select[dim=0](%a, %j)
                   %c : Tensor = aten::to[dtype=f32](%v)
                   %w : Tensor = immut::assign_select[dim=0](%a, %c, %j)
                   %n : Tensor = aten::neg(%c)
                   %z : Tensor = aten::zeros_like(%w)
                   -> (%w, %n)
               return (%o, %k)",
        );
        let group = groups[0].as_ref().unwrap();
        // Slots: %p %j | %a %v %c %w %n %z. %n reads %c, which may be %v,
        // which is a view of %a: the assign (node 3) may not steal %a.
        assert_eq!(group.last_use[2..5], [4, 4, 4]);
        assert_eq!(group.last_use[5], usize::MAX);
        assert_eq!(group.last_use[7], 0);
        assert_eq!(group.uses, [InputUse::Read, InputUse::Meta]);
        assert!(matches!(group.nodes[5].kind, Kind::Fill(Some(v)) if v == 0.0));
        assert_eq!(group.nodes[3].operands, [2, 4, 1]);
    }

    #[test]
    fn a_group_that_cannot_be_lowered_keeps_its_error() {
        let (groups, _) = planned(
            "graph(%x : Tensor, %y : Tensor):
               %s : Tensor = aten::relu(%y)
               %o : Tensor = prim::FusionGroup(%x, %y)
                 block0(%p : Tensor, %q : Tensor):
                   %m : Tensor = aten::matmul(%p, %q)
                   -> (%m)
               %u : Tensor = prim::FusionGroup(%x)
                 block0(%p : Tensor):
                   %a : Tensor = aten::add(%p, %s)
                   -> (%a)
               %v : Tensor = prim::FusionGroup(%x)
                 block0(%p : Tensor):
                   %a : Tensor = aten::add(%p)
                   -> (%a)
               return (%o, %u, %v)",
        );
        for lowered in &groups {
            assert!(matches!(lowered, Err(ExecError::Unsupported { .. })));
        }
        assert_eq!(groups.len(), 3);
    }
}
