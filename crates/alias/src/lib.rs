//! Tensor alias analysis (§2.3 of the TensorSSA paper).
//!
//! Builds the *alias graph*: a directed acyclic points-to structure whose
//! edges record three dependency kinds between IR values:
//!
//! 1. **memory** — `p` is a view of `q` (`p = q[i]`);
//! 2. **control flow** — `p` is a block argument of `q`, or `q` is a block
//!    return of `p`;
//! 3. **container** — a compound structure `q` contains `p` (`q = [p]`).
//!
//! From the alias graph, [`AliasAnalysis::candidates`] extracts the
//! functionalization candidates `T = (t, V, M)` of Equation (1)–(2): the
//! alias components that consist *solely of memory dependencies* — exactly
//! the sub-graphs the TensorSSA conversion pass handles — together with the
//! origin tensor `t` owning the storage, the view set `V` and the mutation
//! set `M`.
//!
//! # Examples
//!
//! ```
//! use tssa_ir::{Graph, Op, Type, ViewKind, MutateKind};
//! use tssa_alias::AliasAnalysis;
//!
//! let mut g = Graph::new();
//! let x = g.add_input("x", Type::Tensor);
//! let cl = g.append(g.top(), Op::CloneOp, &[x], &[Type::Tensor]);
//! let base = g.out(cl);
//! let i = g.constant_int(0);
//! let sel = g.append(g.top(), Op::View(ViewKind::Select { dim: 0 }), &[base, i], &[Type::Tensor]);
//! let v = g.out(sel);
//! g.append(g.top(), Op::Mutate(MutateKind::Relu), &[v], &[Type::Tensor]);
//!
//! let analysis = AliasAnalysis::build(&g);
//! assert!(analysis.may_alias(v, base));
//! assert!(analysis.must_alias(v, base));
//! assert_eq!(analysis.candidates().len(), 1);
//! assert_eq!(analysis.candidates()[0].origin, base);
//! ```

use std::collections::{HashMap, HashSet};

use tssa_ir::{Graph, NodeId, Op, Type, ValueDef, ValueId};

/// Kind of a points-to edge (§2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DepKind {
    /// `from` is a view of `to` (also used for the identity alias between a
    /// mutation's output and its receiver).
    Memory,
    /// Alias induced by block arguments / returns of control-flow nodes.
    ControlFlow,
    /// Alias induced by containers (lists).
    Container,
}

/// A directed points-to edge `from → to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PointsTo {
    /// Aliasing value.
    pub from: ValueId,
    /// Value pointed to (the base / container / cross-block twin).
    pub to: ValueId,
    /// Dependency kind.
    pub kind: DepKind,
}

/// A functionalization candidate `T = (t, V, M)` (Equation 1–2).
#[derive(Debug, Clone)]
pub struct Candidate {
    /// The origin tensor `t` owning the storage.
    pub origin: ValueId,
    /// View nodes whose outputs lie in the reachability of `t` (the set `V`,
    /// keyed by defining node).
    pub views: Vec<NodeId>,
    /// Mutation nodes whose receiver aliases `t` (the set `M`).
    pub mutations: Vec<NodeId>,
}

/// The alias graph of one IR [`Graph`] plus derived queries.
#[derive(Debug, Clone)]
pub struct AliasAnalysis {
    edges: Vec<PointsTo>,
    /// memory-edge target per value (single points-to edge ⇒ must alias).
    memory_base: HashMap<ValueId, ValueId>,
    /// union-find component representative over *all* edges.
    component: HashMap<ValueId, ValueId>,
    candidates: Vec<Candidate>,
}

impl AliasAnalysis {
    /// Build the alias graph and extract functionalization candidates.
    pub fn build(graph: &Graph) -> AliasAnalysis {
        let mut edges = Vec::new();
        let nodes = graph.nodes_recursive(graph.top());
        for &n in &nodes {
            let node = graph.node(n);
            match &node.op {
                Op::View(_) => {
                    edges.push(PointsTo {
                        from: node.outputs[0],
                        to: node.inputs[0],
                        kind: DepKind::Memory,
                    });
                }
                Op::Mutate(_) => {
                    if let Some(&out) = node.outputs.first() {
                        edges.push(PointsTo {
                            from: out,
                            to: node.inputs[0],
                            kind: DepKind::Memory,
                        });
                    }
                }
                Op::ListConstruct => {
                    for &inp in &node.inputs {
                        if graph.value(inp).ty == Type::Tensor {
                            edges.push(PointsTo {
                                from: inp,
                                to: node.outputs[0],
                                kind: DepKind::Container,
                            });
                        }
                    }
                }
                Op::ListUnpack => {
                    for &out in &node.outputs {
                        if graph.value(out).ty == Type::Tensor {
                            edges.push(PointsTo {
                                from: out,
                                to: node.inputs[0],
                                kind: DepKind::Container,
                            });
                        }
                    }
                }
                Op::If => {
                    // Outputs alias the corresponding returns of both blocks.
                    for &b in &node.blocks {
                        for (i, &r) in graph.block(b).returns.iter().enumerate() {
                            if graph.value(r).ty == Type::Tensor {
                                edges.push(PointsTo {
                                    from: node.outputs[i],
                                    to: r,
                                    kind: DepKind::ControlFlow,
                                });
                            }
                        }
                    }
                }
                Op::Loop => {
                    // Carried params alias initial inputs and body returns;
                    // outputs alias body returns.
                    let body = node.blocks[0];
                    let params = graph.block(body).params.clone();
                    let returns = graph.block(body).returns.clone();
                    for (k, &p) in params.iter().enumerate().skip(1) {
                        if graph.value(p).ty != Type::Tensor {
                            continue;
                        }
                        let init = node.inputs[1 + k]; // inputs: (n, cond, carried…)
                        edges.push(PointsTo {
                            from: p,
                            to: init,
                            kind: DepKind::ControlFlow,
                        });
                        edges.push(PointsTo {
                            from: p,
                            to: returns[k], // returns: (cond, carried…)
                            kind: DepKind::ControlFlow,
                        });
                        edges.push(PointsTo {
                            from: node.outputs[k - 1],
                            to: returns[k],
                            kind: DepKind::ControlFlow,
                        });
                    }
                }
                _ => {}
            }
        }

        // Union-find over all edges.
        let mut parent: HashMap<ValueId, ValueId> = HashMap::new();
        fn find(parent: &mut HashMap<ValueId, ValueId>, v: ValueId) -> ValueId {
            let p = *parent.entry(v).or_insert(v);
            if p == v {
                v
            } else {
                let r = find(parent, p);
                parent.insert(v, r);
                r
            }
        }
        for e in &edges {
            let a = find(&mut parent, e.from);
            let b = find(&mut parent, e.to);
            if a != b {
                parent.insert(a, b);
            }
        }
        let keys: Vec<ValueId> = parent.keys().copied().collect();
        let mut component = HashMap::new();
        for k in keys {
            let r = find(&mut parent, k);
            component.insert(k, r);
        }

        let memory_base: HashMap<ValueId, ValueId> = edges
            .iter()
            .filter(|e| e.kind == DepKind::Memory)
            .map(|e| (e.from, e.to))
            .collect();

        let mut analysis = AliasAnalysis {
            edges,
            memory_base,
            component,
            candidates: Vec::new(),
        };
        analysis.candidates = analysis.extract_candidates(graph);
        analysis
    }

    /// All points-to edges.
    pub fn edges(&self) -> &[PointsTo] {
        &self.edges
    }

    /// Whether two tensor values may reference overlapping storage.
    pub fn may_alias(&self, a: ValueId, b: ValueId) -> bool {
        if a == b {
            return true;
        }
        match (self.component.get(&a), self.component.get(&b)) {
            (Some(ra), Some(rb)) => ra == rb,
            _ => false,
        }
    }

    /// Whether two values *must* alias: one reaches the other following the
    /// (single-target) memory edges.
    pub fn must_alias(&self, a: ValueId, b: ValueId) -> bool {
        self.reaches_by_memory(a, b) || self.reaches_by_memory(b, a)
    }

    fn reaches_by_memory(&self, mut from: ValueId, to: ValueId) -> bool {
        loop {
            if from == to {
                return true;
            }
            match self.memory_base.get(&from) {
                Some(&next) => from = next,
                None => return false,
            }
        }
    }

    /// The representative of `v`'s alias component (union-find over *all*
    /// edge kinds). Values that never alias anything are their own
    /// representative. Two values share a component iff they
    /// [`AliasAnalysis::may_alias`].
    pub fn component_of(&self, v: ValueId) -> ValueId {
        self.component.get(&v).copied().unwrap_or(v)
    }

    /// The storage origin of a value: the end of its memory chain.
    pub fn origin_of(&self, v: ValueId) -> ValueId {
        let mut cur = v;
        while let Some(&next) = self.memory_base.get(&cur) {
            cur = next;
        }
        cur
    }

    /// The functionalization candidates (memory-dependency-only alias
    /// components with at least one mutation and a safely-owned origin).
    pub fn candidates(&self) -> &[Candidate] {
        &self.candidates
    }

    fn extract_candidates(&self, graph: &Graph) -> Vec<Candidate> {
        let mut members: HashMap<ValueId, Vec<ValueId>> = HashMap::new();
        for (&v, &rep) in &self.component {
            members.entry(rep).or_default().push(v);
        }
        // Components with any non-memory edge are ineligible.
        let mut tainted: HashSet<ValueId> = HashSet::new();
        for e in &self.edges {
            if e.kind != DepKind::Memory {
                if let Some(&rep) = self.component.get(&e.from) {
                    tainted.insert(rep);
                }
            }
        }
        let mut out = Vec::new();
        let mut reps: Vec<ValueId> = members.keys().copied().collect();
        reps.sort();
        'comp: for rep in reps {
            if tainted.contains(&rep) {
                continue;
            }
            let vals = &members[&rep];
            let origins: Vec<ValueId> = vals
                .iter()
                .copied()
                .filter(|v| !self.memory_base.contains_key(v))
                .collect();
            if origins.len() != 1 {
                continue;
            }
            let origin = origins[0];
            // The origin must own fresh storage: defined by a pure non-view
            // node (clone, zeros, arithmetic, …) — not a graph input or
            // block parameter, whose storage belongs to the caller or to the
            // loop carrying it.
            let owned = match graph.value(origin).def {
                ValueDef::BlockParam { .. } => false,
                ValueDef::NodeOut { node, .. } => {
                    let op = &graph.node(node).op;
                    !op.is_view() && !op.is_mutation() && op.is_pure()
                }
            };
            if !owned {
                continue;
            }
            let mut views = Vec::new();
            let mut mutations = Vec::new();
            let member_set: HashSet<ValueId> = vals.iter().copied().collect();
            for n in graph.nodes_recursive(graph.top()) {
                let node = graph.node(n);
                match &node.op {
                    Op::View(_) if member_set.contains(&node.outputs[0]) => {
                        views.push(n);
                    }
                    Op::Mutate(_) if member_set.contains(&node.inputs[0]) => {
                        // The receiver's own view must support mutation
                        // (stride-0 expand views are rejected).
                        if let Some(def) = graph.def_node(node.inputs[0]) {
                            if let Op::View(k) = &graph.node(def).op {
                                if !k.supports_mutation() {
                                    continue 'comp;
                                }
                            }
                        }
                        mutations.push(n);
                    }
                    _ => {}
                }
            }
            if mutations.is_empty() {
                continue;
            }
            out.push(Candidate {
                origin,
                views,
                mutations,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tssa_ir::{ConstValue, MutateKind, UnaryKind, ViewKind};

    fn cloned_base(g: &mut Graph) -> ValueId {
        let x = g.add_input("x", Type::Tensor);
        let cl = g.append(g.top(), Op::CloneOp, &[x], &[Type::Tensor]);
        g.out(cl)
    }

    #[test]
    fn view_chain_is_must_alias() {
        let mut g = Graph::new();
        let base = cloned_base(&mut g);
        let i = g.constant_int(0);
        let s1 = g.append(
            g.top(),
            Op::View(ViewKind::Select { dim: 0 }),
            &[base, i],
            &[Type::Tensor],
        );
        let v1 = g.out(s1);
        let s2 = g.append(
            g.top(),
            Op::View(ViewKind::Unsqueeze { dim: 0 }),
            &[v1],
            &[Type::Tensor],
        );
        let v2 = g.out(s2);
        g.append(
            g.top(),
            Op::Mutate(MutateKind::Relu),
            &[v1],
            &[Type::Tensor],
        );
        let a = AliasAnalysis::build(&g);
        assert!(a.must_alias(v2, base));
        assert!(a.must_alias(v1, v2));
        assert!(a.may_alias(v1, base));
        assert_eq!(a.origin_of(v2), base);
    }

    #[test]
    fn unrelated_tensors_do_not_alias() {
        let mut g = Graph::new();
        let a = cloned_base(&mut g);
        let y = g.add_input("y", Type::Tensor);
        let b = g.append(g.top(), UnaryKind::Relu, &[y], &[Type::Tensor]);
        let bv = g.out(b);
        let analysis = AliasAnalysis::build(&g);
        assert!(!analysis.may_alias(a, bv));
        assert!(!analysis.must_alias(a, bv));
    }

    #[test]
    fn candidate_requires_mutation() {
        let mut g = Graph::new();
        let base = cloned_base(&mut g);
        let i = g.constant_int(0);
        g.append(
            g.top(),
            Op::View(ViewKind::Select { dim: 0 }),
            &[base, i],
            &[Type::Tensor],
        );
        let a = AliasAnalysis::build(&g);
        assert!(a.candidates().is_empty());
    }

    #[test]
    fn graph_input_origin_is_rejected() {
        let mut g = Graph::new();
        let x = g.add_input("x", Type::Tensor);
        let i = g.constant_int(0);
        let s = g.append(
            g.top(),
            Op::View(ViewKind::Select { dim: 0 }),
            &[x, i],
            &[Type::Tensor],
        );
        let v = g.out(s);
        g.append(g.top(), Op::Mutate(MutateKind::Relu), &[v], &[Type::Tensor]);
        let a = AliasAnalysis::build(&g);
        assert!(a.candidates().is_empty());
    }

    #[test]
    fn container_dependency_taints_component() {
        let mut g = Graph::new();
        let base = cloned_base(&mut g);
        let i = g.constant_int(0);
        let s = g.append(
            g.top(),
            Op::View(ViewKind::Select { dim: 0 }),
            &[base, i],
            &[Type::Tensor],
        );
        let v = g.out(s);
        g.append(
            g.top(),
            Op::ListConstruct,
            &[v],
            &[Type::List(Box::new(Type::Tensor))],
        );
        g.append(g.top(), Op::Mutate(MutateKind::Relu), &[v], &[Type::Tensor]);
        let a = AliasAnalysis::build(&g);
        assert!(a.candidates().is_empty());
    }

    #[test]
    fn mutation_inside_loop_body_is_memory_only() {
        // Figure 4 shape: base cloned outside, view+mutate inside the loop
        // body referencing the outer tensor directly (no carried value).
        let mut g = Graph::new();
        let base = cloned_base(&mut g);
        let n = g.add_input("n", Type::Int);
        let t = g.constant_bool(true);
        let lp = g.append(g.top(), Op::Loop, &[n, t], &[]);
        let body = g.add_node_block(lp);
        let i = g.add_block_param(body, Type::Int);
        let sel = g.append(
            body,
            Op::View(ViewKind::Select { dim: 0 }),
            &[base, i],
            &[Type::Tensor],
        );
        let v = g.out(sel);
        g.append(body, Op::Mutate(MutateKind::Relu), &[v], &[Type::Tensor]);
        let cond = g.constant_in(body, ConstValue::Bool(true));
        g.set_returns(body, &[cond]);
        assert!(g.verify().is_ok(), "{:?}", g.verify());
        let a = AliasAnalysis::build(&g);
        assert_eq!(a.candidates().len(), 1);
        assert_eq!(a.candidates()[0].origin, base);
        assert_eq!(a.candidates()[0].mutations.len(), 1);
    }

    #[test]
    fn loop_carried_tensor_has_control_flow_edges() {
        let mut g = Graph::new();
        let base = cloned_base(&mut g);
        let n = g.add_input("n", Type::Int);
        let t = g.constant_bool(true);
        let lp = g.append(g.top(), Op::Loop, &[n, t, base], &[Type::Tensor]);
        let body = g.add_node_block(lp);
        let _i = g.add_block_param(body, Type::Int);
        let c = g.add_block_param(body, Type::Tensor);
        let idx = g.constant_in(body, ConstValue::Int(0));
        let sel = g.append(
            body,
            Op::View(ViewKind::Select { dim: 0 }),
            &[c, idx],
            &[Type::Tensor],
        );
        let v = g.out(sel);
        g.append(body, Op::Mutate(MutateKind::Relu), &[v], &[Type::Tensor]);
        let cond = g.constant_in(body, ConstValue::Bool(true));
        g.set_returns(body, &[cond, c]);
        let a = AliasAnalysis::build(&g);
        // The carried tensor's component has control-flow edges: excluded.
        assert!(a.candidates().is_empty());
        assert!(a.may_alias(base, c));
    }

    #[test]
    fn mutation_through_expand_rejected() {
        let mut g = Graph::new();
        let base = cloned_base(&mut g);
        let e = g.append(
            g.top(),
            Op::View(ViewKind::Expand { shape: vec![4, -1] }),
            &[base],
            &[Type::Tensor],
        );
        let v = g.out(e);
        g.append(g.top(), Op::Mutate(MutateKind::Relu), &[v], &[Type::Tensor]);
        let a = AliasAnalysis::build(&g);
        assert!(a.candidates().is_empty());
    }

    #[test]
    fn two_independent_components() {
        let mut g = Graph::new();
        let a = cloned_base(&mut g);
        let y = g.add_input("y", Type::Tensor);
        let cl = g.append(g.top(), Op::CloneOp, &[y], &[Type::Tensor]);
        let b = g.out(cl);
        let i = g.constant_int(0);
        for base in [a, b] {
            let s = g.append(
                g.top(),
                Op::View(ViewKind::Select { dim: 0 }),
                &[base, i],
                &[Type::Tensor],
            );
            let v = g.out(s);
            g.append(g.top(), Op::Mutate(MutateKind::Relu), &[v], &[Type::Tensor]);
        }
        let analysis = AliasAnalysis::build(&g);
        assert_eq!(analysis.candidates().len(), 2);
        assert!(!analysis.may_alias(a, b));
    }

    #[test]
    fn if_output_aliases_branch_returns() {
        let mut g = Graph::new();
        let x = g.add_input("x", Type::Tensor);
        let c = g.constant_bool(true);
        let iff = g.append(g.top(), Op::If, &[c], &[Type::Tensor]);
        let tb = g.add_node_block(iff);
        let eb = g.add_node_block(iff);
        let t1 = g.append(tb, UnaryKind::Relu, &[x], &[Type::Tensor]);
        let tv = g.out(t1);
        g.set_returns(tb, &[tv]);
        g.set_returns(eb, &[x]);
        let out = g.out(iff);
        let a = AliasAnalysis::build(&g);
        assert!(a.may_alias(out, tv));
        assert!(a.may_alias(out, x));
        assert!(!a.must_alias(out, tv));
    }
}
