//! Static shape inference over the graph IR, on the symbolic dim domain.
//!
//! Given (possibly partial, possibly *symbolic*) shapes for the graph
//! inputs, propagates dimension information through the program: broadcast
//! rules for elementwise operators, view/access rules for layout operators,
//! fixed-point iteration for loop-carried tensors, and branch merging for
//! `prim::If`. Each dimension is a [`SymDim`]: a normalized affine
//! expression over named input-dim variables (constants included) or ⊥ for
//! data-dependent extents, so the analysis can prove facts like "output dim
//! 0 is exactly `in0.d0`" instead of collapsing every non-constant to
//! unknown.
//!
//! Runtime integers are tracked alongside (`aten::size` yields the operand
//! dim's symbolic value; `+`/`-`/`*`-by-constant keep the affine form), so
//! slice bounds computed from shapes — `x[h-2:]`, `z[:, hs:hs*2]` — stay
//! symbolic instead of degrading to ⊥.
//!
//! Where propagation must *assume* something to stay precise (two non-unit
//! symbolic dims broadcast together, a constant slice bound on a symbolic
//! dim), the assumption is recorded as a [`Constraint`] rather than
//! silently trusted; the shape certifier in `tssa-lint` surfaces them in
//! the plan's `ShapeSignature`.
//!
//! The analysis is the one static definition of what each view and each
//! broadcast does to its operands' shapes. Where an attribute or an operand
//! pair fails for every input (a dim out of range, a squeeze of a dim that
//! is never 1, a broadcast of dims that never match), it records the reason
//! against the node ([`ShapeInfo::violation`]); `tssa-lint`'s deny rules
//! report those records. The shape certifier classifies input dims from the
//! shapes and constraints; the executor itself computes exact shapes
//! dynamically.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use crate::graph::{BlockId, Graph, NodeId, ValueId};
use crate::ops::{Op, ScalarKind, ViewKind};
use crate::symdim::{Constraint, DimUnionFind, DimVar, SymDim, SymExpr};
use crate::types::{ConstValue, Type};

/// A tensor shape: one [`SymDim`] per dimension.
pub type Shape = Vec<SymDim>;

/// The result of [`infer_shapes`]: per-value symbolic shapes (tensor values
/// only), symbolic runtime integers, the assumptions made en route, and the
/// nodes proven to fail on every input.
#[derive(Debug, Clone, Default)]
pub struct ShapeInfo {
    shapes: HashMap<ValueId, Shape>,
    ints: HashMap<ValueId, SymExpr>,
    constraints: Vec<Constraint>,
    violations: BTreeMap<NodeId, String>,
}

impl ShapeInfo {
    /// Shape of `value`, if it is a tensor whose rank could be determined.
    pub fn shape(&self, value: ValueId) -> Option<&Shape> {
        self.shapes.get(&value)
    }

    /// Shape of `value` with each dim collapsed to `Some(constant)` /
    /// `None` — the pre-symbolic view of the world, for callers that only
    /// care about static constants.
    pub fn concrete(&self, value: ValueId) -> Option<Vec<Option<usize>>> {
        self.shapes
            .get(&value)
            .map(|s| s.iter().map(SymDim::as_const).collect())
    }

    /// Whether every dimension of `value` is a statically known constant.
    pub fn fully_known(&self, value: ValueId) -> bool {
        self.shapes
            .get(&value)
            .map(|s| s.iter().all(|d| d.as_const().is_some()))
            .unwrap_or(false)
    }

    /// The assumptions propagation made (deduplicated, in discovery order).
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Why `node` fails on every input, when the analysis proved it: a view
    /// whose attributes no operand shape satisfies, or a broadcast of a dim
    /// pair that can never match. One reason per node, from the node's last
    /// visit (the loop fixed point visits a body more than once).
    pub fn violation(&self, node: NodeId) -> Option<&str> {
        self.violations.get(&node).map(String::as_str)
    }

    fn set(&mut self, value: ValueId, shape: Shape) {
        self.shapes.insert(value, shape);
    }

    fn get(&self, value: ValueId) -> Option<Shape> {
        self.shapes.get(&value).cloned()
    }
}

/// `dim` as an index into a shape of rank `rank` (negative counts from the
/// end), or `None` when out of range. Rejects what the tensor library's
/// dim normalisation rejects: every dim at rank 0.
fn norm_dim(dim: i64, rank: usize) -> Option<usize> {
    let r = rank as i64;
    let d = if dim < 0 { dim + r } else { dim };
    (0..r).contains(&d).then_some(d as usize)
}

/// Dim `k` of `shape` aligned to broadcast rank `rank`: trailing dims line
/// up, and a missing leading dim reads as `one`.
fn aligned<'s>(shape: &'s Shape, rank: usize, k: usize, one: &'s SymDim) -> &'s SymDim {
    let pad = rank - shape.len();
    if k < pad {
        one
    } else {
        &shape[k - pad]
    }
}

/// Infer shapes for all tensor values of `g`, given *constant* shapes for
/// its inputs (one entry per graph input; `None` for non-tensor or unknown
/// inputs).
pub fn infer_shapes(g: &Graph, input_shapes: &[Option<Vec<usize>>]) -> ShapeInfo {
    let seeds: Vec<Option<Shape>> = input_shapes
        .iter()
        .map(|s| {
            s.as_ref()
                .map(|dims| dims.iter().map(|&d| SymDim::konst(d)).collect())
        })
        .collect();
    infer_shapes_seeded(g, &seeds)
}

/// Infer shapes with each tensor input seeded *symbolically*: input `i` of
/// rank `r` gets the shape `[in{i}.d0, …, in{i}.d{r-1}]`. Pass `None` for
/// non-tensor inputs or unknown ranks. This is the seeding the shape
/// certifier uses to discover which input dims a program is generic over.
pub fn infer_shapes_symbolic(g: &Graph, input_ranks: &[Option<usize>]) -> ShapeInfo {
    let seeds: Vec<Option<Shape>> = input_ranks
        .iter()
        .enumerate()
        .map(|(i, r)| r.map(|rank| (0..rank).map(|d| SymDim::var(i as u32, d as u32)).collect()))
        .collect();
    infer_shapes_seeded(g, &seeds)
}

/// Infer shapes from arbitrary symbolic seeds (one per graph input).
pub(crate) fn infer_shapes_seeded(g: &Graph, seeds: &[Option<Shape>]) -> ShapeInfo {
    let mut inf = Infer {
        g,
        info: ShapeInfo::default(),
        classes: DimUnionFind::default(),
    };
    let params = g.block(g.top()).params.clone();
    for (i, p) in params.iter().enumerate() {
        if let Some(Some(s)) = seeds.get(i) {
            inf.info.set(*p, s.clone());
        }
    }
    inf.block(g.top());
    inf.info.constraints.dedup();
    inf.info
}

struct Infer<'g> {
    g: &'g Graph,
    info: ShapeInfo,
    /// The variable-to-variable equalities assumed so far.
    classes: DimUnionFind,
}

impl Infer<'_> {
    // ------------------------------------------------------------ plumbing

    fn assume(&mut self, c: Constraint) {
        if self.info.constraints.contains(&c) {
            return;
        }
        if let Constraint::Eq(x, y) = &c {
            if let (Some(vx), Some(vy)) = (x.as_var(), y.as_var()) {
                self.classes.union(vx, vy);
            }
        }
        self.info.constraints.push(c);
    }

    /// Record why `n` fails on every input.
    fn refute(&mut self, n: NodeId, why: String) {
        self.info.violations.insert(n, why);
    }

    /// Record `a = b` unless trivially true or statically refuted elsewhere.
    fn assume_eq(&mut self, a: &SymExpr, b: &SymExpr) {
        if a == b {
            return;
        }
        self.assume(Constraint::Eq(a.clone(), b.clone()));
    }

    /// Record `a >= b` unless trivially true.
    fn assume_ge(&mut self, a: &SymExpr, b: &SymExpr) {
        if let Some(c) = a.sub(b).and_then(|d| d.as_const()) {
            if c >= 0 {
                return;
            }
        }
        self.assume(Constraint::Ge(a.clone(), b.clone()));
    }

    /// Symbolic value of a runtime int, when derivable: a tracked `ints`
    /// entry or a literal `prim::Constant`.
    fn sym_int(&self, v: ValueId) -> Option<SymExpr> {
        if let Some(e) = self.info.ints.get(&v) {
            return Some(e.clone());
        }
        match &self.g.node(self.g.def_node(v)?).op {
            Op::Constant(ConstValue::Int(x)) => Some(SymExpr::constant(*x)),
            _ => None,
        }
    }

    // ------------------------------------------------------- dim operators

    /// Join two dims required to be *equal* at runtime (concat off-dims,
    /// matmul contraction): equal stays, const-vs-symbolic refines to the
    /// constant under a recorded assumption, symbolic-vs-symbolic keeps one
    /// side under an equality assumption, contradictions widen to ⊥.
    fn unify(&mut self, a: &SymDim, b: &SymDim) -> SymDim {
        if a == b {
            return a.clone();
        }
        match (a, b) {
            (SymDim::Known(x), SymDim::Known(y)) => {
                if x.as_const().is_some() && y.as_const().is_some() {
                    // Two different constants: statically impossible.
                    return SymDim::Unknown(BTreeSet::new());
                }
                self.assume_eq(x, y);
                if x.as_const().is_some() {
                    a.clone()
                } else if y.as_const().is_some() {
                    b.clone()
                } else {
                    a.clone()
                }
            }
            _ => {
                let mut t = a.vars();
                t.extend(b.vars());
                SymDim::Unknown(t)
            }
        }
    }

    /// Broadcast one dim pair; `None` means statically incompatible.
    fn broadcast_dim(&mut self, da: &SymDim, db: &SymDim) -> Option<SymDim> {
        if da == db {
            return Some(da.clone());
        }
        match (da, db) {
            (SymDim::Known(a), SymDim::Known(b)) => match (a.as_const(), b.as_const()) {
                (Some(1), _) => Some(db.clone()),
                (_, Some(1)) => Some(da.clone()),
                (Some(_), Some(_)) => None, // two different non-unit constants
                // A non-unit constant wins: the other side must be 1 or
                // equal to it at runtime, and the result is the constant
                // either way.
                (Some(_), None) => Some(da.clone()),
                (None, Some(_)) => Some(db.clone()),
                // Two distinct symbolic dims: assume equal (recorded) so the
                // result stays affine instead of widening to ⊥.
                (None, None) => {
                    self.assume_eq(a, b);
                    Some(da.clone())
                }
            },
            (SymDim::Unknown(t), SymDim::Known(e)) | (SymDim::Known(e), SymDim::Unknown(t)) => {
                match e.as_const() {
                    Some(1) => Some(SymDim::Unknown(t.clone())),
                    Some(n) => Some(SymDim::konst(n as usize)),
                    None => {
                        let mut taint = t.clone();
                        taint.extend(e.vars());
                        Some(SymDim::Unknown(taint))
                    }
                }
            }
            (SymDim::Unknown(ta), SymDim::Unknown(tb)) => {
                let mut t = ta.clone();
                t.extend(tb.iter().copied());
                Some(SymDim::Unknown(t))
            }
        }
    }

    /// Broadcast two shapes; `None` means statically incompatible.
    fn broadcast(&mut self, a: &Shape, b: &Shape) -> Option<Shape> {
        let rank = a.len().max(b.len());
        let one = SymDim::konst(1);
        let mut out = Vec::with_capacity(rank);
        for k in 0..rank {
            let (da, db) = (aligned(a, rank, k, &one), aligned(b, rank, k, &one));
            out.push(self.broadcast_dim(da, db)?);
        }
        Some(out)
    }

    /// Record against broadcasting node `n` the first pair of its operand
    /// shapes, in operand order, with a dim pair no input can make
    /// compatible: no assignment of extents makes the two equal, and neither
    /// can be 1. Each disjunct is refuted on its own, which is sound: if all
    /// three are unsatisfiable, so is their disjunction.
    fn refute_broadcast(&mut self, n: NodeId, operands: &[Option<&Shape>]) {
        let one = SymDim::konst(1);
        for (i, a) in operands.iter().enumerate() {
            for b in &operands[i + 1..] {
                let (Some(a), Some(b)) = (a, b) else { continue };
                let rank = a.len().max(b.len());
                for k in 0..rank {
                    let (da, db) = (aligned(a, rank, k, &one), aligned(b, rank, k, &one));
                    let (Some(x), Some(y)) = (da.expr(), db.expr()) else {
                        continue;
                    };
                    if !x.can_equal(1)
                        && !y.can_equal(1)
                        && x.sub(y).is_some_and(|d| !d.can_equal(0))
                    {
                        let why = format!(
                            "dim {k}: {da} can never broadcast against {db} \
                             (incompatible for every input)"
                        );
                        self.refute(n, why);
                        return;
                    }
                }
            }
        }
    }

    /// Merge shapes from two control-flow paths: agreeing dims stay, others
    /// widen to ⊥ carrying both sides' variables as taint.
    fn merge(a: &Shape, b: &Shape) -> Shape {
        if a.len() != b.len() {
            // Rank disagreement: fall back to the shorter-rank unknown form.
            let mut taint = BTreeSet::new();
            for d in a.iter().chain(b) {
                taint.extend(d.vars());
            }
            return vec![SymDim::Unknown(taint); a.len().min(b.len())];
        }
        a.iter().zip(b).map(|(x, y)| x.join(y)).collect()
    }

    /// `a` and `b` denote the same extent under the equality assumptions
    /// recorded so far: identical, or equal once every variable is rewritten
    /// to its `Eq`-class representative. Only variable-to-variable
    /// equalities build classes (constant refinements are already folded in
    /// by [`Infer::unify`]).
    fn assumed_equal(&mut self, a: &SymExpr, b: &SymExpr) -> bool {
        if a == b {
            return true;
        }
        let a = self.classes.canon(a);
        a.is_some() && a == self.classes.canon(b)
    }

    /// Loop-head join: like [`Infer::merge`], except a carried dim whose
    /// body result differs only by an *already-assumed* equality keeps the
    /// carried expression instead of widening to ⊥. The body's broadcast /
    /// contraction steps record those `Eq` assumptions before the first
    /// join runs, so a shape-invariant recurrence (`h = f(h)` with `h`
    /// flowing through matmuls against carried-in weights) stays `Known`;
    /// a genuinely growing dim (`h = cat(h, x)`) shares no assumed
    /// equality and still widens with taint.
    fn join_assumed(&mut self, a: &Shape, b: &Shape) -> Shape {
        if a.len() != b.len() {
            return Self::merge(a, b);
        }
        a.iter()
            .zip(b)
            .map(|(x, y)| match (x.expr(), y.expr()) {
                (Some(ea), Some(eb)) if self.assumed_equal(ea, eb) => x.clone(),
                _ => x.join(y),
            })
            .collect()
    }

    /// Total element count as an affine expression, when at most one dim is
    /// non-constant (a product of two variables is not affine).
    fn numel(shape: &Shape) -> Option<SymExpr> {
        let mut acc = SymExpr::constant(1);
        for d in shape {
            let e = d.expr()?;
            acc = match (acc.as_const(), e.as_const()) {
                (_, Some(k)) => acc.mul_const(k)?,
                (Some(k), None) => e.mul_const(k)?,
                (None, None) => return None,
            };
        }
        Some(acc)
    }

    fn all_vars(shape: &Shape) -> BTreeSet<DimVar> {
        let mut t = BTreeSet::new();
        for d in shape {
            t.extend(d.vars());
        }
        t
    }

    // ----------------------------------------------------------- the views

    /// Resolve a slice bound against the (known) dim size `size`, recording
    /// the in-range assumptions the symbolic form relies on.
    fn resolve_bound(&mut self, bound: &SymExpr, size: &SymExpr) -> Option<SymExpr> {
        if bound == size {
            return Some(size.clone());
        }
        if let Some(v) = bound.as_const() {
            if v == i64::MAX {
                // The frontend lowers an open-ended slice (`x[4:]`) with an
                // i64::MAX end; clamping to the size is exact.
                return Some(size.clone());
            }
            if v < 0 {
                self.assume_ge(size, &SymExpr::constant(v.checked_neg()?));
                return size.add(&SymExpr::constant(v));
            }
            self.assume_ge(size, bound);
            return Some(bound.clone());
        }
        // Symbolic bound (e.g. `h-2`, `hs*2`): assume it lies in [0, size].
        self.assume_ge(bound, &SymExpr::constant(0));
        self.assume_ge(size, bound);
        Some(bound.clone())
    }

    /// The length of `slice(start, end, step)` over a dim of extent `size`.
    fn slice_len(&mut self, size: &SymDim, extras: &[ValueId]) -> SymDim {
        let mut taint = size.vars();
        for &v in &extras[..2] {
            if let Some(e) = self.sym_int(v) {
                taint.extend(e.vars());
            }
        }
        let Some(step) = self.sym_int(extras[2]).and_then(|e| e.as_const()) else {
            return SymDim::Unknown(taint);
        };
        if step <= 0 {
            return SymDim::Unknown(taint);
        }
        let (Some(start), Some(end)) = (self.sym_int(extras[0]), self.sym_int(extras[1])) else {
            return SymDim::Unknown(taint);
        };
        let SymDim::Known(sz) = size else {
            return SymDim::Unknown(taint);
        };
        if let (Some(s0), Some(e0), Some(szc)) = (start.as_const(), end.as_const(), sz.as_const()) {
            // Fully constant: exact clamped arithmetic, no assumptions.
            let clamp = |v: i64| {
                let v = if v < 0 { v + szc } else { v };
                v.clamp(0, szc)
            };
            let a = clamp(s0);
            let b = clamp(e0).max(a);
            return SymDim::konst((b - a).unsigned_abs().div_ceil(step as u64) as usize);
        }
        let bounds = (self.resolve_bound(&start, sz), self.resolve_bound(&end, sz));
        let (Some(a), Some(b)) = bounds else {
            return SymDim::Unknown(taint);
        };
        let Some(diff) = b.sub(&a) else {
            return SymDim::Unknown(taint);
        };
        if let Some(c) = diff.as_const() {
            let c = c.max(0);
            return SymDim::konst(c.unsigned_abs().div_ceil(step as u64) as usize);
        }
        if step == 1 {
            self.assume_ge(&b, &a);
            SymDim::Known(diff)
        } else {
            // Ceil-division of a symbolic length is not affine.
            SymDim::Unknown(diff.vars().collect())
        }
    }

    fn resolve_reshape(
        &self,
        shape: &[i64],
        total: Option<SymExpr>,
        taint: &BTreeSet<DimVar>,
    ) -> Shape {
        let known: i64 = shape.iter().filter(|&&d| d >= 0).product();
        shape
            .iter()
            .map(|&d| {
                if d == -1 {
                    let inferred =
                        total.as_ref().and_then(
                            |t| {
                                if known > 0 {
                                    t.div_exact(known)
                                } else {
                                    None
                                }
                            },
                        );
                    match inferred {
                        Some(e) => SymDim::Known(e),
                        None => SymDim::Unknown(
                            total
                                .as_ref()
                                .map(|t| t.vars().collect())
                                .unwrap_or_else(|| taint.clone()),
                        ),
                    }
                } else {
                    SymDim::konst(d.max(0) as usize)
                }
            })
            .collect()
    }

    /// The shape view node `n` of kind `kind` makes of `base`; `None` when
    /// the analysis cannot tell. An attribute no shape of the operand
    /// satisfies is recorded against `n`.
    fn view_shape(
        &mut self,
        n: NodeId,
        kind: &ViewKind,
        base: &Shape,
        extras: &[ValueId],
    ) -> Option<Shape> {
        let rank = base.len();
        match kind {
            ViewKind::Select { dim } | ViewKind::SliceView { dim } => {
                let Some(d) = norm_dim(*dim, rank) else {
                    self.refute(n, format!("dim {dim} out of range for rank {rank}"));
                    return None;
                };
                let mut s = base.clone();
                if matches!(kind, ViewKind::Select { .. }) {
                    s.remove(d);
                } else {
                    s[d] = self.slice_len(&base[d], extras);
                }
                Some(s)
            }
            ViewKind::Permute { perm } => {
                let mut seen = vec![false; rank];
                let is_perm = perm.len() == rank
                    && perm.iter().all(|&p| {
                        norm_dim(p, rank).is_some_and(|d| !std::mem::replace(&mut seen[d], true))
                    });
                if !is_perm {
                    let why = format!("permutation {perm:?} is not a permutation of 0..{rank}");
                    self.refute(n, why);
                }
                if perm.len() != rank {
                    return None;
                }
                perm.iter()
                    .map(|&p| base.get(p as usize).cloned())
                    .collect()
            }
            ViewKind::Transpose { dim0, dim1 } => {
                let (Some(d0), Some(d1)) = (norm_dim(*dim0, rank), norm_dim(*dim1, rank)) else {
                    let why =
                        format!("transpose dims ({dim0}, {dim1}) out of range for rank {rank}");
                    self.refute(n, why);
                    return None;
                };
                let mut s = base.clone();
                s.swap(d0, d1);
                Some(s)
            }
            ViewKind::Unsqueeze { dim } => {
                let Some(d) = norm_dim(*dim, rank + 1) else {
                    self.refute(
                        n,
                        format!("unsqueeze dim {dim} out of range for rank {rank}"),
                    );
                    return None;
                };
                let mut s = base.clone();
                s.insert(d, SymDim::konst(1));
                Some(s)
            }
            ViewKind::Squeeze { dim } => {
                let Some(d) = norm_dim(*dim, rank) else {
                    self.refute(n, format!("squeeze dim {dim} out of range for rank {rank}"));
                    return None;
                };
                // The symbolic domain proves a dim never 1 even when it is
                // not constant (`2*in0.d0` after `cat(x, x)`).
                if let Some(e) = base[d].expr().filter(|e| !e.can_equal(1)) {
                    self.refute(
                        n,
                        format!("squeeze dim {dim} of size {e} (provably never 1)"),
                    );
                }
                let mut s = base.clone();
                s.remove(d);
                Some(s)
            }
            ViewKind::Expand { shape } => {
                let Some(pad) = shape.len().checked_sub(rank) else {
                    let why = format!(
                        "expand to rank {} from rank {rank} (cannot drop dims)",
                        shape.len()
                    );
                    self.refute(n, why);
                    return None;
                };
                // Only a dim that can be 1, or already is the target, expands.
                for (i, (dim, &t)) in base.iter().zip(&shape[pad..]).enumerate() {
                    let at = pad + i;
                    let why = if t == -1 {
                        continue;
                    } else if let Some(d) = dim.as_const() {
                        if d == 1 || t == d as i64 {
                            continue;
                        }
                        format!("expand dim {at} from size {d} to {t} (only size-1 dims broadcast)")
                    } else if let Some(e) = dim.expr() {
                        if t < 0 || e.can_equal(1) || e.can_equal(t) {
                            continue;
                        }
                        format!("expand dim {at} from size {e} to {t} (provably neither 1 nor {t})")
                    } else {
                        continue;
                    };
                    self.refute(n, why);
                    break;
                }
                Some(
                    shape
                        .iter()
                        .enumerate()
                        .map(|(i, &d)| {
                            if d == -1 {
                                if i >= pad {
                                    base[i - pad].clone()
                                } else {
                                    SymDim::unknown()
                                }
                            } else {
                                SymDim::konst(d.max(0) as usize)
                            }
                        })
                        .collect(),
                )
            }
            ViewKind::ViewShape { shape } => {
                let total = Self::numel(base);
                // A fixed element count the affine count can never reach
                // (`4*in0.d0` elements into 6) fails on every input.
                if !shape.contains(&-1) {
                    let fixed = shape.iter().try_fold(1i64, |acc, &d| acc.checked_mul(d));
                    if let (Some(tn), Some(e)) = (fixed, &total) {
                        if tn >= 0 && !e.can_equal(tn) {
                            let why = format!(
                                "reshape to {shape:?} ({tn} elements) from {e} elements \
                                 (unsatisfiable)"
                            );
                            self.refute(n, why);
                        }
                    }
                }
                let taint = Self::all_vars(base);
                Some(self.resolve_reshape(shape, total, &taint))
            }
        }
    }

    fn unknown_like(&self, v: ValueId) -> Shape {
        self.info
            .get(v)
            .map(|s| {
                let taint = Self::all_vars(&s);
                vec![SymDim::Unknown(taint); s.len()]
            })
            .unwrap_or_default()
    }

    // ----------------------------------------------------------- the walk

    #[allow(clippy::too_many_lines)]
    fn block(&mut self, block: BlockId) {
        let g = self.g;
        for &n in &g.block(block).nodes {
            // A node revisited by the loop fixed point keeps only the
            // violation of its last visit.
            self.info.violations.remove(&n);
            let node = g.node(n);
            let in_shape = |inf: &Self, i: usize| -> Option<Shape> {
                node.inputs.get(i).and_then(|&v| inf.info.get(v))
            };
            match &node.op {
                Op::If => {
                    let (then_b, else_b) = (node.blocks[0], node.blocks[1]);
                    self.block(then_b);
                    self.block(else_b);
                    for (i, &out) in node.outputs.iter().enumerate() {
                        match g.value(out).ty {
                            Type::Tensor => {
                                let t = self.info.get(g.block(then_b).returns[i]);
                                let e = self.info.get(g.block(else_b).returns[i]);
                                if let (Some(t), Some(e)) = (t, e) {
                                    self.info.set(out, Self::merge(&t, &e));
                                }
                            }
                            Type::Int => {
                                let t = self.sym_int(g.block(then_b).returns[i]);
                                let e = self.sym_int(g.block(else_b).returns[i]);
                                if let (Some(t), Some(e)) = (t, e) {
                                    if t == e {
                                        self.info.ints.insert(out, t);
                                    }
                                }
                            }
                            _ => {}
                        }
                    }
                }
                Op::Loop => {
                    let body = node.blocks[0];
                    let params = g.block(body).params.clone();
                    // Seed carried params with the initial shapes, then run
                    // the body and widen (join) until the carried shapes
                    // stabilize. The join only moves dims down the lattice
                    // (Known -> ⊥ with growing taint), so the iteration
                    // terminates; the cap is belt and braces.
                    for (k, &p) in params.iter().enumerate().skip(1) {
                        if let Some(s) = self.info.get(node.inputs[1 + k]) {
                            self.info.set(p, s);
                        }
                    }
                    for _ in 0..8 {
                        self.block(body);
                        let mut changed = false;
                        for (k, &p) in params.iter().enumerate().skip(1) {
                            let ret = g.block(body).returns[k];
                            if let (Some(a), Some(b)) = (self.info.get(p), self.info.get(ret)) {
                                let joined = self.join_assumed(&a, &b);
                                if joined != a {
                                    self.info.set(p, joined);
                                    changed = true;
                                }
                            }
                        }
                        if !changed {
                            break;
                        }
                    }
                    for (k, &out) in node.outputs.iter().enumerate() {
                        if let Some(s) = self.info.get(g.block(body).returns[1 + k]) {
                            self.info.set(out, s);
                        }
                    }
                }
                Op::FusionGroup => {
                    let body = node.blocks[0];
                    for (k, &p) in g.block(body).params.iter().enumerate() {
                        if let Some(s) = self.info.get(node.inputs[k]) {
                            self.info.set(p, s);
                        } else if let Some(e) = self.sym_int(node.inputs[k]) {
                            self.info.ints.insert(p, e);
                        }
                    }
                    self.block(body);
                    for (k, &out) in node.outputs.iter().enumerate() {
                        if let Some(s) = self.info.get(g.block(body).returns[k]) {
                            self.info.set(out, s);
                        }
                    }
                }
                Op::ParallelMap { .. } => {
                    self.block(node.blocks[0]);
                    if let Some(s) = in_shape(self, 1) {
                        self.info.set(node.outputs[0], s);
                    }
                }
                Op::View(kind) | Op::Access(kind) => {
                    if let Some(base) = in_shape(self, 0) {
                        let kind = kind.clone();
                        if let Some(s) = self.view_shape(n, &kind, &base, &node.inputs[1..]) {
                            self.info.set(node.outputs[0], s);
                        } else {
                            let u = self.unknown_like(node.inputs[0]);
                            self.info.set(node.outputs[0], u);
                        }
                    }
                }
                Op::Assign(_) | Op::Mutate(_) | Op::CloneOp | Op::Contiguous => {
                    if let Some(s) = in_shape(self, 0) {
                        if let Some(&out) = node.outputs.first() {
                            self.info.set(out, s);
                        }
                    }
                }
                Op::Binary(_) => {
                    let (a, b) = (in_shape(self, 0), in_shape(self, 1));
                    self.refute_broadcast(n, &[a.as_ref(), b.as_ref()]);
                    if let (Some(a), Some(b)) = (a, b) {
                        if let Some(s) = self.broadcast(&a, &b) {
                            self.info.set(node.outputs[0], s);
                        }
                    }
                }
                Op::WhereSelect => {
                    let (c, a, b) = (in_shape(self, 0), in_shape(self, 1), in_shape(self, 2));
                    self.refute_broadcast(n, &[c.as_ref(), a.as_ref(), b.as_ref()]);
                    if let (Some(c), Some(a), Some(b)) = (c, a, b) {
                        if let Some(s) = self
                            .broadcast(&a, &b)
                            .and_then(|ab| self.broadcast(&c, &ab))
                        {
                            self.info.set(node.outputs[0], s);
                        }
                    }
                }
                Op::Unary(_)
                | Op::Cast { .. }
                | Op::Softmax { .. }
                | Op::Cumsum { .. }
                | Op::ZerosLike
                | Op::OnesLike
                | Op::FullLike => {
                    if let Some(s) = in_shape(self, 0) {
                        self.info.set(node.outputs[0], s);
                    }
                }
                Op::BroadcastLike => {
                    if let Some(s) = in_shape(self, 1) {
                        self.info.set(node.outputs[0], s);
                    }
                }
                Op::SumDim { dim, keepdim }
                | Op::MeanDim { dim, keepdim }
                | Op::MaxDim { dim, keepdim }
                | Op::MinDim { dim, keepdim }
                | Op::ArgmaxDim { dim, keepdim } => {
                    if let Some(mut s) = in_shape(self, 0) {
                        if let Some(d) = norm_dim(*dim, s.len()) {
                            if *keepdim {
                                s[d] = SymDim::konst(1);
                            } else {
                                s.remove(d);
                            }
                            self.info.set(node.outputs[0], s);
                        }
                    }
                }
                Op::Matmul => {
                    if let (Some(a), Some(b)) = (in_shape(self, 0), in_shape(self, 1)) {
                        if a.len() == 2 && b.len() == 2 {
                            self.unify(&a[1], &b[0]); // contraction dims agree
                            self.info
                                .set(node.outputs[0], vec![a[0].clone(), b[1].clone()]);
                        }
                    }
                }
                Op::Bmm => {
                    if let (Some(a), Some(b)) = (in_shape(self, 0), in_shape(self, 1)) {
                        if a.len() == 3 && b.len() == 3 {
                            self.unify(&a[0], &b[0]);
                            self.unify(&a[2], &b[1]);
                            self.info.set(
                                node.outputs[0],
                                vec![a[0].clone(), a[1].clone(), b[2].clone()],
                            );
                        }
                    }
                }
                Op::Concat { dim } => {
                    let shapes: Option<Vec<Shape>> =
                        node.inputs.iter().map(|&v| self.info.get(v)).collect();
                    if let Some(shapes) = shapes {
                        if let Some(first) = shapes.first() {
                            // The tensor library checks the dim against
                            // the first operand, then every operand's rank.
                            let rank = first.len();
                            let other_rank = shapes.iter().position(|s| s.len() != rank);
                            match (norm_dim(*dim, rank), other_rank) {
                                (None, _) => {
                                    let why = format!("dim {dim} out of range for rank {rank}");
                                    self.refute(n, why);
                                }
                                (Some(_), Some(i)) => {
                                    let why = format!(
                                        "cat operand {i} has rank {}, operand 0 has rank {rank}",
                                        shapes[i].len()
                                    );
                                    self.refute(n, why);
                                }
                                (Some(d), None) => {
                                    let mut out = first.clone();
                                    // The concat dim is the affine sum; any ⊥
                                    // operand widens it.
                                    let mut acc = Some(SymExpr::constant(0));
                                    let mut taint = BTreeSet::new();
                                    for s in &shapes {
                                        taint.extend(s[d].vars());
                                        acc = match (&acc, s[d].expr()) {
                                            (Some(a), Some(e)) => a.add(e),
                                            _ => None,
                                        };
                                    }
                                    out[d] = match acc {
                                        Some(e) => SymDim::Known(e),
                                        None => SymDim::Unknown(taint),
                                    };
                                    // Off-dims must agree across operands.
                                    for s in &shapes[1..] {
                                        for i in 0..out.len() {
                                            if i != d {
                                                out[i] = self.unify(&out[i], &s[i]);
                                            }
                                        }
                                    }
                                    self.info.set(node.outputs[0], out);
                                }
                            }
                        }
                    }
                }
                Op::Stack { dim } => {
                    if let Some(first) = in_shape(self, 0) {
                        if let Some(d) = norm_dim(*dim, first.len() + 1) {
                            let mut out = first.clone();
                            out.insert(d, SymDim::konst(node.inputs.len()));
                            self.info.set(node.outputs[0], out);
                        }
                    }
                }
                Op::Gather { .. } => {
                    if let Some(idx) = in_shape(self, 1) {
                        self.info.set(node.outputs[0], idx);
                    }
                }
                Op::IndexSelect { dim } => {
                    if let (Some(mut base), Some(idx)) = (in_shape(self, 0), in_shape(self, 1)) {
                        if let Some(d) = norm_dim(*dim, base.len()) {
                            base[d] = idx.first().cloned().unwrap_or_else(SymDim::unknown);
                            self.info.set(node.outputs[0], base);
                        }
                    }
                }
                Op::Reshape { shape } => {
                    let (total, taint) = in_shape(self, 0)
                        .map(|s| (Self::numel(&s), Self::all_vars(&s)))
                        .unwrap_or((None, BTreeSet::new()));
                    let s = self.resolve_reshape(shape, total, &taint);
                    self.info.set(node.outputs[0], s);
                }
                Op::Zeros { shape } | Op::Ones { shape } | Op::Full { shape } => {
                    self.info.set(
                        node.outputs[0],
                        shape
                            .iter()
                            .map(|&d| SymDim::konst(d.max(0) as usize))
                            .collect(),
                    );
                }
                Op::Arange => {
                    let dim = match self.sym_int(node.inputs[0]) {
                        Some(e) => match e.as_const() {
                            Some(v) => SymDim::konst(v.max(0) as usize),
                            None => {
                                self.assume_ge(&e, &SymExpr::constant(0));
                                SymDim::Known(e)
                            }
                        },
                        None => SymDim::unknown(),
                    };
                    self.info.set(node.outputs[0], vec![dim]);
                }
                // ------------------------------------------ runtime ints
                Op::Constant(ConstValue::Int(x)) => {
                    self.info
                        .ints
                        .insert(node.outputs[0], SymExpr::constant(*x));
                }
                Op::Size { dim } => {
                    if let Some(s) = in_shape(self, 0) {
                        if let Some(d) = norm_dim(*dim, s.len()) {
                            if let SymDim::Known(e) = &s[d] {
                                self.info.ints.insert(node.outputs[0], e.clone());
                            }
                        }
                    }
                }
                Op::Scalar(kind) => {
                    // Affine integer arithmetic; a product of two symbols or
                    // an overflow is not tracked.
                    let int = |i: usize| node.inputs.get(i).and_then(|&v| self.sym_int(v));
                    let ints = || int(0).zip(int(1));
                    let e = match kind {
                        ScalarKind::IntAdd => ints().and_then(|(a, b)| a.add(&b)),
                        ScalarKind::IntSub => ints().and_then(|(a, b)| a.sub(&b)),
                        ScalarKind::IntMul => {
                            ints().and_then(|(a, b)| match (a.as_const(), b.as_const()) {
                                (_, Some(k)) => a.mul_const(k),
                                (Some(k), None) => b.mul_const(k),
                                (None, None) => None,
                            })
                        }
                        ScalarKind::IntNeg => int(0).and_then(|a| a.mul_const(-1)),
                        _ => None,
                    };
                    if let Some(e) = e {
                        self.info.ints.insert(node.outputs[0], e);
                    }
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_graph;

    fn shapes_of(src: &str, inputs: &[Option<Vec<usize>>]) -> (Graph, ShapeInfo) {
        let g = parse_graph(src).unwrap();
        let info = infer_shapes(&g, inputs);
        (g, info)
    }

    fn ret_shape(g: &Graph, info: &ShapeInfo, i: usize) -> Vec<Option<usize>> {
        info.concrete(g.block(g.top()).returns[i]).unwrap()
    }

    fn ret_sym(g: &Graph, info: &ShapeInfo, i: usize) -> Vec<String> {
        info.shape(g.block(g.top()).returns[i])
            .unwrap()
            .iter()
            .map(|d| d.to_string())
            .collect()
    }

    #[test]
    fn elementwise_broadcast_shapes() {
        let (g, info) = shapes_of(
            "graph(%a : Tensor, %b : Tensor):
               %c : Tensor = aten::add(%a, %b)
               return (%c)",
            &[Some(vec![4, 1, 3]), Some(vec![5, 1])],
        );
        assert_eq!(ret_shape(&g, &info, 0), vec![Some(4), Some(5), Some(3)]);
    }

    #[test]
    fn views_and_reductions() {
        let (g, info) = shapes_of(
            "graph(%x : Tensor):
               %i : int = prim::Constant[value=1]()
               %v : Tensor = aten::select[dim=0](%x, %i)
               %u : Tensor = aten::unsqueeze[dim=0](%v)
               %s : Tensor = aten::sum[dim=1, keepdim=true](%x)
               return (%u, %s)",
            &[Some(vec![3, 7])],
        );
        assert_eq!(ret_shape(&g, &info, 0), vec![Some(1), Some(7)]);
        assert_eq!(ret_shape(&g, &info, 1), vec![Some(3), Some(1)]);
    }

    #[test]
    fn constant_slice_known_runtime_slice_unknown() {
        let (g, info) = shapes_of(
            "graph(%x : Tensor, %e : int):
               %a : int = prim::Constant[value=1]()
               %b : int = prim::Constant[value=5]()
               %s : int = prim::Constant[value=2]()
               %v : Tensor = aten::slice[dim=0](%x, %a, %b, %s)
               %w : Tensor = aten::slice[dim=0](%x, %a, %e, %s)
               return (%v, %w)",
            &[Some(vec![8, 2]), None],
        );
        assert_eq!(ret_shape(&g, &info, 0), vec![Some(2), Some(2)]);
        assert_eq!(ret_shape(&g, &info, 1), vec![None, Some(2)]);
    }

    #[test]
    fn matmul_concat_stack() {
        let (g, info) = shapes_of(
            "graph(%a : Tensor, %b : Tensor):
               %m : Tensor = aten::matmul(%a, %b)
               %c : Tensor = aten::cat[dim=0](%a, %a)
               %s : Tensor = aten::stack[dim=0](%a, %a)
               return (%m, %c, %s)",
            &[Some(vec![2, 3]), Some(vec![3, 5])],
        );
        assert_eq!(ret_shape(&g, &info, 0), vec![Some(2), Some(5)]);
        assert_eq!(ret_shape(&g, &info, 1), vec![Some(4), Some(3)]);
        assert_eq!(ret_shape(&g, &info, 2), vec![Some(2), Some(2), Some(3)]);
    }

    #[test]
    fn loop_carried_shapes_reach_fixed_point() {
        // The carried tensor keeps its shape through the body.
        let (g, info) = shapes_of(
            "graph(%x : Tensor, %n : int):
               %t : bool = prim::Constant[value=true]()
               %o : Tensor = prim::Loop(%n, %t, %x)
                 block0(%i : int, %c : Tensor):
                   %u : Tensor = aten::relu(%c)
                   -> (%t, %u)
               return (%o)",
            &[Some(vec![4, 4]), None],
        );
        assert_eq!(ret_shape(&g, &info, 0), vec![Some(4), Some(4)]);
    }

    #[test]
    fn branch_merge_keeps_agreeing_dims() {
        let (g, info) = shapes_of(
            "graph(%x : Tensor, %c : bool):
               %o : Tensor = prim::If(%c)
                 block0():
                   %a : Tensor = aten::relu(%x)
                   -> (%a)
                 block1():
                   %b : Tensor = aten::reshape[shape=[2, -1]](%x)
                   -> (%b)
               return (%o)",
            &[Some(vec![2, 6]), None],
        );
        // then: [2, 6]; else: [2, 6] → merged fully known.
        assert_eq!(ret_shape(&g, &info, 0), vec![Some(2), Some(6)]);
    }

    #[test]
    fn reshape_with_inferred_dim() {
        let (g, info) = shapes_of(
            "graph(%x : Tensor):
               %r : Tensor = aten::reshape[shape=[3, -1]](%x)
               return (%r)",
            &[Some(vec![6, 2])],
        );
        assert_eq!(ret_shape(&g, &info, 0), vec![Some(3), Some(4)]);
    }

    #[test]
    fn incompatible_broadcast_yields_no_shape() {
        let (g, info) = shapes_of(
            "graph(%a : Tensor, %b : Tensor):
               %c : Tensor = aten::add(%a, %b)
               return (%c)",
            &[Some(vec![2]), Some(vec![3])],
        );
        assert!(info.shape(g.block(g.top()).returns[0]).is_none());
    }

    #[test]
    fn unknown_inputs_flow_as_unknown() {
        let (g, info) = shapes_of(
            "graph(%x : Tensor):
               %y : Tensor = aten::sigmoid(%x)
               return (%y)",
            &[None],
        );
        assert!(info.shape(g.block(g.top()).returns[0]).is_none());
        assert!(!info.fully_known(g.block(g.top()).returns[0]));
    }

    // ------------------------------------------------------ symbolic seeds

    #[test]
    fn symbolic_inputs_stay_affine_through_views() {
        let g = parse_graph(
            "graph(%x : Tensor):
               %t : Tensor = aten::transpose[dim0=0, dim1=1](%x)
               %c : Tensor = aten::cat[dim=0](%x, %x)
               return (%t, %c)",
        )
        .unwrap();
        let info = infer_shapes_symbolic(&g, &[Some(2)]);
        assert_eq!(ret_sym(&g, &info, 0), vec!["in0.d1", "in0.d0"]);
        assert_eq!(ret_sym(&g, &info, 1), vec!["2*in0.d0", "in0.d1"]);
    }

    #[test]
    fn size_arithmetic_keeps_slices_symbolic() {
        // x[(h-2):] where h = x.size(0): length = h - (h-2) = 2, and the
        // open-ended remainder x[1:] has length h - 1.
        let g = parse_graph(
            "graph(%x : Tensor):
               %h : int = aten::size[dim=0](%x)
               %two : int = prim::Constant[value=2]()
               %hm2 : int = aten::int_sub(%h, %two)
               %one : int = prim::Constant[value=1]()
               %max : int = prim::Constant[value=9223372036854775807]()
               %v : Tensor = aten::slice[dim=0](%x, %hm2, %max, %one)
               %w : Tensor = aten::slice[dim=0](%x, %one, %max, %one)
               return (%v, %w)",
        )
        .unwrap();
        let info = infer_shapes_symbolic(&g, &[Some(2)]);
        assert_eq!(ret_sym(&g, &info, 0), vec!["2", "in0.d1"]);
        assert_eq!(ret_sym(&g, &info, 1), vec!["in0.d0-1", "in0.d1"]);
        // The h-2 start recorded its in-range assumption.
        assert!(
            info.constraints()
                .iter()
                .any(|c| c.to_string() == "in0.d0-2 >= 0"),
            "{:?}",
            info.constraints()
        );
    }

    #[test]
    fn overflowing_int_arithmetic_is_untracked() {
        // Each of %big, %neg and %twice overflows an i64 (the last in its
        // coefficient): the int is ⊥, not a panic, and so is the slice it
        // bounds.
        let g = parse_graph(
            "graph(%x : Tensor):
               %h : int = aten::size[dim=0](%x)
               %one : int = prim::Constant[value=1]()
               %max : int = prim::Constant[value=9223372036854775807]()
               %big : int = aten::int_add(%max, %one)
               %zero : int = prim::Constant[value=0]()
               %nmax : int = aten::int_sub(%zero, %max)
               %min : int = aten::int_sub(%nmax, %one)
               %neg : int = aten::int_neg(%min)
               %hmax : int = aten::int_mul(%h, %max)
               %twice : int = aten::int_add(%hmax, %hmax)
               %v : Tensor = aten::slice[dim=0](%x, %one, %twice, %one)
               %w : Tensor = aten::slice[dim=0](%x, %zero, %one, %max)
               return (%v, %big, %min, %neg, %w)",
        )
        .unwrap();
        let info = infer_shapes_symbolic(&g, &[Some(2)]);
        assert_eq!(ret_sym(&g, &info, 0), vec!["?", "in0.d1"]);
        // A step near i64::MAX: one element, no overflowing ceil-division.
        assert_eq!(ret_sym(&g, &info, 4), vec!["1", "in0.d1"]);
        let int = |i: usize| info.ints.get(&g.block(g.top()).returns[i]);
        assert_eq!(int(1), None);
        assert_eq!(int(2), Some(&SymExpr::constant(i64::MIN)));
        assert_eq!(int(3), None);
    }

    #[test]
    fn symbolic_broadcast_assumes_equality() {
        let g = parse_graph(
            "graph(%a : Tensor, %b : Tensor):
               %c : Tensor = aten::add(%a, %b)
               return (%c)",
        )
        .unwrap();
        let info = infer_shapes_symbolic(&g, &[Some(2), Some(2)]);
        assert_eq!(ret_sym(&g, &info, 0), vec!["in0.d0", "in0.d1"]);
        assert!(info
            .constraints()
            .iter()
            .any(|c| c.to_string() == "in0.d0 = in1.d0"));
    }

    #[test]
    fn loop_disagreement_widens_with_taint() {
        // The carried tensor is replaced by a same-rank reshape each
        // iteration, so its dims widen to ⊥ tainted by the input vars.
        let g = parse_graph(
            "graph(%x : Tensor, %n : int):
               %t : bool = prim::Constant[value=true]()
               %o : Tensor = prim::Loop(%n, %t, %x)
                 block0(%i : int, %c : Tensor):
                   %u : Tensor = aten::cat[dim=0](%c, %c)
                   -> (%t, %u)
               return (%o)",
        )
        .unwrap();
        let info = infer_shapes_symbolic(&g, &[Some(2), None]);
        let out = info.shape(g.block(g.top()).returns[0]).unwrap();
        match &out[0] {
            SymDim::Unknown(t) => assert!(
                t.contains(&DimVar { input: 0, dim: 0 }),
                "taint should blame in0.d0: {t:?}"
            ),
            other => panic!("dim 0 should have widened, got {other}"),
        }
        assert_eq!(out[1].to_string(), "in0.d1");
    }

    #[test]
    fn assumed_equal_recurrence_stays_known_through_the_loop() {
        // An RNN-style recurrence: the carried hidden state is rebuilt each
        // iteration as `matmul(h, w) + h`. The matmul result's dims differ
        // *syntactically* from the carried-in ones, but the broadcast with
        // `h` records the equalities as assumptions before the loop-head
        // join runs — so the carried shape must stay Known instead of
        // widening to ⊥ (the over-approximation that previously marked
        // every recurrent workload data-dependent).
        let g = parse_graph(
            "graph(%h0 : Tensor, %w : Tensor, %n : int):
               %t : bool = prim::Constant[value=true]()
               %h : Tensor = prim::Loop(%n, %t, %h0)
                 block0(%i : int, %c : Tensor):
                   %m : Tensor = aten::matmul(%c, %w)
                   %u : Tensor = aten::add(%m, %c)
                   -> (%t, %u)
               return (%h)",
        )
        .unwrap();
        let info = infer_shapes_symbolic(&g, &[Some(2), Some(2), None]);
        let out = info.shape(g.block(g.top()).returns[0]).unwrap();
        assert_eq!(out[0].to_string(), "in0.d0");
        // Dim 1 surfaces as the body's expression (`in1.d1`), assumed equal
        // to the carried-in `in0.d1` — Known either way, never ⊥.
        assert!(
            out.iter().all(|d| d.expr().is_some()),
            "recurrence must stay Known, got {out:?}"
        );
        let rendered: Vec<String> = info.constraints().iter().map(|c| c.to_string()).collect();
        assert!(
            rendered.iter().any(|c| c == "in1.d1 = in0.d1"),
            "the recurrence's shape-invariance assumption is recorded: {rendered:?}"
        );
    }

    #[test]
    fn concrete_seeding_matches_symbolic_concretization() {
        // γ-compatibility: running the analysis with constants must agree
        // with evaluating the symbolic result under those constants.
        let src = "graph(%x : Tensor):
               %c : Tensor = aten::cat[dim=1](%x, %x)
               %m : Tensor = aten::matmul(%x, %c)
               return (%m)";
        let g = parse_graph(src).unwrap();
        let conc = infer_shapes(&g, &[Some(vec![3, 3])]);
        let sym = infer_shapes_symbolic(&g, &[Some(2)]);
        let r = g.block(g.top()).returns[0];
        let env = |_v: DimVar| Some(3i64);
        let sym_shape = sym.shape(r).unwrap();
        let conc_shape = conc.concrete(r).unwrap();
        for (sd, cd) in sym_shape.iter().zip(&conc_shape) {
            assert!(sd.admits(cd.unwrap(), &env), "{sd} should admit {cd:?}");
        }
    }
}
