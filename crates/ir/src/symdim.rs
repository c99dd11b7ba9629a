//! The symbolic dimension domain for shape inference.
//!
//! Shape analysis used to track each dimension as `Option<usize>` — a known
//! constant or ⊥. That lattice cannot state the one fact a plan cache needs:
//! *which input dimensions a compiled plan is generic over*. This module
//! replaces the dim domain with [`SymDim`]:
//!
//! * a **known affine expression** over named input-dimension variables
//!   (`in0.d0`, `in2.d1`, …) with integer coefficients — constants are the
//!   degenerate expression with no variables;
//! * **⊥** ([`SymDim::Unknown`]) for data-dependent dimensions, carrying a
//!   *taint set* of the input-dim variables that fed the unknown (so a
//!   certifier can blame specific input dims for lost polymorphism).
//!
//! Affine expressions are kept normalized (terms sorted by variable,
//! zero coefficients dropped), which makes structural equality the semantic
//! equality test and keeps joins cheap. Products of two variables are not
//! representable and degrade soundly to ⊥.
//!
//! The module also defines [`ShapeSignature`]: the per-plan certificate the
//! `tssa-lint` shape certifier emits, classifying every graph input dim as
//! [`DimClass::Polymorphic`], [`DimClass::Specialized`] or
//! [`DimClass::DataDependent`], with symbolic output shapes and the
//! equality/ordering assumptions the analysis made as typed
//! [`Constraint`]s, and [`DimUnionFind`], the one solver of those
//! equalities.

use std::collections::{BTreeSet, HashMap};
use std::fmt;

/// A named input-dimension variable: dimension `dim` of graph input `input`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DimVar {
    /// Index of the graph input (top-block parameter).
    pub input: u32,
    /// Dimension index within that input's shape.
    pub dim: u32,
}

impl fmt::Display for DimVar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "in{}.d{}", self.input, self.dim)
    }
}

/// A normalized affine expression `c0 + Σ ci·vi` over [`DimVar`]s.
///
/// Terms are sorted by variable and never carry a zero coefficient, so two
/// expressions denote the same function iff they are `==`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SymExpr {
    c0: i64,
    terms: Vec<(DimVar, i64)>,
}

impl SymExpr {
    /// The constant expression `k`.
    pub fn constant(k: i64) -> SymExpr {
        SymExpr {
            c0: k,
            terms: Vec::new(),
        }
    }

    /// The single-variable expression `v`.
    pub fn var(v: DimVar) -> SymExpr {
        SymExpr {
            c0: 0,
            terms: vec![(v, 1)],
        }
    }

    /// Rebuild from raw parts (used by the plan-file decoder). Terms are
    /// re-normalized, so untrusted input cannot break the invariants;
    /// `None` when merging them overflows.
    pub fn from_parts(c0: i64, terms: impl IntoIterator<Item = (DimVar, i64)>) -> Option<SymExpr> {
        let mut e = SymExpr::constant(c0);
        for (v, c) in terms {
            e.add_term(v, c)?;
        }
        Some(e)
    }

    /// Add `c·v`; `None` when a coefficient overflows.
    fn add_term(&mut self, v: DimVar, c: i64) -> Option<()> {
        if c == 0 {
            return Some(());
        }
        match self.terms.binary_search_by_key(&v, |&(w, _)| w) {
            Ok(i) => {
                self.terms[i].1 = self.terms[i].1.checked_add(c)?;
                if self.terms[i].1 == 0 {
                    self.terms.remove(i);
                }
            }
            Err(i) => self.terms.insert(i, (v, c)),
        }
        Some(())
    }

    /// The constant term.
    pub fn constant_term(&self) -> i64 {
        self.c0
    }

    /// The `(variable, coefficient)` terms, sorted by variable.
    pub fn terms(&self) -> &[(DimVar, i64)] {
        &self.terms
    }

    /// `Some(k)` iff the expression is the constant `k`.
    pub fn as_const(&self) -> Option<i64> {
        self.terms.is_empty().then_some(self.c0)
    }

    /// `Some(v)` iff the expression is exactly the variable `v`.
    pub(crate) fn as_var(&self) -> Option<DimVar> {
        match (self.c0, self.terms.as_slice()) {
            (0, [(v, 1)]) => Some(*v),
            _ => None,
        }
    }

    /// Every variable occurring in the expression.
    pub fn vars(&self) -> impl Iterator<Item = DimVar> + '_ {
        self.terms.iter().map(|&(v, _)| v)
    }

    // Arithmetic is checked: an expression that overflows an `i64` is
    // `None`, which callers widen to ⊥ — the dim is merely unknown.

    /// `self + other`.
    pub fn add(&self, other: &SymExpr) -> Option<SymExpr> {
        let mut out = self.clone();
        out.c0 = out.c0.checked_add(other.c0)?;
        for &(v, c) in &other.terms {
            out.add_term(v, c)?;
        }
        Some(out)
    }

    /// `self - other`.
    pub fn sub(&self, other: &SymExpr) -> Option<SymExpr> {
        let mut out = self.clone();
        out.c0 = out.c0.checked_sub(other.c0)?;
        for &(v, c) in &other.terms {
            out.add_term(v, c.checked_neg()?)?;
        }
        Some(out)
    }

    /// `self * k`.
    pub fn mul_const(&self, k: i64) -> Option<SymExpr> {
        if k == 0 {
            return Some(SymExpr::constant(0));
        }
        Some(SymExpr {
            c0: self.c0.checked_mul(k)?,
            terms: (self.terms.iter())
                .map(|&(v, c)| Some((v, c.checked_mul(k)?)))
                .collect::<Option<_>>()?,
        })
    }

    /// `self / k` when every coefficient (and the constant) divides exactly.
    pub(crate) fn div_exact(&self, k: i64) -> Option<SymExpr> {
        let div = |c: i64| (c.checked_rem(k)? == 0).then(|| c / k);
        Some(SymExpr {
            c0: div(self.c0)?,
            terms: (self.terms.iter())
                .map(|&(v, c)| Some((v, div(c)?)))
                .collect::<Option<_>>()?,
        })
    }

    /// Evaluate under an assignment of the variables. `None` when `env`
    /// lacks a variable the expression mentions or the value overflows.
    pub fn eval(&self, env: &dyn Fn(DimVar) -> Option<i64>) -> Option<i64> {
        let mut acc = self.c0;
        for &(v, c) in &self.terms {
            acc = acc.checked_add(c.checked_mul(env(v)?)?)?;
        }
        Some(acc)
    }

    /// Whether *some* assignment of non-negative integers to the variables
    /// makes the expression equal `k`. Used to prove broadcasts impossible:
    /// `false` is a guarantee, `true` is "could not rule it out".
    pub fn can_equal(&self, k: i64) -> bool {
        let Some(d) = k.checked_sub(self.c0) else {
            return true;
        };
        if self.terms.is_empty() {
            return d == 0;
        }
        // Dimensions are non-negative: with all-positive coefficients the
        // expression can never drop below its constant term.
        if self.terms.iter().all(|&(_, c)| c > 0) && d < 0 {
            return false;
        }
        // The variable part is always a multiple of gcd(coefficients).
        let g = self
            .terms
            .iter()
            .fold(0i64, |acc, &(_, c)| gcd(acc, c.unsigned_abs() as i64));
        d % g == 0
    }
}

fn gcd(a: i64, b: i64) -> i64 {
    if b == 0 {
        a.abs()
    } else {
        gcd(b, a % b)
    }
}

impl fmt::Display for SymExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.terms.is_empty() {
            return write!(f, "{}", self.c0);
        }
        let mut first = true;
        for &(v, c) in &self.terms {
            if first {
                match c {
                    1 => write!(f, "{v}")?,
                    -1 => write!(f, "-{v}")?,
                    _ => write!(f, "{c}*{v}")?,
                }
                first = false;
            } else if c < 0 {
                if c == -1 {
                    write!(f, "-{v}")?;
                } else {
                    write!(f, "-{}*{v}", -c)?;
                }
            } else if c == 1 {
                write!(f, "+{v}")?;
            } else {
                write!(f, "+{c}*{v}")?;
            }
        }
        match self.c0.cmp(&0) {
            std::cmp::Ordering::Greater => write!(f, "+{}", self.c0),
            std::cmp::Ordering::Less => write!(f, "{}", self.c0),
            std::cmp::Ordering::Equal => Ok(()),
        }
    }
}

/// One dimension in the symbolic shape lattice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SymDim {
    /// A known affine expression over input-dim variables (constants
    /// included).
    Known(SymExpr),
    /// ⊥ — the dimension depends on runtime data. The taint set names the
    /// input-dim variables that flowed into the unknown (possibly empty,
    /// when the source is a non-shape runtime value).
    Unknown(BTreeSet<DimVar>),
}

impl SymDim {
    /// The known constant `n`.
    pub fn konst(n: usize) -> SymDim {
        SymDim::Known(SymExpr::constant(n as i64))
    }

    /// The input-dim variable `in{input}.d{dim}`.
    pub fn var(input: u32, dim: u32) -> SymDim {
        SymDim::Known(SymExpr::var(DimVar { input, dim }))
    }

    /// ⊥ with an empty taint set.
    pub fn unknown() -> SymDim {
        SymDim::Unknown(BTreeSet::new())
    }

    /// `Some(n)` iff the dimension is the known constant `n`.
    pub fn as_const(&self) -> Option<usize> {
        match self {
            SymDim::Known(e) => e.as_const().and_then(|v| usize::try_from(v).ok()),
            SymDim::Unknown(_) => None,
        }
    }

    /// The affine expression, when known.
    pub fn expr(&self) -> Option<&SymExpr> {
        match self {
            SymDim::Known(e) => Some(e),
            SymDim::Unknown(_) => None,
        }
    }

    /// Every variable the dimension mentions (expression vars or taint).
    pub fn vars(&self) -> BTreeSet<DimVar> {
        match self {
            SymDim::Known(e) => e.vars().collect(),
            SymDim::Unknown(t) => t.clone(),
        }
    }

    /// Lattice join: equal dims stay, disagreeing dims widen to ⊥ carrying
    /// the union of both sides' variables.
    pub fn join(&self, other: &SymDim) -> SymDim {
        if self == other {
            return self.clone();
        }
        let mut taint = self.vars();
        taint.extend(other.vars());
        SymDim::Unknown(taint)
    }

    /// Concretization membership: does the exact dimension `concrete` refine
    /// this symbolic dimension under the given variable assignment? ⊥ admits
    /// everything; a known expression must evaluate to exactly `concrete`
    /// (an unevaluable expression — missing variable — admits vacuously).
    pub fn admits(&self, concrete: usize, env: &dyn Fn(DimVar) -> Option<i64>) -> bool {
        match self {
            SymDim::Unknown(_) => true,
            SymDim::Known(e) => e.eval(env).is_none_or(|v| v == concrete as i64),
        }
    }
}

impl fmt::Display for SymDim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SymDim::Known(e) => write!(f, "{e}"),
            SymDim::Unknown(_) => write!(f, "?"),
        }
    }
}

/// An assumption the analysis made while propagating symbolic dims. The
/// certifier surfaces these in the [`ShapeSignature`]: a plan is only valid
/// for concrete shapes satisfying its constraints (the contract a bucketed
/// plan cache checks before reusing a plan).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Constraint {
    /// The two expressions must be equal (broadcast of two non-unit dims,
    /// matmul contraction, concat off-dims, …).
    Eq(SymExpr, SymExpr),
    /// `lhs >= rhs` (a constant slice bound on a symbolic dim, …).
    Ge(SymExpr, SymExpr),
}

impl Constraint {
    /// Whether the constraint holds on concrete input shapes. `shapes` has
    /// one entry per graph input (`None` for non-tensor inputs). Mirroring
    /// [`SymDim::admits`], a side that cannot be evaluated (a variable the
    /// shapes do not bind, an overflow) admits vacuously: `false` is a
    /// guarantee of violation, `true` is "could not rule it out".
    pub fn admits(&self, shapes: &[Option<Vec<usize>>]) -> bool {
        let env = |v: DimVar| -> Option<i64> {
            shapes
                .get(v.input as usize)?
                .as_ref()?
                .get(v.dim as usize)
                .map(|&n| n as i64)
        };
        let (Constraint::Eq(a, b) | Constraint::Ge(a, b)) = self;
        match (a.eval(&env), b.eval(&env)) {
            (Some(x), Some(y)) => match self {
                Constraint::Eq(..) => x == y,
                Constraint::Ge(..) => x >= y,
            },
            _ => true,
        }
    }
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Constraint::Eq(a, b) => write!(f, "{a} = {b}"),
            Constraint::Ge(a, b) => write!(f, "{a} >= {b}"),
        }
    }
}

/// Union-find over [`DimVar`]s, each class with an optional constant
/// extent: the one solver of the analysis's equality assumptions. Shape
/// inference unions the variable-to-variable equalities it records, so a
/// loop-carried dim that differs only by an assumed equality stays known;
/// the shape certifier solves every recorded [`Constraint`] with
/// [`DimUnionFind::solve`] to classify the input dims.
#[derive(Debug, Clone, Default)]
pub struct DimUnionFind {
    parent: HashMap<DimVar, DimVar>,
    bound: HashMap<DimVar, i64>,
}

impl DimUnionFind {
    /// Solve the equality constraints. Only the affine forms a solver can
    /// use exactly are consumed: `c·v = k` with exact, non-negative `k / c`
    /// binds `v`'s class to that constant, and `v = w` unions two classes.
    /// Everything else stays an assumption on the constraint list.
    pub fn solve(constraints: &[Constraint]) -> DimUnionFind {
        let mut classes = DimUnionFind::default();
        for c in constraints {
            let Constraint::Eq(a, b) = c else { continue };
            let Some(d) = a.sub(b) else { continue };
            match d.terms() {
                [(v, coef)] => {
                    // coef·v + c0 = 0  →  v = -c0/coef when exact and ≥ 0.
                    let c0 = d.constant_term();
                    if c0 % coef == 0 {
                        let k = -c0 / coef;
                        if k >= 0 {
                            classes.bind(*v, k);
                        }
                    }
                }
                [(v, 1), (w, -1)] | [(v, -1), (w, 1)] if d.constant_term() == 0 => {
                    classes.union(*v, *w);
                }
                _ => {}
            }
        }
        classes
    }

    /// The representative of `v`'s class.
    pub fn find(&mut self, v: DimVar) -> DimVar {
        let p = *self.parent.get(&v).unwrap_or(&v);
        if p == v {
            return v;
        }
        let root = self.find(p);
        self.parent.insert(v, root);
        root
    }

    /// Merge the classes of `a` and `b`; the merged class keeps `a`'s
    /// constant, or `b`'s when `a`'s class has none.
    pub(crate) fn union(&mut self, a: DimVar, b: DimVar) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        if let (None, Some(&k)) = (self.bound.get(&ra), self.bound.get(&rb)) {
            self.bound.insert(ra, k);
        }
        self.parent.insert(rb, ra);
    }

    fn bind(&mut self, v: DimVar, k: i64) {
        let r = self.find(v);
        // First binding wins; a second, different constant would make the
        // program unsatisfiable, and the constraint list still shows it.
        self.bound.entry(r).or_insert(k);
    }

    /// The constant `v`'s class is bound to, if any.
    pub fn constant_of(&mut self, v: DimVar) -> Option<i64> {
        let r = self.find(v);
        self.bound.get(&r).copied()
    }

    /// `e` with every variable rewritten to its class representative;
    /// `None` when a coefficient overflows.
    pub(crate) fn canon(&mut self, e: &SymExpr) -> Option<SymExpr> {
        let mut out = SymExpr::constant(e.constant_term());
        for &(v, c) in e.terms() {
            out = out.add(&SymExpr::var(self.find(v)).mul_const(c)?)?;
        }
        Some(out)
    }
}

/// Classification of one graph-input dimension in a [`ShapeSignature`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DimClass {
    /// The plan is generic over this dimension: outputs are affine in it and
    /// no pass burned it into a constant.
    Polymorphic,
    /// The analysis (or a pass) pinned the dimension to this constant; the
    /// plan is only valid for inputs with exactly this extent.
    Specialized(usize),
    /// The dimension flows into a data-dependent (⊥) dimension somewhere;
    /// shape-keyed caching cannot reason about it statically.
    DataDependent,
}

impl fmt::Display for DimClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DimClass::Polymorphic => write!(f, "poly"),
            DimClass::Specialized(n) => write!(f, "spec({n})"),
            DimClass::DataDependent => write!(f, "data"),
        }
    }
}

/// The shape-polymorphism certificate of a compiled plan.
///
/// Emitted by the `tssa-lint` shape certifier after the full pass pipeline
/// (the analogue of `certify_pure` for shapes), attached to
/// `CompiledProgram` and persisted in plan files. `inputs` has one entry
/// per graph input (`None` for non-tensor inputs or inputs whose rank was
/// not supplied); `outputs` one entry per graph return (`None` for
/// non-tensor returns or unknown ranks).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ShapeSignature {
    /// Per-input dim classes.
    pub inputs: Vec<Option<Vec<DimClass>>>,
    /// Symbolic output shapes.
    pub outputs: Vec<Option<Vec<SymDim>>>,
    /// The assumptions (equalities / bounds) the signature relies on.
    pub constraints: Vec<Constraint>,
}

impl ShapeSignature {
    /// Number of input dims classified [`DimClass::Polymorphic`].
    pub fn polymorphic_dims(&self) -> usize {
        self.count(|c| matches!(c, DimClass::Polymorphic))
    }

    /// Number of input dims classified [`DimClass::Specialized`].
    pub fn specialized_dims(&self) -> usize {
        self.count(|c| matches!(c, DimClass::Specialized(_)))
    }

    /// Number of input dims classified [`DimClass::DataDependent`].
    pub fn data_dependent_input_dims(&self) -> usize {
        self.count(|c| matches!(c, DimClass::DataDependent))
    }

    fn count(&self, pred: impl Fn(&DimClass) -> bool) -> usize {
        self.inputs
            .iter()
            .flatten()
            .flat_map(|dims| dims.iter())
            .filter(|c| pred(c))
            .count()
    }

    /// Number of *output* dims that are ⊥ (data-dependent) — the quantity
    /// the CI shape-certification gate requires to be zero, and the count
    /// that decides whether a plan can be bucketed by shape class at all.
    pub fn data_dependent_output_dims(&self) -> usize {
        self.outputs
            .iter()
            .flatten()
            .flat_map(|dims| dims.iter())
            .filter(|d| matches!(d, SymDim::Unknown(_)))
            .count()
    }

    /// Whether input dim `(input, dim)` is polymorphic.
    pub fn is_polymorphic(&self, input: usize, dim: usize) -> bool {
        matches!(
            self.inputs
                .get(input)
                .and_then(|i| i.as_ref())
                .and_then(|dims| dims.get(dim)),
            Some(DimClass::Polymorphic)
        )
    }

    /// Whether concrete input shapes satisfy every constraint the signature
    /// relies on, each by [`Constraint::admits`].
    pub fn constraints_admit(&self, shapes: &[Option<Vec<usize>>]) -> bool {
        self.constraints.iter().all(|c| c.admits(shapes))
    }

    /// Stable human-readable rendering (one line per input/output), used by
    /// the `tssa-lint shapes` subcommand and pinned by the golden test.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (i, classes) in self.inputs.iter().enumerate() {
            match classes {
                None => out.push_str(&format!("  in{i}: -\n")),
                Some(dims) => {
                    let body: Vec<String> = dims.iter().map(|c| c.to_string()).collect();
                    out.push_str(&format!("  in{i}: [{}]\n", body.join(", ")));
                }
            }
        }
        for (i, shape) in self.outputs.iter().enumerate() {
            match shape {
                None => out.push_str(&format!("  out{i}: ?\n")),
                Some(dims) => {
                    let body: Vec<String> = dims.iter().map(|d| d.to_string()).collect();
                    out.push_str(&format!("  out{i}: [{}]\n", body.join(", ")));
                }
            }
        }
        if !self.constraints.is_empty() {
            let body: Vec<String> = self.constraints.iter().map(|c| c.to_string()).collect();
            out.push_str(&format!("  assume: {}\n", body.join("; ")));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32, d: u32) -> DimVar {
        DimVar { input: i, dim: d }
    }

    /// `2*in1.d2 + in0.d0 - 3`.
    fn affine() -> SymExpr {
        let e = SymExpr::var(v(1, 2)).mul_const(2).unwrap();
        let e = e.add(&SymExpr::var(v(0, 0))).unwrap();
        e.sub(&SymExpr::constant(3)).unwrap()
    }

    #[test]
    fn overflow_is_none_not_a_panic() {
        let max = SymExpr::constant(i64::MAX);
        let min = SymExpr::constant(i64::MIN);
        assert_eq!(max.add(&SymExpr::constant(1)), None);
        assert_eq!(min.sub(&SymExpr::constant(1)), None);
        assert_eq!(min.mul_const(-1), None);
        assert_eq!(min.div_exact(-1), None);
        assert_eq!(
            SymExpr::var(v(0, 0))
                .mul_const(i64::MAX)
                .unwrap()
                .mul_const(2),
            None
        );
        let big = SymExpr::var(v(0, 0)).mul_const(i64::MAX).unwrap();
        assert_eq!(big.add(&SymExpr::var(v(0, 0))), None);
        assert_eq!(big.eval(&|_| Some(2)), None);
        assert_eq!(
            SymExpr::from_parts(0, [(v(0, 0), i64::MAX), (v(0, 0), 1)]),
            None
        );
    }

    #[test]
    fn affine_normalization_cancels_terms() {
        let a = SymExpr::var(v(0, 0)).add(&SymExpr::constant(2)).unwrap();
        let b = a.sub(&SymExpr::var(v(0, 0))).unwrap();
        assert_eq!(b.as_const(), Some(2));
        let c = a.mul_const(3).unwrap();
        assert_eq!(c.to_string(), "3*in0.d0+6");
        assert_eq!(c.div_exact(3).unwrap(), a);
        assert!(c.div_exact(2).is_none());
    }

    #[test]
    fn display_is_stable() {
        let e = affine();
        assert_eq!(e.to_string(), "in0.d0+2*in1.d2-3");
        assert_eq!(SymExpr::constant(-4).to_string(), "-4");
        assert_eq!(SymDim::unknown().to_string(), "?");
    }

    #[test]
    fn eval_and_admits() {
        let e = SymExpr::var(v(0, 1)).mul_const(2).unwrap();
        let e = e.add(&SymExpr::constant(1)).unwrap();
        let env = |var: DimVar| (var == v(0, 1)).then_some(3i64);
        assert_eq!(e.eval(&env), Some(7));
        assert!(SymDim::Known(e.clone()).admits(7, &env));
        assert!(!SymDim::Known(e).admits(8, &env));
        assert!(SymDim::unknown().admits(123, &env));
    }

    #[test]
    fn can_equal_parity_and_sign() {
        // 2v can never be 1 (parity), nor can 2v+4 be 2 (sign + parity ok but
        // negative assignment needed).
        let even = SymExpr::var(v(0, 0)).mul_const(2).unwrap();
        assert!(!even.can_equal(1));
        assert!(even.can_equal(4));
        let shifted = even.add(&SymExpr::constant(4)).unwrap();
        assert!(!shifted.can_equal(2));
        assert!(shifted.can_equal(6));
        // v - w can always be 0.
        let diff = SymExpr::var(v(0, 0)).sub(&SymExpr::var(v(1, 0))).unwrap();
        assert!(diff.can_equal(0));
    }

    #[test]
    fn join_widens_with_taint() {
        let a = SymDim::var(0, 0);
        let b = SymDim::var(1, 1);
        assert_eq!(a.join(&a), a);
        match a.join(&b) {
            SymDim::Unknown(t) => {
                assert_eq!(t, BTreeSet::from([v(0, 0), v(1, 1)]));
            }
            other => panic!("expected widening, got {other:?}"),
        }
    }

    #[test]
    fn signature_counts_and_render() {
        let sig = ShapeSignature {
            inputs: vec![
                Some(vec![DimClass::Polymorphic, DimClass::Specialized(16)]),
                None,
                Some(vec![DimClass::DataDependent]),
            ],
            outputs: vec![Some(vec![SymDim::var(0, 0), SymDim::unknown()]), None],
            constraints: vec![Constraint::Eq(SymExpr::var(v(0, 1)), SymExpr::constant(16))],
        };
        assert_eq!(sig.polymorphic_dims(), 1);
        assert_eq!(sig.specialized_dims(), 1);
        assert_eq!(sig.data_dependent_input_dims(), 1);
        assert_eq!(sig.data_dependent_output_dims(), 1);
        assert!(sig.is_polymorphic(0, 0));
        assert!(!sig.is_polymorphic(0, 1));
        let r = sig.render();
        assert!(r.contains("in0: [poly, spec(16)]"), "{r}");
        assert!(r.contains("in1: -"), "{r}");
        assert!(r.contains("out0: [in0.d0, ?]"), "{r}");
        assert!(r.contains("assume: in0.d1 = 16"), "{r}");
    }

    #[test]
    fn constraints_admit_checks_eq_and_ge() {
        let sig = ShapeSignature {
            inputs: vec![Some(vec![DimClass::Polymorphic; 2]); 2],
            outputs: vec![],
            constraints: vec![
                Constraint::Eq(SymExpr::var(v(0, 1)), SymExpr::var(v(1, 0))),
                Constraint::Ge(SymExpr::var(v(0, 0)), SymExpr::constant(2)),
                Constraint::Ge(
                    SymExpr::var(v(1, 1)),
                    SymExpr::var(v(0, 0)).mul_const(2).unwrap(),
                ),
            ],
        };
        let rendered: Vec<String> = sig.constraints.iter().map(|c| c.to_string()).collect();
        assert_eq!(
            rendered,
            ["in0.d1 = in1.d0", "in0.d0 >= 2", "in1.d1 >= 2*in0.d0"]
        );
        let ok = vec![Some(vec![3, 5]), Some(vec![5, 6])];
        assert!(sig.constraints_admit(&ok));
        // Coupling broken: in0.d1 != in1.d0.
        let uncoupled = vec![Some(vec![3, 5]), Some(vec![4, 6])];
        assert!(!sig.constraints_admit(&uncoupled));
        // Lower bound broken: in0.d0 < 2.
        let small = vec![Some(vec![1, 5]), Some(vec![5, 6])];
        assert!(!sig.constraints_admit(&small));
        // Affine bound broken: in1.d1 < 2*in0.d0.
        let affine = vec![Some(vec![3, 5]), Some(vec![5, 5])];
        assert!(!sig.constraints_admit(&affine));
        // A constraint over a missing input admits vacuously.
        let partial = vec![Some(vec![3, 5]), None];
        assert!(sig.constraints_admit(&partial));
    }
}
