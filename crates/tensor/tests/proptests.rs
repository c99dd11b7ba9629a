//! Property-based tests of the tensor runtime: random view chains and
//! mutations are checked against a naive dense reference model.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tssa_tensor::{where_select, BinaryOp, DType, Layout, Scalar, Tensor, TensorError, UnaryOp};

/// Maps an index in a view's coordinate space back to base coordinates.
type IndexMap = Box<dyn Fn(&[usize]) -> Vec<usize>>;

const DIMS: [usize; 3] = [3, 4, 5];

/// The highest rank a generated view reaches: two past the rank up to which
/// a layout keeps its dims in place (4), so views, kernels and the odometer
/// also run on dims spilled to the heap. Dims past the third are kept to
/// size 1 or 2, so that the reference model stays small.
const MAX_RANK: usize = 6;

/// A step in a random view chain over a rank-3 base tensor.
#[derive(Debug, Clone)]
enum ViewStep {
    Select {
        dim: usize,
        index: usize,
    },
    Slice {
        dim: usize,
        start: usize,
        len: usize,
    },
    Transpose {
        d0: usize,
        d1: usize,
    },
    Unsqueeze {
        dim: usize,
    },
}

fn step_strategy() -> impl Strategy<Value = ViewStep> {
    prop_oneof![
        (0..3usize, 0..3usize).prop_map(|(dim, index)| ViewStep::Select { dim, index }),
        (0..3usize, 0..2usize, 1..3usize).prop_map(|(dim, start, len)| ViewStep::Slice {
            dim,
            start,
            len
        }),
        (0..3usize, 0..3usize).prop_map(|(d0, d1)| ViewStep::Transpose { d0, d1 }),
        (0..3usize).prop_map(|dim| ViewStep::Unsqueeze { dim }),
    ]
}

/// Apply a step to the strided tensor; `None` if invalid for current rank.
fn apply(t: &Tensor, step: &ViewStep) -> Option<Tensor> {
    match step {
        ViewStep::Select { dim, index } => {
            if *dim >= t.rank() || *index >= t.shape()[*dim] {
                return None;
            }
            t.select(*dim as isize, *index as isize).ok()
        }
        ViewStep::Slice { dim, start, len } => {
            if *dim >= t.rank() || start + len > t.shape()[*dim] {
                return None;
            }
            t.slice(*dim as isize, *start as isize, (start + len) as isize, 1)
                .ok()
        }
        ViewStep::Transpose { d0, d1 } => {
            if *d0 >= t.rank() || *d1 >= t.rank() {
                return None;
            }
            t.transpose(*d0 as isize, *d1 as isize).ok()
        }
        ViewStep::Unsqueeze { dim } => {
            if *dim > t.rank() {
                return None;
            }
            t.unsqueeze(*dim as isize).ok()
        }
    }
}

/// A naive reference: a dense vector of (flat base index) per view element,
/// tracking exactly which base cells the view addresses.
fn reference_cells(base_shape: &[usize], steps: &[ViewStep]) -> Option<(Vec<usize>, Vec<usize>)> {
    // start: identity mapping
    let mut shape = base_shape.to_vec();
    let numel: usize = shape.iter().product();
    let mut cells: Vec<usize> = (0..numel).collect();
    // helper to address cells row-major under `shape`
    fn index(coord: &[usize], shape: &[usize]) -> usize {
        coord.iter().zip(shape).fold(0, |acc, (c, s)| acc * s + c)
    }
    fn coords(shape: &[usize]) -> Vec<Vec<usize>> {
        let mut out = vec![vec![]];
        for &d in shape {
            let mut next = Vec::new();
            for c in &out {
                for i in 0..d {
                    let mut c2 = c.clone();
                    c2.push(i);
                    next.push(c2);
                }
            }
            out = next;
        }
        out
    }
    for step in steps {
        let (new_shape, map): (Vec<usize>, IndexMap) = match step {
            ViewStep::Select { dim, index } => {
                if *dim >= shape.len() || *index >= shape[*dim] {
                    return None;
                }
                let mut s = shape.clone();
                s.remove(*dim);
                let (d, i) = (*dim, *index);
                (
                    s,
                    Box::new(move |c: &[usize]| {
                        let mut c2 = c.to_vec();
                        c2.insert(d, i);
                        c2
                    }),
                )
            }
            ViewStep::Slice { dim, start, len } => {
                if *dim >= shape.len() || start + len > shape[*dim] {
                    return None;
                }
                let mut s = shape.clone();
                s[*dim] = *len;
                let (d, st) = (*dim, *start);
                (
                    s,
                    Box::new(move |c: &[usize]| {
                        let mut c2 = c.to_vec();
                        c2[d] += st;
                        c2
                    }),
                )
            }
            ViewStep::Transpose { d0, d1 } => {
                if *d0 >= shape.len() || *d1 >= shape.len() {
                    return None;
                }
                let mut s = shape.clone();
                s.swap(*d0, *d1);
                let (a, b) = (*d0, *d1);
                (
                    s,
                    Box::new(move |c: &[usize]| {
                        let mut c2 = c.to_vec();
                        c2.swap(a, b);
                        c2
                    }),
                )
            }
            ViewStep::Unsqueeze { dim } => {
                if *dim > shape.len() {
                    return None;
                }
                let mut s = shape.clone();
                s.insert(*dim, 1);
                let d = *dim;
                (
                    s,
                    Box::new(move |c: &[usize]| {
                        let mut c2 = c.to_vec();
                        c2.remove(d);
                        c2
                    }),
                )
            }
        };
        let mut new_cells = Vec::new();
        for c in coords(&new_shape) {
            let old_coord = map(&c);
            new_cells.push(cells[index(&old_coord, &shape)]);
        }
        shape = new_shape;
        cells = new_cells;
    }
    Some((shape, cells))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// A random view chain addresses exactly the base cells the reference
    /// model predicts.
    #[test]
    fn view_chains_address_predicted_cells(steps in prop::collection::vec(step_strategy(), 0..MAX_RANK)) {
        let numel: usize = DIMS.iter().product();
        let base = Tensor::from_vec_f32((0..numel).map(|i| i as f32).collect(), &DIMS).unwrap();
        let mut view = base.clone();
        let mut applied = Vec::new();
        for s in &steps {
            match apply(&view, s) {
                Some(v) => {
                    view = v;
                    applied.push(s.clone());
                }
                None => break,
            }
        }
        let (ref_shape, cells) = reference_cells(&DIMS, &applied).expect("applied steps are valid");
        prop_assert_eq!(view.shape(), &ref_shape[..]);
        let got = view.to_vec_f32().unwrap();
        let expected: Vec<f32> = cells.iter().map(|&c| c as f32).collect();
        prop_assert_eq!(got, expected);
    }

    /// Mutating through a random view chain changes exactly the predicted
    /// base cells and nothing else.
    #[test]
    fn mutation_through_chain_hits_predicted_cells(
        steps in prop::collection::vec(step_strategy(), 0..MAX_RANK),
        fill in -100i32..100,
    ) {
        let numel: usize = DIMS.iter().product();
        let base = Tensor::from_vec_f32((0..numel).map(|i| i as f32).collect(), &DIMS).unwrap();
        let mut view = base.clone();
        let mut applied = Vec::new();
        for s in &steps {
            match apply(&view, s) {
                Some(v) => {
                    view = v;
                    applied.push(s.clone());
                }
                None => break,
            }
        }
        let (_, cells) = reference_cells(&DIMS, &applied).expect("applied steps are valid");
        view.fill_(fill as f32).unwrap();
        let after = base.to_vec_f32().unwrap();
        for (i, v) in after.iter().enumerate() {
            if cells.contains(&i) {
                prop_assert_eq!(*v, fill as f32, "cell {} should be filled", i);
            } else {
                prop_assert_eq!(*v, i as f32, "cell {} must be untouched", i);
            }
        }
    }

    /// `clone_data` decouples storage: mutating the original never changes
    /// the copy.
    #[test]
    fn clone_data_decouples(seed in 0u64..500, fill in -50i32..50) {
        let t = Tensor::rand_uniform(&[4, 3], -1.0, 1.0, seed);
        let copy = t.clone_data();
        let before = copy.to_vec_f32().unwrap();
        t.fill_(fill as f32).unwrap();
        prop_assert_eq!(copy.to_vec_f32().unwrap(), before);
    }

    /// Broadcast addition agrees with explicit expansion.
    #[test]
    fn broadcast_add_matches_expansion(seed in 0u64..500) {
        let a = Tensor::rand_uniform(&[3, 1, 5], -2.0, 2.0, seed);
        let b = Tensor::rand_uniform(&[4, 1], -2.0, 2.0, seed + 1);
        let fast = a.add(&b).unwrap();
        let ae = a.expand(&[3, 4, 5]).unwrap().clone_data();
        let be = b.expand(&[3, 4, 5]).unwrap().clone_data();
        let slow = ae.add(&be).unwrap();
        prop_assert!(fast.allclose(&slow, 1e-6));
    }

    /// In-place ops agree with their functional counterparts.
    #[test]
    fn inplace_matches_functional(seed in 0u64..500) {
        let t = Tensor::rand_uniform(&[2, 6], -3.0, 3.0, seed);
        for op in [UnaryOp::Relu, UnaryOp::Sigmoid, UnaryOp::Tanh, UnaryOp::Exp] {
            let expected = t.unary(op).unwrap();
            let working = t.clone_data();
            working.unary_(op).unwrap();
            prop_assert!(working.allclose(&expected, 1e-6));
        }
    }

    /// `item` on every single-element view equals the flat data.
    #[test]
    fn element_views_match_flat_order(seed in 0u64..500) {
        let t = Tensor::rand_uniform(&[2, 3, 2], -1.0, 1.0, seed);
        let flat = t.to_vec_f32().unwrap();
        let mut k = 0;
        for i in 0..2 {
            for j in 0..3 {
                for l in 0..2 {
                    let v = t
                        .select(0, i as isize).unwrap()
                        .select(0, j as isize).unwrap()
                        .select(0, l as isize).unwrap();
                    prop_assert_eq!(v.item().unwrap(), Scalar::F32(flat[k]));
                    k += 1;
                }
            }
        }
    }

    /// Every kernel family, on random view chains of every dtype, computes
    /// bit for bit what a naive coordinate walk does.
    #[test]
    fn kernels_match_a_naive_coordinate_walk(seed in 0u64..300) {
        Case::new(seed).run();
    }

    /// No public constructor of a layout or tensor makes one whose element
    /// count wraps: a shape with more elements than a `usize` counts is
    /// refused with a typed error, or by a panic from the constructors that
    /// allocate and return no `Result`, before anything is allocated.
    #[test]
    fn no_constructor_makes_a_layout_whose_numel_wraps(seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed);
        let rank = rng.gen_range(0..6usize);
        let shape: Vec<usize> = (0..rank).map(|_| HUGE_DIMS[rng.gen_range(0..HUGE_DIMS.len())]).collect();
        check_numel_is_exact(&shape);
    }
}

/// Dims around every power of two a product of a few of them can wrap at.
const HUGE_DIMS: [usize; 12] = [
    0,
    1,
    2,
    3,
    1 << 16,
    1 << 31,
    1 << 32,
    1 << 33,
    1 << 62,
    usize::MAX / 3,
    isize::MAX as usize,
    usize::MAX,
];

/// The number of elements of `shape`, if a `usize` counts the product of
/// its non-zero dims (past that, a shape is refused even with a 0 dim).
fn exact_numel(shape: &[usize]) -> Option<usize> {
    let mut nonzero = shape.iter().filter(|&&d| d != 0);
    let n = nonzero.try_fold(1u128, |n, &d| n.checked_mul(d as u128))?;
    let n = usize::try_from(n).ok()?;
    Some(if shape.contains(&0) { 0 } else { n })
}

fn check_numel_is_exact(shape: &[usize]) {
    let exact = exact_numel(shape);
    fn too_many<T>(r: &Result<T, TensorError>) -> bool {
        matches!(r, Err(TensorError::InvalidArgument { .. }))
    }
    let layout = Layout::contiguous(shape);
    match exact {
        Some(n) => assert_eq!(layout.map(|l| l.numel()), Ok(n), "contiguous {shape:?}"),
        None => assert!(too_many(&layout), "contiguous {shape:?}: {layout:?}"),
    }
    // A broadcast of a scalar, as a layout and as a tensor.
    let scalar = Layout::contiguous(&[]).unwrap();
    let wide = scalar.broadcast_to(shape);
    assert_eq!(
        wide.as_ref().ok().map(Layout::numel),
        exact,
        "broadcast {shape:?}"
    );
    assert!(
        exact.is_some() || too_many(&wide),
        "broadcast {shape:?}: {wide:?}"
    );
    let expanded = Tensor::zeros(&[]).expand(shape);
    assert_eq!(expanded.ok().map(|t| t.numel()), exact, "expand {shape:?}");
    // A buffer of no elements takes only a shape of none.
    let empty = Tensor::from_vec_f32(vec![], shape);
    match exact {
        Some(0) => assert_eq!(empty.map(|t| t.numel()), Ok(0), "from_vec {shape:?}"),
        Some(n) => assert_eq!(
            empty.map(|t| t.numel()),
            Err(TensorError::NumelMismatch { from: 0, to: n }),
            "from_vec {shape:?}"
        ),
        None => assert!(too_many(&empty.map(|t| t.numel())), "from_vec {shape:?}"),
    }
    // A view of as many elements as a `usize` counts, or of as many as
    // `shape` has, onto `shape`.
    if let Ok(dims) = shape
        .iter()
        .map(|&d| isize::try_from(d))
        .collect::<Result<Vec<_>, _>>()
    {
        for total in [Some(usize::MAX), exact].into_iter().flatten() {
            let base = Layout::contiguous(&[total]).unwrap();
            let view = base.view(&dims);
            let fits = exact == Some(total);
            assert_eq!(
                view.as_ref().ok().map(Layout::numel),
                fits.then_some(total),
                "view {total} as {shape:?}: {view:?}"
            );
            assert!(fits || view.is_err(), "view {total} as {shape:?}");
        }
    }
    // The constructors that allocate panic rather than wrap; one whose count
    // fits is not called, as it would allocate all of it.
    if exact.is_none() {
        let zeros = std::panic::catch_unwind(|| Tensor::zeros(shape).numel());
        assert!(zeros.is_err(), "zeros {shape:?}: {zeros:?}");
        let rand = std::panic::catch_unwind(|| Tensor::rand_uniform(shape, 0.0, 1.0, 0).numel());
        assert!(rand.is_err(), "rand_uniform {shape:?}: {rand:?}");
    }
}

// ------------------------------------------------ naive reference model
//
// Independent of the crate's odometer and op table on purpose: views are
// lists of base cells built coordinate by coordinate, element functions are
// spelled out per dtype, and every loop is a plain walk over coordinates.
// The transcendental element functions are spelled with f64 libm; the crate
// computes them by polynomial forms held to the ulp bounds of [`ulp_bound`].

/// Every coordinate of `shape` in row-major order.
fn coords(shape: &[usize]) -> Vec<Vec<usize>> {
    let mut out = vec![vec![]];
    for &d in shape {
        out = (out.iter())
            .flat_map(|c| (0..d).map(move |i| [&c[..], &[i]].concat()))
            .collect();
    }
    out
}

fn flat(coord: &[usize], shape: &[usize]) -> usize {
    coord.iter().zip(shape).fold(0, |acc, (c, s)| acc * s + c)
}

/// A view in the reference model: per logical element, in row-major order,
/// the base cell it addresses.
#[derive(Debug, Clone)]
struct Model {
    shape: Vec<usize>,
    cells: Vec<usize>,
}

impl Model {
    /// The view of shape `shape` whose element `c` is this view's `back(c)`.
    fn remap(&self, shape: Vec<usize>, back: impl Fn(&[usize]) -> Vec<usize>) -> Model {
        let cells = (coords(&shape).iter())
            .map(|c| self.cells[flat(&back(c), &self.shape)])
            .collect();
        Model { shape, cells }
    }

    /// This view broadcast (right-aligned) to `shape`.
    fn broadcast(&self, shape: &[usize]) -> Model {
        let pad = shape.len() - self.shape.len();
        let own = self.shape.clone();
        self.remap(shape.to_vec(), |c| {
            (c[pad..].iter().zip(&own))
                .map(|(&i, &d)| if d == 1 { 0 } else { i })
                .collect()
        })
    }
}

fn key(s: Scalar) -> (u8, u64) {
    match s {
        Scalar::F32(v) => (0, u64::from(v.to_bits())),
        Scalar::I64(v) => (1, v as u64),
        Scalar::Bool(v) => (2, u64::from(v)),
    }
}

fn keys(values: &[Scalar]) -> Vec<(u8, u64)> {
    values.iter().map(|&s| key(s)).collect()
}

/// How far an f32 result of `op` may be from the reference, in units in the
/// last place: the bounds the crate states for its `exp`, `sigmoid` and
/// `tanh`. Every other element function is exact.
fn ulp_bound(op: UnaryOp) -> u32 {
    match op {
        UnaryOp::Exp => 2,
        UnaryOp::Sigmoid | UnaryOp::Tanh => 8,
        _ => 0,
    }
}

/// `got` is `want` to the bit, except that f32 elements may be up to `ulps`
/// representable values apart (NaN matching NaN).
fn assert_within(got: &[Scalar], want: &[Scalar], ulps: u32, what: &str) {
    if ulps == 0 {
        return assert_eq!(keys(got), keys(want), "{what}");
    }
    let ordered = |v: f32| {
        let i = v.to_bits() as i32;
        i64::from(if i < 0 { i32::MIN - i } else { i })
    };
    assert_eq!(got.len(), want.len(), "{what}");
    for (&g, &w) in got.iter().zip(want) {
        let near = match (g, w) {
            (Scalar::F32(g), Scalar::F32(w)) if g.is_nan() || w.is_nan() => {
                g.is_nan() && w.is_nan()
            }
            (Scalar::F32(g), Scalar::F32(w)) => (ordered(g) - ordered(w)).abs() <= i64::from(ulps),
            _ => key(g) == key(w),
        };
        assert!(near, "{what}: {g:?} is not within {ulps} ulp of {w:?}");
    }
}

/// The logical contents of `t` in row-major order.
fn scalars(t: &Tensor) -> Vec<Scalar> {
    match t.dtype() {
        DType::F32 => (t.to_vec_f32().unwrap().into_iter())
            .map(Scalar::F32)
            .collect(),
        DType::I64 => (t.to_vec_i64().unwrap().into_iter())
            .map(Scalar::I64)
            .collect(),
        DType::Bool => (t.to_vec_bool().unwrap().into_iter())
            .map(Scalar::Bool)
            .collect(),
    }
}

fn f(s: Scalar) -> f32 {
    match s {
        Scalar::F32(v) => v,
        Scalar::I64(v) => v as f64 as f32,
        Scalar::Bool(v) => f32::from(u8::from(v)),
    }
}

fn i(s: Scalar) -> i64 {
    match s {
        Scalar::F32(v) => v as i64,
        Scalar::I64(v) => v,
        Scalar::Bool(v) => i64::from(v),
    }
}

fn truthy(s: Scalar) -> bool {
    match s {
        Scalar::F32(v) => v != 0.0,
        Scalar::I64(v) => v != 0,
        Scalar::Bool(v) => v,
    }
}

fn conv(s: Scalar, dtype: DType) -> Scalar {
    match dtype {
        DType::F32 => Scalar::F32(f(s)),
        DType::I64 => Scalar::I64(i(s)),
        DType::Bool => Scalar::Bool(truthy(s)),
    }
}

/// `bool < i64 < f32`.
fn wider(a: DType, b: DType) -> DType {
    [DType::F32, DType::I64, DType::Bool]
        .into_iter()
        .find(|&d| d == a || d == b)
        .unwrap()
}

/// What `op` makes of one element; `None` where the op refuses the dtype.
fn ref_unary(op: UnaryOp, v: Scalar) -> Option<Scalar> {
    Some(match (op, v) {
        (UnaryOp::Neg, Scalar::Bool(_)) => return None,
        (UnaryOp::Neg, Scalar::I64(x)) => Scalar::I64(x.wrapping_neg()),
        (UnaryOp::Abs, Scalar::I64(x)) => Scalar::I64(x.wrapping_abs()),
        (UnaryOp::Abs, Scalar::Bool(x)) => Scalar::Bool(x),
        (UnaryOp::Not, v) => Scalar::Bool(!truthy(v)),
        (op, v) => {
            let x = f(v);
            Scalar::F32(match op {
                UnaryOp::Neg => -x,
                UnaryOp::Abs => x.abs(),
                UnaryOp::Relu => x.max(0.0),
                UnaryOp::Sigmoid => (1.0 / (1.0 + (-f64::from(x)).exp())) as f32,
                UnaryOp::Tanh => f64::from(x).tanh() as f32,
                UnaryOp::Exp => f64::from(x).exp() as f32,
                UnaryOp::Log => x.ln(),
                UnaryOp::Sqrt => x.sqrt(),
                UnaryOp::AddC(c) => x + c,
                UnaryOp::MulC(c) => x * c,
                UnaryOp::SubC(c) => x - c,
                UnaryOp::DivC(c) => x / c,
                UnaryOp::PowC(c) => x.powf(c),
                UnaryOp::Clamp(lo, hi) => x.clamp(lo, hi),
                UnaryOp::Not => unreachable!(),
            })
        }
    })
}

/// What `op` makes of two elements: floats if either is one, else exact
/// (wrapping) integers, bools being 0/1 and tested non-zero afterwards.
fn ref_binary(op: BinaryOp, a: Scalar, b: Scalar) -> Scalar {
    use BinaryOp::*;
    let wide = wider(a.dtype(), b.dtype());
    match op {
        And => return Scalar::Bool(truthy(a) && truthy(b)),
        Or => return Scalar::Bool(truthy(a) || truthy(b)),
        Div => return Scalar::F32(f(a) / f(b)),
        Pow => return Scalar::F32(f(a).powf(f(b))),
        _ => {}
    }
    if wide == DType::F32 {
        let (x, y) = (f(a), f(b));
        return match op {
            Add => Scalar::F32(x + y),
            Sub => Scalar::F32(x - y),
            Mul => Scalar::F32(x * y),
            Max => Scalar::F32(x.max(y)),
            Min => Scalar::F32(x.min(y)),
            Gt => Scalar::Bool(x > y),
            Lt => Scalar::Bool(x < y),
            Ge => Scalar::Bool(x >= y),
            Le => Scalar::Bool(x <= y),
            _ => Scalar::Bool(x == y),
        };
    }
    let (x, y) = (i(a), i(b));
    let exact = match op {
        Add => x.wrapping_add(y),
        Sub => x.wrapping_sub(y),
        Mul => x.wrapping_mul(y),
        Max => x.max(y),
        Min => x.min(y),
        Gt => return Scalar::Bool(x > y),
        Lt => return Scalar::Bool(x < y),
        Ge => return Scalar::Bool(x >= y),
        Le => return Scalar::Bool(x <= y),
        _ => return Scalar::Bool(x == y),
    };
    conv(Scalar::I64(exact), wide)
}

const UNARY: [UnaryOp; 15] = [
    UnaryOp::Neg,
    UnaryOp::Relu,
    UnaryOp::Sigmoid,
    UnaryOp::Tanh,
    UnaryOp::Exp,
    UnaryOp::Log,
    UnaryOp::Sqrt,
    UnaryOp::Abs,
    UnaryOp::Not,
    UnaryOp::AddC(1.5),
    UnaryOp::MulC(-2.25),
    UnaryOp::SubC(0.75),
    UnaryOp::DivC(3.0),
    UnaryOp::PowC(2.5),
    UnaryOp::Clamp(-1.0, 1.5),
];

const BINARY: [BinaryOp; 14] = [
    BinaryOp::Add,
    BinaryOp::Sub,
    BinaryOp::Mul,
    BinaryOp::Div,
    BinaryOp::Max,
    BinaryOp::Min,
    BinaryOp::Pow,
    BinaryOp::Gt,
    BinaryOp::Lt,
    BinaryOp::Ge,
    BinaryOp::Le,
    BinaryOp::Eq,
    BinaryOp::And,
    BinaryOp::Or,
];

const DTYPES: [DType; 3] = [DType::F32, DType::I64, DType::Bool];

/// A base tensor, the reference copy of its memory, and a view of both.
struct Viewed {
    base: Tensor,
    memory: Vec<Scalar>,
    view: Tensor,
    model: Model,
}

impl Viewed {
    /// The view's logical contents according to the model.
    fn values(&self) -> Vec<Scalar> {
        self.model.cells.iter().map(|&c| self.memory[c]).collect()
    }

    fn dtype(&self) -> DType {
        self.base.dtype()
    }

    /// Another view of the same base.
    fn with(&self, (view, model): (Tensor, Model)) -> Viewed {
        Viewed {
            base: self.base.clone(),
            memory: self.memory.clone(),
            view,
            model,
        }
    }

    /// The base must now hold `memory`, and this view its cells of it.
    fn assert_memory(&self, what: &str) {
        self.assert_memory_within(what, 0);
    }

    /// As [`Viewed::assert_memory`], f32 cells within `ulps` of the model.
    fn assert_memory_within(&self, what: &str, ulps: u32) {
        let (base, view) = (scalars(&self.base), scalars(&self.view));
        assert_within(&base, &self.memory, ulps, &format!("{what}: base"));
        assert_within(&view, &self.values(), ulps, &format!("{what}: view"));
    }
}

struct Case {
    rng: StdRng,
    seed: u64,
}

impl Case {
    fn new(seed: u64) -> Case {
        Case {
            rng: StdRng::seed_from_u64(seed),
            seed,
        }
    }

    fn below(&mut self, n: usize) -> usize {
        self.rng.gen_range(0..n.max(1))
    }

    fn pick<T: Copy>(&mut self, of: &[T]) -> T {
        of[self.below(of.len())]
    }

    fn scalar(&mut self, dtype: DType) -> Scalar {
        match dtype {
            DType::F32 => Scalar::F32(match self.below(8) {
                0 => 0.0,
                1 => -0.0,
                _ => self.rng.gen_range(-4.0f32..4.0),
            }),
            // Mostly small, sometimes past what f32 (2^24) and f64 (2^53) hold.
            DType::I64 => Scalar::I64(match self.below(6) {
                0 => (1 << 24) + 1 + self.below(5) as i64,
                1 => -(1i64 << 53) - 1 - self.below(5) as i64,
                2 => i64::MAX - self.below(3) as i64,
                _ => self.rng.gen_range(-4i64..5),
            }),
            DType::Bool => Scalar::Bool(self.below(2) == 1),
        }
    }

    /// A fresh dense tensor and the reference copy of its memory.
    fn dense(&mut self, shape: &[usize], dtype: DType) -> Viewed {
        let n: usize = shape.iter().product();
        let memory: Vec<Scalar> = (0..n).map(|_| self.scalar(dtype)).collect();
        let base = match dtype {
            DType::F32 => Tensor::from_vec_f32(memory.iter().map(|&s| f(s)).collect(), shape),
            DType::I64 => Tensor::from_vec_i64(memory.iter().map(|&s| i(s)).collect(), shape),
            DType::Bool => {
                Tensor::from_vec_bool(memory.iter().map(|&s| truthy(s)).collect(), shape)
            }
        }
        .unwrap();
        let model = Model {
            shape: shape.to_vec(),
            cells: (0..n).collect(),
        };
        Viewed {
            view: base.clone(),
            base,
            memory,
            model,
        }
    }

    /// One random view step applied to the tensor and to the model alike.
    fn step(&mut self, t: &Tensor, m: &Model) -> (Tensor, Model) {
        let shape = m.shape.clone();
        let rank = shape.len();
        loop {
            let d = self.below(rank);
            // Spell the dim from the back half of the time.
            let dim = d as isize - if self.below(2) == 0 { rank as isize } else { 0 };
            match self.below(7) {
                0 if rank > 0 && shape[d] > 0 => {
                    let at = self.below(shape[d]);
                    let index = at as isize
                        - if self.below(2) == 0 {
                            shape[d] as isize
                        } else {
                            0
                        };
                    let mut out = shape.clone();
                    out.remove(d);
                    let model = m.remap(out, |c| [&c[..d], &[at], &c[d..]].concat());
                    return (t.select(dim, index).unwrap(), model);
                }
                1 if rank > 0 => {
                    // Any window, empty ones included, with steps 1 to 3.
                    let start = self.below(shape[d] + 1);
                    let end = start + self.below(shape[d] + 1 - start);
                    let by = 1 + self.below(3);
                    let mut out = shape.clone();
                    out[d] = (end - start).div_ceil(by);
                    let model = m.remap(out, |c| {
                        let mut c = c.to_vec();
                        c[d] = start + c[d] * by;
                        c
                    });
                    let view = t.slice(dim, start as isize, end as isize, by as isize);
                    return (view.unwrap(), model);
                }
                2 if rank > 1 => {
                    let mut perm: Vec<usize> = (0..rank).collect();
                    for k in (1..rank).rev() {
                        perm.swap(k, self.below(k + 1));
                    }
                    let out = perm.iter().map(|&p| shape[p]).collect();
                    let model = m.remap(out, |c| {
                        let mut back = vec![0; rank];
                        for (k, &p) in perm.iter().enumerate() {
                            back[p] = c[k];
                        }
                        back
                    });
                    return (t.permute(&perm).unwrap(), model);
                }
                3 if rank > 1 => {
                    let e = self.below(rank);
                    let mut out = shape.clone();
                    out.swap(d, e);
                    let model = m.remap(out, |c| {
                        let mut c = c.to_vec();
                        c.swap(d, e);
                        c
                    });
                    return (t.transpose(dim, e as isize).unwrap(), model);
                }
                4 if rank < MAX_RANK => {
                    let at = self.below(rank + 1);
                    let mut out = shape.clone();
                    out.insert(at, 1);
                    let model = m.remap(out, |c| [&c[..at], &c[at + 1..]].concat());
                    return (t.unsqueeze(at as isize).unwrap(), model);
                }
                5 if rank > 0 && shape[d] == 1 => {
                    let mut out = shape.clone();
                    out.remove(d);
                    let model = m.remap(out, |c| [&c[..d], &[0], &c[d..]].concat());
                    return (t.squeeze(dim).unwrap(), model);
                }
                6 if rank < MAX_RANK => {
                    // Stride 0: grow the unit dims and maybe add a leading one.
                    let mut out: Vec<usize> = (shape.iter().enumerate())
                        .map(|(i, &s)| match s {
                            1 => 1 + self.below(if i < 3 { 3 } else { 2 }),
                            s => s,
                        })
                        .collect();
                    if self.below(2) == 0 {
                        out.insert(0, self.below(3));
                    }
                    return (t.expand(&out).unwrap(), m.broadcast(&out));
                }
                _ => continue,
            }
        }
    }

    /// A random view chain over a fresh base: mostly of rank 0 to 3, one in
    /// four up to [`MAX_RANK`]; zero-size dims included.
    fn viewed(&mut self, dtype: DType) -> Viewed {
        let rank = match self.below(4) {
            0 => 4 + self.below(MAX_RANK - 3),
            _ => self.below(4),
        };
        let shape: Vec<usize> = (0..rank)
            .map(|d| match d {
                0..3 => [0, 1, 2, 3, 4, 5][self.below(6)],
                _ => 1 + self.below(2),
            })
            .collect();
        let fresh = self.dense(&shape, dtype);
        let mut at = (fresh.view.clone(), fresh.model.clone());
        for _ in 0..self.below(5) {
            at = self.step(&at.0, &at.1);
        }
        fresh.with(at)
    }

    /// A strided operand that broadcasts to `shape`: dims dropped from the
    /// front or set to 1, and laid out transposed half of the time.
    fn broadcastable(&mut self, shape: &[usize], dtype: DType) -> Viewed {
        let skip = self.below(shape.len() + 1);
        let own: Vec<usize> = (shape[skip..].iter())
            .map(|&s| if self.below(3) == 0 { 1 } else { s })
            .collect();
        if own.len() < 2 || self.below(2) == 0 {
            return self.dense(&own, dtype);
        }
        let mut stored = own.clone();
        stored.swap(0, 1);
        let fresh = self.dense(&stored, dtype);
        let model = fresh.model.remap(own, |c| {
            let mut c = c.to_vec();
            c.swap(0, 1);
            c
        });
        let view = fresh.view.transpose(0, 1).unwrap();
        fresh.with((view, model))
    }

    /// A source for writing into `dst`: a fresh broadcastable operand, or —
    /// half of the time, when `dst` has a dim to shift along — a window of
    /// the same base that overlaps the returned, equally shaped window of
    /// `dst`.
    fn source_for(&mut self, dst: Viewed, dtype: DType) -> (Viewed, Viewed) {
        let wide: Vec<usize> = (0..dst.model.shape.len())
            .filter(|&d| dst.model.shape[d] >= 2)
            .collect();
        if wide.is_empty() || dtype != dst.dtype() || self.below(2) == 0 {
            let src = self.broadcastable(&dst.model.shape.clone(), dtype);
            return (dst, src);
        }
        let d = self.pick(&wide);
        let size = dst.model.shape[d];
        let len = 1 + self.below(size - 1);
        let window = |v: &Viewed, start: usize| {
            let mut shape = v.model.shape.clone();
            shape[d] = len;
            let model = v.model.remap(shape, |c| {
                let mut c = c.to_vec();
                c[d] += start;
                c
            });
            let view = v
                .view
                .slice(d as isize, start as isize, (start + len) as isize, 1);
            v.with((view.unwrap(), model))
        };
        let (a, b) = (self.below(size - len + 1), self.below(size - len + 1));
        (window(&dst, a), window(&dst, b))
    }

    fn run(&mut self) {
        let seed = self.seed;
        for dtype in DTYPES {
            // Out of place: unary, cast, clone_data.
            let x = self.viewed(dtype);
            let values = x.values();
            for op in UNARY {
                let expected: Option<Vec<Scalar>> =
                    values.iter().map(|&v| ref_unary(op, v)).collect();
                match (x.view.unary(op), expected) {
                    (Ok(got), Some(expected)) => {
                        assert_eq!(got.shape(), &x.model.shape[..], "seed {seed} {op:?}");
                        let what = format!("seed {seed} {op:?}");
                        assert_within(&scalars(&got), &expected, ulp_bound(op), &what);
                    }
                    // An empty view still refuses what its dtype refuses.
                    (Err(_), expected) => assert!(
                        expected.is_none()
                            || values.is_empty() && ref_unary(op, self.scalar(dtype)).is_none(),
                        "seed {seed} {op:?} refused"
                    ),
                    (Ok(_), None) => panic!("seed {seed} {op:?} on {dtype} accepted"),
                }
            }
            for to in DTYPES {
                let expected: Vec<Scalar> = values.iter().map(|&v| conv(v, to)).collect();
                assert_eq!(
                    keys(&scalars(&x.view.cast(to))),
                    keys(&expected),
                    "seed {seed} cast"
                );
            }
            let copy = x.view.clone_data();
            assert!(copy.is_contiguous() && !copy.shares_storage_with(&x.base));
            assert_eq!(
                keys(&scalars(&copy)),
                keys(&values),
                "seed {seed} clone_data"
            );

            // Out of place: broadcast binary and where.
            let other = self.pick(&DTYPES);
            let y = self.broadcastable(&x.model.shape.clone(), other);
            let (xs, ys) = (values.clone(), y.model.broadcast(&x.model.shape));
            let ys: Vec<Scalar> = ys.cells.iter().map(|&c| y.memory[c]).collect();
            for op in BINARY {
                let expected: Vec<Scalar> = (xs.iter().zip(&ys))
                    .map(|(&a, &b)| ref_binary(op, a, b))
                    .collect();
                let got = x.view.binary(op, &y.view).unwrap();
                assert_eq!(got.shape(), &x.model.shape[..], "seed {seed} {op:?}");
                assert_eq!(
                    keys(&scalars(&got)),
                    keys(&expected),
                    "seed {seed} {op:?} {other}"
                );
                let flipped: Vec<Scalar> = (xs.iter().zip(&ys))
                    .map(|(&a, &b)| ref_binary(op, b, a))
                    .collect();
                let got = y.view.binary(op, &x.view).unwrap();
                assert_eq!(
                    keys(&scalars(&got)),
                    keys(&flipped),
                    "seed {seed} flipped {op:?}"
                );
            }
            let mask = self.broadcastable(&x.model.shape.clone(), DType::Bool);
            let ms = mask.model.broadcast(&x.model.shape);
            let wide = wider(dtype, other);
            let expected: Vec<Scalar> = (ms.cells.iter().zip(xs.iter().zip(&ys)))
                .map(|(&m, (&a, &b))| conv(if truthy(mask.memory[m]) { a } else { b }, wide))
                .collect();
            let got = where_select(&mask.view, &x.view, &y.view).unwrap();
            assert_eq!(keys(&scalars(&got)), keys(&expected), "seed {seed} where");
            assert!(where_select(&x.view, &x.view, &y.view).is_err() || dtype == DType::Bool);

            // Reductions, in increasing index along the reduced dim.
            self.reductions(&x);

            // In place, sequentially in row-major order: fill, unary,
            // copy_ and binary with fresh and with overlapping sources.
            let mut w = self.viewed(dtype);
            let value = self.rng.gen_range(-3.0f32..3.0);
            w.view.fill_(value).unwrap();
            for &c in &w.model.cells {
                w.memory[c] = conv(Scalar::F32(value), dtype);
            }
            w.assert_memory("fill_");

            let mut w = self.viewed(dtype);
            let op = self.pick(&UNARY);
            let refused = w.view.unary_(op).is_err();
            assert_eq!(
                refused,
                ref_unary(op, self.scalar(dtype)).is_none(),
                "seed {seed} {op:?}"
            );
            for &c in w.model.cells.iter().filter(|_| !refused) {
                w.memory[c] = conv(ref_unary(op, w.memory[c]).unwrap(), dtype);
            }
            w.assert_memory_within(&format!("seed {seed} {op:?}_"), ulp_bound(op));

            for op in [
                None,
                Some(BinaryOp::Add),
                Some(BinaryOp::Sub),
                Some(BinaryOp::Mul),
                Some(BinaryOp::Div),
            ] {
                let dst = self.viewed(dtype);
                let from = self.pick(&DTYPES);
                let (mut dst, src) = self.source_for(dst, from);
                // The source is read out before anything is written.
                let read = src.model.broadcast(&dst.model.shape);
                let read: Vec<Scalar> = read.cells.iter().map(|&c| src.memory[c]).collect();
                match op {
                    None => dst.view.copy_(&src.view).unwrap(),
                    Some(op) => dst.view.binary_(op, &src.view).unwrap(),
                }
                for (&c, &s) in dst.model.cells.iter().zip(&read) {
                    let stored = op.map_or(s, |op| ref_binary(op, dst.memory[c], s));
                    dst.memory[c] = conv(stored, dtype);
                }
                dst.assert_memory(&format!("seed {seed} {op:?} from {from}"));
            }
        }
        self.matmul();
    }

    /// An f32 `[rows, cols]` operand: dense, stored transposed, or a window
    /// of a larger base.
    fn matrix(&mut self, rows: usize, cols: usize) -> Viewed {
        match self.below(3) {
            0 => self.dense(&[rows, cols], DType::F32),
            1 => {
                let fresh = self.dense(&[cols, rows], DType::F32);
                let model = fresh.model.remap(vec![rows, cols], |c| vec![c[1], c[0]]);
                let view = fresh.view.transpose(0, 1).unwrap();
                fresh.with((view, model))
            }
            _ => {
                let (top, left) = (self.below(3), self.below(3));
                let fresh = self.dense(&[top + rows + 1, left + cols + 2], DType::F32);
                let model =
                    (fresh.model).remap(vec![rows, cols], |c| vec![top + c[0], left + c[1]]);
                let view = (fresh.view.slice(0, top as isize, (top + rows) as isize, 1))
                    .and_then(|v| v.slice(1, left as isize, (left + cols) as isize, 1));
                fresh.with((view.unwrap(), model))
            }
        }
    }

    /// `[m, k] × [k, n]` against a triple loop: every cell sums its products
    /// in ascending `p` from +0.0, one rounding per step.
    fn matmul(&mut self) {
        let seed = self.seed;
        let sizes = [0, 1, 2, 5, 48];
        let (m, k, n) = (self.pick(&sizes), self.pick(&sizes), self.pick(&sizes));
        let (a, b) = (self.matrix(m, k), self.matrix(k, n));
        let (av, bv) = (a.values(), b.values());
        let mut expected = Vec::with_capacity(m * n);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc += f(av[i * k + p]) * f(bv[p * n + j]);
                }
                expected.push(Scalar::F32(acc));
            }
        }
        let got = a.view.matmul(&b.view).unwrap();
        assert_eq!(got.shape(), &[m, n], "seed {seed} matmul");
        assert_eq!(
            keys(&scalars(&got)),
            keys(&expected),
            "seed {seed} matmul [{m}, {k}] x [{k}, {n}]"
        );
    }

    fn reductions(&mut self, x: &Viewed) {
        let seed = self.seed;
        let values = x.values();
        let as_f64 = |s: Scalar| match s {
            Scalar::F32(v) => f64::from(v),
            Scalar::I64(v) => v as f64,
            Scalar::Bool(v) => f64::from(u8::from(v)),
        };
        let all = |init: f64, fold: fn(f64, f64) -> f64| {
            values.iter().fold(init, |acc, &v| fold(acc, as_f64(v))) as f32
        };
        assert_eq!(x.view.sum_all().to_bits(), all(0.0, |a, b| a + b).to_bits());
        assert_eq!(
            x.view.max_all().to_bits(),
            all(f64::NEG_INFINITY, f64::max).to_bits()
        );
        assert_eq!(
            x.view.min_all().to_bits(),
            all(f64::INFINITY, f64::min).to_bits()
        );
        let shape = &x.model.shape;
        if shape.is_empty() {
            assert!(x.view.sum_dim(0, false).is_err() && x.view.cumsum(0).is_err());
            return;
        }
        let d = self.below(shape.len());
        let keepdim = self.below(2) == 0;
        let mut cells = shape.clone();
        cells[d] = 1;
        let lane = |c: &[usize]| -> Vec<Scalar> {
            (0..shape[d])
                .map(|k| {
                    let mut c = c.to_vec();
                    c[d] = k;
                    values[flat(&c, shape)]
                })
                .collect()
        };
        let lanes: Vec<Vec<Scalar>> = coords(&cells).iter().map(|c| lane(c)).collect();
        let fold = |init: f64, fold: fn(f64, f64) -> f64| -> Vec<Scalar> {
            (lanes.iter())
                .map(|l| Scalar::F32(l.iter().fold(init, |acc, &v| fold(acc, as_f64(v))) as f32))
                .collect()
        };
        let dim = d as isize
            - if self.below(2) == 0 {
                shape.len() as isize
            } else {
                0
            };
        let check = |what: &str, got: Tensor, expected: Vec<Scalar>| {
            let mut out = cells.clone();
            if !keepdim {
                out.remove(d);
            }
            assert_eq!(got.shape(), &out[..], "seed {seed} {what}");
            assert_eq!(keys(&scalars(&got)), keys(&expected), "seed {seed} {what}");
        };
        let sums = fold(0.0, |a, b| a + b);
        check(
            "sum_dim",
            x.view.sum_dim(dim, keepdim).unwrap(),
            sums.clone(),
        );
        check(
            "max_dim",
            x.view.max_dim(dim, keepdim).unwrap(),
            fold(f64::NEG_INFINITY, f64::max),
        );
        check(
            "min_dim",
            x.view.min_dim(dim, keepdim).unwrap(),
            fold(f64::INFINITY, f64::min),
        );
        if shape[d] > 0 {
            let n = shape[d] as f32;
            let means = sums.iter().map(|&s| Scalar::F32(f(s) / n)).collect();
            check("mean_dim", x.view.mean_dim(dim, keepdim).unwrap(), means);
        }
        let first_max = |l: &Vec<Scalar>| {
            let mut best = (f64::NEG_INFINITY, 0);
            for (k, &v) in l.iter().enumerate() {
                if as_f64(v) > best.0 {
                    best = (as_f64(v), k as i64);
                }
            }
            Scalar::I64(best.1)
        };
        let argmax = lanes.iter().map(first_max).collect();
        check(
            "argmax_dim",
            x.view.argmax_dim(dim, keepdim).unwrap(),
            argmax,
        );
        // Running sums in the operand's own dtype.
        let mut running = values.clone();
        for c in coords(shape).iter().filter(|c| c[d] > 0) {
            let mut prev = c.clone();
            prev[d] -= 1;
            let (at, before) = (flat(c, shape), flat(&prev, shape));
            running[at] = ref_binary(BinaryOp::Add, running[at], running[before]);
        }
        let got = x.view.cumsum(dim).unwrap();
        assert_eq!(got.shape(), &shape[..], "seed {seed} cumsum");
        assert_eq!(keys(&scalars(&got)), keys(&running), "seed {seed} cumsum");
    }
}
