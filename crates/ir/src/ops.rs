//! The operator set.

use crate::types::{ConstValue, ScalarType};

/// The abstract view rule `[·]` of Definition 3.1, shared by aliasing views
/// ([`Op::View`]) and their immutable counterparts ([`Op::Access`] /
/// [`Op::Assign`], Definitions 3.3–3.4).
///
/// Structural parameters (dimension numbers, permutations, target shapes)
/// live in the kind; *data-dependent* parameters (indices, slice bounds) are
/// node inputs so they can reference loop induction variables.
#[derive(Debug, Clone, PartialEq)]
pub enum ViewKind {
    /// `select(dim)`; extra inputs: `(index: Int)`. Removes `dim`.
    Select {
        /// Dimension selected over.
        dim: i64,
    },
    /// `slice(dim)`; extra inputs: `(start: Int, end: Int, step: Int)`.
    SliceView {
        /// Dimension sliced over.
        dim: i64,
    },
    /// `permute(perm)`; no extra inputs.
    Permute {
        /// The dimension permutation.
        perm: Vec<i64>,
    },
    /// `transpose(dim0, dim1)`; no extra inputs.
    Transpose {
        /// First swapped dimension.
        dim0: i64,
        /// Second swapped dimension.
        dim1: i64,
    },
    /// `unsqueeze(dim)`; no extra inputs.
    Unsqueeze {
        /// Where the size-1 dimension is inserted.
        dim: i64,
    },
    /// `squeeze(dim)`; no extra inputs.
    Squeeze {
        /// The size-1 dimension removed.
        dim: i64,
    },
    /// `expand(shape)` (stride-0 broadcast); no extra inputs. `-1` keeps a
    /// dimension's size.
    Expand {
        /// Target shape.
        shape: Vec<i64>,
    },
    /// `view(shape)` (contiguous reinterpretation); no extra inputs. One
    /// entry may be `-1`.
    ViewShape {
        /// Target shape.
        shape: Vec<i64>,
    },
}

impl ViewKind {
    /// Number of *extra* data inputs beyond the base tensor.
    pub(crate) fn extra_inputs(&self) -> usize {
        match self {
            ViewKind::Select { .. } => 1,
            ViewKind::SliceView { .. } => 3,
            _ => 0,
        }
    }

    /// Whether in-place writes through this view are well-defined (expand
    /// creates overlapping elements, so mutation through it is rejected —
    /// PyTorch does the same).
    pub fn supports_mutation(&self) -> bool {
        !matches!(self, ViewKind::Expand { .. })
    }

    /// Short name used in printing, e.g. `select`.
    pub fn name(&self) -> &'static str {
        match self {
            ViewKind::Select { .. } => "select",
            ViewKind::SliceView { .. } => "slice",
            ViewKind::Permute { .. } => "permute",
            ViewKind::Transpose { .. } => "transpose",
            ViewKind::Unsqueeze { .. } => "unsqueeze",
            ViewKind::Squeeze { .. } => "squeeze",
            ViewKind::Expand { .. } => "expand",
            ViewKind::ViewShape { .. } => "view",
        }
    }
}

/// Declare an operator-kind enum from one table: each row is a variant, its
/// printed name and its number of node inputs. `name()`, `from_name()`,
/// `arity()` and `ALL` all read the rows, and `Op::$wrap` carries the kind.
macro_rules! op_kinds {
    ($(#[$doc:meta])* $kind:ident => Op::$wrap:ident {
        $($variant:ident = ($name:literal, $arity:literal),)+
    }) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum $kind {
            $(#[doc = concat!("`aten::", $name, "`.")] $variant,)+
        }

        impl $kind {
            /// Every kind, in table order.
            pub const ALL: &'static [$kind] = &[$($kind::$variant),+];

            /// Printed name without namespace, e.g. `add`.
            pub fn name(self) -> &'static str {
                match self {
                    $($kind::$variant => $name,)+
                }
            }

            /// The kind printed as `name` — the inverse of [`Self::name`].
            pub fn from_name(name: &str) -> Option<$kind> {
                match name {
                    $($name => Some($kind::$variant),)+
                    _ => None,
                }
            }

            /// Number of node inputs.
            pub fn arity(self) -> usize {
                match self {
                    $($kind::$variant => $arity,)+
                }
            }
        }

        impl From<$kind> for Op {
            fn from(kind: $kind) -> Op {
                Op::$wrap(kind)
            }
        }
    };
}

op_kinds! {
    /// In-place mutation operators (`Mutate(v, w)`, Definition 3.2). The
    /// receiver is the first input; `copy_`, `add_`, `sub_`, `mul_` and
    /// `div_` take a tensor after it (broadcast to the receiver), `fill_`
    /// and the `*_scalar_` kinds one float, `clamp_` two (`lo`, `hi`).
    MutateKind => Op::Mutate {
        Copy = ("copy_", 2),
        Fill = ("fill_", 2),
        Add = ("add_", 2),
        Sub = ("sub_", 2),
        Mul = ("mul_", 2),
        Div = ("div_", 2),
        AddScalar = ("add_scalar_", 2),
        MulScalar = ("mul_scalar_", 2),
        Relu = ("relu_", 1),
        Sigmoid = ("sigmoid_", 1),
        Tanh = ("tanh_", 1),
        Exp = ("exp_", 1),
        Neg = ("neg_", 1),
        Clamp = ("clamp_", 3),
    }
}

impl MutateKind {
    /// The pure operator computing the mutated view's new value from
    /// `(old_view_value, extra inputs…)` — used by the TensorSSA conversion
    /// (`w` in §4.1.1).
    pub fn functional_op(self) -> Op {
        match self {
            MutateKind::Copy => Op::BroadcastLike,
            MutateKind::Fill => Op::FullLike,
            MutateKind::Add => Op::Binary(BinaryKind::Add),
            MutateKind::Sub => Op::Binary(BinaryKind::Sub),
            MutateKind::Mul => Op::Binary(BinaryKind::Mul),
            MutateKind::Div => Op::Binary(BinaryKind::Div),
            MutateKind::AddScalar => Op::Unary(UnaryKind::AddScalar),
            MutateKind::MulScalar => Op::Unary(UnaryKind::MulScalar),
            MutateKind::Relu => Op::Unary(UnaryKind::Relu),
            MutateKind::Sigmoid => Op::Unary(UnaryKind::Sigmoid),
            MutateKind::Tanh => Op::Unary(UnaryKind::Tanh),
            MutateKind::Exp => Op::Unary(UnaryKind::Exp),
            MutateKind::Neg => Op::Unary(UnaryKind::Neg),
            MutateKind::Clamp => Op::Unary(UnaryKind::Clamp),
        }
    }
}

op_kinds! {
    /// Elementwise operators on one tensor, each the tensor core's element
    /// function of the same name. The `*_scalar` kinds take one float
    /// operand `c` after the tensor (`x + c`, …, `x ^ c`), `clamp` two
    /// (`lo`, `hi`).
    UnaryKind => Op::Unary {
        Neg = ("neg", 1),
        Relu = ("relu", 1),
        Sigmoid = ("sigmoid", 1),
        Tanh = ("tanh", 1),
        Exp = ("exp", 1),
        Log = ("log", 1),
        Sqrt = ("sqrt", 1),
        Abs = ("abs", 1),
        LogicalNot = ("logical_not", 1),
        AddScalar = ("add_scalar", 2),
        SubScalar = ("sub_scalar", 2),
        MulScalar = ("mul_scalar", 2),
        DivScalar = ("div_scalar", 2),
        PowScalar = ("pow_scalar", 2),
        Clamp = ("clamp", 3),
    }
}

op_kinds! {
    /// Elementwise operators on two tensors broadcast against each other;
    /// the comparisons give a bool tensor.
    BinaryKind => Op::Binary {
        Add = ("add", 2),
        Sub = ("sub", 2),
        Mul = ("mul", 2),
        Div = ("div", 2),
        Maximum = ("maximum", 2),
        Minimum = ("minimum", 2),
        Pow = ("pow", 2),
        Gt = ("gt", 2),
        Lt = ("lt", 2),
        Ge = ("ge", 2),
        Le = ("le", 2),
        Eq = ("eq", 2),
        LogicalAnd = ("logical_and", 2),
        LogicalOr = ("logical_or", 2),
    }
}

op_kinds! {
    /// Host arithmetic on ints, floats and bools; [`ScalarKind::eval`] is
    /// what each computes (`int_div` truncates, `int_mod` takes the sign of
    /// the dividend).
    ScalarKind => Op::Scalar {
        IntAdd = ("int_add", 2),
        IntSub = ("int_sub", 2),
        IntMul = ("int_mul", 2),
        IntDiv = ("int_div", 2),
        IntMod = ("int_mod", 2),
        IntNeg = ("int_neg", 1),
        IntLt = ("int_lt", 2),
        IntLe = ("int_le", 2),
        IntGt = ("int_gt", 2),
        IntGe = ("int_ge", 2),
        IntEq = ("int_eq", 2),
        IntNe = ("int_ne", 2),
        BoolAnd = ("bool_and", 2),
        BoolOr = ("bool_or", 2),
        BoolNot = ("bool_not", 1),
        FloatAdd = ("float_add", 2),
        FloatSub = ("float_sub", 2),
        FloatMul = ("float_mul", 2),
        FloatDiv = ("float_div", 2),
        FloatNeg = ("float_neg", 1),
        FloatLt = ("float_lt", 2),
        FloatGt = ("float_gt", 2),
        IntToFloat = ("int_to_float", 1),
    }
}

/// Why [`ScalarKind::eval`] refused its operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalarError {
    /// Operand `index` is missing or not of the `expected` type.
    Operand {
        /// Position of the operand.
        index: usize,
        /// The type the operator reads it as.
        expected: &'static str,
    },
    /// Integer division or modulo by zero.
    DivisionByZero,
}

impl ScalarKind {
    /// The operator applied to `operand(0..arity)`. Integers wrap; a float
    /// operand may be an int. Nothing is allocated.
    ///
    /// # Errors
    ///
    /// [`ScalarError::Operand`] for a missing or mistyped operand,
    /// [`ScalarError::DivisionByZero`] for `int_div` / `int_mod` by zero.
    #[inline]
    pub fn eval(
        self,
        operand: impl Fn(usize) -> Option<ConstValue>,
    ) -> Result<ConstValue, ScalarError> {
        use ConstValue::{Bool, Float, Int};
        use ScalarKind::*;
        let bad = |index, expected| ScalarError::Operand { index, expected };
        let int = |i| match operand(i) {
            Some(Int(v)) => Ok(v),
            _ => Err(bad(i, "int")),
        };
        let float = |i| match operand(i) {
            Some(Float(v)) => Ok(v),
            Some(Int(v)) => Ok(v as f64),
            _ => Err(bad(i, "float")),
        };
        let boolean = |i| match operand(i) {
            Some(Bool(v)) => Ok(v),
            _ => Err(bad(i, "bool")),
        };
        let divisor = || match int(1)? {
            0 => Err(ScalarError::DivisionByZero),
            d => Ok(d),
        };
        Ok(match self {
            IntAdd => Int(int(0)?.wrapping_add(int(1)?)),
            IntSub => Int(int(0)?.wrapping_sub(int(1)?)),
            IntMul => Int(int(0)?.wrapping_mul(int(1)?)),
            IntDiv => Int(int(0)?.wrapping_div(divisor()?)),
            IntMod => Int(int(0)?.wrapping_rem(divisor()?)),
            IntNeg => Int(int(0)?.wrapping_neg()),
            IntLt => Bool(int(0)? < int(1)?),
            IntLe => Bool(int(0)? <= int(1)?),
            IntGt => Bool(int(0)? > int(1)?),
            IntGe => Bool(int(0)? >= int(1)?),
            IntEq => Bool(int(0)? == int(1)?),
            IntNe => Bool(int(0)? != int(1)?),
            BoolAnd => Bool(boolean(0)? & boolean(1)?),
            BoolOr => Bool(boolean(0)? | boolean(1)?),
            BoolNot => Bool(!boolean(0)?),
            FloatAdd => Float(float(0)? + float(1)?),
            FloatSub => Float(float(0)? - float(1)?),
            FloatMul => Float(float(0)? * float(1)?),
            FloatDiv => Float(float(0)? / float(1)?),
            FloatNeg => Float(-float(0)?),
            FloatLt => Bool(float(0)? < float(1)?),
            FloatGt => Bool(float(0)? > float(1)?),
            IntToFloat => Float(int(0)? as f64),
        })
    }
}

/// Operator of a [`crate::Node`].
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    // ----------------------------------------------------------- structure
    /// `prim::Constant` with an embedded payload; no inputs, one output.
    Constant(ConstValue),
    /// `prim::ListConstruct`: n inputs, one list output (container alias
    /// dependency).
    ListConstruct,
    /// `prim::ListUnpack`: one list input, n outputs.
    ListUnpack,
    /// `prim::If`: input `(cond: Bool)`, two blocks (then/else) whose returns
    /// match the node outputs.
    If,
    /// `prim::Loop` with TorchScript conventions: inputs
    /// `(trip_count: Int, init_cond: Bool, carried…)`; one block with params
    /// `(iter: Int, carried…)` and returns `(cond: Bool, carried…)`; node
    /// outputs are the final carried values.
    Loop,

    // --------------------------------------------------------- host scalars
    /// Host-scalar arithmetic.
    Scalar(ScalarKind),

    // ------------------------------------------------------ tensor queries
    /// `aten::size(t, dim)` → Int.
    Size {
        /// Queried dimension.
        dim: i64,
    },
    /// `aten::item` on a one-element tensor → Float.
    ItemFloat,
    /// `aten::item` on a one-element tensor → Int.
    ItemInt,
    /// `aten::item` on a one-element bool tensor → Bool.
    ItemBool,

    // ----------------------------------------------------- tensor creation
    /// `aten::zeros(shape)`.
    Zeros {
        /// Static shape.
        shape: Vec<i64>,
    },
    /// `aten::ones(shape)`.
    Ones {
        /// Static shape.
        shape: Vec<i64>,
    },
    /// `aten::full(shape, value: Float input)`.
    Full {
        /// Static shape.
        shape: Vec<i64>,
    },
    /// `aten::arange(n: Int input)` → 1-D f32.
    Arange,
    /// `aten::zeros_like(t)`.
    ZerosLike,
    /// `aten::ones_like(t)`.
    OnesLike,
    /// `aten::full_like(t, value: Float input)`.
    FullLike,
    /// Broadcast `src` to the shape of `like`: inputs `(src, like)`.
    BroadcastLike,

    // ------------------------------------------------------ aliasing views
    /// A view operator (aliases its base tensor).
    View(ViewKind),

    // ---------------------------------------------------------- mutations
    /// An in-place mutation (tensor-level side effect). Output aliases the
    /// mutated input, mirroring `aten::copy_` returning `self`.
    Mutate(MutateKind),

    // ----------------------------------------------- functional elementwise
    /// An elementwise operator on one tensor.
    Unary(UnaryKind),
    /// An elementwise operator on two broadcast tensors.
    Binary(BinaryKind),

    // ------------------------------------------------ reductions & algebra
    /// Softmax along a dimension.
    Softmax {
        /// Reduced dimension.
        dim: i64,
    },
    /// Sum along a dimension.
    SumDim {
        /// Reduced dimension.
        dim: i64,
        /// Keep the reduced dimension as size 1.
        keepdim: bool,
    },
    /// Mean along a dimension.
    MeanDim {
        /// Reduced dimension.
        dim: i64,
        /// Keep the reduced dimension as size 1.
        keepdim: bool,
    },
    /// Max along a dimension (values).
    MaxDim {
        /// Reduced dimension.
        dim: i64,
        /// Keep the reduced dimension as size 1.
        keepdim: bool,
    },
    /// Min along a dimension (values).
    MinDim {
        /// Reduced dimension.
        dim: i64,
        /// Keep the reduced dimension as size 1.
        keepdim: bool,
    },
    /// Argmax along a dimension → i64 tensor.
    ArgmaxDim {
        /// Reduced dimension.
        dim: i64,
        /// Keep the reduced dimension as size 1.
        keepdim: bool,
    },
    /// Cumulative sum along a dimension.
    Cumsum {
        /// Scanned dimension.
        dim: i64,
    },
    /// 2-D matrix multiply.
    Matmul,
    /// Batched matrix multiply.
    Bmm,
    /// Concatenate varargs tensors along `dim`.
    Concat {
        /// Concatenated dimension.
        dim: i64,
    },
    /// Stack varargs tensors along a new `dim`.
    Stack {
        /// Inserted dimension.
        dim: i64,
    },
    /// `where(cond, a, b)`.
    WhereSelect,
    /// `gather(t, index)` along `dim`.
    Gather {
        /// Indexed dimension.
        dim: i64,
    },
    /// `index_select(t, index)` along `dim`.
    IndexSelect {
        /// Indexed dimension.
        dim: i64,
    },
    /// Element type cast (always copies).
    Cast {
        /// Target element type.
        dtype: ScalarType,
    },
    /// `aten::clone` — functional copy breaking aliasing.
    CloneOp,
    /// `aten::contiguous` — copy to dense layout (modelled as always
    /// copying, hence functional).
    Contiguous,
    /// Functional reshape (modelled as always copying, hence non-aliasing);
    /// one entry of `shape` may be `-1`.
    Reshape {
        /// Target shape.
        shape: Vec<i64>,
    },

    // --------------------------------------------------- TensorSSA (§3.2)
    /// `immut::access(base, rule)` — the immutable version of a view
    /// (Definition 3.3): copies the viewed region into fresh storage.
    Access(ViewKind),
    /// `immut::assign(base, src, rule)` — the immutable version of a
    /// mutation (Definition 3.4): a fresh tensor equal to `base` with the
    /// region addressed by the rule replaced by (broadcast) `src`.
    Assign(ViewKind),
    /// `tssa::update(new, old)` — a zero-semantics annotation guiding block
    /// propagation and renaming (Definition 3.5). Removed before execution.
    Update,

    // -------------------------------------------------------------- fusion
    /// A fused kernel: carries one block whose params map 1:1 to the node
    /// inputs and whose returns map 1:1 to the node outputs. Executed as a
    /// single kernel launch by the backend.
    FusionGroup,
    /// A horizontally-parallelized loop (§4.2.2): inputs
    /// `(trip_count: Int, carried…)`; one block with params
    /// `(iter: Int, carried…)`; all iterations are independent and execute
    /// as one batched kernel.
    ParallelMap {
        /// Dimension of the carried tensor written by each iteration.
        dim: i64,
    },
}

impl Op {
    /// Whether this node produces a tensor aliasing one of its inputs.
    pub fn is_view(&self) -> bool {
        matches!(self, Op::View(_))
    }

    /// Whether this node mutates tensor storage in place.
    pub fn is_mutation(&self) -> bool {
        matches!(self, Op::Mutate(_))
    }

    /// Whether this node carries nested blocks.
    pub fn has_blocks(&self) -> bool {
        matches!(
            self,
            Op::If | Op::Loop | Op::FusionGroup | Op::ParallelMap { .. }
        )
    }

    /// Whether the node is free of side effects (safe for DCE/CSE when its
    /// outputs are unused). Views are pure *as values*; their aliasing is
    /// accounted for separately by alias analysis.
    pub fn is_pure(&self) -> bool {
        !matches!(
            self,
            Op::Mutate(_) | Op::If | Op::Loop | Op::FusionGroup | Op::ParallelMap { .. }
        )
    }

    /// Whether this operator is elementwise over its tensor operands —
    /// the vertical-fusion eligibility test (§4.2.1).
    pub fn is_elementwise(&self) -> bool {
        matches!(
            self,
            Op::Unary(_) | Op::Binary(_) | Op::WhereSelect | Op::Cast { .. }
        )
    }

    /// Display name in the TorchScript-flavoured namespace used by the
    /// printer, e.g. `aten::add`, `prim::Loop`, `immut::assign`.
    pub fn name(&self) -> String {
        match self {
            Op::Constant(_) => "prim::Constant".into(),
            Op::ListConstruct => "prim::ListConstruct".into(),
            Op::ListUnpack => "prim::ListUnpack".into(),
            Op::If => "prim::If".into(),
            Op::Loop => "prim::Loop".into(),
            Op::Scalar(k) => format!("aten::{}", k.name()),
            Op::Size { .. } => "aten::size".into(),
            Op::ItemFloat => "aten::item_float".into(),
            Op::ItemInt => "aten::item_int".into(),
            Op::ItemBool => "aten::item_bool".into(),
            Op::Zeros { .. } => "aten::zeros".into(),
            Op::Ones { .. } => "aten::ones".into(),
            Op::Full { .. } => "aten::full".into(),
            Op::Arange => "aten::arange".into(),
            Op::ZerosLike => "aten::zeros_like".into(),
            Op::OnesLike => "aten::ones_like".into(),
            Op::FullLike => "aten::full_like".into(),
            Op::BroadcastLike => "aten::broadcast_like".into(),
            Op::View(k) => format!("aten::{}", k.name()),
            Op::Mutate(k) => format!("aten::{}", k.name()),
            Op::Unary(k) => format!("aten::{}", k.name()),
            Op::Binary(k) => format!("aten::{}", k.name()),
            Op::Softmax { .. } => "aten::softmax".into(),
            Op::SumDim { .. } => "aten::sum".into(),
            Op::MeanDim { .. } => "aten::mean".into(),
            Op::MaxDim { .. } => "aten::max".into(),
            Op::MinDim { .. } => "aten::min".into(),
            Op::ArgmaxDim { .. } => "aten::argmax".into(),
            Op::Cumsum { .. } => "aten::cumsum".into(),
            Op::Matmul => "aten::matmul".into(),
            Op::Bmm => "aten::bmm".into(),
            Op::Concat { .. } => "aten::cat".into(),
            Op::Stack { .. } => "aten::stack".into(),
            Op::WhereSelect => "aten::where".into(),
            Op::Gather { .. } => "aten::gather".into(),
            Op::IndexSelect { .. } => "aten::index_select".into(),
            Op::Cast { .. } => "aten::to".into(),
            Op::CloneOp => "aten::clone".into(),
            Op::Contiguous => "aten::contiguous".into(),
            Op::Reshape { .. } => "aten::reshape".into(),
            Op::Access(k) => format!("immut::{}", k.name()),
            Op::Assign(k) => format!("immut::assign_{}", k.name()),
            Op::Update => "tssa::update".into(),
            Op::FusionGroup => "prim::FusionGroup".into(),
            Op::ParallelMap { .. } => "prim::ParallelMap".into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicates() {
        assert!(Op::View(ViewKind::Select { dim: 0 }).is_view());
        assert!(Op::Mutate(MutateKind::Copy).is_mutation());
        assert!(!Op::Mutate(MutateKind::Copy).is_pure());
        assert!(Op::Binary(BinaryKind::Add).is_pure());
        assert!(Op::Binary(BinaryKind::Add).is_elementwise());
        assert!(!Op::Scalar(ScalarKind::IntAdd).is_elementwise());
        assert!(!Op::Matmul.is_elementwise());
        assert!(Op::If.has_blocks());
        assert!(Op::Loop.has_blocks());
        assert!(!Op::Unary(UnaryKind::Relu).has_blocks());
    }

    #[test]
    fn functional_counterparts() {
        assert_eq!(MutateKind::Add.functional_op(), Op::Binary(BinaryKind::Add));
        assert_eq!(MutateKind::Copy.functional_op(), Op::BroadcastLike);
        assert_eq!(MutateKind::Fill.functional_op(), Op::FullLike);
        assert_eq!(
            MutateKind::Sigmoid.functional_op(),
            Op::Unary(UnaryKind::Sigmoid)
        );
    }

    #[test]
    fn arities() {
        assert_eq!(MutateKind::Copy.arity(), 2);
        assert_eq!(MutateKind::Relu.arity(), 1);
        assert_eq!(MutateKind::Clamp.arity(), 3);
        assert_eq!(UnaryKind::Clamp.arity(), 3);
        assert_eq!(ScalarKind::IntToFloat.arity(), 1);
        assert_eq!(ViewKind::Select { dim: 0 }.extra_inputs(), 1);
        assert_eq!(ViewKind::SliceView { dim: 0 }.extra_inputs(), 3);
        assert_eq!(ViewKind::Transpose { dim0: 0, dim1: 1 }.extra_inputs(), 0);
    }

    #[test]
    fn expand_rejects_mutation() {
        assert!(!ViewKind::Expand { shape: vec![2] }.supports_mutation());
        assert!(ViewKind::Select { dim: 0 }.supports_mutation());
    }

    #[test]
    fn names_are_namespaced() {
        assert_eq!(Op::View(ViewKind::Select { dim: 0 }).name(), "aten::select");
        assert_eq!(Op::Mutate(MutateKind::Copy).name(), "aten::copy_");
        assert_eq!(
            Op::Access(ViewKind::Select { dim: 0 }).name(),
            "immut::select"
        );
        assert_eq!(
            Op::Assign(ViewKind::Select { dim: 0 }).name(),
            "immut::assign_select"
        );
        assert_eq!(Op::Update.name(), "tssa::update");
        assert_eq!(Op::Loop.name(), "prim::Loop");
    }

    #[test]
    fn scalar_eval_wraps_promotes_and_refuses_zero_divisors() {
        use ConstValue::{Bool, Float, Int};
        use ScalarKind::*;
        let eval = |k: ScalarKind, a: ConstValue, b: ConstValue| {
            k.eval(|i| [a.clone(), b.clone()].get(i).cloned())
        };
        let (min, max) = (i64::MIN, i64::MAX);
        assert_eq!(eval(IntDiv, Int(min), Int(-1)), Ok(Int(min)));
        assert_eq!(eval(IntMod, Int(min), Int(-1)), Ok(Int(0)));
        assert_eq!(eval(IntAdd, Int(max), Int(1)), Ok(Int(min)));
        assert_eq!(eval(IntNeg, Int(min), Int(0)), Ok(Int(min)));
        let zero = Err(ScalarError::DivisionByZero);
        assert_eq!(eval(IntMod, Int(1), Int(0)), zero);
        assert_eq!(eval(FloatAdd, Int(1), Float(0.5)), Ok(Float(1.5)));
        assert_eq!(eval(FloatLt, Int(1), Float(0.5)), Ok(Bool(false)));
        let (index, expected) = (1, "bool");
        let mistyped = Err(ScalarError::Operand { index, expected });
        assert_eq!(eval(BoolAnd, Bool(false), Int(1)), mistyped);
    }
}
