//! Shape classes: every cached plan is one `ShapeSignature` equivalence
//! class, and the plan cache holds nothing else.
//!
//! * [`ArgKey`] — one argument's skeleton: polymorphic dims erased to `None`,
//!   specialized dims pinned to their constant;
//! * [`PlanClassKey`] — *(source, pipeline, skeleton)*: the identity of a
//!   whole shape class. Two concrete signatures map to the same key iff they
//!   agree on every pinned dim (and rank/dtype/arity), which by construction
//!   of the skeleton means the same compiled plan serves both.
//!   [`PlanClassKey::class_hash`] is the one identity hash: the class hash of
//!   a load's *exact* class names its plan file on disk;
//! * [`ClassSignature`] — a key plus the certifying [`ShapeSignature`];
//!   [`ClassSignature::admits`] is the gate a lookup passes before reusing
//!   the class plan (pinned dims equal + the signature's constraints hold).
//!   [`ClassSignature::derive`] generalizes a compiled plan from its
//!   certificate; [`ClassSignature::exact`] pins every argument and admits
//!   only the example's shapes and dtypes (scalar values erased) — the class
//!   of a plan `derive` refuses;
//! * [`ClassEntry`] — the cached class: the one plan and its batch spec.
//!
//! `derive` only generalizes signatures with zero data-dependent dims:
//! those are exactly the plans whose output shapes are affine in the input
//! dims, so any admitted concrete shape executes identically to a fresh
//! compile at that shape (certified end-to-end by the cross-shape
//! differential suite).

use std::sync::Arc;

use tssa_backend::RtValue;
use tssa_ir::{DimClass, ShapeSignature};
use tssa_pipelines::{CompiledProgram, PipelineKind};
use tssa_store::fnv64;
use tssa_tensor::DType;

use crate::batch::BatchSpec;
use crate::cache::ArgSig;

/// One argument's shape skeleton within a [`PlanClassKey`]: `None` dims are
/// polymorphic (any extent admitted), `Some(n)` dims are pinned.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ArgKey {
    /// A tensor with per-dim pins.
    Tensor {
        /// One entry per dimension: `None` = polymorphic, `Some(n)` = pinned.
        dims: Vec<Option<usize>>,
        /// Element type (always part of the class identity).
        dtype: DType,
    },
    /// A host integer (value-erased, like [`ArgSig::Int`]).
    Int,
    /// A host float.
    Float,
    /// A host boolean.
    Bool,
    /// A host list of skeletons.
    List(Vec<ArgKey>),
}

impl ArgKey {
    /// Fully pinned skeleton of a concrete signature (every dim `Some`).
    fn pinned(sig: &ArgSig) -> ArgKey {
        match sig {
            ArgSig::Tensor { shape, dtype } => ArgKey::Tensor {
                dims: shape.iter().map(|&n| Some(n)).collect(),
                dtype: *dtype,
            },
            ArgSig::Int => ArgKey::Int,
            ArgSig::Float => ArgKey::Float,
            ArgSig::Bool => ArgKey::Bool,
            ArgSig::List(items) => ArgKey::List(items.iter().map(ArgKey::pinned).collect()),
        }
    }

    /// Fully erased skeleton (every dim `None`): rank + dtype only.
    fn erased(sig: &ArgSig) -> ArgKey {
        match sig {
            ArgSig::Tensor { shape, dtype } => ArgKey::Tensor {
                dims: vec![None; shape.len()],
                dtype: *dtype,
            },
            ArgSig::Int => ArgKey::Int,
            ArgSig::Float => ArgKey::Float,
            ArgSig::Bool => ArgKey::Bool,
            ArgSig::List(items) => ArgKey::List(items.iter().map(ArgKey::erased).collect()),
        }
    }

    /// Erase every pin (used to derive the coarse pre-compile hash from a
    /// full skeleton).
    fn erase(&self) -> ArgKey {
        match self {
            ArgKey::Tensor { dims, dtype } => ArgKey::Tensor {
                dims: vec![None; dims.len()],
                dtype: *dtype,
            },
            ArgKey::List(items) => ArgKey::List(items.iter().map(ArgKey::erase).collect()),
            other => other.clone(),
        }
    }

    /// Does a concrete argument match this skeleton (kind, dtype, rank and
    /// every pinned dim)?
    fn matches(&self, sig: &ArgSig) -> bool {
        match (self, sig) {
            (ArgKey::Tensor { dims, dtype }, ArgSig::Tensor { shape, dtype: dt }) => {
                dtype == dt
                    && dims.len() == shape.len()
                    && dims
                        .iter()
                        .zip(shape)
                        .all(|(pin, &n)| pin.is_none() || *pin == Some(n))
            }
            (ArgKey::Int, ArgSig::Int)
            | (ArgKey::Float, ArgSig::Float)
            | (ArgKey::Bool, ArgSig::Bool) => true,
            (ArgKey::List(ks), ArgSig::List(items)) => {
                ks.len() == items.len() && ks.iter().zip(items).all(|(k, a)| k.matches(a))
            }
            _ => false,
        }
    }
}

/// Identity of a shape class: which program, compiled how, with which dims
/// pinned. Polymorphic dims are erased, so every concrete signature the
/// class admits derives the *same* key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanClassKey {
    /// FNV-1a hash of the DSL source.
    pub source_hash: u64,
    /// Pipeline used to compile.
    pub pipeline: PipelineKind,
    /// Per-argument skeletons.
    pub skeleton: Vec<ArgKey>,
}

impl PlanClassKey {
    /// Identity hash of this class — for a load's exact class, the plan's
    /// file name: FNV-1a over (source hash, pipeline name, skeleton). The
    /// pipeline's execution profile follows from its name and does not
    /// change the compiled graph; a changed pass roster is caught by the
    /// plan file's roster fingerprint.
    pub fn class_hash(&self) -> u64 {
        hash_identity(self.source_hash, self.pipeline, &self.skeleton)
    }

    /// The coarse (pre-compile) hash of this class: every pin erased, so it
    /// can be computed from concrete inputs *before* any plan exists and
    /// used to index candidate classes.
    pub fn coarse_hash(&self) -> u64 {
        let erased: Vec<ArgKey> = self.skeleton.iter().map(ArgKey::erase).collect();
        hash_identity(self.source_hash, self.pipeline, &erased)
    }

    /// Human-readable skeleton in [`bucket_label_of`]'s grammar, with `*`
    /// marking erased (polymorphic) dims — e.g. `*x512x4,i` for a class
    /// pinning everything but the batch dim of its first argument.
    pub fn render(&self) -> String {
        fn one(key: &ArgKey) -> String {
            match key {
                ArgKey::Tensor { dims, .. } => dims
                    .iter()
                    .map(|d| d.map_or_else(|| "*".into(), |n| n.to_string()))
                    .collect::<Vec<_>>()
                    .join("x"),
                ArgKey::Int => "i".into(),
                ArgKey::Float => "f".into(),
                ArgKey::Bool => "b".into(),
                ArgKey::List(items) => {
                    format!("({})", items.iter().map(one).collect::<Vec<_>>().join(","))
                }
            }
        }
        self.skeleton.iter().map(one).collect::<Vec<_>>().join(",")
    }
}

/// The coarse class hash of a concrete request: rank + dtype skeleton with
/// every dim erased. Computable before compiling; equal to
/// [`PlanClassKey::coarse_hash`] for any class that could admit the request.
pub fn coarse_class_hash(source: &str, pipeline: PipelineKind, args: &[ArgSig]) -> u64 {
    let erased: Vec<ArgKey> = args.iter().map(ArgKey::erased).collect();
    hash_identity(fnv64(source.as_bytes()), pipeline, &erased)
}

fn hash_identity(source_hash: u64, pipeline: PipelineKind, skeleton: &[ArgKey]) -> u64 {
    let mut bytes = Vec::with_capacity(128);
    bytes.extend_from_slice(&source_hash.to_le_bytes());
    bytes.extend_from_slice(pipeline.name().as_bytes());
    bytes.push(0xFE);
    // ArgKey's derived Debug output is deterministic and covers every
    // pin/dtype field — a stable textual encoding of the skeleton.
    bytes.extend_from_slice(format!("{skeleton:?}").as_bytes());
    fnv64(&bytes)
}

/// A class key together with the [`ShapeSignature`] that certifies it.
#[derive(Debug, Clone)]
pub struct ClassSignature {
    /// The class identity.
    pub key: PlanClassKey,
    /// The certifying signature (constraints gate admission).
    pub signature: ShapeSignature,
}

impl ClassSignature {
    /// The class that admits exactly `example`'s signature: every argument
    /// pinned, no constraints — same tensor shapes and dtypes, any scalar
    /// values. Computable before compiling; its key's class hash is the
    /// plan's file name on disk.
    pub fn exact(source: &str, pipeline: PipelineKind, example: &[ArgSig]) -> ClassSignature {
        ClassSignature {
            key: PlanClassKey {
                source_hash: fnv64(source.as_bytes()),
                pipeline,
                skeleton: example.iter().map(ArgKey::pinned).collect(),
            },
            signature: ShapeSignature::default(),
        }
    }

    /// Derive the class of a compiled plan from its certified signature and
    /// the example it was compiled against. Returns `None` when the plan is
    /// not class-eligible: any data-dependent dim (input or output), or a
    /// signature that fails to admit its own example (an inconsistency we
    /// refuse to generalize from).
    pub fn derive(
        source: &str,
        pipeline: PipelineKind,
        example: &[ArgSig],
        signature: &ShapeSignature,
    ) -> Option<ClassSignature> {
        if signature.data_dependent_output_dims() > 0 || signature.data_dependent_input_dims() > 0 {
            return None;
        }
        let skeleton = example
            .iter()
            .enumerate()
            .map(|(i, arg)| match arg {
                ArgSig::Tensor { shape, dtype } => {
                    match signature.inputs.get(i).and_then(|o| o.as_ref()) {
                        Some(classes) if classes.len() == shape.len() => ArgKey::Tensor {
                            dims: classes
                                .iter()
                                .zip(shape)
                                .map(|(c, &n)| match c {
                                    DimClass::Polymorphic => None,
                                    DimClass::Specialized(k) => Some(*k),
                                    // Unreachable behind the gate above; pin
                                    // conservatively if it ever isn't.
                                    DimClass::DataDependent => Some(n),
                                })
                                .collect(),
                            dtype: *dtype,
                        },
                        // Rank not certified: pin the whole shape.
                        _ => ArgKey::pinned(arg),
                    }
                }
                other => ArgKey::pinned(other),
            })
            .collect();
        // Drop constraints the deriving example itself violates. The
        // example demonstrably executes this plan, so a constraint it fails
        // is an artifact of the symbolic analysis over-approximating (e.g.
        // broadcasting rendered as dim equality), not a true precondition;
        // constraints the example satisfies stay enforced on admission.
        let example_shapes: Vec<Option<Vec<usize>>> = example
            .iter()
            .map(|a| match a {
                ArgSig::Tensor { shape, .. } => Some(shape.clone()),
                _ => None,
            })
            .collect();
        let mut signature = signature.clone();
        signature.constraints.retain(|c| c.admits(&example_shapes));
        let class = ClassSignature {
            key: PlanClassKey {
                source_hash: fnv64(source.as_bytes()),
                pipeline,
                skeleton,
            },
            signature,
        };
        class.admits(example).then_some(class)
    }

    /// Does a concrete signature belong to this class? Arity, kind, dtype,
    /// rank and every pinned dim must match, and the certifying signature's
    /// constraints must hold on the concrete shapes.
    pub fn admits(&self, args: &[ArgSig]) -> bool {
        if args.len() != self.key.skeleton.len() {
            return false;
        }
        if !self
            .key
            .skeleton
            .iter()
            .zip(args)
            .all(|(k, a)| k.matches(a))
        {
            return false;
        }
        let shapes: Vec<Option<Vec<usize>>> = args
            .iter()
            .map(|a| match a {
                ArgSig::Tensor { shape, .. } => Some(shape.clone()),
                _ => None,
            })
            .collect();
        self.signature.constraints_admit(&shapes)
    }
}

/// The canonical bucket label of a concrete signature: per-argument dims
/// (`2x4`), `i`/`f`/`b` for host scalars, parenthesized lists; arguments
/// joined by `,`. Used as the `bucket` label on `tssa_plan_class_hits_total`.
pub(crate) fn bucket_label_of(args: &[ArgSig]) -> String {
    fn one(sig: &ArgSig) -> String {
        match sig {
            ArgSig::Tensor { shape, .. } => shape
                .iter()
                .map(|n| n.to_string())
                .collect::<Vec<_>>()
                .join("x"),
            ArgSig::Int => "i".into(),
            ArgSig::Float => "f".into(),
            ArgSig::Bool => "b".into(),
            ArgSig::List(items) => {
                format!("({})", items.iter().map(one).collect::<Vec<_>>().join(","))
            }
        }
    }
    args.iter().map(one).collect::<Vec<_>>().join(",")
}

/// The bucket label of concrete runtime inputs.
pub(crate) fn bucket_label(inputs: &[RtValue]) -> String {
    bucket_label_of(&crate::cache::signature_of(inputs))
}

/// A resident shape class: the plan and its batch spec. Shared (via `Arc`)
/// between the cache and every [`ModelHandle`](crate::ModelHandle) that
/// loaded into the class.
#[derive(Debug)]
pub struct ClassEntry {
    class: ClassSignature,
    plan: Arc<CompiledProgram>,
    spec: Arc<BatchSpec>,
    /// The concrete signature the plan was compiled (or loaded) for.
    example: Vec<ArgSig>,
    file_hash: u64,
    roster_fp: u64,
}

impl ClassEntry {
    pub(crate) fn new(
        class: ClassSignature,
        plan: Arc<CompiledProgram>,
        spec: Arc<BatchSpec>,
        example: Vec<ArgSig>,
        file_hash: u64,
        roster_fp: u64,
    ) -> ClassEntry {
        ClassEntry {
            class,
            plan,
            spec,
            example,
            file_hash,
            roster_fp,
        }
    }

    /// The class identity.
    pub fn key(&self) -> &PlanClassKey {
        &self.class.key
    }

    /// The certifying signature (empty for an exact class).
    pub fn signature(&self) -> &ShapeSignature {
        &self.class.signature
    }

    pub(crate) fn admits(&self, args: &[ArgSig]) -> bool {
        self.class.admits(args)
    }

    /// Is `args` the signature this entry's plan was compiled for?
    pub(crate) fn is_example(&self, args: &[ArgSig]) -> bool {
        self.example == args
    }

    pub(crate) fn plan(&self) -> &Arc<CompiledProgram> {
        &self.plan
    }

    pub(crate) fn spec(&self) -> &Arc<BatchSpec> {
        &self.spec
    }

    /// The plan's file name on disk: the class hash of its example's exact
    /// class.
    pub(crate) fn file_hash(&self) -> u64 {
        self.file_hash
    }

    pub(crate) fn roster_fp(&self) -> u64 {
        self.roster_fp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tssa_ir::{Constraint, DimVar, SymExpr};

    fn tensor(shape: &[usize]) -> ArgSig {
        ArgSig::Tensor {
            shape: shape.to_vec(),
            dtype: DType::F32,
        }
    }

    fn poly_sig(ranks: &[usize]) -> ShapeSignature {
        ShapeSignature {
            inputs: ranks
                .iter()
                .map(|&r| Some(vec![DimClass::Polymorphic; r]))
                .collect(),
            outputs: vec![],
            constraints: vec![],
        }
    }

    #[test]
    fn polymorphic_dims_erase_and_admit_any_extent() {
        let sig = poly_sig(&[2]);
        let class =
            ClassSignature::derive("src", PipelineKind::TensorSsa, &[tensor(&[2, 4])], &sig)
                .expect("eligible");
        assert_eq!(
            class.key.skeleton,
            vec![ArgKey::Tensor {
                dims: vec![None, None],
                dtype: DType::F32,
            }]
        );
        assert!(class.admits(&[tensor(&[7, 9])]));
        assert!(!class.admits(&[tensor(&[7])]), "rank mismatch");
        assert!(!class.admits(&[tensor(&[7, 9]), tensor(&[1])]), "arity");
        // Same key regardless of the deriving example.
        let other =
            ClassSignature::derive("src", PipelineKind::TensorSsa, &[tensor(&[9, 1])], &sig)
                .unwrap();
        assert_eq!(class.key, other.key);
        assert_eq!(class.key.class_hash(), other.key.class_hash());
    }

    #[test]
    fn specialized_dims_pin_and_split_classes() {
        let sig = ShapeSignature {
            inputs: vec![Some(vec![DimClass::Polymorphic, DimClass::Specialized(4)])],
            outputs: vec![],
            constraints: vec![],
        };
        let class =
            ClassSignature::derive("src", PipelineKind::TensorSsa, &[tensor(&[2, 4])], &sig)
                .expect("eligible");
        assert_eq!(class.key.render(), "*x4");
        assert!(class.admits(&[tensor(&[9, 4])]));
        assert!(!class.admits(&[tensor(&[9, 5])]), "pinned dim differs");
        // An example violating its own pin is refused.
        assert!(
            ClassSignature::derive("src", PipelineKind::TensorSsa, &[tensor(&[2, 5])], &sig)
                .is_none()
        );
        // A differently pinned signature is a different class.
        let sig8 = ShapeSignature {
            inputs: vec![Some(vec![DimClass::Polymorphic, DimClass::Specialized(8)])],
            outputs: vec![],
            constraints: vec![],
        };
        let class8 =
            ClassSignature::derive("src", PipelineKind::TensorSsa, &[tensor(&[2, 8])], &sig8)
                .unwrap();
        assert_ne!(class.key, class8.key);
        assert_ne!(class.key.class_hash(), class8.key.class_hash());
        // Both share the coarse (rank + dtype) hash.
        assert_eq!(class.key.coarse_hash(), class8.key.coarse_hash());
        assert_eq!(
            class.key.coarse_hash(),
            coarse_class_hash("src", PipelineKind::TensorSsa, &[tensor(&[3, 7])])
        );
    }

    #[test]
    fn exact_class_admits_only_its_example_signature() {
        let example = vec![tensor(&[2, 4]), ArgSig::Int];
        let class = ClassSignature::exact("src", PipelineKind::TensorSsa, &example);
        assert_eq!(class.key.render(), "2x4,i");
        assert!(class.admits(&example));
        assert!(!class.admits(&[tensor(&[3, 4]), ArgSig::Int]), "shape");
        assert!(!class.admits(&[tensor(&[2, 4])]), "arity");
        // Filed under the request's coarse hash, beside any derived class.
        assert_eq!(
            class.key.coarse_hash(),
            coarse_class_hash("src", PipelineKind::TensorSsa, &example)
        );
    }

    #[test]
    fn data_dependence_disqualifies_a_class() {
        let tainted = ShapeSignature {
            inputs: vec![Some(vec![DimClass::DataDependent])],
            outputs: vec![],
            constraints: vec![],
        };
        assert!(
            ClassSignature::derive("src", PipelineKind::TensorSsa, &[tensor(&[2])], &tainted)
                .is_none()
        );
    }

    #[test]
    fn constraints_gate_admission() {
        let mut sig = poly_sig(&[2, 2]);
        sig.constraints = vec![Constraint::Eq(
            SymExpr::var(DimVar { input: 0, dim: 1 }),
            SymExpr::var(DimVar { input: 1, dim: 0 }),
        )];
        let class = ClassSignature::derive(
            "src",
            PipelineKind::TensorSsa,
            &[tensor(&[2, 3]), tensor(&[3, 5])],
            &sig,
        )
        .expect("eligible");
        assert!(class.admits(&[tensor(&[9, 6]), tensor(&[6, 5])]));
        assert!(!class.admits(&[tensor(&[9, 6]), tensor(&[7, 5])]));
    }

    #[test]
    fn bucket_labels_are_canonical() {
        let args = vec![
            tensor(&[2, 4]),
            ArgSig::Int,
            ArgSig::List(vec![tensor(&[3])]),
        ];
        assert_eq!(bucket_label_of(&args), "2x4,i,(3)");
    }
}
