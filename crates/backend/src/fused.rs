//! Evaluation of `prim::FusionGroup` bodies.
//!
//! The group is lowered at launch time — when input shapes and scalar
//! operands (slice bounds, select indices, fill values) are known, the same
//! shape-specialization strategy as PyTorch NNC — into a flat plan over
//! dense slots. Every view transform and every broadcast is an affine map of
//! coordinates, so such a node runs nothing: its slot is a [`Layout`] onto
//! an earlier buffer, with stride 0 on broadcast dims. A reshape re-strides
//! a dense view and copies a strided one dense first. Compute nodes run the
//! strided kernels of `tssa_tensor::kernel` — the loops eager execution
//! runs — on plain owned buffers; an assign copies — or, when nothing reads
//! the base afterwards, steals — the base buffer and writes the region
//! through its strides. Allocation is O(plan nodes) per launch; no
//! per-element work allocates or dispatches.
//!
//! What is specific to a launch lives here: slot lowering, per-buffer
//! liveness and steal-or-copy, accessed-bytes accounting and observer
//! timing.
//!
//! The *cost model* charges the whole group as a single kernel whose memory
//! traffic covers only the group's inputs and outputs: on the modeled GPU
//! the fused kernel keeps intermediates in registers. The host-side flat
//! buffers here are an interpreter implementation detail.

use std::collections::HashMap;
use std::time::Instant;

use tssa_ir::{Graph, NodeId, Op, ValueId, ViewKind};
use tssa_tensor::{
    broadcast_shapes, kernel, promote, BinaryOp, Buffer, DType, Layout, Scalar, Tensor, UnaryOp,
};

use crate::observe::OpObserver;
use crate::ops::{dtype_of, elementwise, view_layout, Elementwise};
use crate::{ExecError, RtValue};

/// Result of executing a fusion group.
pub(crate) struct GroupResult {
    /// One runtime value per node output.
    pub outputs: Vec<RtValue>,
    /// Device-memory traffic of the fused kernel (inputs + outputs).
    pub bytes: u64,
    /// Arithmetic work of the fused kernel.
    pub flops: u64,
    /// Wall time the observer was told the body nodes took, summed.
    pub node_ns: u64,
}

/// A zero-copy window onto buffer `buf`.
#[derive(Debug, Clone)]
struct Slot {
    buf: usize,
    layout: Layout,
    dtype: DType,
}

impl Slot {
    /// All of a freshly allocated row-major buffer.
    fn dense(buf: usize, shape: Vec<usize>, dtype: DType) -> Slot {
        Slot {
            buf,
            layout: Layout::contiguous(shape),
            dtype,
        }
    }

    fn shape(&self) -> &[usize] {
        &self.layout.shape
    }

    fn bytes(&self) -> u64 {
        (self.layout.numel() * self.dtype.size_bytes()) as u64
    }

    /// The same buffer seen through `layout`.
    fn with(&self, layout: Layout) -> Slot {
        Slot {
            buf: self.buf,
            layout,
            dtype: self.dtype,
        }
    }

    /// This slot as an operand of an iteration over `shape`.
    fn broadcast_to(&self, shape: &[usize]) -> Result<Slot, ExecError> {
        Ok(self.with(self.layout.broadcast_to(shape)?))
    }
}

/// What a plan node runs. Operand slots are already broadcast to the shape
/// the kernel iterates over.
enum Kernel {
    /// Nothing: the node's slot is a view onto an earlier buffer.
    Alias,
    Un {
        f: UnaryOp,
        a: Slot,
    },
    Bin {
        f: BinaryOp,
        a: Slot,
        b: Slot,
    },
    Where {
        c: Slot,
        a: Slot,
        b: Slot,
    },
    Fill(Scalar),
    /// Element-wise copy into a fresh dense buffer of the node's dtype: a
    /// cast, or a strided view made dense ahead of a reshape.
    Copy(Slot),
    /// Copy or steal slot `base`, then write `src` over `region` of it.
    Assign {
        base: usize,
        src: Slot,
        region: Layout,
    },
}

struct PlanNode {
    kernel: Kernel,
    /// Whether the cost model counts one flop per output element.
    compute: bool,
}

/// Execute `group` (a `prim::FusionGroup` node) on `inputs`.
///
/// When an [`OpObserver`] is supplied, each body node's share of the fused
/// launch is timed during evaluation and attributed to its graph node id
/// under the group (view nodes run nothing and report 0); the caller
/// charges the rest of the launch to the group node itself.
pub(crate) fn run_group(
    g: &Graph,
    group: NodeId,
    inputs: &[RtValue],
    observer: Option<&dyn OpObserver>,
) -> Result<GroupResult, ExecError> {
    let body = g.block(g.node(group).blocks[0]);
    let n_in = inputs.len();
    if n_in != body.params.len() {
        return Err(ExecError::ArityMismatch {
            expected: body.params.len(),
            found: n_in,
        });
    }

    // Slot k < n_in is input k, slot n_in + i the i-th body node; a slot
    // that owns a buffer owns `bufs[slot]`. Tensors are imported with one
    // copy; host scalars become rank-0 buffers, and the operators that take
    // them as attributes read them from `inputs`.
    let n_slots = n_in + body.nodes.len();
    let mut bufs: Vec<Buffer> = Vec::with_capacity(n_slots);
    let mut slots: Vec<Slot> = Vec::with_capacity(n_slots);
    let mut slot_of: HashMap<ValueId, usize> = HashMap::with_capacity(n_slots);
    let host = |s: Scalar| (Buffer::filled(s.dtype(), 1, s), Vec::new());
    for (k, (v, &param)) in inputs.iter().zip(&body.params).enumerate() {
        let (data, shape) = match v {
            RtValue::Tensor(t) => (t.to_buffer(), t.shape().to_vec()),
            RtValue::Float(f) => host(Scalar::F32(*f as f32)),
            RtValue::Int(i) => host(Scalar::I64(*i)),
            RtValue::Bool(b) => host(Scalar::Bool(*b)),
            RtValue::List(_) => return Err(ExecError::unsupported("list input to fusion group")),
        };
        slots.push(Slot::dense(k, shape, data.dtype()));
        bufs.push(data);
        slot_of.insert(param, k);
    }
    bufs.resize_with(n_slots, Buffer::default);

    // Lowering. `last_use[b]` is the last node reading buffer `b` through
    // any view (`usize::MAX` once returned); an input read only through
    // accesses is charged the accessed elements rather than its full size
    // (this matters for parallel-map bodies that read one slice per
    // iteration), so accesses and other reads are told apart per input.
    let mut nodes: Vec<PlanNode> = Vec::with_capacity(body.nodes.len());
    let mut last_use = vec![0usize; n_slots];
    let mut accessed = vec![0u64; n_in];
    let mut other_use = vec![false; n_in];
    let mut reads: Vec<usize> = Vec::with_capacity(3);
    for (idx, &n) in body.nodes.iter().enumerate() {
        let node = g.node(n);
        reads.clear();
        let slot = |i: usize| -> Result<usize, ExecError> {
            let found = node.inputs.get(i).and_then(|v| slot_of.get(v));
            found.copied().ok_or_else(|| {
                ExecError::unsupported("group operand missing or out of compilation scope")
            })
        };
        let mut read = |i: usize| -> Result<usize, ExecError> {
            let s = slot(i)?;
            reads.push(s);
            Ok(s)
        };
        let host = |i: usize| -> Result<&RtValue, ExecError> {
            let scalar = inputs.get(slot(i)?);
            scalar.ok_or_else(|| ExecError::unsupported("expected scalar operand in group"))
        };
        let float_at = |i: usize| Ok(host(i)?.as_float()? as f32);
        let fresh = |shape: Vec<usize>, dtype: DType| Slot::dense(n_in + idx, shape, dtype);
        let (kernel, out, compute) = match elementwise(&node.op, float_at)? {
            Some(Elementwise::Unary(f)) => {
                let a = slots[read(0)?].clone();
                let out = fresh(a.shape().to_vec(), f.result_dtype(a.dtype)?);
                (Kernel::Un { f, a }, out, true)
            }
            Some(Elementwise::Binary(f)) => {
                let (a, b) = (&slots[read(0)?], &slots[read(1)?]);
                let dtype = f.result_dtype(a.dtype, b.dtype);
                let shape = broadcast_shapes(a.shape(), b.shape(), "fused broadcast")?;
                let (a, b) = (a.broadcast_to(&shape)?, b.broadcast_to(&shape)?);
                (Kernel::Bin { f, a, b }, fresh(shape, dtype), true)
            }
            None => match &node.op {
                Op::WhereSelect => {
                    let (c, a, b) = (&slots[read(0)?], &slots[read(1)?], &slots[read(2)?]);
                    let shape = broadcast_shapes(a.shape(), b.shape(), "where")?;
                    let shape = broadcast_shapes(c.shape(), &shape, "where")?;
                    let dtype = promote(a.dtype, b.dtype);
                    let kernel = Kernel::Where {
                        c: c.broadcast_to(&shape)?,
                        a: a.broadcast_to(&shape)?,
                        b: b.broadcast_to(&shape)?,
                    };
                    (kernel, fresh(shape, dtype), true)
                }
                Op::FullLike | Op::ZerosLike | Op::OnesLike => {
                    let like = &slots[slot(0)?];
                    let value = match node.op {
                        Op::FullLike => float_at(1)?,
                        Op::OnesLike => 1.0,
                        _ => 0.0,
                    };
                    let out = fresh(like.shape().to_vec(), like.dtype);
                    (Kernel::Fill(Scalar::F32(value)), out, false)
                }
                Op::BroadcastLike => {
                    let like = &slots[slot(1)?];
                    let src = slots[read(0)?].broadcast_to(like.shape())?;
                    if src.dtype == like.dtype {
                        (Kernel::Alias, src, false)
                    } else {
                        let out = fresh(like.shape().to_vec(), like.dtype);
                        (Kernel::Copy(src), out, false)
                    }
                }
                Op::Cast { dtype } => {
                    let a = slots[read(0)?].clone();
                    let dtype = dtype_of(*dtype);
                    if a.dtype == dtype {
                        (Kernel::Alias, a, true)
                    } else {
                        let out = fresh(a.shape().to_vec(), dtype);
                        (Kernel::Copy(a), out, true)
                    }
                }
                Op::Access(kind) => {
                    let b = slot(0)?;
                    let base = &slots[b];
                    // A strided layout has no affine reshape: copy it dense.
                    let dense;
                    let reshape = matches!(kind, ViewKind::ViewShape { .. });
                    let (kernel, from) = if reshape && !base.layout.is_dense() {
                        dense = fresh(base.shape().to_vec(), base.dtype);
                        (Kernel::Copy(base.clone()), &dense)
                    } else {
                        (Kernel::Alias, base)
                    };
                    let out =
                        from.with(view_layout(kind, &from.layout, |i| host(i + 1)?.as_int())?);
                    last_use[base.buf] = idx;
                    if b < n_in {
                        accessed[b] += out.bytes();
                    }
                    (kernel, out, false)
                }
                Op::Assign(kind) => {
                    let (base, src) = (read(0)?, &slots[read(1)?]);
                    let out = fresh(slots[base].shape().to_vec(), slots[base].dtype);
                    let region = view_layout(kind, &out.layout, |i| host(i + 2)?.as_int())?;
                    let src = src.broadcast_to(&region.shape)?;
                    (Kernel::Assign { base, src, region }, out, false)
                }
                other => {
                    return Err(ExecError::unsupported(format!(
                        "operator {} inside fusion group",
                        other.name()
                    )))
                }
            },
        };
        for &s in &reads {
            last_use[slots[s].buf] = idx;
            if s < n_in {
                other_use[s] = true;
            }
        }
        if let Some(&o) = node.outputs.first() {
            slot_of.insert(o, slots.len());
        }
        slots.push(out);
        nodes.push(PlanNode { kernel, compute });
    }

    let in_bytes: u64 = (0..n_in)
        .map(|k| match slots[k].bytes() {
            full if !other_use[k] && accessed[k] > 0 => accessed[k].min(full),
            full => full,
        })
        .sum();
    let rets: Vec<usize> = body
        .returns
        .iter()
        .map(|r| slot_of.get(r).copied())
        .collect::<Option<_>>()
        .ok_or_else(|| ExecError::unsupported("group return not computed"))?;
    for &r in &rets {
        last_use[slots[r].buf] = usize::MAX;
    }

    // Evaluation, in plan order; each element is computed exactly once.
    let mut node_ns = vec![0u64; nodes.len()];
    for (idx, node) in nodes.iter().enumerate() {
        let started = observer.map(|_| Instant::now());
        let out = &slots[n_in + idx];
        let data = match &node.kernel {
            Kernel::Alias => continue,
            Kernel::Un { f, a } => kernel::unary(*f, at(&bufs, a))?,
            Kernel::Bin { f, a, b } => kernel::binary(*f, at(&bufs, a), at(&bufs, b)),
            Kernel::Where { c, a, b } => kernel::select(at(&bufs, c), at(&bufs, a), at(&bufs, b))?,
            Kernel::Fill(value) => Buffer::filled(out.dtype, out.layout.numel(), *value),
            Kernel::Copy(v) => kernel::cast(at(&bufs, v), out.dtype),
            Kernel::Assign { base, src, region } => {
                let base = &slots[*base];
                let dead = last_use[base.buf] <= idx && src.buf != base.buf;
                let mut dst = if dead && base.layout.covers(&bufs[base.buf]) {
                    std::mem::take(&mut bufs[base.buf])
                } else {
                    kernel::cast(at(&bufs, base), out.dtype)
                };
                kernel::write(&mut dst, region, at(&bufs, src));
                dst
            }
        };
        bufs[out.buf] = data;
        if let Some(at) = started {
            node_ns[idx] = at.elapsed().as_nanos() as u64;
        }
    }

    // Read back: a returned slot that is all of its buffer gives it up.
    let mut outputs = Vec::with_capacity(rets.len());
    let mut out_bytes = 0u64;
    for (i, &r) in rets.iter().enumerate() {
        if r < n_in && !matches!(inputs[r], RtValue::Tensor(_)) {
            return Err(ExecError::unsupported("scalar group return"));
        }
        let v = &slots[r];
        out_bytes += v.bytes();
        let last = !rets[i + 1..].iter().any(|&l| slots[l].buf == v.buf);
        let data = if last && v.layout.covers(&bufs[v.buf]) {
            std::mem::take(&mut bufs[v.buf])
        } else {
            kernel::cast(at(&bufs, v), v.dtype)
        };
        outputs.push(RtValue::Tensor(Tensor::from_buffer(data, v.shape())?));
    }
    let node_flops = |i: usize| {
        if nodes[i].compute {
            slots[n_in + i].layout.numel() as u64
        } else {
            0
        }
    };
    let flops = (0..nodes.len()).map(node_flops).sum();

    if let Some(obs) = observer {
        // Plan node i was built from the i-th body node, in order.
        for (i, &bn) in body.nodes.iter().enumerate() {
            obs.record_op(
                group.index() as u32,
                bn.index() as u32,
                &g.node(bn).op,
                node_ns[i],
                slots[n_in + i].bytes(),
                node_flops(i),
            );
        }
    }
    Ok(GroupResult {
        outputs,
        bytes: in_bytes + out_bytes,
        flops,
        node_ns: node_ns.iter().sum(),
    })
}

/// Slot `s` as a kernel operand.
fn at<'a>(bufs: &'a [Buffer], s: &'a Slot) -> (&'a Buffer, &'a Layout) {
    (&bufs[s.buf], &s.layout)
}
