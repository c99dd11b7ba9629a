//! Evaluation of `prim::FusionGroup` bodies.
//!
//! A group is lowered once, when its graph is planned (`plan::GroupPlan`):
//! dense slots, one kernel kind per body node, operands as slot indices,
//! liveness. A launch *binds* that plan to the run's shapes and scalar
//! operands (slice bounds, select indices, fill values — the same
//! shape-specialization strategy as PyTorch NNC) and evaluates it node by
//! node. Every view transform and every broadcast is an affine map of
//! coordinates, so such a node runs nothing: its slot owns a [`Layout`] onto
//! an earlier buffer, with stride 0 on broadcast dims (its dims are inline:
//! making one allocates nothing). A reshape re-strides a dense view and
//! copies a strided one dense first. Compute nodes run the strided kernels
//! of `tssa_tensor::kernel` — the loops eager execution runs; an assign
//! copies — or, when nothing reads the base afterwards and the launch owns
//! it, steals — the base buffer and writes the region through its strides.
//!
//! Tensor inputs are not copied in. One that the enclosing block lets go of
//! at this launch, that the body could write over or return, and that
//! nobody else holds is *donated*: its storage buffer moves into the
//! launch, where an assign can write it in place (a loop that carries a
//! tensor through a group updates one buffer for its whole run). Every
//! other input is *borrowed*: read where it lies, through
//! its own layout, under one read lock per distinct storage. Whether a
//! buffer may be taken is decided by ownership alone
//! ([`Tensor::into_buffer`]); liveness only says who lets go.
//!
//! The *cost model* charges the whole group as a single kernel whose memory
//! traffic covers only the group's inputs and outputs: on the modeled GPU
//! the fused kernel keeps intermediates in registers. The host-side flat
//! buffers here are an interpreter implementation detail.

use std::time::Instant;

use tssa_ir::{Graph, NodeId, Op, ViewKind};
use tssa_tensor::{
    broadcast_shapes, kernel, promote, read_buffers, Buffer, DType, Layout, Scalar, Tensor,
};

use crate::observe::OpObserver;
use crate::ops::{unary_op, view_layout};
use crate::plan::{GroupPlan, InputUse, Kind, PlanNode};
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

/// A zero-copy window onto buffer `buf`; a lent input is seen through a
/// copy of its tensor's layout.
#[derive(Debug)]
struct Slot {
    buf: usize,
    layout: Layout,
    dtype: DType,
}

impl Slot {
    /// All of a row-major buffer.
    fn dense(buf: usize, shape: &[usize], dtype: DType) -> Slot {
        Slot {
            buf,
            layout: Layout::contiguous(shape).expect("a planned buffer's shape fits"),
            dtype,
        }
    }

    /// Another window onto the same buffer.
    fn view(&self, layout: Layout) -> Slot {
        Slot {
            buf: self.buf,
            layout,
            dtype: self.dtype,
        }
    }

    fn shape(&self) -> &[usize] {
        self.layout.shape()
    }

    fn bytes(&self) -> u64 {
        (self.layout.numel() * self.dtype.size_bytes()) as u64
    }
}

/// A buffer of a launch: its own, or an input's storage read in place.
enum Buf<'a> {
    Own(Buffer),
    Lent(&'a Buffer),
}

impl Buf<'_> {
    fn get(&self) -> &Buffer {
        match self {
            Buf::Own(b) => b,
            Buf::Lent(b) => b,
        }
    }

    /// The buffer itself, if the launch owns it and `layout` is all of it.
    fn take(&mut self, layout: &Layout) -> Option<Buffer> {
        match self {
            Buf::Own(b) if layout.covers(b) => Some(std::mem::take(b)),
            _ => None,
        }
    }
}

/// Slot `s` as a kernel operand.
fn at<'a>(bufs: &'a [Buf], s: &'a Slot) -> (&'a Buffer, &'a Layout) {
    (bufs[s.buf].get(), &s.layout)
}

/// Launch `group` (a `prim::FusionGroup` node, lowered as `plan`) on the
/// values its inputs have in `regs`. An input the plan would donate leaves
/// its register if it can give up its buffer.
///
/// When an [`OpObserver`] is supplied, each body node's share of the fused
/// launch is timed during evaluation and attributed to its graph node id
/// under the group (view nodes run nothing and report 0); the caller
/// charges the rest of the launch to the group node itself.
pub(crate) fn run_group(
    g: &Graph,
    group: NodeId,
    plan: &GroupPlan,
    regs: &mut [Option<RtValue>],
    observer: Option<&dyn OpObserver>,
) -> Result<GroupResult, ExecError> {
    let inputs = &g.node(group).inputs;

    // Donation: a tensor the plan lets go of here and that nobody else holds
    // gives up its buffer. Every other input stays in its register.
    let mut donated: Vec<(Slot, Buffer)> = Vec::new();
    for (k, &v) in inputs.iter().enumerate().filter(|&(k, _)| plan.donate[k]) {
        let reg = &mut regs[v.index()];
        if let Some(RtValue::Tensor(t)) = reg.take_if(|v| matches!(v, RtValue::Tensor(_))) {
            let slot = Slot::dense(k, t.shape(), t.dtype());
            match t.into_buffer() {
                Ok(data) => donated.push((slot, data)),
                Err(t) => *reg = Some(RtValue::Tensor(t)),
            }
        }
    }
    // The tensors still there are lent: read where they lie, each distinct
    // storage locked once for the launch.
    let regs = &*regs;
    let lent: Vec<&Tensor> = (inputs.iter())
        .filter_map(|v| match &regs[v.index()] {
            Some(RtValue::Tensor(t)) => Some(t),
            _ => None,
        })
        .collect();
    read_buffers(&lent, |storages| {
        evaluate(g, group, plan, regs, donated, storages, observer)
    })
}

/// Bind `plan` to this launch's inputs — `donated` ones owned, the tensors
/// left in `regs` seen through `storages`, in input order — evaluate it in
/// plan order, each element computed exactly once, and read the returned
/// slots back.
fn evaluate(
    g: &Graph,
    group: NodeId,
    plan: &GroupPlan,
    regs: &[Option<RtValue>],
    donated: Vec<(Slot, Buffer)>,
    storages: &[&Buffer],
    observer: Option<&dyn OpObserver>,
) -> Result<GroupResult, ExecError> {
    let inputs = &g.node(group).inputs;
    let n_in = plan.n_in;
    let n_slots = n_in + plan.nodes.len();
    let mut bufs: Vec<Buf> = Vec::with_capacity(n_slots);
    let mut slots: Vec<Slot> = Vec::with_capacity(n_slots);
    let (mut donated, mut storages) = (donated.into_iter().peekable(), storages.iter());
    for (k, &v) in inputs.iter().enumerate() {
        if let Some((slot, data)) = donated.next_if(|(slot, _)| slot.buf == k) {
            slots.push(slot);
            bufs.push(Buf::Own(data));
            continue;
        }
        // A host scalar is a rank-0 buffer if a kernel reads it; the
        // operators that take scalars as attributes read their registers.
        let scalar = match &regs[v.index()] {
            Some(RtValue::Tensor(t)) => {
                slots.push(Slot {
                    buf: k,
                    layout: t.layout().clone(),
                    dtype: t.dtype(),
                });
                bufs.push(Buf::Lent(storages.next().expect("one per lent tensor")));
                continue;
            }
            Some(RtValue::Float(f)) => Scalar::F32(*f as f32),
            Some(RtValue::Int(i)) => Scalar::I64(*i),
            Some(RtValue::Bool(b)) => Scalar::Bool(*b),
            Some(RtValue::List(_)) => {
                return Err(ExecError::unsupported("list input to fusion group"))
            }
            None => return Err(ExecError::Undefined { value: v.index() }),
        };
        let read = usize::from(plan.uses[k] != InputUse::Meta);
        slots.push(Slot::dense(k, &[], scalar.dtype()));
        bufs.push(Buf::Own(Buffer::filled(scalar.dtype(), read, scalar)));
    }

    let (mut flops, mut node_ns) = (0u64, 0u64);
    for (idx, pn) in plan.nodes.iter().enumerate() {
        let op = &g.node(pn.id).op;
        // Operand `i` as a host scalar: a group input, read from its register.
        let scalar = |i: usize| -> Result<&RtValue, ExecError> {
            let slot = pn.operands.get(i).ok_or_else(|| {
                ExecError::unsupported("group operand missing or out of compilation scope")
            })?;
            let reg = inputs.get(*slot).and_then(|v| regs[v.index()].as_ref());
            reg.ok_or_else(|| ExecError::unsupported("expected scalar operand in group"))
        };
        let float = |i: usize| Ok(scalar(i)?.as_float()? as f32);
        let operand = |i: usize| &slots[pn.operands[i]];
        let fresh = |shape: &[usize], dtype: DType| Slot::dense(n_in + idx, shape, dtype);
        let started = observer.map(|_| Instant::now());
        // The node's slot, and its buffer if it runs a kernel.
        let (out, data) = match pn.kind {
            Kind::Unary => {
                let Op::Unary(kind) = op else {
                    unreachable!("planned as a unary operator")
                };
                let f = unary_op(*kind, float)?;
                let a = operand(0);
                let out = fresh(a.shape(), f.result_dtype(a.dtype)?);
                (out, Some(kernel::unary(f, at(&bufs, a))?))
            }
            Kind::Binary(f) => {
                let (a, b) = (operand(0), operand(1));
                let shape = broadcast_shapes(a.shape(), b.shape(), "fused broadcast")?;
                let (la, lb) = (
                    a.layout.broadcast_to(&shape)?,
                    b.layout.broadcast_to(&shape)?,
                );
                let data = kernel::binary(f, (bufs[a.buf].get(), &la), (bufs[b.buf].get(), &lb));
                (fresh(&shape, f.result_dtype(a.dtype, b.dtype)), Some(data))
            }
            Kind::Where => {
                let (c, a, b) = (operand(0), operand(1), operand(2));
                let shape = broadcast_shapes(a.shape(), b.shape(), "where")?;
                let shape = broadcast_shapes(c.shape(), &shape, "where")?;
                let (lc, la, lb) = (
                    c.layout.broadcast_to(&shape)?,
                    a.layout.broadcast_to(&shape)?,
                    b.layout.broadcast_to(&shape)?,
                );
                let data = kernel::select(
                    (bufs[c.buf].get(), &lc),
                    (bufs[a.buf].get(), &la),
                    (bufs[b.buf].get(), &lb),
                )?;
                (fresh(&shape, promote(a.dtype, b.dtype)), Some(data))
            }
            Kind::Fill(value) => {
                let like = operand(0);
                let value = Scalar::F32(match value {
                    Some(constant) => constant,
                    None => float(1)?,
                });
                let data = Buffer::filled(like.dtype, like.layout.numel(), value);
                (fresh(like.shape(), like.dtype), Some(data))
            }
            Kind::BroadcastLike => {
                let (src, like) = (operand(0), operand(1));
                let layout = src.layout.broadcast_to(like.shape())?;
                if src.dtype == like.dtype {
                    (src.view(layout), None)
                } else {
                    let data = kernel::cast((bufs[src.buf].get(), &layout), like.dtype);
                    (fresh(like.shape(), like.dtype), Some(data))
                }
            }
            Kind::Cast(dtype) => {
                let a = operand(0);
                if a.dtype == dtype {
                    (a.view(a.layout.clone()), None)
                } else {
                    let data = kernel::cast(at(&bufs, a), dtype);
                    (fresh(a.shape(), dtype), Some(data))
                }
            }
            Kind::Access => {
                let Op::Access(kind) = op else {
                    unreachable!("planned as an access")
                };
                let base = operand(0);
                let int = |i: usize| scalar(i + 1)?.as_int();
                // A strided layout has no affine reshape: copy it dense.
                let reshape = matches!(kind, ViewKind::ViewShape { .. });
                if reshape && !base.layout.is_dense() {
                    let dense = fresh(base.shape(), base.dtype);
                    let layout = view_layout(kind, &dense.layout, int)?;
                    let data = kernel::cast(at(&bufs, base), base.dtype);
                    (dense.view(layout), Some(data))
                } else {
                    (base.view(view_layout(kind, &base.layout, int)?), None)
                }
            }
            Kind::Assign => {
                let Op::Assign(kind) = op else {
                    unreachable!("planned as an assign")
                };
                let (base, src) = (operand(0), operand(1));
                let out = fresh(base.shape(), base.dtype);
                let region = view_layout(kind, &out.layout, |i| scalar(i + 2)?.as_int())?;
                let from = src.layout.broadcast_to(region.shape())?;
                // Write in place when the launch owns the base's buffer
                // and nothing reads it from here on.
                let dead = plan.last_use[base.buf] <= idx && src.buf != base.buf;
                let stolen = dead.then(|| bufs[base.buf].take(&base.layout)).flatten();
                let mut dst = stolen.unwrap_or_else(|| kernel::cast(at(&bufs, base), base.dtype));
                kernel::write(&mut dst, &region, (bufs[src.buf].get(), &from));
                (out, Some(dst))
            }
        };
        let node_flops = if pn.compute {
            out.layout.numel() as u64
        } else {
            0
        };
        flops += node_flops;
        if let Some(obs) = observer {
            // A view ran nothing.
            let ns = match (&data, started) {
                (Some(_), Some(at)) => at.elapsed().as_nanos() as u64,
                _ => 0,
            };
            node_ns += ns;
            let (group, node) = (group.index() as u32, pn.id.index() as u32);
            obs.record_op(group, node, op, ns, out.bytes(), node_flops);
        }
        slots.push(out);
        bufs.push(Buf::Own(data.unwrap_or_default()));
    }

    // An input read only through accesses is charged what they read of it.
    let accessed = |k: usize| -> u64 {
        let of_k =
            |(_, pn): &(usize, &PlanNode)| matches!(pn.kind, Kind::Access) && pn.operands[0] == k;
        let nodes = plan.nodes.iter().enumerate().filter(of_k);
        nodes.map(|(idx, _)| slots[n_in + idx].bytes()).sum()
    };
    let in_bytes: u64 = (0..n_in)
        .map(|k| match (slots[k].bytes(), plan.uses[k]) {
            (full, InputUse::Viewed) => match accessed(k) {
                0 => full,
                read => read.min(full),
            },
            (full, _) => full,
        })
        .sum();

    // Read back: a returned slot that is all of a buffer the launch owns
    // gives it up.
    let mut outputs = Vec::with_capacity(plan.rets.len());
    let mut out_bytes = 0u64;
    for (i, &r) in plan.rets.iter().enumerate() {
        // A donated tensor has left its register; a scalar never does.
        let reg = inputs.get(r).map(|v| &regs[v.index()]);
        if !matches!(reg, None | Some(None | Some(RtValue::Tensor(_)))) {
            return Err(ExecError::unsupported("scalar group return"));
        }
        let v = &slots[r];
        out_bytes += v.bytes();
        let last = !plan.rets[i + 1..].iter().any(|&l| slots[l].buf == v.buf);
        let owned = last.then(|| bufs[v.buf].take(&v.layout)).flatten();
        let data = owned.unwrap_or_else(|| kernel::cast(at(&bufs, v), v.dtype));
        outputs.push(RtValue::Tensor(Tensor::from_buffer(data, v.shape())?));
    }
    Ok(GroupResult {
        outputs,
        bytes: in_bytes + out_bytes,
        flops,
        node_ns,
    })
}
