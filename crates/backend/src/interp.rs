//! The graph interpreter and cost accountant.

use std::sync::Arc;
use std::time::Instant;

use tssa_ir::{
    BlockId, ConstValue, Graph, MutateKind, Node, NodeId, Op, ScalarError, UnaryKind, ValueId,
    ViewKind,
};
use tssa_tensor::{concat, stack, where_select, Scalar, Tensor, TensorError};

use crate::fused::run_group;
use crate::observe::{OpObserver, TOP_LEVEL_GROUP};
use crate::ops::{binary_op, dtype_of, unary_op, view_layout, with_dims};
use crate::{ExecConfig, ExecError, ExecPlan, ExecStats, RtValue};

/// The register file: one register per graph value, by `ValueId::index()`
/// (ids are dense). A register is empty until its value is defined and
/// again once the value has been moved out at its last use.
type Env = Vec<Option<RtValue>>;

/// What a node's observer sample needs that the timing site in
/// [`Executor::eval_block`] cannot see for itself.
struct Sample {
    /// The fusion group the node files under.
    group: u32,
    /// Wall time of the nodes nested in this one, which reported it.
    nested_ns: u64,
    /// `(bytes, flops)` where the node's own traffic is not what it
    /// charged: a control node charges its body's, a group its kernel's.
    traffic: Option<(u64, u64)>,
}

impl Sample {
    /// A node with nothing nested that moved what it charged.
    const LEAF: Sample = Sample {
        group: TOP_LEVEL_GROUP,
        nested_ns: 0,
        traffic: None,
    };

    /// A top-level node holding a body, which moved `bytes` of its own.
    fn control(nested_ns: u64, bytes: u64) -> Sample {
        Sample {
            group: TOP_LEVEL_GROUP,
            nested_ns,
            traffic: Some((bytes, 0)),
        }
    }
}

/// Executes graphs against a simulated device, with real tensor semantics.
pub struct Executor {
    cfg: ExecConfig,
    /// The one watcher ([`Executor::observed`]); `None` runs each block as
    /// a bare loop over its nodes.
    observer: Option<Arc<dyn OpObserver>>,
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("cfg", &self.cfg)
            .field("observed", &self.observer.is_some())
            .finish()
    }
}

impl Executor {
    /// An executor with the given device/framework configuration.
    pub fn new(cfg: ExecConfig) -> Executor {
        Executor {
            cfg,
            observer: None,
        }
    }

    /// Attach an observer. Every node the interpreter runs, control and
    /// group nodes included, is timed at one site and reports its wall time
    /// less what the nodes nested in it reported, so each nanosecond inside
    /// a node is counted once and the time between a body's nodes goes to
    /// the node that holds the body. A fusion group's body nodes report
    /// under the group's id; the group's own sample is the launch's
    /// binding and readback. The observer also sees the shape of every
    /// tensor value bound ([`OpObserver::bound`]).
    #[must_use]
    pub fn observed(mut self, observer: Arc<dyn OpObserver>) -> Executor {
        self.observer = Some(observer);
        self
    }

    /// Run `graph` on `inputs`, returning outputs and execution statistics.
    /// Plans the graph first; callers that run one graph many times keep the
    /// [`ExecPlan`] and call [`Executor::run_plan`].
    ///
    /// # Errors
    ///
    /// Returns an [`ExecError`] on arity/type mismatches, tensor-level
    /// failures (bad shapes, out-of-range indices) or unsupported constructs.
    pub fn run(
        &self,
        graph: &Graph,
        inputs: &[RtValue],
    ) -> Result<(Vec<RtValue>, ExecStats), ExecError> {
        self.run_plan(graph, &ExecPlan::new(graph), inputs)
    }

    /// Run `graph`, of which `plan` is the [`ExecPlan`], on `inputs`.
    ///
    /// # Errors
    ///
    /// As [`Executor::run`]; also if `plan` was built from another graph.
    pub fn run_plan(
        &self,
        graph: &Graph,
        plan: &ExecPlan,
        inputs: &[RtValue],
    ) -> Result<(Vec<RtValue>, ExecStats), ExecError> {
        let top = graph.top();
        let params = &graph.block(top).params;
        if params.len() != inputs.len() {
            return Err(ExecError::ArityMismatch {
                expected: params.len(),
                found: inputs.len(),
            });
        }
        if plan.values != graph.value_count() {
            return Err(ExecPlan::foreign());
        }
        let mut env: Env = vec![None; plan.values];
        for (&p, v) in params.iter().zip(inputs) {
            env[p.index()] = Some(v.clone());
        }
        let mut stats = ExecStats::default();
        self.eval_block(graph, plan, top, &mut env, &mut stats)?;
        let outs = graph
            .block(top)
            .returns
            .iter()
            .map(|&r| lookup(&env, r).cloned())
            .collect::<Result<Vec<_>, _>>()?;
        Ok((outs, stats))
    }

    /// Run block `b`'s nodes in order. Observed, this is where every node
    /// is timed and reported; returns the wall time of the nodes it ran
    /// (0 unobserved).
    fn eval_block(
        &self,
        g: &Graph,
        plan: &ExecPlan,
        b: BlockId,
        env: &mut Env,
        stats: &mut ExecStats,
    ) -> Result<u64, ExecError> {
        let block = g.block(b);
        let Some(obs) = self.observer.as_deref() else {
            for &n in &block.nodes {
                self.eval_node(g, plan, n, env, stats)?;
            }
            return Ok(0);
        };
        bind(obs, env, &block.params);
        let mut wall_ns = 0;
        for &n in &block.nodes {
            let charged = (stats.bytes, stats.flops);
            let started = Instant::now();
            let sample = self.eval_node(g, plan, n, env, stats)?;
            let ns = started.elapsed().as_nanos() as u64;
            let (node, id) = (g.node(n), n.index() as u32);
            let own = (stats.bytes - charged.0, stats.flops - charged.1);
            let (bytes, flops) = sample.traffic.unwrap_or(own);
            let self_ns = ns.saturating_sub(sample.nested_ns);
            obs.record_op(sample.group, id, &node.op, self_ns, bytes, flops);
            wall_ns += ns;
            bind(obs, env, &node.outputs);
        }
        Ok(wall_ns)
    }

    // ------------------------------------------------------------ charging

    fn kernel(&self, stats: &mut ExecStats, bytes: u64, flops: u64) {
        stats.kernel_launches += 1;
        stats.device_ns +=
            self.cfg.device.launch_overhead_ns + self.cfg.device.kernel_work_ns(bytes, flops);
        stats.bytes += bytes;
        stats.flops += flops;
        stats.host_ns += self.cfg.host_dispatch_ns;
    }

    fn host_scalar(&self, stats: &mut ExecStats) {
        stats.host_ns += self.cfg.host_scalar_ns;
    }

    // ----------------------------------------------------------- the match

    #[allow(clippy::too_many_lines)]
    fn eval_node(
        &self,
        g: &Graph,
        plan: &ExecPlan,
        n: NodeId,
        env: &mut Env,
        stats: &mut ExecStats,
    ) -> Result<Sample, ExecError> {
        stats.ops_executed += 1;
        let node = g.node(n);
        // Operands are read where they lie; nothing is cloned to look.
        let arg = |i: usize| operand(env, node, i);
        let tensor = |i: usize| arg(i)?.as_tensor();
        let set = |env: &mut Env, i: usize, v: RtValue| {
            env[node.outputs[i].index()] = Some(v);
        };

        match &node.op {
            Op::Constant(c) => {
                self.host_scalar(stats);
                set(env, 0, constant(c.clone()));
            }
            Op::ListConstruct => {
                self.host_scalar(stats);
                let items = node
                    .inputs
                    .iter()
                    .map(|&v| lookup(env, v).cloned())
                    .collect::<Result<Vec<_>, _>>()?;
                set(env, 0, RtValue::List(items));
            }
            Op::ListUnpack => {
                self.host_scalar(stats);
                let list = arg(0)?.as_list()?.to_vec();
                if list.len() != node.outputs.len() {
                    return Err(ExecError::unsupported("list unpack arity mismatch"));
                }
                for (i, item) in list.into_iter().enumerate() {
                    set(env, i, item);
                }
            }
            Op::If => {
                stats.host_ns += self.cfg.control_entry_ns;
                let cond = arg(0)?.as_bool()?;
                let block = node.blocks[if cond { 0 } else { 1 }];
                let nested_ns = self.eval_block(g, plan, block, env, stats)?;
                for (i, &r) in g.block(block).returns.iter().enumerate() {
                    let v = lookup(env, r)?.clone();
                    set(env, i, v);
                }
                return Ok(Sample::control(nested_ns, 0));
            }
            Op::Loop => {
                let mut nested_ns = 0;
                let trip = arg(0)?.as_int()?.max(0);
                let mut cond = arg(1)?.as_bool()?;
                // Carried values move: into the loop if the block is done
                // with them, into the body's parameters, and out of its
                // returns — so a body that is the only holder of a carried
                // tensor can update it in place.
                let moves = plan.carried(n)?;
                let pass = |env: &mut Env, v: ValueId, moved: bool| {
                    let reg = &mut env[v.index()];
                    let value = if moved { reg.take() } else { reg.clone() };
                    value.ok_or(ExecError::Undefined { value: v.index() })
                };
                let mut carried: Vec<RtValue> = (node.inputs[2..].iter())
                    .zip(&moves.init_dies)
                    .map(|(&v, &dies)| pass(env, v, dies))
                    .collect::<Result<_, _>>()?;
                let body = g.block(node.blocks[0]);
                let mut i = 0i64;
                while i < trip && cond {
                    stats.host_ns += self.cfg.control_entry_ns;
                    env[body.params[0].index()] = Some(RtValue::Int(i));
                    for (&p, v) in body.params[1..].iter().zip(carried.drain(..)) {
                        env[p.index()] = Some(v);
                    }
                    nested_ns += self.eval_block(g, plan, node.blocks[0], env, stats)?;
                    cond = lookup(env, body.returns[0])?.as_bool()?;
                    for (&r, &moved) in body.returns[1..].iter().zip(&moves.ret_moves) {
                        carried.push(pass(env, r, moved)?);
                    }
                    i += 1;
                }
                for (k, v) in carried.into_iter().enumerate() {
                    set(env, k, v);
                }
                return Ok(Sample::control(nested_ns, 0));
            }

            // ------------------------------------------------- scalar ops
            Op::Scalar(k) => {
                self.host_scalar(stats);
                let v = k.eval(|i| arg(i).ok().and_then(scalar_const));
                let v = v.map_err(|e| match e {
                    ScalarError::Operand { index, expected } => match arg(index) {
                        Ok(found) => ExecError::type_mismatch(expected, found),
                        Err(missing) => missing,
                    },
                    ScalarError::DivisionByZero => {
                        ExecError::unsupported(format!("{} by zero", node.op.name()))
                    }
                })?;
                set(env, 0, constant(v));
            }

            // --------------------------------------------- tensor queries
            Op::Size { dim } => {
                self.host_scalar(stats);
                let size = tensor(0)?.size(*dim as isize)?;
                set(env, 0, RtValue::Int(size as i64));
            }
            Op::ItemFloat | Op::ItemInt | Op::ItemBool => {
                // Reading a device scalar forces a pipeline sync.
                stats.host_ns += self.cfg.sync_ns;
                let t = tensor(0)?;
                let s = t.item()?;
                let v = match node.op {
                    Op::ItemFloat => RtValue::Float(s.as_f64()),
                    Op::ItemInt => RtValue::Int(s.as_i64()),
                    _ => RtValue::Bool(s.as_bool()),
                };
                set(env, 0, v);
            }

            // -------------------------------------------- tensor creation
            Op::Zeros { shape } | Op::Ones { shape } => {
                let t = if matches!(node.op, Op::Zeros { .. }) {
                    created(shape, Tensor::zeros)?
                } else {
                    created(shape, Tensor::ones)?
                };
                self.kernel(stats, t_bytes(&t), 0);
                set(env, 0, RtValue::Tensor(t));
            }
            Op::Full { shape } => {
                let v = arg(0)?.as_float()? as f32;
                let t = created(shape, |s| Tensor::full(s, v))?;
                self.kernel(stats, t_bytes(&t), 0);
                set(env, 0, RtValue::Tensor(t));
            }
            Op::Arange => {
                let n = arg(0)?.as_int()?.max(0) as usize;
                let t = Tensor::arange_f32(n);
                self.kernel(stats, t_bytes(&t), 0);
                set(env, 0, RtValue::Tensor(t));
            }
            Op::ZerosLike | Op::OnesLike => {
                let like = tensor(0)?;
                let v = if node.op == Op::OnesLike { 1.0 } else { 0.0 };
                let t = Tensor::full_scalar(like.shape(), Scalar::F32(v).cast(like.dtype()));
                self.kernel(stats, t_bytes(&t), 0);
                set(env, 0, RtValue::Tensor(t));
            }
            Op::FullLike => {
                let like = tensor(0)?;
                let v = arg(1)?.as_float()? as f32;
                let t = Tensor::full_scalar(like.shape(), Scalar::F32(v).cast(like.dtype()));
                self.kernel(stats, t_bytes(&t), 0);
                set(env, 0, RtValue::Tensor(t));
            }
            Op::BroadcastLike => {
                let src = tensor(0)?;
                let like = tensor(1)?;
                let out = Tensor::zeros_dtype(like.shape(), like.dtype());
                out.copy_(src)?;
                self.kernel(stats, t_bytes(src) + t_bytes(&out), 0);
                set(env, 0, RtValue::Tensor(out));
            }

            // ------------------------------------------------------ views
            Op::View(kind) => {
                // Metadata-only on device; dispatch cost on host.
                stats.host_ns += self.cfg.host_dispatch_ns;
                let v = apply_view(tensor(0)?, kind, |i| arg(i + 1)?.as_int())?;
                set(env, 0, RtValue::Tensor(v));
            }

            // -------------------------------------------------- mutations
            Op::Mutate(kind) => {
                let recv = tensor(0)?;
                let src_bytes = arg(1).ok().and_then(|v| v.as_tensor().ok().map(t_bytes));
                let bytes = 2 * t_bytes(recv) + src_bytes.unwrap_or(0);
                apply_mutation(recv, *kind, node, env)?;
                self.kernel(stats, bytes, recv.numel() as u64);
                // The output aliases the receiver.
                if !node.outputs.is_empty() {
                    let alias = RtValue::Tensor(recv.clone());
                    set(env, 0, alias);
                }
            }

            // ------------------------------------------------- functional
            Op::Unary(k) => {
                let a = tensor(0)?;
                let out = a.unary(unary_op(*k, |i| float(arg(i)?))?)?;
                // A transcendental costs four units of work per element.
                let unit = match k {
                    UnaryKind::Sigmoid
                    | UnaryKind::Tanh
                    | UnaryKind::Exp
                    | UnaryKind::Log
                    | UnaryKind::Sqrt => 4,
                    _ => 1,
                };
                self.kernel(stats, t_bytes(a) + t_bytes(&out), out.numel() as u64 * unit);
                set(env, 0, RtValue::Tensor(out));
            }
            Op::Binary(k) => {
                let (a, b) = (tensor(0)?, tensor(1)?);
                let out = a.binary(binary_op(*k), b)?;
                let bytes = t_bytes(a) + t_bytes(b) + t_bytes(&out);
                self.kernel(stats, bytes, out.numel() as u64);
                set(env, 0, RtValue::Tensor(out));
            }
            Op::Softmax { dim } => {
                let a = tensor(0)?;
                let out = a.softmax(*dim as isize)?;
                self.kernel(stats, t_bytes(a) + t_bytes(&out), a.numel() as u64 * 4);
                set(env, 0, RtValue::Tensor(out));
            }
            Op::SumDim { dim, keepdim }
            | Op::MeanDim { dim, keepdim }
            | Op::MaxDim { dim, keepdim }
            | Op::MinDim { dim, keepdim } => {
                let a = tensor(0)?;
                let out = match node.op {
                    Op::SumDim { .. } => a.sum_dim(*dim as isize, *keepdim)?,
                    Op::MeanDim { .. } => a.mean_dim(*dim as isize, *keepdim)?,
                    Op::MaxDim { .. } => a.max_dim(*dim as isize, *keepdim)?,
                    _ => a.min_dim(*dim as isize, *keepdim)?,
                };
                self.kernel(stats, t_bytes(a) + t_bytes(&out), a.numel() as u64);
                set(env, 0, RtValue::Tensor(out));
            }
            Op::ArgmaxDim { dim, keepdim } => {
                let a = tensor(0)?;
                let out = a.argmax_dim(*dim as isize, *keepdim)?;
                self.kernel(stats, t_bytes(a) + t_bytes(&out), a.numel() as u64);
                set(env, 0, RtValue::Tensor(out));
            }
            Op::Cumsum { dim } => {
                let a = tensor(0)?;
                let out = a.cumsum(*dim as isize)?;
                self.kernel(stats, t_bytes(a) + t_bytes(&out), a.numel() as u64);
                set(env, 0, RtValue::Tensor(out));
            }
            Op::Matmul => {
                let a = tensor(0)?;
                let b = tensor(1)?;
                let out = a.matmul(b)?;
                let flops = 2 * a.shape()[0] * a.shape()[1] * b.shape()[1];
                self.kernel(stats, t_bytes(a) + t_bytes(b) + t_bytes(&out), flops as u64);
                set(env, 0, RtValue::Tensor(out));
            }
            Op::Bmm => {
                let a = tensor(0)?;
                let b = tensor(1)?;
                let out = a.bmm(b)?;
                let flops = 2 * a.shape()[0] * a.shape()[1] * a.shape()[2] * b.shape()[2];
                self.kernel(stats, t_bytes(a) + t_bytes(b) + t_bytes(&out), flops as u64);
                set(env, 0, RtValue::Tensor(out));
            }
            Op::Concat { dim } | Op::Stack { dim } => {
                let refs: Vec<&Tensor> = node
                    .inputs
                    .iter()
                    .map(|&v| lookup(env, v)?.as_tensor())
                    .collect::<Result<_, ExecError>>()?;
                let out = if matches!(node.op, Op::Concat { .. }) {
                    concat(&refs, *dim as isize)?
                } else {
                    stack(&refs, *dim as isize)?
                };
                self.kernel(stats, 2 * t_bytes(&out), 0);
                set(env, 0, RtValue::Tensor(out));
            }
            Op::WhereSelect => {
                let c = tensor(0)?;
                let a = tensor(1)?;
                let b = tensor(2)?;
                let out = where_select(c, a, b)?;
                self.kernel(
                    stats,
                    t_bytes(c) + t_bytes(a) + t_bytes(b) + t_bytes(&out),
                    out.numel() as u64,
                );
                set(env, 0, RtValue::Tensor(out));
            }
            Op::Gather { dim } => {
                let a = tensor(0)?;
                let idx = tensor(1)?;
                let out = a.gather(*dim as isize, idx)?;
                self.kernel(stats, t_bytes(a) + t_bytes(idx) + t_bytes(&out), 0);
                set(env, 0, RtValue::Tensor(out));
            }
            Op::IndexSelect { dim } => {
                let a = tensor(0)?;
                let idx = tensor(1)?;
                let out = a.index_select(*dim as isize, idx)?;
                self.kernel(stats, t_bytes(a) + t_bytes(idx) + t_bytes(&out), 0);
                set(env, 0, RtValue::Tensor(out));
            }
            Op::Cast { dtype } => {
                let a = tensor(0)?;
                let out = a.cast(dtype_of(*dtype));
                self.kernel(stats, t_bytes(a) + t_bytes(&out), 0);
                set(env, 0, RtValue::Tensor(out));
            }
            Op::CloneOp | Op::Contiguous => {
                let a = tensor(0)?;
                let out = a.clone_data();
                self.kernel(stats, 2 * t_bytes(&out), 0);
                set(env, 0, RtValue::Tensor(out));
            }
            Op::Reshape { shape } => {
                let a = tensor(0)?;
                let s: Vec<isize> = shape.iter().map(|&d| d as isize).collect();
                let out = a.clone_data().view(&s)?;
                self.kernel(stats, 2 * t_bytes(&out), 0);
                set(env, 0, RtValue::Tensor(out));
            }

            // -------------------------------------------------- TensorSSA
            Op::Access(kind) => {
                // Standalone (unfused) access materializes a copy kernel.
                let out = apply_view(tensor(0)?, kind, |i| arg(i + 1)?.as_int())?.clone_data();
                self.kernel(stats, 2 * t_bytes(&out), 0);
                set(env, 0, RtValue::Tensor(out));
            }
            Op::Assign(kind) => {
                // Standalone assign: whole-tensor copy plus region write —
                // the cost fusion exists to eliminate.
                let base = tensor(0)?;
                let src = tensor(1)?;
                let out = base.clone_data();
                apply_view(&out, kind, |i| arg(i + 2)?.as_int())?.copy_(src)?;
                self.kernel(stats, 2 * t_bytes(base) + t_bytes(src), 0);
                set(env, 0, RtValue::Tensor(out));
            }
            Op::Update => {
                // Annotation with no semantics; tolerated for robustness.
            }

            // ------------------------------------------------------ fused
            Op::FusionGroup => {
                let result = run_group(g, n, plan.group(n)?, env, self.observer.as_deref())?;
                self.kernel(stats, result.bytes, result.flops);
                for (i, v) in result.outputs.into_iter().enumerate() {
                    set(env, i, v);
                }
                // The launch's binding and readback are the group's own
                // sample, filed under the group.
                return Ok(Sample {
                    group: n.index() as u32,
                    nested_ns: result.node_ns,
                    traffic: Some((result.bytes, 0)),
                });
            }
            Op::ParallelMap { dim } => {
                let trip = arg(0)?.as_int()?.max(0);
                let out = tensor(1)?.clone_data();
                let body = g.block(node.blocks[0]);
                // All iterations are charged as one batched launch: their
                // traffic and arithmetic are metered into a silent
                // sub-account and folded into one overhead, one dispatch.
                // An iteration only defines the body's own values, so
                // iterations take turns in one register file and write
                // their slice from it.
                let (mut inner, mut nested_ns) = (ExecStats::default(), 0);
                for i in 0..trip {
                    env[body.params[0].index()] = Some(RtValue::Int(i));
                    nested_ns += self.eval_block(g, plan, node.blocks[0], env, &mut inner)?;
                    let slice = lookup(env, body.returns[0])?.as_tensor()?;
                    out.select(*dim as isize, i as isize)?.copy_(slice)?;
                }
                // The map's own traffic is its scatter.
                let scatter = 2 * t_bytes(&out);
                self.kernel(stats, inner.bytes + scatter, inner.flops);
                set(env, 0, RtValue::Tensor(out));
                return Ok(Sample::control(nested_ns, scatter));
            }
        }
        Ok(Sample::LEAF)
    }
}

/// Tell `obs` the shape of each of `values` that holds a tensor.
fn bind(obs: &dyn OpObserver, env: &Env, values: &[ValueId]) {
    for &v in values {
        if let Some(Some(RtValue::Tensor(t))) = env.get(v.index()) {
            obs.bound(v, t.shape());
        }
    }
}

fn lookup(env: &Env, v: ValueId) -> Result<&RtValue, ExecError> {
    let reg = env.get(v.index()).and_then(Option::as_ref);
    reg.ok_or(ExecError::Undefined { value: v.index() })
}

fn t_bytes(t: &Tensor) -> u64 {
    (t.numel() * t.dtype().size_bytes()) as u64
}

/// The node's `i`-th operand; a node short of operands is an error, not an
/// index past its input list.
fn operand<'e>(env: &'e Env, node: &Node, i: usize) -> Result<&'e RtValue, ExecError> {
    match node.inputs.get(i) {
        Some(&v) => lookup(env, v),
        None => Err(ExecError::unsupported(format!(
            "{} is missing operand {i}",
            node.op.name()
        ))),
    }
}

fn float(v: &RtValue) -> Result<f32, ExecError> {
    Ok(v.as_float()? as f32)
}

/// A host scalar as the constant payload [`tssa_ir::ScalarKind::eval`] reads.
fn scalar_const(v: &RtValue) -> Option<ConstValue> {
    match *v {
        RtValue::Int(x) => Some(ConstValue::Int(x)),
        RtValue::Float(x) => Some(ConstValue::Float(x)),
        RtValue::Bool(x) => Some(ConstValue::Bool(x)),
        _ => None,
    }
}

fn constant(c: ConstValue) -> RtValue {
    match c {
        ConstValue::Int(v) => RtValue::Int(v),
        ConstValue::Float(v) => RtValue::Float(v),
        ConstValue::Bool(v) => RtValue::Bool(v),
        ConstValue::IntList(v) => RtValue::List(v.into_iter().map(RtValue::Int).collect()),
    }
}

/// A creation op's tensor, made by `make` over `shape` (a negative size
/// reads as 0). A shape with more elements than a `usize` counts is an
/// error.
fn created(shape: &[i64], make: impl FnOnce(&[usize]) -> Tensor) -> Result<Tensor, ExecError> {
    with_dims(
        shape,
        |_, d| d.max(0) as usize,
        |s| {
            let overflow =
                || TensorError::invalid(format!("{s:?}: more elements than a usize counts"));
            let numel = s.iter().try_fold(1usize, |n, &d| n.checked_mul(d));
            Ok(numel.map(|_| make(s)).ok_or_else(overflow)?)
        },
    )
}

/// The aliasing view of `base` described by `kind`; `int(i)` reads the i-th
/// extra operand.
fn apply_view(
    base: &Tensor,
    kind: &ViewKind,
    int: impl Fn(usize) -> Result<i64, ExecError>,
) -> Result<Tensor, ExecError> {
    Ok(base.with_layout(view_layout(kind, base.layout(), int)?)?)
}

/// `recv.kind_(operands…)`: what [`MutateKind::functional_op`] computes,
/// stored through the receiver.
fn apply_mutation(
    recv: &Tensor,
    kind: MutateKind,
    node: &Node,
    env: &Env,
) -> Result<(), ExecError> {
    let src = |i: usize| operand(env, node, i)?.as_tensor();
    let flt = |i: usize| float(operand(env, node, i)?);
    match kind {
        MutateKind::Copy => recv.copy_(src(1)?)?,
        MutateKind::Fill => recv.fill_(flt(1)?)?,
        _ => match kind.functional_op() {
            Op::Unary(k) => recv.unary_(unary_op(k, flt)?)?,
            Op::Binary(k) => recv.binary_(binary_op(k), src(1)?)?,
            _ => unreachable!("every other mutation is elementwise"),
        },
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tssa_ir::parse_graph;

    fn run_compiled(src: &str, inputs: &[RtValue]) -> (Vec<RtValue>, ExecStats) {
        let g = parse_graph(src).unwrap();
        g.verify().unwrap();
        Executor::new(ExecConfig::compiled())
            .run(&g, inputs)
            .unwrap()
    }

    #[test]
    fn executes_views_and_mutations_with_aliasing() {
        let (outs, stats) = run_compiled(
            "graph(%x : Tensor):
               %b : Tensor = aten::clone(%x)
               %i : int = prim::Constant[value=0]()
               %v : Tensor = aten::select[dim=0](%b, %i)
               %f : float = prim::Constant[value=9.0]()
               %m : Tensor = aten::fill_(%v, %f)
               return (%b)",
            &[RtValue::Tensor(Tensor::zeros(&[2, 2]))],
        );
        let t = outs[0].as_tensor().unwrap();
        assert_eq!(t.to_vec_f32().unwrap(), vec![9.0, 9.0, 0.0, 0.0]);
        // clone + fill_ kernels; view/constants are host-side.
        assert_eq!(stats.kernel_launches, 2);
    }

    #[test]
    fn loop_accumulates() {
        let (outs, _) = run_compiled(
            "graph(%x : Tensor, %n : int):
               %t : bool = prim::Constant[value=true]()
               %o : Tensor = prim::Loop(%n, %t, %x)
                 block0(%i : int, %c : Tensor):
                   %one : float = prim::Constant[value=1.0]()
                   %u : Tensor = aten::add_scalar(%c, %one)
                   -> (%t, %u)
               return (%o)",
            &[RtValue::Tensor(Tensor::zeros(&[2])), RtValue::Int(5)],
        );
        assert_eq!(
            outs[0].as_tensor().unwrap().to_vec_f32().unwrap(),
            vec![5.0, 5.0]
        );
    }

    #[test]
    fn branch_selects_block() {
        let src = "graph(%x : Tensor, %c : bool):
               %o : Tensor = prim::If(%c)
                 block0():
                   %a : Tensor = aten::relu(%x)
                   -> (%a)
                 block1():
                   %b : Tensor = aten::neg(%x)
                   -> (%b)
               return (%o)";
        let x = Tensor::from_vec_f32(vec![-2.0, 3.0], &[2]).unwrap();
        let (outs, _) = run_compiled(src, &[RtValue::Tensor(x.clone()), RtValue::Bool(true)]);
        assert_eq!(
            outs[0].as_tensor().unwrap().to_vec_f32().unwrap(),
            vec![0.0, 3.0]
        );
        let (outs, _) = run_compiled(src, &[RtValue::Tensor(x), RtValue::Bool(false)]);
        assert_eq!(
            outs[0].as_tensor().unwrap().to_vec_f32().unwrap(),
            vec![2.0, -3.0]
        );
    }

    #[test]
    fn access_assign_value_semantics() {
        let (outs, _) = run_compiled(
            "graph(%x : Tensor):
               %i : int = prim::Constant[value=0]()
               %v : Tensor = immut::select[dim=0](%x, %i)
               %f : float = prim::Constant[value=1.0]()
               %w : Tensor = aten::add_scalar(%v, %f)
               %s : Tensor = immut::assign_select[dim=0](%x, %w, %i)
               return (%s, %x, %v)",
            &[RtValue::Tensor(Tensor::zeros(&[2, 2]))],
        );
        // New version has the write; the input and the access are untouched.
        assert_eq!(
            outs[0].as_tensor().unwrap().to_vec_f32().unwrap(),
            vec![1.0, 1.0, 0.0, 0.0]
        );
        assert_eq!(
            outs[1].as_tensor().unwrap().to_vec_f32().unwrap(),
            vec![0.0; 4]
        );
        assert_eq!(
            outs[2].as_tensor().unwrap().to_vec_f32().unwrap(),
            vec![0.0, 0.0]
        );
    }

    #[test]
    fn fusion_group_single_launch_same_result() {
        let fused_src = "graph(%x : Tensor):
               %o : Tensor = prim::FusionGroup(%x)
                 block0(%p : Tensor):
                   %a : Tensor = aten::sigmoid(%p)
                   %b : Tensor = aten::mul(%a, %p)
                   -> (%b)
               return (%o)";
        let unfused_src = "graph(%x : Tensor):
               %a : Tensor = aten::sigmoid(%x)
               %b : Tensor = aten::mul(%a, %x)
               return (%b)";
        let x = Tensor::rand_uniform(&[4, 4], -1.0, 1.0, 3);
        let (fo, fs) = run_compiled(fused_src, &[RtValue::Tensor(x.clone())]);
        let (uo, us) = run_compiled(unfused_src, &[RtValue::Tensor(x)]);
        assert!(fo[0]
            .as_tensor()
            .unwrap()
            .allclose(uo[0].as_tensor().unwrap(), 1e-6));
        assert_eq!(fs.kernel_launches, 1);
        assert_eq!(us.kernel_launches, 2);
        assert!(fs.total_ns() < us.total_ns());
    }

    #[test]
    fn parallel_map_matches_sequential_loop() {
        let pm_src = "graph(%b0 : Tensor, %n : int):
               %o : Tensor = prim::ParallelMap[dim=0](%n, %b0)
                 block0(%i : int):
                   %bi : Tensor = immut::select[dim=0](%b0, %i)
                   %one : float = prim::Constant[value=1.0]()
                   %w : Tensor = aten::add_scalar(%bi, %one)
                   -> (%w)
               return (%o)";
        let loop_src = "graph(%b0 : Tensor, %n : int):
               %t : bool = prim::Constant[value=true]()
               %o : Tensor = prim::Loop(%n, %t, %b0)
                 block0(%i : int, %c : Tensor):
                   %bi : Tensor = immut::select[dim=0](%c, %i)
                   %one : float = prim::Constant[value=1.0]()
                   %w : Tensor = aten::add_scalar(%bi, %one)
                   %c2 : Tensor = immut::assign_select[dim=0](%c, %w, %i)
                   -> (%t, %c2)
               return (%o)";
        let b = Tensor::rand_uniform(&[6, 3], 0.0, 1.0, 7);
        let inputs = [RtValue::Tensor(b), RtValue::Int(6)];
        let (po, ps) = run_compiled(pm_src, &inputs);
        let (lo, ls) = run_compiled(loop_src, &inputs);
        assert!(po[0]
            .as_tensor()
            .unwrap()
            .allclose(lo[0].as_tensor().unwrap(), 1e-6));
        assert_eq!(ps.kernel_launches, 1);
        assert!(ls.kernel_launches > 6);
    }

    #[test]
    fn scalar_and_item_ops() {
        let (outs, _) = run_compiled(
            "graph(%x : Tensor):
               %s : int = aten::size[dim=0](%x)
               %two : int = prim::Constant[value=2]()
               %m : int = aten::int_mul(%s, %two)
               return (%m)",
            &[RtValue::Tensor(Tensor::zeros(&[3, 4]))],
        );
        assert_eq!(outs[0].as_int().unwrap(), 6);
    }

    #[test]
    fn one_plan_serves_many_runs_and_only_its_own_graph() {
        let src = "graph(%b0 : Tensor, %n : int):
               %t : bool = prim::Constant[value=true]()
               %b : Tensor = aten::clone(%b0)
               %o : Tensor = prim::Loop(%n, %t, %b)
                 block0(%i : int, %c : Tensor):
                   %c2 : Tensor = prim::FusionGroup(%c, %i)
                     block0(%p : Tensor, %j : int):
                       %r : Tensor = immut::select[dim=0](%p, %j)
                       %w : Tensor = aten::sigmoid(%r)
                       %v : Tensor = immut::assign_select[dim=0](%p, %w, %j)
                       -> (%v)
                   -> (%t, %c2)
               return (%o)";
        let g = parse_graph(src).unwrap();
        let plan = ExecPlan::new(&g);
        let exec = Executor::new(ExecConfig::compiled());
        for rows in [3usize, 5, 2] {
            let x = Tensor::rand_uniform(&[rows, 4], -1.0, 1.0, rows as u64);
            let inputs = [RtValue::Tensor(x.clone()), RtValue::Int(rows as i64)];
            let (planned, stats) = exec.run_plan(&g, &plan, &inputs).unwrap();
            assert_eq!(planned[0].as_tensor().unwrap(), &x.sigmoid());
            assert_eq!(stats.kernel_launches, 1 + rows as u64);
            // The loop wrote its own copy in place, never the caller's.
            assert_eq!(inputs[0].as_tensor().unwrap(), &x);
        }
        let other = parse_graph("graph(%x : Tensor):\n  return (%x)").unwrap();
        let r = exec.run_plan(&other, &plan, &[RtValue::Tensor(Tensor::zeros(&[1]))]);
        assert!(matches!(r, Err(ExecError::Unsupported { .. })));
    }

    #[test]
    fn undefined_input_arity_is_reported() {
        let g = parse_graph("graph(%x : Tensor):\n  return (%x)").unwrap();
        let r = Executor::new(ExecConfig::compiled()).run(&g, &[]);
        assert!(matches!(r, Err(ExecError::ArityMismatch { .. })));
    }
}
