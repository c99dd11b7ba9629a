//! Interpreter coverage: individual operators through the executor, error
//! paths, and cost-model accounting invariants.

use tssa_backend::{DeviceProfile, ExecConfig, ExecError, Executor, RtValue};
use tssa_ir::parse_graph;
use tssa_tensor::{Tensor, TensorError};

fn run(src: &str, inputs: &[RtValue]) -> (Vec<RtValue>, tssa_backend::ExecStats) {
    let g = parse_graph(src).unwrap_or_else(|e| panic!("{src}\n{e}"));
    g.verify().unwrap_or_else(|e| panic!("{src}\n{e}"));
    Executor::new(ExecConfig::compiled())
        .run(&g, inputs)
        .unwrap_or_else(|e| panic!("{src}\n{e}"))
}

fn t(data: Vec<f32>, shape: &[usize]) -> RtValue {
    RtValue::Tensor(Tensor::from_vec_f32(data, shape).unwrap())
}

#[test]
fn reductions_and_argmax() {
    let (outs, _) = run(
        "graph(%x : Tensor):
           %s : Tensor = aten::sum[dim=1, keepdim=false](%x)
           %m : Tensor = aten::mean[dim=1, keepdim=false](%x)
           %mx : Tensor = aten::max[dim=1, keepdim=false](%x)
           %mn : Tensor = aten::min[dim=1, keepdim=false](%x)
           %am : Tensor = aten::argmax[dim=1, keepdim=false](%x)
           return (%s, %m, %mx, %mn, %am)",
        &[t(vec![1.0, 5.0, 3.0, 4.0, 0.0, 2.0], &[2, 3])],
    );
    assert_eq!(
        outs[0].as_tensor().unwrap().to_vec_f32().unwrap(),
        vec![9.0, 6.0]
    );
    assert_eq!(
        outs[1].as_tensor().unwrap().to_vec_f32().unwrap(),
        vec![3.0, 2.0]
    );
    assert_eq!(
        outs[2].as_tensor().unwrap().to_vec_f32().unwrap(),
        vec![5.0, 4.0]
    );
    assert_eq!(
        outs[3].as_tensor().unwrap().to_vec_f32().unwrap(),
        vec![1.0, 0.0]
    );
    assert_eq!(
        outs[4].as_tensor().unwrap().to_vec_i64().unwrap(),
        vec![1, 0]
    );
}

#[test]
fn gather_index_select_cumsum() {
    let (outs, _) = run(
        "graph(%x : Tensor, %gi : Tensor, %si : Tensor):
           %g0 : Tensor = aten::gather[dim=1](%x, %gi)
           %s : Tensor = aten::index_select[dim=0](%x, %si)
           %c : Tensor = aten::cumsum[dim=0](%x)
           return (%g0, %s, %c)",
        &[
            t(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]),
            RtValue::Tensor(Tensor::from_vec_i64(vec![1, 0], &[2, 1]).unwrap()),
            RtValue::Tensor(Tensor::from_vec_i64(vec![1], &[1]).unwrap()),
        ],
    );
    assert_eq!(
        outs[0].as_tensor().unwrap().to_vec_f32().unwrap(),
        vec![2.0, 3.0]
    );
    assert_eq!(
        outs[1].as_tensor().unwrap().to_vec_f32().unwrap(),
        vec![3.0, 4.0]
    );
    assert_eq!(
        outs[2].as_tensor().unwrap().to_vec_f32().unwrap(),
        vec![1.0, 2.0, 4.0, 6.0]
    );
}

#[test]
fn concat_stack_cast_reshape() {
    let (outs, _) = run(
        "graph(%x : Tensor, %y : Tensor):
           %c : Tensor = aten::cat[dim=0](%x, %y)
           %s : Tensor = aten::stack[dim=0](%x, %y)
           %i : Tensor = aten::to[dtype=i64](%x)
           %r : Tensor = aten::reshape[shape=[4]](%s)
           return (%c, %s, %i, %r)",
        &[t(vec![1.5, 2.5], &[2]), t(vec![3.5, 4.5], &[2])],
    );
    assert_eq!(outs[0].as_tensor().unwrap().shape(), &[4]);
    assert_eq!(outs[1].as_tensor().unwrap().shape(), &[2, 2]);
    assert_eq!(
        outs[2].as_tensor().unwrap().to_vec_i64().unwrap(),
        vec![1, 2]
    );
    assert_eq!(outs[3].as_tensor().unwrap().shape(), &[4]);
}

#[test]
fn creation_ops() {
    let (outs, stats) = run(
        "graph(%n : int, %f : float):
           %z : Tensor = aten::zeros[shape=[2, 2]]()
           %o : Tensor = aten::ones[shape=[3]]()
           %fu : Tensor = aten::full[shape=[2]](%f)
           %a : Tensor = aten::arange(%n)
           return (%z, %o, %fu, %a)",
        &[RtValue::Int(4), RtValue::Float(7.0)],
    );
    assert_eq!(outs[0].as_tensor().unwrap().sum_all(), 0.0);
    assert_eq!(outs[1].as_tensor().unwrap().sum_all(), 3.0);
    assert_eq!(
        outs[2].as_tensor().unwrap().to_vec_f32().unwrap(),
        vec![7.0, 7.0]
    );
    assert_eq!(
        outs[3].as_tensor().unwrap().to_vec_f32().unwrap(),
        vec![0.0, 1.0, 2.0, 3.0]
    );
    // Four creation kernels.
    assert_eq!(stats.kernel_launches, 4);
}

#[test]
fn shapes_whose_element_count_overflows_are_errors() {
    // 2^62 * 4 elements wrap a usize to 0.
    let big = 1i64 << 62;
    for body in [
        format!(
            "%e : Tensor = aten::expand[shape=[{big}, 4]](%x)\n%r : Tensor = aten::sigmoid(%e)"
        ),
        format!("%r : Tensor = aten::zeros[shape=[{big}, 4]]()"),
        format!("%r : Tensor = aten::ones[shape=[4, {big}]]()"),
        format!("%r : Tensor = aten::full[shape=[2, {big}, 2]](%f)"),
    ] {
        let src = format!("graph(%x : Tensor, %f : float):\n{body}\nreturn (%r)");
        let g = parse_graph(&src).unwrap_or_else(|e| panic!("{src}\n{e}"));
        let inputs = [t(vec![1.0], &[1, 1]), RtValue::Float(1.0)];
        let r = Executor::new(ExecConfig::compiled()).run(&g, &inputs);
        assert!(
            matches!(
                r,
                Err(ExecError::Tensor(TensorError::InvalidArgument { .. }))
            ),
            "{src}\n{r:?}"
        );
    }
}

#[test]
fn views_do_not_launch_kernels() {
    let (_, stats) = run(
        "graph(%x : Tensor):
           %i : int = prim::Constant[value=0]()
           %a : Tensor = aten::select[dim=0](%x, %i)
           %b : Tensor = aten::unsqueeze[dim=0](%a)
           %c : Tensor = aten::transpose[dim0=0, dim1=1](%x)
           return (%b, %c)",
        &[t(vec![0.0; 6], &[2, 3])],
    );
    assert_eq!(stats.kernel_launches, 0);
    assert!(stats.host_ns > 0.0);
}

#[test]
fn list_construct_and_unpack() {
    let (outs, _) = run(
        "graph(%x : Tensor, %y : Tensor):
           %l : Tensor[] = prim::ListConstruct(%x, %y)
           %a : Tensor, %b : Tensor = prim::ListUnpack(%l)
           %s : Tensor = aten::add(%a, %b)
           return (%s)",
        &[t(vec![1.0], &[1]), t(vec![2.0], &[1])],
    );
    assert_eq!(
        outs[0].as_tensor().unwrap().to_vec_f32().unwrap(),
        vec![3.0]
    );
}

#[test]
fn datacenter_profile_is_faster() {
    let src = "graph(%x : Tensor):
           %a : Tensor = aten::sigmoid(%x)
           %b : Tensor = aten::mul(%a, %x)
           return (%b)";
    let g = parse_graph(src).unwrap();
    let inputs = [t(vec![0.5; 4096], &[64, 64])];
    let (_, consumer) =
        Executor::new(ExecConfig::compiled().with_device(DeviceProfile::consumer()))
            .run(&g, &inputs)
            .unwrap();
    let (_, datacenter) =
        Executor::new(ExecConfig::compiled().with_device(DeviceProfile::datacenter()))
            .run(&g, &inputs)
            .unwrap();
    assert!(datacenter.total_ns() < consumer.total_ns());
    assert_eq!(datacenter.kernel_launches, consumer.kernel_launches);
}

#[test]
fn error_paths_are_reported() {
    let g = parse_graph(
        "graph(%x : Tensor, %n : int):
           %m : Tensor = aten::matmul(%x, %x)
           return (%m)",
    )
    .unwrap();
    let exec = Executor::new(ExecConfig::compiled());
    // Non-square rank-2 self-matmul: inner dims disagree.
    let r = exec.run(&g, &[t(vec![0.0; 6], &[2, 3]), RtValue::Int(1)]);
    assert!(matches!(r, Err(ExecError::Tensor(_))), "{r:?}");
    // Type mismatch: int where tensor expected.
    let r = exec.run(&g, &[RtValue::Int(3), RtValue::Int(1)]);
    assert!(matches!(r, Err(ExecError::TypeMismatch { .. })));
    // Arity mismatch.
    let r = exec.run(&g, &[RtValue::Int(3)]);
    assert!(matches!(r, Err(ExecError::ArityMismatch { .. })));
}

#[test]
fn division_by_zero_is_an_error() {
    let g = parse_graph(
        "graph(%a : int, %b : int):
           %d : int = aten::int_div(%a, %b)
           return (%d)",
    )
    .unwrap();
    let r = Executor::new(ExecConfig::compiled()).run(&g, &[RtValue::Int(3), RtValue::Int(0)]);
    assert!(matches!(r, Err(ExecError::Unsupported { .. })));
}

/// `op` on host ints supplied as graph inputs, the way a request supplies
/// them.
fn int_op(op: &str, args: &[i64]) -> Result<i64, ExecError> {
    let params: Vec<String> = (0..args.len()).map(|i| format!("%a{i}")).collect();
    let typed: Vec<String> = params.iter().map(|p| format!("{p} : int")).collect();
    let src = format!(
        "graph({}):\n%r : int = aten::{op}({})\nreturn (%r)",
        typed.join(", "),
        params.join(", ")
    );
    let g = parse_graph(&src).unwrap_or_else(|e| panic!("{src}\n{e}"));
    let inputs: Vec<RtValue> = args.iter().map(|&a| RtValue::Int(a)).collect();
    let (outs, _) = Executor::new(ExecConfig::compiled()).run(&g, &inputs)?;
    outs[0].as_int()
}

#[test]
fn int_div_wraps_on_overflow() {
    // The one quotient an i64 cannot hold: it wraps, as add/sub/mul do.
    assert_eq!(int_op("int_div", &[i64::MIN, -1]), Ok(i64::MIN));
    assert_eq!(int_op("int_div", &[-7, 2]), Ok(-3));
    assert!(matches!(
        int_op("int_div", &[i64::MIN, 0]),
        Err(ExecError::Unsupported { .. })
    ));
}

#[test]
fn int_mod_wraps_on_overflow() {
    assert_eq!(int_op("int_mod", &[i64::MIN, -1]), Ok(0));
    assert_eq!(int_op("int_mod", &[-7, 2]), Ok(-1));
    assert!(matches!(
        int_op("int_mod", &[i64::MIN, 0]),
        Err(ExecError::Unsupported { .. })
    ));
}

#[test]
fn int_neg_wraps_on_overflow() {
    assert_eq!(int_op("int_neg", &[i64::MIN]), Ok(i64::MIN));
    assert_eq!(int_op("int_neg", &[5]), Ok(-5));
}

#[test]
fn loop_respects_trip_and_condition() {
    // Condition becomes false after 3 iterations even though trip is 100.
    let (outs, _) = run(
        "graph(%x : Tensor):
           %hundred : int = prim::Constant[value=100]()
           %t : bool = prim::Constant[value=true]()
           %o : Tensor = prim::Loop(%hundred, %t, %x)
             block0(%i : int, %c : Tensor):
               %one : float = prim::Constant[value=1.0]()
               %u : Tensor = aten::add_scalar(%c, %one)
               %two : int = prim::Constant[value=2]()
               %cond : bool = aten::int_lt(%i, %two)
               -> (%cond, %u)
           return (%o)",
        &[t(vec![0.0], &[1])],
    );
    assert_eq!(
        outs[0].as_tensor().unwrap().to_vec_f32().unwrap(),
        vec![3.0]
    );
}

#[test]
fn negative_trip_count_runs_zero_iterations() {
    let (outs, _) = run(
        "graph(%x : Tensor, %n : int):
           %t : bool = prim::Constant[value=true]()
           %o : Tensor = prim::Loop(%n, %t, %x)
             block0(%i : int, %c : Tensor):
               %u : Tensor = aten::relu(%c)
               -> (%t, %u)
           return (%o)",
        &[t(vec![-5.0], &[1]), RtValue::Int(-3)],
    );
    assert_eq!(
        outs[0].as_tensor().unwrap().to_vec_f32().unwrap(),
        vec![-5.0]
    );
}

#[test]
fn item_ops_sync_and_convert() {
    let (outs, stats) = run(
        "graph(%x : Tensor):
           %f : float = aten::item_float(%x)
           %i : int = aten::item_int(%x)
           %zero : float = prim::Constant[value=0.0]()
           %fz : Tensor = aten::full[shape=[]](%zero)
           %b : bool = aten::item_bool(%fz)
           return (%f, %i, %b)",
        &[t(vec![2.75], &[1])],
    );
    assert_eq!(outs[0].as_float().unwrap(), 2.75);
    assert_eq!(outs[1].as_int().unwrap(), 2);
    assert!(!outs[2].as_bool().unwrap());
    // Each item op stalls the host.
    assert!(stats.host_ns >= 3.0 * ExecConfig::compiled().sync_ns);
}

#[test]
fn profiling_attributes_costs_per_operator() {
    use std::sync::{Arc, Mutex};
    use tssa_backend::{OpObserver, TOP_LEVEL_GROUP};

    /// One `(operator, bytes, flops)` row per sample.
    #[derive(Default)]
    struct Samples(Mutex<Vec<(String, u64, u64)>>);
    impl OpObserver for Samples {
        fn record_op(&self, group: u32, _: u32, op: &tssa_ir::Op, _: u64, bytes: u64, flops: u64) {
            assert_eq!(group, TOP_LEVEL_GROUP);
            self.0.lock().unwrap().push((op.name(), bytes, flops));
        }
    }

    let g = parse_graph(
        "graph(%x : Tensor):
           %a : Tensor = aten::relu(%x)
           %b : Tensor = aten::relu(%a)
           %c : Tensor = aten::sigmoid(%b)
           return (%c)",
    )
    .unwrap();
    let seen = Arc::new(Samples::default());
    let exec = Executor::new(ExecConfig::compiled()).observed(seen.clone());
    let (_, stats) = exec.run(&g, &[t(vec![0.5; 8], &[8])]).unwrap();
    let samples = seen.0.lock().unwrap();
    assert_eq!(samples.iter().filter(|s| s.0 == "aten::relu").count(), 2);
    assert_eq!(samples.len() as u64, stats.ops_executed);
    // Without fusion groups every byte and flop the cost model charged
    // reaches the observer, attributed to the op that moved it.
    assert_eq!(samples.iter().map(|s| s.1).sum::<u64>(), stats.bytes);
    assert_eq!(samples.iter().map(|s| s.2).sum::<u64>(), stats.flops);
    assert!(stats.bytes > 0 && stats.flops > 0);
}

#[test]
fn every_node_is_timed_once_per_run_and_control_nodes_move_nothing() {
    use std::collections::HashMap;
    use std::sync::{Arc, Mutex};
    use std::time::Instant;
    use tssa_backend::{OpObserver, TOP_LEVEL_GROUP};
    use tssa_ir::Op;

    /// `[samples, bytes, flops]` per `(group, node)`.
    type Tally = HashMap<(u32, u32), [u64; 3]>;
    /// The tally, and all wall time reported.
    #[derive(Default)]
    struct Counts(Mutex<(Tally, u64)>);
    impl OpObserver for Counts {
        fn record_op(&self, group: u32, node: u32, _: &Op, wall_ns: u64, bytes: u64, flops: u64) {
            let mut counts = self.0.lock().unwrap();
            let at = counts.0.entry((group, node)).or_default();
            *at = [at[0] + 1, at[1] + bytes, at[2] + flops];
            counts.1 += wall_ns;
        }
    }

    let g = parse_graph(
        "graph(%x : Tensor, %n : int, %c : bool):
           %t : bool = prim::Constant[value=true]()
           %y : Tensor = prim::If(%c)
             block0():
               %a : Tensor = aten::relu(%x)
               -> (%a)
             block1():
               %b : Tensor = aten::neg(%x)
               -> (%b)
           %l : Tensor = prim::Loop(%n, %t, %y)
             block0(%i : int, %acc : Tensor):
               %f : Tensor = prim::FusionGroup(%acc)
                 block0(%p : Tensor):
                   %s : Tensor = aten::sigmoid(%p)
                   %m : Tensor = aten::mul(%s, %p)
                   -> (%m)
               -> (%t, %f)
           %o : Tensor = prim::ParallelMap[dim=0](%n, %l)
             block0(%j : int):
               %r : Tensor = immut::select[dim=0](%l, %j)
               %h : Tensor = aten::tanh(%r)
               -> (%h)
           return (%o)",
    )
    .unwrap();
    g.verify().unwrap();
    let counts = Arc::new(Counts::default());
    let exec = Executor::new(ExecConfig::compiled()).observed(counts.clone());
    let inputs = [
        t(vec![0.5; 12], &[3, 4]),
        RtValue::Int(3),
        RtValue::Bool(true),
    ];
    let started = Instant::now();
    exec.run(&g, &inputs).unwrap();
    let run_ns = started.elapsed().as_nanos() as u64;

    let nodes = g.nodes_recursive(g.top());
    let id = |name: &str| {
        let n = nodes.iter().find(|&&n| g.node(n).op.name() == name);
        n.unwrap_or_else(|| panic!("no {name}")).index() as u32
    };
    let (top, group) = (TOP_LEVEL_GROUP, id("prim::FusionGroup"));
    // A [3, 4] f32 tensor is 48 bytes: a launch reads one and writes one,
    // and the map scatters one.
    #[rustfmt::skip]
    let want = [
        // (operator, group, samples, Some((bytes, flops)) where pinned)
        ("prim::Constant", top, 1, None),
        ("prim::If", top, 1, Some((0, 0))),
        ("aten::relu", top, 1, None),
        ("prim::Loop", top, 1, Some((0, 0))),
        ("prim::FusionGroup", group, 3, Some((3 * 96, 0))),
        ("aten::sigmoid", group, 3, None),
        ("aten::mul", group, 3, None),
        ("prim::ParallelMap", top, 1, Some((96, 0))),
        ("immut::select", top, 3, None),
        ("aten::tanh", top, 3, None),
    ];
    let (seen, wall_ns) = &*counts.0.lock().unwrap();
    for (name, group, samples, traffic) in want {
        let [count, bytes, flops] = seen[&(group, id(name))];
        assert_eq!(count, samples, "{name}");
        if let Some(traffic) = traffic {
            assert_eq!((bytes, flops), traffic, "{name}");
        }
    }
    // The branch not taken reports nothing, and nothing else reports.
    assert_eq!(seen.len(), want.len());
    assert!(
        *wall_ns <= run_ns,
        "{wall_ns} ns reported in a {run_ns} ns run"
    );
}
