//! A program that selects from a rank-0 value, or concatenates operands of
//! different ranks, fails on every input. It still loads, because shape
//! certification reports the failure instead of panicking, and its request
//! resolves to a typed execution error.

use tssa_backend::RtValue;
use tssa_serve::{BatchSpec, PipelineKind, ServeConfig, ServeError, Service};
use tssa_tensor::Tensor;

#[test]
fn select_from_a_rank_0_value_loads_and_fails_at_execution() {
    let service = Service::new(ServeConfig::default().with_workers(1));
    let inputs = vec![RtValue::Tensor(Tensor::rand_uniform(&[4], -1.0, 1.0, 3))];
    let model = match service
        .loader("def f(x: Tensor):\n    s = x.sum(0)\n    return s[0]\n")
        .pipeline(PipelineKind::TensorSsa)
        .example(&inputs)
        .batch(BatchSpec::unbatched(1))
        .load()
    {
        Ok(model) => model,
        Err(e) => panic!("load failed: {e}"),
    };
    match service.submit(&model, inputs).unwrap().wait() {
        Err(ServeError::Exec(_)) => {}
        Err(e) => panic!("expected an execution error, got {e}"),
        Ok(_) => panic!("a select from a rank-0 value must not succeed"),
    }
    service.shutdown();
}

#[test]
fn cat_of_operands_with_different_ranks_loads_and_fails_at_execution() {
    let service = Service::new(ServeConfig::default().with_workers(1));
    let inputs = vec![RtValue::Tensor(Tensor::rand_uniform(&[4, 2], -1.0, 1.0, 5))];
    let model = match service
        .loader("def f(x: Tensor):\n    w = zeros([3])\n    y = cat([x, w], 0)\n    return y\n")
        .pipeline(PipelineKind::TensorSsa)
        .example(&inputs)
        .batch(BatchSpec::unbatched(1))
        .load()
    {
        Ok(model) => model,
        Err(e) => panic!("load failed: {e}"),
    };
    match service.submit(&model, inputs).unwrap().wait() {
        Err(ServeError::Exec(_)) => {}
        Err(e) => panic!("expected an execution error, got {e}"),
        Ok(_) => panic!("a cat of a rank-2 and a rank-1 tensor must not succeed"),
    }
    service.shutdown();
}
