//! Functionalize → de-functionalize round trips (§3.2's "flexibility"):
//! converting the immutable operators back to views and mutations must
//! preserve results on real workloads.

use tensorssa::backend::{DeviceProfile, ExecConfig, Executor};
use tensorssa::core::passes::Dce;
use tensorssa::core::{convert_to_tensorssa, defunctionalize, Pass};
use tensorssa::workloads::all_workloads;

#[test]
fn defunctionalized_workloads_match_eager() {
    let exec = Executor::new(ExecConfig::eager().with_device(DeviceProfile::consumer()));
    for w in all_workloads() {
        let original = w.graph().expect("workload compiles");
        let inputs = w.inputs(2, 8, 77);
        let (reference, _) = exec.run(&original, &inputs).expect("eager runs");

        let mut g = original.clone();
        convert_to_tensorssa(&mut g);
        Dce.run(&mut g);
        defunctionalize(&mut g);
        Dce.run(&mut g);
        g.verify()
            .unwrap_or_else(|e| panic!("{}: {e}\n{g}", w.name));
        let (roundtrip, _) = exec
            .run(&g, &inputs)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));

        assert_eq!(reference.len(), roundtrip.len(), "{}", w.name);
        for (i, (a, b)) in reference.iter().zip(&roundtrip).enumerate() {
            let (a, b) = (a.as_tensor().unwrap(), b.as_tensor().unwrap());
            assert!(
                a.allclose(b, 1e-4),
                "{}: output {i} changed across the round trip",
                w.name
            );
        }
    }
}

#[test]
fn tensorssa_form_contains_no_mutation_for_clean_workloads() {
    use tensorssa::ir::Op;
    for w in all_workloads() {
        let mut g = w.graph().expect("workload compiles");
        convert_to_tensorssa(&mut g);
        Dce.run(&mut g);
        let leftover_mutations = g
            .nodes_recursive(g.top())
            .into_iter()
            .filter(|&n| matches!(g.node(n).op, Op::Mutate(_)))
            .count();
        assert_eq!(
            leftover_mutations, 0,
            "{}: every mutation should be functionalized",
            w.name
        );
    }
}
