//! Build graph IR directly with the builder API (no DSL), run alias
//! analysis, apply the TensorSSA conversion, and inspect every stage —
//! the workflow of someone extending the compiler.
//!
//! ```text
//! cargo run --example ir_surgery
//! ```

use tensorssa::alias::AliasAnalysis;
use tensorssa::core::passes::Dce;
use tensorssa::core::{convert_to_tensorssa, defunctionalize, Pass};
use tensorssa::ir::{Graph, MutateKind, Op, Type, ViewKind};

fn main() {
    // b = x.clone(); v = b[0]; v.relu_(); return b
    let mut g = Graph::new();
    let x = g.add_input("x", Type::Tensor);
    let clone = g.append(g.top(), Op::CloneOp, &[x], &[Type::Tensor]);
    let b = g.out(clone);
    let zero = g.constant_int(0);
    let sel = g.append(
        g.top(),
        Op::View(ViewKind::Select { dim: 0 }),
        &[b, zero],
        &[Type::Tensor],
    );
    let v = g.out(sel);
    g.append(g.top(), Op::Mutate(MutateKind::Relu), &[v], &[Type::Tensor]);
    g.set_returns(g.top(), &[b]);
    g.verify().expect("well-formed by construction");
    println!("=== imperative ===\n{g}");

    // Alias analysis: the view must-aliases the clone, and together they form
    // one functionalization candidate.
    let analysis = AliasAnalysis::build(&g);
    println!(
        "alias: must_alias(v, b) = {}, candidates = {}",
        analysis.must_alias(v, b),
        analysis.candidates().len()
    );

    let stats = convert_to_tensorssa(&mut g);
    Dce.run(&mut g);
    println!("\n=== TensorSSA form ({stats:?}) ===\n{g}");

    // Round-trip: convert the immutable operators back to views/mutations
    // (§3.2 "flexibility").
    let defn = defunctionalize(&mut g);
    Dce.run(&mut g);
    println!("=== defunctionalized again ({defn:?}) ===\n{g}");
    g.verify().expect("still well-formed");
}
