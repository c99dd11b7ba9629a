//! Differential IR fuzzing (TorchProbe-style): seeded random imperative DSL
//! programs executed before and after a graph transformation, diffing the
//! numeric results.
//!
//! The generator emits *source text* rather than raw graphs, so every case
//! is automatically well-scoped and type-correct — the frontend is the
//! oracle for validity, the reference interpreter for semantics. Programs
//! mix views, in-place mutations and nested `if`/`for` control flow: the
//! exact territory where functionalization bugs hide.
//!
//! All tensors are 4x4 matrices; the integer input is pinned to 4 so loop
//! indices always stay in bounds, and only NaN-free operations are emitted
//! (no `exp`/`log`/`sqrt`/division), so outputs are compared bit for bit.

use std::sync::{Arc, Mutex, PoisonError};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tssa_backend::{ExecConfig, Executor, OpObserver, RtValue};
use tssa_ir::{infer_shapes_symbolic, DimVar, Graph, Op, ValueId};
use tssa_tensor::Tensor;

/// Side length of every generated matrix (and the value of the `n` input).
const DIM: usize = 4;

/// Generate the DSL source text for `seed`.
///
/// The skeleton is fixed (`def fuzz(x: Tensor, y: Tensor, c: bool, n: int)`
/// with `a`/`b` cloned up front so mutations are functionalizable); the body
/// is 3–10 random statements drawn from pure rebinds, row assignments,
/// in-place mutations, `if c:` branches and `for i in range(n):` loops.
pub fn generate_source(seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9).wrapping_add(seed));
    let mut lines: Vec<String> = vec![
        "def fuzz(x: Tensor, y: Tensor, c: bool, n: int):".into(),
        "    a = x.clone()".into(),
        "    b = y.clone()".into(),
    ];
    let mut vars: Vec<String> = vec!["a".into(), "b".into()];
    let mut fresh = 0usize;

    let pick = |rng: &mut StdRng, vars: &[String]| -> String {
        vars[rng.gen_range(0..vars.len())].clone()
    };
    let lit = |rng: &mut StdRng| -> String {
        // Small halves: exactly representable, keeps magnitudes tame.
        format!("{:.1}", (rng.gen_range(-4i64..5) as f64) * 0.5)
    };
    let unary = |rng: &mut StdRng| -> &'static str {
        ["relu", "sigmoid", "tanh", "neg"][rng.gen_range(0usize..4)]
    };
    let inplace = |rng: &mut StdRng| -> &'static str {
        ["relu_", "sigmoid_", "tanh_", "neg_"][rng.gen_range(0usize..4)]
    };
    // A matrix-shaped expression over existing variables.
    fn mat_expr(rng: &mut StdRng, vars: &[String]) -> String {
        let a = vars[rng.gen_range(0..vars.len())].clone();
        match rng.gen_range(0u32..5) {
            0 => format!("{a}.relu()"),
            1 => format!("{a}.tanh()"),
            2 => {
                let b = &vars[rng.gen_range(0..vars.len())];
                format!("{a} + {b}")
            }
            3 => {
                let b = &vars[rng.gen_range(0..vars.len())];
                format!("{a} * {b}")
            }
            _ => format!("{a} + {:.1}", (rng.gen_range(-4i64..5) as f64) * 0.5),
        }
    }
    // A row-shaped (length-DIM) expression.
    fn row_expr(rng: &mut StdRng, vars: &[String], idx: &str) -> String {
        let src = &vars[rng.gen_range(0..vars.len())];
        let j = rng.gen_range(0..DIM);
        match rng.gen_range(0u32..4) {
            0 => format!("{src}[{j}]"),
            1 => format!("{src}[{j}] + {:.1}", (rng.gen_range(-4i64..5) as f64) * 0.5),
            2 => format!("{src}[{j}].relu()"),
            _ => format!("{src}[{idx}]", src = src, idx = idx),
        }
    }
    // One mutation-flavoured statement at the given indent, usable inside
    // control-flow bodies (no new bindings, so scoping stays trivial).
    fn mutation_stmt(rng: &mut StdRng, vars: &[String], indent: &str, idx: &str) -> String {
        let m = vars[rng.gen_range(0..vars.len())].clone();
        match rng.gen_range(0u32..4) {
            0 => {
                let i = rng.gen_range(0..DIM).to_string();
                let e = row_expr(rng, vars, &i);
                format!("{indent}{m}[{i}] = {e}")
            }
            1 => {
                let i = if idx.is_empty() {
                    rng.gen_range(0..DIM).to_string()
                } else {
                    idx.to_string()
                };
                let l = format!("{:.1}", (rng.gen_range(-4i64..5) as f64) * 0.5);
                format!("{indent}{m}[{i}] += {l}")
            }
            2 => {
                let f = ["relu_", "sigmoid_", "tanh_", "neg_"][rng.gen_range(0usize..4)];
                format!("{indent}{m}.{f}()")
            }
            _ => {
                let e = mat_expr(rng, vars);
                format!("{indent}{m} = {e}")
            }
        }
    }

    let n_stmts = rng.gen_range(3usize..11);
    for _ in 0..n_stmts {
        match rng.gen_range(0u32..8) {
            // Bind a new matrix variable.
            0 | 1 => {
                let e = mat_expr(&mut rng, &vars);
                let v = format!("v{fresh}");
                fresh += 1;
                lines.push(format!("    {v} = {e}"));
                vars.push(v);
            }
            // Row assignment.
            2 => {
                let m = pick(&mut rng, &vars);
                let i = rng.gen_range(0..DIM).to_string();
                let e = row_expr(&mut rng, &vars, &i);
                lines.push(format!("    {m}[{i}] = {e}"));
            }
            // Row augmented assignment.
            3 => {
                let m = pick(&mut rng, &vars);
                let i = rng.gen_range(0..DIM);
                let l = lit(&mut rng);
                lines.push(format!("    {m}[{i}] += {l}"));
            }
            // Whole-tensor in-place mutation.
            4 => {
                let m = pick(&mut rng, &vars);
                let f = inplace(&mut rng);
                lines.push(format!("    {m}.{f}()"));
            }
            // Conditional, possibly with an else branch.
            5 => {
                lines.push("    if c:".into());
                for _ in 0..rng.gen_range(1usize..3) {
                    lines.push(mutation_stmt(&mut rng, &vars, "        ", ""));
                }
                if rng.gen_range(0u32..2) == 0 {
                    lines.push("    else:".into());
                    lines.push(mutation_stmt(&mut rng, &vars, "        ", ""));
                }
            }
            // Loop over the rows, mutating through the loop index.
            6 => {
                lines.push("    for i in range(n):".into());
                for _ in 0..rng.gen_range(1usize..3) {
                    lines.push(mutation_stmt(&mut rng, &vars, "        ", "i"));
                }
            }
            // Rebind an existing variable (exercises scalar SSA).
            _ => {
                let m = pick(&mut rng, &vars);
                let u = unary(&mut rng);
                lines.push(format!("    {m} = {m}.{u}()"));
            }
        }
    }

    let mut rets: Vec<String> = vec!["a".into(), "b".into()];
    if let Some(last) = vars.last() {
        if !rets.contains(last) {
            rets.push(last.clone());
        }
    }
    lines.push(format!("    return {}", rets.join(", ")));
    let mut src = lines.join("\n");
    src.push('\n');
    src
}

/// Fresh runtime inputs for `seed`. Regenerated before every execution:
/// mutations write through the tensors, so inputs must never be shared
/// between runs.
pub fn inputs_for(seed: u64) -> Vec<RtValue> {
    vec![
        RtValue::Tensor(Tensor::rand_uniform(&[DIM, DIM], -1.0, 1.0, seed ^ 0xA5A5)),
        RtValue::Tensor(Tensor::rand_uniform(&[DIM, DIM], -1.0, 1.0, seed ^ 0x5A5A)),
        RtValue::Bool(seed.is_multiple_of(2)),
        RtValue::Int(DIM as i64),
    ]
}

/// Execute `g` on fresh inputs for `seed` under `config`, returning the
/// output tensors.
fn run_with(g: &Graph, config: &ExecConfig, seed: u64) -> Result<Vec<Tensor>, String> {
    let (outs, _stats) = Executor::new(config.clone())
        .run(g, &inputs_for(seed))
        .map_err(|e| format!("execution failed: {e}"))?;
    outs.iter()
        .map(|v| {
            v.as_tensor()
                .map(Tensor::clone_data)
                .map_err(|e| e.to_string())
        })
        .collect()
}

/// Input ranks of the fuzz skeleton `(x: Tensor, y: Tensor, c: bool,
/// n: int)` as the symbolic shape analysis expects them.
const SYMBOLIC_RANKS: [Option<usize>; 4] = [Some(2), Some(2), None, None];

/// Every tensor binding of a run with the shape it took, in binding order.
#[derive(Default)]
struct ShapeTrace(Mutex<Vec<(ValueId, Vec<usize>)>>);

impl OpObserver for ShapeTrace {
    fn record_op(&self, _: u32, _: u32, _: &Op, _: u64, _: u64, _: u64) {}

    fn bound(&self, value: ValueId, shape: &[usize]) {
        let mut trace = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        trace.push((value, shape.to_vec()));
    }
}

/// Differential check of the symbolic shape analysis itself: run `g` under
/// a [`ShapeTrace`] and require that every concrete shape the
/// interpreter binds refines the symbolic one — rank matches, and every
/// `Known` dim evaluates (under `in*.d* = DIM`) to the observed extent.
/// `Unknown` dims admit anything; a missing symbolic shape (a value the
/// analysis gave up on entirely) is not a claim and is skipped.
///
/// # Errors
///
/// A description of the first value whose runtime shape the symbolic
/// analysis fails to admit.
fn check_concretization(g: &Graph, config: &ExecConfig, seed: u64) -> Result<(), String> {
    let info = infer_shapes_symbolic(g, &SYMBOLIC_RANKS);
    let trace = Arc::new(ShapeTrace::default());
    let exec = Executor::new(config.clone()).observed(trace.clone());
    exec.run(g, &inputs_for(seed))
        .map_err(|e| format!("traced run failed: {e}"))?;
    let env = |_v: DimVar| Some(DIM as i64);
    let trace = trace.0.lock().unwrap_or_else(PoisonError::into_inner);
    for &(value, ref concrete) in trace.iter() {
        let Some(sym) = info.shape(value) else {
            continue;
        };
        if sym.len() != concrete.len() {
            return Err(format!(
                "{value:?}: symbolic rank {} vs runtime shape {concrete:?}",
                sym.len()
            ));
        }
        for (d, (s, &c)) in sym.iter().zip(concrete).enumerate() {
            if !s.admits(c, &env) {
                return Err(format!(
                    "{value:?} dim {d}: symbolic `{s}` does not admit runtime \
                     extent {c} (shape {concrete:?})"
                ));
            }
        }
    }
    Ok(())
}

/// A transform that also chooses the execution configuration for the
/// transformed graph (a full pipeline's compile step).
pub type CompileFn<'a> = &'a dyn Fn(&Graph) -> Result<(Graph, ExecConfig), String>;

/// One differential case: compile the seeded program, execute it with the
/// reference (eager) interpreter, apply `transform`, execute its output
/// under the [`ExecConfig`] the transform chose (a full pipeline's fusion
/// groups and parallel maps need their compiled one), and require
/// bit-for-bit agreement.
///
/// # Errors
///
/// A description of the first divergence (or compile/run failure), prefixed
/// with the seed, suitable for direct reporting.
pub fn diff_case_compiled(seed: u64, transform: CompileFn<'_>) -> Result<(), String> {
    let source = generate_source(seed);
    let fail = |stage: &str, detail: String| -> String {
        format!("seed {seed}: {stage}: {detail}\n--- program ---\n{source}")
    };
    let g = tssa_frontend::compile(&source).map_err(|e| fail("frontend", e.to_string()))?;
    let before = run_with(&g, &ExecConfig::eager(), seed).map_err(|e| fail("reference run", e))?;
    check_concretization(&g, &ExecConfig::eager(), seed)
        .map_err(|e| fail("shape concretization (source)", e))?;
    let (h, config) = transform(&g).map_err(|e| fail("transform", e))?;
    h.verify()
        .map_err(|e| fail("verify after transform", e.to_string()))?;
    let after = run_with(&h, &config, seed).map_err(|e| fail("transformed run", e))?;
    check_concretization(&h, &config, seed)
        .map_err(|e| fail("shape concretization (transformed)", e))?;
    if before.len() != after.len() {
        return Err(fail(
            "diff",
            format!("{} outputs before vs {} after", before.len(), after.len()),
        ));
    }
    for (i, (x, y)) in before.iter().zip(&after).enumerate() {
        if !same_bits(x, y) {
            return Err(fail("diff", format!("output {i} diverges")));
        }
    }
    Ok(())
}

/// Same shape, dtype and element bits: both executors run the same element
/// functions, so a compiled program owes the reference every bit (`-0.0`
/// is not `0.0` here).
fn same_bits(x: &Tensor, y: &Tensor) -> bool {
    x.shape() == y.shape()
        && x.dtype() == y.dtype()
        && match (x.to_vec_f32(), y.to_vec_f32()) {
            (Ok(a), Ok(b)) => (a.iter().map(|v| v.to_bits())).eq(b.iter().map(|v| v.to_bits())),
            // Integer and boolean contents compare exactly as they are.
            _ => x == y,
        }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tssa_core::Pass;

    /// [`diff_case_compiled`] for a transform whose output runs eagerly.
    fn diff_case(
        seed: u64,
        transform: &dyn Fn(&Graph) -> Result<Graph, String>,
    ) -> Result<(), String> {
        diff_case_compiled(seed, &|g| transform(g).map(|h| (h, ExecConfig::eager())))
    }

    /// TensorSSA conversion plus dead-code elimination: the
    /// functionalization core of the paper's pipeline.
    fn functionalize(g: &Graph) -> Result<Graph, String> {
        let mut out = g.clone();
        tssa_core::convert_to_tensorssa(&mut out);
        tssa_core::passes::Dce.run(&mut out);
        out.verify().map_err(|e| e.to_string())?;
        Ok(out)
    }

    #[test]
    fn generator_is_deterministic() {
        assert_eq!(generate_source(7), generate_source(7));
        assert_ne!(generate_source(7), generate_source(8));
    }

    #[test]
    fn generated_programs_compile_and_run() {
        for seed in 0..40 {
            let source = generate_source(seed);
            let g = tssa_frontend::compile(&source)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{source}"));
            run_with(&g, &ExecConfig::eager(), seed)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{source}"));
        }
    }

    #[test]
    fn identity_transform_never_diverges() {
        for seed in 0..10 {
            diff_case(seed, &|g| Ok(g.clone())).unwrap();
        }
    }

    #[test]
    fn functionalization_smoke() {
        for seed in 0..25 {
            diff_case(seed, &functionalize).unwrap();
        }
    }

    #[test]
    fn concretization_holds_on_generated_programs() {
        for seed in 0..40 {
            let source = generate_source(seed);
            let g = tssa_frontend::compile(&source)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{source}"));
            check_concretization(&g, &ExecConfig::eager(), seed)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{source}"));
        }
    }

    #[test]
    fn concretization_catches_a_lying_analysis() {
        // A graph whose runtime shape is [DIM, DIM]: if the admits() check
        // were vacuous, a wrong symbolic claim could never fail. Build a
        // shape the analysis *does* pin (a constant) and check admits()
        // rejects a different runtime extent.
        use tssa_ir::SymDim;
        let pinned = SymDim::konst(3);
        let env = |_v: DimVar| Some(DIM as i64);
        assert!(!pinned.admits(DIM, &env));
        assert!(pinned.admits(3, &env));
    }
}
