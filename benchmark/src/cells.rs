//! Programs, cells and the output check.
//!
//! A *cell* is one (program, size or kind) pair. Its inputs come from the
//! run's seed; its reference outputs are computed once in set-up by the
//! `Eager` pipeline on the untransformed graph, an interpreter independent
//! of every transformation under test.

use tssa_backend::RtValue;
use tssa_pipelines::{Eager, Pipeline};
use tssa_serve::{ArgRole, BatchSpec};
use tssa_tensor::Tensor;
use tssa_workloads::Workload;

/// Tolerance of the output check, the one `tests/equivalence.rs` uses.
const TOLERANCE: f64 = 1e-4;

/// In the untraced run every this-many-th timed response is checked.
pub const CHECK_EVERY: u64 = 64;

/// Rows of a generated program's input (it writes rows 0–7).
const DEEP_ROWS: usize = 8;

/// A program the benchmark compiles and runs.
#[derive(Clone)]
pub struct Program {
    pub name: String,
    pub source: String,
    builtin: Option<Workload>,
}

impl Program {
    pub fn builtin(name: &str) -> Program {
        let w = Workload::by_name(name).unwrap_or_else(|| panic!("unknown program {name}"));
        Program {
            name: name.to_string(),
            source: w.source.to_string(),
            builtin: Some(w),
        }
    }

    /// A generated straight-line program of `n` dependent partial writes —
    /// the generator of `serve_throughput`'s restart drill. Compile time
    /// grows superlinearly with `n`; decode time only with the plan text.
    pub fn deep(n: usize) -> Program {
        let mut source = String::from("def f(x: Tensor):\n    y = x.clone()\n");
        for i in 0..n {
            source.push_str(&format!("    y[{}] = relu(y[{}])\n", i % 8, (i + 1) % 8));
        }
        source.push_str("    return y\n");
        Program {
            name: format!("deep-{n}"),
            source,
            builtin: None,
        }
    }

    /// The batch size `inputs(0, ..)` selects.
    pub fn default_batch(&self) -> usize {
        self.builtin.as_ref().map_or(DEEP_ROWS, |w| w.default_batch)
    }

    /// Seeded inputs; `batch`/`seq` 0 select the program's defaults.
    pub fn inputs(&self, batch: usize, seq: usize, seed: u64) -> Vec<RtValue> {
        match &self.builtin {
            Some(w) => w.inputs(batch, seq, seed),
            None => {
                let rows = if batch == 0 { DEEP_ROWS } else { batch };
                vec![RtValue::Tensor(Tensor::rand_uniform(
                    &[rows, 4],
                    -1.0,
                    1.0,
                    seed,
                ))]
            }
        }
    }

    /// The serving contract: which arguments carry per-request rows along
    /// dimension 0 and which are shared (weights, anchors, lengths).
    pub fn spec(&self) -> BatchSpec {
        use ArgRole::{Shared, Stacked};
        let (args, outputs) = match self.name.as_str() {
            "yolov3" | "yolact" => (vec![Stacked], vec![Stacked]),
            "fcos" => (
                vec![Stacked, Stacked, Stacked, Shared],
                vec![Stacked, Stacked],
            ),
            // ssd loops over a runtime batch count and the recurrences batch
            // along dimension 1, so they are served unbatched.
            _ => return BatchSpec::unbatched(self.inputs(0, 0, 1).len()),
        };
        BatchSpec { args, outputs }
    }
}

/// The reference outputs of `program` on `inputs`.
pub fn reference(program: &Program, inputs: &[RtValue]) -> Vec<RtValue> {
    let graph =
        tssa_frontend::compile(&program.source).unwrap_or_else(|e| panic!("{}: {e}", program.name));
    let (outputs, _) = Eager
        .compile(&graph)
        .session()
        .run(inputs)
        .unwrap_or_else(|e| panic!("{}: reference run failed: {e}", program.name));
    outputs
}

/// Whether `got` equals `want`: same arity and kinds, tensors of equal shape
/// within [`TOLERANCE`], scalars equal.
pub fn outputs_match(got: &[RtValue], want: &[RtValue]) -> bool {
    got.len() == want.len() && got.iter().zip(want).all(|(g, w)| value_matches(g, w))
}

fn value_matches(got: &RtValue, want: &RtValue) -> bool {
    match (got, want) {
        (RtValue::Tensor(g), RtValue::Tensor(w)) => {
            g.shape() == w.shape() && g.allclose(w, TOLERANCE)
        }
        (RtValue::Int(g), RtValue::Int(w)) => g == w,
        (RtValue::Float(g), RtValue::Float(w)) => (g - w).abs() <= TOLERANCE,
        (RtValue::Bool(g), RtValue::Bool(w)) => g == w,
        (RtValue::List(g), RtValue::List(w)) => outputs_match(g, w),
        _ => false,
    }
}

/// Counts of ops attempted, failed and checked, and the rule for which
/// responses are checked.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub checked: u64,
    /// Check every response, not every [`CHECK_EVERY`]-th: set in warm-up
    /// and in the traced run.
    pub check_all: bool,
}

impl Tally {
    /// Count one attempted op and say whether its response is to be checked.
    pub fn attempt(&mut self) -> bool {
        self.attempted += 1;
        self.check_all || self.attempted.is_multiple_of(CHECK_EVERY)
    }

    /// Record the outcome of a check.
    pub fn check(&mut self, ok: bool) {
        self.checked += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Record an op that errored, was shed or returned a non-200.
    pub fn fail(&mut self) {
        self.failed += 1;
    }

    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.checked += other.checked;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_check_compares_shape_and_values() {
        let a = RtValue::Tensor(Tensor::ones(&[2, 3]));
        let same = RtValue::Tensor(Tensor::full(&[2, 3], 1.00001));
        let off = RtValue::Tensor(Tensor::full(&[2, 3], 1.01));
        let reshaped = RtValue::Tensor(Tensor::ones(&[3, 2]));
        let got = std::slice::from_ref(&a);
        assert!(outputs_match(got, &[same]));
        assert!(!outputs_match(got, &[off]));
        assert!(!outputs_match(got, &[reshaped]));
        assert!(!outputs_match(got, &[a.clone(), a.clone()]));
        assert!(!outputs_match(&[RtValue::Int(1)], got));
    }

    #[test]
    fn tally_checks_every_64th_or_all() {
        let mut t = Tally::default();
        let checked = (0..128).filter(|_| t.attempt()).count();
        assert_eq!((checked, t.attempted), (2, 128));
        t.check_all = true;
        assert!(t.attempt());
        t.check(false);
        assert_eq!((t.failed, t.checked), (1, 1));
    }

    #[test]
    fn deep_programs_compile_and_match_their_reference() {
        let p = Program::deep(16);
        let inputs = p.inputs(0, 0, 3);
        let want = reference(&p, &inputs);
        assert!(outputs_match(&reference(&p, &inputs), &want));
        assert_eq!(p.spec().args.len(), 1);
    }
}
