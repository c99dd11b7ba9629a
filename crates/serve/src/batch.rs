//! Dynamic-batching data plane: how K requests for the same plan become one
//! execution and how its outputs are handed back out.
//!
//! A [`BatchSpec`] labels every argument (and output) of a model with an
//! [`ArgRole`]:
//!
//! * [`ArgRole::Stacked`] arguments carry per-request data along dimension 0
//!   (the batch dimension); coalescing concatenates them, and stacked
//!   outputs are split back by each request's row count;
//! * [`ArgRole::Shared`] arguments are common to every request in the batch
//!   (weights, anchor points, sequence lengths); a worker only coalesces
//!   requests whose shared arguments are identical, so sharing is sound by
//!   construction.
//!
//! For programs that are elementwise over the batch dimension — the CV
//! post-processing workloads — batched execution is *bit-for-bit* equal to
//! running each request alone, which the integration tests assert.

use tssa_backend::RtValue;
use tssa_tensor::concat;

use crate::ServeError;

/// How one argument (or output) participates in a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArgRole {
    /// Per-request rows along dimension 0; concatenated on entry, split on
    /// exit.
    Stacked,
    /// Identical across the batch; passed through once.
    Shared,
}

/// Batch roles for a model's arguments and outputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchSpec {
    /// One role per graph argument.
    pub args: Vec<ArgRole>,
    /// One role per graph output. Outputs beyond this list default to
    /// [`ArgRole::Stacked`].
    pub outputs: Vec<ArgRole>,
}

impl BatchSpec {
    /// All arguments stacked, all outputs stacked: the shape of a model
    /// whose every tensor is batched along dimension 0.
    pub fn stacked(n_args: usize, n_outputs: usize) -> BatchSpec {
        BatchSpec {
            args: vec![ArgRole::Stacked; n_args],
            outputs: vec![ArgRole::Stacked; n_outputs],
        }
    }

    /// No argument is batched: every request runs alone (no coalescing).
    pub fn unbatched(n_args: usize) -> BatchSpec {
        BatchSpec {
            args: vec![ArgRole::Shared; n_args],
            outputs: Vec::new(),
        }
    }

    /// Whether this spec permits coalescing at all.
    pub(crate) fn batchable(&self) -> bool {
        self.args.contains(&ArgRole::Stacked)
    }

    /// The number of batch rows `inputs` contributes, validating the shape
    /// contract: every stacked argument must be a tensor of rank ≥ 1 and
    /// all must agree on dimension 0.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidRequest`] on arity mismatch, a non-tensor
    /// stacked argument, or disagreeing row counts.
    pub fn rows(&self, inputs: &[RtValue]) -> Result<usize, ServeError> {
        if inputs.len() != self.args.len() {
            return Err(ServeError::invalid(format!(
                "expected {} arguments, got {}",
                self.args.len(),
                inputs.len()
            )));
        }
        let mut rows: Option<usize> = None;
        for (i, (role, value)) in self.args.iter().zip(inputs).enumerate() {
            if *role != ArgRole::Stacked {
                continue;
            }
            let t = match value {
                RtValue::Tensor(t) if !t.shape().is_empty() => t,
                _ => {
                    return Err(ServeError::invalid(format!(
                        "stacked argument {i} must be a tensor of rank >= 1"
                    )))
                }
            };
            let r = t.shape()[0];
            match rows {
                None => rows = Some(r),
                Some(prev) if prev != r => {
                    return Err(ServeError::invalid(format!(
                        "stacked arguments disagree on batch rows: {prev} vs {r} (argument {i})"
                    )))
                }
                Some(_) => {}
            }
        }
        // An unbatchable request still occupies one logical row.
        Ok(rows.unwrap_or(1))
    }

    /// Whether two requests may share a batch: their [`ArgRole::Shared`]
    /// arguments must be structurally identical, and their
    /// [`ArgRole::Stacked`] arguments must concatenate cleanly along the
    /// batch dim — same dtype and same trailing dims, with *any* batch
    /// extent. Requests from different concrete shapes of one shape class
    /// therefore stack pad-free when only the batch dim varies, and refuse
    /// to mix otherwise.
    pub fn compatible(&self, a: &[RtValue], b: &[RtValue]) -> bool {
        a.len() == b.len()
            && self
                .args
                .iter()
                .zip(a.iter().zip(b))
                .all(|(role, (x, y))| match role {
                    ArgRole::Shared => rt_eq(x, y),
                    ArgRole::Stacked => match (x, y) {
                        (RtValue::Tensor(tx), RtValue::Tensor(ty)) => {
                            tx.dtype() == ty.dtype()
                                && tx.rank() == ty.rank()
                                && tx.rank() >= 1
                                && tx.shape()[1..] == ty.shape()[1..]
                        }
                        _ => rt_eq(x, y),
                    },
                })
    }

    /// Concatenate K requests' inputs into one batched argument list.
    ///
    /// # Errors
    ///
    /// [`ServeError`] if `requests` is empty or tensor concatenation fails
    /// (shape/dtype disagreement outside dimension 0).
    pub fn stack(&self, requests: &[&[RtValue]]) -> Result<Vec<RtValue>, ServeError> {
        let first = requests
            .first()
            .ok_or_else(|| ServeError::invalid("cannot stack an empty batch"))?;
        if requests.len() == 1 {
            return Ok(first.to_vec());
        }
        let mut out = Vec::with_capacity(self.args.len());
        for (i, role) in self.args.iter().enumerate() {
            match role {
                ArgRole::Shared => out.push(first[i].clone()),
                ArgRole::Stacked => {
                    let parts: Result<Vec<_>, ServeError> = requests
                        .iter()
                        .map(|r| r[i].as_tensor().map_err(ServeError::from))
                        .collect();
                    let parts = parts?;
                    let t = concat(&parts, 0).map_err(|e| ServeError::Exec(e.into()))?;
                    out.push(RtValue::Tensor(t));
                }
            }
        }
        Ok(out)
    }

    /// Split one batched execution's outputs back into per-request outputs,
    /// where request `j` contributed `rows[j]` batch rows.
    ///
    /// Stacked outputs are narrowed to each request's row range and
    /// materialized (so responses do not pin the batch buffer); shared
    /// outputs are cloned to every request.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidRequest`] when a stacked output is not a tensor
    /// or its dimension 0 does not equal the total row count.
    pub fn split(
        &self,
        outputs: &[RtValue],
        rows: &[usize],
    ) -> Result<Vec<Vec<RtValue>>, ServeError> {
        let total: usize = rows.iter().sum();
        let mut per_request: Vec<Vec<RtValue>> =
            vec![Vec::with_capacity(outputs.len()); rows.len()];
        for (j, value) in outputs.iter().enumerate() {
            let role = self.outputs.get(j).copied().unwrap_or(ArgRole::Stacked);
            match role {
                ArgRole::Shared => {
                    for out in &mut per_request {
                        out.push(value.clone());
                    }
                }
                ArgRole::Stacked => {
                    let t = value.as_tensor().map_err(|_| {
                        ServeError::invalid(format!("stacked output {j} is not a tensor"))
                    })?;
                    if t.shape().first() != Some(&total) {
                        return Err(ServeError::invalid(format!(
                            "stacked output {j} has {:?} rows, batch carried {total}",
                            t.shape().first()
                        )));
                    }
                    let mut offset = 0usize;
                    for (req, &r) in per_request.iter_mut().zip(rows) {
                        let slice = t
                            .narrow(0, offset as isize, r)
                            .map_err(|e| ServeError::Exec(e.into()))?;
                        req.push(RtValue::Tensor(slice.clone_data()));
                        offset += r;
                    }
                }
            }
        }
        Ok(per_request)
    }
}

/// Structural equality over runtime values (tensor contents compared
/// logically; floats compared by bits via `PartialEq`).
fn rt_eq(a: &RtValue, b: &RtValue) -> bool {
    match (a, b) {
        (RtValue::Tensor(x), RtValue::Tensor(y)) => x == y,
        (RtValue::Int(x), RtValue::Int(y)) => x == y,
        (RtValue::Float(x), RtValue::Float(y)) => x.to_bits() == y.to_bits(),
        (RtValue::Bool(x), RtValue::Bool(y)) => x == y,
        (RtValue::List(x), RtValue::List(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(u, v)| rt_eq(u, v))
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tssa_tensor::Tensor;

    fn t(shape: &[usize], seed: u64) -> RtValue {
        RtValue::Tensor(Tensor::rand_uniform(shape, -1.0, 1.0, seed))
    }

    #[test]
    fn rows_validates_shape_contract() {
        let spec = BatchSpec {
            args: vec![ArgRole::Stacked, ArgRole::Shared],
            outputs: vec![ArgRole::Stacked],
        };
        assert_eq!(spec.rows(&[t(&[3, 4], 0), RtValue::Int(7)]).unwrap(), 3);
        assert!(spec.rows(&[RtValue::Int(1), RtValue::Int(7)]).is_err());
        assert!(spec.rows(&[t(&[3, 4], 0)]).is_err());
        let two_stacked = BatchSpec {
            args: vec![ArgRole::Stacked, ArgRole::Stacked],
            outputs: vec![],
        };
        assert!(two_stacked.rows(&[t(&[3, 4], 0), t(&[2, 4], 1)]).is_err());
    }

    #[test]
    fn stack_then_split_round_trips() {
        let spec = BatchSpec {
            args: vec![ArgRole::Stacked],
            outputs: vec![ArgRole::Stacked],
        };
        let a = t(&[2, 3], 1);
        let b = t(&[3, 3], 2);
        let stacked = spec
            .stack(&[std::slice::from_ref(&a), std::slice::from_ref(&b)])
            .unwrap();
        assert_eq!(stacked[0].as_tensor().unwrap().shape(), &[5, 3]);
        let split = spec.split(&stacked, &[2, 3]).unwrap();
        assert!(rt_eq(&split[0][0], &a));
        assert!(rt_eq(&split[1][0], &b));
    }

    #[test]
    fn shared_outputs_fan_out() {
        let spec = BatchSpec {
            args: vec![ArgRole::Stacked],
            outputs: vec![ArgRole::Shared],
        };
        let out = [RtValue::Int(42)];
        let split = spec.split(&out, &[1, 2]).unwrap();
        assert_eq!(split.len(), 2);
        assert!(rt_eq(&split[0][0], &split[1][0]));
    }

    #[test]
    fn split_rejects_row_mismatch() {
        let spec = BatchSpec::stacked(1, 1);
        let out = [t(&[4, 2], 3)];
        assert!(spec.split(&out, &[2, 3]).is_err());
        assert!(spec.split(&[RtValue::Int(1)], &[1]).is_err());
    }

    #[test]
    fn compatibility_checks_shared_args_only() {
        let spec = BatchSpec {
            args: vec![ArgRole::Stacked, ArgRole::Shared],
            outputs: vec![],
        };
        let shared = t(&[4, 2], 9);
        let a = [t(&[1, 2], 1), shared.clone()];
        let b = [t(&[2, 2], 2), shared.clone()];
        let c = [t(&[2, 2], 2), t(&[4, 2], 10)];
        assert!(spec.compatible(&a, &b), "batch dims may differ");
        assert!(!spec.compatible(&a, &c), "shared args must be identical");
        // Stacked args must agree past the batch dim: [2,3] never shares a
        // batch with [2,4] even when the shared args match.
        let d = [t(&[2, 3], 2), shared.clone()];
        assert!(!spec.compatible(&a, &d), "trailing dims must match");
    }

    #[test]
    fn unbatched_spec_is_not_batchable() {
        assert!(!BatchSpec::unbatched(3).batchable());
        assert!(BatchSpec::stacked(2, 1).batchable());
        let ints = vec![RtValue::Int(0), RtValue::Int(1), RtValue::Int(2)];
        assert_eq!(BatchSpec::unbatched(3).rows(&ints).unwrap(), 1);
    }
}
