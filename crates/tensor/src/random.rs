//! Seeded random tensor generation for workload inputs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::layout::checked_numel;
use crate::storage::Buffer;
use crate::Tensor;

impl Tensor {
    /// Uniform samples in `[lo, hi)` from a deterministic seed.
    ///
    /// # Panics
    ///
    /// As [`Tensor::full_scalar`], if `shape` has more elements than a
    /// `usize` counts.
    pub fn rand_uniform(shape: &[usize], lo: f32, hi: f32, seed: u64) -> Tensor {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = checked_numel(shape).unwrap_or_else(|e| panic!("{e}"));
        let data: Vec<f32> = (0..n).map(|_| rng.gen_range(lo..hi)).collect();
        Tensor::dense(Buffer::F32(data), shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_generation_is_deterministic() {
        let a = Tensor::rand_uniform(&[8], 0.0, 1.0, 42);
        let b = Tensor::rand_uniform(&[8], 0.0, 1.0, 42);
        let c = Tensor::rand_uniform(&[8], 0.0, 1.0, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn uniform_respects_range() {
        let t = Tensor::rand_uniform(&[100], -2.0, 3.0, 7);
        for v in t.to_vec_f32().unwrap() {
            assert!((-2.0..3.0).contains(&v));
        }
    }
}
