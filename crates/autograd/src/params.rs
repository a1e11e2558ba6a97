//! Trainable parameter storage shared across training steps.

use rapid_tensor::Matrix;
use std::sync::Arc;

/// Opaque handle to a parameter inside a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(pub(crate) usize);

impl ParamId {
    /// Position of this parameter in its store, for diagnostics that
    /// only have tape-level access (e.g. the `rapid-check` dead-parameter
    /// report, which names parameters `param#<index>` because a recorded
    /// graph carries ids, not the model's private store).
    pub fn index(self) -> usize {
        self.0
    }
}

/// A named trainable parameter with its accumulated gradient.
#[derive(Debug, Clone)]
struct Param {
    name: String,
    /// Shared with every tape node that binds it; see [`ParamStore::value_mut`].
    value: Arc<Matrix>,
    grad: Matrix,
}

/// Container for all trainable parameters of a model.
///
/// Parameters outlive any single [`crate::Tape`]: a fresh tape is recorded
/// for each forward/backward pass, while values and gradient accumulators
/// stay here. Optimizers ([`crate::optim`]) update the store in place.
///
/// Each value sits behind an [`Arc`]: [`crate::Tape::param`] binds it by
/// reference instead of copying it, and [`ParamStore::value_mut`] copies
/// a value only while a tape still holds it. Cloning a store shares the
/// values the same way.
#[derive(Debug, Clone, Default)]
pub struct ParamStore {
    params: Vec<Param>,
}

impl ParamStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a new parameter initialised to `value`.
    ///
    /// Names are for debugging/serialization; duplicates are allowed (the
    /// layers namespace their parameters, e.g. `"relevance.lstm_fwd.w"`).
    pub fn add(&mut self, name: impl Into<String>, value: Matrix) -> ParamId {
        let grad = Matrix::zeros(value.rows(), value.cols());
        self.params.push(Param {
            name: name.into(),
            value: Arc::new(value),
            grad,
        });
        ParamId(self.params.len() - 1)
    }

    /// Number of registered parameters (tensors, not scalars).
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// `true` when no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Total number of scalar weights across all parameters.
    pub fn num_weights(&self) -> usize {
        self.params.iter().map(|p| p.value.len()).sum()
    }

    /// The parameter's name.
    pub fn name(&self, id: ParamId) -> &str {
        &self.params[id.0].name
    }

    /// Current value of a parameter.
    pub fn value(&self, id: ParamId) -> &Matrix {
        &self.params[id.0].value
    }

    /// The shared value a tape binds.
    pub(crate) fn shared_value(&self, id: ParamId) -> &Arc<Matrix> {
        &self.params[id.0].value
    }

    /// Replaces a value with one shared with another store.
    pub(crate) fn set_shared_value(&mut self, id: ParamId, value: Arc<Matrix>) {
        self.params[id.0].value = value;
    }

    /// Mutable value of a parameter (used by optimizers and tests).
    /// Copy-on-write: a tape that still binds the value keeps the old
    /// one.
    pub fn value_mut(&mut self, id: ParamId) -> &mut Matrix {
        Arc::make_mut(&mut self.params[id.0].value)
    }

    /// Accumulated gradient of a parameter.
    pub fn grad(&self, id: ParamId) -> &Matrix {
        &self.params[id.0].grad
    }

    /// Mutable accumulated gradient (the tape adds into this).
    pub fn grad_mut(&mut self, id: ParamId) -> &mut Matrix {
        &mut self.params[id.0].grad
    }

    /// Iterator over all parameter ids, in registration order.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> {
        (0..self.params.len()).map(ParamId)
    }

    /// Resets every gradient accumulator to zero.
    pub fn zero_grads(&mut self) {
        for p in &mut self.params {
            p.grad = Matrix::zeros(p.value.rows(), p.value.cols());
        }
    }

    /// Global L2 norm of all gradients, used for clipping.
    pub fn grad_norm(&self) -> f32 {
        self.params
            .iter()
            .map(|p| p.grad.norm_sq())
            .sum::<f32>()
            .sqrt()
    }

    /// Scales all gradients so their global norm is at most `max_norm`.
    /// Returns the pre-clip norm.
    pub fn clip_grad_norm(&mut self, max_norm: f32) -> f32 {
        let norm = self.grad_norm();
        if norm > max_norm && norm > 0.0 {
            let s = max_norm / norm;
            for p in &mut self.params {
                p.grad = p.grad.scale(s);
            }
        }
        norm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_lookup() {
        let mut s = ParamStore::new();
        let a = s.add("a", Matrix::ones(2, 3));
        let b = s.add("b", Matrix::zeros(1, 1));
        assert_eq!(s.len(), 2);
        assert_eq!(s.num_weights(), 7);
        assert_eq!(s.name(a), "a");
        assert_eq!(s.value(b).shape(), (1, 1));
        assert_eq!(s.grad(a).shape(), (2, 3));
    }

    #[test]
    fn zero_grads_resets() {
        let mut s = ParamStore::new();
        let a = s.add("a", Matrix::ones(1, 2));
        s.grad_mut(a).as_mut_slice()[0] = 5.0;
        s.zero_grads();
        assert_eq!(s.grad(a).as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn clip_grad_norm_scales_down_only_when_needed() {
        let mut s = ParamStore::new();
        let a = s.add("a", Matrix::zeros(1, 2));
        *s.grad_mut(a) = Matrix::row_vector(&[3.0, 4.0]); // norm 5
        let pre = s.clip_grad_norm(1.0);
        assert!((pre - 5.0).abs() < 1e-6);
        assert!((s.grad(a).norm() - 1.0).abs() < 1e-6);

        let pre2 = s.clip_grad_norm(10.0);
        assert!((pre2 - 1.0).abs() < 1e-6);
        assert!((s.grad(a).norm() - 1.0).abs() < 1e-6, "no further scaling");
    }
}
