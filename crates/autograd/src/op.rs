//! The operation vocabulary of the computation graph.
//!
//! Each [`Op`] names how a tape node's value was computed from its
//! parents. The backward rules live in [`crate::Tape::backward`]; keeping
//! the enum data-only makes the graph inspectable and the backward pass a
//! single exhaustive `match` that the compiler checks for us.

use crate::Var;
use rapid_tensor::Matrix;

/// How a node's value was produced.
#[derive(Debug, Clone)]
pub enum Op {
    /// Input constant or bound parameter; no parents.
    Leaf,
    /// Matrix product `a * b`.
    MatMul(Var, Var),
    /// Transpose of `a`.
    Transpose(Var),
    /// Elementwise `a + b` (same shapes).
    Add(Var, Var),
    /// Elementwise `a - b`.
    Sub(Var, Var),
    /// Elementwise `a ⊙ b`.
    Mul(Var, Var),
    /// `a * c` for scalar constant `c`.
    Scale(Var, f32),
    /// `a + c` for scalar constant `c`.
    AddScalar(Var, f32),
    /// `(n,m) + (1,m)` row broadcast (bias add).
    AddRowBroadcast(Var, Var),
    /// `(n,m) ⊙ (1,m)` row broadcast.
    MulRowBroadcast(Var, Var),
    /// `(n,m) ⊙ (n,1)` column broadcast (per-row scaling).
    MulColBroadcast(Var, Var),
    /// Elementwise logistic sigmoid.
    Sigmoid(Var),
    /// Elementwise `tanh`.
    Tanh(Var),
    /// Elementwise `max(0, x)`.
    Relu(Var),
    /// Elementwise softplus `ln(1 + eˣ)`.
    Softplus(Var),
    /// Row-wise softmax.
    SoftmaxRows(Var),
    /// Row-wise standardisation `(x − μ_row) / sqrt(σ²_row + eps)`.
    NormalizeRows(Var, f32),
    /// Horizontal concatenation of several parents.
    ConcatCols(Vec<Var>),
    /// Vertical concatenation of several parents.
    ConcatRows(Vec<Var>),
    /// Copy of columns `start..end` of `a`.
    SliceCols(Var, usize, usize),
    /// Copy of rows `start..end` of `a`.
    SliceRows(Var, usize, usize),
    /// `1x1` sum of all elements.
    SumAll(Var),
    /// `1x1` mean of all elements.
    MeanAll(Var),
    /// Mean binary cross-entropy between `sigmoid(logits)` and constant
    /// targets, computed in the stable logits form.
    BceWithLogits { logits: Var, targets: Matrix },
    /// Mean squared error against constant targets.
    Mse { pred: Var, targets: Matrix },
    /// Mean pairwise logistic loss over (positive, negative) label pairs
    /// of a score vector.
    PairwiseLogistic { scores: Var, labels: Vec<f32> },
}

impl Op {
    /// Short stable name of this op kind, used as the metric key by the
    /// `obs-profile` tape profiler and by diagnostics.
    pub fn tag(&self) -> &'static str {
        match self {
            Op::Leaf => "leaf",
            Op::MatMul(..) => "matmul",
            Op::Transpose(..) => "transpose",
            Op::Add(..) => "add",
            Op::Sub(..) => "sub",
            Op::Mul(..) => "mul",
            Op::Scale(..) => "scale",
            Op::AddScalar(..) => "add_scalar",
            Op::AddRowBroadcast(..) => "add_row_broadcast",
            Op::MulRowBroadcast(..) => "mul_row_broadcast",
            Op::MulColBroadcast(..) => "mul_col_broadcast",
            Op::Sigmoid(..) => "sigmoid",
            Op::Tanh(..) => "tanh",
            Op::Relu(..) => "relu",
            Op::Softplus(..) => "softplus",
            Op::SoftmaxRows(..) => "softmax_rows",
            Op::NormalizeRows(..) => "normalize_rows",
            Op::ConcatCols(..) => "concat_cols",
            Op::ConcatRows(..) => "concat_rows",
            Op::SliceCols(..) => "slice_cols",
            Op::SliceRows(..) => "slice_rows",
            Op::SumAll(..) => "sum_all",
            Op::MeanAll(..) => "mean_all",
            Op::BceWithLogits { .. } => "bce_with_logits",
            Op::Mse { .. } => "mse",
            Op::PairwiseLogistic { .. } => "pairwise_logistic",
        }
    }

    /// Parents of this node, in order.
    pub fn parents(&self) -> Vec<Var> {
        let mut out = Vec::new();
        self.for_each_parent(|p| out.push(p));
        out
    }

    /// Calls `f` on each parent, in [`Op::parents`] order, without
    /// allocating.
    pub fn for_each_parent(&self, mut f: impl FnMut(Var)) {
        match self {
            Op::Leaf => {}
            Op::MatMul(a, b)
            | Op::Add(a, b)
            | Op::Sub(a, b)
            | Op::Mul(a, b)
            | Op::AddRowBroadcast(a, b)
            | Op::MulRowBroadcast(a, b)
            | Op::MulColBroadcast(a, b) => {
                f(*a);
                f(*b);
            }
            Op::Transpose(a)
            | Op::Scale(a, _)
            | Op::AddScalar(a, _)
            | Op::Sigmoid(a)
            | Op::Tanh(a)
            | Op::Relu(a)
            | Op::Softplus(a)
            | Op::SoftmaxRows(a)
            | Op::NormalizeRows(a, _)
            | Op::SliceCols(a, _, _)
            | Op::SliceRows(a, _, _)
            | Op::SumAll(a)
            | Op::MeanAll(a) => f(*a),
            Op::ConcatCols(vs) | Op::ConcatRows(vs) => vs.iter().copied().for_each(f),
            Op::BceWithLogits { logits, .. } => f(*logits),
            Op::Mse { pred, .. } => f(*pred),
            Op::PairwiseLogistic { scores, .. } => f(*scores),
        }
    }
}
