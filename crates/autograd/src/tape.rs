//! The recording tape: forward-pass graph construction and the reverse
//! sweep.

use crate::op::Op;
use crate::params::{ParamId, ParamStore};
#[cfg(feature = "obs-profile")]
use crate::profile::TapeProfiler;
use rapid_tensor::Matrix;
use std::ops::Deref;
use std::sync::Arc;

/// Index of a node on a [`Tape`].
///
/// A `Var` is only meaningful for the tape *generation* it was recorded
/// in: [`Tape::clear`] bumps the tape's epoch, and in debug builds every
/// `Var` carries the epoch it was created in so that using a stale handle
/// against a cleared-and-refilled tape fails immediately at the use site
/// (instead of silently indexing into an unrelated node). Release builds
/// carry no epoch field — a `Var` is a plain index and the checks
/// compile away entirely.
#[derive(Debug, Clone, Copy)]
pub struct Var {
    pub(crate) idx: usize,
    /// Tape generation this handle was recorded in (debug builds only).
    #[cfg(debug_assertions)]
    pub(crate) epoch: u64,
}

impl Var {
    /// Position of this node on its tape (used by diagnostics and the
    /// `rapid-check` graph validator).
    pub fn index(self) -> usize {
        self.idx
    }
}

// Identity is the node index alone: two handles to the same node compare
// equal regardless of build mode, and `Hash` stays consistent with `Eq`.
impl PartialEq for Var {
    fn eq(&self, other: &Self) -> bool {
        self.idx == other.idx
    }
}

impl Eq for Var {}

impl std::hash::Hash for Var {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.idx.hash(state);
    }
}

/// A node's value: computed by the tape, or a parameter's value shared
/// with its [`ParamStore`].
enum Value {
    Owned(Matrix),
    Bound(Arc<Matrix>),
}

impl Deref for Value {
    type Target = Matrix;

    fn deref(&self) -> &Matrix {
        match self {
            Value::Owned(m) => m,
            Value::Bound(m) => m,
        }
    }
}

/// How the ops recorded so far read a parameter leaf.
#[derive(Clone, Copy)]
enum LeafUse {
    Unused,
    /// Only as the right operand of the matmul at this index: a
    /// *weight binding*, whose gradient [`Tape::backward`] computes
    /// straight into the store instead of onto the tape.
    WeightOf(usize),
    /// Any other use, or more than one.
    Other,
}

struct Node {
    value: Value,
    grad: Option<Matrix>,
    op: Op,
    /// `Some` when this leaf is bound to a trainable parameter.
    param: Option<ParamId>,
    /// Some parameter reaches this node: it is a parameter leaf or has a
    /// parent that needs a gradient. Only such nodes get one.
    needs_grad: bool,
    /// Tracked for parameter leaves only.
    uses: LeafUse,
}

impl Node {
    /// Whether a backward rule writes a gradient for this node onto the
    /// tape.
    fn takes_grad(&self) -> bool {
        self.needs_grad && !matches!(self.uses, LeafUse::WeightOf(_))
    }
}

/// A single forward pass recorded as a flat arena of nodes.
///
/// Nodes are appended in topological order by construction (an op can only
/// reference already-created [`Var`]s), so the backward pass is a simple
/// reverse iteration — no sorting needed.
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
    /// Generation counter, bumped by [`Tape::clear`]. Stamped into
    /// `Var`s in debug builds to catch use-after-clear.
    epoch: u64,
    /// Reused buffer for one weight binding's gradient on its way to the
    /// store; kept across [`Tape::clear`].
    weight_grad: Matrix,
    /// Per-op forward/backward timing, flushed to the global `rapid-obs`
    /// registry on [`Tape::clear`] and on drop.
    #[cfg(feature = "obs-profile")]
    profiler: TapeProfiler,
}

#[cfg(feature = "obs-profile")]
impl Drop for Tape {
    fn drop(&mut self) {
        self.profiler.flush();
    }
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a tape with room for `cap` nodes.
    pub fn with_capacity(cap: usize) -> Self {
        // Struct-update syntax would move out of a Drop type under
        // `obs-profile`; reserve on a default tape instead.
        let mut tape = Self::default();
        tape.nodes.reserve(cap);
        tape
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Drops all recorded nodes but keeps the arena's capacity, so one
    /// tape can be reused across mini-batches without reallocating.
    ///
    /// Clearing bumps the tape's epoch: `Var`s recorded before the clear
    /// are stale, and (in debug builds) any use of one afterwards panics
    /// immediately instead of reading whatever node later occupies the
    /// same index.
    pub fn clear(&mut self) {
        #[cfg(feature = "obs-profile")]
        self.profiler.flush();
        self.nodes.clear();
        self.epoch += 1;
    }

    /// The current generation; starts at 0 and increments on every
    /// [`Tape::clear`].
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// `true` when the tape has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Builds a handle to node `idx` stamped with the current epoch.
    fn mk_var(&self, idx: usize) -> Var {
        Var {
            idx,
            #[cfg(debug_assertions)]
            epoch: self.epoch,
        }
    }

    /// Debug-build guard: `v` must belong to the current tape epoch.
    #[inline]
    fn check_var(&self, v: Var) {
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            v.epoch, self.epoch,
            "stale Var (node {}): recorded in tape epoch {} but the tape \
             is now at epoch {} — Tape::clear() was called; re-record the \
             graph instead of reusing old handles",
            v.idx, v.epoch, self.epoch
        );
        let _ = v;
    }

    fn push(&mut self, value: Matrix, op: Op) -> Var {
        self.push_value(Value::Owned(value), op, None)
    }

    fn push_value(&mut self, value: Value, op: Op, param: Option<ParamId>) -> Var {
        debug_assert!(
            value.is_finite(),
            "tape node {:?} produced non-finite values",
            op
        );
        #[cfg(feature = "obs-profile")]
        self.profiler.on_push(op.tag());
        self.push_node(value, op, param)
    }

    /// Appends a node, marks whether it needs a gradient, and records how
    /// it uses its parameter-leaf parents. Parents past the end (only
    /// [`Tape::push_unchecked`] records those) are skipped.
    fn push_node(&mut self, value: Value, op: Op, param: Option<ParamId>) -> Var {
        let idx = self.nodes.len();
        let mut needs_grad = param.is_some();
        let is_matmul = matches!(op, Op::MatMul(..));
        let mut slot = 0;
        op.for_each_parent(|p| {
            if let Some(parent) = self.nodes.get_mut(p.idx) {
                needs_grad |= parent.needs_grad;
                if parent.param.is_some() {
                    parent.uses = match parent.uses {
                        LeafUse::Unused if is_matmul && slot == 1 => LeafUse::WeightOf(idx),
                        _ => LeafUse::Other,
                    };
                }
            }
            slot += 1;
        });
        self.nodes.push(Node {
            value,
            grad: None,
            op,
            param,
            needs_grad,
            uses: LeafUse::Unused,
        });
        self.mk_var(idx)
    }

    /// Value of a node.
    pub fn value(&self, v: Var) -> &Matrix {
        self.check_var(v);
        &self.nodes[v.idx].value
    }

    // -----------------------------------------------------------------
    // Graph introspection (used by the `rapid-check` static analyzer)
    // -----------------------------------------------------------------

    /// Op tag of node `i`. Panics if `i` is out of range.
    pub fn node_op(&self, i: usize) -> &Op {
        &self.nodes[i].op
    }

    /// Recorded value shape of node `i`. Panics if `i` is out of range.
    pub fn node_shape(&self, i: usize) -> (usize, usize) {
        self.nodes[i].value.shape()
    }

    /// Parameter binding of node `i` (`Some` only for parameter leaves).
    /// Panics if `i` is out of range.
    pub fn node_param(&self, i: usize) -> Option<ParamId> {
        self.nodes[i].param
    }

    /// Shape of node `i`'s gradient buffer, or `None` when the node
    /// holds no gradient. After [`Tape::backward`] a node holds one iff
    /// it is in the loss's backward cone, some parameter reaches it, and
    /// it is not a weight binding (a parameter leaf read only as the
    /// right operand of one matmul, whose gradient goes straight to the
    /// store). Panics if `i` is out of range.
    pub fn node_grad_shape(&self, i: usize) -> Option<(usize, usize)> {
        self.nodes[i].grad.as_ref().map(|g| g.shape())
    }

    /// Total bytes of the value buffers the tape owns (`f32` elements;
    /// shape metadata is not counted). Parameter bindings share the
    /// store's buffers and count zero. The measured side of the
    /// `rapid-check` liveness/memory-planning bound.
    pub fn value_bytes(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n.value, Value::Owned(_)))
            .map(|n| n.value.len() * std::mem::size_of::<f32>())
            .sum()
    }

    /// Total bytes currently held by allocated gradient buffers. Zero
    /// before [`Tape::backward`]; afterwards, exactly the nodes
    /// [`Tape::node_grad_shape`] reports.
    pub fn grad_bytes(&self) -> usize {
        self.nodes
            .iter()
            .filter_map(|n| n.grad.as_ref())
            .map(|g| g.len() * std::mem::size_of::<f32>())
            .sum()
    }

    /// Handle to node `idx` at the current epoch, without range checking.
    /// Intended for graph tooling and tests that need to reference nodes
    /// by index (e.g. to build deliberately malformed graphs).
    #[doc(hidden)]
    pub fn var_at(&self, idx: usize) -> Var {
        self.mk_var(idx)
    }

    /// Appends a node with an arbitrary `(value, op)` pair, bypassing
    /// the forward computation entirely. The value is **not** validated
    /// against the op, so the resulting graph may be inconsistent —
    /// that is the point: `rapid-check`'s tests use this to construct
    /// malformed graphs that `Tape::check` must reject. Never use it in
    /// model code.
    #[doc(hidden)]
    pub fn push_unchecked(&mut self, value: Matrix, op: Op) -> Var {
        self.push_node(Value::Owned(value), op, None)
    }

    // -----------------------------------------------------------------
    // Leaves
    // -----------------------------------------------------------------

    /// Records a constant (input) leaf. It gets no gradient, and neither
    /// does any node computed only from constants.
    pub fn constant(&mut self, value: Matrix) -> Var {
        self.push(value, Op::Leaf)
    }

    /// Binds a parameter from `store` as a leaf, sharing the store's
    /// value rather than copying it; its gradient is accumulated back
    /// into the store by [`Tape::backward`]. Bind once per use: each
    /// binding's gradient reaches the store as one term.
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> Var {
        let value = Value::Bound(Arc::clone(store.shared_value(id)));
        self.push_value(value, Op::Leaf, Some(id))
    }

    // -----------------------------------------------------------------
    // Ops (forward)
    // -----------------------------------------------------------------

    /// Matrix product.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).matmul(self.value(b));
        self.push(v, Op::MatMul(a, b))
    }

    /// Transpose.
    pub fn transpose(&mut self, a: Var) -> Var {
        let v = self.value(a).transpose();
        self.push(v, Op::Transpose(a))
    }

    /// Elementwise sum.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).add(self.value(b));
        self.push(v, Op::Add(a, b))
    }

    /// Elementwise difference.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).sub(self.value(b));
        self.push(v, Op::Sub(a, b))
    }

    /// Elementwise product.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).mul(self.value(b));
        self.push(v, Op::Mul(a, b))
    }

    /// Scalar multiple.
    pub fn scale(&mut self, a: Var, s: f32) -> Var {
        let v = self.value(a).scale(s);
        self.push(v, Op::Scale(a, s))
    }

    /// Scalar offset.
    pub fn add_scalar(&mut self, a: Var, s: f32) -> Var {
        let v = self.value(a).add_scalar(s);
        self.push(v, Op::AddScalar(a, s))
    }

    /// Bias add: `(n,m) + (1,m)`.
    pub fn add_row_broadcast(&mut self, a: Var, bias: Var) -> Var {
        let v = self.value(a).add_row_broadcast(self.value(bias));
        self.push(v, Op::AddRowBroadcast(a, bias))
    }

    /// Row-wise scaling: `(n,m) ⊙ (1,m)`.
    pub fn mul_row_broadcast(&mut self, a: Var, w: Var) -> Var {
        let v = self.value(a).mul_row_broadcast(self.value(w));
        self.push(v, Op::MulRowBroadcast(a, w))
    }

    /// Per-row scaling: `(n,m) ⊙ (n,1)`.
    pub fn mul_col_broadcast(&mut self, a: Var, w: Var) -> Var {
        let x = self.value(a);
        let col = self.value(w);
        assert_eq!(
            (x.rows(), 1),
            col.shape(),
            "mul_col_broadcast: expected {}x1 scaler, got {}x{}",
            x.rows(),
            col.rows(),
            col.cols()
        );
        let mut out = x.clone();
        for r in 0..out.rows() {
            let s = col.get(r, 0);
            for v in out.row_mut(r) {
                *v *= s;
            }
        }
        self.push(out, Op::MulColBroadcast(a, w))
    }

    /// Elementwise sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let v = self.value(a).sigmoid();
        self.push(v, Op::Sigmoid(a))
    }

    /// Elementwise tanh.
    pub fn tanh(&mut self, a: Var) -> Var {
        let v = self.value(a).tanh();
        self.push(v, Op::Tanh(a))
    }

    /// Elementwise ReLU.
    pub fn relu(&mut self, a: Var) -> Var {
        let v = self.value(a).relu();
        self.push(v, Op::Relu(a))
    }

    /// Elementwise softplus `ln(1 + eˣ)` in stable form.
    pub fn softplus(&mut self, a: Var) -> Var {
        let v = self.value(a).map(|x| x.max(0.0) + (-x.abs()).exp().ln_1p());
        self.push(v, Op::Softplus(a))
    }

    /// Row-wise softmax.
    pub fn softmax_rows(&mut self, a: Var) -> Var {
        let v = self.value(a).softmax_rows();
        self.push(v, Op::SoftmaxRows(a))
    }

    /// Row-wise standardisation `(x − μ) / sqrt(σ² + eps)` — the
    /// normalisation core of layer norm (scale/shift are applied by the
    /// caller with broadcast ops so they remain ordinary parameters).
    pub fn normalize_rows(&mut self, a: Var, eps: f32) -> Var {
        let x = self.value(a);
        let mut out = x.clone();
        for r in 0..out.rows() {
            let row = out.row_mut(r);
            let n = row.len() as f32;
            let mean = row.iter().sum::<f32>() / n;
            let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n;
            let inv = 1.0 / (var + eps).sqrt();
            for v in row.iter_mut() {
                *v = (*v - mean) * inv;
            }
        }
        self.push(out, Op::NormalizeRows(a, eps))
    }

    /// Horizontal concatenation of two or more vars.
    pub fn concat_cols(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat_cols: no parts");
        let mats: Vec<&Matrix> = parts.iter().map(|p| self.value(*p)).collect();
        let v = Matrix::concat_cols_all(&mats);
        self.push(v, Op::ConcatCols(parts.to_vec()))
    }

    /// Vertical concatenation of two or more vars.
    pub fn concat_rows(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat_rows: no parts");
        let mats: Vec<&Matrix> = parts.iter().map(|p| self.value(*p)).collect();
        let v = Matrix::concat_rows_all(&mats);
        self.push(v, Op::ConcatRows(parts.to_vec()))
    }

    /// Copy of columns `start..end`.
    pub fn slice_cols(&mut self, a: Var, start: usize, end: usize) -> Var {
        let v = self.value(a).slice_cols(start, end);
        self.push(v, Op::SliceCols(a, start, end))
    }

    /// Copy of rows `start..end`.
    pub fn slice_rows(&mut self, a: Var, start: usize, end: usize) -> Var {
        let v = self.value(a).slice_rows(start, end);
        self.push(v, Op::SliceRows(a, start, end))
    }

    /// `1x1` sum of all elements.
    pub fn sum_all(&mut self, a: Var) -> Var {
        let v = Matrix::full(1, 1, self.value(a).sum());
        self.push(v, Op::SumAll(a))
    }

    /// `1x1` mean of all elements.
    pub fn mean_all(&mut self, a: Var) -> Var {
        let v = Matrix::full(1, 1, self.value(a).mean());
        self.push(v, Op::MeanAll(a))
    }

    /// Records a loss node; see [`crate::loss`] for the public helpers.
    pub(crate) fn push_loss(&mut self, value: Matrix, op: Op) -> Var {
        self.push(value, op)
    }

    // -----------------------------------------------------------------
    // Backward
    // -----------------------------------------------------------------

    /// Runs the reverse sweep from `root` (which must be `1x1`) and
    /// accumulates parameter gradients into `store`.
    ///
    /// Only nodes that some parameter reaches get a gradient: constants,
    /// and anything computed only from them, get none. A weight binding
    /// (a parameter leaf read only as the right operand `b` of one
    /// matmul `a·b`) gets none on the tape either: after the sweep its
    /// gradient `aᵀ·up` is computed into one reused buffer and added to
    /// the store. Parameter gradients reach the store in ascending leaf
    /// order, one term per binding, so each stored sum adds the same
    /// terms in the same order whichever way a binding's term was made.
    /// The other gradients stay on the tape; see
    /// [`Tape::node_grad_shape`].
    ///
    /// # Panics
    /// Panics if `root` is not a `1x1` scalar node.
    pub fn backward(&mut self, root: Var, store: &mut ParamStore) {
        self.check_var(root);
        assert_eq!(
            self.nodes[root.idx].value.shape(),
            (1, 1),
            "backward: root must be a scalar (1x1) node"
        );
        if !self.nodes[root.idx].needs_grad {
            return; // no parameter reaches the loss
        }
        self.nodes[root.idx].grad = Some(Matrix::ones(1, 1));

        for i in (0..=root.idx).rev() {
            // Move the upstream gradient and the op out while their
            // rule writes into the parents, then put them back.
            let Some(up) = self.nodes[i].grad.take() else {
                continue;
            };
            let op = std::mem::replace(&mut self.nodes[i].op, Op::Leaf);
            #[cfg(feature = "obs-profile")]
            let t0 = rapid_obs::clock::now();
            self.propagate(i, &op, &up);
            #[cfg(feature = "obs-profile")]
            self.profiler.on_backward(op.tag(), t0.elapsed());
            let node = &mut self.nodes[i];
            node.op = op;
            node.grad = Some(up);
        }

        for node in &self.nodes {
            let Some(id) = node.param else { continue };
            if let Some(g) = &node.grad {
                store.grad_mut(id).add_assign(g);
            } else if let LeafUse::WeightOf(j) = node.uses {
                let matmul = &self.nodes[j];
                if let (Op::MatMul(a, _), Some(up)) = (&matmul.op, &matmul.grad) {
                    self.nodes[a.idx]
                        .value
                        .matmul_at_into(up, &mut self.weight_grad);
                    store.grad_mut(id).add_assign(&self.weight_grad);
                }
            }
        }
    }

    /// `true` when node `v` takes a gradient from its consumers' rules.
    fn wants(&self, v: Var) -> bool {
        self.nodes[v.idx].takes_grad()
    }

    fn accumulate(&mut self, v: Var, g: Matrix) {
        let node = &mut self.nodes[v.idx];
        debug_assert!(
            node.takes_grad(),
            "gradient for node {} that takes none",
            v.idx
        );
        debug_assert_eq!(
            node.value.shape(),
            g.shape(),
            "gradient shape mismatch for {:?}",
            node.op
        );
        match &mut node.grad {
            Some(acc) => acc.add_assign(&g),
            None => node.grad = Some(g),
        }
    }

    /// Applies the backward rule of node `i` (with op `op` and upstream
    /// gradient `up`), accumulating into the parents that take a
    /// gradient. A single-parent node holds a gradient only if its
    /// parent takes one, so only multi-parent rules check.
    fn propagate(&mut self, i: usize, op: &Op, up: &Matrix) {
        match op {
            Op::Leaf => {}
            Op::MatMul(a, b) => {
                if self.wants(*a) {
                    let ga = up.matmul_bt(&self.nodes[b.idx].value);
                    self.accumulate(*a, ga);
                }
                if self.wants(*b) {
                    let gb = self.nodes[a.idx].value.matmul_at(up);
                    self.accumulate(*b, gb);
                }
            }
            Op::Transpose(a) => {
                self.accumulate(*a, up.transpose());
            }
            Op::Add(a, b) => {
                if self.wants(*a) {
                    self.accumulate(*a, up.clone());
                }
                if self.wants(*b) {
                    self.accumulate(*b, up.clone());
                }
            }
            Op::Sub(a, b) => {
                if self.wants(*a) {
                    self.accumulate(*a, up.clone());
                }
                if self.wants(*b) {
                    self.accumulate(*b, up.scale(-1.0));
                }
            }
            Op::Mul(a, b) => {
                if self.wants(*a) {
                    let ga = up.mul(&self.nodes[b.idx].value);
                    self.accumulate(*a, ga);
                }
                if self.wants(*b) {
                    let gb = up.mul(&self.nodes[a.idx].value);
                    self.accumulate(*b, gb);
                }
            }
            Op::Scale(a, s) => {
                self.accumulate(*a, up.scale(*s));
            }
            Op::AddScalar(a, _) => {
                self.accumulate(*a, up.clone());
            }
            Op::AddRowBroadcast(a, bias) => {
                if self.wants(*a) {
                    self.accumulate(*a, up.clone());
                }
                if self.wants(*bias) {
                    self.accumulate(*bias, up.sum_cols());
                }
            }
            Op::MulRowBroadcast(a, w) => {
                if self.wants(*a) {
                    let ga = up.mul_row_broadcast(&self.nodes[w.idx].value);
                    self.accumulate(*a, ga);
                }
                if self.wants(*w) {
                    let gw = up.mul(&self.nodes[a.idx].value).sum_cols();
                    self.accumulate(*w, gw);
                }
            }
            Op::MulColBroadcast(a, w) => {
                if self.wants(*a) {
                    let col = &self.nodes[w.idx].value;
                    let mut ga = up.clone();
                    for r in 0..ga.rows() {
                        let s = col.get(r, 0);
                        for v in ga.row_mut(r) {
                            *v *= s;
                        }
                    }
                    self.accumulate(*a, ga);
                }
                if self.wants(*w) {
                    let gw = up.mul(&self.nodes[a.idx].value).sum_rows();
                    self.accumulate(*w, gw);
                }
            }
            Op::Sigmoid(a) => {
                let y = &self.nodes[i].value;
                let g = up.mul(&y.zip_map(y, |yi, _| yi * (1.0 - yi)));
                self.accumulate(*a, g);
            }
            Op::Tanh(a) => {
                let y = &self.nodes[i].value;
                let g = up.mul(&y.map(|yi| 1.0 - yi * yi));
                self.accumulate(*a, g);
            }
            Op::Relu(a) => {
                let x = &self.nodes[a.idx].value;
                let g = up.zip_map(x, |u, xi| if xi > 0.0 { u } else { 0.0 });
                self.accumulate(*a, g);
            }
            Op::Softplus(a) => {
                let x = &self.nodes[a.idx].value;
                let g = up.mul(&x.sigmoid());
                self.accumulate(*a, g);
            }
            Op::SoftmaxRows(a) => {
                // Per row: dx = y ⊙ (du − ⟨du, y⟩)
                let y = &self.nodes[i].value;
                let mut g = Matrix::zeros(y.rows(), y.cols());
                for r in 0..y.rows() {
                    let yr = y.row(r);
                    let ur = up.row(r);
                    let dot: f32 = yr.iter().zip(ur).map(|(a, b)| a * b).sum();
                    for c in 0..y.cols() {
                        g.set(r, c, yr[c] * (ur[c] - dot));
                    }
                }
                self.accumulate(*a, g);
            }
            Op::NormalizeRows(a, eps) => {
                // With y = (x − μ)σ⁻¹:  dx = σ⁻¹ (dy − mean(dy) − y ⊙ mean(dy ⊙ y))
                let x = &self.nodes[a.idx].value;
                let y = &self.nodes[i].value;
                let mut g = Matrix::zeros(x.rows(), x.cols());
                for r in 0..x.rows() {
                    let xr = x.row(r);
                    let yr = y.row(r);
                    let ur = up.row(r);
                    let n = xr.len() as f32;
                    let mean = xr.iter().sum::<f32>() / n;
                    let var = xr.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n;
                    let inv = 1.0 / (var + eps).sqrt();
                    let mean_dy = ur.iter().sum::<f32>() / n;
                    let mean_dy_y: f32 = ur.iter().zip(yr).map(|(u, yv)| u * yv).sum::<f32>() / n;
                    for c in 0..xr.len() {
                        g.set(r, c, inv * (ur[c] - mean_dy - yr[c] * mean_dy_y));
                    }
                }
                self.accumulate(*a, g);
            }
            Op::ConcatCols(parts) => {
                let mut start = 0;
                for p in parts {
                    let w = self.nodes[p.idx].value.cols();
                    if self.wants(*p) {
                        let g = up.slice_cols(start, start + w);
                        self.accumulate(*p, g);
                    }
                    start += w;
                }
            }
            Op::ConcatRows(parts) => {
                let mut start = 0;
                for p in parts {
                    let h = self.nodes[p.idx].value.rows();
                    if self.wants(*p) {
                        let g = up.slice_rows(start, start + h);
                        self.accumulate(*p, g);
                    }
                    start += h;
                }
            }
            Op::SliceCols(a, start, end) => {
                let src = &self.nodes[a.idx].value;
                let mut g = Matrix::zeros(src.rows(), src.cols());
                for r in 0..up.rows() {
                    for (c, v) in up.row(r).iter().enumerate() {
                        g.set(r, start + c, *v);
                    }
                }
                let _ = end;
                self.accumulate(*a, g);
            }
            Op::SliceRows(a, start, _end) => {
                let src = &self.nodes[a.idx].value;
                let mut g = Matrix::zeros(src.rows(), src.cols());
                for r in 0..up.rows() {
                    for (c, v) in up.row(r).iter().enumerate() {
                        g.set(start + r, c, *v);
                    }
                }
                self.accumulate(*a, g);
            }
            Op::SumAll(a) => {
                let s = up.get(0, 0);
                let src = &self.nodes[a.idx].value;
                self.accumulate(*a, Matrix::full(src.rows(), src.cols(), s));
            }
            Op::MeanAll(a) => {
                let src = &self.nodes[a.idx].value;
                let s = up.get(0, 0) / src.len().max(1) as f32;
                self.accumulate(*a, Matrix::full(src.rows(), src.cols(), s));
            }
            Op::BceWithLogits { logits, targets } => {
                // d/dz mean BCE = (σ(z) − y) / N
                let z = &self.nodes[logits.idx].value;
                let n = z.len().max(1) as f32;
                let s = up.get(0, 0) / n;
                let g = z.sigmoid().sub(targets).scale(s);
                self.accumulate(*logits, g);
            }
            Op::Mse { pred, targets } => {
                let p = &self.nodes[pred.idx].value;
                let n = p.len().max(1) as f32;
                let s = 2.0 * up.get(0, 0) / n;
                let g = p.sub(targets).scale(s);
                self.accumulate(*pred, g);
            }
            Op::PairwiseLogistic { scores, labels } => {
                let s = &self.nodes[scores.idx].value;
                let flat = s.as_slice();
                let mut g = vec![0.0f32; flat.len()];
                let mut pairs = 0usize;
                for &yi in labels {
                    for &yj in labels {
                        if yi > yj {
                            pairs += 1;
                        }
                    }
                }
                if pairs > 0 {
                    let scale = up.get(0, 0) / pairs as f32;
                    for (i_pos, &yi) in labels.iter().enumerate() {
                        for (j_neg, &yj) in labels.iter().enumerate() {
                            if yi > yj {
                                // d/ds_i ln(1+e^{-(s_i-s_j)}) = -σ(-(s_i-s_j))
                                let diff = flat[i_pos] - flat[j_neg];
                                let sig = neg_sigmoid(diff);
                                g[i_pos] -= sig * scale;
                                g[j_neg] += sig * scale;
                            }
                        }
                    }
                }
                let gm = Matrix::from_vec(s.rows(), s.cols(), g);
                self.accumulate(*scores, gm);
            }
        }
    }
}

/// `σ(−x)` computed stably.
fn neg_sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        let e = (-x).exp();
        e / (1.0 + e)
    } else {
        1.0 / (1.0 + x.exp())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_chain_gradients() {
        // f(w) = sum(sigmoid(x·w)) for fixed x
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::from_rows(&[&[0.5], &[-0.5]]));
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::row_vector(&[1.0, 2.0]));
        let wv = tape.param(&store, w);
        let z = tape.matmul(x, wv);
        let y = tape.sigmoid(z);
        let loss = tape.sum_all(y);
        tape.backward(loss, &mut store);

        // z = 0.5 - 1.0 = -0.5; σ(z) ≈ 0.37754; dσ = σ(1-σ) ≈ 0.235
        let sig = 1.0 / (1.0 + 0.5f32.exp());
        let dsig = sig * (1.0 - sig);
        let g = store.grad(w);
        assert!((g.get(0, 0) - dsig * 1.0).abs() < 1e-5);
        assert!((g.get(1, 0) - dsig * 2.0).abs() < 1e-5);
    }

    #[test]
    fn grads_accumulate_across_shared_use() {
        // loss = sum(w + w) → dw = 2 per element
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::ones(1, 3));
        let mut tape = Tape::new();
        let wv = tape.param(&store, w);
        let s = tape.add(wv, wv);
        let loss = tape.sum_all(s);
        tape.backward(loss, &mut store);
        assert_eq!(store.grad(w).as_slice(), &[2.0, 2.0, 2.0]);
    }

    #[test]
    fn constants_do_not_touch_store() {
        let mut store = ParamStore::new();
        let mut tape = Tape::new();
        let c = tape.constant(Matrix::ones(1, 2));
        let loss = tape.sum_all(c);
        tape.backward(loss, &mut store);
        assert!(store.is_empty());
        // No parameter reaches the loss, so nothing gets a gradient.
        assert_eq!(tape.node_grad_shape(c.index()), None);
        assert_eq!(tape.node_grad_shape(loss.index()), None);
        assert_eq!(tape.grad_bytes(), 0);
    }

    #[test]
    fn weight_bindings_send_their_gradient_straight_to_the_store() {
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let u = store.add("u", Matrix::from_rows(&[&[0.5, -1.0], &[2.0, 0.25]]));
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::from_rows(&[&[1.0, -1.0], &[2.0, 0.5]]));
        let wv = tape.param(&store, w); // right operand of one matmul
        let h = tape.matmul(x, wv);
        let uv = tape.param(&store, u); // used twice
        let hu = tape.matmul(h, uv);
        let s = tape.mul(hu, uv);
        let loss = tape.sum_all(s);
        tape.backward(loss, &mut store);

        assert_eq!(tape.node_grad_shape(x.index()), None, "constant");
        assert_eq!(tape.node_grad_shape(wv.index()), None, "weight binding");
        assert_eq!(tape.node_grad_shape(uv.index()), Some((2, 2)));
        assert_eq!(tape.node_grad_shape(h.index()), Some((2, 2)));
        // The backward rules, in the sweep's order: dL/dw = xᵀ·dL/dh.
        let u_val = store.value(u);
        let up_h = Matrix::ones(2, 2).mul(u_val).matmul_bt(u_val);
        let want = tape.value(x).matmul_at(&up_h);
        assert_eq!(store.grad(w), &want);
    }

    #[test]
    fn bindings_share_the_store_value_until_it_changes() {
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::ones(2, 2));
        let mut tape = Tape::new();
        let c = tape.constant(Matrix::ones(1, 2));
        let wv = tape.param(&store, w);
        assert_eq!(tape.value_bytes(), 2 * 4, "the binding owns no buffer");
        store.value_mut(w).as_mut_slice()[0] = 7.0;
        assert_eq!(
            tape.value(wv).get(0, 0),
            1.0,
            "the tape keeps what it bound"
        );
        let h = tape.matmul(c, wv);
        assert_eq!(tape.value(h).as_slice(), &[2.0, 2.0]);
    }

    #[test]
    fn concat_and_slice_route_gradients() {
        let mut store = ParamStore::new();
        let a = store.add("a", Matrix::ones(1, 2));
        let b = store.add("b", Matrix::ones(1, 3));
        let mut tape = Tape::new();
        let av = tape.param(&store, a);
        let bv = tape.param(&store, b);
        let cat = tape.concat_cols(&[av, bv]); // 1x5
        let right = tape.slice_cols(cat, 3, 5); // last 2 cols → from b
        let loss = tape.sum_all(right);
        tape.backward(loss, &mut store);
        assert_eq!(store.grad(a).as_slice(), &[0.0, 0.0]);
        assert_eq!(store.grad(b).as_slice(), &[0.0, 1.0, 1.0]);
    }

    #[test]
    fn clear_retains_capacity_and_resets_nodes() {
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::ones(1, 2));
        let mut tape = Tape::with_capacity(8);
        let wv = tape.param(&store, w);
        let loss = tape.sum_all(wv);
        tape.backward(loss, &mut store);
        assert_eq!(store.grad(w).as_slice(), &[1.0, 1.0]);

        tape.clear();
        assert!(tape.is_empty());
        // A second, identical pass over the cleared tape accumulates the
        // same gradients again.
        let wv = tape.param(&store, w);
        let loss = tape.sum_all(wv);
        tape.backward(loss, &mut store);
        assert_eq!(store.grad(w).as_slice(), &[2.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "root must be a scalar")]
    fn backward_rejects_non_scalar_root() {
        let mut store = ParamStore::new();
        let mut tape = Tape::new();
        let c = tape.constant(Matrix::ones(2, 2));
        tape.backward(c, &mut store);
    }
}
