//! Liveness analysis and memory planning over a recorded tape.
//!
//! [`analyze_liveness`] computes, without touching any values:
//!
//! * a **last-use** point per node and the resulting **forward peak**:
//!   the minimum bytes a forward pass needs if every value buffer is
//!   released right after its final consumer runs;
//! * a greedy exact-size **buffer-reuse plan** realizing that schedule —
//!   the direct input spec for the planned bump-arena tape (ROADMAP
//!   open item 2);
//! * the **training peak**: what forward + backward costs on today's
//!   tape, which retains every value and allocates a gradient for
//!   exactly the nodes [`gradient_holders`] reports. Values are counted
//!   by shape, parameter bindings included, although the tape shares
//!   those with the store; so `Tape::value_bytes() +
//!   Tape::grad_bytes()` measured after a real backward pass comes in
//!   at or under this bound, and the gradient part matches exactly
//!   (asserted by the validation tests);
//! * the **releasable** bytes: values no backward rule ever reads
//!   (checked per-op via [`backward_reads`]), which an arena could drop
//!   at the end of the forward pass even when a backward pass follows.
//!
//! [`backward_reads`] mirrors `Tape::propagate` variant by variant and
//! is a non-wildcard `match`, so adding an op without classifying its
//! backward data needs is a compile error.

use rapid_autograd::op::Op;
use rapid_autograd::Tape;

use crate::dataflow::{backward_cone, gradient_holders};

/// Which recorded buffers an op's backward rule reads (besides the
/// upstream gradient).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackwardReads {
    /// Only shapes/metadata — no value buffer is needed at backward time.
    Nothing,
    /// The node's own output value (e.g. sigmoid: `y(1-y)`).
    OwnValue,
    /// One or more parent values (e.g. matmul: both operands).
    ParentValues,
    /// Both the node's own value and parent values.
    Both,
}

/// Classifies `op`'s backward data dependencies. Must mirror
/// `Tape::propagate`; the exhaustive match keeps it honest.
pub fn backward_reads(op: &Op) -> BackwardReads {
    match op {
        Op::Leaf => BackwardReads::Nothing,
        Op::MatMul(..) => BackwardReads::ParentValues,
        Op::Transpose(..) => BackwardReads::Nothing,
        Op::Add(..) => BackwardReads::Nothing,
        Op::Sub(..) => BackwardReads::Nothing,
        Op::Mul(..) => BackwardReads::ParentValues,
        Op::Scale(..) => BackwardReads::Nothing,
        Op::AddScalar(..) => BackwardReads::Nothing,
        Op::AddRowBroadcast(..) => BackwardReads::Nothing,
        Op::MulRowBroadcast(..) => BackwardReads::ParentValues,
        Op::MulColBroadcast(..) => BackwardReads::ParentValues,
        Op::Sigmoid(..) => BackwardReads::OwnValue,
        Op::Tanh(..) => BackwardReads::OwnValue,
        Op::Relu(..) => BackwardReads::ParentValues,
        Op::Softplus(..) => BackwardReads::ParentValues,
        Op::SoftmaxRows(..) => BackwardReads::OwnValue,
        Op::NormalizeRows(..) => BackwardReads::Both,
        Op::ConcatCols(..) => BackwardReads::Nothing,
        Op::ConcatRows(..) => BackwardReads::Nothing,
        Op::SliceCols(..) => BackwardReads::Nothing,
        Op::SliceRows(..) => BackwardReads::Nothing,
        Op::SumAll(..) => BackwardReads::Nothing,
        Op::MeanAll(..) => BackwardReads::Nothing,
        Op::BceWithLogits { .. } => BackwardReads::ParentValues,
        Op::Mse { .. } => BackwardReads::ParentValues,
        Op::PairwiseLogistic { .. } => BackwardReads::ParentValues,
    }
}

/// A concrete buffer assignment realizing the forward schedule with
/// exact-size reuse.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BufferPlan {
    /// `assignments[i]` is the pool buffer node `i` writes into.
    pub assignments: Vec<usize>,
    /// Byte size of each pool buffer.
    pub buffer_bytes: Vec<usize>,
}

impl BufferPlan {
    /// Total bytes the pool holds.
    pub fn pool_bytes(&self) -> usize {
        self.buffer_bytes.iter().sum()
    }
}

/// The memory report for one recorded graph.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemoryReport {
    /// Nodes on the tape.
    pub nodes: usize,
    /// `last_use[i]`: index of the last node whose forward computation
    /// reads node `i`'s value (`i` itself when nothing consumes it).
    pub last_use: Vec<usize>,
    /// Bytes of every value buffer summed — what today's tape holds for
    /// the whole pass.
    pub total_value_bytes: usize,
    /// Peak live bytes of a forward pass that frees each value after its
    /// last use (the graph's output is pinned live to the end).
    pub fwd_peak_bytes: usize,
    /// Greedy exact-size buffer-reuse plan achieving that schedule.
    pub plan: BufferPlan,
    /// Gradient bytes a backward pass from `root` allocates (one buffer
    /// per node [`gradient_holders`] reports).
    pub grad_bytes: usize,
    /// Static bound for forward + backward on today's retain-everything
    /// tape: all values plus the held gradients.
    pub train_peak_bytes: usize,
    /// Value bytes no backward rule reads (droppable at the end of the
    /// forward pass even when training).
    pub releasable_bytes: usize,
}

impl std::fmt::Display for MemoryReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} nodes: fwd peak {} B (pool {} B in {} buffers, {} B unplanned), \
             train peak {} B ({} B values + {} B grads, {} B releasable)",
            self.nodes,
            self.fwd_peak_bytes,
            self.plan.pool_bytes(),
            self.plan.buffer_bytes.len(),
            self.total_value_bytes
                .saturating_sub(self.plan.pool_bytes()),
            self.train_peak_bytes,
            self.total_value_bytes,
            self.grad_bytes,
            self.releasable_bytes
        )
    }
}

fn bytes_of(shape: (usize, usize)) -> usize {
    shape.0 * shape.1 * std::mem::size_of::<f32>()
}

/// Runs the liveness analysis with the loss/output at node `root`
/// (gradient accounting uses [`gradient_holders`] from `root`; the final
/// tape node is pinned live through the forward pass as the graph's
/// output).
///
/// # Panics
/// Panics if the tape is empty or `root` is out of range.
pub fn analyze_liveness(tape: &Tape, root: usize) -> MemoryReport {
    let n = tape.len();
    assert!(n > 0, "analyze_liveness: empty tape");
    assert!(
        root < n,
        "analyze_liveness: root {root} out of range ({n} nodes)"
    );

    // Last forward use per node. Parent indices at or past their node
    // (malformed graphs) are ignored; run `check_tape` first.
    let mut last_use: Vec<usize> = (0..n).collect();
    for i in 0..n {
        for p in tape.node_op(i).parents() {
            if p.index() < i {
                last_use[p.index()] = i;
            }
        }
    }
    // The output of the graph survives the pass.
    last_use[n - 1] = n - 1;
    let output_pinned = n - 1;

    // Forward timeline: allocate at t, free everything whose last use
    // is t (except the pinned output), tracking peak and a greedy
    // exact-size reuse plan.
    let mut assignments = vec![0usize; n];
    let mut buffer_bytes: Vec<usize> = Vec::new();
    let mut free: Vec<usize> = Vec::new(); // indices into buffer_bytes
    let mut live_bytes = 0usize;
    let mut fwd_peak_bytes = 0usize;
    for t in 0..n {
        let size = bytes_of(tape.node_shape(t));
        let buf = match free.iter().position(|&b| buffer_bytes[b] == size) {
            Some(slot) => free.swap_remove(slot),
            None => {
                buffer_bytes.push(size);
                buffer_bytes.len() - 1
            }
        };
        assignments[t] = buf;
        live_bytes += size;
        fwd_peak_bytes = fwd_peak_bytes.max(live_bytes);
        // Free buffers whose final consumer just ran.
        let mut freed = 0usize;
        for i in 0..=t {
            if last_use[i] == t && i != output_pinned {
                freed += bytes_of(tape.node_shape(i));
                free.push(assignments[i]);
            }
        }
        live_bytes -= freed;
    }

    // Backward accounting from `root`.
    let cone = backward_cone(tape, root);
    let holds = gradient_holders(tape, root);
    let grad_bytes: usize = (0..n)
        .filter(|&i| holds[i])
        .map(|i| bytes_of(tape.node_shape(i)))
        .sum();
    let total_value_bytes: usize = (0..n).map(|i| bytes_of(tape.node_shape(i))).sum();

    // A value must survive into backward iff its own rule reads it, any
    // cone consumer's rule reads parent values, or it is the output.
    let mut needed = vec![false; n];
    needed[output_pinned] = true;
    for i in 0..n {
        if cone[i] {
            match backward_reads(tape.node_op(i)) {
                BackwardReads::OwnValue => needed[i] = true,
                BackwardReads::Both => needed[i] = true,
                BackwardReads::ParentValues | BackwardReads::Nothing => {}
            }
            match backward_reads(tape.node_op(i)) {
                BackwardReads::ParentValues | BackwardReads::Both => {
                    for p in tape.node_op(i).parents() {
                        needed[p.index()] = true;
                    }
                }
                BackwardReads::OwnValue | BackwardReads::Nothing => {}
            }
        }
    }
    let releasable_bytes = (0..n)
        .filter(|&i| !needed[i])
        .map(|i| bytes_of(tape.node_shape(i)))
        .sum();

    MemoryReport {
        nodes: n,
        last_use,
        total_value_bytes,
        fwd_peak_bytes,
        plan: BufferPlan {
            assignments,
            buffer_bytes,
        },
        grad_bytes,
        train_peak_bytes: total_value_bytes + grad_bytes,
        releasable_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapid_autograd::ParamStore;
    use rapid_tensor::Matrix;

    #[test]
    fn chain_reuses_buffers_and_caps_peak() {
        // x(2x3) -> relu -> tanh -> sigmoid: after the first activation,
        // each step needs its input plus its output; same-shape buffers
        // ping-pong, so the plan holds 2 buffers and the peak is 2 live.
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::ones(2, 3));
        let a = tape.relu(x);
        let b = tape.tanh(a);
        let c = tape.sigmoid(b);
        let m = analyze_liveness(&tape, c.index());
        let sz = 2 * 3 * 4;
        assert_eq!(m.total_value_bytes, 4 * sz);
        assert_eq!(m.fwd_peak_bytes, 2 * sz);
        assert_eq!(m.plan.buffer_bytes, vec![sz, sz]);
        assert_eq!(m.plan.pool_bytes(), 2 * sz);
        // Backward needs: x (relu reads its parent), b and c (tanh and
        // sigmoid read their own outputs). Only `a` is releasable.
        assert_eq!(m.releasable_bytes, sz);
    }

    #[test]
    fn last_use_is_the_final_consumer() {
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::ones(1, 4));
        let y = tape.relu(x);
        let z = tape.add(x, y); // x used again here
        let _l = tape.sum_all(z);
        let m = analyze_liveness(&tape, 3);
        assert_eq!(m.last_use[x.index()], z.index());
        assert_eq!(m.last_use[y.index()], z.index());
        assert_eq!(m.last_use[3], 3);
    }

    #[test]
    fn grad_bytes_cover_exactly_the_held_gradients() {
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::ones(4, 4));
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::ones(1, 4));
        let wv = tape.param(&store, w);
        let h = tape.matmul(x, wv);
        let _dead = tape.constant(Matrix::ones(8, 8)); // outside the cone
        let loss = tape.sum_all(h);
        let m = analyze_liveness(&tape, loss.index());
        // h (1x4) + loss (1x1), 4 bytes each: x is a constant and w a
        // weight binding, whose gradient goes straight to the store.
        let held_bytes = (4 + 1) * 4;
        assert_eq!(m.grad_bytes, held_bytes);
        assert_eq!(m.train_peak_bytes, m.total_value_bytes + held_bytes);

        // Measured allocations after a real backward stay within bounds.
        tape.backward(loss, &mut store);
        let measured = tape.value_bytes() + tape.grad_bytes();
        assert!(measured <= m.train_peak_bytes);
        assert_eq!(tape.grad_bytes(), held_bytes);
    }

    #[test]
    fn plan_is_sound_no_overlapping_assignments() {
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::ones(3, 3));
        let a = tape.relu(x);
        let b = tape.tanh(a);
        let c = tape.add(x, b); // x live across a and b
        let _l = tape.mean_all(c);
        let m = analyze_liveness(&tape, tape.len() - 1);
        assert_plan_sound(&m);
    }

    /// Shared soundness assertion: nodes sharing a pool buffer must have
    /// disjoint live ranges (a later user starts strictly after the
    /// earlier user's last use).
    pub(crate) fn assert_plan_sound(m: &MemoryReport) {
        for buf in 0..m.plan.buffer_bytes.len() {
            let users: Vec<usize> = (0..m.nodes)
                .filter(|&i| m.plan.assignments[i] == buf)
                .collect();
            for pair in users.windows(2) {
                let (earlier, later) = (pair[0], pair[1]);
                assert!(
                    later > m.last_use[earlier] || earlier == m.nodes - 1,
                    "buffer {buf}: node {later} overwrites node {earlier} \
                     which is live until {}",
                    m.last_use[earlier]
                );
            }
        }
    }
}
