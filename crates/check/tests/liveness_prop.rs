//! Property tests for the liveness/memory-planning pass: on random
//! well-formed graphs the buffer-reuse plan is sound (no buffer handed
//! to a new node while its previous occupant is still live), the peak
//! estimates bound what a real backward pass allocates, and the forward
//! peak is monotone under adding nodes.

use proptest::run_cases;
use rand::rngs::StdRng;
use rand::Rng;
use rapid_autograd::{ParamStore, Tape};
use rapid_check::{analyze_liveness, MemoryReport};
use rapid_tensor::Matrix;

fn dim(rng: &mut StdRng) -> usize {
    rng.gen_range(1..5usize)
}

/// Grows `tape` by one random op over existing nodes (same construction
/// as the shape proptest, minus ops whose backward the random values
/// could make non-finite is not a concern here — values are zeros).
/// A matmul's right operand is a constant or a fresh parameter binding.
fn push_random_op(tape: &mut Tape, store: &mut ParamStore, rng: &mut StdRng) {
    let pick = rng.gen_range(0..tape.len());
    let a = tape.var_at(pick);
    let (r, c) = tape.node_shape(pick);
    match rng.gen_range(0..12u32) {
        0 => {
            let k = dim(rng);
            let b = if rng.gen() {
                let w = store.add("w", Matrix::zeros(c, k));
                tape.param(store, w)
            } else {
                tape.constant(Matrix::zeros(c, k))
            };
            tape.matmul(a, b)
        }
        1 => tape.transpose(a),
        2 => {
            let b = tape.constant(Matrix::zeros(r, c));
            match rng.gen_range(0..3u32) {
                0 => tape.add(a, b),
                1 => tape.sub(a, b),
                _ => tape.mul(a, b),
            }
        }
        3 => tape.scale(a, 0.5),
        4 => tape.add_scalar(a, 1.0),
        5 => {
            let bias = tape.constant(Matrix::zeros(1, c));
            tape.add_row_broadcast(a, bias)
        }
        6 => {
            let w = tape.constant(Matrix::zeros(r, 1));
            tape.mul_col_broadcast(a, w)
        }
        7 => match rng.gen_range(0..4u32) {
            0 => tape.sigmoid(a),
            1 => tape.tanh(a),
            2 => tape.relu(a),
            _ => tape.softplus(a),
        },
        8 => tape.softmax_rows(a),
        9 => {
            let b = tape.constant(Matrix::zeros(r, dim(rng)));
            tape.concat_cols(&[a, b])
        }
        10 => {
            let start = rng.gen_range(0..c);
            let end = rng.gen_range(start + 1..=c);
            tape.slice_cols(a, start, end)
        }
        _ => {
            if rng.gen() {
                tape.sum_all(a)
            } else {
                tape.mean_all(a)
            }
        }
    };
}

/// Builds a random graph with `extra` ops beyond its random leaves,
/// including at least one bound parameter so backward has gradients to
/// produce.
fn random_graph(rng: &mut StdRng, extra: usize) -> (Tape, ParamStore) {
    let mut store = ParamStore::new();
    let mut tape = Tape::new();
    let (r, c) = (dim(rng), dim(rng));
    let p = store.add("p", Matrix::zeros(r, c));
    tape.param(&store, p);
    for _ in 0..rng.gen_range(0..3usize) {
        let (r, c) = (dim(rng), dim(rng));
        tape.constant(Matrix::zeros(r, c));
    }
    for _ in 0..extra {
        push_random_op(&mut tape, &mut store, rng);
    }
    (tape, store)
}

/// Plan soundness: two nodes sharing a pool buffer must have disjoint
/// live ranges — the later one starts strictly after the earlier one's
/// last use (the pinned final output never shares).
fn assert_plan_sound(m: &MemoryReport) {
    for buf in 0..m.plan.buffer_bytes.len() {
        let users: Vec<usize> = (0..m.nodes)
            .filter(|&i| m.plan.assignments[i] == buf)
            .collect();
        for pair in users.windows(2) {
            let (earlier, later) = (pair[0], pair[1]);
            assert!(
                later > m.last_use[earlier],
                "buffer {buf}: node {later} overwrites node {earlier}, live until {}",
                m.last_use[earlier]
            );
        }
    }
}

#[test]
fn plan_is_sound_and_peaks_bound_reality_on_random_graphs() {
    run_cases("liveness_plan_sound", |rng| {
        let extra = rng.gen_range(1..14usize);
        let (mut tape, mut store) = random_graph(rng, extra);
        // Cap with a scalar loss so backward is defined.
        let last = tape.var_at(tape.len() - 1);
        let loss = tape.sum_all(last);
        let m = analyze_liveness(&tape, loss.index());

        assert_plan_sound(&m);

        // The plan realizes the forward schedule, so its pool can never
        // need fewer bytes than the schedule's peak; and no node can
        // outgrow the pool buffer it was assigned.
        assert!(m.plan.pool_bytes() >= m.fwd_peak_bytes);
        assert!(m.fwd_peak_bytes <= m.total_value_bytes);
        for i in 0..m.nodes {
            let (r, c) = tape.node_shape(i);
            assert_eq!(
                m.plan.buffer_bytes[m.plan.assignments[i]],
                r * c * std::mem::size_of::<f32>(),
                "node {i} assigned a wrong-sized buffer"
            );
        }

        // Backward on the real tape stays within the static bound, and
        // the gradient bytes match the predicted holders exactly.
        tape.backward(loss, &mut store);
        let measured = tape.value_bytes() + tape.grad_bytes();
        assert!(
            measured <= m.train_peak_bytes,
            "measured {measured} B > static bound {} B",
            m.train_peak_bytes
        );
        assert_eq!(tape.grad_bytes(), m.grad_bytes);
    });
}

#[test]
fn forward_peak_is_monotone_under_adding_nodes() {
    run_cases("liveness_peak_monotone", |rng| {
        let extra = rng.gen_range(1..10usize);
        let (mut tape, mut store) = random_graph(rng, extra);
        let mut before = analyze_liveness(&tape, tape.len() - 1);
        for _ in 0..rng.gen_range(1..6usize) {
            push_random_op(&mut tape, &mut store, rng);
            let after = analyze_liveness(&tape, tape.len() - 1);
            assert!(
                after.fwd_peak_bytes >= before.fwd_peak_bytes,
                "peak shrank from {} to {} after adding a node",
                before.fwd_peak_bytes,
                after.fwd_peak_bytes
            );
            before = after;
        }
    });
}
