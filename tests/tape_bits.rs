//! Pins the exact bits a backward pass produces.
//!
//! The graph below uses only ops whose forward and backward rules need
//! nothing but `+ − × ÷`, `sqrt` and `max`, all of which IEEE 754 rounds
//! exactly, so the hashes do not depend on the host's libm. Any change to
//! the tape that alters a parameter gradient by one ulp, or the order in
//! which the store sums a parameter's bindings, changes a hash.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rapid::autograd::{ParamStore, Tape, Var};
use rapid::tensor::Matrix;

/// FNV-1a over the little-endian bytes of each value's `f32` bits.
fn fnv1a(values: &[f32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn uniform(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
    Matrix::rand_uniform(rows, cols, -1.0, 1.0, rng)
}

/// Records one pass over `x` (5×6) and returns its scalar MSE loss.
///
/// - `w1` and each binding of `w2` are used once, as a matmul's right
///   operand; `w2` is bound twice, like an LSTM weight across steps.
/// - One binding of `u` is used twice; `p` is a matmul's left operand.
/// - `b1` is a bias through `add_row_broadcast`, `gain` a layer-norm
///   scale through `mul_row_broadcast`.
/// - Constants feed `concat_cols`, `slice_rows`, `mul_row_broadcast`,
///   `mul_col_broadcast` and `normalize_rows`.
fn record(tape: &mut Tape, store: &ParamStore, ids: &Ids, data: &Data, batch: usize) -> Var {
    let x = tape.constant(data.x[batch].clone());
    let w1 = tape.param(store, ids.w1);
    let b1 = tape.param(store, ids.b1);
    let h = tape.matmul(x, w1);
    let h = tape.add_row_broadcast(h, b1);
    let h = tape.relu(h); // 5×8

    let w2 = tape.param(store, ids.w2);
    let h = tape.matmul(h, w2);
    let h = tape.relu(h);
    let w2 = tape.param(store, ids.w2);
    let h = tape.matmul(h, w2); // 5×8

    let u = tape.param(store, ids.u);
    let hu = tape.matmul(h, u);
    let hu = tape.matmul(hu, u); // 5×8, one binding used twice

    let p = tape.param(store, ids.p);
    let z = tape.matmul(p, hu); // 3×8, parameter on the left

    let row_scale = tape.constant(data.row_scale.clone());
    let z = tape.mul_row_broadcast(z, row_scale);
    let col_scale = tape.constant(data.col_scale.clone());
    let z = tape.mul_col_broadcast(z, col_scale);
    let extra = tape.constant(data.extra.clone());
    let cat = tape.concat_cols(&[z, extra]); // 3×10

    // A constant-only subtree: slice, then normalize.
    let table = tape.constant(data.table.clone());
    let rows = tape.slice_rows(table, 1, 4); // 3×10
    let rows = tape.normalize_rows(rows, 1e-5);
    let mixed = tape.add(cat, rows);
    let mixed = tape.mul(mixed, rows);

    let normed = tape.normalize_rows(mixed, 1e-5);
    let gain = tape.param(store, ids.gain);
    let out = tape.mul_row_broadcast(normed, gain);
    let out = tape.scale(out, 0.5);
    let tail = extra_tail(tape, cat);
    let out = tape.sub(out, tail);
    let out = tape.relu(out);
    tape.mse(out, &data.target[batch])
}

/// The last column block of `cat`, sliced so a slice of a
/// parameter-dependent node also carries gradient.
fn extra_tail(tape: &mut Tape, cat: Var) -> Var {
    let t = tape.transpose(cat); // 10×3
    let t = tape.slice_rows(t, 0, 10);
    tape.transpose(t)
}

struct Ids {
    w1: rapid::autograd::ParamId,
    b1: rapid::autograd::ParamId,
    w2: rapid::autograd::ParamId,
    u: rapid::autograd::ParamId,
    p: rapid::autograd::ParamId,
    gain: rapid::autograd::ParamId,
}

struct Data {
    x: Vec<Matrix>,
    target: Vec<Matrix>,
    row_scale: Matrix,
    col_scale: Matrix,
    extra: Matrix,
    table: Matrix,
}

#[test]
fn backward_bits_match_the_recorded_hashes() {
    let mut rng = StdRng::seed_from_u64(0x7a9e);
    let mut store = ParamStore::new();
    let ids = Ids {
        w1: store.add("w1", uniform(6, 8, &mut rng)),
        b1: store.add("b1", uniform(1, 8, &mut rng)),
        w2: store.add("w2", uniform(8, 8, &mut rng)),
        u: store.add("u", uniform(8, 8, &mut rng)),
        p: store.add("p", uniform(3, 5, &mut rng)),
        gain: store.add("gain", uniform(1, 10, &mut rng)),
    };
    let data = Data {
        x: vec![uniform(5, 6, &mut rng), uniform(5, 6, &mut rng)],
        target: vec![uniform(3, 10, &mut rng), uniform(3, 10, &mut rng)],
        row_scale: uniform(1, 8, &mut rng),
        col_scale: uniform(3, 1, &mut rng),
        extra: uniform(3, 2, &mut rng),
        table: uniform(5, 10, &mut rng),
    };

    // Two batches on one reused tape, accumulating into the store, as a
    // training step with gradient accumulation would.
    let mut tape = Tape::new();
    let mut losses = Vec::new();
    for batch in 0..2 {
        tape.clear();
        let loss = record(&mut tape, &store, &ids, &data, batch);
        losses.push(tape.value(loss).get(0, 0));
        tape.backward(loss, &mut store);
    }

    let mut hashes = vec![("loss", fnv1a(&losses))];
    for id in store.ids() {
        assert!(
            store.grad(id).as_slice().iter().any(|g| g.abs() > 0.0),
            "{} received no gradient, so its hash pins nothing",
            store.name(id)
        );
        hashes.push((store.name(id), fnv1a(store.grad(id).as_slice())));
    }
    let got: Vec<String> = hashes
        .iter()
        .map(|(name, h)| format!("{name}={h:016x}"))
        .collect();
    let want = [
        "loss=3107c672b0de0e50",
        "w1=fe36df6629db92c3",
        "b1=77e06dc5b70d3c54",
        "w2=8e7de2872e7d5282",
        "u=196ad79fd1ba3f2f",
        "p=42fd73f1df31d380",
        "gain=df8b4e31d3640385",
    ];
    assert_eq!(got, want, "backward produced different bits");
}
