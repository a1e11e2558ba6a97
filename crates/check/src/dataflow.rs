//! Gradient-flow analysis over a recorded tape.
//!
//! [`analyze_gradient_flow`] answers, purely symbolically, the questions
//! a trainer would otherwise discover at runtime (or never): which
//! parameters actually receive gradient from a given loss node, which
//! recorded work is detached from the loss entirely, and which subtrees
//! are constant and could be folded out of the steady-state tape.
//!
//! The analysis is a reverse reachability sweep from the loss node over
//! [`gradient_parents`] — the per-op declaration of which parents the
//! backward rule propagates into. Today every op propagates into every
//! parent, but the mapping is written as a non-wildcard `match` so that
//! a future op with a stop-gradient semantics (or a new op added without
//! thinking about the analyses at all) is a compile error here, not a
//! silent gap.
//!
//! [`gradient_holders`] narrows that cone to the nodes `Tape::backward`
//! actually leaves a gradient on: it skips constants and weight
//! bindings.

use rapid_autograd::op::Op;
use rapid_autograd::{Tape, Var};

/// The parents that receive gradient from a node's backward rule, in
/// [`Op::parents`] order.
///
/// Deliberately an exhaustive per-variant `match` (no `_` arm, no
/// delegation to [`Op::parents`] in the catch-all position): this is the
/// single place where "gradient flows through this op" is declared, and
/// the compiler forces every new op to declare it.
pub fn gradient_parents(op: &Op) -> Vec<Var> {
    match op {
        Op::Leaf => vec![],
        Op::MatMul(a, b) => vec![*a, *b],
        Op::Transpose(a) => vec![*a],
        Op::Add(a, b) => vec![*a, *b],
        Op::Sub(a, b) => vec![*a, *b],
        Op::Mul(a, b) => vec![*a, *b],
        Op::Scale(a, _) => vec![*a],
        Op::AddScalar(a, _) => vec![*a],
        Op::AddRowBroadcast(a, b) => vec![*a, *b],
        Op::MulRowBroadcast(a, b) => vec![*a, *b],
        Op::MulColBroadcast(a, b) => vec![*a, *b],
        Op::Sigmoid(a) => vec![*a],
        Op::Tanh(a) => vec![*a],
        Op::Relu(a) => vec![*a],
        Op::Softplus(a) => vec![*a],
        Op::SoftmaxRows(a) => vec![*a],
        Op::NormalizeRows(a, _) => vec![*a],
        Op::ConcatCols(vs) => vs.clone(),
        Op::ConcatRows(vs) => vs.clone(),
        Op::SliceCols(a, _, _) => vec![*a],
        Op::SliceRows(a, _, _) => vec![*a],
        Op::SumAll(a) => vec![*a],
        Op::MeanAll(a) => vec![*a],
        Op::BceWithLogits { logits, .. } => vec![*logits],
        Op::Mse { pred, .. } => vec![*pred],
        Op::PairwiseLogistic { scores, .. } => vec![*scores],
    }
}

/// A parameter that is bound on the tape but receives no gradient from
/// the analyzed loss node — training silently leaves it at its
/// initialization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadParam {
    /// `ParamId::index()` of the dead parameter.
    pub param: usize,
    /// Every leaf node binding it (none of which reach the loss).
    pub bindings: Vec<usize>,
}

impl std::fmt::Display for DeadParam {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "param#{} (bound at node{} {}) never receives gradient",
            self.param,
            if self.bindings.len() == 1 { "" } else { "s" },
            self.bindings
                .iter()
                .map(|n| n.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        )
    }
}

/// What [`analyze_gradient_flow`] found.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GradFlowReport {
    /// The loss node the sweep started from.
    pub root: usize,
    /// Nodes in the backward cone (ancestors of the root, root
    /// included): the recorded work that can influence the loss.
    pub live_nodes: usize,
    /// Distinct parameters with at least one binding inside the cone.
    pub trained_params: usize,
    /// Parameters bound on the tape whose every binding is outside the
    /// cone.
    pub dead_params: Vec<DeadParam>,
    /// Connected components of nodes outside the cone (edges are parent
    /// links restricted to outside nodes), each listed in index order.
    /// Recorded work that cannot influence the loss.
    pub detached: Vec<Vec<usize>>,
    /// Non-leaf nodes whose entire ancestry is constant leaves: they
    /// recompute the same value every pass and could be folded into a
    /// precomputed constant.
    pub foldable_nodes: usize,
    /// The maximal roots of those constant subtrees (foldable nodes with
    /// no foldable consumer) — fold these and the rest follow.
    pub foldable_roots: Vec<usize>,
}

impl GradFlowReport {
    /// Total nodes outside the backward cone.
    pub fn detached_nodes(&self) -> usize {
        self.detached.iter().map(|c| c.len()).sum()
    }
}

impl std::fmt::Display for GradFlowReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "loss@{}: {} live nodes, {} trained params, {} dead params, \
             {} detached nodes in {} component(s), {} foldable nodes",
            self.root,
            self.live_nodes,
            self.trained_params,
            self.dead_params.len(),
            self.detached_nodes(),
            self.detached.len(),
            self.foldable_nodes
        )
    }
}

/// The backward cone of `root`: `cone[i]` is `true` iff gradient from
/// `root` reaches node `i` (via [`gradient_parents`]).
///
/// # Panics
/// Panics if `root` is out of range.
pub fn backward_cone(tape: &Tape, root: usize) -> Vec<bool> {
    let n = tape.len();
    assert!(
        root < n,
        "backward_cone: root {root} out of range ({n} nodes)"
    );
    let mut cone = vec![false; n];
    cone[root] = true;
    for i in (0..=root).rev() {
        if !cone[i] {
            continue;
        }
        for p in gradient_parents(tape.node_op(i)) {
            if p.index() < i {
                cone[p.index()] = true;
            }
        }
    }
    cone
}

/// The nodes `Tape::backward` from `root` leaves a gradient on:
/// `holds[i]` is `true` iff node `i` is in the [`backward_cone`], some
/// parameter reaches it (it is a parameter leaf or has a parent that
/// some parameter reaches), and it is not a *weight binding*. A weight
/// binding is a parameter leaf whose one use on the whole tape is as the
/// right operand of a matmul; backward sends its gradient straight to
/// the store.
///
/// # Panics
/// Panics if `root` is out of range.
pub fn gradient_holders(tape: &Tape, root: usize) -> Vec<bool> {
    let n = tape.len();
    let cone = backward_cone(tape, root);
    let mut reached = vec![false; n];
    let mut uses = vec![0usize; n];
    let mut rhs = vec![false; n];
    for i in 0..n {
        let op = tape.node_op(i);
        reached[i] = tape.node_param(i).is_some();
        for p in gradient_parents(op) {
            if p.index() < i {
                reached[i] |= reached[p.index()];
            }
        }
        for p in op.parents() {
            if p.index() < i {
                uses[p.index()] += 1;
            }
        }
        if let Op::MatMul(_, b) = op {
            if b.index() < i {
                rhs[b.index()] = true;
            }
        }
    }
    (0..n)
        .map(|i| {
            let weight = tape.node_param(i).is_some() && uses[i] == 1 && rhs[i];
            cone[i] && reached[i] && !weight
        })
        .collect()
}

/// Runs the gradient-flow analysis from loss node `root`.
///
/// The tape is assumed structurally valid (run [`crate::check_tape`]
/// first); parent indices at or past their node are ignored here rather
/// than reported again.
///
/// # Panics
/// Panics if `root` is out of range.
pub fn analyze_gradient_flow(tape: &Tape, root: usize) -> GradFlowReport {
    let n = tape.len();
    let cone = backward_cone(tape, root);

    // Parameter liveness: a param is trained iff any binding is in the cone.
    // (param index, any live binding, all bindings)
    let mut params: Vec<(usize, bool, Vec<usize>)> = Vec::new();
    for (i, &in_cone) in cone.iter().enumerate() {
        if let Some(id) = tape.node_param(i) {
            let idx = id.index();
            match params.iter_mut().find(|(p, _, _)| *p == idx) {
                Some((_, live, bindings)) => {
                    *live |= in_cone;
                    bindings.push(i);
                }
                None => params.push((idx, in_cone, vec![i])),
            }
        }
    }
    let trained_params = params.iter().filter(|(_, live, _)| *live).count();
    let dead_params = params
        .iter()
        .filter(|(_, live, _)| !*live)
        .map(|(param, _, bindings)| DeadParam {
            param: *param,
            bindings: bindings.clone(),
        })
        .collect();

    // Detached components: union-find over parent edges between nodes
    // outside the cone.
    let mut uf: Vec<usize> = (0..n).collect();
    fn find(uf: &mut [usize], mut x: usize) -> usize {
        while uf[x] != x {
            uf[x] = uf[uf[x]];
            x = uf[x];
        }
        x
    }
    for i in 0..n {
        if cone[i] {
            continue;
        }
        for p in tape.node_op(i).parents() {
            let p = p.index();
            if p < i && !cone[p] {
                let (a, b) = (find(&mut uf, i), find(&mut uf, p));
                uf[a] = b;
            }
        }
    }
    let mut detached: Vec<Vec<usize>> = Vec::new();
    let mut root_of: Vec<(usize, usize)> = Vec::new(); // (uf root, detached idx)
    for (i, &in_cone) in cone.iter().enumerate() {
        if in_cone {
            continue;
        }
        let r = find(&mut uf, i);
        match root_of.iter().find(|(rr, _)| *rr == r) {
            Some(&(_, idx)) => detached[idx].push(i),
            None => {
                root_of.push((r, detached.len()));
                detached.push(vec![i]);
            }
        }
    }

    // Constant subtrees: const = non-param leaf, or non-leaf whose every
    // parent is const. Foldable = const non-leaf.
    let mut constant = vec![false; n];
    let mut foldable_nodes = 0usize;
    for i in 0..n {
        let op = tape.node_op(i);
        let parents = op.parents();
        constant[i] = if parents.is_empty() {
            matches!(op, Op::Leaf) && tape.node_param(i).is_none()
        } else {
            parents.iter().all(|p| p.index() < i && constant[p.index()])
        };
        if constant[i] && !matches!(op, Op::Leaf) {
            foldable_nodes += 1;
        }
    }
    let mut has_const_consumer = vec![false; n];
    for (i, &is_const) in constant.iter().enumerate() {
        if is_const {
            for p in tape.node_op(i).parents() {
                has_const_consumer[p.index()] = true;
            }
        }
    }
    let foldable_roots = (0..n)
        .filter(|&i| constant[i] && !matches!(tape.node_op(i), Op::Leaf) && !has_const_consumer[i])
        .collect();

    GradFlowReport {
        root,
        live_nodes: cone.iter().filter(|&&c| c).count(),
        trained_params,
        dead_params,
        detached,
        foldable_nodes,
        foldable_roots,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::op_name;
    use rapid_autograd::ParamStore;
    use rapid_tensor::Matrix;

    #[test]
    fn dead_parameter_is_reported_with_its_binding() {
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::ones(1, 2));
        let dead = store.add("dead", Matrix::ones(1, 3));
        let mut tape = Tape::new();
        let wv = tape.param(&store, w);
        let _unused = tape.param(&store, dead); // bound, never consumed
        let loss = tape.sum_all(wv);
        let report = analyze_gradient_flow(&tape, loss.index());
        assert_eq!(report.trained_params, 1);
        assert_eq!(
            report.dead_params,
            vec![DeadParam {
                param: dead.index(),
                bindings: vec![1]
            }]
        );
        assert_eq!(report.detached, vec![vec![1]]);
    }

    #[test]
    fn rebound_param_is_live_if_any_binding_reaches_the_loss() {
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::ones(1, 2));
        let mut tape = Tape::new();
        let _stale = tape.param(&store, w); // first binding: detached
        let wv = tape.param(&store, w); // second binding feeds the loss
        let loss = tape.sum_all(wv);
        let report = analyze_gradient_flow(&tape, loss.index());
        assert_eq!(report.trained_params, 1);
        assert!(report.dead_params.is_empty());
        assert_eq!(report.detached_nodes(), 1);
    }

    #[test]
    fn detached_components_are_grouped() {
        let mut tape = Tape::new();
        let a = tape.constant(Matrix::ones(1, 2));
        // Component 1: b -> c chain.
        let b = tape.constant(Matrix::ones(2, 2));
        let _c = tape.relu(b);
        // Component 2: a lone constant.
        let _d = tape.constant(Matrix::ones(3, 1));
        let loss = tape.sum_all(a);
        let report = analyze_gradient_flow(&tape, loss.index());
        assert_eq!(report.detached, vec![vec![1, 2], vec![3]]);
    }

    #[test]
    fn constant_subtrees_fold_to_maximal_roots() {
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::ones(2, 2));
        let mut tape = Tape::new();
        let c = tape.constant(Matrix::ones(2, 2));
        let scaled = tape.scale(c, 2.0); // const
        let shifted = tape.add_scalar(scaled, 1.0); // const, maximal
        let wv = tape.param(&store, w);
        let mixed = tape.mul(shifted, wv); // not const (param input)
        let loss = tape.sum_all(mixed);
        let report = analyze_gradient_flow(&tape, loss.index());
        assert_eq!(report.foldable_nodes, 2);
        assert_eq!(report.foldable_roots, vec![shifted.index()]);
        assert!(report.dead_params.is_empty());
        assert!(report.detached.is_empty());
    }

    #[test]
    fn holders_match_backward_grad_allocation() {
        // The static prediction must be exactly the set of nodes
        // `backward` allocates gradients for.
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::ones(2, 2));
        let v = store.add("v", Matrix::ones(2, 2));
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::ones(1, 2)); // in the cone, constant
        let wv = tape.param(&store, w); // weight binding
        let h = tape.matmul(x, wv);
        let _detached = tape.relu(h); // recorded, not consumed by the loss
        let vv = tape.param(&store, v); // used twice: holds a gradient
        let hv = tape.matmul(h, vv);
        let hv = tape.matmul(hv, vv);
        let s = tape.sigmoid(hv);
        let loss = tape.sum_all(s);
        let cone = backward_cone(&tape, loss.index());
        let holds = gradient_holders(&tape, loss.index());
        tape.backward(loss, &mut store);
        for (i, &held) in holds.iter().enumerate() {
            assert_eq!(
                held,
                tape.node_grad_shape(i).is_some(),
                "node {i} ({})",
                op_name(tape.node_op(i))
            );
        }
        assert!(cone[x.index()] && !holds[x.index()]);
        assert!(cone[wv.index()] && !holds[wv.index()]);
        assert!(holds[vv.index()]);
    }
}
