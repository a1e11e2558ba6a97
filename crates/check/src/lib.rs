//! Static analysis for the RAPID workspace.
//!
//! PR 1 moved every model onto a reused, cleared [`rapid_autograd::Tape`]
//! and a scoped-thread execution layer, which created two classes of
//! silent-failure risk: stale `Var`s indexing into a cleared-and-refilled
//! tape, and shape bugs that only surface as panics deep inside
//! `rapid_tensor::Matrix` at train time. This crate is the correctness
//! tooling that catches both *before* execution:
//!
//! * [`shape::infer_shape`] — pure symbolic shape inference over every
//!   [`rapid_autograd::op::Op`] variant (matmul inner-dim agreement,
//!   broadcast orientation, concat alignment, slice bounds, loss target
//!   shapes).
//! * [`graph::check_tape`] / the [`TapeCheck`] extension trait — replays
//!   a recorded graph symbolically and rejects dangling parents (the
//!   stale-`Var` signature), contract-violating input shapes, and
//!   op-implementation drift; benign conditions (rebound parameters,
//!   gradient-receiving constants, unreachable nodes) are summarized in
//!   a [`GraphReport`].
//! * [`lint`] — a dependency-free workspace source linter (the
//!   `rapid-lint` binary) enforcing project rules: no `unwrap`/`expect`
//!   in hot-crate library code, environment reads confined to
//!   `exec::parallel`, no float-literal `==`, `//!` doc headers, and
//!   justified `lint:allow` directives.
//!
//! On top of the per-node checks sits the whole-graph dataflow suite
//! (pass pipeline: shapes → gradient-flow → liveness → stability):
//!
//! * [`dataflow::analyze_gradient_flow`] — backward reachability from a
//!   loss node: dead parameters, detached subgraphs, constant-folding
//!   opportunities.
//! * [`liveness::analyze_liveness`] — last-use analysis, a greedy
//!   buffer-reuse plan, and forward / forward+backward peak-live-bytes
//!   bounds (the input spec for the planned bump-arena tape).
//! * [`stability::lint_stability`] — numerical-stability pattern rules
//!   with node/op provenance (unguarded normalize epsilon, degenerate
//!   pairwise labels, out-of-range BCE targets, extreme scalars,
//!   saturation-depth tracking).
//! * [`audit`] — per-model reports combining all passes, the NDJSON
//!   golden format, and the regression gate. The `rapid-audit` driver
//!   binary lives in `rapid-eval` (this crate sits *below* the model
//!   crates — `rapid-rerankers` depends on it for first-batch graph
//!   validation — so the zoo-walking driver has to live above them).
//!
//! The complementary *runtime* guard lives in `rapid-autograd` itself:
//! every `Var` is epoch-stamped in debug builds, so use-after-`clear`
//! panics at the use site instead of silently reading a recycled node.
//!
//! # Example
//!
//! ```
//! use rapid_autograd::Tape;
//! use rapid_check::TapeCheck;
//! use rapid_tensor::Matrix;
//!
//! let mut tape = Tape::new();
//! let x = tape.constant(Matrix::ones(2, 3));
//! let w = tape.constant(Matrix::ones(3, 1));
//! let _y = tape.matmul(x, w);
//! let report = tape.check().expect("well-formed graph");
//! assert_eq!(report.nodes, 3);
//! ```

pub mod audit;
pub mod dataflow;
pub mod graph;
pub mod lint;
pub mod liveness;
pub mod shape;
pub mod stability;

pub use audit::{
    audit_tape, compare_with_golden, parse_ndjson, render_table, to_ndjson, ModelAudit,
};
pub use dataflow::{
    analyze_gradient_flow, backward_cone, gradient_holders, gradient_parents, DeadParam,
    GradFlowReport,
};
pub use graph::{check_tape, GraphError, GraphReport, TapeCheck};
pub use lint::{lint_source, lint_workspace, Finding};
pub use liveness::{analyze_liveness, backward_reads, BackwardReads, BufferPlan, MemoryReport};
pub use shape::{infer_shape, op_name, Shape, ShapeError};
pub use stability::{lint_stability, Severity, StabilityFinding};
