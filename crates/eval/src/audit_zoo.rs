//! Dataflow audit over the whole model zoo: records every neural
//! re-ranker's first-batch training graph and runs the `rapid-check`
//! analysis suite (gradient-flow, liveness/memory, stability) on it.
//!
//! This is the library half of the `rapid-audit` binary. It lives here
//! rather than in `rapid-check` because the analysis crate sits *below*
//! the model crates (`rapid-rerankers` depends on it for first-batch
//! graph validation), so the zoo-walking driver has to live above them.
//!
//! Everything is pinned for determinism — the dataset config and seed,
//! the model seeds, and the synthetic labels
//! (`ReRanker::record_loss_graph` on an unlabeled list) — so the
//! committed golden report under `results/` only changes when a model's
//! recorded graph genuinely changes.

use rapid_autograd::{Tape, Var};
use rapid_check::{audit_tape, ModelAudit, TapeCheck};
use rapid_data::{generate, DataConfig, Dataset, Flavor};
use rapid_rerankers::{PreparedList, RerankInput};

use crate::zoo::{ablation_lineup, full_lineup};

/// Hidden width every audited model is built with.
const AUDIT_HIDDEN: usize = 16;
/// Model seed (graph *structure* does not depend on it, but weights do,
/// and some stability rules read constants).
const AUDIT_SEED: u64 = 0;

/// The pinned audit dataset: the same tiny Taobao-flavored config the
/// zoo graph-check tests use, small enough that recording all 13 neural
/// graphs takes well under a second.
pub fn audit_dataset() -> Dataset {
    let mut c = DataConfig::new(Flavor::Taobao);
    c.num_users = 10;
    c.num_items = 60;
    c.ranker_train_interactions = 80;
    c.rerank_train_requests = 3;
    c.test_requests = 2;
    generate(&c)
}

/// The single prepared list every model records its first batch on,
/// with deterministic descending init scores.
pub fn audit_list(ds: &Dataset) -> PreparedList {
    let req = &ds.test[0];
    PreparedList::from_input(
        ds,
        RerankInput {
            user: req.user,
            items: req.candidates.clone(),
            init_scores: (0..req.candidates.len()).map(|i| -(i as f32)).collect(),
        },
    )
}

/// Records the loss graph of every neural model in the full + ablation
/// line-ups (deduplicated by display name — `RAPID-det`/`RAPID-pro`
/// appear in both), as `(name, tape, loss node)`. Heuristics record no
/// graph and are skipped.
///
/// # Panics
/// Panics if a model records a structurally invalid graph — the audit
/// assumes `check_tape`-validated input, and an invalid zoo graph is a
/// bug the build must surface.
pub fn record_zoo_graphs() -> Vec<(&'static str, Tape, Var)> {
    let ds = audit_dataset();
    let prep = audit_list(&ds);
    let mut lineup = full_lineup(&ds, AUDIT_HIDDEN, 1, AUDIT_SEED);
    for m in ablation_lineup(&ds, AUDIT_HIDDEN, 1, AUDIT_SEED) {
        if !lineup.iter().any(|x| x.name() == m.name()) {
            lineup.push(m);
        }
    }

    let mut graphs = Vec::new();
    for model in &lineup {
        let mut tape = Tape::new();
        let Some(loss) = model.record_loss_graph(&ds, &prep, &mut tape) else {
            continue; // heuristic models never touch a tape
        };
        tape.check()
            .unwrap_or_else(|e| panic!("{}: invalid graph: {}", model.name(), e[0]));
        graphs.push((model.name(), tape, loss));
    }
    graphs
}

/// Records and audits every neural model (see [`record_zoo_graphs`]).
pub fn run_zoo_audit() -> Vec<ModelAudit> {
    record_zoo_graphs()
        .iter()
        .map(|(name, tape, loss)| audit_tape(name, tape, loss.index()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapid_autograd::ParamStore;
    use rapid_check::{
        analyze_liveness, compare_with_golden, gradient_holders, parse_ndjson, to_ndjson,
    };
    use rapid_tensor::Matrix;

    /// A store with one zero parameter per id the tape binds, shaped like
    /// its binding, so `backward` runs on a recorded graph without the
    /// model's private store (backward reads only the tape's values).
    fn shadow_store(tape: &Tape) -> ParamStore {
        let mut shapes: Vec<(usize, usize)> = Vec::new();
        for i in 0..tape.len() {
            if let Some(id) = tape.node_param(i) {
                if shapes.len() <= id.index() {
                    shapes.resize(id.index() + 1, (1, 1));
                }
                shapes[id.index()] = tape.node_shape(i);
            }
        }
        let mut store = ParamStore::new();
        for (k, (r, c)) in shapes.into_iter().enumerate() {
            store.add(format!("param#{k}"), Matrix::zeros(r, c));
        }
        store
    }

    #[test]
    fn backward_leaves_gradients_exactly_where_the_analyzer_predicts() {
        for (name, mut tape, loss) in record_zoo_graphs() {
            let holds = gradient_holders(&tape, loss.index());
            let predicted_bytes = analyze_liveness(&tape, loss.index()).grad_bytes;
            let mut store = shadow_store(&tape);
            tape.backward(loss, &mut store);
            for (i, &held) in holds.iter().enumerate() {
                assert_eq!(
                    held,
                    tape.node_grad_shape(i).is_some(),
                    "{name}: node {i} ({})",
                    tape.node_op(i).tag()
                );
            }
            assert_eq!(tape.grad_bytes(), predicted_bytes, "{name}: gradient bytes");
            assert!(holds.iter().any(|&h| h), "{name}: no gradient held");
        }
    }

    #[test]
    fn zoo_audit_covers_every_neural_model_and_is_deterministic() {
        let audits = run_zoo_audit();
        let names: Vec<&str> = audits.iter().map(|a| a.model.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "DLCM",
                "PRM",
                "SetRank",
                "SRGA",
                "DESA",
                "PD-GAN",
                "RAPID-det",
                "RAPID-pro",
                "RAPID-RNN",
                "RAPID-mean",
                "RAPID-trans",
            ]
        );
        for a in &audits {
            // Every model's loss graph trains at least one parameter and
            // has a nonempty backward cone with sane memory bounds.
            assert!(a.trained_params > 0, "{}: no trained params", a.model);
            assert!(a.live_nodes > 0, "{}: empty cone", a.model);
            assert!(
                a.fwd_peak_bytes > 0 && a.train_peak_bytes >= a.fwd_peak_bytes,
                "{}: inconsistent memory bounds",
                a.model
            );
        }

        // Same pinned inputs -> bit-identical report (golden stability),
        // and a fresh run matches itself under the regression gate.
        let again = run_zoo_audit();
        assert_eq!(audits, again);
        let parsed = parse_ndjson(&to_ndjson(&audits)).expect("own NDJSON parses");
        assert!(compare_with_golden(&audits, &parsed).is_empty());
    }
}
