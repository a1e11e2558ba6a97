//! DIN — Deep Interest Network (Zhou et al., KDD 2018), the paper's
//! representative deep pointwise initial ranker.
//!
//! The target item attends over the user's behavior history: attention
//! weights come from the inner product of each history item's features
//! with a learned projection of the target item, the weighted history
//! pool joins `[x_u, x_v]`, and an MLP emits the click logit. Trained
//! with BCE on the pointwise interaction log.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rapid_autograd::optim::{Adam, Optimizer};
use rapid_autograd::{ParamId, ParamStore, Tape, Var};
use rapid_data::{Dataset, ItemId, Request, UserId};
use rapid_nn::{Activation, Mlp};
use rapid_tensor::Matrix;

use crate::traits::InitialRanker;

/// DIN hyper-parameters.
#[derive(Debug, Clone)]
pub struct DinConfig {
    /// History window length (front-padded with zero items).
    pub hist_len: usize,
    /// MLP hidden width.
    pub hidden: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Mini-batch size.
    pub batch: usize,
    /// Seed for init and shuffling.
    pub seed: u64,
}

impl Default for DinConfig {
    fn default() -> Self {
        Self {
            hist_len: 8,
            hidden: 32,
            epochs: 3,
            lr: 1e-2,
            batch: 128,
            seed: 0,
        }
    }
}

/// A trained DIN ranker.
pub struct Din {
    config: DinConfig,
    store: ParamStore,
    w_key: ParamId,
    mlp: Mlp,
    item_dim: usize,
}

impl Din {
    /// Trains DIN on the dataset's pointwise interactions.
    pub fn fit(ds: &Dataset, config: &DinConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let q_u = ds.users[0].features.len();
        let q_v = ds.items[0].features.len();

        let mut store = ParamStore::new();
        let w_key = store.add("din.w_key", Matrix::xavier_uniform(q_v, q_v, &mut rng));
        let topic_dim = q_u.min(q_v).saturating_sub(1);
        let mlp = Mlp::new(
            &mut store,
            "din.mlp",
            &[q_u + 2 * q_v + topic_dim, config.hidden, 1],
            Activation::Relu,
            &mut rng,
        );

        let mut model = Self {
            config: config.clone(),
            store,
            w_key,
            mlp,
            item_dim: q_v,
        };

        let mut optimizer = Adam::new(config.lr);
        let mut order: Vec<usize> = (0..ds.ranker_train.len()).collect();
        for _ in 0..config.epochs {
            order.shuffle(&mut rng);
            for chunk in order.chunks(config.batch) {
                let samples: Vec<(UserId, ItemId, bool)> =
                    chunk.iter().map(|&i| ds.ranker_train[i]).collect();
                let mut tape = Tape::new();
                let logits = model.forward_batch(
                    &mut tape,
                    ds,
                    &samples.iter().map(|&(u, v, _)| (u, v)).collect::<Vec<_>>(),
                );
                let targets = Matrix::from_vec(
                    samples.len(),
                    1,
                    samples
                        .iter()
                        .map(|&(_, _, c)| if c { 1.0 } else { 0.0 })
                        .collect(),
                );
                let loss = tape.bce_with_logits(logits, &targets);
                tape.backward(loss, &mut model.store);
                optimizer.step_and_zero(&mut model.store);
            }
        }
        model
    }

    /// Builds the batched forward graph for `(user, item)` pairs and
    /// returns the `(B, 1)` logits node.
    fn forward_batch(&self, tape: &mut Tape, ds: &Dataset, pairs: &[(UserId, ItemId)]) -> Var {
        let b = pairs.len();
        let q_v = self.item_dim;
        let t_len = self.config.hist_len;

        let xu_rows: Vec<&[f32]> = pairs
            .iter()
            .map(|&(u, _)| &ds.users[u].features[..])
            .collect();
        let xu = tape.constant(matrix_from_rows(&xu_rows));
        let xv_rows: Vec<&[f32]> = pairs
            .iter()
            .map(|&(_, v)| &ds.items[v].features[..])
            .collect();
        let xv = tape.constant(matrix_from_rows(&xv_rows));

        // Front-padded history feature planes: H_t is (B, q_v).
        let mut hist_planes: Vec<Var> = Vec::with_capacity(t_len);
        let mut hist_values: Vec<Matrix> = Vec::with_capacity(t_len);
        for t in 0..t_len {
            let mut plane = Matrix::zeros(b, q_v);
            for (row, &(u, _)) in pairs.iter().enumerate() {
                let hist = &ds.users[u].history;
                let take = hist.len().min(t_len);
                // Align the *last* `take` history items to the *last*
                // positions of the window.
                let offset = t_len - take;
                if t >= offset {
                    let item = hist[hist.len() - take + (t - offset)];
                    plane.row_mut(row).copy_from_slice(&ds.items[item].features);
                }
            }
            hist_values.push(plane);
        }
        for plane in hist_values {
            hist_planes.push(tape.constant(plane));
        }

        // Attention: s_t = ⟨H_t, X_v W_key⟩ per row.
        let wk = tape.param(&self.store, self.w_key);
        let proj = tape.matmul(xv, wk);
        let ones_col = tape.constant(Matrix::ones(q_v, 1));
        let scores: Vec<Var> = hist_planes
            .iter()
            .map(|&h| {
                let prod = tape.mul(h, proj);
                tape.matmul(prod, ones_col)
            })
            .collect();
        let score_mat = tape.concat_cols(&scores);
        let attn = tape.softmax_rows(score_mat);

        // pooled = Σ_t a_t ⊙ H_t.
        let mut pooled = None;
        for (t, &h) in hist_planes.iter().enumerate() {
            let w = tape.slice_cols(attn, t, t + 1);
            let scaled = tape.mul_col_broadcast(h, w);
            pooled = Some(match pooled {
                None => scaled,
                Some(acc) => tape.add(acc, scaled),
            });
        }
        let pooled = pooled.expect("hist_len > 0");

        // Explicit user-item topic interaction (same shared-projection
        // channels as `pair_features`).
        let q_u = tape.value(xu).cols();
        let topic_dim = q_u.min(q_v).saturating_sub(1);
        let xu_topics = tape.slice_cols(xu, 0, topic_dim);
        let xv_topics = tape.slice_cols(xv, 0, topic_dim);
        let interaction = tape.mul(xu_topics, xv_topics);

        let input = tape.concat_cols(&[xu, xv, pooled, interaction]);
        self.mlp.forward(tape, &self.store, input)
    }

    /// Scores all candidates of a request in a single batch (one forward
    /// pass instead of `L`).
    pub fn score_request(&self, ds: &Dataset, req: &Request) -> Vec<f32> {
        let pairs: Vec<(UserId, ItemId)> = req.candidates.iter().map(|&v| (req.user, v)).collect();
        let mut tape = Tape::new();
        let logits = self.forward_batch(&mut tape, ds, &pairs);
        tape.value(logits).as_slice().to_vec()
    }
}

impl InitialRanker for Din {
    fn name(&self) -> &'static str {
        "DIN"
    }

    fn score(&self, ds: &Dataset, user: UserId, item: ItemId) -> f32 {
        let mut tape = Tape::new();
        let logits = self.forward_batch(&mut tape, ds, &[(user, item)]);
        tape.value(logits).get(0, 0)
    }

    fn scores(&self, ds: &Dataset, req: &Request) -> Vec<f32> {
        self.score_request(ds, req)
    }
}

fn matrix_from_rows(rows: &[&[f32]]) -> Matrix {
    let cols = rows.first().map_or(0, |r| r.len());
    let mut data = Vec::with_capacity(rows.len() * cols);
    for r in rows {
        data.extend_from_slice(r);
    }
    Matrix::from_vec(rows.len(), cols, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::auc;
    use rapid_data::{generate, DataConfig, Flavor};

    fn small_ds(seed: u64) -> Dataset {
        let mut c = DataConfig::new(Flavor::MovieLens);
        c.num_users = 60;
        c.num_items = 300;
        c.ranker_train_interactions = 4000;
        c.rerank_train_requests = 10;
        c.test_requests = 10;
        c.seed = seed;
        generate(&c)
    }

    #[test]
    fn beats_random_on_held_out_interactions() {
        let ds = small_ds(5);
        let model = Din::fit(
            &ds,
            &DinConfig {
                epochs: 2,
                ..DinConfig::default()
            },
        );
        let holdout = crate::traits::sample_holdout(&ds, 3000, 99);
        let a = auc(&ds, &holdout, |d, u, v| model.score(d, u, v));
        assert!(a > 0.62, "held-out AUC {a}");
    }

    #[test]
    fn batch_and_single_scoring_agree() {
        let ds = small_ds(7);
        let model = Din::fit(
            &ds,
            &DinConfig {
                epochs: 1,
                ..DinConfig::default()
            },
        );
        let req = &ds.test[0];
        let batch = model.score_request(&ds, req);
        for (i, &v) in req.candidates.iter().enumerate() {
            let single = model.score(&ds, req.user, v);
            assert!(
                (batch[i] - single).abs() < 1e-4,
                "batch {} vs single {single}",
                batch[i]
            );
        }
    }

    #[test]
    fn rank_is_a_permutation_of_candidates() {
        let ds = small_ds(7);
        let model = Din::fit(
            &ds,
            &DinConfig {
                epochs: 1,
                ..DinConfig::default()
            },
        );
        let req = &ds.test[1];
        let mut ranked = model.rank(&ds, req);
        ranked.sort_unstable();
        let mut cands = req.candidates.clone();
        cands.sort_unstable();
        assert_eq!(ranked, cands);
    }
}
