//! The [`InitialRanker`] trait and shared feature assembly.

use rapid_data::{Dataset, ItemId, Request, UserId};

/// A trained initial ranker: scores `(user, item)` pairs and orders a
/// request's candidates into the initial list `R`.
pub trait InitialRanker {
    /// Display name used in tables.
    fn name(&self) -> &'static str;

    /// Pointwise relevance score; higher ranks earlier.
    fn score(&self, ds: &Dataset, user: UserId, item: ItemId) -> f32;

    /// The initial list with each item's score, from one
    /// [`InitialRanker::scores`] call: candidates by descending score,
    /// ties broken by item id so ranking is deterministic.
    fn rank_scored(&self, ds: &Dataset, req: &Request) -> Vec<(ItemId, f32)> {
        let mut scored: Vec<(ItemId, f32)> = req
            .candidates
            .iter()
            .copied()
            .zip(self.scores(ds, req))
            .collect();
        scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        scored
    }

    /// The items of [`InitialRanker::rank_scored`].
    fn rank(&self, ds: &Dataset, req: &Request) -> Vec<ItemId> {
        self.rank_scored(ds, req)
            .into_iter()
            .map(|(v, _)| v)
            .collect()
    }

    /// Scores every candidate of a request, in candidate order.
    fn scores(&self, ds: &Dataset, req: &Request) -> Vec<f32> {
        req.candidates
            .iter()
            .map(|&v| self.score(ds, req.user, v))
            .collect()
    }
}

/// Features for a `(user, item)` pair: `[x_u, x_v, x_u ⊙ x_v]` where the
/// elementwise-product block covers the shared topic-projection channels
/// (all but the last channel of the shorter feature vector). The product
/// block exposes the user–item alignment to linear and tree models that
/// cannot form multiplicative interactions themselves.
pub fn pair_features(ds: &Dataset, user: UserId, item: ItemId) -> Vec<f32> {
    let xu = &ds.users[user].features;
    let xv = &ds.items[item].features;
    let topic_dim = xu.len().min(xv.len()).saturating_sub(1);
    let mut f = Vec::with_capacity(xu.len() + xv.len() + topic_dim);
    f.extend_from_slice(xu);
    f.extend_from_slice(xv);
    for k in 0..topic_dim {
        f.push(xu[k] * xv[k]);
    }
    f
}

/// Samples `n` fresh held-out pointwise interactions from the **same**
/// world: labels are Bernoulli draws from the ground-truth attraction.
/// Used by ranker tests and benches to measure generalisation.
pub fn sample_holdout(ds: &Dataset, n: usize, seed: u64) -> Vec<(UserId, ItemId, bool)> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let u = rng.gen_range(0..ds.users.len());
            let v = rng.gen_range(0..ds.items.len());
            let a = ds.attraction(u, v);
            (u, v, rng.gen::<f32>() < a)
        })
        .collect()
}

/// Shared test/bench helper: AUC of a scorer over held-out pointwise
/// interactions.
pub fn auc(
    ds: &Dataset,
    interactions: &[(UserId, ItemId, bool)],
    score: impl Fn(&Dataset, UserId, ItemId) -> f32,
) -> f32 {
    let mut pos: Vec<f32> = Vec::new();
    let mut neg: Vec<f32> = Vec::new();
    for &(u, v, c) in interactions {
        let s = score(ds, u, v);
        if c {
            pos.push(s);
        } else {
            neg.push(s);
        }
    }
    if pos.is_empty() || neg.is_empty() {
        return 0.5;
    }
    let mut wins = 0.0f64;
    for &p in &pos {
        for &n in &neg {
            if p > n {
                wins += 1.0;
            } else if p == n {
                wins += 0.5;
            }
        }
    }
    (wins / (pos.len() as f64 * neg.len() as f64)) as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapid_data::{generate, DataConfig, Flavor};

    struct Oracle;
    impl InitialRanker for Oracle {
        fn name(&self) -> &'static str {
            "Oracle"
        }
        fn score(&self, ds: &Dataset, user: UserId, item: ItemId) -> f32 {
            ds.attraction(user, item)
        }
    }

    fn tiny() -> Dataset {
        let mut c = DataConfig::new(Flavor::MovieLens);
        c.num_users = 30;
        c.num_items = 150;
        c.ranker_train_interactions = 2000;
        c.rerank_train_requests = 10;
        c.test_requests = 10;
        generate(&c)
    }

    #[test]
    fn rank_orders_by_score_descending() {
        let ds = tiny();
        let req = &ds.test[0];
        let ranked = Oracle.rank(&ds, req);
        assert_eq!(ranked.len(), req.candidates.len());
        for w in ranked.windows(2) {
            assert!(ds.attraction(req.user, w[0]) >= ds.attraction(req.user, w[1]));
        }
    }

    #[test]
    fn pair_features_concatenate_with_interaction_block() {
        let ds = tiny();
        let f = pair_features(&ds, 0, 0);
        let qu = ds.users[0].features.len();
        let qv = ds.items[0].features.len();
        let topic_dim = qu.min(qv) - 1;
        assert_eq!(f.len(), qu + qv + topic_dim);
        assert_eq!(&f[..qu], &ds.users[0].features[..]);
        // Interaction block is the elementwise product of the topic
        // channels.
        for k in 0..topic_dim {
            let expect = ds.users[0].features[k] * ds.items[0].features[k];
            assert!((f[qu + qv + k] - expect).abs() < 1e-6);
        }
    }

    #[test]
    fn oracle_auc_is_high_and_constant_scorer_is_half() {
        let ds = tiny();
        let a = auc(&ds, &ds.ranker_train, |ds, u, v| ds.attraction(u, v));
        assert!(a > 0.6, "oracle AUC {a}");
        let c = auc(&ds, &ds.ranker_train, |_, _, _| 0.0);
        assert!((c - 0.5).abs() < 1e-6);
    }
}
