//! The experiment pipeline: world generation, initial ranking, feedback
//! generation, and per-model train/evaluate.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::SeedableRng;
use rapid_click::Dcm;
use rapid_data::{generate, Dataset};
use rapid_gbdt::LambdaMartParams;
use rapid_metrics::{click_at_k, ndcg_at_k, rev_at_k, topic_coverage_at_k};
use rapid_rankers::{Din, DinConfig, InitialRanker, LambdaMartRanker, SvmRank, SvmRankConfig};
use rapid_rerankers::{FeatureCache, ReRanker, RerankInput, TrainSample};

use crate::config::{EvalProtocol, ExperimentConfig, RankerKind};

/// Per-model evaluation output: per-request metric vectors (so the
/// tables can run paired t-tests) and wall-clock timings.
#[derive(Debug, Clone)]
pub struct ModelResult {
    /// Model display name.
    pub name: String,
    /// Metric name → one value per test request.
    pub per_request: BTreeMap<String, Vec<f32>>,
    /// Total training wall-clock.
    pub train_time: std::time::Duration,
    /// Optimizer batches the model actually ran (0 for heuristics that
    /// only grid-tune), reported by `fit_prepared`.
    pub train_batches: usize,
    /// Mean training time per optimizer batch, from the actual count.
    pub train_per_batch: std::time::Duration,
    /// Number of test lists scored.
    pub test_lists: usize,
    /// Mean inference time per batch of 16 test lists.
    pub test_per_batch: std::time::Duration,
}

impl ModelResult {
    /// Mean of a metric across requests (`NaN` if missing).
    pub fn mean(&self, metric: &str) -> f32 {
        self.per_request
            .get(metric)
            .map(|v| rapid_metrics::mean(v))
            .unwrap_or(f32::NAN)
    }
}

/// A prepared experiment: dataset, trained initial ranker, labeled
/// training lists, and test inputs.
pub struct Pipeline {
    config: ExperimentConfig,
    ds: Dataset,
    dcm: Dcm,
    train_samples: Vec<TrainSample>,
    test_inputs: Vec<RerankInput>,
    /// Logged item-level labels for the [`EvalProtocol::Logged`] path,
    /// aligned with `test_inputs` (clicks observed on the initial
    /// list).
    logged_clicks: Vec<Vec<bool>>,
    /// Feature matrices, coverage rows, and novelty matrices for every
    /// train/test list, materialised once so each model's fit and
    /// inference skip per-epoch feature assembly.
    cache: FeatureCache,
}

impl Pipeline {
    /// Generates the world, trains the configured initial ranker, and
    /// materialises training feedback and test inputs.
    ///
    /// Each stage runs under a `prepare/...` span (`generate`, `ranker`,
    /// `feedback`, `features`) in the global `rapid-obs` registry, so
    /// pipeline start-up cost is attributable without ad-hoc timers.
    ///
    /// When `RAPID_OBS_ADDR=host:port` is set, the first `prepare` call
    /// also starts the live telemetry endpoint (`/metrics`, `/healthz`,
    /// `/snapshot`) for the rest of the process. Likewise,
    /// `RAPID_FAULTS=<spec>` arms the chaos-injection plan for the whole
    /// run (see the `rapid-faults` crate), so replayable fault drills
    /// need no code changes.
    pub fn prepare(config: ExperimentConfig) -> Self {
        rapid_obs::install_from_env();
        rapid_faults::init_from_env();
        let prepare_span = rapid_obs::Span::enter("prepare");
        let (ds, _) = rapid_obs::time("generate", || generate(&config.data));
        let dcm = Dcm::standard(config.data.list_len, config.lambda);

        // Train the initial ranker on a *reduced* interaction budget:
        // the paper trains the initial ranker on its own (earlier, so
        // distribution-shifted) split, which leaves real headroom for
        // the re-rankers. We mirror that by giving the ranker a third
        // of the interaction log and a single pass over it.
        let mut ranker_ds = ds.clone();
        ranker_ds.ranker_train.truncate(ds.ranker_train.len() / 3);
        let ranker_span = rapid_obs::Span::enter("ranker");
        let ranker: Box<dyn InitialRanker> = match config.ranker {
            RankerKind::Din => Box::new(Din::fit(
                &ranker_ds,
                &DinConfig {
                    epochs: 1,
                    hidden: 16,
                    seed: config.seed,
                    ..DinConfig::default()
                },
            )),
            RankerKind::SvmRank => Box::new(SvmRank::fit(
                &ranker_ds,
                &SvmRankConfig {
                    epochs: 3,
                    seed: config.seed,
                    ..SvmRankConfig::default()
                },
            )),
            RankerKind::LambdaMart => Box::new(LambdaMartRanker::fit(
                &ranker_ds,
                &LambdaMartParams {
                    num_trees: 15,
                    ..LambdaMartParams::default()
                },
            )),
        };
        ranker_span.finish();

        // Training lists: initial ranking + DCM clicks.
        let feedback_span = rapid_obs::Span::enter("feedback");
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0xfeed);
        let train_samples: Vec<TrainSample> = ds
            .rerank_train
            .iter()
            .map(|req| {
                let (items, init_scores) = ranker.rank_scored(&ds, req).into_iter().unzip();
                let input = RerankInput {
                    user: req.user,
                    items,
                    init_scores,
                };
                let phi = dcm.attractions(&ds, input.user, &input.items);
                let clicks = dcm.simulate(&phi, &mut rng);
                TrainSample { input, clicks }
            })
            .collect();

        // Test inputs (initial rankings) and, for the logged protocol,
        // one frozen click rollout per request.
        let mut log_rng = StdRng::seed_from_u64(config.seed ^ 0x0010_66ed);
        let mut test_inputs = Vec::with_capacity(ds.test.len());
        let mut logged_clicks = Vec::with_capacity(ds.test.len());
        for req in &ds.test {
            let (items, init_scores) = ranker.rank_scored(&ds, req).into_iter().unzip();
            let input = RerankInput {
                user: req.user,
                items,
                init_scores,
            };
            let phi = dcm.attractions(&ds, input.user, &input.items);
            logged_clicks.push(dcm.simulate(&phi, &mut log_rng));
            test_inputs.push(input);
        }
        feedback_span.finish();

        let (cache, _) = rapid_obs::time("features", || {
            FeatureCache::build(&ds, &train_samples, &test_inputs)
        });

        let elapsed = prepare_span.finish();
        let reg = rapid_obs::global();
        reg.counter_add("eval.train_lists", train_samples.len() as u64);
        reg.counter_add("eval.test_lists", test_inputs.len() as u64);
        rapid_obs::event!(
            rapid_obs::Level::Info,
            "eval",
            "pipeline prepared: {} train / {} test lists in {:.1} ms",
            train_samples.len(),
            test_inputs.len(),
            elapsed.as_secs_f64() * 1e3
        );

        Self {
            config,
            ds,
            dcm,
            train_samples,
            test_inputs,
            logged_clicks,
            cache,
        }
    }

    /// The generated dataset.
    pub fn dataset(&self) -> &Dataset {
        &self.ds
    }

    /// The experiment configuration.
    pub fn config(&self) -> &ExperimentConfig {
        &self.config
    }

    /// The labeled training lists.
    pub fn train_samples(&self) -> &[TrainSample] {
        &self.train_samples
    }

    /// The test inputs (initial rankings).
    pub fn test_inputs(&self) -> &[RerankInput] {
        &self.test_inputs
    }

    /// The prepared train/test feature cache.
    pub fn cache(&self) -> &FeatureCache {
        &self.cache
    }

    /// Trains `model` on the pipeline's feedback and evaluates it on the
    /// test inputs under the configured protocol.
    pub fn evaluate(&self, model: &mut dyn ReRanker) -> ModelResult {
        // Train/infer run under `train/<model>` and `infer/<model>`
        // spans; the durations returned by `finish()` are the exact
        // values recorded in the registry, so the timings this result
        // reports always agree with the emitted telemetry.
        let train_span = rapid_obs::Span::enter(&format!("train/{}", model.name()));
        let report = model.fit_prepared(&self.ds, &self.cache.train);
        let train_time = train_span.finish();
        let train_per_batch = train_time / report.batches.max(1) as u32;

        let mut per_request: BTreeMap<String, Vec<f32>> = BTreeMap::new();
        let mut push = |key: &str, v: f32| per_request.entry(key.to_string()).or_default().push(v);

        let mut ndcg_rng = StdRng::seed_from_u64(self.config.seed ^ 0x0dcc);
        let infer_span = rapid_obs::Span::enter(&format!("infer/{}", model.name()));
        let perms: Vec<Vec<usize>> = model.rerank_batch(&self.ds, &self.cache.test);
        let infer_time = infer_span.finish();
        let test_batches = self.cache.test.len().div_ceil(16).max(1);
        let test_per_batch = infer_time / test_batches as u32;

        for ((input, perm), logged) in self.test_inputs.iter().zip(&perms).zip(&self.logged_clicks)
        {
            debug_assert!(rapid_rerankers::is_permutation(perm, input.len()));
            let items: Vec<usize> = perm.iter().map(|&i| input.items[i]).collect();
            let covs: Vec<&[f32]> = items
                .iter()
                .map(|&v| self.ds.items[v].coverage.as_slice())
                .collect();
            push("div@5", topic_coverage_at_k(&covs, 5));
            push("div@10", topic_coverage_at_k(&covs, 10));

            match self.config.protocol {
                EvalProtocol::SemiSynthetic => {
                    let phi = self.dcm.attractions(&self.ds, input.user, &items);
                    push("click@5", self.dcm.expected_clicks(&phi, 5));
                    push("click@10", self.dcm.expected_clicks(&phi, 10));
                    push("satis@5", self.dcm.satisfaction(&phi, 5));
                    push("satis@10", self.dcm.satisfaction(&phi, 10));
                    let mut n5 = 0.0;
                    let mut n10 = 0.0;
                    for _ in 0..self.config.ndcg_rollouts {
                        let clicks = self.dcm.simulate(&phi, &mut ndcg_rng);
                        n5 += ndcg_at_k(&clicks, 5);
                        n10 += ndcg_at_k(&clicks, 10);
                    }
                    let r = self.config.ndcg_rollouts.max(1) as f32;
                    push("ndcg@5", n5 / r);
                    push("ndcg@10", n10 / r);
                }
                EvalProtocol::Logged => {
                    // Labels travel with items (standard offline
                    // re-ranking evaluation).
                    let clicks: Vec<bool> = perm.iter().map(|&i| logged[i]).collect();
                    let bids: Vec<f32> = items.iter().map(|&v| self.ds.items[v].bid).collect();
                    push("click@5", click_at_k(&clicks, 5));
                    push("click@10", click_at_k(&clicks, 10));
                    push("ndcg@5", ndcg_at_k(&clicks, 5));
                    push("ndcg@10", ndcg_at_k(&clicks, 10));
                    push("rev@5", rev_at_k(&clicks, &bids, 5));
                    push("rev@10", rev_at_k(&clicks, &bids, 10));
                }
            }
        }

        ModelResult {
            name: model.name().to_string(),
            per_request,
            train_time,
            train_batches: report.batches,
            train_per_batch,
            test_lists: self.cache.test.len(),
            test_per_batch,
        }
    }

    /// Evaluates several models, fanning them across scoped worker
    /// threads (one model per thread, output order preserved). Each
    /// model still trains sequentially; the parallelism is across
    /// models, which is how the bench bins sweep a lineup.
    pub fn evaluate_all(&self, models: &mut [Box<dyn ReRanker>]) -> Vec<ModelResult> {
        rapid_exec::par_map_mut(models, |m| self.evaluate(m.as_mut()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Scale;
    use rapid_data::Flavor;
    use rapid_rerankers::Identity;

    fn quick(flavor: Flavor) -> ExperimentConfig {
        let mut c = ExperimentConfig::new(flavor, Scale::Quick);
        c.data.num_users = 40;
        c.data.num_items = 200;
        c.data.ranker_train_interactions = 1500;
        c.data.rerank_train_requests = 60;
        c.data.test_requests = 30;
        c.epochs = 2;
        c
    }

    #[test]
    fn semisynthetic_pipeline_produces_all_metrics() {
        let p = Pipeline::prepare(quick(Flavor::MovieLens));
        let mut init = Identity;
        let r = p.evaluate(&mut init);
        for key in [
            "click@5", "click@10", "ndcg@5", "ndcg@10", "div@5", "div@10", "satis@5", "satis@10",
        ] {
            let v = r.per_request.get(key).unwrap();
            assert_eq!(v.len(), 30, "{key}");
            assert!(v.iter().all(|x| x.is_finite()), "{key}");
        }
        assert!(r.mean("click@10") >= r.mean("click@5"));
        assert!(r.mean("satis@10") >= r.mean("satis@5"));
    }

    #[test]
    fn logged_pipeline_produces_revenue_metrics() {
        let p = Pipeline::prepare(quick(Flavor::AppStore));
        let mut init = Identity;
        let r = p.evaluate(&mut init);
        for key in [
            "click@5", "click@10", "ndcg@5", "ndcg@10", "div@5", "div@10", "rev@5", "rev@10",
        ] {
            assert!(r.per_request.contains_key(key), "{key} missing");
        }
        assert!(r.mean("rev@10") >= r.mean("rev@5"));
        assert!(!r.per_request.contains_key("satis@5"));
    }

    #[test]
    fn initial_lists_are_ranked_by_score() {
        let p = Pipeline::prepare(quick(Flavor::Taobao));
        for input in p.test_inputs() {
            for w in input.init_scores.windows(2) {
                assert!(w[0] >= w[1], "initial list must be score-descending");
            }
        }
    }

    #[test]
    fn train_samples_carry_clicks() {
        let p = Pipeline::prepare(quick(Flavor::Taobao));
        let total: usize = p
            .train_samples()
            .iter()
            .map(|s| s.clicks.iter().filter(|&&c| c).count())
            .sum();
        assert!(total > 0, "DCM produced no clicks at all");
    }
}
