//! The `train` workload: the paper's Table VI costs. Set-up is
//! `Pipeline::prepare` on the MovieLens-like quick world; the measured
//! work is RAPID-pro training (`Rapid::fit_prepared`) and single-list
//! inference on the test split. No serving code runs. The run repeats
//! rounds of set-up, fit and inference until `--seconds` have passed;
//! every round does identical work, and each metric is a median over
//! the whole run.
//!
//! The traced pass replays training batches through the same public
//! calls `Rapid::fit_prepared` makes — a parameter store built by the
//! same constructors in the same order, the same shuffle and noise
//! streams, and `TrainStep`'s checks for non-finite loss and gradients —
//! with a span around each layer, and checks that it ends on parameters
//! byte-identical to the real fit's.

use std::hint::black_box;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rapid_autograd::op::Op;
use rapid_autograd::optim::{Adam, Optimizer};
use rapid_autograd::{ParamStore, Tape};
use rapid_core::{DiversityEstimator, Rapid, RapidConfig, RelevanceEstimator};
use rapid_data::{generate, Flavor};
use rapid_eval::{ExperimentConfig, Pipeline, Scale};
use rapid_metrics::{topic_coverage_at_k, Dcm};
use rapid_nn::{Activation, Mlp};
use rapid_rankers::{Din, DinConfig};
use rapid_rerankers::{is_permutation, FeatureCache, PreparedList, ReRanker};
use rapid_tensor::Matrix;

use crate::report::Outcome;
use crate::stats::median;
use crate::trace::Tracer;

/// Set-ups timed layer by layer in the traced pass.
const TRACED_SETUP_REPS: usize = 3;
/// Epochs per timed fit. Each fit starts from the same initial weights,
/// so every fit of a run does identical work.
const EPOCHS_PER_FIT: usize = 1;
/// Passes of single-list inference over the test split per round (about
/// a fifth of a round; the fit is the rest).
const INFER_PASSES_PER_ROUND: usize = 2;
/// Global gradient-norm clip `Rapid::fit_prepared` applies.
const CLIP: f32 = 5.0;
/// Timed repetitions of the batch-versus-loop inference comparison.
const PAR_REPS: usize = 5;
/// The range `train.layer_sum_frac` must fall in: the layer spans cover
/// the work of a batch except the tape's own bookkeeping, and the traced
/// mirror runs a few percent slower than the fit.
const LAYER_SUM_TOLERANCE: std::ops::RangeInclusive<f64> = 0.80..=1.10;

/// The quick MovieLens-like world with the DIN initial ranker.
pub fn experiment(seed: u64) -> ExperimentConfig {
    let mut c = ExperimentConfig::new(Flavor::MovieLens, Scale::Quick);
    c.seed = seed;
    c.data.seed = seed;
    c
}

fn rapid_config(seed: u64) -> RapidConfig {
    RapidConfig {
        epochs: EPOCHS_PER_FIT,
        seed,
        ..RapidConfig::probabilistic()
    }
}

fn params_bytes(store_save: impl FnOnce(&mut Vec<u8>) -> std::io::Result<()>) -> Vec<u8> {
    let mut out = Vec::new();
    store_save(&mut out).expect("writing to a Vec cannot fail");
    out
}

/// What the untraced phase leaves for the traced pass.
struct Trained {
    pipeline: Pipeline,
    model: Rapid,
    params: Vec<u8>,
}

/// Runs the workload; with `tracer`, follows it with the traced pass.
pub fn run(seed: u64, seconds: f64, out: &mut Outcome, tracer: Option<&mut Tracer>) {
    let trained = measure(seed, seconds, out);
    if let Some(tracer) = tracer {
        traced_pass(seed, &trained, out, tracer);
    }
}

fn measure(seed: u64, seconds: f64, out: &mut Outcome) -> Trained {
    let config = experiment(seed);
    let t = Instant::now();
    let pipeline = Pipeline::prepare(config.clone());
    let mut setup_s = vec![t.elapsed().as_secs_f64()];

    let ds = pipeline.dataset();
    let lists = &pipeline.cache().train;
    let test = &pipeline.cache().test;
    let rc = rapid_config(seed);
    let batches_per_fit = lists.len().div_ceil(rc.batch) * rc.epochs;
    let fallbacks_before = rapid_obs::global()
        .snapshot()
        .counter("exec.fallback_requests");
    let mut fit_ms = Vec::new();
    let mut latency_ms = Vec::new();
    let mut fitted: Option<(Rapid, Vec<u8>)> = None;
    let mut first: Option<Vec<Vec<usize>>> = None;
    let (mut bad, mut attempted) = (0u64, 0u64);
    // Rounds of set-up, fit and inference, so each metric samples the
    // host across the whole run rather than one stretch of it.
    let start = Instant::now();
    while fitted.is_none() || start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let spare = black_box(Pipeline::prepare(config.clone()));
        setup_s.push(t.elapsed().as_secs_f64());
        drop(spare);

        let mut model = Rapid::new(ds, rc.clone());
        let t = Instant::now();
        let report = model.fit_prepared(ds, lists);
        fit_ms.push(t.elapsed().as_secs_f64() * 1e3);
        out.check(report.batches == batches_per_fit, || {
            format!(
                "fit ran {} batches, expected {batches_per_fit}",
                report.batches
            )
        });
        let params = params_bytes(|w| model.save(w));
        if let Some((_, first_params)) = &fitted {
            out.check(*first_params == params, || {
                "two fits from the same seed ended on different parameters".to_string()
            });
        }

        for _ in 0..INFER_PASSES_PER_ROUND {
            let mut perms = Vec::with_capacity(test.len());
            for prep in test {
                let t = Instant::now();
                let perm = black_box(model.rerank_prepared(ds, black_box(prep)));
                latency_ms.push(t.elapsed().as_secs_f64() * 1e3);
                perms.push(perm);
            }
            attempted += test.len() as u64;
            match &first {
                None => {
                    bad += perms
                        .iter()
                        .zip(test)
                        .filter(|(p, l)| !is_permutation(p, l.len()))
                        .count() as u64;
                    first = Some(perms);
                }
                Some(f) => bad += f.iter().zip(&perms).filter(|(a, b)| a != b).count() as u64,
            }
        }
        fitted = Some((model, params));
    }
    let (model, params) = fitted.expect("at least one round");
    out.e2e("setup_s", "s", median(&setup_s), setup_s.len());
    let fit_median = median(&fit_ms);
    let list_epochs = (lists.len() * rc.epochs) as f64;
    out.e2e(
        "throughput_per_s",
        "1/s",
        list_epochs / (fit_median / 1e3),
        fit_ms.len(),
    );
    out.note("train.rounds", fit_ms.len());
    out.note(
        "train.lists_per_fit",
        format!("{} x {} epoch(s)", lists.len(), rc.epochs),
    );

    let perms = first.expect("at least one pass");
    let batch = model.rerank_batch(ds, test);
    attempted += test.len() as u64;
    bad += perms.iter().zip(&batch).filter(|(a, b)| a != b).count() as u64;
    let fallbacks = rapid_obs::global()
        .snapshot()
        .counter("exec.fallback_requests")
        - fallbacks_before;
    out.check(fallbacks == 0, || {
        format!("{fallbacks} test list(s) fell back to the initial ranking")
    });
    out.check(bad == 0, || {
        format!("{bad} scored list(s) were not the model's permutation")
    });
    let failed = bad.max(fallbacks);
    out.count(attempted, failed);
    out.e2e("p50_ms", "ms", median(&latency_ms), latency_ms.len());
    crate::tail_note(out, "p50_ms", &latency_ms);
    out.e2e(
        "ok_frac",
        "frac",
        (attempted - failed) as f64 / attempted as f64,
        attempted as usize,
    );

    // `Pipeline::evaluate`'s semi-synthetic definitions: DCM expected
    // clicks and topic coverage of the re-ranked top 5.
    let dcm = Dcm::standard(pipeline.config().data.list_len, pipeline.config().lambda);
    let (mut clicks, mut div) = (0.0f64, 0.0f64);
    for (input, perm) in pipeline.test_inputs().iter().zip(&perms) {
        let items: Vec<usize> = perm.iter().map(|&i| input.items[i]).collect();
        let phi = dcm.attractions(ds, input.user, &items);
        clicks += f64::from(dcm.expected_clicks(&phi, 5));
        let covs: Vec<&[f32]> = items
            .iter()
            .map(|&v| ds.items[v].coverage.as_slice())
            .collect();
        div += f64::from(topic_coverage_at_k(&covs, 5));
    }
    let n = perms.len() as f64;
    out.e2e("click_at_5", "clicks", clicks / n, perms.len());
    out.e2e("div_at_5", "topics", div / n, perms.len());

    crate::peak_rss(out);
    Trained {
        pipeline,
        model,
        params,
    }
}

/// RAPID-pro's parameters and layers, built by the constructors
/// `Rapid::new` calls, in its order, from its seed.
struct Mirror {
    store: ParamStore,
    relevance: RelevanceEstimator,
    diversity: DiversityEstimator,
    head_mean: Mlp,
    head_std: Mlp,
}

impl Mirror {
    fn new(ds: &rapid_data::Dataset, rc: &RapidConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(rc.seed);
        let mut store = ParamStore::new();
        let relevance = RelevanceEstimator::new(
            &mut store,
            "rapid.rel",
            rc.relevance_encoder,
            RelevanceEstimator::input_dim(ds),
            rc.hidden,
            rc.max_len,
            &mut rng,
        );
        let diversity = DiversityEstimator::new(
            &mut store,
            "rapid.div",
            ds,
            rc.behavior_encoder,
            rc.hidden,
            rc.behavior_len,
            &mut rng,
        );
        let head_in = relevance.out_dim() + ds.num_topics();
        let dims = [head_in, rc.hidden, 1];
        let head_mean = Mlp::new(
            &mut store,
            "rapid.head_mean",
            &dims,
            Activation::Relu,
            &mut rng,
        );
        let head_std = Mlp::new(
            &mut store,
            "rapid.head_std",
            &dims,
            Activation::Relu,
            &mut rng,
        )
        .with_output_activation(Activation::Softplus);
        Self {
            store,
            relevance,
            diversity,
            head_mean,
            head_std,
        }
    }
}

/// Per-batch figures the spans cannot give.
struct BatchShape {
    nodes: usize,
    bytes: usize,
    matmul_flop: f64,
}

/// Forward FLOPs of every recorded matmul (`2·m·k·n` each), computed
/// from the node shapes, not measured.
fn matmul_flop(tape: &Tape) -> f64 {
    (0..tape.len())
        .filter_map(|i| match tape.node_op(i) {
            Op::MatMul(a, b) => {
                let (m, k) = tape.node_shape(a.index());
                let (_, n) = tape.node_shape(b.index());
                Some(2.0 * (m * k * n) as f64)
            }
            _ => None,
        })
        .sum()
}

/// Trains the mirror for the real fit's epochs under spans; returns the
/// final parameters' bytes and each batch's shape.
fn mirror_fit(
    ds: &rapid_data::Dataset,
    lists: &[PreparedList],
    rc: &RapidConfig,
    out: &mut Outcome,
    tr: &mut Tracer,
) -> (Vec<u8>, Vec<BatchShape>) {
    let mut m = Mirror::new(ds, rc);
    let mut optimizer = Adam::new(rc.lr);
    let mut rng = StdRng::seed_from_u64(rc.seed);
    let mut noise_rng = StdRng::seed_from_u64(rc.seed ^ 0xdead_beef);
    let mut order: Vec<usize> = (0..lists.len()).collect();
    let mut tape = Tape::new();
    let mut shapes = Vec::new();
    let mut unit = 0u64;
    for epoch in 0..rc.epochs {
        order.shuffle(&mut rng);
        for chunk in order.chunks(rc.batch.max(1)) {
            tr.set_unit(unit);
            let batch_span = tr.begin("train.batch");
            tape.clear();
            let mut losses = Vec::with_capacity(chunk.len());
            for &i in chunk {
                let prep = &lists[i];
                let reps = tape.constant(prep.features.clone());
                let h_r = tr.span("core.relevance_fwd", || {
                    m.relevance.forward(&mut tape, &m.store, reps)
                });
                let delta = tr.span("core.diversity_fwd", || {
                    m.diversity.personalized_gain(
                        &mut tape,
                        &m.store,
                        ds,
                        prep.user(),
                        &prep.novelty,
                    )
                });
                let fused = tape.concat_cols(&[h_r, delta]);
                let (mean, std) = tr.span("nn.heads_fwd", || {
                    let mean = m.head_mean.forward(&mut tape, &m.store, fused);
                    (mean, m.head_std.forward(&mut tape, &m.store, fused))
                });
                let xi = Matrix::rand_normal(prep.len(), 1, 0.0, 1.0, &mut noise_rng);
                let xi = tape.constant(xi);
                let noise = tape.mul(xi, std);
                let scores = tape.add(mean, noise);
                let targets: Vec<f32> = prep
                    .labels()
                    .iter()
                    .map(|&c| if c { 1.0 } else { 0.0 })
                    .collect();
                let targets = Matrix::from_vec(targets.len(), 1, targets);
                losses.push(tr.span("autograd.loss", || tape.bce_with_logits(scores, &targets)));
            }
            let total = tr.span("autograd.loss", || {
                let stacked = tape.concat_cols(&losses);
                tape.mean_all(stacked)
            });
            tr.span("trace.inspect", || {
                shapes.push(BatchShape {
                    nodes: tape.len(),
                    bytes: tape.value_bytes(),
                    matmul_flop: matmul_flop(&tape),
                })
            });
            let loss = tape.value(total).get(0, 0);
            out.check(loss.is_finite(), || {
                format!("mirror: non-finite loss {loss} at epoch {epoch} (batch {unit})")
            });
            tr.span("autograd.backward", || tape.backward(total, &mut m.store));
            if let Some(p) = rapid_autograd::diag::find_nonfinite_grad(&m.store) {
                out.problem(format!(
                    "mirror: non-finite gradient in {p} at batch {unit}"
                ));
            }
            tr.span("autograd.optim", || {
                m.store.clip_grad_norm(CLIP);
                optimizer.step_and_zero(&mut m.store);
            });
            tr.end(batch_span);
            unit += 1;
        }
    }
    (params_bytes(|w| m.store.save(w)), shapes)
}

/// Layer spans of one training batch; the rest of a batch is tape
/// bookkeeping the spans do not cover.
const TRAIN_LAYERS: [&str; 6] = [
    "core.relevance_fwd",
    "core.diversity_fwd",
    "nn.heads_fwd",
    "autograd.loss",
    "autograd.backward",
    "autograd.optim",
];

fn traced_pass(seed: u64, t: &Trained, out: &mut Outcome, tr: &mut Tracer) {
    let config = experiment(seed);
    let ds = t.pipeline.dataset();

    // Set-up, call by call, with the inputs `Pipeline::prepare` uses.
    for rep in 0..TRACED_SETUP_REPS {
        tr.set_unit(rep as u64);
        drop(tr.span("eval.prepare", || Pipeline::prepare(config.clone())));
        drop(tr.span("data.generate", || generate(&config.data)));
        let mut ranker_ds = ds.clone();
        ranker_ds.ranker_train.truncate(ds.ranker_train.len() / 3);
        let din = DinConfig {
            epochs: 1,
            hidden: 16,
            seed: config.seed,
            ..DinConfig::default()
        };
        drop(tr.span("rankers.fit", || Din::fit(&ranker_ds, &din)));
        drop(tr.span("exec.feature_cache", || {
            FeatureCache::build(ds, t.pipeline.train_samples(), t.pipeline.test_inputs())
        }));
    }
    for (metric, span) in [
        ("eval.prepare_ms", "eval.prepare"),
        ("data.generate_ms", "data.generate"),
        ("rankers.fit_ms", "rankers.fit"),
        ("exec.feature_cache_ms", "exec.feature_cache"),
    ] {
        let per_rep = tr.self_ms_per_unit(span);
        out.layer(metric, "ms", median(&per_rep), per_rep.len());
    }

    let rc = rapid_config(seed);
    let lists = &t.pipeline.cache().train;
    // The untraced fits right before and after the mirror are its
    // baseline, so a drift of the host's speed across the run does not
    // move the ratios below.
    let untraced_fit_ms = || {
        let mut model = Rapid::new(ds, rc.clone());
        let t0 = Instant::now();
        black_box(model.fit_prepared(ds, lists));
        t0.elapsed().as_secs_f64() * 1e3
    };
    let before_ms = untraced_fit_ms();
    let wall = Instant::now();
    let (params, shapes) = mirror_fit(ds, lists, &rc, out, tr);
    let mirror_ms = wall.elapsed().as_secs_f64() * 1e3;
    let fit_ms = (before_ms + untraced_fit_ms()) / 2.0;
    let exact = params == t.params;
    out.check(exact, || {
        "the traced mirror's parameters differ from Rapid::fit_prepared's".to_string()
    });
    out.layer("train.mirror_exact", "bool", f64::from(u8::from(exact)), 1);

    for (metric, span) in [
        ("core.relevance_fwd_ms", "core.relevance_fwd"),
        ("core.diversity_fwd_ms", "core.diversity_fwd"),
        ("nn.heads_fwd_ms", "nn.heads_fwd"),
        ("autograd.loss_ms", "autograd.loss"),
        ("autograd.backward_ms", "autograd.backward"),
        ("autograd.optim_ms", "autograd.optim"),
    ] {
        let per_batch = tr.self_ms_per_unit(span);
        out.layer(metric, "ms", median(&per_batch), per_batch.len());
    }
    let nodes: Vec<f64> = shapes.iter().map(|s| s.nodes as f64).collect();
    let bytes: Vec<f64> = shapes.iter().map(|s| s.bytes as f64).collect();
    let flop: Vec<f64> = shapes.iter().map(|s| s.matmul_flop / 1e6).collect();
    out.layer("autograd.tape_nodes", "count", median(&nodes), nodes.len());
    out.layer("autograd.tape_bytes", "bytes", median(&bytes), bytes.len());
    out.layer("tensor.matmul_mflop", "MFLOP", median(&flop), flop.len());

    let covered: f64 = TRAIN_LAYERS
        .iter()
        .map(|s| tr.self_ms_per_unit(s).iter().sum::<f64>())
        .sum();
    let inspect: f64 = tr.self_ms_per_unit("trace.inspect").iter().sum();
    let layer_sum = covered / fit_ms;
    out.layer("train.layer_sum_frac", "frac", layer_sum, shapes.len());
    out.check(LAYER_SUM_TOLERANCE.contains(&layer_sum), || {
        format!("train.layer_sum_frac {layer_sum:.4} is outside {LAYER_SUM_TOLERANCE:?}")
    });
    out.layer(
        "train.trace_overhead_frac",
        "frac",
        (mirror_ms - inspect - fit_ms) / fit_ms,
        1,
    );
    out.note(
        "train.layer_sum_frac",
        format!(
            "layer spans of the traced mirror over the adjacent untraced fits' wall time; \
             must lie in {LAYER_SUM_TOLERANCE:?}"
        ),
    );

    let test = &t.pipeline.cache().test;
    let mut tape = Tape::new();
    let recorded = t.model.record_graph(ds, &test[0], &mut tape).is_some();
    out.check(recorded, || "RAPID recorded no inference graph".to_string());
    out.layer("core.infer_tape_nodes", "count", tape.len() as f64, 1);

    let (mut looped, mut batched) = (Vec::new(), Vec::new());
    for _ in 0..PAR_REPS {
        let t0 = Instant::now();
        for prep in test {
            black_box(t.model.rerank_prepared(ds, prep));
        }
        looped.push(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        black_box(t.model.rerank_batch(ds, test));
        batched.push(t0.elapsed().as_secs_f64());
    }
    out.layer(
        "exec.par_speedup",
        "x",
        median(&looped) / median(&batched),
        PAR_REPS,
    );
}
