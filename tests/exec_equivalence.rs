//! The prepared + parallel execution path must be *bit-identical* to the
//! legacy per-`(ds, input)` path: same trained weights (feature matrices
//! are byte-equal and the RNG streams are untouched), same permutations,
//! same metrics.

use rapid::core::{Rapid, RapidConfig};
use rapid::data::Flavor;
use rapid::eval::{ExperimentConfig, Pipeline, Scale};
use rapid::exec::{list_feature_matrix, FeatureCache, PreparedList};
use rapid::rerankers::{Desa, DesaConfig, Dlcm, DlcmConfig, Prm, PrmConfig, ReRanker};

fn config() -> ExperimentConfig {
    let mut c = ExperimentConfig::new(Flavor::MovieLens, Scale::Quick);
    c.data.num_users = 30;
    c.data.num_items = 150;
    c.data.ranker_train_interactions = 800;
    c.data.rerank_train_requests = 40;
    c.data.test_requests = 20;
    c.epochs = 2;
    c
}

/// Trains one model through the legacy `fit(ds, samples)` shim and a
/// twin through `fit_prepared` on a shared cache, then checks that
/// every test list re-ranks identically through (a) the legacy per-list
/// shim and (b) the scoped-thread batch path.
fn assert_paths_identical(mut legacy: Box<dyn ReRanker>, mut prepared: Box<dyn ReRanker>) {
    let pipeline = Pipeline::prepare(config());
    let ds = pipeline.dataset();

    legacy.fit(ds, pipeline.train_samples());
    let cache = FeatureCache::from_samples(ds, pipeline.train_samples());
    prepared.fit_prepared(ds, &cache);

    let test_lists = FeatureCache::from_inputs(ds, pipeline.test_inputs());
    let legacy_perms: Vec<Vec<usize>> = pipeline
        .test_inputs()
        .iter()
        .map(|input| legacy.rerank(ds, input))
        .collect();
    let batch_perms = prepared.rerank_batch(ds, &test_lists);
    assert_eq!(
        legacy_perms,
        batch_perms,
        "{}: legacy and prepared/parallel paths diverged",
        legacy.name()
    );
}

#[test]
fn prm_prepared_path_is_bit_identical() {
    let pipeline = Pipeline::prepare(config());
    let ds = pipeline.dataset();
    let mk = || {
        Box::new(Prm::new(
            ds,
            PrmConfig {
                epochs: 2,
                ..PrmConfig::default()
            },
        ))
    };
    assert_paths_identical(mk(), mk());
}

#[test]
fn desa_prepared_path_is_bit_identical() {
    let pipeline = Pipeline::prepare(config());
    let ds = pipeline.dataset();
    let mk = || {
        Box::new(Desa::new(
            ds,
            DesaConfig {
                epochs: 2,
                ..DesaConfig::default()
            },
        ))
    };
    assert_paths_identical(mk(), mk());
}

#[test]
fn dlcm_prepared_path_is_bit_identical() {
    let pipeline = Pipeline::prepare(config());
    let ds = pipeline.dataset();
    let mk = || {
        Box::new(Dlcm::new(
            ds,
            DlcmConfig {
                epochs: 2,
                ..DlcmConfig::default()
            },
        ))
    };
    assert_paths_identical(mk(), mk());
}

#[test]
fn rapid_prepared_path_is_bit_identical() {
    let pipeline = Pipeline::prepare(config());
    let ds = pipeline.dataset();
    let mk = || {
        Box::new(Rapid::new(
            ds,
            RapidConfig {
                epochs: 2,
                ..RapidConfig::probabilistic()
            },
        ))
    };
    assert_paths_identical(mk(), mk());
}

#[test]
fn prepared_features_match_on_demand_assembly() {
    let pipeline = Pipeline::prepare(config());
    let ds = pipeline.dataset();
    for input in pipeline.test_inputs() {
        let prep = PreparedList::from_input(ds, input.clone());
        let fresh = list_feature_matrix(ds, input);
        assert_eq!(prep.features.as_slice(), fresh.as_slice());
        assert_eq!(prep.relevance, input.relevance_probs());
    }
}

#[test]
fn evaluate_is_reproducible_across_calls() {
    // Two full evaluate() runs of the same seeded model must produce
    // identical per-request metric vectors — the parallel scoring and
    // tape reuse leave every RNG stream untouched.
    let pipeline = Pipeline::prepare(config());
    let ds = pipeline.dataset();
    let run = |seed| {
        let mut model = Rapid::new(
            ds,
            RapidConfig {
                epochs: 2,
                seed,
                ..RapidConfig::probabilistic()
            },
        );
        pipeline.evaluate(&mut model).per_request
    };
    assert_eq!(run(3), run(3));
}
