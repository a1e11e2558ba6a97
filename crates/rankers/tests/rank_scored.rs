//! `InitialRanker::rank_scored` gives, in one pass, the same list as
//! `rank` followed by one `score` call per item, to the bit. DIN scores
//! the whole request in one batched graph, whose ops all work row by
//! row, so its batched scores equal its one-row scores exactly.

use rapid_data::{generate, DataConfig, Dataset, Flavor};
use rapid_gbdt::LambdaMartParams;
use rapid_rankers::{Din, DinConfig, InitialRanker, LambdaMartRanker, SvmRank, SvmRankConfig};

fn world() -> Dataset {
    let mut c = DataConfig::new(Flavor::MovieLens);
    c.num_users = 40;
    c.num_items = 200;
    c.ranker_train_interactions = 1500;
    c.rerank_train_requests = 10;
    c.test_requests = 10;
    c.seed = 13;
    generate(&c)
}

fn assert_one_pass_matches(ranker: &dyn InitialRanker, ds: &Dataset) {
    for req in ds.rerank_train.iter().chain(&ds.test) {
        let one_pass = ranker.rank_scored(ds, req);
        let reference: Vec<(usize, u32)> = ranker
            .rank(ds, req)
            .into_iter()
            .map(|v| (v, ranker.score(ds, req.user, v).to_bits()))
            .collect();
        let got: Vec<(usize, u32)> = one_pass.iter().map(|&(v, s)| (v, s.to_bits())).collect();
        assert_eq!(got, reference, "{}: user {}", ranker.name(), req.user);
    }
}

#[test]
fn one_pass_list_equals_rank_plus_per_item_scores_bitwise() {
    let ds = world();
    let din = Din::fit(
        &ds,
        &DinConfig {
            epochs: 1,
            hidden: 16,
            ..DinConfig::default()
        },
    );
    let svm = SvmRank::fit(
        &ds,
        &SvmRankConfig {
            epochs: 2,
            ..SvmRankConfig::default()
        },
    );
    let mart = LambdaMartRanker::fit(
        &ds,
        &LambdaMartParams {
            num_trees: 5,
            ..LambdaMartParams::default()
        },
    );
    assert_one_pass_matches(&din, &ds);
    assert_one_pass_matches(&svm, &ds);
    assert_one_pass_matches(&mart, &ds);
}
