//! Property tests for the stage −1 postings candidate generator.
//!
//! The no-false-negative guarantee (DESIGN: the stage −1 bound never
//! exceeds the exact edit distance, even when query branches are missing
//! from the dataset vocabulary) is exercised three ways:
//!
//! 1. the postings cascade returns exactly the brute-force answer;
//! 2. the stage −1 candidate set is a superset of every true range /
//!    k-NN result (pointwise `bound ≤ EDist`);
//! 3. a query whose labels are 100% out-of-vocabulary — the generator
//!    produces *zero* candidates, yet results stay exact because the
//!    unmatched query mass is accounted into the bound.

use proptest::prelude::*;
use treesim_datagen::normal::Normal;
use treesim_datagen::synthetic::{generate, SyntheticConfig};
use treesim_edit::edit_distance;
use treesim_search::{Filter, PostingsFilter, SearchEngine};
use treesim_tree::{Forest, TreeId};

fn random_forest(seed: u64, count: usize) -> Forest {
    generate(&SyntheticConfig {
        fanout: Normal::new(2.5, 1.0),
        size: Normal::new(9.0, 3.0),
        label_count: 4,
        decay: 0.3,
        seed_count: 3.min(count),
        tree_count: count,
        rng_seed: seed,
    })
}

/// Brute-force `(EDist, id)` pairs sorted ascending.
fn ground_truth(forest: &Forest, query: &treesim_tree::Tree) -> Vec<(u64, TreeId)> {
    let mut truth: Vec<(u64, TreeId)> = forest
        .iter()
        .map(|(id, t)| (edit_distance(query, t), id))
        .collect();
    truth.sort_unstable();
    truth
}

/// Asserts the postings engine is exact AND that the stage −1 bound never
/// exceeds the true distance on any tree — which makes the surviving
/// candidate set a superset of every true range / k-NN result.
fn check_postings(
    forest: &Forest,
    query: &treesim_tree::Tree,
    expect_zero_candidates: bool,
) -> Result<(), TestCaseError> {
    let filter = PostingsFilter::build(forest, 2);
    let artifact = filter.prepare_query(query);
    if expect_zero_candidates {
        prop_assert_eq!(artifact.candidate_count(), 0, "query shares a branch?");
    }
    let truth = ground_truth(forest, query);

    // Pointwise soundness of the stage −1 bound: the guarantee that the
    // candidate generator admits every true result at every threshold.
    for &(edist, id) in &truth {
        let bound = filter.stage_bound(&artifact, id, 0);
        prop_assert!(
            bound <= edist,
            "stage -1 bound {} above EDist {} for {:?}",
            bound,
            edist,
            id
        );
    }

    let engine = SearchEngine::new(forest, filter);
    for k in [1, 3, forest.len()] {
        let (got, stats) = engine.knn(query, k);
        let got_d: Vec<u64> = got.iter().map(|n| n.distance).collect();
        let want_d: Vec<u64> = truth.iter().take(k).map(|&(d, _)| d).collect();
        prop_assert_eq!(got_d, want_d, "knn mismatch at k={}", k);
        prop_assert!(stats.refined <= forest.len());
    }
    for tau in [0u32, 1, 2, 4, 8] {
        let (got, _) = engine.range(query, tau);
        let want: Vec<(u64, TreeId)> = truth
            .iter()
            .copied()
            .filter(|&(d, _)| d <= u64::from(tau))
            .collect();
        prop_assert_eq!(got.len(), want.len(), "range size mismatch at tau={}", tau);
        // Explicit superset check: every true hit survives the postings
        // stage at this radius.
        let filter = engine.filter();
        let artifact = filter.prepare_query(query);
        for &(_, id) in &want {
            prop_assert!(filter.stage_bound(&artifact, id, 0) <= u64::from(tau));
        }
        for (n, &(d, id)) in got.iter().zip(&want) {
            prop_assert_eq!(n.distance, d);
            prop_assert_eq!(n.tree, id);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn postings_engine_is_exact_and_superset(seed in 0u64..10_000) {
        let forest = random_forest(seed, 12);
        let query_id = TreeId((seed % forest.len() as u64) as u32);
        let query = forest.tree(query_id).clone();
        check_postings(&forest, &query, false)?;
    }

    #[test]
    fn fully_oov_query_keeps_the_guarantee(seed in 0u64..10_000) {
        let forest = random_forest(seed, 10);
        // Labels the synthetic generator can never produce: every branch of
        // this query is out-of-vocabulary, so the generator yields zero
        // candidates and the bound rests entirely on unmatched query mass.
        let mut scratch = Forest::new();
        *scratch.interner_mut() = forest.interner().clone();
        let qid = scratch
            .parse_bracket("zoov0(zoov1(zoov2) zoov3 zoov4)")
            .expect("valid bracket spec");
        let query = scratch.tree(qid).clone();
        check_postings(&forest, &query, true)?;
    }
}
