//! Property tests for the observability layer: cascade funnel accounting
//! invariants, over both the 3-stage positional cascade and the 4-stage
//! postings cascade, and the guarantee that trace retention never changes
//! query results (observation is passive).

use proptest::prelude::*;
use treesim_datagen::normal::Normal;
use treesim_datagen::synthetic::{generate, SyntheticConfig};
use treesim_search::{
    BiBranchFilter, BiBranchMode, Filter, Neighbor, PostingsFilter, SearchEngine,
};
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

fn positional_engine(forest: &Forest) -> SearchEngine<'_, BiBranchFilter> {
    SearchEngine::new(
        forest,
        BiBranchFilter::build(forest, 2, BiBranchMode::Positional),
    )
}

fn postings_engine(forest: &Forest) -> SearchEngine<'_, PostingsFilter> {
    SearchEngine::new(forest, PostingsFilter::build(forest, 2))
}

/// Range sweeps narrow stage by stage: what survives stage `s` is
/// exactly what stage `s + 1` evaluates, and the final stage's survivors
/// are exactly the refinement set.
fn check_range_funnel<F: Filter>(
    engine: &SearchEngine<'_, F>,
    forest: &Forest,
    query_id: TreeId,
    tau: u32,
) -> Result<(), TestCaseError> {
    let (results, stats) = engine.range(forest.tree(query_id), tau);
    prop_assert!(stats.stages.len() > 1);
    prop_assert_eq!(stats.stages[0].evaluated, forest.len());
    for pair in stats.stages.windows(2) {
        prop_assert_eq!(pair[1].evaluated, pair[0].survivors());
    }
    prop_assert_eq!(stats.stages.last().unwrap().survivors(), stats.refined);
    prop_assert_eq!(stats.results, results.len());
    Ok(())
}

/// k-NN escalation accounts for every tree exactly once: each candidate
/// is either refined or pruned at exactly one stage.
fn check_knn_funnel<F: Filter>(
    engine: &SearchEngine<'_, F>,
    forest: &Forest,
    query_id: TreeId,
    k: usize,
) -> Result<(), TestCaseError> {
    let (_, stats) = engine.knn(forest.tree(query_id), k);
    prop_assert_eq!(stats.stages[0].evaluated, forest.len());
    let pruned: usize = stats.stages.iter().map(|s| s.pruned).sum();
    prop_assert_eq!(pruned + stats.refined, forest.len());
    // Lazy escalation: later stages never evaluate more candidates.
    for pair in stats.stages.windows(2) {
        prop_assert!(pair[1].evaluated <= pair[0].evaluated);
    }
    Ok(())
}

/// Serializes the tests that touch the process-wide trace-sampler knobs.
fn knob_lock() -> std::sync::MutexGuard<'static, ()> {
    static KNOBS: std::sync::Mutex<()> = std::sync::Mutex::new(());
    KNOBS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn keyed(results: &[Neighbor]) -> Vec<(TreeId, u64)> {
    results.iter().map(|n| (n.tree, n.distance)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// See [`check_range_funnel`]; `tau` 8 reaches past most of the
    /// forest.
    #[test]
    fn range_funnel_telescopes(seed in 0u64..10_000, tau in 0u32..9) {
        let forest = random_forest(seed, 14);
        let query_id = TreeId((seed % forest.len() as u64) as u32);
        check_range_funnel(&positional_engine(&forest), &forest, query_id, tau)?;
        check_range_funnel(&postings_engine(&forest), &forest, query_id, tau)?;
    }

    /// See [`check_knn_funnel`]; `k` 14 covers the whole forest.
    #[test]
    fn knn_accounts_for_every_candidate(seed in 0u64..10_000, k in 1usize..15) {
        let forest = random_forest(seed, 14);
        let query_id = TreeId((seed % forest.len() as u64) as u32);
        check_knn_funnel(&positional_engine(&forest), &forest, query_id, k)?;
        check_knn_funnel(&postings_engine(&forest), &forest, query_id, k)?;
    }

    /// Retaining every trace never changes results: the neighbor lists
    /// (ids AND distances) are identical under the default sampler, with
    /// retention forced for every trace, and with the default restored.
    #[test]
    fn trace_retention_never_changes_results(
        seed in 0u64..10_000,
        k in 1usize..5,
        tau in 0u32..5,
    ) {
        let _knobs = knob_lock();
        let forest = random_forest(seed, 12);
        let engine = positional_engine(&forest);
        let query = forest.tree(TreeId((seed % forest.len() as u64) as u32));
        let default_every = treesim_obs::trace::sample_every();

        let sampled_knn = keyed(&engine.knn(query, k).0);
        let sampled_range = keyed(&engine.range(query, tau).0);

        let retained = treesim_obs::metrics::counter("trace.retained");
        let before = retained.get();
        treesim_obs::trace::set_sample_every(1);
        let kept_knn = keyed(&engine.knn(query, k).0);
        let kept_range = keyed(&engine.range(query, tau).0);
        treesim_obs::trace::set_sample_every(default_every);
        let kept = retained.get() - before;

        let restored_knn = keyed(&engine.knn(query, k).0);
        let restored_range = keyed(&engine.range(query, tau).0);

        prop_assert!(kept >= 2, "forced retention kept {} traces", kept);
        prop_assert_eq!(&kept_knn, &sampled_knn, "retention changed knn results");
        prop_assert_eq!(&kept_range, &sampled_range, "retention changed range results");
        prop_assert_eq!(&restored_knn, &sampled_knn, "restoring the sampler changed knn results");
        prop_assert_eq!(&restored_range, &sampled_range, "restoring the sampler changed range results");
    }
}
