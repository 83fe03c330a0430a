//! Property tests: `explain_knn` / `explain_range` replays are faithful —
//! the per-candidate verdicts telescope to exactly the `SearchStats`
//! funnel, and the replayed results equal the plain query's results.

use proptest::prelude::*;
use treesim_datagen::normal::Normal;
use treesim_datagen::synthetic::{generate, SyntheticConfig};
use treesim_search::{
    BiBranchFilter, BiBranchMode, Filter, HistogramFilter, SearchEngine, Verdict,
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

/// Shared assertions over one explain report vs. the plain query result.
fn check_report(
    report: &treesim_search::ExplainReport,
    plain: &[treesim_search::Neighbor],
) -> Result<(), TestCaseError> {
    // Per-candidate verdicts telescope to the stats funnel, stage by stage.
    prop_assert!(
        report.check_consistency().is_ok(),
        "explain verdicts disagree with SearchStats: {:?}",
        report.check_consistency()
    );
    // The replay is deterministic: same results as the plain query.
    prop_assert_eq!(report.results.len(), plain.len());
    for (a, b) in report.results.iter().zip(plain) {
        prop_assert_eq!(a.tree, b.tree);
        prop_assert_eq!(a.distance, b.distance);
    }
    // Refined-or-cutoff verdicts account for every refinement attempt
    // (`stats.refined` counts τ-cutoffs too — the candidate was not
    // stage-pruned); in-result marks account for every result.
    let refined = report
        .candidates
        .iter()
        .filter(|c| {
            matches!(
                c.verdict,
                Verdict::Refined { .. } | Verdict::RefineCutoff { .. }
            )
        })
        .count();
    prop_assert_eq!(refined, report.stats.refined);
    let cutoffs = report
        .candidates
        .iter()
        .filter(|c| matches!(c.verdict, Verdict::RefineCutoff { .. }))
        .count();
    prop_assert_eq!(cutoffs, report.stats.refine_cutoffs);
    let in_result = report
        .candidates
        .iter()
        .filter(|c| {
            matches!(
                c.verdict,
                Verdict::Refined {
                    in_result: true,
                    ..
                }
            )
        })
        .count();
    prop_assert_eq!(in_result, report.results.len());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn explain_knn_is_faithful(seed in 0u64..10_000) {
        let forest = random_forest(seed, 14);
        let engine = SearchEngine::new(
            &forest,
            BiBranchFilter::build(&forest, 2, BiBranchMode::Positional),
        );
        let query = forest.tree(TreeId((seed % forest.len() as u64) as u32));
        for k in [1usize, 3, 7] {
            let (plain, _) = engine.knn(query, k);
            let report = engine.explain_knn(query, k);
            check_report(&report, &plain)?;
        }
    }

    #[test]
    fn explain_range_is_faithful(seed in 0u64..10_000) {
        let forest = random_forest(seed, 14);
        let engine = SearchEngine::new(&forest, HistogramFilter::build(&forest));
        let query = forest.tree(TreeId((seed % forest.len() as u64) as u32));
        for tau in [0u32, 1, 3, 6] {
            let (plain, _) = engine.range(query, tau);
            let report = engine.explain_range(query, tau);
            check_report(&report, &plain)?;
        }
    }
}

/// The acceptance-scale demo: on a 1000-tree corpus the explain table's
/// stage totals still equal the funnel exactly, and the render carries
/// every stage column.
#[test]
fn explain_on_a_thousand_tree_corpus_telescopes() {
    let forest = random_forest(4242, 1000);
    let engine = SearchEngine::new(
        &forest,
        BiBranchFilter::build(&forest, 2, BiBranchMode::Positional),
    );
    let query = forest.tree(TreeId(17));
    let report = engine.explain_knn(query, 5);
    assert!(report.check_consistency().is_ok());
    assert_eq!(report.candidates.len(), forest.len());
    let rendered = report.render(20);
    for stage in &report.stage_names {
        assert!(rendered.contains(stage), "missing column {stage}");
    }
    assert!(
        rendered.contains("more rows"),
        "long corpus renders truncated"
    );
}

/// A k-NN candidate pruned at `propt` shows the bound that proved the
/// prune: the search stops at the live k-th distance, so the verdict's
/// bound exceeds the final k-th distance yet never exceeds the full
/// `propt` stage bound, and the verdicts still telescope to the funnel.
#[test]
fn knn_propt_verdicts_show_the_capped_bound() {
    let forest = generate(&SyntheticConfig {
        fanout: Normal::new(4.0, 0.5),
        size: Normal::new(40.0, 2.0),
        label_count: 8,
        decay: 0.05,
        seed_count: 4,
        tree_count: 200,
        rng_seed: 77,
    });
    let filter = BiBranchFilter::build(&forest, 2, BiBranchMode::Positional);
    let engine = SearchEngine::new(&forest, filter);
    let propt = engine.filter().stages() - 1;
    let (mut pruned, mut capped) = (0usize, 0usize);
    for query_id in [3u32, 41, 150, 199] {
        let query = forest.tree(TreeId(query_id));
        let report = engine.explain_knn(query, 3);
        assert!(report.check_consistency().is_ok());
        let kth = report.results.last().map_or(0, |n| n.distance);
        let artifact = engine.filter().prepare_query(query);
        for candidate in &report.candidates {
            if let Verdict::Pruned { stage, bound } = candidate.verdict {
                if stage != propt {
                    continue;
                }
                let full = engine
                    .filter()
                    .stage_bound(&artifact, candidate.tree, propt);
                assert!(bound > kth, "verdict bound {bound} ≤ k-th distance {kth}");
                assert!(bound <= full, "verdict bound {bound} > full propt {full}");
                pruned += 1;
                capped += usize::from(bound < full);
            }
        }
    }
    assert!(pruned > 0, "no candidate was pruned at propt");
    assert!(capped > 0, "no propt verdict showed a capped bound");
}
