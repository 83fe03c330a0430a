//! Per-query EXPLAIN: replay one k-NN or range query capturing, for
//! every dataset tree, which cascade stage pruned it (and the bound value
//! that did it) or what exact distance refinement produced.
//!
//! [`SearchEngine::explain_knn`] / [`SearchEngine::explain_range`] run
//! the *same* query cores as the production path — the cores are
//! parameterized over an observer whose production impl is a no-op — so
//! the per-candidate verdicts telescope exactly to the [`SearchStats`]
//! funnel of the same query: stage `s`'s `evaluated` equals the number of
//! candidates whose trail contains a stage-`s` entry, and its `pruned`
//! equals the number of verdicts naming stage `s`. A proptest pins this
//! identity down.
//!
//! [`SearchEngine::explain_knn`]: crate::SearchEngine::explain_knn
//! [`SearchEngine::explain_range`]: crate::SearchEngine::explain_range

use std::collections::BTreeMap;
use std::fmt;

use treesim_tree::TreeId;

use crate::engine::{Neighbor, QueryObserver};
use crate::stats::SearchStats;

/// One cascade-stage evaluation in a candidate's trail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageEval {
    /// Stage index (into [`ExplainReport::stage_names`]).
    pub stage: usize,
    /// The computed lower bound (cost space), or `None` for the final
    /// range stage, whose sharpest predicate certifies `EDist > τ`
    /// without materializing a bound value. A k-NN stage evaluated once
    /// the result heap is full may stop at the live k-th distance
    /// ([`crate::Filter::stage_bound_within`]): its bound is then the
    /// smallest value that proves the candidate beyond it (for `propt`,
    /// `budget + 1` operations), not the stage's full bound.
    pub bound: Option<u64>,
}

/// A candidate's fate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Eliminated at `stage` because `bound` exceeded the pruning
    /// threshold (the running k-th distance, or τ).
    Pruned {
        /// The stage that eliminated the candidate.
        stage: usize,
        /// The lower bound that did it.
        bound: u64,
    },
    /// Eliminated by the final-stage range predicate (Proposition 4.2);
    /// `bound` is that stage's generic lower bound, recomputed for the
    /// report — the predicate can prune even when this value is ≤ τ.
    PrunedByRangePredicate {
        /// The stage that eliminated the candidate.
        stage: usize,
        /// The stage's generic lower bound (display only).
        bound: u64,
    },
    /// Survived the cascade; `distance` is the exact edit distance.
    Refined {
        /// Exact edit distance to the query.
        distance: u64,
        /// Whether the candidate made the final result set.
        in_result: bool,
    },
    /// Survived the cascade and entered refinement, but the bounded DP
    /// ([`treesim_edit::bounded_zhang_shasha`]) proved the exact distance
    /// exceeds the live threshold `budget` (the running k-th distance, or
    /// τ) without finishing the computation. Counts as *refined* in the
    /// funnel — the candidate was not stage-pruned — but carries no exact
    /// distance.
    RefineCutoff {
        /// The live threshold the distance provably exceeds.
        budget: u64,
    },
}

/// One dataset tree's EXPLAIN row: the bounds each stage computed for it
/// and its final fate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CandidateExplain {
    /// The dataset tree.
    pub tree: TreeId,
    /// Stage evaluations in cascade order.
    pub trail: Vec<StageEval>,
    /// Final fate.
    pub verdict: Verdict,
}

/// The full EXPLAIN of one query. Render with `Display` (whole table) or
/// [`ExplainReport::render`] (bounded row count).
#[derive(Debug, Clone)]
pub struct ExplainReport {
    /// `"knn"` or `"range"`.
    pub kind: &'static str,
    /// `k` or `τ`.
    pub param: u64,
    /// The replayed query's statistics (identical counters to the
    /// production run of the same query).
    pub stats: SearchStats,
    /// The replayed query's results (identical to the production run).
    pub results: Vec<Neighbor>,
    /// Cascade stage names, coarsest first.
    pub stage_names: Vec<&'static str>,
    /// One row per dataset tree, ascending by tree id.
    pub candidates: Vec<CandidateExplain>,
    /// The trace id of the replayed query (`0` when tracing was off) —
    /// cross-reference into `/trace.json` or `treesim trace` to see the
    /// same query as a span tree.
    pub trace_id: u64,
}

impl ExplainReport {
    /// Per-stage `(evaluated, pruned)` totals recomputed from the
    /// per-candidate verdicts. Equality with `stats.stages` is the
    /// telescoping invariant ([`ExplainReport::check_consistency`]).
    pub fn stage_totals(&self) -> Vec<(usize, usize)> {
        let mut totals = vec![(0usize, 0usize); self.stage_names.len()];
        for candidate in &self.candidates {
            for eval in &candidate.trail {
                if let Some(slot) = totals.get_mut(eval.stage) {
                    slot.0 += 1;
                }
            }
            let pruned_stage = match candidate.verdict {
                Verdict::Pruned { stage, .. } => Some(stage),
                Verdict::PrunedByRangePredicate { stage, .. } => Some(stage),
                Verdict::Refined { .. } | Verdict::RefineCutoff { .. } => None,
            };
            if let Some(stage) = pruned_stage {
                if let Some(slot) = totals.get_mut(stage) {
                    slot.1 += 1;
                }
            }
        }
        totals
    }

    /// Checks the telescoping invariant against `stats`; returns the
    /// first mismatch as `(stage, from_verdicts, from_stats)` if any.
    #[allow(clippy::type_complexity)]
    pub fn check_consistency(&self) -> Result<(), (usize, (usize, usize), (usize, usize))> {
        for (stage, (totals, stats)) in self
            .stage_totals()
            .iter()
            .zip(&self.stats.stages)
            .enumerate()
        {
            let from_stats = (stats.evaluated, stats.pruned);
            if *totals != from_stats {
                return Err((stage, *totals, from_stats));
            }
        }
        Ok(())
    }

    /// Renders the report with at most `limit` candidate rows (the
    /// summary and stage totals always cover every candidate).
    pub fn render(&self, limit: usize) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "explain {} {}={} over {} trees: {} results, {} refined",
            self.kind,
            if self.kind == "knn" { "k" } else { "tau" },
            self.param,
            self.stats.dataset_size,
            self.stats.results,
            self.stats.refined,
        );
        if self.trace_id != 0 {
            let _ = writeln!(out, "trace: {} (span tree in /trace.json)", self.trace_id);
        }
        let totals = self.stage_totals();
        let _ = write!(out, "funnel:");
        for (name, (evaluated, pruned)) in self.stage_names.iter().zip(&totals) {
            let _ = write!(out, "  {name} {evaluated}/{pruned}");
        }
        let _ = writeln!(out, "  (stage evaluated/pruned)");

        let _ = write!(out, "{:>8}", "tree");
        for name in &self.stage_names {
            let _ = write!(out, "  {name:>8}");
        }
        let _ = writeln!(out, "  verdict");
        for candidate in self.candidates.iter().take(limit) {
            let _ = write!(out, "{:>8}", format!("#{}", candidate.tree.0));
            for stage in 0..self.stage_names.len() {
                let cell = candidate
                    .trail
                    .iter()
                    .find(|e| e.stage == stage)
                    .map_or("-".to_owned(), |e| {
                        e.bound.map_or("tau?".to_owned(), |b| b.to_string())
                    });
                let _ = write!(out, "  {cell:>8}");
            }
            let verdict = match candidate.verdict {
                Verdict::Pruned { stage, bound } => format!(
                    "pruned@{} (bound {bound})",
                    self.stage_names.get(stage).copied().unwrap_or("?")
                ),
                Verdict::PrunedByRangePredicate { stage, bound } => format!(
                    "pruned@{} (predicate; lb {bound})",
                    self.stage_names.get(stage).copied().unwrap_or("?")
                ),
                Verdict::Refined {
                    distance,
                    in_result,
                } => format!(
                    "refined d={distance} {}",
                    if in_result { "[hit]" } else { "[miss]" }
                ),
                Verdict::RefineCutoff { budget } => format!("refine cut off (d > {budget})"),
            };
            let _ = writeln!(out, "  {verdict}");
        }
        if self.candidates.len() > limit {
            let _ = writeln!(out, "... ({} more rows)", self.candidates.len() - limit);
        }
        out
    }
}

impl fmt::Display for ExplainReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render(usize::MAX))
    }
}

/// The recording observer backing EXPLAIN replays. Collects each
/// candidate's trail and fate; [`ExplainObserver::into_candidates`]
/// finalizes them against the result set.
#[derive(Debug, Default)]
pub(crate) struct ExplainObserver {
    rows: BTreeMap<u32, (Vec<StageEval>, Option<Verdict>)>,
}

impl ExplainObserver {
    pub(crate) fn new() -> ExplainObserver {
        ExplainObserver::default()
    }

    fn row(&mut self, id: TreeId) -> &mut (Vec<StageEval>, Option<Verdict>) {
        self.rows.entry(id.0).or_default()
    }

    /// Finalizes the rows: stamps result membership into refined
    /// verdicts and resolves range-predicate bounds via `range_bound`
    /// (recomputed outside the replay so the replay's stats stay
    /// identical to a production run).
    pub(crate) fn into_candidates(
        self,
        results: &[Neighbor],
        mut range_bound: impl FnMut(TreeId) -> u64,
    ) -> Vec<CandidateExplain> {
        self.rows
            .into_iter()
            .map(|(raw, (trail, verdict))| {
                let tree = TreeId(raw);
                let verdict = match verdict {
                    Some(Verdict::Refined { distance, .. }) => Verdict::Refined {
                        distance,
                        in_result: results.iter().any(|n| n.tree == tree),
                    },
                    Some(Verdict::PrunedByRangePredicate { stage, .. }) => {
                        Verdict::PrunedByRangePredicate {
                            stage,
                            bound: range_bound(tree),
                        }
                    }
                    Some(v) => v,
                    // Unreachable in practice: every candidate the cores
                    // touch gets a verdict. Keep a conservative fallback.
                    None => Verdict::Pruned { stage: 0, bound: 0 },
                };
                CandidateExplain {
                    tree,
                    trail,
                    verdict,
                }
            })
            .collect()
    }
}

impl QueryObserver for ExplainObserver {
    fn on_stage_bound(&mut self, id: TreeId, stage: usize, bound: u64) {
        self.row(id).0.push(StageEval {
            stage,
            bound: Some(bound),
        });
    }

    fn on_pruned(&mut self, id: TreeId, stage: usize, bound: u64) {
        self.row(id).1 = Some(Verdict::Pruned { stage, bound });
    }

    fn on_range_checked(&mut self, id: TreeId, stage: usize) {
        self.row(id).0.push(StageEval { stage, bound: None });
    }

    fn on_range_pruned(&mut self, id: TreeId, stage: usize) {
        self.row(id).1 = Some(Verdict::PrunedByRangePredicate { stage, bound: 0 });
    }

    fn on_refined(&mut self, id: TreeId, distance: u64) {
        self.row(id).1 = Some(Verdict::Refined {
            distance,
            in_result: false,
        });
    }

    fn on_refine_cutoff(&mut self, id: TreeId, budget: u64) {
        self.row(id).1 = Some(Verdict::RefineCutoff { budget });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::{BiBranchFilter, BiBranchMode, NoFilter};
    use crate::SearchEngine;
    use treesim_tree::Forest;

    fn forest() -> Forest {
        let mut forest = Forest::new();
        for spec in [
            "a(b(c(d)) b e)",
            "a(c(d) b e)",
            "a(b c)",
            "x(y z)",
            "a(b(c d e) f)",
            "a(b(c(d)) b e f)",
            "q(r(s))",
        ] {
            forest.parse_bracket(spec).unwrap();
        }
        forest
    }

    #[test]
    fn explain_knn_telescopes_and_matches_query() {
        let forest = forest();
        let engine = SearchEngine::new(
            &forest,
            BiBranchFilter::build(&forest, 2, BiBranchMode::Positional),
        );
        for (_, query) in forest.iter() {
            for k in [1usize, 3, 7] {
                let report = engine.explain_knn(query, k);
                let (plain, plain_stats) = engine.knn(query, k);
                assert_eq!(report.results, plain);
                assert_eq!(report.stats.refined, plain_stats.refined);
                report.check_consistency().unwrap();
                // Every dataset tree has a row; hits are marked.
                assert_eq!(report.candidates.len(), forest.len());
                let hits = report
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
                assert_eq!(hits, plain.len());
            }
        }
    }

    #[test]
    fn explain_range_telescopes_and_matches_query() {
        let forest = forest();
        let engine = SearchEngine::new(
            &forest,
            BiBranchFilter::build(&forest, 2, BiBranchMode::Positional),
        );
        for (_, query) in forest.iter() {
            for tau in 0..=4u32 {
                let report = engine.explain_range(query, tau);
                let (plain, _) = engine.range(query, tau);
                assert_eq!(report.results, plain);
                report.check_consistency().unwrap();
            }
        }
    }

    #[test]
    fn cutoff_verdicts_telescope_like_refined() {
        let forest = forest();
        let engine = SearchEngine::new(
            &forest,
            BiBranchFilter::build(&forest, 2, BiBranchMode::Positional),
        );
        let mut saw_cutoff = false;
        for (_, query) in forest.iter() {
            for tau in 0..=2u32 {
                let report = engine.explain_range(query, tau);
                let (plain, plain_stats) = engine.range(query, tau);
                assert_eq!(report.results, plain);
                report.check_consistency().unwrap();
                let cutoffs = report
                    .candidates
                    .iter()
                    .filter(|c| matches!(c.verdict, Verdict::RefineCutoff { .. }))
                    .count();
                assert_eq!(cutoffs, plain_stats.refine_cutoffs);
                if cutoffs > 0 {
                    saw_cutoff = true;
                    let rendered = report.render(usize::MAX);
                    assert!(rendered.contains("refine cut off"));
                }
            }
        }
        assert!(saw_cutoff, "expected at least one refinement cutoff");
    }

    #[test]
    fn render_is_bounded_and_complete() {
        let forest = forest();
        let engine = SearchEngine::new(
            &forest,
            BiBranchFilter::build(&forest, 2, BiBranchMode::Positional),
        );
        let report = engine.explain_knn(forest.tree(treesim_tree::TreeId(0)), 2);
        let full = format!("{report}");
        assert!(full.contains("explain knn k=2"));
        assert!(full.contains("funnel:"));
        assert!(full.contains("size"));
        // Bounded rendering keeps the summary but truncates rows.
        let bounded = report.render(2);
        assert!(bounded.contains("more rows"));
        assert!(bounded.lines().count() < full.lines().count());
    }

    #[test]
    fn scan_baseline_explains_too() {
        let forest = forest();
        let engine = SearchEngine::new(&forest, NoFilter::build(&forest));
        let report = engine.explain_range(forest.tree(treesim_tree::TreeId(0)), 2);
        report.check_consistency().unwrap();
        assert_eq!(report.stage_names, vec!["scan"]);
    }
}
