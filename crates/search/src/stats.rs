//! Per-query statistics — the quantities reported in the paper's figures,
//! plus per-stage observability for the staged bound cascade.
//!
//! [`SearchStats`] is the *per-call* record handed back with every query;
//! [`SearchStats::record_metrics`] additionally flushes it into the global
//! `treesim-obs` registry so long-running processes accumulate
//! process-wide funnels (`cascade.<stage>.evaluated`/`.pruned`) and
//! latency histograms without holding onto individual stats.

use std::fmt;
use std::sync::OnceLock;
use std::time::Duration;

use treesim_obs::metrics::{counter, histogram};
use treesim_obs::naming::CASCADE_STAGES;
use treesim_obs::{Counter, Histogram};

/// Measurements for one stage of the lower-bound cascade.
///
/// A cascade evaluates bounds coarsest-first; a candidate only reaches
/// stage `s + 1` if stage `s` could not prune it, so `evaluated` is
/// non-increasing across stages and `evaluated − pruned` of the final
/// stage is the refinement candidate set.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StageStats {
    /// Stage name ("size", "bdist", "propt", …).
    pub name: &'static str,
    /// Candidates whose bound was computed at this stage.
    pub evaluated: usize,
    /// Candidates this stage eliminated (never saw later stages).
    pub pruned: usize,
    /// Wall-clock time spent computing this stage's bounds.
    pub time: Duration,
}

impl StageStats {
    /// A fresh accumulator for the named stage.
    pub fn named(name: &'static str) -> Self {
        StageStats {
            name,
            ..Default::default()
        }
    }

    /// Candidates that survived this stage.
    pub fn survivors(&self) -> usize {
        self.evaluated.saturating_sub(self.pruned)
    }
}

/// The query prefixes whose [`PrefixHandles`] are resolved once.
const CACHED_PREFIXES: [&str; 4] = ["engine.knn", "engine.range", "dynamic.knn", "dynamic.range"];

/// The registry handles [`SearchStats::record_metrics`] writes under one
/// query prefix.
#[derive(Clone, Copy)]
struct PrefixHandles {
    queries: &'static Counter,
    refined: &'static Counter,
    cutoffs: &'static Counter,
    results: &'static Counter,
    filter_us: &'static Histogram,
    refine_us: &'static Histogram,
}

impl PrefixHandles {
    fn resolve(prefix: &str) -> Self {
        PrefixHandles {
            queries: counter(&format!("{prefix}.queries")),
            refined: counter(&format!("{prefix}.refined")),
            cutoffs: counter(&format!("{prefix}.cutoffs")),
            results: counter(&format!("{prefix}.results")),
            filter_us: histogram(&format!("{prefix}.filter.us")),
            refine_us: histogram(&format!("{prefix}.refine.us")),
        }
    }

    /// The handles for `prefix`, cached when it is one of
    /// [`CACHED_PREFIXES`].
    fn of(prefix: &str) -> Self {
        static SLOTS: [OnceLock<PrefixHandles>; CACHED_PREFIXES.len()] =
            [const { OnceLock::new() }; CACHED_PREFIXES.len()];
        match CACHED_PREFIXES.iter().position(|&cached| cached == prefix) {
            Some(slot) => *SLOTS[slot].get_or_init(|| Self::resolve(prefix)),
            None => Self::resolve(prefix),
        }
    }
}

/// The registry handles of one cascade stage's funnel:
/// `cascade.<stage>.{evaluated,pruned,us}`.
#[derive(Clone, Copy)]
struct StageHandles {
    evaluated: &'static Counter,
    pruned: &'static Counter,
    us: &'static Histogram,
}

impl StageHandles {
    fn resolve(stage: &str) -> Self {
        StageHandles {
            evaluated: counter(&format!("cascade.{stage}.evaluated")),
            pruned: counter(&format!("cascade.{stage}.pruned")),
            us: histogram(&format!("cascade.{stage}.us")),
        }
    }

    /// The handles for `stage`, cached when it is one of
    /// [`CASCADE_STAGES`].
    fn of(stage: &str) -> Self {
        static SLOTS: [OnceLock<StageHandles>; CASCADE_STAGES.len()] =
            [const { OnceLock::new() }; CASCADE_STAGES.len()];
        match CASCADE_STAGES.iter().position(|&cached| cached == stage) {
            Some(slot) => *SLOTS[slot].get_or_init(|| Self::resolve(stage)),
            None => Self::resolve(stage),
        }
    }
}

/// A sparse log₂ histogram of per-query total latencies (microseconds),
/// sharing `treesim-obs`'s bucket geometry ([`treesim_obs::bucket_index`]
/// / [`treesim_obs::bucket_upper_edge`]), so its quantiles carry the same
/// factor-of-2 error bound as the registry's histograms.
///
/// Empty on a fresh per-query [`SearchStats`];
/// [`SearchStats::accumulate`] records one sample per accumulated query
/// (or merges buckets when accumulating pre-accumulated totals), so
/// workload accumulators grow a latency distribution for free and
/// [`AveragedStats`] can report tail latencies, not just means.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyBuckets {
    /// `(bucket index, count)` pairs, ascending by index, counts > 0.
    buckets: Vec<(u8, u64)>,
    count: u64,
    sum: u64,
    max: u64,
}

impl LatencyBuckets {
    /// Records one query latency (in microseconds).
    pub fn record_micros(&mut self, us: u64) {
        let index = treesim_obs::bucket_index(us) as u8;
        match self.buckets.binary_search_by_key(&index, |&(i, _)| i) {
            Ok(pos) => self.buckets[pos].1 += 1,
            Err(pos) => self.buckets.insert(pos, (index, 1)),
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(us);
        self.max = self.max.max(us);
    }

    /// Merges another accumulator's samples into this one.
    pub fn merge(&mut self, other: &LatencyBuckets) {
        for &(index, count) in &other.buckets {
            match self.buckets.binary_search_by_key(&index, |&(i, _)| i) {
                Ok(pos) => self.buckets[pos].1 += count,
                Err(pos) => self.buckets.insert(pos, (index, count)),
            }
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no sample has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The largest recorded latency (µs); 0 when empty.
    pub fn max_us(&self) -> u64 {
        self.max
    }

    /// Estimated `q`-quantile latency in microseconds (same estimator as
    /// [`treesim_obs::HistogramSnapshot::quantile`]: the upper edge of
    /// the bucket holding the rank-`⌈q·count⌉` sample, clamped to the
    /// observed maximum). Returns 0 when empty.
    pub fn quantile_us(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(index, count) in &self.buckets {
            seen += count;
            if seen >= rank {
                return treesim_obs::bucket_upper_edge(usize::from(index)).min(self.max);
            }
        }
        self.max
    }

    /// Median latency estimate (µs).
    pub fn p50_us(&self) -> u64 {
        self.quantile_us(0.50)
    }

    /// 90th-percentile latency estimate (µs).
    pub fn p90_us(&self) -> u64 {
        self.quantile_us(0.90)
    }

    /// 99th-percentile latency estimate (µs).
    pub fn p99_us(&self) -> u64 {
        self.quantile_us(0.99)
    }
}

/// Measurements collected while answering one similarity query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchStats {
    /// Number of trees in the dataset.
    pub dataset_size: usize,
    /// Trees whose real edit distance was computed (true + false positives —
    /// the "% of accessed data" numerator of Figures 7–14). Includes
    /// refinements the bounded DP cut off at the budget.
    pub refined: usize,
    /// Refinements the bounded Zhang–Shasha cut off at the live budget:
    /// the distance was proven `> τ` (or beyond the current k-th heap
    /// distance) without being computed exactly. Always `≤ refined`.
    pub refine_cutoffs: usize,
    /// DP cells the bounded refinement skipped via its band / subproblem
    /// pruning, summed over this query's refinements.
    pub refine_bands_skipped: u64,
    /// Trees in the final result set (true positives).
    pub results: usize,
    /// Time spent computing lower bounds (all cascade stages).
    pub filter_time: Duration,
    /// Time spent computing real edit distances.
    pub refine_time: Duration,
    /// Per-stage cascade breakdown, coarsest stage first. Empty for
    /// engines that do not run a cascade.
    pub stages: Vec<StageStats>,
    /// Worker threads that produced these numbers (1 for a single query;
    /// the batch APIs record the pool size).
    pub threads: usize,
    /// Per-query total-latency distribution. Empty on a single query's
    /// stats; populated by [`SearchStats::accumulate`] (one sample per
    /// accumulated query), so workload totals carry p50/p90/p99 tails.
    pub latency: LatencyBuckets,
}

impl Default for SearchStats {
    fn default() -> Self {
        SearchStats {
            dataset_size: 0,
            refined: 0,
            refine_cutoffs: 0,
            refine_bands_skipped: 0,
            results: 0,
            filter_time: Duration::ZERO,
            refine_time: Duration::ZERO,
            stages: Vec::new(),
            threads: 1,
            latency: LatencyBuckets::default(),
        }
    }
}

impl SearchStats {
    /// The paper's headline metric:
    /// `(|TruePositive| + |FalsePositive|) / |Dataset| × 100 %`.
    pub fn accessed_percent(&self) -> f64 {
        if self.dataset_size == 0 {
            return 0.0;
        }
        self.refined as f64 / self.dataset_size as f64 * 100.0
    }

    /// Fraction of the result set within the accessed data (selectivity).
    pub fn result_percent(&self) -> f64 {
        if self.dataset_size == 0 {
            return 0.0;
        }
        self.results as f64 / self.dataset_size as f64 * 100.0
    }

    /// Total query time.
    pub fn total_time(&self) -> Duration {
        self.filter_time + self.refine_time
    }

    /// Bounds computed at the final (most expensive) cascade stage — for
    /// the positional filter, the number of `propt` binary searches.
    pub fn final_stage_evaluated(&self) -> usize {
        self.stages.last().map_or(0, |s| s.evaluated)
    }

    /// Accumulates another query's stats (for workload averages).
    ///
    /// Accumulation only makes sense across queries against the **same
    /// dataset**: `accessed_percent`/`result_percent` divide by one shared
    /// `dataset_size`.
    ///
    /// # Panics
    ///
    /// Panics if both sides carry a non-zero `dataset_size` and they
    /// disagree (mixing stats from different datasets). A zero
    /// `dataset_size` means "not yet attributed" (the `Default`
    /// accumulator) and adopts the other side's size.
    pub fn accumulate(&mut self, other: &SearchStats) {
        if self.dataset_size == 0 {
            self.dataset_size = other.dataset_size;
        } else if other.dataset_size != 0 {
            assert_eq!(
                self.dataset_size, other.dataset_size,
                "accumulating stats from different datasets"
            );
        }
        self.refined += other.refined;
        self.refine_cutoffs += other.refine_cutoffs;
        self.refine_bands_skipped += other.refine_bands_skipped;
        self.results += other.results;
        self.filter_time += other.filter_time;
        self.refine_time += other.refine_time;
        self.threads = self.threads.max(other.threads);
        if other.latency.is_empty() {
            // `other` is one query's stats: its total time is one sample.
            self.latency
                .record_micros(u64::try_from(other.total_time().as_micros()).unwrap_or(u64::MAX));
        } else {
            // `other` is itself an accumulator: merge its distribution.
            self.latency.merge(&other.latency);
        }
        if self.stages.is_empty() {
            self.stages = other.stages.clone();
        } else if !other.stages.is_empty() {
            assert_eq!(
                self.stages.len(),
                other.stages.len(),
                "accumulating stats from different cascades"
            );
            for (mine, theirs) in self.stages.iter_mut().zip(&other.stages) {
                assert_eq!(mine.name, theirs.name, "cascade stage order changed");
                mine.evaluated += theirs.evaluated;
                mine.pruned += theirs.pruned;
                mine.time += theirs.time;
            }
        }
    }

    /// Flushes this query's counters into the global `treesim-obs`
    /// registry under `prefix` (`"engine.knn"`, `"engine.range"`,
    /// `"dynamic.knn"`, …): per-prefix query/refined/result counters and
    /// filter/refine latency histograms, plus the shared per-stage funnel
    /// counters `cascade.<stage>.evaluated` / `cascade.<stage>.pruned`
    /// and `cascade.<stage>.us` time histograms.
    ///
    /// Metric recording never changes query results; it only accumulates
    /// what already happened.
    ///
    /// The registry handles are resolved once per process for the query
    /// prefixes and the [`CASCADE_STAGES`] names, so a flush costs no
    /// name formatting and no registry lock; any other name is looked up
    /// on every call.
    pub fn record_metrics(&self, prefix: &str) {
        let handles = PrefixHandles::of(prefix);
        handles.queries.inc();
        handles.refined.add(self.refined as u64);
        handles.cutoffs.add(self.refine_cutoffs as u64);
        handles.results.add(self.results as u64);
        handles.filter_us.record_duration(self.filter_time);
        handles.refine_us.record_duration(self.refine_time);
        for stage in &self.stages {
            let handles = StageHandles::of(stage.name);
            handles.evaluated.add(stage.evaluated as u64);
            handles.pruned.add(stage.pruned as u64);
            handles.us.record_duration(stage.time);
        }
    }

    /// Attaches this query's refinement totals to its root trace span
    /// (`engine.knn` / `engine.range`): `refined`, `cutoffs`,
    /// `cells_skipped` and `refine_us`. They stand in for per-candidate
    /// spans, so a trace costs the same however many candidates reach
    /// refinement. The values are only formatted when the span is traced.
    pub(crate) fn push_trace_fields(&self, span: &mut treesim_obs::SpanGuard) {
        span.push_field("refined", || self.refined.to_string());
        span.push_field("cutoffs", || self.refine_cutoffs.to_string());
        span.push_field("cells_skipped", || self.refine_bands_skipped.to_string());
        span.push_field("refine_us", || self.refine_time.as_micros().to_string());
    }

    /// Divides accumulated counters by the number of queries.
    pub fn averaged(&self, queries: usize) -> AveragedStats {
        let q = queries.max(1) as f64;
        AveragedStats {
            queries,
            dataset_size: self.dataset_size,
            avg_refined: self.refined as f64 / q,
            avg_results: self.results as f64 / q,
            avg_accessed_percent: self.accessed_percent() / q,
            avg_result_percent: self.result_percent() / q,
            avg_filter_time: self.filter_time.div_f64(q),
            avg_refine_time: self.refine_time.div_f64(q),
            avg_stages: self
                .stages
                .iter()
                .map(|s| AveragedStage {
                    name: s.name,
                    avg_evaluated: s.evaluated as f64 / q,
                    avg_pruned: s.pruned as f64 / q,
                    avg_time: s.time.div_f64(q),
                })
                .collect(),
            latency: self.latency.clone(),
        }
    }
}

/// Every deterministic counter of one query's [`SearchStats`]: per-stage
/// `(name, evaluated, pruned)`, then refined, cutoffs, cells skipped and
/// results. Timings are left out.
#[cfg(test)]
pub(crate) type Counters = (Vec<(&'static str, usize, usize)>, usize, usize, u64, usize);

#[cfg(test)]
impl SearchStats {
    /// The query's [`Counters`], for equality checks between two runs.
    pub(crate) fn counters(&self) -> Counters {
        (
            self.stages
                .iter()
                .map(|s| (s.name, s.evaluated, s.pruned))
                .collect(),
            self.refined,
            self.refine_cutoffs,
            self.refine_bands_skipped,
            self.results,
        )
    }
}

impl fmt::Display for StageStats {
    /// One funnel line: `stage   size: evaluated     60, pruned     40 (1.2µs)`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "stage {:>6}: evaluated {:>6}, pruned {:>6} ({:.1?})",
            self.name, self.evaluated, self.pruned, self.time
        )
    }
}

impl fmt::Display for SearchStats {
    /// The CLI/report rendering: a summary line, then — for multi-stage
    /// cascades — one indented funnel line per stage. No trailing newline.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "-- {} results; accessed {}/{} trees ({:.2}%); filter {:.1?}, refine {:.1?}",
            self.results,
            self.refined,
            self.dataset_size,
            self.accessed_percent(),
            self.filter_time,
            self.refine_time,
        )?;
        if self.refine_cutoffs > 0 {
            write!(
                f,
                "; {} refinements cut off at τ ({} cells skipped)",
                self.refine_cutoffs, self.refine_bands_skipped,
            )?;
        }
        if !self.latency.is_empty() {
            write!(
                f,
                "; latency p50 {}µs, p90 {}µs, p99 {}µs",
                self.latency.p50_us(),
                self.latency.p90_us(),
                self.latency.p99_us(),
            )?;
        }
        if self.stages.len() > 1 {
            for stage in &self.stages {
                write!(f, "\n--   {stage}")?;
            }
        }
        Ok(())
    }
}

/// One cascade stage averaged over a workload.
#[derive(Debug, Clone, PartialEq)]
pub struct AveragedStage {
    /// Stage name.
    pub name: &'static str,
    /// Mean bounds computed per query at this stage.
    pub avg_evaluated: f64,
    /// Mean candidates pruned per query at this stage.
    pub avg_pruned: f64,
    /// Mean wall-clock per query at this stage.
    pub avg_time: Duration,
}

/// Workload-averaged statistics (the paper averages over 100 queries).
#[derive(Debug, Clone, PartialEq)]
pub struct AveragedStats {
    /// Number of queries averaged over.
    pub queries: usize,
    /// Dataset size.
    pub dataset_size: usize,
    /// Mean number of refined (accessed) trees per query.
    pub avg_refined: f64,
    /// Mean result-set size per query.
    pub avg_results: f64,
    /// Mean accessed-data percentage per query.
    pub avg_accessed_percent: f64,
    /// Mean result percentage per query.
    pub avg_result_percent: f64,
    /// Mean filtering time per query.
    pub avg_filter_time: Duration,
    /// Mean refinement time per query.
    pub avg_refine_time: Duration,
    /// Mean per-stage cascade breakdown.
    pub avg_stages: Vec<AveragedStage>,
    /// The accumulated per-query latency distribution (quantiles are not
    /// averaged — they come straight from the accumulator's buckets).
    pub latency: LatencyBuckets,
}

impl AveragedStats {
    /// Mean total time per query.
    pub fn avg_total_time(&self) -> Duration {
        self.avg_filter_time + self.avg_refine_time
    }
}

impl fmt::Display for AveragedStage {
    /// One averaged funnel line:
    /// `stage   size: avg evaluated    400.00, avg pruned    340.00 (1.2µs)`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "stage {:>6}: avg evaluated {:>9.2}, avg pruned {:>9.2} ({:.1?})",
            self.name, self.avg_evaluated, self.avg_pruned, self.avg_time
        )
    }
}

impl fmt::Display for AveragedStats {
    /// Workload rendering: one summary line, then — for multi-stage
    /// cascades — one indented funnel line per stage. No trailing newline.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "-- {} queries over {} trees; avg accessed {:.2}% ({:.1} trees), avg results {:.1}; avg filter {:.1?}, avg refine {:.1?}",
            self.queries,
            self.dataset_size,
            self.avg_accessed_percent,
            self.avg_refined,
            self.avg_results,
            self.avg_filter_time,
            self.avg_refine_time,
        )?;
        if !self.latency.is_empty() {
            write!(
                f,
                "\n--   latency p50 {}µs, p90 {}µs, p99 {}µs (max {}µs over {} samples)",
                self.latency.p50_us(),
                self.latency.p90_us(),
                self.latency.p99_us(),
                self.latency.max_us(),
                self.latency.count(),
            )?;
        }
        if self.avg_stages.len() > 1 {
            for stage in &self.avg_stages {
                write!(f, "\n--   {stage}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessed_percent_basic() {
        let stats = SearchStats {
            dataset_size: 200,
            refined: 10,
            results: 5,
            ..Default::default()
        };
        assert!((stats.accessed_percent() - 5.0).abs() < 1e-12);
        assert!((stats.result_percent() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn empty_dataset_is_zero_percent() {
        let stats = SearchStats::default();
        assert_eq!(stats.accessed_percent(), 0.0);
        assert_eq!(stats.result_percent(), 0.0);
        assert_eq!(stats.final_stage_evaluated(), 0);
    }

    #[test]
    fn accumulate_and_average() {
        let mut total = SearchStats::default();
        for refined in [10, 20] {
            total.accumulate(&SearchStats {
                dataset_size: 100,
                refined,
                results: 5,
                filter_time: Duration::from_millis(2),
                refine_time: Duration::from_millis(8),
                ..Default::default()
            });
        }
        assert_eq!(total.refined, 30);
        assert_eq!(total.dataset_size, 100);
        let averaged = total.averaged(2);
        assert!((averaged.avg_refined - 15.0).abs() < 1e-12);
        assert!((averaged.avg_accessed_percent - 15.0).abs() < 1e-12);
        assert_eq!(averaged.avg_total_time(), Duration::from_millis(10));
    }

    #[test]
    fn accumulate_merges_stages() {
        let per_query = |evaluated, pruned| SearchStats {
            dataset_size: 50,
            stages: vec![
                StageStats {
                    name: "size",
                    evaluated,
                    pruned,
                    time: Duration::from_micros(3),
                },
                StageStats {
                    name: "propt",
                    evaluated: evaluated - pruned,
                    pruned: 1,
                    time: Duration::from_micros(9),
                },
            ],
            ..Default::default()
        };
        let mut total = SearchStats::default();
        total.accumulate(&per_query(50, 30));
        total.accumulate(&per_query(50, 10));
        assert_eq!(total.stages[0].evaluated, 100);
        assert_eq!(total.stages[0].pruned, 40);
        assert_eq!(total.stages[1].evaluated, 60);
        assert_eq!(total.final_stage_evaluated(), 60);
        assert_eq!(total.stages[0].survivors(), 60);
        let averaged = total.averaged(2);
        assert_eq!(averaged.avg_stages.len(), 2);
        assert!((averaged.avg_stages[0].avg_evaluated - 50.0).abs() < 1e-12);
        assert!((averaged.avg_stages[1].avg_pruned - 1.0).abs() < 1e-12);
    }

    #[test]
    fn accumulate_sums_cutoff_fields_and_display_reports_them() {
        let mut total = SearchStats::default();
        for (cutoffs, bands) in [(3usize, 40u64), (2, 17)] {
            total.accumulate(&SearchStats {
                dataset_size: 100,
                refined: 10,
                refine_cutoffs: cutoffs,
                refine_bands_skipped: bands,
                ..Default::default()
            });
        }
        assert_eq!(total.refine_cutoffs, 5);
        assert_eq!(total.refine_bands_skipped, 57);
        let rendered = format!("{total}");
        assert!(
            rendered.contains("5 refinements cut off") && rendered.contains("57 cells skipped"),
            "missing cutoff clause in: {rendered}"
        );
        // The clause is omitted entirely when no refinement was cut off.
        let quiet = format!("{}", SearchStats::default());
        assert!(!quiet.contains("cut off"));
    }

    #[test]
    #[should_panic(expected = "different datasets")]
    fn accumulate_rejects_mixed_datasets() {
        let mut total = SearchStats {
            dataset_size: 10,
            ..Default::default()
        };
        total.accumulate(&SearchStats {
            dataset_size: 20,
            ..Default::default()
        });
    }

    #[test]
    fn display_renders_summary_and_funnel() {
        let stats = SearchStats {
            dataset_size: 200,
            refined: 10,
            refine_cutoffs: 0,
            refine_bands_skipped: 0,
            results: 5,
            filter_time: Duration::from_micros(120),
            refine_time: Duration::from_micros(480),
            stages: vec![
                StageStats {
                    name: "size",
                    evaluated: 200,
                    pruned: 150,
                    time: Duration::from_micros(20),
                },
                StageStats {
                    name: "propt",
                    evaluated: 50,
                    pruned: 40,
                    time: Duration::from_micros(100),
                },
            ],
            threads: 1,
            latency: LatencyBuckets::default(),
        };
        let rendered = format!("{stats}");
        assert!(rendered.starts_with("-- 5 results; accessed 10/200 trees (5.00%)"));
        assert!(rendered.contains("stage   size: evaluated    200, pruned    150"));
        assert!(rendered.contains("stage  propt: evaluated     50, pruned     40"));
        assert!(!rendered.ends_with('\n'));

        // Single-stage engines render just the summary line.
        let mut flat = stats.clone();
        flat.stages.truncate(1);
        assert!(!format!("{flat}").contains("stage"));

        let averaged = stats.averaged(2);
        let rendered = format!("{averaged}");
        assert!(rendered.starts_with("-- 2 queries over 200 trees"));
        assert!(rendered.contains("avg evaluated    100.00"));
        assert!(rendered.contains("avg pruned     20.00"));
    }

    #[test]
    fn record_metrics_accumulates_funnel_counters() {
        let stats = SearchStats {
            dataset_size: 100,
            refined: 7,
            results: 3,
            stages: vec![
                StageStats {
                    name: "size",
                    evaluated: 100,
                    pruned: 80,
                    time: Duration::from_micros(5),
                },
                StageStats {
                    name: "propt",
                    evaluated: 20,
                    pruned: 13,
                    time: Duration::from_micros(15),
                },
            ],
            ..Default::default()
        };
        let before = treesim_obs::metrics::snapshot();
        stats.record_metrics("test.stats");
        let after = treesim_obs::metrics::snapshot();
        assert_eq!(after.counter_delta(&before, "test.stats.queries"), 1);
        assert_eq!(after.counter_delta(&before, "test.stats.refined"), 7);
        assert_eq!(after.counter_delta(&before, "test.stats.results"), 3);
        // The shared cascade funnel counters may also be bumped by engine
        // tests running in parallel, so deltas are lower bounds here.
        assert!(after.counter_delta(&before, "cascade.size.evaluated") >= 100);
        assert!(after.counter_delta(&before, "cascade.propt.pruned") >= 13);
        assert!(after
            .histogram("test.stats.filter.us")
            .is_some_and(|h| h.count >= 1));
    }

    #[test]
    fn accumulate_builds_latency_distribution() {
        let mut total = SearchStats::default();
        assert!(total.latency.is_empty());
        // 9 fast queries (~100µs) and one slow outlier (~100ms).
        for _ in 0..9 {
            total.accumulate(&SearchStats {
                dataset_size: 50,
                filter_time: Duration::from_micros(40),
                refine_time: Duration::from_micros(60),
                ..Default::default()
            });
        }
        total.accumulate(&SearchStats {
            dataset_size: 50,
            refine_time: Duration::from_millis(100),
            ..Default::default()
        });
        assert_eq!(total.latency.count(), 10);
        assert_eq!(total.latency.max_us(), 100_000);
        // p50/p90 land in the fast bucket (log₂ upper edge ≥ the 100µs
        // sample), p99 is the outlier clamped to the observed max.
        assert!(total.latency.p50_us() >= 100 && total.latency.p50_us() < 100_000);
        assert_eq!(total.latency.p90_us(), total.latency.p50_us());
        assert_eq!(total.latency.p99_us(), 100_000);

        // Merging two accumulators combines distributions.
        let mut grand = SearchStats::default();
        grand.accumulate(&total);
        grand.accumulate(&total);
        assert_eq!(grand.latency.count(), 20);
        assert_eq!(grand.latency.p99_us(), 100_000);

        // The averaged view carries the distribution and renders it.
        let averaged = total.averaged(10);
        let rendered = format!("{averaged}");
        assert!(rendered.contains("latency p50"), "{rendered}");
        assert!(rendered.contains("p99 100000µs"), "{rendered}");

        // Per-query stats (empty buckets) never render a latency clause.
        assert!(!format!("{}", SearchStats::default()).contains("latency"));
        let rendered = format!("{total}");
        assert!(rendered.contains("latency p50"), "{rendered}");
    }

    #[test]
    fn latency_quantiles_edge_cases() {
        let empty = LatencyBuckets::default();
        assert_eq!(empty.quantile_us(0.5), 0);
        assert_eq!(empty.count(), 0);
        let mut one = LatencyBuckets::default();
        one.record_micros(250);
        assert_eq!(one.p50_us(), 250);
        assert_eq!(one.p99_us(), 250);
        assert_eq!(one.quantile_us(0.0), 250); // rank clamps to 1
        assert_eq!(one.quantile_us(1.0), 250);
    }

    #[test]
    fn accumulate_tracks_thread_pool_size() {
        let mut total = SearchStats::default();
        assert_eq!(total.threads, 1);
        total.accumulate(&SearchStats {
            dataset_size: 5,
            threads: 4,
            ..Default::default()
        });
        assert_eq!(total.threads, 4);
    }
}
