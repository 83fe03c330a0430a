//! Approximate similarity join — one of the operations the paper's
//! introduction motivates (approximate join, data cleansing, integration).
//!
//! A τ-join reports every pair of trees within edit distance τ. The
//! filter-and-refine strategy runs one row per left tree: the O(1) size
//! bound picks the row's partners from size buckets ([`JoinPartners`]),
//! the filter narrows them to the pairs it cannot prune
//! ([`Filter::join_candidates`]; [`crate::PostingsFilter`] generates them
//! from its inverted lists, DESIGN §10), and only those reach refinement
//! — which runs the *bounded* Zhang–Shasha DP
//! ([`treesim_edit::bounded_zhang_shasha`]) with the join radius (or, for
//! [`closest_pairs`], the running k-th pair distance) as its budget, so
//! pairs whose distance provably exceeds the threshold abandon the DP
//! early without changing any result.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use treesim_edit::{bounded_zhang_shasha, TreeInfo, UnitCost, ZsWorkspace};
use treesim_tree::{Forest, TreeId};

use crate::filter::Filter;

/// One join result: a pair of trees within the join radius.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinPair {
    /// The pair. For self-joins, `left < right`. For cross-joins the pair
    /// keeps its (left-partition, right-partition) orientation — except
    /// that self-pairs (`l == r`) are never emitted, and when the
    /// partitions overlap so that *both* orientations of a pair qualify,
    /// only the `left < right` copy is reported.
    pub left: TreeId,
    /// Right partner.
    pub right: TreeId,
    /// Exact edit distance (≤ τ).
    pub distance: u64,
}

/// Counters describing the join's filtering effectiveness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JoinStats {
    /// Candidate pairs considered: the pairs that pass the trivial size
    /// pre-filter (`| |l|−|r| | ≤ τ`), however few of them the filter
    /// actually evaluates (every pair for [`closest_pairs`]).
    pub pairs_considered: usize,
    /// Pairs surviving the filter (refinement DPs started).
    pub pairs_refined: usize,
    /// Pairs in the result.
    pub pairs_joined: usize,
    /// Refinements the bounded DP cut off at the live threshold without
    /// producing an exact distance (counted in `pairs_refined` too).
    pub pairs_cutoff: usize,
    /// DP cells the bounded refinement skipped across all pairs (band +
    /// subproblem pruning).
    pub cells_skipped: u64,
}

impl JoinStats {
    /// Fraction of considered pairs that needed refinement.
    pub fn refine_fraction(&self) -> f64 {
        if self.pairs_considered == 0 {
            0.0
        } else {
            self.pairs_refined as f64 / self.pairs_considered as f64
        }
    }

    /// Flushes the counters into the global `treesim-obs` registry,
    /// following the `treesim_obs::naming` grammar: `join.queries` counts
    /// join invocations, `join.pairs.{considered,refined,joined,cutoffs}`
    /// mirror the per-call fields, and `join.cells_skipped` totals the
    /// bounded-DP savings. Each name resolves once per call site.
    pub(crate) fn record(&self) {
        use treesim_obs::counter;
        counter!("join.queries").inc();
        counter!("join.pairs.considered").add(self.pairs_considered as u64);
        counter!("join.pairs.refined").add(self.pairs_refined as u64);
        counter!("join.pairs.joined").add(self.pairs_joined as u64);
        counter!("join.pairs.cutoffs").add(self.pairs_cutoff as u64);
        counter!("join.cells_skipped").add(self.cells_skipped);
    }
}

/// Memoizes `TreeInfo::new(forest.tree(id))` in `infos[id]`, so only
/// trees that actually reach a refinement pay artifact construction.
fn ensure_info(infos: &mut [Option<TreeInfo>], forest: &Forest, id: TreeId) {
    if infos[id.index()].is_none() {
        infos[id.index()] = Some(TreeInfo::new(forest.tree(id)));
    }
}

/// Similarity self-join: all unordered pairs `{i, j}` with
/// `EDist(Ti, Tj) ≤ tau`, reported with `left < right`.
///
/// # Examples
///
/// ```
/// use treesim_search::{similarity_self_join, BiBranchFilter, BiBranchMode};
/// use treesim_tree::Forest;
///
/// let mut forest = Forest::new();
/// forest.parse_bracket("a(b c)").unwrap();
/// forest.parse_bracket("a(b d)").unwrap(); // 1 edit away from the first
/// forest.parse_bracket("x(y z w)").unwrap();
///
/// let filter = BiBranchFilter::build(&forest, 2, BiBranchMode::Positional);
/// let (pairs, stats) = similarity_self_join(&forest, &filter, 1);
/// assert_eq!(pairs.len(), 1);
/// assert_eq!(pairs[0].distance, 1);
/// assert!(stats.pairs_refined <= stats.pairs_considered);
/// ```
pub fn similarity_self_join<F: Filter>(
    forest: &Forest,
    filter: &F,
    tau: u32,
) -> (Vec<JoinPair>, JoinStats) {
    // Trace before span (the span must close before the trace finalizes);
    // inert when an enclosing trace is already live.
    let _trace = treesim_obs::trace::start_trace();
    let _span = treesim_obs::span!("join.self", tau = tau, trees = forest.len());
    let ids: Vec<TreeId> = forest.iter().map(|(id, _)| id).collect();
    join_partitions(forest, filter, &ids, &ids, tau)
}

/// Similarity join between two id sets over the same forest (e.g., two
/// sources loaded into one label space for data integration):
/// all pairs `(l, r)` with `l ∈ left`, `r ∈ right`, `EDist ≤ tau`.
/// Both sides are sets: an id listed twice on one side counts once.
pub fn similarity_join<F: Filter>(
    forest: &Forest,
    filter: &F,
    left: &[TreeId],
    right: &[TreeId],
    tau: u32,
) -> (Vec<JoinPair>, JoinStats) {
    // Trace before span, as in `similarity_self_join`.
    let _trace = treesim_obs::trace::start_trace();
    let _span = treesim_obs::span!(
        "join.cross",
        tau = tau,
        left = left.len(),
        right = right.len()
    );
    join_partitions(forest, filter, left, right, tau)
}

/// The `k` closest pairs of distinct trees (a top-k self-join): optimal
/// multi-step over pair lower bounds, refining in ascending-bound order and
/// stopping once no remaining pair can beat the current k-th distance.
///
/// The pair bounds are *heapified*, not fully sorted — only the pairs
/// actually popped before the stop condition pay ordering cost — and
/// [`TreeInfo`] artifacts are built lazily, only for trees that reach a
/// refinement. Each refinement runs the bounded DP with the running k-th
/// pair distance as its budget, so provably-worse pairs abandon early.
pub fn closest_pairs<F: Filter>(
    forest: &Forest,
    filter: &F,
    k: usize,
) -> (Vec<JoinPair>, JoinStats) {
    // Trace before span, as in `similarity_self_join`.
    let _trace = treesim_obs::trace::start_trace();
    let _span = treesim_obs::span!("join.closest", k = k, trees = forest.len());
    let mut stats = JoinStats::default();
    if k == 0 || forest.len() < 2 {
        stats.record();
        return (Vec::new(), stats);
    }
    let ids: Vec<TreeId> = forest.iter().map(|(id, _)| id).collect();
    // Pair lower bounds (each query artifact prepared once). `Reverse`
    // makes the max-heap pop in ascending (bound, l, r) order — the same
    // order the previous full sort visited, so results and refinement
    // counts are identical.
    let mut bounds: Vec<Reverse<(u64, TreeId, TreeId)>> = Vec::new();
    for (position, &l) in ids.iter().enumerate() {
        let query = filter.prepare_query(forest.tree(l));
        for &r in &ids[position + 1..] {
            bounds.push(Reverse((filter.lower_bound(&query, r), l, r)));
            stats.pairs_considered += 1;
        }
    }
    let mut frontier = BinaryHeap::from(bounds);

    let mut infos: Vec<Option<TreeInfo>> = (0..forest.len()).map(|_| None).collect();
    let mut workspace = ZsWorkspace::new();
    let mut heap: BinaryHeap<(u64, TreeId, TreeId)> = BinaryHeap::with_capacity(k + 1);
    while let Some(Reverse((bound, l, r))) = frontier.pop() {
        // The running k-th distance is both the optimal multi-step stop
        // condition and the refinement budget. Equal distances must still
        // refine exactly: a pair at `worst` can evict the incumbent on the
        // (distance, l, r) tie-break, and `bounded_zhang_shasha` returns
        // the exact distance whenever it is ≤ the budget.
        let budget = match heap.peek() {
            Some(&(worst, _, _)) if heap.len() == k => {
                if bound > worst {
                    break;
                }
                worst
            }
            _ => u64::MAX,
        };
        ensure_info(&mut infos, forest, l);
        ensure_info(&mut infos, forest, r);
        let (Some(info_l), Some(info_r)) = (infos[l.index()].as_ref(), infos[r.index()].as_ref())
        else {
            continue; // unreachable: both slots were just memoized
        };
        let (refined, bstats) =
            bounded_zhang_shasha(info_l, info_r, &UnitCost, budget, &mut workspace);
        stats.pairs_refined += 1;
        stats.cells_skipped += bstats.cells_skipped;
        #[cfg(feature = "strict-checks")]
        {
            let oracle = treesim_edit::zhang_shasha(info_l, info_r, &UnitCost, &mut workspace);
            match refined {
                Some(d) => debug_assert_eq!(d, oracle, "bounded DP disagrees with oracle"),
                None => debug_assert!(oracle > budget, "false dismissal: {oracle} <= {budget}"),
            }
        }
        match refined {
            Some(distance) => {
                heap.push((distance, l, r));
                if heap.len() > k {
                    heap.pop();
                }
            }
            None => stats.pairs_cutoff += 1,
        }
    }
    let mut results: Vec<JoinPair> = heap
        .into_iter()
        .map(|(distance, left, right)| JoinPair {
            left,
            right,
            distance,
        })
        .collect();
    results.sort_unstable_by_key(|p| (p.distance, p.left, p.right));
    stats.pairs_joined = results.len();
    stats.record();
    (results, stats)
}

/// Ids of one join side, sorted by `(size, id)`: each distinct tree size
/// owns one contiguous run, so a size window is a short range of runs.
#[derive(Debug)]
struct SizeRuns {
    ids: Vec<TreeId>,
    /// `(size, start)` per distinct size, ascending; run `k` spans
    /// `ids[start_k..start_{k+1}]` (the last one runs to the end).
    runs: Vec<(u32, usize)>,
}

impl SizeRuns {
    fn new(mut ids: Vec<TreeId>, sizes: &[u32]) -> Self {
        ids.sort_unstable_by_key(|id| (sizes[id.index()], *id));
        let mut runs: Vec<(u32, usize)> = Vec::new();
        for (position, id) in ids.iter().enumerate() {
            let size = sizes[id.index()];
            if runs.last().map_or(true, |&(last, _)| last != size) {
                runs.push((size, position));
            }
        }
        SizeRuns { ids, runs }
    }

    /// The runs of trees with size in `lo..=hi`, each ascending by id.
    fn window(&self, lo: u32, hi: u32) -> impl Iterator<Item = &[TreeId]> + '_ {
        let first = self.runs.partition_point(|&(size, _)| size < lo);
        let last = self.runs.partition_point(|&(size, _)| size <= hi);
        (first..last).map(move |k| {
            let begin = self.runs[k].1;
            let end = self
                .runs
                .get(k + 1)
                .map_or(self.ids.len(), |&(_, start)| start);
            &self.ids[begin..end]
        })
    }
}

/// The partner side of one join call, bucketed by tree size.
///
/// For a left tree `l`, the *partners* are the right-side trees `r` with
/// `| |l| − |r| | ≤ τ` (the size pre-filter, since `EDist ≥ | |l|−|r| |`)
/// and `r ≠ l`; when both orientations of `{l, r}` qualify (overlapping
/// partitions), only the `l < r` orientation is a partner. A self-join is
/// the cross-join of the forest with itself, so there the partners of `l`
/// are the size-compatible trees after it. Every partner pair is counted
/// in [`JoinStats::pairs_considered`]; [`Filter::join_candidates`] narrows
/// the partners to the pairs that reach refinement.
#[derive(Debug)]
pub struct JoinPartners<'a> {
    forest: &'a Forest,
    tau: u32,
    sizes: Vec<u32>,
    right: SizeRuns,
    /// Trees on both sides: the partners a right-side `l` loses to the
    /// mirror rule are exactly the ones before it here.
    both: SizeRuns,
    in_left: Vec<bool>,
    in_right: Vec<bool>,
    /// Every right-side tree is also a left-side tree (self-joins), so a
    /// right-side `l` has no partner before it.
    right_within_left: bool,
}

impl<'a> JoinPartners<'a> {
    /// Buckets the `right` side of a `left × right` join at radius `tau`.
    /// Neither side may list an id twice.
    fn new(forest: &'a Forest, left: &[TreeId], right: &[TreeId], tau: u32) -> Self {
        let sizes: Vec<u32> = forest.iter().map(|(_, t)| t.len() as u32).collect();
        let mut in_left = vec![false; forest.len()];
        for id in left {
            in_left[id.index()] = true;
        }
        let mut in_right = vec![false; forest.len()];
        for id in right {
            in_right[id.index()] = true;
        }
        let both: Vec<TreeId> = right
            .iter()
            .copied()
            .filter(|id| in_left[id.index()])
            .collect();
        JoinPartners {
            forest,
            tau,
            right_within_left: both.len() == right.len(),
            right: SizeRuns::new(right.to_vec(), &sizes),
            both: SizeRuns::new(both, &sizes),
            sizes,
            in_left,
            in_right,
        }
    }

    /// The joined forest.
    pub(crate) fn forest(&self) -> &'a Forest {
        self.forest
    }

    /// The join radius τ.
    pub(crate) fn tau(&self) -> u32 {
        self.tau
    }

    /// The size window `|l| − τ ..= |l| + τ` of `left`'s partners.
    fn window_sizes(&self, left: TreeId) -> (u32, u32) {
        let size = self.sizes[left.index()];
        (size.saturating_sub(self.tau), size.saturating_add(self.tau))
    }

    /// Whether `right` being before `left` rules it out by the mirror rule.
    fn mirrored(&self, left: TreeId, right: TreeId) -> bool {
        right < left && self.in_right[left.index()] && self.in_left[right.index()]
    }

    /// The smallest tree id that can be a partner of `left`: a self-join
    /// starts after `left`, every other join at tree 0.
    pub(crate) fn first_partner(&self, left: TreeId) -> TreeId {
        if self.right_within_left && self.in_right[left.index()] {
            TreeId(left.0.saturating_add(1))
        } else {
            TreeId(0)
        }
    }

    /// Whether `right` is a partner of `left`.
    pub(crate) fn admits(&self, left: TreeId, right: TreeId) -> bool {
        let (lo, hi) = self.window_sizes(left);
        (lo..=hi).contains(&self.sizes[right.index()])
            && self.in_right[right.index()]
            && right != left
            && !self.mirrored(left, right)
    }

    /// Every partner of `left`, ascending by `(size, id)`.
    pub(crate) fn window(&self, left: TreeId) -> impl Iterator<Item = TreeId> + '_ {
        self.window_up_to(left, u32::MAX)
    }

    /// The partners of `left` whose size is at most `max_size`, ascending
    /// by `(size, id)`.
    pub(crate) fn window_up_to(
        &self,
        left: TreeId,
        max_size: u32,
    ) -> impl Iterator<Item = TreeId> + '_ {
        let (lo, hi) = self.window_sizes(left);
        let first = self.first_partner(left);
        self.right
            .window(lo, hi.min(max_size))
            .flat_map(move |run| &run[run.partition_point(|&id| id < first)..])
            .copied()
            .filter(move |&right| right != left && !self.mirrored(left, right))
    }

    /// `left`'s partner count, from the run lengths alone: the window's
    /// right-side trees, less `left` itself and, when `left` is on the
    /// right side too, the trees on both sides before it.
    fn count(&self, left: TreeId) -> usize {
        let (lo, hi) = self.window_sizes(left);
        let window: usize = self.right.window(lo, hi).map(<[TreeId]>::len).sum();
        if !self.in_right[left.index()] {
            return window;
        }
        let mirrored: usize = self
            .both
            .window(lo, hi)
            .map(|run| run.partition_point(|&id| id < left))
            .sum();
        window - 1 - mirrored
    }
}

/// Per-join scratch that [`Filter::join_candidates`] overrides reuse
/// across rows, so a join allocates its lane table once.
#[derive(Debug, Default)]
pub struct JoinScratch {
    /// Shared branch mass per tree id; all zero between rows.
    pub(crate) mass: Vec<u64>,
    /// The lanes the current row made nonzero.
    pub(crate) touched: Vec<TreeId>,
}

fn join_partitions<F: Filter>(
    forest: &Forest,
    filter: &F,
    left: &[TreeId],
    right: &[TreeId],
    tau: u32,
) -> (Vec<JoinPair>, JoinStats) {
    let sorted = |ids: &[TreeId]| {
        let mut ids = ids.to_vec();
        ids.sort_unstable();
        ids.dedup();
        ids
    };
    let left = sorted(left);
    let partners = JoinPartners::new(forest, &left, &sorted(right), tau);
    let mut scratch = JoinScratch::default();
    let mut candidates: Vec<TreeId> = Vec::new();
    let mut infos: Vec<Option<TreeInfo>> = (0..forest.len()).map(|_| None).collect();
    let mut workspace = ZsWorkspace::new();
    let mut stats = JoinStats::default();
    let mut results = Vec::new();

    for &l in &left {
        stats.pairs_considered += partners.count(l);
        candidates.clear();
        filter.join_candidates(&partners, l, &mut scratch, &mut candidates);
        for &r in &candidates {
            stats.pairs_refined += 1;
            ensure_info(&mut infos, forest, l);
            ensure_info(&mut infos, forest, r);
            let (Some(info_l), Some(info_r)) =
                (infos[l.index()].as_ref(), infos[r.index()].as_ref())
            else {
                continue; // unreachable: both slots were just memoized
            };
            // The join radius is the refinement budget: `Some(d)` iff
            // `d ≤ τ`, so every completed refinement is a join result.
            let (refined, bstats) =
                bounded_zhang_shasha(info_l, info_r, &UnitCost, u64::from(tau), &mut workspace);
            stats.cells_skipped += bstats.cells_skipped;
            #[cfg(feature = "strict-checks")]
            {
                let oracle = treesim_edit::zhang_shasha(info_l, info_r, &UnitCost, &mut workspace);
                match refined {
                    Some(d) => debug_assert_eq!(d, oracle, "bounded DP disagrees with oracle"),
                    None => debug_assert!(
                        oracle > u64::from(tau),
                        "false dismissal: {oracle} <= {tau}"
                    ),
                }
            }
            match refined {
                Some(distance) => {
                    stats.pairs_joined += 1;
                    results.push(JoinPair {
                        left: l,
                        right: r,
                        distance,
                    });
                }
                None => stats.pairs_cutoff += 1,
            }
        }
    }
    results.sort_unstable_by_key(|p| (p.left, p.right));
    stats.record();
    (results, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::{BiBranchFilter, BiBranchMode, HistogramFilter, NoFilter};
    use treesim_edit::edit_distance;

    /// Serializes this module's tests: every one runs a join, and one of
    /// them asserts exact deltas of the global `join.*` counters.
    fn registry_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn forest() -> Forest {
        let mut forest = Forest::new();
        for spec in [
            "a(b(c(d)) b e)",
            "a(c(d) b e)",
            "a(b(c(d)) b e)", // duplicate of 0
            "x(y z)",
            "a(b c)",
            "a(b(c(d)) b e f)",
        ] {
            forest.parse_bracket(spec).unwrap();
        }
        forest
    }

    fn brute_force_pairs(forest: &Forest, tau: u32) -> Vec<(TreeId, TreeId, u64)> {
        let mut out = Vec::new();
        for (i, t1) in forest.iter() {
            for (j, t2) in forest.iter() {
                if j <= i {
                    continue;
                }
                let d = edit_distance(t1, t2);
                if d <= u64::from(tau) {
                    out.push((i, j, d));
                }
            }
        }
        out
    }

    #[test]
    fn self_join_matches_brute_force() {
        let _registry = registry_lock();
        let forest = forest();
        let filter = BiBranchFilter::build(&forest, 2, BiBranchMode::Positional);
        for tau in [0u32, 1, 2, 4] {
            let (pairs, stats) = similarity_self_join(&forest, &filter, tau);
            let expected = brute_force_pairs(&forest, tau);
            let got: Vec<(TreeId, TreeId, u64)> = pairs
                .iter()
                .map(|p| (p.left, p.right, p.distance))
                .collect();
            assert_eq!(got, expected, "τ={tau}");
            assert_eq!(stats.pairs_joined, expected.len());
            assert!(stats.pairs_refined <= stats.pairs_considered);
        }
    }

    #[test]
    fn zero_tau_finds_duplicates() {
        let _registry = registry_lock();
        let forest = forest();
        let filter = BiBranchFilter::build(&forest, 2, BiBranchMode::Positional);
        let (pairs, _) = similarity_self_join(&forest, &filter, 0);
        assert_eq!(pairs.len(), 1);
        assert_eq!((pairs[0].left, pairs[0].right), (TreeId(0), TreeId(2)));
    }

    #[test]
    fn filter_reduces_refinements() {
        let _registry = registry_lock();
        let forest = forest();
        let bibranch = BiBranchFilter::build(&forest, 2, BiBranchMode::Positional);
        let none = NoFilter::build(&forest);
        let (_, with_filter) = similarity_self_join(&forest, &bibranch, 1);
        let (_, without) = similarity_self_join(&forest, &none, 1);
        assert!(with_filter.pairs_refined < without.pairs_refined);
        assert_eq!(with_filter.pairs_joined, without.pairs_joined);
        assert!(with_filter.refine_fraction() <= 1.0);
    }

    #[test]
    fn cross_join_partitions() {
        let _registry = registry_lock();
        let forest = forest();
        let filter = HistogramFilter::build(&forest);
        let left = [TreeId(0), TreeId(1)];
        let right = [TreeId(2), TreeId(3), TreeId(5)];
        let (pairs, _) = similarity_join(&forest, &filter, &left, &right, 2);
        // Verify against direct computation.
        for pair in &pairs {
            assert!(left.contains(&pair.left));
            assert!(right.contains(&pair.right));
            assert_eq!(
                pair.distance,
                edit_distance(forest.tree(pair.left), forest.tree(pair.right))
            );
            assert!(pair.distance <= 2);
        }
        // (0,2) duplicate pair at distance 0, (1,2)? EDist(1,2)=1, (0,5) d=1, (1,5) d=2.
        assert!(pairs
            .iter()
            .any(|p| p.left == TreeId(0) && p.right == TreeId(2) && p.distance == 0));
        assert!(pairs
            .iter()
            .any(|p| p.left == TreeId(0) && p.right == TreeId(5) && p.distance == 1));
    }

    #[test]
    fn empty_partitions() {
        let _registry = registry_lock();
        let forest = forest();
        let filter = NoFilter::build(&forest);
        let (pairs, stats) = similarity_join(&forest, &filter, &[], &[TreeId(0)], 3);
        assert!(pairs.is_empty());
        assert_eq!(stats.pairs_considered, 0);
        assert_eq!(stats.refine_fraction(), 0.0);
    }

    #[test]
    fn overlapping_partitions_dedup_and_skip_self_pairs() {
        let _registry = registry_lock();
        let forest = forest();
        let filter = HistogramFilter::build(&forest);
        let left = [TreeId(0), TreeId(1), TreeId(2)];
        let right = [TreeId(1), TreeId(2), TreeId(3), TreeId(0)];
        let (pairs, stats) = similarity_join(&forest, &filter, &left, &right, 4);
        // Never a self-pair, and each unordered pair appears exactly once.
        assert!(pairs.iter().all(|p| p.left != p.right));
        let mut unordered: Vec<(TreeId, TreeId)> = pairs
            .iter()
            .map(|p| (p.left.min(p.right), p.left.max(p.right)))
            .collect();
        let emitted = unordered.len();
        unordered.sort_unstable();
        unordered.dedup();
        assert_eq!(emitted, unordered.len(), "duplicate orientations emitted");
        // Pairs whose mirror also qualifies are reported `left < right`.
        for p in &pairs {
            if right.contains(&p.left) && left.contains(&p.right) {
                assert!(p.left < p.right);
            }
        }
        // The normalized result set matches brute force over all
        // qualifying unordered pairs.
        let mut expected: Vec<(TreeId, TreeId, u64)> = Vec::new();
        for (i, t1) in forest.iter() {
            for (j, t2) in forest.iter() {
                if j <= i {
                    continue;
                }
                let qualifies = (left.contains(&i) && right.contains(&j))
                    || (left.contains(&j) && right.contains(&i));
                if !qualifies {
                    continue;
                }
                let d = edit_distance(t1, t2);
                if d <= 4 {
                    expected.push((i, j, d));
                }
            }
        }
        expected.sort_unstable();
        let mut got: Vec<(TreeId, TreeId, u64)> = pairs
            .iter()
            .map(|p| (p.left.min(p.right), p.left.max(p.right), p.distance))
            .collect();
        got.sort_unstable();
        assert_eq!(got, expected);
        assert!(stats.pairs_refined <= stats.pairs_considered);
    }

    #[test]
    fn join_counts_cutoffs_and_records_registry_counters() {
        let _registry = registry_lock();
        let forest = forest();
        let filter = NoFilter::build(&forest);
        let queries_before = treesim_obs::metrics::counter("join.queries").get();
        let joined_before = treesim_obs::metrics::counter("join.pairs.joined").get();
        let cutoffs_before = treesim_obs::metrics::counter("join.pairs.cutoffs").get();
        let (pairs, stats) = similarity_self_join(&forest, &filter, 1);
        // NoFilter sends every size-compatible pair to refinement; at τ=1
        // most exceed the radius, so the bounded DP cuts them off — and a
        // completed refinement is always a join result (`Some(d)` ⇔ d ≤ τ).
        assert!(stats.pairs_cutoff > 0);
        assert_eq!(stats.pairs_refined, stats.pairs_joined + stats.pairs_cutoff);
        assert_eq!(stats.pairs_joined, pairs.len());
        assert_eq!(
            treesim_obs::metrics::counter("join.queries").get(),
            queries_before + 1
        );
        assert_eq!(
            treesim_obs::metrics::counter("join.pairs.joined").get(),
            joined_before + stats.pairs_joined as u64
        );
        assert_eq!(
            treesim_obs::metrics::counter("join.pairs.cutoffs").get(),
            cutoffs_before + stats.pairs_cutoff as u64
        );
    }

    #[test]
    fn closest_pairs_match_brute_force() {
        let _registry = registry_lock();
        let forest = forest();
        let filter = BiBranchFilter::build(&forest, 2, BiBranchMode::Positional);
        // Brute-force all pair distances.
        let mut all: Vec<(u64, TreeId, TreeId)> = Vec::new();
        for (i, t1) in forest.iter() {
            for (j, t2) in forest.iter() {
                if j > i {
                    all.push((edit_distance(t1, t2), i, j));
                }
            }
        }
        all.sort_unstable();
        for k in [1usize, 3, 5, all.len()] {
            let (pairs, stats) = closest_pairs(&forest, &filter, k);
            // Exact tuples, not just distances: the lazy-artifact +
            // heapified-frontier implementation must reproduce the eager
            // sort's output bit for bit, ties included.
            let got: Vec<(u64, TreeId, TreeId)> = pairs
                .iter()
                .map(|p| (p.distance, p.left, p.right))
                .collect();
            let want: Vec<(u64, TreeId, TreeId)> = all.iter().take(k).copied().collect();
            assert_eq!(got, want, "k={k}");
            assert!(stats.pairs_refined <= stats.pairs_considered);
        }
    }

    #[test]
    fn closest_pairs_edge_cases() {
        let _registry = registry_lock();
        let forest = forest();
        let filter = NoFilter::build(&forest);
        assert!(closest_pairs(&forest, &filter, 0).0.is_empty());
        let mut tiny = Forest::new();
        tiny.parse_bracket("a").unwrap();
        let tiny_filter = NoFilter::build(&tiny);
        assert!(closest_pairs(&tiny, &tiny_filter, 3).0.is_empty());
    }
}
