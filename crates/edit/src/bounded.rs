//! Threshold-aware ("bounded") Zhang–Shasha.
//!
//! [`bounded_zhang_shasha`] answers the *decision-plus-value* question the
//! filter-and-refine cascade actually asks: given a live budget `τ` (the
//! range radius, the current k-th heap distance, a join radius), return the
//! exact distance when it is `≤ τ` and `None` as soon as the distance
//! provably exceeds `τ` — without paying for DP cells the budget already
//! rules out. The pruning ideas follow the bounded-TED line of work
//! (Jin, ICALP 2021; see PAPERS.md): with unit-ish costs a budget `τ`
//! confines the interesting part of each forest-distance table to a band of
//! width `O(τ)` around the diagonal.
//!
//! Three pruning layers, all exact (no false dismissals — see DESIGN §12):
//!
//! 1. **Entry cutoff**: the whole-tree size / height / leaf-count lower
//!    bounds of [`crate::bounds`] are checked before any DP memory is
//!    touched; if any exceeds `τ` the keyroot loop exits at iteration zero.
//! 2. **Subproblem skip**: a keyroot pair `(k1, k2)` only ever *writes*
//!    tree-distance cells for node pairs on its leftmost-leaf chains. If
//!    every such pair is unusable — its global prefix gap
//!    `|lml(k1) − lml(k2)|`, or the minimum global suffix gap over the
//!    subproblem's index rectangle, already exceeds the budget — the whole
//!    forest-distance subproblem is skipped.
//! 3. **Band pruning**: inside a subproblem, a forest pair whose sizes
//!    differ by more than `B = ⌊τ / min_op⌋` costs more than `τ`; only the
//!    `|di − dj| ≤ B` band is computed. Each row starts from the sentinel
//!    `τ + 1` at its left band edge and writes it just past its right edge,
//!    so the delete, insert and relabel reads need no band test; the split
//!    read of a forest cell tests the band once.
//!
//! Tree-distance cells are read unguarded: the table starts every call at
//! `τ + 1` and every cell written satisfies `c ≥ min(true, τ + 1)`, while the
//! root is at most what a kernel guarding every such read computes (exact
//! when `d ≤ τ`). So `Some(d)` is always the true distance and `None` is
//! returned iff the true distance exceeds `τ` (DESIGN §12).

use treesim_tree::Tree;

use crate::cost::{CostModel, UnitCost};
use crate::zhang_shasha::{zhang_shasha, TreeInfo, ZsWorkspace};

/// Work accounting for one [`bounded_zhang_shasha`] call.
///
/// `cells_computed + cells_skipped == cells_full` always holds, where a
/// "cell" is one inner-loop iteration of the classic DP (the unit
/// `refine.zs.nodes` is derived from).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BoundedStats {
    /// Forest-distance cells actually evaluated.
    pub cells_computed: u64,
    /// Cells the band / subproblem pruning skipped.
    pub cells_skipped: u64,
    /// Whole keyroot subproblems skipped without touching the matrices.
    pub subproblems_skipped: u64,
    /// Cells the unbounded DP would have evaluated for this tree pair.
    pub cells_full: u64,
    /// Whether the call returned `None` (distance proven `> τ`).
    pub cutoff: bool,
}

/// Unit-cost bounded tree edit distance.
///
/// Returns `Some(d)` with the exact Zhang–Shasha distance `d` when
/// `d ≤ tau`, and `None` iff the true distance exceeds `tau`.
///
/// # Examples
///
/// ```
/// use treesim_edit::ted_bounded;
/// use treesim_tree::{parse::bracket, LabelInterner};
///
/// let mut interner = LabelInterner::new();
/// let t1 = bracket::parse(&mut interner, "a(b(c d) e)").unwrap();
/// let t2 = bracket::parse(&mut interner, "a(b(c x) e)").unwrap();
/// assert_eq!(ted_bounded(&t1, &t2, 5), Some(1));
/// assert_eq!(ted_bounded(&t1, &t2, 0), None);
/// ```
pub fn ted_bounded(t1: &Tree, t2: &Tree, tau: u64) -> Option<u64> {
    let info1 = TreeInfo::new(t1);
    let info2 = TreeInfo::new(t2);
    let mut workspace = ZsWorkspace::new();
    bounded_zhang_shasha(&info1, &info2, &UnitCost, tau, &mut workspace).0
}

/// Bounded Zhang–Shasha over precomputed [`TreeInfo`]s, reusing `workspace`.
///
/// Semantics match [`ted_bounded`] generalized to any [`CostModel`]: the
/// first component is `Some(d)` with the exact distance iff `d ≤ tau`, else
/// `None`; the second reports how much of the DP was actually evaluated.
pub fn bounded_zhang_shasha<C: CostModel>(
    info1: &TreeInfo,
    info2: &TreeInfo,
    cost: &C,
    tau: u64,
    workspace: &mut ZsWorkspace,
) -> (Option<u64>, BoundedStats) {
    let n1 = info1.len();
    let n2 = info2.len();
    let cells_full = full_cells(info1, info2);
    let min_op = cost.min_operation_cost().max(1);
    // Any pair of index sets whose cardinalities differ by more than `band`
    // is more than `tau` apart: gap > band ⇔ gap · min_op > tau.
    let band = tau / min_op;

    let mut stats = BoundedStats {
        cells_full,
        ..BoundedStats::default()
    };

    // Entry cutoff: whole-tree lower bounds, no DP memory touched.
    let size_gap = (n1 as u64).abs_diff(n2 as u64);
    let height_gap = info1.height().abs_diff(info2.height());
    let leaf_gap = (info1.leaf_count() as u64).abs_diff(info2.leaf_count() as u64);
    if size_gap > band || height_gap > band || leaf_gap > band {
        stats.cells_skipped = cells_full;
        stats.cutoff = true;
        return (None, stats);
    }

    // Fast path: the band covers every cell, so the bounded DP degenerates
    // to the classic one; run it without per-cell guard overhead.
    if band >= n1.max(n2) as u64 {
        let d = zhang_shasha(info1, info2, cost, workspace);
        stats.cells_computed = cells_full;
        if d > tau {
            stats.cutoff = true;
            return (None, stats);
        }
        return (Some(d), stats);
    }

    // `inf` is the smallest sentinel that still proves "> tau"; using it
    // (rather than a huge constant) keeps saturating arithmetic exact for
    // any cost scale. Cells no subproblem writes keep it.
    let inf = tau.saturating_add(1);
    let b = band as usize; // band < max(n1, n2) here, so this fits.

    let stride = n2 + 1;
    let (td, fd) = workspace.matrices();
    td.clear();
    td.resize((n1 + 1) * stride, inf);
    fd.clear();
    fd.resize((n1 + 1) * stride, inf);

    for &k1 in info1.keyroots() {
        for &k2 in info2.keyroots() {
            if skip_subproblem(info1, info2, k1, k2, band) {
                stats.subproblems_skipped += 1;
                continue;
            }
            stats.cells_computed +=
                compute_bounded_treedist(info1, info2, k1, k2, cost, td, fd, stride, b, inf);
        }
    }
    stats.cells_skipped = cells_full - stats.cells_computed;

    let d = td[n1 * stride + n2];
    if d > tau {
        stats.cutoff = true;
        (None, stats)
    } else {
        (Some(d), stats)
    }
}

/// Cells the unbounded DP evaluates: one per (node-in-keyroot-subtree) pair,
/// which factors into a product of per-tree keyroot subtree-size sums.
fn full_cells(info1: &TreeInfo, info2: &TreeInfo) -> u64 {
    let sum = |info: &TreeInfo| -> u64 {
        info.keyroots()
            .iter()
            .map(|&k| info.subtree_size(k) as u64)
            .sum()
    };
    sum(info1) * sum(info2)
}

/// Whether keyroot subproblem `(k1, k2)` can be skipped entirely.
///
/// The subproblem only writes tree-distance cells `(a, b)` with
/// `lml(a) = lml(k1)`, `lml(b) = lml(k2)` (its leftmost-leaf chains). Any
/// global mapping of cost `≤ τ` that matches such a pair must map the `lml`
/// prefixes onto each other and the postorder suffixes onto each other, so
/// if the prefix gap — or the *minimum* suffix gap over the whole index
/// rectangle — exceeds the band, none of those cells can participate in a
/// `≤ τ` derivation, and leaving them at `inf` cannot change the answer.
fn skip_subproblem(info1: &TreeInfo, info2: &TreeInfo, k1: usize, k2: usize, band: u64) -> bool {
    let l1 = info1.leftmost_leaf(k1);
    let l2 = info2.leftmost_leaf(k2);
    if (l1 as u64).abs_diff(l2 as u64) > band {
        return true;
    }
    // Suffix gap of a cell (a, b) is |(n1 − a) − (n2 − b)| = |D − (a − b)|
    // with D = n1 − n2; over the rectangle, a − b spans [l1 − k2, k1 − l2].
    let d = info1.len() as i64 - info2.len() as i64;
    let lo = l1 as i64 - k2 as i64;
    let hi = k1 as i64 - l2 as i64;
    let min_suffix_gap = if d < lo {
        (lo - d) as u64
    } else if d > hi {
        (d - hi) as u64
    } else {
        0
    };
    min_suffix_gap > band
}

/// Banded version of `compute_treedist` for keyroot pair `(k1, k2)`.
///
/// Returns the number of cells evaluated. Each row of the `|di − dj| ≤ band`
/// band starts from `inf` at its left edge and writes `inf` just past its
/// right edge, so delete, insert and relabel reads never see a stale cell of
/// an earlier subproblem; only the split read `fd(li − 1, lj − 1)` tests the
/// band. Tree-distance reads are plain (DESIGN §12).
#[allow(clippy::too_many_arguments)]
fn compute_bounded_treedist<C: CostModel>(
    info1: &TreeInfo,
    info2: &TreeInfo,
    k1: usize,
    k2: usize,
    cost: &C,
    td: &mut [u64],
    fd: &mut [u64],
    stride: usize,
    band: usize,
    inf: u64,
) -> u64 {
    // 1-based postorder ranges [l1 .. k1+1] × [l2 .. k2+1], as in the
    // classic DP; index 0 is the empty-forest boundary. The loops run in
    // band coordinates di = i − (l1 − 1), dj = j − (l2 − 1) — the left
    // forest sizes — and fd(i, j) ≥ |di − dj| · min_op, so outside the band
    // the cell is provably > tau.
    let l1 = info1.leftmost_leaf(k1) + 1;
    let l2 = info2.leftmost_leaf(k2) + 1;
    // Subtree sizes: di runs over 0..=m1 and dj over 0..=m2.
    let m1 = info1.subtree_size(k1);
    let m2 = info2.subtree_size(k2);
    let width = m2 + 1;
    // Node i = l1 − 1 + di has label labels1[di − 1]; likewise for T2.
    let labels1 = &info1.labels()[l1 - 1..=k1];
    let lml1 = &info1.leftmost_leaves()[l1 - 1..=k1];
    let labels2 = &info2.labels()[l2 - 1..=k2];
    let lml2 = &info2.leftmost_leaves()[l2 - 1..=k2];
    // Row `di` of the subproblem starts at fd[row(di)], and so does its
    // tree-distance row in td.
    let row = |di: usize| (l1 - 1 + di) * stride + (l2 - 1);

    // Boundary row di = 0: insertions only, up to the band edge.
    fd[row(0)] = 0;
    let first = &mut fd[row(0)..row(0) + width];
    let edge = band.min(m2);
    for dj in 1..=edge {
        first[dj] = first[dj - 1].saturating_add(cost.insert(labels2[dj - 1]));
    }
    if edge < m2 {
        first[edge + 1] = inf;
    }

    let mut computed = 0u64;
    // Rows past di = band + m2 lie wholly outside the band.
    for di in 1..=m1.min(band + m2) {
        let lo = di.saturating_sub(band).max(1);
        let hi = (di + band).min(m2);
        computed += (hi + 1 - lo) as u64;
        let label1 = labels1[di - 1];
        let del_cost = cost.delete(label1);
        // Left forest of the split: li − 1 in band coordinates.
        let dli = lml1[di - 1] + 1 - l1;
        let tree_row = dli == 0;

        // The insert read of the first cell: the boundary column inside
        // the band, else the left band edge. Later inserts and relabels
        // read the cells left of them through `left` and `diag`.
        let mut left = if di <= band {
            let boundary = fd[row(di - 1)].saturating_add(del_cost);
            fd[row(di)] = boundary;
            boundary
        } else {
            inf
        };
        let (done, rest) = fd.split_at_mut(row(di));
        let cur = &mut rest[..width];
        let prev = &done[row(di - 1)..];
        let split_row = &done[row(dli)..];
        let td_row = &mut td[row(di)..];

        // The right sentinel, which the next row's delete reads.
        if hi < m2 {
            cur[hi + 1] = inf;
        }
        let mut diag = prev[lo - 1];
        for dj in lo..=hi {
            let up = prev[dj];
            let label2 = labels2[dj - 1];
            let del = up.saturating_add(del_cost);
            let ins = left.saturating_add(cost.insert(label2));
            let dlj = lml2[dj - 1] + 1 - l2;
            left = if tree_row && dlj == 0 {
                let rel = diag.saturating_add(cost.relabel(label1, label2));
                let best = del.min(ins).min(rel);
                td_row[dj] = best;
                best
            } else {
                let split = if dli.abs_diff(dlj) <= band {
                    split_row[dlj].saturating_add(td_row[dj])
                } else {
                    inf
                };
                del.min(ins).min(split)
            };
            cur[dj] = left;
            diag = up;
        }
    }
    computed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zhang_shasha::edit_distance;
    use treesim_tree::{parse::bracket, LabelInterner};

    fn parse_pair(a: &str, b: &str) -> (Tree, Tree) {
        let mut interner = LabelInterner::new();
        let t1 = bracket::parse(&mut interner, a).unwrap();
        let t2 = bracket::parse(&mut interner, b).unwrap();
        (t1, t2)
    }

    fn check_all_taus(a: &str, b: &str) {
        let (t1, t2) = parse_pair(a, b);
        let d = edit_distance(&t1, &t2);
        for tau in [0, d.saturating_sub(1), d, d + 1, u64::MAX] {
            let got = ted_bounded(&t1, &t2, tau);
            if tau >= d {
                assert_eq!(got, Some(d), "{a} vs {b} at tau={tau}");
            } else {
                assert_eq!(got, None, "{a} vs {b} at tau={tau}");
            }
        }
    }

    #[test]
    fn matches_unbounded_across_thresholds() {
        check_all_taus("a(b(c d) b e)", "a(b(c d) b e)");
        check_all_taus("a", "b");
        check_all_taus("a(b c)", "a(x(b c))");
        check_all_taus("f(d(a c(b)) e)", "f(c(d(a b)) e)");
        check_all_taus("a(b(c(d(e))))", "e(d(c(b(a))))");
        check_all_taus("a(b c d e f)", "a(b(c(d(e(f)))))");
        check_all_taus("r(a b c)", "r(x(y(z)) a b c)");
    }

    #[test]
    fn deep_chains_and_skew() {
        // Degenerate keyroot structure: left chains have a single keyroot,
        // right chains one keyroot per node.
        check_all_taus("a(a(a(a(a))))", "a(a(a))");
        check_all_taus("a(b a(b a(b)))", "a(b a(b))");
        check_all_taus("a(a(a(a)) b)", "b(a a(a(a)))");
    }

    #[test]
    fn entry_cutoff_skips_all_cells() {
        let (t1, t2) = parse_pair("a(b(c(d(e(f(g))))))", "a");
        let info1 = TreeInfo::new(&t1);
        let info2 = TreeInfo::new(&t2);
        let mut ws = ZsWorkspace::new();
        let (res, stats) = bounded_zhang_shasha(&info1, &info2, &UnitCost, 2, &mut ws);
        assert_eq!(res, None);
        assert!(stats.cutoff);
        assert_eq!(stats.cells_computed, 0);
        assert_eq!(stats.cells_skipped, stats.cells_full);
    }

    #[test]
    fn tight_budget_prunes_cells() {
        let (t1, t2) = parse_pair(
            "r(a(b c d) e(f g h) i(j k l) m(n o p))",
            "r(a(b c d) e(f g h) i(j k l) m(n o q))",
        );
        let info1 = TreeInfo::new(&t1);
        let info2 = TreeInfo::new(&t2);
        let mut ws = ZsWorkspace::new();
        let (res, stats) = bounded_zhang_shasha(&info1, &info2, &UnitCost, 1, &mut ws);
        assert_eq!(res, Some(1));
        assert!(!stats.cutoff);
        assert!(stats.cells_computed < stats.cells_full);
        assert_eq!(stats.cells_computed + stats.cells_skipped, stats.cells_full);
    }

    #[test]
    fn generous_budget_takes_fast_path() {
        let (t1, t2) = parse_pair("a(b c)", "a(b d)");
        let info1 = TreeInfo::new(&t1);
        let info2 = TreeInfo::new(&t2);
        let mut ws = ZsWorkspace::new();
        let (res, stats) = bounded_zhang_shasha(&info1, &info2, &UnitCost, u64::MAX, &mut ws);
        assert_eq!(res, Some(1));
        assert_eq!(stats.cells_computed, stats.cells_full);
        assert_eq!(stats.cells_skipped, 0);
    }

    #[test]
    fn weighted_costs_respect_budget() {
        use crate::cost::WeightedCost;
        let model = WeightedCost {
            relabel: 2,
            delete: 3,
            insert: 5,
        };
        let (t1, t2) = parse_pair("a(b c)", "a(x y(z))");
        let info1 = TreeInfo::new(&t1);
        let info2 = TreeInfo::new(&t2);
        let mut ws = ZsWorkspace::new();
        let full = zhang_shasha(&info1, &info2, &model, &mut ws);
        for tau in [0, full.saturating_sub(1), full, full + 1, u64::MAX] {
            let (res, _) = bounded_zhang_shasha(&info1, &info2, &model, tau, &mut ws);
            if tau >= full {
                assert_eq!(res, Some(full), "tau={tau}");
            } else {
                assert_eq!(res, None, "tau={tau}");
            }
        }
    }

    #[test]
    fn workspace_reuse_is_clean_across_budgets() {
        // A bounded run leaves `inf` sentinels in the matrices; the next
        // run (bounded or not) must not observe them.
        let (t1, t2) = parse_pair("a(b(c d) e)", "x(y z)");
        let info1 = TreeInfo::new(&t1);
        let info2 = TreeInfo::new(&t2);
        let mut ws = ZsWorkspace::new();
        let full = zhang_shasha(&info1, &info2, &UnitCost, &mut ws);
        let (r1, _) = bounded_zhang_shasha(&info1, &info2, &UnitCost, 0, &mut ws);
        assert_eq!(r1, None);
        let (r2, _) = bounded_zhang_shasha(&info1, &info2, &UnitCost, full, &mut ws);
        assert_eq!(r2, Some(full));
        assert_eq!(zhang_shasha(&info1, &info2, &UnitCost, &mut ws), full);
    }
}
