//! Property tests for the bounded (threshold-aware) Zhang–Shasha:
//! `ted_bounded(t1, t2, τ)` must return `Some(d)` iff the unbounded
//! distance is `d ≤ τ` and `None` iff it exceeds `τ`, for every budget
//! shape the cascade can hand it — including the degenerate-keyroot chains
//! that stress the subproblem-skip logic.
//!
//! The banded kernel reads tree-distance cells unguarded and finds its band
//! edges through sentinel cells. The reference kernel below keeps the
//! earlier form, which guards every tree-distance read with four gap tests
//! and every forest-distance read with a band test; the two must return the
//! same `(Option<u64>, BoundedStats)` on every call.

use proptest::prelude::*;
use treesim_datagen::normal::Normal;
use treesim_datagen::synthetic::{generate, SyntheticConfig};
use treesim_edit::bounded::{bounded_zhang_shasha, BoundedStats};
use treesim_edit::zhang_shasha::{zhang_shasha, TreeInfo, ZsWorkspace};
use treesim_edit::{edit_distance, ted_bounded, CostModel, UnitCost, WeightedCost};
use treesim_tree::{parse::bracket, Forest, LabelInterner, Tree, TreeId};

fn small_forest(seed: u64, size_mean: f64, labels: u32, count: usize) -> Forest {
    generate(&SyntheticConfig {
        fanout: Normal::new(2.0, 1.0),
        size: Normal::new(size_mean, 2.0),
        label_count: labels,
        decay: 0.2,
        seed_count: 2.min(count),
        tree_count: count,
        rng_seed: seed,
    })
}

/// The tau values the satellite calls out: 0, d−1, d, d+1, ∞.
fn boundary_taus(d: u64) -> [u64; 5] {
    [0, d.saturating_sub(1), d, d + 1, u64::MAX]
}

fn assert_bounded_semantics(t1: &Tree, t2: &Tree, ctx: &str) {
    let d = edit_distance(t1, t2);
    for tau in boundary_taus(d) {
        let got = ted_bounded(t1, t2, tau);
        let want = if d <= tau { Some(d) } else { None };
        assert_eq!(got, want, "{ctx}: tau={tau}, unbounded d={d}");
    }
}

/// A chain tree `a(a(a(...)))` of the given depth — a single keyroot on
/// the left spine, which degenerates the keyroot decomposition.
fn chain(depth: usize, label: &str) -> Tree {
    let mut interner = LabelInterner::new();
    let mut s = String::new();
    for _ in 0..depth.saturating_sub(1) {
        s.push_str(label);
        s.push('(');
    }
    s.push_str(label);
    s.push_str(&")".repeat(depth.saturating_sub(1)));
    bracket::parse(&mut interner, &s).unwrap()
}

/// A right-comb `a(b a(b a(...)))`: every spine node is a keyroot, the
/// opposite degeneracy from `chain`.
fn comb(depth: usize) -> Tree {
    let mut interner = LabelInterner::new();
    let mut s = String::new();
    for _ in 0..depth.saturating_sub(1) {
        s.push_str("a(b ");
    }
    s.push('a');
    s.push_str(&")".repeat(depth.saturating_sub(1)));
    bracket::parse(&mut interner, &s).unwrap()
}

/// Per-node subtree heights in postorder (a leaf has height 1), derived
/// from the leftmost leaves: the children of `i` are `i − 1`, then the node
/// just left of each child's leftmost leaf, down to `lml(i)`.
fn heights(info: &TreeInfo) -> Vec<u64> {
    let mut heights = vec![1u64; info.len()];
    for i in 0..info.len() {
        let lml = info.leftmost_leaf(i);
        let mut child = i;
        while child > lml {
            child -= 1;
            heights[i] = heights[i].max(heights[child] + 1);
            child = info.leftmost_leaf(child);
        }
    }
    heights
}

/// The bounded kernel with every read guarded: forest-distance reads
/// outside the band, and tree-distance reads whose size, height, prefix or
/// suffix gap exceeds the band, yield `τ + 1` instead of memory. Same entry
/// cutoff, fast path, subproblem skip and accounting as the library.
fn guarded_reference<C: CostModel>(
    info1: &TreeInfo,
    info2: &TreeInfo,
    cost: &C,
    tau: u64,
) -> (Option<u64>, BoundedStats) {
    let (n1, n2) = (info1.len(), info2.len());
    let keyroot_cells = |info: &TreeInfo| -> u64 {
        info.keyroots()
            .iter()
            .map(|&k| info.subtree_size(k) as u64)
            .sum()
    };
    let cells_full = keyroot_cells(info1) * keyroot_cells(info2);
    let band = tau / cost.min_operation_cost().max(1);
    let mut stats = BoundedStats {
        cells_full,
        ..BoundedStats::default()
    };
    let verdict = |d: u64, mut stats: BoundedStats| {
        stats.cutoff = d > tau;
        (if d > tau { None } else { Some(d) }, stats)
    };
    let size_gap = (n1 as u64).abs_diff(n2 as u64);
    let height_gap = info1.height().abs_diff(info2.height());
    let leaf_gap = (info1.leaf_count() as u64).abs_diff(info2.leaf_count() as u64);
    if size_gap > band || height_gap > band || leaf_gap > band {
        stats.cells_skipped = cells_full;
        stats.cutoff = true;
        return (None, stats);
    }
    if band >= n1.max(n2) as u64 {
        stats.cells_computed = cells_full;
        let d = zhang_shasha(info1, info2, cost, &mut ZsWorkspace::new());
        return verdict(d, stats);
    }

    let (h1, h2) = (heights(info1), heights(info2));
    let inf = tau.saturating_add(1);
    let b = band as usize;
    let stride = n2 + 1;
    let at = |i: usize, j: usize| i * stride + j;
    let mut td = vec![inf; (n1 + 1) * stride];
    let mut fd = vec![inf; (n1 + 1) * stride];
    for &k1 in info1.keyroots() {
        for &k2 in info2.keyroots() {
            let region = info1.subtree_size(k1) as u64 * info2.subtree_size(k2) as u64;
            let (l1, l2) = (info1.leftmost_leaf(k1) + 1, info2.leftmost_leaf(k2) + 1);
            let d = n1 as i64 - n2 as i64;
            // Suffix skews a − b over the subproblem's rectangle (0-based).
            let (lo, hi) = (l1 as i64 - 1 - k2 as i64, k1 as i64 - (l2 as i64 - 1));
            let suffix_gap = if d < lo {
                (lo - d) as u64
            } else if d > hi {
                (d - hi) as u64
            } else {
                0
            };
            if ((l1 - 1) as u64).abs_diff((l2 - 1) as u64) > band || suffix_gap > band {
                stats.subproblems_skipped += 1;
                stats.cells_skipped += region;
                continue;
            }
            let in_band = |i: usize, j: usize| (i - (l1 - 1)).abs_diff(j - (l2 - 1)) <= b;
            let fd_read = |fd: &[u64], i: usize, j: usize| {
                if in_band(i, j) {
                    fd[at(i, j)]
                } else {
                    inf
                }
            };
            let td_read = |td: &[u64], a: usize, c: usize| {
                let (a0, c0) = (a - 1, c - 1);
                let gaps = [
                    (info1.subtree_size(a0) as u64).abs_diff(info2.subtree_size(c0) as u64),
                    h1[a0].abs_diff(h2[c0]),
                    (info1.leftmost_leaf(a0) as u64).abs_diff(info2.leftmost_leaf(c0) as u64),
                    ((n1 - a) as u64).abs_diff((n2 - c) as u64),
                ];
                if gaps.iter().any(|&gap| gap > band) {
                    inf
                } else {
                    td[at(a, c)]
                }
            };
            fd[at(l1 - 1, l2 - 1)] = 0;
            for i in l1..=k1 + 1 {
                if i - (l1 - 1) > b {
                    break;
                }
                fd[at(i, l2 - 1)] =
                    fd[at(i - 1, l2 - 1)].saturating_add(cost.delete(info1.label_at(i - 1)));
            }
            for j in l2..=k2 + 1 {
                if j - (l2 - 1) > b {
                    break;
                }
                fd[at(l1 - 1, j)] =
                    fd[at(l1 - 1, j - 1)].saturating_add(cost.insert(info2.label_at(j - 1)));
            }
            let mut computed = 0u64;
            for i in l1..=k1 + 1 {
                let di = i - (l1 - 1);
                let j_lo = (l2 - 1 + di.saturating_sub(b)).max(l2);
                let j_hi = (l2 - 1 + di + b).min(k2 + 1);
                if j_lo > j_hi {
                    break;
                }
                let li = info1.leftmost_leaf(i - 1) + 1;
                for j in j_lo..=j_hi {
                    computed += 1;
                    let lj = info2.leftmost_leaf(j - 1) + 1;
                    let (x, y) = (info1.label_at(i - 1), info2.label_at(j - 1));
                    let del = fd_read(&fd, i - 1, j).saturating_add(cost.delete(x));
                    let ins = fd_read(&fd, i, j - 1).saturating_add(cost.insert(y));
                    if li == l1 && lj == l2 {
                        let rel = fd_read(&fd, i - 1, j - 1).saturating_add(cost.relabel(x, y));
                        let best = del.min(ins).min(rel);
                        fd[at(i, j)] = best;
                        td[at(i, j)] = best;
                    } else {
                        let split = fd_read(&fd, li - 1, lj - 1).saturating_add(td_read(&td, i, j));
                        fd[at(i, j)] = del.min(ins).min(split);
                    }
                }
            }
            stats.cells_computed += computed;
            stats.cells_skipped += region - computed;
        }
    }
    verdict(td[at(n1, n2)], stats)
}

/// Asserts that the library kernel, run on the shared `ws`, returns the
/// reference's tuple for every τ in `0..=d + 2` and for `u64::MAX`.
fn assert_equals_reference<C: CostModel>(
    info1: &TreeInfo,
    info2: &TreeInfo,
    cost: &C,
    ws: &mut ZsWorkspace,
    ctx: &str,
) {
    let d = zhang_shasha(info1, info2, cost, &mut ZsWorkspace::new());
    for tau in (0..=d + 2).chain([u64::MAX]) {
        let got = bounded_zhang_shasha(info1, info2, cost, tau, ws);
        let want = guarded_reference(info1, info2, cost, tau);
        assert_eq!(got, want, "{ctx}: tau={tau}, d={d}");
        assert_eq!(got.0, if d <= tau { Some(d) } else { None }, "{ctx}");
    }
}

/// A forest on which reading the split cell `fd(li − 1, lj − 1)` without
/// its band test picks up a stale cell of an earlier subproblem and
/// answers `Some(17)` for a pair at distance 19 under τ = 17.
#[test]
fn split_read_outside_the_band_is_inf() {
    let forest = small_forest(72, 18.0, 3, 3);
    let infos: Vec<TreeInfo> = forest.iter().map(|(_, t)| TreeInfo::new(t)).collect();
    let mut ws = ZsWorkspace::new();
    for info1 in &infos {
        for info2 in &infos {
            assert_equals_reference(info1, info2, &UnitCost, &mut ws, "seed 72");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `Some(d)` iff `zhang_shasha == d ≤ τ`, `None` iff the distance
    /// exceeds τ, on synthetic tree pairs at the boundary budgets.
    #[test]
    fn bounded_matches_unbounded_at_boundaries(seed in 0u64..10_000) {
        let forest = small_forest(seed, 8.0, 4, 2);
        let t1 = forest.tree(TreeId(0));
        let t2 = forest.tree(TreeId(1));
        assert_bounded_semantics(t1, t2, "synthetic");
    }

    /// Same contract on deep/skewed trees whose keyroot decomposition is
    /// degenerate (single-keyroot left chains vs one-keyroot-per-node
    /// right combs), which exercises the subproblem-skip paths.
    #[test]
    fn bounded_handles_degenerate_keyroots(d1 in 1usize..14, d2 in 1usize..14) {
        assert_bounded_semantics(&chain(d1, "a"), &chain(d2, "a"), "chain/chain");
        assert_bounded_semantics(&chain(d1, "a"), &chain(d2, "b"), "chain/relabel");
        assert_bounded_semantics(&chain(d1, "a"), &comb(d2), "chain/comb");
        assert_bounded_semantics(&comb(d1), &comb(d2), "comb/comb");
    }

    /// Every tau in [0, d + 2] — not just the boundaries — agrees with the
    /// unbounded oracle, and the work accounting is conserved.
    #[test]
    fn bounded_agrees_for_every_tau(seed in 0u64..10_000) {
        let forest = small_forest(seed, 6.0, 3, 2);
        let info1 = TreeInfo::new(forest.tree(TreeId(0)));
        let info2 = TreeInfo::new(forest.tree(TreeId(1)));
        let mut ws = ZsWorkspace::new();
        let d = zhang_shasha(&info1, &info2, &UnitCost, &mut ws);
        for tau in 0..=d + 2 {
            let (res, stats) = bounded_zhang_shasha(&info1, &info2, &UnitCost, tau, &mut ws);
            let want = if d <= tau { Some(d) } else { None };
            prop_assert_eq!(res, want, "tau={}, d={}", tau, d);
            prop_assert_eq!(stats.cutoff, res.is_none());
            prop_assert_eq!(
                stats.cells_computed + stats.cells_skipped,
                stats.cells_full
            );
        }
    }

    /// The contract holds for non-unit costs, where the band is scaled by
    /// the model's minimum operation cost.
    #[test]
    fn bounded_respects_weighted_costs(
        seed in 0u64..10_000,
        relabel in 1u64..6,
        delete in 1u64..6,
        insert in 1u64..6,
    ) {
        let model = WeightedCost { relabel, delete, insert };
        let forest = small_forest(seed, 6.0, 4, 2);
        let info1 = TreeInfo::new(forest.tree(TreeId(0)));
        let info2 = TreeInfo::new(forest.tree(TreeId(1)));
        let mut ws = ZsWorkspace::new();
        let d = zhang_shasha(&info1, &info2, &model, &mut ws);
        for tau in boundary_taus(d) {
            let (res, _) = bounded_zhang_shasha(&info1, &info2, &model, tau, &mut ws);
            let want = if d <= tau { Some(d) } else { None };
            prop_assert_eq!(res, want, "tau={}, d={}", tau, d);
        }
    }

    /// Bounded runs never do more cell work than the full DP, and a zero
    /// budget between different-rooted trees does essentially none.
    #[test]
    fn bounded_never_exceeds_full_work(seed in 0u64..10_000) {
        let forest = small_forest(seed, 8.0, 4, 2);
        let info1 = TreeInfo::new(forest.tree(TreeId(0)));
        let info2 = TreeInfo::new(forest.tree(TreeId(1)));
        let mut ws = ZsWorkspace::new();
        let d = zhang_shasha(&info1, &info2, &UnitCost, &mut ws);
        if d > 0 {
            let (res, stats) =
                bounded_zhang_shasha(&info1, &info2, &UnitCost, d - 1, &mut ws);
            prop_assert_eq!(res, None);
            prop_assert!(stats.cells_computed <= stats.cells_full);
        }
    }

    /// The kernel returns the guarded reference's exact tuple on pairs of
    /// a synthetic forest, under unit costs and a weighted model whose
    /// cheapest operation costs more than 1. One workspace serves every
    /// pair, in both argument orders and across tree sizes, so a cell left
    /// stale by a larger pair would show.
    #[test]
    fn kernel_equals_guarded_reference(
        seed in 0u64..10_000,
        size_mean in 4u32..18,
        relabel in 2u64..6,
        delete in 2u64..6,
        insert in 2u64..6,
    ) {
        let forest = small_forest(seed, f64::from(size_mean), 3, 3);
        let infos: Vec<TreeInfo> = forest.iter().map(|(_, t)| TreeInfo::new(t)).collect();
        let weighted = WeightedCost { relabel, delete, insert };
        let mut ws = ZsWorkspace::new();
        for (a, info1) in infos.iter().enumerate() {
            for (b, info2) in infos.iter().enumerate() {
                let ctx = format!("pair ({a}, {b})");
                assert_equals_reference(info1, info2, &UnitCost, &mut ws, &ctx);
                assert_equals_reference(info1, info2, &weighted, &mut ws, &ctx);
            }
        }
    }

    /// The same equivalence on chains and combs, whose keyroot
    /// decompositions are the two degenerate extremes.
    #[test]
    fn kernel_equals_guarded_reference_on_degenerate_shapes(
        d1 in 1usize..12,
        d2 in 1usize..12,
    ) {
        let shapes = [chain(d1, "a"), chain(d2, "b"), comb(d1), comb(d2)];
        let infos: Vec<TreeInfo> = shapes.iter().map(TreeInfo::new).collect();
        let weighted = WeightedCost { relabel: 3, delete: 2, insert: 2 };
        let mut ws = ZsWorkspace::new();
        for info1 in &infos {
            for info2 in &infos {
                assert_equals_reference(info1, info2, &UnitCost, &mut ws, "shape");
                assert_equals_reference(info1, info2, &weighted, &mut ws, "shape");
            }
        }
    }
}
