//! Maximum matching of identical binary branches under a positional window.
//!
//! For one branch value occurring at positions `xs` in `T1` and `ys` in
//! `T2`, the positional distance (§4.2) needs the size of the **maximum**
//! one-to-one matching where `x` may pair with `y` only if
//! `|pre(x) − pre(y)| ≤ pr` **and** `|post(x) − post(y)| ≤ pr`.
//!
//! Exactness matters: Proposition 4.2's no-false-negative guarantee reads
//! "if `PosBDist(T1,T2,l) > 5·l` then `EDist > l`", and `PosBDist` shrinks
//! as the matching grows — an undersized matching would inflate `PosBDist`
//! and could wrongly filter a true answer. A greedy sweep is only optimal
//! when both occurrence lists are sorted consistently in *both* position
//! orders (the neighborhoods then form a convex/staircase bipartite graph);
//! nodes nested inside each other break that (ancestors precede descendants
//! in preorder but follow them in postorder). We therefore use the greedy
//! sweep as a verified fast path and fall back to Kuhn's augmenting-path
//! algorithm otherwise.

/// A branch occurrence position: (preorder, postorder), both 1-based.
pub type Pos = (u32, u32);

/// Whether occurrences `x` and `y` may be matched under window `pr`.
#[inline]
pub(crate) fn compatible(x: Pos, y: Pos, pr: u32) -> bool {
    x.0.abs_diff(y.0) <= pr && x.1.abs_diff(y.1) <= pr
}

#[inline]
fn co_sorted(list: &[Pos]) -> bool {
    list.iter()
        .zip(list.iter().skip(1))
        .all(|(a, b)| a.1 <= b.1)
}

/// Size of the maximum matching between `xs` and `ys` under window `pr`.
///
/// Both lists must be sorted by preorder position (ascending); this is the
/// natural order produced by branch extraction.
pub fn max_matching(xs: &[Pos], ys: &[Pos], pr: u32) -> usize {
    if xs.is_empty() || ys.is_empty() {
        return 0;
    }
    debug_assert!(xs.iter().zip(xs.iter().skip(1)).all(|(a, b)| a.0 <= b.0));
    debug_assert!(ys.iter().zip(ys.iter().skip(1)).all(|(a, b)| a.0 <= b.0));
    if co_sorted(xs) && co_sorted(ys) {
        greedy_convex(xs, ys, pr)
    } else {
        kuhn(xs, ys, pr)
    }
}

/// Greedy matching for the convex case: for each `x` in order, take the
/// earliest unmatched compatible `y`. Optimal when every neighborhood is a
/// contiguous range of `ys` and the ranges advance monotonically — which
/// both-orders-sorted inputs guarantee.
fn greedy_convex(xs: &[Pos], ys: &[Pos], pr: u32) -> usize {
    let mut matched = 0usize;
    let mut next_y = 0usize;
    for &x in xs {
        // Skip ys that fall behind the preorder window of every later x too
        // only when they're also behind this x (windows advance with x).
        let mut j = next_y;
        while j < ys.len() && (ys[j].0 + pr) < x.0 {
            j += 1;
        }
        next_y = j;
        while j < ys.len() && ys[j].0 <= x.0 + pr {
            if compatible(x, ys[j], pr) {
                matched += 1;
                next_y = j + 1;
                break;
            }
            j += 1;
        }
    }
    matched
}

/// Kuhn's augmenting-path maximum bipartite matching, `O(|xs|·E)`.
fn kuhn(xs: &[Pos], ys: &[Pos], pr: u32) -> usize {
    // Adjacency: candidate ys per x, restricted by the preorder window via
    // binary search, then filtered by the postorder window.
    let pre_lo = |x: Pos| ys.partition_point(|&y| y.0 + pr < x.0);
    let mut adjacency: Vec<Vec<usize>> = Vec::with_capacity(xs.len());
    for &x in xs {
        let mut neighbors = Vec::new();
        let mut j = pre_lo(x);
        while j < ys.len() && ys[j].0 <= x.0 + pr {
            if x.1.abs_diff(ys[j].1) <= pr {
                neighbors.push(j);
            }
            j += 1;
        }
        adjacency.push(neighbors);
    }

    let mut match_y: Vec<Option<usize>> = vec![None; ys.len()];
    let mut matched = 0usize;
    let mut visited = vec![false; ys.len()];
    for x in 0..xs.len() {
        visited.iter_mut().for_each(|v| *v = false);
        if try_augment(x, &adjacency, &mut match_y, &mut visited) {
            matched += 1;
        }
    }
    matched
}

fn try_augment(
    x: usize,
    adjacency: &[Vec<usize>],
    match_y: &mut [Option<usize>],
    visited: &mut [bool],
) -> bool {
    for &y in &adjacency[x] {
        if visited[y] {
            continue;
        }
        visited[y] = true;
        match match_y[y] {
            None => {
                match_y[y] = Some(x);
                return true;
            }
            Some(previous) => {
                if try_augment(previous, adjacency, match_y, visited) {
                    match_y[y] = Some(x);
                    return true;
                }
            }
        }
    }
    false
}

/// Brute-force maximum matching by bitmask DP — test oracle only.
#[cfg(test)]
pub fn brute_force(xs: &[Pos], ys: &[Pos], pr: u32) -> usize {
    assert!(ys.len() <= 16, "oracle limited to 16 ys");
    // dp over x index with bitmask of used ys.
    fn go(i: usize, used: u32, xs: &[Pos], ys: &[Pos], pr: u32) -> usize {
        if i == xs.len() {
            return 0;
        }
        let mut best = go(i + 1, used, xs, ys, pr); // leave xs[i] unmatched
        for (j, &y) in ys.iter().enumerate() {
            if used & (1 << j) == 0 && compatible(xs[i], y, pr) {
                best = best.max(1 + go(i + 1, used | (1 << j), xs, ys, pr));
            }
        }
        best
    }
    go(0, 0, xs, ys, pr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_inputs() {
        assert_eq!(max_matching(&[], &[(1, 1)], 5), 0);
        assert_eq!(max_matching(&[(1, 1)], &[], 5), 0);
        assert_eq!(max_matching(&[], &[], 5), 0);
    }

    #[test]
    fn identical_positions_match_fully() {
        let xs = [(1, 3), (4, 2), (9, 9)];
        let mut sorted = xs;
        sorted.sort();
        assert_eq!(max_matching(&sorted, &sorted, 0), 3);
    }

    #[test]
    fn window_zero_requires_exact_positions() {
        let xs = [(1, 1)];
        let ys = [(2, 1)];
        assert_eq!(max_matching(&xs, &ys, 0), 0);
        assert_eq!(max_matching(&xs, &ys, 1), 1);
    }

    #[test]
    fn paper_positional_example() {
        // §4.2: with pr = 1, (BiB(c,ε,d), 3, 1) in T1 maps only to
        // (BiB(c,ε,d), 3, 1) in T2, not to (…, 7, 6); and (BiB(e), 8, 7)
        // maps to (…, 9, 8) but not (…, 6, 3).
        let t1_c = [(3, 1), (6, 4)];
        let t2_c = [(3, 1), (7, 6)];
        assert_eq!(max_matching(&t1_c, &t2_c, 1), 1);
        let t1_e = [(8, 7)];
        let t2_e = [(6, 3), (9, 8)];
        assert_eq!(max_matching(&t1_e, &t2_e, 1), 1);
        assert_eq!(max_matching(&t1_e, &[(6, 3)], 1), 0);
    }

    #[test]
    fn greedy_fast_path_matches_oracle_on_convex_instance() {
        let xs = [(1, 1), (3, 2), (5, 6), (9, 9)];
        let ys = [(2, 2), (4, 4), (6, 7)];
        for pr in 0..6 {
            assert_eq!(
                max_matching(&xs, &ys, pr),
                brute_force(&xs, &ys, pr),
                "pr={pr}"
            );
        }
    }

    #[test]
    fn nested_nodes_fall_back_to_exact_matching() {
        // xs sorted by preorder but with descending postorder (an ancestor
        // chain): greedy on preorder alone could mispair.
        let xs = [(1, 9), (2, 8), (3, 7)];
        let ys = [(1, 8), (2, 9), (3, 6)];
        for pr in 0..10 {
            assert_eq!(
                max_matching(&xs, &ys, pr),
                brute_force(&xs, &ys, pr),
                "pr={pr}"
            );
        }
    }

    #[test]
    fn monotone_in_pr() {
        let xs = [(1, 4), (5, 2), (8, 8)];
        let ys = [(2, 2), (6, 5), (9, 9)];
        let mut previous = 0;
        for pr in 0..12 {
            let m = max_matching(&xs, &ys, pr);
            assert!(m >= previous, "matching shrank at pr={pr}");
            previous = m;
        }
        assert_eq!(previous, 3);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Exactness against the bitmask oracle on random instances.
        #[test]
        fn matches_brute_force(
            raw_xs in proptest::collection::vec((1u32..20, 1u32..20), 0..8),
            raw_ys in proptest::collection::vec((1u32..20, 1u32..20), 0..8),
            pr in 0u32..12,
        ) {
            let mut xs = raw_xs;
            let mut ys = raw_ys;
            xs.sort();
            ys.sort();
            prop_assert_eq!(max_matching(&xs, &ys, pr), brute_force(&xs, &ys, pr));
        }
    }
}
