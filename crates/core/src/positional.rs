//! Positional binary branch vectors and distances (§4.2 of the paper).
//!
//! Beyond occurrence counts, each branch occurrence carries the (preorder,
//! postorder) position of its root node. Two identical branches can only be
//! matched if their positions differ by at most the positional range `pr`
//! (Proposition 4.1: an edit mapping of cost ≤ `l` never maps nodes whose
//! traversal positions differ by more than `l`). The resulting
//! `PosBDist(T1, T2, pr)` is non-increasing in `pr`, reaches `BDist` at
//! `pr = max(|T1|, |T2|)`, and supports a *tighter* lower bound than
//! `⌈BDist/5⌉`: the smallest `pr` with `PosBDist(pr) ≤ 5·pr` (the
//! `SearchLBound` routine of Algorithm 2), exposed as
//! [`PositionalVector::optimistic_bound`].

use serde::{Deserialize, Serialize};
use treesim_tree::Tree;

use crate::branch::{bound_factor, extract_branches};
use crate::dense::bdist_soa;
use crate::matching::{compatible, max_matching, Pos};
use crate::vocab::{BranchId, BranchVocab, QueryVocab};

/// A borrowed view of one branch dimension with its occurrence positions —
/// what [`PositionalVector::entries`] yields. The positions slice aliases
/// the vector's contiguous position slab.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PosEntryRef<'a> {
    /// The branch id.
    pub branch: BranchId,
    /// Occurrence positions, sorted by preorder position.
    pub positions: &'a [Pos],
}

/// A binary branch vector augmented with occurrence positions.
///
/// Stored CSR-style (structure of arrays): sorted `branch_ids` with
/// parallel `counts` lanes, plus a flat position slab delimited by
/// `pos_offsets` — the counts-only `BDist` merge never touches positions,
/// and the count lanes feed the dense kernels of [`crate::dense`] without
/// gathering through per-entry allocations.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PositionalVector {
    q: usize,
    tree_size: u32,
    /// Branch ids, strictly ascending.
    branch_ids: Vec<BranchId>,
    /// Occurrence counts, parallel to `branch_ids`.
    counts: Vec<u32>,
    /// `pos_offsets[i]..pos_offsets[i + 1]` delimits entry `i`'s positions
    /// in the slab; length is `branch_ids.len() + 1`.
    pos_offsets: Vec<u32>,
    /// All occurrence positions, grouped by branch, preorder-sorted within
    /// each group.
    positions: Vec<Pos>,
}

impl PositionalVector {
    /// Builds the positional vector of `tree`, interning new branches.
    pub fn build(tree: &Tree, vocab: &mut BranchVocab) -> Self {
        let occurrences = extract_branches(tree, vocab.q());
        let tagged: Vec<(BranchId, Pos)> = occurrences
            .iter()
            .map(|o| (vocab.intern(&o.key), (o.pre, o.post)))
            .collect();
        Self::from_tagged(vocab.q(), tree.len() as u32, tagged)
    }

    /// Builds a query vector against a frozen vocabulary.
    pub fn build_query(tree: &Tree, vocab: &mut QueryVocab<'_>) -> Self {
        let occurrences = extract_branches(tree, vocab.q());
        let tagged: Vec<(BranchId, Pos)> = occurrences
            .iter()
            .map(|o| (vocab.resolve_or_extend(&o.key), (o.pre, o.post)))
            .collect();
        Self::from_tagged(vocab.q(), tree.len() as u32, tagged)
    }

    pub(crate) fn from_tagged(q: usize, tree_size: u32, mut tagged: Vec<(BranchId, Pos)>) -> Self {
        // Sort by (branch, preorder); extraction order is already preorder,
        // so a stable sort by branch alone would suffice, but be explicit.
        tagged.sort_unstable_by_key(|&(id, pos)| (id, pos.0));
        let mut branch_ids: Vec<BranchId> = Vec::new();
        let mut counts: Vec<u32> = Vec::new();
        let mut pos_offsets: Vec<u32> = vec![0];
        let mut positions: Vec<Pos> = Vec::with_capacity(tagged.len());
        for (id, pos) in tagged {
            if branch_ids.last() != Some(&id) {
                branch_ids.push(id);
                counts.push(0);
                pos_offsets.push(positions.len() as u32);
            }
            positions.push(pos);
            if let (Some(count), Some(end)) = (counts.last_mut(), pos_offsets.last_mut()) {
                *count += 1;
                *end += 1;
            }
        }
        debug_assert_eq!(pos_offsets.len(), branch_ids.len() + 1);
        PositionalVector {
            q,
            tree_size,
            branch_ids,
            counts,
            pos_offsets,
            positions,
        }
    }

    /// The branch level `q`.
    pub fn q(&self) -> usize {
        self.q
    }

    /// Number of nodes of the underlying tree.
    pub fn tree_size(&self) -> u32 {
        self.tree_size
    }

    /// The sparse entries, sorted by branch id, as borrowed views over the
    /// CSR slabs.
    pub fn entries(&self) -> impl Iterator<Item = PosEntryRef<'_>> + '_ {
        self.branch_ids
            .iter()
            .enumerate()
            .map(move |(index, &branch)| PosEntryRef {
                branch,
                positions: self.positions_of(index),
            })
    }

    /// The sparse `(branch, count)` pairs, sorted by branch id — the
    /// counts-only projection the arena and postings paths consume.
    pub fn iter_counts(&self) -> impl Iterator<Item = (BranchId, u32)> + '_ {
        self.branch_ids
            .iter()
            .copied()
            .zip(self.counts.iter().copied())
    }

    /// The sorted branch-id lane of the CSR layout.
    pub fn branch_ids(&self) -> &[BranchId] {
        &self.branch_ids
    }

    /// The count lane of the CSR layout, parallel to
    /// [`PositionalVector::branch_ids`].
    pub fn branch_counts(&self) -> &[u32] {
        &self.counts
    }

    /// Number of nonzero dimensions (distinct branches).
    pub fn nonzero_dims(&self) -> usize {
        self.branch_ids.len()
    }

    /// The O(1) size lower bound `| |T1| − |T2| |` — the coarsest stage of
    /// the engine's bound cascade, and the starting positional range
    /// `pr_min` of [`PositionalVector::optimistic_bound`].
    pub fn size_bound(&self, other: &PositionalVector) -> u64 {
        u64::from(self.tree_size.abs_diff(other.tree_size))
    }

    /// Plain binary branch distance (counts only) — equals
    /// `pos_bdist(other, pr)` for any `pr ≥ max(|T1|, |T2|)`. Runs the
    /// dense SoA merge over the count lanes; positions are never touched.
    pub fn bdist(&self, other: &PositionalVector) -> u64 {
        assert_eq!(self.q, other.q, "mixing branch levels");
        bdist_soa(
            &self.branch_ids,
            &self.counts,
            &other.branch_ids,
            &other.counts,
        )
    }

    /// The positional binary branch distance `PosBDist(T1, T2, pr)`
    /// (Definition 6): unmatched occurrences under the maximum positional
    /// matching with range `pr`, summed over all branches.
    ///
    /// Walks the two sorted `branch_ids` lanes by index; only shared
    /// branches touch the position slab, and a branch occurring once on
    /// each side is matched by one window test.
    pub fn pos_bdist(&self, other: &PositionalVector, pr: u32) -> u64 {
        assert_eq!(self.q, other.q, "mixing branch levels");
        let (left, right) = (&self.branch_ids, &other.branch_ids);
        let (mut i, mut j) = (0, 0);
        let mut matched = 0u64;
        while i < left.len() && j < right.len() {
            match left[i].cmp(&right[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    matched += match (self.positions_of(i), other.positions_of(j)) {
                        (&[x], &[y]) => u64::from(compatible(x, y, pr)),
                        (xs, ys) => max_matching(xs, ys, pr) as u64,
                    };
                    i += 1;
                    j += 1;
                }
            }
        }
        // Every occurrence outside a matched pair counts once.
        (self.positions.len() + other.positions.len()) as u64 - 2 * matched
    }

    /// The occurrence positions of entry `index`.
    fn positions_of(&self, index: usize) -> &[Pos] {
        let start = self.pos_offsets[index] as usize;
        let end = self.pos_offsets[index + 1] as usize;
        &self.positions[start..end]
    }

    /// The optimistic lower bound `propt` of §4.2 / Algorithm 2
    /// (`SearchLBound`): the smallest positional range `pr` in
    /// `[| |T1|−|T2| |, max(|T1|, |T2|)]` with
    /// `PosBDist(T1, T2, pr) ≤ [4(q−1)+1] · pr`.
    ///
    /// Guarantees `⌈BDist/factor⌉ ≤ propt ≤ EDist(T1, T2)`:
    /// if the predicate already holds at `pr_min = ||T1|−|T2||` the result
    /// is the size bound itself; otherwise the predicate fails at
    /// `propt − 1`, so by Proposition 4.2 `EDist > propt − 1`.
    pub fn optimistic_bound(&self, other: &PositionalVector) -> u64 {
        self.optimistic_bound_within(other, u64::MAX)
    }

    /// `propt` for a caller that needs it only up to `cap` (a k-NN search
    /// whose live k-th distance is `cap`): exactly
    /// [`PositionalVector::optimistic_bound`] when that is `≤ cap`, and
    /// `cap + 1` otherwise — still a lower bound, as `propt > cap`.
    pub fn optimistic_bound_within(&self, other: &PositionalVector, cap: u64) -> u64 {
        self.optimistic_bound_within_counted(other, cap).0
    }

    /// [`PositionalVector::optimistic_bound_within`] plus the number of
    /// `PosBDist` matchings it ran — the cost driver the
    /// `cascade.propt.iters` histogram tracks.
    ///
    /// The predicate `PosBDist(pr) ≤ factor·pr` is monotone in `pr`
    /// (`PosBDist` is non-increasing while `factor·pr` grows) and holds at
    /// `pr_max`, so it fails at `pr` exactly when `propt > pr`. A cap below
    /// `pr_max` is therefore tested first: one failed matching proves
    /// `propt > cap`. Otherwise the binary search runs over
    /// `[pr_min, min(cap, pr_max)]`, trying `pr_min` first.
    pub fn optimistic_bound_within_counted(
        &self,
        other: &PositionalVector,
        cap: u64,
    ) -> (u64, u32) {
        let factor = bound_factor(self.q);
        let mut probes = 0u32;
        let mut holds = |pr: u32| {
            probes += 1;
            self.pos_bdist(other, pr) <= factor * u64::from(pr)
        };
        let pr_min = self.tree_size.abs_diff(other.tree_size);
        let pr_max = self.tree_size.max(other.tree_size);
        let mut limit = pr_max;
        if let Ok(cap) = u32::try_from(cap) {
            if cap < pr_min {
                return (u64::from(cap) + 1, 0);
            }
            if cap < pr_max {
                if !holds(cap) {
                    self.check_capped(other, cap, u64::from(cap) + 1);
                    return (u64::from(cap) + 1, probes);
                }
                limit = cap;
            }
        }
        let (mut lo, mut hi) = (pr_min, limit);
        if lo < hi {
            if holds(lo) {
                hi = lo;
            } else {
                lo += 1;
            }
        }
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if holds(mid) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        debug_assert!(
            self.pos_bdist(other, lo) <= factor * u64::from(lo),
            "predicate must hold at the searched bound"
        );
        self.check_cascade_order(other, u64::from(lo));
        if limit < pr_max {
            self.check_capped(other, limit, u64::from(lo));
        }
        (u64::from(lo), probes)
    }

    /// `strict-checks` invariant: a search capped below `pr_max` answers
    /// what the full search implies — `propt` itself when it is `≤ cap`,
    /// `cap + 1` otherwise.
    #[inline]
    #[allow(unused_variables)]
    fn check_capped(&self, other: &PositionalVector, cap: u32, bound: u64) {
        #[cfg(feature = "strict-checks")]
        {
            let propt = self.optimistic_bound(other);
            let expected = if propt <= u64::from(cap) {
                propt
            } else {
                u64::from(cap) + 1
            };
            debug_assert_eq!(
                bound, expected,
                "capped propt diverged from the full search (propt = {propt}, cap = {cap})"
            );
        }
    }

    /// `strict-checks` invariant: the cascade is ordered —
    /// `⌈BDist/factor⌉ ≤ propt` (Theorem 4.1 composed with Proposition
    /// 4.2), so the optimistic bound never undercuts the plain branch
    /// bound it refines. A violation here means a filter stage would
    /// prune trees a later stage still admits.
    #[inline]
    #[allow(unused_variables)]
    fn check_cascade_order(&self, other: &PositionalVector, propt: u64) {
        #[cfg(feature = "strict-checks")]
        debug_assert!(
            crate::branch::edit_lower_bound(self.bdist(other), self.q) <= propt,
            "cascade order violated: ceil(BDist/{}) = {} > propt = {propt}",
            bound_factor(self.q),
            crate::branch::edit_lower_bound(self.bdist(other), self.q),
        );
    }

    /// Range-query pruning test (§4.3): prune `other` from a query with
    /// radius `tau` when it provably cannot be within edit distance `tau`.
    ///
    /// Combines Proposition 4.2 at `l = tau` with the optimistic bound,
    /// `PosBDist(tau) > factor·tau || propt > tau`. By the monotonicity of
    /// `propt`'s predicate, `propt > tau` holds exactly when
    /// `tau < pr_min` or the predicate fails at `tau` — which is the first
    /// test — so one matching at `pr = tau` answers both.
    pub fn exceeds_range(&self, other: &PositionalVector, tau: u32) -> bool {
        let factor = bound_factor(self.q);
        let exceeds = u64::from(tau) < self.size_bound(other)
            || self.pos_bdist(other, tau) > factor * u64::from(tau);
        #[cfg(feature = "strict-checks")]
        debug_assert_eq!(
            exceeds,
            self.pos_bdist(other, tau) > factor * u64::from(tau)
                || self.optimistic_bound(other) > u64::from(tau),
            "one-matching range test diverged from the two-step form at tau = {tau}"
        );
        exceeds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treesim_edit::edit_distance;
    use treesim_tree::{parse::bracket, LabelInterner, Tree};

    fn vectors(a: &str, b: &str, q: usize) -> (PositionalVector, PositionalVector, Tree, Tree) {
        let mut interner = LabelInterner::new();
        let t1 = bracket::parse(&mut interner, a).unwrap();
        let t2 = bracket::parse(&mut interner, b).unwrap();
        let mut vocab = BranchVocab::new(q);
        let v1 = PositionalVector::build(&t1, &mut vocab);
        let v2 = PositionalVector::build(&t2, &mut vocab);
        (v1, v2, t1, t2)
    }

    #[test]
    fn identical_trees_zero_everywhere() {
        let (v1, v2, ..) = vectors("a(b(c d) b e)", "a(b(c d) b e)", 2);
        assert_eq!(v1.bdist(&v2), 0);
        for pr in 0..8 {
            assert_eq!(v1.pos_bdist(&v2, pr), 0);
        }
        assert_eq!(v1.optimistic_bound(&v2), 0);
        assert!(!v1.exceeds_range(&v2, 0));
    }

    #[test]
    fn pos_bdist_decreases_to_bdist() {
        let (v1, v2, t1, t2) = vectors("a(b(c(d)) b e)", "a(e b(c(d)) b)", 2);
        let sizes = t1.len().max(t2.len()) as u32;
        let mut previous = u64::MAX;
        for pr in 0..=sizes {
            let d = v1.pos_bdist(&v2, pr);
            assert!(d <= previous, "PosBDist increased at pr={pr}");
            previous = d;
        }
        assert_eq!(v1.pos_bdist(&v2, sizes), v1.bdist(&v2));
        // Positions matter: at pr=0 the distance is at least the plain one.
        assert!(v1.pos_bdist(&v2, 0) >= v1.bdist(&v2));
    }

    #[test]
    fn optimistic_bound_sandwiched() {
        let cases = [
            ("a(b(c(d)) b e)", "a(c(d) b e)"),
            ("a(b c)", "x(y z)"),
            ("a", "a(b(c(d)))"),
            ("a(b(c(d)))", "a(b c d)"),
            ("f(d(a c(b)) e)", "f(c(d(a b)) e)"),
            ("a(b(c) d(e f) g)", "a(b)"),
            ("a(b c d e f)", "a(f e d c b)"),
        ];
        for (x, y) in cases {
            let (v1, v2, t1, t2) = vectors(x, y, 2);
            let edist = edit_distance(&t1, &t2);
            let bdist_bound = v1.bdist(&v2).div_ceil(5);
            let propt = v1.optimistic_bound(&v2);
            assert!(
                propt <= edist,
                "propt {propt} > EDist {edist} on {x} vs {y}"
            );
            assert!(
                propt >= bdist_bound,
                "propt {propt} < BDist/5 {bdist_bound} on {x} vs {y}"
            );
        }
    }

    #[test]
    fn counted_bound_matches_and_bounds_probes() {
        let cases = [
            ("a(b(c(d)) b e)", "a(c(d) b e)"),
            ("a(b c)", "x(y z)"),
            ("a", "a(b(c(d)))"),
            ("a(b c d e f)", "a(f e d c b)"),
            ("a(b c)", "a(b c)"),
        ];
        for (x, y) in cases {
            let (v1, v2, t1, t2) = vectors(x, y, 2);
            let (bound, probes) = v1.optimistic_bound_within_counted(&v2, u64::MAX);
            assert_eq!(bound, v1.optimistic_bound(&v2), "{x} vs {y}");
            // One matching at pr_min, then a binary search over
            // (pr_min, pr_max] of at most ⌈log2(range)⌉ + 1 probes; tree
            // sizes bound the range.
            let range = t1.len().max(t2.len()) as u32 + 1;
            assert!(
                probes <= range.ilog2() + 3,
                "{probes} probes for range {range} on {x} vs {y}"
            );
            // A cap the bound exceeds is settled by one matching.
            if let Some(cap) = bound.checked_sub(1) {
                if cap >= v1.size_bound(&v2) {
                    assert_eq!(
                        v1.optimistic_bound_within_counted(&v2, cap),
                        (bound, 1),
                        "{x} vs {y}"
                    );
                }
            }
        }
        // Identical trees satisfy the predicate at pr_min = 0 at once.
        let (v1, v2, _, _) = vectors("a(b c)", "a(b c)", 2);
        assert_eq!(v1.optimistic_bound_within_counted(&v2, u64::MAX), (0, 1));
    }

    #[test]
    fn positional_bound_can_beat_plain_bound() {
        // Swapping distant siblings keeps counts identical (BDist = 0) but
        // moves positions; the positional bound sees that.
        let (v1, v2, t1, t2) = vectors(
            "r(a(x y) b c d e f g a(x y))",
            "r(a(x y) g b c d e f a(x y))",
            2,
        );
        let edist = edit_distance(&t1, &t2);
        let propt = v1.optimistic_bound(&v2);
        assert!(propt <= edist);
        // The plain bound collapses here; the positional one may not.
        let plain = v1.bdist(&v2).div_ceil(5);
        assert!(propt >= plain);
    }

    #[test]
    fn exceeds_range_is_safe() {
        let cases = [
            ("a(b(c(d)) b e)", "a(c(d) b e)"),
            ("a(b c)", "x(y z)"),
            ("a(b(c(d)))", "a(b c d)"),
        ];
        for (x, y) in cases {
            let (v1, v2, t1, t2) = vectors(x, y, 2);
            let edist = edit_distance(&t1, &t2);
            for tau in 0..=(edist as u32 + 2) {
                if v1.exceeds_range(&v2, tau) {
                    assert!(
                        edist > u64::from(tau),
                        "pruned a true result: EDist {edist} ≤ τ {tau} on {x} vs {y}"
                    );
                }
            }
        }
    }

    #[test]
    fn query_vector_against_frozen_vocab() {
        let mut interner = LabelInterner::new();
        let data = bracket::parse(&mut interner, "a(b c)").unwrap();
        let query = bracket::parse(&mut interner, "a(b c z)").unwrap();
        let mut vocab = BranchVocab::new(2);
        let dv = PositionalVector::build(&data, &mut vocab);
        let mut query_vocab = QueryVocab::new(&vocab);
        let qv = PositionalVector::build_query(&query, &mut query_vocab);
        let edist = edit_distance(&data, &query);
        assert!(qv.optimistic_bound(&dv) <= edist);
        assert_eq!(qv.tree_size(), 4);
        assert_eq!(dv.tree_size(), 3);
    }

    #[test]
    fn q3_positional_bound_holds() {
        let (v1, v2, t1, t2) = vectors("a(b(c(d)) b e)", "a(c(d) e b)", 3);
        let edist = edit_distance(&t1, &t2);
        assert!(v1.optimistic_bound(&v2) <= edist);
    }

    #[test]
    fn entries_are_sorted_with_sorted_positions() {
        let (v1, ..) = vectors("a(b(a(b)) a b(a))", "a", 2);
        let mut previous: Option<BranchId> = None;
        for entry in v1.entries() {
            if let Some(p) = previous {
                assert!(entry.branch > p);
            }
            previous = Some(entry.branch);
            assert!(entry.positions.windows(2).all(|w| w[0].0 <= w[1].0));
        }
    }
}
