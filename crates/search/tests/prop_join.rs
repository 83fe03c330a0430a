//! Property tests for the similarity join's candidate generation.
//!
//! Every filter's join — the default per-partner `prunes_range` path and
//! `PostingsFilter`'s posting-list walk — must return exactly the
//! brute-force `edit_distance` pairs, and report the same `JoinStats` as
//! the per-pair reference loop below (the join as it was before candidate
//! generation moved into `Filter::join_candidates`).
//!
//! The random forests mix single-node trees, exact duplicates and trees
//! over labels no other tree uses, so pairs that share no binary branch
//! but still have `⌈(|l|+|r|)/5⌉ ≤ τ` occur and must be enumerated from
//! the size buckets rather than from the posting lists.

use proptest::prelude::*;
use treesim_edit::{bounded_zhang_shasha, edit_distance, TreeInfo, UnitCost, ZsWorkspace};
use treesim_search::{
    similarity_join, similarity_self_join, BiBranchFilter, BiBranchMode, Filter, HistogramFilter,
    JoinPair, JoinStats, NoFilter, PostingsFilter,
};
use treesim_tree::{Forest, TreeId};

/// A small deterministic generator for the bracket specs.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (self.0 >> 33) % n
    }
}

/// A random tree of `size` nodes over `labels`, as a bracket spec.
fn random_spec(rng: &mut Lcg, size: usize, labels: &[String]) -> String {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); size];
    for node in 1..size {
        let parent = rng.below(node as u64) as usize;
        children[parent].push(node);
    }
    let names: Vec<&str> = (0..size)
        .map(|_| labels[rng.below(labels.len() as u64) as usize].as_str())
        .collect();
    fn write(node: usize, children: &[Vec<usize>], names: &[&str], out: &mut String) {
        out.push_str(names[node]);
        if !children[node].is_empty() {
            out.push('(');
            for (k, &child) in children[node].iter().enumerate() {
                if k > 0 {
                    out.push(' ');
                }
                write(child, children, names, out);
            }
            out.push(')');
        }
    }
    let mut out = String::new();
    write(0, &children, &names, &mut out);
    out
}

/// Builds a forest from `(kind, seed)` pairs: single-node trees, exact
/// duplicates of an earlier tree, trees over labels of their own, and
/// trees over a small shared label set.
fn build_forest(specs: &[(u8, u64)]) -> Forest {
    let shared: Vec<String> = ["a", "b", "c", "d"].iter().map(|s| s.to_string()).collect();
    let mut written: Vec<String> = Vec::new();
    for (position, &(kind, seed)) in specs.iter().enumerate() {
        let mut rng = Lcg(seed);
        let spec = match kind {
            0 => shared[rng.below(4) as usize].clone(),
            1 if !written.is_empty() => written[rng.below(written.len() as u64) as usize].clone(),
            2 => {
                let own: Vec<String> = (0..2).map(|k| format!("u{position}x{k}")).collect();
                let size = 1 + rng.below(4) as usize;
                random_spec(&mut rng, size, &own)
            }
            _ => {
                let size = 1 + rng.below(7) as usize;
                random_spec(&mut rng, size, &shared)
            }
        };
        written.push(spec);
    }
    let mut forest = Forest::new();
    for spec in &written {
        forest.parse_bracket(spec).expect("generated spec parses");
    }
    forest
}

/// Every pair `(l, r)` of the join, by brute force: `l ∈ left`,
/// `r ∈ right`, `l ≠ r`, `EDist ≤ τ`, and when both orientations qualify
/// only `l < r`.
fn brute_force(forest: &Forest, left: &[TreeId], right: &[TreeId], tau: u32) -> Vec<JoinPair> {
    let mut pairs = Vec::new();
    for (i, ti) in forest.iter() {
        for (j, tj) in forest.iter() {
            if j <= i {
                continue;
            }
            let forward = left.contains(&i) && right.contains(&j);
            let backward = left.contains(&j) && right.contains(&i);
            if !forward && !backward {
                continue;
            }
            let distance = edit_distance(ti, tj);
            if distance <= u64::from(tau) {
                let (left, right) = if forward { (i, j) } else { (j, i) };
                pairs.push(JoinPair {
                    left,
                    right,
                    distance,
                });
            }
        }
    }
    pairs.sort_unstable_by_key(|p| (p.left, p.right));
    pairs
}

/// The per-pair reference loop: one `prepare_query` per left tree, the
/// size pre-filter and `prunes_range` on every partner, bounded
/// refinement of the survivors. `right == None` is the self-join.
fn reference_join<F: Filter>(
    forest: &Forest,
    filter: &F,
    left: &[TreeId],
    right: Option<&[TreeId]>,
    tau: u32,
) -> (Vec<JoinPair>, JoinStats) {
    let sizes: Vec<u64> = forest.iter().map(|(_, t)| t.len() as u64).collect();
    let infos: Vec<TreeInfo> = forest.iter().map(|(_, t)| TreeInfo::new(t)).collect();
    let mut workspace = ZsWorkspace::new();
    let mut stats = JoinStats::default();
    let mut pairs = Vec::new();
    for (position, &l) in left.iter().enumerate() {
        let query = filter.prepare_query(forest.tree(l));
        let partners = match right {
            Some(right) => right,
            None => &left[position + 1..],
        };
        for &r in partners {
            if r == l {
                continue;
            }
            if let Some(right) = right {
                if l > r && right.contains(&l) && left.contains(&r) {
                    continue;
                }
            }
            if sizes[l.index()].abs_diff(sizes[r.index()]) > u64::from(tau) {
                continue;
            }
            stats.pairs_considered += 1;
            if filter.prunes_range(&query, r, tau) {
                continue;
            }
            stats.pairs_refined += 1;
            let (refined, bounded) = bounded_zhang_shasha(
                &infos[l.index()],
                &infos[r.index()],
                &UnitCost,
                u64::from(tau),
                &mut workspace,
            );
            stats.cells_skipped += bounded.cells_skipped;
            match refined {
                Some(distance) => {
                    stats.pairs_joined += 1;
                    pairs.push(JoinPair {
                        left: l,
                        right: r,
                        distance,
                    });
                }
                None => stats.pairs_cutoff += 1,
            }
        }
    }
    pairs.sort_unstable_by_key(|p| (p.left, p.right));
    (pairs, stats)
}

/// The ids whose bit is set in `mask`.
fn subset(forest: &Forest, mask: u64) -> Vec<TreeId> {
    forest
        .iter()
        .map(|(id, _)| id)
        .filter(|id| (mask >> (id.index() % 64)) & 1 == 1)
        .collect()
}

/// Self-join and an overlapping cross-join under `filter`: pairs equal
/// brute force and stats equal the reference loop, field for field.
fn check_filter<F: Filter>(
    forest: &Forest,
    filter: &F,
    left: &[TreeId],
    right: &[TreeId],
    tau: u32,
) -> Result<(), TestCaseError> {
    let name = filter.name();
    let all: Vec<TreeId> = forest.iter().map(|(id, _)| id).collect();

    let (pairs, stats) = similarity_self_join(forest, filter, tau);
    prop_assert_eq!(
        &pairs,
        &brute_force(forest, &all, &all, tau),
        "{} self-join τ={}",
        name,
        tau
    );
    let (_, want) = reference_join(forest, filter, &all, None, tau);
    prop_assert_eq!(stats, want, "{} self-join stats τ={}", name, tau);

    let (pairs, stats) = similarity_join(forest, filter, left, right, tau);
    prop_assert_eq!(
        &pairs,
        &brute_force(forest, left, right, tau),
        "{} cross-join τ={}",
        name,
        tau
    );
    let (_, want) = reference_join(forest, filter, left, Some(right), tau);
    prop_assert_eq!(stats, want, "{} cross-join stats τ={}", name, tau);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_filter_joins_exactly(
        specs in prop::collection::vec((0u8..5, any::<u64>()), 2..13),
        masks in (any::<u64>(), any::<u64>()),
        tau in 0u32..5,
    ) {
        let forest = build_forest(&specs);
        // Overlapping partitions: the right side always shares a tree
        // with the left side when both are non-empty.
        let left = subset(&forest, masks.0);
        let right = subset(&forest, masks.1 | (masks.0 & masks.0.wrapping_neg()));
        check_filter(&forest, &PostingsFilter::build(&forest, 2), &left, &right, tau)?;
        check_filter(&forest, &PostingsFilter::with_histogram(&forest, 2), &left, &right, tau)?;
        check_filter(
            &forest,
            &BiBranchFilter::build(&forest, 2, BiBranchMode::Positional),
            &left,
            &right,
            tau,
        )?;
        check_filter(
            &forest,
            &BiBranchFilter::build(&forest, 2, BiBranchMode::Plain),
            &left,
            &right,
            tau,
        )?;
        check_filter(&forest, &HistogramFilter::build(&forest), &left, &right, tau)?;
        check_filter(&forest, &NoFilter::build(&forest), &left, &right, tau)?;
    }
}

/// Two single-node trees with different labels share no binary branch,
/// yet are one relabel apart: the postings join must find the pair from
/// the size buckets, since no posting list links them.
#[test]
fn postings_join_finds_pairs_sharing_no_branch() {
    let mut forest = Forest::new();
    for spec in ["a", "z", "a(b c)", "y(x)"] {
        forest.parse_bracket(spec).expect("valid spec");
    }
    let filter = PostingsFilter::build(&forest, 2);
    let (pairs, stats) = similarity_self_join(&forest, &filter, 1);
    assert!(pairs.contains(&JoinPair {
        left: TreeId(0),
        right: TreeId(1),
        distance: 1,
    }));
    let all: Vec<TreeId> = forest.iter().map(|(id, _)| id).collect();
    assert_eq!(pairs, brute_force(&forest, &all, &all, 1));
    assert_eq!(stats, reference_join(&forest, &filter, &all, None, 1).1);
}

/// An id listed twice on one side is joined once.
#[test]
fn duplicate_ids_within_a_side_count_once() {
    let mut forest = Forest::new();
    for spec in ["a(b)", "a(c)", "a(b c)"] {
        forest.parse_bracket(spec).expect("valid spec");
    }
    let filter = PostingsFilter::build(&forest, 2);
    let once = similarity_join(&forest, &filter, &[TreeId(0)], &[TreeId(1), TreeId(2)], 2);
    let twice = similarity_join(
        &forest,
        &filter,
        &[TreeId(0), TreeId(0)],
        &[TreeId(2), TreeId(1), TreeId(2)],
        2,
    );
    assert_eq!(once, twice);
}
