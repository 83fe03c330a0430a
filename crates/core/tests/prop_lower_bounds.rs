//! Property tests for the paper's central claims:
//!
//! * Theorem 3.2: `BDist(T1,T2) ≤ 5 · EDist(T1,T2)`;
//! * Theorem 3.3: `BDist_q(T1,T2) ≤ [4(q−1)+1] · EDist(T1,T2)`;
//! * §4.2: `⌈BDist/5⌉ ≤ propt ≤ EDist` (the optimistic bound is valid and
//!   at least as tight as the plain bound);
//! * Proposition 4.2: the range-pruning predicate never prunes a true
//!   result;
//! * the one-matching range test and the capped `propt` search agree with
//!   the full binary search they replace, on generic forests and on
//!   nested equal labels (the non-co-sorted matching path);
//! * triangle inequality of `BDist`.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use treesim_core::{BranchVector, BranchVocab, PositionalVector};
use treesim_datagen::mutate::apply_random_ops;
use treesim_datagen::normal::Normal;
use treesim_datagen::synthetic::{generate, SyntheticConfig};
use treesim_edit::edit_distance;
use treesim_tree::{Forest, LabelId, Tree, TreeId};

fn small_forest(seed: u64, size_mean: f64, labels: u32, count: usize) -> Forest {
    generate(&SyntheticConfig {
        fanout: Normal::new(2.5, 1.0),
        size: Normal::new(size_mean, 3.0),
        label_count: labels,
        decay: 0.25,
        seed_count: 2.min(count),
        tree_count: count,
        rng_seed: seed,
    })
}

fn forest_labels(forest: &Forest) -> Vec<LabelId> {
    forest
        .interner()
        .iter()
        .map(|(id, _)| id)
        .filter(|id| !id.is_epsilon())
        .collect()
}

fn positional_pair(t1: &Tree, t2: &Tree, q: usize) -> (PositionalVector, PositionalVector) {
    let mut vocab = BranchVocab::new(q);
    (
        PositionalVector::build(t1, &mut vocab),
        PositionalVector::build(t2, &mut vocab),
    )
}

/// A bracket tree of `nodes` nodes labelled mostly `a` (some `b`), each
/// node hung under one of the three previous ones, so equal labels nest
/// deeply: `a(a(a b) a)`-style shapes, whose repeated branches have
/// ancestor/descendant occurrences (preorder and postorder disagree).
fn nested_spec(rng: &mut StdRng, nodes: usize) -> String {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); nodes];
    for node in 1..nodes {
        let parent = node - 1 - rng.random_range(0..node.min(3));
        children[parent].push(node);
    }
    let labels: Vec<char> = (0..nodes)
        .map(|_| {
            if rng.random_range(0..4) == 0 {
                'b'
            } else {
                'a'
            }
        })
        .collect();
    fn render(node: usize, children: &[Vec<usize>], labels: &[char], out: &mut String) {
        out.push(labels[node]);
        if !children[node].is_empty() {
            out.push('(');
            for (i, &child) in children[node].iter().enumerate() {
                if i > 0 {
                    out.push(' ');
                }
                render(child, children, labels, out);
            }
            out.push(')');
        }
    }
    let mut out = String::new();
    render(0, &children, &labels, &mut out);
    out
}

/// Two nested-label trees of 4–15 nodes from one seed.
fn nested_pair(seed: u64) -> Forest {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut forest = Forest::new();
    for _ in 0..2 {
        let nodes = rng.random_range(4..16);
        let spec = nested_spec(&mut rng, nodes);
        forest
            .parse_bracket(&spec)
            .expect("generated bracket spec parses");
    }
    forest
}

/// The range test as two steps — Proposition 4.2 at `pr = τ`, then the
/// full `propt` search — the oracle for the one-matching form.
fn exceeds_range_two_step(v1: &PositionalVector, v2: &PositionalVector, tau: u32) -> bool {
    let factor = treesim_core::bound_factor(v1.q());
    v1.pos_bdist(v2, tau) > factor * u64::from(tau) || v1.optimistic_bound(v2) > u64::from(tau)
}

/// Checks `exceeds_range` against the two-step oracle for every τ from 0
/// to `pr_max + 2`, and `optimistic_bound_within` for every cap from 0
/// to `pr_max` and `u64::MAX`.
fn check_against_full_search(
    v1: &PositionalVector,
    v2: &PositionalVector,
) -> Result<(), TestCaseError> {
    let pr_max = v1.tree_size().max(v2.tree_size());
    let propt = v1.optimistic_bound(v2);
    for tau in 0..=pr_max + 2 {
        prop_assert_eq!(
            v1.exceeds_range(v2, tau),
            exceeds_range_two_step(v1, v2, tau),
            "τ = {}",
            tau
        );
    }
    let caps = (0..=u64::from(pr_max)).chain([u64::MAX]);
    for cap in caps {
        let capped = v1.optimistic_bound_within(v2, cap);
        if propt <= cap {
            prop_assert_eq!(capped, propt, "cap = {}", cap);
        } else {
            prop_assert!(
                cap < capped && capped <= propt,
                "cap = {cap}: capped bound {capped} outside (cap, propt = {propt}]"
            );
        }
    }
    Ok(())
}

/// The nested-label generator does reach the general matcher: some branch
/// occurs at an ancestor and a descendant, so its occurrences sorted by
/// preorder are not sorted by postorder.
#[test]
fn nested_generator_yields_non_co_sorted_positions() {
    let nested = (0..40u64).any(|seed| {
        let forest = nested_pair(seed);
        let (v1, _) = positional_pair(forest.tree(TreeId(0)), forest.tree(TreeId(1)), 2);
        let nested = v1
            .entries()
            .any(|entry| entry.positions.windows(2).any(|w| w[0].1 > w[1].1));
        nested
    });
    assert!(nested, "no seed produced nested occurrences of one branch");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Theorem 3.2 on random tree pairs.
    #[test]
    fn theorem_3_2_bdist_bounded_by_5_edist(seed in 0u64..100_000) {
        let forest = small_forest(seed, 10.0, 5, 2);
        let t1 = forest.tree(TreeId(0));
        let t2 = forest.tree(TreeId(1));
        let edist = edit_distance(t1, t2);
        let bdist = treesim_core::binary_branch_distance(t1, t2, 2);
        prop_assert!(bdist <= 5 * edist, "BDist {bdist} > 5·EDist {}", 5 * edist);
    }

    /// Theorem 3.3 for q ∈ {2, 3, 4}.
    #[test]
    fn theorem_3_3_q_level_bound(seed in 0u64..100_000, q in 2usize..5) {
        let forest = small_forest(seed, 9.0, 4, 2);
        let t1 = forest.tree(TreeId(0));
        let t2 = forest.tree(TreeId(1));
        let edist = edit_distance(t1, t2);
        let bdist_q = treesim_core::binary_branch_distance(t1, t2, q);
        let factor = treesim_core::bound_factor(q);
        prop_assert!(
            bdist_q <= factor * edist,
            "q={q}: BDist_q {bdist_q} > {factor}·EDist {}",
            factor * edist
        );
    }

    /// Single-operation distortion: k random operations change BDist by at
    /// most 5k (tighter per-op accounting than comparing to EDist, which
    /// may be < k when ops cancel).
    #[test]
    fn k_ops_change_bdist_by_at_most_5k(seed in 0u64..100_000, k in 0usize..6) {
        let forest = small_forest(seed, 14.0, 6, 1);
        let t1 = forest.tree(TreeId(0));
        let labels = forest_labels(&forest);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xabcdef);
        let (t2, ops) = apply_random_ops(t1, k, &labels, &mut rng);
        let bdist = treesim_core::binary_branch_distance(t1, &t2, 2);
        prop_assert!(
            bdist <= 5 * ops.len() as u64,
            "BDist {bdist} > 5k {}",
            5 * ops.len()
        );
    }

    /// §4.2: ⌈BDist/5⌉ ≤ propt ≤ EDist.
    #[test]
    fn optimistic_bound_is_valid_and_tighter(seed in 0u64..100_000) {
        let forest = small_forest(seed, 10.0, 4, 2);
        let t1 = forest.tree(TreeId(0));
        let t2 = forest.tree(TreeId(1));
        let edist = edit_distance(t1, t2);
        let (v1, v2) = positional_pair(t1, t2, 2);
        let plain = v1.bdist(&v2).div_ceil(5);
        let propt = v1.optimistic_bound(&v2);
        prop_assert!(propt <= edist, "propt {propt} > EDist {edist}");
        prop_assert!(propt >= plain, "propt {propt} < ⌈BDist/5⌉ {plain}");
    }

    /// Proposition 4.2: range pruning admits every true result.
    #[test]
    fn range_pruning_has_no_false_negatives(seed in 0u64..100_000, tau in 0u32..8) {
        let forest = small_forest(seed, 9.0, 4, 2);
        let t1 = forest.tree(TreeId(0));
        let t2 = forest.tree(TreeId(1));
        let edist = edit_distance(t1, t2);
        let (v1, v2) = positional_pair(t1, t2, 2);
        if edist <= u64::from(tau) {
            prop_assert!(
                !v1.exceeds_range(&v2, tau),
                "pruned a result with EDist {edist} ≤ τ {tau}"
            );
        }
    }

    /// The one-matching `exceeds_range` equals the two-step form and the
    /// capped `propt` search agrees with the full one, for q ∈ 2..5, on
    /// generic forests (sizes differ, so τ < pr_min occurs).
    #[test]
    fn one_matching_forms_equal_the_full_search(seed in 0u64..100_000, q in 2usize..5) {
        let forest = small_forest(seed, 9.0, 4, 2);
        let (v1, v2) = positional_pair(forest.tree(TreeId(0)), forest.tree(TreeId(1)), q);
        check_against_full_search(&v1, &v2)?;
        check_against_full_search(&v2, &v1)?;
    }

    /// The same agreement on nested equal labels, where position lists
    /// are not co-sorted and the matcher runs Kuhn's algorithm.
    #[test]
    fn one_matching_forms_equal_the_full_search_nested(seed in 0u64..100_000, q in 2usize..5) {
        let forest = nested_pair(seed);
        let (v1, v2) = positional_pair(forest.tree(TreeId(0)), forest.tree(TreeId(1)), q);
        check_against_full_search(&v1, &v2)?;
        check_against_full_search(&v2, &v1)?;
    }

    /// The q-level optimistic bound is valid too.
    #[test]
    fn q_level_optimistic_bound_is_valid(seed in 0u64..100_000, q in 2usize..5) {
        let forest = small_forest(seed, 8.0, 4, 2);
        let t1 = forest.tree(TreeId(0));
        let t2 = forest.tree(TreeId(1));
        let edist = edit_distance(t1, t2);
        let (v1, v2) = positional_pair(t1, t2, q);
        prop_assert!(v1.optimistic_bound(&v2) <= edist);
    }

    /// Triangle inequality and symmetry of BDist (it is a pseudometric).
    #[test]
    fn bdist_pseudometric_axioms(seed in 0u64..100_000) {
        let forest = small_forest(seed, 8.0, 4, 3);
        let mut vocab = BranchVocab::new(2);
        let vectors: Vec<BranchVector> = forest
            .trees()
            .iter()
            .map(|t| BranchVector::build(t, &mut vocab))
            .collect();
        let d = |a: usize, b: usize| vectors[a].bdist(&vectors[b]);
        prop_assert_eq!(d(0, 0), 0);
        prop_assert_eq!(d(0, 1), d(1, 0));
        prop_assert!(d(0, 2) <= d(0, 1) + d(1, 2));
    }

    /// PosBDist is monotonically non-increasing in pr and converges to BDist.
    #[test]
    fn pos_bdist_monotone_in_pr(seed in 0u64..100_000) {
        let forest = small_forest(seed, 9.0, 4, 2);
        let t1 = forest.tree(TreeId(0));
        let t2 = forest.tree(TreeId(1));
        let (v1, v2) = positional_pair(t1, t2, 2);
        let pr_max = v1.tree_size().max(v2.tree_size());
        let mut previous = u64::MAX;
        for pr in 0..=pr_max {
            let d = v1.pos_bdist(&v2, pr);
            prop_assert!(d <= previous);
            previous = d;
        }
        prop_assert_eq!(previous, v1.bdist(&v2));
    }
}
