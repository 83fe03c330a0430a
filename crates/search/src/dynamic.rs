//! A mutable, self-contained index: trees can be appended over time and
//! queried immediately — the shape a production ingest pipeline needs,
//! complementing the immutable [`crate::SearchEngine`] (build once, query
//! many).
//!
//! Appending a tree costs one branch extraction (`O(|T|)`) plus the
//! Zhang–Shasha precomputation **plus one posting-list append per distinct
//! branch**: the index maintains the same per-branch posting lists as the
//! static [`treesim_core::InvertedFileIndex`], extended incrementally —
//! pushes append to the affected lists instead of rebuilding the index
//! (tree ids only ever grow, so every list stays a sorted run). Queries
//! are identical in results to an engine rebuilt from scratch (tested)
//! and run a three-stage cascade mirroring the static
//! [`crate::PostingsFilter`]: the stage −1 `postings` bound (k-way merge
//! of the query's posting lists), the O(1) `size` screen, then the
//! `propt` positional bound.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

use treesim_core::{BranchVocab, PositionalVector, VectorArena};
use treesim_edit::{bounded_zhang_shasha, TreeInfo, UnitCost, ZsWorkspace};
use treesim_obs::recorder::{self, QueryKind};
use treesim_tree::{Forest, LabelInterner, Tree, TreeId};

use crate::engine::{emit_record, Neighbor};
use crate::stats::{SearchStats, StageStats};

/// Bounded refinement of one candidate, mirroring the static engine's
/// `SearchEngine::refine`: `Some(d)` is the exact distance iff `d ≤
/// budget`, `None` means the distance provably exceeds the budget. Feeds
/// the same `refine.zs.nodes` effective-volume histogram and
/// `refine.bounded.{cutoffs,bands_skipped}` counters, and the matching
/// [`SearchStats`] fields.
fn refine_bounded(
    query_info: &TreeInfo,
    data_info: &TreeInfo,
    budget: u64,
    workspace: &mut ZsWorkspace,
    zs_nodes: &mut u64,
    cutoffs: &mut usize,
    bands_skipped: &mut u64,
) -> Option<u64> {
    let (distance, bounded) =
        bounded_zhang_shasha(query_info, data_info, &UnitCost, budget, workspace);
    #[cfg(feature = "strict-checks")]
    {
        let oracle =
            treesim_edit::zhang_shasha(query_info, data_info, &UnitCost, &mut ZsWorkspace::new());
        match distance {
            Some(d) => debug_assert_eq!(d, oracle, "bounded DP disagrees with oracle"),
            None => debug_assert!(
                oracle > budget,
                "bounded DP cut off a within-budget pair: oracle {oracle} ≤ budget {budget}"
            ),
        }
    }
    let nodes = (query_info.len() + data_info.len()) as u64;
    let effective = (nodes * bounded.cells_computed)
        .checked_div(bounded.cells_full)
        .unwrap_or(0);
    treesim_obs::histogram!("refine.zs.nodes").record(effective);
    *zs_nodes += effective;
    *bands_skipped += bounded.cells_skipped;
    treesim_obs::counter!("refine.bounded.bands_skipped").add(bounded.cells_skipped);
    if distance.is_none() {
        *cutoffs += 1;
        treesim_obs::counter!("refine.bounded.cutoffs").inc();
    }
    distance
}

/// An appendable similarity index over rooted, ordered, labeled trees.
///
/// # Examples
///
/// ```
/// use treesim_search::DynamicIndex;
///
/// let mut index = DynamicIndex::new(2);
/// index.push_bracket("a(b c)").unwrap();
/// index.push_bracket("a(b d)").unwrap();
///
/// let query = index.forest().tree(treesim_tree::TreeId(0));
/// let (hits, _) = index.knn(query, 2);
/// assert_eq!(hits[0].distance, 0);
/// assert_eq!(hits[1].distance, 1);
/// ```
pub struct DynamicIndex {
    forest: Forest,
    vocab: BranchVocab,
    vectors: Vec<PositionalVector>,
    infos: Vec<TreeInfo>,
    /// Per-branch posting lists, indexed by branch raw id:
    /// `(tree raw id, branch count)`, ascending by tree id — the
    /// incrementally-maintained counterpart of
    /// [`treesim_core::InvertedFileIndex`]'s postings.
    postings: Vec<Vec<(u32, u32)>>,
    /// CSR arena over the same vectors, grown segment-wise on every push
    /// (each append is one new segment; earlier segments never move), so
    /// the cascade's size screen reads a flat lane here too.
    arena: VectorArena,
}

impl DynamicIndex {
    /// Creates an empty index with q-level binary branches.
    ///
    /// # Panics
    ///
    /// Panics if `q < 2`.
    pub fn new(q: usize) -> Self {
        DynamicIndex {
            forest: Forest::new(),
            vocab: BranchVocab::new(q),
            vectors: Vec::new(),
            infos: Vec::new(),
            postings: Vec::new(),
            arena: VectorArena::new(q),
        }
    }

    /// Bulk-loads an existing forest.
    pub fn from_forest(forest: Forest, q: usize) -> Self {
        let mut index = DynamicIndex::new(q);
        let (interner, trees) = {
            let mut trees = Vec::with_capacity(forest.len());
            for (_, tree) in forest.iter() {
                trees.push(tree.clone());
            }
            (forest.interner().clone(), trees)
        };
        *index.forest.interner_mut() = interner;
        for tree in trees {
            index.push(tree);
        }
        index
    }

    /// Number of indexed trees.
    pub fn len(&self) -> usize {
        self.forest.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.forest.is_empty()
    }

    /// The underlying dataset.
    pub fn forest(&self) -> &Forest {
        &self.forest
    }

    /// The shared label interner (intern query labels through this).
    pub fn interner_mut(&mut self) -> &mut LabelInterner {
        self.forest.interner_mut()
    }

    /// The CSR arena mirroring the pushed vectors (one segment per push).
    pub fn arena(&self) -> &VectorArena {
        &self.arena
    }

    /// Appends a tree (labels must come from this index's interner) and
    /// returns its id. The tree is immediately searchable.
    ///
    /// Observability: bumps the `dynamic.push` counter, keeps the
    /// `dynamic.trees` gauge at the index size, and records the append
    /// cost (vectorization + Zhang–Shasha tables) in `dynamic.push.us`.
    pub fn push(&mut self, tree: Tree) -> TreeId {
        let _span = treesim_obs::span!("dynamic.push", nodes = tree.len());
        treesim_obs::counter!("dynamic.push").inc();
        let vector = PositionalVector::build(&tree, &mut self.vocab);
        // Extend the postings stage in place: each of the new tree's
        // distinct branches appends one posting to its list. The new
        // tree's id is the largest so far, so every list stays sorted —
        // no rebuild, no re-sort.
        let raw = self.forest.len() as u32;
        if self.postings.len() < self.vocab.len() {
            self.postings.resize(self.vocab.len(), Vec::new());
        }
        for entry in vector.entries() {
            self.postings[entry.branch.index()].push((raw, entry.positions.len() as u32));
        }
        self.arena
            .push_tree(vector.iter_counts(), vector.tree_size());
        crate::filter::publish_arena_gauges(&self.arena);
        self.vectors.push(vector);
        self.infos.push(TreeInfo::new(&tree));
        let id = self.forest.push(tree);
        treesim_obs::gauge!("dynamic.trees").set(self.len() as i64);
        id
    }

    /// Parses and appends a bracket-notation tree.
    ///
    /// # Errors
    ///
    /// Propagates parser errors.
    pub fn push_bracket(&mut self, spec: &str) -> Result<TreeId, treesim_tree::ParseError> {
        let tree = {
            let mut interner = self.forest.interner().clone();
            let tree = treesim_tree::parse::bracket::parse(&mut interner, spec)?;
            *self.forest.interner_mut() = interner;
            tree
        };
        Ok(self.push(tree))
    }

    fn query_vector(&self, query: &Tree) -> PositionalVector {
        let mut query_vocab = treesim_core::QueryVocab::new(&self.vocab);
        PositionalVector::build_query(query, &mut query_vocab)
    }

    /// K-way merges the query's posting lists into the per-tree shared
    /// branch mass table (ascending by tree id); see
    /// [`treesim_core::merge_shared_mass`]. Out-of-vocabulary query
    /// branches have no list and are skipped — their mass stays in
    /// `|BRV(q)|`, which keeps the stage −1 bound sound.
    fn shared_mass(&self, query_vector: &PositionalVector) -> Vec<(TreeId, u64)> {
        let runs: Vec<(u32, _)> = query_vector
            .entries()
            .filter(|entry| entry.branch.index() < self.postings.len())
            .map(|entry| {
                (
                    entry.positions.len() as u32,
                    self.postings[entry.branch.index()]
                        .iter()
                        .map(|&(tree, count)| (TreeId(tree), count)),
                )
            })
            .collect();
        treesim_core::merge_shared_mass(self.len(), runs)
    }

    /// The stage −1 bound for one candidate:
    /// `⌈(|BRV(q)| + |BRV(t)| − 2·shared) / (4(q−1)+1)⌉`.
    fn postings_bound(&self, shared: &[(TreeId, u64)], total: u64, raw: u32) -> u64 {
        let mass = match shared.binary_search_by_key(&TreeId(raw), |&(tree, _)| tree) {
            Ok(found) => shared[found].1,
            Err(_) => 0,
        };
        let data_size = u64::from(self.arena.tree_size(raw));
        treesim_core::edit_lower_bound(total + data_size - 2 * mass, self.vocab.q())
    }

    fn stage_accumulators() -> Vec<StageStats> {
        vec![
            StageStats::named("postings"),
            StageStats::named("size"),
            StageStats::named("propt"),
        ]
    }

    /// k-nearest neighbors of `query` (same semantics as
    /// [`crate::SearchEngine::knn`], including smallest-id tie-breaking).
    ///
    /// Candidates escalate lazily: every tree gets the stage −1 postings
    /// bound first (one k-way posting merge for the whole query, then an
    /// O(log candidates) lookup per tree), and only the candidates whose
    /// bound is among the smallest outstanding ones pay for the O(1)
    /// size screen and then the `propt` positional bound.
    pub fn knn(&self, query: &Tree, k: usize) -> (Vec<Neighbor>, SearchStats) {
        // Trace before span (the span must close before the trace
        // finalizes); inert when an enclosing trace is already live.
        let _trace = treesim_obs::trace::start_trace();
        let _span = treesim_obs::span!("dynamic.knn", k = k, dataset = self.len());
        let wall_start = Instant::now();
        recorder::propt_iters_take(); // discard any stale accumulation
        let mut stats = SearchStats {
            dataset_size: self.len(),
            stages: Self::stage_accumulators(),
            ..Default::default()
        };
        if k == 0 || self.is_empty() {
            stats.record_metrics("dynamic.knn");
            emit_record(
                QueryKind::DynamicKnn,
                k as u64,
                &stats,
                &[],
                0,
                wall_start.elapsed(),
            );
            return (Vec::new(), stats);
        }
        let query_vector = self.query_vector(query);
        let shared = self.shared_mass(&query_vector);
        let total = u64::from(query_vector.tree_size());
        // Escalation heap keyed by (bound, next stage, id): stage 1 is
        // the size screen, stage 2 the propt positional bound, stage 3
        // means "fully bounded, refine".
        let mut escalation: BinaryHeap<Reverse<(u64, usize, u32)>> = (0..self.vectors.len())
            .map(|i| {
                let raw = i as u32;
                Reverse((self.postings_bound(&shared, total, raw), 1, raw))
            })
            .collect();
        if let Some(stage0) = stats.stages.first_mut() {
            stage0.evaluated = self.len();
        }

        let query_info = TreeInfo::new(query);
        let mut workspace = ZsWorkspace::new();
        let mut zs_nodes = 0u64;
        let mut heap: BinaryHeap<(u64, u32)> = BinaryHeap::with_capacity(k + 1);
        while let Some(&Reverse((bound, next_stage, raw))) = escalation.peek() {
            // Same live budget as the static core: the current k-th
            // distance once the heap is full (equal distances still need
            // the exact value for id tie-breaking).
            let budget = match heap.peek() {
                Some(&(worst, _)) if heap.len() == k => worst,
                _ => u64::MAX,
            };
            if bound > budget {
                break;
            }
            escalation.pop();
            if next_stage == 1 {
                let sharper = query_vector.size_bound(&self.vectors[raw as usize]);
                if let Some(stage1) = stats.stages.get_mut(1) {
                    stage1.evaluated += 1;
                }
                escalation.push(Reverse((bound.max(sharper), 2, raw)));
            } else if next_stage == 2 {
                // Capped at the budget, as in the static core.
                let sharper =
                    crate::filter::propt_bound(&query_vector, &self.vectors[raw as usize], budget);
                if let Some(stage2) = stats.stages.get_mut(2) {
                    stage2.evaluated += 1;
                }
                escalation.push(Reverse((bound.max(sharper), 3, raw)));
            } else {
                let data_info = &self.infos[raw as usize];
                let refined = refine_bounded(
                    &query_info,
                    data_info,
                    budget,
                    &mut workspace,
                    &mut zs_nodes,
                    &mut stats.refine_cutoffs,
                    &mut stats.refine_bands_skipped,
                );
                stats.refined += 1;
                if let Some(distance) = refined {
                    heap.push((distance, raw));
                    if heap.len() > k {
                        heap.pop();
                    }
                }
            }
        }
        for &Reverse((_, next_stage, _)) in escalation.iter() {
            stats.stages[next_stage - 1].pruned += 1;
        }
        let mut results: Vec<Neighbor> = heap
            .into_iter()
            .map(|(distance, raw)| Neighbor {
                tree: TreeId(raw),
                distance,
            })
            .collect();
        results.sort_unstable_by_key(|n| (n.distance, n.tree));
        stats.results = results.len();
        stats.record_metrics("dynamic.knn");
        emit_record(
            QueryKind::DynamicKnn,
            k as u64,
            &stats,
            &results,
            zs_nodes,
            wall_start.elapsed(),
        );
        (results, stats)
    }

    /// Range query (same semantics as [`crate::SearchEngine::range`]).
    pub fn range(&self, query: &Tree, tau: u32) -> (Vec<Neighbor>, SearchStats) {
        // Trace before span, as in `knn`.
        let _trace = treesim_obs::trace::start_trace();
        let _span = treesim_obs::span!("dynamic.range", tau = tau, dataset = self.len());
        let wall_start = Instant::now();
        recorder::propt_iters_take(); // discard any stale accumulation
        let mut stats = SearchStats {
            dataset_size: self.len(),
            stages: Self::stage_accumulators(),
            ..Default::default()
        };
        let query_vector = self.query_vector(query);
        let shared = self.shared_mass(&query_vector);
        let total = u64::from(query_vector.tree_size());
        let query_info = TreeInfo::new(query);
        let mut workspace = ZsWorkspace::new();
        let mut zs_nodes = 0u64;
        let mut results = Vec::new();
        let [stage_postings, stage_size, stage_propt] = &mut stats.stages[..] else {
            unreachable!("constructed with exactly three stages above")
        };
        stage_postings.evaluated = self.len();
        for (raw, vector) in self.vectors.iter().enumerate() {
            // Stage −1 first: the postings bound needs no access to the
            // candidate's vector beyond its stored size.
            if self.postings_bound(&shared, total, raw as u32) > u64::from(tau) {
                stage_postings.pruned += 1;
                continue;
            }
            stage_size.evaluated += 1;
            // Then the O(1) size screen, skipping the positional merge
            // entirely when it already exceeds τ.
            if query_vector.size_bound(vector) > u64::from(tau) {
                stage_size.pruned += 1;
                continue;
            }
            stage_propt.evaluated += 1;
            if query_vector.exceeds_range(vector, tau) {
                stage_propt.pruned += 1;
                continue;
            }
            let data_info = &self.infos[raw];
            // τ is the refinement budget: `Some(d)` already implies a hit.
            let refined = refine_bounded(
                &query_info,
                data_info,
                u64::from(tau),
                &mut workspace,
                &mut zs_nodes,
                &mut stats.refine_cutoffs,
                &mut stats.refine_bands_skipped,
            );
            stats.refined += 1;
            if let Some(distance) = refined {
                results.push(Neighbor {
                    tree: TreeId(raw as u32),
                    distance,
                });
            }
        }
        results.sort_unstable_by_key(|n| (n.distance, n.tree));
        stats.results = results.len();
        stats.record_metrics("dynamic.range");
        emit_record(
            QueryKind::DynamicRange,
            u64::from(tau),
            &stats,
            &results,
            zs_nodes,
            wall_start.elapsed(),
        );
        (results, stats)
    }
}

impl std::fmt::Debug for DynamicIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DynamicIndex")
            .field("trees", &self.len())
            .field("vocab", &self.vocab.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SearchEngine;
    use crate::filter::{BiBranchFilter, BiBranchMode};

    fn specs() -> Vec<&'static str> {
        vec![
            "a(b(c(d)) b e)",
            "a(c(d) b e)",
            "a(b c)",
            "x(y z)",
            "a(b(c d e) f)",
            "q(r(s))",
        ]
    }

    #[test]
    fn matches_static_engine_after_incremental_loads() {
        let mut dynamic = DynamicIndex::new(2);
        let mut forest = Forest::new();
        for spec in specs() {
            dynamic.push_bracket(spec).unwrap();
            forest.parse_bracket(spec).unwrap();

            // After EVERY insert, results must match a from-scratch engine.
            let engine = SearchEngine::new(
                &forest,
                BiBranchFilter::build(&forest, 2, BiBranchMode::Positional),
            );
            for (_, query) in forest.iter() {
                let (a, _) = dynamic.knn(query, 3);
                let (b, _) = engine.knn(query, 3);
                let av: Vec<u64> = a.iter().map(|n| n.distance).collect();
                let bv: Vec<u64> = b.iter().map(|n| n.distance).collect();
                assert_eq!(av, bv);
                for tau in [0u32, 1, 3] {
                    let (ra, _) = dynamic.range(query, tau);
                    let (rb, _) = engine.range(query, tau);
                    assert_eq!(
                        ra.iter().map(|n| (n.tree, n.distance)).collect::<Vec<_>>(),
                        rb.iter().map(|n| (n.tree, n.distance)).collect::<Vec<_>>()
                    );
                }
            }
        }
        assert_eq!(dynamic.len(), specs().len());
        assert!(!dynamic.is_empty());
    }

    #[test]
    fn bulk_load_equals_incremental() {
        let mut forest = Forest::new();
        for spec in specs() {
            forest.parse_bracket(spec).unwrap();
        }
        let bulk = DynamicIndex::from_forest(forest.clone(), 2);
        let mut incremental = DynamicIndex::new(2);
        for spec in specs() {
            incremental.push_bracket(spec).unwrap();
        }
        let query = forest.tree(TreeId(0));
        let a: Vec<u64> = bulk.knn(query, 4).0.iter().map(|n| n.distance).collect();
        let b: Vec<u64> = incremental
            .knn(query, 4)
            .0
            .iter()
            .map(|n| n.distance)
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_index_behaves() {
        let index = DynamicIndex::new(2);
        let mut probe = DynamicIndex::new(2);
        let id = probe.push_bracket("a").unwrap();
        let query = probe.forest().tree(id);
        let (hits, stats) = index.knn(query, 3);
        assert!(hits.is_empty());
        assert_eq!(stats.dataset_size, 0);
        let (hits, _) = index.range(query, 5);
        assert!(hits.is_empty());
        assert!(format!("{index:?}").contains("DynamicIndex"));
    }

    #[test]
    fn interleaved_pushes_extend_postings_stage() {
        // The satellite contract: pushes must extend the postings stage
        // incrementally (never a rebuild), and every query in between
        // runs the full three-stage cascade with correct results and a
        // telescoping funnel.
        let mut index = DynamicIndex::new(2);
        let mut forest = Forest::new();
        for (round, spec) in specs().iter().enumerate() {
            index.push_bracket(spec).unwrap();
            forest.parse_bracket(spec).unwrap();
            let engine =
                SearchEngine::new(&forest, crate::filter::PostingsFilter::build(&forest, 2));
            for (_, query) in forest.iter() {
                let (hits, stats) = index.knn(query, 2);
                assert_eq!(
                    stats.stages.iter().map(|s| s.name).collect::<Vec<_>>(),
                    vec!["postings", "size", "propt"],
                    "round {round}"
                );
                assert_eq!(stats.stages[0].evaluated, forest.len());
                let (want, _) = engine.knn(query, 2);
                assert_eq!(
                    hits.iter().map(|n| n.distance).collect::<Vec<_>>(),
                    want.iter().map(|n| n.distance).collect::<Vec<_>>(),
                    "round {round}"
                );

                let (range_hits, range_stats) = index.range(query, 2);
                let (range_want, _) = engine.range(query, 2);
                assert_eq!(
                    range_hits
                        .iter()
                        .map(|n| (n.tree, n.distance))
                        .collect::<Vec<_>>(),
                    range_want
                        .iter()
                        .map(|n| (n.tree, n.distance))
                        .collect::<Vec<_>>(),
                );
                assert_eq!(range_stats.stages[0].name, "postings");
                for pair in range_stats.stages.windows(2) {
                    assert_eq!(pair[0].survivors(), pair[1].evaluated);
                }
                assert_eq!(
                    range_stats.stages.last().unwrap().survivors(),
                    range_stats.refined
                );
            }
        }
        // The posting lists are sorted runs (the merge kernel's input
        // contract) and cover exactly the pushed trees' branch masses.
        let total_mass: usize = index
            .postings
            .iter()
            .flatten()
            .map(|&(_, c)| c as usize)
            .sum();
        let node_total: usize = index.forest.iter().map(|(_, t)| t.len()).sum();
        assert_eq!(total_mass, node_total);
        for list in &index.postings {
            for pair in list.windows(2) {
                assert!(pair[0].0 < pair[1].0, "posting run out of order");
            }
        }
    }

    #[test]
    fn queries_see_new_data_immediately() {
        let mut index = DynamicIndex::new(2);
        index.push_bracket("a(b c)").unwrap();
        let query = {
            let mut interner = index.forest().interner().clone();
            let t = treesim_tree::parse::bracket::parse(&mut interner, "a(b c d)").unwrap();
            *index.interner_mut() = interner;
            t
        };
        let (hits, _) = index.knn(&query, 1);
        assert_eq!(hits[0].distance, 1);
        index.push_bracket("a(b c d)").unwrap();
        let (hits, _) = index.knn(&query, 1);
        assert_eq!(hits[0].distance, 0);
    }
}
