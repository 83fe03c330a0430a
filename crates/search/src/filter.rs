//! Lower-bound filters pluggable into the filter-and-refine engine.
//!
//! A [`Filter`] precomputes per-tree artifacts at indexing time and, given a
//! query, produces a lower bound of the edit distance to any dataset tree.
//! Correctness contract: `lower_bound(query, t) ≤ EDist(query, t)` — the
//! engine's completeness (no false negatives) rests on it.

use treesim_core::{
    BranchVocab, DenseQuery, InvertedFileIndex, PositionalVector, QueryVocab, VectorArena,
};
use treesim_histogram::{BinBudget, HistogramVector};
use treesim_tree::{Forest, Tree, TreeId};

use crate::join::{JoinPartners, JoinScratch};

/// Publishes an arena's footprint gauges (`arena.trees`, `arena.entries`)
/// — refreshed whenever a filter (re)builds its CSR arena.
pub(crate) fn publish_arena_gauges(arena: &VectorArena) {
    treesim_obs::gauge!("arena.trees").set(arena.len() as i64);
    treesim_obs::gauge!("arena.entries").set(arena.entry_count() as i64);
}

/// A lower-bound filter over an indexed dataset.
pub trait Filter {
    /// Per-query artifact (typically the query's vector under the dataset
    /// vocabulary).
    type Query;

    /// Human-readable name for reports ("BiBranch", "Histo", …).
    fn name(&self) -> &'static str;

    /// Vectorizes a query tree.
    fn prepare_query(&self, query: &Tree) -> Self::Query;

    /// A lower bound on `EDist(query, candidate)`.
    fn lower_bound(&self, query: &Self::Query, candidate: TreeId) -> u64;

    /// Number of cascade stages, coarsest (cheapest) first. Stage
    /// `stages() − 1` must compute [`Filter::lower_bound`]; earlier stages
    /// may be arbitrarily looser but must each be valid lower bounds of
    /// `EDist(query, candidate)` on their own — the engine prunes on any
    /// of them.
    fn stages(&self) -> usize {
        1
    }

    /// Short name of cascade stage `stage`, for per-stage reporting.
    fn stage_name(&self, stage: usize) -> &'static str {
        debug_assert!(stage < self.stages());
        self.name()
    }

    /// The stage-`stage` lower bound on `EDist(query, candidate)`.
    ///
    /// Stages need not be pointwise monotone (a cheap stage may exceed a
    /// later one on some pairs); the engine keeps the running maximum,
    /// which is itself a valid lower bound.
    fn stage_bound(&self, query: &Self::Query, candidate: TreeId, stage: usize) -> u64 {
        debug_assert!(stage < self.stages());
        self.lower_bound(query, candidate)
    }

    /// [`Filter::stage_bound`] for a caller that only needs the bound up
    /// to `cap` (k-NN, whose live k-th distance prunes anything above
    /// it): equals `stage_bound` whenever that is `≤ cap`, and otherwise
    /// may return any value in `(cap, stage_bound]` — still a lower bound,
    /// and still above the cap. The default computes `stage_bound`;
    /// filters whose stage can stop early at the cap override this.
    fn stage_bound_within(
        &self,
        query: &Self::Query,
        candidate: TreeId,
        stage: usize,
        _cap: u64,
    ) -> u64 {
        self.stage_bound(query, candidate, stage)
    }

    /// Range-query pruning: `true` only if `EDist(query, candidate) > tau`
    /// is certain. The default tests the generic lower bound; filters with
    /// sharper range predicates (Proposition 4.2) override this.
    fn prunes_range(&self, query: &Self::Query, candidate: TreeId, tau: u32) -> bool {
        self.lower_bound(query, candidate) > u64::from(tau)
    }

    /// Appends `stage_bound(query, id, stage)` for every id in
    /// `candidates` (in order) to `out`.
    ///
    /// `candidates` must be ascending by tree id — the engine's bulk
    /// sweeps always are — so arena-backed filters can override this to
    /// walk their CSR slabs strictly sequentially (and, for the postings
    /// stage, replace per-candidate binary searches with one merged walk).
    /// Results are exactly the per-candidate bounds in the same order;
    /// overrides count their batched evaluations in
    /// `cascade.batch.evaluated`.
    fn stage_bound_batch(
        &self,
        query: &Self::Query,
        candidates: &[TreeId],
        stage: usize,
        out: &mut Vec<u64>,
    ) {
        debug_assert!(candidates.windows(2).all(|w| matches!(w, [a, b] if a < b)));
        out.extend(
            candidates
                .iter()
                .map(|&id| self.stage_bound(query, id, stage)),
        );
    }

    /// One similarity-join row: appends to `out` every partner `r` of
    /// `left` (see [`JoinPartners`]) with
    /// `!prunes_range(&prepare_query(left), r, τ)`, in any order.
    ///
    /// The default does exactly that, one [`Filter::prunes_range`] per
    /// partner. Overrides must return the same set; `scratch` persists
    /// across the rows of one join for their bookkeeping.
    fn join_candidates(
        &self,
        partners: &JoinPartners<'_>,
        left: TreeId,
        _scratch: &mut JoinScratch,
        out: &mut Vec<TreeId>,
    ) {
        let query = self.prepare_query(partners.forest().tree(left));
        let tau = partners.tau();
        out.extend(
            partners
                .window(left)
                .filter(|&right| !self.prunes_range(&query, right, tau)),
        );
    }
}

/// How the binary branch filter derives its bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BiBranchMode {
    /// `⌈BDist/(4(q−1)+1)⌉` — counts only (§3).
    Plain,
    /// The positional optimistic bound `propt` of §4.2 (tighter, slightly
    /// more expensive).
    #[default]
    Positional,
}

/// The paper's filter: binary branch vectors with optional positional
/// tightening. The counts-only data additionally lives in a CSR
/// [`VectorArena`], which the `size`/`bdist` stages read — batched
/// candidate sweeps then touch one contiguous slab in tree-id order.
#[derive(Debug)]
pub struct BiBranchFilter {
    vocab: BranchVocab,
    vectors: Vec<PositionalVector>,
    arena: VectorArena,
    mode: BiBranchMode,
}

/// Per-query artifact of [`BiBranchFilter`]: the query's positional vector
/// plus its counts scattered into a dense lookup for the arena kernels.
#[derive(Debug)]
pub struct BiBranchQuery {
    vector: PositionalVector,
    dense: DenseQuery,
}

impl BiBranchQuery {
    /// The query's positional vector under the dataset vocabulary.
    pub fn vector(&self) -> &PositionalVector {
        &self.vector
    }
}

impl BiBranchFilter {
    /// Indexes `forest` with q-level branches via the inverted file index
    /// (Algorithm 1).
    pub fn build(forest: &Forest, q: usize, mode: BiBranchMode) -> Self {
        Self::from_index(&InvertedFileIndex::build(forest, q), mode)
    }

    /// Builds from an existing inverted file index.
    pub fn from_index(index: &InvertedFileIndex, mode: BiBranchMode) -> Self {
        let arena = VectorArena::from_index(index);
        publish_arena_gauges(&arena);
        BiBranchFilter {
            vocab: index.vocab().clone(),
            vectors: index.positional_vectors(),
            arena,
            mode,
        }
    }

    /// The branch level `q`.
    pub fn q(&self) -> usize {
        self.vocab.q()
    }

    /// The dataset vector of `tree` (for inspection / experiments).
    pub fn vector(&self, tree: TreeId) -> &PositionalVector {
        &self.vectors[tree.index()]
    }

    /// The CSR arena backing the `size`/`bdist` stages.
    pub fn arena(&self) -> &VectorArena {
        &self.arena
    }

    /// The `bdist` stage bound through the arena's dense shared-mass
    /// kernel — bit-identical to the sparse merge (asserted under
    /// `strict-checks`), but reads only the candidate's contiguous slab
    /// run.
    fn bdist_bound(&self, query: &BiBranchQuery, candidate: TreeId) -> u64 {
        let bdist = self.arena.bdist(candidate.index() as u32, &query.dense);
        #[cfg(feature = "strict-checks")]
        debug_assert_eq!(
            bdist,
            query.vector.bdist(&self.vectors[candidate.index()]),
            "arena dense BDist diverged from the sparse merge for tree {candidate:?}"
        );
        treesim_core::edit_lower_bound(bdist, self.q())
    }
}

/// The `propt` bound capped at `cap` (see
/// [`PositionalVector::optimistic_bound_within`]; `u64::MAX` gives the
/// exact bound) with observability: records how many `PosBDist`
/// matchings the capped §4.2 search ran into the `cascade.propt.iters`
/// histogram and into the flight recorder's per-query thread-local
/// accumulator. Shared by the filters and the dynamic index so every
/// propt evaluation is counted the same way.
pub(crate) fn propt_bound(query: &PositionalVector, data: &PositionalVector, cap: u64) -> u64 {
    let (bound, probes) = query.optimistic_bound_within_counted(data, cap);
    treesim_obs::histogram!("cascade.propt.iters").record(u64::from(probes));
    treesim_obs::recorder::propt_iters_add(u64::from(probes));
    bound
}

impl Filter for BiBranchFilter {
    type Query = BiBranchQuery;

    fn name(&self) -> &'static str {
        match self.mode {
            BiBranchMode::Plain => "BiBranch(plain)",
            BiBranchMode::Positional => "BiBranch",
        }
    }

    fn prepare_query(&self, query: &Tree) -> BiBranchQuery {
        let mut query_vocab = QueryVocab::new(&self.vocab);
        let vector = PositionalVector::build_query(query, &mut query_vocab);
        let dense = DenseQuery::new(
            self.vocab.len(),
            vector.iter_counts(),
            u64::from(vector.tree_size()),
        );
        BiBranchQuery { vector, dense }
    }

    fn lower_bound(&self, query: &BiBranchQuery, candidate: TreeId) -> u64 {
        match self.mode {
            BiBranchMode::Plain => self.bdist_bound(query, candidate),
            BiBranchMode::Positional => {
                propt_bound(&query.vector, &self.vectors[candidate.index()], u64::MAX)
            }
        }
    }

    /// Cascade: O(1) size difference, then `⌈BDist/(4(q−1)+1)⌉` (one
    /// sorted-entry merge), then — in positional mode — the `propt` binary
    /// search of §4.2, which only unpruned candidates reach.
    fn stages(&self) -> usize {
        match self.mode {
            BiBranchMode::Plain => 2,
            BiBranchMode::Positional => 3,
        }
    }

    fn stage_name(&self, stage: usize) -> &'static str {
        match stage {
            0 => "size",
            1 => "bdist",
            _ => "propt",
        }
    }

    fn stage_bound(&self, query: &BiBranchQuery, candidate: TreeId, stage: usize) -> u64 {
        self.stage_bound_within(query, candidate, stage, u64::MAX)
    }

    /// Caps the `propt` stage's search; the other stages are exact.
    fn stage_bound_within(
        &self,
        query: &BiBranchQuery,
        candidate: TreeId,
        stage: usize,
        cap: u64,
    ) -> u64 {
        match stage {
            0 => u64::from(
                query
                    .vector
                    .tree_size()
                    .abs_diff(self.arena.tree_size(candidate.index() as u32)),
            ),
            1 => self.bdist_bound(query, candidate),
            _ => propt_bound(&query.vector, &self.vectors[candidate.index()], cap),
        }
    }

    fn stage_bound_batch(
        &self,
        query: &BiBranchQuery,
        candidates: &[TreeId],
        stage: usize,
        out: &mut Vec<u64>,
    ) {
        debug_assert!(candidates.windows(2).all(|w| matches!(w, [a, b] if a < b)));
        match stage {
            // Both arena-backed stages walk the slabs in tree-id order —
            // candidates ascend, so memory is touched sequentially.
            0 => {
                let query_size = query.vector.tree_size();
                out.extend(candidates.iter().map(|&id| {
                    u64::from(query_size.abs_diff(self.arena.tree_size(id.index() as u32)))
                }));
            }
            1 => out.extend(candidates.iter().map(|&id| self.bdist_bound(query, id))),
            // propt stays per-candidate: its binary search touches the
            // sparse positional vectors, not the arena.
            _ => {
                out.extend(
                    candidates
                        .iter()
                        .map(|&id| self.stage_bound(query, id, stage)),
                );
                return;
            }
        }
        treesim_obs::counter!("cascade.batch.evaluated").add(candidates.len() as u64);
    }

    fn prunes_range(&self, query: &BiBranchQuery, candidate: TreeId, tau: u32) -> bool {
        match self.mode {
            BiBranchMode::Plain => self.bdist_bound(query, candidate) > u64::from(tau),
            BiBranchMode::Positional => query
                .vector
                .exceeds_range(&self.vectors[candidate.index()], tau),
        }
    }
}

/// The paper's space-matching bin budget (§5): the total histogram
/// dimensionality per tree equals the average binary branch vector size
/// plus twice the average tree size. Shared by [`HistogramFilter::build`]
/// and [`PostingsFilter::with_histogram`] so both price the histogram
/// stage identically.
fn paper_matched_budget(forest: &Forest) -> BinBudget {
    let stats = forest.stats();
    // Average number of nonzero branch-vector dimensions per tree.
    let mut vocab = treesim_core::BranchVocab::new(2);
    let total_dims: usize = forest
        .iter()
        .map(|(_, t)| treesim_core::BranchVector::build(t, &mut vocab).nonzero_dims())
        .sum();
    let avg_dims = total_dims as f64 / forest.len().max(1) as f64;
    BinBudget::paper_matched(avg_dims, stats.avg_size)
}

/// The default production filter: the positional cascade of
/// [`BiBranchFilter`] fronted by a **stage −1 inverted-list candidate
/// generator**. At query time the query's branch posting lists are k-way
/// merged ([`InvertedFileIndex::shared_branch_mass`]) into a sorted
/// per-tree shared-branch-mass table, from which stage 0 derives
///
/// ```text
/// BDist(q, t) ≥ |BRV(q)| + |BRV(t)| − 2·shared(q, t)
/// ```
///
/// without ever touching the candidate's vector (DESIGN §10). With
/// min-clamped shared mass the inequality is an *equality*, so the stage
/// is exactly as tight as the `bdist` stage at posting-merge cost, and
/// trees sharing no branch with the query are bounded from their stored
/// size alone. Out-of-vocabulary query branches have no posting list and
/// therefore contribute zero to `shared` — but their mass stays in
/// `|BRV(q)|`, which keeps the bound sound (the no-false-negative edge
/// case the `strict-checks` assertion pins down).
#[derive(Debug)]
pub struct PostingsFilter {
    index: InvertedFileIndex,
    vectors: Vec<PositionalVector>,
    arena: VectorArena,
    histograms: Option<(Vec<HistogramVector>, BinBudget)>,
}

/// Per-query artifact of [`PostingsFilter`]: the query vector plus the
/// merged posting table and the dense count lookup for the arena kernels.
#[derive(Debug)]
pub struct PostingsQuery {
    vector: PositionalVector,
    dense: DenseQuery,
    histogram: Option<HistogramVector>,
    /// `(tree, Σ_b min(count_q(b), count_t(b)))`, ascending by tree id;
    /// trees absent from every query posting list are absent here and
    /// share mass 0.
    shared: Vec<(TreeId, u64)>,
    /// `|BRV(q)|` — total query branch mass, OOV branches included.
    total: u64,
}

impl PostingsQuery {
    /// Number of trees sharing at least one branch with the query.
    pub fn candidate_count(&self) -> usize {
        self.shared.len()
    }
}

impl PostingsFilter {
    /// Indexes `forest` with q-level branches (Algorithm 1) and keeps the
    /// inverted file index for posting-list candidate generation.
    pub fn build(forest: &Forest, q: usize) -> Self {
        Self::from_index(InvertedFileIndex::build(forest, q))
    }

    /// Like [`PostingsFilter::build`], additionally wiring the label
    /// histogram bound in as a cascade stage between `size` and `bdist`
    /// (ROADMAP item #2; see EXPERIMENTS.md §histo for when it pays).
    pub fn with_histogram(forest: &Forest, q: usize) -> Self {
        let budget = paper_matched_budget(forest);
        let vectors = forest
            .iter()
            .map(|(_, tree)| HistogramVector::build_bucketed(tree, budget))
            .collect();
        PostingsFilter {
            histograms: Some((vectors, budget)),
            ..Self::build(forest, q)
        }
    }

    /// Builds from an existing inverted file index, taking ownership.
    pub fn from_index(index: InvertedFileIndex) -> Self {
        let arena = VectorArena::from_index(&index);
        publish_arena_gauges(&arena);
        PostingsFilter {
            vectors: index.positional_vectors(),
            arena,
            index,
            histograms: None,
        }
    }

    /// The branch level `q`.
    pub fn q(&self) -> usize {
        self.index.q()
    }

    /// Whether the histogram stage is part of the cascade.
    pub fn has_histogram(&self) -> bool {
        self.histograms.is_some()
    }

    /// The dataset vector of `tree` (for inspection / experiments).
    pub fn vector(&self, tree: TreeId) -> &PositionalVector {
        &self.vectors[tree.index()]
    }

    /// The CSR arena backing the `size`/`bdist` stages.
    pub fn arena(&self) -> &VectorArena {
        &self.arena
    }

    /// The `bdist` stage bound through the arena's dense shared-mass
    /// kernel (see [`BiBranchFilter`]'s equivalent).
    fn bdist_bound(&self, query: &PostingsQuery, candidate: TreeId) -> u64 {
        let bdist = self.arena.bdist(candidate.index() as u32, &query.dense);
        #[cfg(feature = "strict-checks")]
        debug_assert_eq!(
            bdist,
            query.vector.bdist(&self.vectors[candidate.index()]),
            "arena dense BDist diverged from the sparse merge for tree {candidate:?}"
        );
        treesim_core::edit_lower_bound(bdist, self.q())
    }

    /// The stage-0 bound: `|BRV(q)| + |BRV(t)| − 2·shared(q, t)` scaled to
    /// edit operations. O(log candidates) per tree — one binary search
    /// into the merged posting table.
    fn postings_bound(&self, query: &PostingsQuery, candidate: TreeId) -> u64 {
        let shared = match query
            .shared
            .binary_search_by_key(&candidate, |&(tree, _)| tree)
        {
            Ok(found) => query.shared[found].1,
            Err(_) => 0,
        };
        let bdist_floor = query.total + u64::from(self.index.tree_size(candidate)) - 2 * shared;
        #[cfg(feature = "strict-checks")]
        debug_assert!(
            bdist_floor <= query.vector.bdist(&self.vectors[candidate.index()]),
            "stage -1 bound {bdist_floor} above exact BDist {} for tree {candidate:?} \
             (OOV query mass must never enter shared)",
            query.vector.bdist(&self.vectors[candidate.index()]),
        );
        treesim_core::edit_lower_bound(bdist_floor, self.q())
    }

    /// [`Filter::prunes_range`] from the query's parts: the histogram test
    /// (when the stage is wired in), then Proposition 4.2 with `propt`.
    /// The join passes the left tree's stored vectors here, which equal
    /// the ones `prepare_query` would rebuild from the tree.
    fn prunes_pair(
        &self,
        vector: &PositionalVector,
        histogram: Option<&HistogramVector>,
        candidate: TreeId,
        tau: u32,
    ) -> bool {
        if let (Some((vectors, _)), Some(histogram)) = (&self.histograms, histogram) {
            if histogram.lower_bound(&vectors[candidate.index()]) > u64::from(tau) {
                return true;
            }
        }
        vector.exceeds_range(&self.vectors[candidate.index()], tau)
    }
}

impl Filter for PostingsFilter {
    type Query = PostingsQuery;

    fn name(&self) -> &'static str {
        match self.histograms {
            Some(_) => "Postings+histo",
            None => "Postings",
        }
    }

    fn prepare_query(&self, query: &Tree) -> PostingsQuery {
        let mut query_vocab = QueryVocab::new(self.index.vocab());
        let vector = PositionalVector::build_query(query, &mut query_vocab);
        let counts: Vec<(treesim_core::BranchId, u32)> = vector.iter_counts().collect();
        let shared = self.index.shared_branch_mass(&counts);
        treesim_obs::histogram!("cascade.postings.candidates").record(shared.len() as u64);
        let total = u64::from(vector.tree_size());
        PostingsQuery {
            dense: DenseQuery::new(self.index.vocab().len(), counts, total),
            total,
            shared,
            histogram: self
                .histograms
                .as_ref()
                .map(|(_, budget)| HistogramVector::build_bucketed(query, *budget)),
            vector,
        }
    }

    fn lower_bound(&self, query: &PostingsQuery, candidate: TreeId) -> u64 {
        propt_bound(&query.vector, &self.vectors[candidate.index()], u64::MAX)
    }

    /// Cascade: the posting-merge bound, the O(1) size screen, optionally
    /// the label histogram, then `⌈BDist/(4(q−1)+1)⌉` and the `propt`
    /// binary search of §4.2. (`postings` and `bdist` are pointwise equal
    /// under min-clamped shared mass; keeping both stages makes the funnel
    /// report how much of the pruning needed no per-candidate vector work.)
    fn stages(&self) -> usize {
        match self.histograms {
            Some(_) => 5,
            None => 4,
        }
    }

    fn stage_name(&self, stage: usize) -> &'static str {
        match (stage, self.histograms.is_some()) {
            (0, _) => "postings",
            (1, _) => "size",
            (2, true) => "histo",
            (2, false) | (3, true) => "bdist",
            _ => "propt",
        }
    }

    fn stage_bound(&self, query: &PostingsQuery, candidate: TreeId, stage: usize) -> u64 {
        self.stage_bound_within(query, candidate, stage, u64::MAX)
    }

    /// Caps the `propt` stage's search; the other stages are exact.
    fn stage_bound_within(
        &self,
        query: &PostingsQuery,
        candidate: TreeId,
        stage: usize,
        cap: u64,
    ) -> u64 {
        match (stage, self.histograms.is_some()) {
            (0, _) => self.postings_bound(query, candidate),
            (1, _) => u64::from(
                query
                    .vector
                    .tree_size()
                    .abs_diff(self.arena.tree_size(candidate.index() as u32)),
            ),
            (2, true) => match (&self.histograms, &query.histogram) {
                (Some((vectors, _)), Some(histogram)) => {
                    histogram.lower_bound(&vectors[candidate.index()])
                }
                _ => unreachable!("histo stage without histograms"),
            },
            (2, false) | (3, true) => self.bdist_bound(query, candidate),
            _ => propt_bound(&query.vector, &self.vectors[candidate.index()], cap),
        }
    }

    fn stage_bound_batch(
        &self,
        query: &PostingsQuery,
        candidates: &[TreeId],
        stage: usize,
        out: &mut Vec<u64>,
    ) {
        debug_assert!(candidates.windows(2).all(|w| matches!(w, [a, b] if a < b)));
        #[cfg(feature = "strict-checks")]
        let check_from = out.len();
        match (stage, self.histograms.is_some()) {
            // Stage −1 batched: candidates and the merged posting table
            // both ascend by tree id, so one forward walk over `shared`
            // replaces the per-candidate binary searches.
            (0, _) => {
                let mut sweep = PostingsSweep::new(&query.shared, query.total, self.q());
                out.extend(
                    candidates
                        .iter()
                        .map(|&id| sweep.bound(id, self.arena.tree_size(id.index() as u32))),
                );
            }
            (1, _) => {
                let query_size = query.vector.tree_size();
                out.extend(candidates.iter().map(|&id| {
                    u64::from(query_size.abs_diff(self.arena.tree_size(id.index() as u32)))
                }));
            }
            (2, false) | (3, true) => {
                out.extend(candidates.iter().map(|&id| self.bdist_bound(query, id)));
            }
            // histo / propt stay per-candidate.
            _ => {
                out.extend(
                    candidates
                        .iter()
                        .map(|&id| self.stage_bound(query, id, stage)),
                );
                return;
            }
        }
        #[cfg(feature = "strict-checks")]
        debug_assert!(
            candidates
                .iter()
                .zip(out.iter().skip(check_from))
                .all(|(&id, &bound)| bound == self.stage_bound(query, id, stage)),
            "batched stage-{stage} bounds diverged from the per-candidate path"
        );
        treesim_obs::counter!("cascade.batch.evaluated").add(candidates.len() as u64);
    }

    fn prunes_range(&self, query: &PostingsQuery, candidate: TreeId, tau: u32) -> bool {
        self.prunes_pair(&query.vector, query.histogram.as_ref(), candidate, tau)
    }

    /// Join candidates from the inverted lists (DESIGN §10): no query is
    /// prepared. Walking the posting lists of `left`'s stored branches
    /// accumulates the shared mass of every tree sharing a branch with it
    /// (a self-join starts each list after `left`); partners whose stage
    /// −1 bound `⌈(|l|+|r|−2·shared)/5⌉` exceeds τ are dropped unpriced.
    /// Partners sharing nothing have `BDist = |l| + |r|`, so they are
    /// enumerated from the size buckets only when `⌈(|l|+|r|)/5⌉ ≤ τ`.
    /// The survivors get `prunes_range`'s exact test on `left`'s stored
    /// vectors. The bound drops no pair that test keeps
    /// (`pos_bdist(·, τ) ≥ BDist`), so the result is the default's.
    fn join_candidates(
        &self,
        partners: &JoinPartners<'_>,
        left: TreeId,
        scratch: &mut JoinScratch,
        out: &mut Vec<TreeId>,
    ) {
        let tau = partners.tau();
        // `⌈BDist/factor⌉ ≤ τ` ⟺ `BDist ≤ factor·τ`.
        let limit = treesim_core::bound_factor(self.q()) * u64::from(tau);
        let vector = &self.vectors[left.index()];
        let histogram = self.histograms.as_ref().map(|(h, _)| &h[left.index()]);
        let size = u64::from(vector.tree_size());
        let JoinScratch { mass, touched } = scratch;
        mass.resize(self.vectors.len(), 0);
        let first = partners.first_partner(left);
        for (branch, count) in vector.iter_counts() {
            let list = self.index.postings(branch);
            for posting in &list[list.partition_point(|p| p.tree < first)..] {
                let lane = &mut mass[posting.tree.index()];
                if *lane == 0 {
                    touched.push(posting.tree);
                }
                *lane += u64::from(count.min(posting.count()));
            }
        }
        #[cfg(feature = "strict-checks")]
        let (start, mut expected) = {
            let query = self.prepare_query(partners.forest().tree(left));
            let expected: Vec<TreeId> = partners
                .window(left)
                .filter(|&right| {
                    let floor =
                        size + u64::from(self.index.tree_size(right)) - 2 * mass[right.index()];
                    debug_assert_eq!(
                        floor,
                        vector.bdist(&self.vectors[right.index()]),
                        "walked shared mass of {left:?} and {right:?} disagrees with BDist"
                    );
                    !self.prunes_range(&query, right, tau)
                })
                .collect();
            (out.len(), expected)
        };
        if let Some(room) = limit.checked_sub(size) {
            let room = u32::try_from(room).unwrap_or(u32::MAX);
            out.extend(partners.window_up_to(left, room).filter(|&right| {
                mass[right.index()] == 0 && !self.prunes_pair(vector, histogram, right, tau)
            }));
        }
        for right in touched.drain(..) {
            let shared = std::mem::take(&mut mass[right.index()]);
            let floor = size + u64::from(self.index.tree_size(right)) - 2 * shared;
            if floor <= limit
                && partners.admits(left, right)
                && !self.prunes_pair(vector, histogram, right, tau)
            {
                out.push(right);
            }
        }
        #[cfg(feature = "strict-checks")]
        {
            let mut kept = out[start..].to_vec();
            kept.sort_unstable();
            expected.sort_unstable();
            debug_assert_eq!(
                kept, expected,
                "postings join candidates of {left:?} diverged from prunes_range"
            );
        }
    }
}

/// The stage −1 bound `⌈(|BRV(q)| + |BRV(t)| − 2·shared) / (4(q−1)+1)⌉`
/// for candidates visited in ascending id order: one forward walk over
/// the query's merged shared-mass table (ascending by tree id) replaces a
/// binary search per candidate. Shared by [`PostingsFilter`]'s batched
/// stage 0 and both [`crate::DynamicIndex`] query paths.
pub(crate) struct PostingsSweep<'a> {
    shared: &'a [(TreeId, u64)],
    next: usize,
    total: u64,
    q: usize,
}

impl<'a> PostingsSweep<'a> {
    /// A walk over `shared` for a query of branch mass `total`
    /// (out-of-vocabulary branches included) and branch level `q`.
    pub(crate) fn new(shared: &'a [(TreeId, u64)], total: u64, q: usize) -> Self {
        PostingsSweep {
            shared,
            next: 0,
            total,
            q,
        }
    }

    /// The bound of tree `id`, whose branch mass (= node count) is
    /// `size`. Ids must ascend across calls.
    pub(crate) fn bound(&mut self, id: TreeId, size: u32) -> u64 {
        while self
            .shared
            .get(self.next)
            .is_some_and(|&(tree, _)| tree < id)
        {
            self.next += 1;
        }
        let mass = match self.shared.get(self.next) {
            Some(&(tree, mass)) if tree == id => mass,
            _ => 0,
        };
        treesim_core::edit_lower_bound(self.total + u64::from(size) - 2 * mass, self.q)
    }
}

/// The baseline histogram filter (Kailing et al., reference \[7\]).
#[derive(Debug)]
pub struct HistogramFilter {
    vectors: Vec<HistogramVector>,
    budget: BinBudget,
}

impl HistogramFilter {
    /// Builds the histograms under the paper's space-matching rule (§5,
    /// `paper_matched_budget`). On small label universes this is
    /// effectively exact; on label-rich data it blurs the label histogram,
    /// as in the paper's evaluation.
    pub fn build(forest: &Forest) -> Self {
        Self::build_with_budget(forest, paper_matched_budget(forest))
    }

    /// Builds exact (unbucketed) histograms.
    pub fn build_exact(forest: &Forest) -> Self {
        Self::build_with_budget(forest, BinBudget::UNLIMITED)
    }

    /// Builds histograms under an explicit bin budget.
    pub fn build_with_budget(forest: &Forest, budget: BinBudget) -> Self {
        HistogramFilter {
            vectors: forest
                .iter()
                .map(|(_, tree)| HistogramVector::build_bucketed(tree, budget))
                .collect(),
            budget,
        }
    }

    /// The bin budget in effect.
    pub fn budget(&self) -> BinBudget {
        self.budget
    }

    /// The dataset histogram vector of `tree`.
    pub fn vector(&self, tree: TreeId) -> &HistogramVector {
        &self.vectors[tree.index()]
    }
}

impl Filter for HistogramFilter {
    type Query = HistogramVector;

    fn name(&self) -> &'static str {
        "Histo"
    }

    fn prepare_query(&self, query: &Tree) -> HistogramVector {
        HistogramVector::build_bucketed(query, self.budget)
    }

    fn lower_bound(&self, query: &HistogramVector, candidate: TreeId) -> u64 {
        query.lower_bound(&self.vectors[candidate.index()])
    }

    /// Cascade: O(1) size difference, then the full histogram bound.
    fn stages(&self) -> usize {
        2
    }

    fn stage_name(&self, stage: usize) -> &'static str {
        match stage {
            0 => "size",
            _ => "histo",
        }
    }

    fn stage_bound(&self, query: &HistogramVector, candidate: TreeId, stage: usize) -> u64 {
        let data = &self.vectors[candidate.index()];
        match stage {
            0 => u64::from(query.size.abs_diff(data.size)),
            _ => query.lower_bound(data),
        }
    }
}

/// The no-op filter: a lower bound of 0 everywhere, turning the engine into
/// the sequential-scan baseline.
#[derive(Debug, Default)]
pub struct NoFilter {
    size: usize,
}

impl NoFilter {
    /// Creates a no-op filter for a dataset of `forest.len()` trees.
    pub fn build(forest: &Forest) -> Self {
        NoFilter { size: forest.len() }
    }

    /// Number of trees covered.
    pub fn len(&self) -> usize {
        self.size
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.size == 0
    }
}

impl Filter for NoFilter {
    type Query = ();

    fn name(&self) -> &'static str {
        "Sequential"
    }

    fn stage_name(&self, _stage: usize) -> &'static str {
        // The metric-name contract requires stage names from
        // `treesim_obs::naming::CASCADE_STAGES` (the default would leak
        // the display name "Sequential" into `cascade.*` metrics).
        "scan"
    }

    fn prepare_query(&self, _query: &Tree) {}

    fn lower_bound(&self, _query: &(), _candidate: TreeId) -> u64 {
        0
    }
}

/// Combines two filters by taking the larger lower bound — used for
/// ablations (e.g., BiBranch + Histogram stacking).
#[derive(Debug)]
pub struct MaxFilter<A, B> {
    /// First component.
    pub first: A,
    /// Second component.
    pub second: B,
}

impl<A: Filter, B: Filter> Filter for MaxFilter<A, B> {
    type Query = (A::Query, B::Query);

    fn name(&self) -> &'static str {
        "Max"
    }

    fn prepare_query(&self, query: &Tree) -> Self::Query {
        (
            self.first.prepare_query(query),
            self.second.prepare_query(query),
        )
    }

    fn lower_bound(&self, query: &Self::Query, candidate: TreeId) -> u64 {
        self.first
            .lower_bound(&query.0, candidate)
            .max(self.second.lower_bound(&query.1, candidate))
    }

    /// Components' cascades run aligned from the *end*, so the final stage
    /// is `max(first.lower_bound, second.lower_bound)` = `lower_bound` and
    /// the shorter cascade simply starts later.
    fn stages(&self) -> usize {
        self.first.stages().max(self.second.stages())
    }

    fn stage_name(&self, stage: usize) -> &'static str {
        // Attribute the stage to the longer cascade (ties: first).
        if self.first.stages() >= self.second.stages() {
            self.first.stage_name(stage)
        } else {
            self.second.stage_name(stage)
        }
    }

    fn stage_bound(&self, query: &Self::Query, candidate: TreeId, stage: usize) -> u64 {
        let total = self.stages();
        let mut bound = 0u64;
        let offset = total - self.first.stages();
        if stage >= offset {
            bound = bound.max(self.first.stage_bound(&query.0, candidate, stage - offset));
        }
        let offset = total - self.second.stages();
        if stage >= offset {
            bound = bound.max(self.second.stage_bound(&query.1, candidate, stage - offset));
        }
        bound
    }

    fn prunes_range(&self, query: &Self::Query, candidate: TreeId, tau: u32) -> bool {
        self.first.prunes_range(&query.0, candidate, tau)
            || self.second.prunes_range(&query.1, candidate, tau)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treesim_edit::edit_distance;

    fn forest() -> Forest {
        let mut forest = Forest::new();
        for spec in [
            "a(b(c(d)) b e)",
            "a(c(d) b e)",
            "a(b c)",
            "x(y z)",
            "a(b(c d e) f)",
        ] {
            forest.parse_bracket(spec).unwrap();
        }
        forest
    }

    fn check_filter<F: Filter>(filter: &F, forest: &Forest) {
        assert!(filter.stages() >= 1);
        for (_, query_tree) in forest.iter() {
            let query = filter.prepare_query(query_tree);
            for (id, data_tree) in forest.iter() {
                let edist = edit_distance(query_tree, data_tree);
                let bound = filter.lower_bound(&query, id);
                assert!(
                    bound <= edist,
                    "{}: bound {bound} > EDist {edist}",
                    filter.name()
                );
                // Every cascade stage is a sound lower bound on its own,
                // and the final stage computes lower_bound exactly.
                for stage in 0..filter.stages() {
                    let staged = filter.stage_bound(&query, id, stage);
                    assert!(
                        staged <= edist,
                        "{} stage {stage} ({}): bound {staged} > EDist {edist}",
                        filter.name(),
                        filter.stage_name(stage),
                    );
                    // A capped stage is exact up to the cap and above it
                    // beyond the cap.
                    for cap in 0..=4u64 {
                        let within = filter.stage_bound_within(&query, id, stage, cap);
                        assert!(
                            within == staged || (cap < within && within < staged),
                            "{} stage {stage}: capped at {cap} gave {within}, full {staged}",
                            filter.name(),
                        );
                    }
                }
                assert_eq!(
                    filter.stage_bound(&query, id, filter.stages() - 1),
                    bound,
                    "{}: final stage must equal lower_bound",
                    filter.name()
                );
                for tau in 0..=4u32 {
                    if filter.prunes_range(&query, id, tau) {
                        assert!(edist > u64::from(tau), "{} pruned a result", filter.name());
                    }
                }
            }
        }
    }

    #[test]
    fn bibranch_positional_is_sound() {
        let forest = forest();
        let filter = BiBranchFilter::build(&forest, 2, BiBranchMode::Positional);
        assert_eq!(filter.name(), "BiBranch");
        assert_eq!(filter.q(), 2);
        check_filter(&filter, &forest);
    }

    #[test]
    fn bibranch_plain_is_sound() {
        let forest = forest();
        let filter = BiBranchFilter::build(&forest, 2, BiBranchMode::Plain);
        assert_eq!(filter.name(), "BiBranch(plain)");
        check_filter(&filter, &forest);
    }

    #[test]
    fn bibranch_q3_is_sound() {
        let forest = forest();
        let filter = BiBranchFilter::build(&forest, 3, BiBranchMode::Positional);
        check_filter(&filter, &forest);
    }

    #[test]
    fn postings_filter_is_sound() {
        let forest = forest();
        let filter = PostingsFilter::build(&forest, 2);
        assert_eq!(filter.name(), "Postings");
        assert_eq!(filter.q(), 2);
        assert!(!filter.has_histogram());
        check_filter(&filter, &forest);
    }

    #[test]
    fn postings_with_histogram_is_sound() {
        let forest = forest();
        let filter = PostingsFilter::with_histogram(&forest, 2);
        assert_eq!(filter.name(), "Postings+histo");
        assert!(filter.has_histogram());
        check_filter(&filter, &forest);
    }

    #[test]
    fn postings_stage_equals_bdist_stage() {
        // With min-clamped shared mass the posting-merge identity
        // |BRV(q)| + |BRV(t)| − 2·Σ min(count_q, count_t) = BDist(q, t)
        // is exact, so stage −1 must be pointwise equal to the bdist stage
        // (which recomputes BDist from the candidate's vector).
        let forest = forest();
        let filter = PostingsFilter::build(&forest, 2);
        let bibranch = BiBranchFilter::build(&forest, 2, BiBranchMode::Positional);
        for (_, query_tree) in forest.iter() {
            let query = filter.prepare_query(query_tree);
            let bquery = bibranch.prepare_query(query_tree);
            for (id, _) in forest.iter() {
                assert_eq!(
                    filter.stage_bound(&query, id, 0),
                    bibranch.stage_bound(&bquery, id, 1),
                    "postings bound diverged from bdist for tree {id:?}"
                );
            }
        }
    }

    #[test]
    fn postings_oov_query_keeps_guarantee() {
        // A query whose branches are 100% out-of-vocabulary: the merged
        // posting table is empty, yet every stage bound must stay a sound
        // lower bound (the unmatched query mass is accounted via |BRV(q)|).
        let mut forest = forest();
        let query = {
            let mut interner = forest.interner().clone();
            let t = treesim_tree::parse::bracket::parse(&mut interner, "m(n(o) p q)").unwrap();
            *forest.interner_mut() = interner;
            t
        };
        let filter = PostingsFilter::build(&forest, 2);
        let artifact = filter.prepare_query(&query);
        assert_eq!(
            artifact.candidate_count(),
            0,
            "OOV query generated candidates"
        );
        for (id, data_tree) in forest.iter() {
            let edist = edit_distance(&query, data_tree);
            for stage in 0..filter.stages() {
                let bound = filter.stage_bound(&artifact, id, stage);
                assert!(
                    bound <= edist,
                    "stage {stage} bound {bound} > EDist {edist} on an OOV query"
                );
            }
        }
    }

    #[test]
    fn histogram_filter_is_sound() {
        let forest = forest();
        let filter = HistogramFilter::build(&forest);
        assert_eq!(filter.name(), "Histo");
        check_filter(&filter, &forest);
    }

    #[test]
    fn no_filter_never_prunes() {
        let forest = forest();
        let filter = NoFilter::build(&forest);
        assert_eq!(filter.len(), 5);
        assert!(!filter.is_empty());
        filter.prepare_query(forest.tree(TreeId(0)));
        let query = ();
        for (id, _) in forest.iter() {
            assert_eq!(filter.lower_bound(&query, id), 0);
            assert!(!filter.prunes_range(&query, id, 0));
        }
    }

    #[test]
    fn max_filter_dominates_components() {
        let forest = forest();
        let combined = MaxFilter {
            first: BiBranchFilter::build(&forest, 2, BiBranchMode::Positional),
            second: HistogramFilter::build(&forest),
        };
        check_filter(&combined, &forest);
        let query_tree = forest.tree(TreeId(0));
        let query = combined.prepare_query(query_tree);
        for (id, _) in forest.iter() {
            let bound = combined.lower_bound(&query, id);
            assert!(bound >= combined.first.lower_bound(&query.0, id));
            assert!(bound >= combined.second.lower_bound(&query.1, id));
        }
    }

    #[test]
    fn positional_at_least_as_tight_as_plain() {
        let forest = forest();
        let positional = BiBranchFilter::build(&forest, 2, BiBranchMode::Positional);
        let plain = BiBranchFilter::build(&forest, 2, BiBranchMode::Plain);
        let query_tree = forest.tree(TreeId(3));
        let pq = positional.prepare_query(query_tree);
        let sq = plain.prepare_query(query_tree);
        for (id, _) in forest.iter() {
            assert!(positional.lower_bound(&pq, id) >= plain.lower_bound(&sq, id));
        }
    }

    #[test]
    fn cascade_shapes() {
        let forest = forest();
        let positional = BiBranchFilter::build(&forest, 2, BiBranchMode::Positional);
        assert_eq!(positional.stages(), 3);
        assert_eq!(
            (0..3).map(|s| positional.stage_name(s)).collect::<Vec<_>>(),
            vec!["size", "bdist", "propt"]
        );
        let plain = BiBranchFilter::build(&forest, 2, BiBranchMode::Plain);
        assert_eq!(plain.stages(), 2);
        assert_eq!(plain.stage_name(1), "bdist");
        let histogram = HistogramFilter::build(&forest);
        assert_eq!(histogram.stages(), 2);
        assert_eq!(histogram.stage_name(0), "size");
        let none = NoFilter::build(&forest);
        assert_eq!(none.stages(), 1);
        let stacked = MaxFilter {
            first: BiBranchFilter::build(&forest, 2, BiBranchMode::Positional),
            second: HistogramFilter::build(&forest),
        };
        assert_eq!(stacked.stages(), 3);
        assert_eq!(stacked.stage_name(2), "propt");
        let postings = PostingsFilter::build(&forest, 2);
        assert_eq!(postings.stages(), 4);
        assert_eq!(
            (0..4).map(|s| postings.stage_name(s)).collect::<Vec<_>>(),
            vec!["postings", "size", "bdist", "propt"]
        );
        let postings_histo = PostingsFilter::with_histogram(&forest, 2);
        assert_eq!(postings_histo.stages(), 5);
        assert_eq!(
            (0..5)
                .map(|s| postings_histo.stage_name(s))
                .collect::<Vec<_>>(),
            vec!["postings", "size", "histo", "bdist", "propt"]
        );
    }

    #[test]
    fn positional_cascade_is_monotone() {
        // For the positional bi-branch filter specifically, later stages
        // are pointwise at least as tight: propt ≥ ⌈BDist/5⌉ and
        // propt ≥ pr_min = size difference.
        let forest = forest();
        let filter = BiBranchFilter::build(&forest, 2, BiBranchMode::Positional);
        for (_, query_tree) in forest.iter() {
            let query = filter.prepare_query(query_tree);
            for (id, _) in forest.iter() {
                let size = filter.stage_bound(&query, id, 0);
                let bdist = filter.stage_bound(&query, id, 1);
                let propt = filter.stage_bound(&query, id, 2);
                assert!(propt >= size, "propt {propt} < size bound {size}");
                assert!(propt >= bdist, "propt {propt} < bdist bound {bdist}");
            }
        }
    }

    #[test]
    fn filter_vector_accessors() {
        let forest = forest();
        let bibranch = BiBranchFilter::build(&forest, 2, BiBranchMode::Positional);
        assert_eq!(bibranch.vector(TreeId(0)).tree_size(), 6);
        let histogram = HistogramFilter::build(&forest);
        assert_eq!(histogram.vector(TreeId(0)).size, 6);
    }
}
