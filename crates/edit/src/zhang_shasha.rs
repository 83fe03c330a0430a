//! The Zhang–Shasha tree edit distance (reference \[23\] of the paper).
//!
//! Runs in `O(|T1|·|T2|·min(depth,leaves)(T1)·min(depth,leaves)(T2))` time
//! and `O(|T1|·|T2|)` space using the classic postorder / leftmost-leaf /
//! LR-keyroot formulation. This is the "real" distance that the paper's
//! filter-and-refine framework tries to avoid computing.

use treesim_tree::{LabelId, NodeId, Tree};

use crate::cost::{CostModel, UnitCost};

/// Per-tree precomputation reused across many distance evaluations — the
/// refinement step of a similarity search compares one query against many
/// candidates, so the query's `TreeInfo` is built once.
#[derive(Debug, Clone)]
pub struct TreeInfo {
    /// Node labels in postorder (0-based).
    labels: Vec<LabelId>,
    /// `lml[i]` = 0-based postorder index of the leftmost leaf descendant of
    /// the node with postorder index `i`.
    lml: Vec<usize>,
    /// LR-keyroots in increasing postorder index.
    keyroots: Vec<usize>,
    /// Original node ids in postorder, for mapping recovery.
    ids: Vec<NodeId>,
    /// Height of the whole tree (nodes on the longest downward path, so a
    /// single leaf has height 1), for the bounded DP's entry cutoff
    /// ([`crate::bounded`]).
    height: u64,
    /// Number of leaves, for the O(1) leaf-count cutoff of the bounded DP.
    leaves: usize,
}

impl TreeInfo {
    /// Precomputes postorder labels, leftmost leaves and LR-keyroots.
    pub fn new(tree: &Tree) -> Self {
        let n = tree.len();
        let mut labels = Vec::with_capacity(n);
        let mut ids = Vec::with_capacity(n);
        let mut lml = vec![0usize; n];
        // Postorder index per node, to resolve first-child lookups, and
        // the running subtree height per arena slot (children precede
        // parents in postorder, so a node's slot is final when visited).
        let mut post_index = vec![usize::MAX; tree.arena_len()];
        let mut height_of = vec![1u64; tree.arena_len()];
        for (i, node) in tree.postorder().enumerate() {
            post_index[node.index()] = i;
            labels.push(tree.label(node));
            ids.push(node);
            // Leftmost leaf: follow first-child links to a leaf. Children
            // precede parents in postorder, so their lml is already set.
            lml[i] = match tree.first_child(node) {
                Some(first) => lml[post_index[first.index()]],
                None => i,
            };
            let h = height_of[node.index()];
            if let Some(parent) = tree.parent(node) {
                let slot = &mut height_of[parent.index()];
                *slot = (*slot).max(h + 1);
            }
        }
        let height = height_of[tree.root().index()];
        let leaves = lml.iter().enumerate().filter(|&(i, &l)| l == i).count();
        // LR-keyroots: nodes with no proper ancestor sharing their leftmost
        // leaf — equivalently, for each distinct lml value keep the largest
        // postorder index that attains it.
        let mut last_for_lml = vec![usize::MAX; n];
        for (i, &leaf) in lml.iter().enumerate() {
            last_for_lml[leaf] = i;
        }
        let mut keyroots: Vec<usize> = last_for_lml
            .into_iter()
            .filter(|&k| k != usize::MAX)
            .collect();
        keyroots.sort_unstable();
        TreeInfo {
            labels,
            lml,
            keyroots,
            ids,
            height,
            leaves,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the tree info is empty (never: trees have ≥ 1 node).
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Node id at 0-based postorder position `i`.
    pub fn node_at(&self, i: usize) -> NodeId {
        self.ids[i]
    }

    /// Label at 0-based postorder position `i`.
    pub fn label_at(&self, i: usize) -> LabelId {
        self.labels[i]
    }

    /// 0-based postorder index of the leftmost leaf under position `i`.
    pub fn leftmost_leaf(&self, i: usize) -> usize {
        self.lml[i]
    }

    /// The LR-keyroots in increasing postorder index.
    pub fn keyroots(&self) -> &[usize] {
        &self.keyroots
    }

    /// Height of the tree (nodes on the longest downward path; a single
    /// leaf has height 1).
    pub fn height(&self) -> u64 {
        self.height
    }

    /// Labels in postorder, for kernels that walk a whole range of nodes.
    pub(crate) fn labels(&self) -> &[LabelId] {
        &self.labels
    }

    /// Leftmost-leaf indices in postorder (see [`Self::leftmost_leaf`]).
    pub(crate) fn leftmost_leaves(&self) -> &[usize] {
        &self.lml
    }

    /// Number of nodes in the subtree rooted at 0-based postorder
    /// position `i` (postorder index minus leftmost-leaf index, plus one).
    pub fn subtree_size(&self, i: usize) -> usize {
        i - self.lml[i] + 1
    }

    /// Number of leaves in the tree.
    pub fn leaf_count(&self) -> usize {
        self.leaves
    }
}

/// Workspace for repeated Zhang–Shasha runs; reusing it avoids reallocating
/// the two `O(n1·n2)` matrices on every comparison.
#[derive(Debug, Default)]
pub struct ZsWorkspace {
    treedist: Vec<u64>,
    forestdist: Vec<u64>,
}

impl ZsWorkspace {
    /// Creates an empty workspace.
    pub fn new() -> Self {
        ZsWorkspace::default()
    }

    /// The tree-distance table of the last run (filled for every node
    /// pair); used by mapping recovery.
    pub(crate) fn treedist_snapshot(&self) -> &[u64] {
        &self.treedist
    }

    /// Mutable access to the `(treedist, forestdist)` matrices for the
    /// bounded DP ([`crate::bounded`]), which shares this workspace.
    pub(crate) fn matrices(&mut self) -> (&mut Vec<u64>, &mut Vec<u64>) {
        (&mut self.treedist, &mut self.forestdist)
    }
}

/// Unit-cost tree edit distance between two trees.
///
/// # Examples
///
/// ```
/// use treesim_edit::edit_distance;
/// use treesim_tree::{parse::bracket, LabelInterner};
///
/// let mut interner = LabelInterner::new();
/// let t1 = bracket::parse(&mut interner, "a(b(c(d)) b e)").unwrap();
/// let t2 = bracket::parse(&mut interner, "a(c(d) b e)").unwrap();
/// assert_eq!(edit_distance(&t1, &t2), 1); // delete the first b
/// ```
pub fn edit_distance(t1: &Tree, t2: &Tree) -> u64 {
    edit_distance_with(t1, t2, &UnitCost)
}

/// Tree edit distance under an arbitrary [`CostModel`].
pub fn edit_distance_with<C: CostModel>(t1: &Tree, t2: &Tree, cost: &C) -> u64 {
    let info1 = TreeInfo::new(t1);
    let info2 = TreeInfo::new(t2);
    let mut workspace = ZsWorkspace::new();
    zhang_shasha(&info1, &info2, cost, &mut workspace)
}

/// Zhang–Shasha distance over precomputed [`TreeInfo`]s, reusing `workspace`.
pub fn zhang_shasha<C: CostModel>(
    info1: &TreeInfo,
    info2: &TreeInfo,
    cost: &C,
    workspace: &mut ZsWorkspace,
) -> u64 {
    let n1 = info1.len();
    let n2 = info2.len();
    let stride = n2 + 1;
    workspace.treedist.clear();
    workspace.treedist.resize((n1 + 1) * stride, 0);
    workspace.forestdist.clear();
    workspace.forestdist.resize((n1 + 1) * stride, 0);

    for &k1 in info1.keyroots() {
        for &k2 in info2.keyroots() {
            compute_treedist(info1, info2, k1, k2, cost, workspace, stride);
        }
    }
    workspace.treedist[n1 * stride + n2]
}

/// Fills `treedist[di][dj]` for all pairs of nodes whose subtree problems
/// are anchored at keyroots `k1`, `k2` (0-based postorder indices).
fn compute_treedist<C: CostModel>(
    info1: &TreeInfo,
    info2: &TreeInfo,
    k1: usize,
    k2: usize,
    cost: &C,
    workspace: &mut ZsWorkspace,
    stride: usize,
) {
    // Work in 1-based postorder indices over the node ranges
    // [l1 .. k1+1] and [l2 .. k2+1], with index 0 = empty forest boundary.
    let l1 = info1.leftmost_leaf(k1) + 1;
    let l2 = info2.leftmost_leaf(k2) + 1;
    let i_hi = k1 + 1;
    let j_hi = k2 + 1;

    let ZsWorkspace {
        treedist: td,
        forestdist: fd,
    } = workspace;
    // fd is indexed with the same (node, node) layout as treedist; the
    // boundary "empty forest" rows live at l1-1 / l2-1.
    let at = |i: usize, j: usize| i * stride + j;

    fd[at(l1 - 1, l2 - 1)] = 0;
    for i in l1..=i_hi {
        fd[at(i, l2 - 1)] = fd[at(i - 1, l2 - 1)] + cost.delete(info1.label_at(i - 1));
    }
    for j in l2..=j_hi {
        fd[at(l1 - 1, j)] = fd[at(l1 - 1, j - 1)] + cost.insert(info2.label_at(j - 1));
    }
    for i in l1..=i_hi {
        let li = info1.leftmost_leaf(i - 1) + 1;
        for j in l2..=j_hi {
            let lj = info2.leftmost_leaf(j - 1) + 1;
            let del = fd[at(i - 1, j)] + cost.delete(info1.label_at(i - 1));
            let ins = fd[at(i, j - 1)] + cost.insert(info2.label_at(j - 1));
            if li == l1 && lj == l2 {
                // Both prefixes are whole subtrees: this is a tree problem.
                let rel = fd[at(i - 1, j - 1)]
                    + cost.relabel(info1.label_at(i - 1), info2.label_at(j - 1));
                let best = del.min(ins).min(rel);
                fd[at(i, j)] = best;
                td[at(i, j)] = best;
            } else {
                let split = fd[at(li - 1, lj - 1)] + td[at(i, j)];
                fd[at(i, j)] = del.min(ins).min(split);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treesim_tree::{parse::bracket, LabelInterner};

    fn dist(a: &str, b: &str) -> u64 {
        let mut interner = LabelInterner::new();
        let t1 = bracket::parse(&mut interner, a).unwrap();
        let t2 = bracket::parse(&mut interner, b).unwrap();
        edit_distance(&t1, &t2)
    }

    #[test]
    fn identical_trees_have_zero_distance() {
        assert_eq!(dist("a(b(c d) b e)", "a(b(c d) b e)"), 0);
        assert_eq!(dist("a", "a"), 0);
    }

    #[test]
    fn single_relabel() {
        assert_eq!(dist("a", "b"), 1);
        assert_eq!(dist("a(b c)", "a(b d)"), 1);
        assert_eq!(dist("a(b c)", "x(b c)"), 1);
    }

    #[test]
    fn single_insert_or_delete() {
        assert_eq!(dist("a", "a(b)"), 1);
        assert_eq!(dist("a(b)", "a"), 1);
        assert_eq!(dist("a(b c)", "a(x(b c))"), 1);
        assert_eq!(dist("a(x(b c))", "a(b c)"), 1);
        assert_eq!(dist("a(b c)", "a(b x c)"), 1);
    }

    #[test]
    fn paper_fig1_example() {
        // Fig. 1 of the paper: T2 is obtained from T1 by deleting the first
        // b (its children c, d splice up) and relabeling the second b's
        // subtree... the mapping shown implies a small distance; here we
        // verify the canonical delete-splice semantics on that shape.
        let mut interner = LabelInterner::new();
        let t1 = bracket::parse(&mut interner, "a(b(c(d)) b(e))").unwrap();
        let t2 = bracket::parse(&mut interner, "a(c(d) b(e))").unwrap();
        assert_eq!(edit_distance(&t1, &t2), 1);
    }

    #[test]
    fn completely_disjoint_labels() {
        // Best strategy: relabel all three matched nodes.
        assert_eq!(dist("a(b c)", "x(y z)"), 3);
    }

    #[test]
    fn size_difference_is_a_lower_bound() {
        let d = dist("a(b(c) d(e f) g)", "a(b)");
        assert!(d >= 5);
    }

    #[test]
    fn deep_vs_wide() {
        // Chain a(b(c(d))) versus star a(b c d): an edit mapping must
        // preserve ancestorship, so besides a→a only one of b/c/d can be
        // matched; the other two are deleted and re-inserted: distance 4.
        let d = dist("a(b(c(d)))", "a(b c d)");
        assert_eq!(d, 4);
    }

    #[test]
    fn order_sensitivity() {
        // Ordered distance distinguishes sibling orders.
        let d = dist("a(b c)", "a(c b)");
        assert!(d > 0);
        assert!(d <= 2);
    }

    #[test]
    fn unit_distance_is_symmetric() {
        let pairs = [
            ("a(b(c d) b e)", "a(c(d) b e)"),
            ("a(b c)", "x(y z)"),
            ("a", "a(b(c(d)))"),
            ("f(d(a c(b)) e)", "f(c(d(a b)) e)"),
        ];
        for (x, y) in pairs {
            assert_eq!(dist(x, y), dist(y, x), "asymmetry for {x} vs {y}");
        }
    }

    #[test]
    fn classic_zhang_shasha_example() {
        // The canonical example from the Zhang–Shasha paper:
        // f(d(a c(b)) e) vs f(c(d(a b)) e) has distance 2.
        assert_eq!(dist("f(d(a c(b)) e)", "f(c(d(a b)) e)"), 2);
    }

    #[test]
    fn weighted_cost_scales_distance() {
        let mut interner = LabelInterner::new();
        let t1 = bracket::parse(&mut interner, "a(b)").unwrap();
        let t2 = bracket::parse(&mut interner, "a(c d)").unwrap();
        // Unit: relabel b→c + insert d = 2.
        assert_eq!(edit_distance(&t1, &t2), 2);
        let weighted = crate::cost::WeightedCost {
            relabel: 10,
            delete: 1,
            insert: 1,
        };
        // With expensive relabels: delete b, insert c, insert d = 3.
        assert_eq!(edit_distance_with(&t1, &t2, &weighted), 3);
    }

    #[test]
    fn tree_info_shape() {
        let mut interner = LabelInterner::new();
        let t = bracket::parse(&mut interner, "f(d(a c(b)) e)").unwrap();
        let info = TreeInfo::new(&t);
        assert_eq!(info.len(), 6);
        assert!(!info.is_empty());
        // Postorder: a b c d e f → leftmost leaves: a,b,b? no: c's leftmost
        // leaf is b; d's is a; f's is a; e's is e.
        let names: Vec<_> = (0..info.len())
            .map(|i| interner.resolve(info.label_at(i)).to_owned())
            .collect();
        assert_eq!(names, vec!["a", "b", "c", "d", "e", "f"]);
        assert_eq!(info.leftmost_leaf(0), 0); // a
        assert_eq!(info.leftmost_leaf(2), 1); // c → b
        assert_eq!(info.leftmost_leaf(3), 0); // d → a
        assert_eq!(info.leftmost_leaf(5), 0); // f → a

        // Keyroots: largest postorder index per distinct lml: {a:5, b:2, e:4}.
        assert_eq!(info.keyroots(), &[2, 4, 5]);
        // Longest downward path f → d → c → b.
        assert_eq!(info.height(), 4);
        assert_eq!(info.leaf_count(), 3);
    }

    #[test]
    fn workspace_reuse_is_consistent() {
        let mut interner = LabelInterner::new();
        let t1 = bracket::parse(&mut interner, "a(b(c(d)) b e)").unwrap();
        let t2 = bracket::parse(&mut interner, "a(c(d) b e)").unwrap();
        let t3 = bracket::parse(&mut interner, "x(y)").unwrap();
        let i1 = TreeInfo::new(&t1);
        let i2 = TreeInfo::new(&t2);
        let i3 = TreeInfo::new(&t3);
        let mut ws = ZsWorkspace::new();
        let d12 = zhang_shasha(&i1, &i2, &UnitCost, &mut ws);
        let d13 = zhang_shasha(&i1, &i3, &UnitCost, &mut ws);
        let d12_again = zhang_shasha(&i1, &i2, &UnitCost, &mut ws);
        assert_eq!(d12, d12_again);
        assert_eq!(d12, 1);
        assert!(d13 >= 4);
    }

    #[test]
    fn triangle_inequality_on_samples() {
        let specs = [
            "a(b(c d) b e)",
            "a(c(d) b e)",
            "a(b c)",
            "x(y z)",
            "a",
            "a(b(c(d)))",
        ];
        let mut interner = LabelInterner::new();
        let trees: Vec<_> = specs
            .iter()
            .map(|s| bracket::parse(&mut interner, s).unwrap())
            .collect();
        for x in &trees {
            for y in &trees {
                for z in &trees {
                    let xy = edit_distance(x, y);
                    let yz = edit_distance(y, z);
                    let xz = edit_distance(x, z);
                    assert!(xz <= xy + yz, "triangle violated");
                }
            }
        }
    }
}
