//! Filter-and-refine similarity search over tree datasets.
//!
//! The engine ([`SearchEngine`]) runs k-NN (Algorithm 2: optimal multi-step
//! with sorted lower bounds and early termination) and range queries over a
//! [`treesim_tree::Forest`], refining candidates with the exact Zhang–Shasha
//! edit distance. Filters:
//!
//! * [`PostingsFilter`] — the positional cascade fronted by the
//!   inverted-list stage −1 candidate generator (the default);
//! * [`BiBranchFilter`] — the paper's binary branch lower bounds (plain or
//!   positional);
//! * [`HistogramFilter`] — the Kailing et al. baseline;
//! * [`NoFilter`] — the sequential-scan baseline;
//! * [`MaxFilter`] — pointwise maximum of two filters (ablations).
//!
//! # Example
//!
//! ```
//! use treesim_search::{BiBranchFilter, BiBranchMode, SearchEngine};
//! use treesim_tree::Forest;
//!
//! let mut forest = Forest::new();
//! forest.parse_bracket("a(b(c(d)) b e)").unwrap();
//! forest.parse_bracket("a(c(d) b e)").unwrap();
//! forest.parse_bracket("x(y z)").unwrap();
//!
//! let filter = BiBranchFilter::build(&forest, 2, BiBranchMode::Positional);
//! let engine = SearchEngine::new(&forest, filter);
//! let (hits, stats) = engine.range(forest.tree(treesim_tree::TreeId(0)), 1);
//! assert_eq!(hits.len(), 2); // itself and the 1-edit neighbor
//! assert!(stats.refined <= forest.len());
//! ```

#![warn(missing_docs)]

pub mod classify;
pub mod cluster;
pub mod dynamic;
pub mod engine;
mod escalation;
pub mod explain;
pub mod filter;
pub mod join;
pub mod stats;
pub mod subtree;

pub use classify::KnnClassifier;
pub use cluster::{threshold_clusters, Clustering};
pub use dynamic::DynamicIndex;
pub use engine::{Neighbor, SearchEngine};
pub use explain::{CandidateExplain, ExplainReport, StageEval, Verdict};
pub use filter::{
    BiBranchFilter, BiBranchMode, BiBranchQuery, Filter, HistogramFilter, MaxFilter, NoFilter,
    PostingsFilter, PostingsQuery,
};
pub use join::{closest_pairs, similarity_join, similarity_self_join, JoinPair, JoinStats};
pub use stats::{AveragedStage, AveragedStats, LatencyBuckets, SearchStats, StageStats};
pub use subtree::{subtree_search, SubtreeMatch, SubtreeStats};
