//! Data cleansing via approximate self-join — finding near-duplicate
//! records in a dirty corpus (a §1 motivation: data cleansing /
//! integration).
//!
//! ```text
//! cargo run --release --example dedup_join
//! ```

use treesim::datagen::dblp::{generate_forest, DblpConfig};
use treesim::prelude::*;
use treesim::search::{similarity_self_join, threshold_clusters, PostingsFilter};

fn main() {
    // A corpus of bibliographic records containing clusters of
    // near-duplicates (variant spellings, dropped fields, changed years).
    let forest = generate_forest(&DblpConfig {
        record_count: 250,
        rng_seed: 7,
        cluster_size: 4,
    });
    println!(
        "corpus: {} records, avg size {:.1} nodes",
        forest.len(),
        forest.stats().avg_size
    );

    // ── 1. τ-self-join: candidate duplicate pairs. ───────────────────────
    let tau = 2u32;
    let filter = PostingsFilter::build(&forest, 2);
    let (pairs, stats) = similarity_self_join(&forest, &filter, tau);
    println!(
        "\nself-join at τ = {tau}: {} duplicate pairs found",
        pairs.len()
    );
    println!(
        "filtering: {} candidate pairs → {} refined ({:.1}%) → {} joined",
        stats.pairs_considered,
        stats.pairs_refined,
        stats.refine_fraction() * 100.0,
        stats.pairs_joined
    );
    for pair in pairs.iter().take(5) {
        println!(
            "  records {:>3} ≈ {:>3}  (edit distance {})",
            pair.left.0, pair.right.0, pair.distance
        );
    }

    // ── 2. Duplicate groups via threshold clustering. ────────────────────
    let engine = SearchEngine::new(
        &forest,
        BiBranchFilter::build(&forest, 2, BiBranchMode::Positional),
    );
    let clustering = threshold_clusters(&engine, tau);
    let duplicate_groups: Vec<_> = clustering
        .clusters
        .iter()
        .filter(|members| members.len() > 1)
        .collect();
    println!(
        "\n{} records collapse into {} duplicate groups + {} singletons",
        forest.len(),
        duplicate_groups.len(),
        clustering.len() - duplicate_groups.len()
    );
    if let Some(largest) = duplicate_groups.iter().max_by_key(|g| g.len()) {
        println!(
            "largest group has {} members: {:?}",
            largest.len(),
            largest.iter().map(|id| id.0).collect::<Vec<_>>()
        );
    }

    // Sanity: every joined pair landed in the same cluster.
    for pair in &pairs {
        assert_eq!(
            clustering.cluster_of(pair.left),
            clustering.cluster_of(pair.right)
        );
    }
    println!("\nall joined pairs are consistent with the clustering ✓");
}
