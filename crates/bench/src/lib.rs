//! Experiment harness regenerating every figure of the SIGMOD 2005
//! evaluation (§5), plus shared infrastructure for the Criterion
//! micro-benchmarks.
//!
//! The `experiments` binary drives the figures:
//!
//! ```text
//! cargo run -p treesim-bench --release --bin experiments -- all
//! cargo run -p treesim-bench --release --bin experiments -- fig9 fig10 --full
//! ```
//!
//! See DESIGN.md for the experiment index and EXPERIMENTS.md for a recorded
//! paper-vs-measured comparison.

#![warn(missing_docs)]

pub mod experiments;
pub mod report;
pub mod runner;
pub mod scale;
pub mod table;

pub use report::cascade_report;
pub use runner::{run_workload, MethodSummary, QueryMode};
pub use scale::Scale;
pub use table::Table;

/// Runs one figure by id ("fig7" … "fig15"). Returns `None` for unknown ids.
pub fn run_figure(id: &str, scale: &Scale) -> Option<Table> {
    use experiments::synthetic::{fanout_sweep, label_sweep, size_sweep, SweepMode};
    let table = match id {
        "fig7" => fanout_sweep(scale, SweepMode::RangeAvgOverFive),
        "fig8" => fanout_sweep(scale, SweepMode::KnnQuarterPercent),
        "fig9" => size_sweep(scale, SweepMode::RangeAvgOverFive),
        "fig10" => size_sweep(scale, SweepMode::KnnQuarterPercent),
        "fig11" => label_sweep(scale, SweepMode::RangeAvgOverFive),
        "fig12" => label_sweep(scale, SweepMode::KnnQuarterPercent),
        "fig13" => experiments::dblp::knn_sweep(scale),
        "fig14" => experiments::dblp::range_sweep(scale),
        "fig15" => experiments::distribution::distance_distribution(scale),
        "ablation-q" => experiments::ablation::q_level_ablation(scale),
        "ablation-bound" => experiments::ablation::bound_mode_ablation(scale),
        "ablation-scale" => experiments::ablation::scalability_ablation(scale),
        "ablation-cascade" => experiments::ablation::cascade_ablation(scale),
        "ablation-postings" => experiments::ablation::postings_ablation(scale),
        "ablation-histo" => experiments::ablation::histo_stage_ablation(scale),
        "ablation-kernels" => experiments::ablation::kernel_ablation(scale),
        _ => return None,
    };
    Some(table)
}

/// All figure ids in paper order.
pub const ALL_FIGURES: [&str; 9] = [
    "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
];

/// Extra ablation experiments beyond the paper (design-choice studies).
pub const ABLATIONS: [&str; 7] = [
    "ablation-q",
    "ablation-bound",
    "ablation-scale",
    "ablation-cascade",
    "ablation-postings",
    "ablation-histo",
    "ablation-kernels",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_figure_is_none() {
        assert!(run_figure("fig99", &Scale::smoke()).is_none());
    }

    #[test]
    fn all_figures_listed_are_runnable() {
        // Smoke-run the two cheapest figures end to end; the rest share the
        // same code paths and are covered by their module tests.
        for id in ["fig13", "fig15"] {
            let table = run_figure(id, &Scale::smoke()).unwrap();
            assert_eq!(table.id, id);
            assert!(!table.rows.is_empty());
        }
        assert_eq!(ALL_FIGURES.len(), 9);
    }
}
