//! Workload definitions. Each dataset is the paper's fixed generator
//! output, rendered to the text a caller would hand the library and parsed
//! back inside the timed set-up, and the stream records arrive in the
//! generator's order. The seed draws the DBLP query sample and the order
//! in which the synthetic queries are issued. Inputs that changed more
//! with the seed moved the timings by up to 45 % between seeds: the
//! synthetic forest grows from only ten random seed trees, its k-NN tail
//! rests on a few dozen costly trees that a 1000-of-2000 sample takes or
//! misses, and a dedup stream's slowest lookups are the first records of
//! each new cluster, wherever the order puts them. That would drown the
//! differences between two versions of the program.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use treesim_datagen::dblp::{generate_records, DblpConfig};
use treesim_datagen::synthetic::{generate, SyntheticConfig};
use treesim_datagen::workload::{estimate_avg_distance, sample_queries};
use treesim_edit::edit_distance;
use treesim_tree::parse::{bracket, xml};
use treesim_tree::{Forest, LabelInterner, ParseError, Tree, TreeId};

/// Branch level of every index the benchmark builds (the paper's q = 2).
pub const Q: usize = 2;

/// Serialized form of a workload's trees.
#[derive(Debug, Clone, Copy)]
pub enum Format {
    /// Bracket notation (`a(b c)`), one tree per string.
    Bracket,
    /// One XML document per string, parsed with text leaves.
    Xml,
}

impl Format {
    /// Parses one document into `interner`'s label space.
    pub fn parse(self, interner: &mut LabelInterner, text: &str) -> Result<Tree, ParseError> {
        match self {
            Format::Bracket => bracket::parse(interner, text),
            Format::Xml => xml::parse(interner, text, xml::XmlOptions::WITH_TEXT),
        }
    }

    /// Parses a whole dataset through the `Forest` entry points.
    pub fn parse_forest(self, docs: &[String]) -> Forest {
        let mut forest = Forest::new();
        for doc in docs {
            let parsed = match self {
                Format::Bracket => forest.parse_bracket(doc),
                Format::Xml => forest.parse_xml(doc, xml::XmlOptions::WITH_TEXT),
            };
            parsed.expect("generated document parses");
        }
        forest
    }
}

/// One generated workload.
pub struct Workload {
    pub name: &'static str,
    pub format: Format,
    /// The indexed dataset, one document per tree.
    pub base: Vec<String>,
    /// Records that arrive one at a time after the dataset is loaded.
    pub arrivals: Vec<String>,
    /// Distinct dataset trees used as queries.
    pub queries: Vec<TreeId>,
    pub knn_k: usize,
    pub range_tau: u32,
    pub join_tau: u32,
    /// Nominal length of one timed round on an idle 2-core host: the
    /// number of rounds is `--seconds` divided by it (at least three), a
    /// fixed count for a given `--seconds`, so both sides of a comparison
    /// take the same number of samples.
    pub nominal_round_s: f64,
    /// The seed-derived RNG seed for everything sampled after generation.
    pub seed: u64,
}

/// The workload names `--workload` accepts.
pub const NAMES: [&str; 2] = ["synth-search", "dblp-dedup"];

/// Generates workload `name` from `seed`, or `None` for an unknown name.
pub fn generate_workload(name: &str, seed: u64) -> Option<Workload> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    match name {
        "synth-search" => {
            // The paper's N{4,0.5}N{50,2}L8D0.05 forest of 2000 trees (the
            // generator is sequential, so these are exactly its first 2000),
            // plus the next 1000 it grows as the stream.
            let config = SyntheticConfig {
                tree_count: 3000,
                ..SyntheticConfig::paper_default()
            };
            let forest = generate(&config);
            let docs: Vec<String> = forest
                .iter()
                .map(|(_, tree)| bracket::to_string(tree, forest.interner()))
                .collect();
            let (base, arrivals) = split(docs, 2000);
            let dataset = Format::Bracket.parse_forest(&base);
            let mut fixed = StdRng::seed_from_u64(config.rng_seed);
            let mut queries = sample_queries(&dataset, 1000, &mut fixed);
            for i in (1..queries.len()).rev() {
                queries.swap(i, rng.random_range(0..=i));
            }
            let avg = estimate_avg_distance(&dataset, 200, &mut fixed, edit_distance);
            Some(Workload {
                name: "synth-search",
                format: Format::Bracket,
                base,
                arrivals,
                queries,
                knn_k: 5,
                range_tau: (avg / 5.0).round().max(1.0) as u32,
                join_tau: 2,
                nominal_round_s: 10.0,
                seed,
            })
        }
        "dblp-dedup" => {
            // 8000 clustered DBLP-style records, plus 2000 arriving ones.
            let config = DblpConfig::with_count(10_000, DblpConfig::paper_default().rng_seed);
            let docs: Vec<String> = generate_records(&config)
                .into_iter()
                .map(|record| record.xml)
                .collect();
            let (base, arrivals) = split(docs, 8000);
            let dataset = Format::Xml.parse_forest(&base);
            // 2000 queries: the k-NN tail rests on few costly records, and
            // twenty beyond the 99th percentile keep it from moving with
            // the sample.
            let queries = sample_queries(&dataset, 2000, &mut rng);
            Some(Workload {
                name: "dblp-dedup",
                format: Format::Xml,
                base,
                arrivals,
                queries,
                knn_k: 5,
                range_tau: 2,
                join_tau: 2,
                nominal_round_s: 8.0,
                seed,
            })
        }
        _ => None,
    }
}

fn split(mut docs: Vec<String>, at: usize) -> (Vec<String>, Vec<String>) {
    let tail = docs.split_off(at);
    (docs, tail)
}
