//! Subcommand implementations.

use treesim_datagen::dblp::{generate_records, DblpConfig};
use treesim_datagen::normal::Normal;
use treesim_datagen::synthetic::{self, SyntheticConfig};
use treesim_edit::edit_distance;
use treesim_search::{
    BiBranchFilter, BiBranchMode, HistogramFilter, Neighbor, NoFilter, PostingsFilter,
    SearchEngine, SearchStats, ShardedEngine, ShardedForest,
};
use treesim_tree::{Forest, Tree};

use crate::args::Args;
use crate::io;

const HELP: &str = "\
treesim — similarity search on tree-structured data (SIGMOD 2005)

USAGE:
  treesim gen-synthetic --out FILE [--trees 500] [--fanout 4] [--size 50]
                        [--labels 8] [--decay 0.05] [--seed 1]
  treesim gen-dblp      --out FILE [--records 500] [--seed 1]
  treesim convert IN OUT                (formats by extension: .xml/.tsf/brackets)
  treesim index  FILE --out IDX.tsi [--level 2]   (persist the inverted file index)
  treesim stats  FILE
  treesim dist   TREE1 TREE2            (bracket notation, shared labels)
  treesim knn    FILE --query TREE [--k 5]   [--filter bibranch|postings|plain|histo|none]
                        [--level 2] [--index IDX.tsi] [--shards 1]
  treesim range  FILE --query TREE [--tau 3] [--filter bibranch|postings|plain|histo|none]
                        [--level 2] [--index IDX.tsi] [--shards 1]
  treesim join   FILE [--tau 2] [--limit 20]  (approximate self-join / dedup)
  treesim explain FILE --query TREE [--k 5 | --tau T] [--filter ...] [--level 2]
                        [--shards 1] [--limit 40]   (per-candidate cascade EXPLAIN table)
  treesim trace  FILE --query TREE [--k 5 | --tau T] [--filter ...] [--level 2]
                        [--shards 1]   (answer one query, print its span tree)
  treesim slo                           (evaluate the SLO targets against the live
                        5 m / 1 h windows, print the burn-rate table)
  treesim serve-metrics [FILE] [--addr 127.0.0.1:9891] [--warm 25] [--k 5]
                        [--trace-weight-budget N] [--trace-sample-every N]
                        [--trace-slo-us N]
                        (HTTP exporter: /metrics, /snapshot.json, /recorder.json?since=N,
                         /trace.json, /slo.json, /health)
  treesim help

Filters: `bibranch` is the paper's positional cascade; `postings` fronts it
with the inverted-list stage -1 candidate generator. `--shards S` (S > 1)
partitions the dataset and answers on every shard concurrently — results
are identical, the printed funnel is the per-shard sum.

Observability (any command):
  --trace pretty|json     stream span/event traces to stderr
  --metrics FILE          write the metrics snapshot (counters, gauges,
                          histograms) as JSON after the command finishes
  TREESIM_TRACE_WEIGHT_BUDGET / TREESIM_TRACE_SAMPLE_EVERY / TREESIM_TRACE_SLO_US
                          tune the trace sampler from the environment;
                          the serve-metrics --trace-* flags override them

Dataset files ending in .xml are concatenated XML documents; anything else
is whitespace-separated bracket notation such as  a(b(c d) e) .";

/// Dispatches a parsed command line.
pub fn dispatch(argv: &[String]) -> Result<(), String> {
    let command = argv.first().map(String::as_str).unwrap_or("help");
    let rest = if argv.is_empty() { &[] } else { &argv[1..] };
    let args = Args::parse(rest)?;
    configure_tracing(&args)?;
    // Baseline the window ring before the command runs, so the SLO
    // evaluation afterwards windows exactly this invocation's traffic
    // (the first tick on a fresh ring only records the starting point).
    treesim_obs::window::global().tick();
    let outcome = match command {
        "help" | "--help" | "-h" => {
            println!("{HELP}");
            Ok(())
        }
        "gen-synthetic" => gen_synthetic(&args),
        "gen-dblp" => gen_dblp(&args),
        "stats" => stats(&args),
        "convert" => convert(&args),
        "index" => build_index(&args),
        "dist" => dist(&args),
        "knn" => search(&args, SearchKind::Knn),
        "range" => search(&args, SearchKind::Range),
        "join" => join(&args),
        "explain" => explain(&args),
        "trace" => trace_query(&args),
        "slo" => slo_report(&args),
        "serve-metrics" => serve_metrics(&args),
        other => Err(format!("unknown command {other:?}")),
    };
    if outcome.is_err() {
        // Count the failure against the op's error budget so the SLO
        // engine's error-rate objectives see driver-level failures too.
        if let Some(op) = slo_op_for(command, &args) {
            treesim_search::ops::record_error(op);
        }
    }
    if let Some(burn) = check_slo_after(command) {
        eprintln!(
            "warning: SLO degraded — worst burn rate {burn:.2}× \
             (run `treesim slo` for the target table)"
        );
    }
    // Snapshot even on command failure: partial funnels are still useful.
    if let Some(path) = args.get("metrics") {
        write_metrics(path)?;
    }
    outcome
}

/// Maps a CLI command onto the cataloged operation its failure should
/// burn ([`treesim_search::ops::OPS`]); `None` for commands outside the
/// SLO table (generation, conversion, the server itself).
fn slo_op_for(command: &str, args: &Args) -> Option<&'static str> {
    match command {
        "knn" => Some("engine.knn"),
        "range" => Some("engine.range"),
        "join" => Some("join.self"),
        // EXPLAIN and trace answer one real query; a `--tau` makes it a
        // range query, mirroring their dispatch inside the handlers.
        "explain" | "trace" => Some(if args.get("tau").is_some() {
            "engine.range"
        } else {
            "engine.knn"
        }),
        _ => None,
    }
}

/// The degradation hook for batch drivers: after a query-path command,
/// evaluate the SLO targets over the live windows and surface the worst
/// burn rate when the multi-window rule says the error budget is burning.
fn check_slo_after(command: &str) -> Option<f64> {
    match command {
        "knn" | "range" | "join" | "explain" | "trace" => {
            treesim_obs::slo::evaluate();
            treesim_obs::slo::check_degraded()
        }
        // `slo` already evaluated inside its handler; re-running here
        // would double-publish for no new information.
        "slo" => treesim_obs::slo::check_degraded(),
        _ => None,
    }
}

/// Installs the span sink requested by `--trace pretty|json` (traces go to
/// stderr so they never mix with command output on stdout), after applying
/// the `TREESIM_TRACE_*` sampler knobs from the environment. Handlers that
/// force retention (the `trace` subcommand) still win: they set their knob
/// after this runs.
fn configure_tracing(args: &Args) -> Result<(), String> {
    if let Some(v) = env_knob("TREESIM_TRACE_WEIGHT_BUDGET")? {
        treesim_obs::trace::set_weight_budget(v);
    }
    if let Some(v) = env_knob("TREESIM_TRACE_SAMPLE_EVERY")? {
        treesim_obs::trace::set_sample_every(v);
    }
    if let Some(v) = env_knob("TREESIM_TRACE_SLO_US")? {
        treesim_obs::trace::set_slo_us(v);
    }
    match args.get("trace") {
        None => Ok(()),
        Some("pretty") => {
            treesim_obs::install_sink(std::sync::Arc::new(treesim_obs::PrettySink));
            Ok(())
        }
        Some("json") => {
            treesim_obs::install_sink(std::sync::Arc::new(treesim_obs::JsonLinesSink::stderr()));
            Ok(())
        }
        Some(other) => Err(format!("--trace: unknown mode {other:?} (pretty|json)")),
    }
}

/// Reads one `TREESIM_TRACE_*` knob from the environment: `Ok(None)` when
/// unset, an error (naming the variable) when set but not a number.
fn env_knob(name: &str) -> Result<Option<u64>, String> {
    match std::env::var(name) {
        Err(std::env::VarError::NotPresent) => Ok(None),
        Err(std::env::VarError::NotUnicode(_)) => Err(format!("{name}: value is not valid UTF-8")),
        Ok(raw) => raw
            .trim()
            .parse()
            .map(Some)
            .map_err(|e| format!("{name}={raw:?}: {e}")),
    }
}

/// Writes the global metrics snapshot (`--metrics FILE`) as pretty JSON.
fn write_metrics(path: &str) -> Result<(), String> {
    let snapshot = treesim_obs::metrics::snapshot();
    std::fs::write(path, snapshot.to_json_string()).map_err(|e| format!("cannot write {path}: {e}"))
}

fn gen_synthetic(args: &Args) -> Result<(), String> {
    let out = args.require("out")?;
    let config = SyntheticConfig {
        fanout: Normal::new(args.get_or("fanout", 4.0)?, args.get_or("fanout-sd", 0.5)?),
        size: Normal::new(args.get_or("size", 50.0)?, args.get_or("size-sd", 2.0)?),
        label_count: args.get_or("labels", 8u32)?,
        decay: args.get_or("decay", 0.05)?,
        seed_count: args.get_or("seeds", 10usize)?,
        tree_count: args.get_or("trees", 500usize)?,
        rng_seed: args.get_or("seed", 1u64)?,
    };
    let forest = synthetic::generate(&config);
    io::save_forest(&forest, out)?;
    println!(
        "wrote {} trees ({}) to {out}",
        forest.len(),
        config.spec_string()
    );
    Ok(())
}

fn gen_dblp(args: &Args) -> Result<(), String> {
    let out = args.require("out")?;
    let config = DblpConfig::with_count(
        args.get_or("records", 500usize)?,
        args.get_or("seed", 1u64)?,
    );
    let records = generate_records(&config);
    let mut content = String::new();
    for record in &records {
        content.push_str(&record.xml);
        content.push('\n');
    }
    std::fs::write(out, content).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("wrote {} DBLP-style records to {out}", records.len());
    Ok(())
}

fn convert(args: &Args) -> Result<(), String> {
    let (input, output) = match (args.positional(0), args.positional(1)) {
        (Some(i), Some(o)) => (i, o),
        _ => return Err("convert needs input and output paths".into()),
    };
    let forest = io::load_forest(input)?;
    io::save_forest(&forest, output)?;
    println!("converted {} trees: {input} → {output}", forest.len());
    Ok(())
}

fn build_index(args: &Args) -> Result<(), String> {
    let path = args.positional(0).ok_or("index needs a dataset file")?;
    let out = args.require("out")?;
    let level = args.get_or("level", 2usize)?;
    if level < 2 {
        return Err("--level must be ≥ 2".into());
    }
    let forest = io::load_forest(path)?;
    let index = treesim_core::InvertedFileIndex::build(&forest, level);
    let bytes = treesim_core::codec::encode_index(&index);
    std::fs::write(out, &bytes).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!(
        "indexed {} trees: |Γ| = {} branches, {} postings → {out} ({} bytes)",
        index.tree_count(),
        index.vocab().len(),
        index.posting_count(),
        bytes.len()
    );
    Ok(())
}

fn load_index(path: &str) -> Result<treesim_core::InvertedFileIndex, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    treesim_core::codec::decode_index(&bytes).map_err(|e| format!("{path}: {e}"))
}

fn stats(args: &Args) -> Result<(), String> {
    let path = args.positional(0).ok_or("stats needs a dataset file")?;
    let forest = io::load_forest(path)?;
    let stats = forest.stats();
    println!("dataset          {path}");
    println!("trees            {}", stats.tree_count);
    println!("total nodes      {}", stats.total_nodes);
    println!("avg size         {:.2}", stats.avg_size);
    println!("max size         {}", stats.max_size);
    println!("avg depth        {:.3}", stats.avg_depth);
    println!("avg height       {:.3}", stats.avg_height);
    println!("avg fanout       {:.3}", stats.avg_fanout);
    println!("distinct labels  {}", stats.distinct_labels);
    Ok(())
}

fn dist(args: &Args) -> Result<(), String> {
    let (spec1, spec2) = match (args.positional(0), args.positional(1)) {
        (Some(a), Some(b)) => (a, b),
        _ => return Err("dist needs two bracket-notation trees".into()),
    };
    let mut interner = treesim_tree::LabelInterner::new();
    let t1 = treesim_tree::parse::bracket::parse(&mut interner, spec1)
        .map_err(|e| format!("tree 1: {e}"))?;
    let t2 = treesim_tree::parse::bracket::parse(&mut interner, spec2)
        .map_err(|e| format!("tree 2: {e}"))?;
    let edist = edit_distance(&t1, &t2);
    println!("edit distance          {edist}");
    for q in 2..=4usize {
        let bdist = treesim_core::binary_branch_distance(&t1, &t2, q);
        let factor = treesim_core::bound_factor(q);
        println!(
            "BDist (q={q})            {bdist}  (lower bound ⌈/{factor}⌉ = {})",
            bdist.div_ceil(factor)
        );
    }
    let mut vocab = treesim_core::BranchVocab::new(2);
    let v1 = treesim_core::PositionalVector::build(&t1, &mut vocab);
    let v2 = treesim_core::PositionalVector::build(&t2, &mut vocab);
    println!("positional bound propt {}", v1.optimistic_bound(&v2));
    Ok(())
}

fn join(args: &Args) -> Result<(), String> {
    let path = args.positional(0).ok_or("join needs a dataset file")?;
    let forest = io::load_forest(path)?;
    let tau = args.get_or("tau", 2u32)?;
    let limit = args.get_or("limit", 20usize)?;
    let filter = PostingsFilter::build(&forest, 2);
    let (pairs, stats) = treesim_search::similarity_self_join(&forest, &filter, tau);
    for pair in pairs.iter().take(limit) {
        println!(
            "{:>6} ≈ {:<6} d={}",
            pair.left.0, pair.right.0, pair.distance
        );
    }
    if pairs.len() > limit {
        println!("… and {} more pairs", pairs.len() - limit);
    }
    println!(
        "-- τ={tau}: {} pairs; {} candidates considered, {} refined ({:.2}%), {} cut off at τ",
        stats.pairs_joined,
        stats.pairs_considered,
        stats.pairs_refined,
        stats.refine_fraction() * 100.0,
        stats.pairs_cutoff
    );
    Ok(())
}

enum SearchKind {
    Knn,
    Range,
}

fn search(args: &Args, kind: SearchKind) -> Result<(), String> {
    let path = args.positional(0).ok_or("search needs a dataset file")?;
    let mut forest = io::load_forest(path)?;
    let query = io::parse_query(&mut forest, args.require("query")?)?;
    let filter_name = args.get("filter").unwrap_or("bibranch");
    let level = args.get_or("level", 2usize)?;
    if level < 2 {
        return Err("--level must be ≥ 2".into());
    }

    let prebuilt_index = match args.get("index") {
        Some(index_path) => {
            let index = load_index(index_path)?;
            if index.tree_count() != forest.len() {
                return Err(format!(
                    "index covers {} trees but the dataset has {}",
                    index.tree_count(),
                    forest.len()
                ));
            }
            Some(index)
        }
        None => None,
    };
    let shards = args.get_or("shards", 1usize)?;
    if shards == 0 {
        return Err("--shards must be ≥ 1".into());
    }
    let (results, stats) = if shards > 1 {
        if prebuilt_index.is_some() {
            return Err(
                "--index cannot be combined with --shards (each shard builds its own in-memory index)"
                    .into(),
            );
        }
        let sharded = ShardedForest::split(&forest, shards);
        match filter_name {
            "bibranch" => run_sharded(
                &sharded,
                |shard| BiBranchFilter::build(shard, level, BiBranchMode::Positional),
                &query,
                args,
                &kind,
            )?,
            "plain" => run_sharded(
                &sharded,
                |shard| BiBranchFilter::build(shard, level, BiBranchMode::Plain),
                &query,
                args,
                &kind,
            )?,
            "postings" => run_sharded(
                &sharded,
                |shard| PostingsFilter::build(shard, level),
                &query,
                args,
                &kind,
            )?,
            "histo" => run_sharded(&sharded, HistogramFilter::build, &query, args, &kind)?,
            "none" => run_sharded(&sharded, NoFilter::build, &query, args, &kind)?,
            other => return Err(format!("unknown filter {other:?}")),
        }
    } else {
        match filter_name {
            "bibranch" => {
                let filter = match &prebuilt_index {
                    Some(index) => BiBranchFilter::from_index(index, BiBranchMode::Positional),
                    None => BiBranchFilter::build(&forest, level, BiBranchMode::Positional),
                };
                run(&forest, filter, &query, args, &kind)?
            }
            "plain" => {
                let filter = match &prebuilt_index {
                    Some(index) => BiBranchFilter::from_index(index, BiBranchMode::Plain),
                    None => BiBranchFilter::build(&forest, level, BiBranchMode::Plain),
                };
                run(&forest, filter, &query, args, &kind)?
            }
            "postings" => {
                let filter = match &prebuilt_index {
                    Some(index) => PostingsFilter::from_index(index.clone()),
                    None => PostingsFilter::build(&forest, level),
                };
                run(&forest, filter, &query, args, &kind)?
            }
            "histo" => run(
                &forest,
                HistogramFilter::build(&forest),
                &query,
                args,
                &kind,
            )?,
            "none" => run(&forest, NoFilter::build(&forest), &query, args, &kind)?,
            other => return Err(format!("unknown filter {other:?}")),
        }
    };

    for neighbor in &results {
        let rendered =
            treesim_tree::parse::bracket::to_string(forest.tree(neighbor.tree), forest.interner());
        let shown: String = rendered.chars().take(70).collect();
        println!(
            "{:>6}  d={:<4} {}",
            neighbor.tree.0, neighbor.distance, shown
        );
    }
    // Summary plus — for multi-stage cascades — the per-stage funnel,
    // rendered by SearchStats' Display impl (shared with the bench tables).
    println!("{stats}");
    Ok(())
}

fn run<F: treesim_search::Filter>(
    forest: &Forest,
    filter: F,
    query: &Tree,
    args: &Args,
    kind: &SearchKind,
) -> Result<(Vec<Neighbor>, SearchStats), String> {
    let engine = SearchEngine::new(forest, filter);
    Ok(match kind {
        SearchKind::Knn => engine.knn(query, args.get_or("k", 5usize)?),
        SearchKind::Range => engine.range(query, args.get_or("tau", 3u32)?),
    })
}

/// Like [`run`], but over a sharded forest: one engine per shard, the
/// query answered on every shard concurrently and the heaps merged.
fn run_sharded<F: treesim_search::Filter + Send + Sync>(
    sharded: &ShardedForest,
    build: impl Fn(&Forest) -> F + Sync,
    query: &Tree,
    args: &Args,
    kind: &SearchKind,
) -> Result<(Vec<Neighbor>, SearchStats), String> {
    let engine = ShardedEngine::new(sharded, build);
    Ok(match kind {
        SearchKind::Knn => engine.knn(query, args.get_or("k", 5usize)?),
        SearchKind::Range => engine.range(query, args.get_or("tau", 3u32)?),
    })
}

/// `treesim explain`: replay one query with the recording observer and
/// print the per-candidate cascade table. `--tau T` explains a range
/// query; otherwise `--k` (default 5) explains a k-NN query.
fn explain(args: &Args) -> Result<(), String> {
    let path = args.positional(0).ok_or("explain needs a dataset file")?;
    let mut forest = io::load_forest(path)?;
    let query = io::parse_query(&mut forest, args.require("query")?)?;
    let filter_name = args.get("filter").unwrap_or("bibranch");
    let level = args.get_or("level", 2usize)?;
    if level < 2 {
        return Err("--level must be ≥ 2".into());
    }
    let limit = args.get_or("limit", 40usize)?;
    let shards = args.get_or("shards", 1usize)?;
    if shards == 0 {
        return Err("--shards must be ≥ 1".into());
    }
    let report = if shards > 1 {
        let sharded = ShardedForest::split(&forest, shards);
        match filter_name {
            "bibranch" => explain_sharded(
                &sharded,
                |shard| BiBranchFilter::build(shard, level, BiBranchMode::Positional),
                &query,
                args,
            )?,
            "plain" => explain_sharded(
                &sharded,
                |shard| BiBranchFilter::build(shard, level, BiBranchMode::Plain),
                &query,
                args,
            )?,
            "postings" => explain_sharded(
                &sharded,
                |shard| PostingsFilter::build(shard, level),
                &query,
                args,
            )?,
            "histo" => explain_sharded(&sharded, HistogramFilter::build, &query, args)?,
            "none" => explain_sharded(&sharded, NoFilter::build, &query, args)?,
            other => return Err(format!("unknown filter {other:?}")),
        }
    } else {
        match filter_name {
            "bibranch" => explain_with(
                &forest,
                BiBranchFilter::build(&forest, level, BiBranchMode::Positional),
                &query,
                args,
            )?,
            "plain" => explain_with(
                &forest,
                BiBranchFilter::build(&forest, level, BiBranchMode::Plain),
                &query,
                args,
            )?,
            "postings" => {
                explain_with(&forest, PostingsFilter::build(&forest, level), &query, args)?
            }
            "histo" => explain_with(&forest, HistogramFilter::build(&forest), &query, args)?,
            "none" => explain_with(&forest, NoFilter::build(&forest), &query, args)?,
            other => return Err(format!("unknown filter {other:?}")),
        }
    };
    print!("{}", report.render(limit));
    // The EXPLAIN contract: per-candidate verdicts telescope exactly to
    // the SearchStats funnel of the same query.
    if let Err((stage, from_verdicts, from_stats)) = report.check_consistency() {
        return Err(format!(
            "EXPLAIN inconsistency at stage {stage}: verdicts say \
             (evaluated, pruned) = {from_verdicts:?} but stats say {from_stats:?}"
        ));
    }
    println!("-- verdicts telescope to the stats funnel (checked)");
    println!("{}", report.stats);
    Ok(())
}

fn explain_with<F: treesim_search::Filter>(
    forest: &Forest,
    filter: F,
    query: &Tree,
    args: &Args,
) -> Result<treesim_search::ExplainReport, String> {
    let engine = SearchEngine::new(forest, filter);
    Ok(match args.get("tau") {
        Some(_) => engine.explain_range(query, args.get_or("tau", 3u32)?),
        None => engine.explain_knn(query, args.get_or("k", 5usize)?),
    })
}

/// [`explain_with`] over a sharded forest: per-shard EXPLAIN observers,
/// stitched into one globally-indexed report.
fn explain_sharded<F: treesim_search::Filter + Send + Sync>(
    sharded: &ShardedForest,
    build: impl Fn(&Forest) -> F + Sync,
    query: &Tree,
    args: &Args,
) -> Result<treesim_search::ExplainReport, String> {
    let engine = ShardedEngine::new(sharded, build);
    Ok(match args.get("tau") {
        Some(_) => engine.explain_range(query, args.get_or("tau", 3u32)?),
        None => engine.explain_knn(query, args.get_or("k", 5usize)?),
    })
}

/// `treesim trace`: answer one query (same flags as `knn`/`range` — a
/// `--tau` makes it a range query) with trace retention forced on, then
/// print the reassembled span tree with per-span total/self times.
fn trace_query(args: &Args) -> Result<(), String> {
    // Retain every trace for this run: the CLI answers one query per
    // process, so the sampler's 1-in-N lottery would usually drop the
    // only trace there is.
    treesim_obs::trace::set_sample_every(1);
    let kind = if args.get("tau").is_some() {
        SearchKind::Range
    } else {
        SearchKind::Knn
    };
    search(args, kind)?;
    let trace = treesim_obs::trace::latest()
        .ok_or("no trace was retained — the query produced no spans")?;
    print!("{}", trace.render_tree());
    println!(
        "-- serve this tree in Chrome trace-event format: \
         `treesim serve-metrics` → /trace.json (chrome://tracing, Perfetto)"
    );
    Ok(())
}

/// `treesim slo`: evaluate every SLO target against the live 5 m / 1 h
/// windows and print the verdict table — the same evaluation `/slo.json`
/// and `/health` serve, rendered for a terminal.
fn slo_report(_args: &Args) -> Result<(), String> {
    // Materialize the full op catalog first so the table shows every
    // promised series, not just the ones this process happened to touch.
    treesim_search::ops::register();
    let report = treesim_obs::slo::evaluate();
    print!("{}", report.render_table());
    Ok(())
}

/// One `--trace-*` sampler flag: `Ok(None)` when absent, an error naming
/// the flag when present but not a number.
#[cfg(feature = "server")]
fn flag_knob(args: &Args, name: &str) -> Result<Option<u64>, String> {
    match args.get(name) {
        None => Ok(None),
        Some(raw) => raw
            .parse()
            .map(Some)
            .map_err(|e| format!("--{name} {raw:?}: {e}")),
    }
}

/// `treesim serve-metrics`: expose the metrics registry and flight
/// recorder over HTTP. With a dataset argument, first answers `--warm`
/// k-NN queries (a batch, so recorder entries are batch-tagged) to
/// populate the `cascade.*` / `refine.*` / `recorder.*` families.
#[cfg(feature = "server")]
fn serve_metrics(args: &Args) -> Result<(), String> {
    // Sampler knobs: explicit flags override the TREESIM_TRACE_* env vars
    // (already applied by configure_tracing); when neither pins the
    // slow-span threshold, it follows the strictest latency SLO so the
    // sampler's idea of "slow" matches what /health alerts on.
    let mut slo_pinned = std::env::var_os("TREESIM_TRACE_SLO_US").is_some();
    if let Some(v) = flag_knob(args, "trace-weight-budget")? {
        treesim_obs::trace::set_weight_budget(v);
    }
    if let Some(v) = flag_knob(args, "trace-sample-every")? {
        treesim_obs::trace::set_sample_every(v);
    }
    if let Some(v) = flag_knob(args, "trace-slo-us")? {
        treesim_obs::trace::set_slo_us(v);
        slo_pinned = true;
    }
    if !slo_pinned {
        let applied = treesim_obs::slo::sync_trace_slo();
        println!("trace slow-span threshold synced to the strictest latency SLO ({applied} µs)");
    }
    // Materialize every `<op>.errors` counter so scrapes see the complete
    // catalog from the first request.
    treesim_search::ops::register();
    if let Some(path) = args.positional(0) {
        let forest = io::load_forest(path)?;
        let warm = args.get_or("warm", 25usize)?;
        let k = args.get_or("k", 5usize)?;
        if warm > 0 && !forest.is_empty() {
            let filter = BiBranchFilter::build(&forest, 2, BiBranchMode::Positional);
            let engine = SearchEngine::new(&forest, filter);
            let queries: Vec<&Tree> = forest.iter().map(|(_, t)| t).take(warm).collect();
            engine.knn_batch(&queries, k);
            println!(
                "warmed metrics with {} k-NN queries (k={k}) over {} trees",
                queries.len(),
                forest.len()
            );
        }
    }
    let addr = args.get("addr").unwrap_or("127.0.0.1:9891");
    let server =
        treesim_obs::MetricsServer::bind(addr).map_err(|e| format!("cannot bind {addr}: {e}"))?;
    let local = server
        .local_addr()
        .map_err(|e| format!("cannot resolve local address: {e}"))?;
    println!(
        "serving http://{local}/metrics  (also /snapshot.json, /recorder.json?since=N, \
         /trace.json, /slo.json, /health)"
    );
    server
        .serve_forever()
        .map_err(|e| format!("metrics server failed: {e}"))
}

/// Stub when the `server` feature is off: the subcommand exists but
/// explains how to get it.
#[cfg(not(feature = "server"))]
fn serve_metrics(_args: &Args) -> Result<(), String> {
    Err(
        "this binary was built without the `server` feature; rebuild with \
         `cargo build -p treesim-cli --features server`"
            .into(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that touch the process-wide trace-sampler knobs:
    /// the trace test relies on forced retention (`sample_every == 1`)
    /// holding while its queries run, and the knob tests assert on (and
    /// then restore) the global values.
    static KNOBS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn knob_lock() -> std::sync::MutexGuard<'static, ()> {
        KNOBS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn argv(tokens: &[&str]) -> Vec<String> {
        tokens.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn help_succeeds() {
        dispatch(&argv(&["help"])).unwrap();
        dispatch(&argv(&[])).unwrap();
    }

    #[test]
    fn unknown_command_fails() {
        assert!(dispatch(&argv(&["frobnicate"])).is_err());
    }

    #[test]
    fn dist_computes_bounds() {
        dispatch(&argv(&["dist", "a(b c)", "a(b d)"])).unwrap();
        assert!(dispatch(&argv(&["dist", "a(b c)"])).is_err());
        assert!(dispatch(&argv(&["dist", "a(", "b"])).is_err());
    }

    #[test]
    fn end_to_end_gen_stats_query() {
        let dir = std::env::temp_dir().join("treesim-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("tiny.trees");
        let data_str = data.to_str().unwrap();
        dispatch(&argv(&[
            "gen-synthetic",
            "--out",
            data_str,
            "--trees",
            "30",
            "--size",
            "12",
            "--seed",
            "7",
        ]))
        .unwrap();
        dispatch(&argv(&["stats", data_str])).unwrap();
        dispatch(&argv(&["knn", data_str, "--query", "0(1 2)", "--k", "3"])).unwrap();
        dispatch(&argv(&[
            "range", data_str, "--query", "0(1 2)", "--tau", "4", "--filter", "histo",
        ]))
        .unwrap();
        dispatch(&argv(&[
            "range", data_str, "--query", "0(1 2)", "--tau", "4", "--filter", "none",
        ]))
        .unwrap();
        std::fs::remove_file(&data).ok();
    }

    #[test]
    fn convert_roundtrip_binary() {
        let dir = std::env::temp_dir().join("treesim-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let brackets = dir.join("c.trees");
        let binary = dir.join("c.tsf");
        std::fs::write(&brackets, "a(b c)\na(b)\n").unwrap();
        dispatch(&argv(&[
            "convert",
            brackets.to_str().unwrap(),
            binary.to_str().unwrap(),
        ]))
        .unwrap();
        dispatch(&argv(&["stats", binary.to_str().unwrap()])).unwrap();
        dispatch(&argv(&[
            "knn",
            binary.to_str().unwrap(),
            "--query",
            "a(b c)",
            "--k",
            "1",
        ]))
        .unwrap();
        std::fs::remove_file(&brackets).ok();
        std::fs::remove_file(&binary).ok();
    }

    #[test]
    fn index_persistence_workflow() {
        let dir = std::env::temp_dir().join("treesim-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("idx.trees");
        let index = dir.join("idx.tsi");
        std::fs::write(&data, "a(b c)\na(b d)\nx(y z)\n").unwrap();
        dispatch(&argv(&[
            "index",
            data.to_str().unwrap(),
            "--out",
            index.to_str().unwrap(),
        ]))
        .unwrap();
        dispatch(&argv(&[
            "knn",
            data.to_str().unwrap(),
            "--query",
            "a(b c)",
            "--k",
            "2",
            "--index",
            index.to_str().unwrap(),
        ]))
        .unwrap();
        // Mismatched dataset is rejected.
        let other = dir.join("other.trees");
        std::fs::write(&other, "a\n").unwrap();
        assert!(dispatch(&argv(&[
            "knn",
            other.to_str().unwrap(),
            "--query",
            "a",
            "--index",
            index.to_str().unwrap(),
        ]))
        .is_err());
        std::fs::remove_file(&data).ok();
        std::fs::remove_file(&index).ok();
        std::fs::remove_file(&other).ok();
    }

    #[test]
    fn join_command_runs() {
        let dir = std::env::temp_dir().join("treesim-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("join.trees");
        std::fs::write(&data, "a(b c)\na(b c)\na(b d)\nx(y)\n").unwrap();
        dispatch(&argv(&["join", data.to_str().unwrap(), "--tau", "1"])).unwrap();
        assert!(dispatch(&argv(&["join"])).is_err());
        std::fs::remove_file(&data).ok();
    }

    #[test]
    fn gen_dblp_writes_xml() {
        let dir = std::env::temp_dir().join("treesim-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("tiny.xml");
        let data_str = data.to_str().unwrap();
        dispatch(&argv(&["gen-dblp", "--out", data_str, "--records", "10"])).unwrap();
        dispatch(&argv(&["stats", data_str])).unwrap();
        dispatch(&argv(&[
            "knn",
            data_str,
            "--query",
            "article(author title)",
            "--k",
            "2",
        ]))
        .unwrap();
        std::fs::remove_file(&data).ok();
    }

    #[test]
    fn trace_and_metrics_flags() {
        let dir = std::env::temp_dir().join("treesim-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("obs.trees");
        let metrics = dir.join("obs-metrics.json");
        std::fs::write(&data, "a(b c)\na(b d)\nx(y z)\n").unwrap();
        let data_str = data.to_str().unwrap();
        let metrics_str = metrics.to_str().unwrap();
        dispatch(&argv(&[
            "knn",
            data_str,
            "--query",
            "a(b c)",
            "--k",
            "2",
            "--trace=json",
            "--metrics",
            metrics_str,
        ]))
        .unwrap();
        treesim_obs::clear_sink();
        // The emitted snapshot parses back and contains the knn funnel.
        let text = std::fs::read_to_string(&metrics).unwrap();
        let snapshot = treesim_obs::MetricsSnapshot::from_json_str(&text).unwrap();
        assert!(snapshot.counter("engine.knn.queries").unwrap() >= 1);
        assert!(snapshot.counter("cascade.size.evaluated").unwrap() >= 3);
        // Unknown trace modes are rejected.
        assert!(dispatch(&argv(&[
            "knn", data_str, "--query", "a", "--trace", "verbose"
        ]))
        .is_err());
        std::fs::remove_file(&data).ok();
        std::fs::remove_file(&metrics).ok();
    }

    #[test]
    fn explain_prints_consistent_table() {
        let dir = std::env::temp_dir().join("treesim-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("explain.trees");
        std::fs::write(&data, "a(b c)\na(b d)\na(b(c) d)\nx(y z)\nq(r(s t))\n").unwrap();
        let data_str = data.to_str().unwrap();
        // knn mode (default), range mode (--tau), every filter, and a
        // row-limited rendering all succeed — the dispatch itself runs
        // check_consistency and errors on any funnel mismatch.
        dispatch(&argv(&[
            "explain", data_str, "--query", "a(b c)", "--k", "2",
        ]))
        .unwrap();
        dispatch(&argv(&[
            "explain", data_str, "--query", "a(b c)", "--tau", "2",
        ]))
        .unwrap();
        for filter in ["plain", "histo", "none"] {
            dispatch(&argv(&[
                "explain", data_str, "--query", "a(b c)", "--filter", filter,
            ]))
            .unwrap();
        }
        dispatch(&argv(&[
            "explain", data_str, "--query", "a(b c)", "--limit", "1",
        ]))
        .unwrap();
        // Missing dataset / bad filter are rejected.
        assert!(dispatch(&argv(&["explain"])).is_err());
        assert!(dispatch(&argv(&[
            "explain", data_str, "--query", "a", "--filter", "bogus"
        ]))
        .is_err());
        std::fs::remove_file(&data).ok();
    }

    #[test]
    fn trace_command_prints_span_tree() {
        let _knobs = knob_lock();
        let dir = std::env::temp_dir().join("treesim-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("trace.trees");
        std::fs::write(&data, "a(b c)\na(b d)\na(b(c) d)\nx(y z)\nq(r(s t))\n").unwrap();
        let data_str = data.to_str().unwrap();
        dispatch(&argv(&["trace", data_str, "--query", "a(b c)", "--k", "2"])).unwrap();
        assert!(treesim_obs::trace::retained()
            .iter()
            .any(|t| t.root() == "engine.knn"));
        // A τ makes it a range query; sharded queries trace too, with the
        // shard workers joining the coordinator's tree.
        dispatch(&argv(&[
            "trace", data_str, "--query", "a(b c)", "--tau", "2", "--shards", "2",
        ]))
        .unwrap();
        let sharded = treesim_obs::trace::retained()
            .into_iter()
            .rev()
            .find(|t| t.root() == "shard.range")
            .expect("sharded trace retained");
        assert!(sharded.spans.iter().any(|s| s.name == "shard.worker"));
        assert!(dispatch(&argv(&["trace"])).is_err());
        std::fs::remove_file(&data).ok();
    }

    #[cfg(feature = "server")]
    #[test]
    fn serve_metrics_rejects_bad_addr() {
        // Holds the knob lock: even a failed serve-metrics syncs the
        // trace SLO threshold before binding.
        let _knobs = knob_lock();
        assert!(dispatch(&argv(&[
            "serve-metrics",
            "--addr",
            "definitely:not:an:addr"
        ]))
        .is_err());
        treesim_obs::trace::set_slo_us(10_000);
    }

    #[test]
    fn slo_command_prints_the_target_table() {
        dispatch(&argv(&["slo"])).unwrap();
        // The evaluation materialized the published gauges for every
        // latency target in the catalog.
        let snapshot = treesim_obs::metrics::snapshot();
        assert!(snapshot.gauge("slo.burn_rate.engine_knn").is_some());
        assert!(snapshot.gauge("slo.budget_remaining.engine_knn").is_some());
    }

    #[test]
    fn failures_burn_the_op_error_budget() {
        let before = treesim_obs::metrics::snapshot();
        assert!(dispatch(&argv(&["knn", "/definitely/missing.trees", "--query", "a"])).is_err());
        assert!(dispatch(&argv(&["join", "/definitely/missing.trees"])).is_err());
        let after = treesim_obs::metrics::snapshot();
        // Other tests may fail queries concurrently, so ≥ not ==.
        assert!(after.counter_delta(&before, "engine.knn.errors") >= 1);
        assert!(after.counter_delta(&before, "join.self.errors") >= 1);
    }

    #[test]
    fn trace_env_knobs_apply_and_are_validated() {
        let _knobs = knob_lock();
        // A valid knob is applied by any command's startup path.
        std::env::set_var("TREESIM_TRACE_WEIGHT_BUDGET", "128");
        dispatch(&argv(&["dist", "a", "a"])).unwrap();
        std::env::remove_var("TREESIM_TRACE_WEIGHT_BUDGET");
        assert_eq!(treesim_obs::trace::weight_budget(), 128);
        treesim_obs::trace::set_weight_budget(64);
        // Validation errors name the variable. (A scratch name keeps the
        // bad value invisible to concurrently dispatching tests.)
        std::env::set_var("TREESIM_TRACE_SCRATCH_KNOB", "a lot");
        let err = env_knob("TREESIM_TRACE_SCRATCH_KNOB").unwrap_err();
        std::env::remove_var("TREESIM_TRACE_SCRATCH_KNOB");
        assert!(err.contains("TREESIM_TRACE_SCRATCH_KNOB"), "{err}");
        assert_eq!(env_knob("TREESIM_TRACE_SCRATCH_KNOB"), Ok(None));
    }

    #[cfg(feature = "server")]
    #[test]
    fn serve_metrics_trace_flags_apply_before_bind() {
        let _knobs = knob_lock();
        // The bind fails, but the knobs are applied first — and an
        // explicit --trace-slo-us suppresses the SLO sync.
        assert!(dispatch(&argv(&[
            "serve-metrics",
            "--addr",
            "definitely:not:an:addr",
            "--trace-sample-every",
            "3",
            "--trace-slo-us",
            "9999",
        ]))
        .is_err());
        assert_eq!(treesim_obs::trace::sample_every(), 3);
        assert_eq!(treesim_obs::trace::slo_us(), 9999);
        // Without the flag, the threshold follows the strictest latency
        // target in the SLO table.
        assert!(dispatch(&argv(&[
            "serve-metrics",
            "--addr",
            "definitely:not:an:addr"
        ]))
        .is_err());
        assert_eq!(treesim_obs::trace::slo_us(), 250_000);
        // Malformed flags are rejected before anything binds.
        assert!(dispatch(&argv(&[
            "serve-metrics",
            "--addr",
            "127.0.0.1:0",
            "--trace-weight-budget",
            "nope",
        ]))
        .is_err());
        treesim_obs::trace::set_sample_every(16);
        treesim_obs::trace::set_slo_us(10_000);
        treesim_obs::trace::set_weight_budget(64);
    }

    #[test]
    fn postings_filter_and_sharded_search() {
        let dir = std::env::temp_dir().join("treesim-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("postings.trees");
        std::fs::write(
            &data,
            "a(b c)\na(b d)\na(b(c) d)\nx(y z)\nq(r(s t))\na(b c e)\n",
        )
        .unwrap();
        let data_str = data.to_str().unwrap();
        // The postings cascade answers both query kinds, single and sharded.
        dispatch(&argv(&[
            "knn", data_str, "--query", "a(b c)", "--k", "3", "--filter", "postings",
        ]))
        .unwrap();
        dispatch(&argv(&[
            "range", data_str, "--query", "a(b c)", "--tau", "2", "--filter", "postings",
            "--shards", "3",
        ]))
        .unwrap();
        dispatch(&argv(&[
            "knn", data_str, "--query", "a(b c)", "--k", "2", "--shards", "2",
        ]))
        .unwrap();
        // Sharded EXPLAIN runs its consistency check inside dispatch.
        dispatch(&argv(&[
            "explain", data_str, "--query", "a(b c)", "--filter", "postings", "--shards", "3",
        ]))
        .unwrap();
        // A prebuilt index drives the postings filter too.
        let index = dir.join("postings.tsi");
        dispatch(&argv(&[
            "index",
            data_str,
            "--out",
            index.to_str().unwrap(),
        ]))
        .unwrap();
        dispatch(&argv(&[
            "knn",
            data_str,
            "--query",
            "a(b c)",
            "--filter",
            "postings",
            "--index",
            index.to_str().unwrap(),
        ]))
        .unwrap();
        // Invalid shard counts / flag combinations are rejected.
        assert!(dispatch(&argv(&["knn", data_str, "--query", "a", "--shards", "0"])).is_err());
        assert!(dispatch(&argv(&[
            "knn",
            data_str,
            "--query",
            "a",
            "--shards",
            "2",
            "--index",
            index.to_str().unwrap(),
        ]))
        .is_err());
        assert!(dispatch(&argv(&[
            "explain", data_str, "--query", "a", "--shards", "0"
        ]))
        .is_err());
        std::fs::remove_file(&data).ok();
        std::fs::remove_file(&index).ok();
    }

    #[test]
    fn bad_filter_and_level_rejected() {
        let dir = std::env::temp_dir().join("treesim-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("two.trees");
        std::fs::write(&data, "a(b)\na(c)\n").unwrap();
        let data_str = data.to_str().unwrap();
        assert!(dispatch(&argv(&[
            "knn", data_str, "--query", "a", "--filter", "bogus"
        ]))
        .is_err());
        assert!(dispatch(&argv(&["knn", data_str, "--query", "a", "--level", "1"])).is_err());
        std::fs::remove_file(&data).ok();
    }
}
