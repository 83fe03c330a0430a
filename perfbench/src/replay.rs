//! The traced run. Each operation first runs untraced through the public
//! entry point (`SearchEngine::knn`/`range`, `similarity_self_join`), then
//! is replayed layer by layer from the same public calls the library makes
//! (`Filter::prepare_query`, `stage_bound_batch`, `stage_bound`,
//! `prunes_range`, `TreeInfo::new`, `bounded_zhang_shasha`), timing every
//! layer boundary. The replayed funnel must equal the returned
//! `SearchStats`/`JoinStats` exactly, or the run is marked incorrect.
//!
//! Spans (name, start, duration, parent, operation id) stay in memory and
//! are written as JSON lines at exit when `--spans <path>` is given. A
//! stage that the k-NN escalation visits many times is one span per
//! query: its start is the first visit and its duration the summed busy
//! time.
//!
//! `trace.overhead_frac` is the replays' wall over the untraced calls'
//! wall, minus one. The replays skip the library's own always-on emission
//! (registry metrics, trace spans, flight records), so it can be negative.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io::Write;
use std::time::{Duration, Instant};

use treesim_core::{BranchVocab, InvertedFileIndex, PositionalVector, VectorArena};
use treesim_edit::{bounded_zhang_shasha, TreeInfo, UnitCost, ZsWorkspace};
use treesim_search::{
    similarity_self_join, DynamicIndex, Filter, JoinPair, JoinStats, Neighbor, PostingsFilter,
    SearchEngine, SearchStats,
};
use treesim_tree::{Forest, Tree, TreeId};

use crate::data::{Workload, Q};
use crate::stats::{percentile, Metric, Tally};

/// One recorded layer boundary.
struct Span {
    name: &'static str,
    op: u32,
    parent: Option<usize>,
    start: Duration,
    duration: Duration,
}

/// In-memory span store.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Records a span that started at `start` and was busy for `duration`.
    fn record(
        &mut self,
        name: &'static str,
        op: u32,
        parent: Option<usize>,
        start: Instant,
        duration: Duration,
    ) -> usize {
        self.spans.push(Span {
            name,
            op,
            parent,
            start: start.duration_since(self.origin),
            duration,
        });
        self.spans.len() - 1
    }

    /// Opens a span now; [`Tracer::close`] sets its duration.
    fn open(&mut self, name: &'static str, op: u32, parent: Option<usize>) -> usize {
        self.record(name, op, parent, Instant::now(), Duration::ZERO)
    }

    fn close(&mut self, span: usize) {
        let start = self.origin + self.spans[span].start;
        self.spans[span].duration = start.elapsed();
    }

    fn write(&self, path: &str) -> std::io::Result<()> {
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"dur_ns\": {}}}",
                span.name,
                span.op,
                span.start.as_nanos(),
                span.duration.as_nanos()
            )?;
        }
        out.flush()
    }
}

/// The counts a query's cascade produced, replayed or returned.
#[derive(Debug, PartialEq)]
struct Funnel {
    evaluated: Vec<usize>,
    pruned: Vec<usize>,
    refined: usize,
    cutoffs: usize,
    cells_skipped: u64,
    results: usize,
}

impl Funnel {
    fn new(stages: usize) -> Self {
        Funnel {
            evaluated: vec![0; stages],
            pruned: vec![0; stages],
            refined: 0,
            cutoffs: 0,
            cells_skipped: 0,
            results: 0,
        }
    }

    fn of(stats: &SearchStats) -> Self {
        Funnel {
            evaluated: stats.stages.iter().map(|s| s.evaluated).collect(),
            pruned: stats.stages.iter().map(|s| s.pruned).collect(),
            refined: stats.refined,
            cutoffs: stats.refine_cutoffs,
            cells_skipped: stats.refine_bands_skipped,
            results: stats.results,
        }
    }
}

/// Per-layer totals of one query kind.
struct QueryLayers {
    queries: usize,
    prepare: Duration,
    stage_time: Vec<Duration>,
    funnel: Funnel,
    refine: Duration,
    untraced: Duration,
    traced: Duration,
}

impl QueryLayers {
    fn new(stages: usize) -> Self {
        QueryLayers {
            queries: 0,
            prepare: Duration::ZERO,
            stage_time: vec![Duration::ZERO; stages],
            funnel: Funnel::new(stages),
            refine: Duration::ZERO,
            untraced: Duration::ZERO,
            traced: Duration::ZERO,
        }
    }

    fn layers(&self) -> Duration {
        self.prepare + self.stage_time.iter().sum::<Duration>() + self.refine
    }

    /// Adds one replayed query.
    fn add(&mut self, one: &QueryLayers) {
        self.queries += 1;
        self.prepare += one.prepare;
        self.refine += one.refine;
        for s in 0..self.stage_time.len() {
            self.stage_time[s] += one.stage_time[s];
            self.funnel.evaluated[s] += one.funnel.evaluated[s];
            self.funnel.pruned[s] += one.funnel.pruned[s];
        }
        self.funnel.refined += one.funnel.refined;
        self.funnel.cutoffs += one.funnel.cutoffs;
        self.funnel.cells_skipped += one.funnel.cells_skipped;
        self.funnel.results += one.funnel.results;
        self.untraced += one.untraced;
        self.traced += one.traced;
    }

    fn metrics(&self, prefix: &str, filter: &PostingsFilter, out: &mut Vec<Metric>) {
        let n = self.queries.max(1) as f64;
        let us = |d: Duration| d.as_secs_f64() * 1e6 / n;
        out.push(Metric::new(
            format!("{prefix}.filter.prepare.us"),
            us(self.prepare),
            "us",
        ));
        for s in 0..self.stage_time.len() {
            let stage = filter.stage_name(s);
            out.push(Metric::new(
                format!("{prefix}.filter.{stage}.us"),
                us(self.stage_time[s]),
                "us",
            ));
            out.push(Metric::new(
                format!("{prefix}.filter.{stage}.evaluated"),
                self.funnel.evaluated[s] as f64 / n,
                "count",
            ));
            out.push(Metric::new(
                format!("{prefix}.filter.{stage}.pruned"),
                self.funnel.pruned[s] as f64 / n,
                "count",
            ));
        }
        let f = &self.funnel;
        out.push(Metric::new(
            format!("{prefix}.refine.us"),
            us(self.refine),
            "us",
        ));
        out.push(Metric::new(
            format!("{prefix}.refine.calls"),
            f.refined as f64 / n,
            "count",
        ));
        out.push(Metric::new(
            format!("{prefix}.refine.cutoffs"),
            f.cutoffs as f64 / n,
            "count",
        ));
        out.push(Metric::new(
            format!("{prefix}.refine.cells_skipped"),
            f.cells_skipped as f64 / n,
            "count",
        ));
        out.push(Metric::new(
            format!("{prefix}.refine.hit_ratio"),
            f.results as f64 / f.refined.max(1) as f64,
            "ratio",
        ));
        out.push(Metric::new(
            format!("{prefix}.engine.other.us"),
            (self.untraced.as_secs_f64() - self.layers().as_secs_f64()) * 1e6 / n,
            "us",
        ));
    }
}

/// Everything the replay needs about the indexed dataset.
struct Ctx<'a> {
    forest: &'a Forest,
    filter: &'a PostingsFilter,
    infos: &'a [TreeInfo],
}

/// Replays `SearchEngine::knn`: prepare, a batched stage 0 over every
/// tree, lazy `stage_bound` escalation in bound order, then bounded
/// refinement in the same order and with the same live budget.
fn replay_knn(
    ctx: &Ctx,
    query: &Tree,
    k: usize,
    tracer: &mut Tracer,
    op: u32,
) -> (Vec<Neighbor>, QueryLayers) {
    let stages = ctx.filter.stages();
    let mut layers = QueryLayers::new(stages);
    let root = tracer.open("knn", op, None);

    let started = Instant::now();
    let prepared = ctx.filter.prepare_query(query);
    layers.prepare = started.elapsed();
    tracer.record("filter.prepare", op, Some(root), started, layers.prepare);

    let started = Instant::now();
    let sweep: Vec<TreeId> = ctx.forest.iter().map(|(id, _)| id).collect();
    let mut bounds = Vec::with_capacity(sweep.len());
    ctx.filter
        .stage_bound_batch(&prepared, &sweep, 0, &mut bounds);
    let mut escalation: BinaryHeap<Reverse<(u64, usize, TreeId)>> =
        BinaryHeap::with_capacity(sweep.len());
    for (&id, &bound) in sweep.iter().zip(&bounds) {
        escalation.push(Reverse((bound, 1, id)));
    }
    layers.stage_time[0] = started.elapsed();
    layers.funnel.evaluated[0] = sweep.len();
    let mut stage_start: Vec<Option<Instant>> = vec![None; stages];
    stage_start[0] = Some(started);

    let started = Instant::now();
    let query_info = TreeInfo::new(query);
    let mut workspace = ZsWorkspace::new();
    layers.refine = started.elapsed();
    let refine_start = started;
    let mut heap: BinaryHeap<(u64, TreeId)> = BinaryHeap::with_capacity(k + 1);
    while let Some(&Reverse((bound, next_stage, id))) = escalation.peek() {
        if let Some(&(worst, _)) = heap.peek().filter(|_| heap.len() == k) {
            if bound > worst {
                break;
            }
        }
        escalation.pop();
        if next_stage < stages {
            let started = Instant::now();
            let sharper = ctx.filter.stage_bound(&prepared, id, next_stage);
            layers.stage_time[next_stage] += started.elapsed();
            stage_start[next_stage].get_or_insert(started);
            layers.funnel.evaluated[next_stage] += 1;
            escalation.push(Reverse((bound.max(sharper), next_stage + 1, id)));
        } else {
            let budget = match heap.peek() {
                Some(&(worst, _)) if heap.len() == k => worst,
                _ => u64::MAX,
            };
            let started = Instant::now();
            let (distance, bounded) = bounded_zhang_shasha(
                &query_info,
                &ctx.infos[id.index()],
                &UnitCost,
                budget,
                &mut workspace,
            );
            layers.refine += started.elapsed();
            layers.funnel.refined += 1;
            layers.funnel.cells_skipped += bounded.cells_skipped;
            match distance {
                Some(distance) => {
                    heap.push((distance, id));
                    if heap.len() > k {
                        heap.pop();
                    }
                }
                None => layers.funnel.cutoffs += 1,
            }
        }
    }
    for &Reverse((_, next_stage, _)) in escalation.iter() {
        layers.funnel.pruned[next_stage - 1] += 1;
    }
    let mut results: Vec<Neighbor> = heap
        .into_iter()
        .map(|(distance, tree)| Neighbor { tree, distance })
        .collect();
    results.sort_unstable_by_key(|n| (n.distance, n.tree));
    layers.funnel.results = results.len();

    for (s, start) in stage_start.iter().enumerate() {
        if let Some(start) = *start {
            let name = stage_span(ctx.filter.stage_name(s));
            tracer.record(name, op, Some(root), start, layers.stage_time[s]);
        }
    }
    tracer.record("refine", op, Some(root), refine_start, layers.refine);
    tracer.close(root);
    (results, layers)
}

/// Replays `SearchEngine::range`: stage-by-stage batched sweeps, the
/// final stage through `prunes_range`, then bounded refinement at τ.
fn replay_range(
    ctx: &Ctx,
    query: &Tree,
    tau: u32,
    tracer: &mut Tracer,
    op: u32,
) -> (Vec<Neighbor>, QueryLayers) {
    let stages = ctx.filter.stages();
    let mut layers = QueryLayers::new(stages);
    let root = tracer.open("range", op, None);

    let started = Instant::now();
    let prepared = ctx.filter.prepare_query(query);
    layers.prepare = started.elapsed();
    tracer.record("filter.prepare", op, Some(root), started, layers.prepare);

    let mut candidates: Vec<TreeId> = ctx.forest.iter().map(|(id, _)| id).collect();
    let mut bounds = Vec::new();
    for stage in 0..stages {
        let started = Instant::now();
        let before = candidates.len();
        if stage + 1 == stages {
            candidates.retain(|&id| !ctx.filter.prunes_range(&prepared, id, tau));
        } else {
            bounds.clear();
            ctx.filter
                .stage_bound_batch(&prepared, &candidates, stage, &mut bounds);
            candidates = candidates
                .iter()
                .zip(&bounds)
                .filter(|&(_, &bound)| bound <= u64::from(tau))
                .map(|(&id, _)| id)
                .collect();
        }
        layers.stage_time[stage] = started.elapsed();
        layers.funnel.evaluated[stage] = before;
        layers.funnel.pruned[stage] = before - candidates.len();
        let name = stage_span(ctx.filter.stage_name(stage));
        tracer.record(name, op, Some(root), started, layers.stage_time[stage]);
    }

    let started = Instant::now();
    let query_info = TreeInfo::new(query);
    let mut workspace = ZsWorkspace::new();
    let mut results = Vec::new();
    for id in candidates {
        let (distance, bounded) = bounded_zhang_shasha(
            &query_info,
            &ctx.infos[id.index()],
            &UnitCost,
            u64::from(tau),
            &mut workspace,
        );
        layers.funnel.refined += 1;
        layers.funnel.cells_skipped += bounded.cells_skipped;
        match distance {
            Some(distance) => results.push(Neighbor { tree: id, distance }),
            None => layers.funnel.cutoffs += 1,
        }
    }
    layers.refine = started.elapsed();
    tracer.record("refine", op, Some(root), started, layers.refine);
    results.sort_unstable_by_key(|n| (n.distance, n.tree));
    layers.funnel.results = results.len();
    tracer.close(root);
    (results, layers)
}

fn stage_span(stage: &str) -> &'static str {
    match stage {
        "postings" => "filter.postings",
        "size" => "filter.size",
        "bdist" => "filter.bdist",
        "propt" => "filter.propt",
        _ => "filter.other",
    }
}

/// Per-layer totals of the self-join replay.
#[derive(Default)]
struct JoinLayers {
    bound: Duration,
    refine: Duration,
    stats: JoinStats,
}

/// Replays `similarity_self_join`: per left tree one `prepare_query`, then
/// the size prefilter and `prunes_range` over every later tree, and
/// bounded refinement (with lazily built `TreeInfo`s) of the survivors.
fn replay_join(
    forest: &Forest,
    filter: &PostingsFilter,
    tau: u32,
    tracer: &mut Tracer,
    op: u32,
) -> (Vec<JoinPair>, JoinLayers) {
    let root = tracer.open("join", op, None);
    let ids: Vec<TreeId> = forest.iter().map(|(id, _)| id).collect();
    let sizes: Vec<u64> = forest.iter().map(|(_, t)| t.len() as u64).collect();
    let mut infos: Vec<Option<TreeInfo>> = (0..forest.len()).map(|_| None).collect();
    let mut workspace = ZsWorkspace::new();
    let mut layers = JoinLayers::default();
    let mut pairs = Vec::new();
    for (position, &left) in ids.iter().enumerate() {
        let row_start = Instant::now();
        let mut refine = Duration::ZERO;
        let prepared = filter.prepare_query(forest.tree(left));
        for &right in &ids[position + 1..] {
            if sizes[left.index()].abs_diff(sizes[right.index()]) > u64::from(tau) {
                continue;
            }
            layers.stats.pairs_considered += 1;
            if filter.prunes_range(&prepared, right, tau) {
                continue;
            }
            layers.stats.pairs_refined += 1;
            let started = Instant::now();
            for id in [left, right] {
                if infos[id.index()].is_none() {
                    infos[id.index()] = Some(TreeInfo::new(forest.tree(id)));
                }
            }
            let (Some(info_l), Some(info_r)) =
                (infos[left.index()].as_ref(), infos[right.index()].as_ref())
            else {
                unreachable!("both infos were just built");
            };
            let (distance, bounded) =
                bounded_zhang_shasha(info_l, info_r, &UnitCost, u64::from(tau), &mut workspace);
            refine += started.elapsed();
            layers.stats.cells_skipped += bounded.cells_skipped;
            match distance {
                Some(distance) => {
                    layers.stats.pairs_joined += 1;
                    pairs.push(JoinPair {
                        left,
                        right,
                        distance,
                    });
                }
                None => layers.stats.pairs_cutoff += 1,
            }
        }
        let row = row_start.elapsed();
        layers.bound += row - refine;
        layers.refine += refine;
        let span = tracer.record("join.row", op, Some(root), row_start, row);
        tracer.record("join.bound", op, Some(span), row_start, row - refine);
        tracer.record("join.refine", op, Some(span), row_start, refine);
    }
    pairs.sort_unstable_by_key(|p| (p.left, p.right));
    tracer.close(root);
    (pairs, layers)
}

/// Runs the traced replay of every layer and returns the per-layer metrics.
pub fn run(w: &Workload, spans_out: Option<&str>) -> (Vec<Metric>, Tally) {
    let mut tally = Tally::default();
    let mut tracer = Tracer::new();
    let mut metrics = Vec::new();
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let us = |d: Duration| d.as_secs_f64() * 1e6;

    // Set-up, one public call per layer (after an untimed warm-up build).
    drop(PostingsFilter::build(&w.format.parse_forest(&w.base), Q));
    let setup = tracer.open("setup", 0, None);
    let started = Instant::now();
    let forest = w.format.parse_forest(&w.base);
    let parse = started.elapsed();
    tracer.record("tree.parse", 0, Some(setup), started, parse);
    let started = Instant::now();
    let index = InvertedFileIndex::build(&forest, Q);
    let ifi = started.elapsed();
    tracer.record("core.ifi.build", 0, Some(setup), started, ifi);
    let started = Instant::now();
    let filter = PostingsFilter::from_index(index);
    let arena = started.elapsed();
    tracer.record("core.arena.build", 0, Some(setup), started, arena);
    let started = Instant::now();
    let engine = SearchEngine::with_cost_threads(&forest, filter, UnitCost, 1);
    let treeinfo = started.elapsed();
    tracer.record("edit.treeinfo.build", 0, Some(setup), started, treeinfo);
    let started = Instant::now();
    let mut stream = DynamicIndex::from_forest(forest.clone(), Q);
    let preload = started.elapsed();
    tracer.record("dynamic.preload", 0, Some(setup), started, preload);
    tracer.close(setup);
    metrics.push(Metric::new("tree.parse.ms", ms(parse), "ms"));
    metrics.push(Metric::new("core.ifi.build.ms", ms(ifi), "ms"));
    metrics.push(Metric::new("core.arena.build.ms", ms(arena), "ms"));
    metrics.push(Metric::new("edit.treeinfo.build.ms", ms(treeinfo), "ms"));
    metrics.push(Metric::new("dynamic.preload.ms", ms(preload), "ms"));

    // Static queries: untraced call, then the replay, then reconciliation.
    let filter = engine.filter();
    let infos: Vec<TreeInfo> = forest.iter().map(|(_, t)| TreeInfo::new(t)).collect();
    let ctx = Ctx {
        forest: &forest,
        filter,
        infos: &infos,
    };
    let mut knn = QueryLayers::new(filter.stages());
    let mut range = QueryLayers::new(filter.stages());
    let mut op = 1u32;
    for &id in &w.queries {
        let query = forest.tree(id);

        let started = Instant::now();
        let (hits, stats) = engine.knn(query, w.knn_k);
        let untraced = started.elapsed();
        let started = Instant::now();
        let (replayed, mut layers) = replay_knn(&ctx, query, w.knn_k, &mut tracer, op);
        layers.traced = started.elapsed();
        layers.untraced = untraced;
        tally.check(
            hits == replayed && Funnel::of(&stats) == layers.funnel,
            "knn replay funnel",
        );
        knn.add(&layers);
        op += 1;

        let started = Instant::now();
        let (hits, stats) = engine.range(query, w.range_tau);
        let untraced = started.elapsed();
        let started = Instant::now();
        let (replayed, mut layers) = replay_range(&ctx, query, w.range_tau, &mut tracer, op);
        layers.traced = started.elapsed();
        layers.untraced = untraced;
        tally.check(
            hits == replayed && Funnel::of(&stats) == layers.funnel,
            "range replay funnel",
        );
        range.add(&layers);
        op += 1;
    }
    knn.metrics("knn", filter, &mut metrics);
    range.metrics("range", filter, &mut metrics);

    // The self-join.
    let started = Instant::now();
    let (pairs, stats) = similarity_self_join(&forest, filter, w.join_tau);
    let join_untraced = started.elapsed();
    let started = Instant::now();
    let (replayed, join) = replay_join(&forest, filter, w.join_tau, &mut tracer, op);
    let join_traced = started.elapsed();
    op += 1;
    tally.check(
        pairs == replayed && stats == join.stats,
        "join replay funnel",
    );
    let s = &join.stats;
    metrics.push(Metric::new("join.bound.s", join.bound.as_secs_f64(), "s"));
    metrics.push(Metric::new("join.refine.s", join.refine.as_secs_f64(), "s"));
    metrics.push(Metric::new(
        "join.pairs_considered",
        s.pairs_considered as f64,
        "count",
    ));
    metrics.push(Metric::new(
        "join.pairs_refined",
        s.pairs_refined as f64,
        "count",
    ));
    metrics.push(Metric::new(
        "join.pairs_joined",
        s.pairs_joined as f64,
        "count",
    ));
    metrics.push(Metric::new(
        "join.hit_ratio",
        s.pairs_joined as f64 / s.pairs_refined.max(1) as f64,
        "ratio",
    ));

    // The stream: parse, lookup and push of every arrival; push is split
    // into its parts on shadow state grown from the same trees.
    let mut vocab = BranchVocab::new(Q);
    let mut shadow = VectorArena::new(Q);
    for (_, tree) in forest.iter() {
        let vector = PositionalVector::build(tree, &mut vocab);
        shadow.push_tree(vector.iter_counts(), vector.tree_size());
    }
    let mut parse = Duration::ZERO;
    let (mut vectorize, mut arena, mut treeinfo) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let mut push_us = Vec::with_capacity(w.arrivals.len());
    let mut lookup_funnel = Funnel::new(3);
    for doc in &w.arrivals {
        let arrival = tracer.open("arrival", op, None);
        let started = Instant::now();
        let tree = w
            .format
            .parse(stream.interner_mut(), doc)
            .expect("generated arrival parses");
        parse += started.elapsed();
        tracer.record("tree.parse", op, Some(arrival), started, started.elapsed());

        let started = Instant::now();
        let (_, stats) = stream.knn(&tree, 1);
        tracer.record("dynamic.knn", op, Some(arrival), started, started.elapsed());
        tally.check(telescopes(&stats), "dynamic knn funnel");
        let returned = Funnel::of(&stats);
        for s in 0..3 {
            lookup_funnel.evaluated[s] += returned.evaluated.get(s).copied().unwrap_or(0);
            lookup_funnel.pruned[s] += returned.pruned.get(s).copied().unwrap_or(0);
        }
        lookup_funnel.refined += returned.refined;

        let started = Instant::now();
        let vector = PositionalVector::build(&tree, &mut vocab);
        vectorize += started.elapsed();
        let started = Instant::now();
        shadow.push_tree(vector.iter_counts(), vector.tree_size());
        arena += started.elapsed();
        let started = Instant::now();
        drop(TreeInfo::new(&tree));
        treeinfo += started.elapsed();

        let started = Instant::now();
        stream.push(tree);
        push_us.push(us(started.elapsed()));
        tracer.record(
            "dynamic.push",
            op,
            Some(arrival),
            started,
            started.elapsed(),
        );
        tracer.close(arrival);
        op += 1;
    }
    let n = w.arrivals.len().max(1) as f64;
    metrics.push(Metric::new("tree.parse.us", us(parse) / n, "us"));
    metrics.push(Metric::new(
        "dynamic.push.p50_us",
        percentile(&push_us, 0.50),
        "us",
    ));
    metrics.push(Metric::new(
        "dynamic.push.p99_us",
        percentile(&push_us, 0.99),
        "us",
    ));
    metrics.push(Metric::new(
        "dynamic.push.vectorize.us",
        us(vectorize) / n,
        "us",
    ));
    metrics.push(Metric::new("dynamic.push.arena.us", us(arena) / n, "us"));
    metrics.push(Metric::new(
        "dynamic.push.treeinfo.us",
        us(treeinfo) / n,
        "us",
    ));
    for (s, stage) in ["postings", "size", "propt"].iter().enumerate() {
        metrics.push(Metric::new(
            format!("dynamic.knn.{stage}.evaluated"),
            lookup_funnel.evaluated[s] as f64 / n,
            "count",
        ));
        metrics.push(Metric::new(
            format!("dynamic.knn.{stage}.pruned"),
            lookup_funnel.pruned[s] as f64 / n,
            "count",
        ));
    }
    metrics.push(Metric::new(
        "dynamic.knn.refine_calls",
        lookup_funnel.refined as f64 / n,
        "count",
    ));

    // Tracing distortion and coverage over the replayed operations.
    let untraced = knn.untraced + range.untraced + join_untraced;
    let traced = knn.traced + range.traced + join_traced;
    let layers = knn.layers() + range.layers() + join.bound + join.refine;
    metrics.push(Metric::new(
        "trace.overhead_frac",
        traced.as_secs_f64() / untraced.as_secs_f64() - 1.0,
        "ratio",
    ));
    metrics.push(Metric::new(
        "trace.layer_sum_frac",
        layers.as_secs_f64() / untraced.as_secs_f64(),
        "ratio",
    ));

    if let Some(path) = spans_out {
        if let Err(e) = tracer.write(path) {
            eprintln!("perfbench: cannot write spans to {path}: {e}");
            tally.check(false, "span output");
        }
    }
    (metrics, tally)
}

/// A lazy cascade's counts telescope: every candidate a stage evaluated
/// was pruned there or evaluated by the next stage (or refined, after
/// the last one).
fn telescopes(stats: &SearchStats) -> bool {
    let stages = &stats.stages;
    stages
        .windows(2)
        .all(|w| w[0].evaluated == w[0].pruned + w[1].evaluated)
        && stages
            .last()
            .is_some_and(|last| last.evaluated == last.pruned + stats.refined)
}
