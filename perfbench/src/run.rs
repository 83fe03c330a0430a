//! The untraced run: one closed-loop client on one thread, repeating
//! rounds of set-up, static queries, the self-join and the stream. A short
//! untimed warm-up comes first; the first timed round's answers are
//! checked against second exact paths after timing, and every later round
//! must repeat them exactly.
//!
//! The host's memory system slows this process down in episodes of 0.1 to
//! 2 s (by up to 1.7x on memory-bound loops, while a register-only loop
//! stays flat). A timing therefore keeps each item's best of the rounds:
//! a query's fastest round, the fastest join, the fastest stream pass.
//! Percentiles are taken across queries after that, and set-up time is
//! the median of many set-ups.

use std::hint::black_box;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use treesim_edit::UnitCost;
use treesim_search::{
    similarity_self_join, BiBranchFilter, BiBranchMode, DynamicIndex, JoinPair, Neighbor, NoFilter,
    PostingsFilter, SearchEngine,
};
use treesim_tree::Forest;

use crate::data::{Workload, Q};
use crate::stats::{median, percentile, Metric, Tally};

/// Fewest timed rounds, whatever `--seconds` says.
const MIN_ROUNDS: usize = 3;
/// Set-ups timed after each round, on top of the one the round starts
/// with, so set-up samples spread over the whole run.
const EXTRA_SETUPS: usize = 3;
/// Share of the queries and arrivals the warm-up runs (it skips the join).
const WARM_DIVISOR: usize = 10;
/// Stream arrivals whose lookup is checked against a static engine built
/// over the same prefix.
const STREAM_CHECKPOINTS: usize = 3;
/// Static queries also checked against the sequential scan.
const SCAN_CHECKS: usize = 4;

/// Every answer one round produced.
struct Answers {
    knn: Vec<Vec<Neighbor>>,
    range: Vec<Vec<Neighbor>>,
    join: Vec<JoinPair>,
    lookups: Vec<Vec<Neighbor>>,
}

/// One round's timings.
struct Round {
    setup_s: f64,
    knn_us: Vec<f64>,
    range_us: Vec<f64>,
    query_s: f64,
    join_s: f64,
    lookup_us: Vec<f64>,
    stream_s: f64,
}

/// Runs about `seconds` of timed rounds (a count fixed by `seconds` and
/// the workload's nominal round length) and returns the end-to-end
/// metrics and the correctness tally.
pub fn run(w: &Workload, seconds: f64) -> (Vec<Metric>, Tally) {
    let mut tally = Tally::default();
    round(w, true);
    let mut setup_s: Vec<f64> = Vec::new();

    let count = MIN_ROUNDS.max((seconds / w.nominal_round_s) as usize);
    let timed_start = Instant::now();
    let mut rounds: Vec<Round> = Vec::with_capacity(count);
    let mut first: Option<Answers> = None;
    for _ in 0..count {
        let (times, answers) = round(w, false);
        match &first {
            None => first = Some(answers),
            Some(first) => compare(first, &answers, &mut tally),
        }
        eprintln!(
            "perfbench: round {}: setup {:.3} s, queries {:.3} s, join {:.3} s, stream {:.3} s",
            rounds.len() + 1,
            times.setup_s,
            times.query_s,
            times.join_s,
            times.stream_s
        );
        setup_s.push(times.setup_s);
        setup_s.extend((0..EXTRA_SETUPS).map(|_| with_setup(w, |elapsed, _, _, _| elapsed)));
        rounds.push(times);
    }
    let peak_rss_mb = peak_rss_mb();
    eprintln!(
        "perfbench: {} timed rounds in {:.1} s",
        rounds.len(),
        timed_start.elapsed().as_secs_f64()
    );
    gate(
        w,
        first.as_ref().expect("at least one timed round"),
        &mut tally,
    );

    let best_per_item = |pick: fn(&Round) -> &Vec<f64>| -> Vec<f64> {
        (0..pick(&rounds[0]).len())
            .map(|i| {
                rounds
                    .iter()
                    .map(|r| pick(r)[i])
                    .fold(f64::INFINITY, f64::min)
            })
            .collect()
    };
    let best_round = |f: &dyn Fn(&Round) -> f64| rounds.iter().map(f).fold(f64::INFINITY, f64::min);
    let knn = best_per_item(|r| &r.knn_us);
    let range = best_per_item(|r| &r.range_us);
    let lookup = best_per_item(|r| &r.lookup_us);
    let queries = (2 * w.queries.len()) as f64;
    let arrivals = w.arrivals.len() as f64;
    let metrics = vec![
        Metric::new("setup_s", median(&setup_s), "s"),
        Metric::new("knn_p50_us", percentile(&knn, 0.50), "us"),
        Metric::new("knn_p99_us", percentile(&knn, 0.99), "us"),
        Metric::new("range_p50_us", percentile(&range, 0.50), "us"),
        Metric::new("range_p99_us", percentile(&range, 0.99), "us"),
        Metric::new(
            "query_qps",
            queries / best_round(&|r| r.query_s),
            "queries/s",
        ),
        Metric::new("join_s", best_round(&|r| r.join_s), "s"),
        Metric::new("lookup_p50_us", percentile(&lookup, 0.50), "us"),
        Metric::new("lookup_p99_us", percentile(&lookup, 0.99), "us"),
        Metric::new(
            "ingest_rps",
            arrivals / best_round(&|r| r.stream_s),
            "records/s",
        ),
        Metric::new("peak_rss_mb", peak_rss_mb, "MB"),
    ];
    (metrics, tally)
}

/// The set-up every round starts with, from text to a query-ready static
/// engine and a preloaded dynamic index; `then` gets its wall time in
/// seconds and the built state.
fn with_setup<R>(
    w: &Workload,
    then: impl FnOnce(f64, &Forest, &SearchEngine<PostingsFilter>, DynamicIndex) -> R,
) -> R {
    let started = Instant::now();
    let forest = w.format.parse_forest(&w.base);
    let filter = PostingsFilter::build(&forest, Q);
    let engine = SearchEngine::with_cost_threads(&forest, filter, UnitCost, 1);
    let stream = DynamicIndex::from_forest(forest.clone(), Q);
    then(started.elapsed().as_secs_f64(), &forest, &engine, stream)
}

/// One round: set-up, the interleaved static query pass, the self-join
/// and the stream. The warm-up round runs a tenth of the queries and
/// arrivals and no join.
fn round(w: &Workload, warm: bool) -> (Round, Answers) {
    with_setup(w, |setup_s, forest, engine, stream| {
        measure(w, warm, setup_s, forest, engine, stream)
    })
}

fn measure(
    w: &Workload,
    warm: bool,
    setup_s: f64,
    forest: &Forest,
    engine: &SearchEngine<PostingsFilter>,
    mut stream: DynamicIndex,
) -> (Round, Answers) {
    let share = |n: usize| if warm { n / WARM_DIVISOR } else { n };
    let n = share(w.queries.len());
    let (mut knn_us, mut range_us) = (vec![0.0; n], vec![0.0; n]);
    let (mut knn, mut range) = (Vec::with_capacity(n), Vec::with_capacity(n));
    let started = Instant::now();
    for (i, &id) in w.queries[..n].iter().enumerate() {
        let query = forest.tree(id);
        // Alternate which kind goes first, so a slow host episode lands
        // on both kinds alike.
        let knn_first = i % 2 == 0;
        for knn_turn in [knn_first, !knn_first] {
            let call = Instant::now();
            if knn_turn {
                let (hits, _) = engine.knn(black_box(query), w.knn_k);
                knn_us[i] = micros(call);
                knn.push(hits);
            } else {
                let (hits, _) = engine.range(black_box(query), w.range_tau);
                range_us[i] = micros(call);
                range.push(hits);
            }
        }
    }
    let query_s = started.elapsed().as_secs_f64();

    let started = Instant::now();
    let join = if warm {
        Vec::new()
    } else {
        similarity_self_join(forest, engine.filter(), w.join_tau).0
    };
    let join_s = started.elapsed().as_secs_f64();

    let arrivals = &w.arrivals[..share(w.arrivals.len())];
    let mut lookup_us = vec![0.0; arrivals.len()];
    let mut lookups = Vec::with_capacity(arrivals.len());
    let started = Instant::now();
    for (j, doc) in arrivals.iter().enumerate() {
        let tree = w
            .format
            .parse(stream.interner_mut(), doc)
            .expect("generated arrival parses");
        let call = Instant::now();
        let (hits, _) = stream.knn(black_box(&tree), 1);
        lookup_us[j] = micros(call);
        lookups.push(hits);
        stream.push(tree);
    }
    let stream_s = started.elapsed().as_secs_f64();

    let times = Round {
        setup_s,
        knn_us,
        range_us,
        query_s,
        join_s,
        lookup_us,
        stream_s,
    };
    let answers = Answers {
        knn,
        range,
        join,
        lookups,
    };
    (times, answers)
}

/// A timed round must repeat the first timed round's answers exactly.
fn compare(first: &Answers, again: &Answers, tally: &mut Tally) {
    for (a, b) in first.knn.iter().zip(&again.knn) {
        tally.check(a == b, "repeated knn");
    }
    for (a, b) in first.range.iter().zip(&again.range) {
        tally.check(a == b, "repeated range");
    }
    tally.check(first.join == again.join, "repeated join");
    for (a, b) in first.lookups.iter().zip(&again.lookups) {
        tally.check(a == b, "repeated lookup");
    }
}

/// Untimed correctness gate on the first timed round's answers: every
/// static query against a `BiBranchFilter` engine, a seeded subset against
/// the sequential scan, the join against per-tree range answers, and
/// seeded stream lookups against a static engine over the same prefix.
fn gate(w: &Workload, first: &Answers, tally: &mut Tally) {
    let forest = w.format.parse_forest(&w.base);
    let filter = BiBranchFilter::build(&forest, Q, BiBranchMode::Positional);
    let oracle = SearchEngine::with_cost_threads(&forest, filter, UnitCost, 1);
    for (i, &id) in w.queries.iter().enumerate() {
        let query = forest.tree(id);
        tally.check(
            oracle.knn(query, w.knn_k).0 == first.knn[i],
            "knn vs BiBranch",
        );
        tally.check(
            oracle.range(query, w.range_tau).0 == first.range[i],
            "range vs BiBranch",
        );
    }

    let scan = SearchEngine::with_cost_threads(&forest, NoFilter::build(&forest), UnitCost, 1);
    for i in seeded_indexes(w.seed ^ 2, w.queries.len(), SCAN_CHECKS) {
        let query = forest.tree(w.queries[i]);
        tally.check(scan.knn(query, w.knn_k).0 == first.knn[i], "knn vs scan");
        tally.check(
            scan.range(query, w.range_tau).0 == first.range[i],
            "range vs scan",
        );
    }

    let mut expected: Vec<JoinPair> = Vec::new();
    for (left, tree) in forest.iter() {
        let (hits, _) = oracle.range(tree, w.join_tau);
        expected.extend(hits.iter().filter(|n| n.tree > left).map(|n| JoinPair {
            left,
            right: n.tree,
            distance: n.distance,
        }));
    }
    expected.sort_unstable_by_key(|p| (p.left, p.right));
    tally.check(expected == first.join, "join vs per-tree range");

    for j in seeded_indexes(w.seed ^ 1, w.arrivals.len(), STREAM_CHECKPOINTS) {
        let mut docs = w.base.clone();
        docs.extend_from_slice(&w.arrivals[..j]);
        let mut prefix = w.format.parse_forest(&docs);
        let arrival = w
            .format
            .parse(prefix.interner_mut(), &w.arrivals[j])
            .expect("generated arrival parses");
        let filter = BiBranchFilter::build(&prefix, Q, BiBranchMode::Positional);
        let oracle = SearchEngine::with_cost_threads(&prefix, filter, UnitCost, 1);
        tally.check(
            oracle.knn(&arrival, 1).0 == first.lookups[j],
            "stream lookup vs static prefix",
        );
    }
}

/// `count` distinct indexes below `len`, drawn from `seed`.
fn seeded_indexes(seed: u64, len: usize, count: usize) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut picked: Vec<usize> = Vec::new();
    while picked.len() < count.min(len) {
        let i = rng.random_range(0..len);
        if !picked.contains(&i) {
            picked.push(i);
        }
    }
    picked
}

fn micros(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e6
}

/// Peak resident set size of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
