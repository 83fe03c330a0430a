//! The query flight recorder: a fixed-capacity, always-on ring buffer of
//! structured per-query [`QueryRecord`]s.
//!
//! Aggregate counters answer "how is the system doing"; the recorder
//! answers "why was *this* query slow". Every engine / batch / dynamic
//! query path deposits one [`QueryRecord`] — kind, parameter, per-stage
//! funnel counts, propt `PosBDist` matchings, refine count and
//! Zhang–Shasha node total, wall time, result summary — into the global
//! ring. Memory is O(capacity) forever: the ring is sharded across
//! mutexes, every shard's slot vector is preallocated at construction,
//! and [`QueryRecord`] is `Copy`, so recording a query after warm-up is a
//! shard-mutex lock plus a slot overwrite — no allocation on the hot
//! path. When the ring is full the oldest records are overwritten
//! (`recorder.overwritten` counts the evictions overall,
//! `recorder.dropped.<kind>` breaks them down by the evicted record's
//! kind — both in `/metrics` and in the `/recorder.json` `dropped`
//! object).
//!
//! Two thread-locals thread per-query context through code that never
//! sees the record being assembled: a propt-iteration accumulator (the
//! binary search in the propt bound runs deep inside the filter) and a
//! batch-context depth (so records emitted by `knn_batch` worker threads
//! are tagged as batch work).
//!
//! # Memory-model contracts (checked by `xtask analyze` happens-before)
//!
//! atomic-role: sequence = counter — id source: `fetch_add` is an atomic
//! RMW, so ids are unique and monotone under Relaxed; the record itself
//! travels through the shard mutex, not the counter
//!
//! atomic-role: dropped = counter — per-kind eviction tallies, read
//! best-effort by `/recorder.json`

use std::cell::Cell;
use std::sync::OnceLock;

use crate::sync::{AtomicU64, Mutex, MutexGuard, Ordering};

use crate::json::Json;

/// Capacity of the global recorder ring ([`global`]).
pub const DEFAULT_CAPACITY: usize = 1024;

/// Number of mutex shards; records are spread by id so concurrent batch
/// workers rarely contend on the same lock.
const SHARDS: usize = 8;

/// Maximum number of cascade stages a record can carry (the deepest
/// filter cascade today is postings → size → histo → bdist → propt, plus
/// one spare).
pub const MAX_STAGES: usize = 6;

/// Which query path produced a record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// `SearchEngine::knn` (or a `knn_batch` worker).
    Knn,
    /// `SearchEngine::range`.
    Range,
    /// `DynamicIndex::knn`.
    DynamicKnn,
    /// `DynamicIndex::range`.
    DynamicRange,
}

impl QueryKind {
    /// Every kind, in [`QueryKind::index`] order.
    pub const ALL: [QueryKind; 4] = [
        QueryKind::Knn,
        QueryKind::Range,
        QueryKind::DynamicKnn,
        QueryKind::DynamicRange,
    ];

    /// Stable lowercase label used in JSON output.
    pub fn label(self) -> &'static str {
        match self {
            QueryKind::Knn => "knn",
            QueryKind::Range => "range",
            QueryKind::DynamicKnn => "dynamic_knn",
            QueryKind::DynamicRange => "dynamic_range",
        }
    }

    /// Dense index into per-kind count arrays (matches [`QueryKind::ALL`]).
    pub fn index(self) -> usize {
        match self {
            QueryKind::Knn => 0,
            QueryKind::Range => 1,
            QueryKind::DynamicKnn => 2,
            QueryKind::DynamicRange => 3,
        }
    }
}

/// Funnel counts for one cascade stage of one query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageRecord {
    /// Stage name (a `naming::CASCADE_STAGES` member).
    pub name: &'static str,
    /// Candidates whose bound this stage computed.
    pub evaluated: u64,
    /// Candidates this stage eliminated.
    pub pruned: u64,
}

/// One query's flight record. `Copy` with a fixed-size stage array so ring
/// slots can be overwritten without allocating.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryRecord {
    /// Monotone sequence id assigned by the recorder (0 until recorded).
    pub id: u64,
    /// Which query path ran.
    pub kind: QueryKind,
    /// True when the query ran inside a batch driver worker.
    pub batch: bool,
    /// `k` for knn queries, `τ` for range queries.
    pub param: u64,
    /// Trees in the searched dataset.
    pub dataset: u64,
    /// Per-stage funnel counts; only the first `stage_count` are valid.
    pub stages: [StageRecord; MAX_STAGES],
    /// Number of valid entries in `stages`.
    pub stage_count: u8,
    /// `PosBDist` matchings the propt bounds of this query ran.
    pub propt_iters: u64,
    /// Candidates that reached exact Zhang–Shasha refinement.
    pub refined: u64,
    /// Of `refined`, how many the bounded DP cut off at the live budget
    /// (distance proven beyond τ / the k-th heap distance, not computed).
    pub refine_cutoffs: u64,
    /// DP cells the bounded refinement's band / subproblem pruning skipped
    /// across this query's refinements.
    pub bands_skipped: u64,
    /// Effective tree nodes touched by refinement (sum over refined pairs,
    /// scaled by the fraction of DP cells the bounded DP evaluated).
    pub zs_nodes: u64,
    /// Result-set size.
    pub results: u64,
    /// Best (smallest) result distance, if any result was returned.
    pub best: Option<u64>,
    /// Worst (largest) result distance, if any result was returned.
    pub worst: Option<u64>,
    /// Wall-clock time of the whole query in microseconds.
    pub wall_us: u64,
    /// Id of the trace captured for this query (see [`crate::trace`]);
    /// 0 when the query ran without a live capture. Whether the trace is
    /// still pullable from the trace ring depends on the sampler's
    /// retention decision and subsequent evictions.
    pub trace_id: u64,
}

impl QueryRecord {
    /// A blank record for `kind`; the caller fills in what it measured.
    pub fn new(kind: QueryKind) -> QueryRecord {
        QueryRecord {
            id: 0,
            kind,
            batch: false,
            param: 0,
            dataset: 0,
            stages: [StageRecord::default(); MAX_STAGES],
            stage_count: 0,
            propt_iters: 0,
            refined: 0,
            refine_cutoffs: 0,
            bands_skipped: 0,
            zs_nodes: 0,
            results: 0,
            best: None,
            worst: None,
            wall_us: 0,
            trace_id: 0,
        }
    }

    /// Appends a stage's funnel counts (ignored beyond [`MAX_STAGES`]).
    pub fn push_stage(&mut self, name: &'static str, evaluated: u64, pruned: u64) {
        let i = usize::from(self.stage_count);
        if let Some(slot) = self.stages.get_mut(i) {
            *slot = StageRecord {
                name,
                evaluated,
                pruned,
            };
            self.stage_count += 1;
        }
    }

    /// The valid prefix of the stage array.
    pub fn stages(&self) -> &[StageRecord] {
        let n = usize::from(self.stage_count).min(MAX_STAGES);
        self.stages.get(..n).unwrap_or(&[])
    }

    /// Serializes one record to a JSON object.
    pub fn to_json(&self) -> Json {
        let stages = self
            .stages()
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("name", Json::Str(s.name.to_owned())),
                    ("evaluated", Json::U64(s.evaluated)),
                    ("pruned", Json::U64(s.pruned)),
                ])
            })
            .collect();
        let mut fields = vec![
            ("id", Json::U64(self.id)),
            ("kind", Json::Str(self.kind.label().to_owned())),
            ("batch", Json::Bool(self.batch)),
            ("param", Json::U64(self.param)),
            ("dataset", Json::U64(self.dataset)),
            ("stages", Json::Arr(stages)),
            ("propt_iters", Json::U64(self.propt_iters)),
            ("refined", Json::U64(self.refined)),
            ("refine_cutoffs", Json::U64(self.refine_cutoffs)),
            ("bands_skipped", Json::U64(self.bands_skipped)),
            ("zs_nodes", Json::U64(self.zs_nodes)),
            ("results", Json::U64(self.results)),
        ];
        if let Some(best) = self.best {
            fields.push(("best", Json::U64(best)));
        }
        if let Some(worst) = self.worst {
            fields.push(("worst", Json::U64(worst)));
        }
        fields.push(("wall_us", Json::U64(self.wall_us)));
        if self.trace_id != 0 {
            fields.push(("trace_id", Json::U64(self.trace_id)));
        }
        Json::obj(fields)
    }
}

/// One mutex shard: a preallocated slot vector used as an overwrite ring.
#[derive(Debug)]
struct Shard {
    slots: Vec<Option<QueryRecord>>,
    /// Next slot to (over)write.
    next: usize,
}

/// A bounded, sharded flight recorder. See the module docs for the
/// memory/locking contract; [`global`] is the always-on instance every
/// query path records into.
#[derive(Debug)]
pub struct FlightRecorder {
    shards: Vec<Mutex<Shard>>,
    capacity: usize,
    sequence: AtomicU64,
    /// Records overwritten before anyone read them, by the *evicted*
    /// record's kind (index = [`QueryKind::index`]) — tells which query
    /// populations the bounded ring is losing.
    dropped: [AtomicU64; QueryKind::ALL.len()],
}

/// Mutex poisoning only means another thread panicked mid-record; the
/// slot data is plain `Copy` state, so recover the guard rather than
/// propagating the panic into an unrelated query.
fn recover<T>(lock: &Mutex<T>) -> MutexGuard<'_, T> {
    lock.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl FlightRecorder {
    /// A recorder holding at most `capacity` records (rounded up to a
    /// multiple of the shard count, minimum one slot per shard).
    pub fn with_capacity(capacity: usize) -> FlightRecorder {
        let per_shard = capacity.div_ceil(SHARDS).max(1);
        let shards = (0..SHARDS)
            .map(|_| {
                Mutex::new(Shard {
                    slots: vec![None; per_shard],
                    next: 0,
                })
            })
            .collect();
        FlightRecorder {
            shards,
            capacity: per_shard * SHARDS,
            sequence: AtomicU64::new(0),
            dropped: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Total record slots across all shards.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of records currently held.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| recover(s).slots.iter().filter(|r| r.is_some()).count())
            .sum()
    }

    /// Whether no records are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Deposits `record`, assigning and returning its sequence id. The
    /// oldest record in the target shard is overwritten when full.
    pub fn record(&self, mut record: QueryRecord) -> u64 {
        // Relaxed is enough: fetch_add is an atomic RMW, so ids are unique
        // and monotone; no other memory is published through the counter.
        let id = self.sequence.fetch_add(1, Ordering::Relaxed) + 1;
        record.id = id;
        let shard_index = (id as usize) % self.shards.len();
        let mut evicted = None;
        if let Some(shard) = self.shards.get(shard_index) {
            let mut guard = recover(shard);
            let next = guard.next;
            if let Some(slot) = guard.slots.get_mut(next) {
                evicted = slot.map(|old| old.kind);
                *slot = Some(record);
            }
            guard.next = (next + 1) % guard.slots.len().max(1);
        }
        crate::metrics::counter("recorder.recorded").inc();
        if let Some(kind) = evicted {
            if let Some(per_kind) = self.dropped.get(kind.index()) {
                per_kind.fetch_add(1, Ordering::Relaxed);
            }
            crate::metrics::counter("recorder.overwritten").inc();
            dropped_counter(kind).inc();
        }
        id
    }

    /// Records overwritten before being read, by evicted-record kind.
    pub fn dropped_by_kind(&self) -> Vec<(QueryKind, u64)> {
        QueryKind::ALL
            .iter()
            .enumerate()
            .filter_map(|(i, &kind)| {
                let n = self.dropped.get(i)?.load(Ordering::Relaxed);
                (n > 0).then_some((kind, n))
            })
            .collect()
    }

    /// Copies out every held record, sorted by id (oldest first). The
    /// ring keeps its contents — this is what `/recorder.json` serves.
    pub fn records(&self) -> Vec<QueryRecord> {
        let mut out: Vec<QueryRecord> = self
            .shards
            .iter()
            .flat_map(|s| {
                recover(s)
                    .slots
                    .iter()
                    .flatten()
                    .copied()
                    .collect::<Vec<_>>()
            })
            .collect();
        out.sort_by_key(|r| r.id);
        out
    }

    /// Removes and returns every held record, sorted by id.
    pub fn drain(&self) -> Vec<QueryRecord> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let mut guard = recover(shard);
            for slot in &mut guard.slots {
                if let Some(record) = slot.take() {
                    out.push(record);
                }
            }
            guard.next = 0;
        }
        out.sort_by_key(|r| r.id);
        out
    }

    /// The held records with ids strictly greater than `since`, sorted by
    /// id — the `/recorder.json?since=<seq>` cursor. Ids are the Relaxed
    /// deposit sequence (they start at 1 and never repeat), so a poller
    /// passing the largest id it has seen gets exactly the new tail.
    pub fn records_since(&self, since: u64) -> Vec<QueryRecord> {
        let mut out = self.records();
        out.retain(|r| r.id > since);
        out
    }

    /// Total records ever deposited (including overwritten ones).
    pub fn recorded_total(&self) -> u64 {
        self.sequence.load(Ordering::Relaxed)
    }

    /// Serializes the held records to the `/recorder.json` document.
    pub fn to_json(&self) -> Json {
        self.to_json_since(0)
    }

    /// [`FlightRecorder::to_json`] restricted to records with ids after
    /// `since` (0 = everything); `held` counts only the returned records
    /// and the echoed `since` lets pollers confirm their cursor.
    pub fn to_json_since(&self, since: u64) -> Json {
        let records = self.records_since(since);
        Json::obj(vec![
            ("schema", Json::Str("treesim-recorder/v1".to_owned())),
            ("capacity", Json::U64(self.capacity as u64)),
            ("recorded_total", Json::U64(self.recorded_total())),
            ("since", Json::U64(since)),
            ("held", Json::U64(records.len() as u64)),
            (
                "dropped",
                Json::obj(
                    self.dropped_by_kind()
                        .into_iter()
                        .map(|(kind, n)| (kind.label(), Json::U64(n)))
                        .collect(),
                ),
            ),
            (
                "records",
                Json::Arr(records.iter().map(QueryRecord::to_json).collect()),
            ),
        ])
    }
}

/// The global `recorder.dropped.<kind>` counter for `kind` (cached: the
/// registry lookup happens once per kind, not once per eviction).
fn dropped_counter(kind: QueryKind) -> &'static crate::metrics::Counter {
    match kind {
        QueryKind::Knn => crate::counter!("recorder.dropped.knn"),
        QueryKind::Range => crate::counter!("recorder.dropped.range"),
        QueryKind::DynamicKnn => crate::counter!("recorder.dropped.dynamic_knn"),
        QueryKind::DynamicRange => crate::counter!("recorder.dropped.dynamic_range"),
    }
}

/// The always-on global recorder ([`DEFAULT_CAPACITY`] slots).
pub fn global() -> &'static FlightRecorder {
    static GLOBAL: OnceLock<FlightRecorder> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        crate::metrics::gauge("recorder.capacity").set(DEFAULT_CAPACITY as i64);
        // Pre-register the per-kind drop counters so the Prometheus
        // export shows them (at 0) before the first eviction.
        for kind in QueryKind::ALL {
            dropped_counter(kind);
        }
        FlightRecorder::with_capacity(DEFAULT_CAPACITY)
    })
}

/// Deposits `record` into the global recorder, stamping the batch flag
/// from the thread's batch context and the live trace id (if the caller
/// didn't already). Returns the assigned id.
pub fn record_query(mut record: QueryRecord) -> u64 {
    record.batch = in_batch();
    if record.trace_id == 0 {
        record.trace_id = crate::trace::current_trace_id();
    }
    global().record(record)
}

thread_local! {
    /// Propt `PosBDist` matchings accumulated since the last `take`.
    static PROPT_ITERS: Cell<u64> = const { Cell::new(0) };
    /// Nesting depth of batch drivers on this thread.
    static BATCH_DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// Adds `n` propt `PosBDist` matchings to this thread's per-query
/// accumulator (called from deep inside the filter bound).
pub fn propt_iters_add(n: u64) {
    PROPT_ITERS.with(|c| c.set(c.get().saturating_add(n)));
}

/// Reads and resets this thread's propt-iteration accumulator. Query
/// paths call it once at query start (to discard stale state) and once at
/// the end (to stamp the record).
pub fn propt_iters_take() -> u64 {
    PROPT_ITERS.with(|c| c.replace(0))
}

/// Whether this thread is currently inside a batch driver.
pub fn in_batch() -> bool {
    BATCH_DEPTH.with(|c| c.get() > 0)
}

/// RAII marker a batch driver holds for the duration of its workers'
/// query loop; queries recorded while one is live are tagged `batch`.
#[derive(Debug)]
pub struct BatchContext(());

impl BatchContext {
    /// Enters batch context on this thread.
    pub fn enter() -> BatchContext {
        BATCH_DEPTH.with(|c| c.set(c.get().saturating_add(1)));
        BatchContext(())
    }
}

impl Drop for BatchContext {
    fn drop(&mut self) {
        BATCH_DEPTH.with(|c| c.set(c.get().saturating_sub(1)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(kind: QueryKind, param: u64) -> QueryRecord {
        let mut r = QueryRecord::new(kind);
        r.param = param;
        r.dataset = 100;
        r.push_stage("size", 100, 40);
        r.push_stage("propt", 60, 50);
        r.refined = 10;
        r.results = 3;
        r.best = Some(2);
        r.worst = Some(7);
        r.wall_us = 123;
        r
    }

    #[test]
    fn records_are_held_and_sorted() {
        let rec = FlightRecorder::with_capacity(64);
        for i in 0..10 {
            rec.record(sample(QueryKind::Knn, i));
        }
        assert_eq!(rec.len(), 10);
        let held = rec.records();
        assert_eq!(held.len(), 10);
        assert!(held.windows(2).all(|w| w[0].id < w[1].id));
        assert_eq!(rec.recorded_total(), 10);
        // records() does not consume…
        assert_eq!(rec.len(), 10);
        // …drain() does.
        assert_eq!(rec.drain().len(), 10);
        assert!(rec.is_empty());
    }

    #[test]
    fn capacity_bounds_hold_under_overflow() {
        let rec = FlightRecorder::with_capacity(16);
        assert_eq!(rec.capacity(), 16);
        for i in 0..100 {
            rec.record(sample(QueryKind::Range, i));
        }
        assert_eq!(rec.len(), 16);
        let held = rec.records();
        // The survivors are the newest 16 ids (ring semantics per shard).
        assert!(held.iter().all(|r| r.id > 100 - 16));
        assert_eq!(rec.recorded_total(), 100);
        // 84 evictions, all of them range records, and the per-kind
        // breakdown lands in the JSON document.
        assert_eq!(rec.dropped_by_kind(), vec![(QueryKind::Range, 84)]);
        let doc = rec.to_json();
        assert_eq!(
            doc.get("dropped")
                .and_then(|d| d.get("range"))
                .and_then(Json::as_u64),
            Some(84)
        );
        assert_eq!(doc.get("dropped").and_then(|d| d.get("knn")), None);
    }

    #[test]
    fn stage_array_is_bounded() {
        let mut r = QueryRecord::new(QueryKind::Knn);
        for _ in 0..10 {
            r.push_stage("size", 1, 1);
        }
        assert_eq!(r.stages().len(), MAX_STAGES);
    }

    #[test]
    fn json_shape_is_stable() {
        let rec = FlightRecorder::with_capacity(8);
        rec.record(sample(QueryKind::DynamicKnn, 5));
        let doc = rec.to_json();
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("treesim-recorder/v1")
        );
        assert_eq!(doc.get("held").and_then(Json::as_u64), Some(1));
        let records = doc.get("records").and_then(Json::as_array).unwrap();
        let r = &records[0];
        assert_eq!(r.get("kind").and_then(Json::as_str), Some("dynamic_knn"));
        assert_eq!(r.get("best").and_then(Json::as_u64), Some(2));
        let stages = r.get("stages").and_then(Json::as_array).unwrap();
        assert_eq!(stages.len(), 2);
        assert_eq!(stages[0].get("name").and_then(Json::as_str), Some("size"));
    }

    #[test]
    fn since_cursor_returns_only_the_new_tail() {
        let rec = FlightRecorder::with_capacity(64);
        for i in 0..10 {
            rec.record(sample(QueryKind::Knn, i));
        }
        // Ids are 1..=10; a poller that saw through id 7 gets 8, 9, 10.
        let tail = rec.records_since(7);
        assert_eq!(
            tail.iter().map(|r| r.id).collect::<Vec<_>>(),
            vec![8, 9, 10]
        );
        assert_eq!(rec.records_since(0).len(), 10, "0 means everything");
        assert!(rec.records_since(10).is_empty());
        let doc = rec.to_json_since(7);
        assert_eq!(doc.get("since").and_then(Json::as_u64), Some(7));
        assert_eq!(doc.get("held").and_then(Json::as_u64), Some(3));
        assert_eq!(
            doc.get("recorded_total").and_then(Json::as_u64),
            Some(10),
            "totals describe the ring, not the cursor slice"
        );
        let records = doc.get("records").and_then(Json::as_array).unwrap();
        assert_eq!(records.len(), 3);
        // The cursor does not consume: a second poll repeats the tail.
        assert_eq!(rec.records_since(7).len(), 3);
    }

    #[test]
    fn propt_accumulator_and_batch_context() {
        assert_eq!(propt_iters_take(), 0);
        propt_iters_add(3);
        propt_iters_add(4);
        assert_eq!(propt_iters_take(), 7);
        assert_eq!(propt_iters_take(), 0);

        assert!(!in_batch());
        {
            let _outer = BatchContext::enter();
            assert!(in_batch());
            {
                let _inner = BatchContext::enter();
                assert!(in_batch());
            }
            assert!(in_batch());
        }
        assert!(!in_batch());
    }

    #[test]
    fn global_recorder_tags_batch_records() {
        let before = global().recorded_total();
        let _ctx = BatchContext::enter();
        let id = record_query(sample(QueryKind::Knn, 2));
        assert!(id > before);
        let held = global().records();
        let mine = held.iter().find(|r| r.id == id).unwrap();
        assert!(mine.batch);
    }
}
