//! A global, lock-free metrics registry: atomic [`Counter`]s, [`Gauge`]s
//! and fixed-bucket log₂ [`Histogram`]s, registered by name and
//! snapshotable to a JSON-round-trippable [`MetricsSnapshot`].
//!
//! Handles are `&'static` — the registry leaks one allocation per distinct
//! metric name (a small, bounded set) so the hot path is a plain atomic
//! add with no locking. Name lookup takes a mutex; resolve handles once
//! (the [`crate::counter!`]/[`crate::gauge!`]/[`crate::histogram!`] macros
//! cache per call-site) or once per query, never per candidate.
//!
//! # Memory-model contracts (checked by `xtask analyze` happens-before)
//!
//! atomic-role: value = counter — Counter/Gauge tallies: Relaxed RMWs are
//! atomic and monotone per cell; readers want a recent value, not a
//! synchronized one
//!
//! atomic-role: buckets = counter — histogram bucket tallies, same
//! contract as `value`
//!
//! atomic-role: count = counter — histogram observation count
//!
//! atomic-role: sum = counter — histogram running sum
//!
//! atomic-role: max = counter — histogram running max via `fetch_max`
//!
//! atomic-role: exemplars = cell — best-effort trace-id breadcrumb per
//! bucket; a racing overwrite loses nothing but a hint

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

use crate::json::{parse, Json, JsonError};

/// Number of log₂ histogram buckets: bucket 0 counts zeros, bucket `i ≥ 1`
/// counts values in `[2^(i−1), 2^i)`; the last bucket absorbs overflow.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A monotonically increasing atomic counter.
#[derive(Debug)]
pub struct Counter {
    name: String,
    value: AtomicU64,
}

impl Counter {
    fn new(name: &str) -> Self {
        Counter {
            name: name.to_owned(),
            value: AtomicU64::new(0),
        }
    }

    /// The registered name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// An atomic gauge: a value that can go up and down.
#[derive(Debug)]
pub struct Gauge {
    name: String,
    value: AtomicI64,
}

impl Gauge {
    fn new(name: &str) -> Self {
        Gauge {
            name: name.to_owned(),
            value: AtomicI64::new(0),
        }
    }

    /// The registered name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Sets the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative via [`Gauge::sub`]).
    #[inline]
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`.
    #[inline]
    pub fn sub(&self, n: i64) {
        self.value.fetch_sub(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A fixed-bucket log₂ histogram of `u64` samples.
///
/// Recording is three relaxed atomic adds (bucket, count, sum) plus a
/// compare-exchange loop for the max — no allocation, no locking, safe to
/// hammer from many threads.
#[derive(Debug)]
pub struct Histogram {
    name: String,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    /// Exemplars: per bucket, the id of the last trace (see
    /// [`crate::trace`]) whose sample landed there, 0 when none — the
    /// link from a latency tail in `/metrics` to a recorded span tree.
    exemplars: [AtomicU64; HISTOGRAM_BUCKETS],
}

/// Bucket index of a sample: 0 for 0, otherwise `64 − leading_zeros(v)`
/// clamped into range (values in `[2^(i−1), 2^i)` land in bucket `i`).
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((u64::BITS - v.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// Inclusive upper edge of bucket `i` (`0` for bucket 0, else `2^i − 1`).
pub fn bucket_upper_edge(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 63 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    fn new(name: &str) -> Self {
        Histogram {
            name: name.to_owned(),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            exemplars: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// The registered name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Records one sample. When a trace capture is live on this thread,
    /// the bucket additionally remembers the trace id as its exemplar
    /// (one thread-local read plus one relaxed store — free otherwise).
    #[inline]
    pub fn record(&self, v: u64) {
        let bucket = bucket_index(v);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        let trace_id = crate::trace::current_trace_id();
        if trace_id != 0 {
            self.exemplars[bucket].store(trace_id, Ordering::Relaxed);
        }
    }

    /// Records a duration in microseconds (the convention for `*.us`
    /// histograms; sub-microsecond spans land in bucket 0).
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_micros()).unwrap_or(u64::MAX));
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Mean of recorded samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum() as f64 / count as f64
        }
    }

    fn reset(&self) {
        for bucket in &self.buckets {
            bucket.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
        for exemplar in &self.exemplars {
            exemplar.store(0, Ordering::Relaxed);
        }
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            name: self.name.clone(),
            count: self.count(),
            sum: self.sum(),
            max: self.max(),
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(i, b)| {
                    let v = b.load(Ordering::Relaxed);
                    (v > 0).then_some((i as u8, v))
                })
                .collect(),
            exemplars: self
                .exemplars
                .iter()
                .enumerate()
                .filter_map(|(i, e)| {
                    let id = e.load(Ordering::Relaxed);
                    (id > 0).then_some((i as u8, id))
                })
                .collect(),
        }
    }
}

/// The global registry. Lookup is mutex-guarded (cold path); the returned
/// `&'static` handles are pure atomics (hot path).
#[derive(Default)]
struct Registry {
    counters: Mutex<BTreeMap<String, &'static Counter>>,
    gauges: Mutex<BTreeMap<String, &'static Gauge>>,
    histograms: Mutex<BTreeMap<String, &'static Histogram>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

/// The counter registered under `name` (registering it on first use).
pub fn counter(name: &str) -> &'static Counter {
    let mut map = registry()
        .counters
        .lock()
        .expect("metrics registry poisoned");
    if let Some(&existing) = map.get(name) {
        return existing;
    }
    let leaked: &'static Counter = Box::leak(Box::new(Counter::new(name)));
    map.insert(name.to_owned(), leaked);
    leaked
}

/// The gauge registered under `name` (registering it on first use).
pub fn gauge(name: &str) -> &'static Gauge {
    let mut map = registry().gauges.lock().expect("metrics registry poisoned");
    if let Some(&existing) = map.get(name) {
        return existing;
    }
    let leaked: &'static Gauge = Box::leak(Box::new(Gauge::new(name)));
    map.insert(name.to_owned(), leaked);
    leaked
}

/// The histogram registered under `name` (registering it on first use).
pub fn histogram(name: &str) -> &'static Histogram {
    let mut map = registry()
        .histograms
        .lock()
        .expect("metrics registry poisoned");
    if let Some(&existing) = map.get(name) {
        return existing;
    }
    let leaked: &'static Histogram = Box::leak(Box::new(Histogram::new(name)));
    map.insert(name.to_owned(), leaked);
    leaked
}

/// Zeroes every registered metric (names stay registered). For isolating
/// benchmark runs and tests; concurrent recorders may interleave.
pub fn reset() {
    let reg = registry();
    for c in reg.counters.lock().expect("poisoned").values() {
        c.reset();
    }
    for g in reg.gauges.lock().expect("poisoned").values() {
        g.reset();
    }
    for h in reg.histograms.lock().expect("poisoned").values() {
        h.reset();
    }
}

/// Captures the current value of every registered metric, sorted by name.
pub fn snapshot() -> MetricsSnapshot {
    let reg = registry();
    MetricsSnapshot {
        counters: reg
            .counters
            .lock()
            .expect("poisoned")
            .values()
            .map(|c| CounterSnapshot {
                name: c.name.clone(),
                value: c.get(),
            })
            .collect(),
        gauges: reg
            .gauges
            .lock()
            .expect("poisoned")
            .values()
            .map(|g| GaugeSnapshot {
                name: g.name.clone(),
                value: g.get(),
            })
            .collect(),
        histograms: reg
            .histograms
            .lock()
            .expect("poisoned")
            .values()
            .map(|h| h.snapshot())
            .collect(),
    }
}

/// A counter's captured value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Metric name.
    pub name: String,
    /// Captured value.
    pub value: u64,
}

/// A gauge's captured value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GaugeSnapshot {
    /// Metric name.
    pub name: String,
    /// Captured value.
    pub value: i64,
}

/// A histogram's captured state; only non-empty buckets are kept.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Largest sample.
    pub max: u64,
    /// `(bucket index, sample count)` for each non-empty bucket.
    pub buckets: Vec<(u8, u64)>,
    /// `(bucket index, trace id)` exemplars: the last traced query whose
    /// sample landed in each bucket (empty when no trace was live).
    pub exemplars: Vec<(u8, u64)>,
}

impl HistogramSnapshot {
    /// Mean sample (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimated `q`-quantile (`q` ∈ [0, 1]) from the log₂ buckets.
    ///
    /// Walks the cumulative bucket counts to the bucket containing the
    /// rank-`⌈q·count⌉` sample and returns that bucket's inclusive upper
    /// edge, clamped to the observed max. Because bucket `i ≥ 1` spans
    /// `[2^(i−1), 2^i)`, the estimate overshoots the true quantile by at
    /// most a factor of 2 (see DESIGN §Observability). Returns 0 when
    /// empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for &(i, n) in &self.buckets {
            cumulative += n;
            if cumulative >= rank {
                return bucket_upper_edge(usize::from(i)).min(self.max);
            }
        }
        self.max
    }

    /// Estimated median ([`HistogramSnapshot::quantile`] at 0.5).
    pub fn p50(&self) -> u64 {
        self.quantile(0.5)
    }

    /// Estimated 90th percentile.
    pub fn p90(&self) -> u64 {
        self.quantile(0.9)
    }

    /// Estimated 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// The exemplar trace id recorded for bucket `i`, if any.
    pub fn exemplar(&self, i: u8) -> Option<u64> {
        self.exemplars
            .iter()
            .find(|&&(bucket, _)| bucket == i)
            .map(|&(_, id)| id)
    }
}

/// A point-in-time capture of the whole registry, JSON round-trippable.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// All counters, sorted by name.
    pub counters: Vec<CounterSnapshot>,
    /// All gauges, sorted by name.
    pub gauges: Vec<GaugeSnapshot>,
    /// All histograms, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// The captured value of counter `name`, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// The captured value of gauge `name`, if present.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// The captured state of histogram `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Counter delta against an earlier snapshot (0 if absent in either).
    pub fn counter_delta(&self, earlier: &MetricsSnapshot, name: &str) -> u64 {
        self.counter(name)
            .unwrap_or(0)
            .saturating_sub(earlier.counter(name).unwrap_or(0))
    }

    /// Converts to a JSON value.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            (
                "counters",
                Json::Arr(
                    self.counters
                        .iter()
                        .map(|c| {
                            Json::obj(vec![
                                ("name", Json::Str(c.name.clone())),
                                ("value", Json::U64(c.value)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "gauges",
                Json::Arr(
                    self.gauges
                        .iter()
                        .map(|g| {
                            Json::obj(vec![
                                ("name", Json::Str(g.name.clone())),
                                (
                                    "value",
                                    if g.value >= 0 {
                                        Json::U64(g.value as u64)
                                    } else {
                                        Json::I64(g.value)
                                    },
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "histograms",
                Json::Arr(
                    self.histograms
                        .iter()
                        .map(|h| {
                            let mut fields = vec![
                                ("name", Json::Str(h.name.clone())),
                                ("count", Json::U64(h.count)),
                                ("sum", Json::U64(h.sum)),
                                ("max", Json::U64(h.max)),
                                (
                                    "buckets",
                                    Json::Arr(
                                        h.buckets
                                            .iter()
                                            .map(|&(i, n)| {
                                                Json::Arr(vec![
                                                    Json::U64(u64::from(i)),
                                                    Json::U64(n),
                                                ])
                                            })
                                            .collect(),
                                    ),
                                ),
                            ];
                            // Omitted when empty so traced and untraced
                            // runs of the same workload serialize alike
                            // (committed BENCH_*.json baselines predate
                            // exemplars).
                            if !h.exemplars.is_empty() {
                                fields.push((
                                    "exemplars",
                                    Json::Arr(
                                        h.exemplars
                                            .iter()
                                            .map(|&(i, id)| {
                                                Json::Arr(vec![
                                                    Json::U64(u64::from(i)),
                                                    Json::U64(id),
                                                ])
                                            })
                                            .collect(),
                                    ),
                                ));
                            }
                            Json::obj(fields)
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Serializes to a pretty JSON string.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string_pretty()
    }

    /// Parses a snapshot back from [`MetricsSnapshot::to_json`] output.
    pub fn from_json(value: &Json) -> Result<MetricsSnapshot, JsonError> {
        let bad = |message: &str| JsonError {
            offset: 0,
            message: message.to_owned(),
        };
        let str_field = |obj: &Json, key: &str| -> Result<String, JsonError> {
            obj.get(key)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| bad(&format!("missing string field {key:?}")))
        };
        let u64_field = |obj: &Json, key: &str| -> Result<u64, JsonError> {
            obj.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| bad(&format!("missing u64 field {key:?}")))
        };
        let arr_field = |obj: &Json, key: &str| -> Result<Vec<Json>, JsonError> {
            obj.get(key)
                .and_then(Json::as_array)
                .map(<[Json]>::to_vec)
                .ok_or_else(|| bad(&format!("missing array field {key:?}")))
        };

        let mut snapshot = MetricsSnapshot::default();
        for c in arr_field(value, "counters")? {
            snapshot.counters.push(CounterSnapshot {
                name: str_field(&c, "name")?,
                value: u64_field(&c, "value")?,
            });
        }
        for g in arr_field(value, "gauges")? {
            let raw = g.get("value").ok_or_else(|| bad("missing gauge value"))?;
            let value = match *raw {
                Json::U64(v) => i64::try_from(v).map_err(|_| bad("gauge out of range"))?,
                Json::I64(v) => v,
                _ => return Err(bad("gauge value must be an integer")),
            };
            snapshot.gauges.push(GaugeSnapshot {
                name: str_field(&g, "name")?,
                value,
            });
        }
        for h in arr_field(value, "histograms")? {
            let pairs = |key: &'static str, required: bool| -> Result<Vec<(u8, u64)>, JsonError> {
                if !required && h.get(key).is_none() {
                    return Ok(Vec::new());
                }
                let mut out = Vec::new();
                for pair in arr_field(&h, key)? {
                    let [index, second] = pair
                        .as_array()
                        .ok_or_else(|| bad(&format!("{key} entry must be a pair")))?
                    else {
                        return Err(bad(&format!("{key} entry must be a pair")));
                    };
                    let index = index.as_u64().ok_or_else(|| bad("bucket index"))?;
                    let second = second.as_u64().ok_or_else(|| bad("bucket value"))?;
                    out.push((
                        u8::try_from(index).map_err(|_| bad("bucket index out of range"))?,
                        second,
                    ));
                }
                Ok(out)
            };
            snapshot.histograms.push(HistogramSnapshot {
                name: str_field(&h, "name")?,
                count: u64_field(&h, "count")?,
                sum: u64_field(&h, "sum")?,
                max: u64_field(&h, "max")?,
                buckets: pairs("buckets", true)?,
                // Optional: absent in pre-trace-layer baselines.
                exemplars: pairs("exemplars", false)?,
            });
        }
        Ok(snapshot)
    }

    /// Parses a snapshot from a JSON string.
    pub fn from_json_str(text: &str) -> Result<MetricsSnapshot, JsonError> {
        Self::from_json(&parse(text)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_register_once() {
        let a = counter("test.metrics.counter_once");
        let b = counter("test.metrics.counter_once");
        assert!(std::ptr::eq(a, b));
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert_eq!(a.name(), "test.metrics.counter_once");

        let g = gauge("test.metrics.gauge_once");
        assert!(std::ptr::eq(g, gauge("test.metrics.gauge_once")));
        g.set(5);
        g.add(3);
        g.sub(10);
        assert_eq!(g.get(), -2);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_upper_edge(0), 0);
        assert_eq!(bucket_upper_edge(1), 1);
        assert_eq!(bucket_upper_edge(10), 1023);
        assert_eq!(bucket_upper_edge(63), u64::MAX);
        // Every value lands in a bucket whose upper edge covers it.
        for v in [0u64, 1, 7, 100, 4096, 1 << 40] {
            assert!(bucket_upper_edge(bucket_index(v)) >= v);
        }
    }

    #[test]
    fn histogram_records_and_snapshots() {
        let h = histogram("test.metrics.hist");
        h.record(0);
        h.record(1);
        h.record(100);
        h.record_duration(Duration::from_micros(3));
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 104);
        assert_eq!(h.max(), 100);
        assert!((h.mean() - 26.0).abs() < 1e-12);
        let snap = h.snapshot();
        assert_eq!(snap.count, 4);
        let total: u64 = snap.buckets.iter().map(|&(_, n)| n).sum();
        assert_eq!(total, 4);
        assert!((snap.mean() - 26.0).abs() < 1e-12);
    }

    #[test]
    fn quantiles_walk_cumulative_buckets() {
        let h = histogram("test.metrics.quantiles");
        // 90 small samples (bucket 3: values in [4, 8)) and 10 large
        // (bucket 11: values in [1024, 2048)).
        for _ in 0..90 {
            h.record(5);
        }
        for _ in 0..10 {
            h.record(1500);
        }
        let snap = h.snapshot();
        // p50 and p90 land in the small bucket (upper edge 7); p99 lands
        // in the large bucket, clamped to the observed max.
        assert_eq!(snap.p50(), 7);
        assert_eq!(snap.p90(), 7);
        assert_eq!(snap.p99(), 1500);
        assert_eq!(snap.quantile(1.0), 1500);
        // Degenerate cases.
        let empty = HistogramSnapshot {
            name: "test.metrics.empty".to_owned(),
            count: 0,
            sum: 0,
            max: 0,
            buckets: Vec::new(),
            exemplars: Vec::new(),
        };
        assert_eq!(empty.p50(), 0);
        let single = histogram("test.metrics.quantiles_single");
        single.record(100);
        assert_eq!(single.snapshot().p50(), 100); // clamped to max
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        counter("test.metrics.rt.counter").add(42);
        gauge("test.metrics.rt.gauge").set(-7);
        histogram("test.metrics.rt.hist").record(1000);
        let snap = snapshot();
        assert!(snap.counter("test.metrics.rt.counter").unwrap() >= 42);
        assert_eq!(snap.gauge("test.metrics.rt.gauge"), Some(-7));
        assert!(snap.histogram("test.metrics.rt.hist").is_some());
        assert_eq!(snap.histogram("test.metrics.rt.missing"), None);

        let text = snap.to_json_string();
        let parsed = MetricsSnapshot::from_json_str(&text).unwrap();
        assert_eq!(parsed, snap);
    }

    #[test]
    fn exemplars_stamp_the_current_trace_and_round_trip() {
        let h = histogram("test.metrics.exemplars");
        h.record(100); // no trace live → no exemplar
        assert!(h.snapshot().exemplars.is_empty());
        let id = {
            let trace = crate::trace::start_trace();
            h.record(100);
            trace.id()
        };
        let snap = h.snapshot();
        assert_eq!(snap.exemplar(bucket_index(100) as u8), Some(id));
        // The exemplars key survives the snapshot JSON round-trip…
        let full = snapshot();
        let parsed = MetricsSnapshot::from_json_str(&full.to_json_string()).unwrap();
        assert_eq!(
            parsed
                .histogram("test.metrics.exemplars")
                .unwrap()
                .exemplars,
            snap.exemplars,
        );
        // …and untraced histograms serialize without it (baseline compat).
        let text = h0_json_text("test.metrics.untraced");
        assert!(!text.contains("\"exemplars\""), "{text}");
    }

    fn h0_json_text(name: &str) -> String {
        histogram(name).record(1);
        let snap = snapshot();
        let h = snap.histogram(name).unwrap();
        let only = MetricsSnapshot {
            counters: Vec::new(),
            gauges: Vec::new(),
            histograms: vec![h.clone()],
        };
        only.to_json_string()
    }

    #[test]
    fn counter_delta_between_snapshots() {
        let c = counter("test.metrics.delta");
        let before = snapshot();
        c.add(9);
        let after = snapshot();
        assert_eq!(after.counter_delta(&before, "test.metrics.delta"), 9);
        assert_eq!(after.counter_delta(&before, "test.metrics.absent"), 0);
    }

    #[test]
    fn from_json_rejects_malformed_snapshots() {
        for text in [
            "{}",
            r#"{"counters":[],"gauges":[],"histograms":[{"name":"x"}]}"#,
            r#"{"counters":[{"value":1}],"gauges":[],"histograms":[]}"#,
            r#"{"counters":[],"gauges":[{"name":"g","value":"no"}],"histograms":[]}"#,
        ] {
            assert!(MetricsSnapshot::from_json_str(text).is_err(), "{text}");
        }
    }
}
