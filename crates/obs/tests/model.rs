//! Model-checked protocol tests for the obs concurrency core. Built only
//! under `RUSTFLAGS="--cfg treesim_model"` (the CI `model-check` step):
//! the `treesim_obs::sync` facade then resolves to the shims in
//! `treesim_obs::model`, so the *production* flight-recorder code runs
//! under the exhaustive interleaving scheduler. The trace-ring protocol
//! uses statics/thread-locals that cannot be swapped per run, so it is
//! checked as a faithful mirror instead — see DESIGN.md §14 for what
//! each result does and does not prove.
#![cfg(treesim_model)]

use treesim_obs::model::{explore, verify, Mutex, Options};
use treesim_obs::{FlightRecorder, QueryKind, QueryRecord};

fn opts() -> Options {
    Options::default()
}

// ---------------------------------------------------------------------
// Protocol (a): flight-recorder push/drain, the real production code.
// ---------------------------------------------------------------------

/// Two writers race a drainer on the real `FlightRecorder`. Under every
/// schedule: ids are unique and nonzero, and what the drainer takes plus
/// what remains accounts for every deposit (the ring never loses a record
/// without counting it as an eviction).
#[test]
fn recorder_concurrent_push_drain_is_sound() {
    let stats = explore(
        &opts(),
        3,
        || {
            (
                FlightRecorder::with_capacity(16),
                Mutex::new(Vec::<Vec<u64>>::new()),
            )
        },
        |i, (rec, out)| match i {
            0 | 1 => {
                let a = rec.record(QueryRecord::new(QueryKind::Knn));
                let b = rec.record(QueryRecord::new(QueryKind::Range));
                out.lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .push(vec![a, b]);
            }
            _ => {
                let drained = rec.drain();
                let mut prev = 0;
                for r in &drained {
                    verify(r.id > prev, "drain must be sorted by unique nonzero id");
                    prev = r.id;
                }
            }
        },
        |(rec, out)| {
            let out = out
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let mut ids: Vec<u64> = out.iter().flatten().copied().collect();
            ids.sort_unstable();
            ids.dedup();
            if ids.len() != 4 || ids.contains(&0) {
                return Err(format!("writer ids not unique/nonzero: {out:?}"));
            }
            if rec.len() > rec.capacity() {
                return Err(format!(
                    "len {} exceeds capacity {}",
                    rec.len(),
                    rec.capacity()
                ));
            }
            Ok(())
        },
    )
    .expect("recorder push/drain is sound under every bounded schedule");
    assert!(stats.schedules > 1, "{stats:?}");
}

/// Overflow semantics under the shims: deposits beyond capacity evict the
/// shard-oldest record and every eviction is tallied. One model thread
/// keeps the schedule deterministic; the point is that the production
/// overwrite path runs (and is step-instrumented) under the model build.
#[test]
fn recorder_overflow_evicts_and_counts() {
    explore(
        &opts(),
        1,
        || FlightRecorder::with_capacity(1),
        |_, rec| {
            // Capacity rounds up to one slot per shard; two full rounds of
            // ids over the shards guarantee every shard evicts once.
            let total = rec.capacity() * 2;
            for _ in 0..total {
                rec.record(QueryRecord::new(QueryKind::Knn));
            }
            verify(
                rec.len() <= rec.capacity(),
                "ring must not grow past capacity",
            );
            let evicted: u64 = rec.dropped_by_kind().iter().map(|(_, n)| n).sum();
            verify(
                evicted == rec.capacity() as u64,
                "every overwritten record must be tallied",
            );
            let drained = rec.drain();
            verify(
                drained.len() == rec.capacity(),
                "drain returns exactly the surviving records",
            );
            verify(rec.is_empty(), "drain empties the ring");
        },
        |_| Ok(()),
    )
    .expect("overflow bookkeeping is exact");
}

// ---------------------------------------------------------------------
// Protocol (c): trace-ring overwrite vs reader snapshot — a mirror of
// crates/obs/src/trace.rs (the ring is a mutex-guarded Vec; a trace is
// modelled as a (id, payload) pair that must never be observed torn).
// ---------------------------------------------------------------------

#[test]
fn trace_ring_snapshots_are_never_torn() {
    let stats = explore(
        &opts(),
        2,
        || Mutex::new(vec![(0u64, 0u64)]),
        |i, ring| match i {
            0 => {
                // Writer: overwrite the single slot, field by field, but
                // under the ring lock — the model must show no torn read.
                for k in 1..=2u64 {
                    let mut g = ring
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    g[0].0 = k;
                    g[0].1 = k;
                }
            }
            _ => {
                for _ in 0..2 {
                    let snap = {
                        let g = ring
                            .lock()
                            .unwrap_or_else(std::sync::PoisonError::into_inner);
                        g[0]
                    };
                    verify(snap.0 == snap.1, "reader snapshotted a torn trace record");
                }
            }
        },
        |ring| {
            let g = ring
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if g[0] == (2, 2) {
                Ok(())
            } else {
                Err(format!("writer updates lost: {:?}", g[0]))
            }
        },
    )
    .expect("lock-guarded overwrite admits no torn snapshot");
    assert!(stats.schedules > 1, "{stats:?}");
}
