//! A first-party interleaving model checker for the lock-free obs core:
//! exhaustive DFS over thread schedules *and* weak-memory read choices,
//! with a preemption bound and seen-state pruning. Zero dependencies.
//!
//! # What it does
//!
//! [`explore`] runs a small concurrent protocol — a per-run shared state
//! built by `setup`, `threads` bodies indexed 0..n, and a final `check` —
//! under every schedule the bounds admit. The bodies use the shim types
//! below ([`AtomicU64`], [`AtomicBool`], [`Mutex`]); each shim operation
//! is one atomic *step*, and between steps the scheduler may switch
//! threads. Atomic loads additionally branch over every write the C11-ish
//! memory model lets them observe, so a `Relaxed` load really can read a
//! stale value even on a strongly-ordered host. A failed [`verify`], a
//! thread panic, a deadlock, or an exhausted op budget aborts the run and
//! [`explore`] returns the failing schedule.
//!
//! Production code reaches the shims through the [`crate::sync`] facade:
//! a `RUSTFLAGS="--cfg treesim_model"` build swaps them in for
//! `std::sync`, so `crates/obs/tests/model.rs` drives the *real* flight
//! recorder, plus a mirror of the trace-ring protocol, through this
//! checker.
//!
//! # The memory model (and its approximations)
//!
//! Per atomic location the checker keeps the full write history; per
//! thread (and per mutex) it keeps a view: for each location, the oldest
//! write index that thread may still read. A load picks any write at or
//! after the view (branching the DFS), then advances the view to it
//! (coherence: a thread never reads older than it has read). A `Release`
//! store attaches the writer's view to the write; an `Acquire` load of
//! such a write joins it into the reader's view — that is the
//! happens-before edge. RMWs read the newest write (atomicity) and pass
//! an inherited `Release` view through, approximating release sequences.
//! Mutexes carry a view from unlock to the next lock.
//!
//! Approximations, deliberately on the conservative-for-our-protocols
//! side: modification order equals execution order (no store reordering,
//! so store-buffer-only anomalies are missed); `SeqCst` is treated as
//! `AcqRel` (there is no global order stronger than the per-location
//! histories — fine here because the analyzer denies `SeqCst` anyway);
//! seen-state pruning assumes thread-local state is a deterministic
//! function of the values the shims returned (bodies must not branch on
//! wall-clock, randomness, or addresses). See DESIGN.md §14 for the full
//! contract.
//!
//! # Memory-model contracts (checked by `xtask analyze` happens-before)
//!
//! atomic-role: cell = cell — the [`AtomicBool`] shim's backing word; its
//! orderings belong to the code under test (forwarded verbatim), not to a
//! protocol of this module, so there is no pairing to enforce here

use std::cell::RefCell;
use std::collections::HashSet;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::AtomicU64 as StdU64;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, OnceLock, PoisonError};
use std::sync::{Mutex as StdMutex, MutexGuard as StdGuard};

/// Panic payload used to unwind model threads when a run aborts; caught
/// by the per-thread `catch_unwind`, never user-visible.
const ABORT: &str = "treesim-model-abort";

/// Bounds for one [`explore`] call.
#[derive(Debug, Clone)]
pub struct Options {
    /// Maximum involuntary context switches per schedule (`None` =
    /// unbounded). Switching away from a thread that just blocked or
    /// finished is free; bounding only preemptions keeps the state space
    /// polynomial while still covering every small race window.
    pub preemption_bound: Option<usize>,
    /// Hard cap on explored schedules; exceeding it is a *failure* (the
    /// exploration was not exhaustive, so the pass proves nothing).
    pub max_schedules: u64,
    /// Per-schedule step budget; exceeding it reports a likely livelock.
    pub max_ops: u64,
    /// Skip re-branching schedule decisions in states already visited
    /// (memory + views + per-thread progress). Sound under the
    /// determinism contract in the module docs; disable to force a full
    /// tree walk.
    pub state_pruning: bool,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            preemption_bound: Some(3),
            max_schedules: 500_000,
            max_ops: 20_000,
            state_pruning: true,
        }
    }
}

/// Summary of a successful exhaustive exploration.
#[derive(Debug, Clone)]
pub struct Stats {
    /// Schedules fully executed.
    pub schedules: u64,
    /// Schedule decisions not branched because the state was already
    /// visited.
    pub pruned: u64,
}

/// A failed exploration: what went wrong and the schedule that did it.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Human-readable description (assertion message, deadlock report,
    /// budget overrun).
    pub message: String,
    /// The decision sequence of the failing schedule (thread picks and
    /// read picks, interleaved in decision order).
    pub schedule: Vec<usize>,
    /// Schedules executed before the failure surfaced.
    pub schedules_run: u64,
}

/// One DFS decision: `chosen` of `n` alternatives.
#[derive(Debug, Clone, Copy)]
struct Step {
    chosen: usize,
    n: usize,
}

/// Where a model thread is, from the scheduler's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Status {
    /// Executing between steps.
    Running,
    /// Parked at a step, waiting to be picked.
    AtYield,
    /// Picked; owns the next step.
    Granted,
    /// Waiting for the mutex with this id.
    Blocked(usize),
    /// Body returned (or unwound).
    Finished,
}

/// One write in a location's history.
#[derive(Debug, Clone, Hash)]
struct Write {
    val: u64,
    /// The writer's view at the write, present iff the write was
    /// `Release`-class — what an `Acquire` reader synchronizes with.
    msg: Option<Vec<usize>>,
}

/// Model state of one mutex.
#[derive(Debug, Clone, Default, Hash)]
struct LockSt {
    held_by: Option<usize>,
    /// View released by the last unlock; joined into the next locker.
    view: Vec<usize>,
}

/// Pointwise-max view join (`b` may be shorter or longer than `a`).
fn join(a: &mut Vec<usize>, b: &[usize]) {
    if a.len() < b.len() {
        a.resize(b.len(), 0);
    }
    for (i, &v) in b.iter().enumerate() {
        if a[i] < v {
            a[i] = v;
        }
    }
}

fn view_get(v: &[usize], loc: usize) -> usize {
    v.get(loc).copied().unwrap_or(0)
}

fn view_set(v: &mut Vec<usize>, loc: usize, idx: usize) {
    if v.len() <= loc {
        v.resize(loc + 1, 0);
    }
    v[loc] = idx;
}

/// Whether `o` synchronizes as a release on the store side (`SeqCst` is
/// treated as `AcqRel`, see the module docs).
fn release_class(o: Ordering) -> bool {
    !matches!(o, Ordering::Relaxed | Ordering::Acquire)
}

/// Whether `o` synchronizes as an acquire on the load side.
fn acquire_class(o: Ordering) -> bool {
    !matches!(o, Ordering::Relaxed | Ordering::Release)
}

/// Everything mutable about the current run, under one mutex.
#[derive(Debug)]
struct SchedState {
    statuses: Vec<Status>,
    /// Per-location write histories (index 0 is the initial value).
    writes: Vec<Vec<Write>>,
    /// Per-thread views.
    views: Vec<Vec<usize>>,
    locks: Vec<LockSt>,
    /// DFS path: replayed up to `cursor`, extended at the frontier.
    path: Vec<Step>,
    cursor: usize,
    preemptions: usize,
    last_tid: Option<usize>,
    ops: u64,
    op_counts: Vec<u64>,
    failure: Option<String>,
    aborting: bool,
    /// Hashes of states whose schedule decisions were already branched.
    seen: HashSet<u64>,
    pruned: u64,
}

impl SchedState {
    fn new(threads: usize) -> SchedState {
        SchedState {
            statuses: vec![Status::Running; threads],
            writes: Vec::new(),
            views: vec![Vec::new(); threads],
            locks: Vec::new(),
            path: Vec::new(),
            cursor: 0,
            preemptions: 0,
            last_tid: None,
            ops: 0,
            op_counts: vec![0; threads],
            failure: None,
            aborting: false,
            seen: HashSet::new(),
            pruned: 0,
        }
    }

    /// Resets per-run state; the DFS path and seen set persist.
    fn reset(&mut self, threads: usize) {
        self.statuses = vec![Status::Running; threads];
        self.writes.clear();
        self.views = vec![Vec::new(); threads];
        self.locks.clear();
        self.cursor = 0;
        self.preemptions = 0;
        self.last_tid = None;
        self.ops = 0;
        self.op_counts = vec![0; threads];
        self.failure = None;
        self.aborting = false;
    }

    /// Takes one DFS decision over `n` alternatives. Replays the path
    /// while it lasts; at the frontier records a new step (collapsed to a
    /// single alternative when `prune`), so replay and frontier always
    /// consume exactly one step per decision.
    fn decide(&mut self, n: usize, prune: bool) -> usize {
        debug_assert!(n > 0);
        if self.cursor < self.path.len() {
            let s = self.path[self.cursor];
            self.cursor += 1;
            return s.chosen.min(n.saturating_sub(1));
        }
        let n = if prune { 1 } else { n };
        self.path.push(Step { chosen: 0, n });
        self.cursor += 1;
        0
    }

    /// Advances the DFS to the next unexplored schedule. `false` when the
    /// whole bounded tree has been walked.
    fn backtrack(&mut self) -> bool {
        while let Some(last) = self.path.last_mut() {
            if last.chosen + 1 < last.n {
                last.chosen += 1;
                return true;
            }
            self.path.pop();
        }
        false
    }

    /// Hash of everything that determines future behavior under the
    /// determinism contract.
    fn state_hash(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.statuses.hash(&mut h);
        self.writes.hash(&mut h);
        self.views.hash(&mut h);
        self.locks.hash(&mut h);
        self.op_counts.hash(&mut h);
        self.preemptions.hash(&mut h);
        self.last_tid.hash(&mut h);
        h.finish()
    }

    fn fail(&mut self, message: String) {
        if self.failure.is_none() {
            self.failure = Some(message);
        }
        self.aborting = true;
    }

    fn schedule_of(&self) -> Vec<usize> {
        self.path[..self.cursor.min(self.path.len())]
            .iter()
            .map(|s| s.chosen)
            .collect()
    }

    // -- memory operations, applied while a thread owns its step --------

    fn alloc_loc(&mut self, initial: u64) -> usize {
        self.writes.push(vec![Write {
            val: initial,
            msg: None,
        }]);
        self.writes.len() - 1
    }

    fn alloc_lock(&mut self) -> usize {
        self.locks.push(LockSt::default());
        self.locks.len() - 1
    }

    fn atomic_load(&mut self, tid: usize, loc: usize, order: Ordering) -> u64 {
        let min = view_get(&self.views[tid], loc);
        let n = self.writes[loc].len() - min;
        let pick = min + self.decide(n, false);
        let (val, msg) = {
            let w = &self.writes[loc][pick];
            (w.val, w.msg.clone())
        };
        view_set(&mut self.views[tid], loc, pick);
        if acquire_class(order) {
            if let Some(mv) = msg {
                join(&mut self.views[tid], &mv);
            }
        }
        val
    }

    fn atomic_store(&mut self, tid: usize, loc: usize, val: u64, order: Ordering) {
        let idx = self.writes[loc].len();
        view_set(&mut self.views[tid], loc, idx);
        let msg = release_class(order).then(|| self.views[tid].clone());
        self.writes[loc].push(Write { val, msg });
    }

    fn atomic_rmw(
        &mut self,
        tid: usize,
        loc: usize,
        order: Ordering,
        f: impl FnOnce(u64) -> u64,
    ) -> u64 {
        let last = self.writes[loc].len() - 1;
        let (old, inherited) = {
            let w = &self.writes[loc][last];
            (w.val, w.msg.clone())
        };
        view_set(&mut self.views[tid], loc, last);
        if acquire_class(order) {
            if let Some(mv) = &inherited {
                join(&mut self.views[tid], mv);
            }
        }
        view_set(&mut self.views[tid], loc, last + 1);
        let msg = match (inherited, release_class(order)) {
            (Some(mut p), true) => {
                join(&mut p, &self.views[tid]);
                Some(p)
            }
            // A relaxed RMW continues the release sequence it read from.
            (Some(p), false) => Some(p),
            (None, true) => Some(self.views[tid].clone()),
            (None, false) => None,
        };
        self.writes[loc].push(Write { val: f(old), msg });
        old
    }
}

/// Outcome of one step closure.
enum StepResult<R> {
    Done(R),
    /// The step cannot proceed until this mutex is released.
    Block(usize),
}

/// State shared between the scheduler and the model threads of one
/// [`explore`] call.
struct RunShared {
    state: StdMutex<SchedState>,
    cv: Condvar,
    opts: Options,
}

impl RunShared {
    fn recover(&self) -> StdGuard<'_, SchedState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Parks at a yield point, waits for the grant, then applies `op`
    /// atomically. `op` may block on a mutex, in which case the thread
    /// waits for a re-grant and retries.
    fn step<R>(&self, tid: usize, mut op: impl FnMut(&mut SchedState) -> StepResult<R>) -> R {
        let mut st = self.recover();
        loop {
            if st.aborting {
                drop(st);
                abort_unwind();
            }
            st.statuses[tid] = Status::AtYield;
            self.cv.notify_all();
            while st.statuses[tid] != Status::Granted {
                if st.aborting {
                    drop(st);
                    abort_unwind();
                }
                st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
            match op(&mut st) {
                StepResult::Done(r) => {
                    st.statuses[tid] = Status::Running;
                    st.ops += 1;
                    st.op_counts[tid] += 1;
                    if st.ops > self.opts.max_ops {
                        st.fail(format!(
                            "op budget exceeded ({} steps) — livelock, or raise Options::max_ops",
                            self.opts.max_ops
                        ));
                        self.cv.notify_all();
                        drop(st);
                        abort_unwind();
                    }
                    self.cv.notify_all();
                    return r;
                }
                StepResult::Block(lid) => {
                    st.statuses[tid] = Status::Blocked(lid);
                    self.cv.notify_all();
                    while st.statuses[tid] != Status::Granted {
                        if st.aborting {
                            drop(st);
                            abort_unwind();
                        }
                        st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
                    }
                }
            }
        }
    }

    /// Drives one schedule to completion. Returns `true` when the run
    /// finished cleanly, `false` on failure (state carries the message).
    fn schedule_run(&self) -> bool {
        let mut st = self.recover();
        loop {
            while st
                .statuses
                .iter()
                .any(|s| matches!(s, Status::Running | Status::Granted))
            {
                st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
            if st.failure.is_some() {
                st.aborting = true;
                self.cv.notify_all();
                return false;
            }
            let runnable: Vec<usize> = st
                .statuses
                .iter()
                .enumerate()
                .filter(|(_, s)| **s == Status::AtYield)
                .map(|(i, _)| i)
                .collect();
            if runnable.is_empty() {
                if st.statuses.iter().all(|s| *s == Status::Finished) {
                    return true;
                }
                let held: Vec<String> = st
                    .statuses
                    .iter()
                    .enumerate()
                    .filter_map(|(i, s)| match s {
                        Status::Blocked(l) => Some(format!("thread {i} waits on mutex {l}")),
                        _ => None,
                    })
                    .collect();
                st.fail(format!("deadlock: {}", held.join("; ")));
                self.cv.notify_all();
                return false;
            }
            // Continuation-first ordering, so `chosen == 0` keeps the
            // current thread running and alternatives are the preemptions.
            let mut options = Vec::with_capacity(runnable.len());
            let cont = st.last_tid.filter(|t| runnable.contains(t));
            if let Some(c) = cont {
                options.push(c);
            }
            options.extend(runnable.iter().copied().filter(|&t| Some(t) != cont));
            let budget_spent = self
                .opts
                .preemption_bound
                .is_some_and(|b| st.preemptions >= b);
            if cont.is_some() && budget_spent {
                options.truncate(1);
            }
            let frontier = st.cursor >= st.path.len();
            let hash = st.state_hash();
            let prune =
                self.opts.state_pruning && frontier && options.len() > 1 && !st.seen.insert(hash);
            if prune {
                st.pruned += 1;
            }
            let tid = options[st.decide(options.len(), prune)];
            if cont.is_some_and(|c| c != tid) {
                st.preemptions += 1;
            }
            st.last_tid = Some(tid);
            st.statuses[tid] = Status::Granted;
            self.cv.notify_all();
        }
    }
}

thread_local! {
    static CTX: RefCell<Option<(Arc<RunShared>, usize)>> = const { RefCell::new(None) };
}

fn ctx() -> Option<(Arc<RunShared>, usize)> {
    CTX.with(|c| c.borrow().clone())
}

/// RAII registration of the current OS thread as model thread `tid`.
struct CtxGuard;

impl CtxGuard {
    fn set(shared: Arc<RunShared>, tid: usize) -> CtxGuard {
        CTX.with(|c| *c.borrow_mut() = Some((shared, tid)));
        CtxGuard
    }
}

impl Drop for CtxGuard {
    fn drop(&mut self) {
        CTX.with(|c| *c.borrow_mut() = None);
    }
}

fn abort_unwind() -> ! {
    // Unwinds this model thread out of the user body on abort; caught by
    // the catch_unwind in thread_main, so it never escapes explore().
    // treesim-lint: allow(panic-surface)
    panic!("{ABORT}")
}

fn is_abort(payload: &(dyn std::any::Any + Send)) -> bool {
    payload.downcast_ref::<&str>().is_some_and(|s| *s == ABORT)
        || payload.downcast_ref::<String>().is_some_and(|s| s == ABORT)
}

fn payload_str(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

/// Model assertion: inside a run, a failure records the message plus the
/// failing schedule and aborts the exploration; outside a run it is a
/// plain `assert!`.
pub fn verify(cond: bool, msg: &str) {
    if cond {
        return;
    }
    if let Some((shared, tid)) = ctx() {
        {
            let mut st = shared.recover();
            let sched = st.schedule_of();
            st.fail(format!(
                "model assertion failed on thread {tid}: {msg} (schedule {sched:?})"
            ));
            shared.cv.notify_all();
        }
        abort_unwind();
    }
    assert!(cond, "model assertion failed outside a run: {msg}");
}

/// Exhaustively explores `threads` bodies over a fresh `setup()` state
/// per schedule, within `opts` bounds. `body(i, &state)` runs as model
/// thread `i`; `check(&state)` runs after each clean schedule for
/// final-state invariants. Returns the failing schedule on any assertion
/// failure, panic, deadlock, or blown budget.
pub fn explore<S, F, B, C>(
    opts: &Options,
    threads: usize,
    setup: F,
    body: B,
    check: C,
) -> Result<Stats, Failure>
where
    S: Sync,
    F: Fn() -> S,
    B: Fn(usize, &S) + Sync,
    C: Fn(&S) -> Result<(), String>,
{
    let shared = Arc::new(RunShared {
        state: StdMutex::new(SchedState::new(threads)),
        cv: Condvar::new(),
        opts: opts.clone(),
    });
    let mut schedules: u64 = 0;
    loop {
        if schedules >= opts.max_schedules {
            let schedule = shared.recover().schedule_of();
            return Err(Failure {
                message: format!(
                    "exploration not exhaustive: schedule budget ({}) exhausted — tighten the \
                     protocol or raise Options::max_schedules",
                    opts.max_schedules
                ),
                schedule,
                schedules_run: schedules,
            });
        }
        schedules += 1;
        shared.recover().reset(threads);
        let state = setup();
        let clean = std::thread::scope(|scope| {
            for i in 0..threads {
                let shared = Arc::clone(&shared);
                let state = &state;
                let body = &body;
                scope.spawn(move || thread_main(shared, i, state, body));
            }
            shared.schedule_run()
        });
        let (failure, sched, pruned) = {
            let st = shared.recover();
            (st.failure.clone(), st.schedule_of(), st.pruned)
        };
        if let Some(message) = failure {
            record_metrics(schedules, pruned, true);
            return Err(Failure {
                message,
                schedule: sched,
                schedules_run: schedules,
            });
        }
        debug_assert!(clean);
        if let Err(message) = check(&state) {
            record_metrics(schedules, pruned, true);
            return Err(Failure {
                message: format!("final-state check failed: {message} (schedule {sched:?})"),
                schedule: sched,
                schedules_run: schedules,
            });
        }
        if !shared.recover().backtrack() {
            record_metrics(schedules, pruned, false);
            return Ok(Stats { schedules, pruned });
        }
    }
}

/// Counters for CI visibility; names are covered by the obs naming
/// grammar test.
fn record_metrics(schedules: u64, pruned: u64, failed: bool) {
    crate::metrics::counter("model.schedules").add(schedules);
    crate::metrics::counter("model.states.pruned").add(pruned);
    if failed {
        crate::metrics::counter("model.failures").inc();
    }
}

fn thread_main<S: Sync>(
    shared: Arc<RunShared>,
    tid: usize,
    state: &S,
    body: &(impl Fn(usize, &S) + Sync),
) {
    let guard = CtxGuard::set(Arc::clone(&shared), tid);
    let result = catch_unwind(AssertUnwindSafe(|| body(tid, state)));
    drop(guard);
    let mut st = shared.recover();
    st.statuses[tid] = Status::Finished;
    if let Err(p) = result {
        if !is_abort(p.as_ref()) {
            st.fail(format!(
                "thread {tid} panicked: {}",
                payload_str(p.as_ref())
            ));
        }
    }
    shared.cv.notify_all();
}

// ---------------------------------------------------------------------
// Shim types. Outside a run they delegate to the real std primitives, so
// code routed through `crate::sync` behaves identically when a model
// build runs ordinary tests.
// ---------------------------------------------------------------------

/// Model-checked stand-in for `std::sync::atomic::AtomicU64`.
#[derive(Debug, Default)]
pub struct AtomicU64 {
    inner: StdU64,
    loc: OnceLock<usize>,
}

impl AtomicU64 {
    /// A new cell holding `v`.
    pub const fn new(v: u64) -> AtomicU64 {
        AtomicU64 {
            inner: StdU64::new(v),
            loc: OnceLock::new(),
        }
    }

    /// Registers the cell with the active run on first modeled access;
    /// the initial value is whatever standalone accesses left behind.
    fn loc(&self, shared: &RunShared) -> usize {
        *self.loc.get_or_init(|| {
            let initial = self.inner.load(Ordering::Relaxed);
            shared.recover().alloc_loc(initial)
        })
    }

    /// Atomic load; in a run, branches over every readable write.
    pub fn load(&self, order: Ordering) -> u64 {
        match ctx() {
            Some((shared, tid)) => {
                let loc = self.loc(&shared);
                shared.step(tid, |st| StepResult::Done(st.atomic_load(tid, loc, order)))
            }
            None => self.inner.load(order),
        }
    }

    /// Atomic store.
    pub fn store(&self, val: u64, order: Ordering) {
        match ctx() {
            Some((shared, tid)) => {
                let loc = self.loc(&shared);
                shared.step(tid, |st| {
                    st.atomic_store(tid, loc, val, order);
                    StepResult::Done(())
                });
                // Keep the real cell on the modification-order tail so
                // standalone reads after the run (final checks) see it.
                self.inner.store(val, Ordering::Relaxed);
            }
            None => self.inner.store(val, order),
        }
    }

    /// Atomic fetch-add, wrapping.
    pub fn fetch_add(&self, val: u64, order: Ordering) -> u64 {
        match ctx() {
            Some((shared, tid)) => {
                let loc = self.loc(&shared);
                let old = shared.step(tid, |st| {
                    StepResult::Done(st.atomic_rmw(tid, loc, order, |v| v.wrapping_add(val)))
                });
                self.inner.store(old.wrapping_add(val), Ordering::Relaxed);
                old
            }
            None => self.inner.fetch_add(val, order),
        }
    }
}

/// Model-checked stand-in for `std::sync::atomic::AtomicBool`.
#[derive(Debug, Default)]
pub struct AtomicBool {
    cell: AtomicU64,
}

impl AtomicBool {
    /// A new flag holding `v`.
    pub const fn new(v: bool) -> AtomicBool {
        AtomicBool {
            cell: AtomicU64::new(v as u64),
        }
    }

    /// Atomic load.
    pub fn load(&self, order: Ordering) -> bool {
        self.cell.load(order) != 0
    }

    /// Atomic store.
    pub fn store(&self, val: bool, order: Ordering) {
        self.cell.store(val as u64, order);
    }
}

/// Model-checked stand-in for `std::sync::Mutex`. Data lives in a real
/// mutex (the model serializes access, so it never contends); blocking
/// and the unlock→lock happens-before edge are modeled.
#[derive(Debug, Default)]
pub struct Mutex<T> {
    inner: StdMutex<T>,
    lid: OnceLock<usize>,
}

/// Guard returned by [`Mutex::lock`]; releases the model lock on drop.
#[derive(Debug)]
pub struct MutexGuard<'a, T> {
    data: StdGuard<'a, T>,
    lid: Option<usize>,
}

impl<T> Mutex<T> {
    /// A new mutex holding `v`.
    pub const fn new(v: T) -> Mutex<T> {
        Mutex {
            inner: StdMutex::new(v),
            lid: OnceLock::new(),
        }
    }

    fn lid(&self, shared: &RunShared) -> usize {
        *self.lid.get_or_init(|| shared.recover().alloc_lock())
    }

    /// Locks the mutex. In a run, the calling model thread blocks (and
    /// the scheduler explores around it) until the holder unlocks; the
    /// result is always `Ok` (model runs recover poison like production
    /// code does).
    pub fn lock(&self) -> Result<MutexGuard<'_, T>, PoisonError<MutexGuard<'_, T>>> {
        match ctx() {
            Some((shared, tid)) => {
                let lid = self.lid(&shared);
                shared.step(tid, |st| {
                    if st.locks[lid].held_by.is_some() {
                        return StepResult::Block(lid);
                    }
                    st.locks[lid].held_by = Some(tid);
                    let lock_view = st.locks[lid].view.clone();
                    join(&mut st.views[tid], &lock_view);
                    StepResult::Done(())
                });
                let data = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
                Ok(MutexGuard {
                    data,
                    lid: Some(lid),
                })
            }
            None => match self.inner.lock() {
                Ok(data) => Ok(MutexGuard { data, lid: None }),
                Err(e) => Err(PoisonError::new(MutexGuard {
                    data: e.into_inner(),
                    lid: None,
                })),
            },
        }
    }
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.data
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.data
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        let Some(lid) = self.lid else {
            return;
        };
        let Some((shared, tid)) = ctx() else {
            return;
        };
        if std::thread::panicking() || shared.recover().aborting {
            // Bookkeeping only — never reschedule while unwinding.
            let mut st = shared.recover();
            st.locks[lid].held_by = None;
            for s in st.statuses.iter_mut() {
                if *s == Status::Blocked(lid) {
                    *s = Status::AtYield;
                }
            }
            shared.cv.notify_all();
            return;
        }
        shared.step(tid, |st| {
            st.locks[lid].held_by = None;
            let view = st.views[tid].clone();
            join(&mut st.locks[lid].view, &view);
            for s in st.statuses.iter_mut() {
                if *s == Status::Blocked(lid) {
                    *s = Status::AtYield;
                }
            }
            StepResult::Done(())
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts() -> Options {
        Options {
            preemption_bound: Some(3),
            max_schedules: 100_000,
            max_ops: 2_000,
            state_pruning: true,
        }
    }

    #[test]
    fn relaxed_message_passing_is_caught() {
        // The textbook bug: data is published with a Relaxed flag, so
        // the reader can observe the flag without the data.
        let err = explore(
            &opts(),
            2,
            || (AtomicU64::new(0), AtomicBool::new(false)),
            |i, s| match i {
                0 => {
                    s.0.store(1, Ordering::Relaxed);
                    s.1.store(true, Ordering::Relaxed);
                }
                _ => {
                    if s.1.load(Ordering::Relaxed) {
                        verify(s.0.load(Ordering::Relaxed) == 1, "flag without data");
                    }
                }
            },
            |_| Ok(()),
        );
        let failure = err.expect_err("relaxed publication must be caught");
        assert!(failure.message.contains("flag without data"), "{failure:?}");
        assert!(!failure.schedule.is_empty());
    }

    #[test]
    fn release_acquire_message_passing_passes() {
        let stats = explore(
            &opts(),
            2,
            || (AtomicU64::new(0), AtomicBool::new(false)),
            |i, s| match i {
                0 => {
                    s.0.store(1, Ordering::Relaxed);
                    s.1.store(true, Ordering::Release);
                }
                _ => {
                    if s.1.load(Ordering::Acquire) {
                        verify(s.0.load(Ordering::Relaxed) == 1, "flag without data");
                    }
                }
            },
            |_| Ok(()),
        )
        .expect("release/acquire publication is sound");
        assert!(stats.schedules > 1, "{stats:?}");
    }

    #[test]
    fn mutex_mutual_exclusion_and_happens_before() {
        // Non-atomic data guarded by the shim mutex: increments never
        // lose updates, and the final value is visible to the main
        // thread through the unlock.
        let stats = explore(
            &opts(),
            2,
            || Mutex::new(0u64),
            |_, m| {
                let mut g = m.lock().unwrap_or_else(PoisonError::into_inner);
                *g += 1;
            },
            |m| {
                let g = m.lock().unwrap_or_else(PoisonError::into_inner);
                if *g == 2 {
                    Ok(())
                } else {
                    Err(format!("lost update: {}", *g))
                }
            },
        )
        .expect("mutex increments are sound");
        assert!(stats.schedules >= 2, "{stats:?}");
    }

    #[test]
    fn rmw_ids_are_unique_even_relaxed() {
        let stats = explore(
            &opts(),
            2,
            || (AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)),
            |i, s| {
                let old = s.0.fetch_add(1, Ordering::Relaxed);
                match i {
                    0 => s.1.store(old + 1, Ordering::Relaxed),
                    _ => s.2.store(old + 1, Ordering::Relaxed),
                }
            },
            |s| {
                let (a, b) = (s.1.load(Ordering::Relaxed), s.2.load(Ordering::Relaxed));
                if a != b && a + b == 3 {
                    Ok(())
                } else {
                    Err(format!("ids not unique/monotone: {a} vs {b}"))
                }
            },
        )
        .expect("relaxed fetch_add ids are unique");
        assert!(stats.schedules >= 2);
    }

    #[test]
    fn lock_order_deadlock_is_detected() {
        let failure = explore(
            &opts(),
            2,
            || (Mutex::new(()), Mutex::new(())),
            |i, s| {
                let (first, second) = if i == 0 { (&s.0, &s.1) } else { (&s.1, &s.0) };
                let _a = first.lock().unwrap_or_else(PoisonError::into_inner);
                let _b = second.lock().unwrap_or_else(PoisonError::into_inner);
            },
            |_| Ok(()),
        )
        .expect_err("opposite lock orders must deadlock under some schedule");
        assert!(failure.message.contains("deadlock"), "{failure:?}");
    }

    #[test]
    fn thread_panics_are_reported_not_propagated() {
        let failure = explore(&opts(), 1, || (), |_, _| panic!("boom"), |_| Ok(()))
            .expect_err("panics fail the exploration");
        assert!(failure.message.contains("boom"), "{failure:?}");
    }

    #[test]
    fn shims_work_standalone() {
        let a = AtomicU64::new(7);
        assert_eq!(a.fetch_add(3, Ordering::Relaxed), 7);
        assert_eq!(a.load(Ordering::Relaxed), 10);
        a.store(1, Ordering::Release);
        assert_eq!(a.load(Ordering::Acquire), 1);
        let b = AtomicBool::new(false);
        b.store(true, Ordering::Release);
        assert!(b.load(Ordering::Acquire));
        let m = Mutex::new(5u32);
        *m.lock().unwrap_or_else(PoisonError::into_inner) += 1;
        assert_eq!(*m.lock().unwrap_or_else(PoisonError::into_inner), 6);
    }

    #[test]
    fn schedule_budget_overrun_is_a_failure() {
        let tight = Options {
            max_schedules: 1,
            ..opts()
        };
        let failure = explore(
            &tight,
            2,
            || AtomicU64::new(0),
            |_, a| {
                a.fetch_add(1, Ordering::Relaxed);
            },
            |_| Ok(()),
        )
        .expect_err("budget must not silently truncate the exploration");
        assert!(failure.message.contains("not exhaustive"), "{failure:?}");
    }

    #[test]
    fn metric_names_parse_under_the_grammar() {
        for name in ["model.schedules", "model.states.pruned", "model.failures"] {
            crate::naming::validate_metric_name(name, false)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }
}
