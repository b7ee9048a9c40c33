//! The worker pool: per-task scheduling states, the sharded ready queue
//! with deficit round-robin across tenants, and helping by blocked senders.

use super::worker::{panic_message, Polled, WorkerTask};
use crate::supervision::DeadLetterLog;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Task states for the pool executor's lost-wakeup-free scheduling
/// protocol. Transitions (all CAS unless noted):
///
/// - `IDLE → READY` (a wake): the winner pushes the index on the ready
///   queue — the queue therefore never holds an index twice.
/// - `READY → RUNNING` (claim): exactly one thread wins the right to poll,
///   so a task's slot mutex is never contended.
/// - `RUNNING → RERUN` (a wake while running): the runner's
///   `RUNNING → IDLE` release CAS then fails and it polls again, so a push
///   that lands mid-poll is never lost.
/// - `* → DONE` (swap, once): the task finished; `live` is decremented.
const T_IDLE: u8 = 0;
const T_READY: u8 = 1;
const T_RUNNING: u8 = 2;
const T_RERUN: u8 = 3;
const T_DONE: u8 = 4;

/// Shared state of the pool executor: one slot + state machine per actor,
/// a ready queue the fixed worker threads (and helping producers) pop
/// from, and collection points for finished tasks' dead letters and
/// uncontainable failures.
pub(super) struct PoolShared {
    /// `tasks[i]` holds actor `i`'s [`WorkerTask`] until it finishes
    /// (`None` for sources and finished actors). The mutex is never
    /// contended — only the `READY → RUNNING` claim winner locks it — it
    /// exists to move the task in and out safely.
    pub(super) tasks: Vec<Mutex<Option<WorkerTask>>>,
    /// Per-task scheduling state (`T_IDLE` … `T_DONE`).
    states: Vec<AtomicU8>,
    /// Indexes of `T_READY` tasks awaiting a worker, sharded either by
    /// topological stage band (single-tenant, see [`PoolShared::shard_of`])
    /// or by tenant (multi-tenant, where a deficit-round-robin scheduler
    /// interleaves the shards). One shard — the common, unpinned
    /// single-tenant case — is exactly the classic single ready queue. All
    /// shards share one lock and condvar: sharding here is about cache
    /// locality / fairness bookkeeping, not lock splitting, and a single
    /// lock keeps the park/notify protocol and the exit condition
    /// unchanged. Note the hot path (mailbox push, task poll) never takes
    /// this lock — only wake transitions and worker pops do.
    ready: Mutex<ReadyState>,
    ready_cv: Condvar,
    /// Indexes on the ready queue, summed over shards. Written under the
    /// `ready` lock by every push and pop; read without it by an idle
    /// worker's spin, which only needs a hint that work has arrived.
    queued: AtomicUsize,
    /// `notify_one` calls made by [`PoolShared::wake`] (relaxed; read by
    /// tests of the park protocol).
    notifies: AtomicU64,
    /// Shard index per actor. Single-tenant: its topological rank band —
    /// with `s` shards over `n` actors, actor `i` lands in shard
    /// `rank[i] * s / n`, so contiguous pipeline stages share a shard and
    /// the worker pinned to that band keeps producer/consumer pairs on one
    /// core's cache. Multi-tenant: the actor's tenant index, so the DRR
    /// scheduler's shards *are* the tenants.
    shard_of: Vec<usize>,
    /// Owning tenant per task slot (all zeros for single-tenant runs).
    /// Helping is filtered to the helper's own tenant: a cross-tenant
    /// inline poll could nest two tenants' pipelines on one stack in an
    /// order that violates neither tenant's rank discipline yet still
    /// blocks a suspended frame's consumer, so it is never attempted.
    tenant_of: Vec<usize>,
    /// Per-tenant completion ledger (actor counts / finish timestamps);
    /// [`run_task`] reports each task's terminal transition exactly once.
    ledger: Arc<TenantLedger>,
    /// Worker tasks not yet `T_DONE`; pool threads exit when it hits zero.
    pub(super) live: AtomicUsize,
    /// Uncontainable panics (outside `guarded_call`, e.g. a panicking
    /// `reset`), by actor index.
    pub(super) failures: Mutex<Vec<(usize, String)>>,
    /// Finished tasks' private dead-letter logs, merged at shutdown.
    pub(super) collected: Mutex<Vec<(usize, DeadLetterLog)>>,
    /// Topological rank per actor (every edge goes to a strictly higher
    /// rank; the graph is validated acyclic). Helping is restricted to
    /// tasks of rank ≥ the helper's own: stack frames of nested inline
    /// polls are then strictly rank-increasing, so a blocked send — whose
    /// destination always outranks the whole stack — can never target an
    /// actor suspended beneath it on the same thread. Without the filter a
    /// helper could run an *upstream* actor on top of a suspended consumer
    /// and deadlock it against that consumer's full mailbox.
    rank: Vec<usize>,
}

/// The pool's ready queue: per-shard FIFOs plus, in multi-tenant mode,
/// the deficit-round-robin state that decides which shard (= tenant) the
/// next pop serves. Protected by the single `ready` mutex.
struct ReadyState {
    shards: Vec<VecDeque<usize>>,
    drr: Option<DrrState>,
    /// Workers parked on `ready_cv`. A worker counts itself in before
    /// `wait` and out after it, and a waker reads the count in the same
    /// critical section as its enqueue, so a wake notifies exactly when a
    /// worker sleeps and none is ever lost.
    sleepers: usize,
}

/// Deficit round-robin over tenant shards: each tenant has a quantum (its
/// configured weight, in task activations — each activation bounded to
/// [`TENANT_POLL_BUDGET`] drained batches) and accumulates deficit as the
/// rotor passes. Tenants with queued work stay on the active rotor;
/// popping debits one activation from the tenant's deficit.
struct DrrState {
    /// Per-tenant quantum in activations (the submission weight, >= 1).
    quantum: Vec<u64>,
    /// Per-tenant unspent activation credit.
    deficit: Vec<u64>,
    /// Rotor of tenants believed to have queued work, in service order.
    active: VecDeque<usize>,
    /// Membership flag for `active` (no tenant is enqueued twice).
    in_active: Vec<bool>,
}

impl ReadyState {
    fn new(shards: usize, quantum: Option<Vec<u64>>) -> Self {
        ReadyState {
            shards: vec![VecDeque::new(); shards],
            drr: quantum.map(|quantum| {
                let n = quantum.len();
                DrrState {
                    quantum,
                    deficit: vec![0; n],
                    active: VecDeque::new(),
                    in_active: vec![false; n],
                }
            }),
            sleepers: 0,
        }
    }

    /// Pushes ready task `i` onto shard `shard`, activating the tenant's
    /// rotor entry in DRR mode.
    fn enqueue(&mut self, shard: usize, i: usize) {
        self.shards[shard].push_back(i);
        if let Some(drr) = &mut self.drr {
            if !drr.in_active[shard] {
                drr.in_active[shard] = true;
                drr.active.push_back(shard);
            }
        }
    }

    /// Pops the next task a worker should run. Single-tenant: drain the
    /// home shard first, then steal in wrapping order — downstream
    /// neighbours before far-away bands, so stolen work stays close to the
    /// home band's cache footprint (with one shard this is exactly
    /// `pop_front`). Multi-tenant: deficit round-robin across tenant
    /// shards, ignoring `home` — fairness outranks cache placement.
    fn pop(&mut self, home: usize) -> Option<usize> {
        match &mut self.drr {
            None => {
                let shards = self.shards.len();
                (0..shards).find_map(|d| self.shards[(home + d) % shards].pop_front())
            }
            Some(drr) => {
                while let Some(&t) = drr.active.front() {
                    if let Some(i) = self.shards[t].front().copied() {
                        if drr.deficit[t] == 0 {
                            drr.deficit[t] = drr.quantum[t];
                        }
                        drr.deficit[t] -= 1;
                        self.shards[t].pop_front();
                        if drr.deficit[t] == 0 || self.shards[t].is_empty() {
                            // Quantum spent (or nothing left): rotate the
                            // tenant to the back; an emptied tenant also
                            // forfeits unspent credit (classic DRR — credit
                            // only accrues while backlogged).
                            drr.active.rotate_left(1);
                            if self.shards[t].is_empty() {
                                drr.deficit[t] = 0;
                                drr.in_active[t] = false;
                                drr.active.pop_back();
                            }
                        }
                        return Some(i);
                    }
                    // Helping drained this tenant's shard behind the
                    // rotor's back: deactivate and move on.
                    drr.deficit[t] = 0;
                    drr.in_active[t] = false;
                    drr.active.pop_front();
                }
                None
            }
        }
    }
}

/// Per-tenant completion bookkeeping for a (possibly multi-tenant) run:
/// how many actors are still live per tenant, and when the tenant's last
/// actor finished — the tenant's own wall-clock, so a short tenant's
/// throughput is not diluted by a long co-tenant keeping the run alive.
pub(super) struct TenantLedger {
    started_at: Instant,
    remaining: Vec<AtomicUsize>,
    finished_ns: Vec<AtomicU64>,
}

impl TenantLedger {
    pub(super) fn new(counts: &[usize], started_at: Instant) -> Self {
        TenantLedger {
            started_at,
            remaining: counts.iter().map(|&c| AtomicUsize::new(c)).collect(),
            finished_ns: counts.iter().map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Records one actor of `tenant` finishing; the last one stamps the
    /// tenant's completion time.
    pub(super) fn actor_done(&self, tenant: usize) {
        if self.remaining[tenant].fetch_sub(1, Ordering::AcqRel) == 1 {
            let ns = self.started_at.elapsed().as_nanos() as u64;
            self.finished_ns[tenant].store(ns.max(1), Ordering::Release);
        }
    }

    /// The tenant's own wall time, if all its actors have finished.
    pub(super) fn wall(&self, tenant: usize) -> Option<Duration> {
        let ns = self.finished_ns[tenant].load(Ordering::Acquire);
        (ns > 0).then(|| Duration::from_nanos(ns))
    }
}

/// Input batches one multi-tenant poll activation may drain before
/// yielding (the DRR batch quantum). Large enough to amortize scheduling,
/// small enough that a backlogged tenant cannot monopolize a worker.
pub(super) const TENANT_POLL_BUDGET: usize = 32;

impl PoolShared {
    pub(super) fn new(
        rank: Vec<usize>,
        tenant_of: Vec<usize>,
        shards: usize,
        quantum: Option<Vec<u64>>,
        ledger: Arc<TenantLedger>,
    ) -> Self {
        let n = rank.len();
        let shards = shards.max(1);
        let shard_of = if quantum.is_some() {
            // Multi-tenant: shards are tenants (the DRR service classes).
            tenant_of.clone()
        } else {
            rank.iter().map(|&r| r * shards / n.max(1)).collect()
        };
        PoolShared {
            tasks: (0..n).map(|_| Mutex::new(None)).collect(),
            states: (0..n).map(|_| AtomicU8::new(T_IDLE)).collect(),
            ready: Mutex::new(ReadyState::new(shards, quantum)),
            ready_cv: Condvar::new(),
            queued: AtomicUsize::new(0),
            notifies: AtomicU64::new(0),
            shard_of,
            tenant_of,
            ledger,
            live: AtomicUsize::new(0),
            failures: Mutex::new(Vec::new()),
            collected: Mutex::new(Vec::new()),
            rank,
        }
    }

    /// Marks task `i` ready (called from mailbox wake hooks on every push
    /// and on final-sender drop). AcqRel on the CASes: the winner's queue
    /// push must happen-after the mailbox write that made the task ready.
    pub(super) fn wake(&self, i: usize) {
        loop {
            match self.states[i].load(Ordering::Acquire) {
                T_IDLE => {
                    if self.states[i]
                        .compare_exchange(T_IDLE, T_READY, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        let mut q = self.ready.lock().unwrap_or_else(PoisonError::into_inner);
                        q.enqueue(self.shard_of[i], i);
                        self.queued.fetch_add(1, Ordering::Relaxed);
                        let sleeping = q.sleepers > 0;
                        drop(q);
                        // Only a parked worker needs the (syscall-making)
                        // notify: a running or spinning one re-checks the
                        // queue before it parks. The notify may rouse a
                        // worker homed on another shard; that is fine —
                        // workers steal across shards before parking.
                        if sleeping {
                            self.notifies.fetch_add(1, Ordering::Relaxed);
                            self.ready_cv.notify_one();
                        }
                        return;
                    }
                }
                T_RUNNING => {
                    if self.states[i]
                        .compare_exchange(T_RUNNING, T_RERUN, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        return;
                    }
                }
                // READY / RERUN: already scheduled; DONE: finished.
                _ => return,
            }
        }
    }

    /// Claims the exclusive right to poll task `i`.
    fn claim(&self, i: usize) -> bool {
        self.states[i]
            .compare_exchange(T_READY, T_RUNNING, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }
}

/// Polls claimed task `i` until it blocks (momentarily empty mailbox) or
/// finishes. Caller must have won the `READY → RUNNING` claim. Panics that
/// escape `poll` (i.e. outside `guarded_call`, such as a panicking
/// `reset`) are recorded as uncontainable failures and the actor is torn
/// down, dropping its receiver so upstream observes disconnection.
fn run_task(pool: &Arc<PoolShared>, i: usize) {
    loop {
        let mut slot = pool.tasks[i].lock().unwrap_or_else(PoisonError::into_inner);
        let polled = match slot.as_mut() {
            Some(task) => match catch_unwind(AssertUnwindSafe(|| task.poll())) {
                Ok(polled) => polled,
                Err(payload) => {
                    pool.failures
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .push((i, panic_message(payload.as_ref())));
                    Polled::Finished
                }
            },
            None => Polled::Finished,
        };
        match polled {
            Polled::Finished => {
                if let Some(mut task) = slot.take() {
                    task.ctx.release_buffers();
                    let log = std::mem::take(&mut task.ctx.dead_letters);
                    pool.collected
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .push((i, log));
                }
                drop(slot);
                // First (only) transition to DONE decrements `live` and
                // reports to the tenant ledger; the last task wakes every
                // parked worker so they can exit.
                if pool.states[i].swap(T_DONE, Ordering::AcqRel) != T_DONE {
                    pool.ledger.actor_done(pool.tenant_of[i]);
                    if pool.live.fetch_sub(1, Ordering::AcqRel) == 1 {
                        let _guard = pool.ready.lock().unwrap_or_else(PoisonError::into_inner);
                        pool.ready_cv.notify_all();
                    }
                }
                return;
            }
            Polled::Yielded => {
                drop(slot);
                // Budget exhausted with input still queued: this thread
                // owns the task (RUNNING or RERUN), so parking it back to
                // IDLE and re-waking pushes it to the back of its tenant's
                // shard — the DRR rotor decides when it runs next. The
                // IDLE→READY winner is the only pusher, so the queue never
                // holds the index twice and no concurrent wake is lost.
                pool.states[i].store(T_IDLE, Ordering::Release);
                pool.wake(i);
                return;
            }
            Polled::Blocked => {
                drop(slot);
                match pool.states[i].compare_exchange(
                    T_RUNNING,
                    T_IDLE,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => return,
                    Err(_) => {
                        // A producer pushed mid-poll (RERUN): take the slot
                        // again so the wake is never lost.
                        pool.states[i].store(T_RUNNING, Ordering::Release);
                    }
                }
            }
        }
    }
}

/// Runs one ready task belonging to the helper's own tenant, of rank ≥
/// the helper's rank, if any is queued; returns whether an attempt was
/// made. Used by blocked producers to help instead of parking (the
/// consumer that would drain their full mailbox may otherwise never be
/// scheduled). The rank filter keeps nested inline polls strictly
/// downstream of every suspended frame (see [`PoolShared::rank`]); the
/// tenant filter keeps one tenant's suspended frames from interleaving
/// with another's (see [`PoolShared::tenant_of`]). Lower-ranked and
/// foreign-tenant tasks are left queued for the pool workers. Helping
/// recursion is bounded by the acyclic graph depth, and slot mutexes stay
/// uncontended because only claim winners lock them.
pub(super) fn run_one_ready(pool: &Arc<PoolShared>, helper_slot: usize) -> bool {
    let min_rank = pool.rank[helper_slot];
    let tenant = pool.tenant_of[helper_slot];
    let popped = {
        let mut q = pool.ready.lock().unwrap_or_else(PoisonError::into_inner);
        // Higher shards hold higher-ranked (more downstream) stages
        // (single-tenant; in tenant-sharded mode only one shard can match
        // the filter anyway), so scan back-to-front: the first eligible
        // task found is the one most likely to free mailbox space for the
        // blocked helper. Helping bypasses the DRR rotor by design — it
        // runs on the *blocked producer's* thread and only ever advances
        // the helper's own tenant, so co-tenants lose nothing.
        let popped = q.shards.iter_mut().rev().find_map(|shard| {
            shard
                .iter()
                .position(|&i| pool.tenant_of[i] == tenant && pool.rank[i] >= min_rank)
                .and_then(|pos| shard.remove(pos))
        });
        if popped.is_some() {
            pool.queued.fetch_sub(1, Ordering::Relaxed);
        }
        popped
    };
    match popped {
        Some(i) => {
            if pool.claim(i) {
                run_task(pool, i);
            }
            true
        }
        None => false,
    }
}

/// How long an idle worker spins on [`PoolShared::queued`] before it
/// parks: about what a park costs the other side (on a 2-core Xeon VM a
/// `notify_one` to a parked worker takes the waker ~2.3 µs, and the worker
/// runs ~2.6 µs later), so a task made ready within the window is run
/// without either cost. Of the windows tried (0, 2 and 5 µs), 2 µs held
/// `chain_saturate`'s throughput with the least spread and kept most of
/// `chain_paced`'s CPU saving (EXPERIMENTS.md, "Idle workers park").
const SPIN_BEFORE_PARK: Duration = Duration::from_micros(2);

/// A pool worker thread: pop ready tasks and run each until it blocks;
/// park on the condvar when the queue stays empty; exit when no live
/// tasks remain.
///
/// An empty queue first costs a spin of at most [`SPIN_BEFORE_PARK`] on
/// the queued-task count, with the lock released: a producer mid-burst
/// makes a task ready within microseconds, and catching it here saves the
/// park/notify pair. The spin makes no syscall, so it takes nothing from
/// the producer but the core; past the window the worker re-checks the
/// queue under the lock and parks, counted in `sleepers`, until a
/// [`PoolShared::wake`] sees it there and notifies.
pub(super) fn worker_loop(pool: &Arc<PoolShared>, home: usize) {
    loop {
        let next = {
            let mut q = pool.ready.lock().unwrap_or_else(PoisonError::into_inner);
            let mut spun = false;
            loop {
                if let Some(i) = q.pop(home) {
                    pool.queued.fetch_sub(1, Ordering::Relaxed);
                    break Some(i);
                }
                if pool.live.load(Ordering::Acquire) == 0 {
                    break None;
                }
                if !spun {
                    drop(q);
                    spin_for_work(pool);
                    spun = true;
                    q = pool.ready.lock().unwrap_or_else(PoisonError::into_inner);
                    continue;
                }
                q.sleepers += 1;
                q = pool
                    .ready_cv
                    .wait(q)
                    .unwrap_or_else(PoisonError::into_inner);
                q.sleepers -= 1;
            }
        };
        match next {
            Some(i) => {
                if pool.claim(i) {
                    run_task(pool, i);
                }
            }
            None => return,
        }
    }
}

/// Spins until a task is queued, the pool has finished, or
/// [`SPIN_BEFORE_PARK`] has passed. Reads only atomics and the vDSO clock:
/// no lock, no syscall.
fn spin_for_work(pool: &PoolShared) {
    let start = Instant::now();
    while pool.queued.load(Ordering::Relaxed) == 0
        && pool.live.load(Ordering::Relaxed) != 0
        && start.elapsed() < SPIN_BEFORE_PARK
    {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::{fast_cfg, pool_cfg, tenant_pipeline};
    use crate::engine::*;
    use crate::operator::Outputs;
    use crate::operators::PassThrough;
    use crate::{Behavior, Route, SourceConfig};
    use spinstreams_core::Tuple;

    #[test]
    fn sharded_pool_matches_unsharded_counts() {
        // Pinning with more workers than actors forces multiple ready-queue
        // shards (some permanently empty); stealing must still drain
        // every task and the run must finish with identical counts.
        let mut g = ActorGraph::new();
        let s = g.add_actor(
            "src",
            Behavior::Source(SourceConfig::new(f64::INFINITY, 1_000)),
        );
        let a = g.add_actor("a", Behavior::worker(PassThrough));
        let b = g.add_actor("b", Behavior::worker(PassThrough));
        let c = g.add_actor("c", Behavior::worker(PassThrough));
        g.connect(s, Route::Unicast(a));
        g.connect(a, Route::Unicast(b));
        g.connect(b, Route::Unicast(c));
        let cfg = EngineConfig {
            executor: ExecutorKind::Pool { workers: 8 },
            batch_size: 4,
            pinning: crate::affinity::PinningConfig::on_cores(vec![0]),
            ..fast_cfg()
        };
        let r = run(g, &cfg).unwrap();
        assert_eq!(r.actor(c).items_in, 1_000);
        assert_eq!(r.total_dropped(), 0);
    }

    #[test]
    fn uncontainable_failure_reports_actor_failed() {
        use crate::supervision::{Backoff, SupervisorSpec};
        // `reset` itself panics: supervision cannot contain that, but
        // `run` must return an error instead of panicking the caller.
        struct BrokenReset;
        impl crate::StreamOperator for BrokenReset {
            fn process(&mut self, _item: Tuple, _out: &mut Outputs) {
                panic!("process");
            }
            fn reset(&mut self) {
                panic!("reset is broken too");
            }
        }
        let mut g = ActorGraph::new();
        let s = g.add_actor(
            "src",
            Behavior::Source(SourceConfig::new(f64::INFINITY, 10)),
        );
        let w = g.add_actor("broken", Behavior::Worker(Box::new(BrokenReset)));
        g.connect(s, Route::Unicast(w));
        g.set_supervision(w, SupervisorSpec::restart(10, Backoff::none()));
        let err = run(g, &fast_cfg()).unwrap_err();
        match err {
            EngineError::ActorFailed { actor, reason } => {
                assert_eq!(actor, w);
                assert!(reason.contains("reset is broken"), "reason: {reason}");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn pool_executor_delivers_all_items_on_pipeline() {
        for workers in [1, 2, 4] {
            let mut g = ActorGraph::new();
            let s = g.add_actor(
                "src",
                Behavior::Source(SourceConfig::new(f64::INFINITY, 500)),
            );
            let w = g.add_actor("mid", Behavior::worker(PassThrough));
            let k = g.add_actor("sink", Behavior::worker(PassThrough));
            g.connect(s, Route::Unicast(w));
            g.connect(w, Route::Unicast(k));
            let r = run(g, &pool_cfg(workers)).unwrap();
            assert_eq!(r.actor(w).items_in, 500, "workers {workers}");
            assert_eq!(r.actor(k).items_in, 500, "workers {workers}");
            assert_eq!(r.total_dropped(), 0, "workers {workers}");
        }
    }

    #[test]
    fn pool_executor_handles_fan_in_with_fewer_workers_than_actors() {
        // Two sources fan into one merge (multi-producer mailbox), then a
        // sink: 4 actors on a single pool worker must still drain
        // everything via cooperative scheduling.
        let mut g = ActorGraph::new();
        let s0 = g.add_actor(
            "src0",
            Behavior::Source(SourceConfig::new(f64::INFINITY, 300)),
        );
        let s1 = g.add_actor(
            "src1",
            Behavior::Source(SourceConfig::new(f64::INFINITY, 300)),
        );
        let m = g.add_actor("merge", Behavior::worker(PassThrough));
        let k = g.add_actor("sink", Behavior::worker(PassThrough));
        g.connect(s0, Route::Unicast(m));
        g.connect(s1, Route::Unicast(m));
        g.connect(m, Route::Unicast(k));
        let r = run(g, &pool_cfg(1)).unwrap();
        assert_eq!(r.actor(m).items_in, 600);
        assert_eq!(r.actor(k).items_in, 600);
        assert_eq!(r.total_dropped(), 0);
    }

    #[test]
    fn pool_executor_backpressure_with_tiny_mailboxes() {
        // Capacity-2 mailboxes on a 3-stage pipeline under one worker:
        // every hop blocks constantly, exercising the help-don't-park
        // path of `Sender::send_batch` end to end.
        let mut g = ActorGraph::new();
        let s = g.add_actor(
            "src",
            Behavior::Source(SourceConfig::new(f64::INFINITY, 400)),
        );
        let a = g.add_actor("a", Behavior::worker(PassThrough));
        let b = g.add_actor("b", Behavior::worker(PassThrough));
        let k = g.add_actor("sink", Behavior::worker(PassThrough));
        g.connect(s, Route::Unicast(a));
        g.connect(a, Route::Unicast(b));
        g.connect(b, Route::Unicast(k));
        for id in [a, b, k] {
            g.set_mailbox_capacity(id, 2);
        }
        let r = run(g, &pool_cfg(1)).unwrap();
        assert_eq!(r.actor(k).items_in, 400);
        assert_eq!(r.total_dropped(), 0);
    }

    #[test]
    fn pool_uncontainable_failure_reports_actor_failed() {
        use crate::supervision::{Backoff, SupervisorSpec};
        // A panicking `reset` escapes `guarded_call` in the pool executor
        // too; the failure must surface as ActorFailed while every other
        // actor still shuts down cleanly (no hang).
        struct BrokenReset;
        impl crate::StreamOperator for BrokenReset {
            fn process(&mut self, _item: Tuple, _out: &mut Outputs) {
                panic!("process");
            }
            fn reset(&mut self) {
                panic!("reset is broken too");
            }
        }
        let mut g = ActorGraph::new();
        let s = g.add_actor(
            "src",
            Behavior::Source(SourceConfig::new(f64::INFINITY, 10)),
        );
        let w = g.add_actor("broken", Behavior::Worker(Box::new(BrokenReset)));
        g.connect(s, Route::Unicast(w));
        g.set_supervision(w, SupervisorSpec::restart(10, Backoff::none()));
        let err = run(g, &pool_cfg(2)).unwrap_err();
        match err {
            EngineError::ActorFailed { actor, reason } => {
                assert_eq!(actor, w);
                assert!(reason.contains("reset is broken"), "reason: {reason}");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn drr_serves_backlogged_tenants_by_weight() {
        // Two tenant shards with weights 1 and 3, both kept backlogged the
        // way `run_task` keeps a yielding task queued (pop, then re-wake).
        // Every rotor round serves one activation of tenant 0 and three of
        // tenant 1.
        let mut q = ReadyState::new(2, Some(vec![1, 3]));
        for k in 0..4 {
            q.enqueue(0, k);
            q.enqueue(1, 100 + k);
        }
        let mut served = Vec::new();
        for _ in 0..400 {
            let i = q.pop(0).expect("backlogged tenants always have work");
            let tenant = usize::from(i >= 100);
            served.push(tenant);
            q.enqueue(tenant, i);
        }
        assert_eq!(served[..8], [0, 1, 1, 1, 0, 1, 1, 1]);
        let pops = [0, 1].map(|t| served.iter().filter(|&&s| s == t).count());
        assert_eq!(pops, [100, 300], "weights 1:3 must give 1:3 of the pops");
    }

    #[test]
    fn drr_tenant_that_empties_forfeits_its_credit() {
        let mut q = ReadyState::new(2, Some(vec![1, 3]));
        // Tenant 1 has one task: it spends one of its three activations
        // and empties, forfeiting the other two.
        q.enqueue(1, 100);
        assert_eq!(q.pop(0), Some(100));
        let drr = q.drr.as_ref().unwrap();
        assert_eq!(drr.deficit[1], 0, "an emptied tenant keeps no credit");
        assert!(!drr.in_active[1] && drr.active.is_empty());
        // Back-logged again behind tenant 0, it gets a fresh quantum of
        // three — not three plus the two it forfeited.
        q.enqueue(0, 0);
        q.enqueue(0, 1);
        for k in 101..107 {
            q.enqueue(1, k);
        }
        let order: Vec<usize> = std::iter::from_fn(|| q.pop(0)).collect();
        assert_eq!(order, [0, 101, 102, 103, 1, 104, 105, 106]);
    }

    /// Polls `done` until it holds or `deadline` passes; panics on a hang
    /// instead of stalling the test binary.
    fn within(deadline: Duration, what: &str, mut done: impl FnMut() -> bool) {
        let until = Instant::now() + deadline;
        while !done() {
            assert!(
                Instant::now() < until,
                "{what} took longer than {deadline:?}"
            );
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    #[test]
    fn wake_notifies_only_a_parked_worker() {
        // Two task slots with nothing stored: a claimed empty slot runs as
        // `Finished`, so a task "runs" by reaching DONE and counting down
        // `live`.
        let ledger = Arc::new(TenantLedger::new(&[2], Instant::now()));
        let pool = Arc::new(PoolShared::new(vec![0, 1], vec![0, 0], 1, None, ledger));
        pool.live.store(2, Ordering::Release);
        let sleepers = |pool: &PoolShared| pool.ready.lock().unwrap().sleepers;

        // No worker exists, so none is parked: the wake only enqueues.
        pool.wake(0);
        assert_eq!(pool.notifies.load(Ordering::Relaxed), 0);

        // The worker runs task 0, finds the queue empty, spins and parks.
        let worker = {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || worker_loop(&pool, 0))
        };
        within(Duration::from_secs(30), "parking", || sleepers(&pool) == 1);
        assert_eq!(pool.states[0].load(Ordering::Acquire), T_DONE);
        assert_eq!(pool.notifies.load(Ordering::Relaxed), 0);

        // One wake of a parked worker: exactly one notify, and task 1 runs.
        pool.wake(1);
        within(Duration::from_secs(30), "worker exit", || {
            worker.is_finished()
        });
        worker.join().unwrap();
        assert_eq!(pool.notifies.load(Ordering::Relaxed), 1);
        assert_eq!(pool.states[1].load(Ordering::Acquire), T_DONE);
        assert_eq!(pool.live.load(Ordering::Acquire), 0);
    }

    #[test]
    fn no_wakeup_is_lost_when_workers_park_between_items() {
        // A lost wake leaves a task queued behind a parked worker: later
        // wakes of that READY task push nothing, so the run hangs on EOS.
        // Each run is joined against a deadline so a hang fails the test.
        fn run_within(g: ActorGraph, cfg: EngineConfig, what: &str) -> RunReport {
            let handle = std::thread::spawn(move || run(g, &cfg).unwrap());
            within(Duration::from_secs(30), what, || handle.is_finished());
            handle.join().unwrap()
        }
        for workers in [1, 2] {
            // Paced at batch 1. At 20 k/s every item is its own burst: the
            // worker drains, spins past its window and parks between items,
            // so every wake finds a parked worker. At 200 k/s the source's
            // sleeps batch items into bursts, so wakes also land while the
            // worker runs or spins, just before it parks. The mailboxes hold
            // the whole stream, so the source never blocks and never helps:
            // a lost wake is not rescued by helping and hangs the run.
            for rate in [20_000.0, 200_000.0] {
                let mut g = ActorGraph::new();
                let s = g.add_actor("src", Behavior::Source(SourceConfig::new(rate, 2_000)));
                let a = g.add_actor("a", Behavior::worker(PassThrough));
                let k = g.add_actor("sink", Behavior::worker(PassThrough));
                g.connect(s, Route::Unicast(a));
                g.connect(a, Route::Unicast(k));
                for id in [a, k] {
                    g.set_mailbox_capacity(id, 4_096);
                }
                let cfg = EngineConfig {
                    batch_size: 1,
                    ..pool_cfg(workers)
                };
                let what = format!("paced at {rate}/s, pool-{workers}");
                let r = run_within(g, cfg, &what);
                assert_eq!(r.actor(k).items_in, 2_000, "{what}");
                assert_eq!(r.total_dropped(), 0, "{what}");
            }

            // Unpaced into 2-slot mailboxes: producers block, help and
            // wake consumers constantly.
            let mut g = ActorGraph::new();
            let s = g.add_actor(
                "src",
                Behavior::Source(SourceConfig::new(f64::INFINITY, 2_000)),
            );
            let a = g.add_actor("a", Behavior::worker(PassThrough));
            let k = g.add_actor("sink", Behavior::worker(PassThrough));
            g.connect(s, Route::Unicast(a));
            g.connect(a, Route::Unicast(k));
            for id in [a, k] {
                g.set_mailbox_capacity(id, 2);
            }
            let r = run_within(
                g,
                pool_cfg(workers),
                &format!("unpaced run on pool-{workers}"),
            );
            assert_eq!(r.actor(k).items_in, 2_000, "unpaced, pool-{workers}");
            assert_eq!(r.total_dropped(), 0, "unpaced, pool-{workers}");
        }
    }

    #[test]
    fn weighted_tenants_all_complete_under_one_worker() {
        // One pool worker serving three backlogged tenants with unequal
        // weights: DRR must still drain everyone (no starvation).
        let tenants = vec![
            TenantSpec::new("light", tenant_pipeline(200)).with_weight(1),
            TenantSpec::new("mid", tenant_pipeline(400)).with_weight(2),
            TenantSpec::new("heavy", tenant_pipeline(800)).with_weight(4),
        ];
        let cfg = EngineConfig {
            executor: ExecutorKind::Pool { workers: 1 },
            batch_size: 4,
            ..fast_cfg()
        };
        let runs = run_tenants(tenants, &cfg).unwrap();
        for (run, expect) in runs.iter().zip([200u64, 400, 800]) {
            assert_eq!(
                run.report.actor(ActorId(2)).items_in,
                expect,
                "{}",
                run.name
            );
        }
    }
}
