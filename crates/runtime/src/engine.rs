//! The execution engine: bounded BAS mailboxes, run-to-completion with
//! end-of-stream propagation, and per-actor supervision of panicking
//! operators (see [`crate::supervision`]).
//!
//! Two executors are available (see [`ExecutorKind`]): the classic
//! thread-per-actor configuration of §5.1, and a fixed-size cooperative
//! worker pool that multiplexes ready actors over a handful of OS threads —
//! the SS2Akka decoupling of logical operators from runtime executors (§4),
//! which keeps fission-inflated graphs from oversubscribing cores.

use crate::affinity::{pin_current_thread, PinningConfig};
use crate::checkpoint::{CheckpointCoordinator, ReplayBuffer, StateSnapshot};
use crate::graph::{ActorGraph, ActorSpec, Behavior, SourceConfig};
use crate::mailbox::{
    channel, channel_spsc, BatchFailure, BatchOutcome, BatchPool, DepthProbe, Envelope, RecvBatch,
    SendOutcome, Sender, TryRecvBatch, TrySend,
};
use crate::metrics::{ActorMetrics, RunReport};
use crate::operator::{Outputs, DEFAULT_PORT};
use crate::reconfig::{ReconfigOp, ReconfigTaskState};
use crate::rng::XorShift64;
use crate::route::{Route, RouteState};
use crate::supervision::{
    DeadLetter, DeadLetterLog, DeadLetterReason, DegradePolicy, OperatorFactory, RestartPolicy,
    SupervisionPolicy, SupervisorSpec,
};
use crate::telemetry::{
    HubActor, LatencyHistogram, RawCounters, TelemetryConfig, TelemetryHub, TelemetryReport,
    TraceEventKind, TraceLog,
};
use crate::ActorId;
use spinstreams_core::{Tuple, TUPLE_ARITY};
use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, Once, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// Which executor runs the actor graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutorKind {
    /// One dedicated OS thread per actor — the §5.1 configuration ("each
    /// actor is associated with a dedicated thread"). The default.
    ThreadPerActor,
    /// A fixed-size cooperative worker pool: sources keep dedicated
    /// threads (they pace wall-clock emission schedules), while worker
    /// actors are multiplexed over `workers` OS threads with a
    /// run-until-blocked scheduling loop. Post-fission graphs with dozens
    /// of actors then run on a handful of cores without context-switch
    /// thrash.
    Pool {
        /// Worker thread count; `0` means
        /// [`std::thread::available_parallelism`].
        workers: usize,
    },
}

impl ExecutorKind {
    /// Resolves the configured worker count for [`ExecutorKind::Pool`]
    /// (`0` → available parallelism), or `None` for thread-per-actor.
    pub fn pool_workers(self) -> Option<usize> {
        match self {
            ExecutorKind::ThreadPerActor => None,
            ExecutorKind::Pool { workers: 0 } => Some(
                thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(1),
            ),
            ExecutorKind::Pool { workers } => Some(workers),
        }
    }
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Default mailbox capacity (overridable per actor in the graph).
    pub mailbox_capacity: usize,
    /// BAS send timeout after which an item is dropped. §5.1 sets this
    /// "significantly higher than the maximum operators' service time"
    /// (5 s there) so that nothing is dropped.
    pub send_timeout: Duration,
    /// Base RNG seed; actor `i` uses `seed + i` so runs are reproducible.
    pub seed: u64,
    /// Number of individual [`DeadLetter`] entries retained in the run
    /// report's log; totals stay exact past the cap.
    pub dead_letter_capacity: usize,
    /// Envelopes coalesced per destination before a mailbox handoff.
    ///
    /// `1` (the default) is the classic one-envelope-per-send path and is
    /// behaviorally identical to the unbatched engine. Larger values
    /// amortize one lock acquisition and condvar notify over the whole
    /// batch, trading a bounded amount of per-tuple latency for
    /// throughput. Values of `0` are treated as `1`.
    pub batch_size: usize,
    /// Deadline for coalesced output: a paced source flushes its buffers
    /// before sleeping if they have been held at least this long, so slow
    /// streams never stall behind an unfilled batch. Irrelevant at
    /// `batch_size = 1`.
    pub flush_interval: Duration,
    /// Which executor runs the graph (thread-per-actor by default).
    pub executor: ExecutorKind,
    /// Epoch-aligned checkpointing: every source injects a numbered epoch
    /// marker after each `n` emitted items, workers align on the markers
    /// (Chandy–Lamport-style barriers), snapshot their operator state via
    /// [`crate::StreamOperator::snapshot`], and ack a shared
    /// [`CheckpointCoordinator`]. On a supervised `Restart` the actor then
    /// recovers by restoring its last snapshot and replaying the logged
    /// post-snapshot input, instead of resetting to empty. `None` (the
    /// default, also `Some(0)`) disables the whole layer — the hot path is
    /// unchanged.
    pub checkpoint_interval: Option<u64>,
    /// Capacity (tuples) of each actor's bounded replay buffer — the input
    /// log replayed after restore. On overflow the buffer is invalidated
    /// until the next completed snapshot and recovery degrades to plain
    /// reset; overflows are counted in the report. Irrelevant with
    /// `checkpoint_interval = None`.
    pub replay_capacity: usize,
    /// CPU affinity for the engine's threads (disabled by default).
    ///
    /// When a core list is given, actors are *sharded by topological
    /// stage*: every actor's Kahn rank is mapped onto a contiguous band of
    /// the list, so pipeline neighbours land on nearby cores and a stage's
    /// working set stays in one cache domain. Thread-per-actor pins each
    /// actor thread to its band's core; the pool executor pins worker `w`
    /// to `cores[w % len]`, pins source threads round-robin, and splits its
    /// ready queue into per-core shards (workers drain their own shard
    /// first, then steal). On platforms without affinity support pinning
    /// degrades to a warn-once no-op and the run proceeds unpinned.
    pub pinning: PinningConfig,
    /// Live reconfiguration handle. When installed, every actor checks a
    /// shared generation counter once per batch and applies posted
    /// [`crate::ReconfigOp`]s at epoch barriers — route swaps, replica
    /// rescaling over pre-provisioned slots, and pause–drain–resume key
    /// handoffs (see [`crate::reconfig`]). Epoch-gated ops require
    /// checkpointing to be enabled (`checkpoint_interval`); without
    /// barriers they never fire. `None` (the default) keeps the hot path
    /// unchanged.
    pub reconfig: Option<crate::reconfig::ReconfigHandle>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            mailbox_capacity: 256,
            send_timeout: Duration::from_secs(5),
            seed: 0xC0FFEE,
            dead_letter_capacity: 4096,
            batch_size: 1,
            flush_interval: Duration::from_millis(1),
            executor: ExecutorKind::ThreadPerActor,
            checkpoint_interval: None,
            replay_capacity: 8192,
            pinning: PinningConfig::default(),
            reconfig: None,
        }
    }
}

impl EngineConfig {
    /// Resolves the pool worker count like [`ExecutorKind::pool_workers`],
    /// except that `Pool { workers: 0 }` ("one per core") combined with a
    /// pinned core list means one worker per *pinned* core — the threads
    /// are confined to that set, so sizing the pool by total machine
    /// parallelism would oversubscribe the allowed cores.
    pub fn resolved_pool_workers(&self) -> Option<usize> {
        match self.executor {
            ExecutorKind::Pool { workers: 0 } if !self.pinning.cores.is_empty() => {
                Some(self.pinning.cores.len())
            }
            other => other.pool_workers(),
        }
    }
}

/// Structural problems that prevent executing an actor graph.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum EngineError {
    /// The graph has no actors.
    NoActors,
    /// The graph has no source actor.
    NoSource,
    /// A route references an actor id that does not exist.
    UnknownDestination {
        /// The actor owning the route.
        from: ActorId,
        /// The bad destination.
        to: ActorId,
    },
    /// A route targets a source actor (sources have no mailbox).
    RouteToSource {
        /// The actor owning the route.
        from: ActorId,
        /// The targeted source.
        to: ActorId,
    },
    /// A route is structurally invalid (empty destination list, probability
    /// mass far from 1, key map referencing a missing replica, …).
    InvalidRoute {
        /// The actor owning the route.
        from: ActorId,
        /// Description of the problem.
        reason: String,
    },
    /// The actor graph contains a cycle; BAS blocking could deadlock.
    Cyclic,
    /// An actor thread died in a way supervision could not contain (for
    /// example a panic inside a restart hook). [`run`] reports this
    /// instead of panicking the caller.
    ActorFailed {
        /// The actor whose thread died.
        actor: ActorId,
        /// The panic message, as far as it could be extracted.
        reason: String,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::NoActors => write!(f, "actor graph has no actors"),
            EngineError::NoSource => write!(f, "actor graph has no source actor"),
            EngineError::UnknownDestination { from, to } => {
                write!(f, "{from} routes to unknown {to}")
            }
            EngineError::RouteToSource { from, to } => {
                write!(f, "{from} routes to source actor {to}")
            }
            EngineError::InvalidRoute { from, reason } => {
                write!(f, "invalid route on {from}: {reason}")
            }
            EngineError::Cyclic => write!(f, "actor graph contains a cycle"),
            EngineError::ActorFailed { actor, reason } => {
                write!(f, "{actor} failed: {reason}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// Validates the actor graph (see [`EngineError`] variants).
pub(crate) fn validate(actors: &[ActorSpec]) -> Result<(), EngineError> {
    if actors.is_empty() {
        return Err(EngineError::NoActors);
    }
    if !actors.iter().any(|a| a.behavior.is_source()) {
        return Err(EngineError::NoSource);
    }
    let n = actors.len();
    for (i, spec) in actors.iter().enumerate() {
        let from = ActorId(i);
        for route in &spec.routes {
            let mut dests = route.destinations_iter().peekable();
            if dests.peek().is_none() {
                return Err(EngineError::InvalidRoute {
                    from,
                    reason: "route has no destinations".into(),
                });
            }
            for d in dests {
                if d.0 >= n {
                    return Err(EngineError::UnknownDestination { from, to: d });
                }
                if actors[d.0].behavior.is_source() {
                    return Err(EngineError::RouteToSource { from, to: d });
                }
            }
            match route {
                Route::Probabilistic { choices } => {
                    let sum: f64 = choices.iter().map(|(_, p)| *p).sum();
                    if (sum - 1.0).abs() > 1e-6 || choices.iter().any(|(_, p)| *p < 0.0) {
                        return Err(EngineError::InvalidRoute {
                            from,
                            reason: format!("probabilities sum to {sum}"),
                        });
                    }
                }
                Route::KeyMap {
                    key_map,
                    destinations,
                } => {
                    if key_map.is_empty() {
                        return Err(EngineError::InvalidRoute {
                            from,
                            reason: "empty key map".into(),
                        });
                    }
                    if key_map.iter().any(|r| *r >= destinations.len()) {
                        return Err(EngineError::InvalidRoute {
                            from,
                            reason: "key map references missing replica".into(),
                        });
                    }
                }
                _ => {}
            }
        }
    }
    // Acyclicity (actor-level): BAS blocking on a cycle can deadlock.
    let succ: Vec<Vec<usize>> = actors
        .iter()
        .map(|a| {
            let mut s: Vec<usize> = a
                .routes
                .iter()
                .flat_map(|r| r.destinations_iter())
                .map(|d| d.0)
                .collect();
            s.sort_unstable();
            s.dedup();
            s
        })
        .collect();
    if !spinstreams_core::is_acyclic(n, &succ) {
        return Err(EngineError::Cyclic);
    }
    Ok(())
}

/// Shared per-thread context for delivering outputs.
struct DeliveryCtx {
    id: ActorId,
    senders: Vec<Option<Sender>>,
    routes: Vec<RouteState>,
    eos_targets: Vec<usize>,
    rng: XorShift64,
    metrics: Arc<ActorMetrics>,
    started_at: Instant,
    send_timeout: Duration,
    /// This actor's private dead-letter log: nothing shared sits on the
    /// send path. Per-actor logs are merged into the run report (in actor
    /// id order) at shutdown; the per-actor `dead_letters` metric keeps
    /// `total_dead_letters()` exact regardless of entry caps.
    dead_letters: DeadLetterLog,
    /// Present only with telemetry enabled on a sink actor: records
    /// end-to-end latency of every tuple consumed at a sink port.
    latency: Option<Arc<LatencyHistogram>>,
    /// Present only with telemetry enabled: structured lifecycle events.
    trace: Option<Arc<TraceLog>>,
    /// Stamp source emissions with their departure time (telemetry on).
    stamp: bool,
    /// Envelopes coalesced per destination before a mailbox handoff.
    batch_size: usize,
    /// Deadline after which a paced source flushes an unfilled batch.
    flush_interval: Duration,
    /// Per-destination coalescing buffers (indexed by actor id; only the
    /// slots of reachable destinations are ever used). Reachable slots are
    /// checked out of `buf_pool` pre-sized to the batch limit, so the
    /// steady-state send path never grows them.
    out_bufs: Vec<Vec<Envelope>>,
    /// The run-wide buffer slab `out_bufs` was drawn from; buffers go back
    /// to it in [`release_buffers`](Self::release_buffers) at actor finish.
    buf_pool: Arc<BatchPool>,
    /// Total envelopes currently coalesced across all buffers.
    buffered: usize,
    /// When a source last drained its coalescing buffers (deadline
    /// policy). Only sources consult it, so only they refresh it: workers
    /// flush after every drained input batch and never read the clock for it.
    last_flush: Instant,
    /// Clock reading taken once per drained input batch (worker actors
    /// only; `0` = never refreshed). Sink-port latency/departure stamping
    /// uses this instead of one `Instant::now()` per envelope, bounding
    /// the stamp skew to one batch.
    cached_now_ns: u64,
    /// Sink-port departures accumulated since the last flush. All share
    /// the batch-cached clock reading, so they fold into one metrics
    /// update in [`flush_all`](Self::flush_all) instead of one RMW per
    /// consumed tuple.
    pending_sink_outs: u64,
    /// Run-length latency coalescing for the sink histogram: the current
    /// run's observed latency and its repeat count. Source stamps are
    /// batch-granular and the sink clock is batch-cached, so consecutive
    /// tuples usually observe the *same* latency — folding a run into one
    /// `record_n` replaces four shared-atomic RMWs per consumed tuple
    /// with four per distinct value.
    pending_lat_ns: u64,
    pending_lat_n: u64,
    /// Present only under the pool executor: lets a blocked flush run
    /// other ready actors instead of parking its worker thread.
    pool: Option<Arc<PoolShared>>,
    /// This actor's slot in the (possibly multi-tenant) pool: its tenant
    /// base offset plus its local actor id. Single-tenant runs have base
    /// 0, so slot == actor id. Only meaningful when `pool` is `Some`.
    pool_slot: usize,
    /// Span-sampling mask (telemetry on, `span_sample > 0`): a data tuple
    /// is flight-recorded at every hop iff `seq & mask == 0`. `None`
    /// disables span tracing so the hot path never tests per-tuple.
    span_mask: Option<u64>,
    /// Epoch-marker interval (sources inject one marker per `n` emitted
    /// items); `None` disables checkpointing for the whole run.
    checkpoint_interval: Option<u64>,
    /// Shared checkpoint ack ledger, present only with checkpointing on.
    coordinator: Option<Arc<CheckpointCoordinator>>,
}

impl DeliveryCtx {
    fn now_ns(&self) -> u64 {
        self.started_at.elapsed().as_nanos() as u64
    }

    /// Re-reads the clock into the per-batch cache. Called once per
    /// drained input batch, not per envelope.
    fn refresh_now(&mut self) {
        self.cached_now_ns = self.now_ns();
    }

    /// The batch-cached clock for sink-port stamping; falls back to a
    /// fresh read on actors that never refresh (sources, whose emission
    /// times *are* the measurement).
    fn sink_now(&self) -> u64 {
        if self.cached_now_ns != 0 {
            self.cached_now_ns
        } else {
            self.now_ns()
        }
    }

    /// Hands every checked-out coalescing buffer back to the run-wide
    /// [`BatchPool`]. Called exactly once, after the actor's terminal
    /// flush: the capacity this actor no longer needs is then reused by
    /// whoever allocates next instead of sitting dead until shutdown.
    fn release_buffers(&mut self) {
        let bufs = std::mem::take(&mut self.out_bufs);
        for buf in bufs {
            if buf.capacity() > 0 {
                self.buf_pool.give(buf);
            }
        }
    }

    /// Records a lifecycle trace event, if tracing is enabled.
    fn trace_event(&self, kind: TraceEventKind) {
        if let Some(trace) = &self.trace {
            trace.record(self.now_ns(), self.id, kind);
        }
    }

    /// Records `tuple` as undeliverable in this actor's private log — no
    /// shared lock on the send path. The per-actor logs are merged into
    /// the [`RunReport`] in actor-id order at shutdown; the per-actor
    /// `dead_letters` metric keeps `total_dead_letters()` exact even when
    /// the merged log's capacity truncates entries.
    fn dead_letter(
        &mut self,
        destination: Option<ActorId>,
        reason: DeadLetterReason,
        tuple: &Tuple,
    ) {
        self.dead_letter_msg(destination, reason, tuple, None);
    }

    /// Like [`dead_letter`](Self::dead_letter), carrying the panic payload
    /// message when the item was consumed by a caught panic — chaos runs
    /// can then assert *which* fault fired, not just that one did.
    fn dead_letter_msg(
        &mut self,
        destination: Option<ActorId>,
        reason: DeadLetterReason,
        tuple: &Tuple,
        message: Option<String>,
    ) {
        use std::sync::atomic::Ordering;
        self.metrics.dead_letters.fetch_add(1, Ordering::Relaxed);
        self.trace_event(TraceEventKind::DeadLetter { reason });
        self.dead_letters.push(DeadLetter {
            source: self.id,
            destination,
            reason,
            key: tuple.key,
            seq: tuple.seq,
            message,
        });
    }

    /// Routes everything in `out` into the per-destination coalescing
    /// buffers; a buffer reaching `batch_size` is handed to the mailbox
    /// immediately. With `batch_size = 1` every envelope flushes as it is
    /// buffered, reproducing the unbatched engine exactly.
    fn deliver(&mut self, out: &mut Outputs) {
        for (port, tuple) in out.drain() {
            self.deliver_one(port, tuple);
        }
    }

    /// Routes a single `(port, tuple)` emission — the per-item body of
    /// [`deliver`](Self::deliver), split out so the reconfiguration layer's
    /// pause interception can route the non-paused remainder item by item.
    #[inline]
    fn deliver_one(&mut self, port: usize, tuple: Tuple) {
        match self.routes.get_mut(port) {
            Some(route) => {
                let dest = route.pick(&tuple, &mut self.rng).0;
                self.out_bufs[dest].push(Envelope::Data(tuple));
                self.buffered += 1;
                if self.out_bufs[dest].len() >= self.batch_size {
                    self.flush_dest(dest);
                }
            }
            None => {
                // Sink port: the emission is the actor's departure —
                // and, with telemetry on, the end of the tuple's
                // end-to-end latency span. Never coalesced: there is
                // no mailbox hop to amortize. Workers stamp with the
                // batch-cached clock (one read per drained batch).
                if self.latency.is_some() {
                    if let Some(lat) = tuple.latency_ns(self.sink_now()) {
                        if self.pending_lat_n > 0 && lat == self.pending_lat_ns {
                            self.pending_lat_n += 1;
                        } else {
                            self.flush_latency();
                            self.pending_lat_ns = lat;
                            self.pending_lat_n = 1;
                        }
                    }
                }
                self.pending_sink_outs += 1;
            }
        }
    }

    /// Hands one destination's coalesced envelopes to its mailbox in a
    /// single batched send, with per-envelope accounting: delivered
    /// envelopes count as departures, undelivered ones dead-letter
    /// individually (partial delivery stops at the first timed-out slot).
    fn flush_dest(&mut self, dest: usize) {
        use std::sync::atomic::Ordering;
        let mut buf = std::mem::take(&mut self.out_bufs[dest]);
        if buf.is_empty() {
            self.out_bufs[dest] = buf;
            return;
        }
        self.buffered -= buf.len();
        let sender = self.senders[dest]
            .as_ref()
            .expect("validated destination has a mailbox");
        let outcome = match &self.pool {
            // Pooled actors must not park their worker thread while a
            // downstream mailbox is full — the consumer that would drain it
            // may be waiting for this very thread. Help run ready actors
            // instead of sleeping.
            Some(pool) => {
                let pool = Arc::clone(pool);
                pool_send_batch(&pool, sender, &mut buf, self.send_timeout, self.pool_slot)
            }
            None => sender.send_batch(&mut buf, self.send_timeout),
        };
        if outcome.blocked > Duration::ZERO {
            let ns = outcome.blocked.as_nanos() as u64;
            self.metrics.blocked_ns.fetch_add(ns, Ordering::Relaxed);
            // Charge the stall to the *receiving* mailbox as well: the
            // receiver-edge view ("how long did producers stall on my
            // inbox") is what the bottleneck attribution joins against.
            sender.add_stall_ns(ns);
            self.trace_event(TraceEventKind::Blocked { ns });
        }
        if outcome.delivered > 0 {
            self.metrics
                .record_out_n(self.now_ns(), outcome.delivered as u64);
        }
        if let Some(failure) = outcome.failure {
            let reason = match failure {
                BatchFailure::TimedOut => DeadLetterReason::SendTimeout,
                BatchFailure::Disconnected => DeadLetterReason::Disconnected,
            };
            for env in buf.drain(..) {
                if let Envelope::Data(tuple) = env {
                    self.metrics.dropped.fetch_add(1, Ordering::Relaxed);
                    self.dead_letter(Some(ActorId(dest)), reason, &tuple);
                }
            }
        }
        buf.clear();
        // Hand the (empty) buffer back so its allocation is reused.
        self.out_bufs[dest] = buf;
    }

    /// Drains every coalescing buffer. Called after each processed input
    /// batch, before EOS propagation, and on supervision events, so
    /// nothing ever sits buffered across a restart, a backoff sleep, or
    /// shutdown.
    fn flush_all(&mut self) {
        if self.pending_sink_outs > 0 {
            self.metrics
                .record_out_n(self.sink_now(), self.pending_sink_outs);
            self.pending_sink_outs = 0;
        }
        self.flush_latency();
        if self.buffered > 0 {
            for dest in 0..self.out_bufs.len() {
                if !self.out_bufs[dest].is_empty() {
                    self.flush_dest(dest);
                }
            }
        }
    }

    /// Folds the current latency run into the shared sink histogram.
    fn flush_latency(&mut self) {
        if self.pending_lat_n > 0 {
            if let Some(hist) = &self.latency {
                hist.record_n(self.pending_lat_ns, self.pending_lat_n);
            }
            self.pending_lat_n = 0;
        }
    }

    /// Deadline policy for paced sources: flush unfilled batches before
    /// sleeping until `wake_at` if they would otherwise be held past
    /// `flush_interval`, so a slow stream never stalls behind coalescing.
    fn flush_before_sleep(&mut self, wake_at: Instant) {
        if self.batch_size > 1
            && self.buffered > 0
            && wake_at.saturating_duration_since(self.last_flush) >= self.flush_interval
        {
            self.flush_all();
            self.last_flush = Instant::now();
        }
    }

    /// Sends one EOS to every possible destination; EOS is never dropped.
    fn propagate_eos(&mut self) {
        // Coalesced data must drain before EOS: a worker counts EOS
        // markers to terminate, and FIFO order is only meaningful if every
        // buffered envelope precedes the marker in the mailbox.
        self.flush_all();
        for &d in &self.eos_targets {
            if let Some(sender) = &self.senders[d] {
                match &self.pool {
                    // Pooled: keep running ready actors while the target
                    // mailbox is full, falling back to short bounded
                    // blocking slices when nothing is runnable.
                    Some(pool) => {
                        let pool = Arc::clone(pool);
                        loop {
                            match sender.try_send(Envelope::Eos) {
                                TrySend::Sent | TrySend::Disconnected => break,
                                TrySend::Full => {
                                    if !run_one_ready(&pool, self.pool_slot) {
                                        let out =
                                            sender.send(Envelope::Eos, Duration::from_millis(1));
                                        if out.delivered() || out == SendOutcome::Disconnected {
                                            break;
                                        }
                                    }
                                }
                            }
                        }
                    }
                    None => {
                        // EOS must never be dropped: retry until delivered
                        // (or the receiver is gone).
                        while sender.send(Envelope::Eos, Duration::from_secs(3600))
                            == SendOutcome::TimedOut
                        {}
                    }
                }
            }
        }
        // Release all senders so downstream disconnect detection works.
        for s in self.senders.iter_mut() {
            *s = None;
        }
    }

    /// Sends one epoch marker to every destination (the same fan-out as
    /// EOS — markers, unlike routed data, must reach every downstream
    /// actor). Markers are never dropped: they pace the whole barrier
    /// protocol, so a lost marker would stall alignment forever. Coalesced
    /// data drains first — FIFO order is what makes the marker a barrier.
    fn broadcast_marker(&mut self, epoch: u64) {
        self.flush_all();
        for &d in &self.eos_targets {
            if let Some(sender) = &self.senders[d] {
                match &self.pool {
                    // Pooled: help run ready actors while the target
                    // mailbox is full (same discipline as EOS).
                    Some(pool) => {
                        let pool = Arc::clone(pool);
                        loop {
                            match sender.try_send(Envelope::Epoch(epoch)) {
                                TrySend::Sent | TrySend::Disconnected => break,
                                TrySend::Full => {
                                    if !run_one_ready(&pool, self.pool_slot) {
                                        let out = sender
                                            .send(Envelope::Epoch(epoch), Duration::from_millis(1));
                                        if out.delivered() || out == SendOutcome::Disconnected {
                                            break;
                                        }
                                    }
                                }
                            }
                        }
                    }
                    None => {
                        while sender.send(Envelope::Epoch(epoch), Duration::from_secs(3600))
                            == SendOutcome::TimedOut
                        {}
                    }
                }
            }
        }
    }
}

/// How far behind its schedule a paced source may fall before it re-bases:
/// beyond this the lag is backpressure, not timer jitter, and the source
/// resumes the nominal pace from now rather than bursting to catch up.
const REBASE_AFTER: Duration = Duration::from_millis(50);

/// Emissions of a paced source that are due at `now`, at most `cap`.
/// Advances the absolute schedule `next_t` (the slot of the next emission)
/// past them, so the source is never ahead of it; `0` means the next slot
/// is still in the future. A source more than [`REBASE_AFTER`] behind after
/// the burst re-bases its schedule at `now`.
fn due_emissions(next_t: &mut Instant, now: Instant, period: Duration, cap: u64) -> u64 {
    if now < *next_t {
        return 0;
    }
    let period_ns = period.as_nanos() as u64;
    let behind_ns = (now - *next_t).as_nanos() as u64;
    let due = behind_ns
        .checked_div(period_ns)
        .map_or(cap, |late| late.saturating_add(1).min(cap));
    *next_t += Duration::from_nanos(period_ns * due);
    if now > *next_t + REBASE_AFTER {
        *next_t = now;
    }
    due
}

/// Runs a source actor to completion on the calling thread, returning its
/// private dead-letter log for the shutdown merge.
///
/// The source emits in bursts of at most `batch_size` tuples, cut at every
/// checkpoint-marker boundary. A paced source reads the clock once per
/// burst to learn how many emissions are due (see [`due_emissions`]) and
/// sleeps only when none is, flushing a batch held past the deadline
/// first; inside a burst there is no clock read and no sleep check.
fn run_source(cfg: SourceConfig, mut ctx: DeliveryCtx) -> DeadLetterLog {
    ctx.trace_event(TraceEventKind::ActorStarted);
    let mut rng = XorShift64::new(cfg.seed);
    let period = if cfg.rate.is_finite() {
        Some(Duration::from_secs_f64(1.0 / cfg.rate))
    } else {
        None
    };
    let burst_cap = ctx.batch_size.max(1) as u64;
    let mut next_t = Instant::now();
    let mut seq = 0u64;
    while seq < cfg.count {
        let mut burst = burst_cap.min(cfg.count - seq);
        if let Some(interval) = ctx.checkpoint_interval {
            burst = burst.min(interval - seq % interval);
        }
        if let Some(p) = period {
            burst = due_emissions(&mut next_t, Instant::now(), p, burst);
            if burst == 0 {
                ctx.flush_before_sleep(next_t);
                thread::sleep(next_t.saturating_duration_since(Instant::now()));
                continue;
            }
        }
        // Departure stamping (telemetry on): a paced source stamps each
        // tuple with a fresh reading — the emission time *is* the
        // measurement. An unpaced source saturates the pipeline, where one
        // `clock_gettime` per tuple is a measurable tax; it stamps the
        // whole burst with one reading, bounding the skew to one batch —
        // the same bound the sink side accepts for latency termination.
        let burst_stamp_ns = if ctx.stamp && period.is_none() {
            ctx.now_ns()
        } else {
            0
        };
        for seq in seq..seq + burst {
            let key = match &cfg.keys {
                Some(dist) => dist.sample(rng.next_f64()) as u64,
                None => seq,
            };
            let mut values = [0.0f64; TUPLE_ARITY];
            for v in values.iter_mut() {
                *v = rng.next_f64();
            }
            let tuple = Tuple::new(key, seq, values);
            let tuple = match (ctx.stamp, period) {
                (false, _) => tuple,
                (true, Some(_)) => tuple.stamped(ctx.now_ns()),
                (true, None) => tuple.stamped(burst_stamp_ns),
            };
            ctx.deliver_one(DEFAULT_PORT, tuple);
        }
        seq += burst;
        // Epoch injection: one numbered marker per `interval` emitted
        // items. The source has no state to snapshot — injecting *is* its
        // part of the barrier — so it acks the coordinator immediately.
        if let Some(interval) = ctx.checkpoint_interval {
            if seq.is_multiple_of(interval) {
                let epoch = seq / interval;
                // The broadcast drained every buffer: restart the deadline.
                ctx.broadcast_marker(epoch);
                ctx.last_flush = Instant::now();
                if let Some(c) = &ctx.coordinator {
                    c.ack(ctx.id.0, epoch);
                }
                ctx.trace_event(TraceEventKind::CheckpointCompleted { epoch, bytes: 0 });
            }
        }
    }
    ctx.propagate_eos();
    ctx.trace_event(TraceEventKind::ActorFinished);
    ctx.release_buffers();
    std::mem::take(&mut ctx.dead_letters)
}

thread_local! {
    /// While true, the process panic hook stays quiet on this thread —
    /// supervised operator panics are expected and reported through the
    /// run report, not stderr.
    static SILENCE_PANICS: Cell<bool> = const { Cell::new(false) };
}

/// Installs (once, process-wide) a panic hook that defers to the previous
/// hook except on threads currently running a supervised operator call.
fn install_panic_silencer() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !SILENCE_PANICS.with(Cell::get) {
                prev(info);
            }
        }));
    });
}

/// Extracts a human-readable message from a panic payload.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic payload of unknown type".to_string()
    }
}

/// Runs `f` with panics caught and the panic hook silenced, charging the
/// elapsed time to the actor's busy counter. Used for one-off calls (the
/// terminal `flush`); the per-tuple hot path uses [`guarded_raw`] and
/// batch-level timing instead — two `clock_gettime` calls per tuple cost
/// more than a pass-through operator does.
fn guarded_call(metrics: &ActorMetrics, f: impl FnOnce()) -> Result<(), Box<dyn Any + Send>> {
    use std::sync::atomic::Ordering;
    let t0 = Instant::now();
    let result = guarded_raw(f);
    metrics
        .busy_ns
        .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    result
}

/// Runs `f` with panics caught and the panic hook silenced — no timing.
/// Callers account elapsed time at batch granularity (see
/// [`WorkerTask::process_batch`]).
fn guarded_raw(f: impl FnOnce()) -> Result<(), Box<dyn Any + Send>> {
    SILENCE_PANICS.with(|s| s.set(true));
    let result = catch_unwind(AssertUnwindSafe(f));
    SILENCE_PANICS.with(|s| s.set(false));
    result
}

/// A worker actor's complete runnable state: operator, supervision,
/// mailbox receiver, and delivery context. Thread-per-actor drives it with
/// a blocking [`run_worker`] loop; the pool executor stores it in a
/// [`PoolShared`] slot and drives it with non-blocking [`WorkerTask::poll`]
/// calls whenever the actor is ready.
struct WorkerTask {
    op: Box<dyn crate::StreamOperator>,
    factory: Option<OperatorFactory>,
    supervision: SupervisorSpec,
    rx: crate::mailbox::Receiver,
    eos_left: usize,
    ctx: DeliveryCtx,
    out: Outputs,
    inbox: Vec<Envelope>,
    /// Degraded mode: the operator is gone; input is forwarded or dropped.
    stopped: bool,
    restarts_done: u32,
    /// Checkpoint/recovery state, present only with checkpointing on so
    /// the default hot path carries a single `Option` check per envelope.
    ckpt: Option<Box<CkptState>>,
    /// Live-reconfiguration state, present only when a
    /// [`crate::ReconfigHandle`] is installed; its absence keeps the hot
    /// path to one `Option` check per batch.
    reconfig: Option<Box<ReconfigTaskState>>,
    /// Input batches a single [`WorkerTask::poll`] may drain before
    /// yielding the worker thread back to the scheduler. Multi-tenant
    /// pools set a finite quantum so deficit round-robin can interleave
    /// tenants; single-tenant runs use `usize::MAX` (run-until-blocked,
    /// the classic behavior — the budget check never fires).
    poll_budget: usize,
}

/// Per-actor epoch-alignment and recovery state (checkpointing on).
struct CkptState {
    /// Markers received for the epoch currently aligning.
    markers_seen: usize,
    /// Upstream actors that have not yet sent EOS. The alignment quorum:
    /// an epoch completes when `markers_seen` covers every *open* input,
    /// so a finished upstream can't stall barriers from live ones.
    open_inputs: usize,
    /// Epoch currently aligning (`0` = none in progress).
    aligning: u64,
    /// Last locally completed epoch.
    completed: u64,
    /// Envelopes buffered behind the barrier while aligning. A fan-in
    /// mailbox merges upstreams, so post-marker data is held — for every
    /// channel — until the last marker lands (input-side barrier
    /// alignment); deferred later-epoch markers queue here too.
    align_buf: Vec<Envelope>,
    /// Bounded input log for post-restore replay, keyed by epoch.
    replay: ReplayBuffer,
    /// Latest successfully captured snapshot (`None` both before the
    /// first barrier and for stateless operators).
    snapshot: Option<StateSnapshot>,
    /// Epoch of `snapshot` (`0` = none).
    snapshot_epoch: u64,
    /// When the first marker of the aligning epoch arrived (stall metric).
    align_started: Option<Instant>,
}

impl WorkerTask {
    /// Processes every envelope currently in `self.inbox` under the
    /// actor's [`SupervisorSpec`] (operator invocations run inside
    /// `catch_unwind`). Returns true once the final EOS marker is seen.
    fn process_inbox(&mut self) -> bool {
        use std::sync::atomic::Ordering;
        let mut finished = false;
        let mut inbox = std::mem::take(&mut self.inbox);
        // Count arrivals once per drained batch. The loop below only stops
        // early at the *final* EOS marker, and FIFO order plus EOS-last per
        // upstream guarantee no data envelope sits behind it, so every
        // counted envelope is also processed (possibly via the alignment
        // buffer).
        // Flight recorder: sampled tuples leave one span event per hop,
        // stamped with the batch-cached clock (same skew bound as sink
        // latency). The span test shares the arrival-counting pass and
        // hoists the clock and log handle out of the loop; off (`None`)
        // the hot path never tests per-tuple.
        let arrived = match (self.ctx.span_mask, self.ctx.trace.as_ref()) {
            (Some(mask), Some(trace)) => {
                let now = self.ctx.sink_now();
                let mut n = 0u64;
                for env in inbox.iter() {
                    if let Envelope::Data(t) = env {
                        n += 1;
                        if t.seq & mask == 0 && t.src_ns != 0 {
                            trace.record(
                                now,
                                self.ctx.id,
                                TraceEventKind::Span {
                                    tuple_seq: t.seq,
                                    src_ns: t.src_ns,
                                },
                            );
                        }
                    }
                }
                n
            }
            _ => inbox
                .iter()
                .filter(|e| matches!(e, Envelope::Data(_)))
                .count() as u64,
        };
        if arrived > 0 {
            self.ctx
                .metrics
                .items_in
                .fetch_add(arrived, Ordering::Relaxed);
        }
        for env in inbox.drain(..) {
            if self.handle_env(env) {
                // FIFO per mailbox and EOS-last per upstream guarantee no
                // data follows the final marker.
                finished = true;
                break;
            }
        }
        // Hand the (drained) inbox back so its allocation is reused.
        self.inbox = inbox;
        finished
    }

    /// Handles one envelope: barrier alignment for epoch markers, the
    /// supervised operator invocation for data. Returns true once the
    /// final EOS marker is seen.
    fn handle_env(&mut self, env: Envelope) -> bool {
        match env {
            Envelope::Data(item) => {
                if let Some(ckpt) = self.ckpt.as_deref_mut() {
                    if ckpt.aligning != 0 {
                        // Mid-alignment: the merged fan-in mailbox cannot
                        // attribute data to a channel, so everything after
                        // the first marker waits behind the barrier.
                        ckpt.align_buf.push(Envelope::Data(item));
                        return false;
                    }
                }
                self.handle_data(item);
                false
            }
            Envelope::Epoch(e) => {
                let Some(ckpt) = self.ckpt.as_deref_mut() else {
                    // Checkpointing off: stray markers are inert.
                    return false;
                };
                if ckpt.aligning != 0 && e != ckpt.aligning {
                    // A later epoch's marker from a fast upstream: defer it
                    // behind the in-progress barrier.
                    ckpt.align_buf.push(Envelope::Epoch(e));
                    return false;
                }
                if ckpt.aligning == 0 {
                    if e <= ckpt.completed {
                        return false;
                    }
                    ckpt.aligning = e;
                    ckpt.markers_seen = 0;
                    ckpt.align_started = Some(Instant::now());
                }
                ckpt.markers_seen += 1;
                let aligned = ckpt.markers_seen >= ckpt.open_inputs;
                if aligned {
                    self.complete_alignment();
                }
                false
            }
            Envelope::Handoff(id) => {
                if let Some(ckpt) = self.ckpt.as_deref_mut() {
                    if ckpt.aligning != 0 {
                        // Handoff tokens respect the barrier like data:
                        // extraction/merge happens against post-barrier
                        // state.
                        ckpt.align_buf.push(Envelope::Handoff(id));
                        return false;
                    }
                }
                self.handle_handoff(id);
                false
            }
            Envelope::Eos => {
                self.eos_left = self.eos_left.saturating_sub(1);
                let mut aligned = false;
                if let Some(ckpt) = self.ckpt.as_deref_mut() {
                    // A finished upstream leaves the alignment quorum: its
                    // marker for the current epoch either already arrived
                    // or never will.
                    ckpt.open_inputs = ckpt.open_inputs.saturating_sub(1);
                    aligned = ckpt.aligning != 0 && ckpt.markers_seen >= ckpt.open_inputs;
                }
                if aligned {
                    self.complete_alignment();
                }
                self.eos_left == 0
            }
        }
    }

    /// Processes one data item under supervision. With checkpointing on,
    /// the item is logged to the replay buffer *before* the operator runs,
    /// so a panic leaves the poisoned item as the log's last entry.
    fn handle_data(&mut self, item: Tuple) {
        if self.stopped {
            match self.supervision.degrade {
                DegradePolicy::Forward => {
                    self.out.emit_default(item);
                    self.deliver_outputs();
                }
                DegradePolicy::Drop => {
                    self.ctx
                        .dead_letter(None, DeadLetterReason::StoppedActor, &item);
                }
            }
            return;
        }
        if let Some(ckpt) = self.ckpt.as_deref_mut() {
            ckpt.replay.push(ckpt.completed + 1, item);
        }
        let op = &mut self.op;
        let out = &mut self.out;
        match guarded_raw(|| op.process(item, out)) {
            Ok(()) => {
                self.out.inherit_stamp(item.src_ns);
                self.deliver_outputs();
            }
            Err(payload) => self.handle_panic(item, payload),
        }
    }

    /// The supervision path for a panicking `process` invocation.
    fn handle_panic(&mut self, item: Tuple, payload: Box<dyn Any + Send>) {
        use std::sync::atomic::Ordering;
        // The poisoned invocation may have emitted partial output before
        // dying; discard it — the item either fully processes or
        // dead-letters. Output coalesced from *earlier* items is sound:
        // flush it before any backoff sleep so downstream is not starved
        // while this actor recovers.
        self.out.clear();
        self.ctx.flush_all();
        self.ctx.metrics.panics.fetch_add(1, Ordering::Relaxed);
        self.ctx.trace_event(TraceEventKind::OperatorPanicked);
        let message = panic_message(payload.as_ref());
        let policy = self.supervision.policy.clone();
        match policy {
            SupervisionPolicy::Resume => {
                // The poisoned item is dropped, so it must not be in the
                // replay log either (it contributed nothing to state).
                if let Some(ckpt) = self.ckpt.as_deref_mut() {
                    ckpt.replay.pop_last();
                }
                self.ctx.dead_letter_msg(
                    None,
                    DeadLetterReason::OperatorPanic,
                    &item,
                    Some(message),
                );
            }
            SupervisionPolicy::Restart(policy) => {
                if self.restarts_done < policy.max_restarts {
                    self.restarts_done += 1;
                    self.restart_backoff(&policy);
                    match &self.factory {
                        Some(f) => self.op = f.build(),
                        None => self.op.reset(),
                    }
                    self.ctx.metrics.restarts.fetch_add(1, Ordering::Relaxed);
                    self.ctx.trace_event(TraceEventKind::OperatorRestarted);
                    // Stateful recovery: restore the last snapshot, replay
                    // the logged input with outputs suppressed (they were
                    // already delivered), then retry the failed item live —
                    // its output was never delivered.
                    let recovered = match self.ckpt.take() {
                        Some(mut ckpt) => {
                            let ok = self.recover(&mut ckpt, true);
                            self.ckpt = Some(ckpt);
                            ok
                        }
                        None => false,
                    };
                    if !recovered {
                        // No checkpoint layer (or an overflowed replay
                        // buffer): the pre-checkpoint semantics — the item
                        // dead-letters and the operator restarts empty.
                        self.ctx.dead_letter_msg(
                            None,
                            DeadLetterReason::OperatorPanic,
                            &item,
                            Some(message),
                        );
                        return;
                    }
                    let op = &mut self.op;
                    let out = &mut self.out;
                    if guarded_raw(|| op.process(item, out)).is_ok() {
                        self.out.inherit_stamp(item.src_ns);
                        self.deliver_outputs();
                    } else {
                        // The retried item panicked again: drop it (like
                        // Resume) instead of looping forever.
                        self.out.clear();
                        self.ctx.metrics.panics.fetch_add(1, Ordering::Relaxed);
                        self.ctx.trace_event(TraceEventKind::OperatorPanicked);
                        if let Some(ckpt) = self.ckpt.as_deref_mut() {
                            ckpt.replay.pop_last();
                        }
                        self.ctx.dead_letter_msg(
                            None,
                            DeadLetterReason::OperatorPanic,
                            &item,
                            Some(message),
                        );
                    }
                } else {
                    self.stopped = true;
                    self.ctx.trace_event(TraceEventKind::ActorStopped);
                    self.ctx.dead_letter_msg(
                        None,
                        DeadLetterReason::OperatorPanic,
                        &item,
                        Some(message),
                    );
                }
            }
            SupervisionPolicy::Stop => {
                self.stopped = true;
                self.ctx.trace_event(TraceEventKind::ActorStopped);
                self.ctx.dead_letter_msg(
                    None,
                    DeadLetterReason::OperatorPanic,
                    &item,
                    Some(message),
                );
            }
        }
    }

    /// Sleeps the restart backoff delay and records it.
    fn restart_backoff(&mut self, policy: &RestartPolicy) {
        use std::sync::atomic::Ordering;
        let delay = policy.backoff.delay(self.restarts_done, &mut self.ctx.rng);
        if !delay.is_zero() {
            thread::sleep(delay);
            self.ctx
                .metrics
                .backoff_ns
                .fetch_add(delay.as_nanos() as u64, Ordering::Relaxed);
            self.ctx.trace_event(TraceEventKind::Backoff {
                ns: delay.as_nanos() as u64,
            });
        }
    }

    /// Restores the freshly rebuilt operator from its last local snapshot
    /// and replays the logged post-snapshot input with outputs suppressed.
    /// With `skip_last` the log's final entry (the poisoned item, pushed
    /// just before its panic) is left to the caller to retry live. Returns
    /// false when the replay buffer overflowed since the last snapshot —
    /// recovery then degrades to the plain reset the caller already did.
    fn recover(&mut self, ckpt: &mut CkptState, skip_last: bool) -> bool {
        use std::sync::atomic::Ordering;
        if !ckpt.replay.is_valid() {
            return false;
        }
        if let Some(snap) = &ckpt.snapshot {
            let op = &mut self.op;
            // A panicking or failed restore leaves the operator freshly
            // reset — replay still reconstructs what it can.
            let _ = guarded_raw(|| {
                op.restore(snap);
            });
        }
        // Re-inject handoffs merged since the restored snapshot (their
        // published copies are retained in the shared map until the next
        // completed checkpoint for exactly this case): the snapshot
        // predates the merge and the replay log only holds data tuples.
        // Injection precedes replay — pre-merge replay data is for
        // disjoint keys (commutes), post-merge moved-key data then lands
        // on the re-injected state.
        if let Some(rc) = self.reconfig.as_deref_mut() {
            if !rc.merged_since_snapshot.is_empty() {
                let snaps: Vec<StateSnapshot> = {
                    let map = rc
                        .shared
                        .handoffs
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner);
                    rc.merged_since_snapshot
                        .iter()
                        .filter_map(|id| map.get(id).cloned())
                        .collect()
                };
                for snap in &snaps {
                    if !snap.is_empty() {
                        let op = &mut self.op;
                        let _ = guarded_raw(|| {
                            op.inject_state(snap);
                        });
                    }
                }
            }
        }
        let n = ckpt.replay.len().saturating_sub(skip_last as usize);
        for (_, tuple) in &ckpt.replay.entries()[..n] {
            let tuple = *tuple;
            let op = &mut self.op;
            let out = &mut self.out;
            // Replay panics are skipped: the tuple's output was already
            // delivered in its first life, and deterministic faults are
            // fire-once, so a second failure only means lost state we
            // cannot do better on.
            let _ = guarded_raw(|| op.process(tuple, out));
            self.out.clear();
        }
        // Re-drop keys extracted (handed off) since the restored snapshot:
        // restore + replay just rebuilt their state locally, but the
        // published copy is authoritative — stale local state would
        // double-emit at the terminal flush. Extraction follows replay so
        // pre-swap moved-key replay data is dropped with it.
        if let Some(rc) = self.reconfig.as_deref_mut() {
            for (_, keys) in rc.extracted_since_snapshot.iter() {
                let op = &mut self.op;
                let _ = guarded_raw(|| {
                    let _ = op.extract_keys(keys);
                });
            }
        }
        self.ctx.metrics.recoveries.fetch_add(1, Ordering::Relaxed);
        self.ctx
            .metrics
            .replayed
            .fetch_add(n as u64, Ordering::Relaxed);
        self.ctx
            .metrics
            .restored_epoch
            .store(ckpt.snapshot_epoch, Ordering::Relaxed);
        self.ctx.trace_event(TraceEventKind::Recovered {
            epoch: ckpt.snapshot_epoch,
            replayed: n as u64,
        });
        true
    }

    /// Finishes the in-progress barrier: snapshot (under supervision), ack
    /// the coordinator, re-broadcast the marker downstream, then release
    /// the buffered post-barrier envelopes in arrival order.
    fn complete_alignment(&mut self) {
        use std::sync::atomic::Ordering;
        let Some(mut ckpt) = self.ckpt.take() else {
            return;
        };
        let epoch = ckpt.aligning;
        ckpt.aligning = 0;
        ckpt.markers_seen = 0;
        ckpt.completed = epoch;
        if let Some(t0) = ckpt.align_started.take() {
            self.ctx
                .metrics
                .align_stall_ns
                .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        if !self.stopped {
            self.take_snapshot(&mut ckpt, epoch);
        }
        // Stopped (degraded) actors still ack and forward markers: a dead
        // operator must not stall the global checkpoint frontier.
        if let Some(c) = &self.ctx.coordinator {
            c.ack(self.ctx.id.0, epoch);
        }
        // Marker first, buffered data second: downstream must see the
        // barrier before any post-barrier output.
        self.ctx.broadcast_marker(epoch);
        // Staged route swaps fire here — after the marker broadcast (so
        // every pre-barrier tuple is already flushed under the old route)
        // and before the buffered post-barrier envelopes are released
        // (which would otherwise be routed pre-swap). This makes the swap
        // barrier-exact.
        self.apply_reconfig(epoch);
        let buffered = std::mem::take(&mut ckpt.align_buf);
        self.ckpt = Some(ckpt);
        for env in buffered {
            // Only Data, Handoff tokens and deferred Epoch markers are
            // ever buffered, so no termination signal can hide in here.
            let _ = self.handle_env(env);
        }
    }

    /// Captures the operator snapshot for `epoch`, routing a panicking
    /// `snapshot` (e.g. a deterministic `crash_at_epoch` fault) through
    /// the actor's supervision policy with one retry after recovery.
    fn take_snapshot(&mut self, ckpt: &mut CkptState, epoch: u64) {
        use std::sync::atomic::Ordering;
        let mut captured: Option<Option<StateSnapshot>> = None;
        let ok = {
            let op = &mut self.op;
            let slot = &mut captured;
            guarded_raw(|| *slot = Some(op.snapshot())).is_ok()
        };
        if !ok {
            self.ctx.metrics.panics.fetch_add(1, Ordering::Relaxed);
            self.ctx.trace_event(TraceEventKind::OperatorPanicked);
            let policy = self.supervision.policy.clone();
            match policy {
                // Resume: state is intact as far as we know; keep the
                // previous snapshot and skip this epoch's capture.
                SupervisionPolicy::Resume => {}
                SupervisionPolicy::Restart(policy) => {
                    if self.restarts_done < policy.max_restarts {
                        self.restarts_done += 1;
                        self.restart_backoff(&policy);
                        match &self.factory {
                            Some(f) => self.op = f.build(),
                            None => self.op.reset(),
                        }
                        self.ctx.metrics.restarts.fetch_add(1, Ordering::Relaxed);
                        self.ctx.trace_event(TraceEventKind::OperatorRestarted);
                        // No in-flight item here: replay everything since
                        // the previous snapshot, then retry the capture
                        // once (deterministic faults are fire-once).
                        let _ = self.recover(ckpt, false);
                        let op = &mut self.op;
                        let slot = &mut captured;
                        let _ = guarded_raw(|| *slot = Some(op.snapshot()));
                    } else {
                        self.stopped = true;
                        self.ctx.trace_event(TraceEventKind::ActorStopped);
                    }
                }
                SupervisionPolicy::Stop => {
                    self.stopped = true;
                    self.ctx.trace_event(TraceEventKind::ActorStopped);
                }
            }
        }
        if let Some(snap) = captured {
            let bytes = snap.as_ref().map_or(0, StateSnapshot::len) as u64;
            // The fresh snapshot covers every handoff merged or extracted
            // so far: published copies of merged handoffs can leave the
            // shared map, and the restart re-drop list resets.
            if let Some(rc) = self.reconfig.as_deref_mut() {
                if !rc.merged_since_snapshot.is_empty() {
                    let mut map = rc
                        .shared
                        .handoffs
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner);
                    for id in rc.merged_since_snapshot.drain(..) {
                        map.remove(&id);
                    }
                }
                rc.extracted_since_snapshot.clear();
            }
            ckpt.snapshot = snap;
            ckpt.snapshot_epoch = epoch;
            // Everything at or before this barrier is in the snapshot; an
            // overflowed buffer re-arms here, consistent again.
            ckpt.replay.trim_through(epoch);
            self.ctx.metrics.snapshots.fetch_add(1, Ordering::Relaxed);
            self.ctx
                .metrics
                .snapshot_bytes
                .fetch_add(bytes, Ordering::Relaxed);
            self.ctx
                .trace_event(TraceEventKind::CheckpointCompleted { epoch, bytes });
        }
        // On an unrecovered capture failure the previous snapshot and the
        // untrimmed log stay authoritative — recovery remains correct,
        // just with a longer replay.
    }

    /// Processes the drained inbox and flushes coalesced output, charging
    /// the actor's busy counter once for the whole batch: elapsed wall
    /// time minus whatever the batch spent blocked on backpressure or
    /// sleeping in restart backoff (both tracked exactly, on this thread,
    /// by the paths that wait). Timing per batch instead of per operator
    /// call keeps `clock_gettime` off the per-tuple path — at
    /// pass-through service times the two reads cost more than the
    /// operator. The price is that busy time now includes routing and
    /// buffering overhead; see [`ActorReport::busy`].
    fn process_batch(&mut self) -> bool {
        use std::sync::atomic::Ordering;
        if self.reconfig.is_some() {
            self.poll_reconfig();
        }
        let blocked0 = self.ctx.metrics.blocked_ns.load(Ordering::Relaxed);
        let backoff0 = self.ctx.metrics.backoff_ns.load(Ordering::Relaxed);
        let t0 = Instant::now();
        let finished = self.process_inbox();
        // Coalesced output never outlives the input batch that produced
        // it: flush before the next intake so batching adds no cross-batch
        // latency.
        self.ctx.flush_all();
        let elapsed = t0.elapsed().as_nanos() as u64;
        let waited = (self.ctx.metrics.blocked_ns.load(Ordering::Relaxed) - blocked0)
            + (self.ctx.metrics.backoff_ns.load(Ordering::Relaxed) - backoff0);
        self.ctx
            .metrics
            .busy_ns
            .fetch_add(elapsed.saturating_sub(waited), Ordering::Relaxed);
        finished
    }

    /// Routes the operator's buffered emissions, holding back tuples whose
    /// key is in the active migration pause set (port 0 only — the data
    /// port). Collapses to the plain [`DeliveryCtx::deliver`] whenever no
    /// pause is active, i.e. always outside a key-handoff window.
    fn deliver_outputs(&mut self) {
        match self.reconfig.as_deref_mut() {
            Some(rc) if !rc.pause_keys.is_empty() => {
                for (port, tuple) in self.out.drain() {
                    if port == 0 && rc.pause_keys.contains(&tuple.key) {
                        rc.paused.push(tuple);
                    } else {
                        self.ctx.deliver_one(port, tuple);
                    }
                }
            }
            _ => self.ctx.deliver(&mut self.out),
        }
    }

    /// Once-per-batch reconfiguration poll: pulls freshly posted ops when
    /// the shared generation moved, applies them immediately when no
    /// barrier machinery exists to gate them, and completes any pending
    /// pause–drain–resume handoff.
    fn poll_reconfig(&mut self) {
        let Some(rc) = self.reconfig.as_deref_mut() else {
            return;
        };
        if rc.outdated() {
            let actor = self.ctx.id.0;
            rc.pull(actor);
            if self.ckpt.is_none() {
                // Checkpointing off: no barriers will ever fire, so
                // epoch-gated ops would rot. Apply now — only safe (and
                // only intended) for stateless rescaling.
                self.apply_reconfig(u64::MAX);
            }
        }
        self.try_complete_handoffs();
    }

    /// Applies every staged op gated on an epoch `<= epoch`: swaps the
    /// route, publishes extraction requests, forwards the in-band
    /// [`Envelope::Handoff`] request tokens to the old owners (FIFO-ordered
    /// behind the barrier marker just broadcast), and arms the pause set.
    fn apply_reconfig(&mut self, epoch: u64) {
        use std::sync::atomic::Ordering;
        let Some(rc) = self.reconfig.as_deref_mut() else {
            return;
        };
        if rc.staged.is_empty() {
            return;
        }
        let mut i = 0;
        while i < rc.staged.len() {
            let ReconfigOp::SwapRoute { at_epoch, .. } = &rc.staged[i];
            if *at_epoch > epoch {
                i += 1;
                continue;
            }
            let ReconfigOp::SwapRoute {
                port,
                route,
                pause_keys,
                handoffs,
                ..
            } = rc.staged.remove(i);
            let destinations = route.destinations().len() as u64;
            if port < self.ctx.routes.len() {
                self.ctx.routes[port] = RouteState::new(route);
            }
            self.ctx.trace_event(TraceEventKind::Reconfigured {
                epoch: if epoch == u64::MAX { 0 } else { epoch },
                port,
                destinations,
                moved_keys: pause_keys.len() as u64,
            });
            if handoffs.is_empty() {
                // Stateless rescale: the swap is complete as soon as the
                // route is replaced.
                rc.shared.applied.fetch_add(1, Ordering::Release);
                continue;
            }
            {
                let mut reqs = rc
                    .shared
                    .extract_requests
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                for h in &handoffs {
                    reqs.insert(h.id, h.keys.clone());
                }
            }
            for h in &handoffs {
                // In-band extraction request to the old owner; FIFO order
                // behind the marker makes the extracted state exactly the
                // barrier-consistent state.
                self.ctx.out_bufs[h.from].push(Envelope::Handoff(h.id));
                self.ctx.buffered += 1;
                rc.expect_handoffs.push((h.id, h.to));
            }
            rc.pause_keys.extend(pause_keys);
            rc.pending_release += 1;
            self.ctx.flush_all();
        }
    }

    /// Completes a pending pause–drain–resume: once every expected handoff
    /// is published, pushes the in-band merge token to each new owner and
    /// *then* releases the paused tuples through the new route — the shared
    /// FIFO buffer guarantees every new owner merges state before seeing
    /// any moved-key data.
    fn try_complete_handoffs(&mut self) {
        use std::sync::atomic::Ordering;
        let Some(rc) = self.reconfig.as_deref_mut() else {
            return;
        };
        if rc.expect_handoffs.is_empty() {
            if !rc.pause_keys.is_empty() || !rc.paused.is_empty() {
                // Defensive: a swap that paused keys without expecting
                // handoffs must not black-hole tuples.
                rc.pause_keys.clear();
                let paused = std::mem::take(&mut rc.paused);
                for tuple in paused {
                    self.ctx.deliver_one(0, tuple);
                }
                self.ctx.flush_all();
            }
            return;
        }
        if !rc.handoffs_ready() {
            return;
        }
        for (id, dest) in std::mem::take(&mut rc.expect_handoffs) {
            self.ctx.out_bufs[dest].push(Envelope::Handoff(id));
            self.ctx.buffered += 1;
        }
        rc.pause_keys.clear();
        let paused = std::mem::take(&mut rc.paused);
        for tuple in paused {
            self.ctx.deliver_one(0, tuple);
        }
        self.ctx.flush_all();
        rc.shared
            .applied
            .fetch_add(rc.pending_release, Ordering::Release);
        rc.pending_release = 0;
    }

    /// Handles an in-band [`Envelope::Handoff`] token. Which side this
    /// actor is on is decided by the shared maps: an outstanding extraction
    /// request makes it the old owner (extract + publish); otherwise a
    /// published snapshot makes it the new owner (merge). Unknown ids are
    /// inert.
    fn handle_handoff(&mut self, id: u64) {
        use std::sync::atomic::Ordering;
        let Some(rc) = self.reconfig.as_deref_mut() else {
            return;
        };
        let keys = {
            let mut reqs = rc
                .shared
                .extract_requests
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            reqs.remove(&id)
        };
        if let Some(keys) = keys {
            let mut extracted: Option<StateSnapshot> = None;
            {
                let op = &mut self.op;
                let slot = &mut extracted;
                let _ = guarded_raw(|| *slot = op.extract_keys(&keys));
            }
            let snap = extracted.unwrap_or_default();
            self.ctx.trace_event(TraceEventKind::StateMigrated {
                handoff: id,
                bytes: snap.len() as u64,
                outbound: true,
            });
            rc.extracted_since_snapshot.push((id, keys));
            rc.shared
                .handoffs
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .insert(id, snap);
            return;
        }
        // New-owner side. The snapshot stays in the shared map until this
        // actor's next completed checkpoint covers the merge (see
        // `take_snapshot`), so a supervised restart in between re-injects
        // it during `recover`.
        let snap = {
            let map = rc
                .shared
                .handoffs
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            map.get(&id).cloned()
        };
        if let Some(snap) = snap {
            if !snap.is_empty() {
                let op = &mut self.op;
                let _ = guarded_raw(|| {
                    op.inject_state(&snap);
                });
            }
            rc.merged_since_snapshot.push(id);
            rc.shared.migrated.fetch_add(1, Ordering::Release);
            self.ctx.trace_event(TraceEventKind::StateMigrated {
                handoff: id,
                bytes: snap.len() as u64,
                outbound: false,
            });
        }
    }

    /// Blocks actor termination until any in-flight handoff completes: the
    /// paused tuples must flow before EOS. The old owners this actor is
    /// waiting on cannot be waiting on it in turn (they already have their
    /// extraction tokens and need no further input), so this terminates.
    /// Under the pool executor the wait helps run downstream-ranked actors
    /// instead of parking the worker thread.
    fn await_handoffs(&mut self) {
        loop {
            self.try_complete_handoffs();
            let waiting = self
                .reconfig
                .as_deref()
                .is_some_and(|rc| !rc.expect_handoffs.is_empty());
            if !waiting {
                return;
            }
            match self.ctx.pool.clone() {
                Some(pool) => {
                    if !run_one_ready(&pool, self.ctx.pool_slot) {
                        thread::yield_now();
                    }
                }
                None => thread::sleep(Duration::from_micros(100)),
            }
        }
    }

    /// Terminal sequence: final operator flush (unless degraded-stopped),
    /// EOS propagation, finish trace. Runs exactly once per actor.
    fn finish(&mut self) {
        use std::sync::atomic::Ordering;
        if let Some(ckpt) = &self.ckpt {
            self.ctx
                .metrics
                .replay_overflows
                .store(ckpt.replay.overflows(), Ordering::Relaxed);
        }
        if self.reconfig.is_some() {
            self.await_handoffs();
        }
        if !self.stopped {
            let op = &mut self.op;
            let out = &mut self.out;
            if guarded_call(&self.ctx.metrics, || op.flush(out)).is_ok() {
                self.deliver_outputs();
            } else {
                self.out.clear();
                self.ctx.metrics.panics.fetch_add(1, Ordering::Relaxed);
                self.ctx.trace_event(TraceEventKind::OperatorPanicked);
            }
        }
        self.ctx.propagate_eos();
        self.ctx.trace_event(TraceEventKind::ActorFinished);
    }

    /// Pool-executor step: drain and process input batches until the
    /// mailbox is momentarily empty (run-until-blocked), the actor
    /// finishes, or the poll budget is exhausted (multi-tenant fairness
    /// quantum — see [`WorkerTask::poll_budget`]).
    fn poll(&mut self) -> Polled {
        let intake = self.ctx.batch_size;
        let mut batches = 0usize;
        loop {
            let mut inbox = std::mem::take(&mut self.inbox);
            let drained = self.rx.try_drain(&mut inbox, intake);
            self.inbox = inbox;
            match drained {
                TryRecvBatch::Received(_) => {
                    // One clock read covers the whole drained batch.
                    self.ctx.refresh_now();
                    if self.process_batch() {
                        self.finish();
                        return Polled::Finished;
                    }
                    batches += 1;
                    if batches >= self.poll_budget {
                        return Polled::Yielded;
                    }
                }
                TryRecvBatch::Empty => return Polled::Blocked,
                TryRecvBatch::Disconnected => {
                    self.finish();
                    return Polled::Finished;
                }
            }
        }
    }
}

/// Outcome of one [`WorkerTask::poll`] activation under the pool executor.
enum Polled {
    /// Mailbox momentarily empty; the task parks until the next wake.
    Blocked,
    /// Poll budget exhausted with input still queued: the task goes back
    /// on the ready queue so the scheduler can interleave other tenants.
    Yielded,
    /// EOS drained or all producers gone; the task is done for good.
    Finished,
}

/// The supervised worker loop (thread-per-actor executor): every operator
/// invocation runs under `catch_unwind`; panics are handled per the
/// actor's [`SupervisorSpec`]. Returns the actor's private dead-letter log
/// for the shutdown merge.
fn run_worker(mut task: WorkerTask) -> DeadLetterLog {
    task.ctx.trace_event(TraceEventKind::ActorStarted);
    // Batched intake: block for the first envelope, then drain whatever
    // else is already queued (up to `batch_size`) under the same
    // reservation. With `batch_size = 1` this is operation-for-operation
    // the plain `recv` loop.
    let intake = task.ctx.batch_size;
    loop {
        let mut inbox = std::mem::take(&mut task.inbox);
        let drained = task.rx.recv_drain(&mut inbox, intake);
        task.inbox = inbox;
        match drained {
            RecvBatch::Received(_) => {
                // One clock read covers the whole drained batch.
                task.ctx.refresh_now();
                if task.process_batch() {
                    break;
                }
            }
            RecvBatch::Disconnected => break,
        }
    }
    task.finish();
    task.ctx.release_buffers();
    std::mem::take(&mut task.ctx.dead_letters)
}

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
struct PoolShared {
    /// `tasks[i]` holds actor `i`'s [`WorkerTask`] until it finishes
    /// (`None` for sources and finished actors). The mutex is never
    /// contended — only the `READY → RUNNING` claim winner locks it — it
    /// exists to move the task in and out safely.
    tasks: Vec<Mutex<Option<WorkerTask>>>,
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
    live: AtomicUsize,
    /// Uncontainable panics (outside `guarded_call`, e.g. a panicking
    /// `reset`), by actor index — the thread-per-actor equivalent of a
    /// dead actor thread.
    failures: Mutex<Vec<(usize, String)>>,
    /// Finished tasks' private dead-letter logs, merged at shutdown.
    collected: Mutex<Vec<(usize, DeadLetterLog)>>,
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
struct TenantLedger {
    started_at: Instant,
    remaining: Vec<AtomicUsize>,
    finished_ns: Vec<AtomicU64>,
}

impl TenantLedger {
    fn new(counts: &[usize], started_at: Instant) -> Self {
        TenantLedger {
            started_at,
            remaining: counts.iter().map(|&c| AtomicUsize::new(c)).collect(),
            finished_ns: counts.iter().map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Records one actor of `tenant` finishing; the last one stamps the
    /// tenant's completion time.
    fn actor_done(&self, tenant: usize) {
        if self.remaining[tenant].fetch_sub(1, Ordering::AcqRel) == 1 {
            let ns = self.started_at.elapsed().as_nanos() as u64;
            self.finished_ns[tenant].store(ns.max(1), Ordering::Release);
        }
    }

    /// The tenant's own wall time, if all its actors have finished.
    fn wall(&self, tenant: usize) -> Option<Duration> {
        let ns = self.finished_ns[tenant].load(Ordering::Acquire);
        (ns > 0).then(|| Duration::from_nanos(ns))
    }
}

/// Input batches one multi-tenant poll activation may drain before
/// yielding (the DRR batch quantum). Large enough to amortize scheduling,
/// small enough that a backlogged tenant cannot monopolize a worker.
const TENANT_POLL_BUDGET: usize = 32;

impl PoolShared {
    fn new(
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
    fn wake(&self, i: usize) {
        loop {
            match self.states[i].load(Ordering::Acquire) {
                T_IDLE => {
                    if self.states[i]
                        .compare_exchange(T_IDLE, T_READY, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        let mut q = self.ready.lock().unwrap_or_else(PoisonError::into_inner);
                        q.enqueue(self.shard_of[i], i);
                        drop(q);
                        // `notify_one` may rouse a worker homed on another
                        // shard; that is fine — workers steal across shards
                        // before parking, so no wake is ever lost.
                        self.ready_cv.notify_one();
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
/// `reset`) are recorded as uncontainable failures — the pool equivalent
/// of a dead actor thread — and the actor is torn down, dropping its
/// receiver so upstream observes disconnection exactly as in thread mode.
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
fn run_one_ready(pool: &Arc<PoolShared>, helper_slot: usize) -> bool {
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
        q.shards.iter_mut().rev().find_map(|shard| {
            shard
                .iter()
                .position(|&i| pool.tenant_of[i] == tenant && pool.rank[i] >= min_rank)
                .and_then(|pos| shard.remove(pos))
        })
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

/// A pool worker thread: pop ready tasks and run each until it blocks;
/// park on the condvar when the queue stays empty; exit when no live
/// tasks remain.
///
/// An empty queue first costs a bounded run of `yield_now` before the
/// condvar park: a producer mid-burst will make a task ready within its
/// next quantum, and yielding to it is far cheaper than the futex
/// round-trip of a park/notify pair per burst — the context-switch thrash
/// this executor exists to remove.
fn worker_loop(pool: &Arc<PoolShared>, home: usize) {
    const YIELDS_BEFORE_PARK: u32 = 64;
    enum Next {
        Run(usize),
        Yield,
        Exit,
    }
    let mut idle_yields = 0u32;
    loop {
        let next = {
            let mut q = pool.ready.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(i) = q.pop(home) {
                    break Next::Run(i);
                }
                if pool.live.load(Ordering::Acquire) == 0 {
                    break Next::Exit;
                }
                if idle_yields < YIELDS_BEFORE_PARK {
                    break Next::Yield;
                }
                q = pool
                    .ready_cv
                    .wait(q)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        match next {
            Next::Run(i) => {
                idle_yields = 0;
                if pool.claim(i) {
                    run_task(pool, i);
                }
            }
            Next::Yield => {
                idle_yields += 1;
                thread::yield_now();
            }
            Next::Exit => return,
        }
    }
}

/// Batched send for pooled actors: never parks the worker thread while the
/// destination is full — it runs other ready actors instead (the consumer
/// that would drain the mailbox may be waiting for this very thread),
/// falling back to 1 ms bounded blocking slices when nothing is runnable.
/// Mirrors `send_batch`'s per-slot timeout: the window restarts whenever
/// any envelope is delivered. The reported `blocked` duration includes
/// time spent helping — it is an advisory backpressure signal, not pure
/// park time.
fn pool_send_batch(
    pool: &Arc<PoolShared>,
    sender: &Sender,
    buf: &mut Vec<Envelope>,
    timeout: Duration,
    helper_slot: usize,
) -> BatchOutcome {
    let total = buf.len();
    let fast = sender.try_send_batch(buf);
    if buf.is_empty() || fast.disconnected {
        return BatchOutcome {
            delivered: total - buf.len(),
            blocked: Duration::ZERO,
            failure: if buf.is_empty() {
                None
            } else {
                Some(BatchFailure::Disconnected)
            },
        };
    }
    let slow_start = Instant::now();
    let mut window = slow_start;
    let failure = loop {
        if buf.is_empty() {
            break None;
        }
        let before = buf.len();
        if run_one_ready(pool, helper_slot) {
            let r = sender.try_send_batch(buf);
            if r.disconnected {
                break Some(BatchFailure::Disconnected);
            }
            if buf.len() < before {
                window = Instant::now();
            }
        } else {
            let remaining = timeout.saturating_sub(window.elapsed());
            let slice = remaining.min(Duration::from_millis(1));
            if slice.is_zero() {
                break Some(BatchFailure::TimedOut);
            }
            let out = sender.send_batch(buf, slice);
            if out.delivered > 0 {
                window = Instant::now();
            }
            if out.failure == Some(BatchFailure::Disconnected) {
                break Some(BatchFailure::Disconnected);
            }
            // A timed-out 1 ms slice is not a verdict; the window check
            // below decides.
        }
        if window.elapsed() >= timeout {
            break Some(BatchFailure::TimedOut);
        }
    };
    BatchOutcome {
        delivered: total - buf.len(),
        blocked: slow_start.elapsed(),
        failure,
    }
}

/// Executes the actor graph to completion and reports measured metrics.
///
/// Every actor runs on a dedicated thread (the §5.1 configuration: "each
/// actor is associated with a dedicated thread"). The run ends when all
/// sources have produced their configured item counts and the end-of-stream
/// markers have drained through the graph.
///
/// Worker actors are supervised: a panicking operator is caught and
/// handled per the actor's [`SupervisorSpec`] (resume, restart with
/// backoff, or stop into degraded mode), and every undelivered item is
/// recorded in the report's [`DeadLetterLog`]. `run` itself never panics
/// on operator failure.
///
/// # Errors
///
/// Returns an [`EngineError`] if the graph fails validation, or
/// [`EngineError::ActorFailed`] if an actor thread dies in a way
/// supervision could not contain. A successfully validated graph always
/// terminates: it is acyclic, and EOS markers propagate through every
/// mailbox.
pub fn run(graph: ActorGraph, config: &EngineConfig) -> Result<RunReport, EngineError> {
    run_with(graph, config, None).map(|(report, _)| report)
}

/// Like [`run`], but with the live telemetry layer enabled: sources stamp
/// every tuple, sinks aggregate end-to-end latency, lifecycle events are
/// traced, and a background sampler thread takes a [`crate::TelemetrySnapshot`]
/// every `telemetry.interval` (plus one final snapshot at end of run).
///
/// With the `telemetry` cargo feature disabled only the final snapshot is
/// taken (no sampler thread is spawned).
///
/// # Errors
///
/// Fails exactly as [`run`] does.
pub fn run_with_telemetry(
    graph: ActorGraph,
    config: &EngineConfig,
    telemetry: &TelemetryConfig,
) -> Result<(RunReport, TelemetryReport), EngineError> {
    run_with(graph, config, Some(telemetry))
        .map(|(report, tel)| (report, tel.expect("telemetry was requested")))
}

fn run_with(
    graph: ActorGraph,
    config: &EngineConfig,
    telemetry: Option<&TelemetryConfig>,
) -> Result<(RunReport, Option<TelemetryReport>), EngineError> {
    let tenant = TenantSpec {
        name: "default".to_string(),
        weight: 1,
        graph,
        telemetry: telemetry.cloned(),
    };
    let mut runs = run_graphs(vec![tenant], config)?;
    Ok(runs.pop().expect("exactly one tenant was submitted"))
}

/// One tenant of a multi-tenant run: a named actor graph that shares the
/// engine — and, under [`ExecutorKind::Pool`], ONE worker pool — with the
/// other tenants submitted alongside it in the same [`run_tenants`] call.
pub struct TenantSpec {
    /// Tenant label, used in telemetry exports and the returned
    /// [`TenantRun`]. Not required to be unique, but unique names make
    /// per-tenant exports distinguishable.
    pub name: String,
    /// Weighted-fair share under the pool executor: the tenant's deficit
    /// round-robin quantum, in task activations (each activation bounded
    /// to a fixed number of drained batches). Clamped to ≥ 1; tenants
    /// with equal weights get equal service when backlogged. Ignored by
    /// the thread-per-actor executor (the OS scheduler arbitrates there).
    pub weight: u64,
    /// The tenant's actor graph.
    pub graph: ActorGraph,
    /// Optional per-tenant telemetry. In multi-tenant runs the config's
    /// tenant label defaults to [`TenantSpec::name`] so exports are
    /// attributable without extra wiring.
    pub telemetry: Option<TelemetryConfig>,
}

impl TenantSpec {
    /// A tenant with weight 1 and no telemetry.
    pub fn new(name: impl Into<String>, graph: ActorGraph) -> Self {
        TenantSpec {
            name: name.into(),
            weight: 1,
            graph,
            telemetry: None,
        }
    }

    /// Sets the tenant's weighted-fair share (clamped to ≥ 1 at use).
    #[must_use]
    pub fn with_weight(mut self, weight: u64) -> Self {
        self.weight = weight;
        self
    }

    /// Enables per-tenant telemetry.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: TelemetryConfig) -> Self {
        self.telemetry = Some(telemetry);
        self
    }
}

/// One tenant's results from [`run_tenants`].
#[derive(Debug)]
pub struct TenantRun {
    /// The tenant's name, as submitted.
    pub name: String,
    /// The tenant's run report. Its `wall` is the *tenant's own*
    /// completion time (first to last actor of this tenant), so a short
    /// tenant's throughput is not diluted by a long co-tenant keeping the
    /// whole run alive.
    pub report: RunReport,
    /// The tenant's telemetry report, when requested in the spec.
    pub telemetry: Option<TelemetryReport>,
}

/// Executes many actor graphs concurrently on one shared engine and
/// reports per-tenant metrics.
///
/// Under [`ExecutorKind::ThreadPerActor`] every tenant's actors get
/// dedicated threads, exactly as in [`run`]. Under [`ExecutorKind::Pool`]
/// all tenants' worker actors are multiplexed over ONE fixed-size worker
/// pool: the ready queue is sharded by tenant and served deficit
/// round-robin by [`TenantSpec::weight`], each activation bounded to a
/// fixed batch quantum, so a backlogged tenant cannot monopolize the
/// workers. Per-tenant determinism is preserved — each tenant's actors
/// are seeded from `config.seed` plus their *local* actor id, exactly as
/// in a solo [`run`] of the same graph, so a deterministic graph produces
/// identical per-tenant results solo and co-scheduled.
///
/// Live reconfiguration (`config.reconfig`) is single-tenant machinery
/// and is ignored when more than one tenant is submitted.
///
/// # Errors
///
/// Fails fast with a validation error if *any* graph is invalid (no
/// actors run in that case), or [`EngineError::ActorFailed`] (local actor
/// id, lowest failing pool slot) if an actor dies in a way supervision
/// could not contain.
pub fn run_tenants(
    tenants: Vec<TenantSpec>,
    config: &EngineConfig,
) -> Result<Vec<TenantRun>, EngineError> {
    let names: Vec<String> = tenants.iter().map(|t| t.name.clone()).collect();
    let runs = run_graphs(tenants, config)?;
    Ok(names
        .into_iter()
        .zip(runs)
        .map(|(name, (report, telemetry))| TenantRun {
            name,
            report,
            telemetry,
        })
        .collect())
}

/// An actor's runnable state, built up front independent of which
/// executor will drive it.
enum Prepared {
    Source { cfg: SourceConfig, ctx: DeliveryCtx },
    Worker { task: WorkerTask },
}

/// One tenant's prepared (not yet running) graph inside [`run_graphs`]:
/// everything the dispatch and report-assembly phases need, with actors
/// indexed locally and `base` locating the tenant's global slot range.
struct TenantPrep {
    base: usize,
    n: usize,
    weight: u64,
    telemetry: Option<TelemetryConfig>,
    prepared: Vec<(String, Prepared)>,
    metrics: Vec<Arc<ActorMetrics>>,
    probes: Arc<Vec<Option<DepthProbe>>>,
    hub: Option<Arc<TelemetryHub>>,
    coordinator: Option<Arc<CheckpointCoordinator>>,
    rank: Vec<usize>,
}

/// The shared driver behind [`run`], [`run_with_telemetry`], and
/// [`run_tenants`]: prepares every tenant's graph, dispatches all of them
/// onto the configured executor at once, and assembles per-tenant reports.
fn run_graphs(
    tenants: Vec<TenantSpec>,
    config: &EngineConfig,
) -> Result<Vec<(RunReport, Option<TelemetryReport>)>, EngineError> {
    if tenants.is_empty() {
        return Ok(Vec::new());
    }
    let multi = tenants.len() > 1;
    install_panic_silencer();
    // Checkpoint layer: a `Some(0)` interval is treated as off, and each
    // tenant's coordinator ledger (one ack slot per actor, sources
    // included) exists only when the layer is on.
    let ckpt_interval = config.checkpoint_interval.filter(|&i| i > 0);
    // Live reconfiguration drives a single graph's generation counter;
    // with several tenants it is ignored rather than misapplied to all.
    let reconfig_src = if multi {
        None
    } else {
        config.reconfig.as_ref()
    };
    let started_at = Instant::now();
    // Run-wide slab of coalescing buffers: every reachable destination gets
    // a buffer checked out pre-sized to the batch limit, and actors hand
    // them back when they finish — the steady-state send path never grows
    // (or allocates) a buffer.
    let buf_pool = Arc::new(BatchPool::new(config.batch_size.max(1)));

    let mut preps: Vec<TenantPrep> = Vec::with_capacity(tenants.len());
    let mut base = 0usize;
    for tenant in tenants {
        let TenantSpec {
            name: tenant_name,
            weight,
            graph,
            mut telemetry,
        } = tenant;
        if multi {
            // Default the telemetry tenant label so multi-tenant exports
            // are attributable without extra wiring.
            if let Some(tcfg) = &mut telemetry {
                if tcfg.tenant.is_none() {
                    tcfg.tenant = Some(tenant_name.clone());
                }
            }
        }
        let in_degrees = graph.in_degrees();
        let actors = graph.into_actors();
        validate(&actors)?;
        let n = actors.len();

        let metrics: Vec<Arc<ActorMetrics>> =
            (0..n).map(|_| Arc::new(ActorMetrics::new())).collect();
        let coordinator: Option<Arc<CheckpointCoordinator>> =
            ckpt_interval.map(|_| Arc::new(CheckpointCoordinator::new(n)));

        // One mailbox per non-source actor. Edges with a single distinct
        // upstream actor get the SPSC ring (plain-store tail, no CAS); fan-in
        // edges get the CAS multi-producer ring. The split is decided here,
        // statically, from the compiled graph's in-degrees.
        let mut senders: Vec<Option<Sender>> = Vec::with_capacity(n);
        let mut receivers: Vec<Option<crate::mailbox::Receiver>> = Vec::with_capacity(n);
        for (i, spec) in actors.iter().enumerate() {
            if spec.behavior.is_source() {
                senders.push(None);
                receivers.push(None);
            } else {
                let cap = spec.mailbox_capacity.unwrap_or(config.mailbox_capacity);
                let (tx, rx) = if in_degrees[i] <= 1 {
                    channel_spsc(cap)
                } else {
                    channel(cap)
                };
                senders.push(Some(tx));
                receivers.push(Some(rx));
            }
        }

        // Depth probes observe queue depths without counting as producers, so
        // they never delay disconnect detection.
        let probes: Arc<Vec<Option<DepthProbe>>> = Arc::new(
            senders
                .iter()
                .map(|s| s.as_ref().map(Sender::depth_probe))
                .collect(),
        );
        let hub: Option<Arc<TelemetryHub>> = telemetry.as_ref().map(|tcfg| {
            let hub_actors = actors
                .iter()
                .map(|spec| HubActor {
                    name: spec.name.clone(),
                    queue_capacity: if spec.behavior.is_source() {
                        None
                    } else {
                        Some(spec.mailbox_capacity.unwrap_or(config.mailbox_capacity))
                    },
                    // Sink actors (no outgoing routes) terminate latency spans.
                    latency: if !spec.behavior.is_source() && spec.routes.is_empty() {
                        Some(Arc::new(LatencyHistogram::new()))
                    } else {
                        None
                    },
                })
                .collect();
            Arc::new(TelemetryHub::new(hub_actors, tcfg))
        });

        let mut prepared: Vec<(String, Prepared)> = Vec::with_capacity(n);
        // Unique destinations per actor, kept for the pool executor's
        // topological ranks (see [`PoolShared::rank`]).
        let mut out_targets: Vec<Vec<usize>> = Vec::with_capacity(n);
        for (i, spec) in actors.into_iter().enumerate() {
            let eos_targets: Vec<usize> = {
                let mut d: Vec<usize> = spec
                    .routes
                    .iter()
                    .flat_map(|r| r.destinations_iter())
                    .map(|d| d.0)
                    .collect();
                d.sort_unstable();
                d.dedup();
                d
            };
            // Give this actor exactly the senders it can reach. A sole
            // producer *moves* the sender out of the engine's vec: cloning
            // would permanently upgrade the SPSC mailbox to multi-producer
            // mode.
            let my_senders: Vec<Option<Sender>> = (0..n)
                .map(|j| {
                    if !eos_targets.contains(&j) {
                        None
                    } else if in_degrees[j] <= 1 {
                        senders[j].take()
                    } else {
                        senders[j].clone()
                    }
                })
                .collect();
            out_targets.push(eos_targets.clone());
            let out_bufs: Vec<Vec<Envelope>> = my_senders
                .iter()
                .map(|s| {
                    if s.is_some() {
                        buf_pool.take()
                    } else {
                        Vec::new()
                    }
                })
                .collect();
            let ctx = DeliveryCtx {
                id: ActorId(i),
                senders: my_senders,
                routes: spec.routes.into_iter().map(RouteState::new).collect(),
                eos_targets,
                rng: XorShift64::new(config.seed.wrapping_add(i as u64)),
                metrics: Arc::clone(&metrics[i]),
                started_at,
                send_timeout: config.send_timeout,
                dead_letters: DeadLetterLog::with_capacity(config.dead_letter_capacity),
                latency: hub.as_ref().and_then(|h| h.latency_of(i)),
                trace: hub.as_ref().map(|h| Arc::clone(&h.trace)),
                stamp: hub.is_some(),
                batch_size: config.batch_size.max(1),
                flush_interval: config.flush_interval,
                out_bufs,
                buf_pool: Arc::clone(&buf_pool),
                buffered: 0,
                last_flush: started_at,
                cached_now_ns: 0,
                pending_sink_outs: 0,
                pending_lat_ns: 0,
                pending_lat_n: 0,
                pool: None,
                pool_slot: base + i,
                span_mask: telemetry.as_ref().and_then(|t| t.span_mask()),
                checkpoint_interval: ckpt_interval,
                coordinator: coordinator.clone(),
            };
            let eos_left = in_degrees[i];
            match spec.behavior {
                Behavior::Source(cfg) => prepared.push((spec.name, Prepared::Source { cfg, ctx })),
                Behavior::Worker(op) => {
                    let rx = receivers[i].take().expect("worker has a mailbox");
                    let intake = ctx.batch_size;
                    prepared.push((
                        spec.name,
                        Prepared::Worker {
                            task: WorkerTask {
                                op,
                                factory: spec.factory,
                                supervision: spec.supervision,
                                rx,
                                eos_left,
                                ctx,
                                out: Outputs::new(),
                                inbox: Vec::with_capacity(intake),
                                stopped: false,
                                restarts_done: 0,
                                ckpt: ckpt_interval.map(|_| {
                                    Box::new(CkptState {
                                        markers_seen: 0,
                                        open_inputs: eos_left,
                                        aligning: 0,
                                        completed: 0,
                                        align_buf: Vec::new(),
                                        replay: ReplayBuffer::new(config.replay_capacity),
                                        snapshot: None,
                                        snapshot_epoch: 0,
                                        align_started: None,
                                    })
                                }),
                                reconfig: reconfig_src.map(|h| {
                                    Box::new(ReconfigTaskState::new(Arc::clone(&h.shared)))
                                }),
                                poll_budget: usize::MAX,
                            },
                        },
                    ));
                }
            }
        }
        // Drop the engine's own sender handles so disconnect detection can kick
        // in for actors with no upstream.
        drop(senders);

        // Kahn's algorithm over the (validated acyclic) graph assigns every
        // actor a unique topological rank: each edge ends at a strictly higher
        // rank. The pool executor's rank-filtered helping relies on this
        // invariant, and stage sharding (both executors) maps rank bands onto
        // the configured core list so pipeline neighbours share a cache domain.
        let rank = {
            let mut deg = in_degrees.clone();
            let mut order: VecDeque<usize> = (0..n).filter(|&i| deg[i] == 0).collect();
            let mut rank = vec![0usize; n];
            let mut next = 0usize;
            while let Some(u) = order.pop_front() {
                rank[u] = next;
                next += 1;
                for &v in &out_targets[u] {
                    deg[v] -= 1;
                    if deg[v] == 0 {
                        order.push_back(v);
                    }
                }
            }
            debug_assert_eq!(next, n, "validated graph is acyclic");
            rank
        };

        preps.push(TenantPrep {
            base,
            n,
            weight,
            telemetry,
            prepared,
            metrics,
            probes,
            hub,
            coordinator,
            rank,
        });
        base += n;
    }

    // Background samplers, one per telemetry-enabled tenant: each wakes
    // every `interval` and snapshots its tenant's counters and queue
    // depths into that tenant's hub. Spawned only when telemetry was
    // requested (and the `telemetry` feature is on), so the plain [`run`]
    // path pays nothing.
    #[cfg(feature = "telemetry")]
    let samplers: Vec<(Arc<std::sync::atomic::AtomicBool>, thread::JoinHandle<()>)> = preps
        .iter()
        .enumerate()
        .filter_map(|(t, prep)| {
            let tcfg = prep.telemetry.as_ref()?;
            let hub = Arc::clone(prep.hub.as_ref()?);
            let metrics = prep.metrics.clone();
            let probes = Arc::clone(&prep.probes);
            let coord = prep.coordinator.clone();
            let interval = tcfg.interval.max(Duration::from_micros(100));
            let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
            let stop_flag = Arc::clone(&stop);
            let handle = thread::Builder::new()
                .name(format!("ss-telemetry-{t}"))
                .spawn(move || {
                    use std::sync::atomic::Ordering;
                    let mut next = started_at + interval;
                    while !stop_flag.load(Ordering::Acquire) {
                        let now = Instant::now();
                        if now < next {
                            // Re-check stop and the deadline after every
                            // wakeup: park_timeout may return spuriously.
                            thread::park_timeout(next - now);
                            continue;
                        }
                        next += interval;
                        let t_ns = started_at.elapsed().as_nanos() as u64;
                        hub.sample(
                            t_ns,
                            &gather_raw(&metrics, &probes),
                            coord.as_ref().and_then(|c| c.last_complete()),
                        );
                    }
                })
                .expect("spawn telemetry sampler thread");
            Some((stop, handle))
        })
        .collect();

    let cores = config.pinning.cores.clone();

    // Per-tenant completion ledger: actor counts in, per-tenant finish
    // timestamps out. Both executors report through it, so a tenant's
    // reported wall is its own first-to-last-actor span.
    let tenant_counts: Vec<usize> = preps.iter().map(|p| p.n).collect();
    let total: usize = tenant_counts.iter().sum();
    let ledger = Arc::new(TenantLedger::new(&tenant_counts, started_at));
    let mut names: Vec<Vec<String>> = tenant_counts
        .iter()
        .map(|&n| vec![String::new(); n])
        .collect();
    // Failures are keyed by GLOBAL slot; dead-letter logs per (tenant,
    // local actor id).
    let mut failures: Vec<(usize, String)> = Vec::new();
    let mut tenant_logs: Vec<Vec<(usize, DeadLetterLog)>> = tenant_counts
        .iter()
        .map(|&n| Vec::with_capacity(n))
        .collect();
    match config.resolved_pool_workers() {
        None => {
            // Thread-per-actor: spawn, then join every thread before
            // returning — even after a failure — so no actor outlives
            // the run. With pinning on, a tenant's actor `i` goes to the
            // core owning its contiguous rank band within that tenant:
            // `cores[rank[i] * len / n]`.
            let mut handles = Vec::with_capacity(total);
            for (t, prep) in preps.iter_mut().enumerate() {
                let n = prep.n;
                let prepared = std::mem::take(&mut prep.prepared);
                for (i, (name, pa)) in prepared.into_iter().enumerate() {
                    let pin_to = (!cores.is_empty()).then(|| cores[prep.rank[i] * cores.len() / n]);
                    let slot = prep.base + i;
                    let ledger = Arc::clone(&ledger);
                    let handle = thread::Builder::new()
                        .name(format!("ss-{slot}-{name}"))
                        .spawn(move || {
                            if let Some(core) = pin_to {
                                pin_current_thread(core);
                            }
                            let log = match pa {
                                Prepared::Source { cfg, ctx } => run_source(cfg, ctx),
                                Prepared::Worker { task } => run_worker(task),
                            };
                            ledger.actor_done(t);
                            log
                        })
                        .expect("spawn actor thread");
                    handles.push((t, i, name, handle));
                }
            }
            for (t, i, name, handle) in handles {
                match handle.join() {
                    Ok(log) => tenant_logs[t].push((i, log)),
                    Err(payload) => {
                        failures.push((preps[t].base + i, panic_message(payload.as_ref())))
                    }
                }
                names[t][i] = name;
            }
        }
        Some(workers) => {
            // Pool executor: sources keep dedicated threads (they pace
            // wall-clock emission schedules) but carry the pool handle so a
            // blocked send helps run ready consumers inline instead of
            // parking; ALL tenants' worker actors become [`PoolShared`]
            // tasks multiplexed over the one fixed set of worker threads.
            //
            // Single-tenant with pinning on, the ready queue is sharded
            // per worker by rank band: worker `w` is pinned to
            // `cores[w % len]` and drains its own band's shard first, so a
            // pipeline stage's producer/consumer pairs run on the core
            // owning their band. Unpinned, a single shard reproduces the
            // classic FIFO queue. Multi-tenant, shards are tenants and
            // deficit round-robin (weighted by [`TenantSpec::weight`])
            // decides service order; each activation is budgeted to
            // [`TENANT_POLL_BUDGET`] batches so no tenant monopolizes a
            // worker.
            let mut rank_all = Vec::with_capacity(total);
            let mut tenant_of = Vec::with_capacity(total);
            for (t, prep) in preps.iter().enumerate() {
                rank_all.extend(prep.rank.iter().copied());
                tenant_of.extend(std::iter::repeat_n(t, prep.n));
            }
            let (shards, quantum) = if multi {
                let weights: Vec<u64> = preps.iter().map(|p| p.weight.max(1)).collect();
                (preps.len(), Some(weights))
            } else if cores.is_empty() {
                (1, None)
            } else {
                (workers.max(1), None)
            };
            let pool = Arc::new(PoolShared::new(
                rank_all,
                tenant_of,
                shards,
                quantum,
                Arc::clone(&ledger),
            ));
            let poll_budget = if multi {
                TENANT_POLL_BUDGET
            } else {
                usize::MAX
            };
            let mut source_handles = Vec::new();
            let mut task_ids = Vec::new();
            let mut num_sources = 0usize;
            for (t, prep) in preps.iter_mut().enumerate() {
                let prepared = std::mem::take(&mut prep.prepared);
                for (i, (name, pa)) in prepared.into_iter().enumerate() {
                    let slot = prep.base + i;
                    names[t][i] = name.clone();
                    match pa {
                        Prepared::Source { cfg, mut ctx } => {
                            ctx.pool = Some(Arc::clone(&pool));
                            // Sources are pinned round-robin: they sleep on
                            // their pace schedules, so spreading them evenly
                            // matters more than band placement.
                            let pin_to =
                                (!cores.is_empty()).then(|| cores[num_sources % cores.len()]);
                            num_sources += 1;
                            let ledger = Arc::clone(&ledger);
                            let handle = thread::Builder::new()
                                .name(format!("ss-{slot}-{name}"))
                                .spawn(move || {
                                    if let Some(core) = pin_to {
                                        pin_current_thread(core);
                                    }
                                    let log = run_source(cfg, ctx);
                                    ledger.actor_done(t);
                                    log
                                })
                                .expect("spawn source thread");
                            source_handles.push((t, i, handle));
                        }
                        Prepared::Worker { mut task } => {
                            task.ctx.pool = Some(Arc::clone(&pool));
                            task.poll_budget = poll_budget;
                            // The mailbox wakes the pool on every push burst
                            // and on final-sender drop, so this consumer gets
                            // scheduled even while its producers are blocked
                            // mid-`send_batch`.
                            let hook_pool = Arc::clone(&pool);
                            task.rx
                                .set_wake_hook(Arc::new(move || hook_pool.wake(slot)));
                            task.ctx.trace_event(TraceEventKind::ActorStarted);
                            *pool.tasks[slot]
                                .lock()
                                .unwrap_or_else(PoisonError::into_inner) = Some(task);
                            task_ids.push(slot);
                        }
                    }
                }
            }
            pool.live.store(task_ids.len(), Ordering::Release);
            // Initial sweep: every task polls at least once, covering
            // zero-upstream actors and envelopes pushed by sources before
            // the wake hooks above were installed.
            for &slot in &task_ids {
                pool.wake(slot);
            }
            let mut pool_handles = Vec::with_capacity(workers.max(1));
            for w in 0..workers.max(1) {
                let pool = Arc::clone(&pool);
                let pin_to = (!cores.is_empty()).then(|| cores[w % cores.len()]);
                let home = w % shards;
                pool_handles.push(
                    thread::Builder::new()
                        .name(format!("ss-pool-{w}"))
                        .spawn(move || {
                            if let Some(core) = pin_to {
                                pin_current_thread(core);
                            }
                            worker_loop(&pool, home)
                        })
                        .expect("spawn pool worker thread"),
                );
            }
            for (t, i, handle) in source_handles {
                match handle.join() {
                    Ok(log) => tenant_logs[t].push((i, log)),
                    Err(payload) => {
                        failures.push((preps[t].base + i, panic_message(payload.as_ref())))
                    }
                }
            }
            for handle in pool_handles {
                let _ = handle.join();
            }
            let tenant_of_slot = |slot: usize| {
                preps
                    .iter()
                    .rposition(|p| p.base <= slot)
                    .expect("slot belongs to a tenant")
            };
            for (slot, log) in std::mem::take(
                &mut *pool
                    .collected
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner),
            ) {
                let t = tenant_of_slot(slot);
                tenant_logs[t].push((slot - preps[t].base, log));
            }
            failures.extend(std::mem::take(
                &mut *pool.failures.lock().unwrap_or_else(PoisonError::into_inner),
            ));
        }
    }
    // Match thread-per-actor reporting: the failure with the lowest
    // global slot wins, reported under its tenant-local actor id.
    failures.sort_by_key(|(slot, _)| *slot);
    let failure = failures.into_iter().next().map(|(slot, reason)| {
        let t = preps
            .iter()
            .rposition(|p| p.base <= slot)
            .expect("slot belongs to a tenant");
        EngineError::ActorFailed {
            actor: ActorId(slot - preps[t].base),
            reason,
        }
    });
    let total_wall = started_at.elapsed();

    // Stop the samplers before the final end-of-run snapshots so snapshot
    // ticks stay strictly ordered.
    #[cfg(feature = "telemetry")]
    for (stop, handle) in samplers {
        stop.store(true, std::sync::atomic::Ordering::Release);
        handle.thread().unpark();
        let _ = handle.join();
    }
    let mut telemetry_reports: Vec<Option<TelemetryReport>> = preps
        .iter_mut()
        .map(|prep| {
            prep.hub.take().map(|hub| {
                // Final end-of-run sample: every actor has been joined, so
                // this snapshot carries the *final* cumulative counters —
                // exports never end on a stale periodic tick.
                let t_ns = started_at.elapsed().as_nanos() as u64;
                hub.sample(
                    t_ns,
                    &gather_raw(&prep.metrics, &prep.probes),
                    prep.coordinator.as_ref().and_then(|c| c.last_complete()),
                );
                Arc::try_unwrap(hub)
                    .ok()
                    .expect("every telemetry holder has been joined")
                    .into_report()
            })
        })
        .collect();

    if let Some(err) = failure {
        return Err(err);
    }

    let mut out = Vec::with_capacity(preps.len());
    for (t, prep) in preps.iter().enumerate() {
        let reports = (0..prep.n)
            .map(|i| prep.metrics[i].snapshot(&names[t][i], ActorId(i)))
            .collect();
        // A tenant's wall is its own first-to-last-actor span; the solo
        // case keeps the classic whole-run elapsed time (identical here,
        // minus ledger stamping skew).
        let wall = if multi {
            ledger.wall(t).unwrap_or(total_wall)
        } else {
            total_wall
        };
        // Merge per-actor logs in actor-id order; the capacity cap still
        // bounds retained entries while totals stay exact.
        let logs = &mut tenant_logs[t];
        logs.sort_by_key(|(i, _)| *i);
        let mut dead_letters = DeadLetterLog::with_capacity(config.dead_letter_capacity);
        for (_, log) in logs.iter() {
            dead_letters.merge(log);
        }
        out.push((
            RunReport {
                actors: reports,
                wall,
                started_at,
                dead_letters,
                last_complete_epoch: prep.coordinator.as_ref().and_then(|c| c.last_complete()),
            },
            telemetry_reports[t].take(),
        ));
    }
    Ok(out)
}

/// Loads every actor's raw cumulative counters plus current queue depth
/// and the cumulative producer stall time charged to its inbox.
fn gather_raw(metrics: &[Arc<ActorMetrics>], probes: &[Option<DepthProbe>]) -> Vec<RawCounters> {
    metrics
        .iter()
        .zip(probes)
        .map(|(m, p)| {
            RawCounters::from_metrics(
                m,
                p.as_ref().map(DepthProbe::len),
                p.as_ref().map(DepthProbe::stalled_ns).unwrap_or(0),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::{FnOperator, PassThrough, Spin};
    use crate::{Behavior, Route, SourceConfig};

    fn fast_cfg() -> EngineConfig {
        EngineConfig {
            mailbox_capacity: 64,
            send_timeout: Duration::from_secs(5),
            seed: 1,
            ..EngineConfig::default()
        }
    }

    #[test]
    fn source_to_sink_delivers_all_items() {
        let mut g = ActorGraph::new();
        let s = g.add_actor(
            "src",
            Behavior::Source(SourceConfig::new(f64::INFINITY, 500)),
        );
        let k = g.add_actor("sink", Behavior::worker(PassThrough));
        g.connect(s, Route::Unicast(k));
        let r = run(g, &fast_cfg()).unwrap();
        assert_eq!(r.actor(k).items_in, 500);
        assert_eq!(r.actor(s).items_out, 500);
        assert_eq!(r.total_dropped(), 0);
    }

    #[test]
    fn pinned_pipeline_delivers_all_items_on_both_executors() {
        // Pinning must never change results — on this machine the cores
        // may not even exist, in which case it degrades to a warn-once
        // no-op and the run proceeds unpinned.
        for executor in [
            ExecutorKind::ThreadPerActor,
            ExecutorKind::Pool { workers: 2 },
        ] {
            let mut g = ActorGraph::new();
            let s = g.add_actor(
                "src",
                Behavior::Source(SourceConfig::new(f64::INFINITY, 400)),
            );
            let a = g.add_actor("a", Behavior::worker(PassThrough));
            let b = g.add_actor("b", Behavior::worker(PassThrough));
            g.connect(s, Route::Unicast(a));
            g.connect(a, Route::Unicast(b));
            let cfg = EngineConfig {
                executor,
                batch_size: 8,
                pinning: crate::affinity::PinningConfig::on_cores(vec![0, 1]),
                ..fast_cfg()
            };
            let r = run(g, &cfg).unwrap();
            assert_eq!(r.actor(b).items_in, 400, "{executor:?}");
            assert_eq!(r.total_dropped(), 0, "{executor:?}");
        }
    }

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
    fn pipeline_preserves_order_and_count() {
        let mut g = ActorGraph::new();
        let s = g.add_actor(
            "src",
            Behavior::Source(SourceConfig::new(f64::INFINITY, 200)),
        );
        let a = g.add_actor("a", Behavior::worker(PassThrough));
        let b = g.add_actor("b", Behavior::worker(PassThrough));
        g.connect(s, Route::Unicast(a));
        g.connect(a, Route::Unicast(b));
        let r = run(g, &fast_cfg()).unwrap();
        assert_eq!(r.actor(b).items_in, 200);
        assert_eq!(r.actor(a).items_out, 200);
    }

    #[test]
    fn paced_source_rate_is_respected() {
        let mut g = ActorGraph::new();
        let s = g.add_actor("src", Behavior::Source(SourceConfig::new(2000.0, 600)));
        let k = g.add_actor("sink", Behavior::worker(PassThrough));
        g.connect(s, Route::Unicast(k));
        let r = run(g, &fast_cfg()).unwrap();
        let rate = r.actor(s).departure_rate().unwrap();
        assert!(
            (rate - 2000.0).abs() / 2000.0 < 0.15,
            "measured source rate {rate}"
        );
    }

    #[test]
    fn paced_source_never_runs_ahead_of_schedule() {
        // 2 000 tuples at 20 k/s: slot `i` is `i` periods after the source
        // starts, and no tuple leaves before its slot. Lateness only lowers
        // the measured rate, so the upper bounds hold on a loaded host.
        let (rate, count) = (20_000.0, 2_000u64);
        let min_span_ns = (count - 1) * 1_000_000_000 / 20_000;
        let batched = EngineConfig {
            batch_size: 64,
            ..pool_cfg(1)
        };
        for (label, cfg) in [
            ("threads, batch 1", fast_cfg()),
            ("pool-1, batch 64", batched),
        ] {
            let mut g = ActorGraph::new();
            let s = g.add_actor("src", Behavior::Source(SourceConfig::new(rate, count)));
            let k = g.add_actor("sink", Behavior::worker(PassThrough));
            g.connect(s, Route::Unicast(k));
            let r = run(g, &cfg).unwrap();
            assert_eq!(r.actor(k).items_in, count, "{label}");
            // Departures are stamped per flush, so the last one is no
            // earlier than the last tuple's slot.
            assert!(
                r.actor(s).last_out_ns >= min_span_ns,
                "{label}: last departure at {} ns, before the last slot",
                r.actor(s).last_out_ns
            );
            if cfg.batch_size == 1 {
                let measured = r.actor(s).departure_rate().unwrap();
                assert!(
                    measured <= 1.02 * rate,
                    "{label}: measured source rate {measured} runs ahead of {rate}"
                );
            }
        }
    }

    #[test]
    fn due_emissions_counts_slots_caps_bursts_and_rebases() {
        let p = Duration::from_micros(10);
        let t0 = Instant::now();
        // Ahead of schedule: nothing is due and the schedule stays put.
        let mut next_t = t0 + p;
        assert_eq!(due_emissions(&mut next_t, t0, p, 64), 0);
        assert_eq!(next_t, t0 + p);
        // Exactly on a slot: that slot is due.
        let mut next_t = t0;
        assert_eq!(due_emissions(&mut next_t, t0, p, 64), 1);
        assert_eq!(next_t, t0 + p);
        // 3.5 periods late: slots 0-3 are due, the next is in the future.
        let mut next_t = t0;
        assert_eq!(due_emissions(&mut next_t, t0 + p * 7 / 2, p, 64), 4);
        assert_eq!(next_t, t0 + p * 4);
        // The cap bounds a burst; the rest stays due for the next one.
        let mut next_t = t0;
        let now = t0 + p * 100;
        assert_eq!(due_emissions(&mut next_t, now, p, 64), 64);
        assert_eq!(next_t, t0 + p * 64);
        assert_eq!(due_emissions(&mut next_t, now, p, 64), 37);
        assert_eq!(next_t, t0 + p * 101);
        assert_eq!(due_emissions(&mut next_t, now, p, 64), 0);
        // Within the re-base horizon after the burst: keep catching up.
        let mut next_t = t0;
        let now = t0 + REBASE_AFTER + p * 64;
        assert_eq!(due_emissions(&mut next_t, now, p, 64), 64);
        assert_eq!(next_t, t0 + p * 64);
        // Beyond it: backpressure, so resume the nominal pace from now.
        let mut next_t = t0;
        let now = t0 + REBASE_AFTER + p * 65;
        assert_eq!(due_emissions(&mut next_t, now, p, 64), 64);
        assert_eq!(next_t, now);
        assert_eq!(due_emissions(&mut next_t, now, p, 64), 1);
        assert_eq!(next_t, now + p);
        // A sub-nanosecond period rounds to zero: every slot is due.
        let mut next_t = t0;
        assert_eq!(due_emissions(&mut next_t, t0, Duration::ZERO, 64), 64);
        assert_eq!(next_t, t0);
    }

    #[test]
    fn backpressure_throttles_source_to_bottleneck_rate() {
        // Source at ~5000/s into a worker that can only do ~1000/s
        // (1 ms busy per item): measured source rate must collapse to the
        // bottleneck's service rate — the BAS phenomenon of §2.
        let mut g = ActorGraph::new();
        let s = g.add_actor("src", Behavior::Source(SourceConfig::new(5000.0, 900)));
        let w = g.add_actor("slow", Behavior::worker(Spin::new("slow", 1_000_000)));
        g.connect(s, Route::Unicast(w));
        g.set_mailbox_capacity(w, 16);
        let r = run(g, &fast_cfg()).unwrap();
        let src_rate = r.actor(s).departure_rate().unwrap();
        assert!(
            (src_rate - 1000.0).abs() / 1000.0 < 0.15,
            "source rate {src_rate} should be backpressured to ~1000/s"
        );
        assert!(r.actor(s).blocked > Duration::ZERO);
    }

    #[test]
    fn round_robin_splits_evenly() {
        let mut g = ActorGraph::new();
        let s = g.add_actor(
            "src",
            Behavior::Source(SourceConfig::new(f64::INFINITY, 300)),
        );
        let a = g.add_actor("r0", Behavior::worker(PassThrough));
        let b = g.add_actor("r1", Behavior::worker(PassThrough));
        let c = g.add_actor("r2", Behavior::worker(PassThrough));
        g.connect(s, Route::RoundRobin(vec![a, b, c]));
        let r = run(g, &fast_cfg()).unwrap();
        for id in [a, b, c] {
            assert_eq!(r.actor(id).items_in, 100);
        }
    }

    #[test]
    fn probabilistic_route_approximates_distribution() {
        let mut g = ActorGraph::new();
        let s = g.add_actor(
            "src",
            Behavior::Source(SourceConfig::new(f64::INFINITY, 10_000)),
        );
        let a = g.add_actor("p3", Behavior::worker(PassThrough));
        let b = g.add_actor("p7", Behavior::worker(PassThrough));
        g.connect(
            s,
            Route::Probabilistic {
                choices: vec![(a, 0.3), (b, 0.7)],
            },
        );
        let r = run(g, &fast_cfg()).unwrap();
        let fa = r.actor(a).items_in as f64 / 10_000.0;
        assert!((fa - 0.3).abs() < 0.03, "fraction {fa}");
        assert_eq!(r.actor(a).items_in + r.actor(b).items_in, 10_000);
    }

    #[test]
    fn key_map_routes_by_key() {
        use spinstreams_core::KeyDistribution;
        let mut g = ActorGraph::new();
        let cfg = SourceConfig::new(f64::INFINITY, 1000).with_keys(KeyDistribution::uniform(4));
        let s = g.add_actor("src", Behavior::Source(cfg));
        let a = g.add_actor("r0", Behavior::worker(PassThrough));
        let b = g.add_actor("r1", Behavior::worker(PassThrough));
        g.connect(
            s,
            Route::KeyMap {
                key_map: vec![0, 1, 0, 1],
                destinations: vec![a, b],
            },
        );
        let r = run(g, &fast_cfg()).unwrap();
        let total = r.actor(a).items_in + r.actor(b).items_in;
        assert_eq!(total, 1000);
        // Uniform keys, 2+2 split: roughly half each.
        let fa = r.actor(a).items_in as f64 / 1000.0;
        assert!((fa - 0.5).abs() < 0.1, "fraction {fa}");
    }

    #[test]
    fn eos_waits_for_all_upstreams() {
        // Two branches converge on one sink; the sink must see items from
        // both before terminating.
        let mut g = ActorGraph::new();
        let s = g.add_actor(
            "src",
            Behavior::Source(SourceConfig::new(f64::INFINITY, 400)),
        );
        let a = g.add_actor("a", Behavior::worker(PassThrough));
        let b = g.add_actor("b", Behavior::worker(Spin::new("b", 50_000)));
        let k = g.add_actor("k", Behavior::worker(PassThrough));
        g.connect(
            s,
            Route::Probabilistic {
                choices: vec![(a, 0.5), (b, 0.5)],
            },
        );
        g.connect(a, Route::Unicast(k));
        g.connect(b, Route::Unicast(k));
        let r = run(g, &fast_cfg()).unwrap();
        assert_eq!(r.actor(k).items_in, 400);
    }

    #[test]
    fn flush_emissions_are_delivered_after_eos() {
        struct HoldAll {
            buf: Vec<Tuple>,
        }
        impl crate::StreamOperator for HoldAll {
            fn process(&mut self, item: Tuple, _out: &mut Outputs) {
                self.buf.push(item);
            }
            fn flush(&mut self, out: &mut Outputs) {
                for t in self.buf.drain(..) {
                    out.emit_default(t);
                }
            }
        }
        let mut g = ActorGraph::new();
        let s = g.add_actor(
            "src",
            Behavior::Source(SourceConfig::new(f64::INFINITY, 50)),
        );
        let h = g.add_actor("hold", Behavior::Worker(Box::new(HoldAll { buf: vec![] })));
        let k = g.add_actor("sink", Behavior::worker(PassThrough));
        g.connect(s, Route::Unicast(h));
        g.connect(h, Route::Unicast(k));
        let r = run(g, &fast_cfg()).unwrap();
        assert_eq!(r.actor(k).items_in, 50);
    }

    #[test]
    fn sink_emissions_counted_without_routes() {
        let mut g = ActorGraph::new();
        let s = g.add_actor(
            "src",
            Behavior::Source(SourceConfig::new(f64::INFINITY, 123)),
        );
        let k = g.add_actor("sink", Behavior::worker(PassThrough));
        g.connect(s, Route::Unicast(k));
        let r = run(g, &fast_cfg()).unwrap();
        // PassThrough emits on port 0 which has no route on the sink.
        assert_eq!(r.actor(k).items_out, 123);
        assert!(r.actor(k).departure_rate().is_some());
    }

    #[test]
    fn send_timeout_drops_items_when_consumer_stalls() {
        // A consumer much slower than the timeout: with a tiny timeout the
        // source drops items instead of waiting (load-shedding mode).
        let mut g = ActorGraph::new();
        let s = g.add_actor(
            "src",
            Behavior::Source(SourceConfig::new(f64::INFINITY, 64)),
        );
        let w = g.add_actor("slow", Behavior::worker(Spin::new("slow", 3_000_000)));
        g.connect(s, Route::Unicast(w));
        g.set_mailbox_capacity(w, 4);
        let cfg = EngineConfig {
            send_timeout: Duration::from_millis(1),
            ..fast_cfg()
        };
        let r = run(g, &cfg).unwrap();
        assert!(r.actor(s).dropped > 0, "expected drops under 1 ms timeout");
        assert!(r.actor(w).items_in < 64);
        // Every drop is structurally accounted as a dead letter.
        assert_eq!(r.total_dead_letters(), r.actor(s).dropped);
        assert_eq!(r.dead_letters.total(), r.actor(s).dropped);
        let first = &r.dead_letters.entries()[0];
        assert_eq!(first.source, s);
        assert_eq!(first.destination, Some(w));
        assert_eq!(first.reason, DeadLetterReason::SendTimeout);
    }

    #[test]
    fn validation_errors() {
        // No actors.
        assert_eq!(
            run(ActorGraph::new(), &fast_cfg()).unwrap_err(),
            EngineError::NoActors
        );
        // No source.
        let mut g = ActorGraph::new();
        g.add_actor("w", Behavior::worker(PassThrough));
        assert_eq!(run(g, &fast_cfg()).unwrap_err(), EngineError::NoSource);
        // Unknown destination.
        let mut g = ActorGraph::new();
        let s = g.add_actor("src", Behavior::Source(SourceConfig::new(1.0, 1)));
        g.connect(s, Route::Unicast(ActorId(9)));
        assert!(matches!(
            run(g, &fast_cfg()).unwrap_err(),
            EngineError::UnknownDestination { .. }
        ));
        // Route to source.
        let mut g = ActorGraph::new();
        let s = g.add_actor("src", Behavior::Source(SourceConfig::new(1.0, 1)));
        let s2 = g.add_actor("src2", Behavior::Source(SourceConfig::new(1.0, 1)));
        g.connect(s, Route::Unicast(s2));
        assert!(matches!(
            run(g, &fast_cfg()).unwrap_err(),
            EngineError::RouteToSource { .. }
        ));
        // Bad probability mass.
        let mut g = ActorGraph::new();
        let s = g.add_actor("src", Behavior::Source(SourceConfig::new(1.0, 1)));
        let w = g.add_actor("w", Behavior::worker(PassThrough));
        g.connect(
            s,
            Route::Probabilistic {
                choices: vec![(w, 0.4)],
            },
        );
        assert!(matches!(
            run(g, &fast_cfg()).unwrap_err(),
            EngineError::InvalidRoute { .. }
        ));
        // Cycle between two workers.
        let mut g = ActorGraph::new();
        let s = g.add_actor("src", Behavior::Source(SourceConfig::new(1.0, 1)));
        let a = g.add_actor("a", Behavior::worker(PassThrough));
        let b = g.add_actor("b", Behavior::worker(PassThrough));
        g.connect(s, Route::Unicast(a));
        g.connect(a, Route::Unicast(b));
        g.connect(b, Route::Unicast(a));
        assert_eq!(run(g, &fast_cfg()).unwrap_err(), EngineError::Cyclic);
    }

    /// Panics on items whose `seq` is a multiple of `every` (except 0 when
    /// `skip_zero`); passes everything else through.
    struct PanicEvery {
        every: u64,
    }
    impl crate::StreamOperator for PanicEvery {
        fn process(&mut self, item: Tuple, out: &mut Outputs) {
            if item.seq.is_multiple_of(self.every) {
                panic!("injected: seq {}", item.seq);
            }
            out.emit_default(item);
        }
        fn name(&self) -> &str {
            "panic-every"
        }
    }

    #[test]
    fn resume_drops_only_poisoned_items() {
        use crate::supervision::SupervisorSpec;
        let mut g = ActorGraph::new();
        let s = g.add_actor(
            "src",
            Behavior::Source(SourceConfig::new(f64::INFINITY, 100)),
        );
        let w = g.add_actor(
            "flaky",
            Behavior::Worker(Box::new(PanicEvery { every: 10 })),
        );
        let k = g.add_actor("sink", Behavior::worker(PassThrough));
        g.connect(s, Route::Unicast(w));
        g.connect(w, Route::Unicast(k));
        g.set_supervision(w, SupervisorSpec::resume());
        let r = run(g, &fast_cfg()).unwrap();
        // seq 0, 10, ..., 90 panic: 10 poisoned items, 90 delivered.
        assert_eq!(r.actor(w).items_in, 100);
        assert_eq!(r.actor(w).panics, 10);
        assert_eq!(r.actor(w).restarts, 0);
        assert_eq!(r.actor(k).items_in, 90);
        assert_eq!(r.dead_letters.total(), 10);
        assert_eq!(
            r.dead_letters.by_reason(DeadLetterReason::OperatorPanic),
            10
        );
        assert!(r.dead_letters.entries().iter().all(|l| l.source == w));
    }

    #[test]
    fn restart_reinstantiates_operator_via_factory() {
        use crate::supervision::{Backoff, OperatorFactory, SupervisorSpec};
        // Dies on its 3rd item, every life: without restart (state reset)
        // it would stop after one failure.
        struct DiesAtThree {
            seen: u64,
        }
        impl crate::StreamOperator for DiesAtThree {
            fn process(&mut self, item: Tuple, out: &mut Outputs) {
                self.seen += 1;
                if self.seen == 3 {
                    panic!("third item");
                }
                out.emit_default(item);
            }
        }
        let mut g = ActorGraph::new();
        let s = g.add_actor(
            "src",
            Behavior::Source(SourceConfig::new(f64::INFINITY, 30)),
        );
        let w = g.add_actor(
            "fragile",
            Behavior::Worker(Box::new(DiesAtThree { seen: 0 })),
        );
        let k = g.add_actor("sink", Behavior::worker(PassThrough));
        g.connect(s, Route::Unicast(w));
        g.connect(w, Route::Unicast(k));
        g.set_supervision(w, SupervisorSpec::restart(100, Backoff::none()));
        g.set_restart_factory(
            w,
            OperatorFactory::new(|| Box::new(DiesAtThree { seen: 0 })),
        );
        let r = run(g, &fast_cfg()).unwrap();
        // Every life processes 2 items then dies on the 3rd: 30 items =
        // 10 lives, 10 panics, 10 restarts, 20 delivered.
        assert_eq!(r.actor(w).panics, 10);
        assert_eq!(r.actor(w).restarts, 10);
        assert_eq!(r.actor(k).items_in, 20);
        assert_eq!(r.dead_letters.total(), 10);
    }

    #[test]
    fn restart_without_factory_resets_operator() {
        use crate::supervision::{Backoff, SupervisorSpec};
        struct DiesAtThree {
            seen: u64,
        }
        impl crate::StreamOperator for DiesAtThree {
            fn process(&mut self, item: Tuple, out: &mut Outputs) {
                self.seen += 1;
                if self.seen == 3 {
                    panic!("third item");
                }
                out.emit_default(item);
            }
            fn reset(&mut self) {
                self.seen = 0;
            }
        }
        let mut g = ActorGraph::new();
        let s = g.add_actor(
            "src",
            Behavior::Source(SourceConfig::new(f64::INFINITY, 30)),
        );
        let w = g.add_actor(
            "fragile",
            Behavior::Worker(Box::new(DiesAtThree { seen: 0 })),
        );
        let k = g.add_actor("sink", Behavior::worker(PassThrough));
        g.connect(s, Route::Unicast(w));
        g.connect(w, Route::Unicast(k));
        g.set_supervision(w, SupervisorSpec::restart(100, Backoff::none()));
        let r = run(g, &fast_cfg()).unwrap();
        assert_eq!(r.actor(w).panics, 10);
        assert_eq!(r.actor(w).restarts, 10);
        assert_eq!(r.actor(k).items_in, 20);
    }

    #[test]
    fn restart_backoff_time_is_recorded() {
        use crate::supervision::{Backoff, SupervisorSpec};
        let mut g = ActorGraph::new();
        let s = g.add_actor(
            "src",
            Behavior::Source(SourceConfig::new(f64::INFINITY, 20)),
        );
        let w = g.add_actor("flaky", Behavior::Worker(Box::new(PanicEvery { every: 5 })));
        g.connect(s, Route::Unicast(w));
        g.set_supervision(
            w,
            SupervisorSpec::restart(
                100,
                Backoff {
                    initial: Duration::from_millis(2),
                    max: Duration::from_millis(2),
                    multiplier: 1.0,
                    jitter: 0.0,
                },
            ),
        );
        let r = run(g, &fast_cfg()).unwrap();
        assert_eq!(r.actor(w).restarts, 4);
        assert!(
            r.actor(w).backoff >= Duration::from_millis(8),
            "backoff {:?}",
            r.actor(w).backoff
        );
    }

    #[test]
    fn restart_budget_exhaustion_stops_the_actor() {
        use crate::supervision::{Backoff, SupervisorSpec};
        struct AlwaysPanics;
        impl crate::StreamOperator for AlwaysPanics {
            fn process(&mut self, _item: Tuple, _out: &mut Outputs) {
                panic!("always");
            }
        }
        let mut g = ActorGraph::new();
        let s = g.add_actor(
            "src",
            Behavior::Source(SourceConfig::new(f64::INFINITY, 50)),
        );
        let w = g.add_actor("doomed", Behavior::Worker(Box::new(AlwaysPanics)));
        let k = g.add_actor("sink", Behavior::worker(PassThrough));
        g.connect(s, Route::Unicast(w));
        g.connect(w, Route::Unicast(k));
        g.set_supervision(w, SupervisorSpec::restart(2, Backoff::none()));
        let r = run(g, &fast_cfg()).unwrap();
        // Items 1-3 panic (2 restarts used, 3rd failure exhausts the
        // budget); items 4-50 arrive at a stopped actor and drop.
        assert_eq!(r.actor(w).panics, 3);
        assert_eq!(r.actor(w).restarts, 2);
        assert_eq!(r.actor(k).items_in, 0);
        assert_eq!(r.dead_letters.total(), 50);
        assert_eq!(r.dead_letters.by_reason(DeadLetterReason::OperatorPanic), 3);
        assert_eq!(r.dead_letters.by_reason(DeadLetterReason::StoppedActor), 47);
    }

    #[test]
    fn stopped_actor_can_degrade_to_forwarding() {
        use crate::supervision::{DegradePolicy, SupervisorSpec};
        let mut g = ActorGraph::new();
        let s = g.add_actor(
            "src",
            Behavior::Source(SourceConfig::new(f64::INFINITY, 40)),
        );
        // Panics on seq 0, i.e. immediately; Stop + Forward turns the
        // actor into an identity for the remaining 39 items.
        let w = g.add_actor(
            "flaky",
            Behavior::Worker(Box::new(PanicEvery { every: 64 })),
        );
        let k = g.add_actor("sink", Behavior::worker(PassThrough));
        g.connect(s, Route::Unicast(w));
        g.connect(w, Route::Unicast(k));
        g.set_supervision(
            w,
            SupervisorSpec::default().with_degrade(DegradePolicy::Forward),
        );
        let r = run(g, &fast_cfg()).unwrap();
        assert_eq!(r.actor(w).panics, 1);
        assert_eq!(r.actor(k).items_in, 39);
        assert_eq!(r.dead_letters.total(), 1);
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
    fn default_policy_stops_and_drops_silently_but_accountably() {
        let mut g = ActorGraph::new();
        let s = g.add_actor(
            "src",
            Behavior::Source(SourceConfig::new(f64::INFINITY, 25)),
        );
        let w = g.add_actor(
            "flaky",
            Behavior::Worker(Box::new(PanicEvery { every: 64 })),
        );
        let k = g.add_actor("sink", Behavior::worker(PassThrough));
        g.connect(s, Route::Unicast(w));
        g.connect(w, Route::Unicast(k));
        // No set_supervision call: default is Stop + Drop.
        let r = run(g, &fast_cfg()).unwrap();
        assert_eq!(r.actor(w).panics, 1);
        assert_eq!(r.actor(k).items_in, 0);
        assert_eq!(r.dead_letters.total(), 25);
        assert_eq!(r.total_dead_letters(), 25);
    }

    #[test]
    fn telemetry_run_samples_latency_and_traces_lifecycle() {
        let mut g = ActorGraph::new();
        let s = g.add_actor("src", Behavior::Source(SourceConfig::new(5_000.0, 200)));
        let w = g.add_actor("work", Behavior::worker(Spin::new("w", 50_000)));
        let k = g.add_actor("sink", Behavior::worker(PassThrough));
        g.connect(s, Route::Unicast(w));
        g.connect(w, Route::Unicast(k));
        let tcfg = TelemetryConfig::default().with_interval(Duration::from_millis(5));
        let (report, tel) = run_with_telemetry(g, &fast_cfg(), &tcfg).unwrap();
        assert_eq!(report.actor(k).items_in, 200);

        // At minimum the end-of-run snapshot exists; with the sampler
        // feature on, a ~40 ms paced run at a 5 ms interval yields several.
        assert!(!tel.snapshots.is_empty());
        #[cfg(feature = "telemetry")]
        assert!(tel.snapshots.len() >= 2, "got {}", tel.snapshots.len());
        let last = tel.snapshots.last().unwrap();
        assert_eq!(last.actors.len(), 3);
        assert_eq!(last.actors[k.0].items_in, 200);
        assert_eq!(
            last.actors[s.0].queue_depth, None,
            "sources have no mailbox"
        );
        assert_eq!(last.actors[w.0].queue_capacity, Some(64));

        // Every tuple's end-to-end latency landed in the sink histogram.
        assert_eq!(last.latencies.len(), 1);
        assert_eq!(last.latencies[0].actor, k);
        assert_eq!(last.latencies[0].latency.count, 200);
        // The Spin stage costs 50 µs alone, so the p50 must exceed that.
        assert!(
            last.latencies[0].latency.p50_ns >= 50_000,
            "p50 {}",
            last.latencies[0].latency.p50_ns
        );

        // Lifecycle trace: every actor started and finished.
        let starts = tel
            .trace
            .iter()
            .filter(|e| e.kind == TraceEventKind::ActorStarted)
            .count();
        let finishes = tel
            .trace
            .iter()
            .filter(|e| e.kind == TraceEventKind::ActorFinished)
            .count();
        assert_eq!(starts, 3);
        assert_eq!(finishes, 3);
        // Sequence numbers are gap-free and ordered.
        for (i, e) in tel.trace.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
        }
        // Snapshot ticks are strictly increasing with monotone time.
        for pair in tel.snapshots.windows(2) {
            assert_eq!(pair[1].tick, pair[0].tick + 1);
            assert!(pair[1].t_ns >= pair[0].t_ns);
        }
    }

    #[test]
    fn telemetry_traces_panics_restarts_and_stops() {
        use crate::supervision::{Backoff, SupervisorSpec};
        let mut g = ActorGraph::new();
        let s = g.add_actor(
            "src",
            Behavior::Source(SourceConfig::new(f64::INFINITY, 20)),
        );
        let w = g.add_actor("flaky", Behavior::Worker(Box::new(PanicEvery { every: 5 })));
        g.connect(s, Route::Unicast(w));
        g.set_supervision(w, SupervisorSpec::restart(2, Backoff::none()));
        let (report, tel) =
            run_with_telemetry(g, &fast_cfg(), &TelemetryConfig::default()).unwrap();
        // seq 0 and 5 panic and restart; seq 10's panic exhausts the
        // budget (stop); seq 11-19 then arrive at a stopped actor.
        assert_eq!(report.actor(w).panics, 3);
        let count = |k: TraceEventKind| tel.trace.iter().filter(|e| e.kind == k).count() as u64;
        assert_eq!(count(TraceEventKind::OperatorPanicked), 3);
        assert_eq!(count(TraceEventKind::OperatorRestarted), 2);
        assert_eq!(count(TraceEventKind::ActorStopped), 1);
        // 3 poisoned items + 9 items dropped at the stopped actor.
        assert_eq!(
            tel.trace
                .iter()
                .filter(|e| matches!(e.kind, TraceEventKind::DeadLetter { .. }))
                .count(),
            12
        );
        // The final snapshot reflects the same counters.
        let last = tel.snapshots.last().unwrap();
        assert_eq!(last.actors[w.0].panics, 3);
        assert_eq!(last.actors[w.0].restarts, 2);
    }

    #[test]
    fn closure_operators_transform_items() {
        let mut g = ActorGraph::new();
        let s = g.add_actor(
            "src",
            Behavior::Source(SourceConfig::new(f64::INFINITY, 100)),
        );
        let double = g.add_actor(
            "double",
            Behavior::Worker(Box::new(FnOperator::new(
                "double",
                |t: Tuple, out: &mut Outputs| {
                    out.emit_default(t);
                    out.emit_default(t);
                },
            ))),
        );
        let k = g.add_actor("sink", Behavior::worker(PassThrough));
        g.connect(s, Route::Unicast(double));
        g.connect(double, Route::Unicast(k));
        let r = run(g, &fast_cfg()).unwrap();
        assert_eq!(r.actor(k).items_in, 200);
    }

    fn pool_cfg(workers: usize) -> EngineConfig {
        EngineConfig {
            executor: ExecutorKind::Pool { workers },
            ..fast_cfg()
        }
    }

    #[test]
    fn pool_workers_resolution() {
        assert_eq!(ExecutorKind::ThreadPerActor.pool_workers(), None);
        assert_eq!(ExecutorKind::Pool { workers: 3 }.pool_workers(), Some(3));
        let auto = ExecutorKind::Pool { workers: 0 }.pool_workers().unwrap();
        assert!(auto >= 1, "auto-resolved worker count must be positive");
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
        // path in `pool_send_batch` end to end.
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
    fn pool_send_timeout_drops_items_when_consumer_stalls() {
        // The pool analogue of `send_timeout_drops_items_when_consumer_stalls`:
        // BAS load shedding and dead-letter accounting must survive the
        // executor swap.
        let mut g = ActorGraph::new();
        let s = g.add_actor(
            "src",
            Behavior::Source(SourceConfig::new(f64::INFINITY, 64)),
        );
        let w = g.add_actor("slow", Behavior::worker(Spin::new("slow", 3_000_000)));
        g.connect(s, Route::Unicast(w));
        g.set_mailbox_capacity(w, 2);
        let cfg = EngineConfig {
            send_timeout: Duration::from_millis(1),
            ..pool_cfg(1)
        };
        let r = run(g, &cfg).unwrap();
        let dropped = r.actor(s).dropped;
        assert!(dropped > 0, "expected send-timeout drops");
        assert_eq!(r.dead_letters.total(), dropped);
        assert_eq!(r.actor(s).dead_letters, dropped);
        assert_eq!(r.actor(w).items_in + dropped, 64, "conservation");
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
    fn pool_executor_batched_runs_match_threaded_counts() {
        // Same seeded graph under both executors at batch 64: per-actor
        // item counts are a pure function of the routing RNG and must be
        // identical.
        let build = || {
            let mut g = ActorGraph::new();
            let s = g.add_actor(
                "src",
                Behavior::Source(SourceConfig::new(f64::INFINITY, 2_000)),
            );
            let r0 = g.add_actor("r0", Behavior::worker(PassThrough));
            let r1 = g.add_actor("r1", Behavior::worker(PassThrough));
            let k = g.add_actor("sink", Behavior::worker(PassThrough));
            g.connect(s, Route::RoundRobin(vec![r0, r1]));
            g.connect(r0, Route::Unicast(k));
            g.connect(r1, Route::Unicast(k));
            g
        };
        let batched = |executor| EngineConfig {
            batch_size: 64,
            executor,
            ..fast_cfg()
        };
        let threads = run(build(), &batched(ExecutorKind::ThreadPerActor)).unwrap();
        let pool = run(build(), &batched(ExecutorKind::Pool { workers: 2 })).unwrap();
        let counts = |r: &RunReport| {
            r.actors
                .iter()
                .map(|a| (a.items_in, a.items_out))
                .collect::<Vec<_>>()
        };
        assert_eq!(counts(&threads), counts(&pool));
        assert_eq!(threads.total_dropped(), 0);
        assert_eq!(pool.total_dropped(), 0);
    }

    #[test]
    fn pool_restart_budget_exhaustion_stops_the_actor() {
        use crate::supervision::{Backoff, SupervisorSpec};
        // The pool analogue of `restart_budget_exhaustion_stops_the_actor`:
        // budget accounting and stopped-actor drops must survive the
        // executor swap.
        struct AlwaysPanics;
        impl crate::StreamOperator for AlwaysPanics {
            fn process(&mut self, _item: Tuple, _out: &mut Outputs) {
                panic!("always");
            }
        }
        let mut g = ActorGraph::new();
        let s = g.add_actor(
            "src",
            Behavior::Source(SourceConfig::new(f64::INFINITY, 50)),
        );
        let w = g.add_actor("doomed", Behavior::Worker(Box::new(AlwaysPanics)));
        let k = g.add_actor("sink", Behavior::worker(PassThrough));
        g.connect(s, Route::Unicast(w));
        g.connect(w, Route::Unicast(k));
        g.set_supervision(w, SupervisorSpec::restart(2, Backoff::none()));
        let r = run(g, &pool_cfg(2)).unwrap();
        assert_eq!(r.actor(w).panics, 3);
        assert_eq!(r.actor(w).restarts, 2);
        assert_eq!(r.actor(k).items_in, 0);
        assert_eq!(r.dead_letters.total(), 50);
        assert_eq!(r.dead_letters.by_reason(DeadLetterReason::OperatorPanic), 3);
        assert_eq!(r.dead_letters.by_reason(DeadLetterReason::StoppedActor), 47);
    }

    #[test]
    fn pool_stopped_actor_degrades_to_forward_or_drop() {
        use crate::supervision::{DegradePolicy, SupervisorSpec};
        // Degraded-mode routing under the pool executor: Forward turns the
        // stopped actor into an identity, Drop dead-letters everything.
        for (policy, sink_in, dead) in [
            (DegradePolicy::Forward, 39, 1),
            (DegradePolicy::Drop, 0, 40),
        ] {
            let mut g = ActorGraph::new();
            let s = g.add_actor(
                "src",
                Behavior::Source(SourceConfig::new(f64::INFINITY, 40)),
            );
            let w = g.add_actor(
                "flaky",
                Behavior::Worker(Box::new(PanicEvery { every: 64 })),
            );
            let k = g.add_actor("sink", Behavior::worker(PassThrough));
            g.connect(s, Route::Unicast(w));
            g.connect(w, Route::Unicast(k));
            g.set_supervision(w, SupervisorSpec::default().with_degrade(policy));
            let r = run(g, &pool_cfg(2)).unwrap();
            assert_eq!(r.actor(w).panics, 1, "{policy:?}");
            assert_eq!(r.actor(k).items_in, sink_in, "{policy:?}");
            assert_eq!(r.dead_letters.total(), dead, "{policy:?}");
        }
    }

    /// Emits every 10th input it has ever seen — a minimal stateful
    /// operator whose output count is a pure function of its counter, so
    /// any state loss across a restart shifts the sink count.
    struct EveryTenth {
        count: u64,
    }
    impl crate::StreamOperator for EveryTenth {
        fn process(&mut self, item: Tuple, out: &mut Outputs) {
            self.count += 1;
            if self.count.is_multiple_of(10) {
                out.emit_default(item);
            }
        }
        fn name(&self) -> &str {
            "every-tenth"
        }
        fn reset(&mut self) {
            self.count = 0;
        }
        fn snapshot(&mut self) -> Option<crate::checkpoint::StateSnapshot> {
            let mut s = crate::checkpoint::StateSnapshot::new();
            s.push_u64(self.count);
            Some(s)
        }
        fn restore(&mut self, snapshot: &crate::checkpoint::StateSnapshot) -> bool {
            match snapshot.reader().read_u64() {
                Some(count) => {
                    self.count = count;
                    true
                }
                None => false,
            }
        }
    }

    #[test]
    fn checkpointing_counts_epochs_and_snapshots() {
        let mut g = ActorGraph::new();
        let s = g.add_actor(
            "src",
            Behavior::Source(SourceConfig::new(f64::INFINITY, 500)),
        );
        let w = g.add_actor("mid", Behavior::worker(PassThrough));
        let k = g.add_actor("sink", Behavior::worker(PassThrough));
        g.connect(s, Route::Unicast(w));
        g.connect(w, Route::Unicast(k));
        let cfg = EngineConfig {
            checkpoint_interval: Some(100),
            ..fast_cfg()
        };
        let r = run(g, &cfg).unwrap();
        // 500 items at interval 100: epochs 1-5 all propagate to the sink.
        assert_eq!(r.last_complete_epoch, Some(5));
        assert_eq!(r.actor(w).snapshots, 5);
        assert_eq!(r.actor(k).snapshots, 5);
        // A stateless operator has nothing to capture: epochs complete
        // with zero serialized bytes.
        assert_eq!(r.actor(w).snapshot_bytes, 0);
        assert_eq!(r.actor(k).items_in, 500);
        assert_eq!(r.total_dropped(), 0);
    }

    #[test]
    fn checkpoint_markers_land_on_exact_multiples_in_bursts() {
        use crate::operators::{FaultConfig, FaultInjector};
        use crate::supervision::{Backoff, SupervisorSpec};
        // Unpaced bursts of 64 against an interval of 100, over 550 items
        // (a multiple of neither): bursts are cut at every marker, so the
        // markers follow items 100, 200, …, 500 exactly.
        let batched = |cfg: EngineConfig| EngineConfig {
            batch_size: 64,
            checkpoint_interval: Some(100),
            ..cfg
        };
        for (label, cfg) in [("threads", fast_cfg()), ("pool-2", pool_cfg(2))] {
            let cfg = batched(cfg);
            let mut g = ActorGraph::new();
            let s = g.add_actor(
                "src",
                Behavior::Source(SourceConfig::new(f64::INFINITY, 550)),
            );
            let w = g.add_actor("mid", Behavior::worker(PassThrough));
            let k = g.add_actor("sink", Behavior::worker(PassThrough));
            g.connect(s, Route::Unicast(w));
            g.connect(w, Route::Unicast(k));
            let r = run(g, &cfg).unwrap();
            assert_eq!(r.last_complete_epoch, Some(5), "{label}");
            assert_eq!(r.actor(w).snapshots, 5, "{label}");
            assert_eq!(r.actor(k).snapshots, 5, "{label}");
            assert_eq!(r.actor(k).items_in, 550, "{label}");

            // The epoch-2 snapshot holds exactly 200 counted items: a crash
            // on item 250 restores it and replays exactly 49.
            let mut g = ActorGraph::new();
            let s = g.add_actor(
                "src",
                Behavior::Source(SourceConfig::new(f64::INFINITY, 550)),
            );
            let w = g.add_actor(
                "stateful",
                Behavior::Worker(Box::new(FaultInjector::new(
                    EveryTenth { count: 0 },
                    FaultConfig::none().with_crash_after_tuples(250),
                ))),
            );
            let k = g.add_actor("sink", Behavior::worker(PassThrough));
            g.connect(s, Route::Unicast(w));
            g.connect(w, Route::Unicast(k));
            g.set_supervision(w, SupervisorSpec::restart(5, Backoff::none()));
            let r = run(g, &cfg).unwrap();
            let a = r.actor(w);
            assert_eq!(a.last_restored_epoch, Some(2), "{label}");
            assert_eq!(a.replayed, 49, "{label}");
            assert_eq!(r.actor(k).items_in, 55, "{label}");
            assert_eq!(r.last_complete_epoch, Some(5), "{label}");
        }
    }

    #[test]
    fn fan_in_alignment_completes_epochs_across_sources() {
        // The merge actor must hold each epoch open until the marker has
        // arrived from *both* sources before snapshotting and acking.
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
        let cfg = EngineConfig {
            checkpoint_interval: Some(100),
            ..fast_cfg()
        };
        let r = run(g, &cfg).unwrap();
        assert_eq!(r.last_complete_epoch, Some(3));
        assert_eq!(r.actor(m).snapshots, 3);
        assert_eq!(r.actor(m).items_in, 600);
        assert_eq!(r.actor(k).items_in, 600);
        assert_eq!(r.total_dropped(), 0);
    }

    #[test]
    fn checkpointing_off_reports_no_epochs() {
        let mut g = ActorGraph::new();
        let s = g.add_actor(
            "src",
            Behavior::Source(SourceConfig::new(f64::INFINITY, 200)),
        );
        let w = g.add_actor("mid", Behavior::Worker(Box::new(EveryTenth { count: 0 })));
        let k = g.add_actor("sink", Behavior::worker(PassThrough));
        g.connect(s, Route::Unicast(w));
        g.connect(w, Route::Unicast(k));
        // `fast_cfg` leaves `checkpoint_interval` at the default `None`:
        // no markers, no snapshots, no alignment stalls — even for an
        // operator that implements `snapshot`.
        let r = run(g, &fast_cfg()).unwrap();
        assert_eq!(r.last_complete_epoch, None);
        for a in &r.actors {
            assert_eq!(a.snapshots, 0);
            assert_eq!(a.snapshot_bytes, 0);
            assert_eq!(a.recoveries, 0);
            assert_eq!(a.align_stall, Duration::ZERO);
            assert_eq!(a.last_restored_epoch, None);
        }
        assert_eq!(r.actor(k).items_in, 20);
    }

    #[test]
    fn crash_recovery_restores_state_and_replays_input() {
        use crate::operators::{FaultConfig, FaultInjector};
        use crate::supervision::{Backoff, SupervisorSpec};
        // A deterministic crash on tuple 250 with snapshots every 100:
        // recovery restores the epoch-2 snapshot (count = 200), replays
        // the 49 logged tuples with output suppressed, then retries the
        // poisoned tuple live. The stateful counter never loses a beat:
        // the sink sees exactly 500 / 10 = 50 emissions and no item is
        // dead-lettered — the same totals as an unfaulted run.
        for (label, cfg) in [("threads", fast_cfg()), ("pool-2", pool_cfg(2))] {
            let cfg = EngineConfig {
                checkpoint_interval: Some(100),
                ..cfg
            };
            let mut g = ActorGraph::new();
            let s = g.add_actor(
                "src",
                Behavior::Source(SourceConfig::new(f64::INFINITY, 500)),
            );
            let w = g.add_actor(
                "stateful",
                Behavior::Worker(Box::new(FaultInjector::new(
                    EveryTenth { count: 0 },
                    FaultConfig::none().with_crash_after_tuples(250),
                ))),
            );
            let k = g.add_actor("sink", Behavior::worker(PassThrough));
            g.connect(s, Route::Unicast(w));
            g.connect(w, Route::Unicast(k));
            g.set_supervision(w, SupervisorSpec::restart(5, Backoff::none()));
            let r = run(g, &cfg).unwrap();
            let a = r.actor(w);
            assert_eq!(a.panics, 1, "{label}");
            assert_eq!(a.restarts, 1, "{label}");
            assert_eq!(a.recoveries, 1, "{label}");
            assert_eq!(a.replayed, 49, "{label}");
            assert_eq!(a.last_restored_epoch, Some(2), "{label}");
            assert!(a.snapshot_bytes > 0, "{label}");
            assert_eq!(r.actor(k).items_in, 50, "{label}");
            assert_eq!(r.dead_letters.total(), 0, "{label}");
            assert_eq!(r.last_complete_epoch, Some(5), "{label}");
        }
    }

    #[test]
    fn crash_inside_snapshot_recovers_and_retries_the_capture() {
        use crate::operators::{FaultConfig, FaultInjector};
        use crate::supervision::{Backoff, SupervisorSpec};
        // The fault fires *inside* the epoch-2 snapshot call. Supervision
        // restarts the operator, restores the epoch-1 snapshot, replays
        // the full inter-epoch log (100 tuples) and retries the capture —
        // the one-shot trigger stays fired, so the retry succeeds and
        // epoch 2 still completes globally.
        let cfg = EngineConfig {
            checkpoint_interval: Some(100),
            ..fast_cfg()
        };
        let mut g = ActorGraph::new();
        let s = g.add_actor(
            "src",
            Behavior::Source(SourceConfig::new(f64::INFINITY, 500)),
        );
        let w = g.add_actor(
            "stateful",
            Behavior::Worker(Box::new(FaultInjector::new(
                EveryTenth { count: 0 },
                FaultConfig::none().with_crash_at_epoch(2),
            ))),
        );
        let k = g.add_actor("sink", Behavior::worker(PassThrough));
        g.connect(s, Route::Unicast(w));
        g.connect(w, Route::Unicast(k));
        g.set_supervision(w, SupervisorSpec::restart(5, Backoff::none()));
        let r = run(g, &cfg).unwrap();
        let a = r.actor(w);
        assert_eq!(a.panics, 1);
        assert_eq!(a.restarts, 1);
        assert_eq!(a.recoveries, 1);
        assert_eq!(a.replayed, 100);
        assert_eq!(a.last_restored_epoch, Some(1));
        // Epoch 1 plus the retried epoch-2 capture plus epochs 3-5.
        assert_eq!(a.snapshots, 5);
        assert_eq!(r.actor(k).items_in, 50);
        assert_eq!(r.dead_letters.total(), 0);
        assert_eq!(r.last_complete_epoch, Some(5));
    }

    #[test]
    fn checkpoint_and_recovery_emit_trace_events() {
        use crate::operators::{FaultConfig, FaultInjector};
        use crate::supervision::{Backoff, SupervisorSpec};
        let cfg = EngineConfig {
            checkpoint_interval: Some(100),
            ..fast_cfg()
        };
        let mut g = ActorGraph::new();
        let s = g.add_actor(
            "src",
            Behavior::Source(SourceConfig::new(f64::INFINITY, 300)),
        );
        let w = g.add_actor(
            "stateful",
            Behavior::Worker(Box::new(FaultInjector::new(
                EveryTenth { count: 0 },
                FaultConfig::none().with_crash_after_tuples(150),
            ))),
        );
        let k = g.add_actor("sink", Behavior::worker(PassThrough));
        g.connect(s, Route::Unicast(w));
        g.connect(w, Route::Unicast(k));
        g.set_supervision(w, SupervisorSpec::restart(5, Backoff::none()));
        let (r, tel) = run_with_telemetry(g, &cfg, &TelemetryConfig::default()).unwrap();
        assert_eq!(r.actor(w).recoveries, 1);
        let completed: Vec<_> = tel
            .trace
            .iter()
            .filter_map(|e| match e.kind {
                TraceEventKind::CheckpointCompleted { epoch, .. } => Some((e.actor, epoch)),
                _ => None,
            })
            .collect();
        // Worker and sink each complete epochs 1-3.
        assert!(completed.contains(&(w, 1)), "events: {completed:?}");
        assert!(completed.contains(&(w, 3)));
        assert!(completed.contains(&(k, 3)));
        let recovered: Vec<_> = tel
            .trace
            .iter()
            .filter_map(|e| match e.kind {
                TraceEventKind::Recovered { epoch, replayed } => Some((e.actor, epoch, replayed)),
                _ => None,
            })
            .collect();
        assert_eq!(recovered, vec![(w, 1, 49)]);
    }

    /// A seeded three-stage pipeline for tenancy tests; `items` varies per
    /// tenant so cross-tenant mixups change counts.
    fn tenant_pipeline(items: u64) -> ActorGraph {
        let mut g = ActorGraph::new();
        let s = g.add_actor(
            "src",
            Behavior::Source(SourceConfig::new(f64::INFINITY, items)),
        );
        let a = g.add_actor("a", Behavior::worker(PassThrough));
        let b = g.add_actor("b", Behavior::worker(PassThrough));
        g.connect(s, Route::Unicast(a));
        g.connect(a, Route::Unicast(b));
        g
    }

    #[test]
    fn tenants_match_solo_counts_on_both_executors() {
        let items = [300u64, 450, 600];
        for executor in [
            ExecutorKind::ThreadPerActor,
            ExecutorKind::Pool { workers: 2 },
        ] {
            let cfg = EngineConfig {
                executor,
                batch_size: 8,
                ..fast_cfg()
            };
            let solo: Vec<u64> = items
                .iter()
                .map(|&n| {
                    run(tenant_pipeline(n), &cfg)
                        .unwrap()
                        .actor(ActorId(2))
                        .items_in
                })
                .collect();
            let tenants = items
                .iter()
                .enumerate()
                .map(|(t, &n)| TenantSpec::new(format!("t{t}"), tenant_pipeline(n)))
                .collect();
            let runs = run_tenants(tenants, &cfg).unwrap();
            assert_eq!(runs.len(), 3);
            for (t, run) in runs.iter().enumerate() {
                assert_eq!(run.name, format!("t{t}"));
                assert_eq!(
                    run.report.actor(ActorId(2)).items_in,
                    solo[t],
                    "{executor:?} tenant {t}"
                );
                assert_eq!(run.report.total_dropped(), 0, "{executor:?} tenant {t}");
            }
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

    #[test]
    fn tenant_failure_surfaces_as_actor_failed() {
        struct BrokenReset;
        impl crate::StreamOperator for BrokenReset {
            fn process(&mut self, _item: Tuple, _out: &mut Outputs) {
                panic!("process");
            }
            fn reset(&mut self) {
                panic!("reset is broken too");
            }
        }
        use crate::supervision::{Backoff, SupervisorSpec};
        let mut bad = ActorGraph::new();
        let s = bad.add_actor(
            "src",
            Behavior::Source(SourceConfig::new(f64::INFINITY, 10)),
        );
        let w = bad.add_actor("broken", Behavior::Worker(Box::new(BrokenReset)));
        bad.connect(s, Route::Unicast(w));
        bad.set_supervision(w, SupervisorSpec::restart(10, Backoff::none()));
        let tenants = vec![
            TenantSpec::new("ok", tenant_pipeline(100)),
            TenantSpec::new("bad", bad),
        ];
        let cfg = EngineConfig {
            executor: ExecutorKind::Pool { workers: 2 },
            ..fast_cfg()
        };
        let err = run_tenants(tenants, &cfg).unwrap_err();
        match err {
            EngineError::ActorFailed { actor, reason } => {
                assert_eq!(actor, w, "local id of the failing tenant's actor");
                assert!(reason.contains("reset is broken"), "reason: {reason}");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn empty_and_single_tenant_runs() {
        assert!(run_tenants(Vec::new(), &fast_cfg()).unwrap().is_empty());
        let runs = run_tenants(
            vec![TenantSpec::new("solo", tenant_pipeline(50))],
            &fast_cfg(),
        )
        .unwrap();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].report.actor(ActorId(2)).items_in, 50);
    }

    #[test]
    fn resolved_pool_workers_honors_pinned_core_set() {
        // `--workers 0` means "one per core"; with a pinned core list the
        // worker threads are confined to that set, so the pool sizes to it.
        let mut cfg = EngineConfig {
            executor: ExecutorKind::Pool { workers: 0 },
            pinning: crate::affinity::PinningConfig::on_cores(vec![0, 0, 0]),
            ..fast_cfg()
        };
        assert_eq!(cfg.resolved_pool_workers(), Some(3));
        // Unpinned 0 falls back to machine parallelism.
        cfg.pinning = crate::affinity::PinningConfig::default();
        assert_eq!(
            cfg.resolved_pool_workers(),
            ExecutorKind::Pool { workers: 0 }.pool_workers()
        );
        // Explicit counts are never overridden by pinning.
        cfg.executor = ExecutorKind::Pool { workers: 5 };
        cfg.pinning = crate::affinity::PinningConfig::on_cores(vec![0, 1]);
        assert_eq!(cfg.resolved_pool_workers(), Some(5));
        // Thread-per-actor has no pool.
        cfg.executor = ExecutorKind::ThreadPerActor;
        assert_eq!(cfg.resolved_pool_workers(), None);
    }

    #[test]
    fn multi_tenant_telemetry_carries_tenant_label() {
        let tenants = vec![
            TenantSpec::new("alpha", tenant_pipeline(80))
                .with_telemetry(TelemetryConfig::default()),
            TenantSpec::new("beta", tenant_pipeline(80)),
        ];
        let cfg = EngineConfig {
            executor: ExecutorKind::Pool { workers: 2 },
            ..fast_cfg()
        };
        let runs = run_tenants(tenants, &cfg).unwrap();
        let tel = runs[0].telemetry.as_ref().expect("telemetry was requested");
        let snap = tel.last_snapshot().expect("final snapshot");
        assert_eq!(snap.tenant.as_deref(), Some("alpha"));
        assert!(snap.to_json().contains("\"tenant\":\"alpha\""));
        assert!(runs[1].telemetry.is_none());
    }
}
