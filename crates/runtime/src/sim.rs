//! Discrete-event (virtual-time) executor.
//!
//! The paper's evaluation runs each actor on a dedicated thread of a
//! 2×12-core Xeon (§5.1). On machines without that parallelism a wall-clock
//! run cannot exhibit the concurrency the cost models describe, so this
//! module provides a *virtual-time* executor with identical semantics:
//!
//! * each actor is a single server with a bounded FIFO mailbox;
//! * a send into a full mailbox blocks the sender until a slot frees
//!   (Blocking After Service, §3) — in virtual time;
//! * service times are the operators' declared synthetic work
//!   ([`synthetic_work`]), plus their real measured compute time when
//!   [`SimConfig::intrinsic_time`] is on;
//! * actors are perfectly parallel: any number can be busy at the same
//!   virtual instant, exactly the dedicated-thread assumption of §5.1.
//!
//! The operator logic itself executes for real — filters drop real items,
//! windows aggregate real values, joins match real pairs — so measured
//! selectivities, routing randomness and queueing transients are all
//! genuine. Only the clock is simulated. Results come back as the same
//! [`RunReport`] the threaded engine produces, with all durations in
//! virtual nanoseconds.
//!
//! [`synthetic_work`]: crate::operators::synthetic_work

use crate::engine::validate;
use crate::graph::{ActorGraph, Behavior, SourceConfig};
use crate::metrics::{ActorReport, RunReport};
use crate::operator::Outputs;
use crate::rng::XorShift64;
use crate::route::RouteState;
use crate::telemetry::{
    HubActor, LatencyHistogram, RawCounters, TelemetryConfig, TelemetryHub, TelemetryReport,
    TraceEventKind,
};
use crate::{ActorId, EngineError, StreamOperator};
use spinstreams_core::{Tuple, TUPLE_ARITY};
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration of the virtual-time executor.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Default mailbox capacity (overridable per actor in the graph).
    pub mailbox_capacity: usize,
    /// Base RNG seed; actor `i` uses `seed + i`.
    pub seed: u64,
    /// Include each operator's *real* measured compute time in its virtual
    /// service time (the default, and the faithful model). Disable to make
    /// service times purely the declared synthetic work, which renders the
    /// whole simulation — including telemetry snapshots — bit-for-bit
    /// reproducible across runs and hosts. With it off the simulator never
    /// reads the host clock while events run; the only reading is the
    /// report's [`crate::RunReport::started_at`], taken once at the end.
    pub intrinsic_time: bool,
    /// Epoch marker cadence, for configuration parity with
    /// [`crate::EngineConfig::checkpoint_interval`]. The simulator models
    /// ideal (never-failing) operators, so barrier alignment and snapshots
    /// have no effect on the schedule; the only observable is the report's
    /// [`crate::RunReport::last_complete_epoch`], computed deterministically
    /// as the minimum over sources of `emitted / interval` (`None` when off
    /// or when no source finished a full epoch).
    pub checkpoint_interval: Option<u64>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            mailbox_capacity: 256,
            seed: 0xC0FFEE,
            intrinsic_time: true,
            checkpoint_interval: None,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AState {
    Idle,
    Busy,
    Blocked,
}

enum Kind {
    Source {
        cfg: SourceConfig,
        produced: u64,
        next_due: u64,
        period_ns: u64,
        rng: XorShift64,
    },
    Worker {
        op: Box<dyn StreamOperator>,
    },
}

struct SimActor {
    name: String,
    kind: Kind,
    queue: VecDeque<Tuple>,
    cap: usize,
    waiters: VecDeque<usize>,
    pending: VecDeque<(usize, Tuple)>,
    /// Outputs of the last service (or source emission) awaiting route
    /// resolution; reused across events so the hot path never allocates.
    in_flight: Outputs,
    routes: Vec<RouteState>,
    route_rng: XorShift64,
    state: AState,
    upstreams_open: usize,
    finished: bool,
    closed: bool,
    blocked_since: u64,
    downstream: Vec<usize>,
    /// Present only with telemetry enabled on sink actors.
    latency: Option<Arc<LatencyHistogram>>,
    // metrics
    items_in: u64,
    items_out: u64,
    busy_ns: u64,
    blocked_ns: u64,
    /// Receiver-edge stall view: total virtual time producers spent
    /// blocked on *this* actor's full mailbox (mirrors the threaded
    /// engine's per-mailbox stall counter).
    inbox_stall_ns: u64,
    first_out_ns: u64,
    last_out_ns: u64,
}

impl SimActor {
    fn record_out(&mut self, now: u64) {
        self.items_out += 1;
        if self.first_out_ns == u64::MAX {
            self.first_out_ns = now;
        }
        self.last_out_ns = now;
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Ev {
    SourceEmit,
    ServiceDone,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Event {
    time: u64,
    seq: u64,
    actor: usize,
    kind: Ev,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse for the max-heap: earliest time first, ties by seq.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

struct Sim {
    actors: Vec<SimActor>,
    heap: BinaryHeap<Event>,
    seq: u64,
    end_time: u64,
    /// Present only with telemetry enabled.
    hub: Option<Arc<TelemetryHub>>,
    /// Stamp source emissions with their (virtual) departure time.
    stamp: bool,
    /// Include real measured compute in virtual service times.
    intrinsic_time: bool,
    /// Flight-recorder sampling mask (see the engine's `DeliveryCtx`):
    /// a tuple leaves one span event per hop iff `seq & mask == 0`.
    span_mask: Option<u64>,
    /// Epoch-marker interval, for the modeled per-sample epoch counter.
    ckpt_interval: Option<u64>,
}

impl Sim {
    fn push_event(&mut self, time: u64, actor: usize, kind: Ev) {
        self.seq += 1;
        let seq = self.seq;
        self.heap.push(Event {
            time,
            seq,
            actor,
            kind,
        });
    }

    /// Records a lifecycle trace event, if telemetry is enabled.
    fn trace(&self, now: u64, a: usize, kind: TraceEventKind) {
        if let Some(hub) = &self.hub {
            hub.trace.record(now, ActorId(a), kind);
        }
    }

    /// Snapshots every actor's counters and queue depth at virtual `t_ns`.
    fn take_sample(&self, t_ns: u64) {
        if let Some(hub) = &self.hub {
            let raw: Vec<RawCounters> = self
                .actors
                .iter()
                .map(|a| RawCounters {
                    items_in: a.items_in,
                    items_out: a.items_out,
                    busy_ns: a.busy_ns,
                    blocked_ns: a.blocked_ns,
                    inbox_stall_ns: a.inbox_stall_ns,
                    queue_depth: if matches!(a.kind, Kind::Source { .. }) {
                        None
                    } else {
                        Some(a.queue.len())
                    },
                    ..RawCounters::default()
                })
                .collect();
            hub.sample(t_ns, &raw, self.modeled_epoch());
        }
    }

    /// Models the checkpoint ledger for snapshots: ideal operators never
    /// fail, so the last complete epoch at any instant is bounded by the
    /// slowest source's emitted-marker count.
    fn modeled_epoch(&self) -> Option<u64> {
        let iv = self.ckpt_interval?;
        self.actors
            .iter()
            .filter_map(|a| match &a.kind {
                Kind::Source { produced, .. } => Some(*produced / iv),
                Kind::Worker { .. } => None,
            })
            .min()
            .filter(|&e| e > 0)
    }

    /// Runs the operator on one item (or, with `item` absent, flushes it at
    /// end of stream) straight into the actor's reused `in_flight` buffer,
    /// returning the virtual service time. The host clock is read only
    /// when intrinsic time is on.
    fn run_operator(&mut self, a: usize, item: Option<Tuple>) -> u64 {
        crate::operators::take_virtual_work_ns();
        // Flush outputs have no input stamp to inherit (`0` is a no-op).
        let src_ns = item.map_or(0, |item| item.src_ns);
        let t0 = self.intrinsic_time.then(Instant::now);
        let actor = &mut self.actors[a];
        let out = &mut actor.in_flight;
        out.clear();
        if let Kind::Worker { op } = &mut actor.kind {
            match item {
                Some(item) => op.process(item, out),
                None => op.flush(out),
            }
        }
        let intrinsic = t0.map_or(0, |t0| t0.elapsed().as_nanos() as u64);
        let virt = crate::operators::take_virtual_work_ns();
        out.inherit_stamp(0, src_ns);
        intrinsic + virt
    }

    /// Moves the in-flight outputs into the pending queue, resolving each
    /// item's destination (sink emissions are recorded immediately). The
    /// drained buffer goes back to the actor, keeping its capacity.
    fn resolve_outputs(&mut self, a: usize, now: u64) {
        let mut in_flight = std::mem::take(&mut self.actors[a].in_flight);
        for (port, item) in in_flight.drain() {
            if port < self.actors[a].routes.len() {
                let actor = &mut self.actors[a];
                let dest = actor.routes[port].pick(&item, &mut actor.route_rng);
                actor.pending.push_back((dest.0, item));
            } else {
                // Sink emission: end of the tuple's end-to-end span.
                if let Some(hist) = &self.actors[a].latency {
                    if let Some(lat) = item.latency_ns(now) {
                        hist.record(lat);
                    }
                }
                self.actors[a].record_out(now);
            }
        }
        self.actors[a].in_flight = in_flight;
    }

    /// Attempts to drain the pending deliveries of `a`; blocks (in virtual
    /// time) on the first full destination.
    fn deliver_pending(&mut self, a: usize, now: u64) {
        while let Some(&(dest, item)) = self.actors[a].pending.front() {
            if self.actors[dest].queue.len() >= self.actors[dest].cap {
                if self.actors[a].state != AState::Blocked {
                    self.actors[a].state = AState::Blocked;
                    self.actors[a].blocked_since = now;
                    self.actors[dest].waiters.push_back(a);
                }
                return;
            }
            self.actors[a].pending.pop_front();
            self.actors[dest].queue.push_back(item);
            self.actors[a].record_out(now);
            self.try_start(dest, now);
        }
        self.actors[a].state = AState::Idle;
        self.on_pending_drained(a, now);
    }

    /// Called when an actor finished delivering everything it owed.
    fn on_pending_drained(&mut self, a: usize, now: u64) {
        match &mut self.actors[a].kind {
            Kind::Source {
                cfg,
                produced,
                next_due,
                period_ns,
                ..
            } => {
                if *produced < cfg.count {
                    let t = now.max(*next_due);
                    *next_due = t + *period_ns;
                    self.push_event(t, a, Ev::SourceEmit);
                } else if !self.actors[a].closed {
                    self.close(a, now);
                }
            }
            Kind::Worker { .. } => {
                if self.actors[a].finished {
                    if !self.actors[a].closed {
                        self.close(a, now);
                    }
                } else {
                    self.try_start(a, now);
                }
            }
        }
    }

    /// Starts service on the next queued item, if the actor is idle.
    fn try_start(&mut self, a: usize, now: u64) {
        if self.actors[a].state != AState::Idle || self.actors[a].finished {
            return;
        }
        if matches!(self.actors[a].kind, Kind::Source { .. }) {
            return;
        }
        let Some(item) = self.actors[a].queue.pop_front() else {
            self.maybe_finish(a, now);
            return;
        };
        self.actors[a].items_in += 1;
        // Flight recorder: sampled tuples leave one span event per hop,
        // stamped at the exact virtual instant service starts.
        if let Some(mask) = self.span_mask {
            if item.seq & mask == 0 && item.src_ns != 0 {
                self.trace(
                    now,
                    a,
                    TraceEventKind::Span {
                        tuple_seq: item.seq,
                        src_ns: item.src_ns,
                    },
                );
            }
        }
        self.actors[a].state = AState::Busy;
        self.wake_waiters(a, now);
        let service = self.run_operator(a, Some(item));
        self.actors[a].busy_ns += service;
        self.push_event(now + service, a, Ev::ServiceDone);
    }

    /// Wakes senders blocked on `dest`'s mailbox while slots remain.
    fn wake_waiters(&mut self, dest: usize, now: u64) {
        while self.actors[dest].queue.len() < self.actors[dest].cap {
            let Some(w) = self.actors[dest].waiters.pop_front() else {
                return;
            };
            let since = self.actors[w].blocked_since;
            let blocked = now.saturating_sub(since);
            self.actors[w].blocked_ns += blocked;
            self.actors[dest].inbox_stall_ns += blocked;
            if blocked > 0 {
                self.trace(now, w, TraceEventKind::Blocked { ns: blocked });
            }
            self.actors[w].state = AState::Idle;
            self.deliver_pending(w, now);
        }
    }

    /// Finishes a worker whose inputs are exhausted: flush, deliver, close.
    fn maybe_finish(&mut self, a: usize, now: u64) {
        let actor = &self.actors[a];
        if actor.finished
            || actor.upstreams_open > 0
            || actor.state != AState::Idle
            || !actor.queue.is_empty()
            || !actor.pending.is_empty()
            || matches!(actor.kind, Kind::Source { .. })
        {
            return;
        }
        self.actors[a].finished = true;
        let flush_ns = self.run_operator(a, None);
        self.actors[a].busy_ns += flush_ns;
        self.resolve_outputs(a, now);
        self.deliver_pending(a, now);
    }

    /// Propagates end-of-stream to the downstream actors.
    fn close(&mut self, a: usize, now: u64) {
        if self.actors[a].closed {
            return;
        }
        self.actors[a].closed = true;
        self.trace(now, a, TraceEventKind::ActorFinished);
        self.end_time = self.end_time.max(now);
        let downstream = self.actors[a].downstream.clone();
        for d in downstream {
            self.actors[d].upstreams_open = self.actors[d].upstreams_open.saturating_sub(1);
            self.maybe_finish(d, now);
        }
    }

    fn handle_source_emit(&mut self, a: usize, now: u64) {
        let tuple = {
            let Kind::Source {
                cfg, produced, rng, ..
            } = &mut self.actors[a].kind
            else {
                return;
            };
            let seq = *produced;
            *produced += 1;
            let key = match &cfg.keys {
                Some(dist) => dist.sample(rng.next_f64()) as u64,
                None => seq,
            };
            let mut values = [0.0f64; TUPLE_ARITY];
            for v in values.iter_mut() {
                *v = rng.next_f64();
            }
            Tuple::new(key, seq, values)
        };
        let tuple = if self.stamp {
            tuple.stamped(now)
        } else {
            tuple
        };
        self.actors[a].in_flight.emit(0, tuple);
        self.resolve_outputs(a, now);
        self.deliver_pending(a, now);
    }

    fn handle_service_done(&mut self, a: usize, now: u64) {
        self.actors[a].state = AState::Idle;
        self.resolve_outputs(a, now);
        self.deliver_pending(a, now);
    }
}

/// Executes the actor graph in virtual time and reports measured metrics —
/// the drop-in alternative to [`run`](crate::run) used on machines without
/// the testbed's core count (see the module docs).
///
/// # Errors
///
/// The same validation as the threaded engine ([`EngineError`]). Items are
/// never dropped (BAS with unbounded patience — §5.1 configures the
/// timeout so that no drops occur).
pub fn simulate(graph: ActorGraph, config: &SimConfig) -> Result<RunReport, EngineError> {
    simulate_with(graph, config, None).map(|(report, _)| report)
}

/// Like [`simulate`], but with the telemetry layer enabled: snapshots are
/// taken at exact virtual-clock boundaries (every `telemetry.interval` of
/// *virtual* time, plus one at end of run), so the sampled telemetry is as
/// deterministic as the simulation itself — bit-for-bit reproducible given
/// the seeds when [`SimConfig::intrinsic_time`] is off.
///
/// # Errors
///
/// Fails exactly as [`simulate`] does.
pub fn simulate_with_telemetry(
    graph: ActorGraph,
    config: &SimConfig,
    telemetry: &TelemetryConfig,
) -> Result<(RunReport, TelemetryReport), EngineError> {
    simulate_with(graph, config, Some(telemetry))
        .map(|(report, tel)| (report, tel.expect("telemetry was requested")))
}

fn simulate_with(
    graph: ActorGraph,
    config: &SimConfig,
    telemetry: Option<&TelemetryConfig>,
) -> Result<(RunReport, Option<TelemetryReport>), EngineError> {
    let in_degrees = graph.in_degrees();
    let actors = graph.into_actors();
    validate(&actors)?;

    let hub: Option<Arc<TelemetryHub>> = telemetry.map(|tcfg| {
        let hub_actors = actors
            .iter()
            .map(|spec| HubActor {
                name: spec.name.clone(),
                queue_capacity: if spec.behavior.is_source() {
                    None
                } else {
                    Some(spec.mailbox_capacity.unwrap_or(config.mailbox_capacity))
                },
                latency: if !spec.behavior.is_source() && spec.routes.is_empty() {
                    Some(Arc::new(LatencyHistogram::new()))
                } else {
                    None
                },
            })
            .collect();
        Arc::new(TelemetryHub::new(hub_actors, tcfg))
    });

    // RAII: virtual-work mode is restored even if an operator panics.
    let _mode = crate::operators::VirtualWorkGuard::enter();

    let n = actors.len();
    let mut sim = Sim {
        actors: Vec::with_capacity(n),
        heap: BinaryHeap::new(),
        seq: 0,
        end_time: 0,
        hub: hub.clone(),
        stamp: hub.is_some(),
        intrinsic_time: config.intrinsic_time,
        span_mask: telemetry.and_then(|t| t.span_mask()),
        ckpt_interval: config.checkpoint_interval.filter(|&iv| iv > 0),
    };
    for (i, spec) in actors.into_iter().enumerate() {
        let downstream: Vec<usize> = {
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
        let cap = spec.mailbox_capacity.unwrap_or(config.mailbox_capacity);
        let kind = match spec.behavior {
            Behavior::Source(cfg) => {
                let period_ns = if cfg.rate.is_finite() {
                    (1e9 / cfg.rate).round().max(1.0) as u64
                } else {
                    1
                };
                let rng = XorShift64::new(cfg.seed);
                Kind::Source {
                    cfg,
                    produced: 0,
                    next_due: 0,
                    period_ns,
                    rng,
                }
            }
            Behavior::Worker(op) => Kind::Worker { op },
        };
        sim.actors.push(SimActor {
            name: spec.name,
            kind,
            queue: VecDeque::new(),
            cap,
            waiters: VecDeque::new(),
            pending: VecDeque::new(),
            in_flight: Outputs::new(),
            routes: spec.routes.into_iter().map(RouteState::new).collect(),
            route_rng: XorShift64::new(config.seed.wrapping_add(i as u64)),
            state: AState::Idle,
            upstreams_open: in_degrees[i],
            finished: false,
            closed: false,
            blocked_since: 0,
            downstream,
            latency: hub.as_ref().and_then(|h| h.latency_of(i)),
            items_in: 0,
            items_out: 0,
            busy_ns: 0,
            blocked_ns: 0,
            inbox_stall_ns: 0,
            first_out_ns: u64::MAX,
            last_out_ns: 0,
        });
    }

    // Kick off: sources emit at t=0 (an empty source closes immediately);
    // input-less workers finish immediately. Every actor's (simulated)
    // server starts at t=0.
    for i in 0..n {
        sim.trace(0, i, TraceEventKind::ActorStarted);
    }
    for i in 0..n {
        match &sim.actors[i].kind {
            Kind::Source { cfg, .. } => {
                if cfg.count > 0 {
                    sim.push_event(0, i, Ev::SourceEmit);
                } else {
                    sim.close(i, 0);
                }
            }
            Kind::Worker { .. } => sim.maybe_finish(i, 0),
        }
    }

    // Virtual-clock sampling: before advancing past a sample boundary,
    // snapshot the state as of that exact virtual instant. Events at the
    // boundary itself are processed after the snapshot, a fixed (hence
    // deterministic) convention.
    let interval_ns: Option<u64> = telemetry.map(|t| (t.interval.as_nanos() as u64).max(1));
    let mut next_sample = interval_ns.unwrap_or(u64::MAX);
    let mut last_sample_t: Option<u64> = None;
    while let Some(ev) = sim.heap.pop() {
        if let Some(iv) = interval_ns {
            while ev.time >= next_sample {
                sim.take_sample(next_sample);
                last_sample_t = Some(next_sample);
                next_sample += iv;
            }
        }
        match ev.kind {
            Ev::SourceEmit => sim.handle_source_emit(ev.actor, ev.time),
            Ev::ServiceDone => sim.handle_service_done(ev.actor, ev.time),
        }
        sim.end_time = sim.end_time.max(ev.time);
    }
    // Final end-of-run snapshot (unless one landed exactly there already).
    if hub.is_some() && last_sample_t != Some(sim.end_time) {
        sim.take_sample(sim.end_time);
    }

    let started_at = Instant::now();
    let reports: Vec<ActorReport> = sim
        .actors
        .iter()
        .enumerate()
        .map(|(i, a)| ActorReport {
            id: ActorId(i),
            name: a.name.clone(),
            items_in: a.items_in,
            items_out: a.items_out,
            dropped: 0,
            busy: Duration::from_nanos(a.busy_ns),
            blocked: Duration::from_nanos(a.blocked_ns),
            first_out_ns: a.first_out_ns,
            last_out_ns: a.last_out_ns,
            // The simulator models ideal operators: no panics, so the
            // supervision and recovery counters are structurally zero.
            panics: 0,
            restarts: 0,
            backoff: Duration::ZERO,
            dead_letters: 0,
            snapshots: 0,
            snapshot_bytes: 0,
            align_stall: Duration::ZERO,
            recoveries: 0,
            replayed: 0,
            replay_overflows: 0,
            last_restored_epoch: None,
        })
        .collect();
    // Ideal operators never fail, so every injected epoch completes; the
    // last complete epoch is bounded by the shortest source.
    let last_complete_epoch = config
        .checkpoint_interval
        .filter(|&iv| iv > 0)
        .and_then(|iv| {
            sim.actors
                .iter()
                .filter_map(|a| match &a.kind {
                    Kind::Source { cfg, .. } => Some(cfg.count / iv),
                    Kind::Worker { .. } => None,
                })
                .min()
        })
        .filter(|&e| e > 0);
    let wall = Duration::from_nanos(sim.end_time);
    drop(sim); // releases the sim's hub clone so the unwrap below is unique
    let telemetry_report = hub.map(|hub| {
        Arc::try_unwrap(hub)
            .ok()
            .expect("simulation holds the only other hub reference")
            .into_report()
    });
    Ok((
        RunReport {
            actors: reports,
            wall,
            started_at,
            dead_letters: crate::supervision::DeadLetterLog::default(),
            last_complete_epoch,
        },
        telemetry_report,
    ))
}

/// Selects how a deployment is executed.
#[derive(Debug, Clone)]
pub enum Executor {
    /// The wall-clock engine ([`crate::run`]): real OS threads and real
    /// bounded mailboxes, worker actors multiplexed over the configured
    /// worker pool. It exhibits the modeled parallelism only up to the
    /// host's core count.
    Threads(crate::EngineConfig),
    /// Discrete-event virtual-time execution (perfect parallelism on any
    /// host; deterministic given seeds).
    VirtualTime(SimConfig),
}

impl Default for Executor {
    fn default() -> Self {
        Executor::VirtualTime(SimConfig::default())
    }
}

impl Executor {
    /// The base RNG seed of either executor's configuration.
    pub fn seed(&self) -> u64 {
        match self {
            Executor::Threads(c) => c.seed,
            Executor::VirtualTime(c) => c.seed,
        }
    }
}

/// Runs `graph` on the selected executor.
///
/// # Errors
///
/// Validation errors from either engine ([`EngineError`]).
pub fn execute(graph: ActorGraph, executor: &Executor) -> Result<RunReport, EngineError> {
    match executor {
        Executor::Threads(cfg) => crate::run(graph, cfg),
        Executor::VirtualTime(cfg) => simulate(graph, cfg),
    }
}

/// Runs `graph` on the selected executor with the telemetry layer enabled
/// (see [`crate::run_with_telemetry`] and [`simulate_with_telemetry`]).
///
/// # Errors
///
/// Validation errors from either engine ([`EngineError`]).
pub fn execute_with_telemetry(
    graph: ActorGraph,
    executor: &Executor,
    telemetry: &TelemetryConfig,
) -> Result<(RunReport, TelemetryReport), EngineError> {
    match executor {
        Executor::Threads(cfg) => crate::run_with_telemetry(graph, cfg, telemetry),
        Executor::VirtualTime(cfg) => simulate_with_telemetry(graph, cfg, telemetry),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::{FnOperator, PassThrough};
    use crate::{Behavior, Route};

    fn cfg() -> SimConfig {
        SimConfig {
            mailbox_capacity: 64,
            seed: 1,
            ..SimConfig::default()
        }
    }

    /// A worker with `ns` virtual nanoseconds of service per item.
    fn work(ns: u64) -> Behavior {
        Behavior::Worker(Box::new(FnOperator::new(
            "work",
            move |t, out: &mut Outputs| {
                crate::operators::synthetic_work(ns);
                out.emit_default(t);
            },
        )))
    }

    #[test]
    fn delivers_all_items_in_virtual_time() {
        let mut g = ActorGraph::new();
        let s = g.add_actor(
            "src",
            Behavior::Source(SourceConfig::new(1_000_000.0, 1000)),
        );
        let k = g.add_actor("sink", Behavior::worker(PassThrough));
        g.connect(s, Route::Unicast(k));
        let r = simulate(g, &cfg()).unwrap();
        assert_eq!(r.actor(k).items_in, 1000);
        assert_eq!(r.actor(s).items_out, 1000);
        assert_eq!(r.total_dropped(), 0);
    }

    #[test]
    fn source_rate_is_exact_in_virtual_time() {
        let mut g = ActorGraph::new();
        let s = g.add_actor("src", Behavior::Source(SourceConfig::new(10_000.0, 5000)));
        let k = g.add_actor("sink", Behavior::worker(PassThrough));
        g.connect(s, Route::Unicast(k));
        let r = simulate(g, &cfg()).unwrap();
        let rate = r.actor(s).departure_rate().unwrap();
        assert!(
            (rate - 10_000.0).abs() / 10_000.0 < 0.001,
            "virtual rate {rate}"
        );
    }

    #[test]
    fn backpressure_throttles_to_bottleneck_rate_exactly() {
        // Source 10k/s into a 1 ms server: steady state 1000/s.
        let mut g = ActorGraph::new();
        let s = g.add_actor("src", Behavior::Source(SourceConfig::new(10_000.0, 4000)));
        let w = g.add_actor("slow", work(1_000_000));
        g.connect(s, Route::Unicast(w));
        g.set_mailbox_capacity(w, 16);
        let r = simulate(g, &cfg()).unwrap();
        let src_rate = r.actor(s).departure_rate().unwrap();
        assert!(
            (src_rate - 1000.0).abs() / 1000.0 < 0.02,
            "backpressured source rate {src_rate}"
        );
        assert!(r.actor(s).blocked > Duration::ZERO);
    }

    #[test]
    fn parallel_replicas_scale_in_virtual_time() {
        // One 1 ms server caps at 1000/s; three replicas behind a
        // round-robin emitter sustain 3000/s regardless of host cores.
        let mut g = ActorGraph::new();
        let s = g.add_actor("src", Behavior::Source(SourceConfig::new(3_000.0, 6000)));
        let e = g.add_actor("emitter", Behavior::worker(PassThrough));
        let r0 = g.add_actor("r0", work(1_000_000));
        let r1 = g.add_actor("r1", work(1_000_000));
        let r2 = g.add_actor("r2", work(1_000_000));
        let c = g.add_actor("collector", Behavior::worker(PassThrough));
        g.connect(s, Route::Unicast(e));
        g.connect(e, Route::RoundRobin(vec![r0, r1, r2]));
        for r in [r0, r1, r2] {
            g.connect(r, Route::Unicast(c));
        }
        let rep = simulate(g, &cfg()).unwrap();
        let src_rate = rep.actor(s).departure_rate().unwrap();
        assert!(
            (src_rate - 3000.0).abs() / 3000.0 < 0.02,
            "3-replica rate {src_rate}"
        );
        assert_eq!(rep.actor(c).items_in, 6000);
    }

    #[test]
    fn pipeline_throughput_matches_queueing_theory() {
        // src 2000/s -> 0.2 ms -> 1 ms (bottleneck, 1000/s) -> 0.1 ms.
        let mut g = ActorGraph::new();
        let s = g.add_actor("src", Behavior::Source(SourceConfig::new(2_000.0, 5000)));
        let a = g.add_actor("a", work(200_000));
        let b = g.add_actor("b", work(1_000_000));
        let c = g.add_actor("c", work(100_000));
        g.connect(s, Route::Unicast(a));
        g.connect(a, Route::Unicast(b));
        g.connect(b, Route::Unicast(c));
        // Small mailboxes keep the buffer-fill transient (source running at
        // its own 2000/s until the buffers fill) negligible.
        let r = simulate(
            g,
            &SimConfig {
                mailbox_capacity: 8,
                seed: 1,
                ..SimConfig::default()
            },
        )
        .unwrap();
        let thr = r.actor(s).departure_rate().unwrap();
        assert!((thr - 1000.0).abs() / 1000.0 < 0.02, "throughput {thr}");
        // The bottleneck's own departure rate is also ~1000/s.
        let b_rate = r.actor(b).departure_rate().unwrap();
        assert!((b_rate - 1000.0).abs() / 1000.0 < 0.02, "b rate {b_rate}");
        // And the cheap downstream stage is underutilized, not blocked.
        assert_eq!(r.actor(c).blocked, Duration::ZERO);
    }

    #[test]
    fn probabilistic_routes_split_flow() {
        let mut g = ActorGraph::new();
        let s = g.add_actor("src", Behavior::Source(SourceConfig::new(1e6, 20_000)));
        let a = g.add_actor("a", Behavior::worker(PassThrough));
        let b = g.add_actor("b", Behavior::worker(PassThrough));
        g.connect(
            s,
            Route::Probabilistic {
                choices: vec![(a, 0.3), (b, 0.7)],
            },
        );
        let r = simulate(g, &cfg()).unwrap();
        let fa = r.actor(a).items_in as f64 / 20_000.0;
        assert!((fa - 0.3).abs() < 0.02, "fraction {fa}");
    }

    #[test]
    fn flush_outputs_survive_to_downstream() {
        struct Hold(Vec<Tuple>);
        impl StreamOperator for Hold {
            fn process(&mut self, item: Tuple, _out: &mut Outputs) {
                self.0.push(item);
            }
            fn flush(&mut self, out: &mut Outputs) {
                for t in self.0.drain(..) {
                    out.emit_default(t);
                }
            }
        }
        let mut g = ActorGraph::new();
        let s = g.add_actor("src", Behavior::Source(SourceConfig::new(1e6, 100)));
        let h = g.add_actor("hold", Behavior::Worker(Box::new(Hold(Vec::new()))));
        let k = g.add_actor("sink", Behavior::worker(PassThrough));
        g.connect(s, Route::Unicast(h));
        g.connect(h, Route::Unicast(k));
        let r = simulate(g, &cfg()).unwrap();
        assert_eq!(r.actor(k).items_in, 100);
    }

    #[test]
    fn simulation_is_deterministic() {
        let build = || {
            let mut g = ActorGraph::new();
            let s = g.add_actor("src", Behavior::Source(SourceConfig::new(5_000.0, 2000)));
            let a = g.add_actor("a", work(300_000));
            let b = g.add_actor("b", work(150_000));
            g.connect(
                s,
                Route::Probabilistic {
                    choices: vec![(a, 0.5), (b, 0.5)],
                },
            );
            g
        };
        let r1 = simulate(build(), &cfg()).unwrap();
        let r2 = simulate(build(), &cfg()).unwrap();
        for (x, y) in r1.actors.iter().zip(&r2.actors) {
            assert_eq!(x.items_in, y.items_in);
            assert_eq!(x.items_out, y.items_out);
            // Virtual blocked time is exactly reproducible; busy time
            // includes real intrinsic nanoseconds which may jitter, so it
            // is not compared.
            assert_eq!(x.blocked, y.blocked);
        }
    }

    #[test]
    fn validation_still_applies() {
        let g = ActorGraph::new();
        assert_eq!(simulate(g, &cfg()).unwrap_err(), EngineError::NoActors);
    }

    #[test]
    fn telemetry_snapshots_fall_on_virtual_clock_boundaries() {
        // 1000/s bottleneck over 2000 items ≈ 2 s of virtual time; a
        // 100 ms virtual interval yields ~20 interior snapshots plus the
        // final one, each timestamped exactly on a boundary.
        let mut g = ActorGraph::new();
        let s = g.add_actor("src", Behavior::Source(SourceConfig::new(2_000.0, 2000)));
        let w = g.add_actor("work", work(1_000_000));
        let k = g.add_actor("sink", Behavior::worker(PassThrough));
        g.connect(s, Route::Unicast(w));
        g.connect(w, Route::Unicast(k));
        g.set_mailbox_capacity(w, 8);
        let tcfg = TelemetryConfig::default().with_interval(Duration::from_millis(100));
        let (report, tel) = simulate_with_telemetry(g, &cfg(), &tcfg).unwrap();
        assert_eq!(report.actor(k).items_in, 2000);
        assert!(tel.snapshots.len() >= 15, "got {}", tel.snapshots.len());
        for snap in &tel.snapshots[..tel.snapshots.len() - 1] {
            assert_eq!(snap.t_ns % 100_000_000, 0, "t_ns {}", snap.t_ns);
        }
        // Mid-run snapshots see the backpressured bottleneck saturated.
        let mid = &tel.snapshots[tel.snapshots.len() / 2];
        assert!(
            mid.actors[w.0].utilization > 0.9,
            "bottleneck utilization {}",
            mid.actors[w.0].utilization
        );
        assert!(
            (mid.actors[w.0].departure_rate - 1000.0).abs() / 1000.0 < 0.05,
            "rolling departure rate {}",
            mid.actors[w.0].departure_rate
        );
        // Latency at the sink reflects queueing behind the bottleneck.
        let last = tel.snapshots.last().unwrap();
        assert_eq!(last.latencies.len(), 1);
        assert_eq!(last.latencies[0].latency.count, 2000);
        assert!(last.latencies[0].latency.p50_ns >= 1_000_000);
        // Lifecycle: every actor started and finished.
        let count = |kind: TraceEventKind| tel.trace.iter().filter(|e| e.kind == kind).count();
        assert_eq!(count(TraceEventKind::ActorStarted), 3);
        assert_eq!(count(TraceEventKind::ActorFinished), 3);
        // Backpressure produced blocked-transition events.
        assert!(tel
            .trace
            .iter()
            .any(|e| matches!(e.kind, TraceEventKind::Blocked { .. })));
    }

    #[test]
    fn telemetry_without_intrinsic_time_is_bit_identical() {
        let build = || {
            let mut g = ActorGraph::new();
            let s = g.add_actor("src", Behavior::Source(SourceConfig::new(5_000.0, 1500)));
            let a = g.add_actor("a", work(300_000));
            let b = g.add_actor("b", work(150_000));
            let k = g.add_actor("sink", Behavior::worker(PassThrough));
            g.connect(
                s,
                Route::Probabilistic {
                    choices: vec![(a, 0.5), (b, 0.5)],
                },
            );
            g.connect(a, Route::Unicast(k));
            g.connect(b, Route::Unicast(k));
            g.set_mailbox_capacity(a, 8);
            g
        };
        let sim_cfg = SimConfig {
            intrinsic_time: false,
            ..cfg()
        };
        let tcfg = TelemetryConfig::default().with_interval(Duration::from_millis(20));
        let (_, t1) = simulate_with_telemetry(build(), &sim_cfg, &tcfg).unwrap();
        let (_, t2) = simulate_with_telemetry(build(), &sim_cfg, &tcfg).unwrap();
        assert_eq!(t1.to_jsonl(), t2.to_jsonl());
        assert!(!t1.snapshots.is_empty());
    }

    #[test]
    fn execute_dispatches_both_engines() {
        let build = || {
            let mut g = ActorGraph::new();
            let s = g.add_actor("src", Behavior::Source(SourceConfig::new(1e5, 100)));
            let k = g.add_actor("sink", Behavior::worker(PassThrough));
            g.connect(s, Route::Unicast(k));
            g
        };
        let r = execute(build(), &Executor::VirtualTime(cfg())).unwrap();
        assert_eq!(r.actor(ActorId(1)).items_in, 100);
        let r = execute(build(), &Executor::Threads(crate::EngineConfig::default())).unwrap();
        assert_eq!(r.actor(ActorId(1)).items_in, 100);
        assert!(matches!(Executor::default(), Executor::VirtualTime(_)));
    }

    #[test]
    fn two_sources_merge_into_one_worker() {
        // The actor graph itself may have several sources (the abstract
        // model's single-source rule is enforced one level up); EOS
        // termination must wait for both.
        let mut g = ActorGraph::new();
        let s1 = g.add_actor("src1", Behavior::Source(SourceConfig::new(1_000.0, 300)));
        let s2 = g.add_actor("src2", Behavior::Source(SourceConfig::new(2_000.0, 600)));
        let k = g.add_actor("sink", Behavior::worker(PassThrough));
        g.connect(s1, Route::Unicast(k));
        g.connect(s2, Route::Unicast(k));
        let r = simulate(g, &cfg()).unwrap();
        assert_eq!(r.actor(k).items_in, 900);
        // Virtual time: both sources finish at ~300 ms; wall = max.
        let wall = r.wall.as_secs_f64();
        assert!((wall - 0.3).abs() < 0.02, "virtual wall {wall}");
    }

    #[test]
    fn zero_item_source_terminates_cleanly() {
        let mut g = ActorGraph::new();
        let s = g.add_actor("src", Behavior::Source(SourceConfig::new(1_000.0, 0)));
        let k = g.add_actor("sink", Behavior::worker(PassThrough));
        g.connect(s, Route::Unicast(k));
        let r = simulate(g, &cfg()).unwrap();
        assert_eq!(r.actor(k).items_in, 0);
        assert_eq!(r.actor(s).items_out, 0);
    }

    #[test]
    fn blocked_time_is_attributed_to_the_blocked_sender() {
        let mut g = ActorGraph::new();
        let s = g.add_actor("src", Behavior::Source(SourceConfig::new(4_000.0, 2000)));
        let fast = g.add_actor("fast", work(100_000));
        let slow = g.add_actor("slow", work(1_000_000));
        g.connect(s, Route::Unicast(fast));
        g.connect(fast, Route::Unicast(slow));
        g.set_mailbox_capacity(slow, 4);
        g.set_mailbox_capacity(fast, 4);
        let r = simulate(g, &cfg()).unwrap();
        // `fast` spends most of the run blocked on `slow`'s full mailbox;
        // `slow` itself never blocks (it is the sink-side bottleneck).
        assert!(r.actor(fast).blocked > r.actor(fast).busy);
        assert_eq!(r.actor(slow).blocked, Duration::ZERO);
        // And the source is transitively throttled to ~1000/s.
        let rate = r.actor(s).departure_rate().unwrap();
        assert!((rate - 1000.0).abs() / 1000.0 < 0.05, "rate {rate}");
    }

    #[test]
    fn diamond_converging_eos_counts() {
        let mut g = ActorGraph::new();
        let s = g.add_actor("src", Behavior::Source(SourceConfig::new(1e6, 1000)));
        let a = g.add_actor("a", Behavior::worker(PassThrough));
        let b = g.add_actor("b", work(50_000));
        let k = g.add_actor("k", Behavior::worker(PassThrough));
        g.connect(
            s,
            Route::Probabilistic {
                choices: vec![(a, 0.5), (b, 0.5)],
            },
        );
        g.connect(a, Route::Unicast(k));
        g.connect(b, Route::Unicast(k));
        let r = simulate(g, &cfg()).unwrap();
        assert_eq!(r.actor(k).items_in, 1000);
    }
}
