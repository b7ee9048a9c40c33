//! Live telemetry: sampled snapshots, latency histograms, trace events.
//!
//! The run report answers "what happened" only *after* a run completes;
//! §5.2's validation of Algorithm 1 (and any future online
//! reconfiguration, cf. Madsen & Zhou) needs to see utilization
//! transients, queue growth and rate drift *while* a topology executes.
//! This module provides the measurement substrate:
//!
//! * [`TelemetrySnapshot`] — a timestamped sample of every actor's
//!   counters and queue depth, with **rolling** (per-interval)
//!   arrival/departure rates and utilization rather than whole-run
//!   averages. Snapshots are retained in a capacity-bounded ring and
//!   streamed to an optional subscriber as they are taken.
//! * [`LatencyHistogram`] — a log-bucketed (HDR-style) histogram of
//!   per-tuple end-to-end latency, recorded at the sinks from the source
//!   timestamps carried in [`Tuple::src_ns`](spinstreams_core::Tuple),
//!   with p50/p95/p99/max extraction.
//! * [`TraceEvent`] / [`TraceLog`] — a structured, sequence-numbered,
//!   capacity-bounded stream of lifecycle events (actor started /
//!   panicked / restarted / backoff / blocked transition / dead letter),
//!   mirroring the [`DeadLetterLog`](crate::DeadLetterLog) design.
//!
//! The threaded engine samples from a background thread
//! ([`crate::run_with_telemetry`]); the discrete-event executor samples at
//! exact virtual-clock boundaries ([`crate::simulate_with_telemetry`]), so
//! simulated telemetry is deterministic given the seeds. When telemetry is
//! not requested the engine spawns no sampler, allocates no histograms and
//! touches only the per-actor atomic counters it always kept — the layer
//! costs nothing when disabled. Building the crate with
//! `--no-default-features` additionally compiles the sampler thread out
//! (the `telemetry` cargo feature), leaving only the final snapshot.

use crate::metrics::{Counters, COUNTERS};
use crate::supervision::DeadLetterReason;
use crate::ActorId;
use std::collections::VecDeque;
use std::fmt;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// A snapshot subscriber: called synchronously with each sample as it is
/// taken (see [`TelemetryConfig::on_snapshot`]).
pub type SnapshotCallback = Arc<dyn Fn(&TelemetrySnapshot) + Send + Sync>;

/// Configuration of the telemetry layer.
#[derive(Clone)]
pub struct TelemetryConfig {
    /// Sampling interval (wall-clock on the threaded engine, virtual time
    /// in the discrete-event executor).
    pub interval: Duration,
    /// Number of snapshots retained in the ring (older ones are evicted;
    /// a live subscriber still sees every snapshot).
    pub ring_capacity: usize,
    /// Number of individual [`TraceEvent`]s retained; totals stay exact
    /// past the cap.
    pub trace_capacity: usize,
    /// Called synchronously with every snapshot as it is taken — the hook
    /// exporters (JSON-lines files, live monitors) attach to.
    pub on_snapshot: Option<SnapshotCallback>,
    /// Causal span-tracing sample period: `0` disables span tracing
    /// (default); any other value is rounded up to a power of two `N`, and
    /// every tuple whose source sequence number is a multiple of `N`
    /// becomes a span anchor — each actor that drains it records a
    /// [`TraceEventKind::Span`] hop, yielding a sampled flight-recorder
    /// path through the graph. The power-of-two constraint keeps the
    /// per-tuple gate to one mask-and-compare on the hot path.
    pub span_sample: u64,
    /// Tenant label attached to every snapshot (and propagated into the
    /// JSON-lines / Prometheus exporters' per-actor records). `None` —
    /// the default, and the single-tenant norm — omits the label
    /// entirely. Multi-tenant runs default it to the tenant's name.
    pub tenant: Option<String>,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            interval: Duration::from_millis(100),
            ring_capacity: 1024,
            trace_capacity: 4096,
            on_snapshot: None,
            span_sample: 0,
            tenant: None,
        }
    }
}

impl fmt::Debug for TelemetryConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TelemetryConfig")
            .field("interval", &self.interval)
            .field("ring_capacity", &self.ring_capacity)
            .field("trace_capacity", &self.trace_capacity)
            .field("on_snapshot", &self.on_snapshot.as_ref().map(|_| "Fn(..)"))
            .field("span_sample", &self.span_sample)
            .field("tenant", &self.tenant)
            .finish()
    }
}

impl TelemetryConfig {
    /// Sets the sampling interval (builder style).
    pub fn with_interval(mut self, interval: Duration) -> Self {
        self.interval = interval;
        self
    }

    /// Enables causal span tracing, sampling one tuple in `period`
    /// (rounded up to a power of two; 0 disables) as a span anchor
    /// (builder style).
    pub fn with_span_sample(mut self, period: u64) -> Self {
        self.span_sample = period;
        self
    }

    /// The span sampling mask: a tuple is traced iff
    /// `seq & mask == 0`. `None` when span tracing is disabled.
    pub(crate) fn span_mask(&self) -> Option<u64> {
        match self.span_sample {
            0 => None,
            n => Some(n.next_power_of_two() - 1),
        }
    }

    /// Sets the tenant label stamped on every snapshot (builder style).
    pub fn with_tenant(mut self, tenant: impl Into<String>) -> Self {
        self.tenant = Some(tenant.into());
        self
    }

    /// Sets the snapshot subscriber (builder style).
    pub fn with_on_snapshot(
        mut self,
        f: impl Fn(&TelemetrySnapshot) + Send + Sync + 'static,
    ) -> Self {
        self.on_snapshot = Some(Arc::new(f));
        self
    }
}

/// Number of log₂ buckets in a [`LatencyHistogram`]: bucket `i` counts
/// latencies with `floor(log2(ns)) == i`, covering 1 ns … ~584 years.
pub const LATENCY_BUCKETS: usize = 64;

/// A log-bucketed (HDR-style) latency histogram with atomic buckets.
///
/// Recording is wait-free (one `fetch_add` plus a `fetch_max`); quantile
/// extraction interpolates linearly inside the winning power-of-two
/// bucket, so the relative quantile error is bounded by the bucket width
/// (< 2× — ample for p50/p95/p99 over log-normal-ish latency spectra).
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: [(); LATENCY_BUCKETS].map(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }

    /// Records one latency observation.
    pub fn record(&self, ns: u64) {
        self.record_n(ns, 1);
    }

    /// Records `n` identical latency observations in one update. The
    /// engine's sink path run-length-coalesces consecutive equal
    /// latencies (batch-granular stamps make them common) so a whole run
    /// costs four shared-atomic RMWs instead of `4 * n`.
    pub fn record_n(&self, ns: u64, n: u64) {
        if n == 0 {
            return;
        }
        let bucket = ns.max(1).ilog2() as usize;
        self.buckets[bucket].fetch_add(n, Ordering::Relaxed);
        self.count.fetch_add(n, Ordering::Relaxed);
        self.sum_ns
            .fetch_add(ns.saturating_mul(n), Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Number of observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Extracts the approximate `q`-quantile (`0 < q <= 1`) in ns, or
    /// `None` if the histogram is empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n == 0 {
                continue;
            }
            if cum + n >= target {
                // Interpolate within [2^i, 2^(i+1)) by rank.
                let lower = 1u64 << i;
                let width = lower; // bucket width == lower bound
                let frac = (target - cum) as f64 / n as f64;
                let est = lower as f64 + frac * width as f64;
                return Some((est as u64).min(self.max_ns.load(Ordering::Relaxed)));
            }
            cum += n;
        }
        Some(self.max_ns.load(Ordering::Relaxed))
    }

    /// Takes an immutable summary of the current state.
    pub fn snapshot(&self) -> LatencySnapshot {
        let count = self.count();
        LatencySnapshot {
            count,
            mean_ns: self
                .sum_ns
                .load(Ordering::Relaxed)
                .checked_div(count)
                .unwrap_or(0),
            p50_ns: self.quantile(0.50).unwrap_or(0),
            p95_ns: self.quantile(0.95).unwrap_or(0),
            p99_ns: self.quantile(0.99).unwrap_or(0),
            max_ns: self.max_ns.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time summary of a [`LatencyHistogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencySnapshot {
    /// Observations recorded so far.
    pub count: u64,
    /// Mean latency (ns).
    pub mean_ns: u64,
    /// Median latency (ns, interpolated).
    pub p50_ns: u64,
    /// 95th percentile latency (ns, interpolated).
    pub p95_ns: u64,
    /// 99th percentile latency (ns, interpolated).
    pub p99_ns: u64,
    /// Largest observed latency (ns, exact).
    pub max_ns: u64,
}

/// What happened, in a [`TraceEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum TraceEventKind {
    /// An actor's thread (or simulated server) began executing.
    ActorStarted,
    /// An actor drained its inputs and propagated end-of-stream.
    ActorFinished,
    /// A supervised operator invocation panicked.
    OperatorPanicked,
    /// The supervisor re-instantiated (or reset) the operator.
    OperatorRestarted,
    /// The supervisor slept in restart backoff for `ns` nanoseconds.
    Backoff {
        /// Backoff sleep duration.
        ns: u64,
    },
    /// The actor stopped processing and entered degraded mode.
    ActorStopped,
    /// A send completed only after blocking on a full mailbox for `ns`
    /// nanoseconds (a backpressure transition).
    Blocked {
        /// Time spent blocked before the send succeeded.
        ns: u64,
    },
    /// An item was recorded as undeliverable.
    DeadLetter {
        /// Why delivery failed.
        reason: DeadLetterReason,
    },
    /// An epoch checkpoint completed locally: a source injected the
    /// marker, or a worker finished barrier alignment and captured its
    /// snapshot (`bytes` = serialized state size; 0 for sources and
    /// stateless operators).
    CheckpointCompleted {
        /// The epoch number.
        epoch: u64,
        /// Serialized snapshot size in bytes.
        bytes: u64,
    },
    /// A restarted operator recovered its state: restored from the
    /// snapshot of `epoch` (0 = no snapshot yet) and replayed `replayed`
    /// logged tuples.
    Recovered {
        /// Epoch of the restored snapshot (0 before the first barrier).
        epoch: u64,
        /// Tuples replayed through the operator, outputs suppressed.
        replayed: u64,
    },
    /// One hop of a sampled flight-recorder span: a span-anchor tuple
    /// (selected by [`TelemetryConfig::span_sample`]) was drained by this
    /// actor. The event's `t_ns` is the batch-granular processing time;
    /// joining the hops of one `(tuple_seq, src_ns)` identity in trace
    /// order (see [`assemble_spans`]) yields the tuple's causal path and
    /// per-hop sojourn times through the graph.
    Span {
        /// The traced tuple's source sequence number (span identity).
        tuple_seq: u64,
        /// The tuple's source timestamp — hop zero of the span, and the
        /// disambiguator when several sources share sequence numbers.
        src_ns: u64,
    },
    /// A live reconfiguration route swap was applied by this actor: its
    /// output `port` now routes to `destinations` replica slots. Emitted
    /// at the epoch barrier the swap was gated on (`epoch` 0 when applied
    /// un-gated, i.e. with checkpointing off).
    Reconfigured {
        /// Barrier epoch the swap applied at (0 = ungated).
        epoch: u64,
        /// The swapped output port.
        port: usize,
        /// Destination count of the new route (the new active parallelism).
        destinations: u64,
        /// Keys paused for state handoff by this swap.
        moved_keys: u64,
    },
    /// One side of a key-state handoff executed on this actor: the old
    /// owner extracted and published the moving keys' state
    /// (`outbound = true`), or the new owner merged it
    /// (`outbound = false`).
    StateMigrated {
        /// The handoff id connecting the extract and merge events.
        handoff: u64,
        /// Serialized size of the moved state.
        bytes: u64,
        /// True on the extracting (old-owner) side.
        outbound: bool,
    },
}

impl fmt::Display for TraceEventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceEventKind::ActorStarted => write!(f, "actor-started"),
            TraceEventKind::ActorFinished => write!(f, "actor-finished"),
            TraceEventKind::OperatorPanicked => write!(f, "operator-panicked"),
            TraceEventKind::OperatorRestarted => write!(f, "operator-restarted"),
            TraceEventKind::Backoff { .. } => write!(f, "backoff"),
            TraceEventKind::ActorStopped => write!(f, "actor-stopped"),
            TraceEventKind::Blocked { .. } => write!(f, "blocked"),
            TraceEventKind::DeadLetter { .. } => write!(f, "dead-letter"),
            TraceEventKind::CheckpointCompleted { .. } => write!(f, "checkpoint-completed"),
            TraceEventKind::Recovered { .. } => write!(f, "recovered"),
            TraceEventKind::Span { .. } => write!(f, "span"),
            TraceEventKind::Reconfigured { .. } => write!(f, "reconfigured"),
            TraceEventKind::StateMigrated { .. } => write!(f, "state-migrated"),
        }
    }
}

/// One structured lifecycle event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Global sequence number (0-based, gap-free across all actors).
    pub seq: u64,
    /// Nanoseconds since run start (wall or virtual, per executor).
    pub t_ns: u64,
    /// The actor the event concerns.
    pub actor: ActorId,
    /// What happened.
    pub kind: TraceEventKind,
}

impl TraceEvent {
    /// Renders the event as one JSON object (used for JSON-lines export).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(96);
        let _ = write!(
            s,
            "{{\"type\":\"trace\",\"seq\":{},\"t_ns\":{},\"actor\":{},\"event\":\"{}\"",
            self.seq, self.t_ns, self.actor.0, self.kind
        );
        match self.kind {
            TraceEventKind::Backoff { ns } | TraceEventKind::Blocked { ns } => {
                let _ = write!(s, ",\"ns\":{ns}");
            }
            TraceEventKind::DeadLetter { reason } => {
                let _ = write!(s, ",\"reason\":\"{reason}\"");
            }
            TraceEventKind::CheckpointCompleted { epoch, bytes } => {
                let _ = write!(s, ",\"epoch\":{epoch},\"bytes\":{bytes}");
            }
            TraceEventKind::Recovered { epoch, replayed } => {
                let _ = write!(s, ",\"epoch\":{epoch},\"replayed\":{replayed}");
            }
            TraceEventKind::Span { tuple_seq, src_ns } => {
                let _ = write!(s, ",\"tuple_seq\":{tuple_seq},\"src_ns\":{src_ns}");
            }
            TraceEventKind::Reconfigured {
                epoch,
                port,
                destinations,
                moved_keys,
            } => {
                let _ = write!(
                    s,
                    ",\"epoch\":{epoch},\"port\":{port},\"destinations\":{destinations},\"moved_keys\":{moved_keys}"
                );
            }
            TraceEventKind::StateMigrated {
                handoff,
                bytes,
                outbound,
            } => {
                let _ = write!(
                    s,
                    ",\"handoff\":{handoff},\"bytes\":{bytes},\"outbound\":{outbound}"
                );
            }
            _ => {}
        }
        s.push('}');
        s
    }
}

struct TraceInner {
    entries: Vec<TraceEvent>,
    capacity: usize,
}

/// A capacity-bounded, concurrently-writable log of [`TraceEvent`]s.
///
/// Like the [`DeadLetterLog`](crate::DeadLetterLog), the first `capacity`
/// events are kept verbatim and the rest only counted, so event storms
/// cannot exhaust memory while sequence numbers stay exact. Once the log
/// is full, [`record`](Self::record) degrades to one relaxed atomic
/// increment — a saturated pipeline emitting blocked/span events at
/// mailbox rates must not serialize its actor threads on this mutex.
pub struct TraceLog {
    inner: Mutex<TraceInner>,
    /// Events recorded so far, including any beyond capacity. Every
    /// record increments this and pushes iff the log is below capacity,
    /// so the retained entries are always the contiguous seq prefix.
    total: AtomicU64,
    /// Set once `entries` reaches `capacity`: lock-free early exit.
    full: AtomicBool,
}

impl fmt::Debug for TraceLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceLog")
            .field("total", &self.total())
            .field("retained", &self.lock().entries.len())
            .finish()
    }
}

impl TraceLog {
    /// Creates a log retaining at most `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        TraceLog {
            inner: Mutex::new(TraceInner {
                entries: Vec::new(),
                capacity,
            }),
            total: AtomicU64::new(0),
            full: AtomicBool::new(capacity == 0),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, TraceInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Records one event, assigning it the next global sequence number.
    pub fn record(&self, t_ns: u64, actor: ActorId, kind: TraceEventKind) {
        self.total.fetch_add(1, Ordering::Relaxed);
        if self.full.load(Ordering::Relaxed) {
            return;
        }
        let mut inner = self.lock();
        if inner.entries.len() < inner.capacity {
            let seq = inner.entries.len() as u64;
            inner.entries.push(TraceEvent {
                seq,
                t_ns,
                actor,
                kind,
            });
            if inner.entries.len() == inner.capacity {
                self.full.store(true, Ordering::Relaxed);
            }
        }
    }

    /// Total number of events recorded (including any beyond capacity).
    pub fn total(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Clones the retained events, in sequence order.
    pub fn entries(&self) -> Vec<TraceEvent> {
        self.lock().entries.clone()
    }
}

/// One actor's sample within a [`TelemetrySnapshot`]: its cumulative
/// [`Counters`] plus the fields derived at sampling time.
///
/// The sample dereferences to its counters, so `sample.busy_ns` reads
/// `sample.counters.busy_ns`.
#[derive(Debug, Clone, PartialEq)]
pub struct ActorSample {
    /// The actor.
    pub id: ActorId,
    /// Diagnostic name from the actor graph.
    pub name: String,
    /// Cumulative counters at sampling time. `busy_ns` is the numerator
    /// of the online service-time estimate `µ̂ = Δbusy_ns / Δitems_in`;
    /// `blocked_ns` is backpressure the actor *suffered* and
    /// `inbox_stall_ns` backpressure it *caused* (0 for sources, which
    /// have no mailbox).
    pub counters: Counters,
    /// Mailbox depth at sampling time (`None` for sources — no mailbox).
    pub queue_depth: Option<usize>,
    /// Mailbox capacity (`None` for sources).
    pub queue_capacity: Option<usize>,
    /// Rolling arrival rate over the last interval (items/s).
    pub arrival_rate: f64,
    /// Rolling departure rate over the last interval (items/s).
    pub departure_rate: f64,
    /// Fraction of the last interval spent inside the operator.
    pub utilization: f64,
}

impl std::ops::Deref for ActorSample {
    type Target = Counters;
    fn deref(&self) -> &Counters {
        &self.counters
    }
}

/// Per-sink latency summary within a [`TelemetrySnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct SinkLatency {
    /// The sink actor.
    pub actor: ActorId,
    /// The sink's diagnostic name.
    pub name: String,
    /// Cumulative latency summary.
    pub latency: LatencySnapshot,
}

/// One timestamped sample of the whole topology.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySnapshot {
    /// 0-based snapshot index.
    pub tick: u64,
    /// Nanoseconds since run start (wall or virtual, per executor).
    pub t_ns: u64,
    /// Nanoseconds covered by the rolling window (time since the previous
    /// snapshot, or since run start for tick 0).
    pub interval_ns: u64,
    /// Per-actor samples, indexed by actor id.
    pub actors: Vec<ActorSample>,
    /// Per-sink end-to-end latency summaries.
    pub latencies: Vec<SinkLatency>,
    /// Total trace events recorded so far.
    pub trace_total: u64,
    /// Last epoch whose checkpoint completed on every actor (`None` when
    /// checkpointing is off or no epoch has completed yet).
    pub last_complete_epoch: Option<u64>,
    /// Tenant label (multi-tenant runs; `None` for solo runs without an
    /// explicit [`TelemetryConfig::tenant`]). Exporters attach it to every
    /// per-actor record so co-tenant streams stay distinguishable.
    pub tenant: Option<String>,
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

impl TelemetrySnapshot {
    /// Renders the snapshot as one JSON object (one JSON-lines record).
    pub fn to_json(&self) -> String {
        self.to_json_with("")
    }

    /// Renders the snapshot as JSON, splicing `extra_fields` (raw JSON of
    /// the form `"key":value,...`, without braces) into the top-level
    /// object — used by exporters to attach drift verdicts computed a
    /// layer above the runtime.
    pub fn to_json_with(&self, extra_fields: &str) -> String {
        let mut s = String::with_capacity(256 + 220 * self.actors.len());
        let _ = write!(
            s,
            "{{\"type\":\"snapshot\",\"tick\":{},\"t_ns\":{},\"interval_ns\":{},",
            self.tick, self.t_ns, self.interval_ns
        );
        if let Some(tenant) = &self.tenant {
            s.push_str("\"tenant\":\"");
            escape_json(tenant, &mut s);
            s.push_str("\",");
        }
        s.push_str("\"actors\":[");
        for (i, a) in self.actors.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{{\"id\":{},\"name\":\"", a.id.0);
            escape_json(&a.name, &mut s);
            if let Some(tenant) = &self.tenant {
                s.push_str("\",\"tenant\":\"");
                escape_json(tenant, &mut s);
            }
            // The first two counters, then the derived fields, then the
            // rest of the table: the field order the export has always had.
            let (head, tail) = COUNTERS.split_at(2);
            s.push('"');
            for c in head {
                let _ = write!(s, ",\"{}\":{}", c.name, a.counters[c.counter]);
            }
            s.push_str(",\"queue_depth\":");
            match a.queue_depth {
                Some(d) => {
                    let _ = write!(s, "{d}");
                }
                None => s.push_str("null"),
            }
            s.push_str(",\"queue_capacity\":");
            match a.queue_capacity {
                Some(c) => {
                    let _ = write!(s, "{c}");
                }
                None => s.push_str("null"),
            }
            let _ = write!(
                s,
                ",\"arrival_rate\":{:.3},\"departure_rate\":{:.3},\"utilization\":{:.4}",
                a.arrival_rate, a.departure_rate, a.utilization
            );
            for c in tail {
                let _ = write!(s, ",\"{}\":{}", c.name, a.counters[c.counter]);
            }
            s.push('}');
        }
        s.push_str("],\"latency\":[");
        for (i, l) in self.latencies.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{{\"sink\":{},\"name\":\"", l.actor.0);
            escape_json(&l.name, &mut s);
            let _ = write!(
                s,
                "\",\"count\":{},\"mean_ns\":{},\"p50_ns\":{},\"p95_ns\":{},\"p99_ns\":{},\"max_ns\":{}}}",
                l.latency.count,
                l.latency.mean_ns,
                l.latency.p50_ns,
                l.latency.p95_ns,
                l.latency.p99_ns,
                l.latency.max_ns
            );
        }
        let _ = write!(s, "],\"trace_total\":{}", self.trace_total);
        s.push_str(",\"last_complete_epoch\":");
        match self.last_complete_epoch {
            Some(e) => {
                let _ = write!(s, "{e}");
            }
            None => s.push_str("null"),
        }
        if !extra_fields.is_empty() {
            s.push(',');
            s.push_str(extra_fields);
        }
        s.push('}');
        s
    }
}

/// Everything the telemetry layer collected over one run.
#[derive(Debug, Clone)]
pub struct TelemetryReport {
    /// Retained snapshots, oldest first (ring-bounded).
    pub snapshots: Vec<TelemetrySnapshot>,
    /// Retained trace events, in sequence order (capacity-bounded).
    pub trace: Vec<TraceEvent>,
    /// Total trace events recorded (including any beyond capacity).
    pub trace_total: u64,
}

impl TelemetryReport {
    /// The last snapshot taken, if any.
    pub fn last_snapshot(&self) -> Option<&TelemetrySnapshot> {
        self.snapshots.last()
    }

    /// Renders all snapshots followed by all retained trace events as
    /// JSON-lines.
    pub fn to_jsonl(&self) -> String {
        let mut s = String::new();
        for snap in &self.snapshots {
            s.push_str(&snap.to_json());
            s.push('\n');
        }
        for ev in &self.trace {
            s.push_str(&ev.to_json());
            s.push('\n');
        }
        s
    }
}

/// One hop of an assembled flight-recorder span: the traced tuple was
/// drained by `actor` at `t_ns`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanHop {
    /// The actor that processed the traced tuple on this hop.
    pub actor: ActorId,
    /// Batch-granular processing timestamp (ns since run start).
    pub t_ns: u64,
    /// Sojourn on this hop: time since the previous hop (or since the
    /// source stamp for the first hop). Queue-wait plus service plus any
    /// upstream flush delay; the attribution layer splits it further
    /// using the re-profiled service times and the inbox stall counters.
    pub hop_ns: u64,
}

/// A sampled tuple's assembled causal path through the graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanPath {
    /// The traced tuple's source sequence number.
    pub tuple_seq: u64,
    /// The tuple's source timestamp (span start, hop zero).
    pub src_ns: u64,
    /// Hops in causal (trace) order, typically ending at a sink.
    pub hops: Vec<SpanHop>,
}

impl SpanPath {
    /// End-to-end latency of the span: last hop timestamp minus the
    /// source stamp (`None` for an empty span).
    pub fn total_ns(&self) -> Option<u64> {
        self.hops.last().map(|h| h.t_ns.saturating_sub(self.src_ns))
    }
}

/// Groups the retained [`TraceEventKind::Span`] events by traced tuple
/// (`(tuple_seq, src_ns)` identity) and derives per-hop sojourn deltas
/// from the source stamp.
///
/// Hops keep the trace's record order, which is causal for any single
/// tuple (a tuple is drained hop-by-hop in graph order). Spans follow the
/// `seq`/`src_ns` identity stamped at the source; operators that emit
/// fresh tuples (flatmap-style expansion) start new identities and end
/// the traced span at that operator. The returned paths are sorted by
/// `(src_ns, tuple_seq)`, so the output is deterministic whenever the
/// trace is.
pub fn assemble_spans(events: &[TraceEvent]) -> Vec<SpanPath> {
    let mut paths: Vec<SpanPath> = Vec::new();
    for ev in events {
        if let TraceEventKind::Span { tuple_seq, src_ns } = ev.kind {
            let path = match paths
                .iter_mut()
                .find(|p| p.tuple_seq == tuple_seq && p.src_ns == src_ns)
            {
                Some(p) => p,
                None => {
                    paths.push(SpanPath {
                        tuple_seq,
                        src_ns,
                        hops: Vec::new(),
                    });
                    paths.last_mut().expect("just pushed")
                }
            };
            let prev_t = path.hops.last().map(|h| h.t_ns).unwrap_or(src_ns);
            path.hops.push(SpanHop {
                actor: ev.actor,
                t_ns: ev.t_ns,
                hop_ns: ev.t_ns.saturating_sub(prev_t),
            });
        }
    }
    paths.sort_by_key(|p| (p.src_ns, p.tuple_seq));
    paths
}

/// Raw cumulative counters for one actor at one sampling instant, fed to
/// [`TelemetryHub::sample`] by whichever executor owns the counters.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RawCounters {
    pub counters: Counters,
    pub queue_depth: Option<usize>,
}

/// One actor's counters at the previous sample: the rolling window's
/// baseline.
#[derive(Clone, Copy, Default)]
struct PrevCounters {
    t_ns: u64,
    counters: Counters,
}

/// Static per-actor telemetry context held by the hub.
pub(crate) struct HubActor {
    pub name: String,
    pub queue_capacity: Option<usize>,
    /// Present only on sink actors (no outgoing routes).
    pub latency: Option<Arc<LatencyHistogram>>,
}

struct HubState {
    prev: Vec<PrevCounters>,
    ring: VecDeque<TelemetrySnapshot>,
    tick: u64,
}

/// The shared aggregation point both executors sample into.
pub(crate) struct TelemetryHub {
    actors: Vec<HubActor>,
    pub trace: Arc<TraceLog>,
    ring_capacity: usize,
    tenant: Option<String>,
    state: Mutex<HubState>,
    on_snapshot: Option<SnapshotCallback>,
}

impl TelemetryHub {
    pub(crate) fn new(actors: Vec<HubActor>, config: &TelemetryConfig) -> Self {
        let n = actors.len();
        TelemetryHub {
            actors,
            trace: Arc::new(TraceLog::with_capacity(config.trace_capacity)),
            ring_capacity: config.ring_capacity.max(1),
            tenant: config.tenant.clone(),
            state: Mutex::new(HubState {
                prev: vec![PrevCounters::default(); n],
                ring: VecDeque::new(),
                tick: 0,
            }),
            on_snapshot: config.on_snapshot.clone(),
        }
    }

    /// The latency histogram of actor `i`, if it is a sink.
    pub(crate) fn latency_of(&self, i: usize) -> Option<Arc<LatencyHistogram>> {
        self.actors[i].latency.clone()
    }

    /// Takes one snapshot at `t_ns` from the supplied raw counters,
    /// pushes it into the ring and notifies the subscriber.
    /// `last_complete_epoch` is the checkpoint coordinator's globally
    /// completed epoch at sampling time (`None` when checkpointing is
    /// off).
    pub(crate) fn sample(
        &self,
        t_ns: u64,
        raw: &[RawCounters],
        last_complete_epoch: Option<u64>,
    ) -> TelemetrySnapshot {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        // All actors share the same window; take it from slot 0 (or 0 ns
        // for an empty graph, which validation rejects anyway).
        let window_ns = state
            .prev
            .first()
            .map(|p| t_ns.saturating_sub(p.t_ns))
            .unwrap_or(0);
        // Zero-width window (two samples on the same timestamp, e.g. the
        // final flush racing the sampler on a coarse clock): rates would
        // be 0/0. Merge into the previous snapshot — refresh its
        // cumulative counters but keep its rates, tick and `prev`
        // baseline, so the intervening deltas are attributed to the next
        // real window instead of being dropped or reported as NaN/inf.
        if window_ns == 0 {
            if let Some(last) = state.ring.back().cloned() {
                let merged = self.merge_into(last, raw, last_complete_epoch);
                *state.ring.back_mut().expect("ring non-empty") = merged.clone();
                return merged;
            }
        }
        let tick = state.tick;
        state.tick += 1;
        let mut samples = Vec::with_capacity(self.actors.len());
        for (i, actor) in self.actors.iter().enumerate() {
            let r = &raw[i];
            let prev = &mut state.prev[i];
            let (c, p) = (&r.counters, &prev.counters);
            let (arrival, departure, util) = if window_ns == 0 {
                (0.0, 0.0, 0.0)
            } else {
                let dt = window_ns as f64 / 1e9;
                (
                    c.items_in.saturating_sub(p.items_in) as f64 / dt,
                    c.items_out.saturating_sub(p.items_out) as f64 / dt,
                    // A busy span finishing just after the boundary can
                    // push the ratio marginally past 1; clamp — a single
                    // logical server cannot be more than fully utilized.
                    (c.busy_ns.saturating_sub(p.busy_ns) as f64 / window_ns as f64).min(1.0),
                )
            };
            *prev = PrevCounters {
                t_ns,
                counters: r.counters,
            };
            samples.push(ActorSample {
                id: ActorId(i),
                name: actor.name.clone(),
                counters: r.counters,
                queue_depth: r.queue_depth,
                queue_capacity: actor.queue_capacity,
                arrival_rate: arrival,
                departure_rate: departure,
                utilization: util,
            });
        }
        let latencies = self
            .actors
            .iter()
            .enumerate()
            .filter_map(|(i, a)| {
                a.latency.as_ref().map(|h| SinkLatency {
                    actor: ActorId(i),
                    name: a.name.clone(),
                    latency: h.snapshot(),
                })
            })
            .collect();
        let snapshot = TelemetrySnapshot {
            tick,
            t_ns,
            interval_ns: window_ns,
            actors: samples,
            latencies,
            trace_total: self.trace.total(),
            last_complete_epoch,
            tenant: self.tenant.clone(),
        };
        state.ring.push_back(snapshot.clone());
        while state.ring.len() > self.ring_capacity {
            state.ring.pop_front();
        }
        drop(state);
        if let Some(cb) = &self.on_snapshot {
            cb(&snapshot);
        }
        snapshot
    }

    /// Refreshes the cumulative fields of `last` from `raw` without
    /// touching its rates or tick — the zero-width-window merge.
    fn merge_into(
        &self,
        mut last: TelemetrySnapshot,
        raw: &[RawCounters],
        last_complete_epoch: Option<u64>,
    ) -> TelemetrySnapshot {
        for (s, r) in last.actors.iter_mut().zip(raw) {
            s.counters = r.counters;
            s.queue_depth = r.queue_depth;
        }
        for l in &mut last.latencies {
            if let Some(h) = self.actors[l.actor.0].latency.as_ref() {
                l.latency = h.snapshot();
            }
        }
        last.trace_total = self.trace.total();
        last.last_complete_epoch = last_complete_epoch;
        last
    }

    /// Drains the hub into the final report.
    pub(crate) fn into_report(self) -> TelemetryReport {
        let state = self
            .state
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        TelemetryReport {
            snapshots: state.ring.into(),
            trace: self.trace.entries(),
            trace_total: self.trace.total(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_are_ordered_and_bounded() {
        let h = LatencyHistogram::new();
        for ns in [100u64, 200, 400, 800, 1600, 3200, 6400, 12800, 25600, 51200] {
            h.record(ns);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 10);
        assert!(s.p50_ns <= s.p95_ns && s.p95_ns <= s.p99_ns && s.p99_ns <= s.max_ns);
        assert_eq!(s.max_ns, 51200);
        assert!(s.p50_ns >= 100 && s.p50_ns <= 3200, "p50 {}", s.p50_ns);
        assert!(s.mean_ns > 0);
    }

    #[test]
    fn histogram_empty_and_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.snapshot(), LatencySnapshot::default());
        h.record(0); // clamped into the 1 ns bucket
        assert_eq!(h.count(), 1);
        assert!(h.quantile(0.5).is_some());
    }

    #[test]
    fn histogram_single_value_quantiles_collapse() {
        let h = LatencyHistogram::new();
        for _ in 0..1000 {
            h.record(1_000_000);
        }
        let s = h.snapshot();
        // Every quantile lands in the same bucket, capped at the true max.
        assert!(s.p50_ns <= 1_000_000 * 2);
        assert_eq!(s.max_ns, 1_000_000);
        assert_eq!(s.mean_ns, 1_000_000);
        assert!(s.p99_ns <= s.max_ns);
    }

    #[test]
    fn trace_log_caps_entries_but_counts_all() {
        let log = TraceLog::with_capacity(2);
        for i in 0..5 {
            log.record(i * 10, ActorId(0), TraceEventKind::ActorStarted);
        }
        assert_eq!(log.total(), 5);
        let entries = log.entries();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].seq, 0);
        assert_eq!(entries[1].seq, 1);
    }

    #[test]
    fn trace_event_json_shapes() {
        let ev = TraceEvent {
            seq: 3,
            t_ns: 99,
            actor: ActorId(1),
            kind: TraceEventKind::Backoff { ns: 500 },
        };
        let j = ev.to_json();
        assert!(j.contains("\"event\":\"backoff\""));
        assert!(j.contains("\"ns\":500"));
        let ev = TraceEvent {
            seq: 4,
            t_ns: 100,
            actor: ActorId(2),
            kind: TraceEventKind::DeadLetter {
                reason: DeadLetterReason::SendTimeout,
            },
        };
        assert!(ev.to_json().contains("\"reason\":\"send-timeout\""));
    }

    fn hub_with(names: &[&str]) -> TelemetryHub {
        let actors = names
            .iter()
            .enumerate()
            .map(|(i, n)| HubActor {
                name: n.to_string(),
                queue_capacity: if i == 0 { None } else { Some(16) },
                latency: if i + 1 == names.len() {
                    Some(Arc::new(LatencyHistogram::new()))
                } else {
                    None
                },
            })
            .collect();
        TelemetryHub::new(actors, &TelemetryConfig::default())
    }

    fn raw(items_in: u64, items_out: u64, busy_ns: u64, queue_depth: Option<usize>) -> RawCounters {
        RawCounters {
            counters: Counters {
                items_in,
                items_out,
                busy_ns,
                ..Counters::default()
            },
            queue_depth,
        }
    }

    #[test]
    fn hub_computes_rolling_rates_from_deltas() {
        let hub = hub_with(&["src", "sink"]);
        let raw0 = [raw(0, 100, 0, None), raw(100, 0, 500_000_000, Some(3))];
        let s0 = hub.sample(1_000_000_000, &raw0, None);
        assert_eq!(s0.tick, 0);
        assert!((s0.actors[0].departure_rate - 100.0).abs() < 1e-9);
        assert!((s0.actors[1].utilization - 0.5).abs() < 1e-9);
        assert_eq!(s0.actors[1].queue_depth, Some(3));

        // Second window: 50 more items over 0.5 s -> 100/s rolling.
        let raw1 = [raw(0, 150, 0, None), raw(150, 0, 750_000_000, Some(0))];
        let s1 = hub.sample(1_500_000_000, &raw1, None);
        assert_eq!(s1.tick, 1);
        assert_eq!(s1.interval_ns, 500_000_000);
        assert!((s1.actors[0].departure_rate - 100.0).abs() < 1e-9);
        assert!((s1.actors[1].arrival_rate - 100.0).abs() < 1e-9);
        assert!((s1.actors[1].utilization - 0.5).abs() < 1e-9);
        // Cumulative counters are still absolute.
        assert_eq!(s1.actors[0].items_out, 150);
    }

    #[test]
    fn zero_width_window_merges_instead_of_emitting_bogus_rates() {
        let hub = hub_with(&["src", "sink"]);
        let raw0 = [raw(0, 100, 0, None), raw(100, 0, 500_000_000, None)];
        let s0 = hub.sample(1_000_000_000, &raw0, None);
        // A second sample on the same timestamp: counters advanced but no
        // time passed. It must merge into tick 0, not mint a zero-rate
        // (or NaN/inf) snapshot.
        let raw1 = [raw(0, 160, 0, None), raw(160, 0, 700_000_000, None)];
        let s1 = hub.sample(1_000_000_000, &raw1, Some(3));
        assert_eq!(s1.tick, 0, "merged into the previous tick");
        assert_eq!(s1.actors[0].items_out, 160, "cumulatives refreshed");
        assert_eq!(s1.last_complete_epoch, Some(3));
        // Rates kept from the real window — finite, not 0/NaN/inf.
        assert!((s1.actors[0].departure_rate - s0.actors[0].departure_rate).abs() < 1e-9);
        assert!(s1.actors.iter().all(|a| {
            a.arrival_rate.is_finite() && a.departure_rate.is_finite() && a.utilization.is_finite()
        }));
        // The intervening delta is attributed to the next real window:
        // 60 more items over the next 0.5 s -> 120/s.
        let s2 = hub.sample(1_500_000_000, &raw1, None);
        assert_eq!(s2.tick, 1);
        assert!((s2.actors[0].departure_rate - 120.0).abs() < 1e-9);
        let report = hub.into_report();
        assert_eq!(report.snapshots.len(), 2, "no extra ring entry");
    }

    #[test]
    fn hub_ring_is_bounded_and_report_drains() {
        let cfg = TelemetryConfig {
            ring_capacity: 2,
            ..TelemetryConfig::default()
        };
        let actors = vec![HubActor {
            name: "a".into(),
            queue_capacity: None,
            latency: None,
        }];
        let hub = TelemetryHub::new(actors, &cfg);
        for t in 1..=5u64 {
            hub.sample(t * 1_000_000, &[RawCounters::default()], None);
        }
        let report = hub.into_report();
        assert_eq!(report.snapshots.len(), 2);
        assert_eq!(report.snapshots[0].tick, 3);
        assert_eq!(report.snapshots[1].tick, 4);
    }

    #[test]
    fn snapshot_json_contains_required_fields() {
        let hub = hub_with(&["src", "sink"]);
        hub.latency_of(1).unwrap().record(42_000);
        let snap = hub.sample(
            1_000_000_000,
            &[RawCounters::default(), RawCounters::default()],
            Some(7),
        );
        let json = snap.to_json();
        for needle in [
            "\"type\":\"snapshot\"",
            "\"queue_depth\":null",
            "\"arrival_rate\":",
            "\"departure_rate\":",
            "\"utilization\":",
            "\"p50_ns\":",
            "\"p95_ns\":",
            "\"p99_ns\":",
            "\"max_ns\":",
            "\"busy_ns\":0",
            "\"blocked_ns\":0",
            "\"inbox_stall_ns\":0",
            "\"snapshots\":0",
            "\"snapshot_bytes\":0",
            "\"align_stall_ns\":0",
            "\"recoveries\":0",
            "\"replayed\":0",
            "\"replay_overflows\":0",
            "\"trace_total\":0",
            "\"last_complete_epoch\":7",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
        let with_extra = snap.to_json_with("\"drift\":[]");
        assert!(with_extra.ends_with(",\"drift\":[]}"));
    }

    #[test]
    fn span_event_json_shape() {
        let ev = TraceEvent {
            seq: 9,
            t_ns: 4_200,
            actor: ActorId(2),
            kind: TraceEventKind::Span {
                tuple_seq: 64,
                src_ns: 1_000,
            },
        };
        let j = ev.to_json();
        assert!(j.contains("\"event\":\"span\""), "{j}");
        assert!(j.contains("\"tuple_seq\":64"), "{j}");
        assert!(j.contains("\"src_ns\":1000"), "{j}");
    }

    #[test]
    fn assemble_spans_groups_hops_and_derives_deltas() {
        let span = |seq, t_ns, actor, tuple_seq, src_ns| TraceEvent {
            seq,
            t_ns,
            actor: ActorId(actor),
            kind: TraceEventKind::Span { tuple_seq, src_ns },
        };
        let events = vec![
            // Tuple 0 born at 100 ns, three hops; tuple 8 interleaved.
            span(0, 150, 1, 0, 100),
            TraceEvent {
                seq: 1,
                t_ns: 160,
                actor: ActorId(1),
                kind: TraceEventKind::ActorStarted,
            },
            span(2, 170, 1, 8, 160),
            span(3, 400, 2, 0, 100),
            span(4, 450, 2, 8, 160),
            span(5, 900, 3, 0, 100),
        ];
        let paths = assemble_spans(&events);
        assert_eq!(paths.len(), 2);
        let p0 = &paths[0];
        assert_eq!((p0.tuple_seq, p0.src_ns), (0, 100));
        assert_eq!(p0.hops.len(), 3);
        assert_eq!(p0.hops[0].hop_ns, 50); // 150 - src 100
        assert_eq!(p0.hops[1].hop_ns, 250); // 400 - 150
        assert_eq!(p0.hops[2].hop_ns, 500); // 900 - 400
        assert_eq!(p0.total_ns(), Some(800));
        let p1 = &paths[1];
        assert_eq!((p1.tuple_seq, p1.src_ns), (8, 160));
        assert_eq!(p1.hops.len(), 2);
        assert_eq!(p1.hops[0].actor, ActorId(1));
        assert_eq!(p1.total_ns(), Some(290));
    }

    #[test]
    fn span_mask_rounds_sample_period_to_power_of_two() {
        assert_eq!(TelemetryConfig::default().span_mask(), None);
        let cfg = TelemetryConfig::default().with_span_sample(1);
        assert_eq!(cfg.span_mask(), Some(0)); // every tuple
        let cfg = TelemetryConfig::default().with_span_sample(64);
        assert_eq!(cfg.span_mask(), Some(63));
        let cfg = TelemetryConfig::default().with_span_sample(100);
        assert_eq!(cfg.span_mask(), Some(127));
    }

    #[test]
    fn json_escaping_handles_special_names() {
        let mut s = String::new();
        escape_json("a\"b\\c\nd", &mut s);
        assert_eq!(s, "a\\\"b\\\\c\\u000ad");
    }

    #[test]
    fn subscriber_sees_every_snapshot() {
        use std::sync::atomic::AtomicUsize;
        let seen = Arc::new(AtomicUsize::new(0));
        let seen2 = Arc::clone(&seen);
        let cfg = TelemetryConfig::default().with_on_snapshot(move |_s| {
            seen2.fetch_add(1, Ordering::SeqCst);
        });
        let hub = TelemetryHub::new(
            vec![HubActor {
                name: "a".into(),
                queue_capacity: None,
                latency: None,
            }],
            &cfg,
        );
        hub.sample(1, &[RawCounters::default()], None);
        hub.sample(2, &[RawCounters::default()], None);
        assert_eq!(seen.load(Ordering::SeqCst), 2);
    }
}
