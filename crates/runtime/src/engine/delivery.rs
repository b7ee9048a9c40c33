//! Output delivery for one actor: routing, per-destination coalescing,
//! and the hand-off of each batch through the mailbox's one blocking send.

use super::pool::{run_one_ready, PoolShared};
use crate::checkpoint::CheckpointCoordinator;
use crate::mailbox::{BatchFailure, BatchPool, Envelope, Sender};
use crate::metrics::ActorMetrics;
use crate::operator::Outputs;
use crate::rng::XorShift64;
use crate::route::RouteState;
use crate::supervision::{DeadLetter, DeadLetterLog, DeadLetterReason};
use crate::telemetry::{LatencyHistogram, TraceEventKind, TraceLog};
use crate::ActorId;
use spinstreams_core::Tuple;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shared per-thread context for delivering outputs.
pub(super) struct DeliveryCtx {
    pub(super) id: ActorId,
    pub(super) senders: Vec<Option<Sender>>,
    pub(super) routes: Vec<RouteState>,
    pub(super) eos_targets: Vec<usize>,
    pub(super) rng: XorShift64,
    pub(super) metrics: Arc<ActorMetrics>,
    pub(super) started_at: Instant,
    pub(super) send_timeout: Duration,
    /// This actor's private dead-letter log: nothing shared sits on the
    /// send path. Per-actor logs are merged into the run report (in actor
    /// id order) at shutdown; the per-actor `dead_letters` metric keeps
    /// `total_dead_letters()` exact regardless of entry caps.
    pub(super) dead_letters: DeadLetterLog,
    /// Present only with telemetry enabled on a sink actor: records
    /// end-to-end latency of every tuple consumed at a sink port.
    pub(super) latency: Option<Arc<LatencyHistogram>>,
    /// Present only with telemetry enabled: structured lifecycle events.
    pub(super) trace: Option<Arc<TraceLog>>,
    /// Stamp source emissions with their departure time (telemetry on).
    pub(super) stamp: bool,
    /// Envelopes coalesced per destination before a mailbox handoff.
    pub(super) batch_size: usize,
    /// Per-destination coalescing buffers (indexed by actor id; only the
    /// slots of reachable destinations are ever used). Reachable slots are
    /// checked out of `buf_pool` pre-sized to the batch limit, so the
    /// steady-state send path never grows them.
    pub(super) out_bufs: Vec<Vec<Envelope>>,
    /// The run-wide buffer slab `out_bufs` was drawn from; buffers go back
    /// to it in [`release_buffers`](Self::release_buffers) at actor finish.
    pub(super) buf_pool: Arc<BatchPool>,
    /// Total envelopes currently coalesced across all buffers.
    pub(super) buffered: usize,
    /// Clock reading taken once per drained input batch (worker actors
    /// only; `0` = never refreshed). Sink-port latency/departure stamping
    /// uses this instead of one `Instant::now()` per envelope, bounding
    /// the stamp skew to one batch.
    pub(super) cached_now_ns: u64,
    /// Sink-port departures accumulated since the last flush. All share
    /// the batch-cached clock reading, so they fold into one metrics
    /// update in [`flush_all`](Self::flush_all) instead of one RMW per
    /// consumed tuple.
    pub(super) pending_sink_outs: u64,
    /// Run-length latency coalescing for the sink histogram: the current
    /// run's observed latency and its repeat count. Source stamps are
    /// batch-granular and the sink clock is batch-cached, so consecutive
    /// tuples usually observe the *same* latency — folding a run into one
    /// `record_n` replaces four shared-atomic RMWs per consumed tuple
    /// with four per distinct value.
    pub(super) pending_lat_ns: u64,
    pub(super) pending_lat_n: u64,
    /// The run's worker pool: lets a blocked flush run other ready actors
    /// instead of parking its thread.
    pub(super) pool: Arc<PoolShared>,
    /// This actor's slot in the (possibly multi-tenant) pool: its tenant
    /// base offset plus its local actor id. Single-tenant runs have base
    /// 0, so slot == actor id.
    pub(super) pool_slot: usize,
    /// Span-sampling mask (telemetry on, `span_sample > 0`): a data tuple
    /// is flight-recorded at every hop iff `seq & mask == 0`. `None`
    /// disables span tracing so the hot path never tests per-tuple.
    pub(super) span_mask: Option<u64>,
    /// Epoch-marker interval (sources inject one marker per `n` emitted
    /// items); `None` disables checkpointing for the whole run.
    pub(super) checkpoint_interval: Option<u64>,
    /// Shared checkpoint ack ledger, present only with checkpointing on.
    pub(super) coordinator: Option<Arc<CheckpointCoordinator>>,
}

impl DeliveryCtx {
    pub(super) fn now_ns(&self) -> u64 {
        self.started_at.elapsed().as_nanos() as u64
    }

    /// Re-reads the clock into the per-batch cache. Called once per
    /// drained input batch, not per envelope.
    pub(super) fn refresh_now(&mut self) {
        self.cached_now_ns = self.now_ns();
    }

    /// The batch-cached clock for sink-port stamping; falls back to a
    /// fresh read on actors that never refresh (sources, whose emission
    /// times *are* the measurement).
    pub(super) fn sink_now(&self) -> u64 {
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
    pub(super) fn release_buffers(&mut self) {
        let bufs = std::mem::take(&mut self.out_bufs);
        for buf in bufs {
            if buf.capacity() > 0 {
                self.buf_pool.give(buf);
            }
        }
    }

    /// Records a lifecycle trace event, if tracing is enabled.
    pub(super) fn trace_event(&self, kind: TraceEventKind) {
        if let Some(trace) = &self.trace {
            trace.record(self.now_ns(), self.id, kind);
        }
    }

    /// Records `tuple` as undeliverable in this actor's private log — no
    /// shared lock on the send path. The per-actor logs are merged into
    /// the [`RunReport`] in actor-id order at shutdown; the per-actor
    /// `dead_letters` metric keeps `total_dead_letters()` exact even when
    /// the merged log's capacity truncates entries.
    pub(super) fn dead_letter(
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
    pub(super) fn dead_letter_msg(
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
    pub(super) fn deliver(&mut self, out: &mut Outputs) {
        for (port, tuple) in out.drain() {
            self.deliver_one(port, tuple);
        }
    }

    /// Routes a single `(port, tuple)` emission — the per-item body of
    /// [`deliver`](Self::deliver), split out so the reconfiguration layer's
    /// pause interception can route the non-paused remainder item by item.
    #[inline]
    pub(super) fn deliver_one(&mut self, port: usize, tuple: Tuple) {
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
        // An actor must not park its thread while a downstream mailbox is
        // full — the consumer that would drain it may be waiting for this
        // very thread. Help run ready actors instead of sleeping.
        let (pool, slot) = (&self.pool, self.pool_slot);
        let outcome = sender.send_batch(&mut buf, Some(self.send_timeout), || {
            run_one_ready(pool, slot)
        });
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
    /// batch, by a paced source before it sleeps, before EOS propagation,
    /// and on supervision events, so nothing ever sits buffered across a
    /// sleep, a restart, a backoff, or shutdown.
    pub(super) fn flush_all(&mut self) {
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

    /// Sends one EOS to every possible destination; EOS is never dropped.
    pub(super) fn propagate_eos(&mut self) {
        // Coalesced data drains before EOS (see `broadcast`): a worker
        // counts EOS markers to terminate, and FIFO order is only
        // meaningful if every buffered envelope precedes the marker.
        self.broadcast(Envelope::Eos);
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
    pub(super) fn broadcast_marker(&mut self, epoch: u64) {
        self.broadcast(Envelope::Epoch(epoch));
    }

    /// Drains every coalescing buffer, then sends the control envelope
    /// `env` to every destination through the same blocking send as data,
    /// with no deadline: it waits (helping ready actors) until delivered,
    /// and gives up only once the receiver is gone. The emptied coalescing
    /// buffer carries it, so a control send allocates nothing.
    fn broadcast(&mut self, env: Envelope) {
        self.flush_all();
        let (pool, slot) = (&self.pool, self.pool_slot);
        for &d in &self.eos_targets {
            if let Some(sender) = &self.senders[d] {
                let buf = &mut self.out_bufs[d];
                buf.push(env);
                sender.send_batch(buf, None, || run_one_ready(pool, slot));
                buf.clear();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::{fast_cfg, pool_cfg};
    use crate::engine::*;
    use crate::operators::{PassThrough, Spin};
    use crate::{Behavior, Route, SourceConfig};

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
        // source drops items instead of waiting (load-shedding mode). The
        // deadline-first contract makes this hold however late the host
        // wakes the source, and however long its helping runs the 3 ms
        // consumer inline: with one worker the source helps, with two the
        // consumer also runs on its own thread.
        for workers in [1, 2] {
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
                ..pool_cfg(workers)
            };
            let r = run(g, &cfg).unwrap();
            let dropped = r.actor(s).dropped;
            assert!(
                dropped > 0,
                "pool-{workers}: expected drops under 1 ms timeout"
            );
            assert!(r.actor(w).items_in < 64, "pool-{workers}");
            // Every drop is structurally accounted as a dead letter.
            assert_eq!(r.total_dead_letters(), dropped, "pool-{workers}");
            assert_eq!(r.dead_letters.total(), dropped, "pool-{workers}");
            assert_eq!(r.actor(s).dead_letters, dropped, "pool-{workers}");
            let first = &r.dead_letters.entries()[0];
            assert_eq!(first.source, s);
            assert_eq!(first.destination, Some(w));
            assert_eq!(first.reason, DeadLetterReason::SendTimeout);
            assert_eq!(
                r.actor(w).items_in + dropped,
                64,
                "pool-{workers}: conservation"
            );
        }
    }

    #[test]
    fn control_envelopes_are_never_shed_under_a_send_timeout() {
        // Data and markers share one blocking send; only data has a
        // deadline. Behind a 3 ms consumer and a 2-slot mailbox a 1 ms
        // timeout sheds data, yet every epoch marker and the EOS arrive.
        // At batch 1 the consumer drains one envelope per batch, so a
        // marker meets a full mailbox that stays full past the timeout.
        for (batch_size, workers) in [(1, 1), (1, 2), (64, 1), (64, 2)] {
            let run_name = format!("batch {batch_size}, pool-{workers}");
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
                checkpoint_interval: Some(8),
                batch_size,
                ..pool_cfg(workers)
            };
            let r = run(g, &cfg).unwrap();
            assert_eq!(r.last_complete_epoch, Some(8), "{run_name}");
            // Every marker arrived: the consumer aligned on all eight.
            assert_eq!(r.actor(w).snapshots, 8, "{run_name}");
            let dropped = r.total_dropped();
            assert_eq!(r.total_dead_letters(), dropped, "{run_name}");
            assert!(
                r.dead_letters
                    .entries()
                    .iter()
                    .all(|d| d.reason == DeadLetterReason::SendTimeout),
                "{run_name}: {:?}",
                r.dead_letters.entries()
            );
            assert_eq!(
                r.actor(w).items_in + dropped,
                64,
                "{run_name}: conservation"
            );
        }
    }

    #[test]
    fn pool_batched_runs_match_unbatched_pool_one_counts() {
        // Same seeded graph on pool-1 at batch 1 (the reference) and on
        // pool-2 at batch 64: per-actor item counts are a pure function of
        // the routing RNG and must be identical.
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
        let unbatched = EngineConfig {
            batch_size: 1,
            ..pool_cfg(1)
        };
        let reference = run(build(), &unbatched).unwrap();
        let batched = EngineConfig {
            batch_size: 64,
            ..pool_cfg(2)
        };
        let pool = run(build(), &batched).unwrap();
        let counts = |r: &RunReport| {
            r.actors
                .iter()
                .map(|a| (a.items_in, a.items_out))
                .collect::<Vec<_>>()
        };
        assert_eq!(counts(&reference), counts(&pool));
        assert_eq!(reference.total_dropped(), 0);
        assert_eq!(pool.total_dropped(), 0);
    }
}
