//! Source actors: burst emission on a paced or unpaced schedule, and
//! epoch-marker injection.

use super::delivery::DeliveryCtx;
use crate::graph::SourceConfig;
use crate::operator::DEFAULT_PORT;
use crate::rng::XorShift64;
use crate::supervision::DeadLetterLog;
use crate::telemetry::TraceEventKind;
use spinstreams_core::{Tuple, TUPLE_ARITY};
use std::thread;
use std::time::{Duration, Instant};

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
/// sleeps only when none is, handing over everything it holds first; so
/// its batches hold the emissions due per wake-up, up to `batch_size`.
/// Inside a burst there is no clock read and no sleep check.
pub(super) fn run_source(cfg: SourceConfig, mut ctx: DeliveryCtx) -> DeadLetterLog {
    ctx.trace_event(TraceEventKind::ActorStarted);
    let mut rng = XorShift64::new(cfg.seed);
    let period = cfg.period().expect("validated source rate");
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
                // Nothing is due: hand over everything held before sleeping,
                // so a coalesced tuple never waits out a sleep.
                ctx.flush_all();
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
                ctx.broadcast_marker(epoch);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::{fast_cfg, pool_cfg, EveryTenth};
    use crate::engine::*;
    use crate::operators::PassThrough;
    use crate::{Behavior, Route, SourceConfig};

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
            (
                "threads, batch 1",
                EngineConfig {
                    batch_size: 1,
                    ..fast_cfg()
                },
            ),
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
    fn paced_source_hands_over_its_batch_before_sleeping() {
        // 5 k/s is one tuple per 200 µs, far below a 64-tuple batch: the
        // source sleeps between emissions, so each tuple must leave before
        // that sleep instead of waiting for the batch to fill.
        let mut g = ActorGraph::new();
        let s = g.add_actor("src", Behavior::Source(SourceConfig::new(5_000.0, 250)));
        let k = g.add_actor("sink", Behavior::worker(PassThrough));
        g.connect(s, Route::Unicast(k));
        let cfg = EngineConfig {
            executor: ExecutorKind::Pool { workers: 1 },
            batch_size: 64,
            ..fast_cfg()
        };
        let (r, tel) = run_with_telemetry(g, &cfg, &TelemetryConfig::default()).unwrap();
        assert_eq!(r.actor(k).items_in, 250);
        let lat = &tel.snapshots.last().unwrap().latencies[0].latency;
        assert_eq!(lat.count, 250);
        assert!(
            lat.p50_ns < 200_000,
            "sink p50 latency {} ns; tuples waited in the source's batch",
            lat.p50_ns
        );
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
        for (label, cfg) in [("pool-1", pool_cfg(1)), ("pool-2", pool_cfg(2))] {
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
}
