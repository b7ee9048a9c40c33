//! Graph and tenant assembly: validates and ranks every tenant, builds
//! mailboxes and actors, runs them on one pool and gathers the reports.

use super::delivery::DeliveryCtx;
use super::pool::{worker_loop, PoolShared, TenantLedger, TENANT_POLL_BUDGET};
use super::source::run_source;
use super::validate;
use super::worker::{install_panic_silencer, panic_message, CkptState, WorkerTask};
use super::{EngineConfig, EngineError, TenantSpec};
use crate::affinity::pin_current_thread;
use crate::checkpoint::{CheckpointCoordinator, ReplayBuffer};
use crate::graph::{ActorSpec, Behavior, SourceConfig};
use crate::mailbox::{channel, channel_spsc, BatchPool, DepthProbe, Envelope, Sender};
use crate::metrics::{ActorMetrics, RunReport};
use crate::operator::Outputs;
use crate::reconfig::ReconfigTaskState;
use crate::rng::XorShift64;
use crate::route::RouteState;
use crate::supervision::DeadLetterLog;
use crate::telemetry::{
    HubActor, LatencyHistogram, RawCounters, TelemetryConfig, TelemetryHub, TelemetryReport,
    TraceEventKind,
};
use crate::ActorId;
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::{Arc, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// An actor's runnable state, built before anything starts running.
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
    telemetry: Option<TelemetryConfig>,
    prepared: Vec<(String, Prepared)>,
    metrics: Vec<Arc<ActorMetrics>>,
    probes: Arc<Vec<Option<DepthProbe>>>,
    hub: Option<Arc<TelemetryHub>>,
    coordinator: Option<Arc<CheckpointCoordinator>>,
}

/// One tenant's graph after validation, before its mailboxes and actors
/// are built.
struct CheckedTenant {
    weight: u64,
    telemetry: Option<TelemetryConfig>,
    in_degrees: Vec<usize>,
    actors: Vec<ActorSpec>,
    /// Unique destinations per actor (its EOS and marker fan-out).
    out_targets: Vec<Vec<usize>>,
}

/// Individual [`DeadLetter`] entries retained in each run report's log;
/// totals stay exact past the cap.
const DEAD_LETTER_CAPACITY: usize = 4096;

/// Tuples in each actor's bounded replay buffer, the input log replayed
/// after a restore. On overflow the buffer is invalidated until the next
/// completed snapshot, recovery degrades to a plain reset, and the
/// overflow is counted in the report.
const REPLAY_CAPACITY: usize = 8192;

/// The shared driver behind [`run`], [`run_with_telemetry`], and
/// [`run_tenants`]: prepares every tenant's graph, dispatches all of them
/// onto one worker pool at once, and assembles per-tenant reports.
pub(super) fn run_graphs(
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

    // Validate every graph before anything runs, and rank its actors.
    // Kahn's algorithm over each (acyclic) graph assigns every actor a
    // unique topological rank: each edge ends at a strictly higher rank.
    // Rank-filtered helping relies on this invariant, and stage sharding
    // maps rank bands onto the pinned workers so pipeline neighbours share
    // a cache domain.
    let mut checked: Vec<CheckedTenant> = Vec::with_capacity(tenants.len());
    let mut rank_all: Vec<usize> = Vec::new();
    let mut tenant_of: Vec<usize> = Vec::new();
    for (t, tenant) in tenants.into_iter().enumerate() {
        let TenantSpec {
            name,
            weight,
            graph,
            mut telemetry,
        } = tenant;
        if multi {
            // Default the telemetry tenant label so multi-tenant exports
            // are attributable without extra wiring.
            if let Some(tcfg) = &mut telemetry {
                if tcfg.tenant.is_none() {
                    tcfg.tenant = Some(name.clone());
                }
            }
        }
        let in_degrees = graph.in_degrees();
        let actors = graph.into_actors();
        validate(&actors)?;
        let n = actors.len();
        let out_targets: Vec<Vec<usize>> = actors
            .iter()
            .map(|spec| {
                let mut d: Vec<usize> = spec
                    .routes
                    .iter()
                    .flat_map(|r| r.destinations_iter())
                    .map(|d| d.0)
                    .collect();
                d.sort_unstable();
                d.dedup();
                d
            })
            .collect();
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
        rank_all.extend(rank);
        tenant_of.extend(std::iter::repeat_n(t, n));
        checked.push(CheckedTenant {
            weight,
            telemetry,
            in_degrees,
            actors,
            out_targets,
        });
    }

    // ONE pool for every tenant's worker actors. Single-tenant with
    // pinning on, the ready queue is sharded per worker by rank band:
    // worker `w` is pinned to `cores[w % len]` and drains its own band's
    // shard first, so a pipeline stage's producer/consumer pairs run on
    // the core owning their band. Unpinned, a single shard reproduces the
    // classic FIFO queue. Multi-tenant, shards are tenants and deficit
    // round-robin (weighted by [`TenantSpec::weight`]) decides service
    // order; each activation is budgeted to [`TENANT_POLL_BUDGET`] batches
    // so no tenant monopolizes a worker.
    let cores = config.pinning.cores.clone();
    let workers = config.resolved_pool_workers();
    // Per-tenant completion ledger: actor counts in, per-tenant finish
    // timestamps out, so a tenant's reported wall is its own
    // first-to-last-actor span.
    let tenant_counts: Vec<usize> = checked.iter().map(|c| c.actors.len()).collect();
    let ledger = Arc::new(TenantLedger::new(&tenant_counts, started_at));
    let (shards, quantum) = if multi {
        let weights: Vec<u64> = checked.iter().map(|c| c.weight.max(1)).collect();
        (checked.len(), Some(weights))
    } else if cores.is_empty() {
        (1, None)
    } else {
        (workers, None)
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

    let mut preps: Vec<TenantPrep> = Vec::with_capacity(checked.len());
    let mut base = 0usize;
    for tenant in checked {
        let CheckedTenant {
            telemetry,
            in_degrees,
            actors,
            out_targets,
            ..
        } = tenant;
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
        for (i, (spec, eos_targets)) in actors.into_iter().zip(out_targets).enumerate() {
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
                dead_letters: DeadLetterLog::with_capacity(DEAD_LETTER_CAPACITY),
                latency: hub.as_ref().and_then(|h| h.latency_of(i)),
                trace: hub.as_ref().map(|h| Arc::clone(&h.trace)),
                stamp: hub.is_some(),
                batch_size: config.batch_size.max(1),
                out_bufs,
                buf_pool: Arc::clone(&buf_pool),
                buffered: 0,
                cached_now_ns: 0,
                pending_sink_outs: 0,
                pending_lat_ns: 0,
                pending_lat_n: 0,
                pool: Arc::clone(&pool),
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
                                        replay: ReplayBuffer::new(REPLAY_CAPACITY),
                                        snapshot: None,
                                        snapshot_epoch: 0,
                                        align_started: None,
                                    })
                                }),
                                reconfig: reconfig_src.map(|h| {
                                    Box::new(ReconfigTaskState::new(Arc::clone(&h.shared)))
                                }),
                                poll_budget,
                            },
                        },
                    ));
                }
            }
        }
        // Drop the engine's own sender handles so disconnect detection can kick
        // in for actors with no upstream.
        drop(senders);

        preps.push(TenantPrep {
            base,
            n,
            telemetry,
            prepared,
            metrics,
            probes,
            hub,
            coordinator,
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
    // Sources keep dedicated threads (they pace wall-clock emission
    // schedules) and help run ready consumers inline when a send blocks;
    // ALL tenants' worker actors become [`PoolShared`] tasks multiplexed
    // over the one fixed set of worker threads.
    //
    // Every task is in its slot, with its wake hook, and counted in `live`
    // before the first source starts: a source that fills a mailbox helps
    // run its consumer at once, and a consumer claimed before its task was
    // stored would be finished unpolled and never woken again.
    let mut sources = Vec::new();
    let mut task_ids = Vec::new();
    for (t, prep) in preps.iter_mut().enumerate() {
        let prepared = std::mem::take(&mut prep.prepared);
        for (i, (name, pa)) in prepared.into_iter().enumerate() {
            let slot = prep.base + i;
            names[t][i] = name.clone();
            match pa {
                Prepared::Source { cfg, ctx } => sources.push((t, i, name, cfg, ctx)),
                Prepared::Worker { task } => {
                    // The mailbox wakes the pool on every push burst and on
                    // final-sender drop, so this consumer gets scheduled
                    // even while its producers are blocked mid-send.
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
    let mut source_handles = Vec::with_capacity(sources.len());
    for (n, (t, i, name, cfg, ctx)) in sources.into_iter().enumerate() {
        // Sources are pinned round-robin: they sleep on their pace
        // schedules, so spreading them evenly matters more than band
        // placement.
        let pin_to = (!cores.is_empty()).then(|| cores[n % cores.len()]);
        let ledger = Arc::clone(&ledger);
        let handle = thread::Builder::new()
            .name(format!("ss-{}-{name}", preps[t].base + i))
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
    // Initial sweep: every task polls at least once, covering zero-upstream
    // actors.
    for &slot in &task_ids {
        pool.wake(slot);
    }
    let mut pool_handles = Vec::with_capacity(workers);
    for w in 0..workers {
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
    // Join every thread before returning — even after a failure — so no
    // actor outlives the run.
    for (t, i, handle) in source_handles {
        match handle.join() {
            Ok(log) => tenant_logs[t].push((i, log)),
            Err(payload) => failures.push((preps[t].base + i, panic_message(payload.as_ref()))),
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
    // The failure with the lowest global slot wins, reported under its
    // tenant-local actor id.
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
        let mut dead_letters = DeadLetterLog::with_capacity(DEAD_LETTER_CAPACITY);
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
    use crate::engine::tests::{fast_cfg, tenant_pipeline};
    use crate::engine::*;
    use crate::operators::PassThrough;
    use crate::{Behavior, Route, SourceConfig};
    use spinstreams_core::Tuple;

    #[test]
    fn pinned_pipeline_delivers_all_items() {
        // Pinning must never change results — on this machine the cores
        // may not even exist, in which case it degrades to a warn-once
        // no-op and the run proceeds unpinned.
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
            executor: ExecutorKind::Pool { workers: 2 },
            batch_size: 8,
            pinning: crate::affinity::PinningConfig::on_cores(vec![0, 1]),
            ..fast_cfg()
        };
        let r = run(g, &cfg).unwrap();
        assert_eq!(r.actor(b).items_in, 400);
        assert_eq!(r.total_dropped(), 0);
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
