//! The execution engine: bounded BAS mailboxes, run-to-completion with
//! end-of-stream propagation, and per-actor supervision of panicking
//! operators (see [`crate::supervision`]).
//!
//! One wall-clock executor runs every graph (see [`ExecutorKind`]): a
//! fixed-size cooperative worker pool that multiplexes ready actors over a
//! handful of OS threads — the SS2Akka decoupling of logical operators from
//! runtime executors (§4), which keeps fission-inflated graphs from
//! oversubscribing cores. The §5.1 assumption of one dedicated thread per
//! actor is modelled by the discrete-event simulator ([`crate::simulate`]).

mod assemble;
mod delivery;
mod pool;
mod source;
mod validate;
mod worker;

use crate::affinity::PinningConfig;
use crate::graph::ActorGraph;
use crate::metrics::RunReport;
use crate::telemetry::{TelemetryConfig, TelemetryReport};
use crate::ActorId;
use assemble::run_graphs;
use std::fmt;
use std::thread;
use std::time::Duration;
pub(crate) use validate::validate;

/// How the wall-clock executor runs the actor graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutorKind {
    /// A fixed-size cooperative worker pool: sources keep dedicated
    /// threads (they pace wall-clock emission schedules), while worker
    /// actors are multiplexed over `workers` OS threads with a
    /// run-until-blocked scheduling loop. Post-fission graphs with dozens
    /// of actors then run on a handful of cores without context-switch
    /// thrash.
    Pool {
        /// Worker thread count; `0` (the default) means one per core — see
        /// [`EngineConfig::resolved_pool_workers`].
        workers: usize,
    },
}

impl ExecutorKind {
    /// Resolves the configured worker count (`0` → available
    /// parallelism).
    pub fn pool_workers(self) -> usize {
        match self {
            ExecutorKind::Pool { workers: 0 } => thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            ExecutorKind::Pool { workers } => workers,
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
    ///
    /// The contract is *deadline first*: an envelope is dropped (and
    /// dead-lettered as [`crate::DeadLetterReason::SendTimeout`]) if its window
    /// has elapsed when its sender next looks — whether the sender was
    /// parked, descheduled by the host, or helping run other actors. The
    /// window opens when a send finds the destination full and restarts
    /// only when an envelope is delivered. Whether an envelope is dropped
    /// therefore depends on the clock alone, not on how late the host
    /// wakes the sender.
    pub send_timeout: Duration,
    /// Base RNG seed; actor `i` uses `seed + i` so runs are reproducible.
    pub seed: u64,
    /// Envelopes coalesced per destination before a mailbox handoff.
    ///
    /// The default cap of 64 amortizes one mailbox handoff and wake-up
    /// over the whole batch; on the pipeline sweep it ran ~4.5x faster
    /// than one envelope per send. `1` is the classic
    /// one-envelope-per-send path. Values of `0` are treated as `1`.
    ///
    /// The value is the cap, not a target: workers flush after every
    /// drained input batch, and a paced source hands over what it holds
    /// before every sleep, so a slow stream's batches size themselves to
    /// the emissions due per wake-up.
    pub batch_size: usize,
    /// The worker pool's size (one worker per core by default).
    pub executor: ExecutorKind,
    /// Epoch-aligned checkpointing: every source injects a numbered epoch
    /// marker after each `n` emitted items, workers align on the markers
    /// (Chandy–Lamport-style barriers), snapshot their operator state via
    /// [`crate::StreamOperator::snapshot`], and ack a shared
    /// [`crate::CheckpointCoordinator`]. On a supervised `Restart` the actor then
    /// recovers by restoring its last snapshot and replaying the logged
    /// post-snapshot input, instead of resetting to empty. `None` (the
    /// default, also `Some(0)`) disables the whole layer — the hot path is
    /// unchanged.
    pub checkpoint_interval: Option<u64>,
    /// CPU affinity for the engine's threads (disabled by default).
    ///
    /// When a core list is given, actors are *sharded by topological
    /// stage*: every actor's Kahn rank is mapped onto a contiguous band of
    /// the ready queue's per-worker shards, so pipeline neighbours run on
    /// the same core and a stage's working set stays in one cache domain.
    /// Worker `w` is pinned to `cores[w % len]` and drains its own shard
    /// first, then steals; source threads are pinned round-robin. On
    /// platforms without affinity support pinning degrades to a warn-once
    /// no-op and the run proceeds unpinned.
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
            batch_size: 64,
            executor: ExecutorKind::Pool { workers: 0 },
            checkpoint_interval: None,
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
    pub fn resolved_pool_workers(&self) -> usize {
        match self.executor {
            ExecutorKind::Pool { workers: 0 } if !self.pinning.cores.is_empty() => {
                self.pinning.cores.len()
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
    /// A source's configuration cannot be run (for example a rate that is
    /// NaN, not positive, or too small to give a schedulable period).
    InvalidSource {
        /// The source actor.
        actor: ActorId,
        /// Description of the problem.
        reason: String,
    },
    /// An actor died in a way supervision could not contain (for example
    /// a panic inside a restart hook). [`run`] reports this instead of
    /// panicking the caller.
    ActorFailed {
        /// The actor that died.
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
            EngineError::InvalidSource { actor, reason } => {
                write!(f, "invalid source {actor}: {reason}")
            }
            EngineError::ActorFailed { actor, reason } => {
                write!(f, "{actor} failed: {reason}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// Executes the actor graph to completion and reports measured metrics.
///
/// Every source runs on a dedicated thread; worker actors are multiplexed
/// over the configured worker pool ([`ExecutorKind::Pool`]). The run ends
/// when all sources have produced their configured item counts and the
/// end-of-stream markers have drained through the graph.
///
/// Worker actors are supervised: a panicking operator is caught and
/// handled per the actor's [`crate::SupervisorSpec`] (resume, restart with
/// backoff, or stop into degraded mode), and every undelivered item is
/// recorded in the report's [`crate::DeadLetterLog`]. `run` itself never panics
/// on operator failure.
///
/// # Errors
///
/// Returns an [`EngineError`] if the graph fails validation, or
/// [`EngineError::ActorFailed`] if an actor dies in a way supervision
/// could not contain. A successfully validated graph always
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
/// engine — and ONE worker pool — with the other tenants submitted alongside it in the same [`run_tenants`] call.
pub struct TenantSpec {
    /// Tenant label, used in telemetry exports and the returned
    /// [`TenantRun`]. Not required to be unique, but unique names make
    /// per-tenant exports distinguishable.
    pub name: String,
    /// Weighted-fair share of the worker pool: the tenant's deficit
    /// round-robin quantum, in task activations (each activation bounded
    /// to a fixed number of drained batches). Clamped to ≥ 1; tenants
    /// with equal weights get equal service when backlogged.
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
/// All tenants' worker actors are multiplexed over ONE fixed-size worker
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::Outputs;
    use crate::operators::{FnOperator, PassThrough, Spin};
    use crate::telemetry::TraceEventKind;
    use crate::{Behavior, Route, SourceConfig};
    use spinstreams_core::Tuple;

    pub(super) fn fast_cfg() -> EngineConfig {
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
        // The Spin stage costs 50 µs alone, so every latency exceeds that.
        // Checked on the exact mean: the interpolated p50 of a run whose
        // latencies all share the [32.8, 65.5) µs bucket reads below 50 µs.
        assert!(
            last.latencies[0].latency.mean_ns >= 50_000,
            "mean {}",
            last.latencies[0].latency.mean_ns
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

    pub(super) fn pool_cfg(workers: usize) -> EngineConfig {
        EngineConfig {
            executor: ExecutorKind::Pool { workers },
            ..fast_cfg()
        }
    }

    #[test]
    fn pool_workers_resolution() {
        assert_eq!(ExecutorKind::Pool { workers: 3 }.pool_workers(), 3);
        let auto = ExecutorKind::Pool { workers: 0 }.pool_workers();
        assert!(auto >= 1, "auto-resolved worker count must be positive");
        assert_eq!(
            EngineConfig::default().executor,
            ExecutorKind::Pool { workers: 0 }
        );
    }

    /// Emits every 10th input it has ever seen — a minimal stateful
    /// operator whose output count is a pure function of its counter, so
    /// any state loss across a restart shifts the sink count.
    pub(super) struct EveryTenth {
        pub(super) count: u64,
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

    /// A seeded three-stage pipeline for tenancy tests; `items` varies per
    /// tenant so cross-tenant mixups change counts.
    pub(super) fn tenant_pipeline(items: u64) -> ActorGraph {
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
    fn tenants_match_solo_counts_at_every_pool_size() {
        let items = [300u64, 450, 600];
        for executor in [
            ExecutorKind::Pool { workers: 1 },
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
        assert_eq!(cfg.resolved_pool_workers(), 3);
        // Unpinned 0 falls back to machine parallelism.
        cfg.pinning = crate::affinity::PinningConfig::default();
        assert_eq!(
            cfg.resolved_pool_workers(),
            ExecutorKind::Pool { workers: 0 }.pool_workers()
        );
        // Explicit counts are never overridden by pinning.
        cfg.executor = ExecutorKind::Pool { workers: 5 };
        cfg.pinning = crate::affinity::PinningConfig::on_cores(vec![0, 1]);
        assert_eq!(cfg.resolved_pool_workers(), 5);
    }
}
