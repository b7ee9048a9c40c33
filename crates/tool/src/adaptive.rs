//! The live adaptive re-optimization harness behind `spinstreams run
//! --adaptive`: closes the control loop end to end.
//!
//! The static pipeline (Algorithms 1–3) runs once up front to pick the
//! initial deployment; the graph is then built with every scalable
//! operator *pre-provisioned* to the controller's replica budget (spare
//! slots wired but idle — see `CodegenOptions::provision`), checkpointing
//! on, and a [`ReconfigHandle`] installed. Every telemetry snapshot drives
//! one [`AdaptiveController::tick`] on **windowed** counters; when the
//! controller emits a [`PlanChange`], this module translates it into
//! [`ReconfigOp`]s — a route swap per rescaled operator, plus
//! pause–drain–resume [`KeyHandoff`]s for partitioned-stateful state —
//! and posts them to the running engine *without stopping the stream*.
//!
//! ```text
//!   telemetry snapshot ──▶ windowed OperatorCounters
//!                                   │
//!                                   ▼
//!                    AdaptiveController::tick (analysis)
//!                                   │ Some(PlanChange)?
//!                                   ▼
//!          route diff + key-assignment diff (this module)
//!                                   │
//!                                   ▼
//!        ReconfigHandle::post(SwapRoute { handoffs, … })
//!                                   │ applied at an epoch barrier
//!                                   ▼
//!               live graph morphs; drift baseline rebases
//! ```

use crate::harness::HarnessError;
use spinstreams_analysis::{
    apply_replica_bound, eliminate_bottlenecks, key_partitioning, AdaptiveConfig,
    AdaptiveController, OperatorCounters, PlanChange,
};
use spinstreams_codegen::{build_actor_graph, CodegenOptions, GeneratedPlan};
use spinstreams_core::{KeyDistribution, StateClass, Topology, Tuple, TUPLE_ARITY};
use spinstreams_runtime::operators::{FaultConfig, FaultInjector};
use spinstreams_runtime::{
    run_with_telemetry, ActorId, Backoff, EngineConfig, KeyHandoff, Outputs, ReconfigHandle,
    ReconfigOp, Route, RunReport, StateSnapshot, StreamOperator, SupervisorSpec, TelemetryConfig,
    TelemetryReport, TelemetrySnapshot,
};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// A fault targeted at one operator of an adaptive run — the chaos lever
/// the oracle uses to shift the workload mid-stream and to race a
/// migration against a supervised restart.
#[derive(Debug, Clone, Default)]
pub struct OperatorFault {
    /// Name of the operator whose deployed actors get wrapped in a
    /// [`FaultInjector`].
    pub operator: String,
    /// `(tuples, extra_ns)`: after processing `tuples` items, every
    /// subsequent item costs `extra_ns` additional busy time — a
    /// persistent service-time shift the controller should detect.
    pub slow_after: Option<(u64, u64)>,
    /// Panic once on the n-th processed tuple (per wrapped actor);
    /// supervision restarts and recovers the actor.
    pub crash_after_tuples: Option<u64>,
}

/// Configuration of one adaptive run.
#[derive(Debug, Clone)]
pub struct AdaptiveRunConfig {
    /// Number of items the source generates.
    pub items: u64,
    /// The control-loop knobs (drift threshold, cooldown, hysteresis,
    /// replica budget, sample floor). `controller.max_replicas` doubles as
    /// the per-operator slot provision.
    pub controller: AdaptiveConfig,
    /// Telemetry sampling interval — the controller's tick period.
    pub telemetry_interval: Duration,
    /// Trailing snapshots per profiling window: counters fed to the
    /// controller are deltas over the last `window_ticks` intervals, so a
    /// mid-run shift is not diluted by the entire history.
    pub window_ticks: usize,
    /// Faults to inject (empty = clean run).
    pub faults: Vec<OperatorFault>,
    /// Record every tuple the topology's sink operators process into
    /// [`AdaptiveOutcome::sink_tuples`] — the oracle adaptation layer's
    /// evidence for the exactly-once / per-key-aggregate comparison.
    /// Costs a mutex lock per sink tuple; leave off outside oracle runs.
    pub capture_sink: bool,
    /// The engine the run deploys on; its seed also seeds codegen and the
    /// fault schedules. `checkpoint_interval` is required: migrations
    /// apply at epoch barriers. The run installs its own reconfiguration
    /// handle.
    pub engine: EngineConfig,
}

impl Default for AdaptiveRunConfig {
    fn default() -> Self {
        AdaptiveRunConfig {
            items: 50_000,
            controller: AdaptiveConfig::default(),
            telemetry_interval: Duration::from_millis(20),
            window_ticks: 4,
            faults: Vec::new(),
            capture_sink: false,
            engine: EngineConfig {
                seed: 0xADA9,
                checkpoint_interval: Some(500),
                ..EngineConfig::default()
            },
        }
    }
}

/// Everything one adaptive run produces.
#[derive(Debug)]
pub struct AdaptiveOutcome {
    /// The engine's run report (per-actor counters, supervision, dead
    /// letters, checkpoint totals).
    pub run: RunReport,
    /// The telemetry report (snapshots, trace events — including
    /// `reconfigured` and `state-migrated`).
    pub telemetry: TelemetryReport,
    /// The static plan the run started with (degree per operator).
    pub initial_replicas: Vec<usize>,
    /// The degrees after the last migration (== initial when none fired).
    pub final_replicas: Vec<usize>,
    /// Every plan change the controller emitted, in order.
    pub changes: Vec<PlanChange>,
    /// The telemetry tick at which each change was posted.
    pub change_ticks: Vec<u64>,
    /// Route-swap ops posted to the engine.
    pub swaps_posted: u64,
    /// Route swaps fully applied (pause buffers released) by shutdown.
    pub swaps_applied: u64,
    /// Key-state handoffs merged into their new owners by shutdown.
    pub handoffs_migrated: u64,
    /// Controller ticks consumed.
    pub ticks: u64,
    /// Silent drift-baseline rebases (drift without a better plan).
    pub rebases: u64,
    /// Total items that arrived at the topology's sinks.
    pub sink_arrivals: u64,
    /// Measured items/s over the post-migration tail of the run (from the
    /// first snapshot at least two ticks after the last change to the last
    /// snapshot), or `None` when no change fired or the tail is too short
    /// to measure. The §5.2 acceptance reference is
    /// `changes.last().predicted_throughput`.
    pub post_change_throughput: Option<f64>,
    /// Timestamp-free projection `(key, seq, values)` of every tuple the
    /// sink operators processed, in per-sink arrival order. Empty unless
    /// [`AdaptiveRunConfig::capture_sink`] was set.
    pub sink_tuples: Vec<(u64, u64, [f64; TUPLE_ARITY])>,
}

/// Shared store behind [`CaptureTap`].
type Captured = Arc<Mutex<Vec<(u64, u64, [f64; TUPLE_ARITY])>>>;

/// Transparent recording wrapper around a sink operator: records each
/// incoming tuple's timestamp-free projection, then delegates. Every state
/// hook forwards to the inner operator so supervision restarts and live
/// key handoffs behave exactly as they would unwrapped.
struct CaptureTap {
    inner: Box<dyn StreamOperator>,
    store: Captured,
}

impl StreamOperator for CaptureTap {
    fn process(&mut self, item: Tuple, out: &mut Outputs) {
        self.store
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push((item.key, item.seq, item.values));
        self.inner.process(item, out);
    }
    fn flush(&mut self, out: &mut Outputs) {
        self.inner.flush(out);
    }
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn reset(&mut self) {
        self.inner.reset();
    }
    fn snapshot(&mut self) -> Option<StateSnapshot> {
        self.inner.snapshot()
    }
    fn restore(&mut self, snapshot: &StateSnapshot) -> bool {
        self.inner.restore(snapshot)
    }
    fn extract_keys(&mut self, keys: &[u64]) -> Option<StateSnapshot> {
        self.inner.extract_keys(keys)
    }
    fn inject_state(&mut self, snapshot: &StateSnapshot) -> bool {
        self.inner.inject_state(snapshot)
    }
}

/// Mutable state shared between the telemetry hook and the finished run.
struct LoopState {
    controller: AdaptiveController,
    /// The deployment (its graph handed to the engine): the counter map
    /// and each operator's emitter and replica slots.
    plan: GeneratedPlan,
    /// Whether each operator holds partitioned key state.
    partitioned: Vec<bool>,
    /// Ring of cumulative per-operator counters, newest last; deltas over
    /// the ring are the profiling window.
    history: VecDeque<Vec<OperatorCounters>>,
    /// Current key→slot assignment per operator (`None` for operators
    /// without key state).
    owners: Vec<Option<Vec<usize>>>,
    next_handoff: u64,
    changes: Vec<PlanChange>,
    change_ticks: Vec<u64>,
    swaps_posted: u64,
}

/// Translates one [`PlanChange`] into the `ReconfigOp`s that morph the
/// running graph, updating the tracked key assignments as it goes.
fn translate_change(
    st: &mut LoopState,
    change: &PlanChange,
    at_epoch: u64,
) -> Vec<(usize, ReconfigOp)> {
    let mut ops = Vec::new();
    for i in 0..change.replicas.len() {
        if change.replicas[i] == change.old_replicas[i] {
            continue;
        }
        let Some(emitter) = st.plan.emitter_actor[i] else {
            // Plain single-actor deployment (source/stateful): nothing to
            // rescale. Algorithm 2 never changes these degrees anyway.
            continue;
        };
        let slots = &st.plan.replica_slots[i];
        let (route, pause_keys, handoffs) = if st.partitioned[i] {
            // New owner map: from the plan's assignment, or all-on-slot-0
            // when the new degree is 1 (the controller only attaches
            // assignments for degrees > 1).
            let old = st.owners[i].take().unwrap_or_default();
            let (new_owner, active) = match &change.assignments[i] {
                Some(assign) => (assign.owner.clone(), assign.replicas),
                None => (vec![0; old.len()], 1),
            };
            let mut groups: BTreeMap<(usize, usize), Vec<u64>> = BTreeMap::new();
            for (k, (&o, &w)) in old.iter().zip(&new_owner).enumerate() {
                if o != w {
                    groups.entry((o, w)).or_default().push(k as u64);
                }
            }
            let pause: Vec<u64> = groups.values().flatten().copied().collect();
            let handoffs: Vec<KeyHandoff> = groups
                .into_iter()
                .map(|((from, to), keys)| {
                    st.next_handoff += 1;
                    KeyHandoff {
                        id: st.next_handoff,
                        from: slots[from].0,
                        to: slots[to].0,
                        keys,
                    }
                })
                .collect();
            let route = if active == 1 {
                Route::Unicast(slots[0])
            } else {
                Route::KeyMap {
                    key_map: new_owner.clone(),
                    destinations: slots[..active].to_vec(),
                }
            };
            st.owners[i] = Some(new_owner);
            (route, pause, handoffs)
        } else {
            // Stateless rescale: replicas are interchangeable, so the swap
            // is a pure route replacement — no pause, no handoffs.
            let n = change.replicas[i];
            let route = if n == 1 {
                Route::Unicast(slots[0])
            } else {
                Route::RoundRobin(slots[..n].to_vec())
            };
            (route, Vec::new(), Vec::new())
        };
        ops.push((
            emitter.0,
            ReconfigOp::SwapRoute {
                port: 0,
                route,
                at_epoch,
                pause_keys,
                handoffs,
            },
        ));
    }
    ops
}

/// Runs `topo` with the adaptive control loop closed: static plan first,
/// live re-profiling every telemetry tick, and in-flight migration when
/// the re-optimized plan beats the running one.
///
/// # Errors
///
/// Propagates codegen and engine failures; rejects an engine without
/// checkpointing (migrations need epoch barriers) with
/// [`HarnessError::Measurement`].
pub fn run_adaptive(
    topo: &Topology,
    source_keys: Option<KeyDistribution>,
    cfg: &AdaptiveRunConfig,
) -> Result<AdaptiveOutcome, HarnessError> {
    if cfg.engine.checkpoint_interval.unwrap_or(0) == 0 {
        return Err(HarnessError::Measurement {
            reason: "adaptive runs need epoch barriers to migrate against: set a checkpoint \
                     interval (--checkpoint N or <settings checkpoint-interval=\"N\"/>)"
                .into(),
        });
    }
    // The static §3 pipeline picks the starting plan.
    let fission = eliminate_bottlenecks(topo);
    let initial = apply_replica_bound(&fission, cfg.controller.max_replicas);

    // Pre-provision every scalable operator to the replica budget so a
    // future re-scale is a route swap, never graph surgery.
    let provision: Vec<usize> = topo
        .operators()
        .iter()
        .enumerate()
        .map(|(i, op)| {
            if i == topo.source().0 || op.state.is_stateful() {
                initial[i]
            } else {
                cfg.controller.max_replicas.max(initial[i])
            }
        })
        .collect();
    let opts = CodegenOptions {
        items: cfg.items,
        seed: cfg.engine.seed,
        provision,
    };
    let mut plan = build_actor_graph(topo, source_keys, &initial, &[], &opts)?;
    let mut graph = std::mem::take(&mut plan.graph);

    // Initial key→slot maps, mirroring exactly what codegen deployed.
    let owners: Vec<Option<Vec<usize>>> = topo
        .operators()
        .iter()
        .enumerate()
        .map(|(i, op)| match &op.state {
            StateClass::PartitionedStateful { keys } if initial[i] > 1 => {
                Some(key_partitioning(keys, initial[i]).owner)
            }
            StateClass::PartitionedStateful { keys } => Some(vec![0; keys.frequencies().len()]),
            _ => None,
        })
        .collect();

    // Every actor that runs an operator's code: its replica slots, or its
    // one actor.
    let service_actors = |op: usize| -> Vec<ActorId> {
        match plan.replica_slots[op].as_slice() {
            [] => vec![plan.input_actor[op]],
            slots => slots.to_vec(),
        }
    };
    if !cfg.faults.is_empty() {
        let mut by_actor: HashMap<usize, OperatorFault> = HashMap::new();
        for f in &cfg.faults {
            let Some(op) = topo.operators().iter().position(|s| s.name == f.operator) else {
                return Err(HarnessError::Measurement {
                    reason: format!("fault targets unknown operator {:?}", f.operator),
                });
            };
            for a in service_actors(op) {
                by_actor.insert(a.0, f.clone());
            }
        }
        let seed = cfg.engine.seed;
        graph.map_workers(|id, op| match by_actor.get(&id.0) {
            Some(f) => {
                let mut fault = FaultConfig::panics(
                    0.0,
                    seed ^ (id.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                );
                fault.crash_after_tuples = f.crash_after_tuples;
                if let Some((tuples, extra_ns)) = f.slow_after {
                    fault = fault.with_slowdown_after(tuples, extra_ns);
                }
                Box::new(FaultInjector::new(op, fault))
            }
            None => op,
        });
        graph.set_supervision_all(&SupervisorSpec::restart(u32::MAX, Backoff::none()));
    }

    // Optional sink tap (the oracle adaptation layer's evidence): wrap
    // every sink operator's deployed actors in a recording pass-through.
    // Applied after fault wrapping so a faulted sink's capture still sees
    // exactly the tuples the sink logically processed.
    let captured: Captured = Captured::default();
    if cfg.capture_sink {
        let sink_actors: HashSet<usize> = topo
            .operator_ids()
            .filter(|id| topo.out_edges(*id).is_empty())
            .flat_map(|id| service_actors(id.0).into_iter().map(|a| a.0))
            .collect();
        let store = Arc::clone(&captured);
        graph.map_workers(|id, op| {
            if sink_actors.contains(&id.0) {
                Box::new(CaptureTap {
                    inner: op,
                    store: Arc::clone(&store),
                })
            } else {
                op
            }
        });
    }

    let handle = ReconfigHandle::new();
    let engine = EngineConfig {
        reconfig: Some(handle.clone()),
        ..cfg.engine.clone()
    };

    let sink_inputs: Vec<usize> = topo
        .sinks()
        .iter()
        .map(|s| plan.input_actor[s.0].0)
        .collect();
    let state = Arc::new(Mutex::new(LoopState {
        controller: AdaptiveController::new(topo, initial.clone(), cfg.controller.clone()),
        plan,
        partitioned: topo
            .operators()
            .iter()
            .map(|op| op.state.is_partitioned())
            .collect(),
        history: VecDeque::new(),
        owners,
        next_handoff: 0,
        changes: Vec::new(),
        change_ticks: Vec::new(),
        swaps_posted: 0,
    }));

    let window = cfg.window_ticks.max(1);
    let hook_state = Arc::clone(&state);
    let hook_handle = handle.clone();
    let telemetry = TelemetryConfig::default()
        .with_interval(cfg.telemetry_interval)
        .with_on_snapshot(move |snap: &TelemetrySnapshot| {
            let mut st = hook_state.lock().unwrap_or_else(PoisonError::into_inner);
            let row = st.plan.operator_counters(snap);
            st.history.push_back(row);
            while st.history.len() > window + 1 {
                st.history.pop_front();
            }
            if st.history.len() < 2 {
                return;
            }
            let (oldest, newest) = (&st.history[0], &st.history[st.history.len() - 1]);
            let counters: Vec<OperatorCounters> = newest
                .iter()
                .zip(oldest)
                .map(|(w, o)| OperatorCounters {
                    items_in: w.items_in.saturating_sub(o.items_in),
                    items_out: w.items_out.saturating_sub(o.items_out),
                    busy_ns: w.busy_ns.zip(o.busy_ns).map(|(w, o)| w.saturating_sub(o)),
                })
                .collect();
            let Some(change) = st.controller.tick(&counters) else {
                return;
            };
            // Target the second barrier after the last completed epoch:
            // far enough out that every actor still meets it, and a late
            // post is still applied at the next alignment.
            let at_epoch = snap.last_complete_epoch.unwrap_or(0) + 2;
            let ops = translate_change(&mut st, &change, at_epoch);
            st.swaps_posted += ops.len() as u64;
            st.change_ticks.push(snap.tick);
            st.changes.push(change);
            if !ops.is_empty() {
                hook_handle.post(ops);
            }
        });

    let (run, telemetry) = run_with_telemetry(graph, &engine, &telemetry)?;

    // The sampler thread has joined; the hook can no longer fire. (The
    // telemetry config still holds a reference to the state Arc, so drain
    // through the mutex rather than unwrapping the Arc.)
    let mut guard = state.lock().unwrap_or_else(PoisonError::into_inner);
    let st = &mut *guard;

    let sink_arrival = |snap_actors: &dyn Fn(usize) -> u64| -> u64 {
        sink_inputs.iter().map(|&a| snap_actors(a)).sum()
    };
    let sink_arrivals = sink_arrival(&|a| run.actor(ActorId(a)).items_in);

    // Post-migration tail: measured items/s from two ticks after the last
    // change to the end of the run.
    let post_change_throughput = st.change_ticks.last().and_then(|&tick| {
        let settled: Vec<&TelemetrySnapshot> = telemetry
            .snapshots
            .iter()
            .filter(|s| s.tick >= tick + 2)
            .collect();
        let (first, last) = (settled.first()?, settled.last()?);
        let dt = last.t_ns.saturating_sub(first.t_ns);
        if dt == 0 {
            return None;
        }
        let arrived = sink_arrival(&|a| last.actors[a].items_in)
            .saturating_sub(sink_arrival(&|a| first.actors[a].items_in));
        Some(arrived as f64 * 1e9 / dt as f64)
    });

    let sink_tuples = std::mem::take(&mut *captured.lock().unwrap_or_else(PoisonError::into_inner));

    Ok(AdaptiveOutcome {
        initial_replicas: initial,
        final_replicas: st.controller.current_replicas().to_vec(),
        ticks: st.controller.ticks(),
        rebases: st.controller.rebases(),
        changes: std::mem::take(&mut st.changes),
        change_ticks: std::mem::take(&mut st.change_ticks),
        swaps_posted: st.swaps_posted,
        swaps_applied: handle.applied(),
        handoffs_migrated: handle.migrated(),
        sink_arrivals,
        post_change_throughput,
        sink_tuples,
        run,
        telemetry,
    })
}

/// Plain-text rendering of an adaptive run, in the style of the other CLI
/// tables.
pub fn adaptive_table(path: &str, cfg: &AdaptiveRunConfig, outcome: &AdaptiveOutcome) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "adaptive run of {path}: {} items, {} ticks, drift threshold {:.2}, \
         cooldown {}, hysteresis {:.2}, replica budget {}",
        cfg.items,
        outcome.ticks,
        cfg.controller.drift.threshold,
        cfg.controller.cooldown_ticks,
        cfg.controller.hysteresis,
        cfg.controller.max_replicas,
    );
    let _ = writeln!(
        s,
        "plan: {:?} -> {:?} ({} change(s), {} rebase(s))",
        outcome.initial_replicas,
        outcome.final_replicas,
        outcome.changes.len(),
        outcome.rebases,
    );
    for (change, tick) in outcome.changes.iter().zip(&outcome.change_ticks) {
        let _ = writeln!(
            s,
            "  tick {tick}: {:?} -> {:?}, predicted {:.0} -> {:.0} items/s, stale: {}",
            change.old_replicas,
            change.replicas,
            change.old_predicted_throughput,
            change.predicted_throughput,
            change.stale.join(", "),
        );
    }
    let _ = writeln!(
        s,
        "migration: {} swap(s) posted, {} applied, {} key handoff(s) merged",
        outcome.swaps_posted, outcome.swaps_applied, outcome.handoffs_migrated,
    );
    let _ = writeln!(
        s,
        "sink arrivals: {} of {}",
        outcome.sink_arrivals, cfg.items
    );
    match (outcome.post_change_throughput, outcome.changes.last()) {
        (Some(measured), Some(change)) => {
            let _ = writeln!(
                s,
                "post-migration throughput: measured {measured:.0} vs predicted {:.0} items/s",
                change.predicted_throughput,
            );
        }
        (None, Some(_)) => {
            let _ = writeln!(
                s,
                "post-migration throughput: n/a (tail after the last change too short to measure)"
            );
        }
        _ => {
            let _ = writeln!(s, "post-migration throughput: n/a (no migration fired)");
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use spinstreams_analysis::DriftConfig;
    use spinstreams_core::{OperatorSpec, ServiceTime};

    /// src -> worker -> sink, calibrated so the whole pipeline fits in
    /// well under one core (CI machines may have a single CPU): 4 k/s
    /// source, 50 us + 25 us of spin work per item. Keeping total CPU
    /// demand low keeps the engine's measured busy time close to the
    /// declared service times, so a clean run stays under the drift
    /// threshold; the fault injector makes the live worker ~7x slower
    /// mid-run, which is far over it.
    fn pipeline() -> Topology {
        let mut b = Topology::builder();
        let s = b.add_operator(
            OperatorSpec::source("src", ServiceTime::from_micros(250.0)).with_kind("source"),
        );
        let w = b.add_operator(
            OperatorSpec::stateless("worker", ServiceTime::from_micros(50.0))
                .with_kind("identity-map")
                .with_param("work_ns", 50_000.0),
        );
        let k = b.add_operator(
            OperatorSpec::stateless("sink", ServiceTime::from_micros(25.0))
                .with_kind("identity-map")
                .with_param("work_ns", 25_000.0),
        );
        b.add_edge(s, w, 1.0).unwrap();
        b.add_edge(w, k, 1.0).unwrap();
        b.build().unwrap()
    }

    fn config() -> AdaptiveRunConfig {
        AdaptiveRunConfig {
            items: 10_000,
            controller: AdaptiveConfig {
                drift: DriftConfig {
                    threshold: 0.5,
                    warmup_ticks: 2,
                    consecutive: 2,
                },
                cooldown_ticks: 3,
                hysteresis: 0.05,
                max_replicas: 6,
                min_samples: 100,
            },
            telemetry_interval: Duration::from_millis(20),
            engine: EngineConfig {
                seed: 11,
                batch_size: 8,
                checkpoint_interval: Some(500),
                ..EngineConfig::default()
            },
            ..AdaptiveRunConfig::default()
        }
    }

    #[test]
    fn clean_run_never_migrates_and_loses_nothing() {
        let topo = pipeline();
        let cfg = config();
        let outcome = run_adaptive(&topo, None, &cfg).unwrap();
        assert!(outcome.ticks > 0, "controller must tick");
        assert!(
            outcome.changes.is_empty(),
            "no drift, no migration; got {:?}",
            outcome
                .changes
                .iter()
                .map(|c| (c.stale.clone(), c.old_replicas.clone(), c.replicas.clone()))
                .collect::<Vec<_>>()
        );
        assert_eq!(outcome.swaps_posted, 0);
        assert_eq!(outcome.final_replicas, outcome.initial_replicas);
        assert_eq!(outcome.sink_arrivals, cfg.items);
        assert_eq!(outcome.run.total_dead_letters(), 0);
    }

    #[test]
    fn sustained_slowdown_triggers_a_live_scale_out() {
        let topo = pipeline();
        let cfg = AdaptiveRunConfig {
            faults: vec![OperatorFault {
                operator: "worker".into(),
                slow_after: Some((2_000, 300_000)),
                ..OperatorFault::default()
            }],
            ..config()
        };
        let outcome = run_adaptive(&topo, None, &cfg).unwrap();
        assert!(
            !outcome.changes.is_empty(),
            "sustained drift must emit a plan change (ticks={}, rebases={})",
            outcome.ticks,
            outcome.rebases,
        );
        let worker_degree = outcome.final_replicas[1];
        assert!(
            worker_degree > 1,
            "worker must scale out, got {:?}",
            outcome.final_replicas
        );
        assert!(outcome.swaps_applied >= 1, "the swap must apply live");
        // Exactly-once across the migration: nothing lost, nothing
        // duplicated.
        assert_eq!(outcome.sink_arrivals, cfg.items);
        assert_eq!(outcome.run.total_dead_letters(), 0);
        let table = adaptive_table("pipeline", &cfg, &outcome);
        assert!(table.contains("swap(s) posted"), "table: {table}");
    }

    #[test]
    fn zero_checkpoint_interval_is_rejected() {
        let topo = pipeline();
        for checkpoint_interval in [Some(0), None] {
            let mut cfg = config();
            cfg.engine.checkpoint_interval = checkpoint_interval;
            assert!(matches!(
                run_adaptive(&topo, None, &cfg),
                Err(HarnessError::Measurement { .. })
            ));
        }
    }
}
