//! The adaptive re-optimization controller closing the §5.2 loop.
//!
//! SpinStreams is a *static* optimizer: Algorithms 1–3 run once, offline,
//! on the annotated topology. §5.2 observes that the annotations can go
//! stale at runtime — selectivities and service times shift with the data —
//! and proposes comparing the predicted steady state against live
//! measurements. The [`AdaptiveController`] takes the final step: when the
//! drift is sustained, it re-runs the whole optimization pipeline on the
//! *re-annotated* topology and emits a [`PlanChange`] describing how the
//! running graph should morph.
//!
//! The controller is pure analysis — it never touches the runtime. One tick
//! works like this:
//!
//! ```text
//!   counters ──▶ Reprofiler::update ──▶ estimates
//!                                          │
//!                                          ▼
//!                          DriftMonitor::tick (vs declared values)
//!                                          │  sustained drift?
//!                                          ▼
//!        annotated_topology ──▶ eliminate_bottlenecks (Alg. 2)
//!                                          │
//!                                          ▼
//!                     apply_replica_bound (Alg. 3, n_max)
//!                                          │  plan differs + clears
//!                                          ▼  hysteresis?
//!                               Some(PlanChange)
//! ```
//!
//! Two dampers keep the loop from oscillating:
//!
//! * **hysteresis** — a new plan is only emitted if its predicted
//!   throughput beats the current plan's (re-evaluated on the fresh
//!   annotations) by at least the configured factor; otherwise the monitor
//!   is *rebased* onto the fresh estimates so the same drift does not
//!   re-trigger every tick;
//! * **cooldown** — after any decision (migration or rebase) the controller
//!   refuses to re-plan for `cooldown_ticks`, giving the runtime time to
//!   settle and the windowed counters time to reflect the new plan.

use crate::bottleneck::{apply_replica_bound, eliminate_bottlenecks, evaluate_with_replicas};
use crate::drift::{DriftConfig, DriftMonitor, DriftStatus};
use crate::partitioning::{key_partitioning, KeyAssignment};
use crate::reprofile::{OperatorCounters, Reprofiler};
use spinstreams_core::{StateClass, Topology};

/// Utilization above which a "plan unchanged" verdict is too suspicious to
/// rebase on: a drifting operator measured at ρ just under 1 is usually a
/// backlog-diluted reading of a genuinely saturated operator, and adopting
/// it as the new baseline would mask the real shift.
const SATURATION_GUARD: f64 = 0.9;

/// Tuning knobs for the adaptive control loop.
#[derive(Debug, Clone)]
pub struct AdaptiveConfig {
    /// Drift detection parameters (threshold, warmup, streak length).
    pub drift: DriftConfig,
    /// Ticks to stay quiet after a migration or rebase decision.
    pub cooldown_ticks: u64,
    /// Minimum relative throughput gain a new plan must predict before a
    /// migration is worth the disruption: the new plan is adopted only if
    /// `predicted_new > predicted_current · (1 + hysteresis)`.
    pub hysteresis: f64,
    /// Total replica bound fed to Algorithm 3 (`apply_replica_bound`).
    pub max_replicas: usize,
    /// Sample floor per operator before the reprofiler trusts an estimate.
    pub min_samples: u64,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            drift: DriftConfig::default(),
            cooldown_ticks: 4,
            hysteresis: 0.05,
            max_replicas: 16,
            min_samples: 200,
        }
    }
}

/// A reconfiguration decision: how the running graph should change.
///
/// Produced by [`AdaptiveController::tick`] when sustained drift yields a
/// plan that differs from the running one and clears the hysteresis bar.
/// The runtime layer translates this into route swaps and key handoffs.
#[derive(Debug, Clone)]
pub struct PlanChange {
    /// New replication degree per operator (indexed by operator id).
    pub replicas: Vec<usize>,
    /// The degrees the graph is running right now.
    pub old_replicas: Vec<usize>,
    /// For each operator: the key→replica assignment under the new degree,
    /// `Some` only for partitioned-stateful operators with `replicas > 1`.
    pub assignments: Vec<Option<KeyAssignment>>,
    /// Predicted throughput (items/s) of the new plan on the re-annotated
    /// topology — the §5.2 acceptance reference after migration.
    pub predicted_throughput: f64,
    /// Predicted throughput (items/s) of the *current* degrees re-evaluated
    /// on the same re-annotated topology.
    pub old_predicted_throughput: f64,
    /// Human-readable names of the annotations found stale this tick.
    pub stale: Vec<String>,
    /// The re-annotated topology the new plan was computed on.
    pub topology: Topology,
}

/// Closed-loop controller: telemetry in, [`PlanChange`]s out.
#[derive(Debug, Clone)]
pub struct AdaptiveController {
    reprofiler: Reprofiler,
    monitor: DriftMonitor,
    /// The monitor's current baseline; kept alongside because the monitor
    /// does not expose its predictions and rebasing needs to merge fresh
    /// estimates over the old baseline (`None` estimates keep it).
    baseline: Vec<Option<f64>>,
    config: AdaptiveConfig,
    current_replicas: Vec<usize>,
    cooldown: u64,
    /// Ticks consumed over the controller's life (the monitor's own count
    /// restarts at every rebase).
    ticks: u64,
    rebases: u64,
    changes: u64,
}

impl AdaptiveController {
    /// Creates a controller for `topo` currently running with
    /// `current_replicas` (one degree per operator; the static plan).
    ///
    /// # Panics
    ///
    /// Panics if `current_replicas.len() != topo.num_operators()` or any
    /// degree is zero.
    pub fn new(topo: &Topology, current_replicas: Vec<usize>, config: AdaptiveConfig) -> Self {
        assert_eq!(
            current_replicas.len(),
            topo.num_operators(),
            "one replication degree per operator"
        );
        assert!(
            current_replicas.iter().all(|n| *n >= 1),
            "degrees must be >= 1"
        );
        let reprofiler = Reprofiler::new(topo).with_min_samples(config.min_samples);
        let monitor = reprofiler.drift_monitor(config.drift);
        let baseline = reprofiler.declared().to_vec();
        AdaptiveController {
            reprofiler,
            monitor,
            baseline,
            config,
            current_replicas,
            cooldown: 0,
            ticks: 0,
            rebases: 0,
            changes: 0,
        }
    }

    /// The degrees the controller believes the graph is running with.
    pub fn current_replicas(&self) -> &[usize] {
        &self.current_replicas
    }

    /// Read access to the embedded reprofiler (e.g. for `describe`).
    pub fn reprofiler(&self) -> &Reprofiler {
        &self.reprofiler
    }

    /// Telemetry ticks consumed so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Times the drift baseline was rebased *without* a migration (plan
    /// unchanged, or gain below hysteresis).
    pub fn rebases(&self) -> u64 {
        self.rebases
    }

    /// Plan changes emitted so far.
    pub fn changes(&self) -> u64 {
        self.changes
    }

    /// Feeds one snapshot of **windowed** per-operator counters (indexed by
    /// operator id) and decides whether the graph should be reconfigured.
    ///
    /// The counters must cover a recent window, not the whole run: the
    /// reprofiler's estimators are ratios over exactly what is fed here,
    /// and a since-startup window would dilute a mid-run shift forever.
    ///
    /// Returns `Some(PlanChange)` when drift is sustained, the re-optimized
    /// plan differs from the running one, and the predicted gain clears
    /// [`AdaptiveConfig::hysteresis`]. Every other outcome is `None`.
    pub fn tick(&mut self, counters: &[OperatorCounters]) -> Option<PlanChange> {
        self.ticks += 1;
        let estimates = self.reprofiler.update(counters);
        let verdicts = self.monitor.tick(&estimates);
        let stale: Vec<usize> = verdicts
            .iter()
            .filter(|v| v.status == DriftStatus::Drifting)
            .map(|v| v.index)
            .collect();

        if self.cooldown > 0 {
            self.cooldown -= 1;
            return None;
        }
        if stale.is_empty() {
            return None;
        }

        // Sustained drift: re-run the full static pipeline on the live
        // annotations.
        let topo = match self.reprofiler.annotated_topology() {
            Ok(t) => t,
            Err(_) => return None,
        };
        let plan = eliminate_bottlenecks(&topo);
        let replicas = apply_replica_bound(&plan, self.config.max_replicas);

        // A measurement window taken while a backlog is still building
        // systematically *underestimates* service time (busy is charged per
        // processed item, arrivals per drained item), so a drifting
        // operator measured at ρ ≈ 1 is usually a diluted reading of a
        // genuinely saturated operator. Two decisions must not be taken on
        // such a reading: rebasing (the diluted value would become the
        // baseline and mask the real, larger shift forever) and the
        // hysteresis rejection (the gain predicted from diluted
        // annotations is artificially marginal). In both cases hold the
        // old baseline, take no action, and let the next windows converge.
        let current_report = evaluate_with_replicas(&topo, &self.current_replicas);
        let annotations = self.reprofiler.annotations();
        let near_saturation = stale.iter().any(|&slot| {
            let op = annotations[slot].operator;
            op != topo.source() && current_report.metrics[op.0].utilization >= SATURATION_GUARD
        });

        if replicas == self.current_replicas {
            // The world changed but the answer didn't: accept the new
            // normal so the same drift stops firing — unless the reading
            // is saturation-diluted (see above).
            if !near_saturation {
                self.rebase(&estimates);
            }
            return None;
        }

        let old_predicted = current_report.throughput.items_per_sec();
        let new_predicted = evaluate_with_replicas(&topo, &replicas)
            .throughput
            .items_per_sec();
        if new_predicted <= old_predicted * (1.0 + self.config.hysteresis) {
            if !near_saturation {
                self.rebase(&estimates);
            }
            return None;
        }

        let assignments: Vec<Option<KeyAssignment>> = topo
            .operators()
            .iter()
            .zip(&replicas)
            .map(|(op, n)| match (&op.state, *n) {
                (StateClass::PartitionedStateful { keys }, n) if n > 1 => {
                    Some(key_partitioning(keys, n))
                }
                _ => None,
            })
            .collect();
        let stale_names = stale.iter().map(|i| self.reprofiler.describe(*i)).collect();

        let change = PlanChange {
            replicas: replicas.clone(),
            old_replicas: std::mem::replace(&mut self.current_replicas, replicas),
            assignments,
            predicted_throughput: new_predicted,
            old_predicted_throughput: old_predicted,
            stale: stale_names,
            topology: topo,
        };
        self.rebase_silent(&estimates);
        self.changes += 1;
        Some(change)
    }

    /// Merges fresh estimates into the baseline and restarts the monitor on
    /// it, counting the event as a no-migration rebase.
    fn rebase(&mut self, estimates: &[Option<f64>]) {
        self.rebase_silent(estimates);
        self.rebases += 1;
    }

    fn rebase_silent(&mut self, estimates: &[Option<f64>]) {
        for (b, e) in self.baseline.iter_mut().zip(estimates) {
            if e.is_some() {
                *b = *e;
            }
        }
        self.monitor = DriftMonitor::new(self.baseline.clone(), self.config.drift);
        self.cooldown = self.config.cooldown_ticks;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spinstreams_core::{KeyDistribution, OperatorSpec, ServiceTime, Topology, TopologyBuilder};

    /// source (1000/s) → worker (2000/s declared) → sink (10000/s).
    fn pipeline(worker_partitioned: bool) -> Topology {
        let mut b = TopologyBuilder::new();
        let src = b.add_operator(OperatorSpec::source("src", ServiceTime::from_secs(0.001)));
        let worker = if worker_partitioned {
            b.add_operator(OperatorSpec::partitioned(
                "worker",
                ServiceTime::from_secs(0.0005),
                KeyDistribution::uniform(8),
            ))
        } else {
            b.add_operator(OperatorSpec::stateless(
                "worker",
                ServiceTime::from_secs(0.0005),
            ))
        };
        let sink = b.add_operator(OperatorSpec::stateless(
            "sink",
            ServiceTime::from_secs(0.0001),
        ));
        b.add_edge(src, worker, 1.0).unwrap();
        b.add_edge(worker, sink, 1.0).unwrap();
        b.build().expect("valid pipeline")
    }

    fn counters(items: u64, worker_busy_per_item_ns: u64) -> Vec<OperatorCounters> {
        vec![
            OperatorCounters {
                items_in: 0,
                items_out: items,
                busy_ns: None,
            },
            OperatorCounters {
                items_in: items,
                items_out: items,
                busy_ns: Some(items * worker_busy_per_item_ns),
            },
            OperatorCounters {
                items_in: items,
                items_out: items,
                busy_ns: Some(items * 100_000),
            },
        ]
    }

    fn config() -> AdaptiveConfig {
        AdaptiveConfig {
            min_samples: 100,
            ..AdaptiveConfig::default()
        }
    }

    #[test]
    fn no_drift_never_changes_plan() {
        let topo = pipeline(false);
        let mut ctl = AdaptiveController::new(&topo, vec![1, 1, 1], config());
        for _ in 0..20 {
            // Measured worker service time matches the declared 0.5 ms.
            assert!(ctl.tick(&counters(1000, 500_000)).is_none());
        }
        assert_eq!(ctl.current_replicas(), &[1, 1, 1]);
        assert_eq!(ctl.rebases(), 0);
        assert_eq!(ctl.changes(), 0);
    }

    #[test]
    fn sustained_drift_emits_plan_change_after_warmup_and_streak() {
        let topo = pipeline(false);
        let mut ctl = AdaptiveController::new(&topo, vec![1, 1, 1], config());
        // Worker slows to 4 ms/item (µ = 250/s against λ = 1000/s → ρ = 4).
        // warmup_ticks = 2, consecutive = 2 → first verdict on tick 4.
        let slow = counters(1000, 4_000_000);
        for tick in 1..=3 {
            assert!(ctl.tick(&slow).is_none(), "tick {tick} fired early");
        }
        let change = ctl.tick(&slow).expect("sustained drift must re-plan");
        assert_eq!(change.old_replicas, vec![1, 1, 1]);
        assert_eq!(change.replicas, vec![1, 4, 1]);
        assert_eq!(ctl.current_replicas(), &[1, 4, 1]);
        assert!(change.assignments.iter().all(|a| a.is_none()));
        assert!(
            change.predicted_throughput > change.old_predicted_throughput,
            "{} <= {}",
            change.predicted_throughput,
            change.old_predicted_throughput
        );
        assert!((change.predicted_throughput - 1000.0).abs() < 1.0);
        assert!((change.old_predicted_throughput - 250.0).abs() < 1.0);
        assert!(
            change
                .stale
                .iter()
                .any(|s| s.contains("service_time(worker)")),
            "stale: {:?}",
            change.stale
        );
        assert_eq!(ctl.changes(), 1);
    }

    #[test]
    fn after_migration_the_rebased_monitor_stays_quiet() {
        let topo = pipeline(false);
        let mut ctl = AdaptiveController::new(&topo, vec![1, 1, 1], config());
        let slow = counters(1000, 4_000_000);
        let mut changes = 0;
        for _ in 0..30 {
            if ctl.tick(&slow).is_some() {
                changes += 1;
            }
        }
        // The shift is real but the baseline was rebased at migration time:
        // the identical measurements must not re-trigger.
        assert_eq!(changes, 1);
        // The rebase restarts the monitor, not the controller's tick count.
        assert_eq!(ctl.ticks(), 30);
        assert_eq!(ctl.current_replicas(), &[1, 4, 1]);
    }

    #[test]
    fn drift_without_plan_difference_rebases_silently() {
        let topo = pipeline(false);
        let mut ctl = AdaptiveController::new(&topo, vec![1, 1, 1], config());
        // Worker speeds *up* 5× — large drift, but the plan stays [1,1,1].
        let fast = counters(1000, 100_000);
        for _ in 0..10 {
            assert!(ctl.tick(&fast).is_none());
        }
        assert_eq!(ctl.current_replicas(), &[1, 1, 1]);
        assert_eq!(ctl.rebases(), 1, "exactly one rebase, then quiet");
        assert_eq!(ctl.changes(), 0);
    }

    #[test]
    fn borderline_saturation_defers_rebase_until_estimates_converge() {
        let topo = pipeline(false);
        let mut ctl = AdaptiveController::new(&topo, vec![1, 1, 1], config());
        // A backlog-diluted window: the worker really shifted to 1.5 ms but
        // the estimator reads 0.95 ms (ρ = 0.95 < 1 → plan unchanged).
        // Rebasing here would adopt the diluted value and mask the shift.
        let diluted = counters(1000, 950_000);
        for tick in 1..=6 {
            assert!(ctl.tick(&diluted).is_none(), "tick {tick} fired");
        }
        assert_eq!(ctl.rebases(), 0, "must not rebase at ρ ≈ 1");
        // The window converges to the true value: the change fires at once
        // (no rebase happened, so no cooldown and the old baseline stands).
        let converged = counters(1000, 1_500_000);
        let change = ctl.tick(&converged).expect("converged drift re-plans");
        assert_eq!(change.replicas, vec![1, 2, 1]);
        assert_eq!(ctl.rebases(), 0);
    }

    #[test]
    fn hysteresis_suppresses_marginal_gains() {
        // The worker sped up 5×: the re-plan scales [1,4,1] down to
        // [1,1,1], but predicts zero throughput gain. Hysteresis rejects
        // the pointless migration and — the worker being far from
        // saturation — rebases so the drift stops firing.
        let topo = pipeline(false);
        let mut ctl = AdaptiveController::new(&topo, vec![1, 4, 1], config());
        let fast = counters(1000, 100_000);
        for _ in 0..10 {
            assert!(ctl.tick(&fast).is_none());
        }
        assert_eq!(ctl.current_replicas(), &[1, 4, 1]);
        assert_eq!(ctl.rebases(), 1);
        assert_eq!(ctl.changes(), 0);
    }

    #[test]
    fn saturated_marginal_gain_is_held_not_rebased() {
        // hysteresis 10.0 rejects the 4× predicted gain, but the worker
        // reads ρ ≥ 1: the gain was computed on possibly backlog-diluted
        // annotations, so the rejection must hold the baseline (no rebase)
        // and keep the drift alive for a converged later window.
        let topo = pipeline(false);
        let mut ctl = AdaptiveController::new(
            &topo,
            vec![1, 1, 1],
            AdaptiveConfig {
                hysteresis: 10.0,
                ..config()
            },
        );
        let slow = counters(1000, 4_000_000);
        for _ in 0..10 {
            assert!(ctl.tick(&slow).is_none());
        }
        assert_eq!(ctl.current_replicas(), &[1, 1, 1]);
        assert_eq!(ctl.rebases(), 0, "diluted reading must not become baseline");
        assert_eq!(ctl.changes(), 0);
    }

    #[test]
    fn partitioned_worker_gets_a_key_assignment() {
        let topo = pipeline(true);
        let mut ctl = AdaptiveController::new(&topo, vec![1, 1, 1], config());
        let slow = counters(1000, 4_000_000);
        let change = (0..10)
            .find_map(|_| ctl.tick(&slow))
            .expect("drift must re-plan");
        assert!(change.replicas[1] > 1);
        let assign = change.assignments[1].as_ref().expect("keyed worker");
        assert_eq!(assign.owner.len(), 8);
        assert!(assign.owner.iter().all(|o| *o < change.replicas[1]));
        assert!(change.assignments[0].is_none());
        assert!(change.assignments[2].is_none());
    }

    #[test]
    fn cooldown_defers_replanning() {
        let topo = pipeline(false);
        let mut ctl = AdaptiveController::new(
            &topo,
            vec![1, 1, 1],
            AdaptiveConfig {
                cooldown_ticks: 100,
                ..config()
            },
        );
        let fast = counters(1000, 100_000);
        for _ in 0..10 {
            assert!(ctl.tick(&fast).is_none());
        }
        // One rebase, then the long cooldown swallows every later tick.
        assert_eq!(ctl.rebases(), 1);
        // Now drift the *other* way mid-cooldown: still suppressed.
        let slow = counters(1000, 4_000_000);
        for _ in 0..5 {
            assert!(ctl.tick(&slow).is_none());
        }
        assert_eq!(ctl.changes(), 0);
    }
}
