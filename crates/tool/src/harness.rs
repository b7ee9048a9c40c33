//! Predict-vs-measure drivers. The §4.1 calibration step they start from
//! is `spinstreams_serve::calibrate`, re-exported by this crate.

use spinstreams_analysis::{evaluate_with_replicas, steady_state, SteadyStateReport};
use spinstreams_codegen::{
    build_actor_graph, CodegenError, CodegenOptions, FusionGroup, GeneratedPlan,
};
use spinstreams_core::{KeyDistribution, OperatorId, Topology};
use spinstreams_runtime::{execute, EngineError, Executor, RunReport};
use spinstreams_serve::ServeError;
use std::fmt;

/// Errors from the harness pipeline.
#[derive(Debug)]
#[non_exhaustive]
pub enum HarnessError {
    /// Code generation failed.
    Codegen(CodegenError),
    /// The runtime rejected or failed the actor graph.
    Engine(EngineError),
    /// The run produced unusable measurements (e.g. too few items).
    Measurement {
        /// Description of the problem.
        reason: String,
    },
}

impl fmt::Display for HarnessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HarnessError::Codegen(e) => write!(f, "codegen: {e}"),
            HarnessError::Engine(e) => write!(f, "engine: {e}"),
            HarnessError::Measurement { reason } => write!(f, "measurement: {reason}"),
        }
    }
}

impl std::error::Error for HarnessError {}

impl From<CodegenError> for HarnessError {
    fn from(e: CodegenError) -> Self {
        HarnessError::Codegen(e)
    }
}

impl From<EngineError> for HarnessError {
    fn from(e: EngineError) -> Self {
        HarnessError::Engine(e)
    }
}

impl From<ServeError> for HarnessError {
    fn from(e: ServeError) -> Self {
        match e {
            ServeError::Codegen(e) => HarnessError::Codegen(e),
            ServeError::Engine(e) => HarnessError::Engine(e),
            other => HarnessError::Measurement {
                reason: other.to_string(),
            },
        }
    }
}

/// Per-operator prediction-vs-measurement row (Figure 8's quantity).
#[derive(Debug, Clone, PartialEq)]
pub struct OperatorComparison {
    /// The operator.
    pub operator: OperatorId,
    /// Operator name.
    pub name: String,
    /// Model-predicted steady-state departure rate (items/s).
    pub predicted_departure: f64,
    /// Measured departure rate (items/s), if the operator departed at least
    /// twice.
    pub measured_departure: Option<f64>,
}

impl OperatorComparison {
    /// Relative prediction error `|pred - meas| / meas`, if measurable.
    pub fn relative_error(&self) -> Option<f64> {
        let m = self.measured_departure?;
        if m <= 0.0 {
            return None;
        }
        Some((self.predicted_departure - m).abs() / m)
    }
}

/// A full predict-vs-measure comparison for one deployment.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Model-predicted topology throughput (items/s).
    pub predicted_throughput: f64,
    /// Measured topology throughput (items/s).
    pub measured_throughput: f64,
    /// Per-operator rows, indexed by operator id.
    pub operators: Vec<OperatorComparison>,
    /// The model report backing the prediction.
    pub report: SteadyStateReport,
    /// The raw run metrics.
    pub run: RunReport,
}

impl Comparison {
    /// Relative throughput prediction error (Figure 7b's quantity).
    pub fn relative_error(&self) -> f64 {
        (self.predicted_throughput - self.measured_throughput).abs() / self.measured_throughput
    }

    /// Mean per-operator relative departure-rate error (Figure 8).
    pub fn mean_operator_error(&self) -> f64 {
        let errs: Vec<f64> = self
            .operators
            .iter()
            .filter_map(|o| o.relative_error())
            .collect();
        if errs.is_empty() {
            0.0
        } else {
            errs.iter().sum::<f64>() / errs.len() as f64
        }
    }
}

/// The executor configuration recommended for model-accuracy experiments:
/// virtual time (host-independent parallelism) with small mailboxes, so the
/// buffer-fill transient before backpressure engages is short relative to
/// the run (§5.2 attributes its outlier errors to exactly this kind of
/// not-yet-at-steady-state effect).
pub fn experiment_executor(seed: u64) -> Executor {
    Executor::VirtualTime(spinstreams_runtime::SimConfig {
        mailbox_capacity: 32,
        seed,
        ..spinstreams_runtime::SimConfig::default()
    })
}

/// Number of items to generate so a run lasts roughly `secs` at the given
/// predicted throughput (bounded to keep degenerate predictions sane).
pub fn items_for_duration(predicted_throughput: f64, secs: f64) -> u64 {
    ((predicted_throughput * secs) as u64).clamp(2_000, 2_000_000)
}

/// Predicts the steady state of `topo` (optionally parallelized with
/// `replicas`) with the cost model, executes the corresponding deployment,
/// and returns both sides.
///
/// `fusions` are deployed as meta-operators; the model sees them through
/// the fused topology produced by the caller when comparing fusion
/// predictions (this function predicts on `topo` as given).
///
/// # Errors
///
/// Propagates codegen/engine failures; fails with
/// [`HarnessError::Measurement`] if the run produced no measurable source
/// throughput.
pub fn predict_vs_measure(
    topo: &Topology,
    source_keys: Option<&KeyDistribution>,
    replicas: &[usize],
    fusions: &[FusionGroup],
    items: u64,
    executor: &Executor,
) -> Result<Comparison, HarnessError> {
    let report = if replicas.is_empty() {
        steady_state(topo)
    } else {
        evaluate_with_replicas(topo, replicas)
    };

    let opts = CodegenOptions {
        items,
        seed: executor.seed(),
        ..CodegenOptions::default()
    };
    let mut plan = build_actor_graph(topo, source_keys.cloned(), replicas, fusions, &opts)?;
    let run = execute(std::mem::take(&mut plan.graph), executor)?;
    compare(topo, report, &plan, run)
}

/// Holds the model `report` against the `run` of `plan`, a deployment of
/// `topo`.
///
/// # Errors
///
/// Fails with [`HarnessError::Measurement`] if the run produced no
/// measurable source throughput.
pub(crate) fn compare(
    topo: &Topology,
    report: SteadyStateReport,
    plan: &GeneratedPlan,
    run: RunReport,
) -> Result<Comparison, HarnessError> {
    // The runtime source reports its *emission* rate; throughput is defined
    // as items ingested per second (§5.2), so divide the source's own
    // selectivity rate factor back out (identity for typical sources).
    let src_factor = topo
        .operator(topo.source())
        .selectivity
        .rate_factor()
        .max(f64::MIN_POSITIVE);
    let measured_throughput = run
        .source_throughput()
        .ok_or_else(|| HarnessError::Measurement {
            reason: "source produced fewer than two items".into(),
        })?
        / src_factor;

    let operators = topo
        .operator_ids()
        .map(|id| OperatorComparison {
            operator: id,
            name: topo.operator(id).name.clone(),
            predicted_departure: report.metric(id).departure,
            measured_departure: run.actor(plan.departure_actor[id.0]).departure_rate(),
        })
        .collect();

    Ok(Comparison {
        predicted_throughput: report.throughput.items_per_sec(),
        measured_throughput,
        operators,
        report,
        run,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use spinstreams_core::{OperatorSpec, ServiceTime};
    use spinstreams_serve::calibrate;

    fn engine() -> Executor {
        Executor::VirtualTime(spinstreams_runtime::SimConfig {
            mailbox_capacity: 32,
            seed: 0xC0FFEE,
            ..spinstreams_runtime::SimConfig::default()
        })
    }

    /// source (fast) -> spin-y arithmetic map (bottleneck) -> cheap sink.
    fn bottleneck_topology() -> Topology {
        let mut b = Topology::builder();
        let s = b.add_operator(
            OperatorSpec::source("src", ServiceTime::from_micros(100.0)).with_kind("source"),
        );
        let m = b.add_operator(
            OperatorSpec::stateless("slow", ServiceTime::from_micros(400.0))
                .with_kind("identity-map")
                .with_param("work_ns", 400_000.0),
        );
        let k = b.add_operator(
            OperatorSpec::stateless("sink", ServiceTime::from_micros(10.0))
                .with_kind("identity-map")
                .with_param("work_ns", 10_000.0),
        );
        b.add_edge(s, m, 1.0).unwrap();
        b.add_edge(m, k, 1.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn items_for_duration_clamps() {
        assert_eq!(items_for_duration(1e12, 5.0), 2_000_000);
        assert_eq!(items_for_duration(1.0, 0.1), 2_000);
        assert_eq!(items_for_duration(10_000.0, 2.0), 20_000);
    }

    #[test]
    fn calibration_updates_service_times() {
        let t = bottleneck_topology();
        let calibrated = calibrate(&t, None, 4_000, 100, &engine()).unwrap();
        // The 400 µs spin operator should be measured near 400 µs.
        let st = calibrated.operator(OperatorId(1)).service_time.as_micros();
        assert!(
            (st - 400.0).abs() / 400.0 < 0.3,
            "calibrated service time {st} µs"
        );
        // Identity maps keep output ratio 1.
        let sel = calibrated.operator(OperatorId(1)).selectivity;
        assert!((sel.rate_factor() - 1.0).abs() < 0.05);
        // Source untouched.
        assert_eq!(
            calibrated.operator(OperatorId(0)).service_time,
            t.operator(OperatorId(0)).service_time
        );
    }

    #[test]
    fn predict_vs_measure_tracks_backpressured_throughput() {
        let t = bottleneck_topology();
        let calibrated = calibrate(&t, None, 4_000, 100, &engine()).unwrap();
        let cmp = predict_vs_measure(&calibrated, None, &[], &[], 8_000, &engine()).unwrap();
        // The 400 µs stage caps throughput at 2500/s; in virtual time the
        // model and the measurement agree tightly.
        assert!(
            cmp.relative_error() < 0.05,
            "predicted {} measured {}",
            cmp.predicted_throughput,
            cmp.measured_throughput
        );
        assert!(cmp.predicted_throughput < 5_000.0);
        assert!(cmp.mean_operator_error() < 0.1);
        assert_eq!(cmp.operators.len(), 3);
    }

    #[test]
    fn predict_vs_measure_with_fission_restores_throughput() {
        let t = bottleneck_topology();
        let calibrated = calibrate(&t, None, 4_000, 100, &engine()).unwrap();
        let plan = spinstreams_analysis::eliminate_bottlenecks(&calibrated);
        assert!(plan.replicas[1] >= 2, "bottleneck must be replicated");
        let cmp =
            predict_vs_measure(&calibrated, None, &plan.replicas, &[], 12_000, &engine()).unwrap();
        // Parallelized: throughput should approach the source rate
        // (10k items/s) and the model should track it closely — virtual
        // time gives the replicas perfect parallelism on any host.
        assert!(
            cmp.measured_throughput > cmp.predicted_throughput * 0.9,
            "predicted {} measured {}",
            cmp.predicted_throughput,
            cmp.measured_throughput
        );
        assert!(cmp.relative_error() < 0.1);
    }

    #[test]
    fn harness_errors_are_displayable() {
        let e: HarnessError = CodegenError::BadReplicaVector { reason: "x".into() }.into();
        assert!(e.to_string().contains("codegen"));
        let e: HarnessError = EngineError::NoActors.into();
        assert!(e.to_string().contains("engine"));
    }
}
