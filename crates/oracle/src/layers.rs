//! The three measurement layers: calibration, virtual-time simulation, and
//! threaded smoke runs.

use spinstreams_analysis::{OperatorCounters, Reprofiler};
use spinstreams_codegen::{build_actor_graph, CodegenError, CodegenOptions, FusionGroup};
use spinstreams_core::{KeyDistribution, OperatorId, Topology};
use spinstreams_runtime::{execute, EngineError, Executor, SimConfig};
use std::fmt;
use std::time::Duration;

/// Errors from an oracle pipeline stage.
#[derive(Debug)]
#[non_exhaustive]
pub enum OracleError {
    /// Code generation failed.
    Codegen(CodegenError),
    /// The runtime rejected or failed the actor graph.
    Engine(EngineError),
    /// A rebuilt topology failed validation.
    Build {
        /// Description of the problem.
        reason: String,
    },
}

impl fmt::Display for OracleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OracleError::Codegen(e) => write!(f, "codegen: {e}"),
            OracleError::Engine(e) => write!(f, "engine: {e}"),
            OracleError::Build { reason } => write!(f, "build: {reason}"),
        }
    }
}

impl std::error::Error for OracleError {}

impl From<CodegenError> for OracleError {
    fn from(e: CodegenError) -> Self {
        OracleError::Codegen(e)
    }
}

impl From<EngineError> for OracleError {
    fn from(e: EngineError) -> Self {
        OracleError::Engine(e)
    }
}

/// The deterministic virtual-time executor used by the sim layer: pure
/// synthetic service times (bit-for-bit reproducible) and mailboxes deep
/// enough to absorb bursty emission patterns (flatmaps, joins) at
/// near-saturation stages — head-of-line blocking on a shallow buffer
/// throttles throughput in a way the fluid model deliberately ignores.
/// The buffer-fill transient this costs is amortized by scaling run
/// lengths with predicted throughput (see the fission layer in `sweep`).
pub fn sim_executor(seed: u64) -> Executor {
    Executor::VirtualTime(SimConfig {
        mailbox_capacity: 256,
        seed,
        intrinsic_time: false,
        ..SimConfig::default()
    })
}

/// Per-operator rates and counters measured in one layer run.
#[derive(Debug, Clone)]
pub struct LayerMeasurement {
    /// Measured departure rate per operator (items/s; `None` below two
    /// departures). For the source this is the *emission* rate.
    pub departures: Vec<Option<f64>>,
    /// Measured busy fraction per operator; `None` for an operator not
    /// deployed as one unfused, unreplicated actor, and when the run had
    /// no measurable span.
    pub utilizations: Vec<Option<f64>>,
    /// Per-operator counters, read through the codegen plan's counter map
    /// (`GeneratedPlan::operator_counters`).
    pub counters: Vec<OperatorCounters>,
    /// Items dropped on send timeout anywhere in the run.
    pub dropped: u64,
}

impl LayerMeasurement {
    /// Measured `items_out / items_in` selectivity ratio of one operator,
    /// if it consumed anything.
    pub fn selectivity_ratio(&self, id: OperatorId) -> Option<f64> {
        let c = self.counters[id.0];
        (c.items_in > 0).then(|| c.items_out as f64 / c.items_in as f64)
    }
}

/// Deploys `topo` (optionally replicated) and measures per-operator rates
/// on the given executor.
///
/// # Errors
///
/// Propagates codegen/engine failures.
pub fn measure(
    topo: &Topology,
    source_keys: &KeyDistribution,
    replicas: &[usize],
    items: u64,
    seed: u64,
    executor: &Executor,
) -> Result<LayerMeasurement, OracleError> {
    measure_with(topo, source_keys, replicas, &[], items, seed, executor)
}

/// [`measure`] generalized with fusion groups — the fusion layer deploys
/// the same topology with and without a group and compares the two. A
/// fused member's input and departure actor is its group's meta actor.
///
/// # Errors
///
/// Propagates codegen/engine failures.
pub fn measure_with(
    topo: &Topology,
    source_keys: &KeyDistribution,
    replicas: &[usize],
    fusions: &[FusionGroup],
    items: u64,
    seed: u64,
    executor: &Executor,
) -> Result<LayerMeasurement, OracleError> {
    let opts = CodegenOptions {
        items,
        seed,
        ..CodegenOptions::default()
    };
    let mut plan = build_actor_graph(topo, Some(source_keys.clone()), replicas, fusions, &opts)?;
    let report = execute(std::mem::take(&mut plan.graph), executor)?;
    let counters = plan.operator_counters(&report);

    // All rates share the run's wall clock as timebase. The per-actor
    // first-to-last emission span (`ActorReport::departure_rate`) would
    // overstate bursty low-rate emitters — a windowed aggregate's fill
    // delay falls outside its span — and the comparison needs
    // flow-consistent rates across operators.
    let wall = report.wall.as_secs_f64();
    let per_wall = |x: f64| (wall > 0.0).then(|| x / wall);
    Ok(LayerMeasurement {
        departures: counters
            .iter()
            .map(|c| per_wall(c.items_out as f64).filter(|_| c.items_out >= 2))
            .collect(),
        utilizations: plan
            .single_actor_busy_ns(&counters)
            .into_iter()
            .map(|busy| per_wall(Duration::from_nanos(busy?).as_secs_f64()))
            .collect(),
        counters,
        dropped: report.total_dropped(),
    })
}

/// The §4.1 annotation of `prior` profiled from one run's counters by the
/// one estimator, [`Reprofiler`]: per-operator service times,
/// selectivities and the routing probabilities of every edge whose target
/// has no other input. Operators below `min_samples` consumed (or, for
/// their routing split, emitted) items, and service times the run cannot
/// observe, keep `prior`'s values.
///
/// Annotating from the very run the oracle then compares against is
/// deliberate: realized selectivities and routing splits are
/// trace-dependent (a band-join's match rate depends on how its two input
/// streams interleave; routers split by key hash, not by the declared
/// weights), so annotations profiled on any *other* run cannot describe
/// this one exactly. Sharing the trace removes profiling bias from the
/// comparison — whatever still diverges is the prediction math itself.
pub(crate) fn profile(
    prior: &Topology,
    meas: &LayerMeasurement,
    min_samples: u64,
) -> Result<Topology, OracleError> {
    let mut profiler = Reprofiler::new(prior).with_min_samples(min_samples);
    profiler.update(&meas.counters);
    profiler
        .annotated_topology()
        .map_err(|e| OracleError::Build {
            reason: format!("annotated topology failed validation: {e}"),
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{scenario, Scenario};
    use crate::OracleConfig;

    /// The base layer's §4.1 step: one sim run, profiled by the estimator.
    fn calibrated(s: &Scenario, cfg: &OracleConfig) -> Topology {
        let exec = sim_executor(s.seed);
        let meas = measure(&s.topology, &s.source_keys, &[], cfg.items, s.seed, &exec).unwrap();
        profile(&s.topology, &meas, cfg.min_calibration_samples).unwrap()
    }

    #[test]
    fn sim_measurement_is_deterministic() {
        let cfg = OracleConfig::default();
        let s = scenario(3, &cfg);
        let run = || {
            let cal = calibrated(&s, &cfg);
            measure(
                &cal,
                &s.source_keys,
                &[],
                2_000,
                s.seed,
                &sim_executor(s.seed),
            )
            .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.departures, b.departures);
    }

    #[test]
    fn calibration_recovers_declared_work() {
        let cfg = OracleConfig::default();
        let s = scenario(5, &cfg);
        let cal = calibrated(&s, &cfg);
        // Under pure synthetic time, every sufficiently-fed operator's
        // calibrated service time is at least its declared work_ns (joins
        // and windows may add per-invocation synthetic cost on top).
        for id in cal.operator_ids().skip(1) {
            let declared = s.topology.operator(id).service_time.as_secs();
            let measured = cal.operator(id).service_time.as_secs();
            if measured != declared {
                // rewritten: must not have shrunk below the declared work
                assert!(
                    measured >= declared * 0.99,
                    "{id}: measured {measured} declared {declared}"
                );
            }
        }
    }
}
