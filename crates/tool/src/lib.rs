//! # spinstreams-tool
//!
//! The experiment harness tying the whole SpinStreams workflow together
//! (§4.1): profile a running application, feed the measurements to the cost
//! models, deploy the (optimized) topology on the runtime, and compare the
//! model's predictions against reality.
//!
//! * [`calibrate`] — the profiling step: executes the topology once and
//!   rewrites each operator's service time, selectivity and observable
//!   routing probabilities through the one §4.1 estimator
//!   ([`Reprofiler`](spinstreams_analysis::Reprofiler)) ("executing the
//!   application as is for a reasonable amount of time and instrumenting
//!   the code to collect profiling measures").
//! * [`predict_vs_measure`] — runs Algorithm 1 on the calibrated topology
//!   *and* executes the deployment, returning per-operator and
//!   whole-topology comparisons (the data behind Figures 7–9).
//! * [`run_chaos`] — the fault-injection harness: wraps every deployed
//!   worker in a seeded fault injector, supervises it with a restart
//!   policy, and compares measured throughput degradation against the
//!   path-probability prediction.
//! * [`predict_vs_measure_telemetry`] / [`DriftExporter`] — the live
//!   telemetry exporters: run with the runtime's sampler enabled, tick an
//!   online [`DriftMonitor`](spinstreams_analysis::DriftMonitor) on every
//!   snapshot, and render JSON-lines / Prometheus text
//!   ([`prometheus_text`]) / a live table ([`monitor_table`]).
//! * [`run_adaptive`] — the closed control loop behind `spinstreams run
//!   --adaptive`: every telemetry tick re-profiles the annotations, and a
//!   sustained drift re-runs Algorithms 1–3 and migrates the live graph
//!   (route swaps + key-state handoffs) without stopping the stream.
//! * [`run_adaptation_layer`] — the differential oracle's adaptation
//!   layer: a mid-run service-time shift must trigger a live migration
//!   that preserves exactly-once sink output and lands within the drift
//!   threshold of the new plan's Algorithm 1 prediction.
//! * [`run_multitenant_layer`] — the differential oracle's multi-tenant
//!   layer: N seeded paced pipelines launched together on one shared
//!   serving pool must reproduce their solo sink counts exactly, and the
//!   measured aggregate must land within tolerance of the summed
//!   Algorithm 1 predictions.
//! * [`inspect`] — the live bottleneck-attribution harness behind
//!   `spinstreams inspect`: re-profiles the §4.1 annotations online,
//!   joins Algorithm 1's predicted bottleneck with the measured one, and
//!   names the stale annotation when they disagree.
//! * [`ascii_series`] / [`comparison_table`] — plain-text rendering used by
//!   the figure/table binaries in `spinstreams-bench`.
//! * [`engine_config`] — the command line's one parser of engine settings:
//!   flag, then the document's `<settings>`, then
//!   [`EngineConfig::default`](spinstreams_runtime::EngineConfig).
//! * [`parse_flag`] / [`parse_list_flag`] — the one typed flag parser: a
//!   malformed value is an error naming the flag, never a silent default.

#![warn(missing_docs)]

mod adaptation;
mod adaptive;
mod chaos;
mod dot;
mod format;
mod harness;
mod inspect;
mod multitenant;
mod settings;
mod telemetry;

pub use adaptation::{adaptation_table, run_adaptation_layer, AdaptationReport};
pub use adaptive::{
    adaptive_table, run_adaptive, AdaptiveOutcome, AdaptiveRunConfig, OperatorFault,
};
pub use chaos::{
    chaos_table, predicted_delivered_fraction, run_chaos, run_chaos_with_telemetry, ChaosConfig,
    ChaosOutcome,
};
pub use dot::topology_dot;
pub use format::{ascii_series, comparison_table, monitor_table, prometheus_text};
pub use harness::{
    experiment_executor, items_for_duration, predict_vs_measure, Comparison, HarnessError,
    OperatorComparison,
};
pub use inspect::{
    inspect, inspect_json, inspect_table, observed_operators, Inspection,
    ANNOTATION_DRIFT_THRESHOLD,
};
pub use multitenant::{
    multitenant_table, run_multitenant_layer, run_multitenant_layer_with, tenant_topology,
    MultiTenantConfig, MultiTenantReport, TenantOutcome,
};
pub use settings::{engine_config, flag_value, parse_flag, parse_list_flag};
/// The §4.1 profiling step, shared with the serving front end.
pub use spinstreams_serve::calibrate;
pub use telemetry::{
    drift_json, predict_vs_measure_telemetry, predicted_actor_rates, DriftExporter,
    TelemetryExport, TelemetryRun,
};
