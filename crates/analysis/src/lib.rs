//! # spinstreams-analysis
//!
//! The SpinStreams cost models and optimization algorithms (§3 of the
//! paper):
//!
//! * [`steady_state`] — **Algorithm 1**: steady-state throughput analysis of
//!   a topology under backpressure (Blocking-After-Service buffers), with
//!   the Theorem 3.2 source-rate correction and the §3.4 selectivity
//!   extensions.
//! * [`eliminate_bottlenecks`] — **Algorithm 2**: operator fission. Computes
//!   a replication degree per operator (`⌈ρ⌉` for stateless operators, a
//!   key-partitioning-aware degree for partitioned-stateful ones) and
//!   propagates backpressure from bottlenecks that cannot be removed.
//! * [`fuse`] / [`fusion_service_time`] — **Algorithm 3**: operator fusion.
//!   Replaces a single-front-end sub-graph with one meta-operator whose
//!   service time is the path-probability-weighted aggregate of Definition
//!   2, then re-runs Algorithm 1 to predict the outcome.
//! * [`apply_replica_bound`] — the §3.2 *hold-off replication* heuristic
//!   that proportionally shrinks a fission plan to a user-given budget.
//! * [`fusion_candidates`] / [`auto_fuse`] — utilization-ranked fusion
//!   candidate enumeration (the GUI ranking of §4.1) and the automated
//!   greedy fusion search the paper lists as future work (§7).
//! * [`DriftMonitor`] — the §5.2 predicted-vs-measured validation run
//!   *online*: flags operators whose live departure rates have drifted
//!   from the Algorithm 1 predictions.
//! * [`Reprofiler`] — the §4.1 annotation step computed *online*: service
//!   times, selectivities, and routing probabilities continuously
//!   re-estimated from live telemetry counters, with a flattened layout
//!   that drops into [`DriftMonitor`] so drift reports name the stale
//!   annotation.
//! * [`attribute`] — bottleneck attribution: joins Algorithm 1's predicted
//!   bottleneck with the measured one, explaining disagreement through
//!   the blocked-time backpressure chain.
//! * [`merge_sources`] — the fictitious-source transform (§3.1) that turns a
//!   multi-source application into the rooted form the models require.
//!
//! # Example
//!
//! ```
//! use spinstreams_core::{OperatorSpec, ServiceTime, Topology};
//! use spinstreams_analysis::steady_state;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = Topology::builder();
//! let src = b.add_operator(OperatorSpec::source("src", ServiceTime::from_millis(1.0)));
//! let slow = b.add_operator(OperatorSpec::stateless("slow", ServiceTime::from_millis(2.0)));
//! b.add_edge(src, slow, 1.0)?;
//! let topo = b.build()?;
//!
//! let report = steady_state(&topo);
//! // The 2 ms operator is the bottleneck: throughput halves to 500 items/s.
//! assert!((report.throughput.items_per_sec() - 500.0).abs() < 1e-6);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod admission;
mod attribution;
mod bottleneck;
mod candidates;
mod controller;
mod drift;
mod fusion;
mod multi_source;
mod partitioning;
mod report;
mod reprofile;
mod steady_state;

pub use admission::{
    admit, plan_demand_cores, pool_demand_cores, AdmissionConfig, AdmissionVerdict,
};
pub use attribution::{attribute, AttributionReport, ObservedOperator, OperatorVerdict};
pub use bottleneck::{
    apply_replica_bound, effective_service_rate, eliminate_bottlenecks, evaluate_with_replicas,
    FissionPlan,
};
pub use candidates::{auto_fuse, fusable_chain, fusion_candidates, AutoFusion, FusionCandidate};
pub use controller::{AdaptiveConfig, AdaptiveController, PlanChange};
pub use drift::{DriftConfig, DriftMonitor, DriftStatus, DriftVerdict};
pub use fusion::{fuse, fusion_service_time, FusionError, FusionOutcome};
pub use multi_source::{merge_sources, MultiSourceSpec};
pub use partitioning::{
    consistent_hash_partitioning, key_partitioning, key_partitioning_for_rho, KeyAssignment,
};
pub use report::{format_fission_plan, format_steady_state};
pub use reprofile::{AnnotationId, AnnotationKind, OperatorCounters, Reprofiler};
pub use steady_state::{
    steady_state, steady_state_with_rates, BottleneckEvent, OperatorMetrics, SteadyStateReport,
};
