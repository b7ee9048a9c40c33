//! # spinstreams-oracle
//!
//! A differential oracle that cross-validates the three independent
//! implementations of the SpinStreams cost model (§3) against each other:
//!
//! 1. the **analytical prediction** — Algorithm 1 steady-state analysis and
//!    Algorithm 2 fission planning from `spinstreams-analysis`;
//! 2. the **discrete-event simulator** — the virtual-time executor under
//!    pure synthetic service times, which realizes the model's assumptions
//!    almost exactly;
//! 3. the **threaded runtime** — a smoke-scale run on the worker pool,
//!    held only to load-independent invariants (selectivity ratios, no
//!    drops).
//!
//! For each seeded [`scenario`] the [`sweep`](run_sweep) calibrates on the
//! simulator (§4.1), predicts, measures, and [`compares`](compare_layer)
//! throughput, per-operator departure rates, and utilizations within
//! configurable [`Tolerances`]. Scenario generation re-derives every
//! service-time annotation from seed-drawn quantities, so the
//! sim-vs-analysis layers are bit-for-bit reproducible — any divergence is
//! a genuine model/implementation mismatch, not noise.
//!
//! On divergence, the scenario is [`delta-debugged`](minimize) to a minimal
//! counterexample and dumped as a reproducible [`artifact`](write_artifacts)
//! (seed, minimized XML, three-way rate table).

#![warn(missing_docs)]

mod artifact;
mod compare;
mod config;
mod layers;
mod minimize;
mod scenario;
mod sweep;

pub use artifact::{format_report, write_artifacts};
pub use compare::{
    compare_layer, compare_threaded, format_table, Divergence, DivergenceKind, Layer, RateRow,
    RateTable,
};
pub use config::{OracleConfig, Tolerances};
pub use layers::{measure, measure_with, sim_executor, LayerMeasurement, OracleError};
pub use minimize::{minimize, MinimalCase};
pub use scenario::{scenario, Scenario};
pub use sweep::{evaluate, run_scenario, run_sweep, DivergentCase, ScenarioReport, SweepReport};
