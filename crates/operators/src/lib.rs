//! # spinstreams-operators
//!
//! The library of real-world streaming operators used by the paper's
//! evaluation (§5.1): "20 different real-world operators — stateless
//! operators like filters and maps, stateful operators based on count-based
//! windows for aggregation tasks (weighted moving average, sum, max, min and
//! quantiles), spatial queries (skyline and top-k) and join operators
//! performing band-join predicates on count-based windows."
//!
//! Every operator implements the runtime's [`StreamOperator`] trait and does
//! *real* computation on [`Tuple`] attributes; service times therefore come
//! from profiling (as in the paper's workflow), not from hardcoded model
//! numbers. An optional `extra work` knob adds calibrated CPU time per item
//! so test topologies can exhibit heterogeneous rates.
//!
//! The registry ([`OperatorKind`], [`build_operator`]) maps symbolic kinds to factories and
//! to abstract metadata (state class, selectivity) — the bridge between the
//! analytical topology model and the executable runtime, playing the role
//! of the paper's XML `type=` attributes plus `.class` files (§4.1).
//!
//! [`StreamOperator`]: spinstreams_runtime::StreamOperator
//! [`Tuple`]: spinstreams_core::Tuple

#![warn(missing_docs)]

mod aggregates;
mod join;
mod registry;
mod spatial;
mod stateful;
mod stateless;
mod window;

pub use aggregates::{Aggregation, WindowedAggregate, WindowedQuantile};
pub use join::{BandJoin, EquiJoin};
pub use registry::{build_operator, OperatorKind, OperatorParams};
pub use spatial::{Skyline, TopK};
pub use stateful::{DeltaFilter, DistinctCount};
pub use stateless::{
    ArithmeticMap, Enricher, Filter, FlatMap, IdentityMap, KeyRouter, Projection, Sampler,
};
pub use window::{CountWindow, KeyedWindows};
