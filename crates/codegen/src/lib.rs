//! # spinstreams-codegen
//!
//! Code generation: from an *optimized abstract topology* to an executable
//! deployment — the analogue of the paper's SS2Akka code generator (§4.2).
//!
//! The generator consumes:
//!
//! * the abstract [`Topology`] (operator kinds + factory parameters in each
//!   spec, as produced by hand, by `spinstreams-topogen`, or parsed from
//!   XML),
//! * a replication degree per operator (from Algorithm 2's
//!   [`FissionPlan`]), and
//! * a set of [`FusionGroup`]s (from Algorithm 3 / the user),
//!
//! and produces an [`ActorGraph`] for `spinstreams-runtime` in which:
//!
//! * every single-replica operator becomes one worker actor;
//! * every replicated operator becomes `n` replica actors behind an
//!   *emitter* (round-robin for stateless, key-hash for
//!   partitioned-stateful, §4.2 "Generation of parallel operators") and a
//!   *collector*;
//! * every fusion group becomes one actor executing a [`MetaOperator`]
//!   (Algorithm 4, "Generation with operator fusion").
//!
//! [`emit_rust_source`] additionally renders the deployment as a standalone
//! Rust program — the human-readable artifact corresponding to the
//! generated Akka classes.
//!
//! [`Topology`]: spinstreams_core::Topology
//! [`FissionPlan`]: spinstreams_analysis::FissionPlan
//! [`ActorGraph`]: spinstreams_runtime::ActorGraph
//! [`MetaOperator`]: spinstreams_runtime::MetaOperator

#![warn(missing_docs)]

mod build;
mod emit;
mod serialize;

pub use build::{
    build_actor_graph, ActorCounters, CodegenError, CodegenOptions, FusionGroup, GeneratedPlan,
};
pub use emit::emit_rust_source;
pub use serialize::{checksum, plan_cache_key, serialize_plan, serialize_topology};
