//! # spinstreams-runtime
//!
//! An actor-based streaming runtime — the from-scratch Rust analogue of the
//! Akka substrate the paper evaluates on (§4.2, §5.1).
//!
//! The runtime reproduces exactly the execution semantics SpinStreams' cost
//! models assume:
//!
//! * **Actors with bounded blocking mailboxes.** Each operator (or operator
//!   replica) is an actor draining a bounded FIFO [`mailbox`](channel);
//!   actors run on a cooperative worker pool ([`ExecutorKind`]), or on the
//!   discrete-event simulator, whose model gives every actor a dedicated
//!   server. A send into a full mailbox blocks the sender —
//!   *Blocking After Service* (BAS, §3) — with a configurable timeout after
//!   which the item is dropped, mirroring Akka's `BoundedMailbox` setup of
//!   §5.1.
//! * **Operators decoupled from actors** (the SS2Akka layer, §4.2). User
//!   logic implements [`StreamOperator`]; the runtime decides whether it
//!   runs as a plain actor, as `n` replicas behind *emitter*/*collector*
//!   actors, or fused inside a [`MetaOperator`] executing Algorithm 4.
//! * **Measured steady-state rates.** Every actor records arrival/departure
//!   counts and first/last activity timestamps, from which the engine
//!   derives per-operator measured departure rates and the topology
//!   throughput — the quantities compared against the model in §5.2.
//!
//! # Example
//!
//! ```
//! use spinstreams_runtime::{ActorGraph, Behavior, EngineConfig, Route, SourceConfig};
//! use spinstreams_runtime::operators::PassThrough;
//!
//! // source -> pass-through sink, 1000 items at 10k items/s.
//! let mut g = ActorGraph::new();
//! let src = g.add_actor(
//!     "src",
//!     Behavior::Source(SourceConfig::new(10_000.0, 1_000)),
//! );
//! let sink = g.add_actor("sink", Behavior::worker(PassThrough::default()));
//! g.connect(src, Route::Unicast(sink));
//!
//! let report = spinstreams_runtime::run(g, &EngineConfig::default()).unwrap();
//! assert_eq!(report.actor(sink).items_in, 1_000);
//! ```
//!
//! # Fault tolerance
//!
//! Worker actors are *supervised*, Akka-style. The threaded engine wraps
//! each run of data envelopes a worker drains in one `catch_unwind`, with
//! one [`StreamOperator::process`] call per item inside it; a panicking
//! operator never takes its actor thread — let alone the process — down.
//! The panic is charged to the one item in flight, and the actor's
//! [`SupervisorSpec`] decides what happens next:
//!
//! * [`SupervisionPolicy::Resume`] — drop the poisoned item, keep state;
//! * [`SupervisionPolicy::Restart`] — re-instantiate the operator (via a
//!   registered [`OperatorFactory`], or [`StreamOperator::reset`]), with a
//!   restart budget and exponential [`Backoff`] with jitter;
//! * [`SupervisionPolicy::Stop`] (the default) — stop the operator and
//!   degrade: forward input as an identity or drop it, per
//!   [`DegradePolicy`].
//!
//! Every item the runtime fails to deliver — send-timeout drops, routes
//! into disconnected actors, items consumed by panics, items arriving at
//! stopped actors — is recorded in the report's [`DeadLetterLog`] with its
//! source, destination and reason, and counted per actor
//! ([`ActorReport::panics`], [`ActorReport::restarts`],
//! [`ActorReport::backoff`], [`ActorReport::dead_letters`]). Chaos
//! experiments drive all of this with the seeded
//! [`operators::FaultInjector`] wrapper.
//!
//! ```
//! use spinstreams_runtime::supervision::SupervisorSpec;
//! use spinstreams_runtime::{ActorGraph, Behavior, EngineConfig, Route, SourceConfig};
//! use spinstreams_runtime::operators::{PassThrough, FaultInjector, FaultConfig};
//!
//! // source -> flaky worker -> sink; the worker panics on ~10% of items.
//! let mut g = ActorGraph::new();
//! let src = g.add_actor("src", Behavior::Source(SourceConfig::new(f64::INFINITY, 500)));
//! let flaky = g.add_actor(
//!     "flaky",
//!     Behavior::Worker(Box::new(FaultInjector::new(
//!         PassThrough,
//!         FaultConfig::panics(0.1, 42),
//!     ))),
//! );
//! let sink = g.add_actor("sink", Behavior::worker(PassThrough));
//! g.connect(src, Route::Unicast(flaky));
//! g.connect(flaky, Route::Unicast(sink));
//! g.set_supervision(flaky, SupervisorSpec::resume());
//!
//! let report = spinstreams_runtime::run(g, &EngineConfig::default()).unwrap();
//! let panics = report.actor(flaky).panics;
//! assert!(panics > 0, "the injector fires with p=0.1 over 500 items");
//! // Poisoned items become dead letters; the rest reach the sink.
//! assert_eq!(report.dead_letters.total(), panics);
//! assert_eq!(report.actor(sink).items_in, 500 - panics);
//! ```

#![warn(missing_docs)]

pub mod affinity;
pub mod checkpoint;
mod engine;
mod graph;
mod mailbox;
mod meta;
mod metrics;
mod operator;
pub mod operators;
mod profiler;
pub mod reconfig;
mod rng;
mod route;
mod sim;
pub mod supervision;
pub mod telemetry;

pub use affinity::PinningConfig;
pub use checkpoint::{CheckpointCoordinator, ReplayBuffer, SnapshotReader, StateSnapshot};
pub use engine::{
    run, run_tenants, run_with_telemetry, EngineConfig, EngineError, ExecutorKind, TenantRun,
    TenantSpec,
};
pub use graph::{ActorGraph, ActorId, Behavior, SourceConfig};
pub use mailbox::{
    channel, channel_spsc, BatchFailure, BatchOutcome, BatchPool, Drained, Envelope, Receiver,
    Sender,
};
pub use meta::{MetaDest, MetaOperator, MetaRoute};
pub use metrics::{ActorReport, Counter, CounterKind, CounterSpec, Counters, RunReport, COUNTERS};
pub use operator::{Outputs, StreamOperator, DEFAULT_PORT};
pub use profiler::{profile_operator, sample_stream, ProfileResult};
pub use reconfig::{KeyHandoff, ReconfigHandle, ReconfigOp};
pub use rng::XorShift64;
pub use route::Route;
pub use sim::{
    execute, execute_with_telemetry, simulate, simulate_with_telemetry, Executor, SimConfig,
};
pub use supervision::{
    Backoff, DeadLetter, DeadLetterLog, DeadLetterReason, DegradePolicy, OperatorFactory,
    RestartPolicy, SupervisionPolicy, SupervisorSpec,
};
pub use telemetry::{
    assemble_spans, LatencyHistogram, LatencySnapshot, SpanHop, SpanPath, TelemetryConfig,
    TelemetryReport, TelemetrySnapshot, TraceEvent, TraceEventKind, TraceLog,
};
