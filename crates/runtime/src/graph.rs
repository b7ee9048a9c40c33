//! The actor graph executed by the engine.
//!
//! This is the *deployed* form of a topology: after code generation, every
//! logical operator has become one or more actors (workers, replicas,
//! emitters, collectors, meta-operators), connected by routes. The engine
//! gives each actor a bounded mailbox and a dedicated thread.

use crate::supervision::{OperatorFactory, SupervisorSpec};
use crate::{Route, StreamOperator};
use spinstreams_core::KeyDistribution;
use std::fmt;

/// Identifier of an actor within one [`ActorGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ActorId(pub usize);

impl ActorId {
    /// The underlying index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for ActorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "actor{}", self.0)
    }
}

/// Configuration of a source actor: the stream generator.
#[derive(Debug, Clone)]
pub struct SourceConfig {
    /// Nominal generation rate in items/s (`f64::INFINITY` = as fast as
    /// possible). Backpressure can force the actual rate lower.
    ///
    /// A finite rate is an absolute schedule: item `i` is due `i / rate`
    /// seconds after the source starts. The wall-clock engine keeps it as
    /// follows:
    ///
    /// * the source is never ahead of its schedule, only behind it;
    /// * it reads the clock once per burst of at most `batch_size` items
    ///   to learn how many are due, and sleeps only when none is;
    /// * after falling more than 50 ms behind (backpressure, not timer
    ///   jitter) it re-bases the schedule at the current time instead of
    ///   bursting to catch up;
    /// * with telemetry on, a paced source stamps each item at its
    ///   emission, while an unpaced one stamps each burst with one reading.
    pub rate: f64,
    /// Total number of items to generate before signalling end-of-stream.
    pub count: u64,
    /// Distribution of partitioning keys (`None` = key equals the sequence
    /// number).
    pub keys: Option<KeyDistribution>,
    /// RNG seed for keys and attribute values.
    pub seed: u64,
}

impl SourceConfig {
    /// Creates a source generating `count` items at `rate` items/s with
    /// uniform random attributes in `[0, 1)`.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not positive.
    pub fn new(rate: f64, count: u64) -> Self {
        assert!(rate > 0.0, "source rate must be positive");
        SourceConfig {
            rate,
            count,
            keys: None,
            seed: 0x5EED,
        }
    }

    /// Sets the key distribution (builder style).
    pub fn with_keys(mut self, keys: KeyDistribution) -> Self {
        self.keys = Some(keys);
        self
    }

    /// Sets the RNG seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// What an actor does with the items in its mailbox.
pub enum Behavior {
    /// Generates the stream (no mailbox).
    Source(SourceConfig),
    /// Executes a [`StreamOperator`] on every received item.
    Worker(Box<dyn StreamOperator>),
}

impl Behavior {
    /// Convenience constructor boxing a concrete operator.
    pub fn worker(op: impl StreamOperator + 'static) -> Self {
        Behavior::Worker(Box::new(op))
    }

    /// True for [`Behavior::Source`].
    pub fn is_source(&self) -> bool {
        matches!(self, Behavior::Source(_))
    }
}

impl fmt::Debug for Behavior {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Behavior::Source(cfg) => f.debug_tuple("Source").field(cfg).finish(),
            Behavior::Worker(op) => f.debug_tuple("Worker").field(&op.name()).finish(),
        }
    }
}

/// One actor: a behavior plus the routes of its logical output ports.
#[derive(Debug)]
pub struct ActorSpec {
    /// Diagnostic name (shows up in reports).
    pub name: String,
    /// The actor's behavior.
    pub behavior: Behavior,
    /// Route per logical output port (`routes[p]` serves port `p`).
    pub routes: Vec<Route>,
    /// Mailbox capacity override (`None` = engine default).
    pub mailbox_capacity: Option<usize>,
    /// Supervision configuration (panic directive + degraded mode).
    pub supervision: SupervisorSpec,
    /// Factory re-instantiating the operator on `Restart` (`None` = fall
    /// back to [`StreamOperator::reset`]).
    pub factory: Option<OperatorFactory>,
}

/// A graph of actors ready to execute.
///
/// Built either directly (tests, micro-benchmarks) or by the code generator
/// from an optimized topology.
#[derive(Debug, Default)]
pub struct ActorGraph {
    actors: Vec<ActorSpec>,
}

impl ActorGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an actor, returning its id.
    pub fn add_actor(&mut self, name: impl Into<String>, behavior: Behavior) -> ActorId {
        self.actors.push(ActorSpec {
            name: name.into(),
            behavior,
            routes: Vec::new(),
            mailbox_capacity: None,
            supervision: SupervisorSpec::default(),
            factory: None,
        });
        ActorId(self.actors.len() - 1)
    }

    /// Appends an output route to `actor`; the route serves the next free
    /// logical port, whose index is returned.
    ///
    /// # Panics
    ///
    /// Panics if `actor` is out of range.
    pub fn connect(&mut self, actor: ActorId, route: Route) -> usize {
        let spec = &mut self.actors[actor.0];
        spec.routes.push(route);
        spec.routes.len() - 1
    }

    /// Overrides the mailbox capacity of `actor`.
    ///
    /// # Panics
    ///
    /// Panics if `actor` is out of range or `capacity` is zero.
    pub fn set_mailbox_capacity(&mut self, actor: ActorId, capacity: usize) {
        assert!(capacity > 0, "mailbox capacity must be positive");
        self.actors[actor.0].mailbox_capacity = Some(capacity);
    }

    /// Sets the supervision configuration of `actor`.
    ///
    /// # Panics
    ///
    /// Panics if `actor` is out of range.
    pub fn set_supervision(&mut self, actor: ActorId, supervision: SupervisorSpec) {
        self.actors[actor.0].supervision = supervision;
    }

    /// Sets the supervision configuration of every worker actor.
    pub fn set_supervision_all(&mut self, supervision: &SupervisorSpec) {
        for spec in &mut self.actors {
            if !spec.behavior.is_source() {
                spec.supervision = supervision.clone();
            }
        }
    }

    /// Registers a factory producing fresh operator instances for `actor`,
    /// used by the `Restart` directive instead of
    /// [`StreamOperator::reset`].
    ///
    /// # Panics
    ///
    /// Panics if `actor` is out of range.
    pub fn set_restart_factory(&mut self, actor: ActorId, factory: OperatorFactory) {
        self.actors[actor.0].factory = Some(factory);
    }

    /// Replaces every worker operator with `f(id, operator)` — the hook the
    /// chaos harness uses to wrap operators in fault injectors without
    /// rebuilding the graph.
    pub fn map_workers(
        &mut self,
        mut f: impl FnMut(ActorId, Box<dyn StreamOperator>) -> Box<dyn StreamOperator>,
    ) {
        for (i, spec) in self.actors.iter_mut().enumerate() {
            if let Behavior::Worker(op) = &mut spec.behavior {
                let inner = std::mem::replace(op, Box::new(crate::operators::PassThrough));
                *op = f(ActorId(i), inner);
            }
        }
    }

    /// Number of actors.
    pub fn num_actors(&self) -> usize {
        self.actors.len()
    }

    /// Immutable access to the actor specs.
    pub fn actors(&self) -> &[ActorSpec] {
        &self.actors
    }

    /// Consumes the graph into its actor specs (used by the engine).
    pub(crate) fn into_actors(self) -> Vec<ActorSpec> {
        self.actors
    }

    /// The ids of all source actors.
    pub fn sources(&self) -> Vec<ActorId> {
        self.actors
            .iter()
            .enumerate()
            .filter(|(_, a)| a.behavior.is_source())
            .map(|(i, _)| ActorId(i))
            .collect()
    }

    /// In-degree per actor: the number of distinct upstream actors that can
    /// deliver to it (each sends one EOS marker at termination).
    pub fn in_degrees(&self) -> Vec<usize> {
        let n = self.actors.len();
        let mut deg = vec![0usize; n];
        for spec in &self.actors {
            let mut dests: Vec<usize> = spec
                .routes
                .iter()
                .flat_map(|r| r.destinations_iter())
                .map(|d| d.0)
                .collect();
            dests.sort_unstable();
            dests.dedup();
            for d in dests {
                if d < n {
                    deg[d] += 1;
                }
            }
        }
        deg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::PassThrough;

    #[test]
    fn build_simple_graph() {
        let mut g = ActorGraph::new();
        let s = g.add_actor("src", Behavior::Source(SourceConfig::new(100.0, 10)));
        let w = g.add_actor("w", Behavior::worker(PassThrough));
        let port = g.connect(s, Route::Unicast(w));
        assert_eq!(port, 0);
        assert_eq!(g.num_actors(), 2);
        assert_eq!(g.sources(), vec![s]);
        assert_eq!(g.in_degrees(), vec![0, 1]);
    }

    #[test]
    fn in_degree_counts_distinct_upstreams_once() {
        let mut g = ActorGraph::new();
        let s = g.add_actor("src", Behavior::Source(SourceConfig::new(100.0, 10)));
        let a = g.add_actor("a", Behavior::worker(PassThrough));
        let b = g.add_actor("b", Behavior::worker(PassThrough));
        // Source has two ports both able to reach b: still one EOS from s.
        g.connect(s, Route::Unicast(a));
        g.connect(
            s,
            Route::Probabilistic {
                choices: vec![(a, 0.5), (b, 0.5)],
            },
        );
        g.connect(a, Route::Unicast(b));
        assert_eq!(g.in_degrees(), vec![0, 1, 2]);
    }

    #[test]
    fn multiple_ports_get_increasing_indices() {
        let mut g = ActorGraph::new();
        let s = g.add_actor("src", Behavior::Source(SourceConfig::new(100.0, 1)));
        let a = g.add_actor("a", Behavior::worker(PassThrough));
        let b = g.add_actor("b", Behavior::worker(PassThrough));
        assert_eq!(g.connect(s, Route::Unicast(a)), 0);
        assert_eq!(g.connect(s, Route::Unicast(b)), 1);
        assert_eq!(g.actors()[s.0].routes.len(), 2);
    }

    #[test]
    fn source_config_builders() {
        let cfg = SourceConfig::new(10.0, 5)
            .with_seed(9)
            .with_keys(KeyDistribution::uniform(4));
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.keys.as_ref().unwrap().num_keys(), 4);
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn non_positive_rate_rejected() {
        SourceConfig::new(0.0, 1);
    }

    #[test]
    fn behavior_debug_and_predicates() {
        let src = Behavior::Source(SourceConfig::new(1.0, 1));
        assert!(src.is_source());
        let w = Behavior::worker(PassThrough);
        assert!(!w.is_source());
        assert!(format!("{w:?}").contains("Worker"));
    }
}
