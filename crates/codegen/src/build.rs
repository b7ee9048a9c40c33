//! Deployment construction: topology → actor graph.

use spinstreams_analysis::{key_partitioning, OperatorCounters};
use spinstreams_core::{KeyDistribution, OperatorId, StateClass, Topology};
use spinstreams_operators::{build_operator, OperatorKind, OperatorParams};
use spinstreams_runtime::operators::PassThrough;
use spinstreams_runtime::{
    ActorGraph, ActorId, Behavior, MetaDest, MetaOperator, MetaRoute, Route, RunReport,
    SourceConfig, StreamOperator, TelemetrySnapshot,
};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A sub-graph to deploy as one fused meta-operator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FusionGroup {
    /// The member operators (must not include the source).
    pub members: BTreeSet<OperatorId>,
    /// The unique front-end member.
    pub front: OperatorId,
}

/// Options for the generated deployment.
#[derive(Debug, Clone)]
pub struct CodegenOptions {
    /// Number of items the source generates.
    pub items: u64,
    /// RNG seed for the source's keys/values (and the meta-operators'
    /// internal routing).
    pub seed: u64,
    /// Pre-provisioned replica *slots* per operator (empty = exactly the
    /// active degrees). A slot count above the active degree deploys spare
    /// replica actors up front — wired for EOS and checkpoint markers via a
    /// never-emitting emitter port, but receiving no data — so an adaptive
    /// re-scale is a pure route swap with no graph surgery (the Flink
    /// max-parallelism trick). Entries below the active degree are raised
    /// to it; the source cannot be provisioned.
    pub provision: Vec<usize>,
}

impl Default for CodegenOptions {
    fn default() -> Self {
        CodegenOptions {
            items: 10_000,
            seed: 0xFEED,
            provision: Vec::new(),
        }
    }
}

/// Why code generation failed.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CodegenError {
    /// `replicas` does not have one entry per operator, or an entry is 0.
    BadReplicaVector {
        /// Description of the problem.
        reason: String,
    },
    /// An operator's `kind` tag is empty or unknown to the registry.
    UnknownKind {
        /// The operator.
        operator: OperatorId,
        /// The offending tag.
        kind: String,
    },
    /// A fusion group is structurally invalid (overlap, contains the
    /// source, front not a member, or an external edge enters a non-front
    /// member).
    BadFusionGroup {
        /// Description of the problem.
        reason: String,
    },
    /// The source would emit at a rate the runtime cannot pace: zero (an
    /// output selectivity of 0), negative, or NaN.
    BadSourceRate {
        /// The source operator.
        operator: OperatorId,
        /// Its emission rate, items/s.
        rate: f64,
    },
}

impl fmt::Display for CodegenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodegenError::BadReplicaVector { reason } => {
                write!(f, "bad replica vector: {reason}")
            }
            CodegenError::UnknownKind { operator, kind } => {
                write!(f, "operator {operator} has unknown kind {kind:?}")
            }
            CodegenError::BadFusionGroup { reason } => write!(f, "bad fusion group: {reason}"),
            CodegenError::BadSourceRate { operator, rate } => {
                write!(
                    f,
                    "source {operator} emits at {rate} items/s; it must be positive"
                )
            }
        }
    }
}

impl std::error::Error for CodegenError {}

/// The generated deployment.
#[derive(Debug)]
pub struct GeneratedPlan {
    /// The executable actor graph.
    pub graph: ActorGraph,
    /// For each original operator, the actor whose `items_out` measures the
    /// operator's logical *departure rate*: the worker itself, the
    /// collector of a replicated operator, or the meta actor of its fusion
    /// group.
    pub departure_actor: Vec<ActorId>,
    /// For each original operator, the actor receiving its logical input
    /// stream (worker, emitter, or meta actor).
    pub input_actor: Vec<ActorId>,
    /// Every replica slot (active then spare, in slot order) of each
    /// operator deployed behind an emitter/collector pair; empty for plain
    /// and fused operators.
    pub replica_slots: Vec<Vec<ActorId>>,
    /// The emitter in front of each replicated operator, if any — the actor
    /// reconfiguration ops are posted to.
    pub emitter_actor: Vec<Option<ActorId>>,
    /// The collector behind each replicated operator, if any.
    pub collector_actor: Vec<Option<ActorId>>,
    /// The *active* replication degree each operator was built with.
    pub active_replicas: Vec<usize>,
    /// Total number of actors (including emitters/collectors and spare
    /// slots).
    pub num_actors: usize,
    /// The topology's source operator.
    pub source: OperatorId,
}

/// Per-actor cumulative counters, as a finished run's [`RunReport`] or a
/// [`TelemetrySnapshot`] holds them.
pub trait ActorCounters {
    /// The counters of one actor; its busy time is always observed.
    fn actor_counters(&self, actor: ActorId) -> OperatorCounters;
}

impl ActorCounters for RunReport {
    fn actor_counters(&self, actor: ActorId) -> OperatorCounters {
        let a = self.actor(actor);
        OperatorCounters {
            items_in: a.items_in,
            items_out: a.items_out,
            busy_ns: Some(a.busy.as_nanos() as u64),
        }
    }
}

impl ActorCounters for TelemetrySnapshot {
    fn actor_counters(&self, actor: ActorId) -> OperatorCounters {
        let a = &self.actors[actor.0];
        OperatorCounters {
            items_in: a.items_in,
            items_out: a.items_out,
            busy_ns: Some(a.busy_ns),
        }
    }
}

impl GeneratedPlan {
    /// Maps per-actor counters onto the topology's operators, indexed by
    /// operator id — the one map from a deployment's actors to the §4.1
    /// counters of its operators. `items_in` comes from the operator's
    /// input actor and `items_out` from its departure actor. `busy_ns` is
    /// the busy time of a plain operator's actor, the sum over a
    /// replicated operator's replica slots, and `None` for the source and
    /// for a fused member (they have no service actor of their own).
    pub fn operator_counters(&self, actors: &impl ActorCounters) -> Vec<OperatorCounters> {
        let mut sharing = vec![0usize; self.num_actors];
        for a in &self.input_actor {
            sharing[a.0] += 1;
        }
        (0..self.input_actor.len())
            .map(|i| {
                let input = actors.actor_counters(self.input_actor[i]);
                let slots = &self.replica_slots[i];
                let busy_ns = if !slots.is_empty() {
                    slots
                        .iter()
                        .map(|&a| actors.actor_counters(a).busy_ns)
                        .sum()
                } else if i == self.source.0 || sharing[self.input_actor[i].0] > 1 {
                    None
                } else {
                    input.busy_ns
                };
                OperatorCounters {
                    items_in: input.items_in,
                    items_out: actors.actor_counters(self.departure_actor[i]).items_out,
                    busy_ns,
                }
            })
            .collect()
    }

    /// The busy time of every operator deployed as one unfused,
    /// unreplicated actor, from counters mapped by
    /// [`operator_counters`](Self::operator_counters) — the operators that
    /// have a busy fraction of one actor. `None` for the source, fused
    /// members and replicated operators.
    pub fn single_actor_busy_ns(&self, counters: &[OperatorCounters]) -> Vec<Option<u64>> {
        counters
            .iter()
            .zip(&self.replica_slots)
            .map(|(c, slots)| c.busy_ns.filter(|_| slots.is_empty()))
            .collect()
    }
}

fn instantiate(topo: &Topology, id: OperatorId) -> Result<Box<dyn StreamOperator>, CodegenError> {
    let spec = topo.operator(id);
    let kind: OperatorKind = spec.kind.parse().map_err(|_| CodegenError::UnknownKind {
        operator: id,
        kind: spec.kind.clone(),
    })?;
    Ok(build_operator(
        kind,
        &OperatorParams::from_spec_params(&spec.params),
    ))
}

/// Builds the executable actor graph for `topo`.
///
/// * `source_keys` — key distribution for the source's generated stream;
/// * `replicas` — replication degree per operator (`&[]` = all ones);
/// * `fusions` — disjoint fusion groups to deploy as meta-operators.
///
/// # Errors
///
/// See [`CodegenError`].
pub fn build_actor_graph(
    topo: &Topology,
    source_keys: Option<KeyDistribution>,
    replicas: &[usize],
    fusions: &[FusionGroup],
    opts: &CodegenOptions,
) -> Result<GeneratedPlan, CodegenError> {
    let n = topo.num_operators();
    let ones = vec![1usize; n];
    let replicas: &[usize] = if replicas.is_empty() { &ones } else { replicas };
    if replicas.len() != n {
        return Err(CodegenError::BadReplicaVector {
            reason: format!("{} entries for {} operators", replicas.len(), n),
        });
    }
    if let Some(zero) = replicas.iter().position(|r| *r == 0) {
        return Err(CodegenError::BadReplicaVector {
            reason: format!("operator {zero} has replication degree 0"),
        });
    }
    if replicas[topo.source().0] != 1 {
        return Err(CodegenError::BadReplicaVector {
            reason: "the source cannot be replicated".into(),
        });
    }
    if !opts.provision.is_empty() {
        if opts.provision.len() != n {
            return Err(CodegenError::BadReplicaVector {
                reason: format!(
                    "{} provision entries for {} operators",
                    opts.provision.len(),
                    n
                ),
            });
        }
        if opts.provision[topo.source().0] > 1 {
            return Err(CodegenError::BadReplicaVector {
                reason: "the source cannot be provisioned with spare slots".into(),
            });
        }
    }
    // Slots per operator: the active degree, plus any provisioned spares.
    let slots_of = |i: usize| opts.provision.get(i).copied().unwrap_or(0).max(replicas[i]);

    // Validate fusion groups.
    let mut group_of: BTreeMap<OperatorId, usize> = BTreeMap::new();
    for (gi, g) in fusions.iter().enumerate() {
        if !g.members.contains(&g.front) {
            return Err(CodegenError::BadFusionGroup {
                reason: format!("front {} is not a member", g.front),
            });
        }
        if g.members.contains(&topo.source()) {
            return Err(CodegenError::BadFusionGroup {
                reason: "fusion group contains the source".into(),
            });
        }
        for m in &g.members {
            if m.0 >= n {
                return Err(CodegenError::BadFusionGroup {
                    reason: format!("unknown member {m}"),
                });
            }
            if slots_of(m.0) != 1 {
                return Err(CodegenError::BadFusionGroup {
                    reason: format!(
                        "member {m} is replicated or provisioned; meta-operators cannot be fissioned"
                    ),
                });
            }
            if group_of.insert(*m, gi).is_some() {
                return Err(CodegenError::BadFusionGroup {
                    reason: format!("operator {m} belongs to two fusion groups"),
                });
            }
            // External edges may only enter through the front.
            if *m != g.front {
                for &e in topo.in_edges(*m) {
                    if !g.members.contains(&topo.edge(e).from) {
                        return Err(CodegenError::BadFusionGroup {
                            reason: format!("external edge enters non-front member {m}"),
                        });
                    }
                }
            }
        }
    }

    let mut graph = ActorGraph::new();
    let mut input_actor = vec![ActorId(usize::MAX); n];
    let mut departure_actor = vec![ActorId(usize::MAX); n];
    // Per original operator: the actor that performs its *output routing*
    // (route configured later, once all input actors exist), or, for fused
    // members, deferred to the meta actor's external ports.
    let mut routing_actor = vec![None::<ActorId>; n];
    // Replica actors of replicated ops (to wire replica -> collector).
    let mut replica_actors: Vec<Vec<ActorId>> = vec![Vec::new(); n];
    let mut collector_actor = vec![None::<ActorId>; n];
    let mut emitter_actor = vec![None::<ActorId>; n];
    // Meta actor per fusion group + its external edge->port map.
    let mut meta_actor: Vec<Option<ActorId>> = vec![None; fusions.len()];
    let mut meta_external: Vec<Vec<(OperatorId, OperatorId, f64, usize)>> =
        vec![Vec::new(); fusions.len()];

    // --- Create actors -----------------------------------------------------
    for id in topo.operator_ids() {
        let spec = topo.operator(id);
        if id == topo.source() {
            // The source ingests at µ but *emits* at µ scaled by its own
            // selectivity rate factor (§3.4 applies selectivity to
            // departures); the runtime source only models the emission side.
            let emit_rate = spec.service_rate().items_per_sec() * spec.selectivity.rate_factor();
            if emit_rate.is_nan() || emit_rate <= 0.0 {
                return Err(CodegenError::BadSourceRate {
                    operator: id,
                    rate: emit_rate,
                });
            }
            let mut cfg = SourceConfig::new(emit_rate, opts.items).with_seed(opts.seed);
            if let Some(keys) = &source_keys {
                cfg = cfg.with_keys(keys.clone());
            }
            let a = graph.add_actor(spec.name.clone(), Behavior::Source(cfg));
            input_actor[id.0] = a;
            departure_actor[id.0] = a;
            routing_actor[id.0] = Some(a);
            continue;
        }
        if let Some(&gi) = group_of.get(&id) {
            // Member of a fusion group: the group's meta actor is created
            // when its front is visited (BTreeSet order is stable).
            if fusions[gi].front == id {
                let g = &fusions[gi];
                let members: Vec<OperatorId> = g.members.iter().cloned().collect();
                let index_of = |m: OperatorId| members.iter().position(|x| *x == m).unwrap();
                // External edges get sequential meta output ports.
                let mut externals: Vec<(OperatorId, OperatorId, f64, usize)> = Vec::new();
                for e in topo.edges() {
                    if g.members.contains(&e.from) && !g.members.contains(&e.to) {
                        let port = externals.len();
                        externals.push((e.from, e.to, e.probability, port));
                    }
                }
                // Internal routing tables (member port 0 only — all library
                // operators emit on the default port).
                let mut routes: Vec<Vec<MetaRoute>> = Vec::with_capacity(members.len());
                let mut ops: Vec<Box<dyn StreamOperator>> = Vec::with_capacity(members.len());
                for &m in &members {
                    ops.push(instantiate(topo, m)?);
                    let mut choices: Vec<(MetaDest, f64)> = Vec::new();
                    for &eid in topo.out_edges(m) {
                        let e = topo.edge(eid);
                        let dest = if g.members.contains(&e.to) {
                            MetaDest::Member(index_of(e.to))
                        } else {
                            let port = externals
                                .iter()
                                .find(|(f2, t2, _, _)| *f2 == m && *t2 == e.to)
                                .map(|(_, _, _, p)| *p)
                                .expect("external edge registered");
                            MetaDest::Output(port)
                        };
                        choices.push((dest, e.probability));
                    }
                    let table = match choices.len() {
                        // A topology sink: its emissions leave on the port
                        // past the external edges, which has no route, so
                        // the meta actor counts them as departures (and
                        // samples their latency) as a sink actor would.
                        0 => vec![MetaRoute::Unicast(MetaDest::Output(externals.len()))],
                        1 => vec![MetaRoute::Unicast(choices[0].0)],
                        _ => vec![MetaRoute::Probabilistic { choices }],
                    };
                    routes.push(table);
                }
                let fused_names: Vec<&str> = members
                    .iter()
                    .map(|m| topo.operator(*m).name.as_str())
                    .collect();
                let fused_name = format!("F({})", fused_names.join("+"));
                let op = MetaOperator::new(
                    fused_name,
                    ops,
                    routes,
                    index_of(g.front),
                    opts.seed ^ (0x4D45_5441 + gi as u64),
                );
                let a = graph.add_actor(format!("meta-g{gi}"), Behavior::worker(op));
                meta_actor[gi] = Some(a);
                meta_external[gi] = externals;
                for &m in &members {
                    input_actor[m.0] = a;
                    departure_actor[m.0] = a;
                }
            }
            continue;
        }
        let nrep = replicas[id.0];
        let slots = slots_of(id.0);
        if slots == 1 {
            let a = graph.add_actor(spec.name.clone(), Behavior::Worker(instantiate(topo, id)?));
            input_actor[id.0] = a;
            departure_actor[id.0] = a;
            routing_actor[id.0] = Some(a);
        } else {
            // Emitter -> n replicas -> collector (§4.2), plus any spare
            // provisioned slots behind the same pair.
            let emitter = graph.add_actor(
                format!("{}-emitter", spec.name),
                Behavior::worker(PassThrough),
            );
            let mut reps = Vec::with_capacity(slots);
            for r in 0..slots {
                let a = graph.add_actor(
                    format!("{}-r{r}", spec.name),
                    Behavior::Worker(instantiate(topo, id)?),
                );
                reps.push(a);
            }
            let collector = graph.add_actor(
                format!("{}-collector", spec.name),
                Behavior::worker(PassThrough),
            );
            // Emitter policy: round-robin for stateless, key map for
            // partitioned-stateful. Only the first `nrep` slots carry data.
            let active = &reps[..nrep];
            let route = match &spec.state {
                StateClass::PartitionedStateful { keys } => {
                    let assign = key_partitioning(keys, nrep);
                    // `assign.replicas` may be < nrep for tiny key spaces;
                    // use only the replicas the assignment references.
                    Route::KeyMap {
                        key_map: assign.owner.clone(),
                        destinations: active[..assign.replicas].to_vec(),
                    }
                }
                _ if nrep == 1 => Route::Unicast(active[0]),
                _ => Route::RoundRobin(active.to_vec()),
            };
            graph.connect(emitter, route);
            if slots > nrep {
                // Spare slots hang off a port the pass-through emitter never
                // emits on: no data flows, but the slots are wired senders
                // and EOS/marker targets, so they stay alive, aligned with
                // every checkpoint, and reachable by a later route swap.
                graph.connect(emitter, Route::RoundRobin(reps[nrep..].to_vec()));
            }
            for &r in &reps {
                graph.connect(r, Route::Unicast(collector));
            }
            input_actor[id.0] = emitter;
            departure_actor[id.0] = collector;
            routing_actor[id.0] = Some(collector);
            replica_actors[id.0] = reps;
            emitter_actor[id.0] = Some(emitter);
            collector_actor[id.0] = Some(collector);
        }
    }

    // --- Wire the logical edges --------------------------------------------
    for id in topo.operator_ids() {
        if group_of.contains_key(&id) {
            continue; // fused members' outputs are wired via the meta actor
        }
        let Some(actor) = routing_actor[id.0] else {
            continue;
        };
        let outs = topo.out_edges(id);
        if outs.is_empty() {
            continue;
        }
        let choices: Vec<(ActorId, f64)> = outs
            .iter()
            .map(|&eid| {
                let e = topo.edge(eid);
                (input_actor[e.to.0], e.probability)
            })
            .collect();
        let route = if choices.len() == 1 {
            Route::Unicast(choices[0].0)
        } else {
            Route::Probabilistic { choices }
        };
        graph.connect(actor, route);
    }
    // Meta actors: one route per external port, in port order.
    for (gi, externals) in meta_external.iter().enumerate() {
        if let Some(a) = meta_actor[gi] {
            for (_, to, _, _port) in externals {
                graph.connect(a, Route::Unicast(input_actor[to.0]));
            }
        }
    }

    let num_actors = graph.num_actors();
    Ok(GeneratedPlan {
        graph,
        departure_actor,
        input_actor,
        replica_slots: replica_actors,
        emitter_actor,
        collector_actor,
        active_replicas: replicas.to_vec(),
        num_actors,
        source: topo.source(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use spinstreams_core::{OperatorSpec, ServiceTime};
    use spinstreams_runtime::{run, EngineConfig};

    fn spec(name: &str, kind: &str, ms: f64) -> OperatorSpec {
        OperatorSpec::stateless(name, ServiceTime::from_millis(ms)).with_kind(kind)
    }

    /// source -> identity -> filter(0.5) -> sink(identity)
    fn small_topology() -> Topology {
        let mut b = Topology::builder();
        let s = b.add_operator(spec("src", "source", 0.05));
        let a = b.add_operator(spec("map", "identity-map", 0.01));
        let f = b.add_operator(
            spec("filter", "filter", 0.01)
                .with_param("threshold", 0.5)
                .with_selectivity(spinstreams_core::Selectivity::output(0.5)),
        );
        let k = b.add_operator(spec("sink", "identity-map", 0.01));
        b.add_edge(s, a, 1.0).unwrap();
        b.add_edge(a, f, 1.0).unwrap();
        b.add_edge(f, k, 1.0).unwrap();
        b.build().unwrap()
    }

    fn engine() -> EngineConfig {
        EngineConfig {
            mailbox_capacity: 64,
            ..Default::default()
        }
    }

    #[test]
    fn zero_rate_source_is_an_error_not_a_panic() {
        // Output selectivity 0 is valid in the model (the source emits
        // nothing), but the runtime cannot pace a source at rate 0.
        let mut b = Topology::builder();
        let s = b.add_operator(
            spec("src", "source", 0.05)
                .with_selectivity(spinstreams_core::Selectivity::output(0.0)),
        );
        let k = b.add_operator(spec("sink", "identity-map", 0.01));
        b.add_edge(s, k, 1.0).unwrap();
        let t = b.build().unwrap();
        let err = build_actor_graph(&t, None, &[], &[], &CodegenOptions::default()).unwrap_err();
        assert_eq!(
            err,
            CodegenError::BadSourceRate {
                operator: s,
                rate: 0.0
            }
        );
    }

    #[test]
    fn plain_topology_builds_one_actor_per_operator() {
        let t = small_topology();
        let plan = build_actor_graph(
            &t,
            None,
            &[],
            &[],
            &CodegenOptions {
                items: 500,
                seed: 1,
                ..CodegenOptions::default()
            },
        )
        .unwrap();
        assert_eq!(plan.num_actors, 4);
        let report = run(plan.graph, &engine()).unwrap();
        // Filter halves the stream.
        let sink_in = report.actor(plan.input_actor[3]).items_in;
        assert!((sink_in as f64 - 250.0).abs() < 40.0, "sink got {sink_in}");
        assert_eq!(report.actor(plan.departure_actor[1]).items_out, 500);
    }

    #[test]
    fn replicated_operator_gets_emitter_and_collector() {
        let t = small_topology();
        let plan = build_actor_graph(
            &t,
            None,
            &[1, 3, 1, 1],
            &[],
            &CodegenOptions {
                items: 600,
                seed: 2,
                ..CodegenOptions::default()
            },
        )
        .unwrap();
        // 4 logical - 1 replicated = 3 plain actors + 3 replicas + 2 aux.
        assert_eq!(plan.num_actors, 3 + 3 + 2);
        let report = run(plan.graph, &engine()).unwrap();
        // The collector sees every item exactly once.
        assert_eq!(report.actor(plan.departure_actor[1]).items_in, 600);
        assert_eq!(report.actor(plan.departure_actor[1]).items_out, 600);
    }

    #[test]
    fn partitioned_replicas_preserve_key_locality() {
        // keyed-sum with 2 replicas: every key must stay on one replica, so
        // per-key sums are identical to the unreplicated run.
        let mut b = Topology::builder();
        let s = b.add_operator(spec("src", "source", 0.05));
        let keys = KeyDistribution::uniform(8);
        let a = b.add_operator(
            OperatorSpec::partitioned("agg", ServiceTime::from_millis(0.01), keys.clone())
                .with_kind("keyed-sum")
                .with_param("window", 4.0)
                .with_param("slide", 4.0),
        );
        b.add_edge(s, a, 1.0).unwrap();
        let t = b.build().unwrap();
        let opts = CodegenOptions {
            items: 800,
            seed: 3,
            ..CodegenOptions::default()
        };
        let plan = build_actor_graph(&t, Some(keys), &[1, 2], &[], &opts).unwrap();
        let report = run(plan.graph, &engine()).unwrap();
        // Both replicas together consumed everything.
        let consumed: u64 = (0..report.actors.len())
            .filter(|i| report.actors[*i].name.starts_with("agg-r"))
            .map(|i| report.actors[i].items_in)
            .sum();
        assert_eq!(consumed, 800);
    }

    #[test]
    fn fusion_group_becomes_single_meta_actor() {
        let t = small_topology();
        let group = FusionGroup {
            members: [OperatorId(1), OperatorId(2)].into_iter().collect(),
            front: OperatorId(1),
        };
        let plan = build_actor_graph(
            &t,
            None,
            &[],
            &[group],
            &CodegenOptions {
                items: 400,
                seed: 4,
                ..CodegenOptions::default()
            },
        )
        .unwrap();
        assert_eq!(plan.num_actors, 3); // source, meta, sink
        assert_eq!(plan.input_actor[1], plan.input_actor[2]);
        let report = run(plan.graph, &engine()).unwrap();
        // Meta applies map then filter: the sink sees about half.
        let sink_in = report.actor(plan.input_actor[3]).items_in;
        assert!((sink_in as f64 - 200.0).abs() < 40.0, "sink got {sink_in}");
    }

    #[test]
    fn fused_sink_departures_are_counted_like_an_unfused_sink() {
        // Fuse filter -> sink: the sink's emissions have no edge to leave
        // on, yet the meta actor must count them as departures, as the
        // sink actor does when unfused.
        let t = small_topology();
        let group = FusionGroup {
            members: [OperatorId(2), OperatorId(3)].into_iter().collect(),
            front: OperatorId(2),
        };
        let opts = CodegenOptions {
            items: 400,
            seed: 4,
            ..CodegenOptions::default()
        };
        let sink_out = |fusions: &[FusionGroup]| {
            let plan = build_actor_graph(&t, None, &[], fusions, &opts).unwrap();
            let report = run(plan.graph, &engine()).unwrap();
            report.actor(plan.departure_actor[3]).items_out
        };
        let unfused = sink_out(&[]);
        assert!(unfused > 0 && unfused < 400, "the filter drops some items");
        assert_eq!(sink_out(&[group]), unfused);
    }

    #[test]
    fn fused_and_unfused_outputs_are_semantically_equivalent() {
        // Deterministic operators: identity-map then projection. Compare
        // item counts through both deployments.
        let mut b = Topology::builder();
        let s = b.add_operator(spec("src", "source", 0.05));
        let a = b.add_operator(spec("m1", "identity-map", 0.01));
        let c = b.add_operator(spec("m2", "projection", 0.01).with_param("keep", 2.0));
        let k = b.add_operator(spec("sink", "identity-map", 0.01));
        b.add_edge(s, a, 1.0).unwrap();
        b.add_edge(a, c, 1.0).unwrap();
        b.add_edge(c, k, 1.0).unwrap();
        let t = b.build().unwrap();
        let opts = CodegenOptions {
            items: 300,
            seed: 5,
            ..CodegenOptions::default()
        };

        let plain = build_actor_graph(&t, None, &[], &[], &opts).unwrap();
        let r1 = run(plain.graph, &engine()).unwrap();
        let plain_sink = r1.actor(plain.input_actor[3]).items_in;

        let group = FusionGroup {
            members: [OperatorId(1), OperatorId(2)].into_iter().collect(),
            front: OperatorId(1),
        };
        let fused = build_actor_graph(&t, None, &[], &[group], &opts).unwrap();
        let r2 = run(fused.graph, &engine()).unwrap();
        let fused_sink = r2.actor(fused.input_actor[3]).items_in;

        assert_eq!(plain_sink, fused_sink);
        assert_eq!(plain_sink, 300);
    }

    #[test]
    fn codegen_validation_errors() {
        let t = small_topology();
        let opts = CodegenOptions::default();
        // Wrong replica vector length.
        assert!(matches!(
            build_actor_graph(&t, None, &[1, 1], &[], &opts).unwrap_err(),
            CodegenError::BadReplicaVector { .. }
        ));
        // Zero degree.
        assert!(matches!(
            build_actor_graph(&t, None, &[1, 0, 1, 1], &[], &opts).unwrap_err(),
            CodegenError::BadReplicaVector { .. }
        ));
        // Replicated source.
        assert!(matches!(
            build_actor_graph(&t, None, &[2, 1, 1, 1], &[], &opts).unwrap_err(),
            CodegenError::BadReplicaVector { .. }
        ));
        // Fusion containing the source.
        let g = FusionGroup {
            members: [OperatorId(0), OperatorId(1)].into_iter().collect(),
            front: OperatorId(1),
        };
        assert!(matches!(
            build_actor_graph(&t, None, &[], &[g], &opts).unwrap_err(),
            CodegenError::BadFusionGroup { .. }
        ));
        // Front not a member.
        let g = FusionGroup {
            members: [OperatorId(1)].into_iter().collect(),
            front: OperatorId(2),
        };
        assert!(matches!(
            build_actor_graph(&t, None, &[], &[g], &opts).unwrap_err(),
            CodegenError::BadFusionGroup { .. }
        ));
        // Replicated fusion member.
        let g = FusionGroup {
            members: [OperatorId(1), OperatorId(2)].into_iter().collect(),
            front: OperatorId(1),
        };
        assert!(matches!(
            build_actor_graph(&t, None, &[1, 2, 1, 1], &[g], &opts).unwrap_err(),
            CodegenError::BadFusionGroup { .. }
        ));
        // Unknown kind.
        let mut b = Topology::builder();
        let s = b.add_operator(spec("src", "source", 1.0));
        let w = b.add_operator(spec("w", "no-such-kind", 1.0));
        b.add_edge(s, w, 1.0).unwrap();
        let bad = b.build().unwrap();
        assert!(matches!(
            build_actor_graph(&bad, None, &[], &[], &opts).unwrap_err(),
            CodegenError::UnknownKind { .. }
        ));
    }

    #[test]
    fn provisioned_spare_slots_stay_idle_but_wired() {
        let t = small_topology();
        let plan = build_actor_graph(
            &t,
            None,
            &[1, 2, 1, 1],
            &[],
            &CodegenOptions {
                items: 600,
                seed: 7,
                provision: vec![1, 4, 1, 1],
            },
        )
        .unwrap();
        // 3 plain actors + emitter + 4 slots + collector.
        assert_eq!(plan.num_actors, 3 + 6);
        assert_eq!(plan.replica_slots[1].len(), 4);
        assert_eq!(plan.active_replicas, vec![1, 2, 1, 1]);
        assert!(plan.emitter_actor[1].is_some());
        assert!(plan.collector_actor[1].is_some());
        let report = run(plan.graph, &engine()).unwrap();
        // The collector still sees every item exactly once...
        assert_eq!(report.actor(plan.departure_actor[1]).items_in, 600);
        // ...and the spare slots never received data.
        for &spare in &plan.replica_slots[1][2..] {
            assert_eq!(report.actor(spare).items_in, 0, "spare {spare:?} got data");
        }
    }

    #[test]
    fn provisioning_a_single_replica_builds_the_full_harness() {
        // provision > 1 with an active degree of 1 still deploys the
        // emitter/collector pair, so a later re-scale is a pure route swap.
        let t = small_topology();
        let plan = build_actor_graph(
            &t,
            None,
            &[],
            &[],
            &CodegenOptions {
                items: 300,
                seed: 8,
                provision: vec![1, 3, 1, 1],
            },
        )
        .unwrap();
        assert_eq!(plan.num_actors, 3 + 5);
        assert_eq!(plan.active_replicas, vec![1, 1, 1, 1]);
        let report = run(plan.graph, &engine()).unwrap();
        assert_eq!(report.actor(plan.departure_actor[1]).items_out, 300);
        assert_eq!(report.actor(plan.replica_slots[1][0]).items_in, 300);
        assert_eq!(report.actor(plan.replica_slots[1][1]).items_in, 0);
    }

    #[test]
    fn provision_validation_errors() {
        let t = small_topology();
        // Wrong provision length.
        assert!(matches!(
            build_actor_graph(
                &t,
                None,
                &[],
                &[],
                &CodegenOptions {
                    provision: vec![1, 2],
                    ..CodegenOptions::default()
                }
            )
            .unwrap_err(),
            CodegenError::BadReplicaVector { .. }
        ));
        // Provisioned source.
        assert!(matches!(
            build_actor_graph(
                &t,
                None,
                &[],
                &[],
                &CodegenOptions {
                    provision: vec![2, 1, 1, 1],
                    ..CodegenOptions::default()
                }
            )
            .unwrap_err(),
            CodegenError::BadReplicaVector { .. }
        ));
        // Provisioned fusion member.
        let g = FusionGroup {
            members: [OperatorId(1), OperatorId(2)].into_iter().collect(),
            front: OperatorId(1),
        };
        assert!(matches!(
            build_actor_graph(
                &t,
                None,
                &[],
                &[g],
                &CodegenOptions {
                    provision: vec![1, 3, 1, 1],
                    ..CodegenOptions::default()
                }
            )
            .unwrap_err(),
            CodegenError::BadFusionGroup { .. }
        ));
    }

    #[test]
    fn probabilistic_split_wired_from_collector() {
        // Replicated op with two downstream branches: the collector must
        // carry the probabilistic split.
        let mut b = Topology::builder();
        let s = b.add_operator(spec("src", "source", 0.05));
        let m = b.add_operator(spec("map", "identity-map", 0.01));
        let x = b.add_operator(spec("x", "identity-map", 0.01));
        let y = b.add_operator(spec("y", "identity-map", 0.01));
        b.add_edge(s, m, 1.0).unwrap();
        b.add_edge(m, x, 0.25).unwrap();
        b.add_edge(m, y, 0.75).unwrap();
        let t = b.build().unwrap();
        let plan = build_actor_graph(
            &t,
            None,
            &[1, 2, 1, 1],
            &[],
            &CodegenOptions {
                items: 4000,
                seed: 6,
                ..CodegenOptions::default()
            },
        )
        .unwrap();
        let report = run(plan.graph, &engine()).unwrap();
        let xin = report.actor(plan.input_actor[2]).items_in as f64;
        assert!((xin / 4000.0 - 0.25).abs() < 0.05, "x got {xin}");
    }

    #[test]
    fn counter_map_reads_each_deployment_shape() {
        // src -> map -> rep (2 active of 3 slots) -> f1 -> f2, with
        // f1 + f2 fused.
        let mut b = Topology::builder();
        let s = b.add_operator(spec("src", "source", 0.05));
        let map = b.add_operator(spec("map", "identity-map", 0.01));
        let rep = b.add_operator(spec("rep", "identity-map", 0.01));
        let f1 = b.add_operator(spec("f1", "identity-map", 0.01));
        let f2 = b.add_operator(
            spec("f2", "filter", 0.01)
                .with_param("threshold", 0.5)
                .with_selectivity(spinstreams_core::Selectivity::output(0.5)),
        );
        b.add_edge(s, map, 1.0).unwrap();
        b.add_edge(map, rep, 1.0).unwrap();
        b.add_edge(rep, f1, 1.0).unwrap();
        b.add_edge(f1, f2, 1.0).unwrap();
        let t = b.build().unwrap();
        let group = FusionGroup {
            members: [f1, f2].into_iter().collect(),
            front: f1,
        };
        let mut plan = build_actor_graph(
            &t,
            None,
            &[1, 1, 2, 1, 1],
            &[group],
            &CodegenOptions {
                items: 500,
                seed: 9,
                provision: vec![1, 1, 3, 1, 1],
            },
        )
        .unwrap();
        assert_eq!(plan.replica_slots[rep.0].len(), 3, "one spare slot");
        let report = run(std::mem::take(&mut plan.graph), &engine()).unwrap();
        let c = plan.operator_counters(&report);
        let actor = |a: ActorId| report.actor(a);
        let busy = |a: ActorId| actor(a).busy.as_nanos() as u64;

        assert_eq!((c[s.0].items_in, c[s.0].items_out), (0, 500));
        assert_eq!(c[s.0].busy_ns, None, "the source paces, not serves");
        assert_eq!((c[map.0].items_in, c[map.0].items_out), (500, 500));
        assert_eq!(c[map.0].busy_ns, Some(busy(plan.input_actor[map.0])));
        // Replicated: in at the emitter, out at the collector, busy summed
        // over every slot (the idle spare adds its zero).
        assert_eq!((c[rep.0].items_in, c[rep.0].items_out), (500, 500));
        let slots: u64 = plan.replica_slots[rep.0].iter().map(|&a| busy(a)).sum();
        assert_eq!(c[rep.0].busy_ns, Some(slots));
        assert!(
            slots > busy(plan.replica_slots[rep.0][0]),
            "both active slots count"
        );
        // Fused: both members read the meta actor, and neither owns its
        // busy time.
        let meta = actor(plan.input_actor[f1.0]);
        for m in [f1, f2] {
            assert_eq!(
                (c[m.0].items_in, c[m.0].items_out),
                (meta.items_in, meta.items_out)
            );
            assert_eq!(c[m.0].busy_ns, None);
        }
        assert_eq!(meta.items_in, 500);
        assert!(
            meta.items_out > 0 && meta.items_out < 500,
            "the filter drops some"
        );
        // Only the plain operator has a busy fraction of one actor.
        assert_eq!(
            plan.single_actor_busy_ns(&c),
            [None, c[map.0].busy_ns, None, None, None]
        );
    }
}
