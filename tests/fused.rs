//! Fusion equivalence tests: an Algorithm 3 group deployed as one
//! `MetaOperator` must be observably identical to the same operators run
//! as separate actors — same counts at the group's boundary and outside
//! it, same per-key tuple sequences — across batch sizes and pool sizes.
//! Goldens pin the traversal itself: the virtual-time telemetry of a fused
//! deployment, and the sink sequences and snapshot bytes of a non-linear
//! group whose output depends on the visit order and the order of route
//! draws. A crash mid-stream must recover to the unfaulted output.

use spinstreams::codegen::{build_actor_graph, checksum, CodegenOptions, FusionGroup};
use spinstreams::core::{KeyDistribution, OperatorSpec, ServiceTime, Topology, Tuple};
use spinstreams::operators::{build_operator, OperatorKind, OperatorParams};
use spinstreams::runtime::operators::{FaultConfig, FaultInjector, FnOperator};
use spinstreams::runtime::{
    execute, run, sample_stream, simulate_with_telemetry, ActorGraph, Backoff, Behavior,
    EngineConfig, Executor, ExecutorKind, MetaDest, MetaOperator, MetaRoute, Outputs, Route,
    SimConfig, SourceConfig, StreamOperator, SupervisorSpec, TelemetryConfig, DEFAULT_PORT,
};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Executors under test: one worker multiplexing every actor (the golden
/// reference's schedule) and a pool that runs actors in parallel.
const EXECUTORS: [ExecutorKind; 2] = [
    ExecutorKind::Pool { workers: 1 },
    ExecutorKind::Pool { workers: 2 },
];

const BATCHES: [usize; 3] = [1, 8, 64];

// ---------------------------------------------------------------------------
// Codegen-level equivalence: same topology deployed with and without the
// fusion group; the group's boundary and the operators outside it must
// count the same items.
// ---------------------------------------------------------------------------

/// src -> identity-map -> filter -> enricher -> sink with the three middle
/// operators fused. The filter gives the chain a data-dependent drop so
/// count equality is not vacuous.
fn chain_topology() -> (Topology, FusionGroup) {
    let mut b = Topology::builder();
    let s = b.add_operator(
        OperatorSpec::source("src", ServiceTime::from_micros(1.0)).with_kind("source"),
    );
    let m = b.add_operator(
        OperatorSpec::stateless("map", ServiceTime::from_micros(1.0)).with_kind("identity-map"),
    );
    let f = b.add_operator(
        OperatorSpec::stateless("filter", ServiceTime::from_micros(1.0))
            .with_kind("filter")
            .with_param("threshold", 0.6),
    );
    let e = b.add_operator(
        OperatorSpec::stateless("enrich", ServiceTime::from_micros(1.0)).with_kind("enricher"),
    );
    let k = b.add_operator(
        OperatorSpec::stateless("sink", ServiceTime::from_micros(1.0)).with_kind("identity-map"),
    );
    b.add_edge(s, m, 1.0).unwrap();
    b.add_edge(m, f, 1.0).unwrap();
    b.add_edge(f, e, 1.0).unwrap();
    b.add_edge(e, k, 1.0).unwrap();
    let topo = b.build().unwrap();
    let group = FusionGroup {
        members: [m, f, e].into_iter().collect(),
        front: m,
    };
    (topo, group)
}

fn chain_opts() -> CodegenOptions {
    CodegenOptions {
        items: 4_000,
        seed: 0xF00D,
        ..CodegenOptions::default()
    }
}

/// Deploys the chain topology with `fusions` and returns the logical
/// per-operator (items_in, items_out) table plus the drop total.
fn deploy_counts(
    fusions: &[FusionGroup],
    batch_size: usize,
    executor: ExecutorKind,
) -> (Vec<(u64, u64)>, u64) {
    let (topo, _) = chain_topology();
    let plan = build_actor_graph(
        &topo,
        Some(KeyDistribution::uniform(8)),
        &[],
        fusions,
        &chain_opts(),
    )
    .unwrap();
    let cfg = EngineConfig {
        batch_size,
        executor,
        mailbox_capacity: 64,
        seed: 42,
        ..EngineConfig::default()
    };
    let report = execute(plan.graph, &Executor::Threads(cfg)).unwrap();
    let table = topo
        .operator_ids()
        .map(|id| {
            (
                report.actor(plan.input_actor[id.0]).items_in,
                report.actor(plan.departure_actor[id.0]).items_out,
            )
        })
        .collect();
    (table, report.total_dropped())
}

#[test]
fn fused_deployment_counts_match_unfused() {
    let (_, group) = chain_topology();
    let (front, tail) = (1, 3);
    for executor in EXECUTORS {
        for batch in BATCHES {
            let label = format!("{executor:?} batch {batch}");
            let (fused, fused_dropped) =
                deploy_counts(std::slice::from_ref(&group), batch, executor);
            let (unfused, unfused_dropped) = deploy_counts(&[], batch, executor);
            assert_eq!(fused_dropped, 0, "{label}: fused run must not drop");
            assert_eq!(unfused_dropped, 0, "{label}: unfused run must not drop");
            assert_eq!(fused[front].0, unfused[front].0, "{label}: group input");
            assert_eq!(fused[tail].1, unfused[tail].1, "{label}: group output");
            for outside in [0, 4] {
                assert_eq!(
                    fused[outside], unfused[outside],
                    "{label}: operator {outside}"
                );
            }
            // The filter actually filters — the group's output is a strict
            // subset of its input, so the equalities above are earned.
            let (filter_in, filter_out) = unfused[2];
            assert!(
                filter_out < filter_in,
                "{label}: filter must drop some items ({filter_in} in, {filter_out} out)"
            );
        }
    }
}

#[test]
fn fused_sim_telemetry_matches_the_golden() {
    // The discrete-event executor is a pure function of graph and seed, so
    // the whole telemetry export of the fused deployment — counts, rates,
    // latency histograms — is pinned by its length and FNV-1a checksum.
    let (topo, group) = chain_topology();
    let plan = build_actor_graph(
        &topo,
        Some(KeyDistribution::uniform(8)),
        &[],
        &[group],
        &chain_opts(),
    )
    .unwrap();
    let sim = SimConfig {
        mailbox_capacity: 32,
        seed: 0xBA7C4,
        intrinsic_time: false,
        checkpoint_interval: None,
    };
    let tcfg = TelemetryConfig::default().with_interval(Duration::from_millis(1));
    let (report, tel) = simulate_with_telemetry(plan.graph, &sim, &tcfg).unwrap();
    assert_eq!(report.total_dropped(), 0);
    let export = tel.to_jsonl();
    assert_eq!(
        (export.len(), checksum(export.as_bytes())),
        (5_736, 0x0083_3e91_2b1e_0dfa),
        "sim telemetry of the fused deployment moved"
    );
}

// ---------------------------------------------------------------------------
// Operator-level equivalence: a hand-built meta-operator compared tuple for
// tuple, through a recording sink, with the same operators run as actors.
// ---------------------------------------------------------------------------

/// The stage parameters shared by both deployments.
fn stage_params() -> OperatorParams {
    OperatorParams {
        work_ns: 0,
        threshold: 0.6,
        fanout: 2,
        ..Default::default()
    }
}

/// identity-map -> filter -> flat-map, each a boxed registry operator.
fn stages() -> Vec<Box<dyn StreamOperator>> {
    let p = stage_params();
    [
        OperatorKind::IdentityMap,
        OperatorKind::Filter,
        OperatorKind::FlatMap,
    ]
    .into_iter()
    .map(|kind| build_operator(kind, &p))
    .collect()
}

/// The same three stages behind one meta-operator with a linear unicast
/// route table.
fn meta_worker() -> Box<dyn StreamOperator> {
    let routes = vec![
        vec![MetaRoute::Unicast(MetaDest::Member(1))],
        vec![MetaRoute::Unicast(MetaDest::Member(2))],
        vec![MetaRoute::Unicast(MetaDest::Output(DEFAULT_PORT))],
    ];
    Box::new(MetaOperator::new("fused", stages(), routes, 0, 7))
}

type Captured = Arc<Mutex<Vec<(u64, u64, [f64; 4])>>>;
type PerKey = BTreeMap<u64, Vec<(u64, [f64; 4])>>;

/// Per-key (seq, values) sequences in arrival order — the executor-stable
/// projection of the sink's capture.
fn per_key(captured: &Captured) -> PerKey {
    let mut m = PerKey::new();
    for &(key, seq, values) in captured.lock().unwrap().iter() {
        m.entry(key).or_default().push((seq, values));
    }
    m
}

/// Adds a sink that records every tuple it receives into `store`.
fn capturing_sink(g: &mut ActorGraph, store: &Captured) -> spinstreams::runtime::ActorId {
    let store = store.clone();
    g.add_actor(
        "sink",
        Behavior::Worker(Box::new(FnOperator::new(
            "capture",
            move |t: Tuple, _out: &mut Outputs| {
                store.lock().unwrap().push((t.key, t.seq, t.values));
            },
        ))),
    )
}

fn engine(batch_size: usize, executor: ExecutorKind) -> EngineConfig {
    EngineConfig {
        batch_size,
        executor,
        mailbox_capacity: 64,
        seed: 42,
        ..EngineConfig::default()
    }
}

/// src -> stage 0 -> ... -> stage n-1 -> capturing sink, one actor each.
fn run_chain(
    stages: Vec<Box<dyn StreamOperator>>,
    batch_size: usize,
    executor: ExecutorKind,
    items: u64,
) -> PerKey {
    let store: Captured = Default::default();
    let mut g = ActorGraph::new();
    let cfg = SourceConfig::new(f64::INFINITY, items).with_keys(KeyDistribution::uniform(8));
    let mut prev = g.add_actor("src", Behavior::Source(cfg));
    for (i, op) in stages.into_iter().enumerate() {
        let a = g.add_actor(format!("stage{i}"), Behavior::Worker(op));
        g.connect(prev, Route::Unicast(a));
        prev = a;
    }
    let k = capturing_sink(&mut g, &store);
    g.connect(prev, Route::Unicast(k));
    let report = run(g, &engine(batch_size, executor)).unwrap();
    assert_eq!(report.total_dropped(), 0);
    assert_eq!(report.dead_letters.total(), 0);
    per_key(&store)
}

#[test]
fn fused_chain_emits_the_same_tuples_as_the_meta_operator() {
    const ITEMS: u64 = 3_000;
    let golden = run_chain(stages(), 1, ExecutorKind::Pool { workers: 1 }, ITEMS);
    assert!(
        golden.len() >= 4,
        "keyed source must spread keys, got {}",
        golden.len()
    );
    let total: usize = golden.values().map(Vec::len).sum();
    assert!(
        total > 0 && total != ITEMS as usize,
        "filter+flat-map must reshape the stream (got {total} of {ITEMS})"
    );
    for executor in EXECUTORS {
        for batch in BATCHES {
            let label = format!("{executor:?} batch {batch}");
            assert_eq!(
                run_chain(vec![meta_worker()], batch, executor, ITEMS),
                golden,
                "fused {label}"
            );
            assert_eq!(
                run_chain(stages(), batch, executor, ITEMS),
                golden,
                "unfused {label}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Non-linear group golden: pins the breadth-first visit order and the
// order of route draws.
// ---------------------------------------------------------------------------

/// FNV-1a 64 of per-key (key, seq, values) sequences, plus their total
/// length.
fn fingerprint(seqs: &PerKey) -> (usize, u64) {
    let mut bytes = Vec::new();
    let mut len = 0;
    for (key, seq) in seqs {
        bytes.extend_from_slice(&key.to_le_bytes());
        for (s, values) in seq {
            len += 1;
            bytes.extend_from_slice(&s.to_le_bytes());
            for v in values {
                bytes.extend_from_slice(&v.to_bits().to_le_bytes());
            }
        }
    }
    (len, checksum(&bytes))
}

/// A non-linear fused group: a flat-map front fanning out at random to a
/// filter, an arithmetic map or the second external port; both branches
/// rejoin at a keyed windowed sum whose output splits at random between
/// the first external port and a projection. Several items share each
/// level and deeper members draw route randomness, so the visit order and
/// the order of RNG draws both show in the output and in the snapshot.
fn non_linear_group() -> MetaOperator {
    let p = OperatorParams {
        work_ns: 0,
        fanout: 2,
        threshold: 0.7,
        rounds: 2,
        window: 4,
        slide: 1,
        keep: 2,
        ..Default::default()
    };
    let members: Vec<Box<dyn StreamOperator>> = [
        OperatorKind::FlatMap,
        OperatorKind::Filter,
        OperatorKind::ArithmeticMap,
        OperatorKind::KeyedSum,
        OperatorKind::Projection,
    ]
    .into_iter()
    .map(|kind| build_operator(kind, &p))
    .collect();
    let routes = vec![
        vec![MetaRoute::Probabilistic {
            choices: vec![
                (MetaDest::Member(1), 0.45),
                (MetaDest::Member(2), 0.35),
                (MetaDest::Output(1), 0.2),
            ],
        }],
        vec![MetaRoute::Unicast(MetaDest::Member(3))],
        vec![MetaRoute::Unicast(MetaDest::Member(3))],
        vec![MetaRoute::Probabilistic {
            choices: vec![(MetaDest::Output(0), 0.6), (MetaDest::Member(4), 0.4)],
        }],
        vec![MetaRoute::Unicast(MetaDest::Output(0))],
    ];
    MetaOperator::new("F(non-linear)", members, routes, 0, 0x5EED)
}

/// src -> group (ports 0 and 1) -> capturing sink.
fn run_group(batch_size: usize, executor: ExecutorKind, items: u64) -> PerKey {
    let store: Captured = Default::default();
    let mut g = ActorGraph::new();
    let cfg = SourceConfig::new(f64::INFINITY, items).with_keys(KeyDistribution::uniform(8));
    let s = g.add_actor("src", Behavior::Source(cfg));
    let w = g.add_actor("group", Behavior::worker(non_linear_group()));
    let k = capturing_sink(&mut g, &store);
    g.connect(s, Route::Unicast(w));
    g.connect(w, Route::Unicast(k));
    g.connect(w, Route::Unicast(k));
    let report = run(g, &engine(batch_size, executor)).unwrap();
    assert_eq!(report.total_dropped(), 0);
    per_key(&store)
}

#[test]
fn non_linear_group_matches_its_golden() {
    for executor in EXECUTORS {
        for batch in [1, 64] {
            assert_eq!(
                fingerprint(&run_group(batch, executor, 2_000)),
                (3_449, 17_580_284_207_675_384_103),
                "sink sequences moved: {executor:?} batch {batch}"
            );
        }
    }
    // The snapshot pins the number of route draws (the rng state) and the
    // windowed sum's contents, which depend on the order items reach it.
    let mut op = non_linear_group();
    let mut out = Outputs::new();
    for t in sample_stream(2_000, 8, 5) {
        op.process(t, &mut out);
    }
    assert_eq!(out.len(), 3_465);
    let snap = op.snapshot().expect("the meta-operator always snapshots");
    let mut bytes = Vec::new();
    let mut r = snap.reader();
    while let Some(w) = r.read_u64() {
        bytes.extend_from_slice(&w.to_le_bytes());
    }
    assert_eq!(
        (snap.len(), checksum(&bytes)),
        (2_128, 0xd0aa_53f6_b65f_e750),
        "snapshot bytes moved"
    );
}

// ---------------------------------------------------------------------------
// Recovery: a crash inside the fused stage must recover to the unfaulted
// output (the meta-operator checkpoints its internal state).
// ---------------------------------------------------------------------------

const RECOVERY_ITEMS: u64 = 1_500;
const CHECKPOINT_EVERY: u64 = 200;
const CRASH_AT_TUPLE: u64 = 777;

struct RecoveryRun {
    report: spinstreams::runtime::RunReport,
    worker: spinstreams::runtime::ActorId,
    output: PerKey,
}

fn run_recovery(worker: Box<dyn StreamOperator>, crash: bool) -> RecoveryRun {
    let store: Captured = Default::default();
    let mut g = ActorGraph::new();
    let cfg =
        SourceConfig::new(f64::INFINITY, RECOVERY_ITEMS).with_keys(KeyDistribution::uniform(8));
    let s = g.add_actor("src", Behavior::Source(cfg));
    let worker: Box<dyn StreamOperator> = if crash {
        Box::new(FaultInjector::new(
            worker,
            FaultConfig::none().with_crash_after_tuples(CRASH_AT_TUPLE),
        ))
    } else {
        worker
    };
    let w = g.add_actor("chain", Behavior::Worker(worker));
    let k = capturing_sink(&mut g, &store);
    g.connect(s, Route::Unicast(w));
    g.connect(w, Route::Unicast(k));
    g.set_supervision(w, SupervisorSpec::restart(4, Backoff::none()));
    let cfg = EngineConfig {
        batch_size: 8,
        executor: ExecutorKind::Pool { workers: 1 },
        checkpoint_interval: Some(CHECKPOINT_EVERY),
        mailbox_capacity: 64,
        send_timeout: Duration::from_secs(5),
        seed: 42,
        ..EngineConfig::default()
    };
    let report = run(g, &cfg).unwrap();
    RecoveryRun {
        report,
        worker: w,
        output: per_key(&store),
    }
}

#[test]
fn crashed_fused_stage_recovers_to_the_unfaulted_output() {
    let golden = run_recovery(meta_worker(), false);
    assert_eq!(golden.report.dead_letters.total(), 0, "golden");

    let faulted = run_recovery(meta_worker(), true);
    let a = faulted.report.actor(faulted.worker);
    assert_eq!(a.panics, 1);
    assert_eq!(a.restarts, 1);
    assert!(a.replayed > 0, "the epoch gap must be replayed");
    assert_eq!(faulted.report.dead_letters.total(), 0);
    assert_eq!(
        faulted.output, golden.output,
        "recovered output must match the unfaulted run"
    );
}

#[test]
fn interpreted_recovery_restores_the_meta_snapshot() {
    // The meta-operator checkpoints (rng + member state), so its recovery
    // must report a restored epoch — pinning that the equivalence above
    // exercises the snapshot path, not just cold replay.
    let faulted = run_recovery(meta_worker(), true);
    let a = faulted.report.actor(faulted.worker);
    assert_eq!(a.recoveries, 1);
    assert_eq!(
        a.last_restored_epoch,
        Some((CRASH_AT_TUPLE - 1) / CHECKPOINT_EVERY)
    );
}
