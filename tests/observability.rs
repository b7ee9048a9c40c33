//! End-to-end tests of the observability layer: byte-deterministic span
//! exports under the discrete-event executor, tracing on/off semantic
//! equivalence on the wall-clock engine and the simulator, and the online re-profiler validated
//! against the offline §4.1 profile of the same trace over seeded topologies.

use spinstreams::analysis::{attribute, steady_state, AnnotationKind, Reprofiler};
use spinstreams::codegen::{build_actor_graph, CodegenOptions};
use spinstreams::core::{KeyDistribution, OperatorSpec, ServiceTime, Topology};
use spinstreams::oracle::{measure, run_scenario, sim_executor, OracleConfig, Tolerances};
use spinstreams::runtime::operators::{FnOperator, PassThrough};
use spinstreams::runtime::{
    assemble_spans, execute, execute_with_telemetry, ActorGraph, Behavior, EngineConfig, Executor,
    Outputs, Route, SimConfig, SourceConfig, TelemetryConfig,
};
use spinstreams::tool::observed_operators;
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn pipeline() -> Topology {
    let mut b = Topology::builder();
    let s = b.add_operator(
        OperatorSpec::source("src", ServiceTime::from_micros(100.0)).with_kind("source"),
    );
    let m = b.add_operator(
        OperatorSpec::stateless("slow", ServiceTime::from_micros(400.0))
            .with_kind("arithmetic-map")
            .with_param("work_ns", 400_000.0),
    );
    let k = b.add_operator(
        OperatorSpec::stateless("sink", ServiceTime::from_micros(10.0))
            .with_kind("identity-map")
            .with_param("work_ns", 10_000.0),
    );
    b.add_edge(s, m, 1.0).unwrap();
    b.add_edge(m, k, 1.0).unwrap();
    b.build().unwrap()
}

/// The flight recorder is a pure function of topology and seed under the
/// discrete-event executor: two identical runs export byte-identical
/// JSON-lines (snapshots *and* span trace events). Virtual time has no
/// envelope batching, so its one schedule stands for every batch size.
#[test]
fn span_export_is_byte_identical_across_sim_runs_at_every_batch_size() {
    let topo = pipeline();
    let tcfg = TelemetryConfig::default()
        .with_interval(Duration::from_millis(100))
        .with_span_sample(8);
    let run_once = || {
        let plan = build_actor_graph(
            &topo,
            None,
            &[],
            &[],
            &CodegenOptions {
                items: 6_000,
                seed: 0xBEEF,
                ..CodegenOptions::default()
            },
        )
        .unwrap();
        let executor = Executor::VirtualTime(SimConfig {
            mailbox_capacity: 32,
            seed: 0xBEEF,
            intrinsic_time: false,
            ..SimConfig::default()
        });
        let (_, telemetry) = execute_with_telemetry(plan.graph, &executor, &tcfg).unwrap();
        telemetry
    };
    let a = run_once();
    let b = run_once();
    let jsonl = a.to_jsonl();
    assert_eq!(
        jsonl,
        b.to_jsonl(),
        "same seed must export byte-identical telemetry"
    );
    assert!(
        jsonl.contains("\"event\":\"span\""),
        "no span events in export"
    );
    let spans = assemble_spans(&a.trace);
    assert!(!spans.is_empty(), "no spans assembled");
    // Every sampled tuple crossed the whole pipeline: one hop per
    // receiving actor (the source stamps but does not receive).
    for p in &spans {
        assert_eq!(p.hops.len(), 2, "span for seq {} truncated", p.tuple_seq);
    }
}

/// Runs the keyed fan-out graph of `tests/batching.rs` and records
/// `(key, seq)` arrival order at the sink.
fn run_keyed(executor: &Executor, tcfg: Option<&TelemetryConfig>) -> (Vec<(u64, u64)>, u64) {
    let items = 4_000;
    let arrivals: Arc<Mutex<Vec<(u64, u64)>>> = Arc::new(Mutex::new(Vec::new()));
    let mut g = ActorGraph::new();
    let cfg = SourceConfig::new(1e6, items).with_keys(KeyDistribution::uniform(8));
    let s = g.add_actor("src", Behavior::Source(cfg));
    let r0 = g.add_actor("r0", Behavior::worker(PassThrough));
    let r1 = g.add_actor("r1", Behavior::worker(PassThrough));
    let log = Arc::clone(&arrivals);
    let k = g.add_actor(
        "sink",
        Behavior::Worker(Box::new(FnOperator::new(
            "record",
            move |t: spinstreams::core::Tuple, out: &mut Outputs| {
                log.lock().unwrap().push((t.key, t.seq));
                out.emit_default(t);
            },
        ))),
    );
    g.connect(
        s,
        Route::KeyMap {
            key_map: vec![0, 1, 0, 1, 0, 1, 0, 1],
            destinations: vec![r0, r1],
        },
    );
    g.connect(r0, Route::Unicast(k));
    g.connect(r1, Route::Unicast(k));
    let report = match tcfg {
        Some(t) => execute_with_telemetry(g, executor, t).unwrap().0,
        None => execute(g, executor).unwrap(),
    };
    let delivered = report.actor(k).items_in;
    (
        Arc::try_unwrap(arrivals).unwrap().into_inner().unwrap(),
        delivered,
    )
}

fn per_key(arrivals: &[(u64, u64)]) -> Vec<Vec<u64>> {
    let mut seqs = vec![Vec::new(); 8];
    for &(key, seq) in arrivals {
        seqs[key as usize].push(seq);
    }
    seqs
}

/// Arming the flight recorder must not change what the graph computes:
/// with span tracing on, delivered counts and per-key arrival order match
/// the untraced run — on the threaded executor and on the simulator.
#[test]
fn tracing_on_off_is_semantically_equivalent_on_both_executors() {
    let tcfg = TelemetryConfig::default()
        .with_interval(Duration::from_millis(20))
        .with_span_sample(8);
    let executors: [(&str, Executor); 2] = [
        (
            "threaded",
            Executor::Threads(EngineConfig {
                mailbox_capacity: 64,
                seed: 42,
                batch_size: 8,
                ..EngineConfig::default()
            }),
        ),
        (
            "sim",
            Executor::VirtualTime(SimConfig {
                mailbox_capacity: 64,
                seed: 42,
                intrinsic_time: false,
                ..SimConfig::default()
            }),
        ),
    ];
    for (name, executor) in &executors {
        let (off, delivered_off) = run_keyed(executor, None);
        let (on, delivered_on) = run_keyed(executor, Some(&tcfg));
        assert_eq!(delivered_off, 4_000, "{name}: untraced run lost items");
        assert_eq!(
            delivered_off, delivered_on,
            "{name}: tracing changed the delivered count"
        );
        assert_eq!(
            per_key(&off),
            per_key(&on),
            "{name}: tracing changed per-key order"
        );
    }
}

fn rel(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        a.abs()
    } else {
        (a - b).abs() / b.abs()
    }
}

/// The online re-profile must agree with the offline §4.1 profile: over 20
/// oracle-seeded topologies, every annotation the one estimator derives
/// from the final telemetry snapshot's cumulative counters matches the
/// value it derives from the same deterministic trace's run report, within
/// the oracle's tolerance bands. On clean
/// (non-divergent) seeds the attribution engine's bottleneck naming is
/// checked against Algorithm 1's — and against the measured ranking
/// whenever the predicted margin is decisive.
#[test]
fn online_reprofiler_matches_offline_profiler_on_oracle_seeds() {
    let cfg = OracleConfig {
        threaded_runs: 0,
        check_fission: false,
        minimize: false,
        ..OracleConfig::default()
    };
    let tol = Tolerances::default();
    let tcfg = TelemetryConfig::default()
        .with_interval(Duration::from_millis(100))
        .with_span_sample(64);

    let mut compared = 0usize;
    let mut bottleneck_checks = 0usize;
    for seed in 0..20u64 {
        let (sc, report) = run_scenario(seed, &cfg, false);
        let exec = sim_executor(seed);

        // Offline: the run report's counters of the deterministic run.
        let meas = measure(&sc.topology, &sc.source_keys, &[], cfg.items, seed, &exec)
            .expect("offline measure");
        let mut offline = Reprofiler::new(&sc.topology).with_min_samples(tol.min_samples);
        offline.update(&meas.counters);
        let offline = offline.annotated_topology().expect("offline annotate");

        // Online: same seed, same executor — the simulator's determinism
        // means the telemetry snapshot sees the *same* trace the offline
        // profiler measured.
        let mut plan = build_actor_graph(
            &sc.topology,
            Some(sc.source_keys.clone()),
            &[],
            &[],
            &CodegenOptions {
                items: cfg.items,
                seed,
                ..CodegenOptions::default()
            },
        )
        .expect("codegen");
        let graph = std::mem::take(&mut plan.graph);
        let (_, telemetry) = execute_with_telemetry(graph, &exec, &tcfg).expect("online run");
        let snap = telemetry.snapshots.last().expect("final snapshot");

        let mut rp = Reprofiler::new(&sc.topology).with_min_samples(tol.min_samples);
        let estimates = rp.update(&plan.operator_counters(snap));
        for (slot, est) in estimates.iter().enumerate() {
            let Some(est) = *est else { continue };
            let id = rp.annotations()[slot];
            let (offline_value, ok) = match id.kind {
                AnnotationKind::ServiceTime => {
                    let off = offline.operator(id.operator).service_time.as_secs();
                    (off, rel(est, off) <= tol.departure_rel)
                }
                AnnotationKind::Selectivity => {
                    let off = offline.operator(id.operator).selectivity.rate_factor();
                    (off, rel(est, off) <= tol.departure_rel)
                }
                AnnotationKind::EdgeProbability { to } => {
                    let off = offline.edge_probability(id.operator, to).unwrap();
                    (off, (est - off).abs() <= tol.utilization_abs)
                }
            };
            assert!(
                ok,
                "seed {seed}: {} online {est:.9} vs offline {offline_value:.9}",
                rp.describe(slot)
            );
            compared += 1;
        }

        // Bottleneck naming: the attribution engine's prediction is
        // Algorithm 1's — and on clean seeds with a decisive predicted
        // margin, the measured ranking must name the same operator.
        if report.is_clean() {
            let steady = steady_state(&sc.topology);
            let attr = attribute(&sc.topology, &steady, &observed_operators(&plan, snap));
            if !steady.bottlenecks.is_empty() {
                assert!(
                    steady
                        .bottlenecks
                        .iter()
                        .any(|b| Some(b.operator) == attr.predicted),
                    "seed {seed}: attribution named {:?}, not one of Algorithm 1's \
                     bottlenecks {:?}",
                    attr.predicted,
                    steady.bottlenecks
                );
            }
            // Measured-vs-predicted agreement is judged on the *calibrated*
            // (offline-annotated) topology: realized selectivities are
            // trace-dependent, so only the profiled model's ranking is
            // expected to match the measured one.
            let steady_cal = steady_state(&offline);
            let attr_cal = attribute(&offline, &steady_cal, &observed_operators(&plan, snap));
            let mut rhos: Vec<(spinstreams::core::OperatorId, f64)> = offline
                .operator_ids()
                .filter(|&id| id != offline.source())
                .map(|id| (id, steady_cal.metric(id).utilization))
                .collect();
            rhos.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
            let decisive = rhos.len() >= 2 && rhos[0].1 - rhos[1].1 > 2.0 * tol.utilization_abs;
            let observable = attr_cal
                .predicted
                .map(|p| attr_cal.verdict(p).measured_utilization.is_some())
                .unwrap_or(false);
            if decisive && observable {
                assert_eq!(
                    attr_cal.observed, attr_cal.predicted,
                    "seed {seed}: decisive predicted bottleneck not measured as such"
                );
                bottleneck_checks += 1;
            }
        }
    }
    assert!(
        compared >= 40,
        "expected >= 40 annotation comparisons across 20 seeds, got {compared}"
    );
    assert!(
        bottleneck_checks >= 3,
        "expected >= 3 decisive bottleneck agreements, got {bottleneck_checks}"
    );
}
