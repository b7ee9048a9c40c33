//! Equivalence tests for the worker-pool executor: multiplexing actors
//! over a fixed pool of cooperative workers must change scheduling, never
//! semantics. Delivered counts, per-key order, and supervision accounting
//! must be independent of the pool size; and the per-batch sink clock must
//! bound latency-histogram skew to a single drained batch.

use spinstreams::analysis::DriftConfig;
use spinstreams::core::{KeyDistribution, OperatorSpec, ServiceTime, Topology, Tuple};
use spinstreams::runtime::operators::{FnOperator, PassThrough, Spin};
use spinstreams::runtime::{
    run, run_with_telemetry, ActorGraph, Behavior, EngineConfig, Executor, ExecutorKind, Outputs,
    Route, SimConfig, SourceConfig, TelemetryConfig,
};
use spinstreams::tool::predict_vs_measure_telemetry;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The schedules under test: pools both saturated (workers ≥ actors) and
/// oversubscribed (workers < actors). Pool-1 is the reference.
const EXECUTORS: [ExecutorKind; 3] = [
    ExecutorKind::Pool { workers: 1 },
    ExecutorKind::Pool { workers: 2 },
    ExecutorKind::Pool { workers: 4 },
];

fn engine_cfg(executor: ExecutorKind) -> EngineConfig {
    EngineConfig {
        mailbox_capacity: 64,
        seed: 42,
        batch_size: 8,
        executor,
        ..EngineConfig::default()
    }
}

/// Source with uniform keys fanning out over a `KeyMap` into two replicas
/// that converge on an order-recording sink. Each key follows exactly one
/// path, so its arrival order at the sink is fully determined — under
/// every executor.
fn run_keyed(executor: ExecutorKind, items: u64) -> Vec<(u64, u64)> {
    let arrivals: Arc<Mutex<Vec<(u64, u64)>>> = Arc::new(Mutex::new(Vec::new()));
    let mut g = ActorGraph::new();
    let cfg = SourceConfig::new(f64::INFINITY, items).with_keys(KeyDistribution::uniform(8));
    let s = g.add_actor("src", Behavior::Source(cfg));
    let r0 = g.add_actor("r0", Behavior::worker(PassThrough));
    let r1 = g.add_actor("r1", Behavior::worker(PassThrough));
    let log = Arc::clone(&arrivals);
    let k = g.add_actor(
        "sink",
        Behavior::Worker(Box::new(FnOperator::new(
            "record",
            move |t: Tuple, out: &mut Outputs| {
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
    let report = run(g, &engine_cfg(executor)).unwrap();
    assert_eq!(
        report.actor(k).items_in,
        items,
        "{executor:?}: no items lost or dropped"
    );
    assert_eq!(report.total_dropped(), 0, "{executor:?}");
    Arc::try_unwrap(arrivals).unwrap().into_inner().unwrap()
}

#[test]
fn keyed_counts_and_per_key_order_match_across_executors() {
    let items = 4_000;
    let per_key = |arrivals: &[(u64, u64)]| -> Vec<Vec<u64>> {
        let mut seqs = vec![Vec::new(); 8];
        for &(key, seq) in arrivals {
            seqs[key as usize].push(seq);
        }
        seqs
    };
    let baseline = per_key(&run_keyed(ExecutorKind::Pool { workers: 1 }, items));
    for seqs in &baseline {
        assert!(
            seqs.windows(2).all(|w| w[0] < w[1]),
            "per-key arrival order must be the source order"
        );
    }
    for executor in EXECUTORS {
        let arrivals = run_keyed(executor, items);
        assert_eq!(arrivals.len(), items as usize, "{executor:?}");
        assert_eq!(
            per_key(&arrivals),
            baseline,
            "{executor:?}: per-key order must match pool-1"
        );
    }
}

/// A mid-pipeline panic under the default Stop+Drop policy: the panicking
/// tuple and everything behind it become dead letters. The accounting is
/// count-based, not timing-based, so every executor must report the same
/// delivered and dead-lettered totals.
#[test]
fn supervision_accounting_matches_across_executors() {
    let run_flaky = |executor: ExecutorKind| -> (u64, u64) {
        let mut g = ActorGraph::new();
        let s = g.add_actor(
            "src",
            Behavior::Source(SourceConfig::new(f64::INFINITY, 25)),
        );
        let w = g.add_actor(
            "flaky",
            Behavior::Worker(Box::new(FnOperator::new(
                "panic-at-10",
                |t: Tuple, out: &mut Outputs| {
                    assert!(t.seq != 10, "tuple 10 is poison");
                    out.emit_default(t);
                },
            ))),
        );
        let k = g.add_actor("sink", Behavior::worker(PassThrough));
        g.connect(s, Route::Unicast(w));
        g.connect(w, Route::Unicast(k));
        // No set_supervision call: default is Stop + Drop.
        let r = run(g, &engine_cfg(executor)).unwrap();
        assert_eq!(r.actor(w).panics, 1, "{executor:?}");
        (r.actor(k).items_in, r.total_dead_letters())
    };
    let (delivered, dead) = run_flaky(ExecutorKind::Pool { workers: 1 });
    assert_eq!(delivered, 10, "tuples 0..=9 precede the poison tuple");
    assert_eq!(delivered + dead, 25, "every tuple is accounted for");
    for executor in EXECUTORS {
        assert_eq!(
            run_flaky(executor),
            (delivered, dead),
            "{executor:?}: supervision accounting must match pool-1"
        );
    }
}

/// The sink clock is read once per drained batch, not once per envelope.
/// A source floods 8 tuples into a sink that burns 5 ms each; when the
/// sink drains them as one batch, every tuple's recorded latency uses the
/// drain timestamp, so the histogram max stays far below the 40 ms the
/// batch takes to *process*. Per-envelope stamping (the regression this
/// guards against) would time tuple `i` after `i` spins and put the max
/// at ≥ 35 ms in every attempt. Partial drains legitimately inflate the
/// max, so the test retries and passes on the first clean attempt.
#[test]
fn sink_latency_skew_is_bounded_to_one_drained_batch() {
    const SPIN_NS: u64 = 5_000_000;
    const THRESHOLD_NS: u64 = 15_000_000;
    let attempt = || -> u64 {
        let mut g = ActorGraph::new();
        let s = g.add_actor("src", Behavior::Source(SourceConfig::new(f64::INFINITY, 8)));
        let k = g.add_actor("sink", Behavior::worker(Spin::new("burn", SPIN_NS)));
        g.connect(s, Route::Unicast(k));
        let tcfg = TelemetryConfig::default().with_interval(Duration::from_secs(10));
        let (report, tel) =
            run_with_telemetry(g, &engine_cfg(ExecutorKind::Pool { workers: 1 }), &tcfg).unwrap();
        assert_eq!(report.actor(k).items_in, 8);
        let last = tel.snapshots.last().unwrap();
        assert_eq!(last.latencies.len(), 1);
        assert_eq!(last.latencies[0].latency.count, 8);
        last.latencies[0].latency.max_ns
    };
    let mut best = u64::MAX;
    for _ in 0..5 {
        best = best.min(attempt());
        if best < THRESHOLD_NS {
            return;
        }
    }
    panic!("histogram max {best} ns across 5 attempts — sink clock looks per-envelope");
}

/// The executor refactor must not leak host time into the virtual-time
/// path: the discrete-event telemetry export stays a pure function of
/// topology and seed, byte-identical across repeated runs.
#[test]
fn virtual_time_telemetry_stays_deterministic() {
    let mut b = Topology::builder();
    let s = b.add_operator(
        OperatorSpec::source("src", ServiceTime::from_micros(100.0)).with_kind("source"),
    );
    let m = b.add_operator(
        OperatorSpec::stateless("work", ServiceTime::from_micros(300.0))
            .with_kind("arithmetic-map")
            .with_param("work_ns", 300_000.0),
    );
    let k = b.add_operator(
        OperatorSpec::stateless("sink", ServiceTime::from_micros(10.0))
            .with_kind("identity-map")
            .with_param("work_ns", 10_000.0),
    );
    b.add_edge(s, m, 1.0).unwrap();
    b.add_edge(m, k, 1.0).unwrap();
    let topo = b.build().unwrap();
    let tcfg = TelemetryConfig::default().with_interval(Duration::from_millis(100));
    let export = || {
        let executor = Executor::VirtualTime(SimConfig {
            mailbox_capacity: 32,
            seed: 0xBA7C4,
            intrinsic_time: false,
            checkpoint_interval: None,
        });
        predict_vs_measure_telemetry(&topo, 5_000, &executor, &tcfg, DriftConfig::default())
            .unwrap()
            .export
            .jsonl
    };
    let first = export();
    assert!(!first.is_empty());
    assert_eq!(export(), first, "repeated sim runs must export identically");
}
