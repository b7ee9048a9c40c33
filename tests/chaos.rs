//! End-to-end chaos tests: fault-injected topologies on the threaded
//! runtime, verifying the supervision layer's acceptance criteria — the
//! run completes (`run()` returns `Ok`), the process never aborts,
//! restarts and dead letters show up in the report, and the measured
//! throughput degradation stays within the path-probability prediction.

use spinstreams::core::{OperatorSpec, ServiceTime, Topology};
use spinstreams::runtime::operators::{FaultConfig, FaultInjector, PassThrough};
use spinstreams::runtime::{
    run, ActorGraph, Backoff, Behavior, DeadLetterReason, EngineConfig, Route, SourceConfig,
    SupervisorSpec,
};
use spinstreams::tool::{run_chaos, ChaosConfig};
use std::time::Duration;

/// A diamond topology (source -> split -> {left, right} -> merge) with
/// runnable operator kinds and small service times.
fn diamond() -> Topology {
    let mut b = Topology::builder();
    let s = b.add_operator(
        OperatorSpec::source("src", ServiceTime::from_micros(5.0)).with_kind("source"),
    );
    let split = b.add_operator(
        OperatorSpec::stateless("split", ServiceTime::from_micros(2.0))
            .with_kind("identity-map")
            .with_param("work_ns", 2_000.0),
    );
    let left = b.add_operator(
        OperatorSpec::stateless("left", ServiceTime::from_micros(3.0))
            .with_kind("identity-map")
            .with_param("work_ns", 3_000.0),
    );
    let right = b.add_operator(
        OperatorSpec::stateless("right", ServiceTime::from_micros(3.0))
            .with_kind("identity-map")
            .with_param("work_ns", 3_000.0),
    );
    let merge = b.add_operator(
        OperatorSpec::stateless("merge", ServiceTime::from_micros(1.0))
            .with_kind("identity-map")
            .with_param("work_ns", 1_000.0),
    );
    b.add_edge(s, split, 1.0).unwrap();
    b.add_edge(split, left, 0.5).unwrap();
    b.add_edge(split, right, 0.5).unwrap();
    b.add_edge(left, merge, 1.0).unwrap();
    b.add_edge(right, merge, 1.0).unwrap();
    b.build().unwrap()
}

#[test]
fn chaos_run_at_five_percent_panics_completes_within_prediction() {
    let topo = diamond();
    let cfg = ChaosConfig {
        items: 8_000,
        panic_prob: 0.05,
        engine: EngineConfig {
            seed: 0xFA117,
            ..EngineConfig::default()
        },
        ..ChaosConfig::default()
    };
    // The acceptance bar: run() returns Ok — no panic escapes, the
    // process never aborts.
    let outcome = run_chaos(&topo, &cfg).expect("chaos run must complete");

    assert!(outcome.run.total_panics() > 0, "injector must fire at 5%");
    assert!(
        outcome.run.total_restarts() > 0,
        "restart supervision must engage"
    );
    assert!(outcome.run.total_dead_letters() > 0);
    assert_eq!(
        outcome.run.total_dead_letters(),
        outcome.run.dead_letters.total(),
        "per-actor counters agree with the structural log"
    );
    // Source emits everything (panics happen downstream of it).
    let src = &outcome.run.actors[0];
    assert_eq!(src.items_out, 8_000);

    // Every path source->split->{left,right}->merge has 2 intermediate
    // workers: predicted delivered fraction (1 - 0.05)^2 = 0.9025.
    assert!(
        (outcome.predicted_fraction - 0.9025).abs() < 1e-12,
        "predicted {}",
        outcome.predicted_fraction
    );
    // The measurement is binomial around the prediction; 8000 items keep
    // the noise well under this band.
    assert!(
        outcome.relative_error() < 0.05,
        "predicted {} vs measured {}",
        outcome.predicted_fraction,
        outcome.measured_fraction
    );
    // Dead letters record the panics explicitly.
    assert_eq!(
        outcome
            .run
            .dead_letters
            .by_reason(DeadLetterReason::OperatorPanic),
        outcome.run.total_panics()
    );
}

#[test]
fn chaos_runs_are_reproducible_per_seed() {
    let topo = diamond();
    let cfg = ChaosConfig {
        items: 2_000,
        panic_prob: 0.08,
        engine: EngineConfig {
            seed: 42,
            ..EngineConfig::default()
        },
        ..ChaosConfig::default()
    };
    let a = run_chaos(&topo, &cfg).unwrap();
    let b = run_chaos(&topo, &cfg).unwrap();
    // The fault schedule is seeded per actor: identical runs see
    // identical panic counts per actor.
    let panics = |o: &spinstreams::tool::ChaosOutcome| {
        o.run.actors.iter().map(|a| a.panics).collect::<Vec<_>>()
    };
    assert_eq!(panics(&a), panics(&b));
    assert_eq!(a.run.total_dead_letters(), b.run.total_dead_letters());
}

#[test]
fn send_timeout_drops_surface_as_dead_letters_in_the_report() {
    // A slow consumer behind a tiny mailbox and a 1 ms send timeout: the
    // upstream sheds load, and every shed item must be visible end-to-end
    // in the run report as a SendTimeout dead letter.
    use spinstreams::runtime::operators::Spin;
    let mut g = ActorGraph::new();
    let s = g.add_actor(
        "src",
        Behavior::Source(SourceConfig::new(f64::INFINITY, 128)),
    );
    let w = g.add_actor("slow", Behavior::worker(Spin::new("slow", 2_000_000)));
    g.connect(s, Route::Unicast(w));
    g.set_mailbox_capacity(w, 4);
    let cfg = EngineConfig {
        send_timeout: Duration::from_millis(1),
        ..EngineConfig::default()
    };
    let report = run(g, &cfg).expect("load shedding is not an error");
    let dropped = report.actor(s).dropped;
    assert!(dropped > 0, "expected send-timeout drops");
    assert_eq!(report.dead_letters.total(), dropped);
    assert_eq!(
        report.dead_letters.by_reason(DeadLetterReason::SendTimeout),
        dropped
    );
    assert_eq!(report.actor(s).dead_letters, dropped);
    // Entries carry the failed route: src -> slow.
    for l in report.dead_letters.entries() {
        assert_eq!(l.source, s);
        assert_eq!(l.destination, Some(w));
    }
    // Conservation: everything the source generated is either consumed
    // downstream or structurally accounted for.
    assert_eq!(report.actor(w).items_in + dropped, 128);
}

#[test]
fn hand_built_graph_survives_injected_faults_with_restarts() {
    // Direct ActorGraph construction (no codegen): source -> flaky x2 ->
    // sink with restart supervision and real (tiny) backoff, checking the
    // backoff time is accounted.
    let mut g = ActorGraph::new();
    let s = g.add_actor(
        "src",
        Behavior::Source(SourceConfig::new(f64::INFINITY, 4_000)),
    );
    let f1 = g.add_actor(
        "flaky1",
        Behavior::Worker(Box::new(FaultInjector::new(
            PassThrough,
            FaultConfig::panics(0.05, 101),
        ))),
    );
    let f2 = g.add_actor(
        "flaky2",
        Behavior::Worker(Box::new(FaultInjector::new(
            PassThrough,
            FaultConfig::panics(0.05, 202),
        ))),
    );
    let k = g.add_actor("sink", Behavior::worker(PassThrough));
    g.connect(s, Route::Unicast(f1));
    g.connect(f1, Route::Unicast(f2));
    g.connect(f2, Route::Unicast(k));
    let backoff = Backoff {
        initial: Duration::from_micros(50),
        max: Duration::from_micros(50),
        multiplier: 1.0,
        jitter: 0.0,
    };
    for id in [f1, f2] {
        g.set_supervision(id, SupervisorSpec::restart(u32::MAX, backoff.clone()));
    }
    let report = run(g, &EngineConfig::default()).expect("supervised run completes");
    assert!(report.total_panics() > 0);
    assert_eq!(report.total_restarts(), report.total_panics());
    assert!(report.actor(f1).backoff > Duration::ZERO);
    // Sink arrivals ~ 4000 * 0.95^2 = 3610; generous ±8% band.
    let arrived = report.actor(k).items_in as f64;
    assert!(
        (arrived / 4_000.0 - 0.9025).abs() < 0.08,
        "arrived {arrived}"
    );
    assert_eq!(
        report.actor(k).items_in + report.total_dead_letters(),
        4_000,
        "conservation: arrived + dead-lettered = generated"
    );
}
