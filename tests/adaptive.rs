//! End-to-end adaptive re-optimization tests: a sustained mid-run
//! service-time shift must trigger a live plan migration — route swap on an
//! epoch barrier, no stream stop — across batch sizes and pool sizes,
//! with exactly-once sink delivery throughout; a clean run must never
//! migrate; and a migration racing a supervised crash/restart must still
//! deliver every tuple.

use spinstreams::analysis::{AdaptiveConfig, DriftConfig};
use spinstreams::core::{OperatorSpec, ServiceTime, Topology};
use spinstreams::runtime::{EngineConfig, ExecutorKind};
use spinstreams::tool::{run_adaptation_layer, run_adaptive, AdaptiveRunConfig, OperatorFault};
use std::time::Duration;

const ITEMS: u64 = 10_000;

/// src → worker → sink, calibrated to fit well under one core (CI boxes
/// may have a single CPU): a 4 k/s paced source and 50 µs + 25 µs of spin
/// work per item keep measured busy times close to the declarations, so
/// only the injected fault crosses the drift threshold.
fn pipeline() -> Topology {
    let mut b = Topology::builder();
    let s = b.add_operator(
        OperatorSpec::source("src", ServiceTime::from_micros(250.0)).with_kind("source"),
    );
    let w = b.add_operator(
        OperatorSpec::stateless("worker", ServiceTime::from_micros(50.0))
            .with_kind("identity-map")
            .with_param("work_ns", 50_000.0),
    );
    let k = b.add_operator(
        OperatorSpec::stateless("sink", ServiceTime::from_micros(25.0))
            .with_kind("identity-map")
            .with_param("work_ns", 25_000.0),
    );
    b.add_edge(s, w, 1.0).unwrap();
    b.add_edge(w, k, 1.0).unwrap();
    b.build().unwrap()
}

fn config(batch: usize, workers: usize) -> AdaptiveRunConfig {
    AdaptiveRunConfig {
        items: ITEMS,
        controller: AdaptiveConfig {
            drift: DriftConfig {
                threshold: 0.5,
                warmup_ticks: 2,
                consecutive: 2,
            },
            cooldown_ticks: 3,
            hysteresis: 0.05,
            max_replicas: 6,
            min_samples: 100,
        },
        telemetry_interval: Duration::from_millis(20),
        engine: EngineConfig {
            seed: 11,
            batch_size: batch,
            executor: ExecutorKind::Pool { workers },
            checkpoint_interval: Some(500),
            ..EngineConfig::default()
        },
        ..AdaptiveRunConfig::default()
    }
}

/// The worker slows ~7× a fifth of the way through the stream.
fn slowdown() -> OperatorFault {
    OperatorFault {
        operator: "worker".into(),
        slow_after: Some((2_000, 300_000)),
        ..OperatorFault::default()
    }
}

fn assert_migrated_exactly_once(cfg: &AdaptiveRunConfig, label: &str) {
    let outcome = run_adaptive(&pipeline(), None, cfg).unwrap();
    assert!(
        !outcome.changes.is_empty(),
        "{label}: sustained drift must re-plan (ticks={}, rebases={})",
        outcome.ticks,
        outcome.rebases,
    );
    assert!(
        outcome.final_replicas[1] > 1,
        "{label}: worker must scale out, got {:?}",
        outcome.final_replicas
    );
    assert!(
        outcome.swaps_applied >= 1,
        "{label}: the route swap must apply on a live epoch barrier"
    );
    // Exactly-once across the migration: nothing lost, nothing duplicated.
    assert_eq!(outcome.sink_arrivals, cfg.items, "{label}: sink arrivals");
    assert_eq!(outcome.run.total_dead_letters(), 0, "{label}: dead letters");
}

#[test]
fn migration_fires_across_batch_sizes_default_pool() {
    for batch in [1usize, 8, 64] {
        let cfg = AdaptiveRunConfig {
            faults: vec![slowdown()],
            ..config(batch, 0)
        };
        assert_migrated_exactly_once(&cfg, &format!("pool (one per core), batch {batch}"));
    }
}

#[test]
fn migration_fires_across_batch_sizes_pool() {
    for batch in [1usize, 8, 64] {
        let cfg = AdaptiveRunConfig {
            faults: vec![slowdown()],
            ..config(batch, 2)
        };
        assert_migrated_exactly_once(&cfg, &format!("pool(2), batch {batch}"));
    }
}

#[test]
fn migration_survives_a_racing_supervised_restart() {
    // The worker both slows (drift → migration) and panics shortly after
    // the shift, so the supervised restart and the route swap race around
    // the same epochs. Recovery replays from the last checkpoint; the
    // migration must still complete and the sink must see every tuple
    // exactly once.
    let cfg = AdaptiveRunConfig {
        faults: vec![OperatorFault {
            operator: "worker".into(),
            slow_after: Some((2_000, 300_000)),
            crash_after_tuples: Some(2_600),
        }],
        ..config(8, 0)
    };
    let outcome = run_adaptive(&pipeline(), None, &cfg).unwrap();
    assert!(
        outcome.run.total_recoveries() >= 1,
        "the crash must actually restart the worker"
    );
    assert!(
        !outcome.changes.is_empty(),
        "drift must still re-plan (ticks={}, rebases={})",
        outcome.ticks,
        outcome.rebases,
    );
    assert!(outcome.swaps_applied >= 1);
    assert_eq!(outcome.sink_arrivals, cfg.items);
    assert_eq!(outcome.run.total_dead_letters(), 0);
}

#[test]
fn clean_run_keeps_the_static_plan() {
    let cfg = config(8, 0);
    let outcome = run_adaptive(&pipeline(), None, &cfg).unwrap();
    assert!(outcome.ticks > 0, "controller must tick");
    assert!(
        outcome.changes.is_empty(),
        "no drift, no migration; got {:?}",
        outcome
            .changes
            .iter()
            .map(|c| (c.stale.clone(), c.old_replicas.clone(), c.replicas.clone()))
            .collect::<Vec<_>>()
    );
    assert_eq!(outcome.swaps_posted, 0);
    assert_eq!(outcome.final_replicas, outcome.initial_replicas);
    assert_eq!(outcome.sink_arrivals, cfg.items);
}

#[test]
fn adaptation_layer_is_clean_on_the_ci_seed() {
    // The full differential check behind `spinstreams oracle
    // --adaptation-seeds`: golden vs shifted run, byte-identical per-key
    // sink output, post-migration throughput within the drift threshold
    // of the new plan's Algorithm 1 prediction.
    let report = run_adaptation_layer(1).unwrap();
    assert!(report.is_clean(), "divergences: {:?}", report.divergences);
}
