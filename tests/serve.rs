//! Tier-1 multi-tenant serving tests: N seeded tenants co-scheduled on one
//! shared engine must reproduce their solo sink counts exactly across pool
//! sizes and batch sizes; identical submissions must hit the plan
//! cache and get the byte-identical plan; the admission model must queue
//! and reject predicted oversubscription before deployment; and the PR 9
//! migration hook must swap the cached plan in place.

use spinstreams::analysis::{AdmissionConfig, AdmissionVerdict, PlanChange};
use spinstreams::core::{OperatorSpec, ServiceTime, Topology};
use spinstreams::runtime::{EngineConfig, ExecutorKind};
use spinstreams::serve::{ServeConfig, StreamService, SubmitRequest, TenantState};
use spinstreams::tool::{run_multitenant_layer_with, tenant_topology, MultiTenantConfig};

const SEED: u64 = 7;

fn scenario(workers: usize, batch: usize) -> MultiTenantConfig {
    MultiTenantConfig {
        tenants: 3,
        items: 600,
        tolerance: 0.25,
        engine: EngineConfig {
            batch_size: batch,
            executor: ExecutorKind::Pool { workers },
            ..EngineConfig::default()
        },
    }
}

/// A serving front end that trusts the submitted annotations (no
/// profiling run) on a single-worker shared pool.
fn service(workers: usize) -> StreamService {
    let engine = EngineConfig {
        executor: ExecutorKind::Pool { workers },
        ..EngineConfig::default()
    };
    let mut cfg = ServeConfig::new(engine);
    cfg.calibration_items = 0;
    StreamService::new(cfg)
}

/// A paced two-stage pipeline whose single worker stage costs `work_us`
/// per item against a `pace_us`-throttled source.
fn pipeline(pace_us: f64, work_us: f64) -> Topology {
    let mut b = Topology::builder();
    let s = b.add_operator(
        OperatorSpec::source("src", ServiceTime::from_micros(pace_us)).with_kind("source"),
    );
    let w = b.add_operator(
        OperatorSpec::stateless("work", ServiceTime::from_micros(work_us))
            .with_kind("identity-map")
            .with_param("work_ns", work_us * 1_000.0),
    );
    b.add_edge(s, w, 1.0).unwrap();
    b.build().unwrap()
}

// ---------------------------------------------------------------------
// Shared-pool isolation: solo == concurrent, per tenant, exactly.
// ---------------------------------------------------------------------

#[test]
fn three_tenants_on_the_shared_pool_match_solo_across_batch_sizes() {
    for batch in [1, 8, 64] {
        let report = run_multitenant_layer_with(SEED, &scenario(1, batch))
            .unwrap_or_else(|e| panic!("batch {batch}: {e}"));
        assert!(
            report.is_clean(),
            "pool batch {batch}: {:?}",
            report.divergences
        );
        assert_eq!(report.tenants.len(), 3);
        for t in &report.tenants {
            assert_eq!(
                t.solo_sink, t.concurrent_sink,
                "tenant {} sinks diverged at batch {batch}",
                t.name
            );
            assert!(t.solo_sink > 0, "tenant {} delivered nothing", t.name);
        }
    }
}

#[test]
fn three_tenants_on_the_default_pool_match_solo_across_batch_sizes() {
    for batch in [1, 8, 64] {
        let report = run_multitenant_layer_with(SEED + 1, &scenario(0, batch))
            .unwrap_or_else(|e| panic!("batch {batch}: {e}"));
        assert!(
            report.is_clean(),
            "pool (one per core) batch {batch}: {:?}",
            report.divergences
        );
        for t in &report.tenants {
            assert_eq!(t.solo_sink, t.concurrent_sink);
        }
    }
}

// ---------------------------------------------------------------------
// Plan cache: identical submissions hit and reuse the identical plan.
// ---------------------------------------------------------------------

#[test]
fn cache_hit_returns_the_byte_identical_plan() {
    let mut svc = service(1);
    let topo = tenant_topology(SEED, 0);
    let cold = svc
        .submit(SubmitRequest::new("cold", topo.clone()).with_items(500))
        .unwrap();
    assert!(!cold.cache_hit);
    let warm = svc
        .submit(SubmitRequest::new("warm", topo).with_items(500))
        .unwrap();
    assert!(warm.cache_hit);
    assert_eq!(cold.key, warm.key);
    assert_eq!(cold.plan_checksum, warm.plan_checksum);
    // Byte equality of the canonical plan text, not just the checksum.
    assert_eq!(
        svc.plan_text("cold").unwrap(),
        svc.plan_text("warm").unwrap()
    );
    let stats = svc.cache_stats();
    assert_eq!((stats.entries, stats.hits, stats.misses), (1, 1, 1));

    // Any annotation change must produce a different key (cold path again).
    let other = tenant_topology(SEED, 1);
    let fresh = svc
        .submit(SubmitRequest::new("other", other).with_items(500))
        .unwrap();
    assert!(!fresh.cache_hit);
    assert_ne!(fresh.key, cold.key);
}

// ---------------------------------------------------------------------
// Admission: the model queues and rejects *before* deployment.
// ---------------------------------------------------------------------

#[test]
fn admission_rejects_predicted_oversubscription() {
    let mut svc = service(1);
    // Usable capacity: 1 core × 90 % headroom. A 2 k/s source against a
    // 1 ms stage predicts ρ = 2: Algorithm 2 replicates it, but the plan
    // still demands ~2 worker cores — far beyond 0.9.
    let heavy = svc
        .submit(SubmitRequest::new("heavy", pipeline(500.0, 1_000.0)).with_items(100))
        .unwrap();
    assert_eq!(heavy.state, TenantState::Rejected);
    match heavy.verdict {
        AdmissionVerdict::Reject {
            demand_cores,
            capacity_cores,
            deficit_cores,
            predicted_throughput_fraction,
        } => {
            assert!(demand_cores > capacity_cores);
            assert!((deficit_cores - (demand_cores - capacity_cores)).abs() < 1e-9);
            assert!(
                predicted_throughput_fraction > 0.0 && predicted_throughput_fraction < 1.0,
                "fraction = {predicted_throughput_fraction}"
            );
        }
        other => panic!("expected Reject, got {other:?}"),
    }
    // Rejected tenants never launch and hold no demand.
    assert_eq!(svc.running_demand(), 0.0);
    assert!(svc.launch().unwrap().is_empty());
}

#[test]
fn queued_tenant_is_promoted_when_capacity_frees() {
    let engine = EngineConfig {
        executor: ExecutorKind::Pool { workers: 1 },
        ..EngineConfig::default()
    };
    let mut cfg = ServeConfig::new(engine);
    cfg.calibration_items = 0;
    cfg.admission = AdmissionConfig {
        capacity_cores: 0.5,
        headroom: 1.0,
    };
    let mut svc = StreamService::new(cfg);
    // Each pipeline demands 0.4 worker cores (2 k/s × 200 µs).
    let a = svc
        .submit(SubmitRequest::new("a", pipeline(500.0, 200.0)).with_items(100))
        .unwrap();
    assert_eq!(a.state, TenantState::Admitted);
    let b = svc
        .submit(SubmitRequest::new("b", pipeline(500.0, 200.0)).with_items(200))
        .unwrap();
    assert_eq!(b.state, TenantState::Queued);
    match b.verdict {
        AdmissionVerdict::Queue {
            demand_cores,
            available_cores,
        } => assert!(demand_cores > available_cores),
        other => panic!("expected Queue, got {other:?}"),
    }
    svc.stop("a").unwrap();
    assert_eq!(svc.status()[1].state, TenantState::Admitted);
    // The promoted tenant actually runs at the next launch.
    let runs = svc.launch().unwrap();
    assert_eq!(runs.len(), 1);
    assert_eq!(runs[0].name, "b");
}

// ---------------------------------------------------------------------
// PR 9 integration: adaptive migrations update or invalidate the cache.
// ---------------------------------------------------------------------

#[test]
fn migration_hook_swaps_the_cached_plan_and_invalidation_evicts_it() {
    let mut svc = service(2);
    let topo = pipeline(500.0, 100.0);
    let cold = svc
        .submit(SubmitRequest::new("a", topo.clone()).with_items(100))
        .unwrap();

    let n = topo.num_operators();
    let change = PlanChange {
        replicas: vec![1, 2],
        old_replicas: vec![1; n],
        assignments: vec![None; n],
        predicted_throughput: 0.0,
        old_predicted_throughput: 0.0,
        stale: vec![],
        topology: topo.clone(),
    };
    svc.apply_migration("a", &change).unwrap();
    assert_eq!(svc.cache_stats().updates, 1);

    // Warm resubmission now yields the *migrated* plan under the same key.
    let warm = svc
        .submit(SubmitRequest::new("b", topo.clone()).with_items(100))
        .unwrap();
    assert!(warm.cache_hit);
    assert_eq!(warm.key, cold.key);
    assert_ne!(warm.plan_checksum, cold.plan_checksum);
    assert!(svc.plan_text("b").unwrap().contains("replicas=[1,2]"));

    // Invalidation evicts; the next identical submission re-optimizes and
    // lands back on the original plan bytes.
    assert!(svc.invalidate("a").unwrap());
    let fresh = svc
        .submit(SubmitRequest::new("c", topo).with_items(100))
        .unwrap();
    assert!(!fresh.cache_hit);
    assert_eq!(fresh.plan_checksum, cold.plan_checksum);
}
