//! Equivalence tests for the batched data path: coalescing envelopes must
//! change throughput, never semantics. Delivered counts, per-key order and
//! supervision accounting must all be independent of `batch_size`.

use spinstreams::core::KeyDistribution;
use spinstreams::runtime::operators::{FnOperator, PassThrough};
use spinstreams::runtime::{
    run, ActorGraph, Behavior, EngineConfig, ExecutorKind, Outputs, Route, SourceConfig,
};
use std::sync::{Arc, Mutex};

const BATCH_SIZES: [usize; 3] = [1, 8, 64];

fn engine_cfg(batch_size: usize) -> EngineConfig {
    EngineConfig {
        mailbox_capacity: 64,
        seed: 42,
        batch_size,
        ..EngineConfig::default()
    }
}

/// Source with uniform keys fanning out over a `KeyMap` into two replicas
/// that converge on an order-recording sink. Each key follows exactly one
/// path, so its arrival order at the sink is fully determined — at every
/// batch size.
fn run_keyed(batch_size: usize, items: u64) -> Vec<(u64, u64)> {
    run_keyed_on(f64::INFINITY, items, &engine_cfg(batch_size))
}

/// [`run_keyed`] with a source declared at `rate` items/s, on `engine`.
fn run_keyed_on(rate: f64, items: u64, engine: &EngineConfig) -> Vec<(u64, u64)> {
    let arrivals: Arc<Mutex<Vec<(u64, u64)>>> = Arc::new(Mutex::new(Vec::new()));
    let mut g = ActorGraph::new();
    let cfg = SourceConfig::new(rate, items).with_keys(KeyDistribution::uniform(8));
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
    let report = run(g, engine).unwrap();
    assert_eq!(report.actor(k).items_in, items, "no items lost or dropped");
    assert_eq!(report.total_dropped(), 0);
    Arc::try_unwrap(arrivals).unwrap().into_inner().unwrap()
}

#[test]
fn keyed_delivery_counts_and_per_key_order_match_across_batch_sizes() {
    let items = 4_000;
    let baseline = run_keyed(1, items);
    assert_eq!(baseline.len(), items as usize);
    // Per-key sequences of the unbatched run, in arrival order.
    let per_key = |arrivals: &[(u64, u64)]| -> Vec<Vec<u64>> {
        let mut seqs = vec![Vec::new(); 8];
        for &(key, seq) in arrivals {
            seqs[key as usize].push(seq);
        }
        seqs
    };
    let base_seqs = per_key(&baseline);
    for seqs in &base_seqs {
        assert!(
            seqs.windows(2).all(|w| w[0] < w[1]),
            "per-key arrival order must be the source order"
        );
    }
    for batch in [8, 64] {
        let arrivals = run_keyed(batch, items);
        assert_eq!(arrivals.len(), items as usize, "batch {batch}");
        assert_eq!(
            per_key(&arrivals),
            base_seqs,
            "batch {batch}: per-key order must match the unbatched run"
        );
    }
}

/// A paced source sleeps between bursts and hands over what it holds
/// before every sleep, so its batches are cut by the clock rather than by
/// `batch_size`. Where the cut falls must not change what arrives.
#[test]
fn paced_keyed_delivery_counts_and_per_key_order_match_across_batch_sizes() {
    let items = 5_000;
    let per_key = |arrivals: &[(u64, u64)]| -> Vec<Vec<u64>> {
        let mut seqs = vec![Vec::new(); 8];
        for &(key, seq) in arrivals {
            seqs[key as usize].push(seq);
        }
        seqs
    };
    let mut baseline: Option<Vec<Vec<u64>>> = None;
    for executor in [
        ExecutorKind::Pool { workers: 1 },
        ExecutorKind::Pool { workers: 2 },
    ] {
        for batch in BATCH_SIZES {
            let engine = EngineConfig {
                executor,
                ..engine_cfg(batch)
            };
            let arrivals = run_keyed_on(100_000.0, items, &engine);
            assert_eq!(
                arrivals.len(),
                items as usize,
                "{executor:?}, batch {batch}"
            );
            let seqs = per_key(&arrivals);
            match &baseline {
                None => {
                    for key_seqs in &seqs {
                        assert!(
                            key_seqs.windows(2).all(|w| w[0] < w[1]),
                            "per-key arrival order must be the source order"
                        );
                    }
                    baseline = Some(seqs);
                }
                Some(base) => assert_eq!(
                    &seqs, base,
                    "{executor:?}, batch {batch}: per-key order must match the unbatched run"
                ),
            }
        }
    }
}

#[test]
fn fan_out_topology_is_lossless_at_every_batch_size() {
    for batch in BATCH_SIZES {
        let mut g = ActorGraph::new();
        let s = g.add_actor(
            "src",
            Behavior::Source(SourceConfig::new(f64::INFINITY, 3_000)),
        );
        let replicas: Vec<_> = (0..4)
            .map(|i| g.add_actor(format!("r{i}"), Behavior::worker(PassThrough)))
            .collect();
        let k = g.add_actor("sink", Behavior::worker(PassThrough));
        g.connect(s, Route::RoundRobin(replicas.clone()));
        for r in &replicas {
            g.connect(*r, Route::Unicast(k));
        }
        let report = run(g, &engine_cfg(batch)).unwrap();
        assert_eq!(report.actor(k).items_in, 3_000, "batch {batch}");
        for r in &replicas {
            assert_eq!(report.actor(*r).items_in, 750, "batch {batch}");
        }
        assert_eq!(report.total_dropped(), 0);
    }
}
