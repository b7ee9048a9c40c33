//! Criterion micro-benchmarks of the runtime substrate: mailbox transfer
//! cost, meta-operator dispatch, end-to-end virtual-time simulation
//! throughput (events/second of the DES engine), and the per-tuple
//! bookkeeping beside the kernels: source key sampling and count-window
//! slides.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use spinstreams_core::{KeyDistribution, Tuple};
use spinstreams_operators::CountWindow;
use spinstreams_runtime::operators::PassThrough;
use spinstreams_runtime::{
    channel, simulate, ActorGraph, Behavior, Envelope, MetaDest, MetaOperator, MetaRoute, Outputs,
    Route, SimConfig, SourceConfig, StreamOperator,
};
use std::hint::black_box;
use std::time::Duration;

fn bench_mailbox(c: &mut Criterion) {
    // Same-thread enqueue/dequeue cost (the per-hop overhead every item
    // pays in the threaded engine).
    c.bench_function("mailbox_send_recv_uncontended", |b| {
        let (tx, rx) = channel(1024);
        let env = Envelope::Data(Tuple::default());
        b.iter(|| {
            tx.send(black_box(env), Duration::from_secs(1));
            black_box(rx.try_recv())
        })
    });
}

fn bench_meta_operator(c: &mut Criterion) {
    let mut g = c.benchmark_group("meta_operator_dispatch");
    for members in [2usize, 5, 10] {
        // A chain of pass-through members: measures pure Algorithm 4
        // dispatch overhead per fused member.
        let ops: Vec<Box<dyn StreamOperator>> = (0..members)
            .map(|_| Box::new(PassThrough) as Box<dyn StreamOperator>)
            .collect();
        let routes: Vec<Vec<MetaRoute>> = (0..members)
            .map(|m| {
                if m + 1 < members {
                    vec![MetaRoute::Unicast(MetaDest::Member(m + 1))]
                } else {
                    vec![MetaRoute::Unicast(MetaDest::Output(0))]
                }
            })
            .collect();
        let mut meta = MetaOperator::new("bench", ops, routes, 0, 1);
        let mut out = Outputs::new();
        g.bench_with_input(BenchmarkId::new("chain", members), &members, |b, _| {
            b.iter(|| {
                out.clear();
                meta.process(black_box(Tuple::default()), &mut out);
                black_box(out.len())
            })
        });
    }
    g.finish();
}

fn bench_simulation(c: &mut Criterion) {
    let mut g = c.benchmark_group("virtual_time_simulation");
    g.sample_size(10);
    // End-to-end DES throughput on a 5-stage pipeline, 20k items.
    g.bench_function("pipeline5_20k_items", |b| {
        b.iter(|| {
            let mut graph = ActorGraph::new();
            let s = graph.add_actor(
                "src",
                Behavior::Source(SourceConfig::new(1_000_000.0, 20_000)),
            );
            let mut prev = s;
            for i in 0..5 {
                let w = graph.add_actor(format!("w{i}"), Behavior::worker(PassThrough));
                graph.connect(prev, Route::Unicast(w));
                prev = w;
            }
            black_box(
                simulate(
                    graph,
                    &SimConfig {
                        mailbox_capacity: 64,
                        seed: 1,
                        ..SimConfig::default()
                    },
                )
                .unwrap(),
            )
        })
    });
    g.finish();
}

fn bench_key_sampling(c: &mut Criterion) {
    // One inverse-CDF draw per generated tuple, as the engine and DES
    // sources pay it; the workloads' zipf key sets.
    let mut g = c.benchmark_group("key_distribution_sample");
    for (keys, alpha) in [(4096usize, 0.8), (1024, 0.9)] {
        let dist = KeyDistribution::zipf(keys, alpha);
        let mut u = 0.0f64;
        let id = BenchmarkId::new("zipf", format!("{keys}/{alpha}"));
        g.bench_with_input(id, &keys, |b, _| {
            b.iter(|| {
                // Golden-ratio steps cover [0, 1) evenly.
                u = (u + 0.618_033_988_749_895) % 1.0;
                black_box(dist.sample(black_box(u)))
            })
        });
    }
    g.finish();
}

fn bench_count_window(c: &mut Criterion) {
    // One slide of a full window per push: the per-tuple state update of
    // every windowed operator.
    let mut g = c.benchmark_group("count_window_push");
    for (length, slide) in [(32usize, 1usize), (100, 10)] {
        let mut w = CountWindow::new(length, slide);
        let mut seq = 0u64;
        let id = BenchmarkId::new("length_slide", format!("{length}/{slide}"));
        g.bench_with_input(id, &length, |b, _| {
            b.iter(|| {
                seq += 1;
                let item = Tuple::splat(0, seq, seq as f64);
                black_box(w.push(black_box(item)).map(|content| content.len()))
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_mailbox,
    bench_meta_operator,
    bench_simulation,
    bench_key_sampling,
    bench_count_window
);
criterion_main!(benches);
