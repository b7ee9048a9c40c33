//! Allocation regression test of the wall-clock engine's steady-state data
//! path: once a run is set up, pushing more tuples through it must not
//! allocate more. The graph is src → F(identity-map × 3) → sink, the
//! interior one [`MetaOperator`] — the shape Algorithm 3 fusion groups run
//! as — on a one-worker pool at batch 64.
//!
//! A counting global allocator tallies allocations on every thread (the
//! engine runs its source and pool worker on threads of its own). Startup
//! — graph build, mailbox rings, pre-sized coalescing buffers, thread
//! spawns — costs the same at `N` and `2N` tuples, so the difference
//! between the two runs is what the extra `N` tuples allocated.
//!
//! [`MetaOperator`]: spinstreams::runtime::MetaOperator

use spinstreams::operators::{build_operator, OperatorKind, OperatorParams};
use spinstreams::runtime::operators::PassThrough;
use spinstreams::runtime::{
    run, ActorGraph, Behavior, EngineConfig, ExecutorKind, MetaDest, MetaOperator, MetaRoute,
    Route, SourceConfig, DEFAULT_PORT,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation to `System` unchanged; the counter has
// no effect on the returned pointers or layouts.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn fused_graph(items: u64) -> (ActorGraph, spinstreams::runtime::ActorId) {
    let mut g = ActorGraph::new();
    let s = g.add_actor(
        "src",
        Behavior::Source(SourceConfig::new(f64::INFINITY, items)),
    );
    let params = OperatorParams {
        work_ns: 0,
        ..OperatorParams::default()
    };
    let members = (0..3)
        .map(|_| build_operator(OperatorKind::IdentityMap, &params))
        .collect();
    let routes = vec![
        vec![MetaRoute::Unicast(MetaDest::Member(1))],
        vec![MetaRoute::Unicast(MetaDest::Member(2))],
        vec![MetaRoute::Unicast(MetaDest::Output(DEFAULT_PORT))],
    ];
    let f = g.add_actor(
        "fused",
        Behavior::worker(MetaOperator::new(
            "F(identity-map x3)",
            members,
            routes,
            0,
            1,
        )),
    );
    let k = g.add_actor("sink", Behavior::worker(PassThrough));
    g.connect(s, Route::Unicast(f));
    g.connect(f, Route::Unicast(k));
    (g, k)
}

/// Allocations made by one engine run of `items` source tuples (graph
/// construction excluded).
fn allocations(items: u64) -> u64 {
    let (g, sink) = fused_graph(items);
    let cfg = EngineConfig {
        executor: ExecutorKind::Pool { workers: 1 },
        batch_size: 64,
        seed: 0xA110C,
        ..EngineConfig::default()
    };
    let before = ALLOCS.load(Ordering::Relaxed);
    let report = run(g, &cfg).unwrap();
    let after = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(report.actor(sink).items_in, items);
    assert_eq!(report.total_dropped(), 0);
    after - before
}

#[test]
fn steady_state_tuples_do_not_allocate() {
    const N: u64 = 20_000;
    // One allocation per thousand tuples of headroom for one-off events
    // whose count depends on timing (a producer registering in a mailbox's
    // park registry the first time it blocks). One allocation per 64-tuple
    // batch would be 15x over it.
    const SLACK: u64 = N / 1_000;
    let once = allocations(N);
    let twice = allocations(2 * N);
    let extra = twice.saturating_sub(once);
    assert!(
        extra <= SLACK,
        "{:.4} allocations per extra tuple ({once} for {N} tuples, {twice} for {})",
        extra as f64 / N as f64,
        2 * N
    );
}
