//! Allocation regression test of the discrete-event simulator's per-event
//! path: once the run is set up, simulating more tuples must not allocate
//! more. The graph is src → split → one of two pass-throughs → sink, the
//! split routing probabilistically, so every tuple takes four hops (one
//! source emission and three services), with small mailboxes so senders
//! block and resume.
//!
//! A counting global allocator tallies allocations made on the calling
//! thread; the simulator is single-threaded, so the tally of a
//! `simulate` call is exactly the simulator's own.

use spinstreams::runtime::operators::PassThrough;
use spinstreams::runtime::{simulate, ActorGraph, Behavior, Route, SimConfig, SourceConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn graph(items: u64) -> ActorGraph {
    let mut g = ActorGraph::new();
    let src = g.add_actor("src", Behavior::Source(SourceConfig::new(1e6, items)));
    let split = g.add_actor("split", Behavior::worker(PassThrough));
    let a = g.add_actor("a", Behavior::worker(PassThrough));
    let b = g.add_actor("b", Behavior::worker(PassThrough));
    let sink = g.add_actor("sink", Behavior::worker(PassThrough));
    g.connect(src, Route::Unicast(split));
    g.connect(
        split,
        Route::Probabilistic {
            choices: vec![(a, 0.5), (b, 0.5)],
        },
    );
    g.connect(a, Route::Unicast(sink));
    g.connect(b, Route::Unicast(sink));
    g.set_mailbox_capacity(sink, 4);
    g
}

/// Allocations made by one `simulate` run of `items` source tuples
/// (graph construction excluded).
fn allocations(items: u64) -> u64 {
    let g = graph(items);
    let config = SimConfig {
        mailbox_capacity: 8,
        seed: 3,
        intrinsic_time: false,
        ..SimConfig::default()
    };
    let before = ALLOCS.with(Cell::get);
    let report = simulate(g, &config).unwrap();
    let after = ALLOCS.with(Cell::get);
    assert_eq!(report.actors[4].items_in, items);
    after - before
}

#[test]
fn simulated_tuples_do_not_allocate() {
    const N: u64 = 20_000;
    let once = allocations(N);
    let twice = allocations(2 * N);
    let per_tuple = twice.saturating_sub(once) as f64 / N as f64;
    assert_eq!(
        twice,
        once,
        "{per_tuple:.3} allocations per source tuple ({once} for {N} tuples, {twice} for {})",
        2 * N
    );
}
