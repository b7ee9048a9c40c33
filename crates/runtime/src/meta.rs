//! The meta-operator: Algorithm 4, the executor of a fused sub-graph.
//!
//! A meta-operator owns the member operators of a fused sub-graph plus
//! their *internal* routing. For each input item it runs the front-end
//! member; every emitted item either feeds another member (processed
//! inside the same actor — no mailbox hop) or leaves the sub-graph on one
//! of the meta-operator's external ports. Because the sub-graph is
//! acyclic, the traversal always ends (§4.2).
//!
//! The traversal is level-synchronous: every `(member, item)` pair of one
//! level is processed, in order, before any pair of the next. That is the
//! visit order of a FIFO work-list, so item order and the order of route
//! draws are those of a breadth-first walk. A linear chain needs no
//! special case: each level holds the items one stage emitted.

use crate::checkpoint::StateSnapshot;
use crate::rng::XorShift64;
use crate::{Outputs, StreamOperator};
use spinstreams_core::Tuple;

/// Where an item emitted by a member goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetaDest {
    /// Another member of the fused sub-graph (index into the member list).
    Member(usize),
    /// An external port of the meta-operator.
    Output(usize),
}

/// Internal routing policy for one member port — mirrors [`crate::Route`]
/// but with member/output destinations.
#[derive(Debug, Clone)]
pub enum MetaRoute {
    /// Every item to the same destination.
    Unicast(MetaDest),
    /// Destination drawn from a fixed distribution (application-semantics
    /// simulation, as for the actor-level probabilistic routes).
    Probabilistic {
        /// Destinations and probabilities (sum ≈ 1).
        choices: Vec<(MetaDest, f64)>,
    },
}

/// The fused operator executing Algorithm 4.
pub struct MetaOperator {
    name: String,
    members: Vec<Box<dyn StreamOperator>>,
    /// `routes[m][p]` routes port `p` of member `m`.
    routes: Vec<Vec<MetaRoute>>,
    /// `cums[m][p]` is the cumulative distribution of a `Probabilistic`
    /// route (empty for `Unicast`), precomputed once at construction and
    /// accumulated left-to-right exactly like
    /// `XorShift64::sample_discrete`, so per-item resolution is a binary
    /// search with bit-identical results to the linear scan.
    cums: Vec<Vec<Vec<f64>>>,
    front: usize,
    rng: XorShift64,
    /// The `(member, item)` pairs of the level being processed, and those
    /// of the next level. A member emits straight into the buffer of the
    /// level after its own, where its `(port, item)` entries are then
    /// rewritten in place to their destination member. Both are emptied
    /// by every activation, so steady state never re-allocates them.
    level: Outputs,
    next: Outputs,
    /// Flush traversal (front first, then the rest), precomputed once.
    flush_order: Vec<usize>,
}

impl MetaOperator {
    /// Creates a meta-operator.
    ///
    /// * `members` — the fused operators;
    /// * `routes` — per member, per port, the internal route;
    /// * `front` — index of the front-end member (every input item starts
    ///   there).
    ///
    /// # Panics
    ///
    /// Panics if `front` is out of range or `routes` length differs from
    /// `members`. Route cycles are the builder's responsibility (fused
    /// sub-graphs are acyclic by construction, §3.3); a cycle would loop
    /// forever.
    pub fn new(
        name: impl Into<String>,
        members: Vec<Box<dyn StreamOperator>>,
        routes: Vec<Vec<MetaRoute>>,
        front: usize,
        seed: u64,
    ) -> Self {
        assert_eq!(members.len(), routes.len(), "one route table per member");
        assert!(front < members.len(), "front-end index out of range");
        let cums = routes
            .iter()
            .map(|table| {
                table
                    .iter()
                    .map(|route| match route {
                        MetaRoute::Unicast(_) => Vec::new(),
                        MetaRoute::Probabilistic { choices } => {
                            let mut acc = 0.0;
                            choices
                                .iter()
                                .map(|(_, p)| {
                                    acc += p;
                                    acc
                                })
                                .collect()
                        }
                    })
                    .collect()
            })
            .collect();
        let flush_order = std::iter::once(front)
            .chain((0..members.len()).filter(|m| *m != front))
            .collect();
        MetaOperator {
            name: name.into(),
            members,
            routes,
            cums,
            front,
            rng: XorShift64::new(seed),
            level: Outputs::new(),
            next: Outputs::new(),
            flush_order,
        }
    }

    /// Number of fused members.
    pub fn num_members(&self) -> usize {
        self.members.len()
    }

    /// Runs the traversal from the pairs in `self.level` until no level
    /// is left, emitting externals to `out`. Both frontiers are empty on
    /// return, ready for reuse.
    fn drive(&mut self, out: &mut Outputs) {
        while !self.level.is_empty() {
            for i in 0..self.level.len() {
                let (m, item) = self.level.items()[i];
                let start = self.next.len();
                self.members[m].process(item, &mut self.next);
                route(
                    &self.routes[m],
                    &self.cums[m],
                    &mut self.rng,
                    self.next.items_mut(),
                    start,
                    out,
                );
            }
            self.level.clear();
            std::mem::swap(&mut self.level, &mut self.next);
        }
    }
}

/// Resolves the `(port, item)` pairs one member emitted into `level` from
/// index `start` on, through its route table: an internal destination
/// rewrites the pair in place to `(member, item)`, an external one moves
/// the item to `out`, and an unrouted port is an internal sink. `cums`
/// holds each port's precomputed cumulative distribution.
fn route(
    routes: &[MetaRoute],
    cums: &[Vec<f64>],
    rng: &mut XorShift64,
    level: &mut Vec<(usize, Tuple)>,
    start: usize,
    out: &mut Outputs,
) {
    let mut kept = start;
    for i in start..level.len() {
        let dest = match routes.get(level[i].0) {
            Some(MetaRoute::Unicast(d)) => *d,
            Some(MetaRoute::Probabilistic { choices }) => {
                let cum = &cums[level[i].0];
                let u = rng.next_f64();
                // First index with `u < cum[idx]`; the last bucket absorbs
                // floating-point slack, matching `sample_discrete`.
                let idx = cum.partition_point(|&c| c <= u).min(choices.len() - 1);
                choices[idx].0
            }
            None => continue,
        };
        match dest {
            MetaDest::Member(j) => {
                if kept == i {
                    level[i].0 = j;
                } else {
                    level[kept] = (j, level[i].1);
                }
                kept += 1;
            }
            MetaDest::Output(p) => out.emit(p, level[i].1),
        }
    }
    level.truncate(kept);
}

impl StreamOperator for MetaOperator {
    fn process(&mut self, item: Tuple, out: &mut Outputs) {
        // A member panic that a `Resume` supervisor catches unwinds out of
        // `drive` mid-traversal; what is left of the poisoned item's
        // traversal is dropped here rather than leaking into this one.
        self.level.clear();
        self.next.clear();
        self.members[self.front].process(item, &mut self.level);
        route(
            &self.routes[self.front],
            &self.cums[self.front],
            &mut self.rng,
            self.level.items_mut(),
            0,
            out,
        );
        self.drive(out);
    }

    fn flush(&mut self, out: &mut Outputs) {
        // Flush members front-first (precomputed order) so buffered
        // state (windows) drains through the same internal routing as
        // live items: a member's flush output is the first level.
        for idx in 0..self.flush_order.len() {
            let m = self.flush_order[idx];
            self.members[m].flush(&mut self.level);
            route(
                &self.routes[m],
                &self.cums[m],
                &mut self.rng,
                self.level.items_mut(),
                0,
                out,
            );
            self.drive(out);
        }
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn reset(&mut self) {
        // A restart of the fused actor restarts every member: partial
        // state surviving in some members would break the sub-graph's
        // semantic equivalence with its unfused form.
        for m in &mut self.members {
            m.reset();
        }
        self.level.clear();
        self.next.clear();
    }

    fn snapshot(&mut self) -> Option<StateSnapshot> {
        // Layout: rng state, member count, then per member a presence
        // flag and (if present) its snapshot length-prefixed in 64-bit
        // words. Epoch barriers land between tuples, so the frontiers are
        // empty and carry no state.
        let mut snap = StateSnapshot::new();
        snap.push_u64(self.rng.state());
        snap.push_u64(self.members.len() as u64);
        for m in &mut self.members {
            match m.snapshot() {
                Some(inner) => {
                    debug_assert_eq!(inner.len() % 8, 0, "snapshots are u64-aligned");
                    snap.push_u64(1);
                    snap.push_u64((inner.len() / 8) as u64);
                    let mut r = inner.reader();
                    while let Some(w) = r.read_u64() {
                        snap.push_u64(w);
                    }
                }
                None => snap.push_u64(0),
            }
        }
        Some(snap)
    }

    fn restore(&mut self, snapshot: &StateSnapshot) -> bool {
        let mut r = snapshot.reader();
        let Some(rng_state) = r.read_u64() else {
            return false;
        };
        match r.read_u64() {
            Some(n) if n == self.members.len() as u64 => {}
            _ => return false,
        }
        for m in &mut self.members {
            match r.read_u64() {
                Some(0) => {} // stateless member: fresh instance is fine
                Some(1) => {
                    let Some(words) = r.read_u64() else {
                        return false;
                    };
                    let mut inner = StateSnapshot::new();
                    for _ in 0..words {
                        let Some(w) = r.read_u64() else {
                            return false;
                        };
                        inner.push_u64(w);
                    }
                    if !m.restore(&inner) {
                        return false;
                    }
                }
                _ => return false,
            }
        }
        self.rng.set_state(rng_state);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::{FnOperator, PassThrough};

    fn add_op(delta: f64) -> Box<dyn StreamOperator> {
        Box::new(FnOperator::new(
            "add",
            move |t: Tuple, out: &mut Outputs| {
                out.emit_default(t.with_value(0, t.values[0] + delta));
            },
        ))
    }

    #[test]
    fn chain_of_members_applies_sequentially() {
        // front (+1) -> member1 (+10) -> external port 0.
        let meta = MetaOperator::new(
            "F",
            vec![add_op(1.0), add_op(10.0)],
            vec![
                vec![MetaRoute::Unicast(MetaDest::Member(1))],
                vec![MetaRoute::Unicast(MetaDest::Output(0))],
            ],
            0,
            1,
        );
        let mut meta = meta;
        let mut out = Outputs::new();
        meta.process(Tuple::splat(0, 0, 0.0), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out.items()[0].1.values[0], 11.0);
        assert_eq!(meta.num_members(), 2);
    }

    fn member(f: impl FnMut(Tuple, &mut Outputs) + Send + 'static) -> Box<dyn StreamOperator> {
        Box::new(FnOperator::new("member", f))
    }

    /// A linear chain of `members` ending on external port `out_port`.
    fn chain(members: Vec<Box<dyn StreamOperator>>, out_port: usize) -> MetaOperator {
        let n = members.len();
        let routes = (0..n)
            .map(|m| {
                let dest = if m + 1 < n {
                    MetaDest::Member(m + 1)
                } else {
                    MetaDest::Output(out_port)
                };
                vec![MetaRoute::Unicast(dest)]
            })
            .collect();
        MetaOperator::new("F", members, routes, 0, 1)
    }

    #[test]
    fn chain_stages_apply_in_order() {
        // x * 2 then + 1 reads 7 from 3; the other order would read 8.
        let mut meta = chain(
            vec![
                member(|t: Tuple, out: &mut Outputs| {
                    out.emit_default(t.with_value(0, t.values[0] * 2.0))
                }),
                add_op(1.0),
            ],
            0,
        );
        let mut out = Outputs::new();
        meta.process(Tuple::splat(0, 0, 3.0), &mut out);
        assert_eq!(out.items()[0].1.values[0], 7.0);
    }

    #[test]
    fn filtered_item_never_reaches_later_members() {
        let calls = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let seen = calls.clone();
        let mut meta = chain(
            vec![
                member(|t: Tuple, out: &mut Outputs| {
                    if t.values[0] >= 0.5 {
                        out.emit_default(t);
                    }
                }),
                member(move |t: Tuple, out: &mut Outputs| {
                    seen.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    out.emit_default(t);
                }),
            ],
            0,
        );
        let mut out = Outputs::new();
        meta.process(Tuple::splat(0, 0, 0.1), &mut out);
        assert!(out.is_empty());
        assert_eq!(calls.load(std::sync::atomic::Ordering::Relaxed), 0);
        meta.process(Tuple::splat(0, 1, 0.9), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(calls.load(std::sync::atomic::Ordering::Relaxed), 1);
    }

    #[test]
    fn fan_out_leaves_in_emission_order_on_its_port() {
        // Three copies tagged 0, 1, 2 pass the next stage and leave on
        // port 3 in the order they were emitted.
        let mut meta = chain(
            vec![
                member(|t: Tuple, out: &mut Outputs| {
                    for i in 0..3 {
                        out.emit_default(t.with_value(1, f64::from(i)));
                    }
                }),
                add_op(1.0),
            ],
            3,
        );
        let mut out = Outputs::new();
        meta.process(Tuple::splat(0, 7, 2.0), &mut out);
        let got: Vec<(usize, f64, f64)> = out
            .items()
            .iter()
            .map(|(p, t)| (*p, t.values[0], t.values[1]))
            .collect();
        assert_eq!(got, [(3, 3.0, 0.0), (3, 3.0, 1.0), (3, 3.0, 2.0)]);
    }

    #[test]
    fn probabilistic_internal_routing_splits_flow() {
        // front -> {member1 (p=0.3), output (p=0.7)}; member1 -> output.
        let mut meta = MetaOperator::new(
            "F",
            vec![add_op(0.0), add_op(100.0)],
            vec![
                vec![MetaRoute::Probabilistic {
                    choices: vec![(MetaDest::Member(1), 0.3), (MetaDest::Output(0), 0.7)],
                }],
                vec![MetaRoute::Unicast(MetaDest::Output(0))],
            ],
            0,
            42,
        );
        let mut out = Outputs::new();
        let n = 20_000;
        for i in 0..n {
            meta.process(Tuple::splat(0, i, 0.0), &mut out);
        }
        assert_eq!(out.len(), n as usize, "every item exits exactly once");
        let via_member1 = out
            .items()
            .iter()
            .filter(|(_, t)| t.values[0] >= 100.0)
            .count();
        let frac = via_member1 as f64 / n as f64;
        assert!((frac - 0.3).abs() < 0.02, "fraction {frac}");
    }

    #[test]
    fn unrouted_member_port_discards() {
        let mut meta = MetaOperator::new(
            "F",
            vec![Box::new(PassThrough) as Box<dyn StreamOperator>],
            vec![vec![]],
            0,
            1,
        );
        let mut out = Outputs::new();
        meta.process(Tuple::default(), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn flush_drains_member_state_through_routing() {
        // A member that holds items until flush.
        struct Hold {
            buf: Vec<Tuple>,
        }
        impl StreamOperator for Hold {
            fn process(&mut self, item: Tuple, _out: &mut Outputs) {
                self.buf.push(item);
            }
            fn flush(&mut self, out: &mut Outputs) {
                for t in self.buf.drain(..) {
                    out.emit_default(t);
                }
            }
        }
        let mut meta = MetaOperator::new(
            "F",
            vec![
                Box::new(Hold { buf: Vec::new() }) as Box<dyn StreamOperator>,
                add_op(5.0),
            ],
            vec![
                vec![MetaRoute::Unicast(MetaDest::Member(1))],
                vec![MetaRoute::Unicast(MetaDest::Output(0))],
            ],
            0,
            1,
        );
        let mut out = Outputs::new();
        meta.process(Tuple::splat(0, 1, 1.0), &mut out);
        meta.process(Tuple::splat(0, 2, 2.0), &mut out);
        assert!(out.is_empty(), "held until flush");
        meta.flush(&mut out);
        assert_eq!(out.len(), 2);
        // The held items passed through member 1 (+5) during flush.
        assert_eq!(out.items()[0].1.values[0], 6.0);
        assert_eq!(out.items()[1].1.values[0], 7.0);
    }

    #[test]
    #[should_panic(expected = "front-end index out of range")]
    fn bad_front_index_panics() {
        MetaOperator::new("F", vec![], vec![], 0, 1);
    }

    #[test]
    fn diamond_inside_meta_preserves_item_count() {
        // front -> {m1 (0.5), m2 (0.5)}; m1 -> out, m2 -> out.
        let mut meta = MetaOperator::new(
            "F",
            vec![add_op(0.0), add_op(1.0), add_op(2.0)],
            vec![
                vec![MetaRoute::Probabilistic {
                    choices: vec![(MetaDest::Member(1), 0.5), (MetaDest::Member(2), 0.5)],
                }],
                vec![MetaRoute::Unicast(MetaDest::Output(0))],
                vec![MetaRoute::Unicast(MetaDest::Output(0))],
            ],
            0,
            7,
        );
        let mut out = Outputs::new();
        for i in 0..1000 {
            meta.process(Tuple::splat(0, i, 0.0), &mut out);
        }
        assert_eq!(out.len(), 1000);
    }
}
