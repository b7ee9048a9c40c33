//! Port-to-destination routing policies.
//!
//! The abstract topology's edges become routes in the actor graph. Each
//! logical output port of an actor carries one [`Route`]; the engine
//! resolves it to a concrete destination per item:
//!
//! * [`Route::Unicast`] — a plain stream edge;
//! * [`Route::Probabilistic`] — simulates the measured routing
//!   probabilities of §3.1 (an item goes to one destination, drawn from the
//!   edge distribution);
//! * [`Route::RoundRobin`] — the emitter policy for replicated *stateless*
//!   operators ("items are distributed in a circular manner", §4.2);
//! * [`Route::KeyMap`] — the emitter policy for replicated
//!   *partitioned-stateful* operators: key → replica, from the
//!   key-partitioning assignment of Algorithm 2.

use crate::rng::XorShift64;
use crate::ActorId;
use spinstreams_core::Tuple;

/// Routing policy for one logical output port.
#[derive(Debug, Clone)]
pub enum Route {
    /// Every item goes to the same destination.
    Unicast(ActorId),
    /// Each item goes to one destination drawn from a fixed distribution
    /// (application-semantics simulation of edge probabilities).
    Probabilistic {
        /// Destinations and their probabilities (must sum to ~1).
        choices: Vec<(ActorId, f64)>,
    },
    /// Items are spread over the destinations in a circular manner
    /// (stateless-fission emitter).
    RoundRobin(Vec<ActorId>),
    /// Key-based dispatch: `destinations[key_map[key % key_map.len()]]`
    /// (partitioned-stateful-fission emitter).
    KeyMap {
        /// Replica index per key (from `KeyAssignment::owner`).
        key_map: Vec<usize>,
        /// One destination per replica.
        destinations: Vec<ActorId>,
    },
}

impl Route {
    /// All destinations this route can ever deliver to (used for wiring and
    /// EOS propagation), without allocating.
    pub fn destinations_iter(&self) -> impl Iterator<Item = ActorId> + '_ {
        // One slot per variant; exactly one is Some.
        let (single, pairs, list) = match self {
            Route::Unicast(d) => (Some(*d), None, None),
            Route::Probabilistic { choices } => (None, Some(choices.as_slice()), None),
            Route::RoundRobin(ds) => (None, None, Some(ds.as_slice())),
            Route::KeyMap { destinations, .. } => (None, None, Some(destinations.as_slice())),
        };
        single.into_iter().chain(
            pairs
                .into_iter()
                .flat_map(|cs| cs.iter().map(|(d, _)| *d))
                .chain(list.into_iter().flat_map(|ds| ds.iter().copied())),
        )
    }

    /// All destinations this route can ever deliver to, collected.
    ///
    /// Prefer [`Route::destinations_iter`] on hot paths; this allocates a
    /// fresh `Vec` per call.
    pub fn destinations(&self) -> Vec<ActorId> {
        self.destinations_iter().collect()
    }
}

/// Per-actor runtime state resolving routes to destinations.
#[derive(Debug)]
pub(crate) struct RouteState {
    route: Route,
    rr_next: usize,
    /// Cumulative distribution for `Probabilistic`, accumulated
    /// left-to-right exactly like `XorShift64::sample_discrete` so a binary
    /// search lands on the same index the linear scan would (bit-identical
    /// float sums, same `u < cum` comparison).
    cum: Vec<f64>,
}

impl RouteState {
    pub(crate) fn new(route: Route) -> Self {
        let cum = match &route {
            Route::Probabilistic { choices } => {
                let mut acc = 0.0;
                choices
                    .iter()
                    .map(|(_, p)| {
                        acc += p;
                        acc
                    })
                    .collect()
            }
            _ => Vec::new(),
        };
        RouteState {
            route,
            rr_next: 0,
            cum,
        }
    }

    /// Picks the destination for `item`.
    pub(crate) fn pick(&mut self, item: &Tuple, rng: &mut XorShift64) -> ActorId {
        match &self.route {
            Route::Unicast(d) => *d,
            Route::Probabilistic { choices } => {
                let u = rng.next_f64();
                // First index with `u < cum[idx]`; the last bucket absorbs
                // any floating-point slack below 1.0, matching the linear
                // scan's fallback.
                let idx = self.cum.partition_point(|&c| c <= u).min(choices.len() - 1);
                choices[idx].0
            }
            Route::RoundRobin(ds) => {
                // `rr_next` starts at 0 and stays below `ds.len()` (a route
                // swap builds a fresh state), so a compare replaces `%`.
                let d = ds[self.rr_next];
                self.rr_next += 1;
                if self.rr_next == ds.len() {
                    self.rr_next = 0;
                }
                d
            }
            Route::KeyMap {
                key_map,
                destinations,
            } => {
                let k = (item.key as usize) % key_map.len();
                destinations[key_map[k]]
            }
        }
    }

    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn route(&self) -> &Route {
        &self.route
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tuple(key: u64) -> Tuple {
        Tuple::splat(key, 0, 0.0)
    }

    #[test]
    fn unicast_always_same() {
        let mut s = RouteState::new(Route::Unicast(ActorId(3)));
        let mut rng = XorShift64::new(1);
        for _ in 0..10 {
            assert_eq!(s.pick(&tuple(0), &mut rng), ActorId(3));
        }
        assert_eq!(s.route().destinations(), vec![ActorId(3)]);
    }

    #[test]
    fn round_robin_cycles() {
        let ds = vec![ActorId(1), ActorId(2), ActorId(3)];
        let mut s = RouteState::new(Route::RoundRobin(ds.clone()));
        let mut rng = XorShift64::new(1);
        let picks: Vec<_> = (0..6).map(|_| s.pick(&tuple(0), &mut rng)).collect();
        assert_eq!(
            picks,
            vec![
                ActorId(1),
                ActorId(2),
                ActorId(3),
                ActorId(1),
                ActorId(2),
                ActorId(3)
            ]
        );
    }

    #[test]
    fn round_robin_matches_the_modulo_sequence() {
        for len in [1usize, 2, 3, 7] {
            let ds: Vec<ActorId> = (0..len).map(|i| ActorId(10 + i)).collect();
            let mut s = RouteState::new(Route::RoundRobin(ds.clone()));
            let mut rng = XorShift64::new(1);
            for n in 0..5 * len + 1 {
                assert_eq!(
                    s.pick(&tuple(0), &mut rng),
                    ds[n % len],
                    "len {len}, pick {n}"
                );
            }
        }
    }

    #[test]
    fn probabilistic_respects_distribution() {
        let mut s = RouteState::new(Route::Probabilistic {
            choices: vec![(ActorId(0), 0.25), (ActorId(1), 0.75)],
        });
        let mut rng = XorShift64::new(99);
        let n = 100_000;
        let hits = (0..n)
            .filter(|_| s.pick(&tuple(0), &mut rng) == ActorId(1))
            .count();
        let freq = hits as f64 / n as f64;
        assert!((freq - 0.75).abs() < 0.01, "freq {freq}");
    }

    #[test]
    fn key_map_is_deterministic_per_key() {
        let mut s = RouteState::new(Route::KeyMap {
            key_map: vec![0, 1, 1, 0],
            destinations: vec![ActorId(10), ActorId(11)],
        });
        let mut rng = XorShift64::new(1);
        assert_eq!(s.pick(&tuple(0), &mut rng), ActorId(10));
        assert_eq!(s.pick(&tuple(1), &mut rng), ActorId(11));
        assert_eq!(s.pick(&tuple(2), &mut rng), ActorId(11));
        assert_eq!(s.pick(&tuple(3), &mut rng), ActorId(10));
        // Keys beyond the map wrap around.
        assert_eq!(s.pick(&tuple(4), &mut rng), ActorId(10));
        // Same key always lands on the same replica.
        for _ in 0..10 {
            assert_eq!(s.pick(&tuple(2), &mut rng), ActorId(11));
        }
    }

    #[test]
    fn cdf_binary_search_matches_linear_scan_exactly() {
        // Awkward probabilities that don't sum to exactly 1.0 in floating
        // point: the binary-search pick must agree with
        // `sample_discrete`'s linear scan on every draw.
        let probs = vec![0.1, 0.2, 0.3, 0.15, 0.25];
        let choices: Vec<(ActorId, f64)> = probs
            .iter()
            .enumerate()
            .map(|(i, &p)| (ActorId(i), p))
            .collect();
        let mut s = RouteState::new(Route::Probabilistic { choices });
        let mut rng_a = XorShift64::new(0xFEED);
        let mut rng_b = XorShift64::new(0xFEED);
        for _ in 0..50_000 {
            let picked = s.pick(&tuple(0), &mut rng_a);
            let expect = rng_b.sample_discrete(&probs);
            assert_eq!(picked, ActorId(expect));
        }
    }

    #[test]
    fn destinations_iter_matches_destinations() {
        let routes = vec![
            Route::Unicast(ActorId(3)),
            Route::Probabilistic {
                choices: vec![(ActorId(4), 0.5), (ActorId(5), 0.5)],
            },
            Route::RoundRobin(vec![ActorId(1), ActorId(2)]),
            Route::KeyMap {
                key_map: vec![0, 1],
                destinations: vec![ActorId(7), ActorId(8)],
            },
        ];
        for r in &routes {
            assert_eq!(r.destinations_iter().collect::<Vec<_>>(), r.destinations());
        }
    }

    #[test]
    fn destinations_enumerates_all() {
        let r = Route::Probabilistic {
            choices: vec![(ActorId(4), 0.5), (ActorId(5), 0.5)],
        };
        assert_eq!(r.destinations(), vec![ActorId(4), ActorId(5)]);
        let r = Route::KeyMap {
            key_map: vec![0, 1],
            destinations: vec![ActorId(7), ActorId(8)],
        };
        assert_eq!(r.destinations(), vec![ActorId(7), ActorId(8)]);
    }
}
