//! Structural validation of an actor graph before it runs: destinations,
//! route shapes, source rates and acyclicity.

use super::EngineError;
use crate::graph::{ActorSpec, Behavior};
use crate::route::Route;
use crate::ActorId;

/// Validates the actor graph (see [`EngineError`] variants).
pub(crate) fn validate(actors: &[ActorSpec]) -> Result<(), EngineError> {
    if actors.is_empty() {
        return Err(EngineError::NoActors);
    }
    if !actors.iter().any(|a| a.behavior.is_source()) {
        return Err(EngineError::NoSource);
    }
    let n = actors.len();
    for (i, spec) in actors.iter().enumerate() {
        let from = ActorId(i);
        if let Behavior::Source(cfg) = &spec.behavior {
            if let Err(reason) = cfg.period() {
                return Err(EngineError::InvalidSource {
                    actor: from,
                    reason,
                });
            }
        }
        for route in &spec.routes {
            let mut dests = route.destinations_iter().peekable();
            if dests.peek().is_none() {
                return Err(EngineError::InvalidRoute {
                    from,
                    reason: "route has no destinations".into(),
                });
            }
            for d in dests {
                if d.0 >= n {
                    return Err(EngineError::UnknownDestination { from, to: d });
                }
                if actors[d.0].behavior.is_source() {
                    return Err(EngineError::RouteToSource { from, to: d });
                }
            }
            match route {
                Route::Probabilistic { choices } => {
                    let sum: f64 = choices.iter().map(|(_, p)| *p).sum();
                    if (sum - 1.0).abs() > 1e-6 || choices.iter().any(|(_, p)| *p < 0.0) {
                        return Err(EngineError::InvalidRoute {
                            from,
                            reason: format!("probabilities sum to {sum}"),
                        });
                    }
                }
                Route::KeyMap {
                    key_map,
                    destinations,
                } => {
                    if key_map.is_empty() {
                        return Err(EngineError::InvalidRoute {
                            from,
                            reason: "empty key map".into(),
                        });
                    }
                    if key_map.iter().any(|r| *r >= destinations.len()) {
                        return Err(EngineError::InvalidRoute {
                            from,
                            reason: "key map references missing replica".into(),
                        });
                    }
                }
                _ => {}
            }
        }
    }
    // Acyclicity (actor-level): BAS blocking on a cycle can deadlock.
    let succ: Vec<Vec<usize>> = actors
        .iter()
        .map(|a| {
            let mut s: Vec<usize> = a
                .routes
                .iter()
                .flat_map(|r| r.destinations_iter())
                .map(|d| d.0)
                .collect();
            s.sort_unstable();
            s.dedup();
            s
        })
        .collect();
    if !spinstreams_core::is_acyclic(n, &succ) {
        return Err(EngineError::Cyclic);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::fast_cfg;
    use crate::engine::*;
    use crate::operators::PassThrough;
    use crate::{Behavior, Route, SourceConfig};

    #[test]
    fn source_rates_that_cannot_be_paced_are_rejected() {
        for rate in [f64::NAN, 0.0, -1.0, f64::NEG_INFINITY, 1e-30] {
            let mut g = ActorGraph::new();
            let mut cfg = SourceConfig::new(1.0, 10);
            cfg.rate = rate;
            let s = g.add_actor("src", Behavior::Source(cfg));
            let k = g.add_actor("sink", Behavior::worker(PassThrough));
            g.connect(s, Route::Unicast(k));
            match run(g, &fast_cfg()) {
                Err(EngineError::InvalidSource { actor, .. }) => assert_eq!(actor, s),
                other => panic!("rate {rate}: expected InvalidSource, got {other:?}"),
            }
        }
    }

    #[test]
    fn validation_errors() {
        // No actors.
        assert_eq!(
            run(ActorGraph::new(), &fast_cfg()).unwrap_err(),
            EngineError::NoActors
        );
        // No source.
        let mut g = ActorGraph::new();
        g.add_actor("w", Behavior::worker(PassThrough));
        assert_eq!(run(g, &fast_cfg()).unwrap_err(), EngineError::NoSource);
        // Unknown destination.
        let mut g = ActorGraph::new();
        let s = g.add_actor("src", Behavior::Source(SourceConfig::new(1.0, 1)));
        g.connect(s, Route::Unicast(ActorId(9)));
        assert!(matches!(
            run(g, &fast_cfg()).unwrap_err(),
            EngineError::UnknownDestination { .. }
        ));
        // Route to source.
        let mut g = ActorGraph::new();
        let s = g.add_actor("src", Behavior::Source(SourceConfig::new(1.0, 1)));
        let s2 = g.add_actor("src2", Behavior::Source(SourceConfig::new(1.0, 1)));
        g.connect(s, Route::Unicast(s2));
        assert!(matches!(
            run(g, &fast_cfg()).unwrap_err(),
            EngineError::RouteToSource { .. }
        ));
        // Bad probability mass.
        let mut g = ActorGraph::new();
        let s = g.add_actor("src", Behavior::Source(SourceConfig::new(1.0, 1)));
        let w = g.add_actor("w", Behavior::worker(PassThrough));
        g.connect(
            s,
            Route::Probabilistic {
                choices: vec![(w, 0.4)],
            },
        );
        assert!(matches!(
            run(g, &fast_cfg()).unwrap_err(),
            EngineError::InvalidRoute { .. }
        ));
        // Cycle between two workers.
        let mut g = ActorGraph::new();
        let s = g.add_actor("src", Behavior::Source(SourceConfig::new(1.0, 1)));
        let a = g.add_actor("a", Behavior::worker(PassThrough));
        let b = g.add_actor("b", Behavior::worker(PassThrough));
        g.connect(s, Route::Unicast(a));
        g.connect(a, Route::Unicast(b));
        g.connect(b, Route::Unicast(a));
        assert_eq!(run(g, &fast_cfg()).unwrap_err(), EngineError::Cyclic);
    }
}
