//! The §4.1 annotation step: per-operator service times (busy seconds per
//! consumed item), selectivities (`items_out / items_in`) and routing
//! probabilities, estimated from cumulative counters.
//!
//! SpinStreams optimizes a topology from profiled annotations. The paper
//! profiles them once, offline (§4.1); online re-optimization needs the
//! same annotations *while the graph runs*. [`Reprofiler`] is the one
//! estimator for both: the calibration run (`spinstreams_serve::calibrate`),
//! the differential oracle, `spinstreams inspect` and the adaptive control
//! loop all feed it counters, so an offline profile and a live estimate
//! over the same trace agree exactly.
//!
//! Like [`DriftMonitor`](crate::DriftMonitor), the re-profiler is decoupled
//! from the runtime: it consumes plain counters, so it works identically
//! against the wall-clock engine, the discrete-event executor, or counters
//! parsed back out of an exported telemetry log. The codegen plan's
//! counter map (`GeneratedPlan::operator_counters`) turns per-actor
//! counters into per-operator ones before they reach it.
//!
//! The annotation vector is *flattened* — one slot per (operator,
//! annotation-kind) pair — precisely so it can be dropped into the existing
//! [`DriftMonitor`]: monitoring the flattened declared values against the
//! live estimates yields drift verdicts that name the stale *annotation*
//! ("service_time(slow)"), not just the stale rate.

use crate::drift::{DriftConfig, DriftMonitor};
use spinstreams_core::{EdgeId, OperatorId, Selectivity, ServiceTime, Topology};

/// Cumulative counters for one topology operator at one sampling instant.
///
/// These are run-so-far totals, so an estimate covers the whole run up to
/// the sampling instant; the difference of two covers the window between.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OperatorCounters {
    /// Items consumed so far.
    pub items_in: u64,
    /// Items emitted so far.
    pub items_out: u64,
    /// Busy time so far, in nanoseconds: the busy time of the operator's
    /// one actor, or for a replicated operator the sum over its replica
    /// slots (the replicas split its work, so the sum per consumed item is
    /// its service time). `None` for the source, which paces rather than
    /// serves, and for a fused member, which shares its group's actor.
    pub busy_ns: Option<u64>,
}

/// Which §4.1 annotation a flattened slot estimates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnnotationKind {
    /// Busy seconds per consumed item.
    ServiceTime,
    /// Output selectivity: `items_out / items_in`.
    Selectivity,
    /// Routing probability of the out-edge to `to` (only edges whose
    /// target has no other input are observable from counters).
    EdgeProbability {
        /// Destination operator of the profiled edge.
        to: OperatorId,
    },
}

/// One slot of the flattened annotation vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnnotationId {
    /// The annotated operator (the edge origin for
    /// [`AnnotationKind::EdgeProbability`]).
    pub operator: OperatorId,
    /// Which annotation of that operator.
    pub kind: AnnotationKind,
}

/// The §4.1 annotation estimator, offline and online.
///
/// The topology given to [`new`](Self::new) is the prior: every slot the
/// counters leave unestimated keeps its value there. Replicated operators
/// are estimated from their summed replica busy time; the source's and
/// fused members' service times stay at the prior (see
/// [`OperatorCounters::busy_ns`]). Routing probabilities are calibrated
/// for every out-edge whose target has no other input.
///
/// # Example
///
/// ```
/// use spinstreams_analysis::{OperatorCounters, Reprofiler};
/// use spinstreams_core::{OperatorSpec, ServiceTime, Topology};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = Topology::builder();
/// let src = b.add_operator(OperatorSpec::source("src", ServiceTime::from_millis(1.0)));
/// let op = b.add_operator(OperatorSpec::stateless("op", ServiceTime::from_millis(1.0)));
/// b.add_edge(src, op, 1.0)?;
/// let topo = b.build()?;
///
/// let mut rp = Reprofiler::new(&topo).with_min_samples(100);
/// // 1000 items consumed, 500 emitted, 2 ms busy per item.
/// let est = rp.update(&[
///     OperatorCounters { items_in: 0, items_out: 1000, busy_ns: None },
///     OperatorCounters { items_in: 1000, items_out: 500, busy_ns: Some(2_000_000_000) },
/// ]);
/// // Slot 0 is op's service time, slot 1 its selectivity.
/// assert!((est[0].unwrap() - 0.002).abs() < 1e-12);
/// assert!((est[1].unwrap() - 0.5).abs() < 1e-12);
/// assert_eq!(rp.describe(0), "service_time(op)");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Reprofiler {
    topo: Topology,
    min_samples: u64,
    ids: Vec<AnnotationId>,
    declared: Vec<Option<f64>>,
    latest: Vec<Option<f64>>,
    /// Per edge id: the renormalized probability of every out-edge of an
    /// operator whose routing split was estimated, `None` elsewhere.
    edge_probs: Vec<Option<f64>>,
}

impl Reprofiler {
    /// Creates a re-profiler with `topo` as its prior. The flattened
    /// annotation layout is: for every non-source operator in id order,
    /// its service time then its selectivity; then, for every operator
    /// with ≥ 2 out-edges, the probability of each counter-observable
    /// out-edge (target with in-degree 1), in edge order.
    pub fn new(topo: &Topology) -> Self {
        let mut ids = Vec::new();
        let mut declared = Vec::new();
        for id in topo.operator_ids() {
            if id == topo.source() {
                continue;
            }
            let spec = topo.operator(id);
            ids.push(AnnotationId {
                operator: id,
                kind: AnnotationKind::ServiceTime,
            });
            declared.push(Some(spec.service_time.as_secs()));
            ids.push(AnnotationId {
                operator: id,
                kind: AnnotationKind::Selectivity,
            });
            declared.push(Some(spec.selectivity.rate_factor()));
        }
        for u in topo.operator_ids() {
            let out = topo.out_edges(u);
            if out.len() < 2 {
                continue; // a single out-edge always carries probability 1
            }
            for e in out {
                let edge = topo.edge(*e);
                if topo.in_edges(edge.to).len() == 1 {
                    ids.push(AnnotationId {
                        operator: u,
                        kind: AnnotationKind::EdgeProbability { to: edge.to },
                    });
                    declared.push(Some(edge.probability));
                }
            }
        }
        let n = ids.len();
        Self {
            topo: topo.clone(),
            min_samples: 200,
            ids,
            declared,
            latest: vec![None; n],
            edge_probs: vec![None; topo.num_edges()],
        }
    }

    /// Sets the minimum consumed (for operators) / emitted (for routing
    /// splits) item count below which a slot stays unestimated. Default
    /// `200`, matching the oracle's profiling floor.
    pub fn with_min_samples(mut self, min_samples: u64) -> Self {
        self.min_samples = min_samples;
        self
    }

    /// The flattened annotation layout.
    pub fn annotations(&self) -> &[AnnotationId] {
        &self.ids
    }

    /// The declared (statically annotated) value of every slot.
    pub fn declared(&self) -> &[Option<f64>] {
        &self.declared
    }

    /// The latest estimates (all `None` before the first
    /// [`update`](Self::update)).
    pub fn latest(&self) -> &[Option<f64>] {
        &self.latest
    }

    /// Human-readable name of annotation slot `index`, for drift reports:
    /// `service_time(op)`, `selectivity(op)`, or `edge_probability(a->b)`.
    pub fn describe(&self, index: usize) -> String {
        match self.ids.get(index) {
            None => format!("annotation#{index}"),
            Some(a) => {
                let name = &self.topo.operator(a.operator).name;
                match a.kind {
                    AnnotationKind::ServiceTime => format!("service_time({name})"),
                    AnnotationKind::Selectivity => format!("selectivity({name})"),
                    AnnotationKind::EdgeProbability { to } => {
                        format!("edge_probability({name}->{})", self.topo.operator(to).name)
                    }
                }
            }
        }
    }

    /// Feeds one snapshot of cumulative per-operator counters (indexed by
    /// operator id) and returns the refreshed estimate vector, aligned
    /// with [`annotations`](Self::annotations). Slots whose operator is
    /// below the sample floor — or whose busy time is unobservable — stay
    /// `None`.
    ///
    /// The estimators: service time `busy / items_in`, selectivity
    /// `items_out / items_in`, and per-edge probabilities
    /// `items_in(to) / items_out(from)` rescaled against the prior weights
    /// of unobservable siblings and renormalized over each operator's
    /// out-edge set.
    pub fn update(&mut self, counters: &[OperatorCounters]) -> Vec<Option<f64>> {
        let get = |id: OperatorId| counters.get(id.0).copied().unwrap_or_default();
        let mut slot = 0;
        for id in self.topo.operator_ids() {
            if id == self.topo.source() {
                continue;
            }
            let c = get(id);
            self.latest[slot] = match (c.busy_ns, c.items_in >= self.min_samples) {
                (Some(busy), true) => Some(busy as f64 / 1e9 / c.items_in as f64),
                _ => None,
            };
            slot += 1;
            self.latest[slot] = if c.items_in >= self.min_samples {
                Some(c.items_out as f64 / c.items_in as f64)
            } else {
                None
            };
            slot += 1;
        }
        self.edge_probs.fill(None);
        for u in self.topo.operator_ids() {
            let out = self.topo.out_edges(u);
            if out.len() < 2 {
                continue;
            }
            let observable = |e: &&EdgeId| self.topo.in_edges(self.topo.edge(**e).to).len() == 1;
            let emitted = get(u).items_out;
            if emitted >= self.min_samples && out.iter().any(|e| observable(&e)) {
                // Measured mass from the observable edges, the prior's
                // weights of the rest scaled into the leftover.
                let mut probs: Vec<(f64, bool)> = out
                    .iter()
                    .map(|e| {
                        let edge = self.topo.edge(*e);
                        if observable(&e) {
                            (get(edge.to).items_in as f64 / emitted as f64, true)
                        } else {
                            (edge.probability, false)
                        }
                    })
                    .collect();
                let measured_mass: f64 = probs.iter().filter(|p| p.1).map(|p| p.0).sum();
                let declared_rest: f64 = probs.iter().filter(|p| !p.1).map(|p| p.0).sum();
                if declared_rest > 0.0 {
                    let scale = (1.0 - measured_mass).max(0.0) / declared_rest;
                    for p in probs.iter_mut().filter(|p| !p.1) {
                        p.0 *= scale;
                    }
                }
                // Clamp each raw weight into (0, 1] *before* normalizing,
                // then divide by the post-clamp total: the final division
                // is exact, so the full edge set sums to 1. (Clamping after
                // the division could shave mass off a dominant edge and
                // leave the set summing below 1.)
                let total: f64 = probs.iter().map(|p| p.0.clamp(1e-9, 1.0)).sum();
                for (e, p) in out.iter().zip(&probs) {
                    self.edge_probs[e.0] = Some(p.0.clamp(1e-9, 1.0) / total);
                }
            }
            for e in out.iter().filter(observable) {
                self.latest[slot] = self.edge_probs[e.0];
                slot += 1;
            }
        }
        debug_assert_eq!(slot, self.latest.len());
        self.latest.clone()
    }

    /// A [`DriftMonitor`] over the flattened annotation vector: the
    /// declared values are the predictions, [`update`](Self::update)'s
    /// estimates are the measurements. A drifting verdict at index `i`
    /// means annotation [`describe(i)`](Self::describe) is stale.
    pub fn drift_monitor(&self, config: DriftConfig) -> DriftMonitor {
        DriftMonitor::new(self.declared.clone(), config)
    }

    /// Rebuilds the topology with every estimated annotation applied
    /// (unestimated slots keep the prior's values) — the re-annotated
    /// topology that Algorithm 1 can re-run on. An operator whose routing
    /// split was estimated gets the whole renormalized out-edge vector of
    /// the last [`update`](Self::update).
    ///
    /// # Errors
    ///
    /// Returns the validation message if the re-annotated topology no
    /// longer validates (it cannot in practice: estimates are clamped into
    /// valid ranges by construction).
    pub fn annotated_topology(&self) -> Result<Topology, String> {
        let mut ops = self.topo.operators().to_vec();
        for (a, v) in self.ids.iter().zip(&self.latest) {
            let Some(v) = *v else { continue };
            match a.kind {
                AnnotationKind::ServiceTime => {
                    ops[a.operator.0].service_time = ServiceTime::from_secs(v);
                }
                AnnotationKind::Selectivity => {
                    ops[a.operator.0].selectivity = Selectivity::output(v);
                }
                AnnotationKind::EdgeProbability { .. } => {}
            }
        }
        let mut edges = self.topo.edges().to_vec();
        for (edge, p) in edges.iter_mut().zip(&self.edge_probs) {
            if let Some(p) = *p {
                edge.probability = p;
            }
        }
        Topology::from_parts(ops, edges).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spinstreams_core::OperatorSpec;

    fn diamond() -> Topology {
        // src -> router -> {a (0.7), b (0.3)} -> join
        let mut b = Topology::builder();
        let src = b.add_operator(OperatorSpec::source("src", ServiceTime::from_millis(1.0)));
        let router = b.add_operator(OperatorSpec::stateless(
            "router",
            ServiceTime::from_micros(100.0),
        ));
        let a = b.add_operator(OperatorSpec::stateless(
            "a",
            ServiceTime::from_micros(200.0),
        ));
        let bb = b.add_operator(OperatorSpec::stateless(
            "b",
            ServiceTime::from_micros(300.0),
        ));
        let join = b.add_operator(OperatorSpec::stateless(
            "join",
            ServiceTime::from_micros(50.0),
        ));
        b.add_edge(src, router, 1.0).unwrap();
        b.add_edge(router, a, 0.7).unwrap();
        b.add_edge(router, bb, 0.3).unwrap();
        b.add_edge(a, join, 1.0).unwrap();
        b.add_edge(bb, join, 1.0).unwrap();
        b.build().unwrap()
    }

    fn counters(items_in: u64, items_out: u64, busy_ms: u64) -> OperatorCounters {
        OperatorCounters {
            items_in,
            items_out,
            busy_ns: Some(busy_ms * 1_000_000),
        }
    }

    #[test]
    fn layout_covers_every_annotation() {
        let rp = Reprofiler::new(&diamond());
        // 4 non-source operators x (service, selectivity) + 2 observable
        // router out-edges.
        assert_eq!(rp.annotations().len(), 10);
        assert_eq!(rp.describe(0), "service_time(router)");
        assert_eq!(rp.describe(1), "selectivity(router)");
        assert_eq!(rp.describe(8), "edge_probability(router->a)");
        assert_eq!(rp.describe(9), "edge_probability(router->b)");
        // Declared values line up.
        assert_eq!(rp.declared()[0], Some(100e-6));
        assert_eq!(rp.declared()[8], Some(0.7));
    }

    #[test]
    fn estimates_match_the_offline_formulas() {
        let mut rp = Reprofiler::new(&diamond()).with_min_samples(100);
        let est = rp.update(&[
            OperatorCounters {
                items_out: 1000,
                ..OperatorCounters::default()
            },
            counters(1000, 1000, 150), // router: 150 µs/item
            counters(600, 600, 120),   // a: got 60%
            counters(400, 200, 120),   // b: got 40%, halves
            counters(800, 800, 40),    // join
        ]);
        assert!((est[0].unwrap() - 150e-6).abs() < 1e-12, "router service");
        assert!((est[1].unwrap() - 1.0).abs() < 1e-12, "router selectivity");
        assert!((est[5].unwrap() - 0.5).abs() < 1e-12, "b selectivity");
        // Edge probabilities renormalized over measured mass 0.6 + 0.4.
        assert!((est[8].unwrap() - 0.6).abs() < 1e-9);
        assert!((est[9].unwrap() - 0.4).abs() < 1e-9);
    }

    #[test]
    fn below_sample_floor_stays_unestimated() {
        let mut rp = Reprofiler::new(&diamond()).with_min_samples(1000);
        let est = rp.update(&[
            OperatorCounters::default(),
            counters(10, 10, 1),
            counters(6, 6, 1),
            counters(4, 4, 1),
            counters(10, 10, 1),
        ]);
        assert!(est.iter().all(Option::is_none));
    }

    #[test]
    fn unobservable_busy_time_skips_service_only() {
        let mut rp = Reprofiler::new(&diamond()).with_min_samples(100);
        let est = rp.update(&[
            OperatorCounters::default(),
            OperatorCounters {
                items_in: 1000,
                items_out: 1000,
                busy_ns: None, // a fused member shares its group's actor
            },
            counters(600, 600, 1),
            counters(400, 400, 1),
            counters(1000, 1000, 1),
        ]);
        assert_eq!(est[0], None, "router service unobservable");
        assert_eq!(est[1], Some(1.0), "selectivity still estimated");
    }

    #[test]
    fn drift_monitor_names_the_stale_annotation() {
        let mut rp = Reprofiler::new(&diamond()).with_min_samples(100);
        let mut mon = rp.drift_monitor(DriftConfig {
            threshold: 0.25,
            warmup_ticks: 0,
            consecutive: 2,
        });
        // Router actually takes 400 µs/item — 4x the declared 100 µs.
        for _ in 0..2 {
            let est = rp.update(&[
                OperatorCounters {
                    items_out: 1000,
                    ..OperatorCounters::default()
                },
                counters(1000, 1000, 400),
                counters(700, 700, 140),
                counters(300, 300, 90),
                counters(1000, 1000, 50),
            ]);
            let verdicts = mon.tick(&est);
            let drifting: Vec<String> = verdicts
                .iter()
                .filter(|v| v.status == crate::DriftStatus::Drifting)
                .map(|v| rp.describe(v.index))
                .collect();
            if mon.ticks() >= 2 {
                assert_eq!(drifting, vec!["service_time(router)".to_string()]);
            }
        }
    }

    #[test]
    fn renormalized_probabilities_sum_to_one_even_when_one_edge_dominates() {
        // One edge carries (nearly) all the measured traffic. A
        // clamp-after-normalize would cap the dominant edge and leave the
        // set summing below 1; clamp-then-normalize keeps the invariant
        // exact.
        let mut rp = Reprofiler::new(&diamond()).with_min_samples(100);
        let est = rp.update(&[
            OperatorCounters {
                items_out: 1000,
                ..OperatorCounters::default()
            },
            counters(1000, 1000, 150),
            counters(1000, 1000, 120), // a: got everything
            counters(0, 0, 0),         // b: starved
            counters(1000, 1000, 40),
        ]);
        let sum = est[8].unwrap() + est[9].unwrap();
        assert!((sum - 1.0).abs() < 1e-12, "estimates sum to {sum}");
        assert!(est.iter().flatten().all(|&p| p <= 1.0));
        // The annotated topology preserves the same invariant (and still
        // validates, which requires each out-edge set to close to 1).
        let topo = rp.annotated_topology().unwrap();
        let router = topo.operator_by_name("router").unwrap();
        let mass: f64 = topo
            .out_edges(router)
            .iter()
            .map(|e| topo.edge(*e).probability)
            .sum();
        assert!((mass - 1.0).abs() < 1e-12, "edge mass {mass}");
    }

    #[test]
    fn annotated_topology_applies_estimates() {
        let mut rp = Reprofiler::new(&diamond()).with_min_samples(100);
        rp.update(&[
            OperatorCounters {
                items_out: 1000,
                ..OperatorCounters::default()
            },
            counters(1000, 1000, 150),
            counters(600, 600, 120),
            counters(400, 200, 120),
            counters(800, 800, 40),
        ]);
        let topo = rp.annotated_topology().unwrap();
        let router = topo.operator_by_name("router").unwrap();
        assert!((topo.operator(router).service_time.as_secs() - 150e-6).abs() < 1e-12);
        let a = topo.operator_by_name("a").unwrap();
        assert!((topo.edge_probability(router, a).unwrap() - 0.6).abs() < 1e-9);
        let b = topo.operator_by_name("b").unwrap();
        assert!((topo.operator(b).selectivity.rate_factor() - 0.5).abs() < 1e-12);
    }
}
