//! Bottleneck attribution: joining Algorithm 1's *predicted* bottleneck
//! with the *measured* one, and explaining disagreement through the
//! backpressure chain.
//!
//! Algorithm 1 names the operator with the highest utilization
//! `ρ = λ/µ` as the bottleneck. The live graph names its own: the
//! operator with the highest measured busy fraction. When the two agree,
//! the model describes the deployment. When they disagree, the telemetry's
//! blocked-time decomposition says *why*: under Blocking-After-Service
//! backpressure, an upstream operator that looks saturated to the model
//! spends its wall-clock blocked on a downstream mailbox, and the
//! receiver-edge stall counters (how long producers stalled on each
//! actor's inbox) trace the pressure hop-by-hop to the operator actually
//! limiting the flow. [`attribute`] materializes that join as one verdict
//! per operator plus the blocked-time edge chain.

use crate::steady_state::SteadyStateReport;
use spinstreams_core::{OperatorId, Topology};

/// Measured observability inputs for one operator, joined from telemetry.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ObservedOperator {
    /// Measured busy fraction over the run (`None` when unobservable —
    /// sources, fused members, or operators replicated across several
    /// actors).
    pub utilization: Option<f64>,
    /// Total time this operator spent blocked sending into full
    /// downstream mailboxes, in nanoseconds.
    pub blocked_ns: u64,
    /// Receiver-edge stall: total time *producers* spent blocked on this
    /// operator's inbox, in nanoseconds.
    pub inbox_stall_ns: u64,
}

/// Per-operator verdict: the model's view next to the measured one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatorVerdict {
    /// The operator.
    pub operator: OperatorId,
    /// Algorithm 1's predicted utilization `ρ` (capped at 1 by the
    /// steady-state solver's backpressure propagation).
    pub predicted_rho: f64,
    /// Measured busy fraction, if observable.
    pub measured_utilization: Option<f64>,
    /// Producer-side blocked time (ns).
    pub blocked_ns: u64,
    /// Receiver-edge inbox stall (ns).
    pub inbox_stall_ns: u64,
    /// True iff this operator is the model's bottleneck.
    pub predicted_bottleneck: bool,
    /// True iff this operator is the measured bottleneck.
    pub observed_bottleneck: bool,
}

/// The joined attribution of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct AttributionReport {
    /// One verdict per operator, in operator-id order.
    pub verdicts: Vec<OperatorVerdict>,
    /// The operator Algorithm 1 predicts as the bottleneck (highest ρ;
    /// `None` only for a topology with no non-source operator).
    pub predicted: Option<OperatorId>,
    /// The measured bottleneck (highest observed busy fraction; `None`
    /// when no operator's utilization is observable).
    pub observed: Option<OperatorId>,
    /// True iff prediction and measurement name the same operator (or
    /// neither names one).
    pub agreement: bool,
    /// The backpressure chain from the predicted bottleneck to the
    /// operator the pressure actually originates from: starting at the
    /// predicted bottleneck, repeatedly follow the out-edge whose target
    /// absorbed the most inbox stall while the current operator spent
    /// time blocked. A single-element chain means the predicted
    /// bottleneck is not being backpressured.
    pub chain: Vec<OperatorId>,
}

impl AttributionReport {
    /// The verdict of `id`.
    pub fn verdict(&self, id: OperatorId) -> OperatorVerdict {
        self.verdicts[id.0]
    }
}

/// Joins Algorithm 1's steady-state prediction with measured utilization
/// and blocked-time telemetry into an [`AttributionReport`].
///
/// `observed` is indexed by operator id; missing entries are treated as
/// all-`None`/zero. The source operator is excluded from both bottleneck
/// rankings — it paces the flow rather than serving it (§3.1).
pub fn attribute(
    topo: &Topology,
    predicted: &SteadyStateReport,
    observed: &[ObservedOperator],
) -> AttributionReport {
    let get = |id: OperatorId| observed.get(id.0).copied().unwrap_or_default();
    let source = topo.source();

    // Predicted bottleneck: the non-source operator with the highest
    // *final* ρ. The solver's bottleneck events are recorded in detection
    // order at successive throttle stages, so their unconstrained
    // utilizations are not comparable across events — but an operator
    // still saturated in the final solution (ρ capped at 1) is the
    // binding constraint. Among equally saturated operators, the one
    // whose event recorded the highest unconstrained ρ wins; then the
    // earliest id.
    let event_rho = |id: OperatorId| {
        predicted
            .bottlenecks
            .iter()
            .find(|b| b.operator == id)
            .map(|b| b.utilization)
            .unwrap_or(0.0)
    };
    let predicted_bn: Option<OperatorId> =
        topo.operator_ids()
            .filter(|&id| id != source)
            .max_by(|&a, &b| {
                let key = |id: OperatorId| (predicted.metric(id).utilization, event_rho(id));
                let (ka, kb) = (key(a), key(b));
                ka.partial_cmp(&kb)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    // Deterministic tie-break: earliest id wins (max_by keeps
                    // the *last* max otherwise).
                    .then(b.0.cmp(&a.0))
            });

    // Observed bottleneck: highest measured busy fraction.
    let observed_bn: Option<OperatorId> = topo
        .operator_ids()
        .filter(|&id| id != source)
        .filter_map(|id| get(id).utilization.map(|u| (id, u)))
        .max_by(|a, b| {
            a.1.partial_cmp(&b.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(b.0 .0.cmp(&a.0 .0))
        })
        .map(|(id, _)| id);

    let verdicts: Vec<OperatorVerdict> = topo
        .operator_ids()
        .map(|id| {
            let o = get(id);
            OperatorVerdict {
                operator: id,
                predicted_rho: predicted.metric(id).utilization,
                measured_utilization: o.utilization,
                blocked_ns: o.blocked_ns,
                inbox_stall_ns: o.inbox_stall_ns,
                predicted_bottleneck: Some(id) == predicted_bn,
                observed_bottleneck: Some(id) == observed_bn,
            }
        })
        .collect();

    // Follow the backpressure: while the current operator spent time
    // blocked, step to the successor whose inbox absorbed the most stall.
    // The topology is acyclic, so the walk terminates; the bound is belt
    // and braces.
    let mut chain = Vec::new();
    if let Some(start) = predicted_bn {
        let mut cur = start;
        chain.push(cur);
        for _ in 0..topo.num_operators() {
            if get(cur).blocked_ns == 0 {
                break;
            }
            let next = topo
                .successors(cur)
                .into_iter()
                .map(|s| (s, get(s).inbox_stall_ns))
                .filter(|&(_, stall)| stall > 0)
                .max_by(|a, b| a.1.cmp(&b.1).then(b.0 .0.cmp(&a.0 .0)))
                .map(|(s, _)| s);
            match next {
                Some(s) => {
                    chain.push(s);
                    cur = s;
                }
                None => break,
            }
        }
    }

    AttributionReport {
        verdicts,
        predicted: predicted_bn,
        observed: observed_bn,
        agreement: predicted_bn == observed_bn,
        chain,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::steady_state;
    use spinstreams_core::{OperatorSpec, ServiceTime, Topology};

    /// src -> fast -> slow -> sink: `slow` is the model's bottleneck.
    fn pipeline() -> Topology {
        let mut b = Topology::builder();
        let src = b.add_operator(OperatorSpec::source("src", ServiceTime::from_micros(100.0)));
        let fast = b.add_operator(OperatorSpec::stateless(
            "fast",
            ServiceTime::from_micros(50.0),
        ));
        let slow = b.add_operator(OperatorSpec::stateless(
            "slow",
            ServiceTime::from_micros(400.0),
        ));
        let sink = b.add_operator(OperatorSpec::stateless(
            "sink",
            ServiceTime::from_micros(10.0),
        ));
        b.add_edge(src, fast, 1.0).unwrap();
        b.add_edge(fast, slow, 1.0).unwrap();
        b.add_edge(slow, sink, 1.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn agreement_when_measured_matches_model() {
        let topo = pipeline();
        let report = steady_state(&topo);
        let observed = vec![
            ObservedOperator::default(), // src
            ObservedOperator {
                utilization: Some(0.12),
                blocked_ns: 40_000,
                inbox_stall_ns: 0,
                // fast: blocked on slow's inbox
            },
            ObservedOperator {
                utilization: Some(0.99),
                blocked_ns: 0,
                inbox_stall_ns: 900_000,
            },
            ObservedOperator {
                utilization: Some(0.02),
                ..ObservedOperator::default()
            },
        ];
        let attr = attribute(&topo, &report, &observed);
        assert_eq!(attr.predicted, Some(OperatorId(2)));
        assert_eq!(attr.observed, Some(OperatorId(2)));
        assert!(attr.agreement);
        assert!(attr.verdict(OperatorId(2)).predicted_bottleneck);
        assert!(attr.verdict(OperatorId(2)).observed_bottleneck);
        // Slow itself is not blocked: the chain stops immediately.
        assert_eq!(attr.chain, vec![OperatorId(2)]);
    }

    #[test]
    fn disagreement_traces_the_blocked_chain() {
        let topo = pipeline();
        let report = steady_state(&topo);
        // Live run: the *sink* is actually the slowest (e.g. stale
        // annotation) — slow blocks on it, pressure flows downstream.
        let observed = vec![
            ObservedOperator::default(),
            ObservedOperator {
                utilization: Some(0.10),
                blocked_ns: 10_000,
                inbox_stall_ns: 0,
            },
            ObservedOperator {
                utilization: Some(0.40),
                blocked_ns: 800_000,
                inbox_stall_ns: 15_000,
            },
            ObservedOperator {
                utilization: Some(0.97),
                blocked_ns: 0,
                inbox_stall_ns: 790_000,
            },
        ];
        let attr = attribute(&topo, &report, &observed);
        assert_eq!(attr.predicted, Some(OperatorId(2)));
        assert_eq!(attr.observed, Some(OperatorId(3)));
        assert!(!attr.agreement);
        // slow (blocked) -> sink (most-stalled successor, unblocked).
        assert_eq!(attr.chain, vec![OperatorId(2), OperatorId(3)]);
    }

    #[test]
    fn missing_observations_degrade_gracefully() {
        let topo = pipeline();
        let report = steady_state(&topo);
        let attr = attribute(&topo, &report, &[]);
        assert_eq!(attr.predicted, Some(OperatorId(2)));
        assert_eq!(attr.observed, None);
        assert!(!attr.agreement);
        assert_eq!(attr.chain, vec![OperatorId(2)]);
        assert_eq!(attr.verdicts.len(), 4);
    }
}
