//! Fusion-candidate enumeration and the automated fusion search.
//!
//! The SpinStreams GUI "proposes a set of candidates after the steady-state
//! analysis, ranked by their utilization factor" (§4.1); the user picks one
//! manually. The paper lists *automating* that choice as future work (§7) —
//! [`auto_fuse`] implements a greedy version: repeatedly fuse the
//! lowest-utilization feasible candidate as long as the prediction says
//! throughput is preserved.

use crate::{fuse, steady_state, FusionOutcome, SteadyStateReport};
use spinstreams_core::{OperatorId, Topology};
use std::collections::BTreeSet;

/// A sub-graph suggested for fusion, ranked by how underutilized it is.
#[derive(Debug, Clone, PartialEq)]
pub struct FusionCandidate {
    /// The member operators.
    pub members: BTreeSet<OperatorId>,
    /// The single front-end vertex.
    pub front_end: OperatorId,
    /// Mean steady-state utilization of the members (ranking key; low means
    /// underutilized, a good fusion candidate).
    pub mean_utilization: f64,
    /// Highest member utilization (a cheap feasibility hint).
    pub max_utilization: f64,
}

/// Enumerates fusable sub-graphs of `topo`, ranked by increasing mean
/// utilization.
///
/// Candidates are the connected single-front-end sub-graphs grown greedily
/// from each non-source vertex by repeatedly absorbing successors that are
/// reachable only from inside the candidate, keeping every member's
/// utilization below `utilization_threshold` (saturated operators are never
/// good fusion material). Sub-graphs of fewer than two members are skipped.
///
/// The enumeration is heuristic — the space of all sub-graphs is
/// exponential — but mirrors the GUI's intent: surface the regions of
/// underutilized, downstream-closed operators a user would select.
pub fn fusion_candidates(topo: &Topology, utilization_threshold: f64) -> Vec<FusionCandidate> {
    let report = steady_state(topo);
    let mut out: Vec<FusionCandidate> = Vec::new();

    for seed in topo.operator_ids() {
        if seed == topo.source() {
            continue;
        }
        if report.metric(seed).utilization > utilization_threshold {
            continue;
        }
        let mut members: BTreeSet<OperatorId> = BTreeSet::new();
        members.insert(seed);
        // Greedy growth: absorb any successor of a member that (a) is below
        // the utilization threshold and (b) receives inputs only from
        // current members — preserving the single-front-end property with
        // `seed` as the front end.
        loop {
            let mut grew = false;
            let snapshot: Vec<OperatorId> = members.iter().cloned().collect();
            for m in snapshot {
                for succ in topo.successors(m) {
                    if members.contains(&succ) {
                        continue;
                    }
                    if report.metric(succ).utilization > utilization_threshold {
                        continue;
                    }
                    let all_inputs_internal =
                        topo.predecessors(succ).iter().all(|p| members.contains(p));
                    if all_inputs_internal {
                        members.insert(succ);
                        grew = true;
                    }
                }
            }
            if !grew {
                break;
            }
        }
        if members.len() < 2 {
            continue;
        }
        // Validate via a dry-run fuse; skip structurally invalid candidates
        // (e.g. contraction cycles).
        if fuse(topo, &members).is_err() {
            continue;
        }
        let utils: Vec<f64> = members
            .iter()
            .map(|m| report.metric(*m).utilization)
            .collect();
        let mean = utils.iter().sum::<f64>() / utils.len() as f64;
        let max = utils.iter().cloned().fold(0.0, f64::max);
        let cand = FusionCandidate {
            members,
            front_end: seed,
            mean_utilization: mean,
            max_utilization: max,
        };
        if !out.iter().any(|c| c.members == cand.members) {
            out.push(cand);
        }
    }

    out.sort_by(|a, b| {
        a.mean_utilization
            .partial_cmp(&b.mean_utilization)
            .expect("utilizations are finite")
            .then_with(|| a.front_end.cmp(&b.front_end))
    });
    out
}

/// The longest chain of single-replica stateless operators in which each
/// link is its predecessor's only successor and has no other input, front
/// first — a shape codegen accepts as one fusion group. The tail
/// may be a sink. `replicas` is the deployed degree per operator (`&[]` =
/// all ones). Returns `None` when no two adjacent operators qualify.
pub fn fusable_chain(topo: &Topology, replicas: &[usize]) -> Option<Vec<OperatorId>> {
    let eligible = |id: OperatorId| {
        id != topo.source()
            && replicas.get(id.0).is_none_or(|&r| r == 1)
            && topo.operator(id).state.is_stateless()
            && topo.out_edges(id).len() <= 1
    };
    let mut best: Option<Vec<OperatorId>> = None;
    for start in topo.operator_ids() {
        if !eligible(start) {
            continue;
        }
        let mut chain = vec![start];
        let mut cur = start;
        while topo.out_edges(cur).len() == 1 {
            let next = topo.successors(cur)[0];
            if !eligible(next) || topo.in_edges(next).len() != 1 {
                break;
            }
            chain.push(next);
            cur = next;
        }
        if chain.len() >= 2 && best.as_ref().is_none_or(|b| chain.len() > b.len()) {
            best = Some(chain);
        }
    }
    best
}

/// Result of the automated greedy fusion search.
#[derive(Debug, Clone)]
pub struct AutoFusion {
    /// The final topology after all accepted fusions.
    pub topology: Topology,
    /// The accepted fusion steps, in application order.
    pub steps: Vec<FusionOutcome>,
    /// Steady-state report of the final topology.
    pub report: SteadyStateReport,
}

impl AutoFusion {
    /// Number of operators eliminated by the accepted fusions.
    pub fn operators_saved(&self) -> usize {
        self.steps
            .iter()
            .map(|s| s.baseline.metrics.len() - s.report.metrics.len())
            .sum()
    }
}

/// Automated fusion (§7 future work): greedily fuses the lowest-utilization
/// candidate while the cost model predicts no throughput loss, re-ranking
/// after every accepted fusion.
///
/// `utilization_threshold` bounds which operators may participate (e.g.
/// `0.9`); candidates whose predicted fused topology loses throughput are
/// rejected, exactly like the GUI alert of Table 2.
pub fn auto_fuse(topo: &Topology, utilization_threshold: f64) -> AutoFusion {
    let mut current = topo.clone();
    let mut steps: Vec<FusionOutcome> = Vec::new();

    loop {
        let candidates = fusion_candidates(&current, utilization_threshold);
        let mut accepted = None;
        for cand in candidates {
            match fuse(&current, &cand.members) {
                Ok(outcome) if outcome.is_feasible() => {
                    accepted = Some(outcome);
                    break;
                }
                _ => continue,
            }
        }
        match accepted {
            Some(outcome) => {
                current = outcome.topology.clone();
                steps.push(outcome);
            }
            None => break,
        }
    }

    let report = steady_state(&current);
    AutoFusion {
        topology: current,
        steps,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spinstreams_core::{OperatorSpec, ServiceTime};

    fn op(name: &str, ms: f64) -> OperatorSpec {
        OperatorSpec::stateless(name, ServiceTime::from_millis(ms))
    }

    /// The reconstructed Figure 11 topology (Table 1 service times).
    fn figure11() -> Topology {
        let mut b = Topology::builder();
        let times = [1.0, 1.2, 0.7, 2.0, 1.5, 0.2];
        let ids: Vec<_> = (0..6)
            .map(|i| b.add_operator(op(&format!("{}", i + 1), times[i])))
            .collect();
        b.add_edge(ids[0], ids[1], 0.7).unwrap();
        b.add_edge(ids[0], ids[2], 0.3).unwrap();
        b.add_edge(ids[1], ids[5], 1.0).unwrap();
        b.add_edge(ids[2], ids[3], 0.5).unwrap();
        b.add_edge(ids[2], ids[4], 0.5).unwrap();
        b.add_edge(ids[4], ids[3], 0.35).unwrap();
        b.add_edge(ids[4], ids[5], 0.65).unwrap();
        b.add_edge(ids[3], ids[5], 1.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn figure11_candidates_include_the_345_subgraph() {
        let cands = fusion_candidates(&figure11(), 0.9);
        let expect: BTreeSet<_> = [OperatorId(2), OperatorId(3), OperatorId(4)]
            .into_iter()
            .collect();
        assert!(
            cands.iter().any(|c| c.members == expect),
            "candidates: {cands:?}"
        );
        // The {3,4,5} candidate has mean utilization (0.21+0.405+0.225)/3.
        let c = cands.iter().find(|c| c.members == expect).unwrap();
        assert!((c.mean_utilization - 0.28).abs() < 0.01);
        assert_eq!(c.front_end, OperatorId(2));
    }

    #[test]
    fn candidates_are_sorted_by_mean_utilization() {
        let cands = fusion_candidates(&figure11(), 0.9);
        for w in cands.windows(2) {
            assert!(w[0].mean_utilization <= w[1].mean_utilization + 1e-12);
        }
    }

    #[test]
    fn saturated_operators_are_never_candidates() {
        let cands = fusion_candidates(&figure11(), 0.5);
        for c in &cands {
            assert!(c.max_utilization <= 0.5);
        }
    }

    #[test]
    fn auto_fuse_preserves_predicted_throughput() {
        let t = figure11();
        let before = steady_state(&t).throughput.items_per_sec();
        let auto = auto_fuse(&t, 0.9);
        let after = auto.report.throughput.items_per_sec();
        assert!(
            after >= before * (1.0 - 1e-9),
            "auto fusion lost throughput: {before} -> {after}"
        );
        assert!(
            auto.topology.num_operators() < t.num_operators(),
            "figure 11 has fusable underutilized operators"
        );
        assert!(!auto.steps.is_empty());
        assert_eq!(
            auto.operators_saved(),
            t.num_operators() - auto.topology.num_operators()
        );
    }

    #[test]
    fn auto_fuse_on_tight_pipeline_does_nothing() {
        // Every stage saturated: nothing is a candidate.
        let mut b = Topology::builder();
        let s = b.add_operator(op("src", 1.0));
        let a = b.add_operator(op("a", 1.0));
        let c = b.add_operator(op("b", 1.0));
        b.add_edge(s, a, 1.0).unwrap();
        b.add_edge(a, c, 1.0).unwrap();
        let t = b.build().unwrap();
        let auto = auto_fuse(&t, 0.9);
        assert!(auto.steps.is_empty());
        assert_eq!(auto.topology.num_operators(), 3);
    }

    #[test]
    fn candidate_growth_respects_external_inputs() {
        // Diamond: s -> {l, r} -> k. Growing from l cannot absorb k because
        // k also receives from r (external input) — {l, k} would have two
        // front-ends anyway.
        let mut b = Topology::builder();
        let s = b.add_operator(op("src", 1.0));
        let l = b.add_operator(op("l", 0.1));
        let r = b.add_operator(op("r", 0.1));
        let k = b.add_operator(op("k", 0.1));
        b.add_edge(s, l, 0.5).unwrap();
        b.add_edge(s, r, 0.5).unwrap();
        b.add_edge(l, k, 1.0).unwrap();
        b.add_edge(r, k, 1.0).unwrap();
        let t = b.build().unwrap();
        let cands = fusion_candidates(&t, 0.9);
        for c in &cands {
            assert!(fuse(&t, &c.members).is_ok());
        }
        // No candidate may contain both l and k or both r and k without the
        // other branch.
        for c in &cands {
            if c.members.contains(&k) {
                assert!(c.members.contains(&l) && c.members.contains(&r));
            }
        }
    }
}
