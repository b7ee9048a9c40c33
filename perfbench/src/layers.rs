//! Kernel-only baselines: each operator kind alone (`build_operator` +
//! `profile_operator` over `sample_stream` input), and the workload's whole
//! operator graph applied in one single-threaded loop with no runtime —
//! the bottom rung under every runtime cost.

use crate::measure::median;
use spinstreams_core::{KeyDistribution, Topology, Tuple, TUPLE_ARITY};
use spinstreams_operators::{build_operator, OperatorKind, OperatorParams};
use spinstreams_runtime::{profile_operator, sample_stream, Outputs, StreamOperator, XorShift64};
use std::time::Instant;

const PROFILE_TUPLES: usize = 50_000;
const PROFILE_PASSES: usize = 5;
const BARE_TUPLES: usize = 200_000;

fn instantiate(topo: &Topology, id: usize) -> Option<Box<dyn StreamOperator>> {
    let spec = topo.operator(spinstreams_core::OperatorId(id));
    let kind: OperatorKind = spec.kind.parse().ok()?;
    Some(build_operator(
        kind,
        &OperatorParams::from_spec_params(&spec.params),
    ))
}

/// ns per tuple of each operator kind in `topo` (its first operator of
/// that kind) profiled alone: §4.1's profiling step on the operator in
/// isolation. Each kind is profiled [`PROFILE_PASSES`] times on a fresh
/// instance and the median pass is kept, so one noisy pass does not move
/// the result.
pub fn kernel_costs(topo: &Topology) -> Vec<(String, f64)> {
    let inputs = sample_stream(PROFILE_TUPLES, 1024, 7);
    let mut out: Vec<(String, f64)> = Vec::new();
    for id in topo.operator_ids() {
        let kind = &topo.operator(id).kind;
        if out.iter().any(|(k, _)| k == kind) {
            continue;
        }
        let passes = (0..PROFILE_PASSES)
            .map(|_| {
                let mut op = instantiate(topo, id.0)?;
                let p = profile_operator(op.as_mut(), &inputs, 1_000);
                Some(p.mean_service_time.as_secs() * 1e9)
            })
            .collect::<Option<Vec<f64>>>();
        if let Some(passes) = passes {
            out.push((kind.clone(), median(&passes)));
        }
    }
    out
}

/// ns per source tuple of the topology's operators run back to back on
/// one thread: tuples generated like the runtime source's, routed along
/// the edges (probabilistic edges draw from an RNG), no mailboxes, no
/// scheduling. Input generation is not timed.
pub fn bare_chain_ns(topo: &Topology, keys: &KeyDistribution, seed: u64) -> f64 {
    let n = topo.num_operators();
    let src = topo.source().0;
    let mut ops: Vec<Option<Box<dyn StreamOperator>>> = (0..n)
        .map(|i| if i == src { None } else { instantiate(topo, i) })
        .collect();
    // Per operator: successors with cumulative edge probabilities.
    let routes: Vec<Vec<(usize, f64)>> = (0..n)
        .map(|i| {
            let mut acc = 0.0;
            topo.out_edges(spinstreams_core::OperatorId(i))
                .iter()
                .map(|&e| {
                    let e = topo.edge(e);
                    acc += e.probability;
                    (e.to.0, acc)
                })
                .collect()
        })
        .collect();
    let mut rng = XorShift64::new(seed);
    let inputs: Vec<Tuple> = (0..BARE_TUPLES as u64)
        .map(|seq| {
            let key = keys.sample(rng.next_f64()) as u64;
            let mut values = [0.0; TUPLE_ARITY];
            for v in &mut values {
                *v = rng.next_f64();
            }
            Tuple::new(key, seq, values)
        })
        .collect();
    let mut route_rng = XorShift64::new(seed ^ 0xB0A7);
    let mut next = |from: usize| -> Option<usize> {
        match routes[from].as_slice() {
            [] => None,
            [(to, _)] => Some(*to),
            many => {
                let u = route_rng.next_f64() * many.last().map_or(1.0, |l| l.1);
                many.iter()
                    .find(|(_, c)| u < *c)
                    .or(many.last())
                    .map(|(to, _)| *to)
            }
        }
    };
    let mut out = Outputs::new();
    let mut stack: Vec<(usize, Tuple)> = Vec::with_capacity(64);
    let start = Instant::now();
    for item in &inputs {
        if let Some(to) = next(src) {
            stack.push((to, *item));
        }
        while let Some((at, tuple)) = stack.pop() {
            let Some(op) = ops[at].as_mut() else { continue };
            op.process(tuple, &mut out);
            for (_, emitted) in out.drain() {
                if let Some(to) = next(at) {
                    stack.push((to, emitted));
                }
            }
        }
    }
    let ns = start.elapsed().as_nanos() as f64 / BARE_TUPLES as f64;
    std::hint::black_box(&ops);
    ns
}
