//! The oracle sweep: seeded scenario evaluation and the driver loop.

use crate::layers::profile;
use crate::{
    compare_layer, compare_threaded, measure, measure_with, minimize, scenario, sim_executor,
    Divergence, DivergenceKind, Layer, MinimalCase, OracleConfig, RateTable, Scenario,
};
use spinstreams_analysis::{
    eliminate_bottlenecks, evaluate_with_replicas, fusable_chain, steady_state,
};
use spinstreams_codegen::FusionGroup;
use spinstreams_core::{KeyDistribution, OperatorId, Topology};
use spinstreams_runtime::{EngineConfig, Executor};

/// The outcome of evaluating one scenario through every oracle layer.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// The scenario seed.
    pub seed: u64,
    /// Three-way rate tables, one per layer that ran.
    pub tables: Vec<RateTable>,
    /// Every tolerance violation found.
    pub divergences: Vec<Divergence>,
}

impl ScenarioReport {
    /// True if no layer diverged.
    pub fn is_clean(&self) -> bool {
        self.divergences.is_empty()
    }
}

/// Runs the full differential pipeline on one (possibly hand-modified)
/// topology: calibrate on the simulator, predict with Algorithm 1, measure
/// on the simulator, compare; optionally repeat for the Algorithm 2 fission
/// plan, and fold in a threaded smoke run.
///
/// Pipeline failures (codegen/engine/build errors) are reported as
/// [`DivergenceKind::Pipeline`] divergences rather than propagated — an
/// oracle input that crashes a layer *is* a counterexample.
pub fn evaluate(
    topo: &Topology,
    source_keys: &KeyDistribution,
    seed: u64,
    cfg: &OracleConfig,
    threaded: bool,
) -> ScenarioReport {
    let mut tables = Vec::new();
    let mut divergences = Vec::new();
    fn pipeline_failure(
        out: &mut Vec<Divergence>,
        seed: u64,
        layer: Layer,
        stage: &str,
        err: String,
    ) {
        out.push(Divergence {
            seed,
            layer,
            kind: DivergenceKind::Pipeline,
            detail: format!("{stage} failed: {err}"),
        });
    }

    // Base layer: one deterministic sim run of the declared topology.
    // Annotations are profiled from this very run (§4.1 — see `profile`
    // for why sharing the trace matters), then Algorithm 1's prediction on
    // those annotations is held against the run's measured rates.
    let base = match measure(topo, source_keys, &[], cfg.items, seed, &sim_executor(seed)) {
        Ok(m) => m,
        Err(e) => {
            pipeline_failure(
                &mut divergences,
                seed,
                Layer::Base,
                "sim run",
                e.to_string(),
            );
            return ScenarioReport {
                seed,
                tables,
                divergences,
            };
        }
    };
    let cal = match profile(topo, &base, cfg.min_calibration_samples) {
        Ok(t) => t,
        Err(e) => {
            pipeline_failure(
                &mut divergences,
                seed,
                Layer::Base,
                "annotation",
                e.to_string(),
            );
            return ScenarioReport {
                seed,
                tables,
                divergences,
            };
        }
    };
    let prediction = steady_state(&cal);
    let (mut table, divs) = compare_layer(
        seed,
        Layer::Base,
        &cal,
        &prediction,
        &[],
        &base,
        &cfg.tolerances,
    );
    divergences.extend(divs);

    // Threaded smoke layer, folded into the base table.
    if threaded && cfg.threaded_items > 0 {
        match measure(
            topo,
            source_keys,
            &[],
            cfg.threaded_items,
            seed,
            &Executor::Threads(EngineConfig {
                seed,
                ..cfg.engine.clone()
            }),
        ) {
            Ok(thr) => {
                divergences.extend(compare_threaded(
                    seed,
                    &cal,
                    &mut table,
                    &base,
                    &thr,
                    &cfg.tolerances,
                ));
            }
            Err(e) => pipeline_failure(
                &mut divergences,
                seed,
                Layer::Base,
                "threaded run",
                e.to_string(),
            ),
        }
    }
    tables.push(table);

    // Fission layer: Algorithm 2's replicated deployment, when it
    // replicates anything. The replicated run gets its own trace-derived
    // annotations (a join's realized match rate shifts when its input
    // streams interleave differently), with the base layer's calibrated
    // topology as the prior for whatever the run leaves unestimated.
    if cfg.check_fission {
        let plan = eliminate_bottlenecks(&cal);
        if plan.replicas.iter().any(|&r| r > 1) {
            // The replicated deployment runs up to speedup× faster in
            // virtual time; at a fixed item count the run compresses until
            // the pipeline fill/drain transient dominates the wall clock
            // (at 1M items/s, cfg.items lasts single-digit milliseconds).
            // Scale the run length to hold the measured duration — and
            // thus the transient's relative weight — at the base layer's.
            let speedup = (plan.throughput.items_per_sec()
                / prediction.throughput.items_per_sec().max(1e-12))
            .clamp(1.0, 32.0);
            let fis_items = (cfg.items as f64 * speedup) as u64;
            match measure(
                topo,
                source_keys,
                &plan.replicas,
                fis_items,
                seed,
                &sim_executor(seed),
            ) {
                Ok(fis) => match profile(&cal, &fis, cfg.min_calibration_samples) {
                    Ok(cal_fis) => {
                        let pred = evaluate_with_replicas(&cal_fis, &plan.replicas);
                        let (table, divs) = compare_layer(
                            seed,
                            Layer::Fission,
                            &cal_fis,
                            &pred,
                            &plan.replicas,
                            &fis,
                            &cfg.tolerances,
                        );
                        divergences.extend(divs);
                        tables.push(table);
                    }
                    Err(e) => pipeline_failure(
                        &mut divergences,
                        seed,
                        Layer::Fission,
                        "annotation",
                        e.to_string(),
                    ),
                },
                Err(e) => pipeline_failure(
                    &mut divergences,
                    seed,
                    Layer::Fission,
                    "sim run",
                    e.to_string(),
                ),
            }
        }
    }

    // Fusion layer: deploy the longest fusable chain on the deterministic
    // simulator twice — unfused, and fused into one meta-operator — and
    // require exact equality at the group's boundary (the front's items
    // in, the tail's items out) and at every operator upstream of it.
    // Both runs share the seed and the sim is bit-for-bit deterministic,
    // so a difference is a fusion semantics bug, not noise. Operators
    // downstream of the group are left out: the DES seeds actor i's route
    // draws with seed + i and fusion renumbers the actors behind the
    // group, so counts behind a probabilistic split may legitimately
    // differ. Skipped when the scenario has no chain.
    if cfg.check_fusion {
        if let Some(chain) = fusable_chain(&cal, &[]) {
            let (front, tail) = (chain[0], chain[chain.len() - 1]);
            let group = FusionGroup {
                front,
                members: chain.into_iter().collect(),
            };
            let run = |groups: &[FusionGroup]| {
                measure_with(
                    &cal,
                    source_keys,
                    &[],
                    groups,
                    cfg.items,
                    seed,
                    &sim_executor(seed),
                )
            };
            match (run(&[]), run(std::slice::from_ref(&group))) {
                (Ok(unfused), Ok(fused)) => {
                    // (operator, compare items in, compare items out)
                    let checks = upstream_of(&cal, front)
                        .into_iter()
                        .map(|id| (id, true, true))
                        .chain([(front, true, false), (tail, false, true)]);
                    for (id, inn, out) in checks {
                        let (u, f) = (unfused.counters[id.0], fused.counters[id.0]);
                        if (inn && u.items_in != f.items_in) || (out && u.items_out != f.items_out)
                        {
                            divergences.push(Divergence {
                                seed,
                                layer: Layer::Fusion,
                                kind: DivergenceKind::FusionCounts(id),
                                detail: format!(
                                    "{} ({id}): unfused {}/{} vs fused {}/{} items in/out \
                                     (group {:?})",
                                    cal.operator(id).name,
                                    u.items_in,
                                    u.items_out,
                                    f.items_in,
                                    f.items_out,
                                    group.members,
                                ),
                            });
                        }
                    }
                }
                (Err(e), _) | (_, Err(e)) => pipeline_failure(
                    &mut divergences,
                    seed,
                    Layer::Fusion,
                    "fused run",
                    e.to_string(),
                ),
            }
        }
    }

    ScenarioReport {
        seed,
        tables,
        divergences,
    }
}

/// Every operator with a path to `id`, in id order.
fn upstream_of(topo: &Topology, id: OperatorId) -> Vec<OperatorId> {
    let mut seen = vec![false; topo.num_operators()];
    let mut stack = topo.predecessors(id);
    while let Some(p) = stack.pop() {
        if !std::mem::replace(&mut seen[p.0], true) {
            stack.extend(topo.predecessors(p));
        }
    }
    topo.operator_ids().filter(|p| seen[p.0]).collect()
}

/// Generates the scenario for `seed` and evaluates it.
pub fn run_scenario(seed: u64, cfg: &OracleConfig, threaded: bool) -> (Scenario, ScenarioReport) {
    let s = scenario(seed, cfg);
    let report = evaluate(&s.topology, &s.source_keys, seed, cfg, threaded);
    (s, report)
}

/// One divergent scenario with its minimized counterexample.
#[derive(Debug, Clone)]
pub struct DivergentCase {
    /// The original generated scenario.
    pub scenario: Scenario,
    /// Its full evaluation report.
    pub report: ScenarioReport,
    /// The delta-debugged minimal counterexample, when minimization ran.
    pub minimized: Option<MinimalCase>,
}

/// The outcome of a full seed sweep.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Seeds evaluated, in order.
    pub seeds: Vec<u64>,
    /// Seeds that passed every check.
    pub clean: usize,
    /// Divergent scenarios, in seed order.
    pub cases: Vec<DivergentCase>,
}

impl SweepReport {
    /// True if every seed passed.
    pub fn is_clean(&self) -> bool {
        self.cases.is_empty()
    }
}

/// Sweeps `num_seeds` consecutive seeds starting at `seed_start`. The first
/// [`OracleConfig::threaded_runs`] seeds additionally get the threaded
/// smoke layer. `progress` is invoked after each seed with its report.
pub fn run_sweep(
    cfg: &OracleConfig,
    seed_start: u64,
    num_seeds: u64,
    progress: &mut dyn FnMut(&ScenarioReport),
) -> SweepReport {
    let mut seeds = Vec::new();
    let mut clean = 0usize;
    let mut cases = Vec::new();
    for i in 0..num_seeds {
        let seed = seed_start + i;
        seeds.push(seed);
        let threaded = (i as usize) < cfg.threaded_runs;
        let (s, report) = run_scenario(seed, cfg, threaded);
        progress(&report);
        if report.is_clean() {
            clean += 1;
        } else {
            let minimized = cfg.minimize.then(|| minimize(&s, cfg));
            cases.push(DivergentCase {
                scenario: s,
                report,
                minimized,
            });
        }
    }
    SweepReport {
        seeds,
        clean,
        cases,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> OracleConfig {
        OracleConfig {
            items: 4_000,
            threaded_runs: 0,
            minimize: false,
            ..OracleConfig::default()
        }
    }

    #[test]
    fn sim_vs_analysis_agrees_on_seeded_scenarios() {
        let cfg = quick_cfg();
        for seed in [11, 12, 13] {
            let (_, report) = run_scenario(seed, &cfg, false);
            assert!(
                report.is_clean(),
                "seed {seed} diverged: {:?}",
                report.divergences
            );
            assert!(!report.tables.is_empty());
        }
    }

    #[test]
    fn fusable_chain_finds_the_longest_stateless_run() {
        use spinstreams_core::{OperatorSpec, Selectivity, ServiceTime};
        let mut b = Topology::builder();
        let src = b.add_operator(
            OperatorSpec::source("src", ServiceTime::from_micros(1.0)).with_kind("source"),
        );
        let a = b.add_operator(
            OperatorSpec::stateless("a", ServiceTime::from_micros(1.0)).with_kind("identity-map"),
        );
        let f = b.add_operator(
            OperatorSpec::stateless("f", ServiceTime::from_micros(1.0))
                .with_kind("filter")
                .with_selectivity(Selectivity::output(0.5)),
        );
        let agg = b.add_operator(
            OperatorSpec::stateful("agg", ServiceTime::from_micros(1.0)).with_kind("global-sum"),
        );
        let sink = b.add_operator(
            OperatorSpec::stateless("sink", ServiceTime::from_micros(1.0))
                .with_kind("identity-map"),
        );
        b.add_edge(src, a, 1.0).unwrap();
        b.add_edge(a, f, 1.0).unwrap();
        b.add_edge(f, agg, 1.0).unwrap();
        b.add_edge(agg, sink, 1.0).unwrap();
        let topo = b.build().unwrap();
        // a → f is the only stateless run of length ≥ 2: the source is
        // excluded, the aggregate is stateful, and the sink's only input
        // is the aggregate.
        assert_eq!(fusable_chain(&topo, &[]), Some(vec![a, f]));
        // A purely stateful pipeline has no chain at all.
        let mut b = Topology::builder();
        let src = b.add_operator(
            OperatorSpec::source("src", ServiceTime::from_micros(1.0)).with_kind("source"),
        );
        let j = b.add_operator(
            OperatorSpec::stateful("join", ServiceTime::from_micros(1.0)).with_kind("equi-join"),
        );
        let sink = b.add_operator(
            OperatorSpec::stateless("sink", ServiceTime::from_micros(1.0))
                .with_kind("identity-map"),
        );
        b.add_edge(src, j, 1.0).unwrap();
        b.add_edge(j, sink, 1.0).unwrap();
        assert!(fusable_chain(&b.build().unwrap(), &[]).is_none());
    }

    #[test]
    fn generated_scenarios_exercise_the_fusion_layer() {
        // The fusion layer silently skips scenarios without a fusable
        // chain; if the generator stopped producing adjacent stateless
        // operators the differential check would quietly stop running.
        let cfg = quick_cfg();
        let hits = (0..20)
            .filter(|&seed| fusable_chain(&scenario(seed, &cfg).topology, &[]).is_some())
            .count();
        assert!(
            hits >= 3,
            "only {hits}/20 generated scenarios have a fusable chain"
        );
    }

    #[test]
    fn sweep_counts_clean_seeds() {
        let cfg = quick_cfg();
        let mut seen = 0;
        let sweep = run_sweep(&cfg, 20, 2, &mut |_| seen += 1);
        assert_eq!(seen, 2);
        assert_eq!(sweep.seeds, vec![20, 21]);
        assert_eq!(sweep.clean + sweep.cases.len(), 2);
    }
}
