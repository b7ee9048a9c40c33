//! The three-way comparison: analytical prediction vs simulator vs
//! threaded runtime.

use crate::{LayerMeasurement, Tolerances};
use spinstreams_analysis::SteadyStateReport;
use spinstreams_core::{OperatorId, Topology};

/// Which deployment a rate table describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The topology as generated (one replica per operator, Algorithm 1).
    Base,
    /// The Algorithm 2 fission plan (replicated deployment).
    Fission,
    /// The Algorithm 3 fusion group: the topology deployed once unfused
    /// and once with the group fused into one meta-operator.
    Fusion,
}

impl std::fmt::Display for Layer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Layer::Base => write!(f, "base"),
            Layer::Fission => write!(f, "fission"),
            Layer::Fusion => write!(f, "fusion"),
        }
    }
}

/// One operator's row in the three-way rate table.
#[derive(Debug, Clone)]
pub struct RateRow {
    /// The operator.
    pub operator: OperatorId,
    /// Operator name.
    pub name: String,
    /// Replication degree in this layer's deployment.
    pub replicas: usize,
    /// Model-predicted departure rate (items/s).
    pub predicted_departure: f64,
    /// Sim-measured departure rate (items/s).
    pub sim_departure: Option<f64>,
    /// Threaded-measured departure rate (items/s), when the layer ran.
    pub threaded_departure: Option<f64>,
    /// Model-predicted utilization `ρ`.
    pub predicted_utilization: f64,
    /// Sim-measured busy fraction.
    pub sim_utilization: Option<f64>,
    /// Items the operator consumed in the sim run (sample-size guard).
    pub sim_items_in: u64,
}

/// The three-way rate table of one layer of one scenario.
#[derive(Debug, Clone)]
pub struct RateTable {
    /// Which deployment this table describes.
    pub layer: Layer,
    /// Model-predicted throughput (items ingested per second, §5.2).
    pub predicted_throughput: f64,
    /// Sim-measured throughput (source emission rate divided by the
    /// source's selectivity rate factor).
    pub sim_throughput: Option<f64>,
    /// Threaded-measured throughput, when the layer ran.
    pub threaded_throughput: Option<f64>,
    /// Per-operator rows, indexed by operator id.
    pub rows: Vec<RateRow>,
}

/// What diverged.
#[derive(Debug, Clone, PartialEq)]
pub enum DivergenceKind {
    /// Predicted vs sim-measured topology throughput.
    Throughput,
    /// Predicted vs sim-measured departure rate of one operator.
    Departure(OperatorId),
    /// Predicted utilization vs sim-measured busy fraction of one operator.
    Utilization(OperatorId),
    /// Sim vs threaded measured selectivity ratio of one operator.
    ThreadedRatio(OperatorId),
    /// The threaded run dropped items (BAS timeout fired).
    ThreadedDrops,
    /// The fused and the unfused deployment disagreed on an exact item
    /// counter of one operator: the group's front (items in), its tail
    /// (items out) or an operator upstream of the group.
    FusionCounts(OperatorId),
    /// A pipeline stage failed outright (codegen/engine error).
    Pipeline,
}

/// One tolerance violation.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// The scenario seed.
    pub seed: u64,
    /// Which deployment layer.
    pub layer: Layer,
    /// What diverged.
    pub kind: DivergenceKind,
    /// Human-readable account with both values and the band.
    pub detail: String,
}

fn rel_err(predicted: f64, measured: f64) -> f64 {
    (predicted - measured).abs() / measured.abs().max(f64::MIN_POSITIVE)
}

/// Compares one layer's analytical prediction against its sim measurement,
/// producing the rate table and any tolerance violations.
///
/// Operators that consumed fewer than [`Tolerances::min_samples`] items in
/// the sim run are reported in the table but excluded from the checks.
pub fn compare_layer(
    seed: u64,
    layer: Layer,
    topo: &Topology,
    prediction: &SteadyStateReport,
    replicas: &[usize],
    sim: &LayerMeasurement,
    tol: &Tolerances,
) -> (RateTable, Vec<Divergence>) {
    let src = topo.source();
    let src_factor = topo.operator(src).selectivity.rate_factor();
    let mut divergences = Vec::new();

    // Throughput: predicted ingestion vs measured emission / factor.
    let sim_throughput = sim.departures[src.0].map(|emit| emit / src_factor.max(f64::MIN_POSITIVE));
    let predicted_throughput = prediction.throughput.items_per_sec();
    if let Some(meas) = sim_throughput {
        let err = rel_err(predicted_throughput, meas);
        if err > tol.throughput_rel {
            divergences.push(Divergence {
                seed,
                layer,
                kind: DivergenceKind::Throughput,
                detail: format!(
                    "throughput: predicted {predicted_throughput:.1}/s, sim {meas:.1}/s \
                     (rel err {err:.3} > {:.3})",
                    tol.throughput_rel
                ),
            });
        }
    }

    let mut rows = Vec::with_capacity(topo.num_operators());
    for id in topo.operator_ids() {
        let m = prediction.metric(id);
        let row = RateRow {
            operator: id,
            name: topo.operator(id).name.clone(),
            replicas: replicas.get(id.0).copied().unwrap_or(1),
            predicted_departure: m.departure,
            sim_departure: sim.departures[id.0],
            threaded_departure: None,
            predicted_utilization: m.utilization,
            sim_utilization: sim.utilizations[id.0],
            sim_items_in: sim.counters[id.0].items_in,
        };

        // Sample-size guard: sources never consume, so gate them on
        // emissions instead.
        let samples = if id == src {
            sim.counters[id.0].items_out
        } else {
            sim.counters[id.0].items_in
        };
        if samples >= tol.min_samples {
            if let Some(meas) = row.sim_departure {
                let err = rel_err(row.predicted_departure, meas);
                if err > tol.departure_rel {
                    divergences.push(Divergence {
                        seed,
                        layer,
                        kind: DivergenceKind::Departure(id),
                        detail: format!(
                            "{} departure: predicted {:.1}/s, sim {meas:.1}/s \
                             (rel err {err:.3} > {:.3})",
                            row.name, row.predicted_departure, tol.departure_rel
                        ),
                    });
                }
            }
            if let Some(util) = row.sim_utilization {
                let err = (row.predicted_utilization - util).abs();
                if err > tol.utilization_abs {
                    divergences.push(Divergence {
                        seed,
                        layer,
                        kind: DivergenceKind::Utilization(id),
                        detail: format!(
                            "{} utilization: predicted {:.3}, sim busy fraction {util:.3} \
                             (abs err {err:.3} > {:.3})",
                            row.name, row.predicted_utilization, tol.utilization_abs
                        ),
                    });
                }
            }
        }
        rows.push(row);
    }

    (
        RateTable {
            layer,
            predicted_throughput,
            sim_throughput,
            threaded_throughput: None,
            rows,
        },
        divergences,
    )
}

/// Folds a threaded smoke measurement into `table` and checks the
/// load-independent invariants: no drops, and per-operator selectivity
/// ratios within the statistical band of the sim layer's. Departure rates
/// are recorded in the table for the report, but not gated — on a loaded
/// or small host the threaded engine cannot exhibit modeled parallelism.
pub fn compare_threaded(
    seed: u64,
    topo: &Topology,
    table: &mut RateTable,
    sim: &LayerMeasurement,
    threaded: &LayerMeasurement,
    tol: &Tolerances,
) -> Vec<Divergence> {
    let src = topo.source();
    let src_factor = topo.operator(src).selectivity.rate_factor();
    let mut divergences = Vec::new();

    table.threaded_throughput =
        threaded.departures[src.0].map(|emit| emit / src_factor.max(f64::MIN_POSITIVE));
    for row in table.rows.iter_mut() {
        row.threaded_departure = threaded.departures[row.operator.0];
    }

    if threaded.dropped > 0 {
        divergences.push(Divergence {
            seed,
            layer: table.layer,
            kind: DivergenceKind::ThreadedDrops,
            detail: format!("threaded run dropped {} items", threaded.dropped),
        });
    }

    // Selectivity ratios are timing-free: they must agree between the
    // layers wherever both saw enough traffic.
    let guard = tol.min_samples.min(50);
    for id in topo.operator_ids() {
        if id == src {
            continue;
        }
        if sim.counters[id.0].items_in < tol.min_samples || threaded.counters[id.0].items_in < guard
        {
            continue;
        }
        let (Some(a), Some(b)) = (sim.selectivity_ratio(id), threaded.selectivity_ratio(id)) else {
            continue;
        };
        let err = rel_err(a, b);
        if err > tol.threaded_ratio_rel {
            divergences.push(Divergence {
                seed,
                layer: table.layer,
                kind: DivergenceKind::ThreadedRatio(id),
                detail: format!(
                    "{} selectivity ratio: sim {a:.3}, threaded {b:.3} \
                     (rel err {err:.3} > {:.3})",
                    topo.operator(id).name,
                    tol.threaded_ratio_rel
                ),
            });
        }
    }
    divergences
}

/// Renders a rate table as fixed-width text (the artifact/report format).
pub fn format_table(table: &RateTable) -> String {
    fn opt(v: Option<f64>) -> String {
        v.map(|x| format!("{x:.1}")).unwrap_or_else(|| "-".into())
    }
    let mut out = String::new();
    out.push_str(&format!(
        "layer: {}\nthroughput (items ingested/s): predicted {:.1}  sim {}  threaded {}\n",
        table.layer,
        table.predicted_throughput,
        opt(table.sim_throughput),
        opt(table.threaded_throughput),
    ));
    out.push_str(&format!(
        "{:<4} {:<28} {:>3} {:>12} {:>12} {:>12} {:>7} {:>7} {:>8}\n",
        "op", "name", "n", "pred δ/s", "sim δ/s", "thr δ/s", "pred ρ", "sim ρ", "items"
    ));
    for r in &table.rows {
        out.push_str(&format!(
            "{:<4} {:<28} {:>3} {:>12.1} {:>12} {:>12} {:>7.3} {:>7} {:>8}\n",
            r.operator.0,
            r.name,
            r.replicas,
            r.predicted_departure,
            opt(r.sim_departure),
            opt(r.threaded_departure),
            r.predicted_utilization,
            r.sim_utilization
                .map(|u| format!("{u:.3}"))
                .unwrap_or_else(|| "-".into()),
            r.sim_items_in,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use spinstreams_analysis::{steady_state, OperatorCounters};
    use spinstreams_core::{OperatorSpec, ServiceTime, Topology};

    fn two_op_topo() -> Topology {
        let mut b = Topology::builder();
        let s = b.add_operator(OperatorSpec::source("src", ServiceTime::from_millis(1.0)));
        let k = b.add_operator(OperatorSpec::stateless(
            "sink",
            ServiceTime::from_millis(2.0),
        ));
        b.add_edge(s, k, 1.0).unwrap();
        b.build().unwrap()
    }

    fn exact_measurement(report: &SteadyStateReport) -> LayerMeasurement {
        LayerMeasurement {
            departures: report.metrics.iter().map(|m| Some(m.departure)).collect(),
            utilizations: report
                .metrics
                .iter()
                .enumerate()
                .map(|(i, m)| if i == 0 { None } else { Some(m.utilization) })
                .collect(),
            counters: report
                .metrics
                .iter()
                .map(|_| OperatorCounters {
                    items_in: 10_000,
                    items_out: 10_000,
                    busy_ns: None,
                })
                .collect(),
            dropped: 0,
        }
    }

    #[test]
    fn exact_agreement_produces_no_divergence() {
        let t = two_op_topo();
        let report = steady_state(&t);
        let sim = exact_measurement(&report);
        let (table, divs) = compare_layer(
            1,
            Layer::Base,
            &t,
            &report,
            &[],
            &sim,
            &Tolerances::default(),
        );
        assert!(divs.is_empty(), "{divs:?}");
        assert_eq!(table.rows.len(), 2);
        assert!(table.sim_throughput.is_some());
    }

    #[test]
    fn out_of_band_throughput_is_flagged() {
        let t = two_op_topo();
        let report = steady_state(&t);
        let mut sim = exact_measurement(&report);
        sim.departures[0] = sim.departures[0].map(|d| d * 1.5);
        let (_, divs) = compare_layer(
            1,
            Layer::Base,
            &t,
            &report,
            &[],
            &sim,
            &Tolerances::default(),
        );
        assert!(divs
            .iter()
            .any(|d| matches!(d.kind, DivergenceKind::Throughput)));
        // The source departure row diverges with it.
        assert!(divs
            .iter()
            .any(|d| matches!(d.kind, DivergenceKind::Departure(OperatorId(0)))));
    }

    #[test]
    fn starved_operators_are_exempt() {
        let t = two_op_topo();
        let report = steady_state(&t);
        let mut sim = exact_measurement(&report);
        sim.departures[1] = Some(1.0); // wildly off...
        sim.counters[1].items_in = 3; // ...but starved: only 3 items seen
        let (_, divs) = compare_layer(
            1,
            Layer::Base,
            &t,
            &report,
            &[],
            &sim,
            &Tolerances::default(),
        );
        assert!(divs.is_empty(), "{divs:?}");
    }

    #[test]
    fn threaded_ratio_mismatch_is_flagged() {
        let t = two_op_topo();
        let report = steady_state(&t);
        let sim = exact_measurement(&report);
        let (mut table, _) = compare_layer(
            1,
            Layer::Base,
            &t,
            &report,
            &[],
            &sim,
            &Tolerances::default(),
        );
        let mut thr = exact_measurement(&report);
        thr.counters[1].items_out = 5_000; // ratio 0.5 vs sim's 1.0
        let divs = compare_threaded(1, &t, &mut table, &sim, &thr, &Tolerances::default());
        assert!(divs
            .iter()
            .any(|d| matches!(d.kind, DivergenceKind::ThreadedRatio(OperatorId(1)))));
        assert!(table.threaded_throughput.is_some());
    }

    #[test]
    fn table_formats_without_panicking() {
        let t = two_op_topo();
        let report = steady_state(&t);
        let sim = exact_measurement(&report);
        let (table, _) = compare_layer(
            1,
            Layer::Base,
            &t,
            &report,
            &[],
            &sim,
            &Tolerances::default(),
        );
        let text = format_table(&table);
        assert!(text.contains("sink"));
        assert!(text.contains("base"));
    }
}
