//! Telemetry export: JSON-lines emission with online drift verdicts.
//!
//! The runtime's telemetry layer samples rolling per-actor rates; the
//! analysis crate's [`DriftMonitor`] compares them against Algorithm 1's
//! predictions. This module is the glue: it maps the model's per-operator
//! predicted departure rates onto deployed actor indices, ticks the
//! monitor from the sampler's `on_snapshot` callback, and renders each
//! snapshot as one JSON-lines record with the drift verdicts spliced in —
//! the §5.2 predicted-vs-measured comparison, performed live instead of
//! post-hoc.

use crate::harness::{compare, Comparison, HarnessError};
use spinstreams_analysis::{
    steady_state, DriftConfig, DriftMonitor, DriftStatus, DriftVerdict, SteadyStateReport,
};
use spinstreams_codegen::{build_actor_graph, CodegenOptions, GeneratedPlan};
use spinstreams_core::Topology;
use spinstreams_runtime::{
    execute_with_telemetry, Executor, TelemetryConfig, TelemetryReport, TelemetrySnapshot,
};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// Maps Algorithm 1's per-operator predicted departure rates (items/s)
/// onto deployed actor indices via the codegen plan's departure-actor
/// mapping. Actors that measure no operator's departures (emitters,
/// collector-less replicas) stay `None`. When several operators share a
/// departure actor (a fusion group's meta actor), the highest-id member —
/// the group's exit operator — wins, matching what the meta actor's
/// `items_out` counter measures.
pub fn predicted_actor_rates(
    topo: &Topology,
    report: &SteadyStateReport,
    plan: &GeneratedPlan,
) -> Vec<Option<f64>> {
    let mut rates = vec![None; plan.num_actors];
    for id in topo.operator_ids() {
        rates[plan.departure_actor[id.0].0] = Some(report.metric(id).departure);
    }
    rates
}

/// Renders `verdicts` as the raw JSON fragment `"drift":[...]` accepted by
/// [`TelemetrySnapshot::to_json_with`]. Rates use three decimals and
/// relative errors four, so exports are byte-stable across identical runs.
pub fn drift_json(verdicts: &[DriftVerdict]) -> String {
    let mut s = String::from("\"drift\":[");
    for (i, v) in verdicts.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{{\"actor\":{},\"status\":\"{}\"", v.index, v.status);
        match v.predicted {
            Some(p) => {
                let _ = write!(s, ",\"predicted\":{p:.3}");
            }
            None => s.push_str(",\"predicted\":null"),
        }
        match v.measured {
            Some(m) => {
                let _ = write!(s, ",\"measured\":{m:.3}");
            }
            None => s.push_str(",\"measured\":null"),
        }
        match v.rel_error {
            Some(e) => {
                let _ = write!(s, ",\"rel_error\":{e:.4}");
            }
            None => s.push_str(",\"rel_error\":null"),
        }
        s.push('}');
    }
    s.push(']');
    s
}

struct DriftState {
    monitor: DriftMonitor,
    lines: Vec<String>,
    last: Vec<DriftVerdict>,
}

/// Ticks a [`DriftMonitor`] from the telemetry sampler's snapshot
/// callback and accumulates one JSON-lines record per snapshot with the
/// verdicts attached.
///
/// Create it with the predicted per-actor rates, [`attach`](Self::attach)
/// it to a [`TelemetryConfig`], run the deployment, then
/// [`finish`](Self::finish) to collect the export.
pub struct DriftExporter {
    state: Arc<Mutex<DriftState>>,
}

impl DriftExporter {
    /// Creates an exporter judging measured rates against `predicted`
    /// (indexed by actor id, as produced by [`predicted_actor_rates`]).
    pub fn new(predicted: Vec<Option<f64>>, config: DriftConfig) -> Self {
        Self {
            state: Arc::new(Mutex::new(DriftState {
                monitor: DriftMonitor::new(predicted, config),
                lines: Vec::new(),
                last: Vec::new(),
            })),
        }
    }

    /// Returns `telemetry` with this exporter installed as the
    /// `on_snapshot` callback. `observe` additionally sees each snapshot
    /// and its verdicts as they are taken — the hook live renderers use.
    pub fn attach(
        &self,
        telemetry: TelemetryConfig,
        observe: impl Fn(&TelemetrySnapshot, &[DriftVerdict]) + Send + Sync + 'static,
    ) -> TelemetryConfig {
        let state = Arc::clone(&self.state);
        telemetry.with_on_snapshot(move |snap| {
            let mut st = state.lock().expect("drift exporter poisoned");
            // A rolling rate of zero means the actor was idle this window
            // (filling, draining, or starved): no evidence either way.
            let measured: Vec<Option<f64>> = snap
                .actors
                .iter()
                .map(|a| (a.departure_rate > 0.0).then_some(a.departure_rate))
                .collect();
            let verdicts = st.monitor.tick(&measured);
            st.lines.push(snap.to_json_with(&drift_json(&verdicts)));
            st.last = verdicts;
            let st = &*st;
            observe(snap, &st.last);
        })
    }

    /// Consumes the exporter, returning the accumulated export with the
    /// run's retained trace events appended after the snapshot lines.
    pub fn finish(self, telemetry: &TelemetryReport) -> TelemetryExport {
        let state = Arc::try_unwrap(self.state)
            .unwrap_or_else(|arc| {
                // The sampler thread has been joined by the time the run
                // returns, but a caller may still hold the attached config
                // (and with it the callback); fall back to copying.
                let st = arc.lock().expect("drift exporter poisoned");
                Mutex::new(DriftState {
                    monitor: st.monitor.clone(),
                    lines: st.lines.clone(),
                    last: st.last.clone(),
                })
            })
            .into_inner()
            .expect("drift exporter poisoned");
        let mut jsonl = String::new();
        for line in &state.lines {
            jsonl.push_str(line);
            jsonl.push('\n');
        }
        for ev in &telemetry.trace {
            jsonl.push_str(&ev.to_json());
            jsonl.push('\n');
        }
        TelemetryExport {
            jsonl,
            snapshot_lines: state.lines.len(),
            final_drift: state.last,
        }
    }
}

/// The rendered output of a telemetry-enabled run.
#[derive(Debug, Clone)]
pub struct TelemetryExport {
    /// JSON-lines text: one `"type":"snapshot"` record per sample (with
    /// drift verdicts), followed by the retained `"type":"trace"` events.
    pub jsonl: String,
    /// Number of snapshot records in [`jsonl`](Self::jsonl).
    pub snapshot_lines: usize,
    /// The verdicts from the final snapshot.
    pub final_drift: Vec<DriftVerdict>,
}

impl TelemetryExport {
    /// Names of actors drifting at the final snapshot, resolved through
    /// `names` (indexed by actor id).
    pub fn drifting_actors<'a>(&self, names: &'a [String]) -> Vec<&'a str> {
        self.final_drift
            .iter()
            .filter(|v| v.status == DriftStatus::Drifting)
            .filter_map(|v| names.get(v.index).map(|s| s.as_str()))
            .collect()
    }
}

/// Everything a telemetry-enabled predict-vs-measure run produces.
#[derive(Debug, Clone)]
pub struct TelemetryRun {
    /// The ordinary prediction-vs-measurement comparison.
    pub comparison: Comparison,
    /// The raw telemetry (snapshots + trace).
    pub telemetry: TelemetryReport,
    /// The rendered JSON-lines export with drift verdicts.
    pub export: TelemetryExport,
}

/// [`predict_vs_measure`](crate::predict_vs_measure) with live telemetry:
/// runs Algorithm 1, deploys the topology with the sampler enabled, ticks
/// a [`DriftMonitor`] on every snapshot, and returns the comparison plus
/// the JSON-lines export.
///
/// # Errors
///
/// Propagates codegen/engine failures; fails with
/// [`HarnessError::Measurement`] if the source throughput is unmeasurable.
pub fn predict_vs_measure_telemetry(
    topo: &Topology,
    items: u64,
    executor: &Executor,
    telemetry: &TelemetryConfig,
    drift: DriftConfig,
) -> Result<TelemetryRun, HarnessError> {
    let report = steady_state(topo);
    let mut plan = build_actor_graph(
        topo,
        None,
        &[],
        &[],
        &CodegenOptions {
            items,
            seed: executor.seed(),
            ..CodegenOptions::default()
        },
    )?;
    let predicted = predicted_actor_rates(topo, &report, &plan);

    let exporter = DriftExporter::new(predicted, drift);
    let tcfg = exporter.attach(telemetry.clone(), |_, _| {});
    let graph = std::mem::take(&mut plan.graph);
    let (run, telemetry_report) = execute_with_telemetry(graph, executor, &tcfg)?;
    let export = exporter.finish(&telemetry_report);

    Ok(TelemetryRun {
        comparison: compare(topo, report, &plan, run)?,
        telemetry: telemetry_report,
        export,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use spinstreams_core::{OperatorSpec, Selectivity, ServiceTime};
    use spinstreams_runtime::SimConfig;
    use std::time::Duration;

    fn pipeline() -> Topology {
        let mut b = Topology::builder();
        let s = b.add_operator(
            OperatorSpec::source("src", ServiceTime::from_micros(100.0)).with_kind("source"),
        );
        let m = b.add_operator(
            OperatorSpec::stateless("slow", ServiceTime::from_micros(400.0))
                .with_kind("identity-map")
                .with_param("work_ns", 400_000.0),
        );
        let k = b.add_operator(
            OperatorSpec::stateless("sink", ServiceTime::from_micros(10.0))
                .with_kind("identity-map")
                .with_param("work_ns", 10_000.0),
        );
        b.add_edge(s, m, 1.0).unwrap();
        b.add_edge(m, k, 1.0).unwrap();
        b.build().unwrap()
    }

    fn sim() -> Executor {
        Executor::VirtualTime(SimConfig {
            mailbox_capacity: 32,
            seed: 0xD1A7,
            intrinsic_time: false,
            ..SimConfig::default()
        })
    }

    #[test]
    fn predicted_rates_map_operators_to_departure_actors() {
        let topo = pipeline();
        let report = steady_state(&topo);
        let plan = build_actor_graph(
            &topo,
            None,
            &[],
            &[],
            &CodegenOptions {
                items: 10,
                seed: 1,
                ..CodegenOptions::default()
            },
        )
        .unwrap();
        let rates = predicted_actor_rates(&topo, &report, &plan);
        assert_eq!(rates.len(), plan.num_actors);
        assert_eq!(rates.iter().filter(|r| r.is_some()).count(), 3);
        // The 400 µs bottleneck caps every downstream departure at 2500/s.
        let slow = rates[plan.departure_actor[1].0].unwrap();
        assert!((slow - 2500.0).abs() < 1.0, "slow departs at {slow}");
    }

    #[test]
    fn drift_json_renders_all_verdict_shapes() {
        let verdicts = vec![
            DriftVerdict {
                index: 0,
                predicted: Some(100.0),
                measured: Some(95.0),
                rel_error: Some(0.05),
                status: DriftStatus::Ok,
            },
            DriftVerdict {
                index: 1,
                predicted: None,
                measured: None,
                rel_error: None,
                status: DriftStatus::NoData,
            },
        ];
        let j = drift_json(&verdicts);
        assert_eq!(
            j,
            "\"drift\":[{\"actor\":0,\"status\":\"ok\",\"predicted\":100.000,\
             \"measured\":95.000,\"rel_error\":0.0500},\
             {\"actor\":1,\"status\":\"no-data\",\"predicted\":null,\
             \"measured\":null,\"rel_error\":null}]"
        );
    }

    #[test]
    fn telemetry_run_attaches_drift_verdicts_to_every_snapshot() {
        let topo = pipeline();
        let tcfg = TelemetryConfig::default().with_interval(Duration::from_millis(50));
        let run = predict_vs_measure_telemetry(
            &topo,
            4_000,
            &sim(),
            &tcfg,
            DriftConfig {
                warmup_ticks: 1,
                ..DriftConfig::default()
            },
        )
        .unwrap();
        assert!(run.export.snapshot_lines >= 2, "expected several snapshots");
        for line in run.export.jsonl.lines() {
            if line.starts_with("{\"type\":\"snapshot\"") {
                assert!(
                    line.contains("\"drift\":["),
                    "snapshot without drift: {line}"
                );
                assert!(line.ends_with('}'));
            }
        }
        // Virtual time matches the model tightly: nothing drifts.
        assert!(
            run.export
                .final_drift
                .iter()
                .all(|v| v.status != DriftStatus::Drifting),
            "unexpected drift: {:?}",
            run.export.final_drift
        );
        assert!(run.comparison.relative_error() < 0.1);
    }

    #[test]
    fn source_selectivity_is_divided_out_on_both_paths() {
        // The source emits at half its ingestion rate: both drivers must
        // report the same ingestion throughput for the same run.
        let mut b = Topology::builder();
        let s = b.add_operator(
            OperatorSpec::source("src", ServiceTime::from_micros(100.0))
                .with_kind("source")
                .with_selectivity(Selectivity::output(0.5)),
        );
        let k = b.add_operator(
            OperatorSpec::stateless("sink", ServiceTime::from_micros(10.0))
                .with_kind("identity-map")
                .with_param("work_ns", 10_000.0),
        );
        b.add_edge(s, k, 1.0).unwrap();
        let topo = b.build().unwrap();
        let plain = crate::predict_vs_measure(&topo, None, &[], &[], 4_000, &sim()).unwrap();
        let tcfg = TelemetryConfig::default().with_interval(Duration::from_millis(50));
        let live =
            predict_vs_measure_telemetry(&topo, 4_000, &sim(), &tcfg, DriftConfig::default())
                .unwrap();
        assert_eq!(
            live.comparison.measured_throughput,
            plain.measured_throughput
        );
        // Ingestion at 10k/s, not the 5k/s emission rate.
        assert!(
            (plain.measured_throughput - 10_000.0).abs() < 500.0,
            "measured {}",
            plain.measured_throughput
        );
    }

    #[test]
    fn drift_flags_a_mispredicted_operator() {
        let topo = pipeline();
        // Lie to the monitor: pretend the model predicted 10x the real rate.
        let report = steady_state(&topo);
        let plan = build_actor_graph(
            &topo,
            None,
            &[],
            &[],
            &CodegenOptions {
                items: 4_000,
                seed: 0xD1A7,
                ..CodegenOptions::default()
            },
        )
        .unwrap();
        let mut predicted = predicted_actor_rates(&topo, &report, &plan);
        for p in predicted.iter_mut().flatten() {
            *p *= 10.0;
        }
        let exporter = DriftExporter::new(
            predicted,
            DriftConfig {
                warmup_ticks: 1,
                consecutive: 2,
                ..DriftConfig::default()
            },
        );
        let tcfg = exporter.attach(
            TelemetryConfig::default().with_interval(Duration::from_millis(50)),
            |_, _| {},
        );
        let (_, telemetry) = execute_with_telemetry(plan.graph, &sim(), &tcfg).unwrap();
        let export = exporter.finish(&telemetry);
        assert!(
            export
                .final_drift
                .iter()
                .any(|v| v.status == DriftStatus::Drifting),
            "10x misprediction must drift: {:?}",
            export.final_drift
        );
        let names: Vec<String> = (0..export.final_drift.len())
            .map(|i| format!("actor{i}"))
            .collect();
        assert!(!export.drifting_actors(&names).is_empty());
    }
}
