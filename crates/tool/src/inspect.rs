//! `spinstreams inspect`: the live bottleneck-attribution harness.
//!
//! Runs a topology with deep telemetry on (final-sample counters, span
//! flight recorder, stall accounting), re-profiles the §4.1 annotations
//! online from the final cumulative counters, joins Algorithm 1's
//! predicted bottleneck with the measured one through
//! [`spinstreams_analysis::attribute`], and renders the whole join as a
//! human table or a JSON document. This is the "where and why does the
//! live graph diverge from the model" query the adaptive controller will
//! ask programmatically.

use crate::harness::HarnessError;
use spinstreams_analysis::{
    attribute, steady_state, AttributionReport, DriftConfig, DriftStatus, DriftVerdict,
    ObservedOperator, Reprofiler, SteadyStateReport,
};
use spinstreams_codegen::{build_actor_graph, CodegenOptions, GeneratedPlan};
use spinstreams_core::Topology;
use spinstreams_runtime::{
    assemble_spans, execute_with_telemetry, Executor, RunReport, SpanPath, TelemetryConfig,
    TelemetrySnapshot,
};
use std::fmt::Write as _;

/// Joins the measured utilization and blocked/stall decomposition per
/// operator: busy fraction over the snapshot's timebase (from the plan's
/// counter map, `GeneratedPlan::single_actor_busy_ns`; observable only for
/// an operator deployed as one unfused, unreplicated actor), producer-side
/// blocked time from the operator's departure actor (it does the
/// sending), and receiver-edge inbox stall from its input actor.
pub fn observed_operators(plan: &GeneratedPlan, snap: &TelemetrySnapshot) -> Vec<ObservedOperator> {
    plan.single_actor_busy_ns(&plan.operator_counters(snap))
        .into_iter()
        .enumerate()
        .map(|(i, busy)| ObservedOperator {
            utilization: busy
                .filter(|_| snap.t_ns > 0)
                .map(|busy| (busy as f64 / snap.t_ns as f64).min(1.0)),
            blocked_ns: snap.actors[plan.departure_actor[i].0].blocked_ns,
            inbox_stall_ns: snap.actors[plan.input_actor[i].0].inbox_stall_ns,
        })
        .collect()
}

/// Everything one `spinstreams inspect` run produces.
#[derive(Debug)]
pub struct Inspection {
    /// Algorithm 1 on the declared annotations.
    pub steady: SteadyStateReport,
    /// The predicted-vs-observed bottleneck join.
    pub attribution: AttributionReport,
    /// The online re-profiler, post-run (estimates + slot naming).
    pub reprofiler: Reprofiler,
    /// The final annotation estimates, aligned with
    /// `reprofiler.annotations()`.
    pub estimates: Vec<Option<f64>>,
    /// One verdict per annotation slot: declared vs re-profiled value.
    pub annotation_drift: Vec<DriftVerdict>,
    /// Assembled flight-recorder spans (empty unless the telemetry config
    /// enabled span sampling).
    pub spans: Vec<SpanPath>,
    /// The final telemetry snapshot the counters came from.
    pub snapshot: TelemetrySnapshot,
    /// The engine's run report.
    pub run: RunReport,
}

/// Relative-error threshold above which [`inspect`] marks an annotation
/// stale (drift verdicts in [`Inspection::annotation_drift`]).
pub const ANNOTATION_DRIFT_THRESHOLD: f64 = 0.25;

/// Runs `topo` with deep telemetry and attributes its bottleneck.
///
/// `min_samples` is the re-profiler's estimation floor (items an operator
/// must have consumed/emitted before its annotations are judged).
///
/// # Errors
///
/// Propagates codegen/engine failures; fails with
/// [`HarnessError::Measurement`] when the run produced no telemetry
/// snapshot to attribute from.
pub fn inspect(
    topo: &Topology,
    items: u64,
    executor: &Executor,
    telemetry: &TelemetryConfig,
    min_samples: u64,
) -> Result<Inspection, HarnessError> {
    let steady = steady_state(topo);
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
    let graph = std::mem::take(&mut plan.graph);
    let (run, telemetry_report) = execute_with_telemetry(graph, executor, telemetry)?;
    let snapshot =
        telemetry_report
            .snapshots
            .last()
            .cloned()
            .ok_or_else(|| HarnessError::Measurement {
                reason: "run produced no telemetry snapshot".into(),
            })?;

    let mut reprofiler = Reprofiler::new(topo).with_min_samples(min_samples);
    let estimates = reprofiler.update(&plan.operator_counters(&snapshot));
    // One-shot judgement of the final estimates against the declared
    // annotations: no warmup or streak — the final counters *are* the
    // whole run.
    let mut monitor = reprofiler.drift_monitor(DriftConfig {
        threshold: ANNOTATION_DRIFT_THRESHOLD,
        warmup_ticks: 0,
        consecutive: 1,
    });
    let annotation_drift = monitor.tick(&estimates);

    let attribution = attribute(topo, &steady, &observed_operators(&plan, &snapshot));
    let spans = assemble_spans(&telemetry_report.trace);

    Ok(Inspection {
        steady,
        attribution,
        reprofiler,
        estimates,
        annotation_drift,
        spans,
        snapshot,
        run,
    })
}

fn fmt_ms(ns: u64) -> String {
    format!("{:.2}ms", ns as f64 / 1e6)
}

/// Renders an [`Inspection`] as the human-facing `spinstreams inspect`
/// table: per-operator verdicts, the bottleneck naming with its
/// backpressure chain, stale annotations, and the span latency breakdown.
pub fn inspect_table(topo: &Topology, insp: &Inspection) -> String {
    let mut s = String::new();
    let name = |id: spinstreams_core::OperatorId| topo.operator(id).name.clone();
    let _ = writeln!(
        s,
        "{:<12} {:>8} {:>8} {:>10} {:>10}  verdict",
        "operator", "pred ρ", "meas ρ", "blocked", "stalled-on"
    );
    for v in &insp.attribution.verdicts {
        let meas = v
            .measured_utilization
            .map(|u| format!("{u:.2}"))
            .unwrap_or_else(|| "-".into());
        let verdict = match (v.predicted_bottleneck, v.observed_bottleneck) {
            (true, true) => "BOTTLENECK (predicted+observed)",
            (true, false) => "predicted bottleneck",
            (false, true) => "OBSERVED bottleneck",
            (false, false) => "",
        };
        let _ = writeln!(
            s,
            "{:<12} {:>8.2} {:>8} {:>10} {:>10}  {}",
            name(v.operator),
            v.predicted_rho,
            meas,
            fmt_ms(v.blocked_ns),
            fmt_ms(v.inbox_stall_ns),
            verdict
        );
    }
    match (insp.attribution.predicted, insp.attribution.observed) {
        (Some(p), Some(o)) if insp.attribution.agreement => {
            let _ = writeln!(s, "\nbottleneck: {} (model and measurement agree)", name(p));
            let _ = o;
        }
        (p, o) => {
            let _ = writeln!(
                s,
                "\nbottleneck: predicted {} / observed {} (DISAGREE)",
                p.map(&name).unwrap_or_else(|| "-".into()),
                o.map(&name).unwrap_or_else(|| "-".into()),
            );
        }
    }
    if insp.attribution.chain.len() > 1 {
        let chain: Vec<String> = insp.attribution.chain.iter().map(|&id| name(id)).collect();
        let _ = writeln!(s, "backpressure chain: {}", chain.join(" -> "));
    }

    let stale: Vec<&DriftVerdict> = insp
        .annotation_drift
        .iter()
        .filter(|v| v.status == DriftStatus::Drifting)
        .collect();
    if stale.is_empty() {
        let _ = writeln!(
            s,
            "annotations: all within the {:.0}% band",
            ANNOTATION_DRIFT_THRESHOLD * 100.0
        );
    } else {
        let _ = writeln!(s, "stale annotations:");
        for v in stale {
            let _ = writeln!(
                s,
                "  {:<28} declared {:.6} -> measured {:.6} ({:+.0}%)",
                insp.reprofiler.describe(v.index),
                v.predicted.unwrap_or(f64::NAN),
                v.measured.unwrap_or(f64::NAN),
                v.rel_error.unwrap_or(f64::NAN) * 100.0
            );
        }
    }

    if !insp.spans.is_empty() {
        let total: u64 = insp
            .spans
            .iter()
            .filter_map(SpanPath::total_ns)
            .sum::<u64>();
        let mean = total / insp.spans.len() as u64;
        let _ = writeln!(
            s,
            "spans: {} sampled, mean end-to-end {}",
            insp.spans.len(),
            fmt_ms(mean)
        );
        // Mean sojourn per hop actor across all sampled spans.
        let mut hop_sum: Vec<(u64, u64)> = vec![(0, 0); insp.snapshot.actors.len()];
        for p in &insp.spans {
            for h in &p.hops {
                if let Some(slot) = hop_sum.get_mut(h.actor.0) {
                    slot.0 += h.hop_ns;
                    slot.1 += 1;
                }
            }
        }
        for (i, (sum, count)) in hop_sum.iter().enumerate() {
            if *count > 0 {
                let _ = writeln!(
                    s,
                    "  hop {:<12} mean {}",
                    insp.snapshot.actors[i].name,
                    fmt_ms(sum / count)
                );
            }
        }
    }
    s
}

/// Renders an [`Inspection`] as one JSON document (machine-facing output
/// of `spinstreams inspect --json`).
pub fn inspect_json(topo: &Topology, insp: &Inspection) -> String {
    let mut s = String::from("{\"type\":\"inspection\",\"operators\":[");
    for (i, v) in insp.attribution.verdicts.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"operator\":{},\"name\":\"{}\",\"predicted_rho\":{:.4}",
            v.operator.0,
            topo.operator(v.operator).name,
            v.predicted_rho
        );
        match v.measured_utilization {
            Some(u) => {
                let _ = write!(s, ",\"measured_utilization\":{u:.4}");
            }
            None => s.push_str(",\"measured_utilization\":null"),
        }
        let _ = write!(
            s,
            ",\"blocked_ns\":{},\"inbox_stall_ns\":{},\"predicted_bottleneck\":{},\"observed_bottleneck\":{}}}",
            v.blocked_ns, v.inbox_stall_ns, v.predicted_bottleneck, v.observed_bottleneck
        );
    }
    s.push_str("],\"bottleneck\":{");
    match insp.attribution.predicted {
        Some(p) => {
            let _ = write!(s, "\"predicted\":\"{}\"", topo.operator(p).name);
        }
        None => s.push_str("\"predicted\":null"),
    }
    match insp.attribution.observed {
        Some(o) => {
            let _ = write!(s, ",\"observed\":\"{}\"", topo.operator(o).name);
        }
        None => s.push_str(",\"observed\":null"),
    }
    let _ = write!(s, ",\"agreement\":{}", insp.attribution.agreement);
    let chain: Vec<String> = insp
        .attribution
        .chain
        .iter()
        .map(|&id| format!("\"{}\"", topo.operator(id).name))
        .collect();
    let _ = write!(s, ",\"chain\":[{}]}}", chain.join(","));

    s.push_str(",\"annotations\":[");
    for (i, v) in insp.annotation_drift.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"name\":\"{}\",\"status\":\"{}\"",
            insp.reprofiler.describe(v.index),
            v.status
        );
        match v.predicted {
            Some(p) => {
                let _ = write!(s, ",\"declared\":{p:.9}");
            }
            None => s.push_str(",\"declared\":null"),
        }
        match v.measured {
            Some(m) => {
                let _ = write!(s, ",\"measured\":{m:.9}");
            }
            None => s.push_str(",\"measured\":null"),
        }
        s.push('}');
    }
    s.push_str("],\"spans\":{");
    let _ = write!(s, "\"count\":{}", insp.spans.len());
    if !insp.spans.is_empty() {
        let total: u64 = insp
            .spans
            .iter()
            .filter_map(SpanPath::total_ns)
            .sum::<u64>();
        let _ = write!(s, ",\"mean_total_ns\":{}", total / insp.spans.len() as u64);
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use spinstreams_core::{OperatorSpec, ServiceTime};
    use spinstreams_runtime::SimConfig;
    use std::time::Duration;

    /// src -> fast -> slow -> sink with real virtual work: `slow` is both
    /// the modeled and the measured bottleneck.
    fn pipeline() -> Topology {
        let mut b = Topology::builder();
        let s = b.add_operator(
            OperatorSpec::source("src", ServiceTime::from_micros(100.0)).with_kind("source"),
        );
        let f = b.add_operator(
            OperatorSpec::stateless("fast", ServiceTime::from_micros(50.0))
                .with_kind("identity-map")
                .with_param("work_ns", 50_000.0),
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
        b.add_edge(s, f, 1.0).unwrap();
        b.add_edge(f, m, 1.0).unwrap();
        b.add_edge(m, k, 1.0).unwrap();
        b.build().unwrap()
    }

    fn sim() -> Executor {
        Executor::VirtualTime(SimConfig {
            mailbox_capacity: 32,
            seed: 0x1195EC7,
            intrinsic_time: false,
            ..SimConfig::default()
        })
    }

    fn run_inspection() -> Inspection {
        let tcfg = TelemetryConfig::default()
            .with_interval(Duration::from_millis(50))
            .with_span_sample(64);
        inspect(&pipeline(), 4_000, &sim(), &tcfg, 200).unwrap()
    }

    #[test]
    fn inspect_names_the_slow_operator() {
        let topo = pipeline();
        let insp = run_inspection();
        let slow = topo.operator_by_name("slow").unwrap();
        assert_eq!(insp.attribution.predicted, Some(slow));
        assert_eq!(insp.attribution.observed, Some(slow));
        assert!(insp.attribution.agreement);
        // The re-profiled service time matches the injected 400 µs work.
        let slot = insp
            .reprofiler
            .annotations()
            .iter()
            .position(|a| {
                a.operator == slow
                    && matches!(a.kind, spinstreams_analysis::AnnotationKind::ServiceTime)
            })
            .unwrap();
        let est = insp.estimates[slot].unwrap();
        assert!(
            (est - 400e-6).abs() / 400e-6 < 0.05,
            "re-profiled µ {est} vs injected 400µs"
        );
        // Span sampling produced assembled paths ending at the sink.
        assert!(!insp.spans.is_empty());
    }

    #[test]
    fn renders_table_and_json() {
        let topo = pipeline();
        let insp = run_inspection();
        let table = inspect_table(&topo, &insp);
        assert!(table.contains("BOTTLENECK"), "{table}");
        assert!(table.contains("slow"));
        assert!(table.contains("spans:"));
        let json = inspect_json(&topo, &insp);
        assert!(json.starts_with("{\"type\":\"inspection\""));
        assert!(json.contains("\"predicted\":\"slow\""));
        assert!(json.contains("\"observed\":\"slow\""));
        assert!(json.contains("\"agreement\":true"));
        assert!(json.ends_with("}}"));
    }

    #[test]
    fn annotation_drift_flags_a_lying_declaration() {
        // Declare `slow` at 100 µs but inject 400 µs of work: the
        // re-profiler must flag service_time(slow) stale.
        let mut b = Topology::builder();
        let s = b.add_operator(
            OperatorSpec::source("src", ServiceTime::from_micros(100.0)).with_kind("source"),
        );
        let m = b.add_operator(
            OperatorSpec::stateless("slow", ServiceTime::from_micros(100.0))
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
        let topo = b.build().unwrap();
        let tcfg = TelemetryConfig::default().with_interval(Duration::from_millis(50));
        let insp = inspect(&topo, 4_000, &sim(), &tcfg, 200).unwrap();
        let stale: Vec<String> = insp
            .annotation_drift
            .iter()
            .filter(|v| v.status == DriftStatus::Drifting)
            .map(|v| insp.reprofiler.describe(v.index))
            .collect();
        assert!(
            stale.contains(&"service_time(slow)".to_string()),
            "stale: {stale:?}"
        );
    }
}
