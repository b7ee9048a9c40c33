//! Plain-text rendering of experiment results (the bench binaries' output)
//! and of live telemetry snapshots (the `monitor` subcommand's table and
//! the Prometheus text exposition).

use crate::Comparison;
use spinstreams_analysis::{DriftStatus, DriftVerdict};
use spinstreams_runtime::{TelemetrySnapshot, COUNTERS};
use std::fmt::Write as _;

/// Renders one or more named series as an aligned text table with a
/// trailing ASCII bar for the first series — the form the figure binaries
/// print (one row per topology/operator).
///
/// `labels` names the rows; each series must have one value per row.
///
/// # Panics
///
/// Panics if series lengths do not match `labels`.
pub fn ascii_series(title: &str, labels: &[String], series: &[(&str, Vec<f64>)]) -> String {
    for (name, values) in series {
        assert_eq!(values.len(), labels.len(), "series {name} length mismatch");
    }
    let mut out = String::new();
    let _ = writeln!(out, "== {title} ==");
    let label_w = labels.iter().map(|l| l.len()).max().unwrap_or(5).max(5);
    let _ = write!(out, "{:<label_w$}", "");
    for (name, _) in series {
        let _ = write!(out, " {name:>14}");
    }
    let _ = writeln!(out);
    let max = series
        .first()
        .map(|(_, v)| v.iter().cloned().fold(0.0, f64::max))
        .unwrap_or(0.0);
    for (i, label) in labels.iter().enumerate() {
        let _ = write!(out, "{label:<label_w$}");
        for (_, values) in series {
            let _ = write!(out, " {:>14.3}", values[i]);
        }
        if max > 0.0 {
            let bar = ((series[0].1[i] / max) * 40.0).round() as usize;
            let _ = write!(out, "  |{}", "#".repeat(bar));
        }
        let _ = writeln!(out);
    }
    out
}

/// Renders a [`Comparison`] in the style of the paper's Tables 1 and 2:
/// per-operator `µ⁻¹`, predicted `δ⁻¹` and `ρ`, plus the
/// predicted/measured throughput footer.
pub fn comparison_table(title: &str, cmp: &Comparison) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== {title} ==");
    let _ = writeln!(
        out,
        "{:<24} {:>12} {:>12} {:>8} {:>14}",
        "operator", "µ⁻¹ (ms)", "δ⁻¹ (ms)", "ρ", "measured δ⁻¹"
    );
    for (i, op) in cmp.operators.iter().enumerate() {
        let m = cmp.report.metrics[i];
        let mu_inv = if m.utilization > 0.0 && m.arrival > 0.0 {
            1000.0 * m.utilization / m.arrival
        } else {
            f64::NAN
        };
        let dinv = if op.predicted_departure > 0.0 {
            1000.0 / op.predicted_departure
        } else {
            f64::INFINITY
        };
        let measured = op
            .measured_departure
            .map(|d| format!("{:>14.3}", 1000.0 / d))
            .unwrap_or_else(|| format!("{:>14}", "-"));
        let _ = writeln!(
            out,
            "{:<24} {:>12.3} {:>12.3} {:>8.3} {measured}",
            op.name, mu_inv, dinv, m.utilization
        );
    }
    let _ = writeln!(
        out,
        "throughput: {:.1} predicted vs {:.1} measured items/s (error {:.2}%)",
        cmp.predicted_throughput,
        cmp.measured_throughput,
        cmp.relative_error() * 100.0
    );
    out
}

fn drift_cell(verdicts: &[DriftVerdict], actor: usize) -> String {
    match verdicts.iter().find(|v| v.index == actor) {
        Some(v) => match (v.status, v.rel_error) {
            (DriftStatus::Drifting, Some(e)) => format!("DRIFT {:.0}%", e * 100.0),
            (DriftStatus::Ok, Some(e)) => format!("ok {:.0}%", e * 100.0),
            (s, _) => s.to_string(),
        },
        None => "-".into(),
    }
}

/// Renders one telemetry snapshot as the live table the `monitor`
/// subcommand prints: per-actor queue occupancy, rolling rates,
/// utilization and drift verdict, followed by per-sink latency quantiles.
pub fn monitor_table(snap: &TelemetrySnapshot, verdicts: &[DriftVerdict]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "t=+{:.3}s  tick {}  window {:.0}ms  trace events {}",
        snap.t_ns as f64 / 1e9,
        snap.tick,
        snap.interval_ns as f64 / 1e6,
        snap.trace_total
    );
    let _ = writeln!(
        s,
        "{:<18} {:>9} {:>10} {:>10} {:>9} {:>9} {:>6} {:>10}",
        "actor", "queue", "in", "out", "arr/s", "dep/s", "util", "drift"
    );
    for a in &snap.actors {
        let queue = match (a.queue_depth, a.queue_capacity) {
            (Some(d), Some(c)) => format!("{d}/{c}"),
            (Some(d), None) => format!("{d}"),
            _ => "-".into(),
        };
        let _ = writeln!(
            s,
            "{:<18} {:>9} {:>10} {:>10} {:>9.1} {:>9.1} {:>6.2} {:>10}",
            a.name,
            queue,
            a.items_in,
            a.items_out,
            a.arrival_rate,
            a.departure_rate,
            a.utilization,
            drift_cell(verdicts, a.id.0)
        );
    }
    for l in &snap.latencies {
        let _ = writeln!(
            s,
            "latency[{}]: n={} mean={:.1}µs p50={:.1}µs p95={:.1}µs p99={:.1}µs max={:.1}µs",
            l.name,
            l.latency.count,
            l.latency.mean_ns as f64 / 1e3,
            l.latency.p50_ns as f64 / 1e3,
            l.latency.p95_ns as f64 / 1e3,
            l.latency.p99_ns as f64 / 1e3,
            l.latency.max_ns as f64 / 1e3
        );
    }
    s
}

fn prom_label(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Appends one `# HELP` + `# TYPE` header pair (Prometheus text
/// exposition format 0.0.4 requires both per metric family).
fn prom_header(s: &mut String, name: &str, kind: &str, help: &str) {
    let _ = writeln!(s, "# HELP {name} {help}");
    let _ = writeln!(s, "# TYPE {name} {kind}");
}

/// Renders one telemetry snapshot in the Prometheus text exposition
/// format (version 0.0.4): one counter family per entry of the counter
/// table ([`COUNTERS`]), gauges for queue depths, rolling rates,
/// utilization, latency quantiles, the checkpoint epoch, and drift
/// relative error. Every family carries `# HELP` and `# TYPE` lines.
pub fn prometheus_text(snap: &TelemetrySnapshot, verdicts: &[DriftVerdict]) -> String {
    let mut s = String::new();
    // Multi-tenant runs stamp every per-actor series with the tenant it
    // belongs to; single-tenant snapshots are unchanged.
    let tenant = snap
        .tenant
        .as_deref()
        .map(|t| format!(",tenant=\"{}\"", prom_label(t)))
        .unwrap_or_default();
    for c in &COUNTERS {
        let name = format!("spinstreams_actor_{}_total", c.name);
        prom_header(&mut s, &name, "counter", c.help);
        for a in &snap.actors {
            let _ = writeln!(
                s,
                "{name}{{actor=\"{}\"{tenant}}} {}",
                prom_label(&a.name),
                a.counters[c.counter]
            );
        }
    }
    prom_header(
        &mut s,
        "spinstreams_actor_queue_depth",
        "gauge",
        "Current mailbox occupancy (absent for sources).",
    );
    for a in &snap.actors {
        if let Some(d) = a.queue_depth {
            let _ = writeln!(
                s,
                "spinstreams_actor_queue_depth{{actor=\"{}\"{tenant}}} {d}",
                prom_label(&a.name)
            );
        }
    }
    prom_header(
        &mut s,
        "spinstreams_actor_arrival_rate",
        "gauge",
        "Rolling arrival rate over the last sampling window (items/s).",
    );
    for a in &snap.actors {
        let _ = writeln!(
            s,
            "spinstreams_actor_arrival_rate{{actor=\"{}\"{tenant}}} {:.3}",
            prom_label(&a.name),
            a.arrival_rate
        );
    }
    prom_header(
        &mut s,
        "spinstreams_actor_departure_rate",
        "gauge",
        "Rolling departure rate over the last sampling window (items/s).",
    );
    for a in &snap.actors {
        let _ = writeln!(
            s,
            "spinstreams_actor_departure_rate{{actor=\"{}\"{tenant}}} {:.3}",
            prom_label(&a.name),
            a.departure_rate
        );
    }
    prom_header(
        &mut s,
        "spinstreams_actor_utilization",
        "gauge",
        "Rolling busy fraction over the last sampling window.",
    );
    for a in &snap.actors {
        let _ = writeln!(
            s,
            "spinstreams_actor_utilization{{actor=\"{}\"{tenant}}} {:.4}",
            prom_label(&a.name),
            a.utilization
        );
    }
    if let Some(epoch) = snap.last_complete_epoch {
        prom_header(
            &mut s,
            "spinstreams_last_complete_epoch",
            "gauge",
            "Highest checkpoint epoch acknowledged by every actor.",
        );
        let _ = writeln!(s, "spinstreams_last_complete_epoch {epoch}");
    }
    prom_header(
        &mut s,
        "spinstreams_sink_latency_ns",
        "gauge",
        "Per-sink end-to-end latency quantiles (ns).",
    );
    for l in &snap.latencies {
        for (q, v) in [
            ("0.5", l.latency.p50_ns),
            ("0.95", l.latency.p95_ns),
            ("0.99", l.latency.p99_ns),
            ("1", l.latency.max_ns),
        ] {
            let _ = writeln!(
                s,
                "spinstreams_sink_latency_ns{{sink=\"{}\",quantile=\"{q}\"{tenant}}} {v}",
                prom_label(&l.name)
            );
        }
    }
    let drifting: Vec<&DriftVerdict> = verdicts.iter().filter(|v| v.rel_error.is_some()).collect();
    if !drifting.is_empty() {
        prom_header(
            &mut s,
            "spinstreams_drift_relative_error",
            "gauge",
            "Relative error between predicted and measured departure rate.",
        );
        for v in &drifting {
            let name = snap
                .actors
                .iter()
                .find(|a| a.id.0 == v.index)
                .map(|a| a.name.as_str())
                .unwrap_or("?");
            let _ = writeln!(
                s,
                "spinstreams_drift_relative_error{{actor=\"{}\"{tenant}}} {:.4}",
                prom_label(name),
                v.rel_error.unwrap_or(f64::NAN)
            );
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use spinstreams_runtime::telemetry::{ActorSample, LatencySnapshot, SinkLatency};
    use spinstreams_runtime::{ActorId, Counters};

    fn sample_snapshot() -> TelemetrySnapshot {
        TelemetrySnapshot {
            tick: 3,
            t_ns: 400_000_000,
            interval_ns: 100_000_000,
            actors: vec![
                ActorSample {
                    id: ActorId(0),
                    name: "src".into(),
                    counters: Counters {
                        items_out: 1000,
                        busy_ns: 100_000_000,
                        ..Counters::default()
                    },
                    queue_depth: None,
                    queue_capacity: None,
                    arrival_rate: 0.0,
                    departure_rate: 2500.0,
                    utilization: 0.25,
                },
                ActorSample {
                    id: ActorId(1),
                    name: "slow".into(),
                    counters: Counters {
                        items_in: 990,
                        items_out: 980,
                        busy_ns: 396_000_000,
                        blocked_ns: 12_000_000,
                        inbox_stall_ns: 7_000_000,
                        snapshots: 3,
                        snapshot_bytes: 96,
                        align_stall_ns: 2_000_000,
                        recoveries: 1,
                        replayed: 40,
                        ..Counters::default()
                    },
                    queue_depth: Some(31),
                    queue_capacity: Some(32),
                    arrival_rate: 2500.0,
                    departure_rate: 2480.0,
                    utilization: 0.99,
                },
            ],
            latencies: vec![SinkLatency {
                actor: ActorId(1),
                name: "slow".into(),
                latency: LatencySnapshot {
                    count: 980,
                    mean_ns: 420_000,
                    p50_ns: 400_000,
                    p95_ns: 700_000,
                    p99_ns: 900_000,
                    max_ns: 1_200_000,
                },
            }],
            trace_total: 6,
            last_complete_epoch: Some(4),
            tenant: None,
        }
    }

    fn verdicts() -> Vec<DriftVerdict> {
        vec![DriftVerdict {
            index: 1,
            predicted: Some(2500.0),
            measured: Some(1000.0),
            rel_error: Some(0.6),
            status: DriftStatus::Drifting,
        }]
    }

    #[test]
    fn monitor_table_shows_queues_rates_and_drift() {
        let text = monitor_table(&sample_snapshot(), &verdicts());
        assert!(text.contains("tick 3"));
        assert!(text.contains("31/32"), "queue occupancy missing:\n{text}");
        assert!(text.contains("DRIFT 60%"), "drift cell missing:\n{text}");
        assert!(text.contains("latency[slow]"), "latency line missing");
        assert!(text.contains("p99=900.0µs"));
    }

    #[test]
    fn prometheus_text_is_well_formed() {
        let text = prometheus_text(&sample_snapshot(), &verdicts());
        assert!(text.contains("# TYPE spinstreams_actor_items_in_total counter"));
        assert!(text.contains("spinstreams_actor_queue_depth{actor=\"slow\"} 31"));
        assert!(text.contains("spinstreams_actor_departure_rate{actor=\"src\"} 2500.000"));
        assert!(
            text.contains("spinstreams_sink_latency_ns{sink=\"slow\",quantile=\"0.99\"} 900000")
        );
        assert!(text.contains("spinstreams_drift_relative_error{actor=\"slow\"} 0.6000"));
        // Sources have no mailbox: no queue_depth series for src.
        assert!(!text.contains("spinstreams_actor_queue_depth{actor=\"src\"}"));
    }

    #[test]
    fn prometheus_text_has_help_for_every_type() {
        let text = prometheus_text(&sample_snapshot(), &verdicts());
        let mut families = 0;
        let mut prev: Option<&str> = None;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let name = rest.split(' ').next().unwrap();
                families += 1;
                // The immediately preceding line must be this family's HELP.
                let help = prev.unwrap_or("");
                assert!(
                    help.starts_with(&format!("# HELP {name} ")),
                    "missing/misplaced HELP for {name}: prev line {help:?}"
                );
            }
            prev = Some(line);
        }
        assert!(families >= 17, "expected >= 17 families, got {families}");
    }

    #[test]
    fn prometheus_text_exports_checkpoint_and_blocked_time_counters() {
        let mut snap = sample_snapshot();
        snap.actors[1].counters.panics = 2;
        let text = prometheus_text(&snap, &verdicts());
        assert!(text.contains("spinstreams_actor_busy_ns_total{actor=\"slow\"} 396000000"));
        assert!(text.contains("spinstreams_actor_blocked_ns_total{actor=\"slow\"} 12000000"));
        assert!(text.contains("spinstreams_actor_inbox_stall_ns_total{actor=\"slow\"} 7000000"));
        assert!(text.contains("spinstreams_actor_snapshots_total{actor=\"slow\"} 3"));
        assert!(text.contains("spinstreams_actor_snapshot_bytes_total{actor=\"slow\"} 96"));
        assert!(text.contains("spinstreams_actor_align_stall_ns_total{actor=\"slow\"} 2000000"));
        assert!(text.contains("spinstreams_actor_recoveries_total{actor=\"slow\"} 1"));
        assert!(text.contains("spinstreams_actor_replayed_total{actor=\"slow\"} 40"));
        assert!(text.contains("spinstreams_actor_replay_overflows_total{actor=\"slow\"} 0"));
        assert!(text.contains("spinstreams_last_complete_epoch 4"));
        assert!(text.contains("# TYPE spinstreams_actor_panics_total counter"));
        assert!(text.contains("spinstreams_actor_panics_total{actor=\"slow\"} 2"));
    }

    /// Every counter table entry reaches both exports and the schema
    /// validator: a DES snapshot's JSON-lines record carries the field,
    /// the Prometheus text carries the family with its HELP, TYPE and
    /// sample lines, and `validate_telemetry.py` checks the field.
    #[test]
    fn every_counter_is_exported_and_validated() {
        use spinstreams_runtime::operators::PassThrough;
        use spinstreams_runtime::{
            simulate_with_telemetry, ActorGraph, Behavior, CounterKind, Route, SimConfig,
            SourceConfig, TelemetryConfig,
        };
        let mut g = ActorGraph::new();
        let src = g.add_actor("src", Behavior::Source(SourceConfig::new(1_000.0, 20)));
        let sink = g.add_actor("sink", Behavior::worker(PassThrough));
        g.connect(src, Route::Unicast(sink));
        let (_, tel) =
            simulate_with_telemetry(g, &SimConfig::default(), &TelemetryConfig::default()).unwrap();
        let snap = tel.last_snapshot().expect("final snapshot");
        let json = snap.to_json();
        let prom = prometheus_text(snap, &[]);
        let script = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../scripts/validate_telemetry.py"
        ))
        .unwrap();
        let start = script.find("ACTOR_FIELDS = {").expect("ACTOR_FIELDS");
        let validated = &script[start..start + script[start..].find('}').unwrap()];
        for c in &COUNTERS {
            let name = c.name;
            assert!(
                json.contains(&format!("\"{name}\":")),
                "JSON lacks {name}: {json}"
            );
            let family = format!("spinstreams_actor_{name}_total");
            for line in [
                format!("# HELP {family} {}\n", c.help),
                format!("# TYPE {family} counter\n"),
                format!("{family}{{actor=\"sink\"}} "),
            ] {
                assert!(prom.contains(&line), "Prometheus text lacks {line:?}");
            }
            assert!(
                validated.contains(&format!("\"{name}\": int")),
                "validate_telemetry.py does not check {name}"
            );
            assert_eq!(
                name.ends_with("_ns"),
                c.kind == CounterKind::Nanos,
                "{name}"
            );
        }
    }

    #[test]
    fn tenant_label_rides_every_per_actor_family() {
        let mut snap = sample_snapshot();
        snap.tenant = Some("alpha".into());
        let text = prometheus_text(&snap, &verdicts());
        assert!(text.contains("spinstreams_actor_items_in_total{actor=\"src\",tenant=\"alpha\"}"));
        assert!(text.contains("spinstreams_actor_queue_depth{actor=\"slow\",tenant=\"alpha\"} 31"));
        assert!(text.contains("spinstreams_actor_utilization{actor=\"slow\",tenant=\"alpha\"}"));
        assert!(text.contains(
            "spinstreams_sink_latency_ns{sink=\"slow\",quantile=\"0.99\",tenant=\"alpha\"} 900000"
        ));
        assert!(text.contains("spinstreams_drift_relative_error{actor=\"slow\",tenant=\"alpha\"}"));
        // No tenant, no label — the single-tenant exposition is unchanged.
        let plain = prometheus_text(&sample_snapshot(), &verdicts());
        assert!(!plain.contains("tenant="));
    }

    #[test]
    fn epoch_gauge_absent_without_checkpointing() {
        let mut snap = sample_snapshot();
        snap.last_complete_epoch = None;
        let text = prometheus_text(&snap, &[]);
        assert!(!text.contains("spinstreams_last_complete_epoch"));
    }

    #[test]
    fn ascii_series_renders_rows_and_bars() {
        let labels = vec!["t1".to_string(), "t2".to_string()];
        let text = ascii_series(
            "Figure X",
            &labels,
            &[("Predicted", vec![10.0, 20.0]), ("Real", vec![11.0, 19.0])],
        );
        assert!(text.contains("== Figure X =="));
        assert!(text.contains("Predicted"));
        assert!(text.contains("t2"));
        // t2 carries the longest bar (40 hashes).
        assert!(text.contains(&"#".repeat(40)));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_series_rejected() {
        ascii_series("x", &["a".to_string()], &[("s", vec![1.0, 2.0])]);
    }

    #[test]
    fn empty_series_is_fine() {
        let text = ascii_series("empty", &[], &[("s", vec![])]);
        assert!(text.contains("== empty =="));
    }
}
