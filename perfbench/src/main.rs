//! The SpinStreams benchmark binary. `perfbench/run.py` builds and runs
//! it; see `perfbench/README.md` for the workloads and metrics.
//!
//! ```text
//! spinstreams-perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end set, with `--trace 1` the per-layer set.
//! The exit code is non-zero when any correctness check failed.

mod layers;
mod measure;
mod pipeline;
mod testbed;

use pipeline::Pipeline;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: measure::CountingAlloc = measure::CountingAlloc;

/// End-to-end metrics, reported by every workload from untraced runs.
const END_TO_END: &[(&str, &str)] = &[
    ("throughput_tps", "tuples/s"),
    ("latency_p50_us", "us"),
    ("setup_s", "s"),
    ("cpu_ns_per_tuple", "ns"),
    ("testbed_s", "s"),
    ("model_error_pct", "%"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by the traced run (0 where a layer does
/// not take part in the workload).
const PER_LAYER: &[(&str, &str)] = &[
    ("xml.parse_ms", "ms"),
    ("serve.submit_miss_ms", "ms"),
    ("serve.submit_hit_us", "us"),
    ("serve.launch_ms", "ms"),
    ("runtime.first_tuple_ms", "ms"),
    ("setup.unattributed_ms", "ms"),
    ("setup.traced_s", "s"),
    ("latency.p95_us", "us"),
    ("tool.calibrate_ms", "ms"),
    ("analysis.alg1_us", "us"),
    ("analysis.alg2_us", "us"),
    ("analysis.alg3_us", "us"),
    ("analysis.replicas_added", "count"),
    ("analysis.operators_fused", "count"),
    ("analysis.predicted_over_measured", "ratio"),
    ("analysis.fission_error_pct", "%"),
    ("codegen.build_ms", "ms"),
    ("codegen.serialize_us", "us"),
    ("codegen.actors", "count"),
    ("runtime.hops_per_tuple", "count"),
    ("runtime.busy_frac.max", "ratio"),
    ("runtime.busy_frac.sink", "ratio"),
    ("runtime.blocked_frac.max", "ratio"),
    ("runtime.source_blocked_frac", "ratio"),
    ("runtime.allocs_per_tuple", "count"),
    ("runtime.late_launches", "count"),
    ("runtime.overhead_ns_per_tuple", "ns"),
    ("runtime.checkpoint.snapshots", "count"),
    ("runtime.checkpoint.snapshot_bytes", "bytes"),
    ("runtime.checkpoint.align_stall_ms", "ms"),
    ("runtime.telemetry.overhead_ratio", "ratio"),
    ("runtime.span.sojourn_us.sink", "us"),
    ("runtime.span.sojourn_us.max", "us"),
    ("runtime.sim.items_per_s", "tuples/s"),
    ("operators.filter.ns_per_tuple", "ns"),
    ("operators.projection.ns_per_tuple", "ns"),
    ("operators.enricher.ns_per_tuple", "ns"),
    ("operators.arithmetic-map.ns_per_tuple", "ns"),
    ("operators.key-router.ns_per_tuple", "ns"),
    ("operators.identity-map.ns_per_tuple", "ns"),
    ("operators.keyed-sum.ns_per_tuple", "ns"),
    ("operators.keyed-quantile.ns_per_tuple", "ns"),
    ("operators.keyed-stddev.ns_per_tuple", "ns"),
    ("operators.top-k.ns_per_tuple", "ns"),
    ("operators.bare_chain_ns_per_tuple", "ns"),
];

/// Named metric values a workload measured.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.retain(|(n, _)| n != name);
        self.0.push((name.to_string(), value));
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|m| m.1)
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (tuples, or testbed topologies).
    pub attempted: u64,
    /// Operations that failed a correctness check.
    pub failed: u64,
    /// Why checks failed.
    pub failures: Vec<String>,
    pub metrics: Metrics,
    /// Human-readable lines printed before the result.
    pub detail: String,
}

impl Outcome {
    pub fn failed(why: String) -> Self {
        Outcome {
            attempted: 1,
            failed: 1,
            failures: vec![why],
            ..Outcome::default()
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|_| format!("bad value {value:?} for {flag}"))?
            }
            "--trace" => args.trace = value == "1",
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 120.0) {
        return Err(format!("--seconds {} out of range (0, 120]", args.seconds));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let mut out = match args.workload.as_str() {
        "chain_saturate" => {
            pipeline::run(Pipeline::ChainSaturate, args.seed, args.seconds, args.trace)
        }
        "windows_checkpoint" => pipeline::run(
            Pipeline::WindowsCheckpoint,
            args.seed,
            args.seconds,
            args.trace,
        ),
        "chain_paced" => pipeline::run(Pipeline::ChainPaced, args.seed, args.seconds, args.trace),
        "testbed_des" => testbed::run(args.seed, args.seconds, args.trace),
        other => {
            eprintln!("error: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    out.metrics.set("peak_rss_mb", measure::usage().peak_rss_mb);

    // `run.py` prints the host fingerprint before this line.
    println!(
        "{{\"workload\":\"{}\",\"seed\":{},\"trace\":{}}}",
        args.workload, args.seed, args.trace
    );
    print!("{}", out.detail);
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::new();
    for (name, unit) in table {
        let value = match out.metrics.get(name) {
            Some(v) if v.is_finite() => v,
            Some(_) | None if args.trace || !out.failures.is_empty() => 0.0,
            _ => {
                out.failures
                    .push(format!("metric {name} missing or not finite"));
                0.0
            }
        };
        fields.push(format!(
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    }
    for f in &out.failures {
        println!("check failed: {f}");
    }
    let correct = out.failures.is_empty() && out.failed == 0;
    if !correct && out.failed == 0 {
        // A failed check with no per-operation attribution fails the run.
        out.failed = out.attempted.max(1);
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.attempted.max(1),
        out.failed,
        fields.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
