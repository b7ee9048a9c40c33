//! The three workloads that drive the serving path end to end on the
//! pool: XML text → `topology_from_xml` → `StreamService::submit` (§4.1
//! calibration, Algorithms 1–3, plan serialization) → `launch` → first
//! tuple at the sink → sustained run.
//!
//! * `chain_saturate` — a cheap registry-operator chain, source declared
//!   faster than the chain (closed loop under BAS);
//! * `windows_checkpoint` — keyed sliding windows with real state and
//!   epoch checkpoints;
//! * `chain_paced` — the `chain_saturate` topology with the source paced
//!   at [`PACED_RATE`] (open loop), telemetry on for sink latency.

use crate::measure::{allocations, median, quantile, usage, Tracer};
use crate::Outcome;
use crate::{layers, testbed};
use spinstreams_analysis::{
    eliminate_bottlenecks, evaluate_with_replicas, fuse, steady_state, AdmissionConfig,
};
use spinstreams_codegen::{build_actor_graph, serialize_plan, CodegenOptions, FusionGroup};
use spinstreams_core::{KeyDistribution, OperatorId, Topology};
use spinstreams_runtime::{
    assemble_spans, simulate, ActorReport, EngineConfig, Executor, ExecutorKind, LatencySnapshot,
    RunReport, SimConfig, TelemetryConfig, TelemetryReport,
};
use spinstreams_serve::{ServeConfig, StreamService, SubmitRequest, TenantState};
use spinstreams_xml::topology_from_xml;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Nominal source rate of `chain_paced`, tuples/s: fixed once, at roughly
/// a third of `chain_saturate`'s throughput on the 2-core reference host
/// (see README.md). Never re-derived from a measurement.
pub const PACED_RATE: f64 = 800_000.0;

/// Engine batch size for every pool workload.
const BATCH: usize = 64;

/// Cold set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Tuples per set-up launch (the set-up ends at the first sink tuple; the
/// rest of the launch only has to finish).
const SETUP_ITEMS: u64 = 20_000;

/// Tuples in each §4.1 calibration run: enough that one cold cache miss
/// does not swing an operator's measured service time.
const CALIBRATION_ITEMS: u64 = 100_000;

/// Admission capacity (cores). The saturating workloads declare their
/// sources faster than one pool worker can serve, on purpose, and on a
/// shared host calibrated service times swing up to 2x; the default
/// one-worker capacity would queue them, so every pool workload admits up
/// to this demand.
const ADMISSION_CORES: f64 = 16.0;

/// Launches per run: at least this many feed each median, and a run
/// that needs more than the cap is reported as failed.
const MIN_LAUNCHES: usize = 3;
const MAX_LAUNCHES: usize = 400;

/// Passes over the testbed slice a run completes, at least, and the share
/// of the measured run its evaluations take.
const SLICE_PASSES: usize = 4;
const SLICE_SHARE: f64 = 0.15;

/// Span sampling period of the traced runs' span launch.
const SPAN_SAMPLE: u64 = 1024;

/// Share of its nominal rate a paced source must keep for its launch to
/// be measured. The source re-bases its schedule after falling 50 ms
/// behind and stamps tuples at emission, so a late source would make
/// latency look lower than it is.
const MIN_PACE_SHARE: f64 = 0.99;

/// Which pool workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pipeline {
    ChainSaturate,
    WindowsCheckpoint,
    ChainPaced,
}

impl Pipeline {
    fn paced(self) -> bool {
        self == Pipeline::ChainPaced
    }

    /// Tuples per measured launch: long enough that start-up and drain are
    /// a small share of the launch, short enough for several launches per
    /// run.
    fn items(self) -> u64 {
        match self {
            Pipeline::ChainSaturate => 1_000_000,
            Pipeline::WindowsCheckpoint => 400_000,
            Pipeline::ChainPaced => 800_000,
        }
    }

    /// Declared source rate of the workload's topology, tuples/s. The
    /// saturating sources are declared faster than one pool worker can
    /// serve the chain, so BAS throttles them.
    fn source_rate(self) -> f64 {
        match self {
            Pipeline::ChainSaturate => 3.0e6,
            Pipeline::WindowsCheckpoint => 1.0e6,
            Pipeline::ChainPaced => PACED_RATE,
        }
    }

    /// Source rate of the launches that measure sink latency: the paced
    /// workload's own rate, or a fixed rate near a quarter (W1) or 40%
    /// (W2) of a saturating workload's throughput. Tail latency under
    /// saturation depends on how co-tenants share the host's cores (its
    /// p95 moved 510 → 770 µs from run to run), and so does median
    /// latency at half load (59–98 µs at 1.2 M/s on W1).
    fn latency_rate(self) -> f64 {
        match self {
            Pipeline::ChainSaturate => 0.6e6,
            Pipeline::WindowsCheckpoint => 0.3e6,
            Pipeline::ChainPaced => PACED_RATE,
        }
    }

    fn checkpoint_interval(self) -> Option<u64> {
        match self {
            Pipeline::WindowsCheckpoint => Some(100_000),
            _ => None,
        }
    }
}

/// Number of distinct source keys.
const CHAIN_KEYS: usize = 1024;
const WINDOW_KEYS: usize = 4096;

/// SplitMix64 finalizer: derives independent seeds from the run seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One operator of a workload topology: name, registry kind, declared
/// state class, declared input selectivity, factory parameters.
type Op = (
    &'static str,
    &'static str,
    &'static str,
    f64,
    &'static [(&'static str, f64)],
);

/// `chain_saturate` / `chain_paced`: a fusable stateless prefix, a
/// probabilistic 2-way split that rejoins (so the chain cannot fuse whole),
/// a keyed sum and a re-keying sink. Both branches keep keys and counts,
/// so sink counts do not depend on the split's random draws.
const CHAIN_OPS: &[Op] = &[
    ("filter", "filter", "stateless", 1.0, &[("threshold", 0.9)]),
    (
        "projection",
        "projection",
        "stateless",
        1.0,
        &[("keep", 3.0)],
    ),
    ("enricher", "enricher", "stateless", 1.0, &[]),
    (
        "split",
        "arithmetic-map",
        "stateless",
        1.0,
        &[("rounds", 2.0)],
    ),
    ("left", "identity-map", "stateless", 1.0, &[]),
    ("right", "projection", "stateless", 1.0, &[("keep", 2.0)]),
    (
        "sum",
        "keyed-sum",
        "stateful",
        4.0,
        &[("window", 32.0), ("slide", 4.0)],
    ),
    (
        "rekey",
        "key-router",
        "stateless",
        1.0,
        &[("num_keys", 64.0)],
    ),
];
const CHAIN_EDGES: &[(usize, usize, f64)] = &[
    (0, 1, 1.0),
    (1, 2, 1.0),
    (2, 3, 1.0),
    (3, 4, 1.0),
    (4, 5, 0.5),
    (4, 6, 0.5),
    (5, 7, 1.0),
    (6, 7, 1.0),
    (7, 8, 1.0),
];

/// `windows_checkpoint`: keyed sliding windows, then a monolithic top-k.
const WINDOW_OPS: &[Op] = &[
    (
        "quantile",
        "keyed-quantile",
        "stateful",
        1.0,
        &[("window", 32.0), ("slide", 1.0), ("quantile", 0.9)],
    ),
    (
        "stddev",
        "keyed-stddev",
        "stateful",
        1.0,
        &[("window", 32.0), ("slide", 1.0)],
    ),
    (
        "topk",
        "top-k",
        "stateful",
        10.0,
        &[("k", 10.0), ("window", 100.0), ("slide", 10.0)],
    ),
];
const WINDOW_EDGES: &[(usize, usize, f64)] = &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)];

/// The workload's topology, with its source declared at `rate`, as XML
/// text, plus the source key distribution.
///
/// Keyed stages are declared `stateful`, so Algorithm 2 keeps them whole:
/// calibrated service times swing up to 2x on a shared host, and a
/// partitionable stage near its fission threshold would flip between one
/// and two replicas from run to run. Every operator has `work_ns = 0`.
fn topology_xml(p: Pipeline, rate: f64) -> (String, KeyDistribution) {
    let (ops, edges, keys) = match p {
        Pipeline::ChainSaturate | Pipeline::ChainPaced => (
            CHAIN_OPS,
            CHAIN_EDGES,
            KeyDistribution::zipf(CHAIN_KEYS, 0.9),
        ),
        Pipeline::WindowsCheckpoint => (
            WINDOW_OPS,
            WINDOW_EDGES,
            KeyDistribution::zipf(WINDOW_KEYS, 0.8),
        ),
    };
    let mut x =
        String::from("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<topology name=\"bench\">\n");
    let _ = writeln!(
        x,
        "  <operator id=\"0\" name=\"src\" kind=\"source\" type=\"stateless\" service-time=\"{}\" time-unit=\"us\"/>",
        1e6 / rate
    );
    for (i, (name, kind, ty, sel_in, params)) in ops.iter().enumerate() {
        let _ = write!(
            x,
            "  <operator id=\"{}\" name=\"{name}\" kind=\"{kind}\" type=\"{ty}\" service-time=\"0.1\" time-unit=\"us\">",
            i + 1
        );
        if *sel_in != 1.0 {
            let _ = write!(x, "<selectivity input=\"{sel_in}\" output=\"1\"/>");
        }
        for (k, v) in params.iter().chain(&[("work_ns", 0.0)]) {
            let _ = write!(x, "<param name=\"{k}\" value=\"{v}\"/>");
        }
        x.push_str("</operator>\n");
    }
    for (a, b, pr) in edges {
        let _ = writeln!(x, "  <edge from=\"{a}\" to=\"{b}\" probability=\"{pr}\"/>");
    }
    x.push_str("</topology>\n");
    (x, keys)
}

/// The deployed plan's shape: replica vector and fusion groups, read from
/// the canonical plan text (annotation lines are left out on purpose:
/// calibrated service times differ run to run).
fn plan_shape(plan_text: &str) -> String {
    plan_text
        .lines()
        .filter(|l| l.starts_with("replicas=") || l.starts_with("fuse "))
        .collect::<Vec<_>>()
        .join("; ")
}

fn parse_list(s: &str) -> Vec<usize> {
    s.split(',').filter_map(|v| v.trim().parse().ok()).collect()
}

/// Replica vector and fusion groups back from the plan shape.
fn shape_parts(shape: &str) -> (Vec<usize>, Vec<FusionGroup>) {
    let mut replicas = Vec::new();
    let mut groups = Vec::new();
    for part in shape.split("; ") {
        if let Some(r) = part.strip_prefix("replicas=[") {
            replicas = parse_list(r.trim_end_matches(']'));
        } else if let Some(g) = part.strip_prefix("fuse front=") {
            let (front, rest) = g.split_once(' ').unwrap_or((g, ""));
            let members = rest.trim_start_matches("members=[").trim_end_matches(']');
            groups.push(FusionGroup {
                front: OperatorId(front.parse().unwrap_or(0)),
                members: parse_list(members).into_iter().map(OperatorId).collect(),
            });
        }
    }
    (replicas, groups)
}

/// Sink-side counts the optimized deployment must reproduce exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SinkCounts {
    items_in: u64,
    items_out: u64,
}

/// The topology's sink operator (no outgoing edge; these shapes have one).
fn sink_of(topo: &Topology) -> OperatorId {
    topo.operator_ids()
        .find(|&id| topo.out_edges(id).is_empty())
        .expect("a validated topology has a sink")
}

fn sink_counts(a: &ActorReport) -> SinkCounts {
    SinkCounts {
        items_in: a.items_in,
        items_out: a.items_out,
    }
}

/// Reference counts: the *unoptimized* topology on the virtual-time
/// executor with the same source seed and item count.
fn reference(
    topo: &Topology,
    keys: &KeyDistribution,
    items: u64,
    seed: u64,
) -> Result<SinkCounts, String> {
    let opts = CodegenOptions {
        items,
        seed,
        ..CodegenOptions::default()
    };
    let plan =
        build_actor_graph(topo, Some(keys.clone()), &[], &[], &opts).map_err(|e| e.to_string())?;
    let sim = SimConfig {
        seed,
        intrinsic_time: false,
        ..SimConfig::default()
    };
    let report = simulate(plan.graph, &sim).map_err(|e| e.to_string())?;
    Ok(sink_counts(
        report.actor(plan.departure_actor[sink_of(topo).0]),
    ))
}

/// The launched deployment's sink actor, found by the operator's name.
fn deployed_sink<'r>(report: &'r RunReport, name: &str) -> Option<&'r ActorReport> {
    report.actors.iter().find(|a| a.name == name)
}

/// Per-run state shared by the set-up and measure phases.
struct Ctx {
    p: Pipeline,
    xml: String,
    keys: KeyDistribution,
    engine: EngineConfig,
    sink_name: String,
    shape: Option<String>,
    out: Outcome,
}

impl Ctx {
    fn serve_config(&self) -> ServeConfig {
        let mut c = ServeConfig::new(self.engine.clone());
        c.calibration_items = CALIBRATION_ITEMS;
        c.admission = AdmissionConfig {
            capacity_cores: ADMISSION_CORES,
            headroom: 0.9,
        };
        c
    }

    fn request(
        &self,
        name: &str,
        topo: Topology,
        items: u64,
        telemetry: Option<TelemetryConfig>,
    ) -> SubmitRequest {
        let mut req = SubmitRequest::new(name, topo)
            .with_source_keys(self.keys.clone())
            .with_items(items);
        if let Some(t) = telemetry {
            req = req.with_telemetry(t);
        }
        req
    }

    /// The main topology's nominal source rate, if its source is paced.
    fn pace(&self) -> Option<f64> {
        self.p.paced().then_some(PACED_RATE)
    }

    fn fail(&mut self, why: String) {
        self.out.failures.push(why);
    }

    /// Submits and checks the receipt: admitted, expected cache outcome,
    /// and the same plan shape as every earlier submission of this run.
    fn submit(&mut self, svc: &mut StreamService, req: SubmitRequest, expect_hit: bool) -> bool {
        let name = req.name.clone();
        match svc.submit(req) {
            Err(e) => {
                self.fail(format!("submit {name}: {e}"));
                false
            }
            Ok(r) => {
                let mut ok = true;
                if r.state != TenantState::Admitted || !r.verdict.is_admit() {
                    self.fail(format!("submit {name}: admission verdict {:?}", r.verdict));
                    ok = false;
                }
                if r.cache_hit != expect_hit {
                    self.fail(format!(
                        "submit {name}: cache_hit={} expected {expect_hit}",
                        r.cache_hit
                    ));
                    ok = false;
                }
                let shape = plan_shape(svc.plan_text(&name).unwrap_or(""));
                match &self.shape {
                    None => self.shape = Some(shape),
                    Some(s) if *s != shape => {
                        self.fail(format!("plan shape changed: {s:?} then {shape:?}"));
                        ok = false;
                    }
                    Some(_) => {}
                }
                ok
            }
        }
    }

    /// Launches the admitted tenant and checks its run against the
    /// reference counts. A launch whose source was paced at `pace` but
    /// fell below [`MIN_PACE_SHARE`] of it comes back marked late.
    fn launch(
        &mut self,
        svc: &mut StreamService,
        expect: SinkCounts,
        pace: Option<f64>,
    ) -> Option<Launched> {
        let t_launch = Instant::now();
        let mut runs = match svc.launch() {
            Ok(r) => r,
            Err(e) => {
                self.fail(format!("launch: {e}"));
                return None;
            }
        };
        if runs.len() != 1 {
            self.fail(format!("launch ran {} tenants, expected 1", runs.len()));
            return None;
        }
        let run = runs.pop().expect("one run");
        let report = run.report;
        let got = deployed_sink(&report, &self.sink_name).map(sink_counts);
        if got != Some(expect) {
            self.fail(format!(
                "sink counts {got:?} differ from the reference {expect:?}"
            ));
            return None;
        }
        if report.total_dropped() > 0
            || report.total_dead_letters() > 0
            || report.total_panics() > 0
        {
            self.fail(format!(
                "run lost tuples: dropped {} dead letters {} panics {}",
                report.total_dropped(),
                report.total_dead_letters(),
                report.total_panics()
            ));
            return None;
        }
        let late = pace.is_some_and(|nominal| {
            report.source_throughput().unwrap_or(0.0) < MIN_PACE_SHARE * nominal
        });
        let interval = self.engine.checkpoint_interval.unwrap_or(u64::MAX);
        if ingested(&report) >= 2 * interval
            && report.actors.iter().map(|a| a.snapshots).sum::<u64>() == 0
        {
            self.fail("checkpointing on but no snapshot was taken".into());
            return None;
        }
        Some(Launched {
            report,
            telemetry: run.telemetry,
            launched_at: t_launch,
            late,
        })
    }
}

/// A checked launch.
struct Launched {
    report: RunReport,
    telemetry: Option<TelemetryReport>,
    /// When `launch` was called.
    launched_at: Instant,
    /// The paced source fell below [`MIN_PACE_SHARE`] of its rate.
    late: bool,
}

/// One cold set-up's timeline.
struct Setup {
    total: Duration,
    parse: Duration,
    submit: Duration,
    launch: Duration,
    first_tuple: Duration,
    hit: Duration,
}

impl Setup {
    fn unattributed(&self) -> Duration {
        self.total
            .saturating_sub(self.parse + self.submit + self.launch + self.first_tuple)
    }
}

/// XML text → parse → fresh service → cold submit → launch → first tuple
/// at the sink. Spans go under one root per set-up.
fn setup_once(cx: &mut Ctx, expect: SinkCounts, tracer: &mut Tracer) -> Option<Setup> {
    let t0 = Instant::now();
    let topo = match topology_from_xml(&cx.xml) {
        Ok(t) => t,
        Err(e) => {
            cx.fail(format!("topology_from_xml: {e}"));
            return None;
        }
    };
    let t_parsed = Instant::now();
    let mut svc = StreamService::new(cx.serve_config());
    let req = cx.request("setup", topo.clone(), SETUP_ITEMS, None);
    let t_submit = Instant::now();
    if !cx.submit(&mut svc, req, false) {
        return None;
    }
    let t_submitted = Instant::now();
    // A 20 000-tuple launch is too short to measure its source's rate.
    let Launched {
        report,
        launched_at: t_launch,
        ..
    } = cx.launch(&mut svc, expect, None)?;
    let sink = deployed_sink(&report, &cx.sink_name)?;
    if sink.first_out_ns == u64::MAX {
        cx.fail("sink produced no tuple".into());
        return None;
    }
    let started = report.started_at;
    let first = started + Duration::from_nanos(sink.first_out_ns);
    // An identical resubmission must be served from the plan cache.
    let t_hit = Instant::now();
    let hit_ok = cx.submit(
        &mut svc,
        cx.request("setup-hit", topo, SETUP_ITEMS, None),
        true,
    );
    let hit = t_hit.elapsed();
    if !hit_ok {
        return None;
    }
    let root = tracer.record("setup", None, t0, first);
    tracer.record("xml.parse", root, t0, t_parsed);
    tracer.record("serve.submit", root, t_submit, t_submitted);
    tracer.record("serve.launch", root, t_launch, started);
    tracer.record("runtime.first_tuple", root, started, first);
    tracer.record("serve.submit_hit", None, t_hit, t_hit + hit);
    Some(Setup {
        total: first - t0,
        parse: t_parsed - t0,
        submit: t_submitted - t_submit,
        launch: started.saturating_duration_since(t_launch),
        first_tuple: first - started,
        hit,
    })
}

/// The sink's latency summary from a run's final telemetry snapshot.
fn sink_latency(tel: &TelemetryReport) -> Option<LatencySnapshot> {
    let snap = tel.last_snapshot()?;
    let l = snap.latencies.iter().max_by_key(|l| l.latency.count)?;
    (l.latency.count > 0).then_some(l.latency)
}

/// Tuples the source ingested in a run.
pub fn ingested(report: &RunReport) -> u64 {
    report
        .actors
        .iter()
        .filter(|a| a.items_in == 0)
        .map(|a| a.items_out)
        .sum()
}

fn telemetry(span_sample: u64) -> TelemetryConfig {
    TelemetryConfig {
        span_sample,
        trace_capacity: 1 << 16,
        ..TelemetryConfig::default()
    }
}

pub fn run(p: Pipeline, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let (xml, keys) = topology_xml(p, p.source_rate());
    let engine = EngineConfig {
        executor: ExecutorKind::Pool { workers: 1 },
        batch_size: BATCH,
        seed: mix(seed, 1),
        checkpoint_interval: p.checkpoint_interval(),
        ..EngineConfig::default()
    };
    let parsed = match topology_from_xml(&xml) {
        Ok(t) => t,
        Err(e) => return Outcome::failed(format!("topology_from_xml: {e}")),
    };
    let sink_name = parsed.operator(sink_of(&parsed)).name.clone();
    let mut cx = Ctx {
        p,
        xml,
        keys,
        engine,
        sink_name,
        shape: None,
        out: Outcome::default(),
    };
    let items = p.items();
    let ref_main = match reference(&parsed, &cx.keys, items, cx.engine.seed) {
        Ok(r) => r,
        Err(e) => return Outcome::failed(format!("reference run: {e}")),
    };
    let ref_setup = match reference(&parsed, &cx.keys, SETUP_ITEMS, cx.engine.seed) {
        Ok(r) => r,
        Err(e) => return Outcome::failed(format!("reference run: {e}")),
    };
    let _ = writeln!(
        cx.out.detail,
        "reference (virtual time, unoptimized): setup {ref_setup:?}, main {ref_main:?}"
    );

    // --- Set-up: several cold starts, median reported ---------------------
    let mut tracer = Tracer::new(trace, seed);
    let mut setups = Vec::new();
    // Repetition 0 is an untimed warm-up: the process's first-touch costs
    // (page faults, cold caches) are not what a long-lived service pays.
    for rep in 0..=SETUP_REPS {
        cx.out.attempted += SETUP_ITEMS;
        let mut untraced = Tracer::new(false, seed);
        let t = if rep == 0 { &mut untraced } else { &mut tracer };
        match setup_once(&mut cx, ref_setup, t) {
            Some(s) if rep > 0 => setups.push(s),
            Some(_) => {}
            None => cx.out.failed += SETUP_ITEMS,
        }
    }
    if setups.len() < SETUP_REPS {
        return cx.out;
    }
    setups.sort_by_key(|s| s.total);
    let mid = &setups[SETUP_REPS / 2];

    // --- Measure: identical resubmissions (cache hits) + launches ----------
    let mut svc = StreamService::new(cx.serve_config());
    let topo = parsed.clone();
    let paced = p.paced();
    // Saturating workloads alternate untraced launches (throughput, CPU)
    // with telemetry-on launches of the same topology paced at
    // `latency_rate` (sink latency), so slow stretches of the host hit both
    // alike. The paced workload measures everything on every launch.
    let lat_topo = match topology_from_xml(&topology_xml(p, p.latency_rate()).0) {
        Ok(t) => t,
        Err(e) => return Outcome::failed(format!("topology_from_xml: {e}")),
    };
    let lat_pace = Some(p.latency_rate());
    let mut warm = vec![(topo.clone(), cx.pace())];
    if !paced {
        warm.push((lat_topo.clone(), lat_pace));
    }
    for (i, (t, pace)) in warm.into_iter().enumerate() {
        cx.out.attempted += items;
        let req = cx.request(&format!("warm{i}"), t, items, None);
        if !cx.submit(&mut svc, req, false) || cx.launch(&mut svc, ref_main, pace).is_none() {
            cx.out.failed += items;
            return cx.out;
        }
    }
    // The testbed slice's evaluations are spread over the whole run, after
    // each launch until they have taken `SLICE_SHARE` of it, so each
    // topology's fastest one is likely to fall in a quiet stretch of the
    // host.
    let mut slice = (!trace).then(|| testbed::Passes::slice(seed));
    let measure_start = Instant::now();
    let deadline = measure_start + Duration::from_secs_f64(seconds);
    let mut rates = Vec::new();
    let mut latencies: Vec<LatencySnapshot> = Vec::new();
    let mut cpu_per_tuple = Vec::new();
    let mut last_report = None;
    let mut late_launches = 0usize;
    for i in 1.. {
        let now = Instant::now();
        if now >= deadline && rates.len() >= MIN_LAUNCHES && latencies.len() >= MIN_LAUNCHES {
            break;
        }
        if i > MAX_LAUNCHES {
            cx.fail(format!(
                "no {MIN_LAUNCHES} usable launches within {MAX_LAUNCHES}"
            ));
            break;
        }
        let latency_launch = paced || i % 2 == 0;
        let (t, pace) = if latency_launch {
            (lat_topo.clone(), lat_pace)
        } else {
            (topo.clone(), None)
        };
        let req = cx.request(
            &format!("m{i}"),
            t,
            items,
            latency_launch.then(|| telemetry(0)),
        );
        cx.out.attempted += items;
        if !cx.submit(&mut svc, req, true) {
            cx.out.failed += items;
            break;
        }
        let cpu0 = usage().cpu;
        let Some(Launched {
            report,
            telemetry: tel,
            late,
            ..
        }) = cx.launch(&mut svc, ref_main, pace)
        else {
            cx.out.failed += items;
            break;
        };
        if late {
            // Stalls on the shared host (a descheduled source, a slow
            // snapshot) now and then cost a paced launch one re-base; such
            // a launch is repeated rather than measured.
            late_launches += 1;
            continue;
        }
        let cpu1 = usage().cpu;
        if paced || !latency_launch {
            rates.push(report.source_throughput().unwrap_or(0.0));
            cpu_per_tuple.push((cpu1 - cpu0).as_nanos() as f64 / ingested(&report).max(1) as f64);
        }
        latencies.extend(tel.as_ref().and_then(sink_latency));
        last_report = Some(report);
        if let Some(slice) = &mut slice {
            while slice.spent() < measure_start.elapsed().mul_f64(SLICE_SHARE) {
                slice.step(&mut tracer);
            }
        }
    }
    if late_launches > latencies.len() {
        cx.fail(format!(
            "paced source fell below {MIN_PACE_SHARE} of its rate on {late_launches} launches, \
             more than the {} it kept pace on",
            latencies.len()
        ));
    }
    if !cx.out.failures.is_empty() {
        return cx.out;
    }
    // Co-tenants on a shared host slow single launches by up to 1.5x in
    // bursts, so throughput and CPU cost take the quartile of their
    // launches nearest the undisturbed host (README.md).
    let throughput = quantile(&rates, 0.75);
    let _ = writeln!(
        cx.out.detail,
        "launches: {} throughput, {} latency, {late_launches} late and repeated; plan shape: {}",
        rates.len(),
        latencies.len(),
        cx.shape.clone().unwrap_or_default()
    );
    let _ = writeln!(
        cx.out.detail,
        "throughput per launch (tuples/s): {:?}",
        rates.iter().map(|r| r.round()).collect::<Vec<_>>()
    );
    // Sink latency (µs): median over launches of each launch's p50, p95
    // and p99. Under saturation a disturbed launch reads *lower* latency
    // (a slowed source leaves the queues emptier), so no quartile is
    // nearer the undisturbed host than the median.
    let lat = |f: fn(&LatencySnapshot) -> u64| {
        median(
            &latencies
                .iter()
                .map(|l| f(l) as f64 / 1e3)
                .collect::<Vec<_>>(),
        )
    };
    let (p50, p95, p99) = (lat(|l| l.p50_ns), lat(|l| l.p95_ns), lat(|l| l.p99_ns));
    let _ = writeln!(
        cx.out.detail,
        "sink latency (us): p50 {p50:.1} p95 {p95:.1} p99 {p99:.1}; {} samples over {} launches",
        latencies.iter().map(|l| l.count).sum::<u64>(),
        latencies.len()
    );

    if let Some(mut slice) = slice {
        // The §5 testbed slice gives this workload its `testbed_s` and
        // `model_error_pct` (README.md: every workload reports every
        // end-to-end metric).
        slice.complete(SLICE_PASSES, &mut tracer);
        cx.out.failures.extend_from_slice(slice.failures());
        let _ = writeln!(
            cx.out.detail,
            "testbed slice: {:.3} s, {} passes, mean error {:.4}%",
            slice.wall_s(),
            slice.rounds(),
            slice.mean_error_pct()
        );
        let m = &mut cx.out.metrics;
        m.set("throughput_tps", throughput);
        m.set("testbed_s", slice.wall_s());
        m.set("model_error_pct", slice.mean_error_pct());
        m.set("latency_p50_us", p50);
        m.set("setup_s", mid.total.as_secs_f64());
        m.set("cpu_ns_per_tuple", quantile(&cpu_per_tuple, 0.25));
        return cx.out;
    }

    // --- Traced run: per-layer metrics -------------------------------------
    let report = last_report.expect("at least one measured launch");
    let m = &mut cx.out.metrics;
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    m.set("xml.parse_ms", ms(mid.parse));
    m.set("serve.submit_miss_ms", ms(mid.submit));
    m.set(
        "serve.submit_hit_us",
        median(
            &setups
                .iter()
                .map(|s| s.hit.as_secs_f64() * 1e6)
                .collect::<Vec<_>>(),
        ),
    );
    m.set("serve.launch_ms", ms(mid.launch));
    m.set("runtime.first_tuple_ms", ms(mid.first_tuple));
    m.set("setup.unattributed_ms", ms(mid.unattributed()));
    m.set("setup.traced_s", mid.total.as_secs_f64());
    m.set("latency.p95_us", p95);
    m.set("runtime.late_launches", late_launches as f64);
    layer_breakdown(
        &mut cx,
        &parsed,
        throughput,
        &report,
        &mut svc,
        ref_main,
        &mut tracer,
    );
    for (kind, ns) in layers::kernel_costs(&parsed) {
        cx.out
            .metrics
            .set(&format!("operators.{kind}.ns_per_tuple"), ns);
    }
    let _ = write!(cx.out.detail, "{}", tracer.to_jsonl());
    cx.out
}

/// The traced run's per-layer numbers beyond the set-up timeline: the
/// optimizer's steps re-run through each crate's public functions, the
/// engine's own counters, allocation and tracing overheads, and the
/// kernel-only baselines.
fn layer_breakdown(
    cx: &mut Ctx,
    parsed: &Topology,
    throughput: f64,
    report: &RunReport,
    svc: &mut StreamService,
    expect: SinkCounts,
    tracer: &mut Tracer,
) {
    let cfg = cx.serve_config();
    let keys = cx.keys.clone();
    let items = cx.p.items();
    let now = Instant::now();
    let root = tracer.record("layers", None, now, now);

    // tool → analysis → codegen, the same steps `submit` runs on a miss.
    let t = Instant::now();
    let calibrated = spinstreams_tool::calibrate(
        parsed,
        Some(&keys),
        cfg.calibration_items,
        cfg.calibration_min_samples,
        &Executor::Threads(cx.engine.clone()),
    );
    let calibrate = t.elapsed();
    tracer.record("tool.calibrate", root, t, t + calibrate);
    let calibrated = match calibrated {
        Ok(c) => c,
        Err(e) => {
            cx.fail(format!("calibrate: {e}"));
            return;
        }
    };
    let (replicas, groups) = shape_parts(cx.shape.as_deref().unwrap_or(""));
    let micros = |reps: usize, f: &mut dyn FnMut()| {
        let mut v = Vec::with_capacity(reps);
        for _ in 0..reps {
            let t = Instant::now();
            f();
            v.push(t.elapsed().as_secs_f64() * 1e6);
        }
        median(&v)
    };
    let alg1 = tracer.time("analysis.alg1", root, || {
        micros(21, &mut || {
            std::hint::black_box(steady_state(std::hint::black_box(&calibrated)));
        })
    });
    let alg2 = tracer.time("analysis.alg2", root, || {
        micros(21, &mut || {
            std::hint::black_box(eliminate_bottlenecks(std::hint::black_box(&calibrated)));
        })
    });
    let alg3 = tracer.time("analysis.alg3", root, || {
        micros(21, &mut || {
            for g in &groups {
                let _ = std::hint::black_box(fuse(&calibrated, &g.members));
            }
        })
    });
    let predicted = evaluate_with_replicas(&calibrated, &replicas)
        .throughput
        .items_per_sec();
    let opts = CodegenOptions {
        items,
        seed: cx.engine.seed,
        ..CodegenOptions::default()
    };
    let t = Instant::now();
    let actors = build_actor_graph(&calibrated, Some(keys.clone()), &replicas, &groups, &opts)
        .map_or(0, |b| b.num_actors);
    let build = t.elapsed();
    tracer.record("codegen.build", root, t, t + build);
    let serialize = tracer.time("codegen.serialize", root, || {
        micros(21, &mut || {
            std::hint::black_box(serialize_plan(&calibrated, &replicas, &groups, &opts));
        })
    });

    // Engine counters of the last measured launch.
    let wall = report.wall.as_secs_f64();
    let source = report.actors.iter().find(|a| a.items_in == 0);
    let ingested_n = ingested(report).max(1) as f64;
    let workers: Vec<&ActorReport> = report.actors.iter().filter(|a| a.items_in > 0).collect();
    let hops = workers.iter().map(|a| a.items_in).sum::<u64>() as f64 / ingested_n;
    let busy = |a: &ActorReport| a.busy.as_secs_f64() / wall;
    let blocked = |a: &ActorReport| a.blocked.as_secs_f64() / wall;
    for a in &report.actors {
        let _ = writeln!(
            cx.out.detail,
            "actor {:<14} in {:>9} out {:>9} busy {:.3} blocked {:.3}",
            a.name,
            a.items_in,
            a.items_out,
            busy(a),
            blocked(a)
        );
    }
    let sink = deployed_sink(report, &cx.sink_name);

    // Allocations per tuple: the launch-only allocation count at N and 2N
    // tuples; start-up allocations cancel in the difference.
    let n = (items / 4).max(10_000);
    let mut allocs = [0u64; 2];
    for (slot, count) in [n, 2 * n].into_iter().enumerate() {
        let topo = parsed.clone();
        let req = cx.request(&format!("alloc{slot}"), topo, count, None);
        if !cx.submit(svc, req, false) {
            return;
        }
        let expect_n = match reference(parsed, &keys, count, cx.engine.seed) {
            Ok(r) => r,
            Err(e) => {
                cx.fail(format!("reference: {e}"));
                return;
            }
        };
        let a0 = allocations();
        if cx.launch(svc, expect_n, cx.pace()).is_none() {
            return;
        }
        allocs[slot] = allocations() - a0;
    }
    let allocs_per_tuple = (allocs[1] as f64 - allocs[0] as f64) / n as f64;

    // Telemetry overhead, and span sojourns, from alternating launches.
    let mut traced = Vec::new();
    let mut plain = Vec::new();
    let mut sojourn: Vec<(String, f64)> = Vec::new();
    for round in 0..4 {
        let spans_on = round % 2 == 1;
        let tel = if cx.p.paced() || spans_on {
            Some(telemetry(if spans_on { SPAN_SAMPLE } else { 0 }))
        } else {
            None
        };
        let req = cx.request(&format!("tel{round}"), parsed.clone(), items, tel);
        if !cx.submit(svc, req, true) {
            return;
        }
        let Some(Launched {
            report: rep,
            telemetry: tel,
            ..
        }) = cx.launch(svc, expect, cx.pace())
        else {
            return;
        };
        // Paced: throughput is pinned by the pace, so compare sink p50.
        let value = if cx.p.paced() {
            tel.as_ref()
                .and_then(sink_latency)
                .map_or(0.0, |l| l.p50_ns as f64)
        } else {
            rep.source_throughput().unwrap_or(0.0)
        };
        if spans_on {
            traced.push(value);
            if let Some(tel) = &tel {
                sojourn = mean_sojourn(&rep, tel);
            }
        } else {
            plain.push(value);
        }
    }
    // As a cost (>= 1 when tracing costs something): throughput lost, or
    // latency added on the paced workload.
    let overhead_ratio = if cx.p.paced() {
        median(&traced) / median(&plain)
    } else {
        median(&plain) / median(&traced)
    };
    for (name, us) in &sojourn {
        let _ = writeln!(cx.out.detail, "span sojourn {name:<14} {us:.2} us");
    }
    let sink_sojourn = sojourn
        .iter()
        .find(|(n, _)| *n == cx.sink_name)
        .map_or(0.0, |s| s.1);
    let max_sojourn = sojourn.iter().map(|s| s.1).fold(0.0, f64::max);

    // Kernel-only baseline: the whole graph in one loop, no runtime.
    let bare = tracer.time("operators.bare_chain", root, || {
        layers::bare_chain_ns(parsed, &keys, cx.engine.seed)
    });
    tracer.close(root);

    let ckpt = |f: fn(&ActorReport) -> f64| report.actors.iter().map(f).sum::<f64>();
    let m = &mut cx.out.metrics;
    m.set("tool.calibrate_ms", calibrate.as_secs_f64() * 1e3);
    m.set("analysis.alg1_us", alg1);
    m.set("analysis.alg2_us", alg2);
    m.set("analysis.alg3_us", alg3);
    m.set(
        "analysis.replicas_added",
        replicas.iter().map(|r| r - 1).sum::<usize>() as f64,
    );
    m.set(
        "analysis.operators_fused",
        groups.iter().map(|g| g.members.len()).sum::<usize>() as f64,
    );
    m.set("analysis.predicted_over_measured", predicted / throughput);
    m.set("codegen.build_ms", build.as_secs_f64() * 1e3);
    m.set("codegen.serialize_us", serialize);
    m.set("codegen.actors", actors as f64);
    m.set("runtime.hops_per_tuple", hops);
    m.set(
        "runtime.busy_frac.max",
        workers.iter().map(|a| busy(a)).fold(0.0, f64::max),
    );
    m.set("runtime.busy_frac.sink", sink.map_or(0.0, busy));
    m.set(
        "runtime.blocked_frac.max",
        workers.iter().map(|a| blocked(a)).fold(0.0, f64::max),
    );
    m.set("runtime.source_blocked_frac", source.map_or(0.0, blocked));
    m.set("runtime.allocs_per_tuple", allocs_per_tuple);
    if !cx.p.paced() {
        // The paced rate says nothing about per-tuple cost.
        m.set("runtime.overhead_ns_per_tuple", 1e9 / throughput - bare);
    }
    m.set("runtime.checkpoint.snapshots", ckpt(|a| a.snapshots as f64));
    m.set(
        "runtime.checkpoint.snapshot_bytes",
        ckpt(|a| a.snapshot_bytes as f64),
    );
    m.set(
        "runtime.checkpoint.align_stall_ms",
        ckpt(|a| a.align_stall.as_secs_f64() * 1e3),
    );
    m.set("runtime.telemetry.overhead_ratio", overhead_ratio);
    m.set("runtime.span.sojourn_us.sink", sink_sojourn);
    m.set("runtime.span.sojourn_us.max", max_sojourn);
    m.set("operators.bare_chain_ns_per_tuple", bare);
}

/// Mean span sojourn per actor (µs), from a traced launch.
fn mean_sojourn(report: &RunReport, tel: &TelemetryReport) -> Vec<(String, f64)> {
    let mut sums = vec![(0u64, 0u64); report.actors.len()];
    for path in assemble_spans(&tel.trace) {
        for hop in path.hops {
            if let Some(s) = sums.get_mut(hop.actor.0) {
                s.0 += hop.hop_ns;
                s.1 += 1;
            }
        }
    }
    report
        .actors
        .iter()
        .zip(sums)
        .filter(|(_, (_, n))| *n > 0)
        .map(|(a, (sum, n))| (a.name.clone(), sum as f64 / n as f64 / 1e3))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_topology_parses_and_has_one_sink() {
        for p in [
            Pipeline::ChainSaturate,
            Pipeline::WindowsCheckpoint,
            Pipeline::ChainPaced,
        ] {
            let (xml, _) = topology_xml(p, p.source_rate());
            let t = topology_from_xml(&xml).expect("benchmark XML parses");
            let sinks = t
                .operator_ids()
                .filter(|&id| t.out_edges(id).is_empty())
                .count();
            assert_eq!(sinks, 1);
        }
    }

    #[test]
    fn plan_shape_roundtrips() {
        let text = "topology v1 ops=3\nop 0 ...\nreplicas=[1,2,1]\nfuse front=1 members=[1,2]\nopts items=5\n";
        let shape = plan_shape(text);
        assert_eq!(shape, "replicas=[1,2,1]; fuse front=1 members=[1,2]");
        let (r, g) = shape_parts(&shape);
        assert_eq!(r, vec![1, 2, 1]);
        assert_eq!(g[0].front, OperatorId(1));
        assert_eq!(g[0].members.len(), 2);
    }
}
