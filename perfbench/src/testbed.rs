//! `testbed_des`: the §5 testbed on the virtual-time executor. Each of
//! the paper's 50 Algorithm 5 topologies (generation is set-up, not timed
//! in `testbed_s`) is calibrated on the DES (§4.1), predicted with
//! Algorithm 1, split by Algorithm 2 fission, and measured with
//! `predict_vs_measure` in original and parallelized form — the Fig. 7/9
//! path. The run seed derives the DES streams and routing draws.

use crate::measure::{median, quantile, usage, Tracer};
use crate::pipeline::{ingested, mix};
use crate::Outcome;
use spinstreams_analysis::{eliminate_bottlenecks, steady_state};
use spinstreams_codegen::{build_actor_graph, serialize_plan, CodegenOptions};
use spinstreams_runtime::{Executor, SimConfig};
use spinstreams_tool::{calibrate, items_for_duration, predict_vs_measure, Comparison};
use spinstreams_topogen::{generate, GeneratedTopology, TopogenConfig};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Topologies per run, and the topogen seed of the first.
const TOPOLOGIES: usize = 50;
const TOPOGEN_SEED: u64 = 1000;
/// Virtual seconds of the calibration run and of each measured run.
const CALIBRATION_SECS: f64 = 0.5;
const RUN_SECS: f64 = 1.0;
/// Testbed generations per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Testbed passes per run, at least.
const MIN_ROUNDS: usize = 3;
/// Topologies in the slice the pool workloads evaluate.
const SLICE: usize = 8;
/// A comparison whose relative error exceeds this is counted as failed:
/// the model and the DES disagree by 2x, far beyond the few percent the
/// testbed shows.
const MAX_ERROR: f64 = 1.0;

/// The DES configuration: small mailboxes like the paper's experiments,
/// and only declared synthetic work as service time, so a seed's results
/// do not depend on host noise.
fn des(seed: u64) -> Executor {
    Executor::VirtualTime(SimConfig {
        mailbox_capacity: 32,
        seed,
        intrinsic_time: false,
        ..SimConfig::default()
    })
}

/// The first `n` testbed topologies, from the same topogen seeds as
/// `fig7_accuracy` (1000, 1001, ...). They stay fixed across runs; the run
/// seed varies the streams and routing draws (README.md explains why the
/// topologies themselves do not vary).
fn generate_testbed(n: usize) -> Vec<GeneratedTopology> {
    let cfg = TopogenConfig::default();
    (0..n as u64)
        .map(|i| generate(TOPOGEN_SEED + i, &cfg))
        .collect()
}

/// Checks one comparison; `None` when it is usable.
fn check(c: &Comparison) -> Option<String> {
    let err = c.relative_error();
    if !(c.measured_throughput > 0.0 && c.predicted_throughput > 0.0 && err.is_finite()) {
        return Some(format!(
            "degenerate comparison: predicted {} measured {}",
            c.predicted_throughput, c.measured_throughput
        ));
    }
    if c.run.total_dropped() > 0 || c.run.total_dead_letters() > 0 {
        return Some("the DES lost tuples".into());
    }
    (err > MAX_ERROR).then(|| format!("relative error {err:.3} above {MAX_ERROR}"))
}

/// Per-layer sums over the testbed.
#[derive(Default)]
struct Layers {
    calibrate: Duration,
    alg1: Duration,
    alg2: Duration,
    des: Duration,
    build: Duration,
    serialize: Duration,
    replicas_added: usize,
    actors: usize,
    des_tuples: u64,
    pred_over_meas: Vec<f64>,
}

/// Calibrates, predicts, splits and measures one topology; returns its
/// relative errors (original, parallelized) or why it failed.
fn evaluate(
    g: &GeneratedTopology,
    seed: u64,
    check_determinism: bool,
    trace: bool,
    l: &mut Layers,
) -> Result<[f64; 2], String> {
    let keys = Some(&g.source_keys);
    let prelim = steady_state(&g.topology).throughput.items_per_sec();
    let t = Instant::now();
    let calibrated = calibrate(
        &g.topology,
        keys,
        items_for_duration(prelim, CALIBRATION_SECS),
        50,
        &des(mix(seed, g.seed ^ 0xCA11)),
    );
    l.calibrate += t.elapsed();
    let calibrated = calibrated.map_err(|e| format!("calibrate: {e}"))?;
    let t = Instant::now();
    let model = steady_state(&calibrated);
    l.alg1 += t.elapsed();
    let t = Instant::now();
    let plan = eliminate_bottlenecks(&calibrated);
    l.alg2 += t.elapsed();
    l.replicas_added += plan.replicas.iter().map(|r| r - 1).sum::<usize>();
    let mut errors = [0.0; 2];
    for (slot, (replicas, predicted)) in [
        (&[][..], model.throughput.items_per_sec()),
        (&plan.replicas[..], plan.throughput.items_per_sec()),
    ]
    .into_iter()
    .enumerate()
    {
        let items = items_for_duration(predicted, RUN_SECS);
        let exec = des(mix(seed, g.seed ^ 0x5EED));
        let t = Instant::now();
        let c = predict_vs_measure(&calibrated, keys, replicas, &[], items, &exec)
            .map_err(|e| format!("predict_vs_measure: {e}"))?;
        l.des += t.elapsed();
        if check_determinism {
            let again = predict_vs_measure(&calibrated, keys, replicas, &[], items, &exec)
                .map_err(|e| format!("predict_vs_measure: {e}"))?;
            if again.measured_throughput.to_bits() != c.measured_throughput.to_bits()
                || ingested(&again.run) != ingested(&c.run)
            {
                return Err("the DES gave different results for the same seed".into());
            }
        }
        if let Some(why) = check(&c) {
            return Err(why);
        }
        l.des_tuples += ingested(&c.run);
        l.pred_over_meas
            .push(c.predicted_throughput / c.measured_throughput);
        errors[slot] = c.relative_error();
    }
    if trace {
        // Codegen alone, as `predict_vs_measure` runs it internally.
        let opts = CodegenOptions::default();
        let t = Instant::now();
        if let Ok(p) = build_actor_graph(&calibrated, keys.cloned(), &plan.replicas, &[], &opts) {
            l.actors += p.num_actors;
        }
        l.build += t.elapsed();
        let t = Instant::now();
        std::hint::black_box(serialize_plan(&calibrated, &plan.replicas, &[], &opts));
        l.serialize += t.elapsed();
    }
    Ok(errors)
}

/// Repeated passes over a testbed, each with fresh DES seeds drawn from
/// the run seed. Each topology keeps its fastest evaluation: co-tenants
/// on a shared host slow single evaluations in bursts.
pub struct Passes {
    testbed: Vec<GeneratedTopology>,
    seed: u64,
    trace: bool,
    /// The topology [`Passes::step`] evaluates next, and completed passes.
    next: usize,
    rounds: usize,
    best_s: Vec<f64>,
    best_tuples: Vec<u64>,
    /// Wall time of every evaluation so far.
    spent: Duration,
    /// CPU and simulated tuples at the start of the current pass, and the
    /// CPU per simulated tuple of each completed pass.
    pass_start: (Duration, u64),
    cpu_ns_per_tuple: Vec<f64>,
    /// Relative errors on the original topologies (Fig. 7b) and on their
    /// Algorithm 2 fissions (Fig. 9b).
    errors: Vec<f64>,
    fission_errors: Vec<f64>,
    attempted: u64,
    failures: Vec<String>,
    layers: Layers,
}

impl Passes {
    fn new(testbed: Vec<GeneratedTopology>, seed: u64, trace: bool) -> Self {
        let n = testbed.len();
        Passes {
            testbed,
            seed,
            trace,
            next: 0,
            rounds: 0,
            best_s: vec![f64::INFINITY; n],
            best_tuples: vec![0; n],
            spent: Duration::ZERO,
            pass_start: (Duration::ZERO, 0),
            cpu_ns_per_tuple: Vec::new(),
            errors: Vec::new(),
            fission_errors: Vec::new(),
            attempted: 0,
            failures: Vec::new(),
            layers: Layers::default(),
        }
    }

    /// The testbed slice every pool workload evaluates, interleaved with
    /// its launches, for its own `testbed_s` and `model_error_pct`: the
    /// first [`SLICE`] topologies.
    pub fn slice(seed: u64) -> Self {
        Passes::new(generate_testbed(SLICE), seed, false)
    }

    /// Evaluates the next topology.
    pub fn step(&mut self, tracer: &mut Tracer) {
        let i = self.next;
        if i == 0 {
            self.pass_start = (usage().cpu, self.layers.des_tuples);
        }
        let g = &self.testbed[i];
        self.attempted += 1;
        let t = Instant::now();
        let before = self.layers.des_tuples;
        let round_seed = mix(self.seed, self.rounds as u64);
        let first = self.rounds == 0 && i == 0;
        match evaluate(g, round_seed, first, self.trace, &mut self.layers) {
            Ok([original, parallelized]) => {
                self.errors.push(original);
                self.fission_errors.push(parallelized);
            }
            Err(why) => self
                .failures
                .push(format!("testbed topology {}: {why}", g.seed)),
        }
        tracer.record("testbed.topology", None, t, Instant::now());
        self.spent += t.elapsed();
        let took = t.elapsed().as_secs_f64();
        if took < self.best_s[i] {
            self.best_s[i] = took;
            self.best_tuples[i] = self.layers.des_tuples - before;
        }
        self.next = (i + 1) % self.testbed.len();
        if self.next == 0 {
            self.rounds += 1;
            let cpu = (usage().cpu - self.pass_start.0).as_nanos() as f64;
            let tuples = self.layers.des_tuples - self.pass_start.1;
            self.cpu_ns_per_tuple.push(cpu / tuples.max(1) as f64);
        }
    }

    /// Steps until at least `rounds` passes are complete.
    pub fn complete(&mut self, rounds: usize, tracer: &mut Tracer) {
        while self.rounds < rounds {
            self.step(tracer);
        }
    }

    /// Wall time of every evaluation so far.
    pub fn spent(&self) -> Duration {
        self.spent
    }

    /// Completed passes.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// One pass, each topology timed at its fastest evaluation.
    pub fn wall_s(&self) -> f64 {
        self.best_s.iter().sum()
    }

    /// Mean relative error on the original topologies, percent.
    pub fn mean_error_pct(&self) -> f64 {
        mean_pct(&self.errors)
    }

    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

fn mean_pct(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64 * 100.0
}

/// Generates the testbed (the set-up, timed [`SETUP_REPS`] times), then
/// evaluates it in passes until `seconds` have gone by.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut tracer = Tracer::new(trace, seed);
    let mut gen_times = Vec::new();
    let mut testbed = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        testbed = generate_testbed(TOPOLOGIES);
        gen_times.push(t.elapsed().as_secs_f64());
    }
    let n = testbed.len();
    let mut p = Passes::new(testbed, seed, trace);
    let start = Instant::now();
    while p.rounds < MIN_ROUNDS || start.elapsed().as_secs_f64() < seconds {
        p.complete(p.rounds + 1, &mut tracer);
    }
    let mut out = Outcome {
        attempted: p.attempted,
        failed: p.failures.len() as u64,
        ..Outcome::default()
    };
    let _ = writeln!(
        out.detail,
        "testbed: {n} topologies x {} passes; mean error {:.4}% original (max {:.4}%), {:.4}% after fission",
        p.rounds,
        p.mean_error_pct(),
        p.errors.iter().cloned().fold(0.0, f64::max) * 100.0,
        mean_pct(&p.fission_errors),
    );
    let best_us: Vec<f64> = p.best_s.iter().map(|s| s * 1e6).collect();
    let m = &mut out.metrics;
    if !trace {
        m.set(
            "throughput_tps",
            p.best_tuples.iter().sum::<u64>() as f64 / p.wall_s(),
        );
        m.set("latency_p50_us", median(&best_us));
        m.set("setup_s", median(&gen_times));
        m.set("cpu_ns_per_tuple", quantile(&p.cpu_ns_per_tuple, 0.25));
        m.set("testbed_s", p.wall_s());
        m.set("model_error_pct", p.mean_error_pct());
    } else {
        let l = &p.layers;
        let n = p.attempted.max(1) as f64;
        let ms = |d: Duration| d.as_secs_f64() * 1e3 / n;
        let us = |d: Duration| d.as_secs_f64() * 1e6 / n;
        m.set("setup.traced_s", median(&gen_times));
        m.set("latency.p95_us", quantile(&best_us, 0.95));
        m.set("tool.calibrate_ms", ms(l.calibrate));
        m.set("analysis.alg1_us", us(l.alg1));
        m.set("analysis.alg2_us", us(l.alg2));
        m.set(
            "analysis.replicas_added",
            l.replicas_added as f64 / p.rounds as f64,
        );
        m.set(
            "analysis.predicted_over_measured",
            median(&l.pred_over_meas),
        );
        m.set("analysis.fission_error_pct", mean_pct(&p.fission_errors));
        m.set("codegen.build_ms", ms(l.build));
        m.set("codegen.serialize_us", us(l.serialize));
        m.set("codegen.actors", l.actors as f64 / p.rounds as f64);
        m.set(
            "runtime.sim.items_per_s",
            l.des_tuples as f64 / l.des.as_secs_f64(),
        );
        let _ = write!(out.detail, "{}", tracer.to_jsonl());
    }
    out.failures = p.failures;
    out
}
