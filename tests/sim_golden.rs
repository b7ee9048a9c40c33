//! Golden run of the discrete-event simulator: one fixed graph, its exact
//! per-actor counters and a hash of its telemetry export, pinned as
//! constants. The other determinism tests compare two runs of the same
//! build; this one catches a change that alters the simulated schedule
//! itself (event order, RNG draw order, blocking, flush delivery).
//!
//! The graph exercises every route kind the simulator resolves
//! (probabilistic, round-robin, key-map, unicast), mailboxes of 4–8 slots
//! so Blocking After Service engages, an operator that emits only on
//! `flush`, a fan-out operator, declared `synthetic_work`, and telemetry
//! with flight-recorder span sampling — all with `intrinsic_time` off, so
//! the results are bit-for-bit reproducible on any host.

use spinstreams::core::{KeyDistribution, Tuple};
use spinstreams::runtime::operators::{synthetic_work, FnOperator, PassThrough};
use spinstreams::runtime::{
    simulate_with_telemetry, ActorGraph, Behavior, Outputs, Route, SimConfig, SourceConfig,
    StreamOperator, TelemetryConfig,
};
use std::time::Duration;

/// A worker that spends `ns` virtual nanoseconds per item and forwards it.
fn work(name: &str, ns: u64) -> Behavior {
    Behavior::Worker(Box::new(FnOperator::new(
        name,
        move |t, out: &mut Outputs| {
            synthetic_work(ns);
            out.emit_default(t);
        },
    )))
}

/// Sums values per key and emits one tuple per key, only on `flush`.
struct FlushSum {
    sums: Vec<(u64, f64)>,
}

impl StreamOperator for FlushSum {
    fn process(&mut self, item: Tuple, _out: &mut Outputs) {
        synthetic_work(1_500);
        match self.sums.iter_mut().find(|(k, _)| *k == item.key) {
            Some((_, s)) => *s += item.values[0],
            None => self.sums.push((item.key, item.values[0])),
        }
    }

    fn flush(&mut self, out: &mut Outputs) {
        synthetic_work(20_000);
        for (i, &(key, sum)) in self.sums.iter().enumerate() {
            out.emit_default(Tuple::splat(key, i as u64, sum));
        }
    }
}

/// Zipf-like skew over 16 keys (`p_k ∝ 1/k`) built from divisions alone,
/// which IEEE 754 rounds identically on every platform (`zipf` calls
/// `powf`, whose last bit depends on the math library).
fn harmonic_keys() -> KeyDistribution {
    KeyDistribution::new((1..=16).map(|k| 1.0 / f64::from(k)).collect()).unwrap()
}

fn golden_graph() -> ActorGraph {
    let mut g = ActorGraph::new();
    let src = g.add_actor(
        "src",
        Behavior::Source(
            SourceConfig::new(250_000.0, 3_000)
                .with_keys(harmonic_keys())
                .with_seed(7),
        ),
    );
    // Fans every odd tuple out twice, so one service emits several items.
    let fan = g.add_actor(
        "fan",
        Behavior::Worker(Box::new(FnOperator::new(
            "fan",
            |t: Tuple, out: &mut Outputs| {
                synthetic_work(2_000);
                if t.seq % 2 == 1 {
                    out.emit_default(t);
                }
                out.emit_default(t);
            },
        ))),
    );
    // Port 0 is key-partitioned; port 1 feeds every tuple to the sum.
    let keyed = g.add_actor(
        "keyed",
        Behavior::Worker(Box::new(FnOperator::new(
            "keyed",
            |t: Tuple, out: &mut Outputs| {
                synthetic_work(3_000);
                out.emit(0, t);
                out.emit(1, t);
            },
        ))),
    );
    let r: Vec<_> = (0..3)
        .map(|i| g.add_actor(format!("rr{i}"), work("rr", 9_000 + 1_000 * i)))
        .collect();
    let k: Vec<_> = (0..2)
        .map(|i| g.add_actor(format!("km{i}"), work("km", 6_000 + 2_000 * i)))
        .collect();
    let sum = g.add_actor(
        "flush-sum",
        Behavior::Worker(Box::new(FlushSum { sums: Vec::new() })),
    );
    let merge = g.add_actor("merge", work("merge", 4_000));
    let sink = g.add_actor("sink", Behavior::worker(PassThrough));

    g.connect(
        src,
        Route::Probabilistic {
            choices: vec![(fan, 0.45), (keyed, 0.55)],
        },
    );
    g.connect(fan, Route::RoundRobin(r.clone()));
    g.connect(
        keyed,
        Route::KeyMap {
            key_map: vec![0, 1, 1, 0, 1],
            destinations: k.clone(),
        },
    );
    for &a in r.iter().chain(&k) {
        g.connect(a, Route::Unicast(merge));
    }
    g.connect(keyed, Route::Unicast(sum));
    g.connect(sum, Route::Unicast(sink));
    g.connect(merge, Route::Unicast(sink));

    for (i, &a) in r.iter().chain(&k).enumerate() {
        g.set_mailbox_capacity(a, 4 + (i % 3));
    }
    g.set_mailbox_capacity(merge, 8);
    g
}

/// FNV-1a 64: a fixed, dependency-free hash of the telemetry export.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Per actor: name, items_in, items_out, busy ns, blocked ns,
/// first_out_ns, last_out_ns.
type Row<'a> = (&'a str, u64, u64, u64, u64, u64, u64);

const EXPECTED: [Row<'static>; 11] = [
    ("src", 0, 3000, 0, 4_321_000, 0, 14_519_000),
    ("fan", 1373, 2031, 2_746_000, 1_642_000, 2000, 14_521_000),
    ("keyed", 1627, 3254, 4_881_000, 9_251_000, 3000, 14_554_000),
    ("rr0", 677, 677, 6_093_000, 6_548_000, 11_000, 14_563_000),
    ("rr1", 677, 677, 6_770_000, 5_993_000, 32_000, 14_567_000),
    ("rr2", 677, 677, 7_447_000, 5_643_000, 37_000, 14_579_000),
    ("km0", 819, 819, 4_914_000, 8_709_000, 13_000, 14_607_000),
    ("km1", 808, 808, 6_464_000, 7_292_000, 11_000, 14_603_000),
    ("flush-sum", 1627, 16, 2_460_500, 0, 14_555_500, 14_555_500),
    ("merge", 3658, 3658, 14_632_000, 0, 15_000, 14_643_000),
    ("sink", 3674, 3674, 0, 0, 15_000, 14_643_000),
];
const EXPECTED_JSONL_LEN: usize = 388_913;
const EXPECTED_JSONL_FNV: u64 = 0x698e_eb78_1876_b849;

#[test]
fn simulator_reproduces_the_golden_run() {
    let config = SimConfig {
        mailbox_capacity: 6,
        seed: 42,
        intrinsic_time: false,
        ..SimConfig::default()
    };
    let tcfg = TelemetryConfig::default()
        .with_interval(Duration::from_millis(2))
        .with_span_sample(8);
    let (report, tel) = simulate_with_telemetry(golden_graph(), &config, &tcfg).unwrap();

    let rows: Vec<Row> = report
        .actors
        .iter()
        .map(|a| {
            (
                a.name.as_str(),
                a.items_in,
                a.items_out,
                a.busy.as_nanos() as u64,
                a.blocked.as_nanos() as u64,
                a.first_out_ns,
                a.last_out_ns,
            )
        })
        .collect();
    let jsonl = tel.to_jsonl();
    assert_eq!(rows, EXPECTED);
    assert_eq!(jsonl.len(), EXPECTED_JSONL_LEN);
    assert_eq!(fnv1a(jsonl.as_bytes()), EXPECTED_JSONL_FNV);
}
