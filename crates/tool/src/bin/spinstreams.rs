//! The SpinStreams command-line tool — the §4 workflow without the GUI.
//!
//! ```text
//! spinstreams analyze  <topology.xml>                 steady-state analysis (Algorithm 1)
//! spinstreams optimize <topology.xml> [--max-replicas N]
//!                                                     bottleneck elimination (Algorithm 2)
//! spinstreams fuse     <topology.xml> --members 2,3,4 operator fusion (Algorithm 3)
//! spinstreams autofuse <topology.xml> [--threshold T] automated greedy fusion (§7)
//! spinstreams codegen  <topology.xml> [--out main.rs] generate the optimized application
//! spinstreams run      <topology.xml> [--items N] [--batch N] [--checkpoint N]
//!                                     [--telemetry FILE] [--interval-ms M]
//!                                     [--adaptive] [--drift-threshold T] [--cooldown N]
//!                                     [--hysteresis H] [--max-replicas N] [--min-samples N]
//!                                                     execute and compare vs the model;
//!                                                     --adaptive closes the control loop
//!                                                     (live re-optimization + migration)
//! spinstreams chaos    <topology.xml> [--items N] [--panic-prob P] [--seed S] [--batch N]
//!                                     [--workers N] [--checkpoint N] [--crash-at-epoch N]
//!                                     [--crash-after-tuples N] [--telemetry FILE] [--interval-ms M]
//!                                                     fault-injected run: supervision + dead letters
//! spinstreams monitor  <topology.xml> [--items N] [--batch N] [--workers N] [--interval-ms M]
//!                                     [--format table|jsonl|prom]
//!                                                     live telemetry of a threaded run
//! spinstreams inspect  <topology.xml> [--items N] [--batch N] [--workers N] [--threaded]
//!                                     [--span-sample N] [--min-samples N] [--json]
//!                                                     bottleneck attribution: re-profile the
//!                                                     annotations online, join predicted vs
//!                                                     measured bottleneck, trace backpressure
//! spinstreams dot      <topology.xml> [--optimized]   Graphviz rendering of the (optimized) topology
//! spinstreams serve    [--workers N] [--batch N] [--script FILE]
//!                                                     long-lived multi-tenant serving shell:
//!                                                     submit / status / launch many topologies
//!                                                     on one shared pool, with a checksum-keyed
//!                                                     plan cache and model-driven admission
//! spinstreams oracle   [--seeds N] [--seed-start S] [--no-threaded] [--no-fission]
//!                      [--no-fusion] [--no-minimize] [--workers N] [--pin-cores L]
//!                      [--artifacts DIR] [--adaptation-seeds A,B,C]
//!                      [--multitenant-seeds A,B,C]
//!                                                     differential oracle sweep: prediction vs
//!                                                     simulator vs threaded runtime; the
//!                                                     adaptation layer replays a mid-run
//!                                                     service-time shift and checks the live
//!                                                     migration preserved exactly-once output;
//!                                                     the multitenant layer co-schedules seeded
//!                                                     pipelines on one shared pool and checks
//!                                                     per-tenant isolation and the aggregate
//! ```
//!
//! `run`, `chaos`, `monitor`, `inspect` and `oracle` also accept
//! `--pin-cores 0,1,2` to pin the threaded engine's threads (stage-sharded;
//! best-effort, no-op on platforms without affinity support). One parser,
//! [`engine_config`], reads `--batch`, `--workers`, `--checkpoint` and
//! `--pin-cores` for every subcommand: a flag beats the document's
//! `<settings>`, which beats `EngineConfig::default()` (batch cap 64, one
//! worker per core).
//!
//! Topology files follow the §4.1 XML formalism (see `spinstreams-xml`);
//! operators whose specs carry registry `kind` tags are runnable.

use spinstreams_analysis::{
    apply_replica_bound, auto_fuse, eliminate_bottlenecks, evaluate_with_replicas,
    format_fission_plan, format_steady_state, fuse, fusion_candidates, steady_state,
};
use spinstreams_analysis::{AdaptiveConfig, AdmissionVerdict, DriftConfig};
use spinstreams_codegen::{build_actor_graph, emit_rust_source, CodegenOptions};
use spinstreams_core::{OperatorId, StateClass, Topology};
use spinstreams_oracle::{format_report, run_sweep, write_artifacts, OracleConfig};
use spinstreams_runtime::Executor;
use spinstreams_runtime::{run_with_telemetry, EngineConfig, ExecutorKind, TelemetryConfig};
use spinstreams_serve::{ServeConfig, StreamService, SubmitRequest};
use spinstreams_tool::{
    adaptation_table, adaptive_table, chaos_table, comparison_table, drift_json, engine_config,
    experiment_executor, flag_value, inspect, inspect_json, inspect_table, monitor_table,
    multitenant_table, parse_flag, parse_list_flag, predict_vs_measure,
    predict_vs_measure_telemetry, predicted_actor_rates, prometheus_text, run_adaptation_layer,
    run_adaptive, run_chaos, run_chaos_with_telemetry, run_multitenant_layer, tenant_topology,
    topology_dot, AdaptiveRunConfig, ChaosConfig, DriftExporter,
};
use spinstreams_xml::{runtime_settings_from_xml, topology_from_xml, RuntimeSettings};
use std::collections::BTreeSet;
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Duration;

fn usage() -> ExitCode {
    eprintln!(
        "usage: spinstreams <analyze|optimize|fuse|autofuse|codegen|run|chaos|monitor|inspect|dot> <topology.xml> [options]\n\
         \x20      spinstreams serve  [--workers N] [--batch N] [--script FILE]\n\
         \x20      spinstreams oracle [--seeds N] [--seed-start S] [--no-threaded] [--no-fission]\n\
         \x20                         [--no-fusion] [--no-minimize] [--workers N] [--pin-cores L]\n\
         \x20                         [--artifacts DIR] [--adaptation-seeds A,B,C]\n\
         \x20                         [--multitenant-seeds A,B,C]\n\
         \n\
         analyze   — steady-state throughput analysis (Algorithm 1)\n\
         optimize  — bottleneck elimination via fission (Algorithm 2); --max-replicas N\n\
         fuse      — fuse a sub-graph (Algorithm 3); --members i,j,k (0-based operator ids)\n\
         autofuse  — automated greedy fusion; --threshold T (default 0.9)\n\
         codegen   — emit the optimized application's Rust source; --out FILE\n\
         run       — execute on the virtual-time runtime and compare vs the model; --items N,\n\
                     --batch N (envelope batch size; accepted for parity, virtual time ignores it),\n\
                     --telemetry FILE (JSON-lines export with drift verdicts), --interval-ms M;\n\
                     --adaptive runs the *threaded* engine with the control loop closed —\n\
                     live re-profiling, re-optimization, and in-flight migration (needs\n\
                     --checkpoint N or <settings checkpoint-interval=\"N\"/>); knobs\n\
                     --drift-threshold T, --cooldown N, --hysteresis H, --max-replicas N,\n\
                     --min-samples N (defaults from <settings adaptive=\"true\" ...attrs/>)\n\
         chaos     — fault-injected threaded run exercising supervision;\n\
                     --items N, --panic-prob P (default 0.05), --seed S, --batch N,\n\
                     --workers N, --checkpoint N, --crash-at-epoch N (every worker panics\n\
                     once while snapshotting epoch N), --crash-after-tuples N (every worker\n\
                     panics once on its N-th tuple), --telemetry FILE, --interval-ms M\n\
         monitor   — live telemetry of a threaded run; --items N, --batch N, --workers N,\n\
                     --interval-ms M, --format table|jsonl|prom (default table)\n\
         inspect   — bottleneck attribution: run with deep telemetry, re-profile the §4.1\n\
                     annotations online and join the predicted vs measured bottleneck;\n\
                     --items N, --batch N, --threaded (real threads instead of the\n\
                     virtual-time simulator), --workers N (implies --threaded),\n\
                     --span-sample N (trace every Nth tuple; default 64, 0 = off),\n\
                     --min-samples N (re-profiler floor, default 200), --json\n\
         \n\
         The engine flags below are read by one parser wherever the engine runs; each\n\
         beats the topology file's <settings>, which beats the engine default.\n\
         --batch N caps envelope batches (default: the file's <settings batch-size=\"N\"/>,\n\
         else 64);\n\
         --workers N sizes the worker pool that runs the actors (0 = one per core;\n\
         default: the file's <settings workers=\"N\"/>, else one per core);\n\
         --checkpoint N enables epoch-aligned checkpointing every N source items (0 = off;\n\
         default: the file's <settings checkpoint-interval=\"N\"/>, else off);\n\
         --pin-cores 0,1,2 pins engine threads to the listed cores, sharding actors by\n\
         topological stage (default: the file's <settings pin-cores=\"...\"/>, else unpinned;\n\
         best-effort — warns and runs unpinned where affinity is unsupported)\n\
         dot       — Graphviz rendering annotated with the analysis; --optimized adds the fission plan\n\
         serve     — long-lived multi-tenant serving shell on one shared engine; reads commands\n\
                     from --script FILE (default stdin): submit NAME FILE.xml [WEIGHT],\n\
                     submit-seed NAME SEED IDX [WEIGHT] (a seeded paced pipeline),\n\
                     status, cache, plan NAME, launch, stop NAME, quit; --workers N sizes the\n\
                     shared pool (0 = one per core; default 1), --batch N the envelope batches,\n\
                     --items N the per-launch source items (default 10000)\n\
         oracle    — cross-validate Algorithm 1/2/3 predictions against the simulator (and a\n\
                     threaded smoke run) over seeded topologies; exits nonzero on divergence.\n\
                     --seeds N (default 20), --seed-start S (default 0), --no-threaded,\n\
                     --no-fission, --no-fusion (skip the fused-vs-unfused fusion layer),\n\
                     --no-minimize, --workers N (pool executor for the threaded\n\
                     smoke runs), --pin-cores L, --artifacts DIR (write repro artifacts),\n\
                     --adaptation-seeds A,B,C (run the drift → live-migration adaptation\n\
                     layer on the listed seeds instead of the static sweep),\n\
                     --multitenant-seeds A,B,C (run the shared-pool multi-tenant layer on\n\
                     the listed seeds: solo-vs-concurrent sink isolation, admission, and\n\
                     aggregate-vs-model throughput)"
    );
    ExitCode::FAILURE
}

/// Ends the process over a malformed command line.
fn exit_with(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(1)
}

/// A typed flag through the one parser, [`parse_flag`]: `None` when the
/// flag is absent; a malformed value exits with a message naming the flag.
fn flag<T: FromStr>(
    args: &[String],
    name: &str,
    valid: impl Fn(&T) -> bool,
    expected: &str,
) -> Option<T> {
    parse_flag(args, name, valid, expected).unwrap_or_else(|e| exit_with(&e))
}

/// A comma-separated flag through [`parse_list_flag`], like [`flag`].
fn list_flag<T: FromStr>(args: &[String], name: &str, expected: &str) -> Option<Vec<T>> {
    parse_list_flag(args, name, expected).unwrap_or_else(|e| exit_with(&e))
}

/// `--items N`, a positive integer, or `default`.
fn items_flag(args: &[String], default: u64) -> u64 {
    flag(args, "--items", |n| *n > 0, "a positive integer").unwrap_or(default)
}

/// `--interval-ms M`, the telemetry sampling interval (default 100).
fn interval_ms_flag(args: &[String]) -> u64 {
    flag(args, "--interval-ms", |_| true, "a non-negative integer")
        .unwrap_or(100)
        .max(1)
}

/// `--seed S`, overriding a harness's own default seed.
fn seed_flag(args: &[String]) -> Option<u64> {
    flag(args, "--seed", |_| true, "a non-negative integer")
}

fn telemetry_config(args: &[String]) -> TelemetryConfig {
    // `--span-sample N` arms the flight recorder: every Nth source tuple
    // is traced hop-by-hop (rounded to a power of two; 0 = off).
    let span_sample = flag(args, "--span-sample", |_| true, "a non-negative integer").unwrap_or(0);
    TelemetryConfig::default()
        .with_interval(Duration::from_millis(interval_ms_flag(args)))
        .with_span_sample(span_sample)
}

fn load(path: &str) -> Result<(Topology, RuntimeSettings), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let topo = topology_from_xml(&text).map_err(|e| format!("{path}: {e}"))?;
    let settings = runtime_settings_from_xml(&text).map_err(|e| format!("{path}: {e}"))?;
    Ok((topo, settings))
}

/// The pool size an engine runs on, for the subcommands' banners.
fn pool_label(engine: &EngineConfig) -> String {
    match engine.executor {
        ExecutorKind::Pool { workers: 0 } => "auto workers".to_string(),
        ExecutorKind::Pool { workers } => format!("{workers} worker(s)"),
    }
}

/// `spinstreams oracle` — the differential sweep. Unlike every other
/// subcommand it takes no topology file: scenarios are generated from seeds.
fn oracle_cmd(args: &[String]) -> ExitCode {
    // The adaptation layer: `--adaptation-seeds 1,2,3` runs the drift →
    // live-migration scenario on the listed seeds. It replaces the static
    // sweep unless `--seeds` was also given explicitly.
    const SEED_LIST: &str = "a comma-separated list of integers";
    if let Some(adapt_seeds) = list_flag::<u64>(args, "--adaptation-seeds", SEED_LIST) {
        let mut dirty = 0usize;
        for &seed in &adapt_seeds {
            match run_adaptation_layer(seed) {
                Ok(report) => {
                    print!("{}", adaptation_table(&report));
                    if !report.is_clean() {
                        dirty += 1;
                    }
                }
                Err(e) => {
                    eprintln!("adaptation seed {seed}: {e}");
                    dirty += 1;
                }
            }
        }
        println!(
            "{}/{} adaptation seed(s) clean",
            adapt_seeds.len() - dirty,
            adapt_seeds.len()
        );
        if dirty > 0 {
            return ExitCode::FAILURE;
        }
        if flag_value(args, "--seeds").is_none()
            && flag_value(args, "--multitenant-seeds").is_none()
        {
            return ExitCode::SUCCESS;
        }
    }
    // The multi-tenant layer: `--multitenant-seeds 1,2,3` co-schedules N
    // seeded paced pipelines on one shared serving pool per seed and
    // checks admission, per-tenant sink isolation, plan-cache coherence
    // and the aggregate against the summed Algorithm 1 predictions.
    if let Some(mt_seeds) = list_flag::<u64>(args, "--multitenant-seeds", SEED_LIST) {
        let mut dirty = 0usize;
        for &seed in &mt_seeds {
            match run_multitenant_layer(seed) {
                Ok(report) => {
                    print!("{}", multitenant_table(&report));
                    if !report.is_clean() {
                        dirty += 1;
                    }
                }
                Err(e) => {
                    eprintln!("multitenant seed {seed}: {e}");
                    dirty += 1;
                }
            }
        }
        println!(
            "{}/{} multitenant seed(s) clean",
            mt_seeds.len() - dirty,
            mt_seeds.len()
        );
        if dirty > 0 {
            return ExitCode::FAILURE;
        }
        if flag_value(args, "--seeds").is_none() {
            return ExitCode::SUCCESS;
        }
    }
    let seeds = flag(args, "--seeds", |n| *n > 0, "a positive integer").unwrap_or(20);
    let seed_start = flag(args, "--seed-start", |_| true, "a non-negative integer").unwrap_or(0u64);
    let mut cfg = OracleConfig::default();
    if args.iter().any(|a| a == "--no-threaded") {
        cfg.threaded_runs = 0;
    }
    if args.iter().any(|a| a == "--no-fission") {
        cfg.check_fission = false;
    }
    if args.iter().any(|a| a == "--no-fusion") {
        cfg.check_fusion = false;
    }
    if args.iter().any(|a| a == "--no-minimize") {
        cfg.minimize = false;
    }
    cfg.engine = engine_config(args, &RuntimeSettings::default()).unwrap_or_else(|e| exit_with(&e));
    let artifacts = flag_value(args, "--artifacts");

    println!(
        "oracle sweep: seeds {seed_start}..{} ({} threaded on pool ({}), fission {}, fusion {}, minimize {})",
        seed_start + seeds - 1,
        cfg.threaded_runs.min(seeds as usize),
        pool_label(&cfg.engine),
        if cfg.check_fission { "on" } else { "off" },
        if cfg.check_fusion { "on" } else { "off" },
        if cfg.minimize { "on" } else { "off" },
    );
    let sweep = run_sweep(&cfg, seed_start, seeds, &mut |report| {
        if report.is_clean() {
            println!(
                "seed {:>4}: ok ({} layer(s))",
                report.seed,
                report.tables.len()
            );
        } else {
            println!(
                "seed {:>4}: DIVERGENT ({} violation(s))",
                report.seed,
                report.divergences.len()
            );
        }
    });

    for case in &sweep.cases {
        println!();
        print!("{}", format_report(case));
        if let Some(dir) = &artifacts {
            match write_artifacts(std::path::Path::new(dir), case) {
                Ok(paths) => {
                    for p in paths {
                        println!("artifact: {}", p.display());
                    }
                }
                Err(e) => eprintln!("cannot write artifacts to {dir}: {e}"),
            }
        }
    }
    println!("\n{}/{} seed(s) clean", sweep.clean, sweep.seeds.len());
    if sweep.is_clean() {
        println!("oracle verdict: prediction, simulator and runtime agree within tolerance.");
        ExitCode::SUCCESS
    } else {
        println!("oracle verdict: DIVERGENT — see the rate tables above.");
        ExitCode::FAILURE
    }
}

/// `spinstreams serve` — the long-lived multi-tenant serving shell. Like
/// `oracle` it takes no topology positional: tenants arrive through script
/// commands read from `--script FILE` (or stdin).
fn serve_cmd(args: &[String]) -> ExitCode {
    // Serving defaults to one shared worker.
    let defaults = RuntimeSettings {
        workers: Some(1),
        ..RuntimeSettings::default()
    };
    let engine = engine_config(args, &defaults).unwrap_or_else(|e| exit_with(&e));
    let items = items_flag(args, 10_000);
    let script: Box<dyn std::io::BufRead> = match flag_value(args, "--script") {
        Some(path) => match std::fs::File::open(&path) {
            Ok(f) => Box::new(std::io::BufReader::new(f)),
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => Box::new(std::io::BufReader::new(std::io::stdin())),
    };
    let pool = pool_label(&engine);
    let mut svc = StreamService::new(ServeConfig::new(engine));
    let admission = svc.config().admission;
    println!(
        "serve: shared pool ({pool}), admission capacity {:.2} usable cores \
         (headroom {:.0}%)",
        admission.usable_cores(),
        admission.headroom * 100.0,
    );

    let describe = |verdict: &AdmissionVerdict| match *verdict {
        AdmissionVerdict::Admit { demand_cores } => {
            format!("admitted (demand {demand_cores:.3} cores)")
        }
        AdmissionVerdict::Queue {
            demand_cores,
            available_cores,
        } => format!("queued (demand {demand_cores:.3} cores > {available_cores:.3} available)"),
        AdmissionVerdict::Reject {
            demand_cores,
            capacity_cores,
            deficit_cores,
            predicted_throughput_fraction,
        } => format!(
            "REJECTED (demand {demand_cores:.3} cores > capacity {capacity_cores:.3}: \
             deficit {deficit_cores:.3} cores, predicted throughput fraction \
             {predicted_throughput_fraction:.2})"
        ),
    };

    let mut failed = false;
    use std::io::BufRead as _;
    for line in script.lines() {
        let line = match line {
            Ok(l) => l,
            Err(e) => {
                eprintln!("script read error: {e}");
                return ExitCode::FAILURE;
            }
        };
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let words: Vec<&str> = line.split_whitespace().collect();
        match words[0] {
            "quit" | "exit" => break,
            "submit" | "submit-seed" => {
                let topo = if words[0] == "submit" {
                    // submit NAME FILE.xml [WEIGHT]
                    let Some(path) = words.get(2) else {
                        eprintln!("usage: submit NAME FILE.xml [WEIGHT]");
                        failed = true;
                        continue;
                    };
                    match load(path) {
                        Ok((topo, _)) => topo,
                        Err(e) => {
                            eprintln!("error: {e}");
                            failed = true;
                            continue;
                        }
                    }
                } else {
                    // submit-seed NAME SEED IDX [WEIGHT]
                    let (Some(seed), Some(idx)) = (
                        words.get(2).and_then(|w| w.parse::<u64>().ok()),
                        words.get(3).and_then(|w| w.parse::<usize>().ok()),
                    ) else {
                        eprintln!("usage: submit-seed NAME SEED IDX [WEIGHT]");
                        failed = true;
                        continue;
                    };
                    tenant_topology(seed, idx)
                };
                let Some(name) = words.get(1) else {
                    eprintln!("usage: {} NAME ...", words[0]);
                    failed = true;
                    continue;
                };
                let mut req = SubmitRequest::new(*name, topo).with_items(items);
                let weight_at = if words[0] == "submit" { 3 } else { 4 };
                if let Some(raw) = words.get(weight_at) {
                    match raw.parse::<u64>() {
                        Ok(w) => req = req.with_weight(w),
                        Err(_) => {
                            eprintln!("WEIGHT must be a non-negative integer, got {raw:?}");
                            failed = true;
                            continue;
                        }
                    }
                }
                match svc.submit(req) {
                    Ok(receipt) => println!(
                        "tenant {:?}: plan {:#018x} ({}) — {}",
                        receipt.tenant,
                        receipt.plan_checksum,
                        if receipt.cache_hit {
                            "cache hit"
                        } else {
                            "cache miss, optimized"
                        },
                        describe(&receipt.verdict),
                    ),
                    Err(e) => {
                        eprintln!("submit failed: {e}");
                        failed = true;
                    }
                }
            }
            "status" => {
                for t in svc.status() {
                    println!(
                        "  {:<12} {:<9} demand {:.3} cores, weight {}, plan {:#018x}",
                        t.name,
                        format!("{:?}", t.state),
                        t.demand_cores,
                        t.weight,
                        t.plan_checksum,
                    );
                }
                println!("  running demand: {:.3} cores", svc.running_demand());
            }
            "cache" => {
                let s = svc.cache_stats();
                println!(
                    "  plan cache: {} entr{}, {} hit(s), {} miss(es), {} update(s), \
                     {} eviction(s)",
                    s.entries,
                    if s.entries == 1 { "y" } else { "ies" },
                    s.hits,
                    s.misses,
                    s.updates,
                    s.evictions,
                );
            }
            "plan" => match words.get(1).and_then(|n| svc.plan_text(n)) {
                Some(text) => print!("{text}"),
                None => {
                    eprintln!("usage: plan NAME (of a tenant whose plan is cached)");
                    failed = true;
                }
            },
            "launch" => match svc.launch() {
                Ok(runs) => {
                    for run in &runs {
                        println!(
                            "  {:<12} {:>8} item(s) at the source, {:.3} s wall, {}",
                            run.name,
                            run.report
                                .actors
                                .iter()
                                .filter(|a| a.items_in == 0)
                                .map(|a| a.items_out)
                                .sum::<u64>(),
                            run.report.wall.as_secs_f64(),
                            match run.report.source_throughput() {
                                Some(r) => format!("{r:.0} items/s"),
                                None => "rate n/a".to_string(),
                            },
                        );
                    }
                    println!("  {} tenant(s) completed", runs.len());
                }
                Err(e) => {
                    eprintln!("launch failed: {e}");
                    failed = true;
                }
            },
            "stop" => match words.get(1) {
                Some(name) => match svc.stop(name) {
                    Ok(()) => println!("tenant {name:?} stopped"),
                    Err(e) => {
                        eprintln!("stop failed: {e}");
                        failed = true;
                    }
                },
                None => {
                    eprintln!("usage: stop NAME");
                    failed = true;
                }
            },
            other => {
                eprintln!(
                    "unknown command {other:?} (submit, submit-seed, status, cache, plan, \
                     launch, stop, quit)"
                );
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `oracle` generates its own seeded topologies — no XML positional.
    if args.first().map(String::as_str) == Some("oracle") {
        return oracle_cmd(&args[1..]);
    }
    // `serve` reads its tenants from a command script — no XML positional.
    if args.first().map(String::as_str) == Some("serve") {
        return serve_cmd(&args[1..]);
    }
    let (Some(cmd), Some(path)) = (args.first(), args.get(1)) else {
        return usage();
    };
    let (topo, xml_settings) = match load(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let engine = engine_config(&args, &xml_settings).unwrap_or_else(|e| exit_with(&e));

    match cmd.as_str() {
        "analyze" => {
            let report = steady_state(&topo);
            print!("{}", format_steady_state(&topo, &report));
            if report.has_bottleneck() {
                println!(
                    "bottlenecks detected at: {}",
                    report
                        .bottlenecks
                        .iter()
                        .map(|b| topo.operator(b.operator).name.clone())
                        .collect::<Vec<_>>()
                        .join(", ")
                );
            } else {
                println!("no bottlenecks: the topology sustains the source rate.");
            }
            let candidates = fusion_candidates(&topo, 0.9);
            if !candidates.is_empty() {
                println!("\nfusion candidates (ranked by mean utilization):");
                for c in candidates.iter().take(5) {
                    println!(
                        "  {{{}}} mean ρ {:.2}",
                        c.members
                            .iter()
                            .map(|m| topo.operator(*m).name.clone())
                            .collect::<Vec<_>>()
                            .join(", "),
                        c.mean_utilization
                    );
                }
            }
        }
        "optimize" => {
            let plan = eliminate_bottlenecks(&topo);
            print!("{}", format_fission_plan(&topo, &plan));
            if let Some(n) = flag(&args, "--max-replicas", |n| *n > 0, "a positive integer") {
                if plan.total_replicas() > n {
                    let bounded = apply_replica_bound(&plan, n);
                    let eval = evaluate_with_replicas(&topo, &bounded);
                    println!(
                        "\nwith the --max-replicas {n} bound: degrees {:?} -> predicted {:.2} items/s",
                        bounded,
                        eval.throughput.items_per_sec()
                    );
                }
            }
        }
        "fuse" => {
            let Some(member_list) =
                list_flag::<usize>(&args, "--members", "a comma-separated list of operator ids")
            else {
                eprintln!("fuse requires --members i,j,k");
                return ExitCode::FAILURE;
            };
            let members: BTreeSet<OperatorId> = member_list.into_iter().map(OperatorId).collect();
            match fuse(&topo, &members) {
                Ok(outcome) => {
                    println!(
                        "fused operator service time: {} (aggregate of {} members)",
                        outcome.fused_service_time,
                        members.len()
                    );
                    println!(
                        "throughput: {:.2} -> {:.2} items/s ({:+.1}%)",
                        outcome.baseline.throughput.items_per_sec(),
                        outcome.report.throughput.items_per_sec(),
                        outcome.throughput_change() * 100.0
                    );
                    println!(
                        "{}",
                        if outcome.is_feasible() {
                            "verdict: fusion is feasible and does not impair performance."
                        } else {
                            "verdict: ALERT — fusion would introduce a bottleneck."
                        }
                    );
                    println!("\nfused topology:\n{}", outcome.topology);
                }
                Err(e) => {
                    eprintln!("cannot fuse: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        "autofuse" => {
            let threshold = flag(
                &args,
                "--threshold",
                |t: &f64| t.is_finite() && *t > 0.0,
                "a positive number",
            )
            .unwrap_or(0.9);
            let result = auto_fuse(&topo, threshold);
            println!(
                "accepted {} fusion step(s); {} -> {} operators; predicted throughput {:.2} items/s",
                result.steps.len(),
                topo.num_operators(),
                result.topology.num_operators(),
                result.report.throughput.items_per_sec()
            );
            println!("\nfinal topology:\n{}", result.topology);
        }
        "codegen" => {
            let plan = eliminate_bottlenecks(&topo);
            let source = emit_rust_source(&topo, &plan.replicas, &[], &CodegenOptions::default());
            match flag_value(&args, "--out") {
                Some(out) => {
                    if let Err(e) = std::fs::write(&out, source) {
                        eprintln!("cannot write {out}: {e}");
                        return ExitCode::FAILURE;
                    }
                    println!("wrote optimized application to {out}");
                }
                None => print!("{source}"),
            }
        }
        "run" => {
            let items = items_flag(&args, 20_000);
            // `--adaptive` (or an XML `<settings adaptive="true" .../>` opt-in)
            // switches to the threaded engine with the control loop closed.
            // Knob precedence: CLI flag > XML attribute > built-in default.
            if args.iter().any(|a| a == "--adaptive") || xml_settings.adaptive.is_some() {
                let mut controller = AdaptiveConfig::default();
                if let Some(x) = &xml_settings.adaptive {
                    if let Some(t) = x.drift_threshold {
                        controller.drift.threshold = t;
                    }
                    if let Some(n) = x.cooldown_ticks {
                        controller.cooldown_ticks = n;
                    }
                    if let Some(h) = x.hysteresis {
                        controller.hysteresis = h;
                    }
                    if let Some(n) = x.max_replicas {
                        controller.max_replicas = n;
                    }
                    if let Some(n) = x.min_samples {
                        controller.min_samples = n;
                    }
                }
                let positive = |x: &f64| x.is_finite() && *x > 0.0;
                if let Some(t) = flag(&args, "--drift-threshold", positive, "a positive number") {
                    controller.drift.threshold = t;
                }
                let ticks = "a non-negative integer (ticks)";
                if let Some(n) = flag(&args, "--cooldown", |_| true, ticks) {
                    controller.cooldown_ticks = n;
                }
                let non_negative = |x: &f64| x.is_finite() && *x >= 0.0;
                if let Some(h) = flag(&args, "--hysteresis", non_negative, "a non-negative number")
                {
                    controller.hysteresis = h;
                }
                if let Some(n) = flag(&args, "--max-replicas", |n| *n > 0, "a positive integer") {
                    controller.max_replicas = n;
                }
                let count = "a non-negative integer";
                if let Some(n) = flag(&args, "--min-samples", |_| true, count) {
                    controller.min_samples = n;
                }
                let interval_ms = interval_ms_flag(&args);
                // A partitioned topology keys its stream from the declared
                // frequency table, so measured key load matches the plan.
                let source_keys = topo.operators().iter().find_map(|op| match &op.state {
                    StateClass::PartitionedStateful { keys } => Some(keys.clone()),
                    _ => None,
                });
                let mut cfg = AdaptiveRunConfig {
                    items,
                    controller,
                    telemetry_interval: Duration::from_millis(interval_ms),
                    ..AdaptiveRunConfig::default()
                };
                cfg.engine = EngineConfig {
                    seed: seed_flag(&args).unwrap_or(cfg.engine.seed),
                    ..engine
                };
                match run_adaptive(&topo, source_keys, &cfg) {
                    Ok(outcome) => {
                        if let Some(out) = flag_value(&args, "--telemetry") {
                            if let Err(e) = std::fs::write(&out, outcome.telemetry.to_jsonl()) {
                                eprintln!("cannot write {out}: {e}");
                                return ExitCode::FAILURE;
                            }
                            println!(
                                "telemetry: {} snapshot(s), {} trace event(s) -> {out}",
                                outcome.telemetry.snapshots.len(),
                                outcome.telemetry.trace_total
                            );
                        }
                        print!("{}", adaptive_table(path, &cfg, &outcome));
                    }
                    Err(e) => {
                        eprintln!("adaptive run failed: {e}");
                        return ExitCode::FAILURE;
                    }
                }
                return ExitCode::SUCCESS;
            }
            let mut executor = experiment_executor(0x70_01);
            // Virtual time models checkpoint epochs deterministically (see
            // `SimConfig::checkpoint_interval`); it does not model batching.
            if let Executor::VirtualTime(sim) = &mut executor {
                sim.checkpoint_interval = engine.checkpoint_interval;
            }
            match flag_value(&args, "--telemetry") {
                Some(out) => {
                    let tcfg = telemetry_config(&args);
                    let run = match predict_vs_measure_telemetry(
                        &topo,
                        items,
                        &executor,
                        &tcfg,
                        DriftConfig::default(),
                    ) {
                        Ok(run) => run,
                        Err(e) => {
                            eprintln!("run failed: {e}");
                            return ExitCode::FAILURE;
                        }
                    };
                    if let Err(e) = std::fs::write(&out, &run.export.jsonl) {
                        eprintln!("cannot write {out}: {e}");
                        return ExitCode::FAILURE;
                    }
                    print!("{}", comparison_table(path, &run.comparison));
                    println!(
                        "telemetry: {} snapshot(s), {} trace event(s) -> {out}",
                        run.export.snapshot_lines, run.telemetry.trace_total
                    );
                    let names: Vec<String> = run
                        .telemetry
                        .last_snapshot()
                        .map(|s| s.actors.iter().map(|a| a.name.clone()).collect())
                        .unwrap_or_default();
                    let drifting = run.export.drifting_actors(&names);
                    if drifting.is_empty() {
                        println!("drift: all operators within threshold.");
                    } else {
                        println!("drift: DRIFTING at {}", drifting.join(", "));
                    }
                }
                None => match predict_vs_measure(&topo, None, &[], &[], items, &executor) {
                    Ok(cmp) => print!("{}", comparison_table(path, &cmp)),
                    Err(e) => {
                        eprintln!("run failed: {e}");
                        return ExitCode::FAILURE;
                    }
                },
            }
        }
        "chaos" => {
            let mut cfg = ChaosConfig::default();
            cfg.items = items_flag(&args, cfg.items);
            let probability = |p: &f64| (0.0..=1.0).contains(p);
            if let Some(p) = flag(&args, "--panic-prob", probability, "a number in [0, 1]") {
                cfg.panic_prob = p;
            }
            cfg.engine = EngineConfig {
                seed: seed_flag(&args).unwrap_or(cfg.engine.seed),
                ..engine
            };
            let positive = "a positive integer";
            cfg.crash_at_epoch = flag(&args, "--crash-at-epoch", |n| *n > 0, positive);
            cfg.crash_after_tuples = flag(&args, "--crash-after-tuples", |n| *n > 0, positive);
            match flag_value(&args, "--telemetry") {
                Some(out) => {
                    let tcfg = telemetry_config(&args);
                    match run_chaos_with_telemetry(&topo, &cfg, &tcfg) {
                        Ok((outcome, telemetry)) => {
                            if let Err(e) = std::fs::write(&out, telemetry.to_jsonl()) {
                                eprintln!("cannot write {out}: {e}");
                                return ExitCode::FAILURE;
                            }
                            print!("{}", chaos_table(path, &cfg, &outcome));
                            println!(
                                "telemetry: {} snapshot(s), {} trace event(s) -> {out}",
                                telemetry.snapshots.len(),
                                telemetry.trace_total
                            );
                        }
                        Err(e) => {
                            eprintln!("chaos run failed: {e}");
                            return ExitCode::FAILURE;
                        }
                    }
                }
                None => match run_chaos(&topo, &cfg) {
                    Ok(outcome) => print!("{}", chaos_table(path, &cfg, &outcome)),
                    Err(e) => {
                        eprintln!("chaos run failed: {e}");
                        return ExitCode::FAILURE;
                    }
                },
            }
        }
        "monitor" => {
            let items = items_flag(&args, 50_000);
            let format = flag_value(&args, "--format").unwrap_or_else(|| "table".into());
            if !matches!(format.as_str(), "table" | "jsonl" | "prom") {
                eprintln!("--format must be table, jsonl or prom");
                return ExitCode::FAILURE;
            }
            let report = steady_state(&topo);
            let plan = match build_actor_graph(
                &topo,
                None,
                &[],
                &[],
                &CodegenOptions {
                    items,
                    seed: 0x3017,
                    ..CodegenOptions::default()
                },
            ) {
                Ok(plan) => plan,
                Err(e) => {
                    eprintln!("codegen failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let predicted = predicted_actor_rates(&topo, &report, &plan);
            let exporter = DriftExporter::new(predicted, DriftConfig::default());
            // Redraw in place only when a human is watching.
            let clear = matches!(format.as_str(), "table")
                && std::io::IsTerminal::is_terminal(&std::io::stdout());
            let tcfg = exporter.attach(telemetry_config(&args), move |snap, verdicts| match format
                .as_str()
            {
                "jsonl" => println!("{}", snap.to_json_with(&drift_json(verdicts))),
                "prom" => println!("{}", prometheus_text(snap, verdicts)),
                _ => {
                    if clear {
                        print!("\x1b[2J\x1b[H");
                    }
                    println!("{}", monitor_table(snap, verdicts));
                }
            });
            match run_with_telemetry(plan.graph, &engine, &tcfg) {
                Ok((run_report, telemetry)) => {
                    println!(
                        "run complete: {} item(s) delivered in {:.2}s wall; {} snapshot(s), {} trace event(s)",
                        run_report.actors.iter().map(|a| a.items_out).max().unwrap_or(0),
                        run_report.wall.as_secs_f64(),
                        telemetry.snapshots.len(),
                        telemetry.trace_total
                    );
                }
                Err(e) => {
                    eprintln!("monitor run failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        "inspect" => {
            let items = items_flag(&args, 20_000);
            let min_samples =
                flag(&args, "--min-samples", |_| true, "a non-negative integer").unwrap_or(200);
            // The flight recorder is the point of `inspect`: span sampling
            // defaults on (every 64th tuple) unless explicitly set.
            let mut tcfg = telemetry_config(&args);
            if flag_value(&args, "--span-sample").is_none() {
                tcfg = tcfg.with_span_sample(64);
            }
            // A pool size (flag or document) implies the threaded engine.
            let threaded = args.iter().any(|a| a == "--threaded" || a == "--workers")
                || xml_settings.workers.is_some();
            let executor = if threaded {
                Executor::Threads(engine)
            } else {
                let mut executor = experiment_executor(0x1195EC7);
                if let Executor::VirtualTime(sim) = &mut executor {
                    sim.checkpoint_interval = engine.checkpoint_interval;
                }
                executor
            };
            match inspect(&topo, items, &executor, &tcfg, min_samples) {
                Ok(insp) => {
                    if args.iter().any(|a| a == "--json") {
                        println!("{}", inspect_json(&topo, &insp));
                    } else {
                        print!("{}", inspect_table(&topo, &insp));
                    }
                }
                Err(e) => {
                    eprintln!("inspect failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        "dot" => {
            let report = steady_state(&topo);
            if args.iter().any(|a| a == "--optimized") {
                let plan = eliminate_bottlenecks(&topo);
                print!("{}", topology_dot(&topo, Some(&report), Some(&plan)));
            } else {
                print!("{}", topology_dot(&topo, Some(&report), None));
            }
        }
        _ => return usage(),
    }
    ExitCode::SUCCESS
}
