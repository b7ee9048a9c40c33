//! Smoke tests of the `spinstreams` command-line tool: every sub-command
//! runs against a temporary XML topology and produces the expected output.

use spinstreams_runtime::{EngineConfig, ExecutorKind};
use spinstreams_tool::engine_config;
use spinstreams_xml::{runtime_settings_from_xml, RuntimeSettings};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

const TOPOLOGY: &str = r#"<?xml version="1.0" encoding="UTF-8"?>
<topology name="cli-test">
  <operator id="0" name="src" kind="source" type="stateless" service-time="100" time-unit="us"/>
  <operator id="1" name="stage-a" kind="identity-map" type="stateless" service-time="60" time-unit="us">
    <param name="work_ns" value="60000"/>
  </operator>
  <operator id="2" name="stage-b" kind="arithmetic-map" type="stateless" service-time="400" time-unit="us">
    <param name="work_ns" value="400000"/>
  </operator>
  <operator id="3" name="tail-a" kind="identity-map" type="stateless" service-time="30" time-unit="us">
    <param name="work_ns" value="30000"/>
  </operator>
  <operator id="4" name="tail-b" kind="projection" type="stateless" service-time="20" time-unit="us">
    <param name="keep" value="2"/>
    <param name="work_ns" value="20000"/>
  </operator>
  <edge from="0" to="1" probability="1.0"/>
  <edge from="1" to="2" probability="1.0"/>
  <edge from="2" to="3" probability="1.0"/>
  <edge from="3" to="4" probability="1.0"/>
</topology>
"#;

/// A topology file of one test's own, removed when dropped. Tests run in
/// parallel in one process, so a shared path could be read by one test
/// while another rewrites it.
struct TopologyFile(std::path::PathBuf);

impl std::ops::Deref for TopologyFile {
    type Target = std::path::Path;

    fn deref(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for TopologyFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn topology_file() -> TopologyFile {
    topology_file_with(TOPOLOGY)
}

fn topology_file_with(text: &str) -> TopologyFile {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let path = std::env::temp_dir().join(format!(
        "ss-cli-{}-{}.xml",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&path, text).expect("write temp topology");
    TopologyFile(path)
}

fn run_cli(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_spinstreams-cli"))
        .args(args)
        .output()
        .expect("spawn spinstreams CLI");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn analyze_reports_bottleneck() {
    let path = topology_file();
    let (stdout, _, ok) = run_cli(&["analyze", path.to_str().unwrap()]);
    assert!(ok);
    assert!(stdout.contains("predicted throughput: 2500.00 items/s"));
    assert!(stdout.contains("bottlenecks detected at: stage-b"));
    assert!(stdout.contains("fusion candidates"));
}

#[test]
fn optimize_prints_fission_plan() {
    let path = topology_file();
    let (stdout, _, ok) = run_cli(&["optimize", path.to_str().unwrap()]);
    assert!(ok);
    assert!(stdout.contains("all bottlenecks removed"));
    assert!(stdout.contains("predicted throughput: 10000.00 items/s"));
}

#[test]
fn fuse_underutilized_tail_is_feasible() {
    let path = topology_file();
    let (stdout, _, ok) = run_cli(&["fuse", path.to_str().unwrap(), "--members", "3,4"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("fusion is feasible"));
    assert!(stdout.contains("F(tail-a+tail-b)"));
}

#[test]
fn fuse_rejects_invalid_subgraph() {
    let path = topology_file();
    // {1, 3} is not connected with a single front end.
    let (_, stderr, ok) = run_cli(&["fuse", path.to_str().unwrap(), "--members", "1,3"]);
    assert!(!ok);
    assert!(stderr.contains("cannot fuse"));
}

#[test]
fn autofuse_merges_the_tail() {
    let path = topology_file();
    let (stdout, _, ok) = run_cli(&["autofuse", path.to_str().unwrap()]);
    assert!(ok);
    assert!(stdout.contains("5 -> 4 operators") || stdout.contains("5 -> 3 operators"));
}

#[test]
fn codegen_emits_compilable_looking_source() {
    let path = topology_file();
    let (stdout, _, ok) = run_cli(&["codegen", path.to_str().unwrap()]);
    assert!(ok);
    assert!(stdout.contains("fn main()"));
    assert!(stdout.contains("build_actor_graph"));
}

#[test]
fn codegen_output_matches_the_committed_example() {
    // `cargo test` builds `examples/generated_quickstart.rs`, so this
    // equality makes the emitted program compile under tier-1.
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let (stdout, stderr, ok) = run_cli(&["codegen", &format!("{root}/examples/quickstart.xml")]);
    assert!(ok, "{stderr}");
    let committed = std::fs::read_to_string(format!("{root}/examples/generated_quickstart.rs"))
        .expect("read the committed example");
    assert_eq!(
        stdout, committed,
        "regenerate with: spinstreams-cli codegen examples/quickstart.xml > examples/generated_quickstart.rs"
    );
}

#[test]
fn malformed_xml_numbers_exit_with_a_message_naming_the_attribute() {
    let cases = [
        (
            "service-time=\"400\"",
            "service-time=\"-400\"",
            "service-time=-400",
        ),
        (
            "service-time=\"400\"",
            "service-time=\"NaN\"",
            "service-time=NaN",
        ),
        ("id=\"3\"", "id=\"3.7\"", "id=\"3.7\""),
        ("to=\"3\"", "to=\"3.9\"", "to=\"3.9\""),
    ];
    for (from, to, named) in cases {
        let text = TOPOLOGY.replacen(from, to, 1);
        assert_ne!(text, TOPOLOGY, "{from} must occur in the topology");
        let path = topology_file_with(&text);
        let out = Command::new(env!("CARGO_BIN_EXE_spinstreams-cli"))
            .args(["analyze", path.to_str().unwrap()])
            .output()
            .expect("spawn spinstreams CLI");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{to}: {stderr}");
        assert!(stderr.contains(named), "{to}: {stderr}");
    }
}

#[test]
fn dot_renders_graphviz() {
    let path = topology_file();
    let (stdout, _, ok) = run_cli(&["dot", path.to_str().unwrap(), "--optimized"]);
    assert!(ok);
    assert!(stdout.starts_with("digraph topology {"));
    assert!(stdout.contains("×4 replicas"), "{stdout}");
}

#[test]
fn run_compares_model_and_measurement() {
    let path = topology_file();
    let (stdout, _, ok) = run_cli(&["run", path.to_str().unwrap(), "--items", "8000"]);
    assert!(ok);
    assert!(stdout.contains("predicted vs"));
    assert!(stdout.contains("measured items/s"));
}

#[test]
fn chaos_injects_faults_and_reports_supervision() {
    let path = topology_file();
    let (stdout, stderr, ok) = run_cli(&[
        "chaos",
        path.to_str().unwrap(),
        "--items",
        "3000",
        "--panic-prob",
        "0.05",
        "--seed",
        "11",
    ]);
    assert!(ok, "stdout: {stdout}\nstderr: {stderr}");
    assert!(stdout.contains("panic probability 5.0%"), "{stdout}");
    assert!(stdout.contains("delivered fraction"), "{stdout}");
    // With 3000 items at 5% per worker, panics/restarts/dead letters are
    // all but certain; the report lists nonzero totals.
    assert!(!stdout.contains("totals: 0 panics"), "{stdout}");
    assert!(!stdout.contains("0 dead letters"), "{stdout}");
}

#[test]
fn chaos_rejects_bad_probability() {
    let path = topology_file();
    let (_, stderr, ok) = run_cli(&["chaos", path.to_str().unwrap(), "--panic-prob", "1.5"]);
    assert!(!ok);
    assert!(stderr.contains("--panic-prob"));
}

#[test]
fn bad_usage_and_bad_file_fail_cleanly() {
    let (_, stderr, ok) = run_cli(&["analyze"]);
    assert!(!ok);
    assert!(stderr.contains("usage:"));
    let (_, stderr, ok) = run_cli(&["analyze", "/nonexistent.xml"]);
    assert!(!ok);
    assert!(stderr.contains("cannot read"));
    let (_, stderr, ok) = run_cli(&["frobnicate", "/nonexistent.xml"]);
    assert!(!ok);
    assert!(stderr.contains("cannot read") || stderr.contains("usage:"));
}

#[test]
fn run_with_telemetry_exports_jsonl_with_drift() {
    let path = topology_file();
    let out = std::env::temp_dir().join(format!("ss-cli-telemetry-{}.jsonl", std::process::id()));
    let (stdout, stderr, ok) = run_cli(&[
        "run",
        path.to_str().unwrap(),
        "--items",
        "6000",
        "--telemetry",
        out.to_str().unwrap(),
        "--interval-ms",
        "50",
    ]);
    assert!(ok, "stdout: {stdout}\nstderr: {stderr}");
    assert!(stdout.contains("telemetry:"), "{stdout}");
    assert!(stdout.contains("drift:"), "{stdout}");
    let jsonl = std::fs::read_to_string(&out).expect("telemetry file");
    let _ = std::fs::remove_file(&out);
    let snapshots: Vec<&str> = jsonl
        .lines()
        .filter(|l| l.starts_with("{\"type\":\"snapshot\""))
        .collect();
    assert!(!snapshots.is_empty(), "no snapshot records:\n{jsonl}");
    for line in &snapshots {
        assert!(
            line.contains("\"drift\":["),
            "snapshot without drift: {line}"
        );
        assert!(line.contains("\"departure_rate\":"));
        assert!(line.contains("\"latency\":["));
    }
    assert!(
        jsonl.lines().any(|l| l.starts_with("{\"type\":\"trace\"")),
        "no trace records"
    );
}

#[test]
fn chaos_with_telemetry_exports_fault_traces() {
    let path = topology_file();
    let out = std::env::temp_dir().join(format!(
        "ss-cli-chaos-telemetry-{}.jsonl",
        std::process::id()
    ));
    let (stdout, stderr, ok) = run_cli(&[
        "chaos",
        path.to_str().unwrap(),
        "--items",
        "3000",
        "--panic-prob",
        "0.05",
        "--seed",
        "11",
        "--telemetry",
        out.to_str().unwrap(),
        "--interval-ms",
        "20",
    ]);
    assert!(ok, "stdout: {stdout}\nstderr: {stderr}");
    assert!(stdout.contains("telemetry:"), "{stdout}");
    let jsonl = std::fs::read_to_string(&out).expect("telemetry file");
    let _ = std::fs::remove_file(&out);
    assert!(jsonl
        .lines()
        .any(|l| l.starts_with("{\"type\":\"snapshot\"")));
    assert!(
        jsonl.contains("\"event\":\"operator-panicked\""),
        "fault traces missing:\n{}",
        jsonl.lines().rev().take(5).collect::<Vec<_>>().join("\n")
    );
    assert!(jsonl.contains("\"event\":\"operator-restarted\""));
}

#[test]
fn monitor_streams_jsonl_snapshots() {
    let path = topology_file();
    let (stdout, stderr, ok) = run_cli(&[
        "monitor",
        path.to_str().unwrap(),
        "--items",
        "3000",
        "--interval-ms",
        "50",
        "--format",
        "jsonl",
    ]);
    assert!(ok, "stdout: {stdout}\nstderr: {stderr}");
    assert!(
        stdout
            .lines()
            .filter(|l| l.starts_with("{\"type\":\"snapshot\""))
            .count()
            >= 1,
        "no live snapshots:\n{stdout}"
    );
    assert!(stdout.contains("run complete:"), "{stdout}");
}

#[test]
fn monitor_rejects_unknown_format() {
    let path = topology_file();
    let (_, stderr, ok) = run_cli(&["monitor", path.to_str().unwrap(), "--format", "xml"]);
    assert!(!ok);
    assert!(stderr.contains("--format"));
}

fn strings(args: &[&str]) -> Vec<String> {
    args.iter().map(|a| a.to_string()).collect()
}

#[test]
fn engine_flags_beat_document_settings_which_beat_defaults() {
    let document = TOPOLOGY.replace(
        "<topology name=\"cli-test\">",
        "<topology name=\"cli-test\">\n  \
         <settings batch-size=\"8\" workers=\"3\" checkpoint-interval=\"100\"/>",
    );
    let settings = runtime_settings_from_xml(&document).unwrap();

    let engine = engine_config(&[], &settings).unwrap();
    assert_eq!(engine.batch_size, 8);
    assert_eq!(engine.executor, ExecutorKind::Pool { workers: 3 });
    assert_eq!(engine.checkpoint_interval, Some(100));

    let flags = strings(&["--batch", "16", "--workers", "2", "--checkpoint", "50"]);
    let engine = engine_config(&flags, &settings).unwrap();
    assert_eq!(engine.batch_size, 16);
    assert_eq!(engine.executor, ExecutorKind::Pool { workers: 2 });
    assert_eq!(engine.checkpoint_interval, Some(50));
    let off = engine_config(&strings(&["--checkpoint", "0"]), &settings).unwrap();
    assert_eq!(off.checkpoint_interval, None);

    let engine = engine_config(&[], &RuntimeSettings::default()).unwrap();
    let default = EngineConfig::default();
    assert_eq!(default.batch_size, 64);
    assert_eq!(engine.batch_size, default.batch_size);
    assert_eq!(engine.executor, ExecutorKind::Pool { workers: 0 });
    assert_eq!(engine.checkpoint_interval, None);
}

#[test]
fn malformed_engine_flags_are_rejected_alike_by_every_subcommand() {
    let path = topology_file();
    let file = path.to_str().unwrap();
    let with_document = [
        "analyze", "optimize", "fuse", "autofuse", "codegen", "run", "chaos", "monitor", "inspect",
        "dot",
    ];
    let cases: [(&str, &str, &str, &[&str]); 3] = [
        (
            "--batch",
            "0",
            "--batch must be a positive integer",
            &["serve"],
        ),
        (
            "--workers",
            "x",
            "--workers must be a non-negative integer (0 = one per core)",
            &["serve", "oracle"],
        ),
        (
            "--pin-cores",
            "a",
            "--pin-cores: bad core id \"a\" in pin-cores list",
            &["oracle"],
        ),
    ];
    for (flag, value, message, without_document) in cases {
        let mut invocations: Vec<Vec<&str>> = with_document
            .iter()
            .map(|cmd| vec![*cmd, file, flag, value])
            .collect();
        invocations.extend(without_document.iter().map(|cmd| vec![*cmd, flag, value]));
        for args in invocations {
            let (_, stderr, ok) = run_cli(&args);
            assert!(!ok, "{args:?} was accepted");
            assert_eq!(stderr.trim(), message, "{args:?}");
        }
    }
}

#[test]
fn malformed_typed_flags_exit_with_a_message_naming_the_flag() {
    let path = topology_file();
    let file = path.to_str().unwrap();
    let positive = "must be a positive integer";
    let count = "must be a non-negative integer";
    // (arguments, the whole of stderr after the flag name)
    let cases: &[(&[&str], &str)] = &[
        (&["run", file, "--items", "banana"], positive),
        (&["chaos", file, "--items", "0"], positive),
        (&["monitor", file, "--items", "-1"], positive),
        (&["inspect", file, "--items", "1e3"], positive),
        (&["serve", "--items", "0"], positive),
        (&["monitor", file, "--interval-ms", "fast"], count),
        (&["inspect", file, "--span-sample", "x"], count),
        (&["inspect", file, "--min-samples", "x"], count),
        (&["optimize", file, "--max-replicas", "0"], positive),
        (
            &["fuse", file, "--members", "1,x"],
            "must be a comma-separated list of operator ids",
        ),
        (
            &["autofuse", file, "--threshold", "x"],
            "must be a positive number",
        ),
        (&["chaos", file, "--seed", "x"], count),
        (&["run", file, "--adaptive", "--seed", "-3"], count),
        (
            &["chaos", file, "--panic-prob", "x"],
            "must be a number in [0, 1]",
        ),
        (&["chaos", file, "--crash-at-epoch", "0"], positive),
        (&["chaos", file, "--crash-after-tuples", "x"], positive),
        (
            &["run", file, "--adaptive", "--drift-threshold", "0"],
            "must be a positive number",
        ),
        (
            &["run", file, "--adaptive", "--cooldown", "x"],
            "must be a non-negative integer (ticks)",
        ),
        (
            &["run", file, "--adaptive", "--hysteresis", "-1"],
            "must be a non-negative number",
        ),
        (
            &["run", file, "--adaptive", "--max-replicas", "0"],
            positive,
        ),
        (&["run", file, "--adaptive", "--min-samples", "x"], count),
        (&["oracle", "--seeds", "0"], positive),
        (&["oracle", "--seed-start", "x"], count),
        (
            &["oracle", "--adaptation-seeds", "1,x"],
            "must be a comma-separated list of integers",
        ),
        (
            &["oracle", "--multitenant-seeds", ""],
            "must be a comma-separated list of integers",
        ),
    ];
    for (args, tail) in cases {
        let flag = args.iter().rev().nth(1).unwrap();
        let (_, stderr, ok) = run_cli(args);
        assert!(!ok, "{args:?} was accepted");
        assert_eq!(stderr.trim(), format!("{flag} {tail}"), "{args:?}");
    }

    // The serving shell's WEIGHT is checked the same way: the bad line
    // fails, the shell goes on, and the exit status reports the failure.
    let script = path.with_extension("serve");
    std::fs::write(&script, format!("submit t {file} heavy\nquit\n")).unwrap();
    let (_, stderr, ok) = run_cli(&["serve", "--script", script.to_str().unwrap()]);
    let _ = std::fs::remove_file(&script);
    assert!(!ok);
    assert!(
        stderr.contains("WEIGHT must be a non-negative integer, got \"heavy\""),
        "{stderr}"
    );
}
