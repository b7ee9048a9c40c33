//! The command line's engine settings: one parser for every subcommand
//! that runs the engine.

use spinstreams_runtime::{EngineConfig, ExecutorKind, PinningConfig};
use spinstreams_xml::RuntimeSettings;

/// The value following the flag `name` in `args`, if both are present.
pub fn flag_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Parses `name`'s value when the flag is present; a value that does not
/// parse or fails `valid` is an error naming the flag. Every typed flag of
/// the command line goes through this parser.
///
/// # Errors
///
/// `"{name} must be {expected}"` for a malformed value.
pub fn parse_flag<T: std::str::FromStr>(
    args: &[String],
    name: &str,
    valid: impl Fn(&T) -> bool,
    expected: &str,
) -> Result<Option<T>, String> {
    match flag_value(args, name) {
        None => Ok(None),
        Some(raw) => match raw.parse::<T>() {
            Ok(v) if valid(&v) => Ok(Some(v)),
            _ => Err(format!("{name} must be {expected}")),
        },
    }
}

/// Parses `name`'s comma-separated list when the flag is present. The list
/// must be non-empty and every item must parse: `1,x` is an error, not
/// `[1]`.
///
/// # Errors
///
/// `"{name} must be {expected}"` for a malformed list.
pub fn parse_list_flag<T: std::str::FromStr>(
    args: &[String],
    name: &str,
    expected: &str,
) -> Result<Option<Vec<T>>, String> {
    match flag_value(args, name) {
        None => Ok(None),
        Some(raw) => match raw.split(',').map(|s| s.trim().parse()).collect() {
            Ok(items) if !raw.trim().is_empty() => Ok(Some(items)),
            _ => Err(format!("{name} must be {expected}")),
        },
    }
}

/// The engine settings of a subcommand. Each of `--batch N`,
/// `--workers N`, `--checkpoint N` and `--pin-cores L` beats the matching
/// `<settings>` attribute in `settings`, which beats
/// [`EngineConfig::default`]. `--checkpoint 0` turns checkpointing off.
///
/// # Errors
///
/// A message naming the first flag whose value is malformed.
pub fn engine_config(args: &[String], settings: &RuntimeSettings) -> Result<EngineConfig, String> {
    let mut engine = EngineConfig::default();
    let batch = parse_flag(args, "--batch", |n| *n > 0, "a positive integer")?;
    if let Some(n) = batch.or(settings.batch_size) {
        engine.batch_size = n;
    }
    let workers = parse_flag(
        args,
        "--workers",
        |_| true,
        "a non-negative integer (0 = one per core)",
    )?;
    if let Some(workers) = workers.or(settings.workers) {
        engine.executor = ExecutorKind::Pool { workers };
    }
    let checkpoint = parse_flag(
        args,
        "--checkpoint",
        |_| true,
        "a non-negative integer (0 = off)",
    )?;
    engine.checkpoint_interval = checkpoint
        .or(settings.checkpoint_interval)
        .filter(|n| *n > 0);
    // Pinning is best-effort: on platforms without affinity support the
    // engine warns once and runs unpinned.
    engine.pinning = match flag_value(args, "--pin-cores") {
        Some(raw) => PinningConfig::parse(&raw).map_err(|e| format!("--pin-cores: {e}"))?,
        None => settings
            .pin_cores
            .clone()
            .map(PinningConfig::on_cores)
            .unwrap_or_default(),
    };
    Ok(engine)
}
