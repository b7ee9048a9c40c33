//! The topology XML schema (§4.1).
//!
//! ```xml
//! <topology name="...">
//!   <operator id="0" name="source" kind="source" type="stateless"
//!             service-time="1.0" time-unit="ms">
//!     <selectivity input="1" output="1"/>
//!     <param name="window" value="100"/>
//!   </operator>
//!   <operator id="1" name="agg" kind="keyed-sum" type="partitioned-stateful" ...>
//!     <keys>
//!       <key frequency="0.5"/>
//!       ...
//!     </keys>
//!   </operator>
//!   <edge from="0" to="1" probability="1.0"/>
//! </topology>
//! ```

use crate::{parse, XmlError, XmlNode};
use spinstreams_core::{
    KeyDistribution, OperatorId, OperatorSpec, Selectivity, ServiceTime, StateClass, Topology,
    TopologyError,
};
use std::fmt;

/// Errors raised when interpreting a parsed document as a topology.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SchemaError {
    /// The document is not well-formed XML.
    Xml(XmlError),
    /// An element or attribute required by the schema is missing or
    /// malformed.
    Invalid {
        /// Description of the problem.
        reason: String,
    },
    /// The described topology violates the structural constraints.
    Topology(TopologyError),
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaError::Xml(e) => write!(f, "{e}"),
            SchemaError::Invalid { reason } => write!(f, "invalid topology document: {reason}"),
            SchemaError::Topology(e) => write!(f, "invalid topology: {e}"),
        }
    }
}

impl std::error::Error for SchemaError {}

impl From<XmlError> for SchemaError {
    fn from(e: XmlError) -> Self {
        SchemaError::Xml(e)
    }
}

impl From<TopologyError> for SchemaError {
    fn from(e: TopologyError) -> Self {
        SchemaError::Topology(e)
    }
}

fn invalid(reason: impl Into<String>) -> SchemaError {
    SchemaError::Invalid {
        reason: reason.into(),
    }
}

/// Adaptive re-optimization knobs carried on the `<settings>` element.
///
/// Present only when the document opts in with `adaptive="true"`; every
/// knob is optional and `None` defers to the controller's default:
///
/// ```xml
/// <settings adaptive="true" drift-threshold="0.25" adaptive-cooldown="4"
///           adaptive-hysteresis="0.05" adaptive-max-replicas="16"
///           adaptive-min-samples="200"/>
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AdaptiveSettings {
    /// Relative-error threshold above which an annotation counts as
    /// drifting (`drift-threshold`, in `(0, +inf)`).
    pub drift_threshold: Option<f64>,
    /// Telemetry ticks to ignore after a migration or baseline rebase
    /// before re-arming the drift monitor (`adaptive-cooldown`).
    pub cooldown_ticks: Option<u64>,
    /// Minimum relative predicted-throughput gain a new plan must show
    /// before the controller migrates (`adaptive-hysteresis`, `>= 0`).
    pub hysteresis: Option<f64>,
    /// Total replica budget handed to Algorithm 2's bound
    /// (`adaptive-max-replicas`, positive).
    pub max_replicas: Option<usize>,
    /// Items an operator must have processed inside the profiling window
    /// before its re-profiled annotations are trusted
    /// (`adaptive-min-samples`).
    pub min_samples: Option<u64>,
}

/// Optional runtime tuning carried by a topology document in a
/// `<settings .../>` child of `<topology>`.
///
/// The element is additive: [`topology_from_xml`] ignores it entirely, so
/// documents with settings parse under older readers and documents without
/// it yield all-`None` settings.
///
/// ```xml
/// <topology name="...">
///   <settings batch-size="64" workers="4" checkpoint-interval="1000"
///             pin-cores="0,1,2,3"/>
///   ...
/// </topology>
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RuntimeSettings {
    /// Envelope batch size for the threaded engine's coalesced data path
    /// (`EngineConfig::batch_size`); `None` leaves the engine default.
    pub batch_size: Option<usize>,
    /// Worker-pool thread count (`EngineConfig::executor =
    /// Pool { workers }`); `0` means auto (available parallelism), `None`
    /// leaves the engine default (also one per core).
    pub workers: Option<usize>,
    /// Epoch-aligned checkpoint cadence in source items
    /// (`EngineConfig::checkpoint_interval`); `None` disables
    /// checkpointing (the default).
    pub checkpoint_interval: Option<u64>,
    /// Cores to pin engine threads onto, in stage order
    /// (`EngineConfig::pinning`); `None` leaves pinning off. Pinning is
    /// best-effort: on platforms without affinity support the engine warns
    /// once and runs unpinned.
    pub pin_cores: Option<Vec<usize>>,
    /// Adaptive re-optimization opt-in plus its knobs
    /// (`adaptive="true"` on `<settings>`); `None` keeps the closed-loop
    /// controller off.
    pub adaptive: Option<AdaptiveSettings>,
}

/// Extracts the optional [`RuntimeSettings`] from a topology document.
///
/// # Errors
///
/// [`SchemaError::Xml`] for malformed XML, [`SchemaError::Invalid`] when a
/// `<settings>` attribute is present but malformed (e.g. a non-numeric or
/// zero `batch-size`).
pub fn runtime_settings_from_xml(text: &str) -> Result<RuntimeSettings, SchemaError> {
    let root = parse(text)?;
    if root.name != "topology" {
        return Err(invalid(format!("root element is <{}>", root.name)));
    }
    let mut settings = RuntimeSettings::default();
    for node in root.children_named("settings") {
        if let Some(raw) = node.get_attr("batch-size") {
            let n = raw
                .parse::<usize>()
                .ok()
                .filter(|n| *n > 0)
                .ok_or_else(|| invalid(format!("batch-size={raw:?} is not a positive integer")))?;
            settings.batch_size = Some(n);
        }
        if let Some(raw) = node.get_attr("workers") {
            // `workers="0"` is valid: it selects the pool executor with an
            // auto-resolved (available-parallelism) thread count.
            let n = raw
                .parse::<usize>()
                .map_err(|_| invalid(format!("workers={raw:?} is not a non-negative integer")))?;
            settings.workers = Some(n);
        }
        if let Some(raw) = node.get_attr("checkpoint-interval") {
            let n = raw.parse::<u64>().ok().filter(|n| *n > 0).ok_or_else(|| {
                invalid(format!(
                    "checkpoint-interval={raw:?} is not a positive integer"
                ))
            })?;
            settings.checkpoint_interval = Some(n);
        }
        if let Some(raw) = node.get_attr("pin-cores") {
            // Same grammar as the CLI's --pin-cores: a non-empty
            // comma-separated list of distinct core ids.
            let mut cores = Vec::new();
            for part in raw.split(',') {
                let part = part.trim();
                let core = part
                    .parse::<usize>()
                    .map_err(|_| invalid(format!("pin-cores={raw:?}: bad core id {part:?}")))?;
                if cores.contains(&core) {
                    return Err(invalid(format!("pin-cores={raw:?}: core {core} repeated")));
                }
                cores.push(core);
            }
            if cores.is_empty() {
                return Err(invalid("pin-cores is empty".to_string()));
            }
            settings.pin_cores = Some(cores);
        }
        let enabled = match node.get_attr("adaptive") {
            None => false,
            Some("true") => true,
            Some("false") => false,
            Some(raw) => {
                return Err(invalid(format!(
                    "adaptive={raw:?} is not \"true\" or \"false\""
                )))
            }
        };
        let mut adaptive = AdaptiveSettings::default();
        let mut any_knob = false;
        if let Some(raw) = node.get_attr("drift-threshold") {
            let v = raw
                .parse::<f64>()
                .ok()
                .filter(|v| v.is_finite() && *v > 0.0)
                .ok_or_else(|| {
                    invalid(format!("drift-threshold={raw:?} is not a positive number"))
                })?;
            adaptive.drift_threshold = Some(v);
            any_knob = true;
        }
        if let Some(raw) = node.get_attr("adaptive-cooldown") {
            let v = raw.parse::<u64>().map_err(|_| {
                invalid(format!(
                    "adaptive-cooldown={raw:?} is not a non-negative integer"
                ))
            })?;
            adaptive.cooldown_ticks = Some(v);
            any_knob = true;
        }
        if let Some(raw) = node.get_attr("adaptive-hysteresis") {
            let v = raw
                .parse::<f64>()
                .ok()
                .filter(|v| v.is_finite() && *v >= 0.0)
                .ok_or_else(|| {
                    invalid(format!(
                        "adaptive-hysteresis={raw:?} is not a non-negative number"
                    ))
                })?;
            adaptive.hysteresis = Some(v);
            any_knob = true;
        }
        if let Some(raw) = node.get_attr("adaptive-max-replicas") {
            let v = raw
                .parse::<usize>()
                .ok()
                .filter(|v| *v > 0)
                .ok_or_else(|| {
                    invalid(format!(
                        "adaptive-max-replicas={raw:?} is not a positive integer"
                    ))
                })?;
            adaptive.max_replicas = Some(v);
            any_knob = true;
        }
        if let Some(raw) = node.get_attr("adaptive-min-samples") {
            let v = raw.parse::<u64>().map_err(|_| {
                invalid(format!(
                    "adaptive-min-samples={raw:?} is not a non-negative integer"
                ))
            })?;
            adaptive.min_samples = Some(v);
            any_knob = true;
        }
        if enabled {
            settings.adaptive = Some(adaptive);
        } else if any_knob {
            // Knobs without the opt-in are almost certainly a typo'd
            // `adaptive="true"`; fail loudly instead of silently running
            // a static plan.
            return Err(invalid(
                "adaptive-* knobs present but adaptive=\"true\" is not set",
            ));
        }
    }
    Ok(settings)
}

/// Serializes a topology with explicit [`RuntimeSettings`]: the regular
/// [`topology_to_xml`] document plus a `<settings/>` element (omitted when
/// every setting is `None`, so the output stays byte-identical to the
/// plain serializer in that case).
pub fn topology_to_xml_with_settings(
    topo: &Topology,
    name: &str,
    settings: &RuntimeSettings,
) -> String {
    let mut attrs = String::new();
    if let Some(batch) = settings.batch_size {
        attrs.push_str(&format!(" batch-size=\"{batch}\""));
    }
    if let Some(workers) = settings.workers {
        attrs.push_str(&format!(" workers=\"{workers}\""));
    }
    if let Some(interval) = settings.checkpoint_interval {
        attrs.push_str(&format!(" checkpoint-interval=\"{interval}\""));
    }
    if let Some(cores) = &settings.pin_cores {
        let list = cores
            .iter()
            .map(usize::to_string)
            .collect::<Vec<_>>()
            .join(",");
        attrs.push_str(&format!(" pin-cores=\"{list}\""));
    }
    if let Some(adaptive) = &settings.adaptive {
        attrs.push_str(" adaptive=\"true\"");
        if let Some(v) = adaptive.drift_threshold {
            attrs.push_str(&format!(" drift-threshold=\"{v}\""));
        }
        if let Some(v) = adaptive.cooldown_ticks {
            attrs.push_str(&format!(" adaptive-cooldown=\"{v}\""));
        }
        if let Some(v) = adaptive.hysteresis {
            attrs.push_str(&format!(" adaptive-hysteresis=\"{v}\""));
        }
        if let Some(v) = adaptive.max_replicas {
            attrs.push_str(&format!(" adaptive-max-replicas=\"{v}\""));
        }
        if let Some(v) = adaptive.min_samples {
            attrs.push_str(&format!(" adaptive-min-samples=\"{v}\""));
        }
    }
    if attrs.is_empty() {
        return topology_to_xml(topo, name);
    }
    let doc = topology_to_xml(topo, name);
    // Insert <settings/> right after the opening <topology ...> tag so the
    // document shape matches the schema example (the document begins with
    // an XML declaration, so search from the root element).
    let insert_at = doc
        .find("<topology")
        .and_then(|start| doc[start..].find('>').map(|off| start + off));
    match insert_at {
        Some(end) => format!("{}\n  <settings{attrs}/>{}", &doc[..=end], &doc[end + 1..]),
        None => doc,
    }
}

/// Serializes a full *scenario* — a topology plus the source stream's
/// key-frequency distribution — into one self-contained document.
///
/// The output is the regular [`topology_to_xml`] document with an extra
/// `<source-keys>` child holding one `<key frequency="…"/>` per key. The
/// element is additive: [`topology_from_xml`] ignores it, so scenario
/// documents still parse as plain topologies. The differential oracle uses
/// this to dump minimized counterexamples that reproduce byte-for-byte.
pub fn scenario_to_xml(
    topo: &Topology,
    name: &str,
    source_keys: Option<&KeyDistribution>,
) -> String {
    let Some(keys) = source_keys else {
        return topology_to_xml(topo, name);
    };
    let mut keys_node = XmlNode::new("source-keys");
    for f in keys.frequencies() {
        keys_node = keys_node.child(XmlNode::new("key").attr("frequency", format!("{f:e}")));
    }
    let doc = topology_to_xml(topo, name);
    // Insert after the opening <topology ...> tag, like the settings writer.
    let insert_at = doc
        .find("<topology")
        .and_then(|start| doc[start..].find('>').map(|off| start + off));
    match insert_at {
        Some(end) => {
            // Indent the fragment two spaces to match the document body.
            let fragment = keys_node
                .to_xml()
                .lines()
                .map(|l| format!("  {l}"))
                .collect::<Vec<_>>()
                .join("\n");
            format!("{}\n{fragment}{}", &doc[..=end], &doc[end + 1..])
        }
        None => doc,
    }
}

/// Parses a scenario document written by [`scenario_to_xml`]: the topology
/// plus the optional source key distribution (`None` when the document has
/// no `<source-keys>` element, i.e. it is a plain topology).
///
/// # Errors
///
/// As [`topology_from_xml`], plus [`SchemaError::Invalid`] for a malformed
/// `<source-keys>` distribution.
pub fn scenario_from_xml(text: &str) -> Result<(Topology, Option<KeyDistribution>), SchemaError> {
    let topo = topology_from_xml(text)?;
    let root = parse(text)?;
    let keys = match root.first_child("source-keys") {
        None => None,
        Some(node) => {
            let freqs: Result<Vec<f64>, SchemaError> = node
                .children_named("key")
                .map(|k| num_attr(k, "frequency"))
                .collect();
            Some(
                KeyDistribution::new(freqs?)
                    .ok_or_else(|| invalid("invalid source-keys frequency distribution"))?,
            )
        }
    };
    Ok((topo, keys))
}

/// Serializes a topology into the XML formalism.
///
/// Service times are written in microseconds (`time-unit="us"`); key
/// distributions and parameters are written in full, so the document
/// round-trips losslessly through [`topology_from_xml`].
pub fn topology_to_xml(topo: &Topology, name: &str) -> String {
    let mut root = XmlNode::new("topology").attr("name", name);
    for id in topo.operator_ids() {
        let op = topo.operator(id);
        let ty = match &op.state {
            StateClass::Stateless => "stateless",
            StateClass::PartitionedStateful { .. } => "partitioned-stateful",
            StateClass::Stateful => "stateful",
        };
        let mut node = XmlNode::new("operator")
            .attr("id", id.0)
            .attr("name", &op.name)
            .attr("type", ty)
            .attr("service-time", format!("{:e}", op.service_time.as_micros()))
            .attr("time-unit", "us");
        if !op.kind.is_empty() {
            node = node.attr("kind", &op.kind);
        }
        if !op.selectivity.is_identity() {
            node = node.child(
                XmlNode::new("selectivity")
                    .attr("input", format!("{:e}", op.selectivity.input))
                    .attr("output", format!("{:e}", op.selectivity.output)),
            );
        }
        if let StateClass::PartitionedStateful { keys } = &op.state {
            let mut keys_node = XmlNode::new("keys");
            for f in keys.frequencies() {
                keys_node =
                    keys_node.child(XmlNode::new("key").attr("frequency", format!("{f:e}")));
            }
            node = node.child(keys_node);
        }
        for (k, v) in &op.params {
            node = node.child(
                XmlNode::new("param")
                    .attr("name", k)
                    .attr("value", format!("{v:e}")),
            );
        }
        root = root.child(node);
    }
    for e in topo.edges() {
        root = root.child(
            XmlNode::new("edge")
                .attr("from", e.from.0)
                .attr("to", e.to.0)
                .attr("probability", format!("{:e}", e.probability)),
        );
    }
    root.to_xml_document()
}

fn req_attr<'a>(node: &'a XmlNode, key: &str) -> Result<&'a str, SchemaError> {
    node.get_attr(key)
        .ok_or_else(|| invalid(format!("<{}> missing attribute {key:?}", node.name)))
}

fn num_attr(node: &XmlNode, key: &str) -> Result<f64, SchemaError> {
    let raw = req_attr(node, key)?;
    raw.parse::<f64>()
        .map_err(|_| invalid(format!("attribute {key}={raw:?} is not a number")))
}

/// A required attribute naming an operator: a non-negative integer.
fn id_attr(node: &XmlNode, key: &str) -> Result<usize, SchemaError> {
    let raw = req_attr(node, key)?;
    raw.parse::<usize>().map_err(|_| {
        invalid(format!(
            "attribute {key}={raw:?} is not a non-negative integer"
        ))
    })
}

/// Parses a topology document produced by [`topology_to_xml`] (or written
/// by hand following the schema).
///
/// # Errors
///
/// [`SchemaError::Xml`] for malformed XML, [`SchemaError::Invalid`] for
/// schema violations, [`SchemaError::Topology`] if the described graph
/// fails the §3.1 structural validation.
pub fn topology_from_xml(text: &str) -> Result<Topology, SchemaError> {
    let root = parse(text)?;
    if root.name != "topology" {
        return Err(invalid(format!("root element is <{}>", root.name)));
    }
    let mut ops: Vec<(usize, OperatorSpec)> = Vec::new();
    for node in root.children_named("operator") {
        let id = id_attr(node, "id")?;
        let name = req_attr(node, "name")?.to_string();
        let raw_time = num_attr(node, "service-time")?;
        if !(raw_time.is_finite() && raw_time >= 0.0) {
            return Err(invalid(format!(
                "attribute service-time={raw_time} must be a finite non-negative number"
            )));
        }
        let unit = node.get_attr("time-unit").unwrap_or("us");
        let service_time = match unit {
            "s" => ServiceTime::from_secs(raw_time),
            "ms" => ServiceTime::from_millis(raw_time),
            "us" => ServiceTime::from_micros(raw_time),
            "ns" => ServiceTime::from_micros(raw_time / 1e3),
            other => return Err(invalid(format!("unknown time-unit {other:?}"))),
        };
        let ty = req_attr(node, "type")?;
        let state = match ty {
            "stateless" => StateClass::Stateless,
            "stateful" => StateClass::Stateful,
            "partitioned-stateful" => {
                let keys_node = node
                    .first_child("keys")
                    .ok_or_else(|| invalid("partitioned-stateful operator without <keys>"))?;
                let freqs: Result<Vec<f64>, SchemaError> = keys_node
                    .children_named("key")
                    .map(|k| num_attr(k, "frequency"))
                    .collect();
                let keys = KeyDistribution::new(freqs?)
                    .ok_or_else(|| invalid("invalid key frequency distribution"))?;
                StateClass::PartitionedStateful { keys }
            }
            other => return Err(invalid(format!("unknown operator type {other:?}"))),
        };
        let mut spec = OperatorSpec {
            name,
            service_time,
            state,
            selectivity: Selectivity::ONE,
            kind: node.get_attr("kind").unwrap_or("").to_string(),
            params: Default::default(),
        };
        if let Some(sel) = node.first_child("selectivity") {
            spec.selectivity = Selectivity {
                input: num_attr(sel, "input")?,
                output: num_attr(sel, "output")?,
            };
        }
        for p in node.children_named("param") {
            spec.params
                .insert(req_attr(p, "name")?.to_string(), num_attr(p, "value")?);
        }
        ops.push((id, spec));
    }
    ops.sort_by_key(|(id, _)| *id);
    for (expect, (id, _)) in ops.iter().enumerate() {
        if *id != expect {
            return Err(invalid(format!(
                "operator ids must be dense, missing id {expect}"
            )));
        }
    }

    let mut b = Topology::builder();
    for (_, spec) in ops {
        b.add_operator(spec);
    }
    for node in root.children_named("edge") {
        let from = id_attr(node, "from")?;
        let to = id_attr(node, "to")?;
        let p = num_attr(node, "probability")?;
        b.add_edge(OperatorId(from), OperatorId(to), p)?;
    }
    Ok(b.build()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Topology {
        let mut b = Topology::builder();
        let s = b.add_operator(
            OperatorSpec::source("src", ServiceTime::from_millis(0.5)).with_kind("source"),
        );
        let f = b.add_operator(
            OperatorSpec::stateless("filter", ServiceTime::from_micros(80.0))
                .with_kind("filter")
                .with_selectivity(Selectivity::output(0.4))
                .with_param("threshold", 0.4),
        );
        let a = b.add_operator(
            OperatorSpec::partitioned(
                "agg",
                ServiceTime::from_micros(120.0),
                KeyDistribution::zipf(8, 1.3),
            )
            .with_kind("keyed-sum")
            .with_selectivity(Selectivity::input(10.0))
            .with_param("window", 100.0)
            .with_param("slide", 10.0),
        );
        let k = b.add_operator(OperatorSpec::stateful(
            "join",
            ServiceTime::from_micros(200.0),
        ));
        b.add_edge(s, f, 1.0).unwrap();
        b.add_edge(f, a, 0.7).unwrap();
        b.add_edge(f, k, 0.3).unwrap();
        b.add_edge(a, k, 1.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn scenario_roundtrip_preserves_topology_and_keys() {
        let t = sample();
        let keys = KeyDistribution::zipf(12, 0.8);
        let xml = scenario_to_xml(&t, "scen", Some(&keys));
        let (back, back_keys) = scenario_from_xml(&xml).unwrap();
        assert_eq!(t, back);
        assert_eq!(back_keys.as_ref(), Some(&keys));
        // The scenario document still parses as a plain topology.
        assert_eq!(topology_from_xml(&xml).unwrap(), t);
        // Without keys the document is byte-identical to the plain writer.
        assert_eq!(
            scenario_to_xml(&t, "scen", None),
            topology_to_xml(&t, "scen")
        );
        let (_, none_keys) = scenario_from_xml(&topology_to_xml(&t, "scen")).unwrap();
        assert!(none_keys.is_none());
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let t = sample();
        let xml = topology_to_xml(&t, "sample");
        let back = topology_from_xml(&xml).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn document_contains_schema_elements() {
        let xml = topology_to_xml(&sample(), "sample");
        assert!(xml.contains("<topology name=\"sample\">"));
        assert!(xml.contains("type=\"partitioned-stateful\""));
        assert!(xml.contains("<keys>"));
        assert!(xml.contains("<selectivity"));
        assert!(xml.contains("<param name=\"slide\""));
        assert!(xml.contains("probability=\"7e-1\""));
    }

    #[test]
    fn parses_hand_written_document_with_units() {
        let doc = r#"
            <topology name="hand">
              <operator id="0" name="src" type="stateless" service-time="1" time-unit="ms"/>
              <operator id="1" name="sink" type="stateless" service-time="0.0005" time-unit="s"/>
              <edge from="0" to="1" probability="1.0"/>
            </topology>"#;
        let t = topology_from_xml(doc).unwrap();
        assert_eq!(t.num_operators(), 2);
        assert!((t.operator(OperatorId(0)).service_time.as_millis() - 1.0).abs() < 1e-12);
        assert!((t.operator(OperatorId(1)).service_time.as_micros() - 500.0).abs() < 1e-9);
    }

    #[test]
    fn schema_errors() {
        // Root element wrong.
        assert!(matches!(
            topology_from_xml("<nope/>").unwrap_err(),
            SchemaError::Invalid { .. }
        ));
        // Missing required attribute.
        let doc = r#"<topology><operator id="0" type="stateless" service-time="1"/></topology>"#;
        assert!(matches!(
            topology_from_xml(doc).unwrap_err(),
            SchemaError::Invalid { .. }
        ));
        // Bad number.
        let doc = r#"<topology><operator id="0" name="a" type="stateless" service-time="xx"/></topology>"#;
        assert!(topology_from_xml(doc).is_err());
        // Non-finite or negative service times.
        for t in ["-400", "NaN", "inf", "-0.5"] {
            let doc = format!(
                r#"<topology><operator id="0" name="a" type="stateless" service-time="{t}"/></topology>"#
            );
            match topology_from_xml(&doc).unwrap_err() {
                SchemaError::Invalid { reason } => {
                    assert!(reason.contains("service-time"), "{reason}")
                }
                other => panic!("service-time={t}: {other:?}"),
            }
        }
        // Unknown type.
        let doc =
            r#"<topology><operator id="0" name="a" type="weird" service-time="1"/></topology>"#;
        assert!(matches!(
            topology_from_xml(doc).unwrap_err(),
            SchemaError::Invalid { .. }
        ));
        // Sparse ids.
        let doc = r#"<topology>
            <operator id="0" name="a" type="stateless" service-time="1"/>
            <operator id="2" name="b" type="stateless" service-time="1"/>
        </topology>"#;
        assert!(matches!(
            topology_from_xml(doc).unwrap_err(),
            SchemaError::Invalid { .. }
        ));
        // Ids and edge endpoints that are not non-negative integers.
        for (attr, doc) in [
            (
                "id",
                r#"<topology><operator id="3.7" name="a" type="stateless" service-time="1"/></topology>"#,
            ),
            (
                "id",
                r#"<topology><operator id="-1" name="a" type="stateless" service-time="1"/></topology>"#,
            ),
            (
                "from",
                r#"<topology>
                <operator id="0" name="a" type="stateless" service-time="1"/>
                <operator id="1" name="b" type="stateless" service-time="1"/>
                <edge from="0.2" to="1" probability="1.0"/>
            </topology>"#,
            ),
            (
                "to",
                r#"<topology>
                <operator id="0" name="a" type="stateless" service-time="1"/>
                <operator id="1" name="b" type="stateless" service-time="1"/>
                <edge from="0" to="1.9" probability="1.0"/>
            </topology>"#,
            ),
        ] {
            match topology_from_xml(doc).unwrap_err() {
                SchemaError::Invalid { reason } => {
                    assert!(reason.contains(&format!("attribute {attr}=")), "{reason}")
                }
                other => panic!("{attr}: {other:?}"),
            }
        }
        // Partitioned without keys.
        let doc = r#"<topology><operator id="0" name="a" type="partitioned-stateful" service-time="1"/></topology>"#;
        assert!(matches!(
            topology_from_xml(doc).unwrap_err(),
            SchemaError::Invalid { .. }
        ));
        // Structural violation (cycle) surfaces as Topology error.
        let doc = r#"<topology>
            <operator id="0" name="a" type="stateless" service-time="1"/>
            <operator id="1" name="b" type="stateless" service-time="1"/>
            <operator id="2" name="c" type="stateless" service-time="1"/>
            <edge from="0" to="1" probability="1.0"/>
            <edge from="1" to="2" probability="1.0"/>
            <edge from="2" to="1" probability="1.0"/>
        </topology>"#;
        assert!(matches!(
            topology_from_xml(doc).unwrap_err(),
            SchemaError::Topology(_)
        ));
        // Malformed XML surfaces as Xml error.
        assert!(matches!(
            topology_from_xml("<topology>").unwrap_err(),
            SchemaError::Xml(_)
        ));
    }

    #[test]
    fn settings_roundtrip_and_are_ignored_by_topology_parse() {
        let t = sample();
        let settings = RuntimeSettings {
            batch_size: Some(64),
            workers: Some(4),
            checkpoint_interval: Some(1_000),
            pin_cores: Some(vec![0, 2, 1]),
            adaptive: None,
        };
        let xml = topology_to_xml_with_settings(&t, "sample", &settings);
        assert!(xml.contains(
            "<settings batch-size=\"64\" workers=\"4\" checkpoint-interval=\"1000\" \
             pin-cores=\"0,2,1\"/>"
        ));
        // The settings element is invisible to the topology parser...
        let back = topology_from_xml(&xml).unwrap();
        assert_eq!(t, back);
        // ...and round-trips through the settings parser.
        assert_eq!(runtime_settings_from_xml(&xml).unwrap(), settings);
        // Each attribute also stands alone.
        let batch_only = RuntimeSettings {
            batch_size: Some(8),
            ..RuntimeSettings::default()
        };
        let xml = topology_to_xml_with_settings(&t, "sample", &batch_only);
        assert!(xml.contains("<settings batch-size=\"8\"/>"));
        assert_eq!(runtime_settings_from_xml(&xml).unwrap(), batch_only);
        let workers_only = RuntimeSettings {
            workers: Some(0), // 0 = auto-resolved pool
            ..RuntimeSettings::default()
        };
        let xml = topology_to_xml_with_settings(&t, "sample", &workers_only);
        assert!(xml.contains("<settings workers=\"0\"/>"));
        assert_eq!(runtime_settings_from_xml(&xml).unwrap(), workers_only);
        let checkpoint_only = RuntimeSettings {
            checkpoint_interval: Some(500),
            ..RuntimeSettings::default()
        };
        let xml = topology_to_xml_with_settings(&t, "sample", &checkpoint_only);
        assert!(xml.contains("<settings checkpoint-interval=\"500\"/>"));
        assert_eq!(runtime_settings_from_xml(&xml).unwrap(), checkpoint_only);
        let pin_only = RuntimeSettings {
            pin_cores: Some(vec![3]),
            ..RuntimeSettings::default()
        };
        let xml = topology_to_xml_with_settings(&t, "sample", &pin_only);
        assert!(xml.contains("<settings pin-cores=\"3\"/>"));
        assert_eq!(runtime_settings_from_xml(&xml).unwrap(), pin_only);
        // No settings: serializer emits the plain document, parser yields
        // defaults.
        let plain = topology_to_xml_with_settings(&t, "sample", &RuntimeSettings::default());
        assert_eq!(plain, topology_to_xml(&t, "sample"));
        assert_eq!(
            runtime_settings_from_xml(&plain).unwrap(),
            RuntimeSettings::default()
        );
    }

    #[test]
    fn adaptive_settings_roundtrip() {
        let t = sample();
        // Full knob set round-trips.
        let settings = RuntimeSettings {
            checkpoint_interval: Some(500),
            adaptive: Some(AdaptiveSettings {
                drift_threshold: Some(0.25),
                cooldown_ticks: Some(4),
                hysteresis: Some(0.05),
                max_replicas: Some(16),
                min_samples: Some(200),
            }),
            ..RuntimeSettings::default()
        };
        let xml = topology_to_xml_with_settings(&t, "sample", &settings);
        assert!(xml.contains(
            "adaptive=\"true\" drift-threshold=\"0.25\" adaptive-cooldown=\"4\" \
             adaptive-hysteresis=\"0.05\" adaptive-max-replicas=\"16\" \
             adaptive-min-samples=\"200\""
        ));
        assert_eq!(runtime_settings_from_xml(&xml).unwrap(), settings);
        // Bare opt-in: all knobs default.
        let bare = RuntimeSettings {
            adaptive: Some(AdaptiveSettings::default()),
            ..RuntimeSettings::default()
        };
        let xml = topology_to_xml_with_settings(&t, "sample", &bare);
        assert!(xml.contains("<settings adaptive=\"true\"/>"));
        assert_eq!(runtime_settings_from_xml(&xml).unwrap(), bare);
        // Explicit opt-out parses as no adaptive settings.
        let doc = r#"<topology name="t">
             <settings adaptive="false"/>
             <operator id="0" name="src" type="stateless" service-time="1"/>
           </topology>"#;
        assert_eq!(runtime_settings_from_xml(doc).unwrap().adaptive, None);
    }

    #[test]
    fn malformed_adaptive_settings_are_rejected() {
        let wrap = |attrs: &str| {
            format!(
                r#"<topology name="t">
                     <settings {attrs}/>
                     <operator id="0" name="src" type="stateless" service-time="1"/>
                   </topology>"#
            )
        };
        for attrs in [
            "adaptive=\"yes\"",
            "adaptive=\"true\" drift-threshold=\"0\"",
            "adaptive=\"true\" drift-threshold=\"nan\"",
            "adaptive=\"true\" adaptive-hysteresis=\"-0.1\"",
            "adaptive=\"true\" adaptive-max-replicas=\"0\"",
            "adaptive=\"true\" adaptive-cooldown=\"-1\"",
            "adaptive=\"true\" adaptive-min-samples=\"abc\"",
            // Knobs without the opt-in are a configuration error.
            "drift-threshold=\"0.5\"",
        ] {
            assert!(
                matches!(
                    runtime_settings_from_xml(&wrap(attrs)).unwrap_err(),
                    SchemaError::Invalid { .. }
                ),
                "expected rejection for {attrs}"
            );
        }
    }

    #[test]
    fn malformed_settings_are_rejected() {
        for bad in ["0", "-3", "abc"] {
            let doc = format!(
                r#"<topology name="t">
                     <settings batch-size="{bad}"/>
                     <operator id="0" name="src" type="stateless" service-time="1"/>
                   </topology>"#
            );
            assert!(
                matches!(
                    runtime_settings_from_xml(&doc).unwrap_err(),
                    SchemaError::Invalid { .. }
                ),
                "batch-size {bad:?} must be rejected"
            );
            // The topology itself still parses: settings stay additive.
            assert!(topology_from_xml(&doc).is_ok());
        }
        // workers accepts 0 (auto) but rejects non-integers.
        for bad in ["-1", "four", "2.5"] {
            let doc = format!(
                r#"<topology name="t">
                     <settings workers="{bad}"/>
                     <operator id="0" name="src" type="stateless" service-time="1"/>
                   </topology>"#
            );
            assert!(
                matches!(
                    runtime_settings_from_xml(&doc).unwrap_err(),
                    SchemaError::Invalid { .. }
                ),
                "workers {bad:?} must be rejected"
            );
        }
        // pin-cores must be a non-empty list of distinct core ids.
        for bad in ["", "a,b", "1,1", "-1", "0,"] {
            let doc = format!(
                r#"<topology name="t">
                     <settings pin-cores="{bad}"/>
                     <operator id="0" name="src" type="stateless" service-time="1"/>
                   </topology>"#
            );
            assert!(
                matches!(
                    runtime_settings_from_xml(&doc).unwrap_err(),
                    SchemaError::Invalid { .. }
                ),
                "pin-cores {bad:?} must be rejected"
            );
        }
        // checkpoint-interval must be a positive integer (off = omit it).
        for bad in ["0", "-2", "many"] {
            let doc = format!(
                r#"<topology name="t">
                     <settings checkpoint-interval="{bad}"/>
                     <operator id="0" name="src" type="stateless" service-time="1"/>
                   </topology>"#
            );
            assert!(
                matches!(
                    runtime_settings_from_xml(&doc).unwrap_err(),
                    SchemaError::Invalid { .. }
                ),
                "checkpoint-interval {bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn error_display_variants() {
        let e = SchemaError::Invalid {
            reason: "boom".into(),
        };
        assert!(e.to_string().contains("boom"));
        let e: SchemaError = TopologyError::Cyclic.into();
        assert!(e.to_string().contains("cycle"));
    }
}
