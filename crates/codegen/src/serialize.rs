//! Canonical plan serialization and checksums for the plan cache.
//!
//! The serving layer caches optimized plans keyed by a checksum of
//! everything that influences optimization: the topology *structure*
//! (operators, edges), its *annotations* (service times, selectivities,
//! state classes, key distributions, kinds, factory params), and the
//! *settings* the optimizer ran under. Two submissions with the same
//! checksum get the same plan without re-profiling or re-running
//! Algorithms 1–3.
//!
//! Both serializers produce a deterministic line-oriented text form:
//! operators and edges in id order, params in [`BTreeMap`] order, floats in
//! Rust's shortest round-trip notation. Byte equality of
//! [`serialize_plan`] outputs is the test oracle for "the cache returned
//! the identical plan".
//!
//! [`BTreeMap`]: std::collections::BTreeMap

use crate::build::{CodegenOptions, FusionGroup};
use spinstreams_core::{StateClass, Topology};
use std::fmt::Write as _;

/// 64-bit FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// 64-bit FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a checksum of a byte string.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Canonical text form of a topology: structure plus every annotation the
/// optimizer reads.
pub fn serialize_topology(topo: &Topology) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "topology v1 ops={}", topo.num_operators());
    for (i, op) in topo.operators().iter().enumerate() {
        let _ = write!(
            out,
            "op {i} name={} svc_s={} sel_in={} sel_out={} kind={} state=",
            op.name,
            op.service_time.as_secs(),
            op.selectivity.input,
            op.selectivity.output,
            op.kind,
        );
        match &op.state {
            StateClass::Stateless => {
                let _ = write!(out, "stateless");
            }
            StateClass::PartitionedStateful { keys } => {
                let _ = write!(out, "partitioned[");
                for (k, f) in keys.frequencies().iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{f}");
                }
                let _ = write!(out, "]");
            }
            StateClass::Stateful => {
                let _ = write!(out, "stateful");
            }
        }
        for (k, v) in &op.params {
            let _ = write!(out, " p:{k}={v}");
        }
        out.push('\n');
    }
    for e in topo.edges() {
        let _ = writeln!(
            out,
            "edge {}->{} p={}",
            e.from.index(),
            e.to.index(),
            e.probability
        );
    }
    out
}

/// Canonical text form of one *optimized* plan: the topology plus the
/// replica vector, fusion groups, and codegen settings that produced it.
///
/// Deterministic byte-for-byte: same inputs, same string. The serving
/// layer's cache tests compare these strings for identity.
pub fn serialize_plan(
    topo: &Topology,
    replicas: &[usize],
    fusions: &[FusionGroup],
    opts: &CodegenOptions,
) -> String {
    let mut out = serialize_topology(topo);
    let _ = write!(out, "replicas=[");
    for (i, r) in replicas.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{r}");
    }
    let _ = writeln!(out, "]");
    // Fusion groups in a canonical order: by front, then member set.
    let mut groups: Vec<&FusionGroup> = fusions.iter().collect();
    groups.sort_by(|a, b| {
        a.front
            .index()
            .cmp(&b.front.index())
            .then_with(|| a.members.cmp(&b.members))
    });
    for g in groups {
        let _ = write!(out, "fuse front={} members=[", g.front.index());
        for (i, m) in g.members.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}", m.index());
        }
        let _ = writeln!(out, "]");
    }
    let _ = write!(
        out,
        "opts items={} seed={} provision=[",
        opts.items, opts.seed
    );
    for (i, p) in opts.provision.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{p}");
    }
    let _ = writeln!(out, "]");
    out
}

/// Cache key for a submission: checksum of the canonical topology text
/// combined with the optimizer settings text.
pub fn plan_cache_key(topo: &Topology, opts: &CodegenOptions) -> u64 {
    let mut text = serialize_topology(topo);
    let _ = write!(text, "settings items={} seed={}", opts.items, opts.seed);
    checksum(text.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use spinstreams_core::{KeyDistribution, OperatorSpec, Selectivity, ServiceTime};
    use std::collections::BTreeSet;

    fn sample_topology(work_ms: f64) -> Topology {
        let mut b = Topology::builder();
        let src = b.add_operator(OperatorSpec::source("src", ServiceTime::from_millis(0.5)));
        let filt = b.add_operator(
            OperatorSpec::stateless("filter", ServiceTime::from_millis(work_ms))
                .with_selectivity(Selectivity::output(0.75))
                .with_kind("filter")
                .with_param("threshold", 0.25),
        );
        let agg = b.add_operator(OperatorSpec::partitioned(
            "agg",
            ServiceTime::from_millis(1.0),
            KeyDistribution::uniform(4),
        ));
        b.add_edge(src, filt, 1.0).unwrap();
        b.add_edge(filt, agg, 1.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn fnv_vectors() {
        assert_eq!(checksum(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(checksum(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(checksum(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn serialization_is_deterministic() {
        let t = sample_topology(2.0);
        let opts = CodegenOptions::default();
        let groups = vec![FusionGroup {
            members: BTreeSet::from([t.operator_by_name("filter").unwrap()]),
            front: t.operator_by_name("filter").unwrap(),
        }];
        let a = serialize_plan(&t, &[1, 2, 4], &groups, &opts);
        let b = serialize_plan(&sample_topology(2.0), &[1, 2, 4], &groups, &opts);
        assert_eq!(a, b);
        assert_eq!(
            plan_cache_key(&t, &opts),
            plan_cache_key(&sample_topology(2.0), &opts)
        );
    }

    #[test]
    fn annotation_changes_change_the_key() {
        let opts = CodegenOptions::default();
        let base = plan_cache_key(&sample_topology(2.0), &opts);
        assert_ne!(base, plan_cache_key(&sample_topology(2.5), &opts));
        let mut other = opts.clone();
        other.seed ^= 1;
        assert_ne!(base, plan_cache_key(&sample_topology(2.0), &other));
    }

    #[test]
    fn replica_and_fusion_changes_change_the_plan_text() {
        let t = sample_topology(2.0);
        let opts = CodegenOptions::default();
        let a = serialize_plan(&t, &[1, 2, 4], &[], &opts);
        let b = serialize_plan(&t, &[1, 3, 4], &[], &opts);
        assert_ne!(a, b);
        let g = FusionGroup {
            members: BTreeSet::from([t.operator_by_name("filter").unwrap()]),
            front: t.operator_by_name("filter").unwrap(),
        };
        let c = serialize_plan(&t, &[1, 2, 4], &[g], &opts);
        assert_ne!(a, c);
    }
}
