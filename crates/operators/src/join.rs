//! Window joins (§5.1): band joins and equi joins over count-based windows.
//!
//! A join vertex has multiple input edges; in the runtime all upstream
//! streams share the actor's single FIFO mailbox, so the operator assigns
//! each arriving item to a logical *side* (A/B). The side is derived from
//! the tuple key's parity — a deterministic rule that works regardless of
//! which upstream the item came from, mirroring how the paper's randomly
//! generated topologies attach joins to arbitrary operator pairs.

use crate::window::CountWindow;
use spinstreams_core::Tuple;
use spinstreams_runtime::operators::synthetic_work;
use spinstreams_runtime::{Outputs, StateSnapshot, StreamOperator};

/// Band join: emits a match when `|a.values[0] - b.values[0]| <= band` for
/// an item `a` on one side and `b` within the opposite side's window.
///
/// Joins hold cross-stream window state that cannot be partitioned by a
/// single key in general — monolithic *stateful* (not fissionable), exactly
/// the operators that stay bottlenecks in §5.3's "7 out of 50" topologies.
pub struct BandJoin {
    band: f64,
    left: CountWindow,
    right: CountWindow,
    extra_work_ns: u64,
    emitted: u64,
}

impl BandJoin {
    /// Creates a band join with symmetric `length` windows (tumbling
    /// internally by `length`, probe-on-arrival semantics).
    ///
    /// # Panics
    ///
    /// Panics if `band` is negative or not finite.
    pub fn new(band: f64, length: usize, extra_work_ns: u64) -> Self {
        assert!(band.is_finite() && band >= 0.0, "band must be >= 0");
        BandJoin {
            band,
            left: CountWindow::new(length, length),
            right: CountWindow::new(length, length),
            extra_work_ns,
            emitted: 0,
        }
    }

    fn probe(&mut self, item: Tuple, against_left: bool, out: &mut Outputs) {
        let window = if against_left {
            self.left.content()
        } else {
            self.right.content()
        };
        for other in window {
            if (item.values[0] - other.values[0]).abs() <= self.band {
                let mut m = item;
                m.values[1] = other.values[0];
                m.values[2] = (item.values[0] - other.values[0]).abs();
                out.emit_default(m);
                self.emitted += 1;
            }
        }
    }

    /// Total matches emitted so far.
    pub fn matches(&self) -> u64 {
        self.emitted
    }
}

impl StreamOperator for BandJoin {
    fn process(&mut self, item: Tuple, out: &mut Outputs) {
        synthetic_work(self.extra_work_ns);
        let is_left = item.key.is_multiple_of(2);
        if is_left {
            self.probe(item, false, out);
            self.left.push(item);
        } else {
            self.probe(item, true, out);
            self.right.push(item);
        }
    }
    fn name(&self) -> &str {
        "band-join"
    }
    fn reset(&mut self) {
        self.left.clear();
        self.right.clear();
        self.emitted = 0;
    }
    fn snapshot(&mut self) -> Option<StateSnapshot> {
        let mut s = StateSnapshot::new();
        s.push_u64(self.emitted);
        self.left.encode_into(&mut s);
        self.right.encode_into(&mut s);
        Some(s)
    }
    fn restore(&mut self, snapshot: &StateSnapshot) -> bool {
        let mut r = snapshot.reader();
        let Some(emitted) = r.read_u64() else {
            return false;
        };
        self.emitted = emitted;
        self.left.decode_from(&mut r) && self.right.decode_from(&mut r)
    }
}

/// Equi join on the partitioning key over *per-key* count-based windows: an
/// arriving item matches every opposite-side buffered item with the same
/// key.
///
/// The window state is kept per key, so the operator is
/// *partitioned-stateful*: replicas owning disjoint key sets produce
/// exactly the matches the single instance would — a match requires both
/// sides to carry the same key, and each key's windows live wholly on one
/// replica.
pub struct EquiJoin {
    windows: std::collections::HashMap<
        u64,
        (
            std::collections::VecDeque<Tuple>,
            std::collections::VecDeque<Tuple>,
        ),
    >,
    length: usize,
    extra_work_ns: u64,
}

impl EquiJoin {
    /// Creates an equi join with symmetric per-key windows of `length`
    /// items. Sides are derived from `seq` parity (so equal keys can
    /// match).
    ///
    /// # Panics
    ///
    /// Panics if `length` is zero.
    pub fn new(length: usize, extra_work_ns: u64) -> Self {
        assert!(length > 0, "window length must be positive");
        EquiJoin {
            windows: std::collections::HashMap::new(),
            length,
            extra_work_ns,
        }
    }
}

impl StreamOperator for EquiJoin {
    fn process(&mut self, item: Tuple, out: &mut Outputs) {
        synthetic_work(self.extra_work_ns);
        let is_left = item.seq.is_multiple_of(2);
        let (left, right) = self
            .windows
            .entry(item.key)
            .or_insert_with(|| (Default::default(), Default::default()));
        let (own, opposite) = if is_left {
            (left, right)
        } else {
            (right, left)
        };
        // Latest-match (enrichment) semantics: join the arriving item with
        // the most recent same-key item of the opposite side. Emitting one
        // output per probe keeps the selectivity ≤ 1 and the output stream
        // smooth; emitting *every* buffered match would produce same-key
        // bursts that all land on one replica of a partitioned deployment.
        if let Some(other) = opposite.back() {
            let mut m = item;
            m.values[1] = other.values[0];
            out.emit_default(m);
        }
        if own.len() == self.length {
            own.pop_front();
        }
        own.push_back(item);
    }
    fn name(&self) -> &str {
        "equi-join"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(key: u64, seq: u64, v: f64) -> Tuple {
        Tuple::new(key, seq, [v, 0.0, 0.0, 0.0])
    }

    fn drive(op: &mut dyn StreamOperator, inputs: &[Tuple]) -> Vec<Tuple> {
        let mut out = Outputs::new();
        let mut result = Vec::new();
        for x in inputs {
            op.process(*x, &mut out);
            result.extend(out.drain().map(|(_, t)| t));
        }
        result
    }

    #[test]
    fn band_join_matches_within_band() {
        let mut op = BandJoin::new(0.1, 16, 0);
        // Left item (even key) buffered first; right item (odd key) probes.
        let got = drive(&mut op, &[t(0, 0, 0.50), t(1, 1, 0.55)]);
        assert_eq!(got.len(), 1);
        assert!((got[0].values[2] - 0.05).abs() < 1e-12);
        assert_eq!(op.matches(), 1);
    }

    #[test]
    fn band_join_rejects_outside_band() {
        let mut op = BandJoin::new(0.1, 16, 0);
        let got = drive(&mut op, &[t(0, 0, 0.1), t(1, 1, 0.9)]);
        assert!(got.is_empty());
    }

    #[test]
    fn band_join_probes_whole_window() {
        let mut op = BandJoin::new(1.0, 16, 0);
        // Three left items, then one right item within band of all.
        let inputs = vec![t(0, 0, 0.1), t(2, 1, 0.2), t(4, 2, 0.3), t(1, 3, 0.25)];
        let got = drive(&mut op, &inputs);
        assert_eq!(got.len(), 3);
    }

    #[test]
    fn band_join_window_eviction_limits_matches() {
        let mut op = BandJoin::new(1.0, 2, 0);
        // Four left items overflow the 2-slot window; a probe matches ≤ 2.
        let inputs = vec![
            t(0, 0, 0.1),
            t(2, 1, 0.2),
            t(4, 2, 0.3),
            t(6, 3, 0.4),
            t(1, 4, 0.3),
        ];
        let got = drive(&mut op, &inputs);
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn band_join_zero_band_needs_equality() {
        let mut op = BandJoin::new(0.0, 8, 0);
        let got = drive(&mut op, &[t(0, 0, 0.5), t(1, 1, 0.5), t(3, 2, 0.51)]);
        assert_eq!(got.len(), 1);
    }

    #[test]
    #[should_panic(expected = "band must be >= 0")]
    fn negative_band_rejected() {
        BandJoin::new(-1.0, 4, 0);
    }

    #[test]
    fn equi_join_matches_same_key_opposite_sides() {
        let mut op = EquiJoin::new(8, 0);
        // seq 0 (left, key 5), seq 1 (right, key 5) -> one match.
        let got = drive(&mut op, &[t(5, 0, 0.3), t(5, 1, 0.7)]);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].values[1], 0.3);
        // Different key: no match.
        let got = drive(&mut op, &[t(6, 2, 0.1), t(7, 3, 0.2)]);
        assert!(got.is_empty());
    }

    #[test]
    fn names() {
        assert_eq!(BandJoin::new(0.1, 4, 0).name(), "band-join");
        assert_eq!(EquiJoin::new(4, 0).name(), "equi-join");
    }

    #[test]
    fn band_join_snapshot_restore_resumes_identical_outputs() {
        let inputs: Vec<Tuple> = (0..80)
            .map(|i| t(i % 5, i, ((i * 37) % 11) as f64 / 10.0))
            .collect();
        let (head, tail) = inputs.split_at(33);
        let mut original = BandJoin::new(0.15, 6, 0);
        drive(&mut original, head);
        let snap = original.snapshot().expect("band joins snapshot");
        let mut restored = BandJoin::new(0.15, 6, 0);
        assert!(restored.restore(&snap));
        assert_eq!(restored.matches(), original.matches());
        let got = drive(&mut restored, tail);
        assert!(!got.is_empty());
        assert_eq!(got, drive(&mut original, tail));
        assert_eq!(restored.matches(), original.matches());
        // A truncated snapshot is refused.
        assert!(!BandJoin::new(0.15, 6, 0).restore(&StateSnapshot::new()));
    }
}
