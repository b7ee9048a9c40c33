//! Count-based windowed aggregations (§5.1): weighted moving average, sum,
//! max, min, standard deviation, and quantiles.
//!
//! Each operator triggers once per `slide` inputs over the last `length`
//! items and emits a single aggregate tuple, giving input selectivity
//! `slide` (§3.4). In *keyed* mode the state is one window per key —
//! partitioned-stateful, fissionable by key assignment; in *global* mode
//! there is a single window — monolithic stateful, not fissionable.

use crate::window::{select_as_sorted, CountWindow, KeyedWindows};
use spinstreams_core::Tuple;
use spinstreams_runtime::operators::synthetic_work;
use spinstreams_runtime::{Outputs, StateSnapshot, StreamOperator};

/// The aggregation function applied to a triggered window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregation {
    /// Sum of `values[0]`.
    Sum,
    /// Maximum of `values[0]`.
    Max,
    /// Minimum of `values[0]`.
    Min,
    /// Weighted moving average of `values[0]` with linearly increasing
    /// weights (most recent item weighs most).
    WeightedMovingAverage,
    /// Standard deviation of `values[0]`.
    StdDev,
}

impl Aggregation {
    /// Applies the aggregation to a window, folding oldest first.
    pub fn apply<'a, W>(self, window: W) -> f64
    where
        W: IntoIterator<Item = &'a Tuple>,
        W::IntoIter: Clone + ExactSizeIterator,
    {
        let window = window.into_iter();
        debug_assert!(window.len() > 0);
        match self {
            Aggregation::Sum => window.map(|t| t.values[0]).sum(),
            Aggregation::Max => window
                .map(|t| t.values[0])
                .fold(f64::NEG_INFINITY, f64::max),
            Aggregation::Min => window.map(|t| t.values[0]).fold(f64::INFINITY, f64::min),
            Aggregation::WeightedMovingAverage => {
                let mut num = 0.0;
                let mut den = 0.0;
                for (i, t) in window.enumerate() {
                    let w = (i + 1) as f64;
                    num += w * t.values[0];
                    den += w;
                }
                num / den
            }
            Aggregation::StdDev => {
                let n = window.len() as f64;
                let mean = window.clone().map(|t| t.values[0]).sum::<f64>() / n;
                let var = window.map(|t| (t.values[0] - mean).powi(2)).sum::<f64>() / n;
                var.sqrt()
            }
        }
    }

    /// A short name for diagnostics.
    pub fn label(self) -> &'static str {
        match self {
            Aggregation::Sum => "sum",
            Aggregation::Max => "max",
            Aggregation::Min => "min",
            Aggregation::WeightedMovingAverage => "wma",
            Aggregation::StdDev => "stddev",
        }
    }
}

enum WindowState {
    Keyed(KeyedWindows),
    Global(CountWindow),
}

impl WindowState {
    fn reset(&mut self) {
        match self {
            WindowState::Keyed(kw) => kw.clear(),
            WindowState::Global(w) => w.clear(),
        }
    }

    /// Tag + payload encoding; the tag guards restore against a snapshot
    /// captured in the other mode.
    fn snapshot(&self) -> StateSnapshot {
        let mut s = StateSnapshot::new();
        match self {
            WindowState::Keyed(kw) => {
                s.push_u64(1);
                kw.encode_into(&mut s);
            }
            WindowState::Global(w) => {
                s.push_u64(0);
                w.encode_into(&mut s);
            }
        }
        s
    }

    fn restore(&mut self, snapshot: &StateSnapshot) -> bool {
        let mut r = snapshot.reader();
        match (r.read_u64(), &mut *self) {
            (Some(1), WindowState::Keyed(kw)) => kw.decode_from(&mut r),
            (Some(0), WindowState::Global(w)) => w.decode_from(&mut r),
            _ => false,
        }
    }

    /// Per-key extraction for live repartitioning — keyed mode only (the
    /// global window is monolithic state and must never be key-split).
    fn extract_keys(&mut self, keys: &[u64]) -> Option<StateSnapshot> {
        match self {
            WindowState::Keyed(kw) => {
                let mut s = StateSnapshot::new();
                s.push_u64(1);
                kw.extract_keys_into(keys, &mut s);
                Some(s)
            }
            WindowState::Global(_) => None,
        }
    }

    /// Merges state extracted by [`extract_keys`](Self::extract_keys) on
    /// another replica; the mode tag guards against cross-mode injection.
    fn inject(&mut self, snapshot: &StateSnapshot) -> bool {
        let mut r = snapshot.reader();
        match (r.read_u64(), &mut *self) {
            (Some(1), WindowState::Keyed(kw)) => kw.merge_from(&mut r),
            _ => false,
        }
    }
}

/// A count-based windowed aggregation operator.
///
/// Emits, on each window trigger, a tuple whose `values[0]` is the
/// aggregate (key and seq copied from the triggering item).
pub struct WindowedAggregate {
    agg: Aggregation,
    state: WindowState,
    extra_work_ns: u64,
    name: String,
}

impl WindowedAggregate {
    /// Keyed (partitioned-stateful) variant: one window per key.
    pub fn keyed(agg: Aggregation, length: usize, slide: usize, extra_work_ns: u64) -> Self {
        WindowedAggregate {
            agg,
            state: WindowState::Keyed(KeyedWindows::new(length, slide)),
            extra_work_ns,
            name: format!("keyed-{}", agg.label()),
        }
    }

    /// Global (stateful) variant: a single window over the whole stream.
    pub fn global(agg: Aggregation, length: usize, slide: usize, extra_work_ns: u64) -> Self {
        WindowedAggregate {
            agg,
            state: WindowState::Global(CountWindow::new(length, slide)),
            extra_work_ns,
            name: format!("global-{}", agg.label()),
        }
    }

    /// Switches to eager (partial-content) window triggering; see
    /// [`CountWindow::eager`].
    pub fn eager(mut self) -> Self {
        self.state = match self.state {
            WindowState::Keyed(kw) => WindowState::Keyed(kw.eager()),
            WindowState::Global(w) => WindowState::Global(w.eager()),
        };
        self
    }
}

impl StreamOperator for WindowedAggregate {
    fn process(&mut self, item: Tuple, out: &mut Outputs) {
        synthetic_work(self.extra_work_ns);
        let triggered = match &mut self.state {
            WindowState::Keyed(kw) => kw.push(item),
            WindowState::Global(w) => w.push(item),
        };
        if let Some(window) = triggered {
            let value = self.agg.apply(window);
            let mut result = item;
            result.values[0] = value;
            out.emit_default(result);
        }
    }
    fn name(&self) -> &str {
        &self.name
    }
    fn reset(&mut self) {
        self.state.reset();
    }
    fn snapshot(&mut self) -> Option<StateSnapshot> {
        Some(self.state.snapshot())
    }
    fn restore(&mut self, snapshot: &StateSnapshot) -> bool {
        self.state.restore(snapshot)
    }
    fn extract_keys(&mut self, keys: &[u64]) -> Option<StateSnapshot> {
        self.state.extract_keys(keys)
    }
    fn inject_state(&mut self, snapshot: &StateSnapshot) -> bool {
        self.state.inject(snapshot)
    }
}

/// Windowed quantile: emits the `q`-quantile of `values[0]` over the window
/// (selected from a scratch copy in O(length) — the value a full sort would
/// put at the quantile's index, bit for bit).
pub struct WindowedQuantile {
    q: f64,
    state: WindowState,
    scratch: Vec<f64>,
    extra_work_ns: u64,
    name: String,
}

impl WindowedQuantile {
    /// Keyed variant.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not in `[0, 1]`.
    pub fn keyed(q: f64, length: usize, slide: usize, extra_work_ns: u64) -> Self {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        WindowedQuantile {
            q,
            state: WindowState::Keyed(KeyedWindows::new(length, slide)),
            scratch: Vec::new(),
            extra_work_ns,
            name: "keyed-quantile".into(),
        }
    }

    /// Global variant.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not in `[0, 1]`.
    pub fn global(q: f64, length: usize, slide: usize, extra_work_ns: u64) -> Self {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        WindowedQuantile {
            q,
            state: WindowState::Global(CountWindow::new(length, slide)),
            scratch: Vec::new(),
            extra_work_ns,
            name: "global-quantile".into(),
        }
    }

    /// Switches to eager (partial-content) window triggering.
    pub fn eager(mut self) -> Self {
        self.state = match self.state {
            WindowState::Keyed(kw) => WindowState::Keyed(kw.eager()),
            WindowState::Global(w) => WindowState::Global(w.eager()),
        };
        self
    }
}

impl StreamOperator for WindowedQuantile {
    fn process(&mut self, item: Tuple, out: &mut Outputs) {
        synthetic_work(self.extra_work_ns);
        let triggered = match &mut self.state {
            WindowState::Keyed(kw) => kw.push(item),
            WindowState::Global(w) => w.push(item),
        };
        if let Some(window) = triggered {
            self.scratch.clear();
            self.scratch.extend(window.iter().map(|t| t.values[0]));
            let idx = ((self.scratch.len() - 1) as f64 * self.q).round() as usize;
            let mut result = item;
            result.values[0] = select_as_sorted(
                &mut self.scratch,
                idx,
                |a, b| a.partial_cmp(b).expect("attribute values are finite"),
                window.iter().map(|t| t.values[0]),
            );
            out.emit_default(result);
        }
    }
    fn name(&self) -> &str {
        &self.name
    }
    fn reset(&mut self) {
        self.state.reset();
        self.scratch.clear();
    }
    fn snapshot(&mut self) -> Option<StateSnapshot> {
        Some(self.state.snapshot())
    }
    fn restore(&mut self, snapshot: &StateSnapshot) -> bool {
        self.state.restore(snapshot)
    }
    fn extract_keys(&mut self, keys: &[u64]) -> Option<StateSnapshot> {
        self.state.extract_keys(keys)
    }
    fn inject_state(&mut self, snapshot: &StateSnapshot) -> bool {
        self.state.inject(snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::reference::{tied_stream, VecWindow};
    use std::collections::HashMap;

    fn t(v: f64, seq: u64) -> Tuple {
        Tuple::splat(0, seq, v)
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
    fn aggregation_functions_are_correct() {
        let w: Vec<Tuple> = [1.0, 3.0, 2.0]
            .iter()
            .enumerate()
            .map(|(i, v)| t(*v, i as u64))
            .collect();
        assert_eq!(Aggregation::Sum.apply(&w), 6.0);
        assert_eq!(Aggregation::Max.apply(&w), 3.0);
        assert_eq!(Aggregation::Min.apply(&w), 1.0);
        // WMA weights 1,2,3: (1 + 6 + 6) / 6 = 13/6.
        assert!((Aggregation::WeightedMovingAverage.apply(&w) - 13.0 / 6.0).abs() < 1e-12);
        // StdDev of {1,3,2}: mean 2, var 2/3.
        assert!((Aggregation::StdDev.apply(&w) - (2.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn global_sum_emits_once_per_slide() {
        let mut op = WindowedAggregate::global(Aggregation::Sum, 4, 2, 0);
        let inputs: Vec<Tuple> = (0..12).map(|i| t(1.0, i)).collect();
        let got = drive(&mut op, &inputs);
        // Triggers at items 3,5,7,9,11 -> 5 outputs, each summing 4 ones.
        assert_eq!(got.len(), 5);
        assert!(got.iter().all(|x| x.values[0] == 4.0));
    }

    #[test]
    fn input_selectivity_is_slide() {
        let mut op = WindowedAggregate::global(Aggregation::Max, 10, 5, 0);
        let inputs: Vec<Tuple> = (0..1000).map(|i| t(0.5, i)).collect();
        let got = drive(&mut op, &inputs);
        // ~1000/5 outputs (minus window fill).
        assert_eq!(got.len(), (1000 - 10) / 5 + 1);
    }

    #[test]
    fn keyed_aggregate_isolates_keys() {
        let mut op = WindowedAggregate::keyed(Aggregation::Sum, 2, 2, 0);
        let inputs = vec![
            Tuple::splat(1, 0, 10.0),
            Tuple::splat(2, 1, 1.0),
            Tuple::splat(1, 2, 10.0),
            Tuple::splat(2, 3, 1.0),
        ];
        let got = drive(&mut op, &inputs);
        assert_eq!(got.len(), 2);
        let by_key: std::collections::HashMap<u64, f64> =
            got.iter().map(|t| (t.key, t.values[0])).collect();
        assert_eq!(by_key[&1], 20.0);
        assert_eq!(by_key[&2], 2.0);
    }

    #[test]
    fn wma_weights_recent_items_more() {
        let mut op = WindowedAggregate::global(Aggregation::WeightedMovingAverage, 3, 3, 0);
        // Increasing series: WMA > plain mean.
        let inputs = vec![t(1.0, 0), t(2.0, 1), t(3.0, 2)];
        let got = drive(&mut op, &inputs);
        assert_eq!(got.len(), 1);
        assert!(got[0].values[0] > 2.0);
    }

    #[test]
    fn quantile_median_of_window() {
        let mut op = WindowedQuantile::global(0.5, 5, 5, 0);
        let inputs: Vec<Tuple> = [5.0, 1.0, 4.0, 2.0, 3.0]
            .iter()
            .enumerate()
            .map(|(i, v)| t(*v, i as u64))
            .collect();
        let got = drive(&mut op, &inputs);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].values[0], 3.0);
    }

    #[test]
    fn quantile_extremes() {
        let inputs: Vec<Tuple> = (0..10).map(|i| t(i as f64, i as u64)).collect();
        let mut p0 = WindowedQuantile::global(0.0, 10, 10, 0);
        assert_eq!(drive(&mut p0, &inputs)[0].values[0], 0.0);
        let mut p100 = WindowedQuantile::global(1.0, 10, 10, 0);
        assert_eq!(drive(&mut p100, &inputs)[0].values[0], 9.0);
    }

    #[test]
    #[should_panic(expected = "quantile must be in [0, 1]")]
    fn quantile_out_of_range_rejected() {
        WindowedQuantile::global(1.5, 10, 10, 0);
    }

    #[test]
    fn keyed_quantile_works() {
        let mut op = WindowedQuantile::keyed(0.5, 3, 3, 0);
        let inputs = vec![
            Tuple::splat(7, 0, 1.0),
            Tuple::splat(7, 1, 9.0),
            Tuple::splat(7, 2, 5.0),
        ];
        let got = drive(&mut op, &inputs);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].values[0], 5.0);
        assert_eq!(got[0].key, 7);
    }

    #[test]
    fn eager_aggregate_emits_from_the_start() {
        let mut op = WindowedAggregate::global(Aggregation::Sum, 100, 2, 0).eager();
        let inputs: Vec<Tuple> = (0..10).map(|i| t(1.0, i)).collect();
        let got = drive(&mut op, &inputs);
        assert_eq!(got.len(), 5, "one output per slide from item 2 on");
        // Partial-window sums grow as the buffer fills.
        assert_eq!(got[0].values[0], 2.0);
        assert_eq!(got[4].values[0], 10.0);
    }

    #[test]
    fn snapshot_restore_resumes_identical_outputs() {
        // Drive a keyed aggregate halfway, snapshot, restore into a fresh
        // instance, and check both emit identical outputs from there on.
        let inputs: Vec<Tuple> = (0..40).map(|i| Tuple::splat(i % 3, i, i as f64)).collect();
        let (head, tail) = inputs.split_at(20);
        let mut original = WindowedAggregate::keyed(Aggregation::Sum, 4, 2, 0);
        drive(&mut original, head);
        let snap = original.snapshot().expect("stateful operators snapshot");
        let mut restored = WindowedAggregate::keyed(Aggregation::Sum, 4, 2, 0);
        assert!(restored.restore(&snap));
        assert_eq!(drive(&mut original, tail), drive(&mut restored, tail));
    }

    #[test]
    fn extract_inject_roundtrip_preserves_keyed_outputs() {
        // Split a keyed aggregate's keys across two replicas mid-stream
        // via extract_keys/inject_state; the pair must jointly emit what
        // the unsplit instance would.
        let inputs: Vec<Tuple> = (0..30).map(|i| Tuple::splat(i % 2, i, i as f64)).collect();
        let (head, tail) = inputs.split_at(16);
        let mut old_owner = WindowedAggregate::keyed(Aggregation::Sum, 4, 2, 0);
        let mut reference = WindowedAggregate::keyed(Aggregation::Sum, 4, 2, 0);
        drive(&mut old_owner, head);
        drive(&mut reference, head);
        let moved = old_owner.extract_keys(&[1]).expect("keyed mode extracts");
        let mut new_owner = WindowedAggregate::keyed(Aggregation::Sum, 4, 2, 0);
        assert!(new_owner.inject_state(&moved));
        let mut split_out = Vec::new();
        for t in tail {
            let owner: &mut WindowedAggregate = if t.key == 1 {
                &mut new_owner
            } else {
                &mut old_owner
            };
            split_out.extend(drive(owner, std::slice::from_ref(t)));
        }
        assert_eq!(split_out, drive(&mut reference, tail));
    }

    #[test]
    fn global_mode_refuses_key_extraction() {
        let mut op = WindowedAggregate::global(Aggregation::Sum, 4, 2, 0);
        drive(&mut op, &(0..8).map(|i| t(1.0, i)).collect::<Vec<_>>());
        assert!(
            op.extract_keys(&[0]).is_none(),
            "monolithic state must not split"
        );
        assert!(!op.inject_state(&StateSnapshot::new()));
    }

    #[test]
    fn restore_rejects_wrong_mode_snapshot() {
        let mut global = WindowedAggregate::global(Aggregation::Sum, 4, 2, 0);
        let snap = global.snapshot().unwrap();
        let mut keyed = WindowedAggregate::keyed(Aggregation::Sum, 4, 2, 0);
        assert!(!keyed.restore(&snap), "mode tag must guard restore");
    }

    #[test]
    fn reset_clears_window_state() {
        let mut op = WindowedQuantile::global(0.5, 4, 2, 0);
        drive(
            &mut op,
            &(0..10).map(|i| t(i as f64, i)).collect::<Vec<_>>(),
        );
        op.reset();
        // A reset operator behaves like a fresh one: no trigger until the
        // window refills.
        let got = drive(&mut op, &(0..3).map(|i| t(i as f64, i)).collect::<Vec<_>>());
        assert!(got.is_empty());
    }

    #[test]
    fn operator_names_distinguish_modes() {
        assert_eq!(
            WindowedAggregate::keyed(Aggregation::Sum, 2, 1, 0).name(),
            "keyed-sum"
        );
        assert_eq!(
            WindowedAggregate::global(Aggregation::Max, 2, 1, 0).name(),
            "global-max"
        );
        assert_eq!(
            WindowedQuantile::keyed(0.5, 2, 1, 0).name(),
            "keyed-quantile"
        );
    }

    /// The sort-based quantile `WindowedQuantile` computed before it
    /// switched to selection.
    fn quantile_by_sort(window: &[Tuple], q: f64) -> f64 {
        let mut v: Vec<f64> = window.iter().map(|t| t.values[0]).collect();
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        v[((v.len() - 1) as f64 * q).round() as usize]
    }

    fn bits(ts: &[Tuple]) -> Vec<(u64, u64, [u64; 4])> {
        ts.iter()
            .map(|t| (t.key, t.seq, t.values.map(f64::to_bits)))
            .collect()
    }

    #[test]
    fn quantile_selection_matches_sort_bit_for_bit() {
        let inputs = tied_stream(600, 3);
        for q in [0.0, 0.5, 0.9, 1.0] {
            for eager in [false, true] {
                for (length, slide) in [(32, 1), (7, 3), (1, 1)] {
                    for keyed in [false, true] {
                        let mut op = if keyed {
                            WindowedQuantile::keyed(q, length, slide, 0)
                        } else {
                            WindowedQuantile::global(q, length, slide, 0)
                        };
                        if eager {
                            op = op.eager();
                        }
                        let mut model: HashMap<u64, VecWindow> = HashMap::new();
                        let mut want = Vec::new();
                        for it in &inputs {
                            let key = if keyed { it.key } else { 0 };
                            let w = model
                                .entry(key)
                                .or_insert_with(|| VecWindow::new(length, slide, eager));
                            if let Some(content) = w.push(*it) {
                                let mut r = *it;
                                r.values[0] = quantile_by_sort(content, q);
                                want.push(r);
                            }
                        }
                        let got = drive(&mut op, &inputs);
                        assert!(!want.is_empty());
                        assert_eq!(
                            bits(&got),
                            bits(&want),
                            "q {q}, {length}/{slide}, eager {eager}, keyed {keyed}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn quantile_of_a_nan_attribute_panics() {
        // Supervision relies on the panic the sort's comparator raised.
        for q in [0.0, 0.5, 1.0] {
            for at in 0..4 {
                let inputs: Vec<Tuple> = (0..4)
                    .map(|i| t(if i == at { f64::NAN } else { i as f64 }, i))
                    .collect();
                let result = std::panic::catch_unwind(|| {
                    drive(&mut WindowedQuantile::global(q, 4, 4, 0), &inputs)
                });
                assert!(result.is_err(), "q {q}, NaN at {at}");
            }
        }
    }
}
