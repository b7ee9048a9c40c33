//! Spatial window queries (§5.1): skyline and top-k.

use crate::window::{select_as_sorted, CountWindow};
use spinstreams_core::Tuple;
use spinstreams_runtime::operators::synthetic_work;
use spinstreams_runtime::{Outputs, StateSnapshot, StreamOperator};

/// 2-D skyline over a count-based window.
///
/// On each trigger computes the set of non-dominated points
/// (`values[0]`, `values[1]`) — point *a* dominates *b* if it is ≤ on both
/// coordinates and < on at least one (minimization skyline). Emits one
/// summary tuple per trigger whose `values[0]` is the skyline cardinality
/// and `values[1]` the minimal first coordinate. Global window state makes
/// it a monolithic *stateful* operator.
pub struct Skyline {
    window: CountWindow,
    extra_work_ns: u64,
}

impl Skyline {
    /// Creates the operator on a `length`/`slide` count window.
    pub fn new(length: usize, slide: usize, extra_work_ns: u64) -> Self {
        Skyline {
            window: CountWindow::new(length, slide),
            extra_work_ns,
        }
    }

    /// Switches to eager (partial-content) window triggering.
    pub fn eager(mut self) -> Self {
        self.window = self.window.eager();
        self
    }

    /// Computes the skyline (minimization, 2-D) of `points`.
    pub fn skyline_of<'a>(points: impl IntoIterator<Item = &'a Tuple>) -> Vec<Tuple> {
        let mut result: Vec<Tuple> = Vec::new();
        'outer: for p in points {
            let (px, py) = (p.values[0], p.values[1]);
            let mut i = 0;
            while i < result.len() {
                let (qx, qy) = (result[i].values[0], result[i].values[1]);
                let q_dominates = qx <= px && qy <= py && (qx < px || qy < py);
                let p_dominates = px <= qx && py <= qy && (px < qx || py < qy);
                if q_dominates {
                    continue 'outer;
                }
                if p_dominates {
                    result.swap_remove(i);
                } else {
                    i += 1;
                }
            }
            result.push(*p);
        }
        result
    }
}

impl StreamOperator for Skyline {
    fn process(&mut self, item: Tuple, out: &mut Outputs) {
        synthetic_work(self.extra_work_ns);
        if let Some(window) = self.window.push(item) {
            let sky = Self::skyline_of(window);
            let mut result = item;
            result.values[0] = sky.len() as f64;
            result.values[1] = sky
                .iter()
                .map(|t| t.values[0])
                .fold(f64::INFINITY, f64::min);
            out.emit_default(result);
        }
    }
    fn name(&self) -> &str {
        "skyline"
    }
    fn reset(&mut self) {
        self.window.clear();
    }
    fn snapshot(&mut self) -> Option<StateSnapshot> {
        let mut s = StateSnapshot::new();
        self.window.encode_into(&mut s);
        Some(s)
    }
    fn restore(&mut self, snapshot: &StateSnapshot) -> bool {
        self.window.decode_from(&mut snapshot.reader())
    }
}

/// Top-k over a count-based window: the k largest `values[0]`.
///
/// Emits one summary tuple per trigger: `values[0]` is the k-th largest
/// value (the top-k admission threshold), `values[1]` the largest. Global
/// window state — monolithic stateful.
pub struct TopK {
    k: usize,
    window: CountWindow,
    scratch: Vec<f64>,
    extra_work_ns: u64,
}

impl TopK {
    /// Creates the operator.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero or larger than the window length.
    pub fn new(k: usize, length: usize, slide: usize, extra_work_ns: u64) -> Self {
        assert!(k >= 1 && k <= length, "k must be in 1..=length");
        TopK {
            k,
            window: CountWindow::new(length, slide),
            scratch: Vec::new(),
            extra_work_ns,
        }
    }

    /// Switches to eager (partial-content) window triggering.
    pub fn eager(mut self) -> Self {
        self.window = self.window.eager();
        self
    }
}

impl StreamOperator for TopK {
    fn process(&mut self, item: Tuple, out: &mut Outputs) {
        synthetic_work(self.extra_work_ns);
        if let Some(window) = self.window.push(item) {
            self.scratch.clear();
            self.scratch.extend(window.iter().map(|t| t.values[0]));
            // The first of the largest values, as a descending stable sort
            // would put it at index 0.
            let max = self.scratch[1..]
                .iter()
                .fold(self.scratch[0], |m, &x| if x > m { x } else { m });
            // With eager (partial) windows the buffer may hold < k items.
            let kth = self.k.min(self.scratch.len());
            let mut result = item;
            result.values[0] = select_as_sorted(
                &mut self.scratch,
                kth - 1,
                |a, b| b.partial_cmp(a).expect("finite attribute values"),
                window.iter().map(|t| t.values[0]),
            );
            result.values[1] = max;
            out.emit_default(result);
        }
    }
    fn name(&self) -> &str {
        "top-k"
    }
    fn reset(&mut self) {
        self.window.clear();
        self.scratch.clear();
    }
    fn snapshot(&mut self) -> Option<StateSnapshot> {
        let mut s = StateSnapshot::new();
        self.window.encode_into(&mut s);
        Some(s)
    }
    fn restore(&mut self, snapshot: &StateSnapshot) -> bool {
        self.window.decode_from(&mut snapshot.reader())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::reference::{tied_stream, VecWindow};

    fn pt(x: f64, y: f64) -> Tuple {
        Tuple::new(0, 0, [x, y, 0.0, 0.0])
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
    fn skyline_of_dominated_points() {
        // (1,1) dominates everything else.
        let points = vec![pt(1.0, 1.0), pt(2.0, 2.0), pt(3.0, 1.5)];
        let sky = Skyline::skyline_of(&points);
        assert_eq!(sky.len(), 1);
        assert_eq!(sky[0].values[0], 1.0);
    }

    #[test]
    fn skyline_of_pareto_front() {
        // Anti-chain: nothing dominates anything.
        let points = vec![pt(1.0, 3.0), pt(2.0, 2.0), pt(3.0, 1.0)];
        let sky = Skyline::skyline_of(&points);
        assert_eq!(sky.len(), 3);
    }

    #[test]
    fn skyline_removes_points_dominated_by_later_arrivals() {
        let points = vec![pt(5.0, 5.0), pt(1.0, 1.0)];
        let sky = Skyline::skyline_of(&points);
        assert_eq!(sky.len(), 1);
        assert_eq!(sky[0].values[0], 1.0);
    }

    #[test]
    fn skyline_of_equal_points_keeps_both() {
        // Equal points do not strictly dominate each other.
        let points = vec![pt(2.0, 2.0), pt(2.0, 2.0)];
        assert_eq!(Skyline::skyline_of(&points).len(), 2);
    }

    #[test]
    fn skyline_operator_emits_per_trigger() {
        let mut op = Skyline::new(4, 2, 0);
        let inputs: Vec<Tuple> = (0..10).map(|i| pt(i as f64, (10 - i) as f64)).collect();
        let got = drive(&mut op, &inputs);
        assert_eq!(got.len(), 4); // triggers at 3,5,7,9
                                  // Each window of this anti-chain has all 4 points in the skyline.
        assert!(got.iter().all(|t| t.values[0] == 4.0));
    }

    #[test]
    fn topk_threshold_and_max() {
        let mut op = TopK::new(2, 5, 5, 0);
        let inputs: Vec<Tuple> = [0.1, 0.9, 0.5, 0.7, 0.3]
            .iter()
            .map(|v| pt(*v, 0.0))
            .collect();
        let got = drive(&mut op, &inputs);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].values[0], 0.7); // 2nd largest
        assert_eq!(got[0].values[1], 0.9); // largest
    }

    #[test]
    fn topk_k_equals_window_takes_minimum_as_threshold() {
        let mut op = TopK::new(3, 3, 3, 0);
        let inputs: Vec<Tuple> = [0.4, 0.2, 0.6].iter().map(|v| pt(*v, 0.0)).collect();
        let got = drive(&mut op, &inputs);
        assert_eq!(got[0].values[0], 0.2);
    }

    #[test]
    #[should_panic(expected = "k must be in 1..=length")]
    fn topk_rejects_k_zero() {
        TopK::new(0, 5, 1, 0);
    }

    #[test]
    #[should_panic(expected = "k must be in 1..=length")]
    fn topk_rejects_k_above_window() {
        TopK::new(6, 5, 1, 0);
    }

    #[test]
    fn names() {
        assert_eq!(Skyline::new(2, 1, 0).name(), "skyline");
        assert_eq!(TopK::new(1, 2, 1, 0).name(), "top-k");
    }

    #[test]
    fn eager_topk_handles_partial_windows() {
        let mut op = TopK::new(3, 10, 1, 0).eager();
        let got = drive(&mut op, &[pt(0.5, 0.0), pt(0.9, 0.0)]);
        assert_eq!(got.len(), 2);
        // With a single buffered item, threshold == max == that item.
        assert_eq!(got[0].values[0], 0.5);
        assert_eq!(got[1].values[0], 0.5); // 2 items, k capped at 2
    }

    #[test]
    fn eager_skyline_triggers_early() {
        let mut op = Skyline::new(100, 1, 0).eager();
        let got = drive(&mut op, &[pt(1.0, 1.0)]);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].values[0], 1.0);
    }

    /// The sort-based threshold and maximum `TopK` computed before it
    /// switched to selection.
    fn topk_by_sort(window: &[Tuple], k: usize) -> (f64, f64) {
        let mut v: Vec<f64> = window.iter().map(|t| t.values[0]).collect();
        v.sort_by(|a, b| b.partial_cmp(a).expect("finite"));
        (v[k.min(v.len()) - 1], v[0])
    }

    fn bits(ts: &[Tuple]) -> Vec<(u64, u64, [u64; 4])> {
        ts.iter()
            .map(|t| (t.key, t.seq, t.values.map(f64::to_bits)))
            .collect()
    }

    #[test]
    fn topk_selection_matches_sort_bit_for_bit() {
        let inputs = tied_stream(600, 1);
        for eager in [false, true] {
            for (length, slide) in [(100, 10), (32, 1), (5, 2), (1, 1)] {
                for k in [1, 3.min(length), length] {
                    let mut op = TopK::new(k, length, slide, 0);
                    if eager {
                        op = op.eager();
                    }
                    let mut model = VecWindow::new(length, slide, eager);
                    let mut want = Vec::new();
                    for it in &inputs {
                        if let Some(content) = model.push(*it) {
                            let mut r = *it;
                            (r.values[0], r.values[1]) = topk_by_sort(content, k);
                            want.push(r);
                        }
                    }
                    let got = drive(&mut op, &inputs);
                    assert!(!want.is_empty());
                    assert_eq!(
                        bits(&got),
                        bits(&want),
                        "k {k}, {length}/{slide}, eager {eager}"
                    );
                }
            }
        }
    }

    #[test]
    fn topk_of_a_nan_attribute_panics() {
        // Supervision relies on the panic the sort's comparator raised.
        for k in [1, 2, 4] {
            for at in 0..4 {
                let inputs: Vec<Tuple> = (0..4)
                    .map(|i| pt(if i == at { f64::NAN } else { i as f64 }, 0.0))
                    .collect();
                let result =
                    std::panic::catch_unwind(|| drive(&mut TopK::new(k, 4, 4, 0), &inputs));
                assert!(result.is_err(), "k {k}, NaN at {at}");
            }
        }
    }

    /// Drives `make()` over a stream, snapshots it mid-stream, restores the
    /// snapshot into a fresh `make()`, and requires identical later outputs.
    fn assert_restore_resumes<O: StreamOperator>(make: impl Fn() -> O) {
        let inputs = tied_stream(90, 1);
        let (head, tail) = inputs.split_at(37);
        let mut original = make();
        drive(&mut original, head);
        let snap = original.snapshot().expect("windowed operators snapshot");
        let mut restored = make();
        assert!(restored.restore(&snap));
        let (a, b) = (drive(&mut original, tail), drive(&mut restored, tail));
        assert!(!a.is_empty());
        assert_eq!(bits(&a), bits(&b));
    }

    #[test]
    fn topk_snapshot_restore_resumes_identical_outputs() {
        assert_restore_resumes(|| TopK::new(3, 16, 5, 0));
        assert_restore_resumes(|| TopK::new(16, 16, 1, 0).eager());
    }

    #[test]
    fn skyline_snapshot_restore_resumes_identical_outputs() {
        assert_restore_resumes(|| Skyline::new(16, 5, 0));
        assert_restore_resumes(|| Skyline::new(32, 1, 0).eager());
    }

    #[test]
    fn windowed_state_is_cleared_by_reset() {
        let mut op = TopK::new(2, 4, 1, 0);
        drive(&mut op, &tied_stream(10, 1));
        op.reset();
        assert!(drive(&mut op, &tied_stream(3, 1)).is_empty());
        let mut op = Skyline::new(4, 1, 0);
        drive(&mut op, &tied_stream(10, 1));
        op.reset();
        assert!(drive(&mut op, &tied_stream(3, 1)).is_empty());
    }
}
