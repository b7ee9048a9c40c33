//! Count-based sliding windows (§3.4, §5.1).
//!
//! A count-based window of length `w` sliding by `s` triggers a computation
//! over the last `w` items every `s` new arrivals — the windowing model of
//! all the paper's aggregation, spatial and join operators. [`CountWindow`]
//! is the single-stream buffer; [`KeyedWindows`] maintains one window per
//! partitioning key (the partitioned-stateful variant).
//!
//! The buffer is a ring of `length` slots (a [`VecDeque`]), so sliding by
//! one item costs O(1) instead of shifting the whole window. Triggered
//! content is handed out as that ring, iterated oldest first — the order
//! aggregates fold in and snapshots are written in.

use spinstreams_core::Tuple;
use spinstreams_runtime::{SnapshotReader, StateSnapshot};
use std::cmp::Ordering;
use std::collections::{HashMap, VecDeque};

/// A count-based sliding window over one stream.
///
/// # Example
///
/// ```
/// use spinstreams_operators::CountWindow;
/// use spinstreams_core::Tuple;
///
/// let mut w = CountWindow::new(3, 2);
/// assert!(w.push(Tuple::splat(0, 0, 1.0)).is_none());
/// assert!(w.push(Tuple::splat(0, 1, 2.0)).is_none()); // not full yet
/// assert!(w.push(Tuple::splat(0, 2, 3.0)).is_some()); // first full window
/// assert!(w.push(Tuple::splat(0, 3, 4.0)).is_none());
/// assert!(w.push(Tuple::splat(0, 4, 5.0)).is_some()); // slid by 2
/// ```
#[derive(Debug, Clone)]
pub struct CountWindow {
    buf: VecDeque<Tuple>,
    length: usize,
    slide: usize,
    since_trigger: usize,
    total: u64,
    eager: bool,
}

impl CountWindow {
    /// Creates a window of `length` items sliding every `slide` items.
    ///
    /// # Panics
    ///
    /// Panics if `length` or `slide` is zero.
    pub fn new(length: usize, slide: usize) -> Self {
        assert!(length > 0, "window length must be positive");
        assert!(slide > 0, "window slide must be positive");
        CountWindow {
            buf: VecDeque::with_capacity(length),
            length,
            slide,
            since_trigger: 0,
            total: 0,
            eager: false,
        }
    }

    /// Switches the window to *eager* triggering: it fires every `slide`
    /// items even before the buffer is full, computing over the partial
    /// content. Eager windows reach their steady-state output rate (one
    /// trigger per `slide` items, §3.4) immediately, eliminating the
    /// fill-up transient that §5.2 identifies as the main source of
    /// prediction error for rarely-hit windows.
    pub fn eager(mut self) -> Self {
        self.eager = true;
        self
    }

    /// True if this window triggers eagerly on partial content.
    pub fn is_eager(&self) -> bool {
        self.eager
    }

    /// Window length `w`.
    pub fn length(&self) -> usize {
        self.length
    }

    /// Window slide `s` — the operator's input selectivity (§3.4).
    pub fn slide(&self) -> usize {
        self.slide
    }

    /// Items currently buffered (`≤ length`).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if no items are buffered.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total items ever pushed.
    pub fn total_pushed(&self) -> u64 {
        self.total
    }

    /// Pushes an item, evicting the oldest one from a full window in O(1);
    /// returns the window content (oldest first) when the window triggers
    /// (buffer full and `slide` items since the last trigger).
    pub fn push(&mut self, item: Tuple) -> Option<&VecDeque<Tuple>> {
        if self.buf.len() == self.length {
            self.buf.pop_front();
        }
        self.buf.push_back(item);
        self.total += 1;
        self.since_trigger += 1;
        let full_enough = self.eager || self.buf.len() == self.length;
        if full_enough && self.since_trigger >= self.slide {
            self.since_trigger = 0;
            Some(&self.buf)
        } else {
            None
        }
    }

    /// The current buffer content (oldest first), regardless of triggering.
    pub fn content(&self) -> &VecDeque<Tuple> {
        &self.buf
    }

    /// Discards all buffered items and trigger progress.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.since_trigger = 0;
        self.total = 0;
    }

    /// Appends the window's dynamic state (trigger progress + buffered
    /// items, oldest first) to a checkpoint snapshot. Structural
    /// parameters (`length`, `slide`, eagerness) are construction-time and
    /// deliberately not encoded: restore targets an identically configured
    /// instance.
    pub fn encode_into(&self, snap: &mut StateSnapshot) {
        snap.push_u64(self.since_trigger as u64);
        snap.push_u64(self.total);
        snap.push_u64(self.buf.len() as u64);
        for t in &self.buf {
            snap.push_tuple(t);
        }
    }

    /// Restores state written by [`encode_into`](Self::encode_into) into
    /// this window. Returns `false` (leaving the window cleared) on a
    /// truncated or malformed snapshot.
    pub fn decode_from(&mut self, r: &mut SnapshotReader<'_>) -> bool {
        self.clear();
        let (Some(since), Some(total), Some(n)) = (r.read_u64(), r.read_u64(), r.read_u64()) else {
            return false;
        };
        for _ in 0..n {
            let Some(t) = r.read_tuple() else {
                self.clear();
                return false;
            };
            self.buf.push_back(t);
        }
        self.since_trigger = since as usize;
        self.total = total;
        true
    }
}

/// One [`CountWindow`] per partitioning key — the state layout of a
/// partitioned-stateful windowed operator (§3.2): each key's window is
/// touched only by items carrying that key, so replicas owning disjoint key
/// sets never share state.
#[derive(Debug, Clone)]
pub struct KeyedWindows {
    windows: HashMap<u64, CountWindow>,
    length: usize,
    slide: usize,
    eager: bool,
}

impl KeyedWindows {
    /// Creates the per-key window table.
    ///
    /// # Panics
    ///
    /// Panics if `length` or `slide` is zero.
    pub fn new(length: usize, slide: usize) -> Self {
        assert!(
            length > 0 && slide > 0,
            "window parameters must be positive"
        );
        KeyedWindows {
            windows: HashMap::new(),
            length,
            slide,
            eager: false,
        }
    }

    /// Eager variant: per-key windows trigger on partial content (see
    /// [`CountWindow::eager`]).
    pub fn eager(mut self) -> Self {
        self.eager = true;
        self
    }

    /// Pushes an item into its key's window; returns the triggered window
    /// content, if any.
    pub fn push(&mut self, item: Tuple) -> Option<&VecDeque<Tuple>> {
        let (length, slide, eager) = (self.length, self.slide, self.eager);
        self.windows
            .entry(item.key)
            .or_insert_with(|| {
                let w = CountWindow::new(length, slide);
                if eager {
                    w.eager()
                } else {
                    w
                }
            })
            .push(item)
    }

    /// Number of distinct keys seen.
    pub fn num_keys(&self) -> usize {
        self.windows.len()
    }

    /// Window slide (input selectivity).
    pub fn slide(&self) -> usize {
        self.slide
    }

    /// Window length.
    pub fn length(&self) -> usize {
        self.length
    }

    /// Discards every key's window.
    pub fn clear(&mut self) {
        self.windows.clear();
    }

    /// Appends the per-key window table to a checkpoint snapshot. Keys are
    /// written in sorted order so equal states produce byte-identical
    /// snapshots regardless of hash-map iteration order.
    pub fn encode_into(&self, snap: &mut StateSnapshot) {
        snap.push_u64(self.windows.len() as u64);
        let mut keys: Vec<u64> = self.windows.keys().copied().collect();
        keys.sort_unstable();
        for k in keys {
            snap.push_u64(k);
            self.windows[&k].encode_into(snap);
        }
    }

    /// Removes the given keys' windows and appends them to `snap` in
    /// exactly the [`encode_into`](Self::encode_into) table layout — the
    /// drain side of a live key-repartitioning handoff. Keys this table
    /// has never seen are skipped (they have no state to move); after the
    /// call the table behaves as if it had never seen the moved keys.
    pub fn extract_keys_into(&mut self, keys: &[u64], snap: &mut StateSnapshot) {
        let mut moving: Vec<u64> = keys
            .iter()
            .copied()
            .filter(|k| self.windows.contains_key(k))
            .collect();
        moving.sort_unstable();
        moving.dedup();
        snap.push_u64(moving.len() as u64);
        for k in moving {
            snap.push_u64(k);
            let w = self.windows.remove(&k).expect("filtered on presence");
            w.encode_into(snap);
        }
    }

    /// Merges a table written by [`encode_into`](Self::encode_into) or
    /// [`extract_keys_into`](Self::extract_keys_into) into this one
    /// *without* clearing existing keys — the resume side of a handoff.
    /// An incoming key replaces a same-key window (handoff callers
    /// guarantee disjointness). Returns `false` on a malformed snapshot,
    /// leaving entries merged before the corruption point in place.
    pub fn merge_from(&mut self, r: &mut SnapshotReader<'_>) -> bool {
        let Some(n) = r.read_u64() else {
            return false;
        };
        for _ in 0..n {
            let Some(key) = r.read_u64() else {
                return false;
            };
            let mut w = CountWindow::new(self.length, self.slide);
            if self.eager {
                w = w.eager();
            }
            if !w.decode_from(r) {
                return false;
            }
            self.windows.insert(key, w);
        }
        true
    }

    /// Restores a table written by [`encode_into`](Self::encode_into).
    /// Returns `false` (leaving the table cleared) on a malformed snapshot.
    pub fn decode_from(&mut self, r: &mut SnapshotReader<'_>) -> bool {
        self.clear();
        let Some(n) = r.read_u64() else {
            return false;
        };
        for _ in 0..n {
            let Some(key) = r.read_u64() else {
                self.clear();
                return false;
            };
            let mut w = CountWindow::new(self.length, self.slide);
            if self.eager {
                w = w.eager();
            }
            if !w.decode_from(r) {
                self.clear();
                return false;
            }
            self.windows.insert(key, w);
        }
        true
    }
}

/// The value a stable `values.sort_by(cmp)` would leave at index `idx`,
/// found by selection in O(n) instead of sorting in O(n log n).
///
/// `values` is a scratch copy of one attribute of a window, in window
/// order; it is left permuted. `cmp` is a `partial_cmp` order that panics
/// on `NaN`, as the sort's comparator did. Selection and the stable sort
/// can disagree only among values that compare equal, and the only equal
/// `f64`s with different bits are `0.0` and `-0.0`. When a zero is
/// selected, the sort's pick is rebuilt from `in_order` (the same values,
/// still in window order): the stable sort keeps the zeros in that order.
pub(crate) fn select_as_sorted(
    values: &mut [f64],
    idx: usize,
    cmp: impl Fn(&f64, &f64) -> Ordering,
    in_order: impl Iterator<Item = f64>,
) -> f64 {
    let v = *values.select_nth_unstable_by(idx, &cmp).1;
    if v != 0.0 {
        return v;
    }
    let before = values
        .iter()
        .filter(|x| cmp(x, &v) == Ordering::Less)
        .count();
    in_order
        .filter(|x| *x == 0.0)
        .nth(idx - before)
        .expect("the selected zero is among the window's zeros")
}

/// Test references: the shift-on-push window the ring replaced, and an
/// attribute stream full of ties and signed zeros.
#[cfg(test)]
pub(crate) mod reference {
    use spinstreams_core::Tuple;

    /// A count window kept as a `Vec`, evicting with `remove(0)`.
    pub(crate) struct VecWindow {
        pub(crate) buf: Vec<Tuple>,
        length: usize,
        slide: usize,
        since_trigger: usize,
        eager: bool,
    }

    impl VecWindow {
        pub(crate) fn new(length: usize, slide: usize, eager: bool) -> Self {
            VecWindow {
                buf: Vec::new(),
                length,
                slide,
                since_trigger: 0,
                eager,
            }
        }

        pub(crate) fn push(&mut self, item: Tuple) -> Option<&[Tuple]> {
            if self.buf.len() == self.length {
                self.buf.remove(0);
            }
            self.buf.push(item);
            self.since_trigger += 1;
            let full_enough = self.eager || self.buf.len() == self.length;
            if full_enough && self.since_trigger >= self.slide {
                self.since_trigger = 0;
                Some(&self.buf)
            } else {
                None
            }
        }
    }

    /// `n` tuples over keys `0..keys` whose `values[0]` are drawn from a
    /// small set with duplicates and both signed zeros.
    pub(crate) fn tied_stream(n: u64, keys: u64) -> Vec<Tuple> {
        const VALUES: [f64; 8] = [0.0, -0.0, 1.0, 2.0, 2.0, 3.5, -1.0, 0.25];
        let mut x = 0x2545_F491_4F6C_DD1D_u64;
        (0..n)
            .map(|seq| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let mut t = Tuple::splat(x % keys, seq, VALUES[(x >> 32) as usize % 8]);
                t.values[1] = (x >> 40) as f64;
                t
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::reference::{tied_stream, VecWindow};
    use super::*;

    fn t(seq: u64, v: f64) -> Tuple {
        Tuple::splat(0, seq, v)
    }

    fn tk(key: u64, seq: u64) -> Tuple {
        Tuple::splat(key, seq, seq as f64)
    }

    #[test]
    fn window_triggers_once_full_then_every_slide() {
        let mut w = CountWindow::new(4, 2);
        let mut triggers = Vec::new();
        for i in 0..10 {
            if w.push(t(i, i as f64)).is_some() {
                triggers.push(i);
            }
        }
        // Full at item 3 (0-indexed), then every 2: 3, 5, 7, 9.
        assert_eq!(triggers, vec![3, 5, 7, 9]);
    }

    #[test]
    fn window_content_is_last_w_items() {
        let mut w = CountWindow::new(3, 3);
        let mut last: Vec<u64> = Vec::new();
        for i in 0..9 {
            if let Some(content) = w.push(t(i, 0.0)) {
                last = content.iter().map(|x| x.seq).collect();
            }
        }
        assert_eq!(last, vec![6, 7, 8]);
    }

    #[test]
    fn tumbling_window_when_slide_equals_length() {
        let mut w = CountWindow::new(5, 5);
        let trigger_count = (0..25).filter(|i| w.push(t(*i, 0.0)).is_some()).count();
        assert_eq!(trigger_count, 5);
    }

    #[test]
    fn slide_one_triggers_every_item_after_fill() {
        let mut w = CountWindow::new(3, 1);
        let trigger_count = (0..10).filter(|i| w.push(t(*i, 0.0)).is_some()).count();
        assert_eq!(trigger_count, 8); // items 2..=9
    }

    #[test]
    fn accessors() {
        let mut w = CountWindow::new(4, 2);
        assert_eq!(w.length(), 4);
        assert_eq!(w.slide(), 2);
        assert!(w.is_empty());
        w.push(t(0, 1.0));
        assert_eq!(w.len(), 1);
        assert_eq!(w.total_pushed(), 1);
        assert_eq!(w.content().len(), 1);
    }

    #[test]
    #[should_panic(expected = "length must be positive")]
    fn zero_length_rejected() {
        CountWindow::new(0, 1);
    }

    #[test]
    #[should_panic(expected = "slide must be positive")]
    fn zero_slide_rejected() {
        CountWindow::new(1, 0);
    }

    #[test]
    fn keyed_windows_are_independent_per_key() {
        let mut kw = KeyedWindows::new(2, 2);
        // Alternate keys: each key's window fills after 2 of *its* items.
        assert!(kw.push(tk(1, 0)).is_none());
        assert!(kw.push(tk(2, 1)).is_none());
        assert!(kw.push(tk(1, 2)).is_some()); // key 1 window full
        assert!(kw.push(tk(2, 3)).is_some()); // key 2 window full
        assert_eq!(kw.num_keys(), 2);
        assert_eq!(kw.slide(), 2);
        assert_eq!(kw.length(), 2);
    }

    #[test]
    fn eager_window_triggers_before_full() {
        let mut w = CountWindow::new(10, 2).eager();
        assert!(w.is_eager());
        let mut triggers = Vec::new();
        for i in 0..8 {
            if let Some(content) = w.push(t(i, 0.0)) {
                triggers.push((i, content.len()));
            }
        }
        // Fires every 2 items with whatever is buffered.
        assert_eq!(triggers, vec![(1, 2), (3, 4), (5, 6), (7, 8)]);
    }

    #[test]
    fn eager_keyed_windows_trigger_per_key_slide() {
        let mut kw = KeyedWindows::new(100, 2).eager();
        let mut count = 0;
        for i in 0..20 {
            if kw.push(tk(i % 5, i)).is_some() {
                count += 1;
            }
        }
        // Each of 5 keys sees 4 items -> 2 triggers each.
        assert_eq!(count, 10);
    }

    #[test]
    fn snapshot_roundtrips_count_window() {
        let mut w = CountWindow::new(4, 3);
        for i in 0..6 {
            w.push(t(i, i as f64));
        }
        let mut snap = StateSnapshot::new();
        w.encode_into(&mut snap);
        let mut w2 = CountWindow::new(4, 3);
        let mut r = snap.reader();
        assert!(w2.decode_from(&mut r));
        assert!(r.is_exhausted());
        assert_eq!(w2.content(), w.content());
        assert_eq!(w2.total_pushed(), w.total_pushed());
        // The restored window continues the original's trigger schedule.
        for i in 6..12 {
            assert_eq!(
                w.push(t(i, 0.0)).is_some(),
                w2.push(t(i, 0.0)).is_some(),
                "trigger divergence at item {i}"
            );
        }
    }

    #[test]
    fn keyed_snapshot_is_insertion_order_independent() {
        let mut a = KeyedWindows::new(3, 2);
        let mut b = KeyedWindows::new(3, 2);
        let items = [tk(5, 0), tk(1, 1), tk(9, 2), tk(5, 3)];
        for it in items {
            a.push(it);
        }
        // Different cross-key interleaving, same per-key sequences.
        for it in [tk(9, 2), tk(1, 1), tk(5, 0), tk(5, 3)] {
            b.push(it);
        }
        let (mut sa, mut sb) = (StateSnapshot::new(), StateSnapshot::new());
        a.encode_into(&mut sa);
        b.encode_into(&mut sb);
        assert_eq!(sa, sb, "sorted-key encoding must be order-independent");
        let mut restored = KeyedWindows::new(3, 2);
        let mut r = sa.reader();
        assert!(restored.decode_from(&mut r));
        assert_eq!(restored.num_keys(), 3);
    }

    #[test]
    fn extract_keys_moves_state_and_merge_resumes_schedules() {
        // Build one table over 3 keys, extract key 1, merge it into a
        // fresh table: the split pair must jointly behave exactly like the
        // original — per-key trigger schedules survive the move.
        let mut donor = KeyedWindows::new(3, 2);
        let mut reference = KeyedWindows::new(3, 2);
        for i in 0..14 {
            donor.push(tk(i % 3, i));
            reference.push(tk(i % 3, i));
        }
        let mut snap = StateSnapshot::new();
        donor.extract_keys_into(&[1, 99], &mut snap); // 99: never seen, skipped
        assert_eq!(donor.num_keys(), 2, "extracted key is gone from the donor");
        let mut recipient = KeyedWindows::new(3, 2);
        recipient.push(tk(7, 0)); // pre-existing disjoint state survives the merge
        let mut r = snap.reader();
        assert!(recipient.merge_from(&mut r));
        assert!(r.is_exhausted());
        assert_eq!(recipient.num_keys(), 2);
        // Key 1 items now trigger on the recipient exactly as they would
        // have on the unsplit reference; keys 0/2 stay with the donor.
        for i in 14..26 {
            let k = i % 3;
            let split = if k == 1 {
                recipient.push(tk(k, i)).is_some()
            } else {
                donor.push(tk(k, i)).is_some()
            };
            assert_eq!(split, reference.push(tk(k, i)).is_some(), "item {i}");
        }
        // A donor that sees a moved key again starts it from scratch.
        assert!(donor.push(tk(1, 100)).is_none());
    }

    #[test]
    fn merge_from_rejects_truncation_without_clearing() {
        let mut kw = KeyedWindows::new(2, 1);
        kw.push(tk(5, 0));
        let mut truncated = StateSnapshot::new();
        truncated.push_u64(1); // one entry claimed
        truncated.push_u64(9); // key, then nothing
        let mut r = truncated.reader();
        assert!(!kw.merge_from(&mut r));
        assert_eq!(kw.num_keys(), 1, "existing keys survive a failed merge");
    }

    #[test]
    fn truncated_window_snapshot_restores_to_empty() {
        let mut w = CountWindow::new(4, 2);
        w.push(t(0, 1.0));
        let mut snap = StateSnapshot::new();
        w.encode_into(&mut snap);
        // Drop the tuple payload: claim one buffered item, provide none.
        let mut truncated = StateSnapshot::new();
        truncated.push_u64(0);
        truncated.push_u64(1);
        truncated.push_u64(1);
        let mut w2 = CountWindow::new(4, 2);
        let mut r = truncated.reader();
        assert!(!w2.decode_from(&mut r));
        assert!(w2.is_empty(), "failed decode must leave a clean window");
    }

    /// The encoding `encode_into` wrote before the ring: header, then the
    /// buffered tuples oldest first.
    fn oldest_first_encoding(since: u64, total: u64, items: &[Tuple]) -> StateSnapshot {
        let mut s = StateSnapshot::new();
        s.push_u64(since);
        s.push_u64(total);
        s.push_u64(items.len() as u64);
        for t in items {
            s.push_tuple(t);
        }
        s
    }

    #[test]
    fn wrapped_ring_matches_shifting_window() {
        for eager in [false, true] {
            for (length, slide) in [(1, 1), (4, 1), (5, 3), (8, 8), (32, 1), (100, 10)] {
                let mut ring = CountWindow::new(length, slide);
                if eager {
                    ring = ring.eager();
                }
                let mut shifting = VecWindow::new(length, slide, eager);
                let items = tied_stream(3 * length as u64 + 7, 1);
                let mut since = 0;
                for (i, it) in items.iter().enumerate() {
                    let got = ring
                        .push(*it)
                        .map(|w| w.iter().copied().collect::<Vec<_>>());
                    let want = shifting.push(*it).map(<[Tuple]>::to_vec);
                    since = if want.is_some() { 0 } else { since + 1 };
                    assert_eq!(got, want, "eager {eager}, {length}/{slide}, item {i}");
                }
                // Wrapped at least three times: still encoded oldest first.
                let mut snap = StateSnapshot::new();
                ring.encode_into(&mut snap);
                let want = oldest_first_encoding(since, items.len() as u64, &shifting.buf);
                assert_eq!(snap, want, "eager {eager}, {length}/{slide}");
                // And a restored ring continues identically.
                let mut restored = CountWindow::new(length, slide);
                if eager {
                    restored = restored.eager();
                }
                assert!(restored.decode_from(&mut snap.reader()));
                for it in tied_stream(2 * length as u64 + 3, 1) {
                    assert_eq!(
                        ring.push(it).map(|w| w.iter().copied().collect::<Vec<_>>()),
                        restored
                            .push(it)
                            .map(|w| w.iter().copied().collect::<Vec<_>>()),
                    );
                }
            }
        }
    }

    #[test]
    fn wrapped_keyed_rings_roundtrip_restore_merge_and_extract() {
        for eager in [false, true] {
            let fresh = || {
                let kw = KeyedWindows::new(4, 3);
                if eager {
                    kw.eager()
                } else {
                    kw
                }
            };
            // Every key's ring wraps at least three times (4 keys, 4-slot
            // windows, ~100 items).
            let (head, tail) = (tied_stream(100, 4), tied_stream(60, 4));
            let mut original = fresh();
            for it in &head {
                original.push(*it);
            }
            let mut snap = StateSnapshot::new();
            original.encode_into(&mut snap);
            // Key table layout: per key, exactly the oldest-first encoding.
            let mut expected = StateSnapshot::new();
            expected.push_u64(original.num_keys() as u64);
            for key in 0..4 {
                let mut model = VecWindow::new(4, 3, eager);
                let mut triggers = 0;
                let mine: Vec<Tuple> = head.iter().filter(|t| t.key == key).copied().collect();
                for it in &mine {
                    triggers = if model.push(*it).is_some() {
                        0
                    } else {
                        triggers + 1
                    };
                }
                expected.push_u64(key);
                let body = oldest_first_encoding(triggers, mine.len() as u64, &model.buf);
                let mut r = body.reader();
                while let Some(word) = r.read_u64() {
                    expected.push_u64(word);
                }
            }
            assert_eq!(snap, expected, "eager {eager}");

            let mut restored = fresh();
            assert!(restored.decode_from(&mut snap.reader()));
            let mut donor = fresh();
            assert!(donor.decode_from(&mut snap.reader()));
            let mut moved = StateSnapshot::new();
            donor.extract_keys_into(&[1, 3], &mut moved);
            let mut recipient = fresh();
            assert!(recipient.merge_from(&mut moved.reader()));
            for it in &tail {
                let want = original
                    .push(*it)
                    .map(|w| w.iter().copied().collect::<Vec<_>>());
                let got = restored
                    .push(*it)
                    .map(|w| w.iter().copied().collect::<Vec<_>>());
                assert_eq!(got, want, "restored, eager {eager}");
                let owner = if it.key % 2 == 1 {
                    &mut recipient
                } else {
                    &mut donor
                };
                let split = owner
                    .push(*it)
                    .map(|w| w.iter().copied().collect::<Vec<_>>());
                assert_eq!(split, want, "extract + merge, eager {eager}");
            }
        }
    }

    #[test]
    fn keyed_window_content_has_only_that_key() {
        let mut kw = KeyedWindows::new(3, 1);
        let mut seen: Vec<u64> = Vec::new();
        for i in 0..30 {
            if let Some(content) = kw.push(tk(i % 3, i)) {
                seen = content.iter().map(|t| t.key).collect();
                assert!(seen.windows(2).all(|p| p[0] == p[1]));
            }
        }
        assert_eq!(seen.len(), 3);
    }
}
