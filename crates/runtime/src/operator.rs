//! The operator abstraction executed by actors (the SS2Akka analogue).
//!
//! User logic implements [`StreamOperator::process`], the counterpart of
//! SS2Akka's `operatorFunction()` (§4.2): it consumes one input item and
//! emits zero, one or many output items onto logical *ports*. A port indexes
//! the operator's output edges in the abstract topology; the runtime's
//! routing layer maps ports to destination mailboxes, keeping the business
//! logic independent of how the topology was optimized (fission, fusion).

use crate::checkpoint::StateSnapshot;
use spinstreams_core::Tuple;

/// The default output port for single-output operators.
pub const DEFAULT_PORT: usize = 0;

/// Collector of the items an operator emits while processing one input.
///
/// Reused across invocations to avoid per-item allocation.
#[derive(Debug, Default)]
pub struct Outputs {
    items: Vec<(usize, Tuple)>,
}

impl Outputs {
    /// Creates an empty output buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Emits `item` on logical output `port`.
    pub fn emit(&mut self, port: usize, item: Tuple) {
        self.items.push((port, item));
    }

    /// Emits `item` on [`DEFAULT_PORT`].
    pub fn emit_default(&mut self, item: Tuple) {
        self.emit(DEFAULT_PORT, item);
    }

    /// The buffered `(port, item)` pairs, in emission order.
    pub fn items(&self) -> &[(usize, Tuple)] {
        &self.items
    }

    /// Number of buffered items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True if nothing was emitted.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Clears the buffer (done by the runtime between invocations).
    pub fn clear(&mut self) {
        self.items.clear();
    }

    /// Drains the buffered items.
    pub fn drain(&mut self) -> impl Iterator<Item = (usize, Tuple)> + '_ {
        self.items.drain(..)
    }

    /// The buffered `(port, item)` pairs, for rewriting in place.
    pub(crate) fn items_mut(&mut self) -> &mut Vec<(usize, Tuple)> {
        &mut self.items
    }

    /// Drops every buffered item from index `len` on: a panicking
    /// invocation's partial output, keeping what earlier invocations of
    /// the same batch emitted.
    pub(crate) fn truncate(&mut self, len: usize) {
        self.items.truncate(len);
    }

    /// Propagates a source timestamp onto any item buffered from index
    /// `from` on that the operator constructed from scratch (i.e. still
    /// unstamped). Called by the executors after each `process`
    /// invocation, with `from` the buffer length before it, so end-to-end
    /// latency survives operators that build fresh tuples (aggregates,
    /// projections) instead of forwarding copies of their input, and each
    /// input's stamp reaches only its own outputs. A no-op when the input
    /// itself was unstamped (`src_ns == 0`).
    pub fn inherit_stamp(&mut self, from: usize, src_ns: u64) {
        if src_ns == 0 {
            return;
        }
        for (_, item) in self.items[from..].iter_mut() {
            if item.src_ns == 0 {
                item.src_ns = src_ns;
            }
        }
    }
}

/// A streaming operator: the unit of user logic executed by an actor.
///
/// Implementations may keep internal state (window buffers, aggregates,
/// join state); the runtime guarantees `process` is never invoked
/// concurrently on the same instance, matching Akka's actor execution
/// guarantee (§4.2).
pub trait StreamOperator: Send {
    /// Processes one input item, emitting any number of outputs.
    ///
    /// Called once per item. The wall-clock engine makes these calls
    /// inside one supervised call per run of data envelopes drained from
    /// the actor's mailbox, so `out` may already hold the outputs of
    /// earlier items of the run: append to it, never read or clear it. A
    /// panic is still charged to the item whose call panicked; only that
    /// call's partial output is discarded.
    fn process(&mut self, item: Tuple, out: &mut Outputs);

    /// Called once at end-of-stream, after the last `process`; operators
    /// with buffered state may emit final results. Default: nothing.
    fn flush(&mut self, out: &mut Outputs) {
        let _ = out;
    }

    /// A short human-readable name for diagnostics.
    fn name(&self) -> &str {
        "operator"
    }

    /// Discards internal state, returning the operator to its freshly
    /// constructed condition. Used by the supervisor's `Restart` directive
    /// when no [`crate::OperatorFactory`] was registered for the actor.
    /// Default: nothing (correct for stateless operators).
    fn reset(&mut self) {}

    /// Serializes the operator's state at an epoch barrier. Called by the
    /// checkpoint layer once every in-edge's marker has been aligned; the
    /// `&mut` receiver lets wrappers (e.g. fault injectors) observe the
    /// call, but capturing must not mutate the logical state. Default:
    /// `None` — the stateless encoding, meaning "restore is a no-op, a
    /// fresh instance is equivalent".
    fn snapshot(&mut self) -> Option<StateSnapshot> {
        None
    }

    /// Restores state captured by [`snapshot`](Self::snapshot) into a
    /// fresh (or [`reset`](Self::reset)) instance. Returns `true` if the
    /// snapshot was understood and applied. Default: `false` (stateless
    /// operators have nothing to restore).
    fn restore(&mut self, snapshot: &StateSnapshot) -> bool {
        let _ = snapshot;
        false
    }

    /// Removes the state of the given keys from the operator and returns
    /// it encoded as a snapshot — the drain side of a live key
    /// repartitioning handoff. After the call the operator must behave as
    /// if it had never seen those keys. Default: `None`, meaning the
    /// operator does not support per-key extraction (it is either
    /// stateless, in which case nothing needs to move, or
    /// monolithic-stateful, in which case it must not be key-repartitioned
    /// at all).
    fn extract_keys(&mut self, keys: &[u64]) -> Option<StateSnapshot> {
        let _ = keys;
        None
    }

    /// Merges state produced by [`extract_keys`](Self::extract_keys) on
    /// another replica into this operator — the resume side of a handoff.
    /// The injected keys are guaranteed disjoint from the keys this
    /// replica currently owns. Returns `true` if the snapshot was
    /// understood and merged. Default: `false`.
    fn inject_state(&mut self, snapshot: &StateSnapshot) -> bool {
        let _ = snapshot;
        false
    }
}

impl<T: StreamOperator + ?Sized> StreamOperator for Box<T> {
    fn process(&mut self, item: Tuple, out: &mut Outputs) {
        (**self).process(item, out)
    }
    fn flush(&mut self, out: &mut Outputs) {
        (**self).flush(out)
    }
    fn name(&self) -> &str {
        (**self).name()
    }
    fn reset(&mut self) {
        (**self).reset()
    }
    fn snapshot(&mut self) -> Option<StateSnapshot> {
        (**self).snapshot()
    }
    fn restore(&mut self, snapshot: &StateSnapshot) -> bool {
        (**self).restore(snapshot)
    }
    fn extract_keys(&mut self, keys: &[u64]) -> Option<StateSnapshot> {
        (**self).extract_keys(keys)
    }
    fn inject_state(&mut self, snapshot: &StateSnapshot) -> bool {
        (**self).inject_state(snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Doubler;
    impl StreamOperator for Doubler {
        fn process(&mut self, item: Tuple, out: &mut Outputs) {
            out.emit_default(item);
            out.emit(1, item);
        }
        fn name(&self) -> &str {
            "doubler"
        }
    }

    #[test]
    fn outputs_collects_in_order() {
        let mut out = Outputs::new();
        assert!(out.is_empty());
        out.emit(0, Tuple::splat(0, 1, 0.0));
        out.emit(2, Tuple::splat(0, 2, 0.0));
        assert_eq!(out.len(), 2);
        assert_eq!(out.items()[0].0, 0);
        assert_eq!(out.items()[1].0, 2);
        out.clear();
        assert!(out.is_empty());
    }

    #[test]
    fn inherit_stamp_fills_only_unstamped_items() {
        let mut out = Outputs::new();
        out.emit_default(Tuple::default()); // fresh, unstamped
        out.emit_default(Tuple::default().stamped(7)); // forwarded copy
        out.inherit_stamp(0, 42);
        assert_eq!(out.items()[0].1.src_ns, 42);
        assert_eq!(out.items()[1].1.src_ns, 7);
        // Ranged: a later input's stamp reaches only its own outputs.
        out.emit_default(Tuple::default());
        out.inherit_stamp(2, 99);
        assert_eq!(out.items()[0].1.src_ns, 42);
        assert_eq!(out.items()[2].1.src_ns, 99);
        // Unstamped input: nothing to propagate.
        let mut out = Outputs::new();
        out.emit_default(Tuple::default());
        out.inherit_stamp(0, 0);
        assert_eq!(out.items()[0].1.src_ns, 0);
    }

    #[test]
    fn drain_empties_buffer() {
        let mut out = Outputs::new();
        out.emit_default(Tuple::default());
        let drained: Vec<_> = out.drain().collect();
        assert_eq!(drained.len(), 1);
        assert!(out.is_empty());
    }

    #[test]
    fn boxed_operator_delegates() {
        let mut op: Box<dyn StreamOperator> = Box::new(Doubler);
        let mut out = Outputs::new();
        op.process(Tuple::splat(1, 7, 3.0), &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(op.name(), "doubler");
        op.flush(&mut out);
        assert_eq!(out.len(), 2, "default flush emits nothing");
    }
}
