//! Live plan migration: apply a new deployment plan to a *running* actor
//! graph without stopping the stream.
//!
//! The adaptive control loop (analysis crate) decides *what* should change
//! — replica counts, key partitionings — and posts the decision here as
//! [`ReconfigOp`]s through a [`ReconfigHandle`]. The engine applies them
//! at epoch barriers, riding the checkpoint machinery:
//!
//! * **Route swap** — an emitter replaces the route on one of its output
//!   ports exactly when it completes alignment of the target epoch. The
//!   marker broadcast that precedes the swap flushes all pre-barrier data,
//!   so every replica sees the barrier before any post-swap tuple: the
//!   swap is atomic at the barrier.
//! * **Key handoff (pause–drain–resume)** — when a `KeyMap` swap moves
//!   keys between partitioned-stateful replicas, the old owner extracts
//!   the moving keys' state at its own alignment of the same epoch and
//!   publishes it out-of-band in the shared `ReconfigShared::handoffs`
//!   map; the emitter *pauses* post-swap tuples of the moving keys until
//!   every expected handoff is published, then pushes one in-band
//!   [`Envelope::Handoff`](crate::mailbox::Envelope) ordering token to
//!   each new owner followed by the released tuples. FIFO mailbox order
//!   guarantees the new owner merges the state before processing any
//!   moved-key data — per-key order and exactly-once are preserved.
//!
//! Replica "spawn/retire" uses pre-provisioned slots (the
//! max-parallelism approach): codegen deploys every replica actor up
//! front and rescaling only changes which slots the emitter's data route
//! targets. Inactive slots still receive markers and EOS (they sit on a
//! never-emitting second emitter port), so the wiring — mailboxes, EOS
//! counts, alignment quorums — is static while activity is dynamic.
//!
//! With no handle installed ([`crate::EngineConfig::reconfig`] is `None`,
//! the default) the hot path carries a single `Option` check per batch.

use crate::checkpoint::StateSnapshot;
use crate::Route;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// One key-range handoff riding a route swap: the state of `keys` moves
/// from replica `from` to replica `to`.
#[derive(Debug, Clone)]
pub struct KeyHandoff {
    /// Unique handoff id (unique across the whole run).
    pub id: u64,
    /// Actor id of the old owner (extracts and publishes).
    pub from: usize,
    /// Actor id of the new owner (receives the in-band token and merges).
    pub to: usize,
    /// The moving keys.
    pub keys: Vec<u64>,
}

/// One migration instruction, applied at an epoch barrier. All ops are
/// posted to the *emitter* actor that owns the route being swapped; the
/// extraction requests it carries are forwarded in-band (FIFO, behind the
/// barrier marker) so old owners extract exactly their barrier-consistent
/// state — no independent epoch race.
#[derive(Debug, Clone)]
pub enum ReconfigOp {
    /// Replace the route on output `port` when the actor completes
    /// alignment of the first epoch `>= at_epoch`.
    SwapRoute {
        /// Output port whose route is replaced.
        port: usize,
        /// The new route. Every destination must already be wired (a
        /// provisioned replica slot): the swap cannot create mailboxes.
        route: Route,
        /// Barrier epoch; the swap applies at the first completed epoch
        /// `>= at_epoch` so a controller can post slightly ahead.
        at_epoch: u64,
        /// Keys whose post-swap tuples are held in a pause buffer until
        /// every handoff is published (empty for stateless rescaling).
        pause_keys: Vec<u64>,
        /// Key-state handoffs this swap requires (empty for stateless
        /// rescaling).
        handoffs: Vec<KeyHandoff>,
    },
}

/// State shared between the controller-facing [`ReconfigHandle`] and every
/// actor's per-task reconfiguration state.
#[derive(Debug, Default)]
pub(crate) struct ReconfigShared {
    /// Bumped on every [`ReconfigHandle::post`]; actors compare it against
    /// their last-seen value once per batch — the whole steady-state cost
    /// of having the layer armed.
    pub(crate) generation: AtomicU64,
    /// Ops posted but not yet pulled by their actor, keyed by actor id.
    pub(crate) pending: Mutex<HashMap<usize, Vec<ReconfigOp>>>,
    /// Extraction requests awaiting their old owner: handoff id → moving
    /// keys. Inserted by the emitter at swap time, consumed by the old
    /// owner when the in-band [`Envelope::Handoff`](crate::mailbox::Envelope)
    /// token reaches it.
    pub(crate) extract_requests: Mutex<HashMap<u64, Vec<u64>>>,
    /// Published key-state handoffs awaiting their new owner. A handoff
    /// stays in the map until the new owner has *checkpointed* the merged
    /// state, so a supervised restart between merge and next barrier can
    /// re-inject it (checkpoint epoch vs reconfiguration epoch ordering).
    pub(crate) handoffs: Mutex<HashMap<u64, StateSnapshot>>,
    /// Route swaps fully applied (paused tuples released), across all
    /// actors — the observable completion signal for controllers/tests.
    pub(crate) applied: AtomicU64,
    /// Key-state handoffs merged into their new owner.
    pub(crate) migrated: AtomicU64,
}

/// Controller-facing handle for posting live migrations into a running
/// engine. Install one via [`crate::EngineConfig::reconfig`]; keep a clone
/// to post ops while [`crate::run`] blocks.
#[derive(Debug, Clone, Default)]
pub struct ReconfigHandle {
    pub(crate) shared: Arc<ReconfigShared>,
}

impl ReconfigHandle {
    /// Creates a fresh, unposted handle.
    pub fn new() -> Self {
        Self::default()
    }

    /// Posts one batch of migration ops (`(actor id, op)` pairs) and bumps
    /// the generation so actors pull them on their next batch. Ops gated
    /// on an epoch the run never reaches are dropped at shutdown — watch
    /// [`applied`](Self::applied) to confirm completion.
    pub fn post(&self, ops: Vec<(usize, ReconfigOp)>) {
        let mut pending = self
            .shared
            .pending
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        for (actor, op) in ops {
            pending.entry(actor).or_default().push(op);
        }
        drop(pending);
        self.shared.generation.fetch_add(1, Ordering::Release);
    }

    /// Route swaps fully applied so far (pause buffers released).
    pub fn applied(&self) -> u64 {
        self.shared.applied.load(Ordering::Acquire)
    }

    /// Key-state handoffs merged into their new owners so far.
    pub fn migrated(&self) -> u64 {
        self.shared.migrated.load(Ordering::Acquire)
    }
}

/// Per-actor reconfiguration state, present only when a handle is
/// installed.
pub(crate) struct ReconfigTaskState {
    pub(crate) shared: Arc<ReconfigShared>,
    /// Last generation pulled from the shared state.
    pub(crate) seen_generation: u64,
    /// Ops pulled but not yet applied (awaiting their epoch barrier).
    pub(crate) staged: Vec<ReconfigOp>,
    /// Active pause set (emitter mid-migration): tuples with these keys on
    /// port 0 are buffered instead of routed.
    pub(crate) pause_keys: Vec<u64>,
    /// Tuples held while the pause set is active, in arrival order.
    pub(crate) paused: Vec<spinstreams_core::Tuple>,
    /// Handoffs the emitter is waiting on before releasing `paused`.
    pub(crate) expect_handoffs: Vec<(u64, usize)>,
    /// Route swaps whose `applied` bump is deferred until their paused
    /// tuples are released.
    pub(crate) pending_release: u64,
    /// Handoffs merged by *this* actor since its last snapshot: kept so a
    /// supervised restart before the next barrier can re-inject them (the
    /// restored snapshot predates the merge and the replay log only holds
    /// data tuples).
    pub(crate) merged_since_snapshot: Vec<u64>,
    /// Keys extracted by *this* actor since its last snapshot, by handoff:
    /// a restart restores pre-extraction state, so recovery re-drops them
    /// after replay (their published copy is authoritative; stale local
    /// state would double-emit at flush).
    pub(crate) extracted_since_snapshot: Vec<(u64, Vec<u64>)>,
}

impl ReconfigTaskState {
    pub(crate) fn new(shared: Arc<ReconfigShared>) -> Self {
        ReconfigTaskState {
            shared,
            seen_generation: 0,
            staged: Vec::new(),
            pause_keys: Vec::new(),
            paused: Vec::new(),
            expect_handoffs: Vec::new(),
            pending_release: 0,
            merged_since_snapshot: Vec::new(),
            extracted_since_snapshot: Vec::new(),
        }
    }

    /// True when the generation counter moved past what this actor has
    /// already pulled — the once-per-batch fast check.
    #[inline]
    pub(crate) fn outdated(&self) -> bool {
        self.shared.generation.load(Ordering::Acquire) != self.seen_generation
    }

    /// Pulls this actor's pending ops into the staged list.
    pub(crate) fn pull(&mut self, actor: usize) {
        self.seen_generation = self.shared.generation.load(Ordering::Acquire);
        let mut pending = self
            .shared
            .pending
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(ops) = pending.remove(&actor) {
            self.staged.extend(ops);
        }
    }

    /// True once every expected handoff has been published.
    pub(crate) fn handoffs_ready(&self) -> bool {
        if self.expect_handoffs.is_empty() {
            return true;
        }
        let map = self
            .shared
            .handoffs
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        self.expect_handoffs
            .iter()
            .all(|(id, _)| map.contains_key(id))
    }
}
