//! Worker actors: supervised operator calls, epoch alignment and
//! snapshots, recovery by replay, and live reconfiguration.

use super::delivery::DeliveryCtx;
use super::pool::run_one_ready;
use crate::checkpoint::{ReplayBuffer, StateSnapshot};
use crate::mailbox::{Drained, Envelope};
use crate::metrics::{ActorMetrics, Counter};
use crate::operator::Outputs;
use crate::reconfig::{ReconfigOp, ReconfigTaskState};
use crate::route::RouteState;
use crate::supervision::{
    DeadLetterReason, DegradePolicy, OperatorFactory, RestartPolicy, SupervisionPolicy,
    SupervisorSpec,
};
use crate::telemetry::TraceEventKind;
use spinstreams_core::Tuple;
use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Once, PoisonError};
use std::thread;
use std::time::Instant;

thread_local! {
    /// While true, the process panic hook stays quiet on this thread —
    /// supervised operator panics are expected and reported through the
    /// run report, not stderr.
    static SILENCE_PANICS: Cell<bool> = const { Cell::new(false) };
}

/// Installs (once, process-wide) a panic hook that defers to the previous
/// hook except on threads currently running a supervised operator call.
pub(super) fn install_panic_silencer() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !SILENCE_PANICS.with(Cell::get) {
                prev(info);
            }
        }));
    });
}

/// Extracts a human-readable message from a panic payload.
pub(super) fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic payload of unknown type".to_string()
    }
}

/// Runs `f` with panics caught and the panic hook silenced, charging the
/// elapsed time to the actor's busy counter. Used for one-off calls (the
/// terminal `flush`); the data path uses [`guarded_raw`] and batch-level
/// timing instead — two `clock_gettime` calls per tuple cost more than a
/// pass-through operator does.
fn guarded_call(metrics: &ActorMetrics, f: impl FnOnce()) -> Result<(), Box<dyn Any + Send>> {
    use std::sync::atomic::Ordering;
    let t0 = Instant::now();
    let result = guarded_raw(f);
    metrics[Counter::BusyNs].fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    result
}

/// Runs `f` with panics caught and the panic hook silenced — no timing.
/// Callers account elapsed time at batch granularity (see
/// [`WorkerTask::process_batch`]). On the data path `f` is a whole run of
/// drained tuples ([`WorkerTask::invoke`]): `StreamOperator::process` is
/// still called once per item, but the `catch_unwind` and the two
/// thread-local writes are paid once per run.
fn guarded_raw(f: impl FnOnce()) -> Result<(), Box<dyn Any + Send>> {
    SILENCE_PANICS.with(|s| s.set(true));
    let result = catch_unwind(AssertUnwindSafe(f));
    SILENCE_PANICS.with(|s| s.set(false));
    result
}

/// A worker actor's complete runnable state: operator, supervision,
/// mailbox receiver, and delivery context. The pool stores it in a
/// [`PoolShared`] slot and drives it with non-blocking [`WorkerTask::poll`]
/// calls whenever the actor is ready.
pub(super) struct WorkerTask {
    pub(super) op: Box<dyn crate::StreamOperator>,
    pub(super) factory: Option<OperatorFactory>,
    pub(super) supervision: SupervisorSpec,
    pub(super) rx: crate::mailbox::Receiver,
    pub(super) eos_left: usize,
    pub(super) ctx: DeliveryCtx,
    pub(super) out: Outputs,
    pub(super) inbox: Vec<Envelope>,
    /// Degraded mode: the operator is gone; input is forwarded or dropped.
    pub(super) stopped: bool,
    pub(super) restarts_done: u32,
    /// Checkpoint/recovery state, present only with checkpointing on so
    /// the default hot path carries a single `Option` check per envelope.
    pub(super) ckpt: Option<Box<CkptState>>,
    /// Live-reconfiguration state, present only when a
    /// [`crate::ReconfigHandle`] is installed; its absence keeps the hot
    /// path to one `Option` check per batch.
    pub(super) reconfig: Option<Box<ReconfigTaskState>>,
    /// Input batches a single [`WorkerTask::poll`] may drain before
    /// yielding the worker thread back to the scheduler. Multi-tenant
    /// pools set a finite quantum so deficit round-robin can interleave
    /// tenants; single-tenant runs use `usize::MAX` (run-until-blocked,
    /// the classic behavior — the budget check never fires).
    pub(super) poll_budget: usize,
}

/// A panic inside a supervised run ([`WorkerTask::invoke`]): the index in
/// the run of the item whose `process` call panicked, that item, and the
/// panic payload.
struct RunPanic {
    at: usize,
    item: Tuple,
    payload: Box<dyn Any + Send>,
}

/// Per-actor epoch-alignment and recovery state (checkpointing on).
pub(super) struct CkptState {
    /// Markers received for the epoch currently aligning.
    pub(super) markers_seen: usize,
    /// Upstream actors that have not yet sent EOS. The alignment quorum:
    /// an epoch completes when `markers_seen` covers every *open* input,
    /// so a finished upstream can't stall barriers from live ones.
    pub(super) open_inputs: usize,
    /// Epoch currently aligning (`0` = none in progress).
    pub(super) aligning: u64,
    /// Last locally completed epoch.
    pub(super) completed: u64,
    /// Envelopes buffered behind the barrier while aligning. A fan-in
    /// mailbox merges upstreams, so post-marker data is held — for every
    /// channel — until the last marker lands (input-side barrier
    /// alignment); deferred later-epoch markers queue here too.
    pub(super) align_buf: Vec<Envelope>,
    /// Bounded input log for post-restore replay, keyed by epoch.
    pub(super) replay: ReplayBuffer,
    /// Latest successfully captured snapshot (`None` both before the
    /// first barrier and for stateless operators).
    pub(super) snapshot: Option<StateSnapshot>,
    /// Epoch of `snapshot` (`0` = none).
    pub(super) snapshot_epoch: u64,
    /// When the first marker of the aligning epoch arrived (stall metric).
    pub(super) align_started: Option<Instant>,
}

impl WorkerTask {
    /// Processes every envelope currently in `self.inbox` under the
    /// actor's [`SupervisorSpec`]. Each run of consecutive data envelopes
    /// is one supervised call ([`WorkerTask::handle_run`]); epoch, handoff
    /// and EOS envelopes end a run and are handled on their own. Returns
    /// true once the final EOS marker is seen.
    fn process_inbox(&mut self) -> bool {
        use std::sync::atomic::Ordering;
        let mut inbox = std::mem::take(&mut self.inbox);
        // Count arrivals once per drained batch. The loop below only stops
        // early at the *final* EOS marker, and FIFO order plus EOS-last per
        // upstream guarantee no data envelope sits behind it, so every
        // counted envelope is also processed (possibly via the alignment
        // buffer).
        // Flight recorder: sampled tuples leave one span event per hop,
        // stamped with the batch-cached clock (same skew bound as sink
        // latency). The span test shares the arrival-counting pass and
        // hoists the clock and log handle out of the loop; off (`None`)
        // the hot path never tests per-tuple.
        let arrived = match (self.ctx.span_mask, self.ctx.trace.as_ref()) {
            (Some(mask), Some(trace)) => {
                let now = self.ctx.sink_now();
                let mut n = 0u64;
                for env in inbox.iter() {
                    if let Envelope::Data(t) = env {
                        n += 1;
                        if t.seq & mask == 0 && t.src_ns != 0 {
                            trace.record(
                                now,
                                self.ctx.id,
                                TraceEventKind::Span {
                                    tuple_seq: t.seq,
                                    src_ns: t.src_ns,
                                },
                            );
                        }
                    }
                }
                n
            }
            _ => inbox
                .iter()
                .filter(|e| matches!(e, Envelope::Data(_)))
                .count() as u64,
        };
        if arrived > 0 {
            self.ctx.metrics[Counter::ItemsIn].fetch_add(arrived, Ordering::Relaxed);
        }
        let finished = self.handle_envs(&inbox);
        // Hand the (handled) inbox back so its allocation is reused.
        inbox.clear();
        self.inbox = inbox;
        finished
    }

    /// Handles `envs` in order: each run of consecutive data envelopes in
    /// one supervised call, every other envelope on its own. Returns true
    /// once the final EOS marker is seen; FIFO per mailbox and EOS-last per
    /// upstream guarantee no data follows it.
    fn handle_envs(&mut self, envs: &[Envelope]) -> bool {
        let both_data =
            |a: &Envelope, b: &Envelope| matches!((a, b), (Envelope::Data(_), Envelope::Data(_)));
        for group in envs.chunk_by(both_data) {
            let finished = match group {
                [Envelope::Data(_), ..] => {
                    self.handle_run(group);
                    false
                }
                _ => self.handle_env(group[0]),
            };
            if finished {
                return true;
            }
        }
        false
    }

    /// Handles one envelope: barrier alignment for epoch markers, a
    /// one-item run for data. Returns true once the final EOS marker is
    /// seen.
    fn handle_env(&mut self, env: Envelope) -> bool {
        match env {
            Envelope::Data(_) => {
                self.handle_run(&[env]);
                false
            }
            Envelope::Epoch(e) => {
                let Some(ckpt) = self.ckpt.as_deref_mut() else {
                    // Checkpointing off: stray markers are inert.
                    return false;
                };
                if ckpt.aligning != 0 && e != ckpt.aligning {
                    // A later epoch's marker from a fast upstream: defer it
                    // behind the in-progress barrier.
                    ckpt.align_buf.push(Envelope::Epoch(e));
                    return false;
                }
                if ckpt.aligning == 0 {
                    if e <= ckpt.completed {
                        return false;
                    }
                    ckpt.aligning = e;
                    ckpt.markers_seen = 0;
                    ckpt.align_started = Some(Instant::now());
                }
                ckpt.markers_seen += 1;
                let aligned = ckpt.markers_seen >= ckpt.open_inputs;
                if aligned {
                    self.complete_alignment();
                }
                false
            }
            Envelope::Handoff(id) => {
                if let Some(ckpt) = self.ckpt.as_deref_mut() {
                    if ckpt.aligning != 0 {
                        // Handoff tokens respect the barrier like data:
                        // extraction/merge happens against post-barrier
                        // state.
                        ckpt.align_buf.push(Envelope::Handoff(id));
                        return false;
                    }
                }
                self.handle_handoff(id);
                false
            }
            Envelope::Eos => {
                self.eos_left = self.eos_left.saturating_sub(1);
                let mut aligned = false;
                if let Some(ckpt) = self.ckpt.as_deref_mut() {
                    // A finished upstream leaves the alignment quorum: its
                    // marker for the current epoch either already arrived
                    // or never will.
                    ckpt.open_inputs = ckpt.open_inputs.saturating_sub(1);
                    aligned = ckpt.aligning != 0 && ckpt.markers_seen >= ckpt.open_inputs;
                }
                if aligned {
                    self.complete_alignment();
                }
                self.eos_left == 0
            }
        }
    }

    /// Processes a run of data envelopes under supervision: the data
    /// path's unit of invocation. The run goes through one supervised call
    /// ([`WorkerTask::invoke`]); a panic is charged to the one item in
    /// flight ([`WorkerTask::handle_panic`]), and the run resumes after it
    /// under whatever state supervision left — a restarted operator, or a
    /// stopped actor that forwards or drops the rest. A run that arrives
    /// mid-alignment waits behind the barrier whole.
    fn handle_run(&mut self, run: &[Envelope]) {
        if let Some(ckpt) = self.ckpt.as_deref_mut() {
            if ckpt.aligning != 0 {
                // Mid-alignment: the merged fan-in mailbox cannot
                // attribute data to a channel, so everything after the
                // first marker waits behind the barrier.
                ckpt.align_buf.extend_from_slice(run);
                return;
            }
        }
        let mut next = 0;
        while next < run.len() {
            if self.stopped {
                self.degrade(&run[next..]);
                return;
            }
            match self.invoke(&run[next..]) {
                Ok(()) => return,
                Err(p) => {
                    self.handle_panic(p.item, p.payload);
                    next += p.at + 1;
                }
            }
        }
    }

    /// Calls `op.process` on each item of `run` inside one [`guarded_raw`]
    /// call. With checkpointing on, each item is logged to the replay
    /// buffer *before* its own call, so a panic leaves the poisoned item as
    /// the log's last entry. Each item's outputs inherit its stamp. After
    /// the guarded call, the outputs of every item that completed are
    /// delivered in one pass — outside `catch_unwind`, so delivery and the
    /// helping a blocked send does never run under the guard. On a panic
    /// the in-flight item's partial output is discarded (the item either
    /// fully processes or dead-letters), the items after it are left
    /// unprocessed, and the item is returned with its index in `run`.
    fn invoke(&mut self, run: &[Envelope]) -> Result<(), RunPanic> {
        // Both live outside the closure so the unwind leaves them
        // pointing at the item in flight and the start of its outputs.
        let mut at = 0;
        let mut mark = self.out.len();
        let op = &mut self.op;
        let out = &mut self.out;
        let mut ckpt = self.ckpt.as_deref_mut();
        let result = guarded_raw(|| {
            for (i, env) in run.iter().enumerate() {
                let Envelope::Data(item) = *env else {
                    continue;
                };
                at = i;
                mark = out.len();
                if let Some(ckpt) = ckpt.as_deref_mut() {
                    ckpt.replay.push(ckpt.completed + 1, item);
                }
                op.process(item, out);
                out.inherit_stamp(mark, item.src_ns);
            }
        });
        match result {
            Ok(()) => {
                self.deliver_outputs();
                Ok(())
            }
            Err(payload) => {
                self.out.truncate(mark);
                self.deliver_outputs();
                let Envelope::Data(item) = run[at] else {
                    unreachable!("only data envelopes reach an operator call")
                };
                Err(RunPanic { at, item, payload })
            }
        }
    }

    /// Degraded mode: the actor is stopped, so `run`'s items are forwarded
    /// unprocessed or dead-lettered, as its [`DegradePolicy`] says.
    fn degrade(&mut self, run: &[Envelope]) {
        for env in run {
            let Envelope::Data(item) = *env else {
                continue;
            };
            match self.supervision.degrade {
                DegradePolicy::Forward => self.out.emit_default(item),
                DegradePolicy::Drop => {
                    self.ctx
                        .dead_letter(None, DeadLetterReason::StoppedActor, &item);
                }
            }
        }
        self.deliver_outputs();
    }

    /// The supervision path for the one item whose `process` call
    /// panicked inside a run. [`WorkerTask::invoke`] has already discarded
    /// that call's partial output and delivered what the run's earlier
    /// items emitted.
    fn handle_panic(&mut self, item: Tuple, payload: Box<dyn Any + Send>) {
        use std::sync::atomic::Ordering;
        // Output coalesced from earlier items is sound: flush it before
        // any backoff sleep so downstream is not starved while this actor
        // recovers.
        self.ctx.flush_all();
        self.ctx.metrics[Counter::Panics].fetch_add(1, Ordering::Relaxed);
        self.ctx.trace_event(TraceEventKind::OperatorPanicked);
        let message = panic_message(payload.as_ref());
        let handled = match self.supervision.policy {
            SupervisionPolicy::Resume => {
                // The poisoned item is dropped, so it must not be in the
                // replay log either (it contributed nothing to state).
                if let Some(ckpt) = self.ckpt.as_deref_mut() {
                    ckpt.replay.pop_last();
                }
                false
            }
            _ => self.restart_or_stop() && self.recover_and_retry(item),
        };
        if !handled {
            self.ctx
                .dead_letter_msg(None, DeadLetterReason::OperatorPanic, &item, Some(message));
        }
    }

    /// Stateful recovery after a restart: restores the last snapshot,
    /// replays the logged input with outputs suppressed (they were already
    /// delivered), then retries the failed `item` live, as a one-item run
    /// ([`WorkerTask::invoke`]) — its output was never delivered. Returns
    /// false when `item` must dead-letter: with no checkpoint layer or an
    /// overflowed replay buffer (the pre-checkpoint semantics — the
    /// operator restarts empty), or when the retry panics again (dropped
    /// like `Resume` instead of looping forever).
    fn recover_and_retry(&mut self, item: Tuple) -> bool {
        use std::sync::atomic::Ordering;
        let recovered = match self.ckpt.take() {
            Some(mut ckpt) => {
                // The poisoned item is the log's last entry: replay what
                // precedes it; the retry logs it again.
                ckpt.replay.pop_last();
                let ok = self.recover(&mut ckpt);
                self.ckpt = Some(ckpt);
                ok
            }
            None => false,
        };
        if !recovered {
            return false;
        }
        if self.invoke(&[Envelope::Data(item)]).is_ok() {
            return true;
        }
        self.ctx.metrics[Counter::Panics].fetch_add(1, Ordering::Relaxed);
        self.ctx.trace_event(TraceEventKind::OperatorPanicked);
        if let Some(ckpt) = self.ckpt.as_deref_mut() {
            ckpt.replay.pop_last();
        }
        false
    }

    /// The supervision decision after a panic that is not resumed. Within
    /// a `Restart` budget the operator is rebuilt (or reset) after its
    /// backoff and `true` is returned; otherwise (`Stop`, or the budget is
    /// spent) the actor stops and `false` is returned.
    fn restart_or_stop(&mut self) -> bool {
        use std::sync::atomic::Ordering;
        let policy = match &self.supervision.policy {
            SupervisionPolicy::Restart(p) if self.restarts_done < p.max_restarts => p.clone(),
            _ => {
                self.stopped = true;
                self.ctx.trace_event(TraceEventKind::ActorStopped);
                return false;
            }
        };
        self.restarts_done += 1;
        self.restart_backoff(&policy);
        match &self.factory {
            Some(f) => self.op = f.build(),
            None => self.op.reset(),
        }
        self.ctx.metrics[Counter::Restarts].fetch_add(1, Ordering::Relaxed);
        self.ctx.trace_event(TraceEventKind::OperatorRestarted);
        true
    }

    /// Sleeps the restart backoff delay and records it.
    fn restart_backoff(&mut self, policy: &RestartPolicy) {
        use std::sync::atomic::Ordering;
        let delay = policy.backoff.delay(self.restarts_done, &mut self.ctx.rng);
        if !delay.is_zero() {
            thread::sleep(delay);
            self.ctx
                .metrics
                .backoff_ns
                .fetch_add(delay.as_nanos() as u64, Ordering::Relaxed);
            self.ctx.trace_event(TraceEventKind::Backoff {
                ns: delay.as_nanos() as u64,
            });
        }
    }

    /// Restores the freshly rebuilt operator from its last local snapshot
    /// and replays the logged post-snapshot input with outputs suppressed.
    /// Returns false when the replay buffer overflowed since the last
    /// snapshot — recovery then degrades to the plain reset the caller
    /// already did.
    fn recover(&mut self, ckpt: &mut CkptState) -> bool {
        use std::sync::atomic::Ordering;
        if !ckpt.replay.is_valid() {
            return false;
        }
        if let Some(snap) = &ckpt.snapshot {
            let op = &mut self.op;
            // A panicking or failed restore leaves the operator freshly
            // reset — replay still reconstructs what it can.
            let _ = guarded_raw(|| {
                op.restore(snap);
            });
        }
        // Re-inject handoffs merged since the restored snapshot (their
        // published copies are retained in the shared map until the next
        // completed checkpoint for exactly this case): the snapshot
        // predates the merge and the replay log only holds data tuples.
        // Injection precedes replay — pre-merge replay data is for
        // disjoint keys (commutes), post-merge moved-key data then lands
        // on the re-injected state.
        if let Some(rc) = self.reconfig.as_deref_mut() {
            if !rc.merged_since_snapshot.is_empty() {
                let snaps: Vec<StateSnapshot> = {
                    let map = rc
                        .shared
                        .handoffs
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner);
                    rc.merged_since_snapshot
                        .iter()
                        .filter_map(|id| map.get(id).cloned())
                        .collect()
                };
                for snap in &snaps {
                    if !snap.is_empty() {
                        let op = &mut self.op;
                        let _ = guarded_raw(|| {
                            op.inject_state(snap);
                        });
                    }
                }
            }
        }
        let n = ckpt.replay.len();
        for (_, tuple) in ckpt.replay.entries() {
            let tuple = *tuple;
            let op = &mut self.op;
            let out = &mut self.out;
            // Replay panics are skipped: the tuple's output was already
            // delivered in its first life, and deterministic faults are
            // fire-once, so a second failure only means lost state we
            // cannot do better on.
            let _ = guarded_raw(|| op.process(tuple, out));
            self.out.clear();
        }
        // Re-drop keys extracted (handed off) since the restored snapshot:
        // restore + replay just rebuilt their state locally, but the
        // published copy is authoritative — stale local state would
        // double-emit at the terminal flush. Extraction follows replay so
        // pre-swap moved-key replay data is dropped with it.
        if let Some(rc) = self.reconfig.as_deref_mut() {
            for (_, keys) in rc.extracted_since_snapshot.iter() {
                let op = &mut self.op;
                let _ = guarded_raw(|| {
                    let _ = op.extract_keys(keys);
                });
            }
        }
        self.ctx.metrics[Counter::Recoveries].fetch_add(1, Ordering::Relaxed);
        self.ctx.metrics[Counter::Replayed].fetch_add(n as u64, Ordering::Relaxed);
        self.ctx
            .metrics
            .restored_epoch
            .store(ckpt.snapshot_epoch, Ordering::Relaxed);
        self.ctx.trace_event(TraceEventKind::Recovered {
            epoch: ckpt.snapshot_epoch,
            replayed: n as u64,
        });
        true
    }

    /// Finishes the in-progress barrier: snapshot (under supervision), ack
    /// the coordinator, re-broadcast the marker downstream, then release
    /// the buffered post-barrier envelopes in arrival order.
    fn complete_alignment(&mut self) {
        use std::sync::atomic::Ordering;
        let Some(mut ckpt) = self.ckpt.take() else {
            return;
        };
        let epoch = ckpt.aligning;
        ckpt.aligning = 0;
        ckpt.markers_seen = 0;
        ckpt.completed = epoch;
        if let Some(t0) = ckpt.align_started.take() {
            self.ctx.metrics[Counter::AlignStallNs]
                .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        if !self.stopped {
            self.take_snapshot(&mut ckpt, epoch);
        }
        // Stopped (degraded) actors still ack and forward markers: a dead
        // operator must not stall the global checkpoint frontier.
        if let Some(c) = &self.ctx.coordinator {
            c.ack(self.ctx.id.0, epoch);
        }
        // Marker first, buffered data second: downstream must see the
        // barrier before any post-barrier output.
        self.ctx.broadcast_marker(epoch);
        // Staged route swaps fire here — after the marker broadcast (so
        // every pre-barrier tuple is already flushed under the old route)
        // and before the buffered post-barrier envelopes are released
        // (which would otherwise be routed pre-swap). This makes the swap
        // barrier-exact.
        self.apply_reconfig(epoch);
        let buffered = std::mem::take(&mut ckpt.align_buf);
        self.ckpt = Some(ckpt);
        // Only Data, Handoff tokens and deferred Epoch markers are ever
        // buffered, so no termination signal can hide in here.
        let _ = self.handle_envs(&buffered);
    }

    /// Captures the operator snapshot for `epoch`, routing a panicking
    /// `snapshot` (e.g. a deterministic `crash_at_epoch` fault) through
    /// the actor's supervision policy with one retry after recovery.
    fn take_snapshot(&mut self, ckpt: &mut CkptState, epoch: u64) {
        use std::sync::atomic::Ordering;
        let mut captured: Option<Option<StateSnapshot>> = None;
        let ok = {
            let op = &mut self.op;
            let slot = &mut captured;
            guarded_raw(|| *slot = Some(op.snapshot())).is_ok()
        };
        if !ok {
            self.ctx.metrics[Counter::Panics].fetch_add(1, Ordering::Relaxed);
            self.ctx.trace_event(TraceEventKind::OperatorPanicked);
            // Resume: state is intact as far as we know; keep the previous
            // snapshot and skip this epoch's capture.
            if !matches!(self.supervision.policy, SupervisionPolicy::Resume)
                && self.restart_or_stop()
            {
                // No in-flight item here: replay everything since the
                // previous snapshot, then retry the capture once
                // (deterministic faults are fire-once).
                let _ = self.recover(ckpt);
                let op = &mut self.op;
                let slot = &mut captured;
                let _ = guarded_raw(|| *slot = Some(op.snapshot()));
            }
        }
        if let Some(snap) = captured {
            let bytes = snap.as_ref().map_or(0, StateSnapshot::len) as u64;
            // The fresh snapshot covers every handoff merged or extracted
            // so far: published copies of merged handoffs can leave the
            // shared map, and the restart re-drop list resets.
            if let Some(rc) = self.reconfig.as_deref_mut() {
                if !rc.merged_since_snapshot.is_empty() {
                    let mut map = rc
                        .shared
                        .handoffs
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner);
                    for id in rc.merged_since_snapshot.drain(..) {
                        map.remove(&id);
                    }
                }
                rc.extracted_since_snapshot.clear();
            }
            ckpt.snapshot = snap;
            ckpt.snapshot_epoch = epoch;
            // Everything at or before this barrier is in the snapshot; an
            // overflowed buffer re-arms here, consistent again.
            ckpt.replay.trim_through(epoch);
            self.ctx.metrics[Counter::Snapshots].fetch_add(1, Ordering::Relaxed);
            self.ctx.metrics[Counter::SnapshotBytes].fetch_add(bytes, Ordering::Relaxed);
            self.ctx
                .trace_event(TraceEventKind::CheckpointCompleted { epoch, bytes });
        }
        // On an unrecovered capture failure the previous snapshot and the
        // untrimmed log stay authoritative — recovery remains correct,
        // just with a longer replay.
    }

    /// Processes the drained inbox and flushes coalesced output, charging
    /// the actor's busy counter once for the whole batch: elapsed wall
    /// time minus whatever the batch spent blocked on backpressure or
    /// sleeping in restart backoff (both tracked exactly, on this thread,
    /// by the paths that wait). Timing per batch instead of per operator
    /// call keeps `clock_gettime` off the per-tuple path — at
    /// pass-through service times the two reads cost more than the
    /// operator. The price is that busy time now includes routing and
    /// buffering overhead; see [`ActorReport::busy`].
    fn process_batch(&mut self) -> bool {
        use std::sync::atomic::Ordering;
        if self.reconfig.is_some() {
            self.poll_reconfig();
        }
        let blocked0 = self.ctx.metrics[Counter::BlockedNs].load(Ordering::Relaxed);
        let backoff0 = self.ctx.metrics.backoff_ns.load(Ordering::Relaxed);
        let t0 = Instant::now();
        let finished = self.process_inbox();
        // Coalesced output never outlives the input batch that produced
        // it: flush before the next intake so batching adds no cross-batch
        // latency.
        self.ctx.flush_all();
        let elapsed = t0.elapsed().as_nanos() as u64;
        let waited = (self.ctx.metrics[Counter::BlockedNs].load(Ordering::Relaxed) - blocked0)
            + (self.ctx.metrics.backoff_ns.load(Ordering::Relaxed) - backoff0);
        self.ctx.metrics[Counter::BusyNs]
            .fetch_add(elapsed.saturating_sub(waited), Ordering::Relaxed);
        finished
    }

    /// Routes the operator's buffered emissions, holding back tuples whose
    /// key is in the active migration pause set (port 0 only — the data
    /// port). Collapses to the plain [`DeliveryCtx::deliver`] whenever no
    /// pause is active, i.e. always outside a key-handoff window.
    fn deliver_outputs(&mut self) {
        match self.reconfig.as_deref_mut() {
            Some(rc) if !rc.pause_keys.is_empty() => {
                for (port, tuple) in self.out.drain() {
                    if port == 0 && rc.pause_keys.contains(&tuple.key) {
                        rc.paused.push(tuple);
                    } else {
                        self.ctx.deliver_one(port, tuple);
                    }
                }
            }
            _ => self.ctx.deliver(&mut self.out),
        }
    }

    /// Once-per-batch reconfiguration poll: pulls freshly posted ops when
    /// the shared generation moved, applies them immediately when no
    /// barrier machinery exists to gate them, and completes any pending
    /// pause–drain–resume handoff.
    fn poll_reconfig(&mut self) {
        let Some(rc) = self.reconfig.as_deref_mut() else {
            return;
        };
        if rc.outdated() {
            let actor = self.ctx.id.0;
            rc.pull(actor);
            if self.ckpt.is_none() {
                // Checkpointing off: no barriers will ever fire, so
                // epoch-gated ops would rot. Apply now — only safe (and
                // only intended) for stateless rescaling.
                self.apply_reconfig(u64::MAX);
            }
        }
        self.try_complete_handoffs();
    }

    /// Applies every staged op gated on an epoch `<= epoch`: swaps the
    /// route, publishes extraction requests, forwards the in-band
    /// [`Envelope::Handoff`] request tokens to the old owners (FIFO-ordered
    /// behind the barrier marker just broadcast), and arms the pause set.
    fn apply_reconfig(&mut self, epoch: u64) {
        use std::sync::atomic::Ordering;
        let Some(rc) = self.reconfig.as_deref_mut() else {
            return;
        };
        if rc.staged.is_empty() {
            return;
        }
        let mut i = 0;
        while i < rc.staged.len() {
            let ReconfigOp::SwapRoute { at_epoch, .. } = &rc.staged[i];
            if *at_epoch > epoch {
                i += 1;
                continue;
            }
            let ReconfigOp::SwapRoute {
                port,
                route,
                pause_keys,
                handoffs,
                ..
            } = rc.staged.remove(i);
            let destinations = route.destinations().len() as u64;
            if port < self.ctx.routes.len() {
                self.ctx.routes[port] = RouteState::new(route);
            }
            self.ctx.trace_event(TraceEventKind::Reconfigured {
                epoch: if epoch == u64::MAX { 0 } else { epoch },
                port,
                destinations,
                moved_keys: pause_keys.len() as u64,
            });
            if handoffs.is_empty() {
                // Stateless rescale: the swap is complete as soon as the
                // route is replaced.
                rc.shared.applied.fetch_add(1, Ordering::Release);
                continue;
            }
            {
                let mut reqs = rc
                    .shared
                    .extract_requests
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                for h in &handoffs {
                    reqs.insert(h.id, h.keys.clone());
                }
            }
            for h in &handoffs {
                // In-band extraction request to the old owner; FIFO order
                // behind the marker makes the extracted state exactly the
                // barrier-consistent state.
                self.ctx.out_bufs[h.from].push(Envelope::Handoff(h.id));
                self.ctx.buffered += 1;
                rc.expect_handoffs.push((h.id, h.to));
            }
            rc.pause_keys.extend(pause_keys);
            rc.pending_release += 1;
            self.ctx.flush_all();
        }
    }

    /// Completes a pending pause–drain–resume: once every expected handoff
    /// is published, pushes the in-band merge token to each new owner and
    /// *then* releases the paused tuples through the new route — the shared
    /// FIFO buffer guarantees every new owner merges state before seeing
    /// any moved-key data.
    fn try_complete_handoffs(&mut self) {
        use std::sync::atomic::Ordering;
        let Some(rc) = self.reconfig.as_deref_mut() else {
            return;
        };
        if rc.expect_handoffs.is_empty() {
            if !rc.pause_keys.is_empty() || !rc.paused.is_empty() {
                // Defensive: a swap that paused keys without expecting
                // handoffs must not black-hole tuples.
                rc.pause_keys.clear();
                let paused = std::mem::take(&mut rc.paused);
                for tuple in paused {
                    self.ctx.deliver_one(0, tuple);
                }
                self.ctx.flush_all();
            }
            return;
        }
        if !rc.handoffs_ready() {
            return;
        }
        for (id, dest) in std::mem::take(&mut rc.expect_handoffs) {
            self.ctx.out_bufs[dest].push(Envelope::Handoff(id));
            self.ctx.buffered += 1;
        }
        rc.pause_keys.clear();
        let paused = std::mem::take(&mut rc.paused);
        for tuple in paused {
            self.ctx.deliver_one(0, tuple);
        }
        self.ctx.flush_all();
        rc.shared
            .applied
            .fetch_add(rc.pending_release, Ordering::Release);
        rc.pending_release = 0;
    }

    /// Handles an in-band [`Envelope::Handoff`] token. Which side this
    /// actor is on is decided by the shared maps: an outstanding extraction
    /// request makes it the old owner (extract + publish); otherwise a
    /// published snapshot makes it the new owner (merge). Unknown ids are
    /// inert.
    fn handle_handoff(&mut self, id: u64) {
        use std::sync::atomic::Ordering;
        let Some(rc) = self.reconfig.as_deref_mut() else {
            return;
        };
        let keys = {
            let mut reqs = rc
                .shared
                .extract_requests
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            reqs.remove(&id)
        };
        if let Some(keys) = keys {
            let mut extracted: Option<StateSnapshot> = None;
            {
                let op = &mut self.op;
                let slot = &mut extracted;
                let _ = guarded_raw(|| *slot = op.extract_keys(&keys));
            }
            let snap = extracted.unwrap_or_default();
            self.ctx.trace_event(TraceEventKind::StateMigrated {
                handoff: id,
                bytes: snap.len() as u64,
                outbound: true,
            });
            rc.extracted_since_snapshot.push((id, keys));
            rc.shared
                .handoffs
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .insert(id, snap);
            return;
        }
        // New-owner side. The snapshot stays in the shared map until this
        // actor's next completed checkpoint covers the merge (see
        // `take_snapshot`), so a supervised restart in between re-injects
        // it during `recover`.
        let snap = {
            let map = rc
                .shared
                .handoffs
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            map.get(&id).cloned()
        };
        if let Some(snap) = snap {
            if !snap.is_empty() {
                let op = &mut self.op;
                let _ = guarded_raw(|| {
                    op.inject_state(&snap);
                });
            }
            rc.merged_since_snapshot.push(id);
            rc.shared.migrated.fetch_add(1, Ordering::Release);
            self.ctx.trace_event(TraceEventKind::StateMigrated {
                handoff: id,
                bytes: snap.len() as u64,
                outbound: false,
            });
        }
    }

    /// Blocks actor termination until any in-flight handoff completes: the
    /// paused tuples must flow before EOS. The old owners this actor is
    /// waiting on cannot be waiting on it in turn (they already have their
    /// extraction tokens and need no further input), so this terminates.
    /// The wait helps run downstream-ranked actors instead of parking the
    /// worker thread.
    fn await_handoffs(&mut self) {
        loop {
            self.try_complete_handoffs();
            let waiting = self
                .reconfig
                .as_deref()
                .is_some_and(|rc| !rc.expect_handoffs.is_empty());
            if !waiting {
                return;
            }
            if !run_one_ready(&self.ctx.pool, self.ctx.pool_slot) {
                thread::yield_now();
            }
        }
    }

    /// Terminal sequence: final operator flush (unless degraded-stopped),
    /// EOS propagation, finish trace. Runs exactly once per actor.
    fn finish(&mut self) {
        use std::sync::atomic::Ordering;
        if let Some(ckpt) = &self.ckpt {
            self.ctx.metrics[Counter::ReplayOverflows]
                .store(ckpt.replay.overflows(), Ordering::Relaxed);
        }
        if self.reconfig.is_some() {
            self.await_handoffs();
        }
        if !self.stopped {
            let op = &mut self.op;
            let out = &mut self.out;
            if guarded_call(&self.ctx.metrics, || op.flush(out)).is_ok() {
                self.deliver_outputs();
            } else {
                self.out.clear();
                self.ctx.metrics[Counter::Panics].fetch_add(1, Ordering::Relaxed);
                self.ctx.trace_event(TraceEventKind::OperatorPanicked);
            }
        }
        self.ctx.propagate_eos();
        self.ctx.trace_event(TraceEventKind::ActorFinished);
    }

    /// One activation: drain and process input batches until the
    /// mailbox is momentarily empty (run-until-blocked), the actor
    /// finishes, or the poll budget is exhausted (multi-tenant fairness
    /// quantum — see [`WorkerTask::poll_budget`]).
    pub(super) fn poll(&mut self) -> Polled {
        let intake = self.ctx.batch_size;
        let mut batches = 0usize;
        loop {
            let mut inbox = std::mem::take(&mut self.inbox);
            let drained = self.rx.try_drain(&mut inbox, intake);
            self.inbox = inbox;
            match drained {
                Drained::Received(_) => {
                    // One clock read covers the whole drained batch.
                    self.ctx.refresh_now();
                    if self.process_batch() {
                        self.finish();
                        return Polled::Finished;
                    }
                    batches += 1;
                    if batches >= self.poll_budget {
                        return Polled::Yielded;
                    }
                }
                Drained::Empty => return Polled::Blocked,
                Drained::Disconnected => {
                    self.finish();
                    return Polled::Finished;
                }
            }
        }
    }
}

/// Outcome of one [`WorkerTask::poll`] activation.
pub(super) enum Polled {
    /// Mailbox momentarily empty; the task parks until the next wake.
    Blocked,
    /// Poll budget exhausted with input still queued: the task goes back
    /// on the ready queue so the scheduler can interleave other tenants.
    Yielded,
    /// EOS drained or all producers gone; the task is done for good.
    Finished,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::{fast_cfg, pool_cfg, EveryTenth};
    use crate::engine::*;
    use crate::operators::{PassThrough, Spin};
    use crate::{Behavior, Route, SourceConfig};
    use std::sync::{Arc, Mutex};

    #[test]
    fn eos_waits_for_all_upstreams() {
        // Two branches converge on one sink; the sink must see items from
        // both before terminating.
        let mut g = ActorGraph::new();
        let s = g.add_actor(
            "src",
            Behavior::Source(SourceConfig::new(f64::INFINITY, 400)),
        );
        let a = g.add_actor("a", Behavior::worker(PassThrough));
        let b = g.add_actor("b", Behavior::worker(Spin::new("b", 50_000)));
        let k = g.add_actor("k", Behavior::worker(PassThrough));
        g.connect(
            s,
            Route::Probabilistic {
                choices: vec![(a, 0.5), (b, 0.5)],
            },
        );
        g.connect(a, Route::Unicast(k));
        g.connect(b, Route::Unicast(k));
        let r = run(g, &fast_cfg()).unwrap();
        assert_eq!(r.actor(k).items_in, 400);
    }

    #[test]
    fn flush_emissions_are_delivered_after_eos() {
        struct HoldAll {
            buf: Vec<Tuple>,
        }
        impl crate::StreamOperator for HoldAll {
            fn process(&mut self, item: Tuple, _out: &mut Outputs) {
                self.buf.push(item);
            }
            fn flush(&mut self, out: &mut Outputs) {
                for t in self.buf.drain(..) {
                    out.emit_default(t);
                }
            }
        }
        let mut g = ActorGraph::new();
        let s = g.add_actor(
            "src",
            Behavior::Source(SourceConfig::new(f64::INFINITY, 50)),
        );
        let h = g.add_actor("hold", Behavior::Worker(Box::new(HoldAll { buf: vec![] })));
        let k = g.add_actor("sink", Behavior::worker(PassThrough));
        g.connect(s, Route::Unicast(h));
        g.connect(h, Route::Unicast(k));
        let r = run(g, &fast_cfg()).unwrap();
        assert_eq!(r.actor(k).items_in, 50);
    }

    /// Panics on items whose `seq` is a multiple of `every` (except 0 when
    /// `skip_zero`); passes everything else through.
    struct PanicEvery {
        every: u64,
    }
    impl crate::StreamOperator for PanicEvery {
        fn process(&mut self, item: Tuple, out: &mut Outputs) {
            if item.seq.is_multiple_of(self.every) {
                panic!("injected: seq {}", item.seq);
            }
            out.emit_default(item);
        }
        fn name(&self) -> &str {
            "panic-every"
        }
    }

    /// A sink that records every tuple it receives, in arrival order.
    struct Record(Arc<Mutex<Vec<Tuple>>>);
    impl crate::StreamOperator for Record {
        fn process(&mut self, item: Tuple, _out: &mut Outputs) {
            self.0.lock().unwrap().push(item);
        }
    }

    /// Adds a [`Record`] sink to `g`, returning its id and its log.
    fn record_sink(g: &mut ActorGraph) -> (ActorId, Arc<Mutex<Vec<Tuple>>>) {
        let log = Arc::new(Mutex::new(Vec::new()));
        let k = g.add_actor("sink", Behavior::Worker(Box::new(Record(log.clone()))));
        (k, log)
    }

    fn seqs(log: &Mutex<Vec<Tuple>>) -> Vec<u64> {
        log.lock().unwrap().iter().map(|t| t.seq).collect()
    }

    #[test]
    fn resume_drops_only_poisoned_items() {
        use crate::supervision::SupervisorSpec;
        let mut g = ActorGraph::new();
        let s = g.add_actor(
            "src",
            Behavior::Source(SourceConfig::new(f64::INFINITY, 100)),
        );
        let w = g.add_actor(
            "flaky",
            Behavior::Worker(Box::new(PanicEvery { every: 10 })),
        );
        let (k, log) = record_sink(&mut g);
        g.connect(s, Route::Unicast(w));
        g.connect(w, Route::Unicast(k));
        g.set_supervision(w, SupervisorSpec::resume());
        let r = run(g, &fast_cfg()).unwrap();
        // seq 0, 10, ..., 90 panic: 10 poisoned items, 90 delivered.
        assert_eq!(r.actor(w).items_in, 100);
        assert_eq!(r.actor(w).panics, 10);
        assert_eq!(r.actor(w).restarts, 0);
        assert_eq!(r.actor(k).items_in, 90);
        assert_eq!(r.dead_letters.total(), 10);
        assert_eq!(
            r.dead_letters.by_reason(DeadLetterReason::OperatorPanic),
            10
        );
        assert!(r.dead_letters.entries().iter().all(|l| l.source == w));
        let expected: Vec<u64> = (0..100).filter(|q| q % 10 != 0).collect();
        assert_eq!(seqs(&log), expected);
    }

    #[test]
    fn restart_reinstantiates_operator_via_factory() {
        use crate::supervision::{Backoff, OperatorFactory, SupervisorSpec};
        // Dies on its 3rd item, every life: without restart (state reset)
        // it would stop after one failure.
        struct DiesAtThree {
            seen: u64,
        }
        impl crate::StreamOperator for DiesAtThree {
            fn process(&mut self, item: Tuple, out: &mut Outputs) {
                self.seen += 1;
                if self.seen == 3 {
                    panic!("third item");
                }
                out.emit_default(item);
            }
        }
        let mut g = ActorGraph::new();
        let s = g.add_actor(
            "src",
            Behavior::Source(SourceConfig::new(f64::INFINITY, 30)),
        );
        let w = g.add_actor(
            "fragile",
            Behavior::Worker(Box::new(DiesAtThree { seen: 0 })),
        );
        let k = g.add_actor("sink", Behavior::worker(PassThrough));
        g.connect(s, Route::Unicast(w));
        g.connect(w, Route::Unicast(k));
        g.set_supervision(w, SupervisorSpec::restart(100, Backoff::none()));
        g.set_restart_factory(
            w,
            OperatorFactory::new(|| Box::new(DiesAtThree { seen: 0 })),
        );
        let r = run(g, &fast_cfg()).unwrap();
        // Every life processes 2 items then dies on the 3rd: 30 items =
        // 10 lives, 10 panics, 10 restarts, 20 delivered.
        assert_eq!(r.actor(w).panics, 10);
        assert_eq!(r.actor(w).restarts, 10);
        assert_eq!(r.actor(k).items_in, 20);
        assert_eq!(r.dead_letters.total(), 10);
    }

    #[test]
    fn restart_without_factory_resets_operator() {
        use crate::supervision::{Backoff, SupervisorSpec};
        struct DiesAtThree {
            seen: u64,
        }
        impl crate::StreamOperator for DiesAtThree {
            fn process(&mut self, item: Tuple, out: &mut Outputs) {
                self.seen += 1;
                if self.seen == 3 {
                    panic!("third item");
                }
                out.emit_default(item);
            }
            fn reset(&mut self) {
                self.seen = 0;
            }
        }
        let mut g = ActorGraph::new();
        let s = g.add_actor(
            "src",
            Behavior::Source(SourceConfig::new(f64::INFINITY, 30)),
        );
        let w = g.add_actor(
            "fragile",
            Behavior::Worker(Box::new(DiesAtThree { seen: 0 })),
        );
        let k = g.add_actor("sink", Behavior::worker(PassThrough));
        g.connect(s, Route::Unicast(w));
        g.connect(w, Route::Unicast(k));
        g.set_supervision(w, SupervisorSpec::restart(100, Backoff::none()));
        let r = run(g, &fast_cfg()).unwrap();
        assert_eq!(r.actor(w).panics, 10);
        assert_eq!(r.actor(w).restarts, 10);
        assert_eq!(r.actor(k).items_in, 20);
    }

    #[test]
    fn restart_backoff_time_is_recorded() {
        use crate::supervision::{Backoff, SupervisorSpec};
        let mut g = ActorGraph::new();
        let s = g.add_actor(
            "src",
            Behavior::Source(SourceConfig::new(f64::INFINITY, 20)),
        );
        let w = g.add_actor("flaky", Behavior::Worker(Box::new(PanicEvery { every: 5 })));
        g.connect(s, Route::Unicast(w));
        g.set_supervision(
            w,
            SupervisorSpec::restart(
                100,
                Backoff {
                    initial: Duration::from_millis(2),
                    max: Duration::from_millis(2),
                    multiplier: 1.0,
                    jitter: 0.0,
                },
            ),
        );
        let r = run(g, &fast_cfg()).unwrap();
        assert_eq!(r.actor(w).restarts, 4);
        assert!(
            r.actor(w).backoff >= Duration::from_millis(8),
            "backoff {:?}",
            r.actor(w).backoff
        );
    }

    #[test]
    fn restart_budget_exhaustion_stops_the_actor() {
        use crate::supervision::{Backoff, SupervisorSpec};
        struct AlwaysPanics;
        impl crate::StreamOperator for AlwaysPanics {
            fn process(&mut self, _item: Tuple, _out: &mut Outputs) {
                panic!("always");
            }
        }
        let mut g = ActorGraph::new();
        let s = g.add_actor(
            "src",
            Behavior::Source(SourceConfig::new(f64::INFINITY, 50)),
        );
        let w = g.add_actor("doomed", Behavior::Worker(Box::new(AlwaysPanics)));
        let k = g.add_actor("sink", Behavior::worker(PassThrough));
        g.connect(s, Route::Unicast(w));
        g.connect(w, Route::Unicast(k));
        g.set_supervision(w, SupervisorSpec::restart(2, Backoff::none()));
        let r = run(g, &fast_cfg()).unwrap();
        // Items 1-3 panic (2 restarts used, 3rd failure exhausts the
        // budget); items 4-50 arrive at a stopped actor and drop.
        assert_eq!(r.actor(w).panics, 3);
        assert_eq!(r.actor(w).restarts, 2);
        assert_eq!(r.actor(k).items_in, 0);
        assert_eq!(r.dead_letters.total(), 50);
        assert_eq!(r.dead_letters.by_reason(DeadLetterReason::OperatorPanic), 3);
        assert_eq!(r.dead_letters.by_reason(DeadLetterReason::StoppedActor), 47);
    }

    #[test]
    fn stopped_actor_can_degrade_to_forwarding() {
        use crate::supervision::{DegradePolicy, SupervisorSpec};
        let mut g = ActorGraph::new();
        let s = g.add_actor(
            "src",
            Behavior::Source(SourceConfig::new(f64::INFINITY, 40)),
        );
        // Panics on seq 0, i.e. immediately; Stop + Forward turns the
        // actor into an identity for the remaining 39 items.
        let w = g.add_actor(
            "flaky",
            Behavior::Worker(Box::new(PanicEvery { every: 64 })),
        );
        let k = g.add_actor("sink", Behavior::worker(PassThrough));
        g.connect(s, Route::Unicast(w));
        g.connect(w, Route::Unicast(k));
        g.set_supervision(
            w,
            SupervisorSpec::default().with_degrade(DegradePolicy::Forward),
        );
        let r = run(g, &fast_cfg()).unwrap();
        assert_eq!(r.actor(w).panics, 1);
        assert_eq!(r.actor(k).items_in, 39);
        assert_eq!(r.dead_letters.total(), 1);
    }

    #[test]
    fn default_policy_stops_and_drops_silently_but_accountably() {
        let mut g = ActorGraph::new();
        let s = g.add_actor(
            "src",
            Behavior::Source(SourceConfig::new(f64::INFINITY, 25)),
        );
        let w = g.add_actor(
            "flaky",
            Behavior::Worker(Box::new(PanicEvery { every: 64 })),
        );
        let k = g.add_actor("sink", Behavior::worker(PassThrough));
        g.connect(s, Route::Unicast(w));
        g.connect(w, Route::Unicast(k));
        // No set_supervision call: default is Stop + Drop.
        let r = run(g, &fast_cfg()).unwrap();
        assert_eq!(r.actor(w).panics, 1);
        assert_eq!(r.actor(k).items_in, 0);
        assert_eq!(r.dead_letters.total(), 25);
        assert_eq!(r.total_dead_letters(), 25);
    }

    #[test]
    fn telemetry_traces_panics_restarts_and_stops() {
        use crate::supervision::{Backoff, SupervisorSpec};
        let mut g = ActorGraph::new();
        let s = g.add_actor(
            "src",
            Behavior::Source(SourceConfig::new(f64::INFINITY, 20)),
        );
        let w = g.add_actor("flaky", Behavior::Worker(Box::new(PanicEvery { every: 5 })));
        g.connect(s, Route::Unicast(w));
        g.set_supervision(w, SupervisorSpec::restart(2, Backoff::none()));
        let (report, tel) =
            run_with_telemetry(g, &fast_cfg(), &TelemetryConfig::default()).unwrap();
        // seq 0 and 5 panic and restart; seq 10's panic exhausts the
        // budget (stop); seq 11-19 then arrive at a stopped actor.
        assert_eq!(report.actor(w).panics, 3);
        let count = |k: TraceEventKind| tel.trace.iter().filter(|e| e.kind == k).count() as u64;
        assert_eq!(count(TraceEventKind::OperatorPanicked), 3);
        assert_eq!(count(TraceEventKind::OperatorRestarted), 2);
        assert_eq!(count(TraceEventKind::ActorStopped), 1);
        // 3 poisoned items + 9 items dropped at the stopped actor.
        assert_eq!(
            tel.trace
                .iter()
                .filter(|e| matches!(e.kind, TraceEventKind::DeadLetter { .. }))
                .count(),
            12
        );
        // The final snapshot reflects the same counters.
        let last = tel.snapshots.last().unwrap();
        assert_eq!(last.actors[w.0].panics, 3);
        assert_eq!(last.actors[w.0].restarts, 2);
    }

    #[test]
    fn pool_restart_budget_exhaustion_stops_the_actor() {
        use crate::supervision::{Backoff, SupervisorSpec};
        // The pool analogue of `restart_budget_exhaustion_stops_the_actor`:
        // budget accounting and stopped-actor drops must survive the
        // executor swap.
        struct AlwaysPanics;
        impl crate::StreamOperator for AlwaysPanics {
            fn process(&mut self, _item: Tuple, _out: &mut Outputs) {
                panic!("always");
            }
        }
        let mut g = ActorGraph::new();
        let s = g.add_actor(
            "src",
            Behavior::Source(SourceConfig::new(f64::INFINITY, 50)),
        );
        let w = g.add_actor("doomed", Behavior::Worker(Box::new(AlwaysPanics)));
        let k = g.add_actor("sink", Behavior::worker(PassThrough));
        g.connect(s, Route::Unicast(w));
        g.connect(w, Route::Unicast(k));
        g.set_supervision(w, SupervisorSpec::restart(2, Backoff::none()));
        let r = run(g, &pool_cfg(2)).unwrap();
        assert_eq!(r.actor(w).panics, 3);
        assert_eq!(r.actor(w).restarts, 2);
        assert_eq!(r.actor(k).items_in, 0);
        assert_eq!(r.dead_letters.total(), 50);
        assert_eq!(r.dead_letters.by_reason(DeadLetterReason::OperatorPanic), 3);
        assert_eq!(r.dead_letters.by_reason(DeadLetterReason::StoppedActor), 47);
    }

    #[test]
    fn pool_stopped_actor_degrades_to_forward_or_drop() {
        use crate::supervision::{DegradePolicy, SupervisorSpec};
        // Degraded-mode routing under the pool executor: Forward turns the
        // stopped actor into an identity, Drop dead-letters everything.
        for (policy, sink_in, dead) in [
            (DegradePolicy::Forward, 39, 1),
            (DegradePolicy::Drop, 0, 40),
        ] {
            let mut g = ActorGraph::new();
            let s = g.add_actor(
                "src",
                Behavior::Source(SourceConfig::new(f64::INFINITY, 40)),
            );
            let w = g.add_actor(
                "flaky",
                Behavior::Worker(Box::new(PanicEvery { every: 64 })),
            );
            let k = g.add_actor("sink", Behavior::worker(PassThrough));
            g.connect(s, Route::Unicast(w));
            g.connect(w, Route::Unicast(k));
            g.set_supervision(w, SupervisorSpec::default().with_degrade(policy));
            let r = run(g, &pool_cfg(2)).unwrap();
            assert_eq!(r.actor(w).panics, 1, "{policy:?}");
            assert_eq!(r.actor(k).items_in, sink_in, "{policy:?}");
            assert_eq!(r.dead_letters.total(), dead, "{policy:?}");
        }
    }

    #[test]
    fn checkpointing_counts_epochs_and_snapshots() {
        let mut g = ActorGraph::new();
        let s = g.add_actor(
            "src",
            Behavior::Source(SourceConfig::new(f64::INFINITY, 500)),
        );
        let w = g.add_actor("mid", Behavior::worker(PassThrough));
        let k = g.add_actor("sink", Behavior::worker(PassThrough));
        g.connect(s, Route::Unicast(w));
        g.connect(w, Route::Unicast(k));
        let cfg = EngineConfig {
            checkpoint_interval: Some(100),
            ..fast_cfg()
        };
        let r = run(g, &cfg).unwrap();
        // 500 items at interval 100: epochs 1-5 all propagate to the sink.
        assert_eq!(r.last_complete_epoch, Some(5));
        assert_eq!(r.actor(w).snapshots, 5);
        assert_eq!(r.actor(k).snapshots, 5);
        // A stateless operator has nothing to capture: epochs complete
        // with zero serialized bytes.
        assert_eq!(r.actor(w).snapshot_bytes, 0);
        assert_eq!(r.actor(k).items_in, 500);
        assert_eq!(r.total_dropped(), 0);
    }

    #[test]
    fn fan_in_alignment_completes_epochs_across_sources() {
        // The merge actor must hold each epoch open until the marker has
        // arrived from *both* sources before snapshotting and acking.
        let mut g = ActorGraph::new();
        let s0 = g.add_actor(
            "src0",
            Behavior::Source(SourceConfig::new(f64::INFINITY, 300)),
        );
        let s1 = g.add_actor(
            "src1",
            Behavior::Source(SourceConfig::new(f64::INFINITY, 300)),
        );
        let m = g.add_actor("merge", Behavior::worker(PassThrough));
        let k = g.add_actor("sink", Behavior::worker(PassThrough));
        g.connect(s0, Route::Unicast(m));
        g.connect(s1, Route::Unicast(m));
        g.connect(m, Route::Unicast(k));
        let cfg = EngineConfig {
            checkpoint_interval: Some(100),
            ..fast_cfg()
        };
        let r = run(g, &cfg).unwrap();
        assert_eq!(r.last_complete_epoch, Some(3));
        assert_eq!(r.actor(m).snapshots, 3);
        assert_eq!(r.actor(m).items_in, 600);
        assert_eq!(r.actor(k).items_in, 600);
        assert_eq!(r.total_dropped(), 0);
    }

    #[test]
    fn checkpointing_off_reports_no_epochs() {
        let mut g = ActorGraph::new();
        let s = g.add_actor(
            "src",
            Behavior::Source(SourceConfig::new(f64::INFINITY, 200)),
        );
        let w = g.add_actor("mid", Behavior::Worker(Box::new(EveryTenth { count: 0 })));
        let k = g.add_actor("sink", Behavior::worker(PassThrough));
        g.connect(s, Route::Unicast(w));
        g.connect(w, Route::Unicast(k));
        // `fast_cfg` leaves `checkpoint_interval` at the default `None`:
        // no markers, no snapshots, no alignment stalls — even for an
        // operator that implements `snapshot`.
        let r = run(g, &fast_cfg()).unwrap();
        assert_eq!(r.last_complete_epoch, None);
        for a in &r.actors {
            assert_eq!(a.snapshots, 0);
            assert_eq!(a.snapshot_bytes, 0);
            assert_eq!(a.recoveries, 0);
            assert_eq!(a.align_stall, Duration::ZERO);
            assert_eq!(a.last_restored_epoch, None);
        }
        assert_eq!(r.actor(k).items_in, 20);
    }

    #[test]
    fn crash_recovery_restores_state_and_replays_input() {
        use crate::operators::{FaultConfig, FaultInjector};
        use crate::supervision::{Backoff, SupervisorSpec};
        // A deterministic crash on tuple 250 with snapshots every 100:
        // recovery restores the epoch-2 snapshot (count = 200), replays
        // the 49 logged tuples with output suppressed, then retries the
        // poisoned tuple live. The stateful counter never loses a beat:
        // the sink sees exactly 500 / 10 = 50 emissions and no item is
        // dead-lettered — the same totals as an unfaulted run.
        for (label, cfg) in [("pool-1", pool_cfg(1)), ("pool-2", pool_cfg(2))] {
            let cfg = EngineConfig {
                checkpoint_interval: Some(100),
                ..cfg
            };
            let mut g = ActorGraph::new();
            let s = g.add_actor(
                "src",
                Behavior::Source(SourceConfig::new(f64::INFINITY, 500)),
            );
            let w = g.add_actor(
                "stateful",
                Behavior::Worker(Box::new(FaultInjector::new(
                    EveryTenth { count: 0 },
                    FaultConfig::none().with_crash_after_tuples(250),
                ))),
            );
            let k = g.add_actor("sink", Behavior::worker(PassThrough));
            g.connect(s, Route::Unicast(w));
            g.connect(w, Route::Unicast(k));
            g.set_supervision(w, SupervisorSpec::restart(5, Backoff::none()));
            let r = run(g, &cfg).unwrap();
            let a = r.actor(w);
            assert_eq!(a.panics, 1, "{label}");
            assert_eq!(a.restarts, 1, "{label}");
            assert_eq!(a.recoveries, 1, "{label}");
            assert_eq!(a.replayed, 49, "{label}");
            assert_eq!(a.last_restored_epoch, Some(2), "{label}");
            assert!(a.snapshot_bytes > 0, "{label}");
            assert_eq!(r.actor(k).items_in, 50, "{label}");
            assert_eq!(r.dead_letters.total(), 0, "{label}");
            assert_eq!(r.last_complete_epoch, Some(5), "{label}");
        }
    }

    #[test]
    fn crash_inside_snapshot_recovers_and_retries_the_capture() {
        use crate::operators::{FaultConfig, FaultInjector};
        use crate::supervision::{Backoff, SupervisorSpec};
        // The fault fires *inside* the epoch-2 snapshot call. Supervision
        // restarts the operator, restores the epoch-1 snapshot, replays
        // the full inter-epoch log (100 tuples) and retries the capture —
        // the one-shot trigger stays fired, so the retry succeeds and
        // epoch 2 still completes globally.
        let cfg = EngineConfig {
            checkpoint_interval: Some(100),
            ..fast_cfg()
        };
        let mut g = ActorGraph::new();
        let s = g.add_actor(
            "src",
            Behavior::Source(SourceConfig::new(f64::INFINITY, 500)),
        );
        let w = g.add_actor(
            "stateful",
            Behavior::Worker(Box::new(FaultInjector::new(
                EveryTenth { count: 0 },
                FaultConfig::none().with_crash_at_epoch(2),
            ))),
        );
        let k = g.add_actor("sink", Behavior::worker(PassThrough));
        g.connect(s, Route::Unicast(w));
        g.connect(w, Route::Unicast(k));
        g.set_supervision(w, SupervisorSpec::restart(5, Backoff::none()));
        let r = run(g, &cfg).unwrap();
        let a = r.actor(w);
        assert_eq!(a.panics, 1);
        assert_eq!(a.restarts, 1);
        assert_eq!(a.recoveries, 1);
        assert_eq!(a.replayed, 100);
        assert_eq!(a.last_restored_epoch, Some(1));
        // Epoch 1 plus the retried epoch-2 capture plus epochs 3-5.
        assert_eq!(a.snapshots, 5);
        assert_eq!(r.actor(k).items_in, 50);
        assert_eq!(r.dead_letters.total(), 0);
        assert_eq!(r.last_complete_epoch, Some(5));
    }

    #[test]
    fn checkpoint_and_recovery_emit_trace_events() {
        use crate::operators::{FaultConfig, FaultInjector};
        use crate::supervision::{Backoff, SupervisorSpec};
        let cfg = EngineConfig {
            checkpoint_interval: Some(100),
            ..fast_cfg()
        };
        let mut g = ActorGraph::new();
        let s = g.add_actor(
            "src",
            Behavior::Source(SourceConfig::new(f64::INFINITY, 300)),
        );
        let w = g.add_actor(
            "stateful",
            Behavior::Worker(Box::new(FaultInjector::new(
                EveryTenth { count: 0 },
                FaultConfig::none().with_crash_after_tuples(150),
            ))),
        );
        let k = g.add_actor("sink", Behavior::worker(PassThrough));
        g.connect(s, Route::Unicast(w));
        g.connect(w, Route::Unicast(k));
        g.set_supervision(w, SupervisorSpec::restart(5, Backoff::none()));
        let (r, tel) = run_with_telemetry(g, &cfg, &TelemetryConfig::default()).unwrap();
        assert_eq!(r.actor(w).recoveries, 1);
        let completed: Vec<_> = tel
            .trace
            .iter()
            .filter_map(|e| match e.kind {
                TraceEventKind::CheckpointCompleted { epoch, .. } => Some((e.actor, epoch)),
                _ => None,
            })
            .collect();
        // Worker and sink each complete epochs 1-3.
        assert!(completed.contains(&(w, 1)), "events: {completed:?}");
        assert!(completed.contains(&(w, 3)));
        assert!(completed.contains(&(k, 3)));
        let recovered: Vec<_> = tel
            .trace
            .iter()
            .filter_map(|e| match e.kind {
                TraceEventKind::Recovered { epoch, replayed } => Some((e.actor, epoch, replayed)),
                _ => None,
            })
            .collect();
        assert_eq!(recovered, vec![(w, 1, 49)]);
    }

    /// Seqs that land first, mid-run and last in a 64-envelope drain of a
    /// source that sends full batches (0, 64, 100, 127, 191, 255), plus
    /// two back-to-back panics in one run (0, 1) and another mid-run one.
    const POISONED: [u64; 9] = [0, 1, 37, 63, 64, 100, 127, 191, 255];

    /// The batch sizes and pool widths the drained-batch panic tests run.
    fn batch_panic_cfgs() -> Vec<(String, EngineConfig)> {
        let mut cfgs = Vec::new();
        for batch in [1, 64] {
            for workers in [1, 2] {
                cfgs.push((
                    format!("pool-{workers}/batch-{batch}"),
                    EngineConfig {
                        batch_size: batch,
                        ..pool_cfg(workers)
                    },
                ));
            }
        }
        cfgs
    }

    /// Emits each item tagged (`values[0] = 1.0`); panics on the seqs in
    /// `poisoned` *after* emitting, so every poisoned call leaves partial
    /// output behind.
    struct TagOrPanic {
        poisoned: &'static [u64],
    }
    impl crate::StreamOperator for TagOrPanic {
        fn process(&mut self, item: Tuple, out: &mut Outputs) {
            let mut tagged = item;
            tagged.values[0] = 1.0;
            out.emit_default(tagged);
            if self.poisoned.contains(&item.seq) {
                panic!("injected: seq {}", item.seq);
            }
        }
    }

    fn tag_or_panic_pipeline(
        spec: SupervisorSpec,
        items: u64,
        poisoned: &'static [u64],
    ) -> (ActorGraph, ActorId, Arc<Mutex<Vec<Tuple>>>) {
        let mut g = ActorGraph::new();
        let s = g.add_actor(
            "src",
            Behavior::Source(SourceConfig::new(f64::INFINITY, items)),
        );
        let w = g.add_actor("flaky", Behavior::Worker(Box::new(TagOrPanic { poisoned })));
        let (k, log) = record_sink(&mut g);
        g.connect(s, Route::Unicast(w));
        g.connect(w, Route::Unicast(k));
        g.set_supervision(w, spec);
        (g, w, log)
    }

    #[test]
    fn resume_inside_a_drained_batch_drops_exactly_the_poisoned_items() {
        for (label, cfg) in batch_panic_cfgs() {
            let (g, w, log) = tag_or_panic_pipeline(SupervisorSpec::resume(), 320, &POISONED);
            let r = run(g, &cfg).unwrap();
            assert_eq!(r.actor(w).panics, POISONED.len() as u64, "{label}");
            // Every item after a panic, in the same run or a later one, is
            // processed; none of a poisoned call's partial output leaks.
            let expected: Vec<u64> = (0..320).filter(|q| !POISONED.contains(q)).collect();
            assert_eq!(seqs(&log), expected, "{label}");
            assert!(log.lock().unwrap().iter().all(|t| t.values[0] == 1.0));
            let dead: Vec<u64> = r.dead_letters.entries().iter().map(|l| l.seq).collect();
            assert_eq!(dead, POISONED, "{label}");
            assert!(r
                .dead_letters
                .entries()
                .iter()
                .all(|l| l.reason == DeadLetterReason::OperatorPanic));
        }
    }

    #[test]
    fn stop_inside_a_drained_batch_forwards_the_rest_unprocessed() {
        use crate::supervision::DegradePolicy;
        // The first panic (seq 37) stops the actor: the rest of its run and
        // every later run pass through untagged, so later poisoned seqs
        // never reach the operator.
        for (label, cfg) in batch_panic_cfgs() {
            let spec = SupervisorSpec::default().with_degrade(DegradePolicy::Forward);
            let (g, w, log) = tag_or_panic_pipeline(spec, 320, &POISONED[2..]);
            let r = run(g, &cfg).unwrap();
            assert_eq!(r.actor(w).panics, 1, "{label}");
            let got = log.lock().unwrap().clone();
            let expected: Vec<u64> = (0..320).filter(|&q| q != 37).collect();
            assert_eq!(got.iter().map(|t| t.seq).collect::<Vec<_>>(), expected);
            for t in &got {
                let tagged = t.values[0] == 1.0;
                assert_eq!(tagged, t.seq < 37, "{label}: seq {}", t.seq);
            }
            let dead: Vec<u64> = r.dead_letters.entries().iter().map(|l| l.seq).collect();
            assert_eq!(dead, vec![37], "{label}");
        }
    }

    /// Running sums over five keys (`seq % 5`): emits `(key, sum)` per item
    /// and each key's final sum at flush. Panics once per poisoned seq,
    /// after emitting; `fired` outlives restarts, so the retry succeeds.
    struct KeyedSums {
        sums: [u64; 5],
        poisoned: &'static [u64],
        fired: Arc<Mutex<Vec<u64>>>,
    }
    impl crate::StreamOperator for KeyedSums {
        fn process(&mut self, item: Tuple, out: &mut Outputs) {
            let key = (item.seq % 5) as usize;
            self.sums[key] += item.seq;
            out.emit_default(Tuple::splat(key as u64, item.seq, self.sums[key] as f64));
            if self.poisoned.contains(&item.seq) {
                let mut fired = self.fired.lock().unwrap();
                if !fired.contains(&item.seq) {
                    fired.push(item.seq);
                    drop(fired);
                    panic!("injected: seq {}", item.seq);
                }
            }
        }
        fn flush(&mut self, out: &mut Outputs) {
            for (key, sum) in self.sums.iter().enumerate() {
                out.emit_default(Tuple::splat(key as u64, u64::MAX, *sum as f64));
            }
        }
        fn reset(&mut self) {
            self.sums = [0; 5];
        }
        fn snapshot(&mut self) -> Option<crate::checkpoint::StateSnapshot> {
            let mut s = crate::checkpoint::StateSnapshot::new();
            for sum in self.sums {
                s.push_u64(sum);
            }
            Some(s)
        }
        fn restore(&mut self, snapshot: &crate::checkpoint::StateSnapshot) -> bool {
            let mut r = snapshot.reader();
            for sum in self.sums.iter_mut() {
                match r.read_u64() {
                    Some(v) => *sum = v,
                    None => return false,
                }
            }
            true
        }
    }

    #[test]
    fn restart_inside_a_drained_batch_matches_the_fault_free_run() {
        use crate::supervision::{Backoff, OperatorFactory};
        let sink_log = |cfg: &EngineConfig, poisoned: &'static [u64]| {
            let fired = Arc::new(Mutex::new(Vec::new()));
            let make = {
                let fired = fired.clone();
                move || KeyedSums {
                    sums: [0; 5],
                    poisoned,
                    fired: fired.clone(),
                }
            };
            let mut g = ActorGraph::new();
            let s = g.add_actor(
                "src",
                Behavior::Source(SourceConfig::new(f64::INFINITY, 320)),
            );
            let w = g.add_actor("sums", Behavior::Worker(Box::new(make())));
            let (k, log) = record_sink(&mut g);
            g.connect(s, Route::Unicast(w));
            g.connect(w, Route::Unicast(k));
            g.set_supervision(w, SupervisorSpec::restart(100, Backoff::none()));
            g.set_restart_factory(w, OperatorFactory::new(move || Box::new(make())));
            let r = run(g, cfg).unwrap();
            let got = log.lock().unwrap().clone();
            (r, w, got)
        };
        for (label, cfg) in batch_panic_cfgs() {
            let cfg = EngineConfig {
                checkpoint_interval: Some(100),
                ..cfg
            };
            let (_, _, clean) = sink_log(&cfg, &[]);
            assert_eq!(clean.len(), 320 + 5, "{label}");
            let (r, w, faulted) = sink_log(&cfg, &POISONED);
            let a = r.actor(w);
            assert_eq!(a.panics, POISONED.len() as u64, "{label}");
            assert_eq!(a.restarts, POISONED.len() as u64, "{label}");
            assert_eq!(a.recoveries, POISONED.len() as u64, "{label}");
            assert_eq!(r.dead_letters.total(), 0, "{label}");
            // Per-item outputs and the final keyed state (the flushed
            // sums) are the fault-free run's, tuple for tuple.
            assert_eq!(faulted, clean, "{label}");
        }
    }
}
