//! Per-actor runtime metrics and the run report.
//!
//! Every actor counts arrivals, departures, drops, busy time and
//! backpressure-blocked time, and timestamps its first and last departure.
//! From those the engine derives the *measured* steady-state departure
//! rates compared against the cost model in §5.2.
//!
//! The per-actor counters are declared once, in the [`Counter`] table
//! below: the engine's atomics, the discrete-event simulator's state, the
//! telemetry samples and the JSON-lines and Prometheus writers all follow
//! it.

use crate::supervision::DeadLetterLog;
use crate::ActorId;
use std::ops::Index;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// What a [`Counter`] accumulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterKind {
    /// A number of items or events.
    Count,
    /// Nanoseconds (wall-clock on the threaded engine, virtual in the
    /// discrete-event simulator).
    Nanos,
}

/// One row of the counter table ([`COUNTERS`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterSpec {
    /// The counter this row describes.
    pub counter: Counter,
    /// Export name: the JSON-lines field, and the Prometheus family
    /// `spinstreams_actor_<name>_total`.
    pub name: &'static str,
    /// What the counter accumulates.
    pub kind: CounterKind,
    /// The Prometheus `# HELP` text.
    pub help: &'static str,
}

/// Declares the counter table: one line per counter gives its
/// [`Counter`] variant, its export name (also its [`Counters`] field),
/// its [`CounterKind`] and its help text.
macro_rules! counter_table {
    ($($variant:ident $name:ident $kind:ident $help:literal;)*) => {
        /// One per-actor cumulative counter.
        ///
        /// The table behind it ([`COUNTERS`]) is the one list of per-actor
        /// counters. The engine keeps one atomic per entry, the
        /// discrete-event simulator and the telemetry samples one
        /// [`Counters`] value, and the JSON-lines and Prometheus writers
        /// iterate over the table, so a counter declared here is counted,
        /// sampled and exported everywhere.
        ///
        /// To add a counter, add one line to the `counter_table!`
        /// invocation in `metrics.rs` and its export name to
        /// `ACTOR_FIELDS` in `scripts/validate_telemetry.py`; the schema
        /// coverage test fails until both are done. New lines go at the
        /// end: the JSON writer emits the first two entries, then the
        /// derived rate and queue fields, then the rest in table order.
        /// Adding a counter changes the JSON-lines bytes, so the
        /// simulator goldens are re-pinned with it. [`ActorReport`] keeps
        /// its own named fields and carries a new counter only if
        /// `ActorReport::new` is taught to.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Counter {
            $(#[doc = $help] $variant,)*
        }

        impl Counter {
            /// Number of counters in the table.
            pub const COUNT: usize = [$(Counter::$variant),*].len();
        }

        /// The counter table, in export order.
        pub static COUNTERS: [CounterSpec; Counter::COUNT] = [$(CounterSpec {
            counter: Counter::$variant,
            name: stringify!($name),
            kind: CounterKind::$kind,
            help: $help,
        },)*];

        /// One value per [`Counter`]: an actor's cumulative counters at one
        /// instant. Fields are named after the export names; indexing by
        /// [`Counter`] reads the same cells.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct Counters {
            $(#[doc = $help] pub $name: u64,)*
        }

        impl Counters {
            /// Builds a value by evaluating `f` once per counter, in
            /// table order.
            pub fn from_fn(mut f: impl FnMut(Counter) -> u64) -> Self {
                Counters { $($name: f(Counter::$variant),)* }
            }
        }

        impl Index<Counter> for Counters {
            type Output = u64;
            fn index(&self, c: Counter) -> &u64 {
                match c { $(Counter::$variant => &self.$name,)* }
            }
        }
    };
}

counter_table! {
    ItemsIn items_in Count "Items consumed by the actor since run start.";
    ItemsOut items_out Count "Items emitted by the actor since run start.";
    Panics panics Count "Operator invocations that panicked (caught by the supervisor).";
    Restarts restarts Count "Times the supervisor re-instantiated the actor's operator after a panic.";
    DeadLetters dead_letters Count "Items the actor failed to deliver or lost to panics and degraded-mode drops.";
    Dropped dropped Count "Items the actor dropped on send timeout.";
    BusyNs busy_ns Nanos "Nanoseconds the actor spent servicing items.";
    BlockedNs blocked_ns Nanos "Nanoseconds the actor spent blocked sending into full downstream mailboxes.";
    InboxStallNs inbox_stall_ns Nanos "Nanoseconds producers spent stalled on this actor's inbox (receiver-edge backpressure).";
    Snapshots snapshots Count "Checkpoint snapshots the actor captured.";
    SnapshotBytes snapshot_bytes Count "Bytes of checkpoint state the actor captured.";
    AlignStallNs align_stall_ns Nanos "Nanoseconds spent waiting on checkpoint barrier alignment.";
    Recoveries recoveries Count "Checkpoint-restore recoveries the actor performed.";
    Replayed replayed Count "Items re-processed from the replay log after recoveries.";
    ReplayOverflows replay_overflows Count "Recoveries degraded to reset-to-empty by replay-buffer overflow.";
}

/// Shared mutable metric cells for one actor (written by the actor thread).
#[derive(Debug, Default)]
pub(crate) struct ActorMetrics {
    /// One cell per [`Counter`], indexed through `metrics[Counter::X]`.
    /// The [`Counter::InboxStallNs`] cell stays zero: the producers write
    /// that counter into the actor's mailbox, and [`Self::counters`]
    /// joins it in.
    counters: [AtomicU64; Counter::COUNT],
    /// Time spent sleeping in restart backoff (reported, not exported).
    pub backoff_ns: AtomicU64,
    /// Nanoseconds since engine start of the first/last departure
    /// (`u64::MAX` = never departed).
    pub first_out_ns: AtomicU64,
    pub last_out_ns: AtomicU64,
    /// Epoch of the snapshot last restored during recovery (0 = none).
    pub restored_epoch: AtomicU64,
}

impl Index<Counter> for ActorMetrics {
    type Output = AtomicU64;
    fn index(&self, c: Counter) -> &AtomicU64 {
        &self.counters[c as usize]
    }
}

impl ActorMetrics {
    pub(crate) fn new() -> Self {
        let m = ActorMetrics::default();
        m.first_out_ns.store(u64::MAX, Ordering::Relaxed);
        m
    }

    /// Records `n` departures sharing one timestamp — equivalent to `n`
    /// single-departure records with the same `now_ns`, but one counter
    /// RMW. Used by batched flushes and per-batch sink stamping, where
    /// every tuple in the batch carries the same clock reading anyway.
    pub(crate) fn record_out_n(&self, now_ns: u64, n: u64) {
        if n == 0 {
            return;
        }
        self[Counter::ItemsOut].fetch_add(n, Ordering::Relaxed);
        // Only the owning actor thread writes, so a simple compare works.
        if self.first_out_ns.load(Ordering::Relaxed) == u64::MAX {
            self.first_out_ns.store(now_ns, Ordering::Relaxed);
        }
        self.last_out_ns.store(now_ns, Ordering::Relaxed);
    }

    /// Loads every counter, joined with the mailbox-side stall
    /// accounting (`inbox_stall_ns`, 0 for sources).
    pub(crate) fn counters(&self, inbox_stall_ns: u64) -> Counters {
        let mut c = Counters::from_fn(|c| self[c].load(Ordering::Relaxed));
        c.inbox_stall_ns = inbox_stall_ns;
        c
    }

    /// The actor's final report.
    pub(crate) fn report(&self, name: &str, id: ActorId) -> ActorReport {
        let epoch = self.restored_epoch.load(Ordering::Relaxed);
        ActorReport::new(
            id,
            name.to_string(),
            &self.counters(0),
            self.first_out_ns.load(Ordering::Relaxed),
            self.last_out_ns.load(Ordering::Relaxed),
            Duration::from_nanos(self.backoff_ns.load(Ordering::Relaxed)),
            (epoch != 0).then_some(epoch),
        )
    }
}

/// Metrics snapshot of one actor after a run.
///
/// Every field stays public with its type: downstream tools (the
/// `perfbench` harness among them) read `name`, `items_in`, `items_out`,
/// `busy`, `blocked`, `snapshots`, `snapshot_bytes` and `align_stall`
/// directly, and call `RunReport::{total_dropped, total_dead_letters,
/// total_panics}`. Inside this crate a report is built only by
/// `ActorReport::new`, from a [`Counters`] value plus the fields that are
/// not counters; the threaded engine and the discrete-event simulator
/// both call it.
#[derive(Debug, Clone, PartialEq)]
pub struct ActorReport {
    /// The actor.
    pub id: ActorId,
    /// Diagnostic name from the actor graph.
    pub name: String,
    /// Items received.
    pub items_in: u64,
    /// Items emitted (delivered downstream, or consumed at a sink port).
    pub items_out: u64,
    /// Items dropped on send timeout.
    pub dropped: u64,
    /// Time spent processing input: operator invocations plus the
    /// engine's per-tuple routing/buffering overhead, measured once per
    /// drained batch and excluding backpressure blocking and restart
    /// backoff. (Per-invocation timing would put two `clock_gettime`
    /// calls on the per-tuple path — more than a cheap operator costs.)
    pub busy: Duration,
    /// Time spent blocked on full downstream mailboxes (backpressure).
    pub blocked: Duration,
    /// Nanoseconds (since run start) of the first departure
    /// (`u64::MAX` if none).
    pub first_out_ns: u64,
    /// Nanoseconds (since run start) of the last departure.
    pub last_out_ns: u64,
    /// Operator invocations that panicked (caught by the supervisor).
    pub panics: u64,
    /// Times the operator was re-instantiated after a panic.
    pub restarts: u64,
    /// Time spent sleeping in restart backoff.
    pub backoff: Duration,
    /// Dead letters attributed to this actor (items it failed to deliver
    /// or consumed by panics / degraded-mode drops).
    pub dead_letters: u64,
    /// Epoch snapshots captured at barrier alignment (checkpointing on).
    pub snapshots: u64,
    /// Total serialized bytes across all captured snapshots.
    pub snapshot_bytes: u64,
    /// Time spent holding input behind in-progress barrier alignments.
    pub align_stall: Duration,
    /// Restarts recovered via snapshot-restore + replay instead of a
    /// reset to empty state.
    pub recoveries: u64,
    /// Tuples replayed through the operator during recoveries.
    pub replayed: u64,
    /// Times the bounded replay buffer overflowed, degrading a future
    /// recovery to plain reset.
    pub replay_overflows: u64,
    /// Epoch of the snapshot last restored during a recovery (`None` if
    /// the actor never recovered from a snapshot).
    pub last_restored_epoch: Option<u64>,
}

impl ActorReport {
    /// Builds the report of actor `id` from its counters and the fields
    /// that are not counters: the first and last departure timestamps,
    /// the restart backoff and the last restored epoch. The
    /// [`Counter::InboxStallNs`] counter has no report field.
    pub(crate) fn new(
        id: ActorId,
        name: String,
        c: &Counters,
        first_out_ns: u64,
        last_out_ns: u64,
        backoff: Duration,
        last_restored_epoch: Option<u64>,
    ) -> Self {
        ActorReport {
            id,
            name,
            items_in: c.items_in,
            items_out: c.items_out,
            dropped: c.dropped,
            busy: Duration::from_nanos(c.busy_ns),
            blocked: Duration::from_nanos(c.blocked_ns),
            first_out_ns,
            last_out_ns,
            panics: c.panics,
            restarts: c.restarts,
            backoff,
            dead_letters: c.dead_letters,
            snapshots: c.snapshots,
            snapshot_bytes: c.snapshot_bytes,
            align_stall: Duration::from_nanos(c.align_stall_ns),
            recoveries: c.recoveries,
            replayed: c.replayed,
            replay_overflows: c.replay_overflows,
            last_restored_epoch,
        }
    }

    /// Measured steady-state departure rate in items/s: emissions divided
    /// by the first-to-last departure span. `None` with fewer than two
    /// departures.
    pub fn departure_rate(&self) -> Option<f64> {
        if self.items_out < 2 || self.first_out_ns == u64::MAX {
            return None;
        }
        let span_ns = self.last_out_ns.saturating_sub(self.first_out_ns);
        if span_ns == 0 {
            return None;
        }
        Some((self.items_out - 1) as f64 * 1e9 / span_ns as f64)
    }

    /// Fraction of wall time this actor spent blocked on backpressure.
    pub fn blocked_fraction(&self, wall: Duration) -> f64 {
        if wall.is_zero() {
            0.0
        } else {
            self.blocked.as_secs_f64() / wall.as_secs_f64()
        }
    }
}

/// The result of executing an actor graph to completion.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Per-actor snapshots, indexed by actor id.
    pub actors: Vec<ActorReport>,
    /// Wall-clock duration of the whole run.
    pub wall: Duration,
    /// Engine start instant (all `*_ns` fields are relative to it).
    pub started_at: Instant,
    /// Structural record of every undelivered item (capacity-bounded
    /// entries, exact totals).
    pub dead_letters: DeadLetterLog,
    /// The last globally complete checkpoint epoch — every actor (sources
    /// and sinks included) acked it. `None` with checkpointing off or if
    /// no epoch fully propagated before end of stream.
    pub last_complete_epoch: Option<u64>,
}

impl RunReport {
    /// The report of one actor.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn actor(&self, id: ActorId) -> &ActorReport {
        &self.actors[id.0]
    }

    /// Measured topology throughput, per the paper's definition (§5.2):
    /// the combined departure rate of the source actors. Multi-source
    /// topologies sum the per-source rates; `None` if no source produced a
    /// measurable rate (fewer than two departures everywhere).
    pub fn source_throughput(&self) -> Option<f64> {
        let rates: Vec<f64> = self
            .actors
            .iter()
            .filter(|a| a.items_in == 0 && a.items_out > 0)
            .filter_map(|a| a.departure_rate())
            .collect();
        if rates.is_empty() {
            None
        } else {
            Some(rates.iter().sum())
        }
    }

    /// Total items dropped anywhere (should be zero with an adequate send
    /// timeout; §5.1 sets it well above the largest service time).
    pub fn total_dropped(&self) -> u64 {
        self.actors.iter().map(|a| a.dropped).sum()
    }

    /// Total caught operator panics across all actors.
    pub fn total_panics(&self) -> u64 {
        self.actors.iter().map(|a| a.panics).sum()
    }

    /// Total operator restarts across all actors.
    pub fn total_restarts(&self) -> u64 {
        self.actors.iter().map(|a| a.restarts).sum()
    }

    /// Total dead letters across all actors (equals
    /// `self.dead_letters.total()`).
    pub fn total_dead_letters(&self) -> u64 {
        self.actors.iter().map(|a| a.dead_letters).sum()
    }

    /// Total snapshot-restore recoveries across all actors.
    pub fn total_recoveries(&self) -> u64 {
        self.actors.iter().map(|a| a.recoveries).sum()
    }

    /// Total tuples replayed during recoveries across all actors.
    pub fn total_replayed(&self) -> u64 {
        self.actors.iter().map(|a| a.replayed).sum()
    }

    /// Total replay-buffer overflows across all actors.
    pub fn total_replay_overflows(&self) -> u64 {
        self.actors.iter().map(|a| a.replay_overflows).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(items_out: u64, first_ns: u64, last_ns: u64) -> ActorReport {
        let c = Counters {
            items_out,
            ..Counters::default()
        };
        ActorReport::new(
            ActorId(0),
            "a".into(),
            &c,
            first_ns,
            last_ns,
            Duration::ZERO,
            None,
        )
    }

    #[test]
    fn departure_rate_from_span() {
        // 11 items across 1 second -> 10 intervals/s.
        let r = report(11, 0, 1_000_000_000);
        assert!((r.departure_rate().unwrap() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn departure_rate_needs_two_items() {
        assert_eq!(report(1, 0, 5).departure_rate(), None);
        assert_eq!(report(0, u64::MAX, 0).departure_rate(), None);
        assert_eq!(report(5, 100, 100).departure_rate(), None);
    }

    #[test]
    fn blocked_fraction() {
        let mut r = report(2, 0, 10);
        r.blocked = Duration::from_millis(250);
        assert!((r.blocked_fraction(Duration::from_secs(1)) - 0.25).abs() < 1e-9);
        assert_eq!(r.blocked_fraction(Duration::ZERO), 0.0);
    }

    #[test]
    fn record_out_tracks_first_and_last() {
        let m = ActorMetrics::new();
        m.record_out_n(100, 1);
        m.record_out_n(500, 0); // no departures: must not stamp
        m.record_out_n(900, 2);
        let snap = m.report("x", ActorId(3));
        assert_eq!(snap.items_out, 3);
        assert_eq!(snap.first_out_ns, 100);
        assert_eq!(snap.last_out_ns, 900);
        assert_eq!(snap.id, ActorId(3));
    }

    #[test]
    fn run_report_source_throughput_picks_sourcelike_actor() {
        let source = ActorReport {
            items_in: 0,
            ..report(101, 0, 1_000_000_000)
        };
        let worker = ActorReport {
            id: ActorId(1),
            items_in: 101,
            ..report(101, 0, 1_000_000_000)
        };
        let rep = RunReport {
            actors: vec![source, worker],
            wall: Duration::from_secs(1),
            started_at: Instant::now(),
            dead_letters: DeadLetterLog::default(),
            last_complete_epoch: None,
        };
        assert!((rep.source_throughput().unwrap() - 100.0).abs() < 1e-9);
        assert_eq!(rep.total_dropped(), 0);
        assert_eq!(rep.total_panics(), 0);
        assert_eq!(rep.total_restarts(), 0);
        assert_eq!(rep.total_dead_letters(), 0);
        assert!(rep.dead_letters.is_empty());
    }

    #[test]
    fn run_report_source_throughput_sums_all_sources() {
        // Two independent sources (no arrivals, >0 departures) at 100/s and
        // 50/s feeding one worker: topology throughput is their sum.
        let source_a = ActorReport {
            items_in: 0,
            ..report(101, 0, 1_000_000_000)
        };
        let source_b = ActorReport {
            id: ActorId(1),
            items_in: 0,
            ..report(51, 0, 1_000_000_000)
        };
        let worker = ActorReport {
            id: ActorId(2),
            items_in: 152,
            ..report(152, 0, 1_000_000_000)
        };
        let rep = RunReport {
            actors: vec![source_a, source_b, worker],
            wall: Duration::from_secs(1),
            started_at: Instant::now(),
            dead_letters: DeadLetterLog::default(),
            last_complete_epoch: None,
        };
        assert!((rep.source_throughput().unwrap() - 150.0).abs() < 1e-9);
    }

    #[test]
    fn run_report_source_throughput_skips_unmeasurable_sources() {
        // A one-shot source (single departure, no measurable rate) must not
        // hide the measurable one, and an all-unmeasurable report is None.
        let one_shot = ActorReport {
            items_in: 0,
            ..report(1, 0, 0)
        };
        let steady = ActorReport {
            id: ActorId(1),
            items_in: 0,
            ..report(101, 0, 1_000_000_000)
        };
        let rep = RunReport {
            actors: vec![one_shot.clone(), steady],
            wall: Duration::from_secs(1),
            started_at: Instant::now(),
            dead_letters: DeadLetterLog::default(),
            last_complete_epoch: None,
        };
        assert!((rep.source_throughput().unwrap() - 100.0).abs() < 1e-9);
        let rep = RunReport {
            actors: vec![one_shot],
            wall: Duration::from_secs(1),
            started_at: Instant::now(),
            dead_letters: DeadLetterLog::default(),
            last_complete_epoch: None,
        };
        assert_eq!(rep.source_throughput(), None);
    }
}
