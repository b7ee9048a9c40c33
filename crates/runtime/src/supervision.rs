//! Actor supervision: restart policies, degraded mode, dead letters.
//!
//! The threaded executor wraps every operator invocation in
//! `catch_unwind` — one guard per drained run of data envelopes, one
//! `process` call per item inside it — so a panicking operator never takes
//! its actor thread (let alone the whole process) down. The panic is
//! charged to the item in flight, and what happens next is decided by the
//! actor's [`SupervisionPolicy`], mirroring Akka's supervision directives
//! (the paper's reference substrate, §4.2):
//!
//! * [`SupervisionPolicy::Resume`] — drop the poisoned item, keep the
//!   operator state, keep going;
//! * [`SupervisionPolicy::Restart`] — re-instantiate (or reset) the
//!   operator, subject to a restart budget and exponential backoff;
//! * [`SupervisionPolicy::Stop`] — stop processing and enter degraded
//!   mode, forwarding or dropping subsequent input per [`DegradePolicy`].
//!
//! Every item the runtime fails to deliver — send timeouts under
//! backpressure, routes into disconnected actors, items consumed by a
//! panic, items arriving at a stopped actor — is recorded structurally in
//! a [`DeadLetterLog`] surfaced through the run report, so lossy runs are
//! observable rather than silent.

use crate::graph::ActorId;
use crate::operator::StreamOperator;
use crate::rng::XorShift64;
use std::fmt;
use std::time::Duration;

/// What the supervisor does when an operator invocation panics.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum SupervisionPolicy {
    /// Drop the offending item and continue with the existing operator
    /// state (Akka's `Resume` directive).
    Resume,
    /// Re-instantiate the operator and continue, subject to the policy's
    /// restart budget and backoff (Akka's `Restart` directive).
    Restart(RestartPolicy),
    /// Stop the operator and switch the actor to degraded mode (Akka's
    /// `Stop` directive).
    #[default]
    Stop,
}

/// Budget and pacing for [`SupervisionPolicy::Restart`].
#[derive(Debug, Clone, PartialEq)]
pub struct RestartPolicy {
    /// Maximum number of restarts before the actor gives up and stops
    /// (degraded mode). `u32::MAX` means effectively unbounded.
    pub max_restarts: u32,
    /// Backoff schedule between a panic and the restart.
    pub backoff: Backoff,
}

impl RestartPolicy {
    /// A restart policy with the given budget and the default backoff.
    pub fn with_budget(max_restarts: u32) -> Self {
        RestartPolicy {
            max_restarts,
            backoff: Backoff::default(),
        }
    }
}

impl Default for RestartPolicy {
    fn default() -> Self {
        RestartPolicy {
            max_restarts: 10,
            backoff: Backoff::default(),
        }
    }
}

/// Exponential backoff with jitter, Akka `BackoffSupervisor`-style.
///
/// The `n`-th restart (1-based) sleeps
/// `min(initial · multiplier^(n-1), max)`, scaled by a uniform jitter in
/// `[1 - jitter, 1 + jitter]` drawn from the actor's deterministic RNG.
#[derive(Debug, Clone, PartialEq)]
pub struct Backoff {
    /// Delay before the first restart.
    pub initial: Duration,
    /// Upper bound on any single delay.
    pub max: Duration,
    /// Growth factor per restart (`>= 1`).
    pub multiplier: f64,
    /// Relative jitter in `[0, 1]`; `0.1` means ±10%.
    pub jitter: f64,
}

impl Backoff {
    /// No delay at all — restart immediately. Useful in tests.
    pub fn none() -> Self {
        Backoff {
            initial: Duration::ZERO,
            max: Duration::ZERO,
            multiplier: 1.0,
            jitter: 0.0,
        }
    }

    /// Delay before restart number `n` (1-based), jittered via `rng`.
    pub fn delay(&self, n: u32, rng: &mut XorShift64) -> Duration {
        if self.initial.is_zero() {
            return Duration::ZERO;
        }
        let exp = n.saturating_sub(1).min(63);
        let base = self.initial.as_secs_f64() * self.multiplier.powi(exp as i32);
        let capped = base.min(self.max.as_secs_f64());
        let jitter = self.jitter.clamp(0.0, 1.0);
        let scale = 1.0 - jitter + 2.0 * jitter * rng.next_f64();
        Duration::from_secs_f64((capped * scale).max(0.0))
    }
}

impl Default for Backoff {
    fn default() -> Self {
        Backoff {
            initial: Duration::from_millis(10),
            max: Duration::from_secs(1),
            multiplier: 2.0,
            jitter: 0.1,
        }
    }
}

/// What a stopped actor does with input that keeps arriving.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DegradePolicy {
    /// Forward input unchanged on the default port, as if the operator
    /// were an identity — keeps downstream fed at reduced fidelity.
    Forward,
    /// Drop input, recording each item as a dead letter.
    #[default]
    Drop,
}

/// Per-actor supervision configuration: the panic directive plus the
/// degraded-mode behavior once the actor stops.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SupervisorSpec {
    /// What to do when the operator panics.
    pub policy: SupervisionPolicy,
    /// What to do with input after the actor stops.
    pub degrade: DegradePolicy,
}

impl SupervisorSpec {
    /// Restart with the given budget and backoff, dropping input if the
    /// budget is ever exhausted.
    pub fn restart(max_restarts: u32, backoff: Backoff) -> Self {
        SupervisorSpec {
            policy: SupervisionPolicy::Restart(RestartPolicy {
                max_restarts,
                backoff,
            }),
            degrade: DegradePolicy::Drop,
        }
    }

    /// Resume: drop the poisoned item, keep state, keep going.
    pub fn resume() -> Self {
        SupervisorSpec {
            policy: SupervisionPolicy::Resume,
            degrade: DegradePolicy::Drop,
        }
    }

    /// Sets the degraded-mode behavior (builder style).
    pub fn with_degrade(mut self, degrade: DegradePolicy) -> Self {
        self.degrade = degrade;
        self
    }
}

/// A factory producing fresh operator instances, used by
/// [`SupervisionPolicy::Restart`] to re-instantiate a failed operator
/// from scratch. Without a factory, restart falls back to
/// [`StreamOperator::reset`].
pub struct OperatorFactory(Box<dyn Fn() -> Box<dyn StreamOperator> + Send>);

impl OperatorFactory {
    /// Wraps a closure producing fresh operator instances.
    pub fn new(f: impl Fn() -> Box<dyn StreamOperator> + Send + 'static) -> Self {
        OperatorFactory(Box::new(f))
    }

    /// Builds a fresh operator instance.
    pub fn build(&self) -> Box<dyn StreamOperator> {
        (self.0)()
    }
}

impl fmt::Debug for OperatorFactory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("OperatorFactory(..)")
    }
}

/// Why an item was not delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DeadLetterReason {
    /// The destination mailbox stayed full past the send timeout
    /// (Blocking-After-Service backpressure gave up).
    SendTimeout,
    /// The destination actor was gone (its mailbox disconnected).
    Disconnected,
    /// The item was consumed by an operator invocation that panicked.
    OperatorPanic,
    /// The item arrived at an actor that had stopped (degraded mode,
    /// [`DegradePolicy::Drop`]).
    StoppedActor,
}

impl fmt::Display for DeadLetterReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeadLetterReason::SendTimeout => write!(f, "send-timeout"),
            DeadLetterReason::Disconnected => write!(f, "disconnected"),
            DeadLetterReason::OperatorPanic => write!(f, "operator-panic"),
            DeadLetterReason::StoppedActor => write!(f, "stopped-actor"),
        }
    }
}

/// One undeliverable item: where it came from, where it was going, why it
/// died, and which item it was.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadLetter {
    /// The actor holding the item when it died.
    pub source: ActorId,
    /// The intended destination, if the item died in transit (`None` when
    /// it died inside `source`, e.g. consumed by a panic).
    pub destination: Option<ActorId>,
    /// Why delivery failed.
    pub reason: DeadLetterReason,
    /// Partitioning key of the dead item.
    pub key: u64,
    /// Sequence number of the dead item.
    pub seq: u64,
    /// The panic payload message, for items consumed by a caught panic
    /// ([`DeadLetterReason::OperatorPanic`]) — chaos runs can then assert
    /// *which* injected fault fired. `None` for non-panic reasons.
    pub message: Option<String>,
}

/// A capacity-bounded structural record of undelivered items.
///
/// The log keeps the first `capacity` letters verbatim and counts the
/// rest, so pathological runs can't exhaust memory while totals stay
/// exact.
#[derive(Debug, Clone, Default)]
pub struct DeadLetterLog {
    entries: Vec<DeadLetter>,
    capacity: usize,
    total: u64,
}

impl DeadLetterLog {
    /// Creates a log retaining at most `capacity` individual letters.
    pub fn with_capacity(capacity: usize) -> Self {
        DeadLetterLog {
            entries: Vec::new(),
            capacity,
            total: 0,
        }
    }

    /// Records a dead letter; the entry itself is kept only while under
    /// capacity, the total always counts.
    pub fn push(&mut self, letter: DeadLetter) {
        if self.entries.len() < self.capacity {
            self.entries.push(letter);
        }
        self.total += 1;
    }

    /// Total number of dead letters recorded (including any beyond
    /// capacity).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The retained letters, in arrival order (at most `capacity`).
    pub fn entries(&self) -> &[DeadLetter] {
        &self.entries
    }

    /// Total count of letters with the given reason.
    ///
    /// Exact while the log is under capacity; a lower bound afterwards
    /// (only retained letters can be classified).
    pub fn by_reason(&self, reason: DeadLetterReason) -> u64 {
        self.entries.iter().filter(|l| l.reason == reason).count() as u64
    }

    /// True if nothing was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Merges another log into this one, preserving totals and retaining
    /// entries up to this log's capacity.
    pub fn merge(&mut self, other: &DeadLetterLog) {
        for l in &other.entries {
            if self.entries.len() < self.capacity {
                self.entries.push(l.clone());
            }
        }
        self.total += other.total;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn letter(reason: DeadLetterReason, seq: u64) -> DeadLetter {
        DeadLetter {
            source: ActorId(1),
            destination: Some(ActorId(2)),
            reason,
            key: 0,
            seq,
            message: None,
        }
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let b = Backoff {
            initial: Duration::from_millis(10),
            max: Duration::from_millis(100),
            multiplier: 2.0,
            jitter: 0.0,
        };
        let mut rng = XorShift64::new(1);
        assert_eq!(b.delay(1, &mut rng), Duration::from_millis(10));
        assert_eq!(b.delay(2, &mut rng), Duration::from_millis(20));
        assert_eq!(b.delay(3, &mut rng), Duration::from_millis(40));
        // Capped at max from the 5th restart on.
        assert_eq!(b.delay(5, &mut rng), Duration::from_millis(100));
        assert_eq!(b.delay(40, &mut rng), Duration::from_millis(100));
    }

    #[test]
    fn backoff_jitter_stays_in_band() {
        let b = Backoff {
            initial: Duration::from_millis(100),
            max: Duration::from_secs(10),
            multiplier: 1.0,
            jitter: 0.2,
        };
        let mut rng = XorShift64::new(42);
        for _ in 0..1000 {
            let d = b.delay(1, &mut rng).as_secs_f64();
            assert!((0.08..=0.12).contains(&d), "delay {d}");
        }
    }

    #[test]
    fn backoff_none_is_zero_everywhere() {
        let mut rng = XorShift64::new(7);
        for n in [1, 2, 10, 100] {
            assert_eq!(Backoff::none().delay(n, &mut rng), Duration::ZERO);
        }
    }

    #[test]
    fn backoff_huge_restart_count_does_not_overflow() {
        let b = Backoff::default();
        let mut rng = XorShift64::new(3);
        let d = b.delay(u32::MAX, &mut rng);
        assert!(d <= Duration::from_secs(2));
    }

    #[test]
    fn dead_letter_log_counts_past_capacity() {
        let mut log = DeadLetterLog::with_capacity(2);
        for seq in 0..5 {
            log.push(letter(DeadLetterReason::SendTimeout, seq));
        }
        assert_eq!(log.total(), 5);
        assert_eq!(log.entries().len(), 2);
        assert_eq!(log.entries()[0].seq, 0);
        assert_eq!(log.by_reason(DeadLetterReason::SendTimeout), 2);
        assert!(!log.is_empty());
    }

    #[test]
    fn dead_letter_log_merge_preserves_totals() {
        let mut a = DeadLetterLog::with_capacity(3);
        a.push(letter(DeadLetterReason::OperatorPanic, 1));
        let mut b = DeadLetterLog::with_capacity(3);
        b.push(letter(DeadLetterReason::StoppedActor, 2));
        b.push(letter(DeadLetterReason::StoppedActor, 3));
        b.push(letter(DeadLetterReason::Disconnected, 4));
        a.merge(&b);
        assert_eq!(a.total(), 4);
        assert_eq!(a.entries().len(), 3, "capped at capacity");
        assert_eq!(a.by_reason(DeadLetterReason::StoppedActor), 2);
    }

    #[test]
    fn supervisor_spec_builders() {
        let s = SupervisorSpec::restart(3, Backoff::none()).with_degrade(DegradePolicy::Forward);
        match &s.policy {
            SupervisionPolicy::Restart(p) => assert_eq!(p.max_restarts, 3),
            other => panic!("unexpected policy {other:?}"),
        }
        assert_eq!(s.degrade, DegradePolicy::Forward);
        assert_eq!(SupervisorSpec::resume().policy, SupervisionPolicy::Resume);
        assert_eq!(SupervisorSpec::default().policy, SupervisionPolicy::Stop);
        assert_eq!(SupervisorSpec::default().degrade, DegradePolicy::Drop);
    }
}
