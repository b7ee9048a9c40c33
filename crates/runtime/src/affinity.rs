//! Best-effort CPU affinity: pinning engine threads to cores.
//!
//! Stream-processing hot loops are dominated by cache behaviour: a ring
//! mailbox whose producer and consumer keep migrating between cores pays
//! for every slot transfer with coherence misses. Pinning the engine's
//! threads — and sharding actors by topological stage so adjacent stages
//! sit on adjacent cores — keeps each ring's working set core-local.
//!
//! Affinity is inherently platform-specific. On Linux this module calls
//! `sched_setaffinity(2)` directly (the symbol comes from the already
//! linked C runtime, no extra dependency); everywhere else pinning is a
//! graceful no-op that warns once and lets the run proceed unpinned, as
//! required for a *best-effort* optimization knob.

use std::sync::atomic::{AtomicBool, Ordering};

/// Core-pinning policy for an engine run.
///
/// An empty core list disables pinning entirely (the default). With cores
/// `[c0, c1, …]` the engine pins pool worker `w` to `cores[w % len]` and
/// source threads round-robin over the list. Actors are sharded by
/// topological stage (Kahn rank): contiguous rank bands map onto the
/// per-worker ready-queue shards, so an operator and its downstream
/// neighbour run on the same core and their connecting ring stays
/// core-local.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PinningConfig {
    /// The cores to pin onto, in stage order. Empty = no pinning.
    pub cores: Vec<usize>,
}

impl PinningConfig {
    /// No pinning (the default).
    pub fn disabled() -> Self {
        PinningConfig::default()
    }

    /// Pin onto the given cores, in stage order.
    pub fn on_cores(cores: Vec<usize>) -> Self {
        PinningConfig { cores }
    }

    /// True if a core list was configured.
    pub fn is_enabled(&self) -> bool {
        !self.cores.is_empty()
    }

    /// Parses a comma-separated core list, e.g. `"0,1,3"`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending entry if the list is empty,
    /// contains a non-integer, or repeats a core.
    pub fn parse(list: &str) -> Result<Self, String> {
        let mut cores = Vec::new();
        for part in list.split(',') {
            let part = part.trim();
            let core: usize = part
                .parse()
                .map_err(|_| format!("bad core id {part:?} in pin-cores list"))?;
            if cores.contains(&core) {
                return Err(format!("core {core} repeated in pin-cores list"));
            }
            cores.push(core);
        }
        if cores.is_empty() {
            return Err("pin-cores list is empty".into());
        }
        Ok(PinningConfig { cores })
    }
}

/// Set once the first pinning failure has been reported, so a run with
/// many threads warns exactly once.
static WARNED: AtomicBool = AtomicBool::new(false);

/// Pins the calling thread to `core`. Returns `true` on success.
///
/// On failure (or on platforms without affinity support) this warns once
/// per process and returns `false`; the caller keeps running unpinned.
pub fn pin_current_thread(core: usize) -> bool {
    if pin_impl(core) {
        return true;
    }
    if !WARNED.swap(true, Ordering::Relaxed) {
        eprintln!(
            "spinstreams: pinning to core {core} failed or is unsupported \
             on this platform; continuing unpinned"
        );
    }
    false
}

#[cfg(target_os = "linux")]
fn pin_impl(core: usize) -> bool {
    // A fixed 1024-bit mask covers every machine this targets; the
    // kernel only reads `cpusetsize` bytes.
    const WORDS: usize = 16;
    if core >= WORDS * 64 {
        return false;
    }
    let mut mask = [0u64; WORDS];
    mask[core / 64] = 1u64 << (core % 64);
    extern "C" {
        // From the C runtime the binary already links; pid 0 = this thread.
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn pin_impl(_core: usize) -> bool {
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_lists_and_rejects_garbage() {
        assert_eq!(PinningConfig::parse("0").unwrap().cores, vec![0]);
        assert_eq!(PinningConfig::parse("0, 2,1").unwrap().cores, vec![0, 2, 1]);
        assert!(PinningConfig::parse("").is_err());
        assert!(PinningConfig::parse("a,b").is_err());
        assert!(PinningConfig::parse("1,1").is_err());
        assert!(PinningConfig::parse("-1").is_err());
    }

    #[test]
    fn default_is_disabled() {
        assert!(!PinningConfig::default().is_enabled());
        assert!(!PinningConfig::disabled().is_enabled());
        assert!(PinningConfig::on_cores(vec![0]).is_enabled());
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn pinning_to_core_zero_succeeds_on_linux() {
        // Core 0 always exists; pinning to it must work.
        assert!(pin_current_thread(0));
    }

    #[test]
    fn pinning_to_absurd_core_is_a_graceful_no_op() {
        // Way past any real CPU count: must return false, not panic.
        assert!(!pin_current_thread(100_000));
    }
}
