//! The checksum-keyed plan cache.

use spinstreams_analysis::SteadyStateReport;
use spinstreams_codegen::FusionGroup;
use spinstreams_core::{KeyDistribution, Topology};
use std::collections::HashMap;

/// One fully optimized plan, ready to redeploy without re-profiling or
/// re-running Algorithms 1–3.
#[derive(Debug, Clone)]
pub struct CachedPlan {
    /// The cache key ([`spinstreams_codegen::plan_cache_key`] of the
    /// submitted topology + settings).
    pub key: u64,
    /// The topology a launch deploys: the profiled operator annotations
    /// (identical to the submission when calibration is disabled) with the
    /// submitted routing probabilities. The model behind `predicted`, the
    /// replicas and the fusions reads the profiled routing split instead;
    /// codegen realizes an edge probability as the routing policy, so the
    /// split a calibration run sampled is never deployed.
    pub deployed: Topology,
    /// Source key distribution used at deployment, if any.
    pub source_keys: Option<KeyDistribution>,
    /// Algorithm 2 replication degrees per operator.
    pub replicas: Vec<usize>,
    /// Algorithm 3 fusion groups.
    pub fusions: Vec<FusionGroup>,
    /// Canonical plan text ([`spinstreams_codegen::serialize_plan`]); byte
    /// equality of this string is the "identical plan" oracle.
    pub plan_text: String,
    /// FNV checksum of `plan_text`.
    pub plan_checksum: u64,
    /// Algorithm 1 report of the *unfused* plan: the replicated model
    /// without its `fusions`, so neither it nor the admission model that
    /// reads it sees a meta-operator (ROADMAP item 1).
    pub predicted: SteadyStateReport,
    /// Times this entry was served from cache.
    pub hits: u64,
}

/// Aggregate cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Entries currently cached.
    pub entries: usize,
    /// Lookups answered from cache.
    pub hits: u64,
    /// Lookups that had to run the optimizer.
    pub misses: u64,
    /// Entries replaced in place (plan migrations).
    pub updates: u64,
    /// Entries evicted.
    pub evictions: u64,
}

/// Checksum-keyed store of optimized plans.
#[derive(Debug, Default)]
pub struct PlanCache {
    entries: HashMap<u64, CachedPlan>,
    hits: u64,
    misses: u64,
    updates: u64,
    evictions: u64,
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks `key` up, counting a hit or a miss.
    pub fn lookup(&mut self, key: u64) -> Option<&CachedPlan> {
        match self.entries.get_mut(&key) {
            Some(p) => {
                p.hits += 1;
                self.hits += 1;
                Some(p)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Reads `key` without touching the hit/miss counters.
    pub fn peek(&self, key: u64) -> Option<&CachedPlan> {
        self.entries.get(&key)
    }

    /// Inserts a freshly optimized plan.
    pub fn insert(&mut self, plan: CachedPlan) {
        self.entries.insert(plan.key, plan);
    }

    /// Replaces the entry under `plan.key` in place (the migration hook),
    /// counting an update. Inserts if absent.
    pub fn update(&mut self, plan: CachedPlan) {
        self.updates += 1;
        self.entries.insert(plan.key, plan);
    }

    /// Evicts `key`. Returns whether an entry was removed.
    pub fn evict(&mut self, key: u64) -> bool {
        let removed = self.entries.remove(&key).is_some();
        if removed {
            self.evictions += 1;
        }
        removed
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            entries: self.entries.len(),
            hits: self.hits,
            misses: self.misses,
            updates: self.updates,
            evictions: self.evictions,
        }
    }
}
