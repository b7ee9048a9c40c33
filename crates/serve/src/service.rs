//! The long-lived serving front end: submit / status / stop / launch.

use crate::cache::{CacheStats, CachedPlan, PlanCache};
use spinstreams_analysis::{
    admit, eliminate_bottlenecks, evaluate_with_replicas, fusable_chain, pool_demand_cores,
    AdmissionConfig, AdmissionVerdict, PlanChange, Reprofiler,
};
use spinstreams_codegen::{
    build_actor_graph, plan_cache_key, serialize_plan, CodegenError, CodegenOptions, FusionGroup,
};
use spinstreams_core::{Edge, KeyDistribution, Topology};
use spinstreams_runtime::{
    execute, EngineConfig, EngineError, Executor, TelemetryConfig, TenantRun, TenantSpec,
};
use std::fmt;

/// Why a serving operation failed.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServeError {
    /// Plan construction failed.
    Codegen(CodegenError),
    /// The runtime rejected or failed a graph.
    Engine(EngineError),
    /// A tenant with this name already exists.
    DuplicateTenant(String),
    /// No tenant with this name exists.
    UnknownTenant(String),
    /// A profiled/migrated topology failed validation.
    Invalid(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Codegen(e) => write!(f, "codegen: {e}"),
            ServeError::Engine(e) => write!(f, "engine: {e}"),
            ServeError::DuplicateTenant(n) => write!(f, "tenant {n:?} already exists"),
            ServeError::UnknownTenant(n) => write!(f, "no tenant {n:?}"),
            ServeError::Invalid(r) => write!(f, "invalid topology: {r}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<CodegenError> for ServeError {
    fn from(e: CodegenError) -> Self {
        ServeError::Codegen(e)
    }
}

impl From<EngineError> for ServeError {
    fn from(e: EngineError) -> Self {
        ServeError::Engine(e)
    }
}

/// The §4.1 profiling step: executes `topo` once, maps the run's
/// per-actor counters onto operators (`GeneratedPlan::operator_counters`)
/// and re-annotates `topo` with [`Reprofiler`], the one §4.1 estimator:
///
/// * service time ← busy time per consumed item;
/// * selectivity ← measured `items_out / items_in` (an equivalent rate
///   factor for the §3.4 model);
/// * routing probability of every out-edge whose target has no other
///   input ← the target's share of the operator's emissions (the other
///   out-edges keep their annotated weights, scaled into the rest);
/// * the source's spec (generation rate) is left untouched.
///
/// The calibration run deploys every operator as one plain actor. An
/// operator that consumed — or, for its routing split, emitted — fewer
/// than `min_samples` items keeps its prior annotations (low-probability
/// paths may starve in a short calibration run).
///
/// The routing split is an annotation for the model only. Codegen
/// realizes an edge probability as the deployed routing policy, so a
/// deployment takes its routing from `topo`: [`StreamService`] launches
/// the profiled operators with the submitted routing. A branch the short
/// run never reached reads as nearly cut here, not in a launch.
///
/// # Errors
///
/// Propagates codegen/engine failures; [`ServeError::Invalid`] when the
/// calibrated topology fails validation.
pub fn calibrate(
    topo: &Topology,
    source_keys: Option<&KeyDistribution>,
    items: u64,
    min_samples: u64,
    executor: &Executor,
) -> Result<Topology, ServeError> {
    let opts = CodegenOptions {
        items,
        seed: executor.seed() ^ 0xCA11_B8A7,
        ..CodegenOptions::default()
    };
    let mut plan = build_actor_graph(topo, source_keys.cloned(), &[], &[], &opts)?;
    let report = execute(std::mem::take(&mut plan.graph), executor)?;
    let mut profiler = Reprofiler::new(topo).with_min_samples(min_samples);
    profiler.update(&plan.operator_counters(&report));
    profiler
        .annotated_topology()
        .map_err(|e| ServeError::Invalid(format!("calibrated topology: {e}")))
}

/// `model`'s operators with `routing`'s probability on every edge the two
/// share: what a launch deploys, since codegen routes by the annotated
/// probabilities and a profiled split is only a sample of them.
fn with_routing_of(model: &Topology, routing: &Topology) -> Result<Topology, ServeError> {
    let edges = model
        .edges()
        .iter()
        .map(|e| Edge {
            probability: routing
                .edge_probability(e.from, e.to)
                .unwrap_or(e.probability),
            ..*e
        })
        .collect();
    Topology::from_parts(model.operators().to_vec(), edges)
        .map_err(|e| ServeError::Invalid(format!("deployed topology: {e}")))
}

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Engine settings shared by every launch (executor, batch size,
    /// mailboxes, pinning, seed).
    pub engine: EngineConfig,
    /// Capacity model for admission control.
    pub admission: AdmissionConfig,
    /// Items generated by the §4.1 profiling run on a cache miss. `0`
    /// disables profiling: annotations on the submitted topology are
    /// trusted as-is (the cold path then runs only Algorithms 1–3).
    pub calibration_items: u64,
    /// Operators that consumed fewer items than this in the profiling run
    /// keep their prior annotations.
    pub calibration_min_samples: u64,
    /// Whether the optimizer fuses the longest low-utilization stateless
    /// chain (Algorithm 3's greedy step).
    pub fuse: bool,
}

impl ServeConfig {
    /// Settings for a service running on `engine`, with admission capacity
    /// derived from the engine's pool size.
    pub fn new(engine: EngineConfig) -> Self {
        let workers = engine.resolved_pool_workers();
        ServeConfig {
            engine,
            admission: AdmissionConfig::for_workers(workers),
            calibration_items: 2_000,
            calibration_min_samples: 50,
            fuse: true,
        }
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self::new(EngineConfig::default())
    }
}

/// One submission: a named topology plus its workload settings.
#[derive(Debug, Clone)]
pub struct SubmitRequest {
    /// Unique tenant name.
    pub name: String,
    /// The topology to optimize and serve.
    pub topology: Topology,
    /// Key distribution of the source's emitted keys, if meaningful.
    pub source_keys: Option<KeyDistribution>,
    /// Weighted-fair scheduling weight (DRR quantum; 1 = equal share).
    pub weight: u64,
    /// Items the source generates per launch.
    pub items: u64,
    /// Per-tenant telemetry, if wanted.
    pub telemetry: Option<TelemetryConfig>,
}

impl SubmitRequest {
    /// A request with weight 1, 10 000 items and no telemetry.
    pub fn new(name: impl Into<String>, topology: Topology) -> Self {
        SubmitRequest {
            name: name.into(),
            topology,
            source_keys: None,
            weight: 1,
            items: 10_000,
            telemetry: None,
        }
    }

    /// Sets the source key distribution (builder style).
    pub fn with_source_keys(mut self, keys: KeyDistribution) -> Self {
        self.source_keys = Some(keys);
        self
    }

    /// Sets the scheduling weight (builder style).
    pub fn with_weight(mut self, weight: u64) -> Self {
        self.weight = weight.max(1);
        self
    }

    /// Sets the per-launch item count (builder style).
    pub fn with_items(mut self, items: u64) -> Self {
        self.items = items;
        self
    }

    /// Enables per-tenant telemetry (builder style).
    pub fn with_telemetry(mut self, telemetry: TelemetryConfig) -> Self {
        self.telemetry = Some(telemetry);
        self
    }
}

/// Lifecycle state of a tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TenantState {
    /// Admitted; will run at the next [`StreamService::launch`].
    Admitted,
    /// Fits an empty pool but not the current residue; waiting for
    /// capacity.
    Queued,
    /// Rejected by the admission model.
    Rejected,
    /// Ran to completion in a previous launch.
    Completed,
    /// Stopped by the user before running.
    Stopped,
}

/// What `submit` returns.
#[derive(Debug, Clone)]
pub struct SubmitReceipt {
    /// Tenant name.
    pub tenant: String,
    /// The plan-cache key of the submission.
    pub key: u64,
    /// Whether the plan came from the cache (no profiling, no
    /// Algorithms 1–3).
    pub cache_hit: bool,
    /// Checksum of the canonical plan text deployed for this tenant.
    pub plan_checksum: u64,
    /// The admission model's verdict.
    pub verdict: AdmissionVerdict,
    /// Resulting lifecycle state.
    pub state: TenantState,
}

/// One row of [`StreamService::status`].
#[derive(Debug, Clone)]
pub struct TenantStatus {
    /// Tenant name.
    pub name: String,
    /// Lifecycle state.
    pub state: TenantState,
    /// Core demand of the tenant's plan.
    pub demand_cores: f64,
    /// Plan-cache key.
    pub key: u64,
    /// Checksum of the deployed plan text.
    pub plan_checksum: u64,
    /// Scheduling weight.
    pub weight: u64,
}

struct Tenant {
    name: String,
    key: u64,
    weight: u64,
    items: u64,
    telemetry: Option<TelemetryConfig>,
    demand_cores: f64,
    plan_checksum: u64,
    state: TenantState,
}

/// A long-lived multi-tenant serving front end over one shared engine.
///
/// Submissions are optimized (or served from the plan cache), pass
/// admission control, and run *together* on the shared pool at the next
/// [`launch`](StreamService::launch). See the crate docs for the model.
pub struct StreamService {
    config: ServeConfig,
    cache: PlanCache,
    tenants: Vec<Tenant>,
}

impl StreamService {
    /// A service with an empty cache and no tenants.
    pub fn new(config: ServeConfig) -> Self {
        StreamService {
            config,
            cache: PlanCache::new(),
            tenants: Vec::new(),
        }
    }

    /// The codegen settings for one submission; part of the cache key, so
    /// kept deterministic.
    fn codegen_opts(&self, items: u64) -> CodegenOptions {
        CodegenOptions {
            items,
            seed: self.config.engine.seed,
            ..CodegenOptions::default()
        }
    }

    /// Core demand currently admitted (running tenants hold their demand
    /// until they complete or are stopped).
    pub fn running_demand(&self) -> f64 {
        self.tenants
            .iter()
            .filter(|t| t.state == TenantState::Admitted)
            .map(|t| t.demand_cores)
            .sum()
    }

    /// Submits a topology: plan-cache lookup (or full optimization on a
    /// miss), then admission control. The tenant runs at the next
    /// [`launch`](StreamService::launch) if admitted.
    ///
    /// # Errors
    ///
    /// Fails on duplicate tenant names and on optimizer/codegen errors.
    pub fn submit(&mut self, req: SubmitRequest) -> Result<SubmitReceipt, ServeError> {
        if self.tenants.iter().any(|t| t.name == req.name) {
            return Err(ServeError::DuplicateTenant(req.name));
        }
        let opts = self.codegen_opts(req.items);
        let key = plan_cache_key(&req.topology, &opts);
        let cache_hit = self.cache.lookup(key).is_some();
        if !cache_hit {
            let plan = self.optimize(&req.topology, req.source_keys.as_ref(), key, &opts)?;
            self.cache.insert(plan);
        }
        let plan = self.cache.peek(key).expect("just inserted or hit");
        // Sources keep dedicated threads outside the pool, so only
        // the worker-side demand competes for pool capacity.
        let demand = pool_demand_cores(&plan.predicted, plan.deployed.source().index());
        let verdict = admit(demand, self.running_demand(), &self.config.admission);
        let state = match verdict {
            AdmissionVerdict::Admit { .. } => TenantState::Admitted,
            AdmissionVerdict::Queue { .. } => TenantState::Queued,
            AdmissionVerdict::Reject { .. } => TenantState::Rejected,
        };
        let plan_checksum = plan.plan_checksum;
        self.tenants.push(Tenant {
            name: req.name.clone(),
            key,
            weight: req.weight.max(1),
            items: req.items,
            telemetry: req.telemetry,
            demand_cores: verdict.demand_cores(),
            plan_checksum,
            state,
        });
        Ok(SubmitReceipt {
            tenant: req.name,
            key,
            cache_hit,
            plan_checksum,
            verdict,
            state,
        })
    }

    /// The cold path: §4.1 profiling (optional), Algorithm 2 fission,
    /// greedy Algorithm 3 fusion, and canonical plan serialization.
    fn optimize(
        &self,
        topo: &Topology,
        keys: Option<&KeyDistribution>,
        key: u64,
        opts: &CodegenOptions,
    ) -> Result<CachedPlan, ServeError> {
        let model = if self.config.calibration_items > 0 {
            calibrate(
                topo,
                keys,
                self.config.calibration_items,
                self.config.calibration_min_samples,
                &Executor::Threads(self.config.engine.clone()),
            )?
        } else {
            topo.clone()
        };
        let fission = eliminate_bottlenecks(&model);
        let replicas = fission.replicas;
        let fusions = if self.config.fuse {
            fusable_chain(&model, &replicas)
                .map(|chain| FusionGroup {
                    front: chain[0],
                    members: chain.into_iter().collect(),
                })
                .into_iter()
                .collect()
        } else {
            Vec::new()
        };
        let predicted = evaluate_with_replicas(&model, &replicas);
        let deployed = with_routing_of(&model, topo)?;
        let plan_text = serialize_plan(&deployed, &replicas, &fusions, opts);
        let plan_checksum = spinstreams_codegen::checksum(plan_text.as_bytes());
        Ok(CachedPlan {
            key,
            deployed,
            source_keys: keys.cloned(),
            replicas,
            fusions,
            plan_text,
            plan_checksum,
            predicted,
            hits: 0,
        })
    }

    /// Runs every admitted tenant concurrently on the shared engine, marks
    /// them completed, and promotes queued tenants that now fit.
    ///
    /// # Errors
    ///
    /// Propagates codegen and engine failures.
    pub fn launch(&mut self) -> Result<Vec<TenantRun>, ServeError> {
        let mut specs = Vec::new();
        let mut launched = Vec::new();
        for (i, t) in self.tenants.iter().enumerate() {
            if t.state != TenantState::Admitted {
                continue;
            }
            let plan = self
                .cache
                .peek(t.key)
                .ok_or_else(|| ServeError::Invalid(format!("plan for {:?} evicted", t.name)))?;
            let opts = self.codegen_opts(t.items);
            let built = build_actor_graph(
                &plan.deployed,
                plan.source_keys.clone(),
                &plan.replicas,
                &plan.fusions,
                &opts,
            )?;
            let mut spec = TenantSpec::new(&t.name, built.graph).with_weight(t.weight);
            if let Some(tc) = &t.telemetry {
                spec = spec.with_telemetry(tc.clone());
            }
            specs.push(spec);
            launched.push(i);
        }
        let runs = spinstreams_runtime::run_tenants(specs, &self.config.engine)?;
        for i in launched {
            self.tenants[i].state = TenantState::Completed;
        }
        self.promote_queued();
        Ok(runs)
    }

    /// Stops a tenant that has not run yet, releasing its admitted demand.
    ///
    /// # Errors
    ///
    /// Fails for unknown tenants.
    pub fn stop(&mut self, name: &str) -> Result<(), ServeError> {
        let t = self
            .tenants
            .iter_mut()
            .find(|t| t.name == name)
            .ok_or_else(|| ServeError::UnknownTenant(name.into()))?;
        if matches!(t.state, TenantState::Admitted | TenantState::Queued) {
            t.state = TenantState::Stopped;
        }
        self.promote_queued();
        Ok(())
    }

    /// Re-runs admission for queued tenants, in submission order, against
    /// the capacity freed by completions and stops.
    fn promote_queued(&mut self) {
        for i in 0..self.tenants.len() {
            if self.tenants[i].state != TenantState::Queued {
                continue;
            }
            let Some(plan) = self.cache.peek(self.tenants[i].key) else {
                continue;
            };
            let demand = pool_demand_cores(&plan.predicted, plan.deployed.source().index());
            let verdict = admit(demand, self.running_demand(), &self.config.admission);
            if verdict.is_admit() {
                self.tenants[i].state = TenantState::Admitted;
                self.tenants[i].demand_cores = verdict.demand_cores();
            }
        }
    }

    /// The migration hook (PR 9 adaptive re-optimization): replaces the
    /// cached plan under `name`'s key with one rebuilt from the migrated
    /// topology and replica degrees, so the next identical submission gets
    /// the migrated plan, not the stale one.
    ///
    /// # Errors
    ///
    /// Fails for unknown tenants and invalid migrated plans.
    pub fn apply_migration(&mut self, name: &str, change: &PlanChange) -> Result<(), ServeError> {
        let t = self
            .tenants
            .iter()
            .find(|t| t.name == name)
            .ok_or_else(|| ServeError::UnknownTenant(name.into()))?;
        let (key, items) = (t.key, t.items);
        let cached = self.cache.peek(key);
        let source_keys = cached.and_then(|p| p.source_keys.clone());
        // The migrated annotations keep the deployed routing; an evicted
        // plan leaves only the migrated topology's own.
        let deployed = with_routing_of(
            &change.topology,
            cached.map_or(&change.topology, |p| &p.deployed),
        )?;
        let opts = self.codegen_opts(items);
        // Migrated degrees may break fusion eligibility; the migrated plan
        // carries none (the controller re-derives them on its next pass).
        let fusions: Vec<FusionGroup> = Vec::new();
        let predicted = evaluate_with_replicas(&change.topology, &change.replicas);
        let plan_text = serialize_plan(&deployed, &change.replicas, &fusions, &opts);
        let plan_checksum = spinstreams_codegen::checksum(plan_text.as_bytes());
        let demand = pool_demand_cores(&predicted, change.topology.source().index());
        self.cache.update(CachedPlan {
            key,
            deployed,
            source_keys,
            replicas: change.replicas.clone(),
            fusions,
            plan_text,
            plan_checksum,
            predicted,
            hits: 0,
        });
        for t in &mut self.tenants {
            if t.key == key {
                t.plan_checksum = plan_checksum;
                if t.state == TenantState::Admitted {
                    t.demand_cores = demand;
                }
            }
        }
        Ok(())
    }

    /// Evicts the cached plan behind `name`'s submission; the next
    /// identical submission re-optimizes from scratch.
    ///
    /// # Errors
    ///
    /// Fails for unknown tenants.
    pub fn invalidate(&mut self, name: &str) -> Result<bool, ServeError> {
        let t = self
            .tenants
            .iter()
            .find(|t| t.name == name)
            .ok_or_else(|| ServeError::UnknownTenant(name.into()))?;
        Ok(self.cache.evict(t.key))
    }

    /// Per-tenant lifecycle rows, in submission order.
    pub fn status(&self) -> Vec<TenantStatus> {
        self.tenants
            .iter()
            .map(|t| TenantStatus {
                name: t.name.clone(),
                state: t.state,
                demand_cores: t.demand_cores,
                key: t.key,
                plan_checksum: t.plan_checksum,
                weight: t.weight,
            })
            .collect()
    }

    /// Plan-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The canonical plan text currently deployed for `name`, if its plan
    /// is still cached.
    pub fn plan_text(&self, name: &str) -> Option<&str> {
        let t = self.tenants.iter().find(|t| t.name == name)?;
        self.cache.peek(t.key).map(|p| p.plan_text.as_str())
    }

    /// The service configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spinstreams_core::{OperatorId, OperatorSpec, ServiceTime};
    use spinstreams_runtime::ExecutorKind;

    fn pipeline(work_ms: f64) -> Topology {
        let mut b = Topology::builder();
        let src = b.add_operator(
            OperatorSpec::source("src", ServiceTime::from_millis(0.1)).with_kind("source"),
        );
        let a = b.add_operator(
            OperatorSpec::stateless("a", ServiceTime::from_millis(work_ms))
                .with_kind("identity-map"),
        );
        let z = b.add_operator(
            OperatorSpec::stateless("z", ServiceTime::from_millis(work_ms))
                .with_kind("identity-map"),
        );
        b.add_edge(src, a, 1.0).unwrap();
        b.add_edge(a, z, 1.0).unwrap();
        b.build().unwrap()
    }

    fn service(workers: usize) -> StreamService {
        let engine = EngineConfig {
            executor: ExecutorKind::Pool { workers },
            ..EngineConfig::default()
        };
        let mut cfg = ServeConfig::new(engine);
        cfg.calibration_items = 0;
        StreamService::new(cfg)
    }

    /// src -> router -> {a, b} -> join, with `p_a` on router -> a: both
    /// router out-edges end at an operator with no other input.
    fn diamond(p_a: f64) -> Topology {
        let mut b = Topology::builder();
        let op = |name: &str| {
            OperatorSpec::stateless(name, ServiceTime::from_micros(20.0)).with_kind("identity-map")
        };
        let src = b.add_operator(
            OperatorSpec::source("src", ServiceTime::from_micros(5.0)).with_kind("source"),
        );
        let router = b.add_operator(op("router"));
        let x = b.add_operator(op("a"));
        let y = b.add_operator(op("b"));
        let join = b.add_operator(op("join"));
        b.add_edge(src, router, 1.0).unwrap();
        b.add_edge(router, x, p_a).unwrap();
        b.add_edge(router, y, 1.0 - p_a).unwrap();
        b.add_edge(x, join, 1.0).unwrap();
        b.add_edge(y, join, 1.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn calibration_rewrites_observable_edges_to_the_measured_split() {
        let topo = diamond(0.7);
        let (router, x, y) = (OperatorId(1), OperatorId(2), OperatorId(3));
        let des = Executor::VirtualTime(spinstreams_runtime::SimConfig {
            seed: 0xD1A3,
            ..spinstreams_runtime::SimConfig::default()
        });
        let cal = calibrate(&topo, None, 3_000, 100, &des).unwrap();
        let p_a = cal.edge_probability(router, x).unwrap();
        let p_b = cal.edge_probability(router, y).unwrap();
        assert_ne!(p_a, 0.7, "the routed split is a sample, not the weight");
        // Five standard deviations of a 3 000-draw binomial share.
        let sd = (0.7 * 0.3 / 3_000.0f64).sqrt();
        assert!((p_a - 0.7).abs() < 5.0 * sd, "{p_a} is no sample of 0.7");
        assert!(
            (p_a + p_b - 1.0).abs() < 1e-12,
            "split sums to {}",
            p_a + p_b
        );
    }

    #[test]
    fn launch_routes_a_branch_the_calibration_never_reached() {
        // Seed 1 routes none of the calibration run's 300 items to b.
        let engine = EngineConfig {
            executor: ExecutorKind::Pool { workers: 1 },
            seed: 1,
            ..EngineConfig::default()
        };
        let mut cfg = ServeConfig::new(engine);
        cfg.calibration_items = 300;
        cfg.fuse = false;
        let mut svc = StreamService::new(cfg);
        let topo = diamond(0.998);
        let (x, y) = (OperatorId(2), OperatorId(3));
        let receipt = svc
            .submit(SubmitRequest::new("t", topo.clone()).with_items(20_000))
            .unwrap();
        // The 300-item calibration run sent nothing to b, so the model
        // reads router -> b as cut...
        let plan = svc.cache.peek(receipt.key).unwrap();
        assert!(
            plan.predicted.metric(y).departure < 1e-6 * plan.predicted.metric(x).departure,
            "calibration reached b: {:?}",
            plan.predicted.metric(y)
        );
        // ...but the launch routes by the submitted split.
        assert_eq!(plan.deployed.edges(), topo.edges());
        let runs = svc.launch().unwrap();
        let b = runs[0]
            .report
            .actors
            .iter()
            .find(|a| a.name == "b")
            .unwrap();
        assert!(b.items_in > 0, "b received nothing at launch");
    }

    #[test]
    fn hit_skips_optimizer_and_reuses_identical_plan() {
        let mut svc = service(2);
        let cold = svc
            .submit(SubmitRequest::new("a", pipeline(0.05)).with_items(100))
            .unwrap();
        assert!(!cold.cache_hit);
        let warm = svc
            .submit(SubmitRequest::new("b", pipeline(0.05)).with_items(100))
            .unwrap();
        assert!(warm.cache_hit);
        assert_eq!(cold.plan_checksum, warm.plan_checksum);
        assert_eq!(svc.plan_text("a"), svc.plan_text("b"));
        let stats = svc.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn launch_runs_admitted_tenants_and_frees_capacity() {
        let mut svc = service(2);
        svc.submit(SubmitRequest::new("a", pipeline(0.02)).with_items(200))
            .unwrap();
        svc.submit(SubmitRequest::new("b", pipeline(0.02)).with_items(300))
            .unwrap();
        let runs = svc.launch().unwrap();
        assert_eq!(runs.len(), 2);
        assert!(runs
            .iter()
            .all(|r| r.report.actors.iter().any(|a| a.items_in > 0)));
        assert!(svc
            .status()
            .iter()
            .all(|t| t.state == TenantState::Completed));
        assert_eq!(svc.running_demand(), 0.0);
    }

    #[test]
    fn oversubscription_queues_then_rejects() {
        let mut svc = service(1);
        svc.config.admission = AdmissionConfig {
            capacity_cores: 1.6,
            headroom: 1.0,
        };
        // Each pipeline demands 1.0 worker cores (ρ = 0.5 × 2 workers;
        // the source runs on its own dedicated thread).
        let first = svc
            .submit(SubmitRequest::new("a", pipeline(0.05)).with_items(100))
            .unwrap();
        assert_eq!(first.state, TenantState::Admitted);
        let second = svc
            .submit(SubmitRequest::new("b", pipeline(0.05)).with_items(100))
            .unwrap();
        assert_eq!(second.state, TenantState::Queued);
        // A heavier pipeline cannot fit even an empty pool.
        let heavy = svc
            .submit(SubmitRequest::new("c", pipeline(0.2)).with_items(100))
            .unwrap();
        assert_eq!(heavy.state, TenantState::Rejected);
        assert!(matches!(
            heavy.verdict,
            AdmissionVerdict::Reject { deficit_cores, .. } if deficit_cores > 0.0
        ));
        // Stopping the admitted tenant promotes the queued one.
        svc.stop("a").unwrap();
        assert_eq!(svc.status()[1].state, TenantState::Admitted);
    }

    #[test]
    fn migration_updates_cached_plan() {
        let mut svc = service(2);
        let cold = svc
            .submit(SubmitRequest::new("a", pipeline(0.05)).with_items(100))
            .unwrap();
        let migrated = pipeline(0.05);
        let n = migrated.num_operators();
        let change = PlanChange {
            replicas: vec![1, 2, 1],
            old_replicas: vec![1; n],
            assignments: vec![None; n],
            predicted_throughput: 0.0,
            old_predicted_throughput: 0.0,
            stale: vec![],
            topology: migrated,
        };
        svc.apply_migration("a", &change).unwrap();
        // The next identical submission hits the cache and gets the
        // migrated degrees, not the originals.
        let warm = svc
            .submit(SubmitRequest::new("b", pipeline(0.05)).with_items(100))
            .unwrap();
        assert!(warm.cache_hit);
        assert_ne!(warm.plan_checksum, cold.plan_checksum);
        assert!(svc.plan_text("b").unwrap().contains("replicas=[1,2,1]"));
        assert_eq!(svc.cache_stats().updates, 1);
        // Invalidation evicts; the next submission is a miss again.
        assert!(svc.invalidate("a").unwrap());
        let fresh = svc
            .submit(SubmitRequest::new("c", pipeline(0.05)).with_items(100))
            .unwrap();
        assert!(!fresh.cache_hit);
        assert_eq!(fresh.plan_checksum, cold.plan_checksum);
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut svc = service(2);
        svc.submit(SubmitRequest::new("a", pipeline(0.05)).with_items(50))
            .unwrap();
        assert!(matches!(
            svc.submit(SubmitRequest::new("a", pipeline(0.05))),
            Err(ServeError::DuplicateTenant(_))
        ));
    }

    #[test]
    fn fusable_chain_finds_stateless_runs() {
        let topo = pipeline(0.05);
        let g = fusable_chain(&topo, &[1, 1, 1]).expect("a->z is fusable");
        assert_eq!(g, [OperatorId(1), OperatorId(2)]);
        // Replicated members break eligibility.
        assert!(fusable_chain(&topo, &[1, 2, 1]).is_none());
    }
}
