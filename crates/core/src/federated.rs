//! Federated simulation: a [`Topology`] of cluster sites behind a
//! front-end router, each running its own scheduler instance.
//!
//! This is the harness tying the layers together: `lass-cluster`'s
//! [`Topology`] describes the fleet, `lass-simcore`'s
//! [`Federation`] meta-policy multiplexes one event pump across the
//! per-site schedulers, and a [`RouterKind`] decides where each arrival
//! goes (with the network hop added to its response time). Any of the
//! `SimReport`-shaped schedulers — the LaSS controller, static
//! round-robin, or the Knative-style concurrency scaler — can serve as
//! the per-site policy.
//!
//! A single-site topology with zero latency is the degenerate case and
//! reproduces the corresponding plain single-cluster simulation
//! event-for-event (the golden-parity tests pin this).
//!
//! Every federated run goes through a
//! [`ChaosPolicy`](lass_simcore::ChaosPolicy) wrapper. With the default
//! (empty) [`ChaosConfig`] the wrapper is transparent — the goldens pin
//! that — and [`FederatedSimulation::set_chaos`] arms site crashes,
//! router↔site partitions, container-crash bursts, and cross-site
//! migration of a dead site's orphans. Crashed sites recover *cold*:
//! the per-site scheduler is rebuilt from the original provisioning
//! (initial containers, fresh controller state), with its crash RNG
//! stream relabelled per restart so replays stay deterministic.

use crate::config::LassConfig;
use crate::knative::KnativePolicy;
use crate::simulation::{FunctionSetup, LassPolicy, SimReport};
use crate::staticalloc::StaticRrPolicy;
use lass_cluster::{Cluster, FnId, Topology};
use lass_simcore::{
    run_federation_parallel, run_simulation, ChaosConfig, ChaosPolicy, ContainerChaos,
    EngineConfig, FedFunction, FederatedReport, Federation, FunctionEntry, HedgeConfig,
    RouterConfig, RouterKind, SimDuration, SiteMeta, TelemetryConfig,
};

/// The report of a federated run: one [`SimReport`] per site plus the
/// engine's cross-site aggregate statistics.
pub type FederatedSimReport = FederatedReport<SimReport>;

/// Which scheduler runs on every site of a federated topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SitePolicyKind {
    /// The LaSS controller (default).
    #[default]
    Lass,
    /// Static allocation with round-robin dispatch.
    StaticRr,
    /// The Knative-style concurrency-target autoscaler.
    Knative,
}

/// A simulation over a federated [`Topology`].
pub struct FederatedSimulation {
    cfg: LassConfig,
    topology: Topology,
    seed: u64,
    router: RouterKind,
    router_cfg: RouterConfig,
    telemetry: TelemetryConfig,
    reconciler_target: Option<f64>,
    hedge: Option<HedgeConfig>,
    policy: SitePolicyKind,
    chaos: ChaosConfig,
    parallel: Option<usize>,
    multidim: Option<bool>,
    setups: Vec<FunctionSetup>,
}

impl FederatedSimulation {
    /// Create a federated simulation (round-robin router, LaSS sites,
    /// no chaos by default).
    pub fn new(cfg: LassConfig, topology: Topology, seed: u64) -> Self {
        cfg.validate().expect("invalid LassConfig");
        Self {
            cfg,
            topology,
            seed,
            router: RouterKind::default(),
            router_cfg: RouterConfig::default(),
            telemetry: TelemetryConfig::default(),
            reconciler_target: None,
            hedge: None,
            policy: SitePolicyKind::default(),
            chaos: ChaosConfig::default(),
            parallel: None,
            multidim: None,
            setups: Vec::new(),
        }
    }

    /// Choose the front-end router.
    pub fn set_router(&mut self, router: RouterKind) -> &mut Self {
        self.router = router;
        self
    }

    /// Tune the model-driven routers and the per-site telemetry feeding
    /// them (SLO budget, percentile, EWMA constants — see
    /// [`RouterConfig`]).
    pub fn set_router_config(&mut self, cfg: RouterConfig) -> &mut Self {
        self.router_cfg = cfg;
        self
    }

    /// Enable delayed telemetry propagation between sites and the
    /// router (the scenario `topology.telemetry` block): sites publish
    /// snapshots on a jittered report interval and routing decisions
    /// read the last snapshot that *arrived* over the site's network
    /// latency. The default (zero interval) keeps oracle-fresh routing,
    /// byte-for-byte identical to the pre-telemetry engine.
    pub fn set_telemetry(&mut self, telemetry: TelemetryConfig) -> &mut Self {
        self.telemetry = telemetry;
        self
    }

    /// Install the control plane's utilization reconciler: every
    /// telemetry snapshot that arrives at the router is fed to a
    /// [`lass_simcore::UtilizationReconciler`] targeting this busy
    /// fraction, and the resulting desired-fleet directive travels back
    /// to the site (one latency each way) where the site policy
    /// reconciles its container fleet toward it. Requires telemetry to
    /// be enabled (snapshots are the reconciler's only input).
    pub fn set_reconciler_target(&mut self, target: Option<f64>) -> &mut Self {
        self.reconciler_target = target;
        self
    }

    /// Arm request hedging (the scenario `topology.hedge` block): the
    /// router dispatches up to `max_clones` extra copies of each
    /// request per the configured trigger, the first response wins, and
    /// cancels chase the losers at each site's network latency. `None`
    /// (the default) keeps the single-dispatch engine byte-identical.
    pub fn set_hedge(&mut self, hedge: Option<HedgeConfig>) -> &mut Self {
        self.hedge = hedge;
        self
    }

    /// Choose the per-site scheduler.
    pub fn set_policy(&mut self, policy: SitePolicyKind) -> &mut Self {
        self.policy = policy;
        self
    }

    /// Arm fault injection: timed and stochastic site crashes,
    /// partitions, and container bursts (see [`ChaosConfig`]). Faults
    /// target sites by topology index.
    pub fn set_chaos(&mut self, chaos: ChaosConfig) -> &mut Self {
        self.chaos = chaos;
        self
    }

    /// Run sites on a pool of `threads` worker threads using the
    /// conservative-synchronization parallel executor (see
    /// `lass_simcore::parallel`). Requires a multi-site topology where
    /// every site has a strictly positive router latency — degenerate
    /// topologies fall back to the sequential engine with a warning on
    /// stderr. The parallel report is deterministic for a given seed
    /// regardless of `threads`, but is not byte-identical to the
    /// sequential engine's (per-site RNG streams, barrier-stale router
    /// telemetry).
    pub fn set_parallel(&mut self, threads: Option<usize>) -> &mut Self {
        self.parallel = threads;
        self
    }

    /// Force multi-dimensional resource telemetry on or off. The
    /// default (unset) derives it: vector snapshots flow whenever any
    /// deployed function declares a non-compute workload class or the
    /// front-end router is the vector-aware `planner`. Off keeps sites
    /// reporting the legacy cpu-only shape byte-for-byte.
    pub fn set_multidim(&mut self, on: bool) -> &mut Self {
        self.multidim = Some(on);
        self
    }

    /// Deploy a function on every site; returns its id (assigned in
    /// registration order). `initial_containers` are provisioned
    /// per-site.
    pub fn add_function(&mut self, setup: FunctionSetup) -> FnId {
        let id = FnId(self.setups.len() as u32);
        self.setups.push(setup);
        id
    }

    /// Run to completion. `duration` defaults to the longest workload.
    pub fn run(self, duration_override: Option<f64>) -> Result<FederatedSimReport, String> {
        self.topology.validate()?;
        if self.setups.is_empty() {
            return Err("federated simulation has no functions".into());
        }
        self.chaos.validate()?;
        self.router_cfg.validate()?;
        self.telemetry.validate()?;
        if let Some(h) = &self.hedge {
            h.validate()?;
        }
        if let Some(rho) = self.reconciler_target {
            if !(rho.is_finite() && rho > 0.0 && rho < 1.0) {
                return Err(format!(
                    "reconciler target utilization must be in (0, 1), got {rho}"
                ));
            }
            if !self.telemetry.enabled() {
                return Err(
                    "the reconciler needs telemetry enabled (snapshots are its only input)".into(),
                );
            }
        }
        let site_count = self.topology.len();
        for (at, fault) in &self.chaos.events {
            if fault.site() as usize >= site_count {
                return Err(format!(
                    "chaos event at t={at}s targets site {} of a {site_count}-site topology",
                    fault.site()
                ));
            }
        }
        let duration = duration_override.unwrap_or_else(|| {
            self.setups
                .iter()
                .map(|s| s.workload.duration())
                .fold(0.0f64, f64::max)
        });
        if duration <= 0.0 {
            return Err("simulation needs a positive duration".into());
        }
        let entries: Vec<FunctionEntry> = self
            .setups
            .iter()
            .map(|s| FunctionEntry {
                name: s.spec.name.clone(),
                slo_deadline: s.slo_deadline,
                process: s.workload.build(),
            })
            .collect();
        let fed_functions: Vec<FedFunction> = self
            .setups
            .iter()
            .map(|s| {
                let d = s.spec.standard_demand();
                FedFunction {
                    name: s.spec.name.clone(),
                    slo_deadline: s.slo_deadline,
                    demand: [
                        f64::from(d.cpu.0),
                        f64::from(d.mem.0),
                        f64::from(d.bandwidth.0),
                    ],
                }
            })
            .collect();
        let metas: Vec<SiteMeta> = self
            .topology
            .sites()
            .iter()
            .map(|site| SiteMeta {
                name: site.name.clone(),
                latency: SimDuration::from_secs_f64(site.latency_secs),
                capacity_hint: site.cluster.total_cpu_capacity().as_cores(),
            })
            .collect();
        // Pristine per-site clusters: the build closure doubles as the
        // chaos layer's rebuild factory, so a crashed site recovers with
        // its original provisioning.
        let clusters: Vec<Cluster> = self
            .topology
            .into_sites()
            .into_iter()
            .map(|s| s.cluster)
            .collect();
        // Vector telemetry is opt-in by shape: any non-compute class or
        // the planner router flips sites to multi-dimensional
        // reporting; everything else keeps the legacy cpu-only shape.
        let multidim = self.multidim.unwrap_or_else(|| {
            self.router == RouterKind::Planner
                || self
                    .setups
                    .iter()
                    .any(|s| s.spec.class != lass_functions::WorkloadClass::Compute)
        });
        let router = self.router.build_with(&self.router_cfg);
        let router_cfg = self.router_cfg;
        let telemetry = self.telemetry;
        // Conservative parallelism needs lookahead: a multi-site
        // topology with strictly positive latencies. Anything else
        // degenerates (zero lookahead would force zero-width windows),
        // so fall back to the sequential engine rather than deadlock.
        let parallel = match self.parallel {
            Some(n) if n >= 1 => {
                if site_count < 2 {
                    eprintln!(
                        "warning: parallel_sites={n} ignored — single-site topology runs sequentially"
                    );
                    None
                } else if metas.iter().any(|m| m.latency.0 == 0) {
                    eprintln!(
                        "warning: parallel_sites={n} ignored — zero-latency site leaves no lookahead; running sequentially"
                    );
                    None
                } else {
                    Some(n)
                }
            }
            Some(0) => {
                return Err("parallel_sites must be >= 1 when set".into());
            }
            _ => None,
        };
        let (cfg, seed, setups, chaos) = (self.cfg, self.seed, self.setups, self.chaos);
        let reconciler_target = self.reconciler_target;
        let hedge = self.hedge;

        // The engine RNG prefix matches the corresponding single-cluster
        // simulation so the degenerate one-site topology replays it
        // exactly (same arrival and service streams).
        let report = match self.policy {
            SitePolicyKind::Lass => {
                let setups = setups.clone();
                let build = move |i: usize, restart: u32| {
                    // A degenerate one-site topology keeps the plain
                    // run's crash-stream label so parity holds even with
                    // failure injection on; multi-site topologies
                    // decorrelate per site, and every restart of a
                    // crashed site draws a fresh stream.
                    let base = if site_count == 1 {
                        String::new()
                    } else {
                        format!("site{i}:")
                    };
                    let label = if restart == 0 {
                        base
                    } else {
                        format!("{base}r{restart}:")
                    };
                    LassPolicy::new(cfg.clone(), clusters[i].clone(), seed, &setups, &label)
                };
                launch(
                    seed,
                    chaos,
                    router_cfg,
                    telemetry,
                    reconciler_target,
                    hedge,
                    multidim,
                    metas,
                    build,
                    router,
                    &fed_functions,
                    "",
                    duration,
                    entries,
                    parallel,
                )
            }
            SitePolicyKind::StaticRr => {
                let build = move |i: usize, _restart: u32| {
                    StaticRrPolicy::new(clusters[i].clone(), setups.clone())
                };
                launch(
                    seed,
                    chaos,
                    router_cfg,
                    telemetry,
                    reconciler_target,
                    hedge,
                    multidim,
                    metas,
                    build,
                    router,
                    &fed_functions,
                    "static-",
                    duration,
                    entries,
                    parallel,
                )
            }
            SitePolicyKind::Knative => {
                let build = move |i: usize, _restart: u32| {
                    KnativePolicy::new(cfg.clone(), clusters[i].clone(), setups.clone())
                };
                launch(
                    seed,
                    chaos,
                    router_cfg,
                    telemetry,
                    reconciler_target,
                    hedge,
                    multidim,
                    metas,
                    build,
                    router,
                    &fed_functions,
                    "knative-",
                    duration,
                    entries,
                    parallel,
                )
            }
        };
        Ok(report)
    }
}

/// Assemble the federation (initial policies from `build(i, 0)`, the
/// same closure installed as the crash-recovery rebuild factory), arm
/// the chaos wrapper, and pump the engine.
#[allow(clippy::too_many_arguments)]
fn launch<P, F>(
    seed: u64,
    chaos: ChaosConfig,
    router_cfg: RouterConfig,
    telemetry: TelemetryConfig,
    reconciler_target: Option<f64>,
    hedge: Option<HedgeConfig>,
    multidim: bool,
    metas: Vec<SiteMeta>,
    mut build: F,
    router: Box<dyn lass_simcore::RouterPolicy + Send>,
    fed_functions: &[FedFunction],
    prefix: &str,
    duration: f64,
    entries: Vec<FunctionEntry>,
    parallel: Option<usize>,
) -> FederatedSimReport
where
    P: ContainerChaos<Report = SimReport> + Send,
    P::Event: Send,
    F: FnMut(usize, u32) -> P + Send + 'static,
{
    let sites = metas
        .into_iter()
        .enumerate()
        .map(|(i, meta)| (meta, build(i, 0)))
        .collect();
    let mut fed = Federation::new(sites, router, fed_functions).with_rebuild(Box::new(build));
    fed.set_migration_penalty(SimDuration::from_secs_f64(chaos.migration_penalty_secs));
    fed.set_router_config(&router_cfg);
    // A disabled (zero-interval) runtime is inert: the federation keeps
    // routing on oracle-fresh state and emits no telemetry events.
    fed.set_telemetry(telemetry, seed);
    if let Some(rho) = reconciler_target {
        fed.set_reconciler(Box::new(lass_simcore::UtilizationReconciler::new(rho)));
    }
    if let Some(h) = hedge {
        fed.set_hedge(h);
    }
    fed.set_multidim(multidim);
    let cfg = EngineConfig {
        seed,
        rng_label_prefix: prefix.into(),
        duration_secs: duration,
        drain_secs: 120.0,
        stream_stats: false,
        parallel_sites: parallel,
    };
    match parallel {
        // The parallel executor barriers the fault schedule itself, so
        // the federation goes in bare rather than chaos-wrapped.
        Some(_) => run_federation_parallel(cfg, entries, fed, chaos, seed),
        None => run_simulation(cfg, entries, ChaosPolicy::new(fed, chaos, seed)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lass_cluster::{Cluster, CpuMilli, MemMib, PlacementPolicy};
    use lass_functions::{micro_benchmark, WorkloadSpec};
    use lass_simcore::{EngineOutcome, Fault, PolicyCtx, ReqId, SchedulerPolicy, SimTime};
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn edge_cloud() -> Topology {
        let mut t = Topology::new();
        t.add_site(
            "edge",
            Cluster::homogeneous(
                1,
                CpuMilli(4000),
                MemMib(16 * 1024),
                PlacementPolicy::BestFit,
            ),
            0.002,
        );
        t.add_site(
            "cloud",
            Cluster::homogeneous(
                6,
                CpuMilli(4000),
                MemMib(16 * 1024),
                PlacementPolicy::BestFit,
            ),
            0.040,
        );
        t
    }

    fn overload_sim(router: RouterKind) -> FederatedSimReport {
        let mut sim = FederatedSimulation::new(LassConfig::default(), edge_cloud(), 42);
        sim.set_router(router);
        let mut setup = FunctionSetup::new(
            micro_benchmark(0.1),
            0.1,
            WorkloadSpec::Static {
                rate: 60.0,
                duration: 120.0,
            },
        );
        setup.initial_containers = 1;
        sim.add_function(setup);
        sim.run(Some(120.0)).expect("runs")
    }

    #[test]
    fn latency_aware_offloads_overflow_to_the_cloud() {
        let rep = overload_sim(RouterKind::LatencyAware);
        assert_eq!(rep.per_site.len(), 2);
        let (edge, cloud) = (&rep.per_site[0], &rep.per_site[1]);
        assert!(edge.routed > 0, "edge starved");
        assert!(
            cloud.routed > 0,
            "60 req/s against a 4-core edge must spill: {:?}",
            (edge.routed, cloud.routed)
        );
        // Conservation: every arrival was routed somewhere.
        assert_eq!(edge.routed + cloud.routed, rep.aggregate_per_fn[0].arrivals);
    }

    /// Regression for the reconciler seam: with the site autoscaler
    /// off, only the control plane's utilization reconciler can grow an
    /// under-provisioned fleet — each directive round-trips through the
    /// telemetry layer (one latency each way) into
    /// [`LassPolicy`]'s `apply_desired_fleet`, which must actually
    /// create containers rather than hit the default no-op seam.
    #[test]
    fn reconciler_directives_scale_lass_sites_through_the_seam() {
        let run = |target: Option<f64>| {
            let mut cfg = LassConfig::default();
            cfg.autoscale = false;
            let mut sim = FederatedSimulation::new(cfg, edge_cloud(), 42);
            let mut telemetry = TelemetryConfig::default();
            telemetry.report_interval = SimDuration::from_secs_f64(1.0);
            sim.set_telemetry(telemetry);
            sim.set_reconciler_target(target);
            let mut setup = FunctionSetup::new(
                micro_benchmark(0.1),
                0.1,
                WorkloadSpec::Static {
                    rate: 30.0,
                    duration: 60.0,
                },
            );
            setup.initial_containers = 1;
            sim.add_function(setup);
            sim.run(Some(60.0)).expect("runs")
        };
        let base = run(None);
        let scaled = run(Some(0.2));
        // 30 req/s against one μ=10 container per site cannot keep up —
        // the frozen fleet only finishes its backlog during the drain
        // grace, with queueing delays in the tens of seconds. The
        // reconciled fleet must hold waits near the service time and
        // violate the SLO far less.
        let (b, s) = (&base.aggregate_per_fn[0], &scaled.aggregate_per_fn[0]);
        let (bw, sw) = (
            b.wait.mean().unwrap_or(0.0),
            s.wait.mean().unwrap_or(f64::INFINITY),
        );
        assert!(
            sw < bw * 0.5,
            "reconciler failed to grow the fleet: mean wait {bw} -> {sw}"
        );
        assert!(
            s.slo_violations < b.slo_violations / 2,
            "slo violations {} -> {}",
            b.slo_violations,
            s.slo_violations
        );
    }

    #[test]
    fn federated_run_is_deterministic() {
        let a = overload_sim(RouterKind::LeastLoaded);
        let b = overload_sim(RouterKind::LeastLoaded);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }

    #[test]
    fn static_and_knative_site_policies_run() {
        for kind in [SitePolicyKind::StaticRr, SitePolicyKind::Knative] {
            let mut sim = FederatedSimulation::new(LassConfig::default(), edge_cloud(), 7);
            sim.set_policy(kind).set_router(RouterKind::RoundRobin);
            let mut setup = FunctionSetup::new(
                micro_benchmark(0.1),
                0.1,
                WorkloadSpec::Static {
                    rate: 20.0,
                    duration: 60.0,
                },
            );
            setup.initial_containers = 2;
            sim.add_function(setup);
            let rep = sim.run(Some(60.0)).expect("runs");
            let completed: usize = rep
                .per_site
                .iter()
                .map(|s| s.report.per_fn[&0].completed)
                .sum();
            assert!(completed > 900, "{kind:?}: completed={completed}");
        }
    }

    #[test]
    fn parallel_execution_is_thread_count_invariant() {
        let run = |threads: usize| {
            let mut sim = FederatedSimulation::new(LassConfig::default(), edge_cloud(), 42);
            sim.set_router(RouterKind::LeastLoaded)
                .set_parallel(Some(threads));
            let mut setup = FunctionSetup::new(
                micro_benchmark(0.1),
                0.1,
                WorkloadSpec::Static {
                    rate: 40.0,
                    duration: 60.0,
                },
            );
            setup.initial_containers = 1;
            sim.add_function(setup);
            sim.run(Some(60.0)).expect("runs")
        };
        let (a, b) = (run(1), run(4));
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "parallel LaSS federation diverged across thread counts"
        );
        assert!(a.aggregate_per_fn[0].completed > 1000);
    }

    #[test]
    fn invalid_topology_is_rejected() {
        let sim = FederatedSimulation::new(LassConfig::default(), Topology::new(), 1);
        assert!(sim.run(Some(10.0)).is_err());
    }

    /// Wraps a site policy and checks, after every step that can
    /// create, boot, crash or terminate containers, that its O(1) warm
    /// fleet equals the per-function census summed.
    struct FleetProbe<P> {
        inner: P,
        n_fns: u32,
        checks: Arc<AtomicUsize>,
    }

    impl<P: ContainerChaos> FleetProbe<P> {
        fn check(&self) {
            let sum: u64 = (0..self.n_fns).map(|f| self.inner.warm_containers(f)).sum();
            assert_eq!(self.inner.warm_fleet(self.n_fns), sum, "warm fleet drift");
            self.checks.fetch_add(1, Ordering::Relaxed);
        }
    }

    impl<P: ContainerChaos> SchedulerPolicy for FleetProbe<P> {
        type Event = P::Event;
        type Report = P::Report;

        fn on_start(&mut self, ctx: &mut impl PolicyCtx<P::Event>) {
            self.inner.on_start(ctx);
            self.check();
        }

        fn on_arrival(
            &mut self,
            ctx: &mut impl PolicyCtx<P::Event>,
            rid: ReqId,
            fn_idx: u32,
            now: SimTime,
        ) {
            self.inner.on_arrival(ctx, rid, fn_idx, now);
            self.check();
        }

        fn on_event(&mut self, ctx: &mut impl PolicyCtx<P::Event>, ev: P::Event, now: SimTime) {
            self.inner.on_event(ctx, ev, now);
            self.check();
        }

        fn finish(self, outcome: EngineOutcome) -> P::Report {
            self.inner.finish(outcome)
        }
    }

    impl<P: ContainerChaos> ContainerChaos for FleetProbe<P> {
        fn crash_containers(
            &mut self,
            ctx: &mut impl PolicyCtx<P::Event>,
            count: u32,
            now: SimTime,
        ) -> u32 {
            let crashed = self.inner.crash_containers(ctx, count, now);
            self.check();
            crashed
        }

        fn warm_containers(&self, fn_idx: u32) -> u64 {
            self.inner.warm_containers(fn_idx)
        }

        fn warm_fleet(&self, n_fns: u32) -> u64 {
            self.inner.warm_fleet(n_fns)
        }
    }

    /// Two functions on the edge/cloud pair behind the slo-aware router
    /// (which demands the forecast, so the front end reads the fleet on
    /// every decision), under a crash/recovery of the edge plus random
    /// container bursts. Returns how many checks ran.
    fn probe_fleet<P, F>(seed: u64, bursts: &[(f64, u32, u32)], mut build: F) -> usize
    where
        P: ContainerChaos,
        F: FnMut(Cluster, &[FunctionSetup], u32) -> P + Send + 'static,
    {
        let setups: Vec<FunctionSetup> = [(0.1, 25.0), (0.3, 8.0)]
            .iter()
            .map(|&(service, rate)| {
                let mut setup = FunctionSetup::new(
                    micro_benchmark(service),
                    0.3,
                    WorkloadSpec::Static {
                        rate,
                        duration: 60.0,
                    },
                );
                setup.initial_containers = 1;
                setup
            })
            .collect();
        let clusters: Vec<Cluster> = edge_cloud()
            .into_sites()
            .into_iter()
            .map(|s| s.cluster)
            .collect();
        let checks = Arc::new(AtomicUsize::new(0));
        let n_fns = setups.len() as u32;
        let mut probe = {
            let checks = Arc::clone(&checks);
            let setups = setups.clone();
            move |i: usize, restart: u32| FleetProbe {
                inner: build(clusters[i].clone(), &setups, restart),
                n_fns,
                checks: Arc::clone(&checks),
            }
        };
        let metas = ["edge", "cloud"]
            .iter()
            .zip([0.002, 0.040])
            .map(|(name, latency)| SiteMeta {
                name: (*name).into(),
                latency: SimDuration::from_secs_f64(latency),
                capacity_hint: 4.0,
            })
            .collect::<Vec<_>>();
        let sites = metas
            .into_iter()
            .enumerate()
            .map(|(i, m)| (m, probe(i, 0)))
            .collect();
        let functions: Vec<FedFunction> = setups
            .iter()
            .map(|s| FedFunction {
                name: s.spec.name.clone(),
                slo_deadline: s.slo_deadline,
                demand: [0.0; 3],
            })
            .collect();
        let fed = Federation::new(sites, RouterKind::SloAware.build(), &functions)
            .with_rebuild(Box::new(probe));
        let mut events = vec![
            (20.0, Fault::SiteDown { site: 0 }),
            (35.0, Fault::SiteUp { site: 0 }),
        ];
        events.extend(
            bursts
                .iter()
                .map(|&(at, site, count)| (at, Fault::ContainerBurst { site, count })),
        );
        let chaos = ChaosConfig {
            events,
            ..ChaosConfig::default()
        };
        let entries = setups
            .iter()
            .map(|s| FunctionEntry {
                name: s.spec.name.clone(),
                slo_deadline: s.slo_deadline,
                process: s.workload.build(),
            })
            .collect();
        let cfg = EngineConfig {
            seed,
            duration_secs: 60.0,
            ..EngineConfig::default()
        };
        run_simulation(cfg, entries, ChaosPolicy::new(fed, chaos, seed));
        checks.load(Ordering::Relaxed)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// The LaSS, static-rr and knative sites answer the site-wide
        /// warm fleet from the cluster's running total. Through
        /// container creation, boot, scale-down, burst crashes and a
        /// crash-rebuild of a whole site, that total equals the
        /// per-function census summed — the default `warm_fleet`, which
        /// the replay's fleet-less `CapacityPolicy` keeps.
        #[test]
        fn warm_fleet_matches_census_through_lifecycles(
            seed in 0u64..1_000,
            bursts in prop::collection::vec((1.0f64..58.0, 0u32..2, 1u32..4), 0..6),
        ) {
            let checks = probe_fleet(seed, &bursts, move |cluster, setups, restart| {
                let label = if restart == 0 { String::new() } else { format!("r{restart}:") };
                LassPolicy::new(LassConfig::default(), cluster, seed, setups, &label)
            });
            prop_assert!(checks > 100, "lass: only {checks} checks");
            let checks = probe_fleet(seed, &bursts, |cluster, setups, _| {
                StaticRrPolicy::new(cluster, setups.to_vec())
            });
            prop_assert!(checks > 100, "static-rr: only {checks} checks");
            let checks = probe_fleet(seed, &bursts, |cluster, setups, _| {
                KnativePolicy::new(LassConfig::default(), cluster, setups.to_vec())
            });
            prop_assert!(checks > 100, "knative: only {checks} checks");
        }
    }
}
