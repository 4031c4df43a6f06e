//! Federated-topology integration tests.
//!
//! Four families:
//!
//! * **Degenerate-topology parity** — a single-site, zero-latency
//!   topology must reproduce the corresponding plain single-cluster
//!   simulation *byte-for-byte* (same RNG streams, same event order,
//!   same statistics). Together with `golden_parity.rs`, which pins the
//!   plain runs against pre-refactor outputs, this pins the federated
//!   code path to the goldens transitively.
//! * **Router invariants** (property tests) — every arrival is routed
//!   to a live site, and arrivals are conserved across sites.
//! * **Fixed-seed federated end-to-end** — a two-site latency-aware
//!   edge↔cloud run is deterministic, offloads under overload, and
//!   reports consistent per-site and aggregate statistics.
//! * **Declared columns vs full view** — every shipped router, run
//!   bare (the front end refreshes only the view columns it declares)
//!   and wrapped in a router that demands every column, produces
//!   byte-identical reports on both executors, with and without chaos,
//!   hedging and delayed telemetry.

use lass::cluster::{Cluster, CpuMilli, MemMib, PlacementPolicy, Topology};
use lass::core::{
    FederatedSimReport, FederatedSimulation, FunctionSetup, LassConfig, SimReport, Simulation,
    SitePolicyKind, StaticRrSimulation,
};
use lass::functions::{micro_benchmark, WorkloadSpec};
use lass::scenario::{Scenario, ScenarioReport};
use lass::simcore::{
    run_federation_parallel, run_simulation, ChaosConfig, ChaosPolicy, ContainerChaos,
    EngineConfig, EngineOutcome, Fault, FedFunction, FederatedReport, Federation, FnStats,
    FunctionEntry, HedgeConfig, HedgeTrigger, PolicyCtx, ReqId, ResourceSnapshot, RouterConfig,
    RouterKind, RouterPolicy, SchedulerPolicy, SimDuration, SimTime, SiteColumns, SiteMeta,
    SiteState, StaticPoisson, TelemetryConfig, WaitForecast,
};
use proptest::prelude::*;
use std::collections::VecDeque;

fn testbed_setup(rate: f64, duration: f64, initial: u32) -> FunctionSetup {
    let mut setup = FunctionSetup::new(
        micro_benchmark(0.1),
        0.1,
        WorkloadSpec::Static { rate, duration },
    );
    setup.initial_containers = initial;
    setup
}

/// A single-site zero-latency LaSS federation reproduces the plain
/// simulation byte-for-byte.
#[test]
fn degenerate_topology_matches_plain_lass_run() {
    let plain: SimReport = {
        let mut sim = Simulation::new(LassConfig::default(), Cluster::paper_testbed(), 42);
        sim.add_function(testbed_setup(20.0, 120.0, 1));
        sim.run(Some(120.0))
    };
    let fed: FederatedSimReport = {
        let mut sim = FederatedSimulation::new(
            LassConfig::default(),
            Topology::single(Cluster::paper_testbed()),
            42,
        );
        sim.add_function(testbed_setup(20.0, 120.0, 1));
        sim.run(Some(120.0)).expect("runs")
    };
    assert_eq!(fed.per_site.len(), 1);
    assert_eq!(fed.per_site[0].routed, plain.per_fn[&0].arrivals);
    // The site's inner report is the plain report, bit for bit.
    assert_eq!(
        serde_json::to_string(&fed.per_site[0].report).unwrap(),
        serde_json::to_string(&plain).unwrap()
    );
    // And the engine's aggregate repeats the same numbers.
    let agg = &fed.aggregate_per_fn[0];
    assert_eq!(agg.arrivals, plain.per_fn[&0].arrivals);
    assert_eq!(agg.completed, plain.per_fn[&0].completed);
    assert_eq!(agg.wait.samples(), plain.per_fn[&0].wait.samples());
}

/// Degenerate parity holds even with failure injection on: the single
/// site draws from the plain run's crash RNG stream.
#[test]
fn degenerate_topology_matches_plain_run_with_crashes() {
    let mut cfg = LassConfig::default();
    cfg.container_mtbf_secs = Some(120.0);
    let plain: SimReport = {
        let mut sim = Simulation::new(cfg.clone(), Cluster::paper_testbed(), 21);
        sim.add_function(testbed_setup(20.0, 120.0, 2));
        sim.run(Some(120.0))
    };
    assert!(plain.crashes > 0, "scenario must actually crash containers");
    let fed = {
        let mut sim = FederatedSimulation::new(cfg, Topology::single(Cluster::paper_testbed()), 21);
        sim.add_function(testbed_setup(20.0, 120.0, 2));
        sim.run(Some(120.0)).expect("runs")
    };
    assert_eq!(
        serde_json::to_string(&fed.per_site[0].report).unwrap(),
        serde_json::to_string(&plain).unwrap()
    );
}

/// Same degenerate parity for the static round-robin site policy.
#[test]
fn degenerate_topology_matches_plain_static_rr_run() {
    let plain: SimReport = {
        let mut sim = StaticRrSimulation::new(Cluster::paper_testbed(), 5);
        sim.add_function(testbed_setup(12.0, 60.0, 3));
        sim.run(Some(60.0))
    };
    let fed = {
        let mut sim = FederatedSimulation::new(
            LassConfig::default(),
            Topology::single(Cluster::paper_testbed()),
            5,
        );
        sim.set_policy(SitePolicyKind::StaticRr);
        sim.add_function(testbed_setup(12.0, 60.0, 3));
        sim.run(Some(60.0)).expect("runs")
    };
    assert_eq!(
        serde_json::to_string(&fed.per_site[0].report).unwrap(),
        serde_json::to_string(&plain).unwrap()
    );
}

fn small_cluster(nodes: u32) -> Cluster {
    Cluster::homogeneous(
        nodes,
        CpuMilli(4000),
        MemMib(16 * 1024),
        PlacementPolicy::BestFit,
    )
}

/// Build a router-view site for the property tests. Telemetry starts
/// empty (zero forecast, healthy, no warm census) unless the test sets
/// it explicitly.
fn prop_site(latency: f64, cap: f64, in_flight: u64) -> SiteState {
    SiteState {
        name: String::new(),
        latency: lass::simcore::SimDuration::from_secs_f64(latency),
        capacity_hint: cap,
        in_flight,
        up: true,
        forecast: WaitForecast::default().into(),
        flakiness: 0.0,
        warm: 0,
        resources: lass::simcore::ResourceSnapshot::default(),
        fits: f64::INFINITY,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Routers only ever pick live sites, whatever the load picture.
    #[test]
    fn routers_pick_live_sites(
        latencies in prop::collection::vec(0.0f64..0.2, 1..6),
        loads in prop::collection::vec(0u64..500, 1..6),
        caps in prop::collection::vec(1.0f64..64.0, 1..6),
        arrivals in 1u64..200,
    ) {
        let n = latencies.len().min(loads.len()).min(caps.len());
        prop_assume!(n >= 1);
        let mut sites: Vec<SiteState> = (0..n)
            .map(|i| {
                let mut s = prop_site(latencies[i], caps[i], loads[i]);
                s.name = format!("s{i}");
                s
            })
            .collect();
        for kind in RouterKind::ALL {
            let mut router = kind.build();
            for k in 0..arrivals {
                let idx = router.route((k % 3) as u32, SimTime::from_secs(k), &sites);
                prop_assert!(idx < n, "{}: site {idx} of {n}", kind.as_str());
                // Feed the decision back so stateful routers see load move.
                sites[idx].in_flight += 1;
            }
        }
    }

    /// Under arbitrary telemetry (forecasts, flakiness, warm censuses)
    /// and arbitrary up/down patterns with at least one live site, no
    /// router ever picks a down site — the chaos contract extended to
    /// the model-driven routers, whose extra signals might otherwise
    /// make a dark site look attractive.
    #[test]
    fn routers_never_pick_down_sites_under_random_telemetry(
        spec in prop::collection::vec(
            // ((latency, cap, in_flight, up), (lambda, mu, servers, flaky, warm))
            ((0.0f64..0.2, 1.0f64..32.0, 0u64..200, 0u8..2),
             (0.0f64..50.0, 0.1f64..20.0, 1u32..16, 0.0f64..1.0, 0u64..8)),
            2..6,
        ),
        arrivals in 1u64..150,
    ) {
        let mut sites: Vec<SiteState> = spec
            .iter()
            .map(|&((lat, cap, load, up), (lambda, mu, servers, flaky, warm))| {
                let mut s = prop_site(lat, cap, load);
                s.up = up == 1;
                s.forecast = WaitForecast { lambda, mu, servers }.into();
                s.flakiness = flaky;
                s.warm = warm;
                s
            })
            .collect();
        prop_assume!(sites.iter().any(|s| s.up));
        for kind in RouterKind::ALL {
            let mut router = kind.build();
            for k in 0..arrivals {
                let idx = router.route((k % 2) as u32, SimTime::from_secs(k), &sites);
                prop_assert!(idx < sites.len(), "{} out of range", kind.as_str());
                prop_assert!(sites[idx].up, "{} picked a down site", kind.as_str());
                sites[idx].in_flight += 1;
            }
        }
    }

    /// Overload/NaN scoring pin: with arbitrarily degenerate telemetry —
    /// non-finite λ̂/μ̂, unstable models, NaN flakiness — every router
    /// still returns an in-range up site, and whenever any up site has a
    /// finite predicted score the score-ranked routers (slo-aware,
    /// affinity) never elect a saturated/NaN-scored site over it.
    #[test]
    fn degenerate_telemetry_never_elects_a_saturated_site(
        spec in prop::collection::vec(
            ((0.0f64..0.2, 1.0f64..32.0, 0u64..200, 0u8..2),
             (0u8..6, 0.0f64..400.0, 0u8..6, 0.01f64..20.0, 1u32..40),
             (0u8..5, 0u64..8)),
            2..6,
        ),
        arrivals in 1u64..100,
    ) {
        fn weird(sel: u8, finite: f64) -> f64 {
            match sel {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => 1e308,
                3 => 5e-324,
                _ => finite,
            }
        }
        let mut sites: Vec<SiteState> = spec
            .iter()
            .map(
                |&((lat, cap, load, up), (lsel, lambda, msel, mu, servers), (fsel, warm))| {
                    let mut s = prop_site(lat, cap, load);
                    s.up = up == 1;
                    s.forecast = WaitForecast {
                        lambda: weird(lsel, lambda),
                        mu: weird(msel, mu),
                        servers,
                    }
                    .into();
                    s.flakiness = weird(fsel, 0.3);
                    s.warm = warm;
                    s
                },
            )
            .collect();
        prop_assume!(sites.iter().any(|s| s.up));
        let percentile = 0.95; // RouterConfig::default().percentile
        let finite_score = |s: &SiteState| {
            (s.latency.as_secs_f64() + s.forecast.wait_percentile(percentile)).is_finite()
        };
        for kind in RouterKind::ALL {
            let mut router = kind.build();
            let score_ranked =
                matches!(kind, RouterKind::SloAware | RouterKind::Affinity);
            for k in 0..arrivals {
                let idx = router.route((k % 2) as u32, SimTime::from_secs(k), &sites);
                prop_assert!(idx < sites.len(), "{} out of range", kind.as_str());
                prop_assert!(sites[idx].up, "{} picked a down site", kind.as_str());
                if score_ranked && sites.iter().any(|s| s.up && finite_score(s)) {
                    prop_assert!(
                        finite_score(&sites[idx]),
                        "{} elected a saturated site over a finite-scored one",
                        kind.as_str()
                    );
                }
                sites[idx].in_flight += 1;
            }
        }
    }

    /// Routing decisions are a pure function of the observed state
    /// sequence: two instances of the same router fed the same
    /// `SiteState` sequence pick identical sites (deterministic
    /// tie-breaks, no hidden randomness) — and every arrival lands on
    /// exactly one site, so routed counts are conserved.
    #[test]
    fn routers_are_deterministic_and_conserve_arrivals(
        spec in prop::collection::vec(
            (0.0f64..0.1, 1.0f64..16.0, 0u8..2, 0.0f64..40.0, 0.0f64..0.6),
            2..5,
        ),
        arrivals in 1u64..120,
    ) {
        prop_assume!(spec.iter().any(|&(_, _, up, _, _)| up == 1));
        let build_sites = || -> Vec<SiteState> {
            spec.iter()
                .map(|&(lat, cap, up, lambda, flaky)| {
                    let mut s = prop_site(lat, cap, 0);
                    s.up = up == 1;
                    s.forecast = WaitForecast { lambda, mu: 10.0, servers: 2 }.into();
                    s.flakiness = flaky;
                    s
                })
                .collect()
        };
        for kind in RouterKind::ALL {
            let (mut a, mut b) = (kind.build(), kind.build());
            let (mut sa, mut sb) = (build_sites(), build_sites());
            let mut picks = vec![0u64; sa.len()];
            for k in 0..arrivals {
                let t = SimTime::from_secs(k);
                let ia = a.route(0, t, &sa);
                let ib = b.route(0, t, &sb);
                prop_assert_eq!(ia, ib, "{} diverged at arrival {}", kind.as_str(), k);
                picks[ia] += 1;
                sa[ia].in_flight += 1;
                sb[ib].in_flight += 1;
            }
            // Conservation at the router: every arrival routed once.
            prop_assert_eq!(picks.iter().sum::<u64>(), arrivals);
            for (i, s) in sa.iter().enumerate() {
                prop_assert_eq!(u64::from(!s.up) * picks[i], 0, "down site got traffic");
            }
        }
    }
}

proptest! {
    // End-to-end conservation runs a real simulation per case; keep the
    // case count modest.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every arrival is routed exactly once and every site-side record
    /// adds back up to the engine's aggregate.
    #[test]
    fn arrivals_are_conserved_across_sites(
        rate in 5.0f64..40.0,
        seed in 0u64..1000,
        edge_latency_ms in 0.0f64..10.0,
        cloud_latency_ms in 10.0f64..80.0,
        router_pick in 0usize..3,
    ) {
        let mut topology = Topology::new();
        topology.add_site("edge", small_cluster(1), edge_latency_ms / 1e3);
        topology.add_site("cloud", small_cluster(4), cloud_latency_ms / 1e3);
        let mut sim = FederatedSimulation::new(LassConfig::default(), topology, seed);
        sim.set_router(RouterKind::ALL[router_pick]);
        sim.add_function(testbed_setup(rate, 30.0, 1));
        let rep = sim.run(Some(30.0)).expect("runs");

        let agg = &rep.aggregate_per_fn[0];
        let routed: usize = rep.per_site.iter().map(|s| s.routed).sum();
        prop_assert_eq!(routed, agg.arrivals, "every arrival routed to a live site");
        let delivered: usize = rep.per_site.iter().map(|s| s.report.per_fn[&0].arrivals).sum();
        prop_assert!(delivered <= routed);
        let completed: usize = rep.per_site.iter().map(|s| s.report.per_fn[&0].completed).sum();
        prop_assert_eq!(completed, agg.completed);
        let timeouts: usize = rep.per_site.iter().map(|s| s.report.per_fn[&0].timeouts).sum();
        prop_assert_eq!(timeouts, agg.timeouts);
        // Everything the engine still counts as open is either in
        // transit or held by a site.
        prop_assert!(rep.outstanding >= routed - delivered);
    }
}

/// The federated edge↔cloud scenario file: deterministic under its fixed
/// seed, with offload to the cloud and per-site + aggregate stats that
/// agree.
#[test]
fn fixed_seed_federated_scenario_end_to_end() {
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/scenarios/federated-edge-cloud.json"
    ))
    .expect("scenario file");
    let sc = Scenario::from_json(&text).expect("valid scenario");

    let run = || {
        let ScenarioReport::Federated(rep) = sc.run_report().expect("runs") else {
            panic!("expected a federated report");
        };
        rep
    };
    let (a, b) = (run(), run());
    assert_eq!(
        serde_json::to_string(&a).unwrap(),
        serde_json::to_string(&b).unwrap(),
        "federated run must be deterministic under a fixed seed"
    );

    assert_eq!(a.router, "latency-aware");
    assert_eq!(a.per_site.len(), 2);
    let (edge, cloud) = (&a.per_site[0], &a.per_site[1]);
    assert_eq!(edge.name, "edge");
    assert_eq!(cloud.name, "cloud");
    // The 1-node edge cannot absorb the burst alone: offload happened.
    assert!(
        edge.routed > 0 && cloud.routed > 0,
        "no offload: {:?}",
        (edge.routed, cloud.routed)
    );
    // Latency preference: the close site takes the larger share.
    assert!(edge.routed > cloud.routed);

    // Per-site reports and the aggregate agree for every function.
    for (i, agg) in a.aggregate_per_fn.iter().enumerate() {
        let routed: usize = a.per_site.iter().map(|s| s.routed).sum();
        assert_eq!(routed, a.aggregate_per_fn.iter().map(|f| f.arrivals).sum());
        let completed: usize = a
            .per_site
            .iter()
            .map(|s| s.report.per_fn[&(i as u32)].completed)
            .sum();
        assert_eq!(completed, agg.completed, "fn {i} completion mismatch");
    }

    // Cloud waits include the 40 ms hop; edge waits only the 2 ms hop.
    let min_cloud_wait = cloud
        .report
        .per_fn
        .values()
        .flat_map(|f| f.wait.samples().iter().copied())
        .fold(f64::INFINITY, f64::min);
    assert!(
        min_cloud_wait >= 0.040 - 1e-9,
        "cloud wait {min_cloud_wait} is missing the routing hop"
    );
}

/// A federated knative run exercises the third site-policy path.
#[test]
fn federated_knative_runs_deterministically() {
    let run = || {
        let mut topology = Topology::new();
        topology.add_site("edge", small_cluster(2), 0.002);
        topology.add_site("cloud", small_cluster(4), 0.030);
        let mut sim = FederatedSimulation::new(LassConfig::default(), topology, 13);
        sim.set_policy(SitePolicyKind::Knative)
            .set_router(RouterKind::LeastLoaded);
        sim.add_function(testbed_setup(25.0, 60.0, 1));
        sim.run(Some(60.0)).expect("runs")
    };
    let (a, b) = (run(), run());
    assert_eq!(
        serde_json::to_string(&a).unwrap(),
        serde_json::to_string(&b).unwrap()
    );
    let completed: usize = a
        .per_site
        .iter()
        .map(|s| s.report.per_fn[&0].completed)
        .sum();
    assert!(completed > 1000, "completed={completed}");
}

/// Per-function `(rate req/s, mean service s, [cpu, mem, bw] demand)`
/// of the differential workload: three functions with different
/// binding dimensions, so the warm census and fit counts differ per
/// routed function.
const DIFF_FNS: [(f64, f64, [f64; 3]); 3] = [
    (10.0, 0.05, [1000.0, 256.0, 0.0]),
    (6.0, 0.12, [500.0, 1024.0, 0.0]),
    (3.0, 0.3, [2000.0, 512.0, 10.0]),
];

/// A router that delegates every pick but demands the full view.
struct FullView(Box<dyn RouterPolicy + Send>);

impl RouterPolicy for FullView {
    fn route(&mut self, fn_idx: u32, now: SimTime, sites: &[SiteState]) -> usize {
        self.0.route(fn_idx, now, sites)
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn columns(&self) -> SiteColumns {
        SiteColumns::ALL
    }
}

enum CensusEv {
    Done(ReqId, u32, SimTime),
}

/// A stochastic FCFS multi-server site with every census column the
/// routers read: a per-function warm count that grows with
/// completions (capped at the server count) and shrinks with crashed
/// containers, and a resource picture charging each in-service
/// request's demand vector. The site-wide fleet uses the default
/// `warm_fleet` sum.
struct CensusServer {
    servers: u32,
    busy: u32,
    queue: VecDeque<ReqId>,
    warm: Vec<u64>,
    used: [f64; 3],
}

impl CensusServer {
    fn new(servers: u32) -> Self {
        Self {
            servers,
            busy: 0,
            queue: VecDeque::new(),
            warm: vec![0; DIFF_FNS.len()],
            used: [0.0; 3],
        }
    }

    fn start(&mut self, ctx: &mut impl PolicyCtx<CensusEv>, rid: ReqId, f: u32, now: SimTime) {
        let (_, mean, demand) = DIFF_FNS[f as usize];
        self.busy += 1;
        for (u, d) in self.used.iter_mut().zip(demand) {
            *u += d;
        }
        let s = ctx.service_rng(f).exp(1.0 / mean);
        ctx.schedule(
            now + SimDuration::from_secs_f64(s),
            CensusEv::Done(rid, f, now),
        );
    }
}

impl SchedulerPolicy for CensusServer {
    type Event = CensusEv;
    type Report = Vec<FnStats>;

    fn on_start(&mut self, _ctx: &mut impl PolicyCtx<CensusEv>) {}

    fn on_arrival(
        &mut self,
        ctx: &mut impl PolicyCtx<CensusEv>,
        rid: ReqId,
        fn_idx: u32,
        now: SimTime,
    ) {
        if self.busy < self.servers {
            self.start(ctx, rid, fn_idx, now);
        } else {
            self.queue.push_back(rid);
        }
    }

    fn on_event(&mut self, ctx: &mut impl PolicyCtx<CensusEv>, ev: CensusEv, now: SimTime) {
        let CensusEv::Done(rid, f, started) = ev;
        ctx.complete(rid, started, now);
        self.busy -= 1;
        for (u, d) in self.used.iter_mut().zip(DIFF_FNS[f as usize].2) {
            *u -= d;
        }
        let w = &mut self.warm[f as usize];
        *w = (*w + 1).min(u64::from(self.servers));
        while let Some(next) = self.queue.pop_front() {
            // Cancelled hedge copies leave stale ids behind.
            if let Some((f, _)) = ctx.request_info(next) {
                self.start(ctx, next, f, now);
                break;
            }
        }
    }

    fn finish(self, outcome: EngineOutcome) -> Vec<FnStats> {
        outcome.per_fn
    }
}

impl ContainerChaos for CensusServer {
    fn crash_containers(
        &mut self,
        _ctx: &mut impl PolicyCtx<CensusEv>,
        count: u32,
        _now: SimTime,
    ) -> u32 {
        let mut crashed = 0;
        for w in &mut self.warm {
            let k = (*w).min(u64::from(count - crashed));
            *w -= k;
            crashed += k as u32;
        }
        crashed
    }

    fn warm_containers(&self, fn_idx: u32) -> u64 {
        self.warm.get(fn_idx as usize).copied().unwrap_or(0)
    }

    fn resource_snapshot(&self) -> ResourceSnapshot {
        let n = f64::from(self.servers);
        ResourceSnapshot {
            cap: [1500.0 * n, 1024.0 * n, 15.0],
            used: self.used,
        }
    }
}

/// One differential configuration: which executor, which faults,
/// which hedge, and whether routers see delayed telemetry.
#[derive(Debug, Clone, Copy)]
struct DiffCase {
    /// `None` = sequential federation, `Some(n)` = parallel executor.
    threads: Option<usize>,
    storm: bool,
    hedge: Option<HedgeTrigger>,
    stale: bool,
}

fn diff_storm() -> ChaosConfig {
    ChaosConfig {
        events: vec![
            (8.0, Fault::SiteDown { site: 0 }),
            (10.0, Fault::PartitionStart { site: 1 }),
            (14.0, Fault::PartitionEnd { site: 1 }),
            (16.0, Fault::SiteUp { site: 0 }),
            (18.0, Fault::ContainerBurst { site: 2, count: 3 }),
            (
                20.0,
                Fault::SiteSlowdown {
                    site: 3,
                    permille: 500,
                },
            ),
        ],
        site_mtbf_secs: Some(20.0),
        site_mttr_secs: 4.0,
        ..ChaosConfig::default()
    }
}

/// A tight SLO (so the p95 hedge trigger fires) and a cold-start
/// penalty (so the warm census enters every model-driven score).
fn diff_router_config() -> RouterConfig {
    RouterConfig {
        slo_ms: 40.0,
        cold_start_penalty_ms: 20.0,
        ..RouterConfig::default()
    }
}

fn diff_run(router: Box<dyn RouterPolicy + Send>, case: DiffCase) -> FederatedReport<Vec<FnStats>> {
    const SEED: u64 = 17;
    const SECS: u64 = 30;
    let functions: Vec<FedFunction> = DIFF_FNS
        .iter()
        .enumerate()
        .map(|(i, &(_, _, demand))| FedFunction {
            name: format!("f{i}"),
            slo_deadline: 0.5,
            demand,
        })
        .collect();
    let entries = DIFF_FNS
        .iter()
        .enumerate()
        .map(|(i, &(rate, _, _))| FunctionEntry {
            name: format!("f{i}"),
            slo_deadline: 0.5,
            process: Box::new(StaticPoisson::until(rate, SimTime::from_secs(SECS))),
        })
        .collect();
    let sites = [(13.0, 2), (29.0, 3), (47.0, 2), (61.0, 4)]
        .iter()
        .enumerate()
        .map(|(i, &(ms, servers))| {
            let meta = SiteMeta {
                name: format!("s{i}"),
                latency: SimDuration::from_secs_f64(ms / 1e3),
                capacity_hint: f64::from(servers),
            };
            (meta, CensusServer::new(servers))
        })
        .collect();
    let mut fed = Federation::new(sites, router, &functions)
        .with_rebuild(Box::new(|i, _| CensusServer::new([2, 3, 2, 4][i])));
    fed.set_router_config(&diff_router_config());
    fed.set_multidim(true);
    if let Some(trigger) = case.hedge {
        fed.set_hedge(HedgeConfig {
            trigger,
            ..HedgeConfig::default()
        });
    }
    if case.stale {
        fed.set_telemetry(
            TelemetryConfig {
                report_interval: SimDuration::from_millis(250),
                jitter: SimDuration::from_millis(50),
                loss_under_partition: true,
                loss_prob: 0.05,
            },
            SEED,
        );
    }
    let chaos = if case.storm {
        diff_storm()
    } else {
        ChaosConfig::default()
    };
    let cfg = EngineConfig {
        seed: SEED,
        parallel_sites: case.threads,
        drain_secs: 30.0,
        ..EngineConfig::default()
    };
    match case.threads {
        None => run_simulation(cfg, entries, ChaosPolicy::new(fed, chaos, SEED)),
        Some(_) => run_federation_parallel(cfg, entries, fed, chaos, SEED),
    }
}

/// Declaring columns is a pure optimisation: for every shipped router
/// the bare router (refreshing only what it declares) and the same
/// router behind a full-view wrapper produce byte-identical reports on
/// the sequential federation and the parallel executor at 1 and 2
/// threads, plain and under a chaos storm, unhedged and with deferred
/// or p95 hedging, on fresh and on jittered lossy telemetry.
#[test]
fn declared_columns_match_the_full_view() {
    let mut cases = Vec::new();
    for threads in [None, Some(1), Some(2)] {
        for storm in [false, true] {
            for hedge in [
                None,
                Some(HedgeTrigger::DeferredMs(30.0)),
                Some(HedgeTrigger::PredictedP95OverSlo),
            ] {
                for stale in [false, true] {
                    cases.push(DiffCase {
                        threads,
                        storm,
                        hedge,
                        stale,
                    });
                }
            }
        }
    }
    for kind in RouterKind::ALL {
        for &case in &cases {
            let bare = serde_json::to_string(&diff_run(kind.build(), case)).unwrap();
            let full =
                serde_json::to_string(&diff_run(Box::new(FullView(kind.build())), case)).unwrap();
            assert_eq!(
                bare,
                full,
                "{} diverged from its full-view run in {case:?}",
                kind.as_str()
            );
        }
    }
    // The differential means something only if the columns are really
    // narrower than the full view for most routers, and the faults and
    // hedges engaged.
    let narrow = RouterKind::ALL
        .iter()
        .filter(|k| k.build().columns() != SiteColumns::ALL)
        .count();
    assert_eq!(narrow, 6, "only the planner reads every column");
    let case = DiffCase {
        threads: None,
        storm: false,
        hedge: Some(HedgeTrigger::PredictedP95OverSlo),
        stale: false,
    };
    let rep = diff_run(RouterKind::LeastLoaded.build(), case);
    let hedged: usize = rep.aggregate_per_fn.iter().map(|f| f.hedged).sum();
    assert!(hedged > 0, "no p95 hedges fired");
    let case = DiffCase {
        storm: true,
        hedge: None,
        ..case
    };
    let rep = diff_run(RouterKind::SloAware.build(), case);
    let migrated: usize = rep.per_site.iter().map(|s| s.migrated).sum();
    assert!(migrated > 0, "the storm did not engage");
}
