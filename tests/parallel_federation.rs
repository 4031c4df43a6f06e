//! Parallel federated executor: determinism and differential tests.
//!
//! Three families:
//!
//! * **Thread-count byte-identity** — fixed-seed federated runs (plain
//!   and chaos-storm) serialize to identical FNV-64 report hashes at
//!   `parallel_sites` ∈ {1, 2, 8}: the windowed executor's merge order
//!   is `(time, site, log-index)`, independent of how many worker
//!   threads drained the shards.
//! * **Sequential differential oracle** — under a telemetry-free router
//!   (round-robin) and a deterministic-service policy, none of the
//!   parallel executor's documented divergences (per-site service
//!   streams, barrier-stale telemetry, same-instant cross-site ties)
//!   applies, so the parallel report must equal the sequential
//!   federation's report byte-for-byte — with and without chaos.
//! * **Report goldens** — fixed-seed FNV-64 hashes of the parallel
//!   executor's own reports (stochastic service under least-loaded,
//!   with and without the chaos storm, and a hedged run on delayed
//!   telemetry) plus the sequential federation's report for the same
//!   hedged configuration. Thread-count invariance alone would not
//!   notice a change that shifts every thread count's bytes the same
//!   way; these do.
//! * **Conservation proptest** — randomized topologies, latencies and
//!   fault schedules conserve every request across shard boundaries
//!   (exactly one fate: completed, lost, timed out, or outstanding;
//!   migration symmetric), and two different thread counts hash
//!   identically on every sampled case.

use lass::simcore::{
    run_federation_parallel, run_simulation, ChaosConfig, ChaosPolicy, ContainerChaos,
    EngineConfig, EngineOutcome, Fault, FedFunction, FederatedReport, Federation, FnStats,
    FunctionEntry, HedgeConfig, HedgeTrigger, PolicyCtx, ReqId, RouterKind, SchedulerPolicy,
    SimDuration, SimTime, SiteMeta, StaticPoisson, TelemetryConfig, UtilizationReconciler,
};
use proptest::prelude::*;
use std::collections::VecDeque;

fn fnv64(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A deterministic single-server FCFS policy: fixed service time, no
/// RNG draws. With a round-robin router this makes the parallel run
/// bit-identical to the sequential one (see the module docs of
/// `lass_simcore::parallel`).
struct FixedServer {
    busy: bool,
    queue: VecDeque<ReqId>,
    service: SimDuration,
}

impl FixedServer {
    fn new(service_secs: f64) -> Self {
        Self {
            busy: false,
            queue: VecDeque::new(),
            service: SimDuration::from_secs_f64(service_secs),
        }
    }
}

enum FsEv {
    Done(ReqId, SimTime),
}

impl SchedulerPolicy for FixedServer {
    type Event = FsEv;
    type Report = Vec<FnStats>;

    fn on_start(&mut self, _ctx: &mut impl PolicyCtx<FsEv>) {}

    fn on_arrival(&mut self, ctx: &mut impl PolicyCtx<FsEv>, rid: ReqId, _f: u32, now: SimTime) {
        if self.busy {
            self.queue.push_back(rid);
        } else {
            self.busy = true;
            ctx.schedule(now + self.service, FsEv::Done(rid, now));
        }
    }

    fn on_event(&mut self, ctx: &mut impl PolicyCtx<FsEv>, ev: FsEv, now: SimTime) {
        let FsEv::Done(rid, started) = ev;
        ctx.complete(rid, started, now);
        self.busy = false;
        if let Some(next) = self.queue.pop_front() {
            self.busy = true;
            ctx.schedule(now + self.service, FsEv::Done(next, now));
        }
    }

    fn finish(self, outcome: EngineOutcome) -> Vec<FnStats> {
        outcome.per_fn
    }
}

impl ContainerChaos for FixedServer {}

/// A stochastic two-server policy that draws service times from the
/// engine's labelled service streams — exercises the per-site RNG path
/// of the parallel executor.
struct StochServer {
    servers: usize,
    busy: usize,
    queue: VecDeque<ReqId>,
    mean: f64,
}

impl StochServer {
    fn new(servers: usize, mean: f64) -> Self {
        Self {
            servers,
            busy: 0,
            queue: VecDeque::new(),
            mean,
        }
    }

    fn start(&mut self, ctx: &mut impl PolicyCtx<FsEv>, rid: ReqId, fn_idx: u32, now: SimTime) {
        self.busy += 1;
        let s = ctx.service_rng(fn_idx).exp(1.0 / self.mean);
        ctx.schedule(now + SimDuration::from_secs_f64(s), FsEv::Done(rid, now));
    }
}

impl SchedulerPolicy for StochServer {
    type Event = FsEv;
    type Report = Vec<FnStats>;

    fn on_start(&mut self, _ctx: &mut impl PolicyCtx<FsEv>) {}

    fn on_arrival(
        &mut self,
        ctx: &mut impl PolicyCtx<FsEv>,
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

    fn on_event(&mut self, ctx: &mut impl PolicyCtx<FsEv>, ev: FsEv, now: SimTime) {
        let FsEv::Done(rid, started) = ev;
        ctx.complete(rid, started, now);
        self.busy -= 1;
        if let Some(next) = self.queue.pop_front() {
            let fn_idx = ctx.request_info(next).map_or(0, |(f, _)| f);
            self.start(ctx, next, fn_idx, now);
        }
    }

    fn finish(self, outcome: EngineOutcome) -> Vec<FnStats> {
        outcome.per_fn
    }
}

impl ContainerChaos for StochServer {}

fn fed_functions() -> Vec<FedFunction> {
    vec![FedFunction {
        name: "probe".into(),
        slo_deadline: 0.5,
        demand: [0.0; 3],
    }]
}

fn probe_entry(rate: f64) -> Vec<FunctionEntry> {
    vec![FunctionEntry {
        name: "probe".into(),
        slo_deadline: 0.5,
        process: Box::new(StaticPoisson::until(rate, SimTime::from_secs(60))),
    }]
}

fn metas(latencies_ms: &[f64]) -> Vec<SiteMeta> {
    latencies_ms
        .iter()
        .enumerate()
        .map(|(i, &ms)| SiteMeta {
            name: format!("s{i}"),
            latency: SimDuration::from_secs_f64(ms / 1000.0),
            capacity_hint: 2.0,
        })
        .collect()
}

fn engine_cfg(seed: u64, parallel: Option<usize>) -> EngineConfig {
    EngineConfig {
        seed,
        parallel_sites: parallel,
        ..EngineConfig::default()
    }
}

fn fixed_fed(kind: RouterKind, latencies_ms: &[f64], service_secs: f64) -> Federation<FixedServer> {
    let sites = metas(latencies_ms)
        .into_iter()
        .map(|m| (m, FixedServer::new(service_secs)))
        .collect();
    Federation::new(sites, kind.build(), &fed_functions())
        .with_rebuild(Box::new(move |_, _| FixedServer::new(service_secs)))
}

fn stoch_fed(kind: RouterKind, latencies_ms: &[f64], mean: f64) -> Federation<StochServer> {
    let sites = metas(latencies_ms)
        .into_iter()
        .map(|m| (m, StochServer::new(2, mean)))
        .collect();
    Federation::new(sites, kind.build(), &fed_functions())
        .with_rebuild(Box::new(move |_, _| StochServer::new(2, mean)))
}

fn storm() -> ChaosConfig {
    ChaosConfig {
        events: vec![
            (20.0, Fault::SiteDown { site: 0 }),
            (25.0, Fault::PartitionStart { site: 1 }),
            (35.0, Fault::PartitionEnd { site: 1 }),
            (40.0, Fault::SiteUp { site: 0 }),
            (45.0, Fault::ContainerBurst { site: 2, count: 2 }),
        ],
        site_mtbf_secs: Some(40.0),
        site_mttr_secs: 10.0,
        ..ChaosConfig::default()
    }
}

fn report_json(rep: &FederatedReport<Vec<FnStats>>) -> String {
    serde_json::to_string(rep).expect("serializes")
}

const LATS: [f64; 4] = [13.0, 29.0, 47.0, 61.0];

fn run_parallel_stoch(threads: usize, chaos: ChaosConfig) -> FederatedReport<Vec<FnStats>> {
    run_federation_parallel(
        engine_cfg(11, Some(threads)),
        probe_entry(8.0),
        stoch_fed(RouterKind::LeastLoaded, &LATS, 0.2),
        chaos,
        11,
    )
}

#[test]
fn thread_count_does_not_change_the_bytes() {
    let h1 = fnv64(&report_json(&run_parallel_stoch(1, ChaosConfig::default())));
    let h2 = fnv64(&report_json(&run_parallel_stoch(2, ChaosConfig::default())));
    let h8 = fnv64(&report_json(&run_parallel_stoch(8, ChaosConfig::default())));
    assert_eq!(h1, h2, "1 vs 2 worker threads diverged");
    assert_eq!(h1, h8, "1 vs 8 worker threads diverged");
    // And the run actually did something.
    let rep = run_parallel_stoch(2, ChaosConfig::default());
    assert!(rep.aggregate_per_fn[0].completed > 100);
}

#[test]
fn thread_count_does_not_change_the_bytes_under_chaos() {
    let h1 = fnv64(&report_json(&run_parallel_stoch(1, storm())));
    let h2 = fnv64(&report_json(&run_parallel_stoch(2, storm())));
    let h8 = fnv64(&report_json(&run_parallel_stoch(8, storm())));
    assert_eq!(h1, h2, "1 vs 2 worker threads diverged under chaos");
    assert_eq!(h1, h8, "1 vs 8 worker threads diverged under chaos");
    // The storm must actually bite for the test to mean anything.
    let rep = run_parallel_stoch(2, storm());
    let migrated: usize = rep.per_site.iter().map(|s| s.migrated).sum();
    assert!(migrated > 0, "no migrations — chaos did not engage");
    assert!(rep.per_site[0].downtime_secs > 0.0);
}

#[test]
fn parallel_matches_sequential_exactly_for_rr_and_fixed_service() {
    let seq = run_simulation(
        engine_cfg(11, None),
        probe_entry(8.0),
        fixed_fed(RouterKind::RoundRobin, &LATS, 0.05),
    );
    let par = run_federation_parallel(
        engine_cfg(11, Some(3)),
        probe_entry(8.0),
        fixed_fed(RouterKind::RoundRobin, &LATS, 0.05),
        ChaosConfig::default(),
        11,
    );
    assert_eq!(
        report_json(&seq),
        report_json(&par),
        "parallel run is not bit-identical to the sequential oracle"
    );
}

#[test]
fn parallel_matches_sequential_exactly_under_chaos() {
    // Saturated fixed-service sites so every fault catches requests in
    // flight: crash orphans migrate, the partition stalls responses,
    // in-transit deliveries bounce.
    let chaos = storm();
    let seq = run_simulation(
        engine_cfg(11, None),
        probe_entry(8.0),
        ChaosPolicy::new(
            fixed_fed(RouterKind::RoundRobin, &LATS, 0.3),
            chaos.clone(),
            11,
        ),
    );
    let par = run_federation_parallel(
        engine_cfg(11, Some(4)),
        probe_entry(8.0),
        fixed_fed(RouterKind::RoundRobin, &LATS, 0.3),
        chaos,
        11,
    );
    let (sj, pj) = (report_json(&seq), report_json(&par));
    assert_eq!(
        sj, pj,
        "chaos parallel run is not bit-identical to the sequential oracle"
    );
    // The differential is only meaningful if the faults engaged.
    assert!(par.per_site.iter().map(|s| s.migrated).sum::<usize>() > 0);
}

/// The hedged, delayed-telemetry configuration shared by the parallel
/// and sequential goldens: deferred 30 ms hedging, 250 ms jittered
/// snapshots with background loss, and a reconciler answering them.
fn hedged_telemetry_fed() -> Federation<StochServer> {
    let mut fed = stoch_fed(RouterKind::LeastLoaded, &LATS, 0.2);
    fed.set_hedge(HedgeConfig {
        trigger: HedgeTrigger::DeferredMs(30.0),
        ..HedgeConfig::default()
    });
    fed.set_telemetry(
        TelemetryConfig {
            report_interval: SimDuration::from_millis(250),
            jitter: SimDuration::from_millis(50),
            loss_under_partition: true,
            loss_prob: 0.05,
        },
        11,
    );
    fed.set_reconciler(Box::new(UtilizationReconciler::new(0.5)));
    fed
}

#[test]
fn parallel_report_goldens() {
    let plain = run_parallel_stoch(2, ChaosConfig::default());
    assert_eq!(
        fnv64(&report_json(&plain)),
        GOLDEN_PAR_PLAIN,
        "parallel least-loaded report changed"
    );
    let stormy = run_parallel_stoch(2, storm());
    assert_eq!(
        fnv64(&report_json(&stormy)),
        GOLDEN_PAR_STORM,
        "parallel least-loaded chaos-storm report changed"
    );
    let hedged = run_federation_parallel(
        engine_cfg(11, Some(2)),
        probe_entry(8.0),
        hedged_telemetry_fed(),
        ChaosConfig::default(),
        11,
    );
    assert!(hedged.aggregate_per_fn[0].hedged > 0);
    assert_eq!(
        fnv64(&report_json(&hedged)),
        GOLDEN_PAR_HEDGED,
        "parallel hedged delayed-telemetry report changed"
    );
    // The same under the storm: hedge groups meet crash migration,
    // bounced deliveries and partition loss rules.
    let hedged_storm = run_federation_parallel(
        engine_cfg(11, Some(2)),
        probe_entry(8.0),
        hedged_telemetry_fed(),
        storm(),
        11,
    );
    assert_eq!(
        fnv64(&report_json(&hedged_storm)),
        GOLDEN_PAR_HEDGED_STORM,
        "parallel hedged delayed-telemetry chaos-storm report changed"
    );
}

#[test]
fn sequential_hedged_telemetry_golden() {
    let rep = run_simulation(
        engine_cfg(11, None),
        probe_entry(8.0),
        hedged_telemetry_fed(),
    );
    assert!(rep.aggregate_per_fn[0].hedged > 0);
    assert_eq!(
        fnv64(&report_json(&rep)),
        GOLDEN_SEQ_HEDGED,
        "sequential hedged delayed-telemetry report changed"
    );
    let stormy = run_simulation(
        engine_cfg(11, None),
        probe_entry(8.0),
        ChaosPolicy::new(hedged_telemetry_fed(), storm(), 11),
    );
    assert_eq!(
        fnv64(&report_json(&stormy)),
        GOLDEN_SEQ_HEDGED_STORM,
        "sequential hedged delayed-telemetry chaos-storm report changed"
    );
}

const GOLDEN_PAR_PLAIN: u64 = 0xbe8a_06ac_e57c_8a0b;
const GOLDEN_PAR_STORM: u64 = 0xfd01_6e0f_5da2_a055;
const GOLDEN_PAR_HEDGED: u64 = 0x002e_49fc_88ac_4cde;
const GOLDEN_SEQ_HEDGED: u64 = 0xf34c_f137_f3ec_8d00;
const GOLDEN_PAR_HEDGED_STORM: u64 = 0xb3d8_0304_7376_784d;
const GOLDEN_SEQ_HEDGED_STORM: u64 = 0xe2c3_788f_6fd5_02e4;

#[test]
#[should_panic(expected = "latency > 0")]
fn zero_latency_topologies_are_rejected() {
    run_federation_parallel(
        engine_cfg(1, Some(2)),
        probe_entry(4.0),
        fixed_fed(RouterKind::RoundRobin, &[0.0, 20.0], 0.05),
        ChaosConfig::default(),
        1,
    );
}

/// A site scheduler that panics on its `fuse`-th arrival.
struct Fused {
    inner: FixedServer,
    fuse: usize,
}

impl SchedulerPolicy for Fused {
    type Event = FsEv;
    type Report = Vec<FnStats>;

    fn on_start(&mut self, ctx: &mut impl PolicyCtx<FsEv>) {
        self.inner.on_start(ctx);
    }

    fn on_arrival(&mut self, ctx: &mut impl PolicyCtx<FsEv>, rid: ReqId, f: u32, now: SimTime) {
        self.fuse = self
            .fuse
            .checked_sub(1)
            .expect("site scheduler blew its fuse");
        self.inner.on_arrival(ctx, rid, f, now);
    }

    fn on_event(&mut self, ctx: &mut impl PolicyCtx<FsEv>, ev: FsEv, now: SimTime) {
        self.inner.on_event(ctx, ev, now);
    }

    fn finish(self, outcome: EngineOutcome) -> Vec<FnStats> {
        self.inner.finish(outcome)
    }
}

impl ContainerChaos for Fused {}

/// A site scheduler panicking on a spawned worker thread must unwind
/// the whole run instead of leaving the main thread waiting at the
/// window gate forever.
#[test]
#[should_panic]
fn a_panicking_site_on_a_worker_unwinds_the_run() {
    // Site 1 belongs to share 1, which a spawned worker pumps; the
    // other sites never blow.
    let sites = metas(&LATS)
        .into_iter()
        .enumerate()
        .map(|(i, m)| {
            let fuse = if i == 1 { 5 } else { usize::MAX };
            (
                m,
                Fused {
                    inner: FixedServer::new(0.05),
                    fuse,
                },
            )
        })
        .collect();
    run_federation_parallel(
        engine_cfg(3, Some(2)),
        probe_entry(8.0),
        Federation::new(sites, RouterKind::RoundRobin.build(), &fed_functions()),
        ChaosConfig::default(),
        3,
    );
}

proptest! {
    // Every case runs two real federated simulations; keep the count
    // modest.
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Randomized topologies and fault schedules conserve requests
    /// across shard boundaries, and two different worker pools produce
    /// identical bytes.
    #[test]
    fn randomized_topologies_conserve_requests(
        seed in 0u64..1000,
        lat_ms in prop::collection::vec(1.0f64..80.0, 2..6),
        schedule in prop::collection::vec(
            (5.0f64..55.0, 0u8..5, 0u32..2, 1u32..3),
            0..6,
        ),
    ) {
        let events = schedule
            .into_iter()
            .map(|(at, kind, site, count)| {
                let fault = match kind {
                    0 => Fault::SiteDown { site },
                    1 => Fault::SiteUp { site },
                    2 => Fault::PartitionStart { site },
                    3 => Fault::PartitionEnd { site },
                    _ => Fault::ContainerBurst { site, count },
                };
                (at, fault)
            })
            .collect();
        let chaos = ChaosConfig { events, ..ChaosConfig::default() };
        let run = |threads: usize| {
            run_federation_parallel(
                engine_cfg(seed, Some(threads)),
                probe_entry(10.0),
                stoch_fed(RouterKind::RoundRobin, &lat_ms, 0.15),
                chaos.clone(),
                seed,
            )
        };
        let rep = run(2);

        let agg = &rep.aggregate_per_fn[0];
        prop_assert_eq!(
            agg.arrivals,
            agg.completed + agg.lost + agg.timeouts + rep.outstanding,
            "conservation broke"
        );
        let migrated_out: usize = rep.per_site.iter().map(|s| s.migrated).sum();
        let migrated_in: usize = rep.per_site.iter().map(|s| s.migrated_in).sum();
        prop_assert_eq!(migrated_out, migrated_in, "migration is not symmetric");
        let failed: usize = rep.per_site.iter().map(|s| s.failed).sum();
        prop_assert_eq!(failed + rep.unroutable, agg.lost);
        // Per-site delivered arrivals never exceed what the router sent.
        let routed: usize = rep.per_site.iter().map(|s| s.routed).sum();
        prop_assert_eq!(routed + rep.unroutable, agg.arrivals + migrated_in);

        let other = run(5);
        prop_assert_eq!(
            fnv64(&report_json(&rep)),
            fnv64(&report_json(&other)),
            "2 vs 5 worker threads diverged"
        );
    }
}
