//! A deliberately simple third scheduler: **static allocation with
//! round-robin dispatch**.
//!
//! Each function gets a fixed pool of warm containers at `t = 0` (its
//! `initial_containers`, minimum one) and requests are dealt to the
//! pool's schedulable containers in strict rotation. No autoscaling, no
//! monitors, no reclamation — the policy exists to demonstrate that the
//! shared engine seam (`lass_simcore::engine::SchedulerPolicy`) supports
//! schedulers that share *nothing* with the LaSS controller, in roughly
//! a hundred lines, and to serve as the "provisioned-for-peak" baseline
//! in capacity experiments.

use crate::simulation::{FnReport, FunctionSetup, SimReport};
use lass_cluster::{Cluster, ContainerId, FnId, RequestId};
use lass_simcore::{
    run_simulation, EngineConfig, EngineOutcome, FunctionEntry, PolicyCtx, ReqId, SchedulerPolicy,
    SimDuration, SimTime, TimeSeries, TimeWeightedGauge,
};
use std::collections::{BTreeMap, HashMap};

/// Static-allocation round-robin simulation over a [`Cluster`].
pub struct StaticRrSimulation {
    cluster: Cluster,
    seed: u64,
    setups: Vec<FunctionSetup>,
}

impl StaticRrSimulation {
    /// Create a simulation over a cluster.
    pub fn new(cluster: Cluster, seed: u64) -> Self {
        Self {
            cluster,
            seed,
            setups: Vec::new(),
        }
    }

    /// Deploy a function; returns its id (assigned in registration order).
    /// `initial_containers` (minimum 1) fixes the pool size for the whole
    /// run; the other autoscaling-related setup fields are ignored.
    pub fn add_function(&mut self, setup: FunctionSetup) -> FnId {
        let id = FnId(self.setups.len() as u32);
        self.setups.push(setup);
        id
    }

    /// Run for `duration` seconds (defaults to the longest workload).
    pub fn run(self, duration_override: Option<f64>) -> SimReport {
        let duration = duration_override.unwrap_or_else(|| {
            self.setups
                .iter()
                .map(|s| s.workload.duration())
                .fold(0.0f64, f64::max)
        });
        assert!(duration > 0.0, "simulation needs a positive duration");
        let entries: Vec<FunctionEntry> = self
            .setups
            .iter()
            .map(|s| FunctionEntry {
                name: s.spec.name.clone(),
                slo_deadline: s.slo_deadline,
                process: s.workload.build(),
            })
            .collect();
        let engine_cfg = EngineConfig {
            seed: self.seed,
            rng_label_prefix: "static-".into(),
            duration_secs: duration,
            drain_secs: 120.0,
            stream_stats: false,
            parallel_sites: None,
        };
        let policy = StaticRrPolicy::new(self.cluster, self.setups);
        run_simulation(engine_cfg, entries, policy)
    }
}

struct Pool {
    /// The fixed container fleet, in creation order.
    containers: Vec<ContainerId>,
    /// Round-robin position.
    cursor: usize,
}

/// Policy events (completions only — nothing is ever re-planned).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Ev {
    Complete { cid: ContainerId, seq: u64 },
}

/// The static round-robin policy. Crate-visible so the federated
/// harness can instantiate one per topology site.
pub(crate) struct StaticRrPolicy {
    setups: Vec<FunctionSetup>,
    cluster: Cluster,
    pools: BTreeMap<FnId, Pool>,
    in_service: HashMap<ContainerId, (RequestId, u64, SimTime)>,
    next_seq: u64,
    util_gauge: TimeWeightedGauge,
    busy_cpu_seconds: f64,
    /// Containers lost to chaos bursts (nothing replaces them: the
    /// static pool permanently shrinks, as a no-autoscaler baseline
    /// honestly would).
    crashes: usize,
    /// Chaos brown-out service-speed factor (1.0 = nominal).
    service_scale: f64,
}

impl StaticRrPolicy {
    /// Provision each function's fixed warm pool (minimum one container)
    /// on `cluster` at `t = 0` and build the policy.
    pub(crate) fn new(mut cluster: Cluster, setups: Vec<FunctionSetup>) -> Self {
        let mut pools: BTreeMap<FnId, Pool> = BTreeMap::new();
        for (i, s) in setups.iter().enumerate() {
            let fn_id = FnId(i as u32);
            let want = s.initial_containers.max(1);
            let mut pool = Pool {
                containers: Vec::new(),
                cursor: 0,
            };
            for _ in 0..want {
                if let Ok(cid) = cluster.create_container_vec(
                    fn_id,
                    s.spec.standard_cpu,
                    s.spec.standard_demand(),
                    SimTime::ZERO,
                    SimTime::ZERO,
                ) {
                    cluster.mark_container_ready(cid);
                    pool.containers.push(cid);
                }
            }
            pools.insert(fn_id, pool);
        }
        Self {
            setups,
            cluster,
            pools,
            in_service: HashMap::new(),
            next_seq: 0,
            util_gauge: TimeWeightedGauge::new(SimTime::ZERO, 0.0),
            busy_cpu_seconds: 0.0,
            crashes: 0,
            service_scale: 1.0,
        }
    }
    fn dispatch(&mut self, ctx: &mut impl PolicyCtx<Ev>, rid: RequestId, f: FnId, now: SimTime) {
        let pool = self.pools.get_mut(&f).expect("known fn");
        let n = pool.containers.len();
        if n == 0 {
            // The cluster could not host a single container: the request
            // can never be served.
            ctx.lose(ReqId(rid.0));
            return;
        }
        let cid = pool.containers[pool.cursor % n];
        pool.cursor = (pool.cursor + 1) % n;
        self.cluster
            .container_mut(cid)
            .expect("static container")
            .enqueue(rid);
        self.try_start(ctx, cid, now);
    }

    fn try_start(&mut self, ctx: &mut impl PolicyCtx<Ev>, cid: ContainerId, now: SimTime) {
        let Some(c) = self.cluster.container(cid) else {
            return;
        };
        let fn_id = c.fn_id();
        let deflation = c.deflation_ratio();
        let Some(rid) = self.cluster.begin_service(cid, now) else {
            return;
        };
        let dur = self.setups[fn_id.0 as usize]
            .spec
            .service
            .sample(deflation, ctx.service_rng(fn_id.0))
            / self.service_scale;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.in_service.insert(cid, (rid, seq, now));
        ctx.schedule(
            now + SimDuration::from_secs_f64(dur),
            Ev::Complete { cid, seq },
        );
    }
}

impl lass_simcore::ContainerChaos for StaticRrPolicy {
    /// Chaos burst: terminate up to `count` live containers (lowest ids
    /// first — the pools are fixed, so the order is reproducible without
    /// a policy-side RNG). Orphans are re-dispatched over whatever pool
    /// remains; an emptied pool loses all future requests.
    fn crash_containers(&mut self, ctx: &mut impl PolicyCtx<Ev>, count: u32, now: SimTime) -> u32 {
        let mut victims = self.cluster.container_ids();
        victims.truncate(count as usize);
        let mut crashed = 0u32;
        for cid in victims {
            let Ok(term) = self.cluster.terminate_container(cid, now) else {
                continue;
            };
            crashed += 1;
            self.crashes += 1;
            self.in_service.remove(&cid);
            let f = term.container.fn_id();
            self.pools
                .get_mut(&f)
                .expect("known fn")
                .containers
                .retain(|&c| c != cid);
            for rid in term.orphans {
                if ctx.rerun(ReqId(rid.0)).is_some() {
                    self.dispatch(ctx, rid, f, now);
                }
            }
        }
        crashed
    }

    /// Brown-out absorption: scale every subsequent service draw by
    /// `1/factor` (1.0 restores nominal speed exactly).
    fn set_service_factor(&mut self, factor: f64) {
        self.service_scale = if factor.is_finite() && factor > 0.0 {
            factor.min(1.0)
        } else {
            1.0
        };
    }

    /// Per-dimension capacity/allocation census for vector telemetry
    /// and the planner router.
    fn resource_snapshot(&self) -> lass_simcore::ResourceSnapshot {
        let cap = self.cluster.total_capacity_vec();
        let used = self.cluster.total_used_vec();
        lass_simcore::ResourceSnapshot {
            cap: [
                f64::from(cap.cpu.0),
                f64::from(cap.mem.0),
                f64::from(cap.bandwidth.0),
            ],
            used: [
                f64::from(used.cpu.0),
                f64::from(used.mem.0),
                f64::from(used.bandwidth.0),
            ],
        }
    }

    /// Warm-container census for the affinity router: the function's
    /// booted fleet (cold-starting containers excluded).
    fn warm_containers(&self, fn_idx: u32) -> u64 {
        self.cluster.fn_warm_count(FnId(fn_idx))
    }

    /// The cluster's running warm total: every container it holds
    /// belongs to one of the federation's functions.
    fn warm_fleet(&self, _n_fns: u32) -> u64 {
        self.cluster.warm_total()
    }
}

impl SchedulerPolicy for StaticRrPolicy {
    type Event = Ev;
    type Report = SimReport;

    fn on_start(&mut self, _ctx: &mut impl PolicyCtx<Ev>) {
        self.util_gauge
            .set(SimTime::ZERO, self.cluster.cpu_utilization());
    }

    fn on_arrival(&mut self, ctx: &mut impl PolicyCtx<Ev>, rid: ReqId, fn_idx: u32, now: SimTime) {
        self.dispatch(ctx, RequestId(rid.0), FnId(fn_idx), now);
    }

    fn on_event(&mut self, ctx: &mut impl PolicyCtx<Ev>, ev: Ev, now: SimTime) {
        let Ev::Complete { cid, seq } = ev;
        match self.in_service.get(&cid) {
            Some(&(_, s, _)) if s == seq => {}
            _ => return,
        }
        let (rid, _, started) = self.in_service.remove(&cid).expect("checked");
        let Some(c) = self.cluster.container(cid) else {
            return;
        };
        let cpu_cores = c.cpu().as_cores();
        let done = self
            .cluster
            .finish_service(cid, now)
            .expect("live container");
        debug_assert_eq!(done, rid);
        // `None`: the completion was withheld upstream (stalled behind a
        // federated network partition); only the measurement is deferred.
        if let Some(completion) = ctx.complete(ReqId(rid.0), started, now) {
            self.busy_cpu_seconds += completion.service * cpu_cores;
        }
        self.try_start(ctx, cid, now);
    }

    fn finish(self, outcome: EngineOutcome) -> SimReport {
        let duration = outcome.duration_secs;
        let end = SimTime::from_secs_f64(duration);
        let capacity_cores = self.cluster.total_cpu_capacity().as_cores();
        let per_fn = outcome
            .per_fn
            .into_iter()
            .enumerate()
            .map(|(i, stats)| {
                let f = FnId(i as u32);
                // The allocation is constant: a flat two-point timeline.
                let pool = &self.pools[&f];
                let (mut cpu, mut count) = (0u32, 0u32);
                for &cid in &pool.containers {
                    if let Some(c) = self.cluster.container(cid) {
                        cpu += c.cpu().0;
                        count += 1;
                    }
                }
                let mut cpu_timeline = TimeSeries::new();
                let mut container_timeline = TimeSeries::new();
                for t in [SimTime::ZERO, end] {
                    cpu_timeline.push(t, f64::from(cpu));
                    container_timeline.push(t, f64::from(count));
                }
                (
                    f.0,
                    FnReport {
                        name: stats.name,
                        arrivals: stats.arrivals,
                        completed: stats.completed,
                        reruns: stats.reruns,
                        wait: stats.wait,
                        response: stats.response,
                        service: stats.service,
                        slo_violations: stats.slo_violations,
                        timeouts: stats.timeouts,
                        cpu_timeline,
                        container_timeline,
                        rate_timeline: TimeSeries::new(),
                    },
                )
            })
            .collect();
        SimReport {
            per_fn,
            allocated_utilization: self.util_gauge.average_until(end),
            busy_utilization: if capacity_cores > 0.0 && duration > 0.0 {
                self.busy_cpu_seconds / (capacity_cores * duration)
            } else {
                0.0
            },
            duration,
            overloaded_epochs: 0,
            epochs: 0,
            failed_creates: 0,
            crashes: self.crashes,
            free_timeline: TimeSeries::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lass_functions::{micro_benchmark, WorkloadSpec};

    fn run_static(rate: f64, containers: u32, duration: f64) -> SimReport {
        let mut sim = StaticRrSimulation::new(Cluster::paper_testbed(), 42);
        let mut setup = FunctionSetup::new(
            micro_benchmark(0.1),
            0.1,
            WorkloadSpec::Static { rate, duration },
        );
        setup.initial_containers = containers;
        sim.add_function(setup);
        sim.run(Some(duration))
    }

    #[test]
    fn adequately_provisioned_pool_serves_the_load() {
        // 10 req/s at mu=10 across 4 containers: rho = 0.25.
        let report = run_static(10.0, 4, 120.0);
        let f = &report.per_fn[&0];
        assert!(f.arrivals > 1000);
        assert!(f.completed as f64 > f.arrivals as f64 * 0.99);
        assert!(
            f.slo_attainment() > 0.9,
            "attainment={}",
            f.slo_attainment()
        );
        assert_eq!(report.epochs, 0);
        assert_eq!(f.container_timeline.points()[0].1, 4.0);
    }

    #[test]
    fn overloaded_pool_degrades() {
        // 30 req/s at mu=10 into 2 containers: rho = 1.5, queues explode.
        let report = run_static(30.0, 2, 60.0);
        let f = &report.per_fn[&0];
        assert!(
            f.slo_attainment() < 0.7,
            "attainment={}",
            f.slo_attainment()
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let a = run_static(15.0, 3, 60.0);
        let b = run_static(15.0, 3, 60.0);
        assert_eq!(a.per_fn[&0].arrivals, b.per_fn[&0].arrivals);
        assert_eq!(a.per_fn[&0].wait.samples(), b.per_fn[&0].wait.samples());
    }

    #[test]
    fn round_robin_spreads_work() {
        // With RR over 4 equal containers and light load, waits stay tiny
        // and utilization is sane.
        let report = run_static(8.0, 4, 60.0);
        assert!(report.busy_utilization > 0.0 && report.busy_utilization <= 1.0);
        assert!(report.allocated_utilization > 0.0);
    }

    #[test]
    fn two_pools_coexist() {
        let mut sim = StaticRrSimulation::new(Cluster::paper_testbed(), 9);
        let mut a = FunctionSetup::new(
            micro_benchmark(0.05),
            0.1,
            WorkloadSpec::Static {
                rate: 12.0,
                duration: 60.0,
            },
        );
        a.initial_containers = 2;
        sim.add_function(a);
        let mut b = FunctionSetup::new(
            lass_functions::binary_alert(),
            0.1,
            WorkloadSpec::Static {
                rate: 20.0,
                duration: 60.0,
            },
        );
        b.initial_containers = 2;
        sim.add_function(b);
        let report = sim.run(Some(60.0));
        assert!(report.per_fn[&0].completed > 500);
        assert!(report.per_fn[&1].completed > 900);
    }
}
