//! Chaos injection: a meta-policy that schedules faults into any
//! fault-tolerant scheduler.
//!
//! [`ChaosPolicy`] wraps a [`ChaosTarget`] — a scheduler that knows how
//! to absorb [`Fault`]s, such as the multi-site
//! [`Federation`](crate::federation::Federation) — and delivers faults
//! from two sources:
//!
//! * **timed events** (`ChaosConfig::events`): an explicit list of
//!   `(instant, fault)` pairs, for reproducing one specific disaster
//!   (the site crash at t = 60 s in the golden tests, say);
//! * **stochastic processes**: per-domain crash/recovery and
//!   partition/heal alternating renewal processes (exponential MTBF /
//!   MTTR) plus a global container-crash-burst process, all drawn from
//!   labelled deterministic [`SimRng`] streams so every chaos run is
//!   byte-for-byte reproducible under its seed.
//!
//! The wrapper is *transparent* when no faults are configured: it
//! schedules nothing, adds no RNG draws, and forwards every engine
//! callback unchanged, so a `ChaosPolicy` around a no-chaos run
//! reproduces the unwrapped run exactly (the chaos test suite pins
//! this against the pre-chaos goldens).
//!
//! What a fault *means* is the target's business: the federation
//! re-routes a crashed site's orphans to surviving sites (cross-site
//! migration), routes arrivals around partitions, and forwards
//! container bursts to the per-site schedulers through the
//! [`ContainerChaos`] seam.

use crate::engine::{Completion, PolicyCtx, ReqId, SchedulerPolicy};
use crate::rng::SimRng;
use crate::time::SimTime;

/// One injectable fault. `site` indexes the target's fault domains
/// (topology order for a federation; domain 0 for single-site targets).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The site crashes: it drops out of the router's view, its queued
    /// and in-flight requests are orphaned (migrated or failed), and it
    /// stays dark until a matching [`Fault::SiteUp`].
    SiteDown {
        /// Fault-domain index.
        site: u32,
    },
    /// The site recovers from a crash, cold (freshly provisioned).
    SiteUp {
        /// Fault-domain index.
        site: u32,
    },
    /// The router↔site network link is cut: new arrivals are routed
    /// around the site, requests in transit are re-routed, and requests
    /// already at the site have their responses stalled until the
    /// partition heals.
    PartitionStart {
        /// Fault-domain index.
        site: u32,
    },
    /// The partition heals; stalled responses are released.
    PartitionEnd {
        /// Fault-domain index.
        site: u32,
    },
    /// A correlated burst of container crashes at the site — beyond the
    /// independent per-container `container_mtbf_secs` process.
    ContainerBurst {
        /// Fault-domain index.
        site: u32,
        /// How many containers to crash (clamped to the live fleet).
        count: u32,
    },
    /// A brown-out: the site keeps serving, but every service at it runs
    /// at `permille / 1000` of nominal speed (thermal throttling, noisy
    /// neighbours, a degraded disk). The site stays routable — the
    /// slowdown is visible only through the health EWMA and the service
    /// times themselves. `permille ≥ 1000` restores nominal speed (the
    /// recovery event).
    SiteSlowdown {
        /// Fault-domain index.
        site: u32,
        /// Service-speed factor in permille (500 = half speed). Integer
        /// so the fault stays `Eq`/hashable like its siblings.
        permille: u32,
    },
}

impl Fault {
    /// The fault-domain index the fault targets.
    pub fn site(&self) -> u32 {
        match *self {
            Fault::SiteDown { site }
            | Fault::SiteUp { site }
            | Fault::PartitionStart { site }
            | Fault::PartitionEnd { site }
            | Fault::ContainerBurst { site, .. }
            | Fault::SiteSlowdown { site, .. } => site,
        }
    }
}

/// The chaos schedule: timed faults plus stochastic fault processes.
///
/// The default configuration injects nothing — a `ChaosPolicy` built
/// from it is a transparent wrapper.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Explicit faults, as `(seconds, fault)`. Faults at or past the
    /// nominal end of the run are dropped.
    pub events: Vec<(f64, Fault)>,
    /// Mean time between site crashes (per site, exponential). `None`
    /// disables the stochastic crash process.
    pub site_mtbf_secs: Option<f64>,
    /// Mean time to recover a crashed site (exponential).
    pub site_mttr_secs: f64,
    /// Mean time between router↔site partitions (per site, exponential).
    /// `None` disables the stochastic partition process.
    pub partition_mtbf_secs: Option<f64>,
    /// Mean time for a partition to heal (exponential).
    pub partition_mttr_secs: f64,
    /// Mean time between container-crash bursts (global, exponential;
    /// each burst hits one uniformly-drawn site). `None` disables the
    /// stochastic burst process.
    pub burst_mtbf_secs: Option<f64>,
    /// Containers crashed per stochastic burst.
    pub burst_size: u32,
    /// Extra network latency added to a migrated request's re-delivery,
    /// on top of the destination site's inbound hop (checkpoint
    /// transfer, re-admission). Consumed by the federation.
    pub migration_penalty_secs: f64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        Self {
            events: Vec::new(),
            site_mtbf_secs: None,
            site_mttr_secs: 30.0,
            partition_mtbf_secs: None,
            partition_mttr_secs: 15.0,
            burst_mtbf_secs: None,
            burst_size: 1,
            migration_penalty_secs: 0.0,
        }
    }
}

impl ChaosConfig {
    /// Whether this configuration injects nothing at all.
    pub fn is_noop(&self) -> bool {
        self.events.is_empty()
            && self.site_mtbf_secs.is_none()
            && self.partition_mtbf_secs.is_none()
            && self.burst_mtbf_secs.is_none()
    }

    /// Materialize the full fault schedule this configuration injects
    /// over a run of `domains` fault domains ending (nominally) at
    /// `end`, in **scheduling order**: timed events in config order
    /// (onsets at or past `end` dropped, recoveries kept), then the
    /// per-domain crash renewals, the per-domain partition renewals, and
    /// the burst process — exactly the order [`ChaosPolicy::on_start`]
    /// schedules them, so the `(time, seq)` pairs of a sequential run
    /// are reproducible from this list. The parallel federated executor
    /// consumes the same list, which is what keeps its fault timeline
    /// byte-identical to the sequential oracle's.
    pub fn build_schedule(&self, seed: u64, domains: usize, end: SimTime) -> Vec<(SimTime, Fault)> {
        let mut out = Vec::new();
        for &(at, fault) in &self.events {
            let at = SimTime::from_secs_f64(at);
            let is_recovery = matches!(
                fault,
                Fault::SiteUp { .. }
                    | Fault::PartitionEnd { .. }
                    | Fault::SiteSlowdown {
                        permille: 1000..,
                        ..
                    }
            );
            if is_recovery || at < end {
                out.push((at, fault));
            }
        }
        let renewal = |rng: &mut SimRng,
                       mtbf: f64,
                       mttr: f64,
                       out: &mut Vec<(SimTime, Fault)>,
                       mut fault_pair: Box<dyn FnMut(bool) -> Fault>| {
            let mut t = 0.0f64;
            loop {
                let down_at = t + rng.exp(1.0 / mtbf);
                if down_at >= end.as_secs_f64() {
                    return;
                }
                let up_at = down_at + rng.exp(1.0 / mttr);
                out.push((SimTime::from_secs_f64(down_at), fault_pair(true)));
                out.push((SimTime::from_secs_f64(up_at), fault_pair(false)));
                t = up_at;
            }
        };
        if let Some(mtbf) = self.site_mtbf_secs {
            for site in 0..domains as u32 {
                let mut rng = SimRng::from_seed_label(seed, &format!("chaos:crash:{site}"));
                renewal(
                    &mut rng,
                    mtbf,
                    self.site_mttr_secs,
                    &mut out,
                    Box::new(move |down| {
                        if down {
                            Fault::SiteDown { site }
                        } else {
                            Fault::SiteUp { site }
                        }
                    }),
                );
            }
        }
        if let Some(mtbf) = self.partition_mtbf_secs {
            for site in 0..domains as u32 {
                let mut rng = SimRng::from_seed_label(seed, &format!("chaos:partition:{site}"));
                renewal(
                    &mut rng,
                    mtbf,
                    self.partition_mttr_secs,
                    &mut out,
                    Box::new(move |down| {
                        if down {
                            Fault::PartitionStart { site }
                        } else {
                            Fault::PartitionEnd { site }
                        }
                    }),
                );
            }
        }
        if let Some(mtbf) = self.burst_mtbf_secs {
            let mut rng = SimRng::from_seed_label(seed, "chaos:burst");
            let mut t = 0.0f64;
            loop {
                t += rng.exp(1.0 / mtbf);
                if t >= end.as_secs_f64() {
                    break;
                }
                let site = rng.below(domains.max(1)) as u32;
                out.push((
                    SimTime::from_secs_f64(t),
                    Fault::ContainerBurst {
                        site,
                        count: self.burst_size,
                    },
                ));
            }
        }
        out
    }

    /// Basic sanity checks on the knobs.
    pub fn validate(&self) -> Result<(), String> {
        for (name, v) in [
            ("site_mtbf_secs", self.site_mtbf_secs),
            ("partition_mtbf_secs", self.partition_mtbf_secs),
            ("burst_mtbf_secs", self.burst_mtbf_secs),
        ] {
            if let Some(v) = v {
                if !(v.is_finite() && v > 0.0) {
                    return Err(format!("{name} must be positive, got {v}"));
                }
            }
        }
        for (name, v) in [
            ("site_mttr_secs", self.site_mttr_secs),
            ("partition_mttr_secs", self.partition_mttr_secs),
        ] {
            if !(v.is_finite() && v > 0.0) {
                return Err(format!("{name} must be positive, got {v}"));
            }
        }
        if !(self.migration_penalty_secs.is_finite() && self.migration_penalty_secs >= 0.0) {
            return Err("migration_penalty_secs must be finite and non-negative".into());
        }
        for (at, _) in &self.events {
            if !(at.is_finite() && *at >= 0.0) {
                return Err(format!("chaos event time must be non-negative, got {at}"));
            }
        }
        Ok(())
    }
}

/// The per-site scheduler's introspection seam: how the federation
/// reaches *inside* a scheduler — to crash its containers (chaos) and
/// to census its warm fleet (affinity routing telemetry).
///
/// The default implementations ignore the request (a scheduler with no
/// container fleet, like a test stub, has nothing to crash or census).
/// Real schedulers terminate up to `count` live containers and
/// re-dispatch the orphaned requests, returning how many containers
/// actually died, and report their per-function warm-container counts.
pub trait ContainerChaos: SchedulerPolicy {
    /// Crash up to `count` containers at `now`. Returns the number of
    /// containers actually crashed.
    fn crash_containers(
        &mut self,
        _ctx: &mut impl PolicyCtx<Self::Event>,
        _count: u32,
        _now: SimTime,
    ) -> u32 {
        0
    }

    /// Warm (booted, non-terminated) containers currently held for
    /// function `fn_idx` — the affinity router's census. Observe-only:
    /// implementations must not mutate state or draw randomness.
    fn warm_containers(&self, _fn_idx: u32) -> u64 {
        0
    }

    /// The site-wide warm fleet: [`warm_containers`](Self::warm_containers)
    /// summed over functions `0..n_fns` — the server count behind the
    /// site's forecast. The default sums, which is O(`n_fns`) per call;
    /// schedulers that keep a running total return it in O(1).
    /// Observe-only, like the per-function census.
    fn warm_fleet(&self, n_fns: u32) -> u64 {
        (0..n_fns).map(|f| self.warm_containers(f)).sum()
    }

    /// Apply a reconciler directive: resize toward `desired` total warm
    /// containers. This is the receiving end of the
    /// [`ReconcilerSeam`](crate::telemetry::ReconcilerSeam) round-trip —
    /// the directive was computed from a *reported* snapshot and arrives
    /// one network hop later, so by the time it lands the site may
    /// already have moved on; implementations reconcile toward the
    /// desired state rather than assuming it. Returns whether the
    /// directive changed anything. The default ignores it (a scheduler
    /// with no elastic fleet, or one that scales autonomously, has
    /// nothing to reconcile).
    fn apply_desired_fleet(
        &mut self,
        _ctx: &mut impl PolicyCtx<Self::Event>,
        _desired: u32,
        _now: SimTime,
    ) -> bool {
        false
    }

    /// Scale every subsequent service duration by `factor` (a
    /// [`Fault::SiteSlowdown`] brown-out: 0.5 = half speed = services
    /// take twice as long; 1.0 restores nominal). Requests already in
    /// service finish on their old clock — only new dispatches see the
    /// new factor. The default ignores it (a stub with no service
    /// process has nothing to slow down).
    fn set_service_factor(&mut self, _factor: f64) {}

    /// The site's per-dimension capacity picture (capacity and
    /// allocation on cpu / memory / bandwidth), feeding the planner
    /// router and the per-dimension telemetry columns. Observe-only.
    /// The default reports nothing (all-zero = unknown), which keeps
    /// resource-blind schedulers and their reports byte-identical.
    fn resource_snapshot(&self) -> crate::router::ResourceSnapshot {
        crate::router::ResourceSnapshot::default()
    }
}

/// A scheduler that can absorb [`Fault`]s — the target side of
/// [`ChaosPolicy`].
pub trait ChaosTarget: SchedulerPolicy {
    /// Number of fault domains (sites) the target exposes. Stochastic
    /// fault processes run one renewal process per domain.
    fn fault_domains(&self) -> usize;

    /// Apply one fault at `now`. Out-of-range sites and redundant
    /// transitions (downing a dead site, healing an intact link) must be
    /// ignored, so overlapping timed and stochastic schedules compose.
    fn inject(&mut self, ctx: &mut impl PolicyCtx<Self::Event>, fault: Fault, now: SimTime);
}

/// Events of a chaos-wrapped run: the target's own events plus the
/// injected faults.
pub enum ChaosEv<E> {
    /// The wrapped policy's event.
    Inner(E),
    /// A scheduled fault fires.
    Fault(Fault),
}

/// Pass-through context that unwraps [`ChaosEv`] for the inner policy.
struct InnerCtx<'a, C> {
    inner: &'a mut C,
}

impl<E, C: PolicyCtx<ChaosEv<E>>> PolicyCtx<E> for InnerCtx<'_, C> {
    fn schedule(&mut self, at: SimTime, ev: E) {
        self.inner.schedule(at, ChaosEv::Inner(ev));
    }
    fn end_time(&self) -> SimTime {
        self.inner.end_time()
    }
    fn fn_count(&self) -> usize {
        self.inner.fn_count()
    }
    fn service_rng(&mut self, fn_idx: u32) -> &mut SimRng {
        self.inner.service_rng(fn_idx)
    }
    fn request_info(&self, rid: ReqId) -> Option<(u32, SimTime)> {
        self.inner.request_info(rid)
    }
    fn complete(&mut self, rid: ReqId, started: SimTime, now: SimTime) -> Option<Completion> {
        self.inner.complete(rid, started, now)
    }
    fn abandon(&mut self, rid: ReqId) -> Option<u32> {
        self.inner.abandon(rid)
    }
    fn lose(&mut self, rid: ReqId) -> Option<u32> {
        self.inner.lose(rid)
    }
    fn rerun(&mut self, rid: ReqId) -> Option<u32> {
        self.inner.rerun(rid)
    }
    fn take_window_counts(&mut self) -> Vec<u64> {
        self.inner.take_window_counts()
    }
    fn outstanding(&self) -> usize {
        self.inner.outstanding()
    }
    fn schedule_cancellable(&mut self, at: SimTime, ev: E) -> Option<u64> {
        self.inner.schedule_cancellable(at, ChaosEv::Inner(ev))
    }
    fn cancel_scheduled(&mut self, token: u64) -> bool {
        self.inner.cancel_scheduled(token)
    }
    fn note_hedged(&mut self, fn_idx: u32) {
        self.inner.note_hedged(fn_idx);
    }
    fn note_cancelled(&mut self, fn_idx: u32) {
        self.inner.note_cancelled(fn_idx);
    }
}

/// The chaos meta-policy: schedules the configured faults and forwards
/// everything else to the wrapped target.
pub struct ChaosPolicy<T: ChaosTarget> {
    target: T,
    cfg: ChaosConfig,
    seed: u64,
    /// Faults delivered so far (timed + stochastic).
    faults_injected: usize,
}

impl<T: ChaosTarget> ChaosPolicy<T> {
    /// Wrap `target` under the given chaos schedule. `seed` feeds the
    /// labelled fault streams (`chaos:crash:<site>`,
    /// `chaos:partition:<site>`, `chaos:burst`) — pass the engine seed
    /// so one scenario seed pins the whole run.
    pub fn new(target: T, cfg: ChaosConfig, seed: u64) -> Self {
        cfg.validate().expect("invalid ChaosConfig");
        Self {
            target,
            cfg,
            seed,
            faults_injected: 0,
        }
    }

    /// Faults delivered so far.
    pub fn faults_injected(&self) -> usize {
        self.faults_injected
    }
}

impl<T: ChaosTarget> SchedulerPolicy for ChaosPolicy<T> {
    type Event = ChaosEv<T::Event>;
    type Report = T::Report;

    fn on_start(&mut self, ctx: &mut impl PolicyCtx<Self::Event>) {
        self.target.on_start(&mut InnerCtx { inner: ctx });
        let end = ctx.end_time();
        let domains = self.target.fault_domains();
        // Timed faults first (stable order for equal instants), then the
        // stochastic processes in domain order — all deterministic.
        // Fault onsets at or past the nominal end are pointless and
        // dropped; *recoveries* are scheduled regardless, so a down/up
        // pair straddling the end still heals during the drain instead
        // of leaving the site dark — or its stalled responses buffered —
        // forever. `build_schedule` encodes both rules.
        for (at, fault) in self.cfg.build_schedule(self.seed, domains, end) {
            ctx.schedule(at, ChaosEv::Fault(fault));
        }
    }

    fn on_arrival(
        &mut self,
        ctx: &mut impl PolicyCtx<Self::Event>,
        rid: ReqId,
        fn_idx: u32,
        now: SimTime,
    ) {
        self.target
            .on_arrival(&mut InnerCtx { inner: ctx }, rid, fn_idx, now);
    }

    fn on_event(&mut self, ctx: &mut impl PolicyCtx<Self::Event>, ev: Self::Event, now: SimTime) {
        match ev {
            ChaosEv::Inner(ev) => self.target.on_event(&mut InnerCtx { inner: ctx }, ev, now),
            ChaosEv::Fault(fault) => {
                self.faults_injected += 1;
                self.target.inject(&mut InnerCtx { inner: ctx }, fault, now);
            }
        }
    }

    fn finish(self, outcome: crate::engine::EngineOutcome) -> Self::Report {
        self.target.finish(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::StaticPoisson;
    use crate::engine::{run_simulation, EngineConfig, EngineOutcome, FunctionEntry};

    /// A target that serves everything instantly and logs the faults it
    /// receives (with timestamps).
    struct Probe {
        domains: usize,
        faults: Vec<(f64, Fault)>,
    }

    impl SchedulerPolicy for Probe {
        type Event = ();
        type Report = (EngineOutcome, Vec<(f64, Fault)>);

        fn on_start(&mut self, _ctx: &mut impl PolicyCtx<()>) {}
        fn on_arrival(&mut self, ctx: &mut impl PolicyCtx<()>, rid: ReqId, _f: u32, now: SimTime) {
            ctx.complete(rid, now, now);
        }
        fn on_event(&mut self, _ctx: &mut impl PolicyCtx<()>, _ev: (), _now: SimTime) {}
        fn finish(self, outcome: EngineOutcome) -> Self::Report {
            (outcome, self.faults)
        }
    }

    impl ChaosTarget for Probe {
        fn fault_domains(&self) -> usize {
            self.domains
        }
        fn inject(&mut self, _ctx: &mut impl PolicyCtx<()>, fault: Fault, now: SimTime) {
            self.faults.push((now.as_secs_f64(), fault));
        }
    }

    fn run_probe(cfg: ChaosConfig, seed: u64) -> (EngineOutcome, Vec<(f64, Fault)>) {
        run_simulation(
            EngineConfig {
                seed,
                rng_label_prefix: String::new(),
                duration_secs: 100.0,
                drain_secs: 20.0,
                stream_stats: false,
                parallel_sites: None,
            },
            vec![FunctionEntry {
                name: "probe".into(),
                slo_deadline: 1.0,
                process: Box::new(StaticPoisson::until(5.0, SimTime::from_secs(100))),
            }],
            ChaosPolicy::new(
                Probe {
                    domains: 3,
                    faults: Vec::new(),
                },
                cfg,
                seed,
            ),
        )
    }

    #[test]
    fn timed_faults_fire_in_order_and_past_end_onsets_are_dropped() {
        let cfg = ChaosConfig {
            events: vec![
                (60.0, Fault::SiteDown { site: 0 }),
                (20.0, Fault::PartitionStart { site: 1 }),
                (80.0, Fault::SiteUp { site: 0 }),
                (500.0, Fault::SiteDown { site: 2 }), // onset past the end: dropped
                (110.0, Fault::PartitionEnd { site: 1 }), // recovery in the drain: fires
            ],
            ..ChaosConfig::default()
        };
        let (_, faults) = run_probe(cfg, 1);
        let times: Vec<f64> = faults.iter().map(|(t, _)| *t).collect();
        assert_eq!(times, vec![20.0, 60.0, 80.0, 110.0]);
        assert_eq!(faults[1].1, Fault::SiteDown { site: 0 });
        assert_eq!(faults[3].1, Fault::PartitionEnd { site: 1 });
    }

    #[test]
    fn stochastic_faults_are_deterministic_and_alternate() {
        let cfg = ChaosConfig {
            site_mtbf_secs: Some(30.0),
            site_mttr_secs: 10.0,
            ..ChaosConfig::default()
        };
        let (_, a) = run_probe(cfg.clone(), 7);
        let (_, b) = run_probe(cfg, 7);
        assert!(!a.is_empty(), "mtbf 30 over 100s should crash something");
        assert_eq!(a, b, "same seed must give the same fault schedule");
        // Per site, the first fault is a SiteDown and states alternate.
        for site in 0..3u32 {
            let seq: Vec<&Fault> = a
                .iter()
                .map(|(_, f)| f)
                .filter(|f| f.site() == site)
                .collect();
            for (i, f) in seq.iter().enumerate() {
                let expect_down = i % 2 == 0;
                match f {
                    Fault::SiteDown { .. } => assert!(expect_down, "site {site} seq {i}"),
                    Fault::SiteUp { .. } => assert!(!expect_down, "site {site} seq {i}"),
                    other => panic!("unexpected fault {other:?}"),
                }
            }
        }
    }

    #[test]
    fn burst_process_targets_valid_sites() {
        let cfg = ChaosConfig {
            burst_mtbf_secs: Some(10.0),
            burst_size: 4,
            ..ChaosConfig::default()
        };
        let (_, faults) = run_probe(cfg, 3);
        assert!(!faults.is_empty());
        for (_, f) in &faults {
            match f {
                Fault::ContainerBurst { site, count } => {
                    assert!(*site < 3);
                    assert_eq!(*count, 4);
                }
                other => panic!("unexpected fault {other:?}"),
            }
        }
    }

    #[test]
    fn noop_chaos_is_transparent() {
        let plain = run_simulation(
            EngineConfig {
                seed: 5,
                rng_label_prefix: String::new(),
                duration_secs: 100.0,
                drain_secs: 20.0,
                stream_stats: false,
                parallel_sites: None,
            },
            vec![FunctionEntry {
                name: "probe".into(),
                slo_deadline: 1.0,
                process: Box::new(StaticPoisson::until(5.0, SimTime::from_secs(100))),
            }],
            Probe {
                domains: 3,
                faults: Vec::new(),
            },
        );
        let cfg = ChaosConfig::default();
        assert!(cfg.is_noop());
        let (wrapped, faults) = run_probe(cfg, 5);
        assert!(faults.is_empty());
        assert_eq!(plain.0.per_fn[0].arrivals, wrapped.per_fn[0].arrivals);
        assert_eq!(
            plain.0.per_fn[0].wait.samples(),
            wrapped.per_fn[0].wait.samples()
        );
    }

    #[test]
    fn config_validation_rejects_bad_knobs() {
        let mut cfg = ChaosConfig::default();
        cfg.site_mtbf_secs = Some(0.0);
        assert!(cfg.validate().is_err());
        let mut cfg = ChaosConfig::default();
        cfg.site_mttr_secs = -1.0;
        assert!(cfg.validate().is_err());
        let mut cfg = ChaosConfig::default();
        cfg.migration_penalty_secs = f64::NAN;
        assert!(cfg.validate().is_err());
        let mut cfg = ChaosConfig::default();
        cfg.events.push((-2.0, Fault::SiteDown { site: 0 }));
        assert!(cfg.validate().is_err());
        assert!(ChaosConfig::default().validate().is_ok());
    }
}
