//! The federation front end shared by both executors.
//!
//! [`FrontEnd`] is the router-facing half of a federation: per-site
//! routing state ([`FrontSite`]), the router and its scratch
//! [`SiteState`] view, the delayed-telemetry runtime, the reconciler
//! seam and the hedge configuration. The sequential
//! [`Federation`](crate::federation::Federation) and the windowed
//! parallel executor ([`crate::parallel`]) own one each and make every
//! routing-side decision through it, so those decisions exist once.
//!
//! The core never touches an engine calendar or a site scheduler's
//! mutable state. It returns what the executor must schedule (a
//! delivery hop, a snapshot, a directive) or apply at the site (a
//! [`SiteEffect`]), and reads the sites' census through [`SiteAccess`].

use crate::chaos::{ContainerChaos, Fault};
use crate::engine::EngineOutcome;
use crate::federation::{
    FedFunction, FederatedReport, HedgeConfig, HedgeTrigger, SiteMeta, SiteReport,
};
use crate::metrics::DowntimeClock;
use crate::router::{
    predicted_score, ResourceSnapshot, RouterConfig, RouterPolicy, SiteColumns, SiteState,
};
use crate::telemetry::{ReconcilerSeam, TelemetryConfig, TelemetryRuntime, TelemetrySnapshot};
use crate::time::{SimDuration, SimTime};
use lass_queueing::{EvaluatedForecast, ForecastCache, HealthEwma, WaitPredictor};

/// Read access to the site schedulers, whichever executor holds them:
/// a plain slice for the sequential federation, barrier-parked shard
/// locks for the parallel executor (one lock per call).
pub(crate) trait SiteAccess {
    /// The site scheduler type.
    type Policy: ContainerChaos;

    /// Run `f` against site `i`'s scheduler.
    fn with_site<R>(&self, i: usize, f: impl FnOnce(&Self::Policy) -> R) -> R;
}

impl<P: ContainerChaos> SiteAccess for [P] {
    type Policy = P;

    fn with_site<R>(&self, i: usize, f: impl FnOnce(&P) -> R) -> R {
        f(&self[i])
    }
}

/// The router's per-site bookkeeping.
pub(crate) struct FrontSite {
    pub(crate) meta: SiteMeta,
    /// Requests the router sent to this site (delivered or in transit).
    pub(crate) routed: usize,
    /// Requests that finished at this site (completed, abandoned, lost,
    /// cancelled, or migrated away). `routed - finished` is the
    /// router's view of the site's commitment: it includes requests
    /// still in transit, which the front end knows it dispatched even
    /// though the site hasn't seen them yet — otherwise a burst shorter
    /// than the network hop would herd entirely onto a high-latency
    /// site before any delivery moves its visible load.
    pub(crate) finished: usize,
    /// Whether the site is alive (not crashed).
    pub(crate) up: bool,
    /// Whether the router↔site link is currently cut.
    pub(crate) partitioned: bool,
    /// Whether a [`Fault::SiteSlowdown`] brown-out is active: the site
    /// keeps serving (and stays routable), but the health EWMA sees it
    /// as degraded so the failure-aware router browns it out.
    pub(crate) slowed: bool,
    /// The site crashed and its scheduler must be rebuilt on recovery.
    pub(crate) needs_rebuild: bool,
    /// Completed crash/rebuild cycles (labels the replacement policy).
    pub(crate) restarts: u32,
    /// Requests migrated away from this site (orphans of a crash plus
    /// in-transit bounces off a dead or partitioned site).
    pub(crate) migrated_out: usize,
    /// Migrated requests this site accepted from a failing site.
    pub(crate) migrated_in: usize,
    /// Requests committed to this site that could not be migrated
    /// anywhere (engine-level lost).
    pub(crate) failed: usize,
    /// Total time the site was unroutable (crashed or partitioned).
    pub(crate) downtime: DowntimeClock,
    /// Online λ̂/μ̂ telemetry feeding the model-driven routers'
    /// forecasts, hedging and telemetry snapshots. Fed every routed
    /// arrival and every completion whatever the router; read only when
    /// someone needs a forecast.
    pub(crate) predictor: WaitPredictor,
    /// Memoized M/M/c evaluation of the predictor's forecast, keyed by
    /// `(λ̂ epoch, μ̂ epoch, server count)`. Consulted only when the
    /// forecast column is demanded (a model-driven router, or hedging);
    /// it then re-evaluates the model only when the predictor advanced
    /// a tick (or absorbed a completion) or the site's warm fleet
    /// changed — otherwise it is a key compare and a copy,
    /// allocation-free. Under load μ̂ moves on almost every completion,
    /// so most demanded refreshes do evaluate.
    pub(crate) fcache: ForecastCache,
    /// Downtime EWMA behind the failure-aware router's flakiness score.
    pub(crate) health: HealthEwma,
    /// Hedge copies that ran to the end after their sibling had already
    /// answered: work nobody was waiting for.
    pub(crate) wasted: usize,
    /// Service seconds burned by those wasted completions.
    pub(crate) wasted_secs: f64,
}

impl FrontSite {
    fn new(meta: SiteMeta, cfg: &RouterConfig) -> Self {
        Self {
            meta,
            routed: 0,
            finished: 0,
            up: true,
            partitioned: false,
            slowed: false,
            needs_rebuild: false,
            restarts: 0,
            migrated_out: 0,
            migrated_in: 0,
            failed: 0,
            downtime: DowntimeClock::new(),
            predictor: WaitPredictor::new(cfg.predictor()),
            fcache: ForecastCache::new(),
            health: HealthEwma::new(cfg.health_tick_secs, cfg.health_alpha),
            wasted: 0,
            wasted_secs: 0.0,
        }
    }

    /// Whether the router may send arrivals here right now.
    pub(crate) fn routable(&self) -> bool {
        self.up && !self.partitioned
    }

    /// What the health EWMA observes: a browned-out (slowed) site counts
    /// as degraded even though it stays routable.
    fn degraded(&self) -> bool {
        self.slowed || !self.routable()
    }

    /// Close the downtime clock transition after the site's routability
    /// may have changed. The flakiness EWMA sees the transition at its
    /// true instant, but the clock is clamped to the nominal end of the
    /// run: faults keep resolving through the drain, while
    /// `downtime_secs` only measures the nominal window, so a recovery
    /// at `end + k` closes its interval at `end`.
    fn clock_routability(&mut self, now: SimTime, end: SimTime) {
        self.health.observe(now.as_secs_f64(), self.degraded());
        let now = now.min(end);
        if self.routable() {
            self.downtime.mark_up(now);
        } else {
            self.downtime.mark_down(now);
        }
    }

    /// Forget the λ̂/μ̂ history (a rebuilt site starts cold).
    fn reset_rates(&mut self, cfg: &RouterConfig) {
        self.predictor = WaitPredictor::new(cfg.predictor());
        self.fcache = ForecastCache::new();
    }
}

/// The router's scratch view of a site before any telemetry arrived.
fn blank_state(meta: &SiteMeta) -> SiteState {
    SiteState {
        name: meta.name.clone(),
        latency: meta.latency,
        capacity_hint: meta.capacity_hint,
        in_flight: 0,
        up: true,
        forecast: EvaluatedForecast::default(),
        flakiness: 0.0,
        warm: 0,
        resources: ResourceSnapshot::default(),
        fits: f64::INFINITY,
    }
}

/// Model server count for a site's forecast. The predictor's λ̂/μ̂ are
/// site-wide (all functions pooled), so the matching `c` is the
/// site-wide warm fleet — not the routed function's census, which
/// would understate capacity under multi-function traffic. The static
/// capacity hint stands in while nothing is warm (cold start, or a site
/// policy without a census).
fn model_servers(fleet: u64, capacity_hint: f64) -> u32 {
    if fleet > 0 {
        fleet.min(u64::from(u32::MAX)) as u32
    } else {
        capacity_hint.round().max(1.0) as u32
    }
}

/// The hedging step an arrival takes once its primary is routed.
pub(crate) enum HedgeAction {
    /// Dispatch clones now (the router's view is fresh for this arrival).
    Clone,
    /// Arm a hedge (or retry) timer firing after this delay.
    Arm(SimDuration),
}

/// The site-side half of a fault, left to the executor once the front
/// end has flipped its own state.
pub(crate) enum SiteEffect {
    /// The site crashed: drop its events and migrate its live requests.
    Crash,
    /// The site recovered from a crash: rebuild its scheduler cold with
    /// this restart count and replay its start-up.
    Rebuild(u32),
    /// The router↔site link was cut: hold responses from now on.
    PartitionStart,
    /// The link healed: release the held responses.
    PartitionEnd,
    /// Run the site's services at this fraction of nominal speed.
    Slowdown(f64),
    /// Crash up to this many containers.
    Burst(u32),
}

/// The router-facing half of a federation. See the module docs.
pub(crate) struct FrontEnd {
    pub(crate) sites: Vec<FrontSite>,
    pub(crate) router: Box<dyn RouterPolicy + Send>,
    /// Scratch router view, refreshed per decision.
    pub(crate) states: Vec<SiteState>,
    /// The router/telemetry knobs in force (rebuilds a crashed site's
    /// predictor with the same smoothing constants).
    pub(crate) router_cfg: RouterConfig,
    /// Delayed-telemetry propagation state; disabled (zero interval)
    /// unless a telemetry config is installed.
    pub(crate) telemetry: TelemetryRuntime,
    /// Optional scaling reconciler fed each snapshot as it arrives.
    pub(crate) reconciler: Option<Box<dyn ReconcilerSeam>>,
    /// Extra latency added to a migrated request's re-delivery, on top
    /// of the destination's inbound hop.
    pub(crate) migration_penalty: SimDuration,
    /// Arrivals dropped because no site was routable.
    pub(crate) unroutable: usize,
    /// Per-function demand vectors in registration order (the planner
    /// router's fit denominators), from [`FedFunction::demand`].
    pub(crate) fn_demands: Vec<[f64; 3]>,
    /// Whether the run opted into multi-dimensional accounting: gates
    /// the per-site `utilization` report key and the snapshots'
    /// resources column, so legacy reports stay byte-identical.
    pub(crate) multidim: bool,
    /// Hedged-request configuration; `None` disables hedging entirely.
    pub(crate) hedge: Option<HedgeConfig>,
    /// Logical completions recorded so far (the waste budget's
    /// denominator).
    pub(crate) completed: usize,
}

impl FrontEnd {
    pub(crate) fn new(
        metas: Vec<SiteMeta>,
        router: Box<dyn RouterPolicy + Send>,
        functions: &[FedFunction],
    ) -> Self {
        let router_cfg = RouterConfig::default();
        Self {
            states: metas.iter().map(blank_state).collect(),
            sites: metas
                .into_iter()
                .map(|m| FrontSite::new(m, &router_cfg))
                .collect(),
            router,
            router_cfg,
            telemetry: TelemetryRuntime::disabled(),
            reconciler: None,
            migration_penalty: SimDuration::ZERO,
            unroutable: 0,
            fn_demands: functions.iter().map(|f| f.demand).collect(),
            multidim: false,
            hedge: None,
            completed: 0,
        }
    }

    /// Restart the telemetry layer under `cfg`: predictors, forecast
    /// caches, health EWMAs, the arrived-snapshot views and every value
    /// already folded into the router's scratch view.
    pub(crate) fn set_router_config(&mut self, cfg: &RouterConfig) {
        self.router_cfg = *cfg;
        for (front, state) in self.sites.iter_mut().zip(&mut self.states) {
            front.reset_rates(cfg);
            front.health = HealthEwma::new(cfg.health_tick_secs, cfg.health_alpha);
            *state = blank_state(&front.meta);
        }
        self.telemetry.reset_views();
    }

    pub(crate) fn set_telemetry(&mut self, cfg: TelemetryConfig, seed: u64) {
        let names: Vec<String> = self.sites.iter().map(|s| s.meta.name.clone()).collect();
        self.telemetry = TelemetryRuntime::new(cfg, seed, &names, self.fn_demands.len());
    }

    pub(crate) fn any_routable(&self) -> bool {
        self.sites.iter().any(FrontSite::routable)
    }

    fn first_routable(&self) -> usize {
        self.sites
            .iter()
            .position(FrontSite::routable)
            .expect("caller checked a routable site exists")
    }

    /// The costly view columns someone reads this run: the router's
    /// declared columns, plus the forecast and warm census whenever
    /// hedging is on ([`Self::clone_target`] and the p95 trigger score
    /// sites with them).
    fn demanded_columns(&self) -> SiteColumns {
        let hedge = if self.hedge.is_some() {
            SiteColumns::FORECAST | SiteColumns::WARM
        } else {
            SiteColumns::NONE
        };
        self.router.columns() | hedge
    }

    /// Refresh the router's scratch view: the load picture (in-flight
    /// commitment, routability, flakiness) on every call, plus only the
    /// demanded telemetry columns ([`Self::demanded_columns`]): the
    /// λ̂/μ̂ forecast, the warm census for the function being routed,
    /// and the resource picture with its fit count. Undemanded columns
    /// keep their blank values. Pure bookkeeping — no randomness, no
    /// events — so routers that ignore the telemetry replay their
    /// pre-telemetry decisions exactly.
    ///
    /// With delayed telemetry enabled the site-side columns come from
    /// the last *arrived* snapshot instead ([`Self::refresh_states_stale`]).
    pub(crate) fn refresh_states<S: SiteAccess + ?Sized>(
        &mut self,
        sites: &S,
        fn_idx: u32,
        now: SimTime,
    ) {
        if self.telemetry.enabled() {
            self.refresh_states_stale(fn_idx, now);
            return;
        }
        let columns = self.demanded_columns();
        let want_forecast = columns.contains(SiteColumns::FORECAST);
        let want_warm = columns.contains(SiteColumns::WARM);
        let want_resources = columns.contains(SiteColumns::RESOURCES);
        let t = now.as_secs_f64();
        let n_fns = self.fn_demands.len() as u32;
        let demand = self
            .fn_demands
            .get(fn_idx as usize)
            .copied()
            .unwrap_or_default();
        for (i, (front, state)) in self.sites.iter_mut().zip(&mut self.states).enumerate() {
            state.in_flight = front.routed.saturating_sub(front.finished) as u64;
            state.up = front.routable();
            front.health.observe(t, front.degraded());
            state.flakiness = front.health.value();
            if columns.is_empty() {
                // Load-only router: no census (on the parallel executor,
                // no shard lock) and no model evaluation.
                continue;
            }
            let (warm, fleet, resources) = sites.with_site(i, |p| {
                (
                    want_warm.then(|| p.warm_containers(fn_idx)),
                    want_forecast.then(|| p.warm_fleet(n_fns)),
                    want_resources.then(|| p.resource_snapshot()),
                )
            });
            if let Some(warm) = warm {
                state.warm = warm;
            }
            if let Some(resources) = resources {
                state.resources = resources;
                state.fits = resources.fit_count(demand);
            }
            if let Some(fleet) = fleet {
                // The cache re-evaluates the M/M/c model only when the
                // predictor advanced a tick / absorbed a completion or
                // the server count changed — otherwise the refresh is a
                // key compare plus a copy.
                let servers = model_servers(fleet, front.meta.capacity_hint);
                state.forecast = front.fcache.refresh(&mut front.predictor, t, servers);
            }
        }
    }

    /// The stale-telemetry refresh: site-side columns (reachability,
    /// forecast, flakiness, warm census) come from the last snapshot
    /// that *arrived*, however old. Only the commitment counter stays
    /// live — the front end counts what it dispatched itself, so
    /// `routed − finished` is genuinely router-local knowledge.
    fn refresh_states_stale(&mut self, fn_idx: u32, now: SimTime) {
        let demand = self
            .fn_demands
            .get(fn_idx as usize)
            .copied()
            .unwrap_or_default();
        for (i, (front, state)) in self.sites.iter().zip(&mut self.states).enumerate() {
            let view = &self.telemetry.views[i];
            state.in_flight = front.routed.saturating_sub(front.finished) as u64;
            state.up = self.telemetry.view_up(i, front.meta.latency, now);
            state.forecast = view.forecast;
            state.flakiness = view.flakiness;
            state.warm = view.warm.get(fn_idx as usize).copied().unwrap_or(0);
            state.resources = view.resources;
            state.fits = state.resources.fit_count(demand);
        }
    }

    /// Refresh the view and route a request to a live site. Assumes the
    /// caller checked at least one site is routable.
    pub(crate) fn pick_site<S: SiteAccess + ?Sized>(
        &mut self,
        sites: &S,
        fn_idx: u32,
        now: SimTime,
    ) -> usize {
        self.refresh_states(sites, fn_idx, now);
        if self.telemetry.enabled() {
            return self.pick_site_stale(fn_idx, now);
        }
        let chosen = self.router.route(fn_idx, now, &self.states);
        let ok = chosen < self.sites.len() && self.sites[chosen].routable();
        debug_assert!(ok, "router returned unroutable site {chosen}");
        if ok {
            chosen
        } else {
            self.first_routable()
        }
    }

    /// The stale-view routing decision (states already refreshed). The
    /// router's contract is judged against its own *view*: it must
    /// never pick a site whose last-arrived snapshot marks it down, but
    /// a view-up site may still be physically dead — that is the point
    /// of stale telemetry — and the delivery will bounce and migrate.
    /// When the view marks *every* site down (mass staleness) the front
    /// end routes blind to the first physically routable site rather
    /// than shedding traffic its own counters can't justify dropping.
    fn pick_site_stale(&mut self, fn_idx: u32, now: SimTime) -> usize {
        let Some(fallback) = self.states.iter().position(|s| s.up) else {
            return self.first_routable();
        };
        let chosen = self.router.route(fn_idx, now, &self.states);
        let ok = chosen < self.sites.len() && self.states[chosen].up;
        debug_assert!(ok, "router returned view-down site {chosen}");
        if ok {
            chosen
        } else {
            fallback
        }
    }

    /// Commit one more request (arrival, clone or migrant) to site `i`.
    pub(crate) fn note_routed(&mut self, i: usize, now: SimTime) {
        self.sites[i].routed += 1;
        self.sites[i].predictor.on_arrival(now.as_secs_f64());
    }

    /// Route a fresh arrival: the chosen site, or `None` (counted as
    /// unroutable) when every site is dark and the front door sheds it.
    pub(crate) fn route_arrival<S: SiteAccess + ?Sized>(
        &mut self,
        sites: &S,
        fn_idx: u32,
        now: SimTime,
    ) -> Option<usize> {
        if !self.any_routable() {
            self.unroutable += 1;
            return None;
        }
        let chosen = self.pick_site(sites, fn_idx, now);
        self.note_routed(chosen, now);
        Some(chosen)
    }

    /// Fold a logical completion at site `i` into the router's view:
    /// the observed service time feeds the site's μ̂ estimate. (A
    /// partition-stalled completion's service absorbs the stall — the
    /// predictor sees the same degraded rate the front end observes.)
    pub(crate) fn record_completion(&mut self, i: usize, service: f64) {
        let front = &mut self.sites[i];
        front.predictor.on_service(service);
        front.finished += 1;
        self.completed += 1;
    }

    /// Charge a hedge copy that served `secs` to the end for nothing.
    pub(crate) fn record_waste(&mut self, i: usize, secs: f64) {
        self.sites[i].wasted += 1;
        self.sites[i].wasted_secs += secs;
    }

    /// Whether the waste-admission budget permits issuing another clone
    /// or retry. Measured waste is the fraction of wasted completions
    /// among all finished work so far; with `waste_budget == 0`
    /// (unlimited) this is always true.
    pub(crate) fn hedge_within_budget(&self) -> bool {
        let Some(cfg) = self.hedge else { return false };
        if cfg.waste_budget <= 0.0 {
            return true;
        }
        let wasted: usize = self.sites.iter().map(|s| s.wasted).sum();
        if wasted == 0 {
            return true;
        }
        (wasted as f64) < cfg.waste_budget * ((self.completed + wasted) as f64)
    }

    /// Whether a pending hedge timer is a speculative retry (abandon
    /// the original) rather than a hedge (race it).
    pub(crate) fn retrying(&self) -> bool {
        self.hedge.is_some_and(|cfg| cfg.retry_after_ms > 0.0)
    }

    /// The hedging step for an arrival just routed to `chosen` (views
    /// fresh from the routing decision), or `None` to leave it alone.
    pub(crate) fn arrival_hedge(&self, chosen: usize) -> Option<HedgeAction> {
        let cfg = self.hedge?;
        if cfg.retry_after_ms > 0.0 {
            // Speculative retry: arm the deadline; the original is
            // abandoned only if it hasn't answered by then.
            return Some(HedgeAction::Arm(SimDuration::from_secs_f64(
                cfg.retry_after_ms / 1e3,
            )));
        }
        match cfg.trigger {
            HedgeTrigger::Immediate => self.hedge_within_budget().then_some(HedgeAction::Clone),
            HedgeTrigger::PredictedP95OverSlo => {
                let score = predicted_score(
                    &self.states[chosen],
                    self.router_cfg.percentile,
                    self.router_cfg.cold_start_penalty_ms / 1e3,
                );
                (score > self.router_cfg.slo_ms / 1e3 && self.hedge_within_budget())
                    .then_some(HedgeAction::Clone)
            }
            HedgeTrigger::DeferredMs(ms) => {
                Some(HedgeAction::Arm(SimDuration::from_secs_f64(ms / 1e3)))
            }
        }
    }

    /// The best-scored view-up site not already holding a copy — the
    /// next hedge clone's target. Reads the same predicted score the
    /// model-driven routers use but never touches the router itself, so
    /// the primary decision stream is unperturbed. Assumes the view was
    /// refreshed for the request's function.
    pub(crate) fn clone_target(&self, copies: &[u32]) -> Option<usize> {
        let pct = self.router_cfg.percentile;
        let cold = self.router_cfg.cold_start_penalty_ms / 1e3;
        let mut best: Option<(f64, usize)> = None;
        for (i, s) in self.states.iter().enumerate() {
            if !s.up || copies.contains(&(i as u32)) {
                continue;
            }
            let score = predicted_score(s, pct, cold);
            if best.is_none_or(|(b, _)| score < b) {
                best = Some((score, i));
            }
        }
        best.map(|(_, i)| i)
    }

    /// A delivery bounced off dark site `i`. Under delayed telemetry the
    /// bounce doubles as passive failure detection: the front end marks
    /// the site down in its view long before the snapshots age out (and
    /// each dark site is marked down at most once per outage, which
    /// bounds inline zero-hop migration).
    pub(crate) fn note_bounce(&mut self, i: usize) {
        if self.telemetry.enabled() {
            self.telemetry.mark_down(i);
        }
    }

    /// The front half of migrating a request off site `from` (whose
    /// commitment the caller already released): `None` — counted as
    /// failed at `from` — when no site is routable, else the destination
    /// (already credited) and the re-delivery hop.
    pub(crate) fn reroute<S: SiteAccess + ?Sized>(
        &mut self,
        sites: &S,
        from: usize,
        fn_idx: u32,
        now: SimTime,
    ) -> Option<(usize, SimDuration)> {
        if !self.any_routable() {
            self.sites[from].failed += 1;
            return None;
        }
        self.sites[from].migrated_out += 1;
        let dest = self.pick_site(sites, fn_idx, now);
        self.note_routed(dest, now);
        self.sites[dest].migrated_in += 1;
        Some((dest, self.sites[dest].meta.latency + self.migration_penalty))
    }

    /// Whether control traffic on site `i`'s link is lost right now.
    fn control_lost(&self, i: usize) -> bool {
        self.sites[i].partitioned && self.telemetry.cfg.loss_under_partition
    }

    /// Site `i`'s node agent publishes: the next publish instant, plus
    /// the snapshot and its arrival instant unless it is lost (dead
    /// agent, cut link, background loss). The agent's clock keeps
    /// ticking whatever the site's fate, and the loss draw precedes the
    /// fate checks, so the stream position — and hence the schedule —
    /// is identical across fault histories and thread counts.
    pub(crate) fn publish<S: SiteAccess + ?Sized>(
        &mut self,
        sites: &S,
        i: usize,
        now: SimTime,
    ) -> (SimTime, Option<(SimTime, TelemetrySnapshot)>) {
        let next = self.telemetry.next_publish(i);
        let lost_in_transit = self.telemetry.publish_lost(i);
        if lost_in_transit || !self.sites[i].up || self.control_lost(i) {
            return (next, None);
        }
        let (n_fns, multidim) = (self.fn_demands.len(), self.multidim);
        let (warm, resources) = sites.with_site(i, |p| {
            let warm: Vec<u64> = (0..n_fns).map(|f| p.warm_containers(f as u32)).collect();
            // Gated on multidim: legacy reconciler runs must keep seeing
            // unknown (all-zero) resources, or the dimension ceiling
            // would perturb their directives.
            let resources = if multidim {
                p.resource_snapshot()
            } else {
                ResourceSnapshot::default()
            };
            (warm, resources)
        });
        let t = now.as_secs_f64();
        let front = &mut self.sites[i];
        let servers = model_servers(warm.iter().sum(), front.meta.capacity_hint);
        front.health.observe(t, front.degraded());
        let snap = TelemetrySnapshot {
            published_at: now,
            forecast: front.predictor.forecast(t, servers),
            flakiness: front.health.value(),
            warm,
            resources,
        };
        (next, Some((now + front.meta.latency, snap)))
    }

    /// A snapshot from site `i` reaches the control plane: ingest it
    /// (unless the link was cut while it flew) and return the
    /// reconciler's directive, if any, with its landing instant.
    pub(crate) fn snapshot_arrive(
        &mut self,
        i: usize,
        snap: TelemetrySnapshot,
        now: SimTime,
    ) -> Option<(SimTime, u32)> {
        if self.control_lost(i) {
            return None;
        }
        let directive = self
            .reconciler
            .as_mut()
            .and_then(|rec| rec.desired_fleet(i, &snap, now))
            .map(|desired| (now + self.sites[i].meta.latency, desired));
        self.telemetry.ingest(i, snap, now);
        directive
    }

    /// Whether a directive reaching site `i` now lands (not lost with
    /// the site or the link).
    pub(crate) fn directive_lands(&self, i: usize) -> bool {
        self.sites[i].up && !self.control_lost(i)
    }

    /// Flip the front end's state for `fault` at `now` and return the
    /// site-side work left to the executor; `None` when the fault
    /// repeats the current state or leaves nothing to do at the site.
    pub(crate) fn apply_fault(
        &mut self,
        fault: Fault,
        now: SimTime,
        end: SimTime,
    ) -> Option<SiteEffect> {
        let i = fault.site() as usize;
        let Some(front) = self.sites.get_mut(i) else {
            debug_assert!(false, "fault targets unknown site {i}");
            return None;
        };
        let effect = match fault {
            Fault::SiteDown { .. } if front.up => {
                front.up = false;
                front.needs_rebuild = true;
                Some(SiteEffect::Crash)
            }
            Fault::SiteUp { .. } if !front.up => {
                front.up = true;
                if front.needs_rebuild {
                    front.needs_rebuild = false;
                    front.restarts += 1;
                    // The rebuilt site starts cold with no history: its
                    // λ̂/μ̂ must not carry the dead incarnation's rates
                    // into the replacement's forecasts. (The health EWMA
                    // stays — the *router* remembers the site crashed
                    // even though the site itself forgot.)
                    front.reset_rates(&self.router_cfg);
                    Some(SiteEffect::Rebuild(front.restarts))
                } else {
                    None
                }
            }
            Fault::PartitionStart { .. } if !front.partitioned => {
                front.partitioned = true;
                Some(SiteEffect::PartitionStart)
            }
            Fault::PartitionEnd { .. } if front.partitioned => {
                front.partitioned = false;
                Some(SiteEffect::PartitionEnd)
            }
            Fault::SiteSlowdown { permille, .. } => {
                // Brown-out: the site keeps serving (and stays routable)
                // at `permille`/1000 of nominal speed; the health EWMA
                // sees the degradation, so the failure-aware router
                // backs off without the downtime clock ever starting.
                front.slowed = permille < 1000;
                Some(SiteEffect::Slowdown(permille as f64 / 1000.0))
            }
            // A dead site has nothing left to crash.
            Fault::ContainerBurst { count, .. } => {
                return front.up.then_some(SiteEffect::Burst(count))
            }
            _ => return None,
        };
        front.clock_routability(now, end);
        effect
    }

    /// Assemble the run's report from the per-site schedulers (each with
    /// its site-local outcome and chaos-crash count) and the cross-site
    /// aggregate.
    pub(crate) fn into_report<P: ContainerChaos>(
        self,
        sites: impl IntoIterator<Item = (P, EngineOutcome, u32)>,
        aggregate: EngineOutcome,
        threads: usize,
    ) -> FederatedReport<P::Report> {
        let duration = aggregate.duration_secs;
        let end = SimTime::from_secs_f64(duration);
        let multidim = self.multidim;
        let per_site = self
            .sites
            .into_iter()
            .zip(sites)
            .map(|(front, (policy, outcome, chaos_crashes))| SiteReport {
                name: front.meta.name,
                latency_secs: front.meta.latency.as_secs_f64(),
                routed: front.routed,
                migrated: front.migrated_out,
                migrated_in: front.migrated_in,
                failed: front.failed,
                chaos_crashes,
                downtime_secs: front.downtime.total_until(end),
                flakiness: front.health.value(),
                wasted_work: front.wasted,
                wasted_secs: front.wasted_secs,
                utilization: multidim.then(|| policy.resource_snapshot().utilization()),
                report: policy.finish(outcome),
            })
            .collect::<Vec<_>>();
        let wasted_work = per_site.iter().map(|s| s.wasted_work).sum();
        FederatedReport {
            router: self.router.name().to_owned(),
            per_site,
            aggregate_per_fn: aggregate.per_fn,
            unroutable: self.unroutable,
            wasted_work,
            outstanding: aggregate.outstanding,
            duration,
            threads,
        }
    }
}
