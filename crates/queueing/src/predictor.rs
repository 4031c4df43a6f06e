//! Model-driven waiting-time prediction from live telemetry.
//!
//! The paper's validation hinges on one loop: measure a function's
//! arrival rate and service rate online, plug them into the M/M/c
//! closed forms, and let the *prediction* drive resource decisions. The
//! per-site scheduler already closes that loop for container counts
//! (Algorithm 1 via [`solver`](crate::solver)); [`WaitPredictor`]
//! closes it for *routing*: a front-end router maintains one predictor
//! per site, feeds it every routed arrival and every completion, and
//! asks for the site's forecast waiting time before committing the next
//! request.
//!
//! Estimation reuses the crate's [`Ewma`] machinery (§3.3): arrivals
//! are bucketed into fixed ticks and the per-tick rate is EWMA-smoothed
//! into λ̂; observed service times are EWMA-smoothed and inverted into
//! the per-server rate μ̂. A forecast is then just an
//! [`MmcQueue`](crate::MmcQueue) built from `(λ̂, μ̂, c)` — the same
//! mathematics the differential test harness pins against the
//! simulator, so the router and the oracle can check each other.
//!
//! Everything here is pure arithmetic on caller-supplied timestamps: no
//! clocks, no randomness, no simulation types — predictions are exactly
//! reproducible from the observation sequence.

use crate::estimator::Ewma;
use crate::mmc::{ErlangScratch, MmcQueue, MmcSnapshot};
use serde::{Deserialize, Serialize};

/// Number of whole zero-arrival (or constant-state) ticks beyond which
/// an idle gap is folded into an EWMA in closed form (`v·(1−α)ⁿ`)
/// instead of per-tick. Below the threshold the historical per-tick
/// loop runs unchanged — bit-for-bit with previous releases, which the
/// pinned goldens rely on; above it the fold is O(1), so a site quiet
/// for days (or a large `now` jump after recovery) costs constant work
/// instead of one EWMA fold per elapsed tick.
const GAP_FOLD_TICKS: u64 = 64;

/// Smoothing constants for a [`WaitPredictor`].
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
#[serde(default)]
pub struct PredictorConfig {
    /// Arrival-rate bucket width in seconds: arrivals are counted per
    /// tick and the per-tick rate is folded into the λ EWMA.
    pub tick_secs: f64,
    /// EWMA weight on the newest per-tick arrival rate.
    pub lambda_alpha: f64,
    /// EWMA weight on the newest observed service time.
    pub service_alpha: f64,
}

impl Default for PredictorConfig {
    fn default() -> Self {
        Self {
            tick_secs: 1.0,
            lambda_alpha: 0.3,
            service_alpha: 0.05,
        }
    }
}

impl PredictorConfig {
    /// Check the knobs before building a predictor.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.tick_secs.is_finite() && self.tick_secs > 0.0) {
            return Err(format!(
                "tick_secs must be positive, got {}",
                self.tick_secs
            ));
        }
        for (name, v) in [
            ("lambda_alpha", self.lambda_alpha),
            ("service_alpha", self.service_alpha),
        ] {
            if !(v > 0.0 && v <= 1.0) {
                return Err(format!("{name} must be in (0, 1], got {v}"));
            }
        }
        Ok(())
    }
}

/// A point-in-time prediction input: the estimated arrival rate λ̂, the
/// estimated per-server service rate μ̂, and the server count `c` the
/// caller believes the site holds. Build one with
/// [`WaitPredictor::forecast`] and query the M/M/c closed forms.
#[derive(Debug, Clone, Copy, Default)]
pub struct WaitForecast {
    /// Estimated arrival rate (requests/second); 0 before any arrival.
    pub lambda: f64,
    /// Estimated per-server service rate (requests/second); 0 before
    /// any completion.
    pub mu: f64,
    /// Server count assumed for the forecast.
    pub servers: u32,
}

impl WaitForecast {
    /// Whether enough telemetry has accumulated to build a model.
    pub fn has_model(&self) -> bool {
        self.lambda > 0.0 && self.mu > 0.0 && self.servers > 0
    }

    /// Estimated utilization `λ̂ / (c μ̂)` (0 without a model).
    pub fn utilization(&self) -> f64 {
        if !self.has_model() {
            return 0.0;
        }
        self.lambda / (f64::from(self.servers) * self.mu)
    }

    fn model(&self) -> Option<MmcQueue> {
        if !self.has_model() {
            return None;
        }
        MmcQueue::new(self.lambda, self.mu, self.servers).ok()
    }

    /// Predicted mean waiting time, seconds. Zero without a model (an
    /// idle or unobserved site is optimistically free); infinite when
    /// the estimated load exceeds the estimated capacity.
    pub fn mean_wait(&self) -> f64 {
        self.model().map_or(0.0, |q| q.mean_wait())
    }

    /// Predicted waiting time at percentile `p ∈ [0, 1)`, seconds. Zero
    /// without a model; infinite when the forecast is unstable.
    pub fn wait_percentile(&self, p: f64) -> f64 {
        self.model().map_or(0.0, |q| q.wait_percentile(p))
    }
}

/// Online λ̂/μ̂ estimator feeding the M/M/c closed forms.
///
/// Feed it every arrival ([`WaitPredictor::on_arrival`]) and every
/// completed request's service time
/// ([`WaitPredictor::on_service`]); ask for a [`WaitForecast`] at any
/// instant. Timestamps must be non-decreasing.
#[derive(Debug, Clone)]
pub struct WaitPredictor {
    cfg: PredictorConfig,
    /// Start of the current arrival tick (set by the first observation).
    win_start: Option<f64>,
    /// Arrivals observed inside the current tick.
    win_count: u64,
    lambda: Ewma,
    service: Ewma,
    /// Bumped whenever the λ EWMA folds in a tick — the λ̂ estimate can
    /// only change when this does.
    lambda_epoch: u64,
    /// Bumped whenever a service-time observation is accepted — the μ̂
    /// estimate can only change when this does.
    mu_epoch: u64,
}

impl Default for WaitPredictor {
    fn default() -> Self {
        Self::new(PredictorConfig::default())
    }
}

impl WaitPredictor {
    /// A predictor with the given smoothing constants.
    pub fn new(cfg: PredictorConfig) -> Self {
        cfg.validate().expect("invalid PredictorConfig");
        Self {
            cfg,
            win_start: None,
            win_count: 0,
            lambda: Ewma::new(cfg.lambda_alpha),
            service: Ewma::new(cfg.service_alpha),
            lambda_epoch: 0,
            mu_epoch: 0,
        }
    }

    /// Close every arrival tick that ended before `now`, folding its
    /// rate into the λ EWMA (ticks with zero arrivals count too — an
    /// idle site must see its estimate decay). Gaps longer than
    /// [`GAP_FOLD_TICKS`] fold their zero-arrival run in O(1) via the
    /// closed-form EWMA decay, so a quiet stretch of any length costs
    /// constant work.
    fn advance(&mut self, now: f64) {
        let Some(mut start) = self.win_start else {
            self.win_start = Some(now);
            return;
        };
        if now - start >= self.cfg.tick_secs {
            // Close the tick holding the buffered arrivals.
            self.lambda
                .observe(self.win_count as f64 / self.cfg.tick_secs);
            self.lambda_epoch += 1;
            self.win_count = 0;
            start += self.cfg.tick_secs;
            // Every further elapsed tick saw zero arrivals. Fold long
            // runs in closed form, leaving the last tick to the exact
            // loop so the window phase is always advanced by the same
            // bookkeeping.
            let gap = (now - start) / self.cfg.tick_secs;
            if gap >= GAP_FOLD_TICKS as f64 {
                let n = (gap as u64).saturating_sub(1);
                self.lambda.fold_constant(0.0, n);
                self.lambda_epoch += 1;
                start += self.cfg.tick_secs * n as f64;
            }
            while now - start >= self.cfg.tick_secs {
                self.lambda.observe(0.0);
                self.lambda_epoch += 1;
                start += self.cfg.tick_secs;
            }
        }
        self.win_start = Some(start);
    }

    /// Record one arrival at time `now` (seconds).
    pub fn on_arrival(&mut self, now: f64) {
        self.advance(now);
        self.win_count += 1;
    }

    /// Record one completed request's service time (seconds).
    pub fn on_service(&mut self, service_secs: f64) {
        if service_secs.is_finite() && service_secs > 0.0 {
            self.service.observe(service_secs);
            self.mu_epoch += 1;
        }
    }

    /// The predictor's `(λ̂ epoch, μ̂ epoch)` — monotone counters that
    /// advance exactly when the respective estimate may have changed.
    /// [`ForecastCache`] keys on them (plus the server count) to skip
    /// re-evaluating the M/M/c model between ticks.
    pub fn epochs(&self) -> (u64, u64) {
        (self.lambda_epoch, self.mu_epoch)
    }

    /// Build the forecast as of `now`, assuming the site currently holds
    /// `servers` servers.
    pub fn forecast(&mut self, now: f64, servers: u32) -> WaitForecast {
        self.advance(now);
        let lambda = self.lambda.value().unwrap_or(0.0);
        let mu = match self.service.value() {
            Some(s) if s > 0.0 => 1.0 / s,
            _ => 0.0,
        };
        WaitForecast {
            lambda,
            mu,
            servers,
        }
    }
}

/// A [`WaitForecast`] with its M/M/c model already evaluated: the raw
/// λ̂/μ̂/c triple plus a precomputed [`MmcSnapshot`], so `mean_wait` and
/// `wait_percentile` are O(1) arithmetic instead of a model build.
///
/// This is what the federation hands the model-driven routers in each
/// `SiteState`: the routers' waiting-time queries return exactly the
/// same bits as the uncached [`WaitForecast`] methods (the snapshot is
/// a bit-identical stand-in for the [`MmcQueue`] those build), but the
/// per-decision cost collapses from one allocation-plus-O(c) model
/// construction per site to a handful of float operations.
#[derive(Debug, Clone, Copy, Default)]
pub struct EvaluatedForecast {
    raw: WaitForecast,
    /// The evaluated model; `None` exactly when the uncached path would
    /// fail to build one (insufficient telemetry or parameters the
    /// model rejects).
    model: Option<MmcSnapshot>,
}

impl EvaluatedForecast {
    /// Evaluate `raw` through the caller's scratch buffers.
    pub fn evaluate(scratch: &mut ErlangScratch, raw: WaitForecast) -> Self {
        let model = if raw.has_model() {
            scratch.eval(raw.lambda, raw.mu, raw.servers).ok()
        } else {
            None
        };
        Self { raw, model }
    }

    /// The raw λ̂/μ̂/c triple.
    #[inline]
    pub fn raw(&self) -> WaitForecast {
        self.raw
    }

    /// Estimated arrival rate λ̂ (requests/second).
    #[inline]
    pub fn lambda(&self) -> f64 {
        self.raw.lambda
    }

    /// Estimated per-server service rate μ̂ (requests/second).
    #[inline]
    pub fn mu(&self) -> f64 {
        self.raw.mu
    }

    /// Server count assumed for the forecast.
    #[inline]
    pub fn servers(&self) -> u32 {
        self.raw.servers
    }

    /// Whether enough telemetry has accumulated to build a model.
    #[inline]
    pub fn has_model(&self) -> bool {
        self.raw.has_model()
    }

    /// Estimated utilization `λ̂ / (c μ̂)` (0 without a model).
    pub fn utilization(&self) -> f64 {
        self.raw.utilization()
    }

    /// Predicted mean waiting time, seconds — bit-identical to
    /// [`WaitForecast::mean_wait`].
    pub fn mean_wait(&self) -> f64 {
        self.model.map_or(0.0, |m| m.mean_wait())
    }

    /// Predicted waiting time at percentile `p ∈ [0, 1)`, seconds —
    /// bit-identical to [`WaitForecast::wait_percentile`].
    pub fn wait_percentile(&self, p: f64) -> f64 {
        self.model.map_or(0.0, |m| m.wait_percentile(p))
    }
}

impl From<WaitForecast> for EvaluatedForecast {
    /// Evaluate through throw-away scratch buffers — convenient off the
    /// hot path (tests, benches); the routing loop goes through a
    /// [`ForecastCache`] instead.
    fn from(raw: WaitForecast) -> Self {
        Self::evaluate(&mut ErlangScratch::new(), raw)
    }
}

/// Per-site forecast cache keyed by `(λ̂ epoch, μ̂ epoch, c)`.
///
/// The federation refreshes every site's forecast at every routing
/// decision that reads forecasts (a model-driven router, or hedging),
/// but the underlying estimates only move when the predictor
/// closes an arrival tick, accepts a service observation, or the site's
/// server count changes. The cache compares the predictor's
/// [`epochs`](WaitPredictor::epochs) (after advancing it to `now`) and
/// the server count against the key of the last evaluation and returns
/// the retained [`EvaluatedForecast`] on a hit — making the steady-state
/// refresh path allocation-free and O(1) per site. Evaluations reuse one
/// [`ErlangScratch`], so even misses allocate nothing once the buffers
/// have grown to the fleet size.
#[derive(Debug, Clone, Default)]
pub struct ForecastCache {
    scratch: ErlangScratch,
    /// `(λ̂ epoch, μ̂ epoch, servers)` of the retained evaluation.
    key: Option<(u64, u64, u32)>,
    cached: EvaluatedForecast,
}

impl ForecastCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The site's forecast as of `now` with `servers` servers,
    /// re-evaluated only if the predictor advanced or the server count
    /// changed since the last call.
    pub fn refresh(
        &mut self,
        predictor: &mut WaitPredictor,
        now: f64,
        servers: u32,
    ) -> EvaluatedForecast {
        predictor.advance(now);
        let (le, me) = predictor.epochs();
        let key = (le, me, servers);
        if self.key != Some(key) {
            let raw = predictor.forecast(now, servers);
            self.cached = EvaluatedForecast::evaluate(&mut self.scratch, raw);
            self.key = Some(key);
        }
        self.cached
    }

    /// Drop the retained evaluation (the next refresh recomputes).
    pub fn invalidate(&mut self) {
        self.key = None;
    }
}

/// Value-keyed evaluation cache for *snapshotted* forecasts.
///
/// A [`ForecastCache`] keys on the live predictor's epoch counters, so
/// it only works next to the predictor that produced the forecast. A
/// telemetry snapshot travels away from its predictor (site → router,
/// over the network model), and after a site rebuild the replacement
/// predictor's epochs restart at zero — epoch keys would collide across
/// incarnations. This cache instead keys on the forecast's *value*
/// (`λ̂` bits, `μ̂` bits, server count): consecutive snapshots of a
/// quiet site carry identical estimates and hit without re-running the
/// Erlang-C recurrence, while any change in the reported triple — from
/// whichever predictor incarnation — re-evaluates through the retained
/// scratch buffers, allocation-free once they have grown to fleet size.
#[derive(Debug, Clone, Default)]
pub struct SnapshotCache {
    scratch: ErlangScratch,
    /// `(λ̂ bits, μ̂ bits, servers)` of the retained evaluation.
    key: Option<(u64, u64, u32)>,
    cached: EvaluatedForecast,
}

impl SnapshotCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Evaluate `raw` through the cache: a key compare and a copy when
    /// the reported triple is unchanged since the last call, a full
    /// [`EvaluatedForecast::evaluate`] otherwise. Bit-identical to the
    /// uncached path either way.
    pub fn evaluate(&mut self, raw: WaitForecast) -> EvaluatedForecast {
        let key = (raw.lambda.to_bits(), raw.mu.to_bits(), raw.servers);
        if self.key != Some(key) {
            self.cached = EvaluatedForecast::evaluate(&mut self.scratch, raw);
            self.key = Some(key);
        }
        self.cached
    }

    /// Drop the retained evaluation (the next call recomputes).
    pub fn invalidate(&mut self) {
        self.key = None;
    }
}

/// EWMA of a site's *down* fraction over fixed ticks — the
/// failure-aware router's memory of recent crashes and partitions.
///
/// Feed it the site's up/down state whenever the state is observed or
/// changes ([`HealthEwma::observe`]); the current flakiness score is
/// the EWMA of per-tick downtime fractions, 0 for a site that has been
/// healthy for a while, approaching 1 while the site stays dark.
#[derive(Debug, Clone)]
pub struct HealthEwma {
    tick_secs: f64,
    ewma: Ewma,
    /// Start of the current tick.
    win_start: Option<f64>,
    /// Last observation instant inside the current tick.
    last_t: f64,
    /// Whether the site was down at `last_t`.
    down: bool,
    /// Downtime accumulated inside the current tick, seconds.
    acc_down: f64,
}

impl HealthEwma {
    /// A tracker folding `tick_secs`-wide downtime fractions into an
    /// EWMA with weight `alpha`.
    pub fn new(tick_secs: f64, alpha: f64) -> Self {
        assert!(
            tick_secs.is_finite() && tick_secs > 0.0,
            "tick_secs must be positive, got {tick_secs}"
        );
        Self {
            tick_secs,
            ewma: Ewma::new(alpha),
            win_start: None,
            last_t: 0.0,
            down: false,
            acc_down: 0.0,
        }
    }

    /// Record that the site is `down` (or up) as of time `now`.
    /// Timestamps must be non-decreasing.
    ///
    /// A gap spanning more than [`GAP_FOLD_TICKS`] ticks is folded in
    /// O(1): after the first closed tick the state is constant across
    /// every whole tick of the gap (fully down ⇒ 1.0, fully up ⇒ 0.0),
    /// so the run collapses to one closed-form EWMA decay instead of a
    /// per-tick loop — a site observed again after a long outage (or a
    /// long healthy stretch) costs constant work.
    pub fn observe(&mut self, now: f64, down: bool) {
        let Some(mut start) = self.win_start else {
            self.win_start = Some(now);
            self.last_t = now;
            self.down = down;
            return;
        };
        if now - start >= self.tick_secs {
            // Close the first elapsed tick exactly — it may hold a
            // partial span of accumulated downtime.
            let tick_end = start + self.tick_secs;
            if self.down {
                self.acc_down += tick_end - self.last_t;
            }
            self.ewma
                .observe((self.acc_down / self.tick_secs).clamp(0.0, 1.0));
            self.acc_down = 0.0;
            self.last_t = tick_end;
            start = tick_end;
            // The remaining whole ticks all carry the same state.
            let gap = (now - start) / self.tick_secs;
            if gap >= GAP_FOLD_TICKS as f64 {
                let n = (gap as u64).saturating_sub(1);
                self.ewma
                    .fold_constant(if self.down { 1.0 } else { 0.0 }, n);
                start += self.tick_secs * n as f64;
                self.last_t = start;
            }
            while now - start >= self.tick_secs {
                let tick_end = start + self.tick_secs;
                if self.down {
                    self.acc_down += tick_end - self.last_t;
                }
                self.ewma
                    .observe((self.acc_down / self.tick_secs).clamp(0.0, 1.0));
                self.acc_down = 0.0;
                self.last_t = tick_end;
                start = tick_end;
            }
        }
        if self.down {
            self.acc_down += now - self.last_t;
        }
        self.win_start = Some(start);
        self.last_t = now;
        self.down = down;
    }

    /// Current flakiness in `[0, 1]` as of the last observation: the
    /// EWMA'd recent down fraction, biased by the current tick's
    /// in-progress state so a site that just went dark scores
    /// immediately.
    pub fn value(&self) -> f64 {
        let base = self.ewma.value().unwrap_or(0.0);
        if self.down {
            // While down, report at least the in-progress evidence.
            base.max(0.5)
        } else {
            base
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_predictor_forecasts_zero_wait() {
        let mut p = WaitPredictor::default();
        let f = p.forecast(10.0, 4);
        assert!(!f.has_model());
        assert_eq!(f.mean_wait(), 0.0);
        assert_eq!(f.wait_percentile(0.95), 0.0);
        assert_eq!(f.utilization(), 0.0);
    }

    #[test]
    fn constant_rate_is_recovered() {
        let mut p = WaitPredictor::default();
        // 8 arrivals/s, evenly spaced, for 60 s.
        let mut t = 0.0;
        while t < 60.0 {
            p.on_arrival(t);
            t += 0.125;
        }
        for _ in 0..50 {
            p.on_service(0.1);
        }
        let f = p.forecast(60.0, 2);
        assert!((f.lambda - 8.0).abs() < 0.5, "lambda={}", f.lambda);
        assert!((f.mu - 10.0).abs() < 1e-9, "mu={}", f.mu);
        // Against the closed form directly.
        let q = MmcQueue::new(f.lambda, f.mu, 2).unwrap();
        assert!((f.mean_wait() - q.mean_wait()).abs() < 1e-12);
        assert!((f.wait_percentile(0.95) - q.wait_percentile(0.95)).abs() < 1e-12);
    }

    #[test]
    fn idle_gap_decays_lambda() {
        let mut p = WaitPredictor::default();
        for i in 0..200 {
            p.on_arrival(f64::from(i) * 0.05); // 20/s for 10 s
        }
        let busy = p.forecast(10.0, 1).lambda;
        assert!(busy > 10.0, "busy lambda={busy}");
        // 30 quiet seconds: the estimate must collapse.
        let idle = p.forecast(40.0, 1).lambda;
        assert!(idle < 0.1, "idle lambda={idle}");
    }

    #[test]
    fn overload_forecast_is_infinite() {
        let mut p = WaitPredictor::new(PredictorConfig {
            tick_secs: 1.0,
            lambda_alpha: 1.0,
            service_alpha: 1.0,
        });
        for i in 0..40 {
            p.on_arrival(f64::from(i) * 0.05); // 20/s
        }
        p.on_service(0.5); // mu = 2/s per server
        let f = p.forecast(2.0, 4); // capacity 8/s < 20/s
        assert!(f.has_model());
        assert!(f.utilization() > 1.0);
        assert_eq!(f.mean_wait(), f64::INFINITY);
        assert_eq!(f.wait_percentile(0.95), f64::INFINITY);
    }

    #[test]
    fn service_ewma_tracks_mu() {
        let mut p = WaitPredictor::new(PredictorConfig {
            service_alpha: 0.5,
            ..PredictorConfig::default()
        });
        p.on_service(0.2);
        p.on_service(0.1);
        // EWMA: 0.5*0.1 + 0.5*0.2 = 0.15 => mu = 6.67.
        let f = p.forecast(0.0, 1);
        assert!((f.mu - 1.0 / 0.15).abs() < 1e-9, "mu={}", f.mu);
        // Bogus observations are ignored.
        p.on_service(f64::NAN);
        p.on_service(-1.0);
        assert!((p.forecast(0.0, 1).mu - 1.0 / 0.15).abs() < 1e-9);
    }

    /// Regression: a million-tick idle gap (or an equally large `now`
    /// jump after site recovery) must fold in O(1), not iterate one
    /// EWMA observation per elapsed tick. Finishing this test at all is
    /// the check — the pre-fix loop ran 10⁶ folds per call here.
    #[test]
    fn million_tick_gap_folds_in_constant_time() {
        let mut p = WaitPredictor::default();
        for i in 0..100 {
            p.on_arrival(f64::from(i) * 0.1); // 10/s for 10 s
        }
        assert!(p.forecast(10.0, 1).lambda > 5.0);
        // 10⁶ quiet seconds (tick_secs = 1): the estimate collapses.
        let f = p.forecast(1.0e6 + 10.0, 1);
        assert_eq!(f.lambda, 0.0, "lambda must fully decay: {}", f.lambda);
        // The short-gap path is unaffected: folding 10 quiet ticks by
        // loop (under the threshold) matches a fresh predictor fed the
        // same history.
        let mut a = WaitPredictor::default();
        let mut b = WaitPredictor::default();
        for i in 0..50 {
            a.on_arrival(f64::from(i) * 0.2);
            b.on_arrival(f64::from(i) * 0.2);
        }
        let fa = a.forecast(20.0, 2);
        let fb = b.forecast(20.0, 2);
        assert_eq!(fa.lambda.to_bits(), fb.lambda.to_bits());

        // Same bound for the health tracker: a huge observation gap.
        let mut h = HealthEwma::new(5.0, 0.3);
        h.observe(0.0, true);
        h.observe(30.0, false); // 30 s down, then up
        h.observe(5.0e6, false); // ~10⁶ healthy ticks later
        assert!(h.value() < 1e-12, "healed score {}", h.value());
        let mut h = HealthEwma::new(5.0, 0.3);
        h.observe(0.0, false);
        h.observe(5.0e6, true); // down after a huge healthy stretch
        assert!(h.value() >= 0.5);
        h.observe(5.0e6 + 1.0e7, true); // down for 10⁷ s: score saturates
        assert!(h.value() > 0.99, "saturated score {}", h.value());
    }

    #[test]
    fn epochs_move_exactly_with_the_estimates() {
        let mut p = WaitPredictor::default();
        assert_eq!(p.epochs(), (0, 0));
        p.on_arrival(0.1); // first observation only opens the window
        assert_eq!(p.epochs(), (0, 0));
        p.on_arrival(0.2); // same tick: no fold
        assert_eq!(p.epochs(), (0, 0));
        let _ = p.forecast(1.5, 2); // closes tick [0.1, 1.1)
        assert_eq!(p.epochs(), (1, 0));
        let _ = p.forecast(1.6, 2); // same tick: cacheable
        assert_eq!(p.epochs(), (1, 0));
        p.on_service(0.2);
        assert_eq!(p.epochs(), (1, 1));
        p.on_service(f64::NAN); // rejected: estimate unchanged
        p.on_service(-1.0);
        assert_eq!(p.epochs(), (1, 1));
    }

    /// The cache returns bit-identical forecasts to the uncached
    /// WaitForecast + MmcQueue path across a telemetry stream, while
    /// only re-evaluating when an epoch or the server count moves.
    #[test]
    fn forecast_cache_is_bit_identical_to_uncached_path() {
        let mut pred = WaitPredictor::default();
        let mut cache = ForecastCache::new();
        let mut t = 0.0;
        for step in 0..400 {
            t += 0.05 + f64::from(step % 7) * 0.03;
            if step % 3 == 0 {
                pred.on_arrival(t);
            }
            if step % 5 == 0 {
                pred.on_service(0.05 + f64::from(step % 11) * 0.01);
            }
            let servers = 1 + (step % 4) as u32;
            let cached = cache.refresh(&mut pred, t, servers);
            let raw = pred.forecast(t, servers);
            assert_eq!(cached.lambda().to_bits(), raw.lambda.to_bits());
            assert_eq!(cached.mu().to_bits(), raw.mu.to_bits());
            assert_eq!(cached.servers(), raw.servers);
            assert_eq!(
                cached.mean_wait().to_bits(),
                raw.mean_wait().to_bits(),
                "step {step}"
            );
            for &p in &[0.5, 0.95, 0.99] {
                assert_eq!(
                    cached.wait_percentile(p).to_bits(),
                    raw.wait_percentile(p).to_bits(),
                    "step {step} p={p}"
                );
            }
        }
    }

    #[test]
    fn forecast_cache_hits_between_ticks() {
        let mut pred = WaitPredictor::default();
        let mut cache = ForecastCache::new();
        for i in 0..40 {
            pred.on_arrival(f64::from(i) * 0.05);
        }
        pred.on_service(0.1);
        let a = cache.refresh(&mut pred, 2.0, 3);
        let key_after_first = cache.key;
        // Queries inside the same tick with the same server count must
        // not re-evaluate (the key is unchanged)…
        let b = cache.refresh(&mut pred, 2.4, 3);
        assert_eq!(cache.key, key_after_first);
        assert_eq!(a.mean_wait().to_bits(), b.mean_wait().to_bits());
        // …while a server-count change or a closed tick invalidates.
        let _ = cache.refresh(&mut pred, 2.4, 4);
        assert_ne!(cache.key, key_after_first);
        let key_after_resize = cache.key;
        let _ = cache.refresh(&mut pred, 3.4, 4); // next tick closed
        assert_ne!(cache.key, key_after_resize);
    }

    /// The value-keyed snapshot cache is bit-identical to the uncached
    /// evaluation, hits on repeated triples, and — unlike the
    /// epoch-keyed [`ForecastCache`] — distinguishes forecasts from
    /// different predictor incarnations by value rather than colliding
    /// on restarted epoch counters.
    #[test]
    fn snapshot_cache_is_bit_identical_and_value_keyed() {
        let mut cache = SnapshotCache::new();
        let mut pred = WaitPredictor::default();
        for i in 0..60 {
            pred.on_arrival(f64::from(i) * 0.04);
        }
        pred.on_service(0.08);
        let raw = pred.forecast(3.0, 3);
        let uncached = EvaluatedForecast::from(raw);
        let a = cache.evaluate(raw);
        let key_after_first = cache.key;
        assert_eq!(a.mean_wait().to_bits(), uncached.mean_wait().to_bits());
        assert_eq!(
            a.wait_percentile(0.95).to_bits(),
            uncached.wait_percentile(0.95).to_bits()
        );
        // Identical triple — even via a *rebuilt* predictor whose epochs
        // restarted — must hit without re-keying.
        let _ = cache.evaluate(raw);
        assert_eq!(cache.key, key_after_first);
        // A changed server count re-evaluates…
        let resized = cache.evaluate(pred.forecast(3.0, 4));
        assert_ne!(cache.key, key_after_first);
        assert_ne!(a.mean_wait().to_bits(), resized.mean_wait().to_bits());
        // …and a fresh (cold) predictor's no-model forecast is its own key.
        let cold = WaitPredictor::default().forecast(0.0, 3);
        let c = cache.evaluate(cold);
        assert!(!c.has_model());
        assert_eq!(c.mean_wait(), 0.0);
        cache.invalidate();
        assert_eq!(cache.key, None);
    }

    #[test]
    #[should_panic(expected = "tick_secs must be positive")]
    fn rejects_bad_tick() {
        WaitPredictor::new(PredictorConfig {
            tick_secs: 0.0,
            ..PredictorConfig::default()
        });
    }

    #[test]
    fn health_ewma_scores_downtime() {
        let mut h = HealthEwma::new(5.0, 0.3);
        h.observe(0.0, false);
        h.observe(60.0, false);
        assert_eq!(h.value(), 0.0, "healthy site must score 0");
        // Down for 30 s: the score climbs.
        h.observe(60.0, true);
        assert!(h.value() >= 0.5, "freshly-down site must score high");
        h.observe(90.0, false);
        let after_crash = h.value();
        assert!(after_crash > 0.3, "after 30s down: {after_crash}");
        // 2 minutes of health: the score decays toward 0.
        h.observe(210.0, false);
        let healed = h.value();
        assert!(healed < 0.05, "healed score {healed}");
        assert!(healed < after_crash);
    }

    #[test]
    fn health_ewma_attributes_partial_ticks() {
        let mut h = HealthEwma::new(10.0, 1.0);
        h.observe(0.0, false);
        h.observe(5.0, true); // down at t=5
        h.observe(10.0, false); // up at t=10: tick 0-10 is 50% down
        h.observe(20.0, false); // close tick 10-20 (fully up)
                                // alpha=1 => value tracks the last closed tick exactly: 0.0,
                                // but the 50% tick was observed on the way.
        assert_eq!(h.value(), 0.0);
    }
}
