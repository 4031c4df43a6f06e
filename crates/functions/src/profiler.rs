//! Service-time profiling.
//!
//! The controller "needs to know the service time distribution … LaSS
//! supports two approaches: 1) load offline profiling results … and 2) use
//! an online learning algorithm to learn the service time distribution(s)
//! over time" (§5). Under deflation there is a *family* of distributions,
//! one per container size; we bucket by deflation decile.
//!
//! The online learner keeps a running mean and streaming P² quantiles per
//! `(function, deflation-bucket)` and takes over from the offline profile
//! once it has seen enough samples.

use crate::servicetime::ServiceModel;
use lass_cluster::FnId;
use lass_queueing::P2Quantile;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// What the controller needs to know about service times at a given
/// container size.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServiceEstimate {
    /// Mean service time (seconds).
    pub mean: f64,
    /// Service rate μ = 1/mean (req/s).
    pub rate: f64,
    /// 95th percentile of the service time.
    pub p95: f64,
    /// 99th percentile of the service time.
    pub p99: f64,
    /// Whether the estimate came from online observations (vs. the offline
    /// profile).
    pub online: bool,
}

#[derive(Debug, Clone)]
struct OnlineBucket {
    count: usize,
    mean: f64,
    p95: P2Quantile,
    p99: P2Quantile,
}

impl OnlineBucket {
    fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            p95: P2Quantile::new(0.95),
            p99: P2Quantile::new(0.99),
        }
    }

    fn record(&mut self, x: f64) {
        self.count += 1;
        self.mean += (x - self.mean) / self.count as f64;
        self.p95.observe(x);
        self.p99.observe(x);
    }
}

/// Offline profiles + online learner for per-function service times.
#[derive(Debug, Clone)]
pub struct ServiceTimeProfiler {
    offline: BTreeMap<FnId, ServiceModel>,
    online: BTreeMap<(FnId, u8), OnlineBucket>,
    /// Online estimates are used only after this many samples in a bucket.
    min_samples: usize,
}

/// Deflation-decile bucket index (0 ⇒ [0, 0.1), 9 ⇒ [0.9, 1)).
fn bucket(deflation: f64) -> u8 {
    debug_assert!((0.0..1.0).contains(&deflation));
    ((deflation * 10.0) as u8).min(9)
}

impl ServiceTimeProfiler {
    /// A profiler that trusts online data after `min_samples` observations
    /// per bucket (the paper does not specify; 50 is conservative).
    pub fn new(min_samples: usize) -> Self {
        Self {
            offline: BTreeMap::new(),
            online: BTreeMap::new(),
            min_samples,
        }
    }

    /// Register a function's offline profile (its deflation service-time
    /// model, e.g. from Table 1 / Fig. 7 measurements).
    pub fn register(&mut self, fn_id: FnId, model: ServiceModel) {
        self.offline.insert(fn_id, model);
    }

    /// Record one observed service time (seconds) at the given deflation
    /// ratio.
    pub fn record(&mut self, fn_id: FnId, deflation: f64, observed: f64) {
        debug_assert!(observed.is_finite() && observed >= 0.0);
        self.online
            .entry((fn_id, bucket(deflation)))
            .or_insert_with(OnlineBucket::new)
            .record(observed);
    }

    /// Number of online samples in the bucket covering `deflation`.
    pub fn online_samples(&self, fn_id: FnId, deflation: f64) -> usize {
        self.online
            .get(&(fn_id, bucket(deflation)))
            .map_or(0, |b| b.count)
    }

    /// Estimate the service-time distribution of `fn_id` at `deflation`.
    /// Prefers the online learner once its bucket is warm; falls back to
    /// the offline profile; `None` if the function is unknown both ways.
    pub fn estimate(&self, fn_id: FnId, deflation: f64) -> Option<ServiceEstimate> {
        if let Some(b) = self.online.get(&(fn_id, bucket(deflation))) {
            if b.count >= self.min_samples {
                let mean = b.mean.max(1e-9);
                return Some(ServiceEstimate {
                    mean,
                    rate: 1.0 / mean,
                    p95: b.p95.estimate().unwrap_or(mean),
                    p99: b.p99.estimate().unwrap_or(mean),
                    online: true,
                });
            }
        }
        let model = self.offline.get(&fn_id)?;
        let mean = model.mean_service_time(deflation);
        Some(ServiceEstimate {
            mean,
            rate: 1.0 / mean,
            p95: model.service_percentile(deflation, 0.95),
            p99: model.service_percentile(deflation, 0.99),
            online: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lass_simcore::SimRng;

    #[test]
    fn offline_fallback_matches_model() {
        let mut p = ServiceTimeProfiler::new(50);
        p.register(FnId(0), ServiceModel::exponential(0.1, 0.7));
        let est = p.estimate(FnId(0), 0.0).unwrap();
        assert!(!est.online);
        assert!((est.mean - 0.1).abs() < 1e-12);
        assert!((est.rate - 10.0).abs() < 1e-9);
        assert!((est.p99 - 0.1 * 100.0f64.ln()).abs() < 1e-9);
        // Deflated bucket uses the slack model.
        let est50 = p.estimate(FnId(0), 0.5).unwrap();
        assert!((est50.mean - 0.14).abs() < 1e-9);
    }

    #[test]
    fn unknown_function_yields_none() {
        let p = ServiceTimeProfiler::new(10);
        assert!(p.estimate(FnId(9), 0.0).is_none());
    }

    #[test]
    fn online_takes_over_after_min_samples() {
        let mut p = ServiceTimeProfiler::new(100);
        p.register(FnId(1), ServiceModel::exponential(0.1, 0.7));
        let mut rng = SimRng::from_seed(5);
        // The function actually runs at 0.2 mean (offline profile is stale).
        for _ in 0..99 {
            p.record(FnId(1), 0.0, rng.exp(5.0));
        }
        assert!(!p.estimate(FnId(1), 0.0).unwrap().online);
        for _ in 0..2000 {
            p.record(FnId(1), 0.0, rng.exp(5.0));
        }
        let est = p.estimate(FnId(1), 0.0).unwrap();
        assert!(est.online);
        assert!((est.mean - 0.2).abs() < 0.01, "mean={}", est.mean);
        assert!((est.rate - 5.0).abs() < 0.3);
        let truth_p99 = 0.2 * 100.0f64.ln();
        assert!(
            (est.p99 - truth_p99).abs() / truth_p99 < 0.2,
            "p99={}",
            est.p99
        );
    }

    #[test]
    fn buckets_are_independent_per_deflation() {
        let mut p = ServiceTimeProfiler::new(10);
        p.register(FnId(2), ServiceModel::exponential(0.1, 0.7));
        for _ in 0..50 {
            p.record(FnId(2), 0.05, 0.1); // bucket 0
            p.record(FnId(2), 0.55, 0.2); // bucket 5
        }
        assert_eq!(p.online_samples(FnId(2), 0.0), 50);
        assert_eq!(p.online_samples(FnId(2), 0.5), 50);
        assert_eq!(p.online_samples(FnId(2), 0.9), 0);
        let shallow = p.estimate(FnId(2), 0.02).unwrap();
        let deep = p.estimate(FnId(2), 0.52).unwrap();
        assert!((shallow.mean - 0.1).abs() < 1e-9);
        assert!((deep.mean - 0.2).abs() < 1e-9);
    }

    #[test]
    fn online_without_offline_profile_works() {
        let mut p = ServiceTimeProfiler::new(5);
        for _ in 0..10 {
            p.record(FnId(3), 0.0, 0.3);
        }
        let est = p.estimate(FnId(3), 0.0).unwrap();
        assert!(est.online);
        assert!((est.mean - 0.3).abs() < 1e-9);
        // But an unwarmed bucket of the same function has no fallback.
        assert!(p.estimate(FnId(3), 0.5).is_none());
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket(0.0), 0);
        assert_eq!(bucket(0.0999), 0);
        assert_eq!(bucket(0.1), 1);
        assert_eq!(bucket(0.95), 9);
        assert_eq!(bucket(0.9999), 9);
    }
}
