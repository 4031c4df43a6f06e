//! Steady-state analysis of the homogeneous M/M/c/FCFS queue.
//!
//! The LaSS paper models each serverless function with `c` identical
//! containers as an M/M/c queue (Eq. 1–2) and bounds the waiting time of an
//! arriving request with the cumulative state probabilities (Eq. 3–4).
//!
//! All state probabilities are evaluated through incremental log-space
//! recurrences, so the model stays numerically exact for offered loads far
//! beyond the point where the textbook formulas (`r^n / n!`) overflow `f64`.

use serde::{Deserialize, Serialize};

/// Errors from model construction.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum QueueError {
    /// The arrival rate was not a positive, finite number.
    InvalidArrivalRate,
    /// The service rate was not a positive, finite number.
    InvalidServiceRate,
    /// A model with zero containers was requested.
    ZeroServers,
}

impl std::fmt::Display for QueueError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueueError::InvalidArrivalRate => write!(f, "arrival rate must be positive and finite"),
            QueueError::InvalidServiceRate => write!(f, "service rate must be positive and finite"),
            QueueError::ZeroServers => write!(f, "at least one container is required"),
        }
    }
}

impl std::error::Error for QueueError {}

/// A homogeneous M/M/c/FCFS queueing model of one serverless function.
///
/// * `lambda` — mean request arrival rate (requests/second),
/// * `mu` — per-container service rate (requests/second),
/// * `c` — number of containers.
///
/// ```
/// use lass_queueing::MmcQueue;
///
/// // 20 req/s over 6 containers that each serve 5 req/s.
/// let q = MmcQueue::new(20.0, 5.0, 6).unwrap();
/// assert!(q.is_stable());
/// assert!((q.utilization() - 2.0 / 3.0).abs() < 1e-12);
/// // Probability an arriving request starts service within 100 ms
/// // (the paper's Eq. 3-4 bound):
/// assert!(q.wait_probability_bound(0.1) > 0.9);
/// ```
///
/// The model may be *unstable* (`λ ≥ cμ`); queries are still well defined
/// and return the natural limits (waiting probability bounds of zero, an
/// infinite mean wait), which lets the container solver simply grow `c`
/// until the system is both stable and meets its SLO.
#[derive(Debug, Clone)]
pub struct MmcQueue {
    lambda: f64,
    mu: f64,
    c: u32,
    /// `log_terms[n] = ln(r^n / n!)` for `0 ≤ n ≤ c`.
    log_terms: Vec<f64>,
    /// Log of the normalization constant `1/P0` (only finite when stable).
    log_z: f64,
}

/// Validate M/M/c parameters — the shared gate for [`MmcQueue::new`] and
/// [`ErlangScratch::eval`], so both paths accept and reject exactly the
/// same inputs.
fn validate_params(lambda: f64, mu: f64, c: u32) -> Result<(), QueueError> {
    if !(lambda.is_finite() && lambda > 0.0) {
        return Err(QueueError::InvalidArrivalRate);
    }
    if !(mu.is_finite() && mu > 0.0) {
        return Err(QueueError::InvalidServiceRate);
    }
    if c == 0 {
        return Err(QueueError::ZeroServers);
    }
    Ok(())
}

/// Extend `log_terms` so that `log_terms[n] = ln(r^n / n!)` holds for
/// `0 ≤ n ≤ c`, reusing the first `valid` entries (already computed for
/// the same `log_r`). Entries are produced by the same one-step
/// recurrence whatever `valid` is, so an incremental extension is
/// bit-identical to a fresh build.
fn fill_log_terms(log_r: f64, c: u32, log_terms: &mut Vec<f64>, valid: &mut usize) {
    let need = c as usize + 1;
    if *valid == 0 {
        if log_terms.is_empty() {
            log_terms.push(0.0); // ln(r^0/0!) = 0
        } else {
            log_terms[0] = 0.0;
        }
        *valid = 1;
    }
    while *valid < need {
        let n = *valid;
        let term = log_terms[n - 1] + log_r - (n as f64).ln();
        if n < log_terms.len() {
            log_terms[n] = term;
        } else {
            log_terms.push(term);
        }
        *valid += 1;
    }
}

/// Log of the normalization constant `1/P0` for a stable queue
/// (`rho < 1`), evaluated over the caller's scratch buffer so the hot
/// path allocates nothing. The summands are laid out exactly as the
/// historical `MmcQueue::new` did (head terms in order, geometric tail
/// last), so the result is bit-identical.
fn log_normalization(rho: f64, log_terms: &[f64], c: u32, items: &mut Vec<f64>) -> f64 {
    // Z = sum_{n=0}^{c-1} r^n/n!  +  r^c / (c! (1 - rho))
    let tail = log_terms[c as usize] - (1.0 - rho).ln();
    items.clear();
    items.extend_from_slice(&log_terms[..c as usize]);
    items.push(tail);
    log_sum_exp(items)
}

impl MmcQueue {
    /// Build the model, pre-computing the state-probability recurrence.
    pub fn new(lambda: f64, mu: f64, c: u32) -> Result<Self, QueueError> {
        validate_params(lambda, mu, c)?;
        let r = lambda / mu;
        let log_r = r.ln();
        let mut log_terms = Vec::with_capacity(c as usize + 1);
        let mut valid = 0;
        fill_log_terms(log_r, c, &mut log_terms, &mut valid);

        let rho = r / f64::from(c);
        let log_z = if rho < 1.0 {
            let mut items = Vec::with_capacity(c as usize + 1);
            log_normalization(rho, &log_terms, c, &mut items)
        } else {
            f64::INFINITY // unstable: P0 = 0
        };

        Ok(Self {
            lambda,
            mu,
            c,
            log_terms,
            log_z,
        })
    }

    /// Mean arrival rate λ.
    #[inline]
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Per-container service rate μ.
    #[inline]
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// Number of containers `c`.
    #[inline]
    pub fn servers(&self) -> u32 {
        self.c
    }

    /// Offered load `r = λ/μ` (the minimum number of containers for
    /// stability is `⌊r⌋ + 1`).
    #[inline]
    pub fn offered_load(&self) -> f64 {
        self.lambda / self.mu
    }

    /// System utilization `ρ = λ/(cμ)`.
    #[inline]
    pub fn utilization(&self) -> f64 {
        self.lambda / (f64::from(self.c) * self.mu)
    }

    /// Whether the queue is stable (`ρ < 1`).
    #[inline]
    pub fn is_stable(&self) -> bool {
        self.utilization() < 1.0
    }

    /// `ln P0` — log-probability of an empty system (−∞ when unstable).
    #[inline]
    pub fn log_p0(&self) -> f64 {
        -self.log_z
    }

    /// `P0` — probability of an empty system (Eq. 2 of the paper).
    #[inline]
    pub fn p0(&self) -> f64 {
        (-self.log_z).exp()
    }

    /// Steady-state probability `P_n` of `n` requests in the system (Eq. 1).
    pub fn p_n(&self, n: u64) -> f64 {
        if !self.is_stable() {
            return 0.0;
        }
        let c = u64::from(self.c);
        let log_pn = if n <= c {
            self.log_terms[n as usize] - self.log_z
        } else {
            // P_n = P_c * rho^{n-c} for n >= c.
            let log_rho = self.utilization().ln();
            self.log_terms[self.c as usize] + (n - c) as f64 * log_rho - self.log_z
        };
        log_pn.exp()
    }

    /// The Erlang-C probability that an arriving request must wait
    /// (`P(W > 0)`), i.e. that all `c` containers are busy. Returns `1.0`
    /// for an unstable system.
    pub fn erlang_c(&self) -> f64 {
        if !self.is_stable() {
            return 1.0;
        }
        let rho = self.utilization();
        let log_c = self.log_terms[self.c as usize] - (1.0 - rho).ln() - self.log_z;
        log_c.exp().min(1.0)
    }

    /// The paper's waiting-time bound (Eq. 3–4): the probability that an
    /// arriving request waits at most `t` seconds, obtained by summing the
    /// steady-state probabilities up to the largest occupancy
    /// `L = ⌊ t·c·μ + c − 1 ⌋` whose *expected* drain time fits in `t`.
    ///
    /// This is the quantity Algorithm 1 drives to the target percentile.
    /// Returns `0.0` when the system is unstable (no bound can be given).
    pub fn wait_probability_bound(&self, t: f64) -> f64 {
        assert!(t >= 0.0, "wait budget must be non-negative");
        if !self.is_stable() {
            return 0.0;
        }
        let c = f64::from(self.c);
        let l = (t * c * self.mu + c - 1.0).floor();
        if l < 0.0 {
            return 0.0;
        }
        self.cumulative_p(l as u64).min(1.0)
    }

    /// `Σ_{n=0}^{l} P_n` — cumulative steady-state probability.
    pub fn cumulative_p(&self, l: u64) -> f64 {
        if !self.is_stable() {
            return 0.0;
        }
        let c = u64::from(self.c);
        let head_top = l.min(c.saturating_sub(1));
        let mut logs: Vec<f64> = (0..=head_top)
            .map(|n| self.log_terms[n as usize] - self.log_z)
            .collect();
        if l >= c {
            // Geometric block: sum_{n=c}^{l} P_c rho^{n-c}
            //   = P_c (1 - rho^{l-c+1}) / (1 - rho).
            let rho = self.utilization();
            let k = (l - c + 1) as f64;
            let log_pc = self.log_terms[self.c as usize] - self.log_z;
            let log_block = log_pc + ((1.0 - rho.powf(k)) / (1.0 - rho)).ln();
            logs.push(log_block);
        }
        log_sum_exp(&logs).exp().min(1.0)
    }

    /// Exact waiting-time CDF of M/M/c/FCFS:
    /// `P(W ≤ t) = 1 − C(c, r)·e^{−(cμ−λ)t}`, where `C` is the Erlang-C
    /// probability. Used to cross-validate the paper's Eq. 3–4 bound.
    pub fn wait_cdf(&self, t: f64) -> f64 {
        assert!(t >= 0.0, "wait budget must be non-negative");
        if !self.is_stable() {
            return 0.0;
        }
        let drain = f64::from(self.c) * self.mu - self.lambda;
        (1.0 - self.erlang_c() * (-drain * t).exp()).clamp(0.0, 1.0)
    }

    /// Invert the exact waiting-time CDF: the smallest `t` with
    /// `P(W ≤ t) ≥ p`. Returns `f64::INFINITY` for an unstable system.
    pub fn wait_percentile(&self, p: f64) -> f64 {
        assert!((0.0..1.0).contains(&p), "percentile must be in [0,1)");
        if !self.is_stable() {
            return f64::INFINITY;
        }
        let ec = self.erlang_c();
        if ec <= 1.0 - p {
            return 0.0;
        }
        let drain = f64::from(self.c) * self.mu - self.lambda;
        (ec / (1.0 - p)).ln() / drain
    }

    /// Mean waiting time `E[W] = C(c,r) / (cμ − λ)`.
    pub fn mean_wait(&self) -> f64 {
        if !self.is_stable() {
            return f64::INFINITY;
        }
        self.erlang_c() / (f64::from(self.c) * self.mu - self.lambda)
    }
}

/// Allocation-free incremental Erlang-C evaluator — the route-decision
/// hot path's replacement for building one [`MmcQueue`] per call.
///
/// [`MmcQueue::new`] allocates a fresh `log_terms` vector (plus the
/// normalization scratch) on every construction; at one model per site
/// per routing decision that allocation dominates the decision cost
/// (see `BENCH_routing.json`). `ErlangScratch` keeps both buffers alive
/// across evaluations and exploits two incremental structures:
///
/// * the `ln(r^n/n!)` recurrence depends only on `r = λ/μ`, so while
///   `(λ, μ)` is unchanged a larger `c` just *extends* the existing
///   terms (the P₀ recurrence) instead of rebuilding them;
/// * the normalization `ln Z` is re-summed over the retained buffer —
///   O(c) arithmetic, zero allocation.
///
/// Every evaluation is **bit-identical** to the corresponding
/// [`MmcQueue`] queries (both paths share `fill_log_terms` /
/// `log_normalization` / `log_sum_exp`, performing the same operations
/// in the same order), which the differential proptests pin to the last
/// ULP. The result is a tiny Copy [`MmcSnapshot`] answering the
/// waiting-time queries in O(1).
#[derive(Debug, Clone, Default)]
pub struct ErlangScratch {
    /// Parameters the cached `log_terms` prefix was computed for.
    lambda: f64,
    mu: f64,
    log_r: f64,
    /// Number of leading `log_terms` entries valid for `(lambda, mu)`.
    valid: usize,
    /// `log_terms[n] = ln(r^n / n!)` scratch, grown monotonically.
    log_terms: Vec<f64>,
    /// Scratch for the normalization log-sum-exp.
    items: Vec<f64>,
}

impl ErlangScratch {
    /// A fresh evaluator with empty buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Evaluate the M/M/c model at `(lambda, mu, c)`, reusing every term
    /// still valid from the previous call. Validation matches
    /// [`MmcQueue::new`] exactly.
    pub fn eval(&mut self, lambda: f64, mu: f64, c: u32) -> Result<MmcSnapshot, QueueError> {
        validate_params(lambda, mu, c)?;
        let r = lambda / mu;
        if lambda != self.lambda || mu != self.mu || self.valid == 0 {
            // New rate pair: the recurrence restarts from ln(r^0/0!).
            self.lambda = lambda;
            self.mu = mu;
            self.log_r = r.ln();
            self.valid = 0;
        }
        fill_log_terms(self.log_r, c, &mut self.log_terms, &mut self.valid);

        let rho = r / f64::from(c);
        let log_z = if rho < 1.0 {
            log_normalization(rho, &self.log_terms, c, &mut self.items)
        } else {
            f64::INFINITY // unstable: P0 = 0
        };
        // The Erlang-C probability, precomputed once per (λ, μ, c) so the
        // snapshot's waiting-time queries are pure arithmetic. Mirrors
        // `MmcQueue::erlang_c` exactly, including its use of the
        // *utilization* form of rho.
        let util = lambda / (f64::from(c) * mu);
        let erlang_c = if util < 1.0 {
            let log_c = self.log_terms[c as usize] - (1.0 - util).ln() - log_z;
            log_c.exp().min(1.0)
        } else {
            1.0
        };
        Ok(MmcSnapshot {
            lambda,
            mu,
            c,
            erlang_c,
        })
    }
}

/// A point evaluation of one M/M/c model: the parameters plus the
/// precomputed Erlang-C probability, from which the mean wait and every
/// waiting-time percentile follow in O(1) — no buffers, no allocation.
///
/// Produced by [`ErlangScratch::eval`]; each query returns the same bits
/// as the corresponding [`MmcQueue`] method (the formulas are copied
/// verbatim and the Erlang-C value is computed by the same expression).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MmcSnapshot {
    lambda: f64,
    mu: f64,
    c: u32,
    erlang_c: f64,
}

impl MmcSnapshot {
    /// Mean arrival rate λ.
    #[inline]
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Per-container service rate μ.
    #[inline]
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// Number of containers `c`.
    #[inline]
    pub fn servers(&self) -> u32 {
        self.c
    }

    /// System utilization `ρ = λ/(cμ)`.
    #[inline]
    pub fn utilization(&self) -> f64 {
        self.lambda / (f64::from(self.c) * self.mu)
    }

    /// Whether the queue is stable (`ρ < 1`).
    #[inline]
    pub fn is_stable(&self) -> bool {
        self.utilization() < 1.0
    }

    /// The Erlang-C probability `P(W > 0)`; `1.0` for an unstable
    /// system. Matches [`MmcQueue::erlang_c`] bit-for-bit.
    #[inline]
    pub fn erlang_c(&self) -> f64 {
        if !self.is_stable() {
            return 1.0;
        }
        self.erlang_c
    }

    /// Mean waiting time `E[W] = C(c,r) / (cμ − λ)`. Matches
    /// [`MmcQueue::mean_wait`] bit-for-bit.
    pub fn mean_wait(&self) -> f64 {
        if !self.is_stable() {
            return f64::INFINITY;
        }
        self.erlang_c() / (f64::from(self.c) * self.mu - self.lambda)
    }

    /// Exact waiting-time CDF `P(W ≤ t)`. Matches [`MmcQueue::wait_cdf`]
    /// bit-for-bit.
    pub fn wait_cdf(&self, t: f64) -> f64 {
        assert!(t >= 0.0, "wait budget must be non-negative");
        if !self.is_stable() {
            return 0.0;
        }
        let drain = f64::from(self.c) * self.mu - self.lambda;
        (1.0 - self.erlang_c() * (-drain * t).exp()).clamp(0.0, 1.0)
    }

    /// Smallest `t` with `P(W ≤ t) ≥ p`; infinite when unstable. Matches
    /// [`MmcQueue::wait_percentile`] bit-for-bit.
    pub fn wait_percentile(&self, p: f64) -> f64 {
        assert!((0.0..1.0).contains(&p), "percentile must be in [0,1)");
        if !self.is_stable() {
            return f64::INFINITY;
        }
        let ec = self.erlang_c();
        if ec <= 1.0 - p {
            return 0.0;
        }
        let drain = f64::from(self.c) * self.mu - self.lambda;
        (ec / (1.0 - p)).ln() / drain
    }
}

/// Numerically-stable `ln Σ exp(x_i)`.
pub(crate) fn log_sum_exp(xs: &[f64]) -> f64 {
    let m = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if m == f64::NEG_INFINITY {
        return f64::NEG_INFINITY;
    }
    let s: f64 = xs.iter().map(|&x| (x - m).exp()).sum();
    m + s.ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mm1_p0(lambda: f64, mu: f64) -> f64 {
        1.0 - lambda / mu
    }

    #[test]
    fn reduces_to_mm1() {
        let q = MmcQueue::new(0.7, 1.0, 1).unwrap();
        assert!((q.p0() - mm1_p0(0.7, 1.0)).abs() < 1e-12);
        // M/M/1: P_n = (1-rho) rho^n.
        for n in 0..20u64 {
            let expect = 0.3 * 0.7f64.powi(n as i32);
            assert!((q.p_n(n) - expect).abs() < 1e-12, "n={n}");
        }
        // Erlang C for M/M/1 equals rho.
        assert!((q.erlang_c() - 0.7).abs() < 1e-12);
        // Mean wait: rho / (mu - lambda).
        assert!((q.mean_wait() - 0.7 / 0.3).abs() < 1e-9);
    }

    #[test]
    fn probabilities_sum_to_one() {
        for &(l, m, c) in &[
            (8.0, 1.0, 10),
            (30.0, 5.0, 8),
            (0.5, 10.0, 2),
            (95.0, 1.0, 100),
        ] {
            let q = MmcQueue::new(l, m, c).unwrap();
            let mut sum = 0.0;
            for n in 0..100_000u64 {
                sum += q.p_n(n);
                if sum > 1.0 - 1e-13 {
                    break;
                }
            }
            assert!(sum > 1.0 - 1e-9, "lambda={l} mu={m} c={c}: sum={sum}");
            assert!(sum < 1.0 + 1e-9);
        }
    }

    #[test]
    fn cumulative_matches_direct_sum() {
        let q = MmcQueue::new(12.0, 2.0, 9).unwrap();
        for l in [0u64, 3, 8, 9, 15, 50] {
            let direct: f64 = (0..=l).map(|n| q.p_n(n)).sum();
            let cum = q.cumulative_p(l);
            assert!((direct - cum).abs() < 1e-10, "l={l}: {direct} vs {cum}");
        }
    }

    #[test]
    fn erlang_c_textbook_value() {
        // Classic check: lambda=2, mu=1, c=3 => C ≈ 0.44444*... Let's compute
        // from the standard formula independently.
        let q = MmcQueue::new(2.0, 1.0, 3).unwrap();
        let r: f64 = 2.0;
        let c = 3.0;
        let rho = r / c;
        let num = r.powf(c) / 6.0 / (1.0 - rho);
        let den = 1.0 + r + r * r / 2.0 + num;
        let expect = num / den;
        assert!((q.erlang_c() - expect).abs() < 1e-12);
    }

    #[test]
    fn unstable_system_limits() {
        let q = MmcQueue::new(10.0, 1.0, 5).unwrap();
        assert!(!q.is_stable());
        assert_eq!(q.erlang_c(), 1.0);
        assert_eq!(q.wait_probability_bound(1.0), 0.0);
        assert_eq!(q.mean_wait(), f64::INFINITY);
        assert_eq!(q.p_n(3), 0.0);
        assert_eq!(q.wait_percentile(0.95), f64::INFINITY);
    }

    #[test]
    fn large_system_is_numerically_stable() {
        // r = 900 with c = 1000: naive r^n/n! overflows; log-space must not.
        let q = MmcQueue::new(900.0, 1.0, 1000).unwrap();
        assert!(q.is_stable());
        // P0 ~ e^-900 underflows f64 (that is the correct value); the
        // log-space representation must stay finite and negative.
        let lp0 = q.log_p0();
        assert!(lp0.is_finite() && lp0 < -500.0, "log_p0={lp0}");
        let ec = q.erlang_c();
        assert!((0.0..=1.0).contains(&ec), "erlang_c={ec}");
        let b = q.wait_probability_bound(0.1);
        assert!((0.0..=1.0).contains(&b), "bound={b}");
        assert!(
            b > 0.9,
            "with 10% headroom and t=0.1 the bound should be high: {b}"
        );
    }

    #[test]
    fn wait_bound_monotone_in_t() {
        let q = MmcQueue::new(20.0, 5.0, 6).unwrap();
        let mut last = 0.0;
        for i in 0..60 {
            let t = f64::from(i) * 0.01;
            let p = q.wait_probability_bound(t);
            assert!(p + 1e-12 >= last, "t={t}");
            last = p;
        }
    }

    #[test]
    fn wait_bound_monotone_in_c() {
        let mut last = 0.0;
        for c in 5..30 {
            let q = MmcQueue::new(20.0, 5.0, c).unwrap();
            let p = q.wait_probability_bound(0.05);
            assert!(p + 1e-12 >= last, "c={c}: {p} < {last}");
            last = p;
        }
    }

    #[test]
    fn exact_cdf_agrees_with_erlang_c_at_zero() {
        let q = MmcQueue::new(20.0, 5.0, 6).unwrap();
        assert!((q.wait_cdf(0.0) - (1.0 - q.erlang_c())).abs() < 1e-12);
    }

    #[test]
    fn wait_percentile_inverts_cdf() {
        let q = MmcQueue::new(20.0, 5.0, 6).unwrap();
        for &p in &[0.5, 0.9, 0.95, 0.99] {
            let t = q.wait_percentile(p);
            if t > 0.0 {
                assert!((q.wait_cdf(t) - p).abs() < 1e-9, "p={p}");
            } else {
                assert!(q.wait_cdf(0.0) >= p);
            }
        }
    }

    #[test]
    fn rejects_bad_parameters() {
        assert_eq!(
            MmcQueue::new(0.0, 1.0, 1).unwrap_err(),
            QueueError::InvalidArrivalRate
        );
        assert_eq!(
            MmcQueue::new(1.0, f64::NAN, 1).unwrap_err(),
            QueueError::InvalidServiceRate
        );
        assert_eq!(
            MmcQueue::new(1.0, 1.0, 0).unwrap_err(),
            QueueError::ZeroServers
        );
    }

    #[test]
    fn utilization_and_offered_load() {
        let q = MmcQueue::new(30.0, 5.0, 10).unwrap();
        assert!((q.offered_load() - 6.0).abs() < 1e-12);
        assert!((q.utilization() - 0.6).abs() < 1e-12);
    }

    /// Bit-level agreement between a fresh `MmcQueue` and a reused
    /// `ErlangScratch` across a parameter walk that exercises every
    /// reuse mode: same rates with growing/shrinking `c`, changed rates,
    /// stable and unstable regimes.
    #[test]
    fn scratch_matches_queue_to_the_last_ulp() {
        let mut scratch = ErlangScratch::new();
        let walk = [
            (20.0, 5.0, 6u32),
            (20.0, 5.0, 12),    // extend terms incrementally
            (20.0, 5.0, 3),     // shrink (prefix reuse), unstable
            (20.0, 5.0, 4),     // boundary rho = 1
            (20.0, 5.0, 5),     // stable again
            (900.0, 1.0, 1000), // rate change + large fleet
            (0.7, 1.0, 1),      // M/M/1
            (0.7, 1.0, 1),      // exact repeat
        ];
        for &(l, m, c) in &walk {
            let q = MmcQueue::new(l, m, c).unwrap();
            let s = scratch.eval(l, m, c).unwrap();
            assert_eq!(
                s.erlang_c().to_bits(),
                q.erlang_c().to_bits(),
                "erlang_c λ={l} μ={m} c={c}"
            );
            assert_eq!(
                s.mean_wait().to_bits(),
                q.mean_wait().to_bits(),
                "mean_wait λ={l} μ={m} c={c}"
            );
            for &p in &[0.0, 0.5, 0.9, 0.95, 0.99] {
                assert_eq!(
                    s.wait_percentile(p).to_bits(),
                    q.wait_percentile(p).to_bits(),
                    "wait_percentile({p}) λ={l} μ={m} c={c}"
                );
            }
            for &t in &[0.0, 0.01, 0.1, 1.0] {
                assert_eq!(
                    s.wait_cdf(t).to_bits(),
                    q.wait_cdf(t).to_bits(),
                    "wait_cdf({t}) λ={l} μ={m} c={c}"
                );
            }
            assert_eq!(s.utilization().to_bits(), q.utilization().to_bits());
            assert_eq!(s.is_stable(), q.is_stable());
        }
    }

    #[test]
    fn scratch_rejects_exactly_like_queue() {
        let mut scratch = ErlangScratch::new();
        for &(l, m, c) in &[
            (0.0, 1.0, 1u32),
            (-2.0, 1.0, 1),
            (f64::NAN, 1.0, 1),
            (f64::INFINITY, 1.0, 1),
            (1.0, 0.0, 1),
            (1.0, f64::NAN, 1),
            (1.0, 1.0, 0),
        ] {
            assert_eq!(
                scratch.eval(l, m, c).err(),
                MmcQueue::new(l, m, c).err(),
                "λ={l} μ={m} c={c}"
            );
        }
        // A rejected call must not poison the next valid one.
        let s = scratch.eval(20.0, 5.0, 6).unwrap();
        let q = MmcQueue::new(20.0, 5.0, 6).unwrap();
        assert_eq!(s.mean_wait().to_bits(), q.mean_wait().to_bits());
    }

    #[test]
    fn log_sum_exp_edge_cases() {
        assert_eq!(log_sum_exp(&[]), f64::NEG_INFINITY);
        assert!((log_sum_exp(&[0.0, 0.0]) - 2.0f64.ln()).abs() < 1e-12);
        // Huge magnitudes must not overflow.
        let v = log_sum_exp(&[1000.0, 1000.0]);
        assert!((v - (1000.0 + 2.0f64.ln())).abs() < 1e-9);
    }
}
