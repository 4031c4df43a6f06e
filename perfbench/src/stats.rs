//! Metric definitions shared by every workload, and the small numeric
//! helpers the benchmark reports with.

/// A run's request counters, summed over functions, as the engine
/// counts them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Simulated arrivals: the benchmark's operations.
    pub arrivals: u64,
    /// Requests served to completion.
    pub completed: u64,
    /// Requests dropped without service.
    pub lost: u64,
    /// Requests abandoned on the platform's hard time limit.
    pub timeouts: u64,
    /// Requests whose wait exceeded the SLO deadline. The engine counts
    /// every timeout here too.
    pub slo_violations: u64,
    /// Requests still unanswered when the run ended.
    pub outstanding: u64,
}

impl Counters {
    /// Every arrival ends in exactly one of completed, lost, timed out
    /// or still outstanding.
    pub fn conserved(&self) -> bool {
        self.completed + self.lost + self.timeouts + self.outstanding == self.arrivals
    }

    /// Failed operations: lost, timed out and still outstanding.
    pub fn failed(&self) -> u64 {
        self.lost + self.timeouts + self.outstanding
    }

    /// Share of arrivals that did not complete within their SLO
    /// deadline: `(slo_violations + lost + outstanding) / arrivals`.
    /// Timeouts enter once, through `slo_violations`.
    pub fn slo_miss_ratio(&self) -> f64 {
        ratio(
            self.slo_violations + self.lost + self.outstanding,
            self.arrivals,
        )
    }

    /// Share of arrivals that failed (see [`Counters::failed`]).
    pub fn failed_share(&self) -> f64 {
        ratio(self.failed(), self.arrivals)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Host throughput: simulated arrivals per host second of the engine
/// call.
pub fn sim_req_per_s(arrivals: u64, engine_secs: f64) -> f64 {
    arrivals as f64 / engine_secs
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile of an ascending sample; zero when empty.
pub fn nearest_rank<T: Copy + Default>(sorted: &[T], q: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Incremental FNV-1a, 64-bit.
pub struct Fnv64(u64);

impl Fnv64 {
    /// The empty hash.
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    /// Hash `bytes` after everything written so far.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash of everything written.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 10 arrivals: 7 completed, 1 lost, 1 timed out, 1 outstanding; 3
    /// SLO violations, one of them the timeout.
    fn hand_built() -> Counters {
        Counters {
            arrivals: 10,
            completed: 7,
            lost: 1,
            timeouts: 1,
            slo_violations: 3,
            outstanding: 1,
        }
    }

    #[test]
    fn miss_ratio_counts_a_timeout_once() {
        let c = hand_built();
        assert!(c.conserved());
        // (3 violations incl. the timeout + 1 lost + 1 outstanding) / 10.
        assert_eq!(c.slo_miss_ratio(), 0.5);
    }

    #[test]
    fn failed_share_is_lost_timeouts_and_outstanding() {
        let c = hand_built();
        assert_eq!(c.failed(), 3);
        assert_eq!(c.failed_share(), 0.3);
    }

    #[test]
    fn broken_conservation_is_detected() {
        let c = Counters {
            completed: 8,
            ..hand_built()
        };
        assert!(!c.conserved());
    }

    #[test]
    fn throughput_is_arrivals_per_engine_second() {
        assert_eq!(sim_req_per_s(150_000, 1.5), 100_000.0);
    }

    #[test]
    fn medians_and_ranks() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&s, 0.5), 50);
        assert_eq!(nearest_rank(&s, 0.99), 99);
        assert_eq!(nearest_rank::<u64>(&[], 0.5), 0);
    }

    #[test]
    fn fnv64_matches_reference_vectors() {
        let mut h = Fnv64::new();
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        // Writing in pieces hashes the concatenation.
        let mut pieces = Fnv64::new();
        pieces.write(b"fo");
        pieces.write(b"o");
        let mut whole = Fnv64::new();
        whole.write(b"foo");
        assert_eq!(pieces.finish(), whole.finish());
    }
}
