//! Resource quantities.
//!
//! CPU is accounted in **milli-vCPU** (1000 = one core) — the granularity
//! Docker's `cpu-shares`/`cpus` flags expose and the unit LaSS deflates in.
//! Memory is accounted in MiB, network bandwidth in Mbps. Integer units
//! keep cluster bookkeeping exact (no float drift in capacity invariants).
//!
//! [`ResourceVec`] bundles the three dimensions into one exact integer
//! vector with componentwise arithmetic, fit tests, and the
//! dominant-share / binding-dimension operations multi-dimensional
//! placement ranks on. A vector whose `mem`/`bandwidth` components are
//! zero behaves exactly like the historical cpu-only accounting — the
//! serde defaults exploit this to keep old scenarios byte-identical.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// CPU allocation in milli-vCPU.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct CpuMilli(pub u32);

impl CpuMilli {
    /// Zero CPU.
    pub const ZERO: CpuMilli = CpuMilli(0);

    /// From whole vCPUs.
    #[inline]
    pub fn from_cores(cores: f64) -> Self {
        assert!(cores.is_finite() && cores >= 0.0);
        CpuMilli((cores * 1000.0).round() as u32)
    }

    /// As fractional vCPUs.
    #[inline]
    pub fn as_cores(self) -> f64 {
        f64::from(self.0) / 1000.0
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: CpuMilli) -> CpuMilli {
        CpuMilli(self.0.saturating_sub(rhs.0))
    }

    /// Multiply by a non-negative factor, rounding to the nearest milli.
    #[inline]
    pub fn scale(self, factor: f64) -> CpuMilli {
        assert!(factor.is_finite() && factor >= 0.0);
        CpuMilli((f64::from(self.0) * factor).round() as u32)
    }

    /// `self / other` as a float (0 when other is zero).
    #[inline]
    pub fn ratio(self, other: CpuMilli) -> f64 {
        if other.0 == 0 {
            0.0
        } else {
            f64::from(self.0) / f64::from(other.0)
        }
    }

    /// Smaller of the two.
    #[inline]
    pub fn min(self, other: CpuMilli) -> CpuMilli {
        CpuMilli(self.0.min(other.0))
    }

    /// Larger of the two.
    #[inline]
    pub fn max(self, other: CpuMilli) -> CpuMilli {
        CpuMilli(self.0.max(other.0))
    }
}

/// Memory allocation in MiB.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct MemMib(pub u32);

impl MemMib {
    /// Zero memory.
    pub const ZERO: MemMib = MemMib(0);

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: MemMib) -> MemMib {
        MemMib(self.0.saturating_sub(rhs.0))
    }
}

/// Network bandwidth allocation in Mbps.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct BwMbps(pub u32);

impl BwMbps {
    /// Zero bandwidth.
    pub const ZERO: BwMbps = BwMbps(0);

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: BwMbps) -> BwMbps {
        BwMbps(self.0.saturating_sub(rhs.0))
    }
}

/// One axis of the resource vector, in dominance order: ties on
/// dominant share break toward the earlier dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Dimension {
    /// CPU (milli-vCPU).
    Cpu,
    /// Memory (MiB).
    Mem,
    /// Network bandwidth (Mbps).
    Bandwidth,
}

impl Dimension {
    /// Every dimension, in dominance order.
    pub const ALL: [Dimension; 3] = [Dimension::Cpu, Dimension::Mem, Dimension::Bandwidth];

    /// Stable lowercase name (report columns, planner logs).
    pub fn as_str(self) -> &'static str {
        match self {
            Dimension::Cpu => "cpu",
            Dimension::Mem => "mem",
            Dimension::Bandwidth => "bandwidth",
        }
    }
}

impl fmt::Display for Dimension {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// An exact integer resource vector over `(cpu, mem, bandwidth)`.
///
/// Arithmetic is componentwise and exact; `mem`/`bandwidth` default to
/// zero under serde so a cpu-only demand keeps the historical
/// single-dimension accounting bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct ResourceVec {
    /// CPU component.
    #[serde(default)]
    pub cpu: CpuMilli,
    /// Memory component.
    #[serde(default)]
    pub mem: MemMib,
    /// Network bandwidth component.
    #[serde(default)]
    pub bandwidth: BwMbps,
}

impl ResourceVec {
    /// The zero vector.
    pub const ZERO: ResourceVec = ResourceVec {
        cpu: CpuMilli::ZERO,
        mem: MemMib::ZERO,
        bandwidth: BwMbps::ZERO,
    };

    /// A vector from all three components.
    pub fn new(cpu: CpuMilli, mem: MemMib, bandwidth: BwMbps) -> Self {
        Self {
            cpu,
            mem,
            bandwidth,
        }
    }

    /// A cpu+mem vector with zero bandwidth — the historical demand
    /// shape every pre-vector call site produces.
    pub fn cpu_mem(cpu: CpuMilli, mem: MemMib) -> Self {
        Self {
            cpu,
            mem,
            bandwidth: BwMbps::ZERO,
        }
    }

    /// Raw magnitude along one dimension.
    pub fn get(self, dim: Dimension) -> u32 {
        match dim {
            Dimension::Cpu => self.cpu.0,
            Dimension::Mem => self.mem.0,
            Dimension::Bandwidth => self.bandwidth.0,
        }
    }

    /// Componentwise saturating subtraction.
    pub fn saturating_sub(self, rhs: ResourceVec) -> ResourceVec {
        ResourceVec {
            cpu: self.cpu.saturating_sub(rhs.cpu),
            mem: self.mem.saturating_sub(rhs.mem),
            bandwidth: self.bandwidth.saturating_sub(rhs.bandwidth),
        }
    }

    /// Whether this demand fits inside `avail` on every dimension.
    pub fn fits_in(self, avail: ResourceVec) -> bool {
        self.cpu <= avail.cpu && self.mem <= avail.mem && self.bandwidth <= avail.bandwidth
    }

    /// Share of `capacity` along one dimension (0 where capacity is 0).
    pub fn share(self, capacity: ResourceVec, dim: Dimension) -> f64 {
        let cap = capacity.get(dim);
        if cap == 0 {
            0.0
        } else {
            f64::from(self.get(dim)) / f64::from(cap)
        }
    }

    /// Dominant share (DRF): the largest per-dimension share of
    /// `capacity`. Zero-capacity dimensions contribute nothing.
    pub fn dominant_share(self, capacity: ResourceVec) -> f64 {
        Dimension::ALL
            .iter()
            .map(|&d| self.share(capacity, d))
            .fold(0.0, f64::max)
    }

    /// The dimension with the largest share of `capacity` — the axis
    /// this demand binds on first. Ties break in dominance order.
    pub fn binding_dimension(self, capacity: ResourceVec) -> Dimension {
        let mut best = Dimension::Cpu;
        let mut best_share = self.share(capacity, Dimension::Cpu);
        for &d in &Dimension::ALL[1..] {
            let s = self.share(capacity, d);
            if s > best_share {
                best = d;
                best_share = s;
            }
        }
        best
    }

    /// How many copies of `demand` fit in this free vector: the minimum
    /// over demanded dimensions of `free / demand`. A zero demand fits
    /// unboundedly often (`u64::MAX`).
    pub fn fit_count(self, demand: ResourceVec) -> u64 {
        let mut fits = u64::MAX;
        for d in Dimension::ALL {
            if let Some(n) = self.get(d).checked_div(demand.get(d)) {
                fits = fits.min(u64::from(n));
            }
        }
        fits
    }
}

impl Add for ResourceVec {
    type Output = ResourceVec;
    fn add(self, rhs: ResourceVec) -> ResourceVec {
        ResourceVec {
            cpu: self.cpu + rhs.cpu,
            mem: self.mem + rhs.mem,
            bandwidth: self.bandwidth + rhs.bandwidth,
        }
    }
}

impl AddAssign for ResourceVec {
    fn add_assign(&mut self, rhs: ResourceVec) {
        *self = *self + rhs;
    }
}

impl Sub for ResourceVec {
    type Output = ResourceVec;
    fn sub(self, rhs: ResourceVec) -> ResourceVec {
        ResourceVec {
            cpu: self.cpu - rhs.cpu,
            mem: self.mem - rhs.mem,
            bandwidth: self.bandwidth - rhs.bandwidth,
        }
    }
}

impl SubAssign for ResourceVec {
    fn sub_assign(&mut self, rhs: ResourceVec) {
        *self = *self - rhs;
    }
}

impl Sum for ResourceVec {
    fn sum<I: Iterator<Item = ResourceVec>>(iter: I) -> ResourceVec {
        iter.fold(ResourceVec::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for ResourceVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}/{}", self.cpu, self.mem, self.bandwidth)
    }
}

macro_rules! arith {
    ($t:ident) => {
        impl Add for $t {
            type Output = $t;
            #[inline]
            fn add(self, rhs: $t) -> $t {
                $t(self.0 + rhs.0)
            }
        }
        impl AddAssign for $t {
            #[inline]
            fn add_assign(&mut self, rhs: $t) {
                self.0 += rhs.0;
            }
        }
        impl Sub for $t {
            type Output = $t;
            #[inline]
            fn sub(self, rhs: $t) -> $t {
                debug_assert!(self.0 >= rhs.0, "resource underflow");
                $t(self.0 - rhs.0)
            }
        }
        impl SubAssign for $t {
            #[inline]
            fn sub_assign(&mut self, rhs: $t) {
                debug_assert!(self.0 >= rhs.0, "resource underflow");
                self.0 -= rhs.0;
            }
        }
        impl Sum for $t {
            fn sum<I: Iterator<Item = $t>>(iter: I) -> $t {
                iter.fold($t(0), |a, b| a + b)
            }
        }
    };
}

arith!(CpuMilli);
arith!(MemMib);
arith!(BwMbps);

impl fmt::Display for CpuMilli {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}vCPU", self.as_cores())
    }
}

impl fmt::Display for MemMib {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}MiB", self.0)
    }
}

impl fmt::Display for BwMbps {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}Mbps", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_conversions() {
        assert_eq!(CpuMilli::from_cores(2.0), CpuMilli(2000));
        assert_eq!(CpuMilli::from_cores(0.4), CpuMilli(400));
        assert!((CpuMilli(1500).as_cores() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn cpu_arithmetic_and_scaling() {
        let a = CpuMilli(700) + CpuMilli(300);
        assert_eq!(a, CpuMilli(1000));
        assert_eq!(a - CpuMilli(250), CpuMilli(750));
        assert_eq!(CpuMilli(1000).scale(0.7), CpuMilli(700));
        assert_eq!(CpuMilli(300).saturating_sub(CpuMilli(1000)), CpuMilli::ZERO);
        assert!((CpuMilli(500).ratio(CpuMilli(2000)) - 0.25).abs() < 1e-12);
        assert_eq!(CpuMilli(500).ratio(CpuMilli::ZERO), 0.0);
        assert_eq!(CpuMilli(2).min(CpuMilli(5)), CpuMilli(2));
        assert_eq!(CpuMilli(2).max(CpuMilli(5)), CpuMilli(5));
    }

    #[test]
    fn sums() {
        let total: CpuMilli = [CpuMilli(100), CpuMilli(200)].into_iter().sum();
        assert_eq!(total, CpuMilli(300));
        let m: MemMib = [MemMib(256), MemMib(512)].into_iter().sum();
        assert_eq!(m, MemMib(768));
    }

    #[test]
    fn displays() {
        assert_eq!(CpuMilli(2500).to_string(), "2.50vCPU");
        assert_eq!(MemMib(256).to_string(), "256MiB");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "resource underflow")]
    fn underflow_panics_in_debug() {
        let _ = MemMib(1) - MemMib(2);
    }

    fn vec3(cpu: u32, mem: u32, bw: u32) -> ResourceVec {
        ResourceVec::new(CpuMilli(cpu), MemMib(mem), BwMbps(bw))
    }

    #[test]
    fn vector_arithmetic_is_componentwise() {
        let a = vec3(1000, 512, 100);
        let b = vec3(500, 256, 40);
        assert_eq!(a + b, vec3(1500, 768, 140));
        assert_eq!(a - b, vec3(500, 256, 60));
        let mut c = a;
        c += b;
        c -= a;
        assert_eq!(c, b);
        let total: ResourceVec = [a, b].into_iter().sum();
        assert_eq!(total, vec3(1500, 768, 140));
        assert_eq!(b.saturating_sub(a), ResourceVec::ZERO);
    }

    #[test]
    fn fits_and_fit_count() {
        let free = vec3(4000, 1024, 0);
        assert!(vec3(4000, 1024, 0).fits_in(free));
        assert!(!vec3(4001, 0, 0).fits_in(free));
        assert!(!vec3(0, 0, 1).fits_in(free));
        // mem binds: 1024/300 = 3 copies even though cpu fits 8.
        assert_eq!(free.fit_count(vec3(500, 300, 0)), 3);
        assert_eq!(free.fit_count(ResourceVec::ZERO), u64::MAX);
        assert_eq!(free.fit_count(vec3(0, 0, 10)), 0);
    }

    #[test]
    fn dominant_share_and_binding_dimension() {
        let cap = vec3(4000, 16384, 10_000);
        let compute = vec3(2000, 1024, 0);
        assert!((compute.dominant_share(cap) - 0.5).abs() < 1e-12);
        assert_eq!(compute.binding_dimension(cap), Dimension::Cpu);
        let memory = vec3(400, 12288, 0);
        assert_eq!(memory.binding_dimension(cap), Dimension::Mem);
        assert!((memory.dominant_share(cap) - 0.75).abs() < 1e-12);
        let io = vec3(400, 1024, 9000);
        assert_eq!(io.binding_dimension(cap), Dimension::Bandwidth);
        // Zero-capacity dimensions are ignored, and the cpu-tie breaks
        // toward the earlier dimension.
        let flat = vec3(1000, 0, 0);
        assert_eq!(vec3(500, 0, 0).binding_dimension(flat), Dimension::Cpu);
        assert_eq!(vec3(0, 99, 99).dominant_share(vec3(1000, 0, 0)), 0.0);
    }

    #[test]
    fn dimension_names_are_stable() {
        let names: Vec<&str> = Dimension::ALL.iter().map(|d| d.as_str()).collect();
        assert_eq!(names, vec!["cpu", "mem", "bandwidth"]);
        assert_eq!(Dimension::Bandwidth.to_string(), "bandwidth");
    }

    #[test]
    fn vector_display_and_defaults() {
        assert_eq!(vec3(2500, 256, 80).to_string(), "2.50vCPU/256MiB/80Mbps");
        assert_eq!(ResourceVec::default(), ResourceVec::ZERO);
        assert_eq!(
            ResourceVec::cpu_mem(CpuMilli(100), MemMib(5)),
            vec3(100, 5, 0)
        );
    }
}
