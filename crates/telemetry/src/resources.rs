//! Resource kinds and per-resource quantity vectors.
//!
//! These are the canonical measurement axes of the telemetry plane: every
//! observation source — simulator, recorded trace or procfs sampler —
//! reports per-container usage as a [`ResourceVector`] indexed by
//! [`ResourceKind`].

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut};

/// The resource subsystems a source can report on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ResourceKind {
    /// CPU time, in cores (e.g. 2.5 = two and a half cores busy).
    Cpu,
    /// Resident memory working set, in MB (occupancy, not a rate).
    Memory,
    /// Memory bandwidth, in MB/s.
    MemBandwidth,
    /// Disk I/O, in MB/s.
    DiskIo,
    /// Network traffic, in MB/s.
    Network,
    /// Last-level cache footprint, in MB (occupancy).
    Cache,
}

impl ResourceKind {
    /// All kinds in storage order.
    pub const ALL: [ResourceKind; 6] = [
        ResourceKind::Cpu,
        ResourceKind::Memory,
        ResourceKind::MemBandwidth,
        ResourceKind::DiskIo,
        ResourceKind::Network,
        ResourceKind::Cache,
    ];

    /// The *rate* resources that are allocated max-min fairly each tick.
    /// [`ResourceKind::Memory`] and [`ResourceKind::Cache`] are occupancy
    /// resources handled by the swap/cache models instead.
    pub const SHARED_RATES: [ResourceKind; 4] = [
        ResourceKind::Cpu,
        ResourceKind::MemBandwidth,
        ResourceKind::DiskIo,
        ResourceKind::Network,
    ];

    /// Dense index for array-backed storage.
    pub fn index(&self) -> usize {
        match self {
            ResourceKind::Cpu => 0,
            ResourceKind::Memory => 1,
            ResourceKind::MemBandwidth => 2,
            ResourceKind::DiskIo => 3,
            ResourceKind::Network => 4,
            ResourceKind::Cache => 5,
        }
    }
}

impl fmt::Display for ResourceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ResourceKind::Cpu => "cpu",
            ResourceKind::Memory => "memory",
            ResourceKind::MemBandwidth => "membw",
            ResourceKind::DiskIo => "disk",
            ResourceKind::Network => "network",
            ResourceKind::Cache => "cache",
        };
        f.write_str(s)
    }
}

/// A vector of per-resource quantities (demands, grants or usages).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ResourceVector {
    pub(crate) values: [f64; 6],
}

impl ResourceVector {
    /// The zero vector.
    pub fn zero() -> Self {
        ResourceVector::default()
    }

    /// Builds a vector from explicit per-kind values.
    pub fn new(cpu: f64, memory: f64, membw: f64, disk: f64, network: f64, cache: f64) -> Self {
        ResourceVector {
            values: [cpu, memory, membw, disk, network, cache],
        }
    }

    /// Value of one resource kind.
    pub fn get(&self, kind: ResourceKind) -> f64 {
        self.values[kind.index()]
    }

    /// Sets one resource kind, returning `self` for chaining.
    pub fn with(mut self, kind: ResourceKind, value: f64) -> Self {
        self.values[kind.index()] = value;
        self
    }

    /// Sets one resource kind in place.
    pub fn set(&mut self, kind: ResourceKind, value: f64) {
        self.values[kind.index()] = value;
    }

    /// Element-wise linear interpolation: `self + t·(other − self)`,
    /// `t ∈ [0, 1]`.
    pub fn lerp(&self, other: &ResourceVector, t: f64) -> ResourceVector {
        let t = t.clamp(0.0, 1.0);
        let mut out = ResourceVector::zero();
        for k in ResourceKind::ALL {
            out.set(k, self.get(k) + t * (other.get(k) - self.get(k)));
        }
        out
    }

    /// Element-wise scaling.
    pub fn scale(&self, factor: f64) -> ResourceVector {
        let mut out = *self;
        for v in &mut out.values {
            *v *= factor;
        }
        out
    }

    /// Element-wise max with zero (demands are never negative).
    pub fn clamp_non_negative(&self) -> ResourceVector {
        let mut out = *self;
        for v in &mut out.values {
            *v = v.max(0.0);
        }
        out
    }

    /// True when all entries are finite and non-negative.
    pub fn is_valid(&self) -> bool {
        self.values.iter().all(|v| v.is_finite() && *v >= 0.0)
    }

    /// True when every entry is (near) zero.
    pub fn is_zero(&self) -> bool {
        self.values.iter().all(|v| v.abs() < 1e-12)
    }
}

impl Add for ResourceVector {
    type Output = ResourceVector;

    fn add(self, rhs: ResourceVector) -> ResourceVector {
        let mut out = self;
        out += rhs;
        out
    }
}

impl AddAssign for ResourceVector {
    fn add_assign(&mut self, rhs: ResourceVector) {
        for (a, b) in self.values.iter_mut().zip(rhs.values) {
            *a += b;
        }
    }
}

impl Index<ResourceKind> for ResourceVector {
    type Output = f64;

    fn index(&self, kind: ResourceKind) -> &f64 {
        &self.values[kind.index()]
    }
}

impl IndexMut<ResourceKind> for ResourceVector {
    fn index_mut(&mut self, kind: ResourceKind) -> &mut f64 {
        &mut self.values[kind.index()]
    }
}

impl fmt::Display for ResourceVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cpu={:.2} mem={:.0} membw={:.0} disk={:.1} net={:.1} cache={:.2}",
            self.get(ResourceKind::Cpu),
            self.get(ResourceKind::Memory),
            self.get(ResourceKind::MemBandwidth),
            self.get(ResourceKind::DiskIo),
            self.get(ResourceKind::Network),
            self.get(ResourceKind::Cache),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense_and_unique() {
        let mut seen = [false; 6];
        for k in ResourceKind::ALL {
            assert!(!seen[k.index()]);
            seen[k.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn get_set_with() {
        let v = ResourceVector::zero()
            .with(ResourceKind::Cpu, 2.0)
            .with(ResourceKind::Memory, 1024.0);
        assert_eq!(v.get(ResourceKind::Cpu), 2.0);
        assert_eq!(v[ResourceKind::Memory], 1024.0);
        assert_eq!(v.get(ResourceKind::Network), 0.0);
        let mut v2 = v;
        v2.set(ResourceKind::Network, 5.0);
        v2[ResourceKind::DiskIo] = 7.0;
        assert_eq!(v2.get(ResourceKind::Network), 5.0);
        assert_eq!(v2.get(ResourceKind::DiskIo), 7.0);
    }

    #[test]
    fn lerp_interpolates_and_clamps_t() {
        let a = ResourceVector::new(0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
        let b = ResourceVector::new(4.0, 100.0, 10.0, 2.0, 8.0, 1.0);
        let mid = a.lerp(&b, 0.5);
        assert_eq!(mid.get(ResourceKind::Cpu), 2.0);
        assert_eq!(mid.get(ResourceKind::Memory), 50.0);
        assert_eq!(a.lerp(&b, 2.0), b);
        assert_eq!(a.lerp(&b, -1.0), a);
    }

    #[test]
    fn addition_is_elementwise() {
        let a = ResourceVector::new(1.0, 2.0, 3.0, 4.0, 5.0, 6.0);
        let b = ResourceVector::new(0.5, 0.5, 0.5, 0.5, 0.5, 0.5);
        let c = a + b;
        assert_eq!(c.get(ResourceKind::Cpu), 1.5);
        assert_eq!(c.get(ResourceKind::Cache), 6.5);
    }

    #[test]
    fn validity_checks() {
        assert!(ResourceVector::new(1.0, 2.0, 3.0, 4.0, 5.0, 6.0).is_valid());
        assert!(!ResourceVector::new(-1.0, 0.0, 0.0, 0.0, 0.0, 0.0).is_valid());
        assert!(!ResourceVector::new(f64::NAN, 0.0, 0.0, 0.0, 0.0, 0.0).is_valid());
        assert!(ResourceVector::zero().is_zero());
        let clamped = ResourceVector::new(-1.0, 2.0, 0.0, 0.0, 0.0, 0.0).clamp_non_negative();
        assert!(clamped.is_valid());
        assert_eq!(clamped.get(ResourceKind::Memory), 2.0);
    }

    #[test]
    fn scale_multiplies_all() {
        let v = ResourceVector::new(1.0, 2.0, 3.0, 4.0, 5.0, 6.0).scale(2.0);
        assert_eq!(v.get(ResourceKind::Cpu), 2.0);
        assert_eq!(v.get(ResourceKind::Cache), 12.0);
    }

    #[test]
    fn serde_round_trip() {
        let v = ResourceVector::new(1.5, 2048.0, 900.0, 12.0, 80.0, 1.25);
        let text = serde_json::to_string(&v).unwrap();
        let back: ResourceVector = serde_json::from_str(&text).unwrap();
        assert_eq!(back, v);
    }
}
