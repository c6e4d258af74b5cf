//! Data-size and data-rate units.
//!
//! Hadoop documentation and the paper use binary sizes (1 KB = 1024 bytes,
//! 1 GB = 2^30 bytes) for buffer and shuffle-data sizes, and decimal
//! megabytes per second for network throughput (a 1 GigE link is 125 MB/s).
//! Both conventions coexist here explicitly: [`ByteSize`] constructors are
//! binary, [`Rate`] constructors are decimal.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

use crate::time::SimDuration;

/// Bytes in a binary kilobyte.
pub const KIB: u64 = 1024;
/// Bytes in a binary megabyte.
pub const MIB: u64 = 1024 * KIB;
/// Bytes in a binary gigabyte.
pub const GIB: u64 = 1024 * MIB;

/// A count of bytes.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ByteSize(u64);

impl ByteSize {
    /// Zero bytes.
    pub const ZERO: ByteSize = ByteSize(0);

    /// Construct from a raw byte count.
    #[inline]
    pub const fn from_bytes(b: u64) -> Self {
        ByteSize(b)
    }

    /// Construct from binary kilobytes (KiB).
    #[inline]
    pub const fn from_kib(k: u64) -> Self {
        ByteSize(k * KIB)
    }

    /// Construct from binary megabytes (MiB).
    #[inline]
    pub const fn from_mib(m: u64) -> Self {
        ByteSize(m * MIB)
    }

    /// Construct from binary gigabytes (GiB).
    #[inline]
    pub const fn from_gib(g: u64) -> Self {
        ByteSize(g * GIB)
    }

    /// Raw byte count.
    #[inline]
    pub const fn as_bytes(self) -> u64 {
        self.0
    }

    /// Size in binary megabytes, as a float.
    #[inline]
    pub fn as_mib_f64(self) -> f64 {
        self.0 as f64 / MIB as f64
    }

    /// Size in binary gigabytes, as a float.
    #[inline]
    pub fn as_gib_f64(self) -> f64 {
        self.0 as f64 / GIB as f64
    }

    /// True if zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, other: ByteSize) -> ByteSize {
        ByteSize(self.0.saturating_sub(other.0))
    }
}

impl Add for ByteSize {
    type Output = ByteSize;
    #[inline]
    fn add(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0 + rhs.0)
    }
}

impl AddAssign for ByteSize {
    #[inline]
    fn add_assign(&mut self, rhs: ByteSize) {
        self.0 += rhs.0;
    }
}

impl Sub for ByteSize {
    type Output = ByteSize;
    #[inline]
    fn sub(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0 - rhs.0)
    }
}

impl Mul<u64> for ByteSize {
    type Output = ByteSize;
    #[inline]
    fn mul(self, rhs: u64) -> ByteSize {
        ByteSize(self.0 * rhs)
    }
}

impl Div<u64> for ByteSize {
    type Output = ByteSize;
    #[inline]
    fn div(self, rhs: u64) -> ByteSize {
        ByteSize(self.0 / rhs)
    }
}

impl Sum for ByteSize {
    fn sum<I: Iterator<Item = ByteSize>>(iter: I) -> ByteSize {
        ByteSize(iter.map(|b| b.0).sum())
    }
}

impl fmt::Debug for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        if b >= GIB {
            write!(f, "{:.2}GiB", b as f64 / GIB as f64)
        } else if b >= MIB {
            write!(f, "{:.2}MiB", b as f64 / MIB as f64)
        } else if b >= KIB {
            write!(f, "{:.2}KiB", b as f64 / KIB as f64)
        } else {
            write!(f, "{b}B")
        }
    }
}

/// A data rate in bytes per second.
///
/// Stored as `f64` because rates are the output of fair-share solves and are
/// divided continuously; the byte counters they act on stay integral.
#[derive(Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Rate(f64);

impl Rate {
    /// Zero rate.
    pub const ZERO: Rate = Rate(0.0);

    /// Construct from bytes per second.
    #[inline]
    pub fn from_bytes_per_sec(bps: f64) -> Self {
        assert!(
            bps >= 0.0 && bps.is_finite(),
            "rate must be finite and non-negative"
        );
        Rate(bps)
    }

    /// Construct from decimal megabytes per second (1 MB = 10^6 bytes).
    #[inline]
    pub fn from_mb_per_sec(mbps: f64) -> Self {
        Rate::from_bytes_per_sec(mbps * 1e6)
    }

    /// Construct from gigabits per second, the customary unit of
    /// interconnect line rates (1 Gbps = 125 decimal MB/s).
    #[inline]
    pub fn from_gbit_per_sec(gbps: f64) -> Self {
        Rate::from_bytes_per_sec(gbps * 1e9 / 8.0)
    }

    /// Bytes per second.
    #[inline]
    pub fn as_bytes_per_sec(self) -> f64 {
        self.0
    }

    /// Decimal megabytes per second.
    #[inline]
    pub fn as_mb_per_sec(self) -> f64 {
        self.0 / 1e6
    }

    /// True if effectively zero.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 <= 0.0
    }

    /// The smaller of two rates.
    #[inline]
    pub fn min(self, other: Rate) -> Rate {
        Rate(self.0.min(other.0))
    }

    /// The time to transfer `bytes` at this rate. Returns
    /// [`SimDuration::MAX`] for a zero rate and a nonzero payload.
    pub fn time_for(self, bytes: ByteSize) -> SimDuration {
        if bytes.is_zero() {
            SimDuration::ZERO
        } else if self.is_zero() {
            SimDuration::MAX
        } else {
            SimDuration::from_secs_f64(bytes.as_bytes() as f64 / self.0)
        }
    }

    /// The bytes moved over `d` at this rate (floored to whole bytes).
    pub fn bytes_over(self, d: SimDuration) -> ByteSize {
        ByteSize::from_bytes((self.0 * d.as_secs_f64()).floor() as u64)
    }
}

impl Add for Rate {
    type Output = Rate;
    #[inline]
    fn add(self, rhs: Rate) -> Rate {
        Rate(self.0 + rhs.0)
    }
}

impl Mul<f64> for Rate {
    type Output = Rate;
    #[inline]
    fn mul(self, rhs: f64) -> Rate {
        Rate(self.0 * rhs)
    }
}

impl Div<f64> for Rate {
    type Output = Rate;
    #[inline]
    fn div(self, rhs: f64) -> Rate {
        Rate(self.0 / rhs)
    }
}

impl Sum for Rate {
    fn sum<I: Iterator<Item = Rate>>(iter: I) -> Rate {
        Rate(iter.map(|r| r.0).sum())
    }
}

impl fmt::Debug for Rate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Rate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}MB/s", self.as_mb_per_sec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_size_constructors() {
        assert_eq!(ByteSize::from_kib(1).as_bytes(), 1024);
        assert_eq!(ByteSize::from_mib(2).as_bytes(), 2 * 1024 * 1024);
        assert_eq!(ByteSize::from_gib(1).as_bytes(), 1 << 30);
        assert_eq!(ByteSize::from_gib(4).as_gib_f64(), 4.0);
    }

    #[test]
    fn byte_size_arith() {
        let a = ByteSize::from_mib(3);
        let b = ByteSize::from_mib(1);
        assert_eq!((a + b).as_mib_f64(), 4.0);
        assert_eq!((a - b).as_mib_f64(), 2.0);
        assert_eq!((a * 2).as_mib_f64(), 6.0);
        assert_eq!((a / 3).as_mib_f64(), 1.0);
        assert_eq!(b.saturating_sub(a), ByteSize::ZERO);
        let total: ByteSize = vec![a, b, b].into_iter().sum();
        assert_eq!(total.as_mib_f64(), 5.0);
    }

    #[test]
    fn rate_conversions() {
        // 1 GigE = 1 Gbps = 125 decimal MB/s.
        let gige = Rate::from_gbit_per_sec(1.0);
        assert!((gige.as_mb_per_sec() - 125.0).abs() < 1e-9);
        let r = Rate::from_mb_per_sec(100.0);
        assert!((r.as_bytes_per_sec() - 1e8).abs() < 1e-3);
    }

    #[test]
    fn rate_time_for() {
        let r = Rate::from_mb_per_sec(100.0);
        let t = r.time_for(ByteSize::from_bytes(200_000_000));
        assert!((t.as_secs_f64() - 2.0).abs() < 1e-9);
        assert_eq!(r.time_for(ByteSize::ZERO), SimDuration::ZERO);
        assert_eq!(
            Rate::ZERO.time_for(ByteSize::from_bytes(1)),
            SimDuration::MAX
        );
    }

    #[test]
    fn rate_bytes_over() {
        let r = Rate::from_mb_per_sec(10.0);
        let moved = r.bytes_over(SimDuration::from_millis(500));
        assert_eq!(moved.as_bytes(), 5_000_000);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn rate_rejects_negative() {
        let _ = Rate::from_bytes_per_sec(-1.0);
    }

    #[test]
    fn display() {
        assert_eq!(format!("{}", ByteSize::from_bytes(17)), "17B");
        assert_eq!(format!("{}", ByteSize::from_kib(3)), "3.00KiB");
        assert_eq!(format!("{}", ByteSize::from_gib(2)), "2.00GiB");
        assert_eq!(format!("{}", Rate::from_mb_per_sec(950.0)), "950.0MB/s");
    }
}
