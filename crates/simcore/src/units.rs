//! Byte-size newtype.
//!
//! Cache capacities, object sizes, and bandwidth bookkeeping all traffic in
//! bytes; a newtype keeps KB/MB/GB conversions explicit (the paper mixes all
//! three) and prevents unit mix-ups in cost-model arithmetic.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub};

/// A size in bytes. Uses decimal-power multiples (1 KB = 10³ B) only for
/// display; constructors use binary multiples (1 KB = 1024 B) to match the
/// paper's cache-size conventions.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct ByteSize(u64);

impl ByteSize {
    /// Zero bytes.
    pub const ZERO: ByteSize = ByteSize(0);
    /// Sentinel for "no limit" capacities.
    pub const MAX: ByteSize = ByteSize(u64::MAX);

    /// Constructs from raw bytes.
    pub const fn from_bytes(b: u64) -> Self {
        ByteSize(b)
    }

    /// Constructs from binary kilobytes (×1024).
    pub const fn from_kb(kb: u64) -> Self {
        ByteSize(kb * 1024)
    }

    /// Constructs from binary megabytes (×1024²).
    pub const fn from_mb(mb: u64) -> Self {
        ByteSize(mb * 1024 * 1024)
    }

    /// Constructs from binary gigabytes (×1024³).
    pub const fn from_gb(gb: u64) -> Self {
        ByteSize(gb * 1024 * 1024 * 1024)
    }

    /// Constructs from fractional megabytes, truncating below one byte.
    ///
    /// # Panics
    ///
    /// Panics if `mb` is negative or not finite.
    pub fn from_mb_f64(mb: f64) -> Self {
        assert!(
            mb.is_finite() && mb >= 0.0,
            "size must be finite and non-negative, got {mb}"
        );
        ByteSize((mb * 1024.0 * 1024.0) as u64)
    }

    /// Raw byte count.
    pub const fn as_bytes(self) -> u64 {
        self.0
    }

    /// Size in binary kilobytes as a float.
    pub fn as_kb_f64(self) -> f64 {
        self.0 as f64 / 1024.0
    }

    /// Size in binary gigabytes as a float.
    pub fn as_gb_f64(self) -> f64 {
        self.0 as f64 / (1024.0 * 1024.0 * 1024.0)
    }

    /// Whether this is the "no limit" sentinel.
    pub const fn is_unlimited(self) -> bool {
        self.0 == u64::MAX
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0.saturating_sub(rhs.0))
    }

    /// Saturating addition (sticks at the unlimited sentinel).
    pub fn saturating_add(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0.saturating_add(rhs.0))
    }
}

impl Add for ByteSize {
    type Output = ByteSize;
    fn add(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0 + rhs.0)
    }
}

impl AddAssign for ByteSize {
    fn add_assign(&mut self, rhs: ByteSize) {
        self.0 += rhs.0;
    }
}

impl Sub for ByteSize {
    type Output = ByteSize;
    /// # Panics
    /// Panics in debug builds on underflow.
    fn sub(self, rhs: ByteSize) -> ByteSize {
        debug_assert!(self.0 >= rhs.0, "ByteSize subtraction underflow");
        ByteSize(self.0 - rhs.0)
    }
}

impl Sum for ByteSize {
    fn sum<I: Iterator<Item = ByteSize>>(iter: I) -> ByteSize {
        iter.fold(ByteSize::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_unlimited() {
            return f.write_str("unlimited");
        }
        let b = self.0 as f64;
        if self.0 >= 1024 * 1024 * 1024 {
            write!(f, "{:.2}GB", b / (1024.0 * 1024.0 * 1024.0))
        } else if self.0 >= 1024 * 1024 {
            write!(f, "{:.2}MB", b / (1024.0 * 1024.0))
        } else if self.0 >= 1024 {
            write!(f, "{:.2}KB", b / 1024.0)
        } else {
            write!(f, "{}B", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(ByteSize::from_kb(8).as_bytes(), 8192);
        assert_eq!(ByteSize::from_mb(1).as_kb_f64(), 1024.0);
        assert_eq!(ByteSize::from_gb(5).as_gb_f64(), 5.0);
        assert_eq!(ByteSize::from_mb_f64(0.5).as_bytes(), 512 * 1024);
    }

    #[test]
    fn arithmetic_and_ordering() {
        let a = ByteSize::from_kb(10);
        let b = ByteSize::from_kb(4);
        assert_eq!(a + b, ByteSize::from_kb(14));
        assert_eq!(a - b, ByteSize::from_kb(6));
        assert!(a > b);
        assert_eq!(b.saturating_sub(a), ByteSize::ZERO);
        let mut c = a;
        c += b;
        assert_eq!(c, ByteSize::from_kb(14));
    }

    #[test]
    fn unlimited_sentinel() {
        assert!(ByteSize::MAX.is_unlimited());
        assert!(!ByteSize::from_gb(100).is_unlimited());
        assert_eq!(
            ByteSize::MAX.saturating_add(ByteSize::from_kb(1)),
            ByteSize::MAX
        );
        assert_eq!(format!("{}", ByteSize::MAX), "unlimited");
    }

    #[test]
    fn display_units() {
        assert_eq!(format!("{}", ByteSize::from_bytes(512)), "512B");
        assert_eq!(format!("{}", ByteSize::from_kb(2)), "2.00KB");
        assert_eq!(format!("{}", ByteSize::from_mb(3)), "3.00MB");
        assert_eq!(format!("{}", ByteSize::from_gb(4)), "4.00GB");
    }

    #[test]
    fn sum_iterator() {
        let total: ByteSize = (1..=3).map(ByteSize::from_kb).sum();
        assert_eq!(total, ByteSize::from_kb(6));
    }
}
