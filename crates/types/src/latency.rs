//! Cycle-count arithmetic used by the timing model.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Sub};

/// A number of processor clock cycles.
///
/// A thin newtype over `u64` so that latencies cannot be accidentally mixed
/// with instruction counts or hop counts.
///
/// # Example
///
/// ```
/// use rnuca_types::latency::Cycles;
/// let link = Cycles(1);
/// let router = Cycles(2);
/// let hop = link + router;
/// assert_eq!(hop * 3u32, Cycles(9));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Cycles(pub u64);

impl Cycles {
    /// Zero cycles.
    pub const ZERO: Cycles = Cycles(0);

    /// Returns the raw cycle count.
    pub fn value(self) -> u64 {
        self.0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_sub(rhs.0))
    }
}

impl Add for Cycles {
    type Output = Cycles;
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl AddAssign for Cycles {
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl Sub for Cycles {
    type Output = Cycles;
    fn sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 - rhs.0)
    }
}

impl Mul<u64> for Cycles {
    type Output = Cycles;
    fn mul(self, rhs: u64) -> Cycles {
        Cycles(self.0 * rhs)
    }
}

impl Mul<u32> for Cycles {
    type Output = Cycles;
    fn mul(self, rhs: u32) -> Cycles {
        Cycles(self.0 * rhs as u64)
    }
}

impl Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Cycles {
        iter.fold(Cycles::ZERO, Add::add)
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cyc", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        assert_eq!(Cycles(3) + Cycles(4), Cycles(7));
        assert_eq!(Cycles(10) - Cycles(4), Cycles(6));
        assert_eq!(Cycles(3) * 4u64, Cycles(12));
        assert_eq!(Cycles(3) * 4u32, Cycles(12));
        assert_eq!(Cycles(5).saturating_sub(Cycles(9)), Cycles::ZERO);
        let mut c = Cycles(1);
        c += Cycles(2);
        assert_eq!(c, Cycles(3));
    }

    #[test]
    fn sum_of_iterator() {
        let total: Cycles = [Cycles(1), Cycles(2), Cycles(3)].into_iter().sum();
        assert_eq!(total, Cycles(6));
    }

    #[test]
    fn display_counts_cycles() {
        assert_eq!(Cycles(14).to_string(), "14 cyc");
    }
}
