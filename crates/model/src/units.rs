//! Strongly-typed quantities used throughout the workspace.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// A size expressed in Frame Buffer words.
///
/// The paper expresses all data sizes in (kilo)words of the Frame Buffer;
/// this newtype keeps them from being confused with cycle counts or raw
/// indices.
///
/// # Example
///
/// ```
/// use mcds_model::Words;
/// let a = Words::new(512) + Words::new(512);
/// assert_eq!(a, Words::kilo(1));
/// assert_eq!(a.get(), 1024);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct Words(u64);

impl Words {
    /// A size of zero words.
    pub const ZERO: Words = Words(0);

    /// Creates a size of `n` words.
    #[must_use]
    pub const fn new(n: u64) -> Self {
        Words(n)
    }

    /// The largest `n` that [`checked_kilo`](Self::checked_kilo)
    /// accepts: `u64::MAX / 1024` kilowords.
    pub const MAX_KILO: u64 = u64::MAX / 1024;

    /// Creates a size of `n` kilowords (`n * 1024` words), matching the
    /// paper's "1K/2K/8K" Frame Buffer sizes. For sizes from untrusted
    /// input use [`checked_kilo`](Self::checked_kilo): this one
    /// overflows past [`MAX_KILO`](Self::MAX_KILO).
    #[must_use]
    pub const fn kilo(n: u64) -> Self {
        Words(n * 1024)
    }

    /// Creates a size of `n` kilowords, or `None` when `n * 1024` does
    /// not fit a `u64` (`n` over [`MAX_KILO`](Self::MAX_KILO)).
    #[must_use]
    pub const fn checked_kilo(n: u64) -> Option<Self> {
        match n.checked_mul(1024) {
            Some(w) => Some(Words(w)),
            None => None,
        }
    }

    /// Returns the raw word count.
    #[must_use]
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Returns `true` if this is a zero-sized quantity.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Checked subtraction; `None` on underflow.
    #[must_use]
    pub const fn checked_sub(self, rhs: Words) -> Option<Words> {
        match self.0.checked_sub(rhs.0) {
            Some(v) => Some(Words(v)),
            None => None,
        }
    }

    /// Saturating subtraction (clamps at zero).
    #[must_use]
    pub const fn saturating_sub(self, rhs: Words) -> Words {
        Words(self.0.saturating_sub(rhs.0))
    }

    /// The larger of `self` and `other`.
    #[must_use]
    pub fn max(self, other: Words) -> Words {
        Words(self.0.max(other.0))
    }

    /// The smaller of `self` and `other`.
    #[must_use]
    pub fn min(self, other: Words) -> Words {
        Words(self.0.min(other.0))
    }
}

impl Add for Words {
    type Output = Words;
    fn add(self, rhs: Words) -> Words {
        Words(self.0 + rhs.0)
    }
}

impl AddAssign for Words {
    fn add_assign(&mut self, rhs: Words) {
        self.0 += rhs.0;
    }
}

impl Sub for Words {
    type Output = Words;
    /// # Panics
    ///
    /// Panics on underflow, like integer subtraction in debug builds.
    fn sub(self, rhs: Words) -> Words {
        Words(self.0.checked_sub(rhs.0).expect("Words underflow"))
    }
}

impl SubAssign for Words {
    fn sub_assign(&mut self, rhs: Words) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Words {
    type Output = Words;
    fn mul(self, rhs: u64) -> Words {
        Words(self.0 * rhs)
    }
}

impl Sum for Words {
    fn sum<I: Iterator<Item = Words>>(iter: I) -> Words {
        iter.fold(Words::ZERO, Add::add)
    }
}

impl<'a> Sum<&'a Words> for Words {
    fn sum<I: Iterator<Item = &'a Words>>(iter: I) -> Words {
        iter.copied().sum()
    }
}

impl fmt::Display for Words {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1024 && self.0.is_multiple_of(1024) {
            write!(f, "{}Kw", self.0 / 1024)
        } else {
            write!(f, "{}w", self.0)
        }
    }
}

/// A duration expressed in clock cycles of the reconfigurable array.
///
/// # Example
///
/// ```
/// use mcds_model::Cycles;
/// let t = Cycles::new(100) + Cycles::new(20);
/// assert_eq!(t.get(), 120);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct Cycles(u64);

impl Cycles {
    /// A duration of zero cycles.
    pub const ZERO: Cycles = Cycles(0);

    /// Creates a duration of `n` cycles.
    #[must_use]
    pub const fn new(n: u64) -> Self {
        Cycles(n)
    }

    /// Returns the raw cycle count.
    #[must_use]
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Returns `true` if this duration is zero.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction (clamps at zero).
    #[must_use]
    pub const fn saturating_sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_sub(rhs.0))
    }

    /// The larger of `self` and `other`.
    #[must_use]
    pub fn max(self, other: Cycles) -> Cycles {
        Cycles(self.0.max(other.0))
    }

    /// The smaller of `self` and `other`.
    #[must_use]
    pub fn min(self, other: Cycles) -> Cycles {
        Cycles(self.0.min(other.0))
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
    /// # Panics
    ///
    /// Panics on underflow.
    fn sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.checked_sub(rhs.0).expect("Cycles underflow"))
    }
}

impl Mul<u64> for Cycles {
    type Output = Cycles;
    fn mul(self, rhs: u64) -> Cycles {
        Cycles(self.0 * rhs)
    }
}

impl Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Cycles {
        iter.fold(Cycles::ZERO, Add::add)
    }
}

impl<'a> Sum<&'a Cycles> for Cycles {
    fn sum<I: Iterator<Item = &'a Cycles>>(iter: I) -> Cycles {
        iter.copied().sum()
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}cy", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_arithmetic() {
        let a = Words::new(10);
        let b = Words::new(3);
        assert_eq!(a + b, Words::new(13));
        assert_eq!(a - b, Words::new(7));
        assert_eq!(a * 4, Words::new(40));
        assert_eq!(b.checked_sub(a), None);
        assert_eq!(b.saturating_sub(a), Words::ZERO);
    }

    #[test]
    fn words_kilo_and_display() {
        assert_eq!(Words::kilo(2).get(), 2048);
        assert_eq!(Words::kilo(2).to_string(), "2Kw");
        assert_eq!(Words::new(100).to_string(), "100w");
        assert_eq!(Words::new(1030).to_string(), "1030w");
    }

    #[test]
    fn words_sum_and_ordering() {
        let total: Words = [Words::new(1), Words::new(2), Words::new(3)].iter().sum();
        assert_eq!(total, Words::new(6));
        assert!(Words::new(1) < Words::new(2));
        assert_eq!(Words::new(5).max(Words::new(9)), Words::new(9));
        assert_eq!(Words::new(5).min(Words::new(9)), Words::new(5));
    }

    #[test]
    #[should_panic(expected = "Words underflow")]
    fn words_sub_underflow_panics() {
        let _ = Words::new(1) - Words::new(2);
    }

    #[test]
    fn cycles_arithmetic() {
        let a = Cycles::new(100);
        assert_eq!(a + Cycles::new(1), Cycles::new(101));
        assert_eq!(a - Cycles::new(1), Cycles::new(99));
        assert_eq!(a * 3, Cycles::new(300));
        assert_eq!(a.saturating_sub(Cycles::new(200)), Cycles::ZERO);
        assert_eq!(a.max(Cycles::new(7)), a);
    }

    #[test]
    fn cycles_sum_and_display() {
        let total: Cycles = vec![Cycles::new(4), Cycles::new(6)].into_iter().sum();
        assert_eq!(total, Cycles::new(10));
        assert_eq!(total.to_string(), "10cy");
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(Words::default(), Words::ZERO);
        assert_eq!(Cycles::default(), Cycles::ZERO);
        assert!(Words::ZERO.is_zero());
        assert!(Cycles::ZERO.is_zero());
    }

    #[test]
    fn serde_transparent() {
        let w: Words = serde_json::from_str("42").expect("deserialize");
        assert_eq!(w, Words::new(42));
        assert_eq!(
            serde_json::to_string(&Cycles::new(7)).expect("serialize"),
            "7"
        );
    }
}
