//! Simulation time as integer picoseconds.
//!
//! Two distinct newtypes keep instants and durations from being confused:
//! [`SimTime`] is an absolute instant since simulation start, [`TimeDelta`]
//! is a span. Arithmetic between them is closed under the usual rules
//! (`SimTime + TimeDelta = SimTime`, `SimTime - SimTime = TimeDelta`, …) and
//! saturates rather than wrapping, so a malformed configuration surfaces as
//! a stuck clock instead of UB-adjacent wrap-around.

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Picoseconds in one nanosecond.
pub const PS_PER_NS: u64 = 1_000;
/// Picoseconds in one microsecond.
pub const PS_PER_US: u64 = 1_000_000;
/// Picoseconds in one millisecond.
pub const PS_PER_MS: u64 = 1_000_000_000;
/// Picoseconds in one second.
pub const PS_PER_SEC: u64 = 1_000_000_000_000;

/// An absolute instant in simulation time (picoseconds since start).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulation time (picoseconds).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TimeDelta(u64);

impl SimTime {
    /// Simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The greatest representable instant; used as "never".
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }
    /// Construct from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns * PS_PER_NS)
    }
    /// Construct from microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * PS_PER_US)
    }
    /// Construct from milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        SimTime(ms * PS_PER_MS)
    }
    /// Construct from seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * PS_PER_SEC)
    }

    /// Raw picoseconds.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }
    /// Value in microseconds (floating point) — the unit of the paper's plots.
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }
    /// Value in seconds (floating point).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_SEC as f64
    }

    /// Span since an earlier instant; saturates to zero if `earlier` is later.
    #[inline]
    pub fn since(self, earlier: SimTime) -> TimeDelta {
        TimeDelta(self.0.saturating_sub(earlier.0))
    }

    /// Saturating addition of a span.
    #[inline]
    pub fn saturating_add(self, d: TimeDelta) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl TimeDelta {
    /// Zero-length span.
    pub const ZERO: TimeDelta = TimeDelta(0);
    /// The greatest representable span; used as "infinite".
    pub const MAX: TimeDelta = TimeDelta(u64::MAX);

    /// Construct from raw picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        TimeDelta(ps)
    }
    /// Construct from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        TimeDelta(ns * PS_PER_NS)
    }
    /// Construct from microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        TimeDelta(us * PS_PER_US)
    }
    /// Construct from milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        TimeDelta(ms * PS_PER_MS)
    }
    /// Construct from seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        TimeDelta(s * PS_PER_SEC)
    }
    /// Construct from floating-point seconds, rounding up to a whole
    /// picosecond so nonzero spans never collapse to zero.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s >= 0.0 && s.is_finite(), "negative or non-finite duration");
        TimeDelta((s * PS_PER_SEC as f64).ceil() as u64)
    }

    /// Raw picoseconds.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }
    /// Value in microseconds (floating point).
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }
    /// Value in seconds (floating point).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_SEC as f64
    }

    /// True if this span is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Integer-scaled span.
    #[inline]
    pub const fn scaled(self, k: u64) -> TimeDelta {
        TimeDelta(self.0.saturating_mul(k))
    }

    /// The smaller of two spans.
    #[inline]
    pub fn min(self, other: TimeDelta) -> TimeDelta {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// The larger of two spans.
    #[inline]
    pub fn max(self, other: TimeDelta) -> TimeDelta {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl Add<TimeDelta> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: TimeDelta) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<TimeDelta> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: TimeDelta) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<TimeDelta> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: TimeDelta) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = TimeDelta;
    #[inline]
    fn sub(self, rhs: SimTime) -> TimeDelta {
        TimeDelta(self.0.saturating_sub(rhs.0))
    }
}

impl Add for TimeDelta {
    type Output = TimeDelta;
    #[inline]
    fn add(self, rhs: TimeDelta) -> TimeDelta {
        TimeDelta(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for TimeDelta {
    #[inline]
    fn add_assign(&mut self, rhs: TimeDelta) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for TimeDelta {
    type Output = TimeDelta;
    #[inline]
    fn sub(self, rhs: TimeDelta) -> TimeDelta {
        TimeDelta(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for TimeDelta {
    #[inline]
    fn sub_assign(&mut self, rhs: TimeDelta) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for TimeDelta {
    type Output = TimeDelta;
    #[inline]
    fn mul(self, rhs: u64) -> TimeDelta {
        TimeDelta(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for TimeDelta {
    type Output = TimeDelta;
    #[inline]
    fn div(self, rhs: u64) -> TimeDelta {
        TimeDelta(self.0 / rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_us_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_us_f64())
    }
}

impl fmt::Debug for TimeDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_us_f64())
    }
}

impl fmt::Display for TimeDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_us_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_constructors_agree() {
        assert_eq!(SimTime::from_ns(1).as_ps(), 1_000);
        assert_eq!(SimTime::from_us(1).as_ps(), 1_000_000);
        assert_eq!(SimTime::from_ms(1).as_ps(), 1_000_000_000);
        assert_eq!(SimTime::from_secs(1).as_ps(), 1_000_000_000_000);
        assert_eq!(TimeDelta::from_us(3).as_ps(), 3_000_000);
    }

    #[test]
    fn arithmetic_roundtrips() {
        let t = SimTime::from_us(10);
        let d = TimeDelta::from_us(4);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d) - d, t);
        assert_eq!(t.since(SimTime::from_us(4)), TimeDelta::from_us(6));
    }

    #[test]
    fn subtraction_saturates() {
        let early = SimTime::from_us(1);
        let late = SimTime::from_us(5);
        assert_eq!(early - late, TimeDelta::ZERO);
        assert_eq!(early.since(late), TimeDelta::ZERO);
        assert_eq!(early - TimeDelta::from_us(9), SimTime::ZERO);
    }

    #[test]
    fn addition_saturates_at_max() {
        assert_eq!(SimTime::MAX + TimeDelta::from_us(1), SimTime::MAX);
        assert_eq!(TimeDelta::MAX + TimeDelta::from_us(1), TimeDelta::MAX);
    }

    #[test]
    fn float_views() {
        let t = SimTime::from_us(2);
        assert!((t.as_us_f64() - 2.0).abs() < 1e-12);
        assert_eq!(t.0, 2000 * PS_PER_NS);
        assert!((t.as_secs_f64() - 2e-6).abs() < 1e-15);
    }

    #[test]
    fn from_secs_f64_rounds_up() {
        // Even a sub-picosecond duration must stay nonzero.
        assert!(TimeDelta::from_secs_f64(1e-15).as_ps() >= 1);
        assert_eq!(TimeDelta::from_secs_f64(0.0), TimeDelta::ZERO);
    }

    #[test]
    #[should_panic]
    fn from_secs_f64_rejects_negative() {
        let _ = TimeDelta::from_secs_f64(-1.0);
    }

    #[test]
    fn delta_scaling_and_ordering() {
        let d = TimeDelta::from_ns(100);
        assert_eq!(d * 3, TimeDelta::from_ns(300));
        assert_eq!(d.scaled(3), TimeDelta::from_ns(300));
        assert_eq!((d * 3) / 3, d);
        assert_eq!(d.min(d * 2), d);
        assert_eq!(d.max(d * 2), d * 2);
        assert!(TimeDelta::from_ns(1) < TimeDelta::from_us(1));
    }

    #[test]
    fn display_formats_microseconds() {
        assert_eq!(format!("{}", SimTime::from_us(300)), "300.000us");
        assert_eq!(format!("{}", TimeDelta::from_ns(1500)), "1.500us");
    }
}
