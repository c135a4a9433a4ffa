//! Simulated time.
//!
//! The simulator keeps time in integer **picoseconds** so that bandwidth
//! arithmetic (bytes divided by GB/s) stays precise for the smallest transfer
//! sizes the paper uses (64 B) while still covering multi-second simulations
//! in a `u64` without overflow (2^64 ps ≈ 213 days).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in simulated time, measured from the start of the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

/// Picoseconds per nanosecond.
const PS_PER_NS: u64 = 1_000;
/// Picoseconds per microsecond.
const PS_PER_US: u64 = 1_000_000;

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);

    /// The end of simulated time: later than every instant a run reaches.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from raw picoseconds.
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Creates a time from nanoseconds.
    pub fn from_ns(ns: f64) -> Self {
        SimTime((ns * PS_PER_NS as f64).round() as u64)
    }

    /// Raw picosecond count.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Time expressed in nanoseconds.
    pub fn as_ns(self) -> f64 {
        self.0 as f64 / PS_PER_NS as f64
    }

    /// Time expressed in microseconds.
    pub fn as_us(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }

    /// Returns the later of two times.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// Returns the earlier of two times.
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }

    /// Duration elapsed since `earlier`, saturating at zero.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from raw picoseconds.
    pub const fn from_ps(ps: u64) -> Self {
        SimDuration(ps)
    }

    /// Creates a duration from nanoseconds.
    pub fn from_ns(ns: f64) -> Self {
        SimDuration((ns * PS_PER_NS as f64).round() as u64)
    }

    /// Creates a duration from microseconds.
    pub fn from_us(us: f64) -> Self {
        SimDuration((us * PS_PER_US as f64).round() as u64)
    }

    /// Duration of transferring `bytes` at `gib_per_s` gigabytes per second.
    ///
    /// A bandwidth of zero yields a zero-length transfer, which keeps
    /// degenerate latency-model configurations from dividing by zero.
    pub fn from_transfer(bytes: u64, gb_per_s: f64) -> Self {
        if gb_per_s <= 0.0 {
            return SimDuration::ZERO;
        }
        // bytes / (GB/s) = ns * bytes / (bytes/ns); 1 GB/s == 1 byte/ns.
        let ns = bytes as f64 / gb_per_s;
        SimDuration::from_ns(ns)
    }

    /// Duration of `cycles` cycles at `mhz` megahertz.
    pub fn from_cycles(cycles: u64, mhz: f64) -> Self {
        if mhz <= 0.0 {
            return SimDuration::ZERO;
        }
        let ns_per_cycle = 1_000.0 / mhz;
        SimDuration::from_ns(cycles as f64 * ns_per_cycle)
    }

    /// Raw picosecond count.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Duration expressed in nanoseconds.
    pub fn as_ns(self) -> f64 {
        self.0 as f64 / PS_PER_NS as f64
    }

    /// Duration expressed in microseconds.
    pub fn as_us(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }

    /// Duration expressed in seconds.
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// True if the duration is zero.
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Returns the larger of two durations.
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }

    /// Returns the smaller of two durations.
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }

    /// Ratio of this duration to `other`.
    ///
    /// A zero `other` makes the ratio undefined and returns [`f64::NAN`].
    /// (It used to return `0.0`, which made speedups over an empty run look
    /// like a catastrophic slowdown instead of a degenerate measurement.)
    /// Callers that prefer a defined value for the degenerate case — e.g.
    /// utilization of an empty schedule — must guard explicitly.
    pub fn ratio(self, other: SimDuration) -> f64 {
        if other.0 == 0 {
            f64::NAN
        } else {
            self.0 as f64 / other.0 as f64
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: f64) -> SimDuration {
        SimDuration((self.0 as f64 * rhs).round() as u64)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs.max(1))
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        iter.fold(SimDuration::ZERO, |acc, d| acc + d)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} ns", self.as_ns())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= PS_PER_US * 1_000 {
            write!(f, "{:.3} ms", self.as_us() / 1_000.0)
        } else if self.0 >= PS_PER_US {
            write!(f, "{:.3} us", self.as_us())
        } else {
            write!(f, "{:.3} ns", self.as_ns())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_roundtrip_ns() {
        let t = SimTime::from_ns(436.0);
        assert_eq!(t.as_ps(), 436_000);
        assert!((t.as_ns() - 436.0).abs() < 1e-9);
    }

    #[test]
    fn duration_transfer_bandwidth() {
        // 64 bytes at 8 GB/s = 8 ns.
        let d = SimDuration::from_transfer(64, 8.0);
        assert!((d.as_ns() - 8.0).abs() < 1e-9);
        // 16 KiB at 4 GB/s = 4096 ns.
        let d = SimDuration::from_transfer(16 * 1024, 4.0);
        assert!((d.as_ns() - 4096.0).abs() < 1e-9);
    }

    #[test]
    fn duration_transfer_zero_bandwidth_is_zero() {
        assert_eq!(SimDuration::from_transfer(1024, 0.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_transfer(1024, -1.0), SimDuration::ZERO);
    }

    #[test]
    fn duration_cycles() {
        // 300 cycles at 300 MHz = 1000 ns.
        let d = SimDuration::from_cycles(300, 300.0);
        assert!((d.as_ns() - 1000.0).abs() < 1e-6);
        assert_eq!(SimDuration::from_cycles(10, 0.0), SimDuration::ZERO);
    }

    #[test]
    fn time_arithmetic() {
        let t0 = SimTime::from_ns(100.0);
        let t1 = t0 + SimDuration::from_ns(50.0);
        assert!((t1.as_ns() - 150.0).abs() < 1e-9);
        assert!(((t1 - t0).as_ns() - 50.0).abs() < 1e-9);
        // Saturating: earlier minus later is zero.
        assert_eq!((t0 - t1).as_ps(), 0);
        assert_eq!(t0.max(t1), t1);
        assert_eq!(t0.min(t1), t0);
    }

    #[test]
    fn duration_arithmetic() {
        let a = SimDuration::from_ns(10.0);
        let b = SimDuration::from_ns(4.0);
        assert!(((a + b).as_ns() - 14.0).abs() < 1e-9);
        assert!(((a - b).as_ns() - 6.0).abs() < 1e-9);
        assert_eq!((b - a), SimDuration::ZERO);
        assert!(((a * 3).as_ns() - 30.0).abs() < 1e-9);
        assert!(((a / 2).as_ns() - 5.0).abs() < 1e-9);
        assert!((a.ratio(b) - 2.5).abs() < 1e-9);
    }

    #[test]
    fn ratio_with_zero_denominator_is_nan() {
        // An empty run has a zero makespan; a speedup against it is
        // undefined, not 0x (which would read as an infinite slowdown).
        let b = SimDuration::from_ns(4.0);
        assert!(b.ratio(SimDuration::ZERO).is_nan());
        assert!(SimDuration::ZERO.ratio(SimDuration::ZERO).is_nan());
        assert_eq!(SimDuration::ZERO.ratio(b), 0.0);
    }

    #[test]
    fn duration_sum() {
        let total: SimDuration = (1..=4).map(|i| SimDuration::from_ns(i as f64)).sum();
        assert!((total.as_ns() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn display_scales() {
        assert_eq!(format!("{}", SimDuration::from_ns(5.0)), "5.000 ns");
        assert_eq!(format!("{}", SimDuration::from_us(5.0)), "5.000 us");
        assert_eq!(format!("{}", SimDuration::from_us(5000.0)), "5.000 ms");
    }
}
