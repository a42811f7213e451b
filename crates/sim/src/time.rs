//! Simulation time and link-rate units.
//!
//! [`Time`] is a count of **picoseconds** stored in a `u64`. It is used for
//! both instants (time since simulation start) and durations; the network
//! domain constantly mixes the two (`deadline = now + tx_time`) and keeping
//! one transparent type avoids a wall of conversion noise without
//! sacrificing safety — all arithmetic is checked in debug builds.
//!
//! Why picoseconds: a byte takes exactly 8 000 ps at 1 Gbps, 800 ps at
//! 10 Gbps, 200 ps at 40 Gbps and 80 ps at 100 Gbps — all integers — so
//! serialization deadlines are exact and event order is reproducible.
//! `u64::MAX` picoseconds is ≈ 213 days, far beyond any experiment.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Picoseconds per nanosecond.
pub const PS_PER_NS: u64 = 1_000;
/// Picoseconds per microsecond.
pub const PS_PER_US: u64 = 1_000_000;
/// Picoseconds per millisecond.
pub const PS_PER_MS: u64 = 1_000_000_000;
/// Picoseconds per second.
pub const PS_PER_SEC: u64 = 1_000_000_000_000;

/// A point in simulated time, or a span of simulated time, in picoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(pub u64);

impl Time {
    /// The origin of simulated time (also the zero duration).
    pub const ZERO: Time = Time(0);
    /// The farthest representable future; used as an "infinite" deadline.
    pub const MAX: Time = Time(u64::MAX);

    /// Construct from picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        Time(ps)
    }

    /// Construct from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        Time(ns * PS_PER_NS)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        Time(us * PS_PER_US)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        Time(ms * PS_PER_MS)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        Time(s * PS_PER_SEC)
    }

    /// Construct from fractional seconds (rounded to the nearest
    /// picosecond). Handy for "0.01 s" style experiment scripts.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        debug_assert!(s >= 0.0, "negative time");
        Time((s * PS_PER_SEC as f64).round() as u64)
    }

    /// Raw picosecond count.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Whole nanoseconds (truncating).
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0 / PS_PER_NS
    }

    /// Whole microseconds (truncating).
    #[inline]
    pub const fn as_us(self) -> u64 {
        self.0 / PS_PER_US
    }

    /// Whole milliseconds (truncating).
    #[inline]
    pub const fn as_ms(self) -> u64 {
        self.0 / PS_PER_MS
    }

    /// Fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_SEC as f64
    }

    /// Fractional microseconds.
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }

    /// Saturating subtraction: `self - rhs`, clamped at zero. Used for
    /// "time remaining" computations that may have already expired.
    #[inline]
    pub const fn saturating_sub(self, rhs: Time) -> Time {
        Time(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition, `None` on overflow.
    #[inline]
    pub const fn checked_add(self, rhs: Time) -> Option<Time> {
        match self.0.checked_add(rhs.0) {
            Some(v) => Some(Time(v)),
            None => None,
        }
    }

    /// Saturating addition; overflow clamps to [`Time::MAX`]. Used when
    /// extending an "infinite" deadline must stay infinite.
    #[inline]
    pub const fn saturating_add(self, rhs: Time) -> Time {
        Time(self.0.saturating_add(rhs.0))
    }

    /// Integer multiplication by a dimensionless factor.
    #[inline]
    pub const fn saturating_mul(self, k: u64) -> Time {
        Time(self.0.saturating_mul(k))
    }

    /// The larger of two times.
    #[inline]
    pub fn max(self, other: Time) -> Time {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The smaller of two times.
    #[inline]
    pub fn min(self, other: Time) -> Time {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// True if this is the zero instant / empty duration.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add for Time {
    type Output = Time;
    #[inline]
    fn add(self, rhs: Time) -> Time {
        Time(self.0.checked_add(rhs.0).expect("Time overflow")) // lint:allow(no-unwrap): clock overflow must abort; silent wraparound would corrupt event ordering
    }
}

impl AddAssign for Time {
    #[inline]
    fn add_assign(&mut self, rhs: Time) {
        *self = *self + rhs;
    }
}

impl Sub for Time {
    type Output = Time;
    #[inline]
    fn sub(self, rhs: Time) -> Time {
        Time(self.0.checked_sub(rhs.0).expect("Time underflow")) // lint:allow(no-unwrap): negative time is unrepresentable; underflow must abort
    }
}

impl SubAssign for Time {
    #[inline]
    fn sub_assign(&mut self, rhs: Time) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Time {
    type Output = Time;
    #[inline]
    fn mul(self, k: u64) -> Time {
        Time(self.0.checked_mul(k).expect("Time overflow")) // lint:allow(no-unwrap): clock overflow must abort; silent wraparound would corrupt event ordering
    }
}

impl Div<u64> for Time {
    type Output = Time;
    #[inline]
    fn div(self, k: u64) -> Time {
        Time(self.0 / k)
    }
}

impl Sum for Time {
    fn sum<I: Iterator<Item = Time>>(iter: I) -> Time {
        iter.fold(Time::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Time {
    /// Renders with the largest unit that keeps three significant integer
    /// digits readable, e.g. `152.4us`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps = self.0;
        if ps == 0 {
            write!(f, "0s")
        } else if ps < PS_PER_NS {
            write!(f, "{ps}ps")
        } else if ps < PS_PER_US {
            write!(f, "{:.1}ns", ps as f64 / PS_PER_NS as f64)
        } else if ps < PS_PER_MS {
            write!(f, "{:.1}us", ps as f64 / PS_PER_US as f64)
        } else if ps < PS_PER_SEC {
            write!(f, "{:.3}ms", ps as f64 / PS_PER_MS as f64)
        } else {
            write!(f, "{:.6}s", ps as f64 / PS_PER_SEC as f64)
        }
    }
}

/// A data rate in bits per second.
///
/// The conversions to/from time use 128-bit intermediates so that large
/// byte counts (multi-gigabyte transfers) cannot overflow.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Rate(pub u64);

impl Rate {
    /// A zero rate (a stopped drain).
    pub const ZERO: Rate = Rate(0);

    /// Construct from bits per second.
    #[inline]
    pub const fn from_bps(bps: u64) -> Self {
        Rate(bps)
    }

    /// Construct from megabits per second (10^6 b/s).
    #[inline]
    pub const fn from_mbps(mbps: u64) -> Self {
        Rate(mbps * 1_000_000)
    }

    /// Construct from gigabits per second (10^9 b/s).
    #[inline]
    pub const fn from_gbps(gbps: u64) -> Self {
        Rate(gbps * 1_000_000_000)
    }

    /// Bits per second.
    #[inline]
    pub const fn as_bps(self) -> u64 {
        self.0
    }

    /// Rate in Gb/s as a float (for reporting).
    #[inline]
    pub fn as_gbps_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Time to serialize `bytes` bytes at this rate, rounded up to the
    /// next picosecond so a transmission never finishes early.
    ///
    /// # Panics
    /// Panics if the rate is zero.
    #[inline]
    pub fn tx_time(self, bytes: u64) -> Time {
        assert!(self.0 > 0, "tx_time at zero rate");
        let bits = bytes as u128 * 8;
        let ps = (bits * PS_PER_SEC as u128).div_ceil(self.0 as u128);
        Time(u64::try_from(ps).expect("tx_time overflow")) // lint:allow(no-unwrap): a tx time beyond u64 picoseconds is a config error; abort loudly
    }

    /// Bytes fully serialized in `dur` at this rate (truncating).
    #[inline]
    pub fn bytes_in(self, dur: Time) -> u64 {
        let bits = self.0 as u128 * dur.0 as u128 / PS_PER_SEC as u128;
        u64::try_from(bits / 8).expect("bytes_in overflow") // lint:allow(no-unwrap): byte count beyond u64 is a config error; abort loudly
    }

    /// Scale the rate by a rational factor `num/den` (used by weighted
    /// schedulers to express per-queue shares).
    #[inline]
    pub fn scale(self, num: u64, den: u64) -> Rate {
        assert!(den > 0, "scale by zero denominator");
        Rate((self.0 as u128 * num as u128 / den as u128) as u64)
    }

    /// The rate that drains `bytes` in `dur`. Returns [`Rate::ZERO`] for a
    /// zero duration (callers treat that as "no sample").
    #[inline]
    pub fn from_bytes_over(bytes: u64, dur: Time) -> Rate {
        if dur.is_zero() {
            return Rate::ZERO;
        }
        let bps = bytes as u128 * 8 * PS_PER_SEC as u128 / dur.0 as u128;
        Rate(u64::try_from(bps).unwrap_or(u64::MAX))
    }
}

impl fmt::Display for Rate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let bps = self.0;
        if bps >= 1_000_000_000 {
            write!(f, "{:.2}Gbps", bps as f64 / 1e9)
        } else if bps >= 1_000_000 {
            write!(f, "{:.2}Mbps", bps as f64 / 1e6)
        } else if bps >= 1_000 {
            write!(f, "{:.2}Kbps", bps as f64 / 1e3)
        } else {
            write!(f, "{bps}bps")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(Time::from_ns(1), Time::from_ps(1_000));
        assert_eq!(Time::from_us(1), Time::from_ns(1_000));
        assert_eq!(Time::from_ms(1), Time::from_us(1_000));
        assert_eq!(Time::from_secs(1), Time::from_ms(1_000));
        assert_eq!(Time::from_secs_f64(0.5), Time::from_ms(500));
    }

    #[test]
    fn arithmetic_basics() {
        let a = Time::from_us(3);
        let b = Time::from_us(2);
        assert_eq!(a + b, Time::from_us(5));
        assert_eq!(a - b, Time::from_us(1));
        assert_eq!(a * 2, Time::from_us(6));
        assert_eq!(a / 3, Time::from_us(1));
        assert_eq!(b.saturating_sub(a), Time::ZERO);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    #[should_panic(expected = "Time underflow")]
    fn underflow_panics() {
        let _ = Time::from_us(1) - Time::from_us(2);
    }

    #[test]
    fn saturating_add_clamps() {
        assert_eq!(Time::MAX.saturating_add(Time::from_us(1)), Time::MAX);
        assert_eq!(
            Time::from_us(1).saturating_add(Time::from_us(2)),
            Time::from_us(3)
        );
    }

    #[test]
    fn tx_time_exact_for_standard_rates() {
        // 1500 B at 1 Gbps = 12 us exactly.
        assert_eq!(Rate::from_gbps(1).tx_time(1500), Time::from_us(12));
        // 1500 B at 10 Gbps = 1.2 us exactly.
        assert_eq!(Rate::from_gbps(10).tx_time(1500), Time::from_ns(1200));
        // 64 B at 40 Gbps = 12.8 ns exactly.
        assert_eq!(Rate::from_gbps(40).tx_time(64), Time::from_ps(12_800));
        // 64 B at 100 Gbps = 5.12 ns exactly.
        assert_eq!(Rate::from_gbps(100).tx_time(64), Time::from_ps(5_120));
    }

    #[test]
    fn tx_time_rounds_up() {
        // 1 byte at 3 bps: 8/3 s = 2.666... s → rounds up.
        let t = Rate::from_bps(3).tx_time(1);
        assert_eq!(t.0, (8 * PS_PER_SEC).div_ceil(3));
    }

    #[test]
    fn bytes_in_inverts_tx_time() {
        let r = Rate::from_gbps(10);
        for bytes in [64u64, 1500, 9000, 1_000_000] {
            let t = r.tx_time(bytes);
            assert_eq!(r.bytes_in(t), bytes);
        }
    }

    #[test]
    fn rate_from_bytes_over() {
        // 125 KB over 100 us = 10 Gbps.
        let r = Rate::from_bytes_over(125_000, Time::from_us(100));
        assert_eq!(r, Rate::from_gbps(10));
        assert_eq!(Rate::from_bytes_over(1000, Time::ZERO), Rate::ZERO);
    }

    #[test]
    fn rate_scale() {
        assert_eq!(Rate::from_gbps(10).scale(1, 2), Rate::from_gbps(5));
        assert_eq!(Rate::from_gbps(1).scale(250, 1000), Rate::from_mbps(250));
    }

    #[test]
    fn large_transfer_no_overflow() {
        // 100 GB at 100 Gbps = 8 s; must not overflow the intermediates.
        let r = Rate::from_gbps(100);
        let t = r.tx_time(100_000_000_000);
        assert_eq!(t, Time::from_secs(8));
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(Time::from_us(152).to_string(), "152.0us");
        assert_eq!(Time::ZERO.to_string(), "0s");
        assert_eq!(Rate::from_gbps(10).to_string(), "10.00Gbps");
        assert_eq!(Rate::from_mbps(250).to_string(), "250.00Mbps");
    }

    #[test]
    fn sum_of_times() {
        let total: Time = [Time::from_us(1), Time::from_us(2), Time::from_us(3)]
            .into_iter()
            .sum();
        assert_eq!(total, Time::from_us(6));
    }
}
