//! Protocol time. A [`SimTime`] is an instant with microsecond resolution,
//! counted from the start of the run; nothing in the protocol stack ever
//! reads the wall clock directly. What *advances* the instant is a
//! [`Clock`]: the simulator's virtual event clock, `plwg-net`'s wall-clock
//! anchor, or a test-driven [`ManualClock`]. Because every clock counts
//! micros-since-start monotonically, deadline arithmetic written against
//! `ctx.now()` (pack timers, flush watchdogs, heartbeat timeouts) behaves
//! identically on simulated and real time.

use std::cell::Cell;
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant of virtual time, in microseconds since the start of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of virtual time, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The greatest representable instant; used as an "infinitely far" bound.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Builds an instant from raw microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// The instant `s` seconds into the run.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// Raw microseconds since the start of the run.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds since the start of the run, as a float (for reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The span from `earlier` to `self`.
    ///
    /// Returns [`SimDuration::ZERO`] if `earlier` is later than `self`
    /// (saturating, like `Instant::saturating_duration_since`).
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition; `None` on overflow.
    pub fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }
}

impl SimDuration {
    /// The empty span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Builds a span from raw microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Builds a span from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Builds a span from seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// Raw microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Milliseconds, truncating.
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Seconds as a float (for reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Multiplies the span by an integer factor, saturating on overflow.
    pub fn saturating_mul(self, k: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(k))
    }

    /// Scales the span by a float factor (used by congestion episodes).
    ///
    /// # Panics
    ///
    /// Panics if `f` is negative or not finite.
    pub fn mul_f64(self, f: f64) -> SimDuration {
        assert!(f.is_finite() && f >= 0.0, "invalid duration factor {f}");
        SimDuration((self.0 as f64 * f).round() as u64)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("virtual clock overflowed"))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("negative duration between instants"),
        )
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(rhs.0).expect("duration overflow"))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

/// A source of protocol time: monotone [`SimTime`] instants counted from
/// the start of a run.
///
/// Three implementations cover the workspace:
///
/// * the simulator's [`crate::World`] *is* a clock (its event queue
///   advances virtual time; [`crate::Transport::now`] reads it);
/// * `plwg_net::WallClock` anchors an `Instant` at runtime start and
///   reports elapsed wall-clock micros — the only place in the workspace
///   that reads the OS clock;
/// * [`ManualClock`] is hand-stepped, for deterministic unit tests of
///   wall-clock components (failure detectors, reconnect backoff) without
///   sleeping.
pub trait Clock {
    /// The current instant. Must never decrease within a run.
    fn now(&self) -> SimTime;
}

/// A hand-stepped [`Clock`] for deterministic tests of time-driven logic.
///
/// Interior-mutable so the component under test can hold a shared
/// reference while the test advances time.
#[derive(Debug, Default)]
pub struct ManualClock {
    now: Cell<SimTime>,
}

impl ManualClock {
    /// A clock starting at [`SimTime::ZERO`].
    pub fn new() -> Self {
        ManualClock::default()
    }

    /// A clock starting at `at`.
    pub fn starting_at(at: SimTime) -> Self {
        ManualClock { now: Cell::new(at) }
    }

    /// Moves the clock forward by `d`.
    pub fn advance(&self, d: SimDuration) {
        self.now.set(self.now.get() + d);
    }

    /// Jumps the clock to `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is earlier than the current instant (clocks are
    /// monotone).
    pub fn set(&self, t: SimTime) {
        assert!(t >= self.now.get(), "ManualClock must not go backwards");
        self.now.set(t);
    }
}

impl Clock for ManualClock {
    fn now(&self) -> SimTime {
        self.now.get()
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_roundtrip() {
        let t = SimTime::from_micros(5);
        let d = SimDuration::from_micros(7);
        assert_eq!((t + d).as_micros(), 12);
        assert_eq!((t + d) - t, d);
    }

    #[test]
    fn saturating_since_clamps() {
        let early = SimTime::from_micros(3);
        let late = SimTime::from_micros(9);
        assert_eq!(late.saturating_since(early).as_micros(), 6);
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
    }

    #[test]
    fn unit_constructors_agree() {
        assert_eq!(SimDuration::from_secs(2), SimDuration::from_millis(2_000));
        assert_eq!(SimDuration::from_millis(3), SimDuration::from_micros(3_000));
        assert_eq!(SimTime::from_secs(2), SimTime::from_micros(2_000_000));
    }

    #[test]
    fn mul_f64_rounds() {
        assert_eq!(SimDuration::from_micros(10).mul_f64(1.5).as_micros(), 15);
        assert_eq!(SimDuration::from_micros(10).mul_f64(0.0).as_micros(), 0);
    }

    #[test]
    #[should_panic(expected = "invalid duration factor")]
    fn mul_f64_rejects_negative() {
        let _ = SimDuration::from_micros(10).mul_f64(-1.0);
    }

    #[test]
    fn display_is_seconds() {
        assert_eq!(SimTime::from_micros(1_500_000).to_string(), "1.500000s");
    }

    #[test]
    fn manual_clock_steps_forward() {
        let c = ManualClock::starting_at(SimTime::from_micros(10));
        assert_eq!(c.now(), SimTime::from_micros(10));
        c.advance(SimDuration::from_micros(5));
        assert_eq!(c.now(), SimTime::from_micros(15));
        c.set(SimTime::from_micros(20));
        assert_eq!(c.now(), SimTime::from_micros(20));
    }

    #[test]
    #[should_panic(expected = "must not go backwards")]
    fn manual_clock_rejects_backwards_set() {
        let c = ManualClock::starting_at(SimTime::from_micros(10));
        c.set(SimTime::from_micros(5));
    }
}
