//! Timestamps, durations, and time windows.
//!
//! Every system event occurs at a particular time; the engine exploits this
//! temporal dimension both for filtering (the `(at "mm/dd/yyyy")` global
//! constraint) and for partitioned parallel execution. We use microseconds
//! since the Unix epoch, which comfortably covers the 0.5–1 year retention
//! the paper assumes while keeping arithmetic cheap.

use std::fmt;
use std::ops::{Add, Sub};

use crate::error::ModelError;

/// Microseconds in one second.
pub const MICROS_PER_SEC: i64 = 1_000_000;
/// Microseconds in one minute.
pub const MICROS_PER_MIN: i64 = 60 * MICROS_PER_SEC;
/// Microseconds in one hour.
pub const MICROS_PER_HOUR: i64 = 60 * MICROS_PER_MIN;
/// Microseconds in one day.
pub const MICROS_PER_DAY: i64 = 24 * MICROS_PER_HOUR;

/// A point in time: microseconds since the Unix epoch (UTC).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(pub i64);

/// A span of time in microseconds. Used for window sizes, steps, and the
/// optional bound on temporal relationships (`evt1 before[5 min] evt2`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(pub i64);

/// A half-open time interval `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimeWindow {
    /// Inclusive start of the window.
    pub start: Timestamp,
    /// Exclusive end of the window.
    pub end: Timestamp,
}

impl Timestamp {
    /// The earliest representable instant.
    pub const MIN: Timestamp = Timestamp(i64::MIN);
    /// The latest representable instant.
    pub const MAX: Timestamp = Timestamp(i64::MAX);

    /// Builds a timestamp from whole seconds since the epoch.
    #[inline]
    pub fn from_secs(secs: i64) -> Self {
        Timestamp(secs * MICROS_PER_SEC)
    }

    /// Builds a timestamp from microseconds since the epoch.
    #[inline]
    pub fn from_micros(micros: i64) -> Self {
        Timestamp(micros)
    }

    /// Microseconds since the epoch.
    #[inline]
    pub fn micros(self) -> i64 {
        self.0
    }

    /// Midnight UTC at the start of the given civil date.
    ///
    /// Uses the classic days-from-civil algorithm (Howard Hinnant), valid for
    /// all dates in the proleptic Gregorian calendar.
    pub fn from_date(year: i32, month: u32, day: u32) -> Self {
        let days = days_from_civil(year, month, day);
        Timestamp(days * MICROS_PER_DAY)
    }

    /// Decomposes this timestamp into `(year, month, day)` in UTC.
    pub fn to_date(self) -> (i32, u32, u32) {
        civil_from_days(self.0.div_euclid(MICROS_PER_DAY))
    }

    /// Saturating addition of a duration.
    #[inline]
    pub fn saturating_add(self, d: Duration) -> Timestamp {
        Timestamp(self.0.saturating_add(d.0))
    }

    /// Saturating subtraction of a duration.
    #[inline]
    pub fn saturating_sub(self, d: Duration) -> Timestamp {
        Timestamp(self.0.saturating_sub(d.0))
    }
}

impl Duration {
    /// Zero-length duration.
    pub const ZERO: Duration = Duration(0);

    /// Builds a duration from microseconds.
    #[inline]
    pub fn from_micros(micros: i64) -> Self {
        Duration(micros)
    }

    /// Builds a duration from milliseconds.
    #[inline]
    pub fn from_millis(ms: i64) -> Self {
        Duration(ms * 1_000)
    }

    /// Builds a duration from whole seconds.
    #[inline]
    pub const fn from_secs(secs: i64) -> Self {
        Duration(secs * MICROS_PER_SEC)
    }

    /// Builds a duration from whole minutes.
    #[inline]
    pub fn from_mins(mins: i64) -> Self {
        Duration(mins * MICROS_PER_MIN)
    }

    /// Builds a duration from whole hours.
    #[inline]
    pub fn from_hours(hours: i64) -> Self {
        Duration(hours * MICROS_PER_HOUR)
    }

    /// Builds a duration from whole days.
    #[inline]
    pub fn from_days(days: i64) -> Self {
        Duration(days * MICROS_PER_DAY)
    }

    /// The duration in microseconds.
    #[inline]
    pub fn micros(self) -> i64 {
        self.0
    }

    /// Whether this duration is strictly positive.
    #[inline]
    pub fn is_positive(self) -> bool {
        self.0 > 0
    }
}

impl TimeWindow {
    /// The unbounded window covering all representable time.
    pub const ALL: TimeWindow = TimeWindow {
        start: Timestamp::MIN,
        end: Timestamp::MAX,
    };

    /// Builds a window `[start, end)`; callers must ensure `start <= end`.
    pub fn new(start: Timestamp, end: Timestamp) -> Self {
        TimeWindow { start, end }
    }

    /// The 24-hour window covering one civil day (the `(at "mm/dd/yyyy")`
    /// global constraint of an AIQL query).
    pub fn day(year: i32, month: u32, day: u32) -> Self {
        let start = Timestamp::from_date(year, month, day);
        TimeWindow {
            start,
            end: start + Duration::from_days(1),
        }
    }

    /// Parses the argument of an `at` constraint: `"mm/dd/yyyy"`. A day
    /// whose window does not fit in `i64` microseconds is a bad date.
    pub fn parse_day(text: &str) -> Result<Self, ModelError> {
        let bad = || ModelError::BadDate(text.to_string());
        let parts: Vec<&str> = text.split('/').collect();
        if parts.len() != 3 {
            return Err(bad());
        }
        let month: u32 = parts[0].parse().map_err(|_| bad())?;
        let day: u32 = parts[1].parse().map_err(|_| bad())?;
        let year: i32 = parts[2].parse().map_err(|_| bad())?;
        if !(1..=12).contains(&month) || !(1..=31).contains(&day) {
            return Err(bad());
        }
        let start =
            (days_from_civil(year, month, day).checked_mul(MICROS_PER_DAY)).ok_or_else(bad)?;
        let end = start.checked_add(MICROS_PER_DAY).ok_or_else(bad)?;
        Ok(TimeWindow::new(Timestamp(start), Timestamp(end)))
    }

    /// Whether `t` falls inside `[start, end)`.
    #[inline]
    pub fn contains(&self, t: Timestamp) -> bool {
        t >= self.start && t < self.end
    }

    /// Intersection of two windows; empty result collapses to a zero-length
    /// window at the later start.
    pub fn intersect(&self, other: &TimeWindow) -> TimeWindow {
        let start = self.start.max(other.start);
        let end = self.end.min(other.end);
        TimeWindow {
            start,
            end: end.max(start),
        }
    }

    /// Whether the window contains no instants.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }

    /// Length of the window (zero if empty).
    pub fn length(&self) -> Duration {
        if self.is_empty() {
            Duration::ZERO
        } else {
            self.end - self.start
        }
    }

    /// Splits the window into at most `n` contiguous chunks of equal length,
    /// the parallelization unit of the engine's temporal partitioning.
    pub fn split(&self, n: usize) -> Vec<TimeWindow> {
        if self.is_empty() || n <= 1 {
            return vec![*self];
        }
        // Unbounded windows cannot be meaningfully chunked.
        if self.start == Timestamp::MIN || self.end == Timestamp::MAX {
            return vec![*self];
        }
        let total = self.end.0 - self.start.0;
        let n = (n as i64).min(total.max(1));
        let chunk = total / n;
        let mut out = Vec::with_capacity(n as usize);
        let mut cur = self.start.0;
        for i in 0..n {
            let end = if i == n - 1 { self.end.0 } else { cur + chunk };
            out.push(TimeWindow {
                start: Timestamp(cur),
                end: Timestamp(end),
            });
            cur = end;
        }
        out
    }
}

impl Add<Duration> for Timestamp {
    type Output = Timestamp;
    #[inline]
    fn add(self, rhs: Duration) -> Timestamp {
        Timestamp(self.0 + rhs.0)
    }
}

impl Sub<Duration> for Timestamp {
    type Output = Timestamp;
    #[inline]
    fn sub(self, rhs: Duration) -> Timestamp {
        Timestamp(self.0 - rhs.0)
    }
}

impl Sub<Timestamp> for Timestamp {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: Timestamp) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl Add<Duration> for Duration {
    type Output = Duration;
    #[inline]
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (y, m, d) = self.to_date();
        let rem = self.0.rem_euclid(MICROS_PER_DAY);
        let h = rem / MICROS_PER_HOUR;
        let min = (rem % MICROS_PER_HOUR) / MICROS_PER_MIN;
        let s = (rem % MICROS_PER_MIN) / MICROS_PER_SEC;
        let us = rem % MICROS_PER_SEC;
        if us == 0 {
            write!(f, "{y:04}-{m:02}-{d:02}T{h:02}:{min:02}:{s:02}Z")
        } else {
            write!(f, "{y:04}-{m:02}-{d:02}T{h:02}:{min:02}:{s:02}.{us:06}Z")
        }
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let us = self.0;
        if us % MICROS_PER_DAY == 0 {
            write!(f, "{} day", us / MICROS_PER_DAY)
        } else if us % MICROS_PER_HOUR == 0 {
            write!(f, "{} hour", us / MICROS_PER_HOUR)
        } else if us % MICROS_PER_MIN == 0 {
            write!(f, "{} min", us / MICROS_PER_MIN)
        } else if us % MICROS_PER_SEC == 0 {
            write!(f, "{} sec", us / MICROS_PER_SEC)
        } else if us % 1_000 == 0 {
            write!(f, "{} ms", us / 1_000)
        } else {
            write!(f, "{} us", us)
        }
    }
}

impl fmt::Display for TimeWindow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.start, self.end)
    }
}

/// Days since 1970-01-01 for a civil date (proleptic Gregorian).
fn days_from_civil(y: i32, m: u32, d: u32) -> i64 {
    let y = i64::from(y) - i64::from(m <= 2);
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400; // [0, 399]
    let mp = i64::from((m + 9) % 12); // March-based month [0, 11]
    let doy = (153 * mp + 2) / 5 + i64::from(d) - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146_097 + doe - 719_468
}

/// Civil date for days since 1970-01-01 (inverse of `days_from_civil`).
fn civil_from_days(z: i64) -> (i32, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32; // [1, 12]
    ((y + i64::from(m <= 2)) as i32, m, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_jan_1_1970() {
        assert_eq!(Timestamp::from_date(1970, 1, 1), Timestamp(0));
        assert_eq!(Timestamp(0).to_date(), (1970, 1, 1));
    }

    #[test]
    fn date_roundtrip_across_leap_years() {
        for &(y, m, d) in &[
            (2000, 2, 29),
            (2018, 3, 19),
            (2016, 12, 31),
            (1999, 1, 1),
            (2020, 2, 29),
            (2100, 3, 1),
        ] {
            let ts = Timestamp::from_date(y, m, d);
            assert_eq!(ts.to_date(), (y, m, d), "roundtrip for {y}-{m}-{d}");
        }
    }

    #[test]
    fn parse_day_window() {
        let w = TimeWindow::parse_day("10/15/2018").unwrap();
        assert_eq!(w.start, Timestamp::from_date(2018, 10, 15));
        assert_eq!(w.end, Timestamp::from_date(2018, 10, 16));
        assert!(w.contains(w.start));
        assert!(!w.contains(w.end));
    }

    #[test]
    fn parse_day_rejects_garbage() {
        assert!(TimeWindow::parse_day("2018-10-15").is_err());
        assert!(TimeWindow::parse_day("13/01/2018").is_err());
        assert!(TimeWindow::parse_day("01/32/2018").is_err());
        assert!(TimeWindow::parse_day("hello").is_err());
    }

    #[test]
    fn parse_day_rejects_days_outside_the_microsecond_range() {
        for text in ["01/01/300000", "01/01/-300000", "12/31/2147483647"] {
            assert_eq!(
                TimeWindow::parse_day(text),
                Err(ModelError::BadDate(text.to_string()))
            );
        }
        // The last whole day that fits still parses.
        let (y, m, d) = (Timestamp::MAX - Duration::from_days(1)).to_date();
        let text = format!("{m:02}/{d:02}/{y}");
        let w = TimeWindow::parse_day(&text).unwrap();
        assert!(w.end <= Timestamp::MAX && w.length() == Duration::from_days(1));
    }

    #[test]
    fn window_intersection() {
        let a = TimeWindow::new(Timestamp(0), Timestamp(100));
        let b = TimeWindow::new(Timestamp(50), Timestamp(150));
        let i = a.intersect(&b);
        assert_eq!(i, TimeWindow::new(Timestamp(50), Timestamp(100)));
        let disjoint = TimeWindow::new(Timestamp(200), Timestamp(300));
        assert!(a.intersect(&disjoint).is_empty());
    }

    #[test]
    fn window_split_covers_whole_range() {
        let w = TimeWindow::new(Timestamp(0), Timestamp(1003));
        let parts = w.split(4);
        assert_eq!(parts.len(), 4);
        assert_eq!(parts[0].start, w.start);
        assert_eq!(parts.last().unwrap().end, w.end);
        for pair in parts.windows(2) {
            assert_eq!(pair[0].end, pair[1].start);
        }
        let total: i64 = parts.iter().map(|p| p.length().micros()).sum();
        assert_eq!(total, 1003);
    }

    #[test]
    fn window_split_degenerate_cases() {
        let w = TimeWindow::new(Timestamp(0), Timestamp(10));
        assert_eq!(w.split(1), vec![w]);
        assert_eq!(TimeWindow::ALL.split(8), vec![TimeWindow::ALL]);
        let tiny = TimeWindow::new(Timestamp(0), Timestamp(2));
        assert_eq!(tiny.split(10).len(), 2);
    }

    #[test]
    fn duration_constructors() {
        assert_eq!(Duration::from_mins(1).micros(), 60_000_000);
        assert_eq!(Duration::from_secs(10), Duration::from_millis(10_000));
        assert_eq!(Duration::from_hours(2), Duration::from_mins(120));
        assert_eq!(Duration::from_days(1), Duration::from_hours(24));
    }

    #[test]
    fn timestamp_arithmetic() {
        let t = Timestamp::from_secs(100);
        assert_eq!(t + Duration::from_secs(5), Timestamp::from_secs(105));
        assert_eq!(t - Duration::from_secs(5), Timestamp::from_secs(95));
        assert_eq!(Timestamp::from_secs(105) - t, Duration::from_secs(5));
        assert_eq!(Timestamp::MAX.saturating_add(Duration(1)), Timestamp::MAX);
        assert_eq!(Timestamp::MIN.saturating_sub(Duration(1)), Timestamp::MIN);
    }

    #[test]
    fn display_formats() {
        let t = Timestamp::from_date(2018, 3, 19) + Duration::from_secs(3661);
        assert_eq!(t.to_string(), "2018-03-19T01:01:01Z");
        assert_eq!(Duration::from_mins(90).to_string(), "90 min");
        assert_eq!(Duration::from_hours(2).to_string(), "2 hour");
        assert_eq!(Duration(1500).to_string(), "1500 us");
    }
}
