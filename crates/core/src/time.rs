//! A tiny simulated calendar.
//!
//! The pipeline never reads the wall clock; dates (app release/update
//! times, crawl campaign dates) are modeled as whole days since
//! 2008-01-01 — the year the first Android devices shipped — which keeps
//! the entire simulation deterministic.

use crate::error::CoreError;
use std::fmt;

/// Days in each month of a non-leap year.
const MONTH_DAYS: [i64; 12] = [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31];

/// A date in the simulation, stored as days since 2008-01-01.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SimDate(i64);

impl SimDate {
    /// The paper's first crawl campaign start (2017-08-15).
    pub const FIRST_CRAWL: SimDate = SimDate::from_ymd_const(2017, 8, 15);

    /// The paper's second crawl campaign (2018-04-30).
    pub const SECOND_CRAWL: SimDate = SimDate::from_ymd_const(2018, 4, 30);

    /// Construct from raw days-since-epoch; negative values are allowed
    /// (dates before 2008 occasionally appear in store metadata).
    pub fn from_days(days: i64) -> Result<Self, CoreError> {
        // Allow roughly 1900..2200 to catch arithmetic bugs early.
        if !(-40_000..=70_000).contains(&days) {
            return Err(CoreError::DateOutOfRange(days));
        }
        Ok(SimDate(days))
    }

    /// Days since 2008-01-01.
    pub fn days(self) -> i64 {
        self.0
    }

    /// Whether `year` is a Gregorian leap year.
    pub(crate) const fn is_leap(year: i32) -> bool {
        (year % 4 == 0 && year % 100 != 0) || year % 400 == 0
    }

    /// Days in `year`.
    const fn year_len(year: i32) -> i64 {
        if Self::is_leap(year) {
            366
        } else {
            365
        }
    }

    /// Const-friendly constructor from a calendar date. Panics on an
    /// invalid month/day combination (compile-time misuse, not data).
    pub const fn from_ymd_const(year: i32, month: u32, day: u32) -> SimDate {
        assert!(month >= 1 && month <= 12);
        assert!(day >= 1 && day <= 31);
        let mut days: i64 = 0;
        let mut y = 2008;
        while y < year {
            days += Self::year_len(y);
            y += 1;
        }
        while y > year {
            y -= 1;
            days -= Self::year_len(y);
        }
        let mut m = 1;
        while m < month {
            days += MONTH_DAYS[(m - 1) as usize];
            if m == 2 && Self::is_leap(year) {
                days += 1;
            }
            m += 1;
        }
        SimDate(days + day as i64 - 1)
    }

    /// Fallible constructor from a calendar date.
    pub fn from_ymd(year: i32, month: u32, day: u32) -> Result<SimDate, CoreError> {
        if !(1..=12).contains(&month) {
            return Err(CoreError::DateOutOfRange(month as i64));
        }
        let mut max_day = MONTH_DAYS[(month - 1) as usize];
        if month == 2 && Self::is_leap(year) {
            max_day += 1;
        }
        if !(1..=max_day as u32).contains(&day) {
            return Err(CoreError::DateOutOfRange(day as i64));
        }
        let d = Self::from_ymd_const(year, month, day);
        Self::from_days(d.0)
    }

    /// Decompose into `(year, month, day)`.
    pub(crate) fn ymd(self) -> (i32, u32, u32) {
        let mut days = self.0;
        let mut year = 2008;
        while days < 0 {
            year -= 1;
            days += Self::year_len(year);
        }
        while days >= Self::year_len(year) {
            days -= Self::year_len(year);
            year += 1;
        }
        let mut month = 1u32;
        loop {
            let mut len = MONTH_DAYS[(month - 1) as usize];
            if month == 2 && Self::is_leap(year) {
                len += 1;
            }
            if days < len {
                return (year, month, days as u32 + 1);
            }
            days -= len;
            month += 1;
        }
    }

    /// The calendar year, used to bucket release dates (Figure 4).
    pub fn year(self) -> i32 {
        self.ymd().0
    }

    /// Add a signed number of days (saturating to the representable window).
    pub fn plus_days(self, delta: i64) -> SimDate {
        SimDate((self.0 + delta).clamp(-40_000, 70_000))
    }
}

impl std::str::FromStr for SimDate {
    type Err = CoreError;

    /// Parse `YYYY-MM-DD` (the store metadata date format).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut it = s.split('-');
        let (y, m, d) = (it.next(), it.next(), it.next());
        if it.next().is_some() {
            return Err(CoreError::DateOutOfRange(-1));
        }
        let parse = |o: Option<&str>| -> Result<i64, CoreError> {
            o.and_then(|v| v.parse().ok())
                .ok_or(CoreError::DateOutOfRange(-1))
        };
        SimDate::from_ymd(parse(y)? as i32, parse(m)? as u32, parse(d)? as u32)
    }
}

impl fmt::Display for SimDate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (y, m, d) = self.ymd();
        write!(f, "{y:04}-{m:02}-{d:02}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_decomposes() {
        assert_eq!(SimDate(0).ymd(), (2008, 1, 1));
        assert_eq!(SimDate(0).to_string(), "2008-01-01");
    }

    #[test]
    fn known_dates() {
        assert_eq!(SimDate::from_ymd(2008, 12, 31).unwrap().days(), 365); // 2008 is leap
        assert_eq!(SimDate::from_ymd(2009, 1, 1).unwrap().days(), 366);
        assert_eq!(SimDate::FIRST_CRAWL.to_string(), "2017-08-15");
        assert_eq!(SimDate::SECOND_CRAWL.to_string(), "2018-04-30");
    }

    #[test]
    fn crawl_gap_is_about_8_months() {
        let gap = SimDate::SECOND_CRAWL.days() - SimDate::FIRST_CRAWL.days();
        assert!((250..=260).contains(&gap), "gap {gap}");
    }

    #[test]
    fn round_trip_ymd() {
        for days in [-365, 0, 1, 59, 60, 365, 366, 3652, 10000] {
            let d = SimDate::from_days(days).unwrap();
            let (y, m, dd) = d.ymd();
            assert_eq!(SimDate::from_ymd(y, m, dd).unwrap(), d, "days={days}");
        }
    }

    #[test]
    fn leap_year_rules() {
        assert!(SimDate::is_leap(2008));
        assert!(SimDate::is_leap(2000));
        assert!(!SimDate::is_leap(1900));
        assert!(!SimDate::is_leap(2017));
        assert!(SimDate::from_ymd(2016, 2, 29).is_ok());
        assert!(SimDate::from_ymd(2017, 2, 29).is_err());
    }

    #[test]
    fn rejects_out_of_window() {
        assert!(SimDate::from_days(100_000).is_err());
        assert!(SimDate::from_days(-100_000).is_err());
        assert!(SimDate::from_ymd(2017, 13, 1).is_err());
        assert!(SimDate::from_ymd(2017, 0, 1).is_err());
        assert!(SimDate::from_ymd(2017, 1, 32).is_err());
    }

    #[test]
    fn plus_days_and_ordering() {
        let d = SimDate::from_ymd(2017, 8, 15).unwrap();
        assert_eq!(d.plus_days(17).to_string(), "2017-09-01");
        assert!(d < d.plus_days(1));
        assert_eq!(d.plus_days(0), d);
    }

    #[test]
    fn from_str_round_trip() {
        for s in ["2017-08-15", "2008-01-01", "2016-02-29"] {
            let d: SimDate = s.parse().unwrap();
            assert_eq!(d.to_string(), s);
        }
        for bad in [
            "",
            "2017",
            "2017-13-01",
            "2017-02-30",
            "x-y-z",
            "2017-08-15-2",
        ] {
            assert!(bad.parse::<SimDate>().is_err(), "{bad}");
        }
    }

    #[test]
    fn years_before_epoch() {
        let d = SimDate::from_ymd(2006, 6, 15).unwrap();
        assert!(d.days() < 0);
        assert_eq!(d.year(), 2006);
        assert_eq!(d.to_string(), "2006-06-15");
    }
}
