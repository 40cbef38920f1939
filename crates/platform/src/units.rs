//! Readable constructors and conversions for durations (seconds).
//!
//! The whole workspace manipulates time as `f64` seconds.  These helpers keep
//! scenario definitions readable and identical to the way the paper states
//! its parameters ("C = R = 10 minutes",
//! "T0 = 1 week", ...).

/// One second, the base time unit.
pub const SECOND: f64 = 1.0;
/// Seconds in a minute.
pub const MINUTE: f64 = 60.0;
/// Seconds in an hour.
pub const HOUR: f64 = 3_600.0;
/// Seconds in a day.
pub const DAY: f64 = 86_400.0;
/// Seconds in a week.
pub const WEEK: f64 = 604_800.0;

/// Converts `x` seconds to seconds (identity, for symmetry).
#[inline]
pub fn seconds(x: f64) -> f64 {
    x
}

/// Converts `x` minutes to seconds.
#[inline]
pub fn minutes(x: f64) -> f64 {
    x * MINUTE
}

/// Converts `x` hours to seconds.
#[inline]
pub fn hours(x: f64) -> f64 {
    x * HOUR
}

/// Converts `x` days to seconds.
#[inline]
pub fn days(x: f64) -> f64 {
    x * DAY
}

/// Converts `x` weeks to seconds.
#[inline]
pub fn weeks(x: f64) -> f64 {
    x * WEEK
}

/// Formats a duration in seconds using the largest unit that keeps the value
/// readable (e.g. `90.0` becomes `"1.50 min"`).
pub fn format_duration(secs: f64) -> String {
    let abs = secs.abs();
    if abs >= WEEK {
        format!("{:.2} w", secs / WEEK)
    } else if abs >= DAY {
        format!("{:.2} d", secs / DAY)
    } else if abs >= HOUR {
        format!("{:.2} h", secs / HOUR)
    } else if abs >= MINUTE {
        format!("{:.2} min", secs / MINUTE)
    } else {
        format!("{secs:.2} s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_ratios_are_consistent() {
        assert_eq!(minutes(1.0), 60.0);
        assert_eq!(hours(1.0), 60.0 * 60.0);
        assert_eq!(days(1.0), 24.0 * hours(1.0));
        assert_eq!(weeks(1.0), 7.0 * days(1.0));
    }

    #[test]
    fn paper_parameters_round_trip() {
        // The paper's headline parameters: T0 = 1 week, C = R = 10 min, D = 1 min.
        assert_eq!(weeks(1.0), 604_800.0);
        assert_eq!(minutes(10.0), 600.0);
        assert_eq!(minutes(1.0), 60.0);
    }

    #[test]
    fn duration_formatting_picks_units() {
        assert_eq!(format_duration(30.0), "30.00 s");
        assert_eq!(format_duration(90.0), "1.50 min");
        assert_eq!(format_duration(hours(2.0)), "2.00 h");
        assert_eq!(format_duration(days(3.0)), "3.00 d");
        assert_eq!(format_duration(weeks(1.0)), "1.00 w");
    }
}
