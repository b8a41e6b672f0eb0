//! Sample statistics and response accounting shared by every workload.

/// Tail percentiles the benchmark may report, highest first.
pub const TAIL_PERCENTILES: [f64; 3] = [99.9, 99.0, 90.0];

/// Minimum number of samples that must lie beyond a percentile before it
/// is reported: with fewer, the "tail" is a handful of single events.
pub const MIN_BEYOND: usize = 10;

/// Number of the `n` samples that lie strictly beyond the `p`-th
/// percentile under the nearest-rank rule.
#[must_use]
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(nearest_rank(n, p))
}

/// One-based nearest rank of the `p`-th percentile of `n` samples
/// (`ceil(p/100 · n)`, at least 1), in integer per-mille arithmetic so
/// that e.g. p99.9 of 10 000 samples is rank 9 990 exactly.
fn nearest_rank(n: usize, p: f64) -> usize {
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let per_mille = (p * 10.0).round().clamp(0.0, 1000.0) as usize;
    (per_mille * n).div_ceil(1000).clamp(1, n.max(1))
}

/// The highest percentile of [`TAIL_PERCENTILES`] with at least
/// [`MIN_BEYOND`] of `n` samples beyond it, or `None` when even the
/// lowest one has too few.
#[must_use]
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_PERCENTILES.into_iter().find(|&p| samples_beyond(n, p) >= MIN_BEYOND)
}

/// The `p`-th percentile of `samples` by nearest rank (`NaN` when empty).
#[must_use]
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// Median of `samples`: the mean of the two middle values for an even
/// count (`NaN` when empty).
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Typed error lines of serve responses, counted by protocol code.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ErrorCounts {
    /// `saturated`: the tenant's lane queue was full.
    pub saturated: u64,
    /// `over_budget`: the global memory budget refused ingest.
    pub over_budget: u64,
    /// `proto`: the daemon could not parse the request.
    pub proto: u64,
    /// Any other code (`unknown_tenant`, `series`, `shutting_down`, ...).
    pub other: u64,
}

impl ErrorCounts {
    /// Total typed error lines.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.saturated + self.over_budget + self.proto + self.other
    }

    /// Counts the `{"event":"error","code":...}` lines of one response
    /// into `self`; returns whether the response carried any.
    pub fn count_response(&mut self, lines: &[String]) -> bool {
        let before = self.total();
        for line in lines {
            if !line.contains("\"event\":\"error\"") {
                continue;
            }
            match json_field(line, "code") {
                Some("saturated") => self.saturated += 1,
                Some("over_budget") => self.over_budget += 1,
                Some("proto") => self.proto += 1,
                _ => self.other += 1,
            }
        }
        self.total() > before
    }

    /// Adds another tally into this one.
    pub fn merge(&mut self, other: &Self) {
        self.saturated += other.saturated;
        self.over_budget += other.over_budget;
        self.proto += other.proto;
        self.other += other.other;
    }
}

/// Failed operations as a share of those attempted (0 when none ran).
#[must_use]
pub fn error_rate(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        return 0.0;
    }
    #[allow(clippy::cast_precision_loss)]
    {
        failed as f64 / attempted as f64
    }
}

/// The string value of `"key":"value"` in a one-line JSON object, for
/// the flat objects the serve protocol emits.
#[must_use]
pub fn json_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pattern = format!("\"{key}\":\"");
    let start = line.find(&pattern)? + pattern.len();
    let len = line[start..].find('"')?;
    Some(&line[start..start + len])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_is_the_highest_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn samples_beyond_follows_the_nearest_rank() {
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(101, 90.0), 10);
        assert_eq!(samples_beyond(110, 90.0), 11);
        assert_eq!(samples_beyond(20, 50.0), 10);
        assert_eq!(samples_beyond(1, 50.0), 0);
        assert_eq!(samples_beyond(0, 90.0), 0);
    }

    #[test]
    fn percentile_and_median_by_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(median(&v), 50.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn error_lines_are_counted_by_code() {
        let lines = |v: &[&str]| v.iter().map(|s| (*s).to_string()).collect::<Vec<_>>();
        let mut counts = ErrorCounts::default();
        assert!(!counts.count_response(&lines(&[
            "{\"event\":\"append\",\"tenant\":\"t0\",\"accepted\":16}",
            "{\"event\":\"update\",\"offset\":3}",
        ])));
        assert!(counts.count_response(&lines(&[
            "{\"event\":\"error\",\"code\":\"saturated\",\"message\":\"lane full\"}"
        ])));
        counts.count_response(&lines(&[
            "{\"event\":\"error\",\"code\":\"over_budget\",\"message\":\"m\"}",
        ]));
        counts.count_response(&lines(&[
            "{\"event\":\"error\",\"code\":\"proto\",\"message\":\"m\"}",
        ]));
        counts.count_response(&lines(&[
            "{\"event\":\"error\",\"code\":\"unknown_tenant\",\"message\":\"m\"}",
        ]));
        assert_eq!(counts, ErrorCounts { saturated: 1, over_budget: 1, proto: 1, other: 1 });
        assert_eq!(counts.total(), 4);
        // Five operations with four typed errors among them.
        assert_eq!(error_rate(counts.total(), 5), 0.8);
        assert_eq!(error_rate(0, 0), 0.0);
    }
}
