//! Sample statistics with the tail rule the benchmark reports under.
//!
//! A percentile is reported only when at least [`MIN_BEYOND`] samples lie
//! beyond it: a p99 over 200 samples is a single observation and says
//! nothing. Percentiles use the nearest-rank definition on sorted samples.
//!
//! A run reports the [`interquartile_mean`] over [`windows`] of
//! consecutive samples, not one figure over the whole run. The host's
//! speed flips between two states some 1.6× apart (a shared core's
//! sibling busy or idle) for seconds at a time: a median over the run
//! lands in whichever state held the most time and jumps between them
//! from run to run, while the mean of the middle half of the windows
//! moves with the share of time in each and leaves out the outliers.

use std::ops::Range;
use std::time::Instant;

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index (0-based) of percentile `p` (in `0..=1`) among `n`
/// sorted samples.
fn rank(p: f64, n: usize) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// The `p` percentile of `samples`, refused when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    let n = samples.len();
    if n == 0 {
        return Err(format!("p{} of no samples", p * 100.0));
    }
    let r = rank(p, n);
    let beyond = n - 1 - r;
    if beyond < MIN_BEYOND {
        return Err(format!(
            "p{} of {n} samples has only {beyond} beyond it (need {MIN_BEYOND})",
            p * 100.0
        ));
    }
    Ok(sorted(samples)[r])
}

/// The median, or 0 for no samples. For per-layer figures, where a layer
/// a workload bypasses legitimately has nothing to report.
pub fn median_or_zero(samples: &[f64]) -> f64 {
    median(samples).unwrap_or(0.0)
}

/// The mean, or 0 for no samples.
pub fn mean_or_zero(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// The median by the middle-element rule; `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let s = sorted(samples);
    let m = s.len() / 2;
    Some(if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    })
}

/// The mean of the middle half of `samples` (between the first and the
/// third quartile, by position in sorted order); `None` when empty.
pub fn interquartile_mean(samples: &[f64]) -> Option<f64> {
    let s = sorted(samples);
    let n = s.len();
    if n == 0 {
        return None;
    }
    let (lo, hi) = (n / 4, n - n / 4);
    let middle = &s[lo..hi];
    Some(middle.iter().sum::<f64>() / middle.len() as f64)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Consecutive windows of at least `size` samples over the sorted
/// completion times `ends` — `size` each, the last also taking the
/// remainder; none if fewer than `size` — each with the rate its samples
/// completed at: their count over the time from the end of the window
/// before it (or `start`, for the first) to its own last end.
pub fn windows(ends: &[Instant], size: usize, start: Instant) -> Vec<(Range<usize>, f64)> {
    let size = size.max(1);
    let count = ends.len() / size;
    (0..count)
        .map(|k| {
            let last = if k + 1 == count {
                ends.len()
            } else {
                (k + 1) * size
            };
            let range = k * size..last;
            let from = if k == 0 { start } else { ends[range.start - 1] };
            let span = ends[last - 1].saturating_duration_since(from);
            let rate = range.len() as f64 / span.as_secs_f64().max(1e-9);
            (range, rate)
        })
        .collect()
}

/// Client round trip minus server-side latency, per op, weighted by each
/// op's client-side request count: how much of a round trip is spent
/// outside the handler (transport, framing, queueing, the client itself).
/// Each entry is `(client_count, client_quantile_us, server_quantile_us)`.
pub fn weighted_gap(per_op: &[(u64, f64, f64)]) -> f64 {
    let total: u64 = per_op.iter().map(|&(n, _, _)| n).sum();
    if total == 0 {
        return 0.0;
    }
    per_op
        .iter()
        .map(|&(n, client, server)| n as f64 * (client - server))
        .sum::<f64>()
        / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).rev().collect()
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        // 1000 samples: rank 990, ten beyond it.
        assert_eq!(percentile(&ramp(1000), 0.99), Ok(990.0));
        // 999 samples: only nine beyond p99 — refused.
        let err = percentile(&ramp(999), 0.99).unwrap_err();
        assert!(err.contains("only 9 beyond"), "{err}");
        assert!(percentile(&[], 0.5).is_err());
    }

    #[test]
    fn p90_and_p50_follow_the_same_rule() {
        assert_eq!(percentile(&ramp(100), 0.90), Ok(90.0));
        assert!(percentile(&ramp(99), 0.90).is_err());
        assert_eq!(percentile(&ramp(20), 0.5), Ok(10.0));
        assert!(percentile(&ramp(19), 0.5).is_err());
    }

    #[test]
    fn lenient_summaries() {
        assert_eq!(median_or_zero(&[]), 0.0);
        assert_eq!(median_or_zero(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_or_zero(&[4.0, 1.0]), 2.5);
        assert_eq!(mean_or_zero(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn interquartile_mean_drops_the_outer_quarters() {
        // 8 samples: the lowest two and the highest two are left out.
        let v = [100.0, 1.0, 3.0, 5.0, 4.0, 6.0, -50.0, 2.0];
        assert_eq!(interquartile_mean(&v), Some(3.5));
        // Under four samples nothing is dropped.
        assert_eq!(interquartile_mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(interquartile_mean(&[7.0]), Some(7.0));
        assert_eq!(interquartile_mean(&[]), None);
    }

    #[test]
    fn windows_split_in_order_and_the_last_takes_the_remainder() {
        use std::time::Duration;
        let start = Instant::now();
        // A sample completes every 10 ms, then every 40 ms from the 5th on.
        let mut t = start;
        let ends: Vec<Instant> = (0..11)
            .map(|i| {
                t += Duration::from_millis(if i < 4 { 10 } else { 40 });
                t
            })
            .collect();
        let w = windows(&ends, 4, start);
        assert_eq!(w.len(), 2);
        assert_eq!(w[0].0, 0..4);
        assert_eq!(w[1].0, 4..11, "the last three samples join the last window");
        // 4 samples in 40 ms, then 7 in 280 ms.
        assert!((w[0].1 - 100.0).abs() < 1e-6, "{}", w[0].1);
        assert!((w[1].1 - 25.0).abs() < 1e-6, "{}", w[1].1);
        // Too few for one window: none; under two windows' worth: one.
        assert!(windows(&ends[..3], 4, start).is_empty());
        assert_eq!(windows(&ends[..7], 4, start)[0].0, 0..7);
    }

    #[test]
    fn wire_gap_subtracts_server_time_per_op() {
        // NextQuestion: 900 requests, 40 µs client vs 3 µs server;
        // Answer: 100 requests, 50 µs client vs 10 µs server.
        let gap = weighted_gap(&[(900, 40.0, 3.0), (100, 50.0, 10.0)]);
        assert!((gap - (0.9 * 37.0 + 0.1 * 40.0)).abs() < 1e-9, "{gap}");
        // An op the client never sent contributes nothing.
        assert_eq!(weighted_gap(&[(0, 99.0, 1.0)]), 0.0);
        // A server slower than the client view (histogram bucketing) is
        // reported as a negative gap, not clamped away.
        assert!(weighted_gap(&[(1, 10.0, 12.0)]) < 0.0);
    }
}
