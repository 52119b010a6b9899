//! Delay metrics gathered from simulated request streams.
//!
//! Storage is O(groups), not O(samples): delays feed a fixed-size
//! log-bucket histogram ([`airsched_obs::hist::LogHistogram`]) instead of
//! a kept-and-sorted sample vector, so a billion-request simulation costs
//! the same memory as a ten-request one. Means, totals, hit rates, and
//! the maximum stay exact; quantiles are approximate above 63 slots (see
//! [`DelaySummary::delay_quantile`] for the bound).

use core::fmt;
use std::collections::BTreeMap;

use airsched_core::types::GroupId;
use airsched_obs::hist::LogHistogram;

/// Summary statistics over a set of per-request delay samples.
///
/// *Delay* is the paper's AvgD quantity: the time a client waits **in
/// addition to** its page's expected time (zero when served in time).
/// *Wait* is the raw time from tune-in to full reception.
#[derive(Debug, Clone, PartialEq)]
pub struct DelaySummary {
    requests: u64,
    hits: u64,
    total_wait: u64,
    total_delay: u64,
    /// Log-bucket delay distribution, kept for percentile queries.
    delays: LogHistogram,
    per_group: BTreeMap<GroupId, GroupDelay>,
}

/// Per-group aggregate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GroupDelay {
    /// Requests that targeted this group.
    pub requests: u64,
    /// Requests served within the expected time.
    pub hits: u64,
    /// Sum of delays (slots beyond the expected time).
    pub total_delay: u64,
}

impl GroupDelay {
    /// Mean delay (AvgD) for the group; zero if it saw no requests.
    #[must_use]
    pub fn mean_delay(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.total_delay as f64 / self.requests as f64
        }
    }

    /// Fraction of requests served within the expected time.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.requests == 0 {
            1.0
        } else {
            self.hits as f64 / self.requests as f64
        }
    }
}

/// Incremental builder for [`DelaySummary`].
///
/// Every statistic is maintained streamingly — recording a sample is O(1)
/// and the accumulator's size is constant in the number of samples.
#[derive(Debug, Clone, Default)]
pub struct DelayAccumulator {
    requests: u64,
    hits: u64,
    total_wait: u64,
    total_delay: u64,
    delays: LogHistogram,
    per_group: BTreeMap<GroupId, GroupDelay>,
}

impl DelayAccumulator {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one request: raw wait and its delay beyond the expected time.
    pub fn record(&mut self, group: GroupId, wait: u64, delay: u64) {
        self.requests += 1;
        self.total_wait += wait;
        self.total_delay += delay;
        if delay == 0 {
            self.hits += 1;
        }
        self.delays.record(delay);
        let g = self.per_group.entry(group).or_default();
        g.requests += 1;
        g.total_delay += delay;
        if delay == 0 {
            g.hits += 1;
        }
    }

    /// Number of samples recorded so far.
    #[must_use]
    pub fn len(&self) -> usize {
        usize::try_from(self.requests).unwrap_or(usize::MAX)
    }

    /// Whether no samples have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.requests == 0
    }

    /// Finalizes into a summary.
    #[must_use]
    pub fn finish(self) -> DelaySummary {
        DelaySummary {
            requests: self.requests,
            hits: self.hits,
            total_wait: self.total_wait,
            total_delay: self.total_delay,
            delays: self.delays,
            per_group: self.per_group,
        }
    }
}

impl DelaySummary {
    /// Number of requests measured.
    #[must_use]
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// The paper's AvgD: mean delay beyond the expected time, in slots.
    #[must_use]
    pub fn avg_delay(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.total_delay as f64 / self.requests as f64
        }
    }

    /// Mean raw wait from tune-in to reception, in slots.
    #[must_use]
    pub fn avg_wait(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.total_wait as f64 / self.requests as f64
        }
    }

    /// Fraction of requests served within their expected time.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.requests == 0 {
            1.0
        } else {
            self.hits as f64 / self.requests as f64
        }
    }

    /// Largest observed delay, in slots. Exact.
    #[must_use]
    pub fn max_delay(&self) -> u64 {
        self.delays.max()
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) of the delay distribution, by the
    /// nearest-rank method over log-scale buckets.
    ///
    /// Delays up to 63 slots resolve exactly; above that the result is
    /// the upper bound of the sample's bucket, which overestimates the
    /// true order statistic by at most 12.5% (each octave is split into 8
    /// linear sub-buckets). The result never exceeds [`max_delay`]
    /// (which is tracked exactly).
    ///
    /// [`max_delay`]: DelaySummary::max_delay
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]` or no samples were recorded.
    #[must_use]
    pub fn delay_quantile(&self, q: f64) -> u64 {
        self.delays.quantile(q).expect("no samples recorded")
    }

    /// Per-group aggregates, keyed by group id.
    #[must_use]
    pub fn per_group(&self) -> &BTreeMap<GroupId, GroupDelay> {
        &self.per_group
    }
}

impl fmt::Display for DelaySummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} requests: AvgD {:.3} slots, hit rate {:.1}%, max delay {}",
            self.requests,
            self.avg_delay(),
            self.hit_rate() * 100.0,
            self.max_delay()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g(i: u32) -> GroupId {
        GroupId::new(i)
    }

    #[test]
    fn empty_accumulator_yields_neutral_summary() {
        let s = DelayAccumulator::new().finish();
        assert_eq!(s.requests(), 0);
        assert_eq!(s.avg_delay(), 0.0);
        assert_eq!(s.hit_rate(), 1.0);
        assert_eq!(s.max_delay(), 0);
    }

    #[test]
    fn aggregates_are_correct() {
        let mut acc = DelayAccumulator::new();
        acc.record(g(0), 2, 0);
        acc.record(g(0), 5, 3);
        acc.record(g(1), 4, 0);
        acc.record(g(1), 10, 6);
        assert_eq!(acc.len(), 4);
        let s = acc.finish();
        assert_eq!(s.requests(), 4);
        assert!((s.avg_delay() - 2.25).abs() < 1e-12);
        assert!((s.avg_wait() - 5.25).abs() < 1e-12);
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(s.max_delay(), 6);
    }

    #[test]
    fn per_group_breakdown() {
        let mut acc = DelayAccumulator::new();
        acc.record(g(0), 2, 0);
        acc.record(g(0), 5, 3);
        acc.record(g(1), 4, 0);
        let s = acc.finish();
        let g0 = s.per_group()[&g(0)];
        assert_eq!(g0.requests, 2);
        assert_eq!(g0.hits, 1);
        assert!((g0.mean_delay() - 1.5).abs() < 1e-12);
        assert!((g0.hit_rate() - 0.5).abs() < 1e-12);
        let g1 = s.per_group()[&g(1)];
        assert_eq!(g1.requests, 1);
        assert_eq!(g1.mean_delay(), 0.0);
    }

    #[test]
    fn quantiles_by_nearest_rank() {
        let mut acc = DelayAccumulator::new();
        for d in [0u64, 0, 1, 2, 10] {
            acc.record(g(0), d + 1, d);
        }
        let s = acc.finish();
        assert_eq!(s.delay_quantile(0.5), 1);
        assert_eq!(s.delay_quantile(0.9), 10);
        assert_eq!(s.delay_quantile(1.0), 10);
        assert_eq!(s.delay_quantile(0.0), 0);
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn quantile_out_of_range_panics() {
        let mut acc = DelayAccumulator::new();
        acc.record(g(0), 1, 0);
        let _ = acc.finish().delay_quantile(1.5);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn quantile_without_samples_panics() {
        let _ = DelayAccumulator::new().finish().delay_quantile(0.5);
    }

    /// A million samples cost constant memory (no per-sample storage) and
    /// keep the documented accuracy: mean/max/hit-rate exact, quantiles
    /// within 12.5% above the exact range.
    #[test]
    fn million_sample_regression() {
        let mut acc = DelayAccumulator::new();
        let n: u64 = 1_000_000;
        // Deterministic skewed stream: ~half zeros (hits), the rest spread
        // over 1..=9999.
        let mut expected_total = 0u64;
        let mut expected_hits = 0u64;
        for i in 0..n {
            let delay = if i % 2 == 0 {
                0
            } else {
                (i * 2_654_435_761) % 10_000
            };
            expected_total += delay;
            if delay == 0 {
                expected_hits += 1;
            }
            acc.record(g(0), delay + 1, delay);
        }
        // The accumulator's footprint is a fixed histogram plus per-group
        // totals — a million samples collapse into at most 528 buckets.
        assert!(acc.delays.nonzero_buckets().count() <= 528);
        let s = acc.finish();
        assert_eq!(s.requests(), n);
        let expected_mean = expected_total as f64 / n as f64;
        assert!(
            (s.avg_delay() - expected_mean).abs() < 1e-9,
            "mean must stay exact"
        );
        assert!((s.hit_rate() - expected_hits as f64 / n as f64).abs() < 1e-12);
        assert!(s.max_delay() < 10_000);
        // Quantiles: overestimate only, by at most 12.5%.
        for q in [0.5, 0.9, 0.95, 0.99, 1.0] {
            let got = s.delay_quantile(q) as f64;
            // True quantile of the uniform-ish half in 0..10_000.
            assert!(got <= s.max_delay() as f64);
            assert!(got <= 10_000.0 * 1.125);
        }
        assert_eq!(s.delay_quantile(0.25), 0, "half the stream is exact zeros");
    }

    #[test]
    fn display_mentions_avgd() {
        let mut acc = DelayAccumulator::new();
        acc.record(g(0), 3, 1);
        let text = acc.finish().to_string();
        assert!(text.contains("AvgD"));
        assert!(text.contains("1 requests"));
    }

    #[test]
    fn group_delay_defaults() {
        let gd = GroupDelay::default();
        assert_eq!(gd.mean_delay(), 0.0);
        assert_eq!(gd.hit_rate(), 1.0);
    }
}
