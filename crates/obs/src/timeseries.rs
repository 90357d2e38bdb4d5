//! Windowed time-series rings over metric snapshots.
//!
//! The registry (and [`MetricsSnapshot`]) is *cumulative*: it answers "how
//! many frames were shed since the process started", never "how many were
//! shed in the last five scheduling windows". A [`SeriesRecorder`] closes
//! that gap: [`SeriesRecorder::capture`] diffs consecutive snapshots at a
//! fixed cadence (the serving gateway drives it once per virtual-time
//! scheduling window; standalone users call
//! [`capture_series`](crate::capture_series), which stamps windows with the
//! injectable [`Clock`](crate::Clock)) and stores the per-window deltas in
//! bounded rings, one per counter and one per histogram. Gauges are left
//! out: a gauge is a level, not a count, and no query (nor any
//! [`SloObjective`](crate::SloObjective)) reads one.
//!
//! Everything here is plain data, compiled regardless of the `enabled`
//! feature, so the gateway can feed a recorder from its own
//! deterministic counters even in an obs-off build. Capture is strictly
//! passive: nothing read from a recorder feeds back into computation.
//!
//! Invariants:
//!
//! * every per-metric ring holds exactly [`SeriesRecorder::windows`] entries
//!   (metrics that appear mid-run are back-filled with zeros, metrics that
//!   go quiet keep receiving zero deltas), so window `i` of any two series
//!   refers to the same capture;
//! * rings are bounded by the capacity chosen at construction — a recorder
//!   over a 100k-window run holds the last `capacity` windows, never the
//!   whole history;
//! * counter deltas saturate at zero: an external `reset()` between windows
//!   shows up as the post-reset total, not an underflow.

use std::collections::{BTreeMap, VecDeque};

use crate::snapshot::{FixedHistogram, MetricsSnapshot};

/// Per-window deltas of one counter.
#[derive(Debug, Clone, PartialEq, Eq)]
struct CounterSeries {
    /// Cumulative total at the last capture (delta baseline).
    last_total: u64,
    deltas: VecDeque<u64>,
}

/// Per-window delta histograms of one histogram metric.
#[derive(Debug, Clone, PartialEq)]
struct HistogramSeries {
    /// Cumulative histogram at the last capture (delta baseline).
    last: FixedHistogram,
    deltas: VecDeque<FixedHistogram>,
}

/// Bounded per-metric rings of fixed-interval registry deltas, with
/// windowed rate/delta/quantile queries. The private `timeseries` module's
/// docs describe the capture model.
///
/// # Examples
///
/// ```
/// use anole_obs::{CounterSample, MetricsSnapshot, SeriesRecorder};
///
/// let mut rec = SeriesRecorder::new(8);
/// for (tick, total) in [(0u64, 0u64), (33, 4), (66, 10)] {
///     let snap = MetricsSnapshot {
///         counters: vec![CounterSample { name: "gw.frames".into(), value: total }],
///         ..MetricsSnapshot::default()
///     };
///     rec.capture(tick, &snap);
/// }
/// assert_eq!(rec.delta("gw.frames", 2), 10); // last two windows: 4 + 6
/// assert_eq!(rec.rate("gw.frames", 2), 5.0); // per window
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesRecorder {
    capacity: usize,
    /// Total captures taken, including windows evicted from the rings.
    total_windows: u64,
    /// Clock tick of each retained window, oldest first.
    ticks: VecDeque<u64>,
    counters: BTreeMap<String, CounterSeries>,
    histograms: BTreeMap<String, HistogramSeries>,
}

impl SeriesRecorder {
    /// Creates a recorder retaining the last `capacity` windows per metric.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "a series recorder needs at least one window");
        Self {
            capacity,
            total_windows: 0,
            ticks: VecDeque::new(),
            counters: BTreeMap::new(),
            histograms: BTreeMap::new(),
        }
    }

    /// Captures one window: diffs `snap`'s counters and histograms against
    /// the previous capture and pushes the delta into every metric's ring.
    /// Gauges are not captured: no query reads them. `tick` stamps the window
    /// (the gateway passes its virtual-time milliseconds;
    /// [`capture_series`](crate::capture_series) passes the injected
    /// clock's tick).
    pub fn capture(&mut self, tick: u64, snap: &MetricsSnapshot) {
        self.total_windows += 1;
        self.ticks.push_back(tick);
        if self.ticks.len() > self.capacity {
            self.ticks.pop_front();
        }
        let backfill = self.ticks.len() - 1;
        let cap = self.capacity;

        for c in &snap.counters {
            self.counters.entry(c.name.clone()).or_insert_with(|| CounterSeries {
                last_total: 0,
                deltas: std::iter::repeat_n(0, backfill).collect(),
            });
        }
        let lookup: BTreeMap<&str, u64> =
            snap.counters.iter().map(|c| (c.name.as_str(), c.value)).collect();
        for (name, series) in &mut self.counters {
            let delta = match lookup.get(name.as_str()) {
                // A total below the baseline means the registry was reset
                // between captures; the post-reset total is the delta.
                Some(&total) if total < series.last_total => {
                    series.last_total = total;
                    total
                }
                Some(&total) => {
                    let d = total - series.last_total;
                    series.last_total = total;
                    d
                }
                None => 0,
            };
            series.deltas.push_back(delta);
            while series.deltas.len() > cap {
                series.deltas.pop_front();
            }
        }

        for h in &snap.histograms {
            self.histograms.entry(h.name.clone()).or_insert_with(|| HistogramSeries {
                last: FixedHistogram::new(h.histogram.bounds()),
                deltas: std::iter::repeat_n(FixedHistogram::new(h.histogram.bounds()), backfill)
                    .collect(),
            });
        }
        for (name, series) in &mut self.histograms {
            let delta = match snap.histograms.iter().find(|h| h.name == *name) {
                Some(sample) => {
                    let d = histogram_delta(&series.last, &sample.histogram);
                    series.last = sample.histogram.clone();
                    d
                }
                None => FixedHistogram::new(series.last.bounds()),
            };
            series.deltas.push_back(delta);
            while series.deltas.len() > cap {
                series.deltas.pop_front();
            }
        }
    }

    /// Windows currently retained (≤ capacity).
    pub fn windows(&self) -> usize {
        self.ticks.len()
    }

    /// Total captures taken, including windows evicted from the rings.
    pub fn total_windows(&self) -> u64 {
        self.total_windows
    }

    /// Distinct metric names with a series, sorted.
    pub fn metric_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> =
            self.counters.keys().chain(self.histograms.keys()).map(String::as_str).collect();
        names.sort_unstable();
        names.dedup();
        names
    }

    /// Sum of a counter's deltas over the last `n_windows` retained windows
    /// (clamped to what the ring holds). Zero for unknown metrics.
    pub fn delta(&self, name: &str, n_windows: usize) -> u64 {
        let Some(series) = self.counters.get(name) else { return 0 };
        series.deltas.iter().rev().take(n_windows).sum()
    }

    /// Mean per-window rate of a counter over the last `n_windows` windows:
    /// `delta / min(n_windows, windows retained)`. Multiply by
    /// `1000 / window_ms` for an events-per-second reading.
    pub fn rate(&self, name: &str, n_windows: usize) -> f64 {
        let span = n_windows.min(self.windows()).max(1);
        self.delta(name, n_windows) as f64 / span as f64
    }

    /// Merge of a histogram's delta windows over the last `n_windows`
    /// windows. `None` for unknown metrics.
    pub fn merged_over(&self, name: &str, n_windows: usize) -> Option<FixedHistogram> {
        let series = self.histograms.get(name)?;
        let mut merged = FixedHistogram::new(series.last.bounds());
        for delta in series.deltas.iter().rev().take(n_windows) {
            merged.merge(delta);
        }
        Some(merged)
    }

    /// Quantile of a histogram metric over observations recorded in the
    /// last `n_windows` windows (histogram-merge, not an average of window
    /// quantiles). Zero for unknown or empty series.
    pub fn quantile_over(&self, name: &str, n_windows: usize, q: f64) -> f64 {
        self.merged_over(name, n_windows).map_or(0.0, |h| h.quantile(q))
    }
}

/// Bucket-wise difference `current − last` of two cumulative histograms.
/// Falls back to `current` whole when the layouts differ (re-registration)
/// or any bucket went backwards (reset between captures).
fn histogram_delta(last: &FixedHistogram, current: &FixedHistogram) -> FixedHistogram {
    if last.bounds() != current.bounds()
        || last.counts().iter().zip(current.counts()).any(|(l, c)| c < l)
    {
        return current.clone();
    }
    let counts: Vec<u64> =
        current.counts().iter().zip(last.counts()).map(|(c, l)| c - l).collect();
    FixedHistogram::from_parts(
        current.bounds(),
        counts,
        current.sum_micros() - last.sum_micros(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{CounterSample, GaugeSample, HistogramSample};

    impl SeriesRecorder {
        /// A counter's per-window deltas, oldest first.
        fn counter_deltas(&self, name: &str) -> Option<Vec<u64>> {
            self.counters.get(name).map(|s| s.deltas.iter().copied().collect())
        }
    }

    fn snap_with(
        counters: &[(&str, u64)],
        gauges: &[(&str, f64)],
        hists: &[(&str, FixedHistogram)],
    ) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: counters
                .iter()
                .map(|&(n, v)| CounterSample { name: n.into(), value: v })
                .collect(),
            gauges: gauges
                .iter()
                .map(|&(n, v)| GaugeSample { name: n.into(), value: v })
                .collect(),
            histograms: hists
                .iter()
                .map(|(n, h)| HistogramSample { name: (*n).into(), histogram: h.clone() })
                .collect(),
            ..MetricsSnapshot::default()
        }
    }

    #[test]
    fn timeseries_counter_deltas_and_rates() {
        let mut rec = SeriesRecorder::new(4);
        for (tick, total) in [(0, 0), (33, 5), (66, 5), (99, 17)] {
            rec.capture(tick, &snap_with(&[("a.b", total)], &[], &[]));
        }
        assert_eq!(rec.windows(), 4);
        assert_eq!(rec.counter_deltas("a.b").unwrap(), vec![0, 5, 0, 12]);
        assert_eq!(rec.delta("a.b", 1), 12);
        assert_eq!(rec.delta("a.b", 3), 17);
        assert_eq!(rec.delta("a.b", 100), 17);
        assert_eq!(rec.rate("a.b", 2), 6.0);
        assert_eq!(rec.delta("missing", 4), 0);
        assert_eq!(rec.ticks, [0, 33, 66, 99]);
    }

    #[test]
    fn timeseries_rings_are_bounded_and_aligned() {
        let mut rec = SeriesRecorder::new(3);
        for i in 0..10u64 {
            let mut counters = vec![("steady", i * 2)];
            // `late` only exists from window 5 on; its ring must stay
            // aligned (back-filled) with the others.
            if i >= 5 {
                counters.push(("late", i));
            }
            rec.capture(i, &snap_with(&counters, &[("g", i as f64)], &[]));
        }
        assert_eq!(rec.windows(), 3);
        assert_eq!(rec.total_windows(), 10);
        assert_eq!(rec.counter_deltas("steady").unwrap().len(), 3);
        assert_eq!(rec.counter_deltas("late").unwrap().len(), 3);
        assert_eq!(rec.counter_deltas("late").unwrap(), vec![1, 1, 1]);
        // The gauge `g` rode along in every snapshot but has no series.
        assert_eq!(rec.metric_names(), ["late", "steady"]);
    }

    #[test]
    fn timeseries_counter_reset_saturates_instead_of_underflowing() {
        let mut rec = SeriesRecorder::new(8);
        rec.capture(0, &snap_with(&[("c", 100)], &[], &[]));
        // Registry reset: the total went backwards.
        rec.capture(1, &snap_with(&[("c", 3)], &[], &[]));
        assert_eq!(rec.counter_deltas("c").unwrap(), vec![100, 3]);
    }

    #[test]
    fn timeseries_quantile_over_merges_windows() {
        let bounds = [1.0, 5.0, 10.0];
        let mut cumulative = FixedHistogram::new(&bounds);
        let mut rec = SeriesRecorder::new(8);
        rec.capture(0, &snap_with(&[], &[], &[("lat", cumulative.clone())]));
        // Window 1: 10 fast observations.
        for _ in 0..10 {
            cumulative.record(0.5);
        }
        rec.capture(1, &snap_with(&[], &[], &[("lat", cumulative.clone())]));
        // Window 2: 10 slow observations.
        for _ in 0..10 {
            cumulative.record(7.0);
        }
        rec.capture(2, &snap_with(&[], &[], &[("lat", cumulative.clone())]));
        // Last window alone is all-slow; merged over both it is mixed.
        assert_eq!(rec.quantile_over("lat", 1, 0.5), 10.0);
        assert_eq!(rec.quantile_over("lat", 2, 0.5), 1.0);
        assert_eq!(rec.quantile_over("lat", 2, 0.99), 10.0);
        assert_eq!(rec.merged_over("lat", 2).unwrap().count(), 20);
        assert_eq!(rec.quantile_over("missing", 2, 0.5), 0.0);
    }
}
