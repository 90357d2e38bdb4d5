//! Declarative SLOs with multi-window burn-rate alerting.
//!
//! An [`SloSpec`] states an objective over metrics held in a
//! [`SeriesRecorder`](crate::SeriesRecorder): either a counter ratio
//! ("`gateway.frames.shed / gateway.frames.total ≤ 0.1%`") or a histogram
//! quantile ("`p99(omi.step.latency_ms) ≤ deadline_ms`"). The
//! [`SloEngine`] evaluates every spec once per captured window with the
//! Google-SRE multi-window burn-rate recipe: a *fast* burn over the last
//! window pages immediately on severe budget burn, and a *slow* burn over
//! the last N windows warns on sustained moderate burn. Both alerts are
//! edge-triggered — one [`SloAlert`] when the condition starts holding,
//! re-armed only after a window where it does not.
//!
//! Burn rate is `error_ratio / error_budget`. A latency-quantile objective
//! is evaluated in the same ratio form: with objective `q`, the budget is
//! `1 − q` and the error ratio is the fraction of observations *not*
//! provably at or below the limit
//! ([`FixedHistogram::count_le`](crate::FixedHistogram::count_le)), which
//! is exact under the fixed bucket layouts and strictly monotone in load —
//! unlike comparing a coarse bucket-boundary quantile against the limit.
//!
//! Everything here is plain deterministic data (no clock, no registry
//! access), compiled regardless of the `enabled` feature, so the serving
//! gateway can run an `SloEngine` off its own deterministic window
//! counters in an obs-off build and produce byte-stable alerts.

use anole_json::{json_enum, json_struct};

use crate::timeseries::SeriesRecorder;

/// Default fast-burn threshold: 14.4× burn over one window consumes a
/// 30-day budget in 2 days — the classic page threshold.
const DEFAULT_FAST_BURN: f64 = 14.4;
/// Default slow-burn threshold: 6× sustained burn — the classic warn
/// (ticket) threshold.
const DEFAULT_SLOW_BURN: f64 = 6.0;
/// Default long-window span, in captured windows.
pub const DEFAULT_SLOW_WINDOWS: usize = 12;

/// What an SLO measures.
#[derive(Debug, Clone, PartialEq)]
pub enum SloObjective {
    /// `bad / total ≤ budget`, both counters. Windows where `total` has no
    /// increments are skipped (no traffic, no burn).
    ErrorRatio {
        bad: String,
        total: String,
        budget: f64,
    },
    /// `q`-quantile of `histogram` must stay `≤ limit`. Evaluated as an
    /// error ratio with budget `1 − q` (see the module docs).
    LatencyQuantile {
        histogram: String,
        q: f64,
        limit: f64,
    },
}

/// A declarative service-level objective plus its burn-rate thresholds.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSpec {
    pub name: String,
    pub objective: SloObjective,
    /// Burn multiple over the last window that fires a [`AlertSeverity::Page`].
    pub fast_burn: f64,
    /// Burn multiple over the last `slow_windows` that fires a
    /// [`AlertSeverity::Warn`].
    pub slow_burn: f64,
    /// Long-window span; the slow condition is not evaluated until the
    /// recorder has captured this many windows.
    pub slow_windows: usize,
}

impl SloSpec {
    /// Counter-ratio SLO, e.g. `error_ratio("gateway.shed-ratio",
    /// "gateway.frames.shed", "gateway.frames.total", 0.001)`.
    pub fn error_ratio(
        name: impl Into<String>,
        bad: impl Into<String>,
        total: impl Into<String>,
        budget: f64,
    ) -> Self {
        assert!(budget > 0.0, "error budget must be positive");
        Self {
            name: name.into(),
            objective: SloObjective::ErrorRatio {
                bad: bad.into(),
                total: total.into(),
                budget,
            },
            fast_burn: DEFAULT_FAST_BURN,
            slow_burn: DEFAULT_SLOW_BURN,
            slow_windows: DEFAULT_SLOW_WINDOWS,
        }
    }

    /// Histogram-quantile SLO, e.g. `quantile("omi.step-p99",
    /// "omi.step.latency_ms", 0.99, 100.0)`.
    pub fn quantile(
        name: impl Into<String>,
        histogram: impl Into<String>,
        q: f64,
        limit: f64,
    ) -> Self {
        assert!((0.0..1.0).contains(&q), "quantile must be in [0, 1)");
        Self {
            name: name.into(),
            objective: SloObjective::LatencyQuantile {
                histogram: histogram.into(),
                q,
                limit,
            },
            fast_burn: DEFAULT_FAST_BURN,
            slow_burn: DEFAULT_SLOW_BURN,
            slow_windows: DEFAULT_SLOW_WINDOWS,
        }
    }

    pub fn with_slow_windows(mut self, windows: usize) -> Self {
        self.slow_windows = windows.max(1);
        self
    }

    /// The objective's error budget (for `LatencyQuantile`, `1 − q`).
    pub fn budget(&self) -> f64 {
        match &self.objective {
            SloObjective::ErrorRatio { budget, .. } => *budget,
            SloObjective::LatencyQuantile { q, .. } => 1.0 - q,
        }
    }

    /// Error ratio over the last `n_windows`, or `None` when the span saw
    /// no traffic.
    fn error_ratio_over(&self, series: &SeriesRecorder, n_windows: usize) -> Option<f64> {
        match &self.objective {
            SloObjective::ErrorRatio { bad, total, .. } => {
                let total = series.delta(total, n_windows);
                if total == 0 {
                    return None;
                }
                let bad = series.delta(bad, n_windows);
                Some(bad as f64 / total as f64)
            }
            SloObjective::LatencyQuantile { histogram, limit, .. } => {
                let merged = series.merged_over(histogram, n_windows)?;
                if merged.count() == 0 {
                    return None;
                }
                let good = merged.count_le(*limit);
                Some(1.0 - good as f64 / merged.count() as f64)
            }
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertSeverity {
    /// Fast-burn over the last window: wake someone up.
    Page,
    /// Slow-burn over the long window: file a ticket.
    Warn,
}

/// One fired burn-rate alert. Alerts are plain data and compare bytewise
/// (`burn_rate` is derived from integer counter deltas, so identical runs
/// produce identical alerts).
#[derive(Debug, Clone, PartialEq)]
pub struct SloAlert {
    /// `SloSpec::name` of the violated objective.
    pub slo: String,
    pub severity: AlertSeverity,
    /// Capture index ([`SeriesRecorder::total_windows`]) when the alert
    /// fired, 1-based.
    pub window: u64,
    /// Burn multiple observed (`error_ratio / budget`).
    pub burn_rate: f64,
    pub budget: f64,
    /// Human-oriented summary, e.g. `fast burn 22.1x >= 14.4x over 1 window`.
    pub detail: String,
}

json_enum!(write SloObjective {
    ErrorRatio { bad, total, budget },
    LatencyQuantile { histogram, q, limit },
});
json_struct!(write SloSpec { name, objective, fast_burn, slow_burn, slow_windows });
json_enum!(write AlertSeverity { Page, Warn });
json_struct!(write SloAlert { slo, severity, window, burn_rate, budget, detail });

#[derive(Debug, Clone, Default, PartialEq)]
struct SpecState {
    fast_active: bool,
    slow_active: bool,
}

/// Evaluates a set of [`SloSpec`]s against a [`SeriesRecorder`], firing
/// edge-triggered multi-window burn-rate alerts.
///
/// # Examples
///
/// ```
/// use anole_obs::{CounterSample, MetricsSnapshot, SeriesRecorder, SloEngine, SloSpec};
///
/// let mut series = SeriesRecorder::new(16);
/// let mut engine = SloEngine::new(vec![SloSpec::error_ratio(
///     "shed-ratio", "frames.shed", "frames.total", 0.001,
/// )]);
/// for (tick, shed, total) in [(0, 0, 100), (1, 50, 200)] {
///     let snap = MetricsSnapshot {
///         counters: vec![
///             CounterSample { name: "frames.shed".into(), value: shed },
///             CounterSample { name: "frames.total".into(), value: total },
///         ],
///         ..MetricsSnapshot::default()
///     };
///     series.capture(tick, &snap);
///     engine.evaluate(&series);
/// }
/// assert_eq!(engine.pages(), 1); // 50% shed vs 0.1% budget = 500x burn
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SloEngine {
    specs: Vec<SloSpec>,
    state: Vec<SpecState>,
    alerts: Vec<SloAlert>,
}

impl SloEngine {
    pub fn new(specs: Vec<SloSpec>) -> Self {
        let state = vec![SpecState::default(); specs.len()];
        Self {
            specs,
            state,
            alerts: Vec::new(),
        }
    }

    pub fn specs(&self) -> &[SloSpec] {
        &self.specs
    }

    /// Evaluates every spec against the recorder's current state and
    /// returns the alerts that fired *this* call (all alerts remain
    /// available via [`alerts`](Self::alerts)). Call once per captured
    /// window.
    pub fn evaluate(&mut self, series: &SeriesRecorder) -> &[SloAlert] {
        let first_new = self.alerts.len();
        let window = series.total_windows();
        for (spec, state) in self.specs.iter().zip(&mut self.state) {
            let budget = spec.budget();

            let fast_burn = spec
                .error_ratio_over(series, 1)
                .map(|ratio| ratio / budget);
            match fast_burn {
                Some(burn) if burn >= spec.fast_burn && !state.fast_active => {
                    state.fast_active = true;
                    self.alerts.push(SloAlert {
                        slo: spec.name.clone(),
                        severity: AlertSeverity::Page,
                        window,
                        burn_rate: burn,
                        budget,
                        detail: format!(
                            "fast burn {burn:.1}x >= {:.1}x over 1 window",
                            spec.fast_burn
                        ),
                    });
                }
                // Still burning: the page fired on the rising edge.
                Some(burn) if burn >= spec.fast_burn => {}
                Some(_) => state.fast_active = false,
                // No traffic: keep the previous edge state.
                None => {}
            }

            if series.total_windows() >= spec.slow_windows as u64 {
                let slow_burn = spec
                    .error_ratio_over(series, spec.slow_windows)
                    .map(|ratio| ratio / budget);
                match slow_burn {
                    Some(burn) if burn >= spec.slow_burn && !state.slow_active => {
                        state.slow_active = true;
                        self.alerts.push(SloAlert {
                            slo: spec.name.clone(),
                            severity: AlertSeverity::Warn,
                            window,
                            burn_rate: burn,
                            budget,
                            detail: format!(
                                "slow burn {burn:.1}x >= {:.1}x over {} windows",
                                spec.slow_burn, spec.slow_windows
                            ),
                        });
                    }
                    Some(burn) if burn >= spec.slow_burn => {}
                    Some(_) => state.slow_active = false,
                    None => {}
                }
            }
        }
        &self.alerts[first_new..]
    }

    /// Every alert fired so far, in firing order.
    pub fn alerts(&self) -> &[SloAlert] {
        &self.alerts
    }

    /// Count of [`AlertSeverity::Page`] alerts fired so far.
    pub fn pages(&self) -> usize {
        self.alerts
            .iter()
            .filter(|a| a.severity == AlertSeverity::Page)
            .count()
    }

    /// Count of [`AlertSeverity::Warn`] alerts fired so far.
    pub fn warns(&self) -> usize {
        self.alerts
            .iter()
            .filter(|a| a.severity == AlertSeverity::Warn)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{CounterSample, FixedHistogram, HistogramSample, MetricsSnapshot};

    fn ratio_snap(shed: u64, total: u64) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: vec![
                CounterSample { name: "gw.shed".into(), value: shed },
                CounterSample { name: "gw.total".into(), value: total },
            ],
            ..MetricsSnapshot::default()
        }
    }

    #[test]
    fn slo_fast_burn_pages_once_per_edge() {
        let mut series = SeriesRecorder::new(16);
        let mut spec = SloSpec::error_ratio("shed", "gw.shed", "gw.total", 0.01);
        (spec.fast_burn, spec.slow_burn) = (10.0, 5.0);
        let mut engine = SloEngine::new(vec![spec]);

        // Window 1: clean. Window 2+3: 50% shed (burn 50x). Window 4: clean.
        // Window 5: bad again — a second page.
        let mut shed = 0;
        let mut total = 0;
        let steps = [(0, 100), (50, 100), (50, 100), (0, 100), (50, 100)];
        let mut fired = Vec::new();
        for (i, (s, t)) in steps.iter().enumerate() {
            shed += s;
            total += t;
            series.capture(i as u64, &ratio_snap(shed, total));
            fired.push(engine.evaluate(&series).to_vec());
        }
        assert!(fired[0].is_empty());
        assert_eq!(fired[1].len(), 1);
        assert_eq!(fired[1][0].severity, AlertSeverity::Page);
        assert_eq!(fired[1][0].window, 2);
        assert!((fired[1][0].burn_rate - 50.0).abs() < 1e-9);
        assert!(fired[2].is_empty(), "still burning: no re-fire");
        assert!(fired[3].is_empty());
        assert_eq!(fired[4].len(), 1, "re-armed after the clean window");
        assert_eq!(engine.pages(), 2);
        assert!(engine.state.iter().any(|s| s.fast_active));
    }

    #[test]
    fn slo_slow_burn_warns_only_after_the_long_window_fills() {
        let mut series = SeriesRecorder::new(16);
        // 5% shed every window vs a 1% budget = sustained 5x burn: below
        // the 10x fast threshold, at the 5x slow threshold.
        let mut spec =
            SloSpec::error_ratio("shed", "gw.shed", "gw.total", 0.01).with_slow_windows(4);
        (spec.fast_burn, spec.slow_burn) = (10.0, 5.0);
        let mut engine = SloEngine::new(vec![spec]);
        let mut warns_at = Vec::new();
        for w in 0..6u64 {
            series.capture(w, &ratio_snap((w + 1) * 5, (w + 1) * 100));
            if engine.evaluate(&series).iter().any(|a| a.severity == AlertSeverity::Warn) {
                warns_at.push(w + 1);
            }
        }
        assert_eq!(warns_at, vec![4], "warn fires exactly when window 4 fills, once");
        assert_eq!(engine.pages(), 0);
        assert_eq!(engine.warns(), 1);
    }

    #[test]
    fn slo_quiet_windows_do_not_burn() {
        let mut series = SeriesRecorder::new(16);
        let spec = SloSpec::error_ratio("shed", "gw.shed", "gw.total", 0.01);
        let mut engine = SloEngine::new(vec![spec]);
        for w in 0..5u64 {
            series.capture(w, &ratio_snap(0, 0));
            assert!(engine.evaluate(&series).is_empty());
        }
        assert_eq!(engine.alerts().len(), 0);
        assert!(!engine.state.iter().any(|s| s.fast_active));
    }

    #[test]
    fn slo_latency_quantile_burns_on_above_limit_fraction() {
        let bounds = [10.0, 50.0, 100.0];
        let mut spec = SloSpec::quantile("p99", "lat", 0.99, 50.0);
        (spec.fast_burn, spec.slow_burn) = (14.4, 6.0);
        let mut series = SeriesRecorder::new(16);
        let mut engine = SloEngine::new(vec![spec]);

        let mut h = FixedHistogram::new(&bounds);
        let snap = |h: &FixedHistogram| MetricsSnapshot {
            histograms: vec![HistogramSample { name: "lat".into(), histogram: h.clone() }],
            ..MetricsSnapshot::default()
        };

        // Window 1: 99 fast + 1 slow = 1% above limit vs 1% budget → burn
        // 1x, no page.
        for _ in 0..99 {
            h.record(5.0);
        }
        h.record(80.0);
        series.capture(0, &snap(&h));
        assert!(engine.evaluate(&series).is_empty());

        // Window 2: 20% above limit → burn 20x ≥ 14.4x → page.
        for _ in 0..80 {
            h.record(5.0);
        }
        for _ in 0..20 {
            h.record(80.0);
        }
        series.capture(1, &snap(&h));
        let fired = engine.evaluate(&series);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].severity, AlertSeverity::Page);
        assert!((fired[0].burn_rate - 20.0).abs() < 1e-6);
        assert!((fired[0].budget - 0.01).abs() < 1e-12);
    }

}
