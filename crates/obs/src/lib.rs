//! `anole-obs` — unified metrics & span tracing for the Anole reproduction.
//!
//! A dependency-free observability layer (no `tracing`/`metrics` crates):
//!
//! - a process-global registry of named **counters** (relaxed atomics),
//!   **gauges** (atomic `f64` bits), and fixed-bucket **histograms**
//!   (sharded atomic accumulation, deterministic across thread counts);
//! - a **span** API ([`span!`]) recording hierarchical enter/exit events
//!   into a bounded ring buffer, timed by an injectable [`Clock`]
//!   ([`MonotonicClock`] in production, [`TickClock`] for bit-stable test
//!   traces);
//! - exporters: Prometheus text exposition ([`to_prometheus`]), a JSON
//!   snapshot ([`to_json`] / [`MetricsSnapshot`]), and a flamegraph-style
//!   `trace.txt` rendering ([`render_trace`]).
//!
//! The whole layer compiles to inline no-ops unless the `enabled` feature
//! is on; downstream crates re-expose it as `obs = ["anole-obs/enabled"]`
//! so instrumented call sites stay unconditional. Metrics are strictly
//! passive: nothing read from the registry ever feeds back into
//! computation, so enabling `obs` cannot change engine or trainer outputs.
//!
//! ```
//! let _span = anole_obs::span!("osp.tcm.train_candidate");
//! anole_obs::counter_add!("osp.tcm.candidates_trained", 1);
//! anole_obs::histogram_record!("omi.step.latency_ms", anole_obs::LATENCY_MS_BOUNDS, 1.25);
//! let snap = anole_obs::snapshot();
//! assert!(snap.metric_names().len() <= 2); // empty when `enabled` is off
//! ```

mod clock;
mod slo;
mod snapshot;
mod timeseries;

pub use clock::{Clock, MonotonicClock, TickClock};
pub use slo::{AlertSeverity, SloAlert, SloEngine, SloObjective, SloSpec, DEFAULT_SLOW_WINDOWS};
pub use snapshot::{
    CounterSample, FixedHistogram, GaugeSample, HistogramSample, MetricsSnapshot, SpanSample,
};
pub use timeseries::SeriesRecorder;

#[cfg(feature = "enabled")]
mod registry;
#[cfg(feature = "enabled")]
pub use registry::{
    capture_series, counter, counter_add, elapsed_ms, enabled, gauge_set, histogram,
    histogram_record, last_root_span_id, now, render_trace, reset, set_clock, snapshot,
    span_enter, to_json, to_prometheus, Counter, CounterSite, Gauge, GaugeSite, Histogram,
    HistogramSite, SpanGuard,
};

#[cfg(not(feature = "enabled"))]
mod noop;
#[cfg(not(feature = "enabled"))]
pub use noop::{
    capture_series, counter_add, elapsed_ms, enabled, gauge_set, histogram_record,
    last_root_span_id, now, render_trace, reset, set_clock, snapshot, span_enter, to_json,
    to_prometheus, CounterSite, GaugeSite, HistogramSite, SpanGuard,
};

/// Bucket bounds (ms) for per-frame serving latency histograms.
pub const LATENCY_MS_BOUNDS: &[f64] = &[
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0,
];

/// Bucket bounds (ms) for coarse stage-duration histograms.
pub const DURATION_MS_BOUNDS: &[f64] = &[
    1.0, 5.0, 25.0, 100.0, 500.0, 2_500.0, 10_000.0, 60_000.0,
];

/// Bucket bounds for the 4-tier fallback depth (0..=2; depth 3 lands in the
/// overflow bucket).
pub const DEPTH_BOUNDS: &[f64] = &[0.0, 1.0, 2.0];

/// Open a named span on the current thread; the returned guard records the
/// exit event when dropped. Bind it: `let _span = span!("omi.engine.step");`.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span_enter($name)
    };
}

/// Add to a named counter with a per-call-site cached handle: the registry
/// lookup happens once per site, every later hit is one relaxed atomic add.
/// Compiles to nothing when the `enabled` feature is off: the body, value
/// argument included, sits behind the constant [`enabled()`], so the value
/// is never evaluated.
#[macro_export]
macro_rules! counter_add {
    ($name:expr, $v:expr) => {
        if $crate::enabled() {
            static __OBS_SITE: $crate::CounterSite = $crate::CounterSite::new();
            __OBS_SITE.add($name, $v);
        }
    };
}

/// Set a named gauge with a per-call-site cached handle. As with
/// [`counter_add!`], the value is not evaluated when the feature is off.
#[macro_export]
macro_rules! gauge_set {
    ($name:expr, $v:expr) => {
        if $crate::enabled() {
            static __OBS_SITE: $crate::GaugeSite = $crate::GaugeSite::new();
            __OBS_SITE.set($name, $v);
        }
    };
}

/// Record into a named histogram with a per-call-site cached handle. As
/// with [`counter_add!`], the value is not evaluated when the feature is
/// off.
#[macro_export]
macro_rules! histogram_record {
    ($name:expr, $bounds:expr, $v:expr) => {
        if $crate::enabled() {
            static __OBS_SITE: $crate::HistogramSite = $crate::HistogramSite::new();
            __OBS_SITE.record($name, $bounds, $v);
        }
    };
}
