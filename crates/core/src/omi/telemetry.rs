//! Structured per-frame telemetry for online runs.
//!
//! Operators debugging a deployment need the per-frame record — which model
//! the router asked for, which one served, whether the cache hit, how
//! confident the decision was, what it cost, and how healthy the engine was
//! while serving it — not just aggregate F1. [`Telemetry`] collects
//! [`StepOutcome`]s (plus the ground-truth F1 when available) and renders
//! them as CSV for offline analysis.

use anole_detect::DetectionCounts;
use anole_nn::Precision;
use anole_obs::FixedHistogram;

use crate::omi::{FlightFrame, HealthState, StepOutcome};

/// One telemetry record: the frame's [`FlightFrame`] event plus what the
/// engine cannot know about it.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryRecord {
    /// The frame's event; its `frame` is the index within the run.
    pub event: FlightFrame,
    /// Id of the engine's `omi.engine.step` span that served this frame
    /// (0 when observability is disabled), linking the record to the span
    /// trace.
    pub span_id: u64,
    /// Per-frame F1 against ground truth, when truth was supplied.
    pub f1: Option<f32>,
}

/// A per-frame telemetry log.
///
/// # Examples
///
/// ```
/// use anole_core::omi::Telemetry;
///
/// let telemetry = Telemetry::new();
/// assert!(telemetry.is_empty());
/// assert!(telemetry.to_csv().starts_with("frame,requested,used"));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Telemetry {
    records: Vec<TelemetryRecord>,
}

impl Telemetry {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Borrows the records.
    pub fn records(&self) -> &[TelemetryRecord] {
        &self.records
    }

    /// Appends an outcome, scoring it against `truth` when provided.
    pub fn record(&mut self, outcome: &StepOutcome, truth: Option<&[bool]>) {
        let f1 = truth.map(|t| {
            let mut counts = DetectionCounts::default();
            counts.accumulate(&outcome.detections, t);
            counts.f1()
        });
        self.records.push(TelemetryRecord {
            event: FlightFrame::new(self.records.len(), outcome),
            span_id: anole_obs::last_root_span_id(),
            f1,
        });
    }

    /// Frames recorded while the engine was not `Healthy`.
    pub fn degraded_frames(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.event.health != HealthState::Healthy)
            .count()
    }

    /// Total faults injected across the recorded frames.
    pub fn fault_total(&self) -> u64 {
        self.records.iter().map(|r| u64::from(r.event.faults)).sum()
    }

    /// Renders the log as CSV (header + one row per frame).
    ///
    /// The output buffer is preallocated from the record count and rows are
    /// formatted straight into it (no per-row intermediate `String`s), so
    /// exporting a long run is one allocation in the common case.
    pub fn to_csv(&self) -> String {
        use std::fmt::Write as _;

        const HEADER: &str =
            "frame,requested,used,cache_hit,models_executed,latency_ms,suitability,health,\
             fallback_depth,faults,span_id,precision,f1\n";
        // Generous per-row estimate: twelve numeric/enum fields plus
        // separators stay well under this for realistic runs, so growth is
        // rare.
        const ROW_ESTIMATE: usize = 120;
        let mut out = String::with_capacity(HEADER.len() + self.records.len() * ROW_ESTIMATE);
        out.push_str(HEADER);
        for r in &self.records {
            // Floats use `{:?}` (shortest round-trip representation), so a
            // parsed CSV reproduces the recorded values bit-for-bit instead
            // of rounding to a fixed number of decimals.
            // Infallible for String; keep the row loop panic-free.
            let e = &r.event;
            let _ = write!(
                out,
                "{},{},{},{},{},{:?},{:?},{},{},{},{},{},",
                e.frame,
                e.requested,
                e.used,
                e.cache_hit,
                e.models_executed,
                e.latency_ms,
                e.suitability,
                e.health,
                e.fallback_depth,
                e.faults,
                r.span_id,
                e.precision,
            );
            if let Some(f1) = r.f1 {
                let _ = write!(out, "{f1:?}");
            }
            out.push('\n');
        }
        out
    }

    /// Aggregate summary over the log. All-zero for an empty log; mean F1
    /// covers only scored frames. Latency percentiles come from a
    /// [`FixedHistogram`] over [`anole_obs::LATENCY_MS_BOUNDS`], so they are
    /// bucket upper bounds — the same resolution the live
    /// `omi.step.latency_ms` histogram exports.
    pub fn summary(&self) -> TelemetrySummary {
        if self.records.is_empty() {
            return TelemetrySummary::default();
        }
        let n = self.records.len() as f32;
        let mut latency = FixedHistogram::new(anole_obs::LATENCY_MS_BOUNDS);
        for r in &self.records {
            latency.record(f64::from(r.event.latency_ms));
        }
        let events = || self.records.iter().map(|r| &r.event);
        let mean_latency_ms = events().map(|e| e.latency_ms).sum::<f32>() / n;
        let hit_rate = events().filter(|e| e.cache_hit).count() as f32 / n;
        let mean_fallback_depth = events().map(|e| f32::from(e.fallback_depth)).sum::<f32>() / n;
        let i8_frames = events().filter(|e| e.precision == Precision::Int8).count();
        let scored: Vec<f32> = self.records.iter().filter_map(|r| r.f1).collect();
        let mean_f1 = if scored.is_empty() {
            0.0
        } else {
            scored.iter().sum::<f32>() / scored.len() as f32
        };
        TelemetrySummary {
            frames: self.records.len(),
            mean_latency_ms,
            p50_latency_ms: latency.quantile(0.5),
            p95_latency_ms: latency.quantile(0.95),
            p99_latency_ms: latency.quantile(0.99),
            hit_rate,
            mean_fallback_depth,
            mean_f1,
            i8_frame_fraction: i8_frames as f32 / n,
        }
    }
}

/// Aggregates produced by [`Telemetry::summary`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetrySummary {
    /// Frames recorded.
    pub frames: usize,
    /// Mean end-to-end frame latency (ms).
    pub mean_latency_ms: f32,
    /// Median frame latency (ms), as a histogram bucket upper bound.
    pub p50_latency_ms: f64,
    /// 95th-percentile frame latency (ms), as a bucket upper bound.
    pub p95_latency_ms: f64,
    /// 99th-percentile frame latency (ms), as a bucket upper bound.
    pub p99_latency_ms: f64,
    /// Fraction of frames whose requested model was cache-resident.
    pub hit_rate: f32,
    /// Mean fallback-chain tier that served the frames (0 = always the
    /// requested model).
    pub mean_fallback_depth: f32,
    /// Mean per-frame F1 over the scored frames (0 when none were scored).
    pub mean_f1: f32,
    /// Fraction of frames served by an int8 model.
    pub i8_frame_fraction: f32,
}

anole_json::json_struct!(write TelemetrySummary {
    frames,
    mean_latency_ms,
    p50_latency_ms,
    p95_latency_ms,
    p99_latency_ms,
    hit_rate,
    mean_fallback_depth,
    mean_f1,
    i8_frame_fraction,
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AnoleConfig, AnoleSystem};
    use anole_data::{DatasetConfig, DrivingDataset};
    use anole_device::DeviceKind;
    use anole_tensor::Seed;

    #[test]
    fn records_and_renders_a_live_run() {
        let dataset = DrivingDataset::generate(&DatasetConfig::small(), Seed(191));
        let system = AnoleSystem::train(&dataset, &AnoleConfig::fast(), Seed(192)).unwrap();
        let mut engine = system.online_engine(DeviceKind::JetsonTx2Nx, Seed(193));
        engine.warm(&(0..system.repository().len()).collect::<Vec<_>>());

        let split = dataset.split();
        let mut telemetry = Telemetry::new();
        for &r in split.test.iter().take(25) {
            let frame = dataset.frame(r);
            let out = engine.step(&frame.features).unwrap();
            telemetry.record(&out, Some(&frame.truth));
        }
        assert_eq!(telemetry.len(), 25);
        let csv = telemetry.to_csv();
        assert_eq!(csv.lines().count(), 26);
        assert!(csv.lines().nth(1).unwrap().split(',').count() == 13);
        assert!(csv.lines().nth(1).unwrap().contains("fp32"));
        // A fault-free run stays healthy throughout.
        assert_eq!(telemetry.degraded_frames(), 0);
        assert_eq!(telemetry.fault_total(), 0);
        assert!(csv.lines().nth(1).unwrap().contains("healthy"));

        let summary = telemetry.summary();
        assert_eq!(summary.frames, 25);
        assert!(summary.mean_latency_ms > 0.0);
        assert!(summary.p50_latency_ms <= summary.p95_latency_ms);
        assert!(summary.p95_latency_ms <= summary.p99_latency_ms);
        assert!((0.0..=1.0).contains(&summary.hit_rate));
        assert!((0.0..=1.0).contains(&summary.mean_f1));
        assert!(summary.mean_fallback_depth >= 0.0);
        // Frame indices are sequential.
        for (i, r) in telemetry.records().iter().enumerate() {
            assert_eq!(r.event.frame as usize, i);
        }
    }

    #[test]
    fn unscored_frames_leave_f1_empty() {
        let outcome = StepOutcome {
            requested: 1,
            used: 2,
            cache_hit: false,
            detections: vec![true, false],
            models_executed: 1,
            latency_ms: 10.0,
            suitability: 0.4,
            health: HealthState::Degraded,
            fallback_depth: 1,
            faults: 2,
            precision: Precision::Int8,
        };
        let mut t = Telemetry::new();
        t.record(&outcome, None);
        assert_eq!(t.records()[0].f1, None);
        assert!(t.to_csv().lines().nth(1).unwrap().ends_with(','));
        assert!(t.to_csv().lines().nth(1).unwrap().contains("degraded"));
        assert_eq!(t.degraded_frames(), 1);
        assert_eq!(t.fault_total(), 2);
        assert_eq!(t.summary().mean_f1, 0.0);
        assert_eq!(t.summary().i8_frame_fraction, 1.0);
        assert!(t.to_csv().lines().nth(1).unwrap().contains(",i8,"));
    }

    #[test]
    fn empty_log_summary_is_zero() {
        assert_eq!(Telemetry::new().summary(), TelemetrySummary::default());
    }

    #[test]
    fn csv_floats_round_trip() {
        let outcome = StepOutcome {
            requested: 0,
            used: 0,
            cache_hit: true,
            detections: vec![true],
            models_executed: 1,
            latency_ms: 12.345_678,
            suitability: 0.123_456_79,
            health: HealthState::Healthy,
            fallback_depth: 0,
            faults: 0,
            precision: Precision::Fp32,
        };
        let mut t = Telemetry::new();
        t.record(&outcome, Some(&[true]));
        let row = t.to_csv().lines().nth(1).unwrap().to_string();
        let cols: Vec<&str> = row.split(',').collect();
        assert_eq!(cols[5].parse::<f32>().unwrap(), outcome.latency_ms);
        assert_eq!(cols[6].parse::<f32>().unwrap(), outcome.suitability);
        assert_eq!(cols[11], "fp32");
        assert_eq!(cols[12].parse::<f32>().unwrap(), t.records()[0].f1.unwrap());
    }
}
