//! Online Model Inference (paper §V): what runs on the mobile device.

mod deployment;
mod drift;
mod faults;
mod realtime;
mod switching;
mod telemetry;

pub use deployment::{FlightFrame, FlightRecord, OnlineEngine, StepOutcome};
pub(crate) use deployment::StepScratch;
pub use drift::{DriftDetector, DriftEvent, DriftSignal, DriftState, SceneDistanceScorer};
pub use faults::{
    CheckpointFault, FaultCounts, FaultEvent, FaultInjector, FaultKind, FaultPlan, FrameFaults,
    HealthReport, HealthState, LoadFault,
};
pub use realtime::{run_realtime, FrameProcessor, RealTimeReport, TimedMethod};
pub use switching::SwitchStats;
pub use telemetry::{Telemetry, TelemetryRecord, TelemetrySummary};
