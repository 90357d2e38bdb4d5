//! Quickstart: train the full Anole system on a small synthetic driving
//! dataset and run online inference on a simulated Jetson TX2 NX.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! With `--features obs` the run additionally prints a metrics/span summary
//! collected by the observability layer (see `docs/observability.md`).

use anole::core::omi::Telemetry;
use anole::core::{AnoleConfig, AnoleSystem};
use anole::data::{DatasetConfig, DrivingDataset};
use anole::detect::DetectionCounts;
use anole::device::DeviceKind;
use anole::tensor::Seed;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Generate the synthetic driving world (stands in for KITTI/BDD/SHD).
    let dataset = DrivingDataset::generate(&DatasetConfig::small(), Seed(1));
    println!(
        "dataset: {} clips, {} frames, {} unseen clips",
        dataset.clips().len(),
        dataset.frame_count(),
        dataset.clips().iter().filter(|c| !c.seen).count()
    );

    // 2. Offline scene profiling: scene encoder, Algorithm 1 repository,
    //    Thompson-sampled suitability sets, decision model.
    let system = AnoleSystem::train(&dataset, &AnoleConfig::fast(), Seed(2))?;
    println!(
        "trained {} compressed models across {} clustering levels; \
         decision model ranks {} models",
        system.repository().len(),
        system.repository().levels_examined,
        system.decision().model_count()
    );

    // 3. Online model inference on the device simulator.
    let mut engine = system.online_engine(DeviceKind::JetsonTx2Nx, Seed(3));
    engine.warm(&(0..system.config().cache.capacity).collect::<Vec<_>>());

    let split = dataset.split();
    let mut counts = DetectionCounts::default();
    let mut telemetry = Telemetry::new();
    let mut served = 0;
    for &r in split.test.iter().take(200) {
        let frame = dataset.frame(r);
        let outcome = engine.step(&frame.features)?;
        counts.accumulate(&outcome.detections, &frame.truth);
        telemetry.record(&outcome, Some(&frame.truth));
        served += usize::from(outcome.models_executed > 0);
    }
    println!("online inference over {served} frames: {counts}");
    println!(
        "mean latency {:.1} ms | cache {} | hedge rate {:.2}",
        engine.mean_latency_ms(),
        engine.cache_stats(),
        engine.hedge_rate()
    );
    let summary = telemetry.summary();
    println!(
        "latency p50/p95/p99 {:.2}/{:.2}/{:.2} ms | hit rate {:.2} | mean fallback depth {:.2}",
        summary.p50_latency_ms,
        summary.p95_latency_ms,
        summary.p99_latency_ms,
        summary.hit_rate,
        summary.mean_fallback_depth
    );
    println!("\nfirst telemetry rows (full CSV available via Telemetry::to_csv):");
    for line in telemetry.to_csv().lines().take(4) {
        println!("  {line}");
    }

    // 4. Observability: a no-op unless built with `--features obs`.
    if anole::obs::enabled() {
        let snap = anole::obs::snapshot();
        println!(
            "\nobservability: {} distinct metrics, {} spans recorded",
            snap.metric_names().len(),
            snap.spans.len()
        );
        for name in snap.metric_names() {
            println!("  {name}");
        }
        println!("(JSON snapshot via anole::obs::to_json(), trace via anole::obs::render_trace())");
    }
    Ok(())
}
