//! UAV patrol: the paper's real-world deployment (§VI-F) as a runnable
//! scenario. A TX2-class UAV flies a patrol route whose scenes change as it
//! crosses the city — highway, urban canyon, a tunnel underpass, and a night
//! return leg — while Anole switches compressed models on the fly.
//!
//! ```text
//! cargo run --release --example uav_patrol
//! ```

use anole::core::omi::SwitchStats;
use anole::core::{AnoleConfig, AnoleSystem};
use anole::data::{
    ClipId, DatasetConfig, DatasetSource, DrivingDataset, Location, SceneAttributes, TimeOfDay,
    Weather,
};
use anole::detect::DetectionCounts;
use anole::device::{DeviceKind, PowerMode, PowerModel};
use anole::nn::ReferenceModel;
use anole::tensor::{split_seed, Seed};

/// One leg of the patrol route.
struct Leg {
    name: &'static str,
    attrs: SceneAttributes,
    frames: usize,
}

fn route() -> Vec<Leg> {
    use Location::*;
    use TimeOfDay::*;
    use Weather::*;
    vec![
        Leg { name: "take-off over highway", attrs: SceneAttributes::new(Clear, Highway, Daytime), frames: 60 },
        Leg { name: "urban canyon sweep", attrs: SceneAttributes::new(Clear, Urban, Daytime), frames: 90 },
        Leg { name: "tunnel underpass", attrs: SceneAttributes::new(Clear, Tunnel, Daytime), frames: 40 },
        Leg { name: "residential loop", attrs: SceneAttributes::new(Overcast, Residential, Daytime), frames: 60 },
        Leg { name: "dusk bridge crossing", attrs: SceneAttributes::new(Overcast, Bridge, DawnDusk), frames: 50 },
        Leg { name: "night return leg", attrs: SceneAttributes::new(Clear, Urban, Night), frames: 70 },
    ]
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let seed = Seed(20240624);
    println!("== offline scene profiling (on the \"cloud server\") ==");
    let dataset = DrivingDataset::generate(&DatasetConfig::small(), split_seed(seed, 0));
    let system = AnoleSystem::train(&dataset, &AnoleConfig::fast(), split_seed(seed, 1))?;
    println!(
        "model repository: {} compressed models; decision model ready\n",
        system.repository().len()
    );

    println!("== UAV patrol over Shanghai (simulated TX2 NX) ==");
    let mut engine = system.online_engine(DeviceKind::JetsonTx2Nx, split_seed(seed, 2));
    engine.warm(&(0..system.config().cache.capacity).collect::<Vec<_>>());

    let mut total = DetectionCounts::default();
    // The model that served each frame, in order (replayed frames ran none).
    let mut used = Vec::new();
    for (i, leg) in route().iter().enumerate() {
        // Fresh footage from the same world: never part of training.
        let clip = dataset.world().generate_clip(
            ClipId(9000 + i),
            DatasetSource::Shd,
            leg.attrs,
            leg.frames,
            1.0,
            split_seed(seed, 100 + i as u64),
        );
        let mut leg_counts = DetectionCounts::default();
        let start_frames = used.len();
        for frame in &clip.frames {
            let outcome = engine.step(&frame.features)?;
            leg_counts.accumulate(&outcome.detections, &frame.truth);
            total.accumulate(&outcome.detections, &frame.truth);
            if outcome.models_executed > 0 {
                used.push(outcome.used);
            }
        }
        let top_model = {
            let mut counts = std::collections::HashMap::new();
            for &m in &used[start_frames..] {
                *counts.entry(m).or_insert(0usize) += 1;
            }
            counts.into_iter().max_by_key(|&(_, c)| c).map(|(m, _)| m).unwrap_or(0)
        };
        println!(
            "  leg {i}: {:<24} [{}] F1 {:.3}, mostly model M{top_model}",
            leg.name,
            leg.attrs,
            leg_counts.f1()
        );
    }

    let switches = SwitchStats::of(&used);
    println!("\n== patrol summary ==");
    println!("  overall detection: {total}");
    println!(
        "  model switches: {} (mean scene duration {:.1} frames)",
        switches.switches, switches.mean
    );
    println!(
        "  mean frame latency {:.1} ms, hedge rate {:.2}, cache {}",
        engine.mean_latency_ms(),
        engine.hedge_rate(),
        engine.cache_stats()
    );

    // Endurance estimate against the flight battery.
    let power = PowerModel::for_device(DeviceKind::JetsonTx2Nx);
    let mode = PowerMode::tx2_modes()[3];
    let anole_power = power.evaluate(
        &[ReferenceModel::Resnet18, ReferenceModel::DecisionMlp, ReferenceModel::Yolov3Tiny],
        mode,
    );
    let sdm_power = power.evaluate(&[ReferenceModel::Yolov3], mode);
    println!(
        "  inference power at {}: Anole {:.1} W vs SDM {:.1} W ({:.0}% saved → longer flight time)",
        mode.label(),
        anole_power.watts,
        sdm_power.watts,
        (1.0 - anole_power.watts / sdm_power.watts) * 100.0
    );
    Ok(())
}
