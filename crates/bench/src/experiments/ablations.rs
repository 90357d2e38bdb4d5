//! Ablations beyond the paper's figures (DESIGN.md §6): cache eviction
//! policies, the δ acceptance threshold, the θ sampling confidence, and the
//! cloud-offload alternative over an unstable uplink.

use anole_cache::EvictionPolicy;
use anole_core::osp::ModelRepository;
use anole_data::{synthesize_fast_changing, SpliceConfig};
use anole_device::{DeviceKind, LatencyModel, UnstableLink};
use anole_nn::ReferenceModel;
use anole_tensor::{rng_from_seed, split_seed};

use super::fig7_cache::run_with_capacity;
use crate::{render, Context};

/// Cache-policy ablation: LFU (the paper's choice) vs LRU vs FIFO at small
/// and comfortable cache sizes, on the fast-changing spliced clips.
///
/// # Panics
///
/// Panics if the engine fails on a frame (never for a built context).
pub fn cache_policy_ablation(ctx: &Context) -> String {
    let segment_len = (ctx.dataset.config().frames_per_clip / 6).max(10);
    let clips = synthesize_fast_changing(
        &ctx.dataset,
        &SpliceConfig {
            clip_count: 6,
            segments_per_clip: 5,
            segment_len,
        },
        split_seed(ctx.seed, 901),
    );
    let mut rows = Vec::new();
    for capacity in [2usize, 5] {
        let capacity = capacity.min(ctx.system.repository().len().max(1));
        for policy in [EvictionPolicy::Lfu, EvictionPolicy::Lru, EvictionPolicy::Fifo] {
            let (miss, f1) = run_with_capacity(ctx, &clips, capacity, policy);
            rows.push(vec![
                format!("{capacity}"),
                policy.to_string(),
                format!("{miss:.3}"),
                render::f1(f1),
            ]);
        }
    }
    format!(
        "Ablation: cache eviction policy on fast-changing streams\n{}",
        render::table(&["cache size", "policy", "miss rate", "F1"], &rows)
    )
}

/// δ sweep: how the acceptance threshold of Algorithm 1 trades repository
/// size against per-model validation quality.
///
/// # Panics
///
/// Panics on training failure (never for a built context at sane δ).
pub fn delta_sweep_ablation(ctx: &Context) -> String {
    let split = ctx.dataset.split();
    let mut rows = Vec::new();
    for delta in [0.30f32, 0.50, 0.65, 0.75] {
        let mut config = *ctx.system.config();
        config.repository.delta = delta;
        let result = ModelRepository::train(
            &ctx.dataset,
            ctx.system.scene_model(),
            &split.train,
            &split.val,
            &config,
            split_seed(ctx.seed, 902),
        );
        match result {
            Ok(repo) => {
                let mean_f1: f32 = repo
                    .models()
                    .iter()
                    .map(|m| m.validation_f1)
                    .sum::<f32>()
                    / repo.len() as f32;
                rows.push(vec![
                    format!("{delta:.2}"),
                    format!("{}", repo.len()),
                    render::f1(mean_f1),
                ]);
            }
            Err(_) => rows.push(vec![format!("{delta:.2}"), "0".into(), "-".into()]),
        }
    }
    format!(
        "Ablation: Algorithm 1 acceptance threshold δ\n{}",
        render::table(&["delta", "accepted models", "mean validation F1"], &rows)
    )
}

/// θ sweep: the well-sampledness confidence against sampling cost.
///
/// On the full pipeline the per-arm draw cap dominates the coupon-collector
/// thresholds (|Γᵢ| is in the thousands), so this ablation isolates the θ
/// effect at the scheduler level: 19 arms of 40 elements each, run to
/// completion with no cap or κ budget.
pub fn theta_sweep_ablation(ctx: &Context) -> String {
    use anole_bandit::{SamplingStrategy, ThompsonSampler};

    let sizes = vec![40usize; 19];
    let mut rows = Vec::new();
    for theta in [0.5f64, 0.7, 0.9, 0.99] {
        let mut scheduler = ThompsonSampler::new(&sizes, theta);
        let mut rng = anole_tensor::rng_from_seed(split_seed(ctx.seed, 903));
        while let Some(arm) = scheduler.select(&mut rng) {
            scheduler.record_sampled(arm);
        }
        let draws: usize = scheduler.counts().iter().sum();
        rows.push(vec![
            format!("{theta:.2}"),
            format!("{draws}"),
            format!("{:.1}", draws as f64 / sizes.len() as f64),
            format!("{:.3}", anole_bandit::balance_coefficient(scheduler.counts())),
        ]);
    }
    format!(
        "Ablation: sampling confidence θ (19 arms × 40 elements, run to completion)\n{}",
        render::table(&["theta", "total draws", "draws per arm", "draw balance"], &rows)
    )
}

/// Latency-budget sweep (§II: "best-effort inference accuracy within a
/// specific latency budget"): for each per-frame budget on the TX2, the
/// engine derives how many compressed models it may fuse, and we measure
/// the accuracy actually achieved and the latency actually spent.
///
/// # Panics
///
/// Panics if the engine fails on a frame (never for a built context).
pub fn latency_budget_sweep(ctx: &Context) -> String {
    use anole_detect::DetectionCounts;

    let split = ctx.dataset.split();
    let stream: Vec<_> = split.test.iter().copied().take(1500).collect();
    let mut rows = Vec::new();
    for budget in [12.0f32, 15.0, 26.0, 36.0, 48.0] {
        let mut engine = ctx
            .system
            .online_engine(DeviceKind::JetsonTx2Nx, split_seed(ctx.seed, 905))
            .with_latency_budget(budget);
        engine.warm(&(0..ctx.system.repository().len()).collect::<Vec<_>>());
        let limit = engine.models_per_frame_limit();
        let mut counts = DetectionCounts::default();
        for &r in &stream {
            let frame = ctx.dataset.frame(r);
            let out = engine.step(&frame.features).expect("step");
            counts.accumulate(&out.detections, &frame.truth);
        }
        rows.push(vec![
            format!("{budget:.0}"),
            format!("{limit}"),
            format!("{:.1}", engine.mean_latency_ms()),
            render::f1(counts.f1()),
        ]);
    }
    format!(
        "Ablation: per-frame latency budget on the TX2 NX (SDM needs 42.9 ms)\n{}",
        render::table(
            &["budget (ms)", "models/frame", "measured (ms)", "F1"],
            &rows
        )
    )
}

/// Real-time streaming at camera rate: a 30 fps camera feeding each method
/// on the Nano and the TX2, with a one-slot latest-frame mailbox. Dropped
/// frames count against stream-level F1 — a vehicle never sees the objects
/// in a frame it skipped.
///
/// # Panics
///
/// Panics if inference fails on a frame (never for a built context).
pub fn realtime_streaming(ctx: &Context) -> String {
    use anole_core::omi::{run_realtime, TimedMethod};
    use anole_core::{Sdm, Ssm};
    use anole_data::DatasetSource;

    let split = ctx.dataset.split();
    let frames: Vec<anole_data::Frame> = split
        .test
        .iter()
        .take(600)
        .map(|&r| ctx.dataset.frame(r).clone())
        .collect();
    let mut rows = Vec::new();
    for device in [DeviceKind::JetsonNano, DeviceKind::JetsonTx2Nx] {
        let mut engine = ctx
            .system
            .online_engine(device, split_seed(ctx.seed, 906))
            .with_latency_budget(33.0);
        engine.warm(&(0..ctx.system.repository().len()).collect::<Vec<_>>());
        let anole = run_realtime(&mut engine, &frames, DatasetSource::Shd, 30.0).expect("anole");

        let sdm = Sdm::train(&ctx.dataset, &split.train, ctx.system.config(), split_seed(ctx.seed, 907))
            .expect("sdm");
        let mut sdm = TimedMethod::new(sdm, device, split_seed(ctx.seed, 908));
        let sdm_report = run_realtime(&mut sdm, &frames, DatasetSource::Shd, 30.0).expect("sdm run");

        let ssm = Ssm::train(&ctx.dataset, &split.train, ctx.system.config(), split_seed(ctx.seed, 909))
            .expect("ssm");
        let mut ssm = TimedMethod::new(ssm, device, split_seed(ctx.seed, 910));
        let ssm_report = run_realtime(&mut ssm, &frames, DatasetSource::Shd, 30.0).expect("ssm run");

        for (name, r) in [("Anole", &anole), ("SDM", &sdm_report), ("SSM", &ssm_report)] {
            rows.push(vec![
                device.name().to_string(),
                name.to_string(),
                format!("{:.1}", r.achieved_fps),
                format!("{:.0}%", r.frames_dropped as f32 / r.frames_offered as f32 * 100.0),
                render::f1(r.processed_f1),
                render::f1(r.stream_f1),
            ]);
        }
    }
    format!(
        "Extension: real-time streaming at a 30 fps camera (dropped frames count as missed objects)\n{}",
        render::table(
            &["device", "method", "fps", "dropped", "F1 (processed)", "F1 (stream)"],
            &rows
        )
    )
}

/// Repository-size sweep: the paper fixes n = 19; how does the cross-scene
/// advantage scale with the number of specialists?
///
/// # Panics
///
/// Panics on training failure (never for a built context).
pub fn repository_size_sweep(ctx: &Context) -> String {
    use anole_core::eval::evaluate_refs;
    use anole_core::AnoleSystem;

    let split = ctx.dataset.split();
    let mut rows = Vec::new();
    for n in [4usize, 8, 12, 19] {
        let mut config = *ctx.system.config();
        config.repository.target_models = n;
        let system = AnoleSystem::train(&ctx.dataset, &config, split_seed(ctx.seed, 911))
            .expect("training");
        let mut engine = system.online_engine(DeviceKind::JetsonTx2Nx, split_seed(ctx.seed, 912));
        engine.warm(&(0..system.repository().len()).collect::<Vec<_>>());
        let result =
            evaluate_refs(&mut engine, &ctx.dataset, &split.test, 10).expect("evaluation");
        rows.push(vec![
            format!("{n}"),
            format!("{}", system.repository().len()),
            render::f1(result.overall_f1),
        ]);
    }
    format!(
        "Ablation: repository size n vs cross-scene F1 (paper fixes n = 19)\n{}",
        render::table(&["target n", "accepted", "cross-scene F1"], &rows)
    )
}

/// Fleet lifecycle week (extension): three devices drive a schedule where
/// an uncovered scene appears mid-week; drifting footage pools and an
/// overnight expansion deploys a new specialist.
///
/// # Panics
///
/// Panics on training or inference failure (never for a built context).
pub fn fleet_lifecycle_week(ctx: &Context) -> String {
    use anole_core::lifecycle::{run_fleet, FleetConfig};
    use anole_data::{Location, SceneAttributes, TimeOfDay, Weather};

    let familiar = ctx.dataset.clips()[0].attributes;
    let exotic = SceneAttributes::new(Weather::Foggy, Location::TollBooth, TimeOfDay::Night);
    let schedule = [familiar, familiar, exotic, exotic, exotic, exotic, familiar];
    let config = FleetConfig::default();
    let (report, final_system) = run_fleet(
        &ctx.dataset,
        ctx.system.clone(),
        &schedule,
        &config,
        split_seed(ctx.seed, 913),
        None,
    )
    .expect("fleet run");

    let rows: Vec<Vec<String>> = report
        .days
        .iter()
        .map(|d| {
            vec![
                format!("{}", d.day + 1),
                d.scenario.to_string(),
                render::f1(d.f1),
                format!("{:.0}%", d.drift_rate * 100.0),
                format!("{}", d.collected_frames),
                d.expanded_model
                    .map(|id| format!("trained M{id}"))
                    .unwrap_or_else(|| "-".into()),
                format!("{}", d.repository_size),
            ]
        })
        .collect();
    let (first, last) = report.improvement_on(exotic).unwrap_or((0.0, 0.0));
    format!(
        "Extension: fleet lifecycle week ({} devices; exotic-scene F1 {} → {}; \
         repository {} → {} models)\n{}",
        config.devices,
        render::f1(first),
        render::f1(last),
        ctx.system.repository().len(),
        final_system.repository().len(),
        render::table(
            &["day", "scenario", "fleet F1", "drift", "collected", "overnight", "models"],
            &rows
        )
    )
}

/// Offload alternative: per-frame latency of cloud offloading over an
/// unstable vehicular uplink vs Anole's local pipeline on the TX2 —
/// the §I motivation for cloud-free inference.
pub fn offload_ablation(ctx: &Context) -> String {
    let mut link = UnstableLink::new();
    let mut rng = rng_from_seed(split_seed(ctx.seed, 904));
    let frame_bytes = 200_000; // a compressed 720p frame
    let n = 5_000;
    let mut latencies: Vec<f32> = Vec::with_capacity(n);
    let mut timeouts = 0usize;
    for _ in 0..n {
        match link.round_trip_ms(frame_bytes, &mut rng) {
            Ok(ms) => latencies.push(ms),
            Err(timeout) => {
                timeouts += 1;
                latencies.push(timeout);
            }
        }
    }
    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let q = |f: f64| latencies[((latencies.len() - 1) as f64 * f) as usize];

    let local = LatencyModel::for_device(DeviceKind::JetsonTx2Nx);
    let local_ms =
        local.mean_scene_decision_ms() + local.mean_inference_ms(ReferenceModel::Yolov3Tiny);

    let rows = vec![
        vec![
            "cloud offload (unstable link)".to_string(),
            format!("{:.0}", q(0.5)),
            format!("{:.0}", q(0.95)),
            format!("{:.0}", q(0.99)),
            format!("{:.1}%", timeouts as f64 / n as f64 * 100.0),
        ],
        vec![
            "Anole local (TX2 NX)".to_string(),
            format!("{local_ms:.0}"),
            format!("{local_ms:.0}"),
            format!("{local_ms:.0}"),
            "0.0%".to_string(),
        ],
    ];
    format!(
        "Ablation: offloaded vs local per-frame latency\n{}",
        render::table(
            &["pipeline", "p50 (ms)", "p95 (ms)", "p99 (ms)", "timeouts"],
            &rows
        )
    )
}

#[cfg(test)]
mod tests {
    use crate::{Context, Scale};
    use anole_tensor::Seed;

    fn ctx() -> Context {
        Context::build(Scale::Small, Seed(23)).unwrap()
    }

    #[test]
    fn cache_policy_ablation_covers_policies() {
        let text = super::cache_policy_ablation(&ctx());
        for p in ["LFU", "LRU", "FIFO"] {
            assert!(text.contains(p), "missing {p}");
        }
    }

    #[test]
    fn delta_sweep_shows_tradeoff() {
        let text = super::delta_sweep_ablation(&ctx());
        assert!(text.contains("0.30"));
        assert!(text.contains("0.75"));
    }

    #[test]
    fn theta_sweep_reports_costs() {
        let text = super::theta_sweep_ablation(&ctx());
        assert!(text.contains("0.99"));
        assert!(text.contains("draws"));
    }

    #[test]
    fn latency_budget_sweep_escalates_models() {
        let text = super::latency_budget_sweep(&ctx());
        assert!(text.contains("budget (ms)"));
        assert!(text.contains("12"));
        assert!(text.contains("48"));
    }

    #[test]
    fn realtime_streaming_reports_both_devices() {
        let text = super::realtime_streaming(&ctx());
        assert!(text.contains("Jetson Nano"));
        assert!(text.contains("F1 (stream)"));
    }

    #[test]
    fn repository_size_sweep_reports_each_n() {
        let text = super::repository_size_sweep(&ctx());
        assert!(text.contains("target n"));
        assert!(text.contains("19"));
    }

    #[test]
    fn fleet_lifecycle_week_renders_days() {
        let text = super::fleet_lifecycle_week(&ctx());
        assert!(text.contains("day"));
        assert!(text.contains("overnight"));
    }

    #[test]
    fn offload_ablation_shows_tail_blowup() {
        let text = super::offload_ablation(&ctx());
        assert!(text.contains("cloud offload"));
        assert!(text.contains("Anole local"));
    }
}
