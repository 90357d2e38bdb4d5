//! Figure 7: (a) scene durations on spliced fast-changing clips; (b) cache
//! miss rate and F1 as functions of cache size.

use anole_cache::EvictionPolicy;
use anole_core::omi::SwitchStats;
use anole_detect::DetectionCounts;
use anole_device::DeviceKind;
use anole_tensor::split_seed;
use anole_data::{synthesize_fast_changing, SpliceConfig, SplicedClip};

use crate::{render, Context};

fn spliced_clips(ctx: &Context) -> Vec<SplicedClip> {
    let segment_len = (ctx.dataset.config().frames_per_clip / 6).max(10);
    synthesize_fast_changing(
        &ctx.dataset,
        &SpliceConfig {
            clip_count: 6,
            segments_per_clip: 5,
            segment_len,
        },
        split_seed(ctx.seed, 701),
    )
}

/// Regenerates Fig. 7(a): scene-duration statistics (runs of frames served
/// by the same model) on the six spliced clips T1–T6.
///
/// # Panics
///
/// Panics if the engine fails on a frame (never for a built context).
pub fn fig7a(ctx: &Context) -> String {
    let clips = spliced_clips(ctx);
    let mut rows = Vec::new();
    for clip in &clips {
        let mut engine = ctx
            .system
            .online_engine(DeviceKind::JetsonTx2Nx, split_seed(ctx.seed, 702));
        engine.warm(&(0..ctx.system.repository().len()).collect::<Vec<_>>());
        let mut used = Vec::new();
        for &r in &clip.frames {
            let out = engine.step(&ctx.dataset.frame(r).features).expect("step");
            if out.models_executed > 0 {
                used.push(out.used);
            }
        }
        let stats = SwitchStats::of(&used);
        rows.push(vec![
            clip.name.clone(),
            format!("{}", clip.frames.len()),
            format!("{}", stats.switches),
            format!("{:.1}", stats.mean),
            format!("{}", stats.median),
            format!("{}", stats.p80),
            format!("{}", stats.max),
        ]);
    }
    format!(
        "Figure 7(a): scene durations (frames between model switches) on T1-T6\n{}",
        render::table(
            &["clip", "frames", "switches", "mean", "median", "p80", "max"],
            &rows
        )
    )
}

/// Regenerates Fig. 7(b): cache miss rate and F1 vs cache size (in units of
/// one compressed model), LFU policy, over the spliced clips.
///
/// # Panics
///
/// Panics if the engine fails on a frame (never for a built context).
pub fn fig7b(ctx: &Context) -> String {
    let clips = spliced_clips(ctx);
    let max_size = ctx.system.repository().len().min(8);
    let mut rows = Vec::new();
    for capacity in 1..=max_size {
        let (miss_rate, f1) = run_with_capacity(ctx, &clips, capacity, EvictionPolicy::Lfu);
        rows.push(vec![
            format!("{capacity}"),
            format!("{miss_rate:.3}"),
            render::f1(f1),
        ]);
    }
    format!(
        "Figure 7(b): cache miss rate and F1 vs cache size (LFU) on T1-T6\n{}",
        render::table(&["cache size (models)", "miss rate", "F1"], &rows)
    )
}

/// Runs all spliced clips through an engine with the given cache capacity
/// and policy; returns `(miss rate, overall F1)`. Shared with the
/// cache-policy ablation.
pub(crate) fn run_with_capacity(
    ctx: &Context,
    clips: &[SplicedClip],
    capacity: usize,
    policy: EvictionPolicy,
) -> (f64, f32) {
    let mut counts = DetectionCounts::default();
    let mut hits = 0u64;
    let mut lookups = 0u64;
    let mut system = ctx.system.clone();
    system.set_cache_config(anole_core::CacheConfig {
        capacity,
        policy,
        byte_budget: None,
    });
    for clip in clips {
        let mut engine = system.online_engine(DeviceKind::JetsonTx2Nx, split_seed(ctx.seed, 703));
        engine.warm(&(0..capacity.min(system.repository().len())).collect::<Vec<_>>());
        for &r in &clip.frames {
            let frame = ctx.dataset.frame(r);
            let out = engine.step(&frame.features).expect("step");
            counts.accumulate(&out.detections, &frame.truth);
        }
        let stats = engine.cache_stats();
        hits += stats.hits;
        lookups += stats.lookups();
    }
    let miss_rate = if lookups == 0 {
        0.0
    } else {
        1.0 - hits as f64 / lookups as f64
    };
    (miss_rate, counts.f1())
}

#[cfg(test)]
mod tests {
    use crate::{Context, Scale};
    use anole_tensor::Seed;

    #[test]
    fn fig7a_reports_all_six_clips() {
        let ctx = Context::build(Scale::Small, Seed(15)).unwrap();
        let text = super::fig7a(&ctx);
        for t in ["T1", "T6"] {
            assert!(text.contains(t));
        }
    }

    #[test]
    fn fig7b_miss_rate_not_increasing_with_capacity() {
        let ctx = Context::build(Scale::Small, Seed(16)).unwrap();
        let text = super::fig7b(&ctx);
        assert!(text.contains("miss rate"));
        // Parse the miss-rate column and check the trend loosely (first vs
        // last row).
        let rates: Vec<f64> = text
            .lines()
            .filter_map(|l| {
                let cells: Vec<&str> = l.split('|').map(str::trim).collect();
                if cells.len() >= 3 && cells[1].chars().all(|c| c.is_ascii_digit()) {
                    cells[2].parse::<f64>().ok()
                } else {
                    None
                }
            })
            .collect();
        if rates.len() >= 2 {
            assert!(
                *rates.last().unwrap() <= rates.first().unwrap() + 0.05,
                "{rates:?}"
            );
        }
    }
}
