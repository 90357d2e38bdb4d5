//! Figure 4: (a) cold-start inference latency; (b) model utility
//! distribution.

use anole_device::{DeviceKind, LatencyModel};
use anole_nn::ReferenceModel;
use anole_tensor::{rng_from_seed, split_seed};

use crate::{render, Context};

/// Regenerates Fig. 4(a): average per-frame latency of the first 20 frames
/// on the TX2 NX for YOLOv3 vs YOLOv3-tiny, cold start included.
pub fn fig4a(ctx: &Context) -> String {
    let latency = LatencyModel::for_device(DeviceKind::JetsonTx2Nx);
    let mut rng = rng_from_seed(split_seed(ctx.seed, 401));
    let mut rows = Vec::new();
    let deep = latency.cold_start_trace(ReferenceModel::Yolov3, 20, &mut rng);
    let tiny = latency.cold_start_trace(ReferenceModel::Yolov3Tiny, 20, &mut rng);
    for (i, (d, t)) in deep.iter().zip(tiny.iter()).enumerate() {
        rows.push(vec![
            format!("{}", i + 1),
            format!("{d:.1}"),
            format!("{t:.1}"),
        ]);
    }
    format!(
        "Figure 4(a): per-frame latency on Jetson TX2 NX, cold start at frame 1\n{}",
        render::table(&["frame", "YOLOv3 (ms)", "YOLOv3-tiny (ms)"], &rows)
    )
}

/// Regenerates Fig. 4(b): probability of each compressed model being the
/// top-1 choice over the test streams — the long-tailed utility
/// distribution motivating the small cache.
///
/// # Panics
///
/// Panics if the engine fails on a generated frame (never for a context
/// built by [`Context::build`]).
pub fn fig4b(ctx: &Context) -> String {
    let split = ctx.dataset.split();
    let mut engine = ctx
        .system
        .online_engine(DeviceKind::JetsonTx2Nx, split_seed(ctx.seed, 402));
    engine.warm(&(0..ctx.system.repository().len()).collect::<Vec<_>>());

    let mut counts = vec![0usize; ctx.system.repository().len()];
    for &r in &split.test {
        let out = engine
            .step(&ctx.dataset.frame(r).features)
            .expect("test stream");
        if out.models_executed > 0 {
            counts[out.used] += 1;
        }
    }
    let total: usize = counts.iter().sum();
    let mut items: Vec<(String, f64)> = counts
        .iter()
        .enumerate()
        .map(|(i, &c)| (format!("M{i:02}"), c as f64 / total.max(1) as f64))
        .collect();
    items.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));

    let top3: f64 = items.iter().take(3).map(|&(_, v)| v).sum();
    format!(
        "Figure 4(b): P(top-1) per compressed model over all test clips \
         (sorted; top-3 mass {:.2})\n{}",
        top3,
        render::bars(&items, 40)
    )
}

#[cfg(test)]
mod tests {
    use crate::{Context, Scale};
    use anole_tensor::Seed;

    #[test]
    fn fig4a_shows_cold_start_spike() {
        let ctx = Context::build(Scale::Small, Seed(11)).unwrap();
        let text = super::fig4a(&ctx);
        assert!(text.contains("frame"));
        assert!(text.lines().count() > 20);
    }

    #[test]
    fn fig4b_distributions_sum_to_one() {
        let ctx = Context::build(Scale::Small, Seed(12)).unwrap();
        let text = super::fig4b(&ctx);
        assert!(text.contains("P(top-1)"));
        assert!(text.contains("M0"));
    }
}
