//! `diag` — routing diagnostics: how much of Anole's headroom the decision
//! model captures, per split.
//!
//! For each frame we compute the F1 of (a) the oracle best repository model,
//! (b) the decision-routed model (no cache), and (c) every model's mean —
//! separating "the repository cannot cover this frame" from "the router
//! picked the wrong model". The per-clip ceilings are measured on held-out
//! frames only: the seen clips' test and validation frames, and the unseen
//! clips.
//!
//! ```text
//! cargo run --release -p anole-bench --bin diag [-- --small]
//! ```

use anole_bench::{Context, Scale};
use anole_core::osp::frame_f1_of;
use anole_data::FrameRef;
use anole_detect::DetectionCounts;
use anole_tensor::Seed;

fn analyze(ctx: &Context, name: &str, refs: &[FrameRef]) {
    let threshold = ctx.system.config().detector.threshold;
    let mut oracle = DetectionCounts::default();
    let mut routed = DetectionCounts::default();
    let mut top3_contains_best = 0usize;
    let mut routed_regret = 0.0f32;
    for &r in refs {
        let frame = ctx.dataset.frame(r);
        let mut best = (0usize, -1.0f32);
        for m in ctx.system.repository().models() {
            let f1 = frame_f1_of(m, frame, threshold).expect("width");
            if f1 > best.1 {
                best = (m.id, f1);
            }
        }
        let ranking = ctx.system.decision().rank(&frame.features).expect("rank");
        let chosen = ranking[0];
        if ranking[..3.min(ranking.len())].contains(&best.0) {
            top3_contains_best += 1;
        }
        let chosen_f1 =
            frame_f1_of(ctx.system.repository().model(chosen), frame, threshold).expect("width");
        routed_regret += best.1.max(0.0) - chosen_f1;

        let best_pred = ctx
            .system
            .repository()
            .model(best.0)
            .detect(&frame.features, threshold)
            .expect("width");
        oracle.accumulate(&best_pred, &frame.truth);
        let chosen_pred = ctx
            .system
            .repository()
            .model(chosen)
            .detect(&frame.features, threshold)
            .expect("width");
        routed.accumulate(&chosen_pred, &frame.truth);
    }
    println!(
        "{name}: oracle F1 {:.3} | routed F1 {:.3} | mean regret {:.3} | top3 hit {:.2}",
        oracle.f1(),
        routed.f1(),
        routed_regret / refs.len().max(1) as f32,
        top3_contains_best as f32 / refs.len().max(1) as f32,
    );
}

/// F1 of the best *fixed* model per clip (scene-level oracle) over `refs`:
/// each clip's model is chosen on that clip's frames in `refs` and scored
/// on the same frames. The realistic headroom for a per-scene router, free
/// of per-frame selection noise; pass held-out frames only, never the
/// frames the specialists trained on.
fn scene_oracle(ctx: &Context, name: &str, refs: &[FrameRef]) {
    let threshold = ctx.system.config().detector.threshold;
    let mut clips: Vec<usize> = refs.iter().map(|r| r.clip).collect();
    clips.sort_unstable();
    clips.dedup();
    let mut total = DetectionCounts::default();
    for c in clips {
        let clip_refs: Vec<FrameRef> = refs.iter().copied().filter(|r| r.clip == c).collect();
        let mut best: (usize, f32) = (0, -1.0);
        for m in ctx.system.repository().models() {
            let f1 = m.evaluate_f1(&ctx.dataset, &clip_refs, threshold).expect("width");
            if f1 > best.1 {
                best = (m.id, f1);
            }
        }
        let model = ctx.system.repository().model(best.0);
        for &r in &clip_refs {
            let frame = ctx.dataset.frame(r);
            let pred = model.detect(&frame.features, threshold).expect("width");
            total.accumulate(&pred, &frame.truth);
        }
    }
    println!("{name}: scene-oracle F1 {:.3}", total.f1());
}

fn main() {
    let scale = if std::env::args().any(|a| a == "--small") {
        Scale::Small
    } else {
        Scale::Paper
    };
    let ctx = Context::build(scale, Seed::default()).expect("training");
    let split = ctx.dataset.split();
    analyze(&ctx, "validation", &split.val);
    analyze(&ctx, "test      ", &split.test);
    let unseen: Vec<FrameRef> = split
        .unseen_clips
        .iter()
        .flat_map(|&c| ctx.dataset.clip_frames(c))
        .collect();
    analyze(&ctx, "unseen    ", &unseen);
    scene_oracle(&ctx, "unseen    ", &unseen);
    scene_oracle(&ctx, "test      ", &split.test);
    scene_oracle(&ctx, "validation", &split.val);

    // Online-engine latency/hedging profile per split.
    for (name, refs) in [("test", &split.test), ("unseen", &unseen)] {
        let mut engine = ctx
            .system
            .online_engine(anole_device::DeviceKind::JetsonTx2Nx, Seed(1));
        engine.warm(&(0..ctx.system.repository().len()).collect::<Vec<_>>());
        for &r in refs.iter() {
            let frame = ctx.dataset.frame(r);
            engine.step(&frame.features).expect("step");
        }
        println!(
            "{name}: mean latency {:.1} ms | hedge rate {:.2}",
            engine.mean_latency_ms(),
            engine.hedge_rate()
        );
        let mut confidences: Vec<f32> = refs
            .iter()
            .map(|&r| {
                let frame = ctx.dataset.frame(r);
                ctx.system.decision().best_model(&frame.features).expect("rank").1
            })
            .collect();
        confidences.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let q = |f: f64| confidences[((confidences.len() - 1) as f64 * f) as usize];
        println!(
            "{name}: top-1 suitability p10 {:.2} p25 {:.2} p50 {:.2} p75 {:.2} p90 {:.2}",
            q(0.1), q(0.25), q(0.5), q(0.75), q(0.9)
        );
    }
}
