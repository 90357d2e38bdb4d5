//! Inference and model-load latency (paper Table IV, Fig. 4a).

use anole_nn::ReferenceModel;
use anole_tensor::StdRng;

use crate::{DeviceKind, DeviceSpec};

/// Mean per-frame inference latency in milliseconds per Table IV.
///
/// The `M_scene + M_decision` pipeline stage is represented by
/// [`ReferenceModel::Resnet18`] (the backbone dominates; the MLP head adds
/// microseconds) — use [`LatencyModel::scene_decision_ms`] for the combined
/// row.
fn table_iv_ms(kind: DeviceKind, model: ReferenceModel) -> f32 {
    use DeviceKind::*;
    use ReferenceModel::*;
    match (kind, model) {
        (JetsonNano, Yolov3) => 313.8,
        (JetsonNano, Yolov3Tiny) => 37.8,
        (JetsonNano, Resnet18) => 22.9,
        (JetsonNano, DecisionMlp) => 0.3,
        (JetsonTx2Nx, Yolov3) => 42.9,
        (JetsonTx2Nx, Yolov3Tiny) => 10.8,
        (JetsonTx2Nx, Resnet18) => 3.0,
        (JetsonTx2Nx, DecisionMlp) => 0.1,
        (Laptop, Yolov3) => 62.2,
        (Laptop, Yolov3Tiny) => 32.2,
        (Laptop, Resnet18) => 20.5,
        (Laptop, DecisionMlp) => 0.3,
    }
}

/// Latency simulator for one device.
///
/// Mean per-model latencies reproduce Table IV; each call adds log-normal-ish
/// jitter (a truncated Gaussian multiplicative factor) so experiment traces
/// have realistic variance. Model loading (the Fig. 4a first-frame spike) is
/// priced as framework initialization plus weight I/O.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyModel {
    spec: DeviceSpec,
    jitter_fraction: f32,
    /// Throughput multiplier (power-mode scaling); 1.0 = full speed.
    throughput_scale: f32,
}

impl LatencyModel {
    /// Latency model of a device at full power.
    pub fn for_device(kind: DeviceKind) -> Self {
        Self {
            spec: DeviceSpec::of(kind),
            jitter_fraction: 0.05,
            throughput_scale: 1.0,
        }
    }

    /// The underlying device spec.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Sets the multiplicative latency jitter (default 5%).
    pub fn with_jitter(mut self, fraction: f32) -> Self {
        self.jitter_fraction = fraction.max(0.0);
        self
    }

    /// Scales compute throughput (for power modes); `0.5` doubles compute
    /// latency. I/O and framework costs are unaffected.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not strictly positive.
    pub fn with_throughput_scale(mut self, scale: f32) -> Self {
        assert!(scale > 0.0, "throughput scale must be positive");
        self.throughput_scale = scale;
        self
    }

    /// Mean (jitter-free) inference latency of a model class at the current
    /// throughput scale.
    pub fn mean_inference_ms(&self, model: ReferenceModel) -> f32 {
        table_iv_ms(self.spec.kind, model) / self.throughput_scale
    }

    /// One sampled per-frame inference latency.
    pub fn inference_ms(&self, model: ReferenceModel, rng: &mut StdRng) -> f32 {
        self.mean_inference_ms(model) * self.jitter_factor(rng)
    }

    /// Mean latency of the `M_scene + M_decision` stage (Table IV row 1).
    pub fn mean_scene_decision_ms(&self) -> f32 {
        self.mean_inference_ms(ReferenceModel::Resnet18)
            + self.mean_inference_ms(ReferenceModel::DecisionMlp)
    }

    /// One sampled `M_scene + M_decision` latency.
    pub fn scene_decision_ms(&self, rng: &mut StdRng) -> f32 {
        self.mean_scene_decision_ms() * self.jitter_factor(rng)
    }

    /// Model-load latency: weight I/O at the device's bandwidth. Add
    /// [`LatencyModel::framework_init_ms`] when the process has never loaded
    /// any model before (the Fig. 4a first-frame spike includes both).
    pub fn load_ms(&self, model: ReferenceModel) -> f32 {
        model.weight_bytes() as f32 / self.spec.load_bandwidth_bytes_per_ms
    }

    /// One-time framework initialization cost (PyTorch/TensorRT warm-up).
    pub fn framework_init_ms(&self) -> f32 {
        self.spec.framework_init_ms
    }

    /// First-twenty-frames latency trace of Fig. 4a: frame 0 pays framework
    /// init + model load + inference; subsequent frames pay inference only.
    pub fn cold_start_trace(
        &self,
        model: ReferenceModel,
        frames: usize,
        rng: &mut StdRng,
    ) -> Vec<f32> {
        (0..frames)
            .map(|i| {
                let mut ms = self.inference_ms(model, rng);
                if i == 0 {
                    ms += self.framework_init_ms() + self.load_ms(model);
                }
                ms
            })
            .collect()
    }

    fn jitter_factor(&self, rng: &mut StdRng) -> f32 {
        if self.jitter_fraction == 0.0 {
            return 1.0;
        }
        // Truncated Gaussian multiplicative jitter.
        let z = rng.normal_f32();
        (1.0 + z.clamp(-3.0, 3.0) * self.jitter_fraction).max(0.2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anole_tensor::{rng_from_seed, Seed};

    #[test]
    fn table_iv_means_are_reproduced() {
        let nano = LatencyModel::for_device(DeviceKind::JetsonNano);
        assert_eq!(nano.mean_inference_ms(ReferenceModel::Yolov3), 313.8);
        assert_eq!(nano.mean_inference_ms(ReferenceModel::Yolov3Tiny), 37.8);
        let tx2 = LatencyModel::for_device(DeviceKind::JetsonTx2Nx);
        assert!((tx2.mean_scene_decision_ms() - 3.1).abs() < 0.01);
        let laptop = LatencyModel::for_device(DeviceKind::Laptop);
        assert_eq!(laptop.mean_inference_ms(ReferenceModel::Yolov3Tiny), 32.2);
    }

    #[test]
    fn tiny_is_much_faster_than_deep_everywhere() {
        for kind in DeviceKind::ALL {
            let m = LatencyModel::for_device(kind);
            let tiny = m.mean_inference_ms(ReferenceModel::Yolov3Tiny);
            let deep = m.mean_inference_ms(ReferenceModel::Yolov3);
            assert!(deep > 1.9 * tiny, "{kind}: {deep} vs {tiny}");
        }
        // Paper: 87.9% lower on Nano.
        let nano = LatencyModel::for_device(DeviceKind::JetsonNano);
        let reduction = 1.0
            - nano.mean_inference_ms(ReferenceModel::Yolov3Tiny)
                / nano.mean_inference_ms(ReferenceModel::Yolov3);
        assert!((reduction - 0.879).abs() < 0.01, "reduction {reduction}");
    }

    #[test]
    fn jitter_is_centered_and_bounded() {
        let m = LatencyModel::for_device(DeviceKind::JetsonTx2Nx);
        let mut rng = rng_from_seed(Seed(1));
        let n = 2000;
        let samples: Vec<f32> = (0..n)
            .map(|_| m.inference_ms(ReferenceModel::Yolov3Tiny, &mut rng))
            .collect();
        let mean: f32 = samples.iter().sum::<f32>() / n as f32;
        assert!((mean - 10.8).abs() < 0.3, "mean {mean}");
        assert!(samples.iter().all(|&s| s > 0.0));
    }

    #[test]
    fn zero_jitter_is_deterministic() {
        let m = LatencyModel::for_device(DeviceKind::Laptop).with_jitter(0.0);
        let mut rng = rng_from_seed(Seed(2));
        assert_eq!(m.inference_ms(ReferenceModel::Yolov3, &mut rng), 62.2);
    }

    #[test]
    fn cold_start_spike_dominates_first_frame() {
        let m = LatencyModel::for_device(DeviceKind::JetsonTx2Nx).with_jitter(0.0);
        let mut rng = rng_from_seed(Seed(3));
        let trace = m.cold_start_trace(ReferenceModel::Yolov3, 20, &mut rng);
        assert_eq!(trace.len(), 20);
        // First frame includes ~1.5 s init + ~2 s weight I/O.
        assert!(trace[0] > 30.0 * trace[1], "spike {} vs steady {}", trace[0], trace[1]);
        for w in trace[1..].windows(2) {
            assert_eq!(w[0], w[1]);
        }
    }

    #[test]
    fn load_time_scales_with_weights() {
        let m = LatencyModel::for_device(DeviceKind::JetsonNano);
        let deep = m.load_ms(ReferenceModel::Yolov3);
        let tiny = m.load_ms(ReferenceModel::Yolov3Tiny);
        assert!((deep / tiny - 237.0 / 34.0).abs() < 0.05);
    }

    #[test]
    fn throughput_scale_slows_compute() {
        let full = LatencyModel::for_device(DeviceKind::JetsonTx2Nx);
        let half = LatencyModel::for_device(DeviceKind::JetsonTx2Nx).with_throughput_scale(0.5);
        assert_eq!(
            half.mean_inference_ms(ReferenceModel::Yolov3Tiny),
            2.0 * full.mean_inference_ms(ReferenceModel::Yolov3Tiny)
        );
        assert_eq!(half.load_ms(ReferenceModel::Yolov3Tiny), full.load_ms(ReferenceModel::Yolov3Tiny));
    }

    #[test]
    #[should_panic(expected = "throughput scale must be positive")]
    fn rejects_zero_throughput() {
        let _ = LatencyModel::for_device(DeviceKind::Laptop).with_throughput_scale(0.0);
    }
}
