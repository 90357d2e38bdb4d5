//! GPU memory accounting (paper Table IV, §V-B).
//!
//! Loading a model costs its weight footprint; *executing* one costs more
//! (activations, workspace). The model cache keeps several compressed models
//! loaded but only one executes at a time, so the budget is:
//! `gpu_memory ≥ execution_peak + scene_decision_resident + n · load_bytes`.

use anole_nn::ReferenceModel;

use crate::{DeviceKind, DeviceSpec};

/// GPU memory model for sizing the on-device model cache.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuMemoryModel {
    spec: DeviceSpec,
    /// Fraction of GPU memory usable by the application (the OS/display
    /// stack reserves the rest, significant on the 2 GB Nano).
    pub usable_fraction: f32,
}

impl GpuMemoryModel {
    /// Memory model of a device with a default 85% usable fraction.
    pub fn for_device(kind: DeviceKind) -> Self {
        Self {
            spec: DeviceSpec::of(kind),
            usable_fraction: 0.85,
        }
    }

    /// Usable bytes.
    pub fn usable_bytes(&self) -> u64 {
        (self.spec.gpu_memory_bytes as f64 * self.usable_fraction as f64) as u64
    }

    /// Peak execution footprint of a model class (Table IV "Execution").
    pub fn execution_bytes(&self, model: ReferenceModel) -> u64 {
        model.execution_bytes()
    }

    /// Maximum number of compressed models that can stay cached while the
    /// Anole pipeline (scene encoder + decision model resident, one
    /// compressed model executing) still fits.
    pub fn max_cached_models(&self) -> usize {
        self.max_cached_models_at(ReferenceModel::Yolov3Tiny.weight_bytes())
    }

    /// Byte budget left for cached compressed models once the pipeline's
    /// fixed residents (scene encoder, decision model, one executing
    /// compressed model's workspace) are charged.
    fn cache_byte_budget(&self) -> u64 {
        let budget = self.usable_bytes() as i64
            - self.execution_bytes(ReferenceModel::Yolov3Tiny) as i64
            - ReferenceModel::Resnet18.weight_bytes() as i64
            - ReferenceModel::DecisionMlp.weight_bytes() as i64;
        budget.max(0) as u64
    }

    /// Maximum cached compressed models at an explicit per-model footprint.
    ///
    /// [`GpuMemoryModel::max_cached_models`] assumes every cached model
    /// holds f32 weights; quantized models charge their true int8 footprint
    /// (3.4× smaller for the serving detector), so the same budget holds
    /// proportionally more of them.
    pub fn max_cached_models_at(&self, per_model_bytes: u64) -> usize {
        if per_model_bytes == 0 {
            return 0;
        }
        (self.cache_byte_budget() / per_model_bytes) as usize
    }

    /// Whether a single deep model (SDM) plus execution workspace fits.
    pub fn fits_deep_model(&self) -> bool {
        self.execution_bytes(ReferenceModel::Yolov3) <= self.usable_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tx2_caches_a_handful_of_models() {
        // Fig. 7b: ~5 cached models suffice; the TX2 fits comfortably more,
        // the Nano is the constrained case.
        let tx2 = GpuMemoryModel::for_device(DeviceKind::JetsonTx2Nx);
        assert!(tx2.max_cached_models() >= 10, "{}", tx2.max_cached_models());

        let nano = GpuMemoryModel::for_device(DeviceKind::JetsonNano);
        assert!(
            (2..=16).contains(&nano.max_cached_models()),
            "nano fits {}",
            nano.max_cached_models()
        );
        assert!(tx2.max_cached_models() > nano.max_cached_models());
    }

    #[test]
    fn deep_model_fits_tx2_but_is_borderline_on_nano() {
        assert!(GpuMemoryModel::for_device(DeviceKind::JetsonTx2Nx).fits_deep_model());
        // Nano: 1.73 GB execution footprint vs 2 GB × 0.85 usable — the deep
        // model does not fit without giving it nearly the whole GPU.
        let mut nano = GpuMemoryModel::for_device(DeviceKind::JetsonNano);
        assert!(!nano.fits_deep_model());
        nano.usable_fraction = 0.9;
        assert!(nano.fits_deep_model());
    }

    #[test]
    fn zero_budget_degrades_gracefully() {
        let mut m = GpuMemoryModel::for_device(DeviceKind::JetsonNano);
        m.usable_fraction = 0.1;
        assert_eq!(m.max_cached_models(), 0);
        assert_eq!(m.cache_byte_budget(), 0);
        assert_eq!(m.max_cached_models_at(1), 0);
    }

    #[test]
    fn quantized_models_quadruple_cache_capacity() {
        let nano = GpuMemoryModel::for_device(DeviceKind::JetsonNano);
        let fp32_bytes = ReferenceModel::Yolov3Tiny.weight_bytes();
        // int8 payload + per-row scales land near a quarter of f32.
        let int8_bytes = fp32_bytes / 4 + fp32_bytes / 100;
        let fp32_slots = nano.max_cached_models_at(fp32_bytes);
        let int8_slots = nano.max_cached_models_at(int8_bytes);
        assert_eq!(fp32_slots, nano.max_cached_models());
        assert!(
            int8_slots >= 3 * fp32_slots,
            "int8 {int8_slots} vs fp32 {fp32_slots}"
        );
        assert_eq!(nano.max_cached_models_at(0), 0);
    }
}
