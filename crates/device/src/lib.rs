//! Mobile-device simulator for the Anole reproduction.
//!
//! The paper deploys on three physical devices (Jetson Nano, Jetson TX2 NX,
//! a laptop — Table I) and reports per-model inference latency and memory
//! (Table IV), cold-start model-loading delays (Fig. 4a), and power/FPS
//! across TX2 power modes (Fig. 11). This crate reproduces those cost models
//! in simulation:
//!
//! * [`DeviceSpec`] — hardware constants per device, calibrated so that the
//!   mean simulated latencies reproduce Table IV exactly;
//! * [`LatencyModel`] — per-frame inference latency with jitter, plus
//!   model-load latency (I/O + framework initialization) for cold starts;
//! * [`PowerMode`] / [`PowerModel`] — the TX2-style power modes of Fig. 11;
//! * [`GpuMemoryModel`] — how many compressed models fit in GPU memory,
//!   which bounds the model-cache capacity;
//! * [`UnstableLink`] — a Gilbert–Elliott uplink for the cloud-offload
//!   ablation motivating local inference (§I).
//!
//! # Examples
//!
//! ```
//! use anole_device::{DeviceKind, LatencyModel};
//! use anole_nn::ReferenceModel;
//! use anole_tensor::{rng_from_seed, Seed};
//!
//! let model = LatencyModel::for_device(DeviceKind::JetsonTx2Nx);
//! let mut rng = rng_from_seed(Seed(1));
//! let ms = model.inference_ms(ReferenceModel::Yolov3Tiny, &mut rng);
//! assert!(ms > 5.0 && ms < 20.0); // Table IV: 10.8 ms mean
//! ```

mod latency;
mod link;
mod memory;
mod power;
mod spec;

pub use latency::LatencyModel;
pub use link::{LinkState, UnstableLink};
pub use memory::GpuMemoryModel;
pub use power::{PowerModel, PowerMode, PowerReading};
pub use spec::{DeviceKind, DeviceSpec};
