//! A minimal, dependency-light neural-network library for the Anole
//! reproduction.
//!
//! The paper trains three kinds of networks: a ResNet18 scene encoder
//! (`M_scene`), a two-layer MLP decision model (`M_decision`), and a pack of
//! YOLOv3-tiny detectors. This crate provides the common substrate: dense
//! layers with manual backpropagation, softmax/sigmoid losses, the Adam
//! optimizer, a mini-batch trainer, and FLOP/weight accounting used both for
//! Table II and to drive the device-latency simulator.
//!
//! All computation is deterministic given a [`Seed`](anole_tensor::Seed).
//!
//! # Examples
//!
//! Train a tiny classifier on a linearly separable problem:
//!
//! ```
//! use anole_nn::{Activation, Mlp, TrainConfig, Trainer};
//! use anole_tensor::{Matrix, Seed};
//!
//! let x = Matrix::from_rows(&[&[0.0, 0.0], &[0.0, 1.0], &[1.0, 0.0], &[1.0, 1.0]])?;
//! let y = vec![0, 1, 1, 1]; // logical OR
//! let mut model = Mlp::builder(2)
//!     .hidden(8, Activation::Relu)
//!     .output(2)
//!     .build(anole_tensor::Seed(1));
//! let cfg = TrainConfig { epochs: 200, batch_size: 4, ..TrainConfig::default() };
//! Trainer::new(cfg).fit_classifier(&mut model, &x, &y, anole_tensor::Seed(2))?;
//! assert_eq!(model.classify(&x)?, y);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod activation;
#[cfg(feature = "alloc-count")]
pub mod alloc_count;
mod error;
mod layer;
mod loss;
mod mlp;
mod optim;
mod profile;
pub mod quant;
mod trainer;
mod workspace;

pub use activation::Activation;
pub use error::NnError;
pub use layer::Dense;
pub use loss::{
    bce_with_logits, bce_with_logits_into, sigmoid, sigmoid_into, soft_cross_entropy,
    soft_cross_entropy_into, softmax, softmax_cross_entropy, softmax_cross_entropy_into,
    softmax_into, LossValue,
};
pub use mlp::{Mlp, MlpBuilder};
pub use optim::{Adam, OptimizerKind};
pub use profile::{ModelProfile, ReferenceModel};
pub use quant::{Precision, Predictor, QuantizedDense, QuantizedMlp};
pub use trainer::{TrainConfig, TrainReport, Trainer};
pub use workspace::Workspace;
