//! # zkvc-nn
//!
//! The quantised Transformer substrate used for the paper's end-to-end
//! experiments (Tables III and IV): fixed-point tensors, the four token
//! mixers compared in the evaluation (SoftMax attention, scaling attention,
//! average pooling, linear mixing), ViT and BERT model configurations, and
//! the compiler that turns a model's forward pass into one R1CS per layer.
//!
//! Model weights are synthetically initialised, standing in for the
//! paper's trained models: the proving-time columns of Tables III/IV depend
//! only on the circuit structure — layer shapes, sequence lengths and mixer choices —
//! not on trained weight values, so the cost profile is reproduced without
//! the GPUs/datasets needed to re-train the models. Accuracy columns are
//! echoed from the paper and marked as such by the harness.
//!
//! ## Example
//!
//! ```rust
//! use zkvc_nn::models::VitConfig;
//! use zkvc_nn::mixer::MixerSchedule;
//! use zkvc_nn::circuit::ModelStatement;
//! use zkvc_core::api::{compile_shape, generate_witness_for};
//! use zkvc_core::matmul::Strategy;
//! use zkvc_ff::{Fr, PrimeField};
//!
//! // A tiny ViT: 2 layers, 16 tokens, hidden dim 32. The last two
//! // arguments seed the synthetic weights and fix the CRPC challenge.
//! let cfg = VitConfig::custom(2, 2, 32, 16, 10);
//! let schedule = MixerSchedule::zkvc_hybrid(cfg.num_layers);
//! let statement =
//!     ModelStatement::new(cfg.to_model(), schedule, Strategy::CrpcPsq, 42, Fr::from_u64(7));
//! let shape = compile_shape(&statement);
//! assert!(shape.is_satisfied(&generate_witness_for(&statement, &shape)));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

pub mod circuit;
pub mod layers;
pub mod mixer;
pub mod models;
pub mod tensor;

pub use circuit::{LayerStats, ModelStatement};
pub use mixer::{MixerSchedule, TokenMixer};
pub use models::{BertConfig, ModelConfig, VitConfig};
pub use tensor::Tensor;
