//! The DAC'22 worst-case dynamic PDN noise predictor (paper §3.4, Fig. 3).
//!
//! Three subnets compose the model:
//!
//! 1. **Distance dimension reduction** ([`unet::UNet`] with `C1 = 8`
//!    kernels): squeezes the `B × m × n` distance-to-bump tensor into a
//!    single `m × n` map `D̃`, exploiting the locality of bump influence;
//! 2. **Current map fusion** ([`fusion::FusionNet`] with `C2 = 8`): an
//!    encoder–decoder applied *per time sample* (so vectors of any length
//!    work), followed by the per-tile statistics
//!    `Ĩ_max`, `Ĩ_mean = (max+min)/2`, `Ĩ_msd = μ + 3σ`
//!    ([`stats::TemporalStats`]);
//! 3. **Noise prediction** (a second U-Net with `C3 = 16`): maps the
//!    concatenated `4 × m × n` features to the predicted worst-case noise
//!    map `V̂`.
//!
//! One forward pass predicts the whole die — no tile-by-tile scanning, which
//! is the scalability claim of the paper.
//!
//! [`model::WnvModel`] wires the subnets; [`trainer`] implements the
//! training loop (Adam, lr = 1e-4, L1 loss, expansion split).
//! [`model::Predictor`] answers queries through the same forward pass the
//! trainer runs: every layer applies its ReLU in its bias epilogue and
//! writes into a buffer it owns, and the model owns the padded inputs,
//! fused maps and statistics, so a steady-state pass allocates nothing but
//! the map `WnvModel::forward` returns.
//!
//! # Example
//!
//! ```
//! use pdn_model::model::{ModelConfig, WnvModel};
//! use pdn_nn::tensor::Tensor;
//!
//! let mut model = WnvModel::new(9, ModelConfig::default(), 42);
//! let distance = Tensor::zeros(&[9, 8, 8]);
//! let currents = vec![Tensor::zeros(&[1, 8, 8]); 4];
//! let noise = model.forward(&distance, &currents);
//! assert_eq!(noise.shape(), &[1, 8, 8]);
//! ```

pub mod checkpoint;
pub mod fusion;
pub mod io;
pub mod model;
pub mod pad;
pub mod stats;
pub mod trainer;
pub mod unet;

pub use checkpoint::CheckpointConfig;
pub use model::{ModelConfig, WnvModel};
pub use trainer::{TrainConfig, TrainHistory, Trainer};
