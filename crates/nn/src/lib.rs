//! A from-scratch convolutional neural-network framework.
//!
//! The paper implements its model in PyTorch; an equivalent deep-learning
//! stack does not exist in offline Rust, so this crate provides the minimal
//! correct subset the model needs — nothing more, fully tested:
//!
//! * [`tensor::Tensor`] — dense `f32` tensors in `(C, H, W)` layout;
//! * [`conv::Conv2d`] — stride 1/2 convolutions with zero or replication
//!   padding (the paper uses replication padding on convolutions);
//! * [`deconv::ConvTranspose2d`] — stride-2 upsampling with zero padding
//!   (as in the paper's deconvolutional layers);
//! * [`activation::Activation`] — ReLU (everywhere except output layers)
//!   or identity, fixed at construction and applied in a layer's bias
//!   epilogue;
//! * [`loss`] — the L1 training loss (paper Eq. (3)) and MSE for
//!   diagnostics;
//! * [`optim::Adam`] — the optimizer with the paper's settings
//!   (lr = 1e-4);
//! * [`gradcheck`] — finite-difference verification used by the test suite
//!   to prove every backward pass correct.
//!
//! Layers follow an explicit forward/backward contract ([`layer::Layer`])
//! and the model wires subnets by hand — no autograd graph, which keeps the
//! code auditable and the dependency count at zero. Each layer has one
//! forward, shared by training and prediction: it writes into an output
//! buffer the layer owns, so a pass with the previous pass's shapes
//! allocates nothing.
//!
//! # Example
//!
//! ```
//! use pdn_nn::activation::Activation;
//! use pdn_nn::conv::{Conv2d, Padding};
//! use pdn_nn::layer::Layer;
//! use pdn_nn::tensor::Tensor;
//!
//! let mut conv = Conv2d::new(1, 4, 3, 1, Padding::Replication, Activation::Relu, 42);
//! let x = Tensor::zeros(&[1, 8, 8]);
//! let y = conv.forward(&x);
//! assert_eq!(y.shape(), &[4, 8, 8]);
//! ```

pub mod activation;
pub mod conv;
pub mod deconv;
pub mod dense;
pub mod gradcheck;
pub mod init;
pub mod layer;
pub mod linalg;
pub mod loss;
pub mod optim;
pub mod pool;
pub mod serialize;
pub mod tensor;

pub use activation::Activation;
pub use conv::{Conv2d, Padding};
pub use deconv::ConvTranspose2d;
pub use dense::Dense;
pub use layer::{Layer, Param};
pub use optim::Adam;
pub use pool::MaxPool2;
pub use tensor::Tensor;
