//! Sparse linear algebra for power-grid analysis.
//!
//! PDN sign-off reduces to solving `A v = b` where `A` is a symmetric
//! positive-definite (SPD) conductance-like matrix with millions of unknowns
//! (paper §2). This crate provides everything the simulator needs:
//!
//! * [`coo::CooMatrix`] — triplet assembly during MNA stamping;
//! * [`csr::CsrMatrix`] — compressed-sparse-row storage with lockstep
//!   mat-vec over 1..=[`MAX_LOCKSTEP`] interleaved vectors;
//! * [`dense::DenseMatrix`] — dense fallback with Cholesky, used for small
//!   systems and for cross-checking the sparse paths in tests;
//! * [`supernodal::SupernodalCholesky`] — supernodal Cholesky with dense
//!   column panels driven by the [`panel`] GEMM/TRSM kernels: the direct
//!   factor-once/solve-many path, with an analyze/factor/refactor split
//!   and threaded multi-RHS sweeps;
//! * [`ichol::IncompleteCholesky`] — zero-fill IC(0) preconditioner;
//! * [`cg`] — preconditioned conjugate gradient, the default solver;
//! * [`ordering`] / [`amd`] — reverse Cuthill–McKee and quotient-graph
//!   approximate minimum degree, the two fill-reducing orderings the
//!   direct path chooses between by predicted fill.
//!
//! # Example
//!
//! ```
//! use pdn_sparse::coo::CooMatrix;
//! use pdn_sparse::cg::{self, CgOptions};
//! use pdn_sparse::ichol::IncompleteCholesky;
//!
//! // 2x2 SPD system: [[4,1],[1,3]] x = [1,2]
//! let mut coo = CooMatrix::new(2, 2);
//! coo.push(0, 0, 4.0);
//! coo.push(0, 1, 1.0);
//! coo.push(1, 0, 1.0);
//! coo.push(1, 1, 3.0);
//! let a = coo.to_csr();
//! let pre = IncompleteCholesky::factor(&a).unwrap();
//! let sol = cg::solve(&a, &[1.0, 2.0], &pre, &CgOptions::default()).unwrap();
//! assert!((sol.x[0] - 1.0 / 11.0).abs() < 1e-8);
//! assert!((sol.x[1] - 7.0 / 11.0).abs() < 1e-8);
//! ```

pub mod amd;
pub mod cg;
pub mod coo;
pub mod csr;
pub mod dense;
pub mod error;
pub mod ichol;
pub mod ordering;
pub mod panel;
pub mod supernodal;
pub mod vecops;

/// The widest lockstep batch: SpMV, the IC(0) solve and PCG each run one
/// body instantiated for every width `K` in `1..=MAX_LOCKSTEP`, and a
/// single vector is the batch of one. Wider calls are rejected, not
/// split; callers with more vectors chunk them.
pub const MAX_LOCKSTEP: usize = 4;

pub use cg::{CgOptions, CgSolution};
pub use coo::CooMatrix;
pub use csr::CsrMatrix;
pub use error::{SolveError, SparseResult};
pub use ichol::IncompleteCholesky;
pub use supernodal::{FillOrdering, OrderingSelection, SupernodalCholesky, SymbolicCholesky};
