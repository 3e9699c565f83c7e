//! Metrics and experiment drivers reproducing every table and figure of the
//! paper's evaluation (§4).
//!
//! * [`metrics`] — AE/RE statistics (mean, 99th percentile, max), hotspot
//!   missing rate at the 10 % V<sub>nom</sub> threshold, and ROC-AUC over
//!   hotspot classification — exactly the columns of Tables 2 and 3;
//! * [`harness`] — the shared pipeline (build design → generate vectors →
//!   simulate ground truth → dataset → train → predict test set) that every
//!   experiment reuses;
//! * [`experiments`] — one driver per paper artifact:
//!   [`experiments::table1`], [`experiments::table2`],
//!   [`experiments::table3`] (PowerNet comparison),
//!   [`experiments::fig4`] (noise-map comparisons, D1–D3),
//!   [`experiments::fig5`] (D4 error analysis),
//!   [`experiments::fig6`] (temporal-compression sweep);
//! * [`render`] — ASCII heat maps and CSV export for the figure artifacts;
//! * [`report`] — plain-text table formatting;
//! * [`jsonl`] — a dependency-free JSON / JSON-lines parser;
//! * [`serve`] — the `pdn serve` daemon: a threaded HTTP/1.1 front end
//!   with dynamic request batching over the shared predictor/simulator;
//! * [`tracereport`] — telemetry run analysis: aggregated span trees,
//!   Chrome-trace (Perfetto) export, and the markdown report behind
//!   `pdn report`.
//!
//! The `experiments` binary (`cargo run -p pdn-eval --release --bin
//! experiments`) runs the full suite, writes artifacts under
//! `target/experiments/` and records the results in EXPERIMENTS.md.

pub mod experiments;
pub mod harness;
pub mod jsonl;
pub mod metrics;
pub mod render;
pub mod report;
pub mod serve;
pub mod tracereport;

pub use harness::{EvalOptions, EvaluatedDesign, ExperimentConfig, PreparedDesign};
pub use metrics::ErrorStats;
