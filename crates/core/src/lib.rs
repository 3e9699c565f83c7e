//! Foundation types shared by every crate in the `pdn-wnv` workspace.
//!
//! This crate contains the vocabulary of the whole system:
//!
//! * typed electrical [`units`] (volts, amps, ohms, farads, henries, seconds)
//!   so that a resistance can never be passed where a capacitance is expected;
//! * layout [`geom`]etry — points, rectangles and the [`TileGrid`] that
//!   partitions a die into the `m × n` tile array used throughout the paper
//!   (Eq. (2) of the DAC'22 paper);
//! * [`TileMap`], the dense `m × n` scalar map that carries current maps,
//!   distance maps and noise maps between crates;
//! * crash-safe [`fsio`] primitives — atomic write-temp-fsync-rename plus
//!   the dependency-free content digest that keys the ground-truth cache
//!   and seals checkpoints against torn reads;
//! * the one [`codec`] of the binary artifacts (cache entries, checkpoints,
//!   predictor bundles, weight files): a [`codec::Writer`] and a bounded
//!   [`codec::Reader`] that checks every run against the bytes left and
//!   reports every failure as `InvalidData`;
//! * deterministic [`rng`] construction so every experiment is reproducible;
//! * the process's [`threads`] width (the `PDN_THREADS` override);
//! * the [`telemetry`] registry — counters, gauges, histograms, spans
//!   and a JSON-lines sink — that every hot path reports to when
//!   `PDN_TELEMETRY` (or the `pdn --telemetry` flag) is set;
//! * simple [`stats`] helpers (mean, standard deviation, percentile) used by
//!   the temporal-compression algorithm and the evaluation metrics.
//!
//! # Example
//!
//! ```
//! use pdn_core::geom::{Point, TileGrid};
//! use pdn_core::map::TileMap;
//!
//! // Partition a 1 mm x 1 mm die into 10 x 10 tiles.
//! let grid = TileGrid::new(10, 10, 1000.0, 1000.0);
//! let tile = grid.tile_of(Point::new(512.0, 17.0));
//! let mut map = TileMap::zeros(grid.rows(), grid.cols());
//! map[tile] += 1.0;
//! assert_eq!(map.sum(), 1.0);
//! ```

pub mod codec;
pub mod error;
pub mod fsio;
pub mod geom;
pub mod map;
pub mod rng;
pub mod stats;
pub mod telemetry;
pub mod threads;
pub mod units;

pub use error::{CoreError, Result};
pub use geom::{Point, Rect, TileGrid, TileIndex};
pub use map::TileMap;
pub use units::{Amps, Farads, Henries, Ohms, Seconds, Volts};
