//! One driver per table/figure of the paper's evaluation section.
//!
//! | Paper artifact | Driver | Content |
//! |---|---|---|
//! | Table 1 | [`table1`] | design characteristics and noise summaries |
//! | Table 2 | [`table2`] | accuracy + runtime vs the simulator, per design |
//! | Table 3 | [`table3`] | proposed model vs PowerNet on D4 |
//! | Fig. 4  | [`fig4`]   | ground-truth vs predicted noise maps, D1–D3 |
//! | Fig. 5  | [`fig5`]   | D4 detail: RE histogram, RE map, both maps |
//! | Fig. 6  | [`fig6`]   | temporal compression: RE and runtime vs rate |
//! | (extension) | [`ablations`] | feature/compression ablations + static shortcut |
//!
//! [`record`] writes the rendered results into EXPERIMENTS.md.

pub mod ablations;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod record;
pub mod table1;
pub mod table2;
pub mod table3;
