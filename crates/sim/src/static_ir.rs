//! Static (DC) IR-drop analysis.
//!
//! Static analysis ignores capacitance and inductance (paper §2): the bump
//! branch reduces to its series resistance and the solve is a single linear
//! system. It provides the transient engine's initial condition and the
//! static-vs-dynamic comparisons in the ablation benches.

use crate::error::{SimError, SimResult};
use pdn_core::map::TileMap;
use pdn_core::units::Volts;
use pdn_grid::build::PowerGrid;
use pdn_sparse::cg::{self, CgOptions};
use pdn_sparse::csr::CsrMatrix;
use pdn_sparse::ichol::IncompleteCholesky;
use pdn_grid::stamp;

/// A prepared DC analysis: stamped matrix + preconditioner, reusable across
/// load patterns.
///
/// # Example
///
/// ```
/// use pdn_grid::design::{DesignPreset, DesignScale};
/// use pdn_sim::static_ir::StaticAnalysis;
///
/// let grid = DesignPreset::D1.spec(DesignScale::Tiny).build(1).unwrap();
/// let dc = StaticAnalysis::new(&grid).unwrap();
/// // No load current: every node sits at vdd.
/// let v = dc.solve(&vec![0.0; grid.loads().len()]).unwrap();
/// assert!(v.iter().all(|x| (x - 1.0).abs() < 1e-6));
/// ```
#[derive(Debug)]
pub struct StaticAnalysis {
    matrix: CsrMatrix,
    pre: IncompleteCholesky,
    /// Per-bump `(node, conductance)` of the resistive package branch.
    bump_g: Vec<(usize, f64)>,
    load_nodes: Vec<usize>,
    vdd: Volts,
    node_count: usize,
    bottom: std::ops::Range<usize>,
    node_tile_flat: Vec<usize>,
    tile_shape: (usize, usize),
}

impl StaticAnalysis {
    /// Stamps and factors the DC system for a grid.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoBumps`] for floating grids and propagates
    /// factorization failures.
    pub fn new(grid: &PowerGrid) -> SimResult<StaticAnalysis> {
        if grid.bumps().is_empty() {
            return Err(SimError::NoBumps);
        }
        let mut coo = stamp::conductance_coo(grid);
        let mut bump_g = Vec::with_capacity(grid.bumps().len());
        for b in grid.bumps() {
            let g = 1.0 / b.resistance.0;
            coo.push(b.node.index(), b.node.index(), g);
            bump_g.push((b.node.index(), g));
        }
        let matrix = coo.to_csr();
        let pre = IncompleteCholesky::factor(&matrix)?;
        let tiles = grid.tile_grid();
        let node_tile_flat = (0..grid.node_count())
            .map(|i| tiles.flat_index(grid.node_tile(pdn_grid::build::NodeId::new(i))))
            .collect();
        Ok(StaticAnalysis {
            matrix,
            pre,
            bump_g,
            load_nodes: grid.loads().iter().map(|l| l.node.index()).collect(),
            vdd: grid.spec().vdd(),
            node_count: grid.node_count(),
            bottom: grid.bottom_nodes(),
            node_tile_flat,
            tile_shape: (tiles.rows(), tiles.cols()),
        })
    }

    /// Solves for node voltages under the given per-load DC currents
    /// (amperes, one entry per grid load).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::VectorMismatch`] for a wrong-length current
    /// vector and propagates solver failures.
    pub fn solve(&self, load_currents: &[f64]) -> SimResult<Vec<f64>> {
        if load_currents.len() != self.load_nodes.len() {
            return Err(SimError::VectorMismatch {
                expected: self.load_nodes.len(),
                actual: load_currents.len(),
            });
        }
        let mut rhs = vec![0.0; self.node_count];
        for &(node, g) in &self.bump_g {
            rhs[node] += g * self.vdd.0;
        }
        for (&node, &i) in self.load_nodes.iter().zip(load_currents) {
            rhs[node] -= i;
        }
        let sol = cg::solve(&self.matrix, &rhs, &self.pre, &CgOptions::default())?;
        Ok(sol.x)
    }

    /// Solves and reduces to a per-tile worst (max) IR-drop map over the
    /// bottom layer, in volts of droop.
    ///
    /// # Errors
    ///
    /// Same as [`StaticAnalysis::solve`].
    pub fn droop_map(&self, load_currents: &[f64]) -> SimResult<TileMap> {
        let v = self.solve(load_currents)?;
        let mut map = TileMap::zeros(self.tile_shape.0, self.tile_shape.1);
        let data = map.as_mut_slice();
        for n in self.bottom.clone() {
            let droop = self.vdd.0 - v[n];
            let t = self.node_tile_flat[n];
            if droop > data[t] {
                data[t] = droop;
            }
        }
        Ok(map)
    }

    /// The nominal supply voltage.
    pub fn vdd(&self) -> Volts {
        self.vdd
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdn_grid::design::{DesignPreset, DesignScale};

    fn grid() -> PowerGrid {
        DesignPreset::D1.spec(DesignScale::Tiny).build(1).unwrap()
    }

    #[test]
    fn zero_load_sits_at_vdd() {
        let g = grid();
        let dc = StaticAnalysis::new(&g).unwrap();
        let v = dc.solve(&vec![0.0; g.loads().len()]).unwrap();
        for x in v {
            assert!((x - 1.0).abs() < 1e-8);
        }
    }

    #[test]
    fn droop_scales_linearly_with_current() {
        let g = grid();
        let dc = StaticAnalysis::new(&g).unwrap();
        let i1 = vec![1e-3; g.loads().len()];
        let i2 = vec![2e-3; g.loads().len()];
        let d1 = dc.droop_map(&i1).unwrap();
        let d2 = dc.droop_map(&i2).unwrap();
        assert!(d1.max() > 0.0);
        assert!((d2.max() / d1.max() - 2.0).abs() < 1e-6, "linearity violated");
    }

    #[test]
    fn droop_everywhere_nonnegative_and_below_vdd() {
        let g = grid();
        let dc = StaticAnalysis::new(&g).unwrap();
        let map = dc.droop_map(&vec![5e-3; g.loads().len()]).unwrap();
        assert!(map.min() >= -1e-9);
        assert!(map.max() < 1.0);
    }

    #[test]
    fn wrong_length_rejected() {
        let g = grid();
        let dc = StaticAnalysis::new(&g).unwrap();
        assert!(matches!(dc.solve(&[0.0]), Err(SimError::VectorMismatch { .. })));
    }

    #[test]
    fn hotspot_is_near_loads() {
        // The tile with maximum droop must contain at least one load.
        let g = grid();
        let dc = StaticAnalysis::new(&g).unwrap();
        let map = dc.droop_map(&vec![5e-3; g.loads().len()]).unwrap();
        let worst = map.argmax();
        let load_tiles: std::collections::HashSet<_> =
            g.loads().iter().map(|l| l.tile).collect();
        // Allow the neighborhood: droop peaks at a load node's tile.
        assert!(
            load_tiles.iter().any(|t| t.row.abs_diff(worst.row) <= 1 && t.col.abs_diff(worst.col) <= 1),
            "worst tile {worst:?} far from all loads"
        );
    }
}
