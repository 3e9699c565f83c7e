//! Shared fixtures for the component microbenchmarks.

use pdn_grid::build::PowerGrid;
use pdn_grid::design::{DesignPreset, DesignScale};
use pdn_vectors::generator::{GeneratorConfig, VectorGenerator};
use pdn_vectors::vector::TestVector;

/// The seed every bench grid is built with. `BENCH_components.json` was
/// recorded on grids built with it, so changing it changes every matrix.
const BENCH_SEED: u64 = 7;

/// Builds a Tiny-scale grid for a preset with the bench seed.
pub fn bench_grid(preset: DesignPreset) -> PowerGrid {
    preset.spec(DesignScale::Tiny).build(BENCH_SEED).expect("preset valid")
}

/// One random vector of `steps` stamps for a grid.
pub fn bench_vector(grid: &PowerGrid, steps: usize) -> TestVector {
    let gen = VectorGenerator::new(grid, GeneratorConfig { steps, ..Default::default() });
    gen.generate(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_build() {
        let grid = bench_grid(DesignPreset::D1);
        let v = bench_vector(&grid, 20);
        assert_eq!(v.load_count(), grid.loads().len());
    }
}
