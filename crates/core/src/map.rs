//! Dense `m × n` scalar maps over the tile grid.
//!
//! [`TileMap`] is the common currency between the simulator (worst-case noise
//! maps), the compression stage (per-time-stamp current maps `I[k]`), the
//! feature extractor (distance maps) and the CNN (inputs/targets).

use crate::error::{CoreError, Result};
use crate::geom::TileIndex;
use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Sub};

/// A dense row-major `rows × cols` map of `f64` values.
///
/// # Example
///
/// ```
/// use pdn_core::map::TileMap;
/// use pdn_core::geom::TileIndex;
///
/// let mut m = TileMap::zeros(2, 2);
/// m[TileIndex::new(0, 1)] = 3.0;
/// m[TileIndex::new(1, 0)] = -1.0;
/// assert_eq!(m.max(), 3.0);
/// assert_eq!(m.min(), -1.0);
/// assert_eq!(m.sum(), 2.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TileMap {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl TileMap {
    /// Creates a map filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> TileMap {
        assert!(rows > 0 && cols > 0, "tile map must be non-empty");
        TileMap { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates the degenerate zero-tile map. Regular construction
    /// ([`TileMap::zeros`], [`TileMap::from_vec`]) rejects empty dimensions,
    /// but boundary cases (a design with no analyzable tiles, defensive
    /// tests) need a representable empty value; iteration yields nothing
    /// and consumers must guard their divisions (see
    /// `NoiseReport::hotspot_ratio` in `pdn-sim`).
    pub fn empty() -> TileMap {
        TileMap { rows: 0, cols: 0, data: Vec::new() }
    }

    /// Creates a map filled with a constant.
    pub fn filled(rows: usize, cols: usize, value: f64) -> TileMap {
        assert!(rows > 0 && cols > 0, "tile map must be non-empty");
        TileMap { rows, cols, data: vec![value; rows * cols] }
    }

    /// Creates a map from a row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ShapeMismatch`] if `data.len() != rows * cols`
    /// and [`CoreError::EmptyDimension`] if either dimension is zero.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<TileMap> {
        if rows == 0 {
            return Err(CoreError::EmptyDimension { what: "rows" });
        }
        if cols == 0 {
            return Err(CoreError::EmptyDimension { what: "cols" });
        }
        if data.len() != rows * cols {
            return Err(CoreError::ShapeMismatch { expected: rows * cols, actual: data.len() });
        }
        Ok(TileMap { rows, cols, data })
    }

    /// Creates a map by evaluating `f(row, col)` for every tile.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> TileMap {
        let mut m = TileMap::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m.data[r * cols + c] = f(r, c);
            }
        }
        m
    }

    /// Number of rows (`m`).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (`n`).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of tiles.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the map has zero tiles (only [`TileMap::empty`] qualifies).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Raw row-major view of the values.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw row-major view of the values.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Value at `(row, col)`, or `None` when out of range.
    pub fn get(&self, row: usize, col: usize) -> Option<f64> {
        if row < self.rows && col < self.cols {
            Some(self.data[row * self.cols + col])
        } else {
            None
        }
    }

    /// Sets the value at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range.
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        assert!(row < self.rows && col < self.cols, "tile map index out of range");
        self.data[row * self.cols + col] = value;
    }

    /// Sum of all values (the `S[k]` of Algorithm 1 when applied to a
    /// current map).
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Maximum value. Empty maps cannot exist, so this is total.
    pub fn max(&self) -> f64 {
        self.data.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Minimum value.
    pub fn min(&self) -> f64 {
        self.data.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Arithmetic mean of all values.
    pub fn mean(&self) -> f64 {
        self.sum() / self.data.len() as f64
    }

    /// Index of the maximum value (first occurrence, row-major order).
    pub fn argmax(&self) -> TileIndex {
        let mut best = 0;
        for (i, v) in self.data.iter().enumerate() {
            if *v > self.data[best] {
                best = i;
            }
        }
        TileIndex::new(best / self.cols, best % self.cols)
    }

    /// Element-wise maximum with another map, in place. Used to accumulate
    /// the worst-case (max over time) noise map during transient simulation.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn max_assign(&mut self, other: &TileMap) {
        assert_eq!(self.shape(), other.shape(), "shape mismatch in max_assign");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a = a.max(*b);
        }
    }

    /// Applies a function to every element, in place.
    pub fn map_inplace(&mut self, f: impl Fn(f64) -> f64) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Returns a new map with `f` applied to every element.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> TileMap {
        let mut out = self.clone();
        out.map_inplace(f);
        out
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of tiles whose value is strictly above `threshold` — the
    /// hotspot count of the paper when applied to a noise map with the 10 %
    /// V<sub>nom</sub> threshold.
    pub fn count_above(&self, threshold: f64) -> usize {
        self.data.iter().filter(|v| **v > threshold).count()
    }

    /// Iterates `(TileIndex, value)` in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (TileIndex, f64)> + '_ {
        let cols = self.cols;
        self.data
            .iter()
            .enumerate()
            .map(move |(i, v)| (TileIndex::new(i / cols, i % cols), *v))
    }
}

impl Index<TileIndex> for TileMap {
    type Output = f64;

    fn index(&self, t: TileIndex) -> &f64 {
        assert!(t.row < self.rows && t.col < self.cols, "tile map index out of range");
        &self.data[t.row * self.cols + t.col]
    }
}

impl IndexMut<TileIndex> for TileMap {
    fn index_mut(&mut self, t: TileIndex) -> &mut f64 {
        assert!(t.row < self.rows && t.col < self.cols, "tile map index out of range");
        &mut self.data[t.row * self.cols + t.col]
    }
}

impl Add<&TileMap> for &TileMap {
    type Output = TileMap;

    /// Element-wise sum.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    fn add(self, rhs: &TileMap) -> TileMap {
        assert_eq!(self.shape(), rhs.shape(), "shape mismatch in add");
        let data = self.data.iter().zip(&rhs.data).map(|(a, b)| a + b).collect();
        TileMap { rows: self.rows, cols: self.cols, data }
    }
}

impl Sub<&TileMap> for &TileMap {
    type Output = TileMap;

    /// Element-wise difference.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    fn sub(self, rhs: &TileMap) -> TileMap {
        assert_eq!(self.shape(), rhs.shape(), "shape mismatch in sub");
        let data = self.data.iter().zip(&rhs.data).map(|(a, b)| a - b).collect();
        TileMap { rows: self.rows, cols: self.cols, data }
    }
}

impl AddAssign<&TileMap> for TileMap {
    /// Element-wise accumulate.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    fn add_assign(&mut self, rhs: &TileMap) {
        assert_eq!(self.shape(), rhs.shape(), "shape mismatch in add_assign");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }
}

impl Mul<f64> for &TileMap {
    type Output = TileMap;

    fn mul(self, rhs: f64) -> TileMap {
        let data = self.data.iter().map(|a| a * rhs).collect();
        TileMap { rows: self.rows, cols: self.cols, data }
    }
}

impl fmt::Display for TileMap {
    /// Compact textual rendering showing shape and extremes; full values are
    /// available through [`TileMap::as_slice`].
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "TileMap {}x{} [min {:.4}, mean {:.4}, max {:.4}]",
            self.rows,
            self.cols,
            self.min(),
            self.mean(),
            self.max()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TileMap {
        TileMap::from_vec(2, 3, vec![1.0, -2.0, 3.0, 0.0, 5.0, -1.0]).unwrap()
    }

    #[test]
    fn construction_and_shape() {
        let m = sample();
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.len(), 6);
        assert_eq!(m.get(1, 1), Some(5.0));
        assert_eq!(m.get(2, 0), None);
    }

    #[test]
    fn from_vec_checks_shape() {
        assert!(TileMap::from_vec(2, 2, vec![0.0; 3]).is_err());
        assert!(TileMap::from_vec(0, 2, vec![]).is_err());
    }

    #[test]
    fn reductions() {
        let m = sample();
        assert_eq!(m.sum(), 6.0);
        assert_eq!(m.max(), 5.0);
        assert_eq!(m.min(), -2.0);
        assert_eq!(m.mean(), 1.0);
        assert_eq!(m.argmax(), TileIndex::new(1, 1));
        assert_eq!(m.count_above(0.5), 3);
    }

    #[test]
    fn max_assign_accumulates_worst_case() {
        let mut acc = TileMap::zeros(2, 2);
        let a = TileMap::from_vec(2, 2, vec![1.0, 0.0, 3.0, 0.0]).unwrap();
        let b = TileMap::from_vec(2, 2, vec![0.0, 2.0, 1.0, 0.5]).unwrap();
        acc.max_assign(&a);
        acc.max_assign(&b);
        assert_eq!(acc.as_slice(), &[1.0, 2.0, 3.0, 0.5]);
    }

    #[test]
    fn arithmetic() {
        let a = TileMap::filled(2, 2, 2.0);
        let b = TileMap::filled(2, 2, 3.0);
        assert_eq!((&a + &b).as_slice(), &[5.0; 4]);
        assert_eq!((&b - &a).as_slice(), &[1.0; 4]);
        assert_eq!((&a * 2.0).as_slice(), &[4.0; 4]);
        let mut c = a.clone();
        c += &b;
        assert_eq!(c.as_slice(), &[5.0; 4]);
    }

    #[test]
    fn from_fn_row_major() {
        let m = TileMap::from_fn(2, 2, |r, c| (r * 10 + c) as f64);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 10.0, 11.0]);
    }

    #[test]
    fn iter_yields_indices() {
        let m = sample();
        let collected: Vec<_> = m.iter().collect();
        assert_eq!(collected[4], (TileIndex::new(1, 1), 5.0));
    }

    #[test]
    fn display_mentions_shape() {
        let s = sample().to_string();
        assert!(s.contains("2x3"));
    }
}
