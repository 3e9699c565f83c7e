//! Dense `f32` tensors.
//!
//! The shapes used in this workspace are small enough (≤ 16 channels,
//! ≤ 200 × 200 maps) that a simple contiguous row-major buffer with explicit
//! indexing outperforms anything fancier — and is trivially correct.

use std::fmt;

/// A dense row-major tensor of `f32` values.
///
/// Most of the crate works with rank-3 `(C, H, W)` tensors; the weight
/// tensors of convolutions are rank-4. The struct itself is rank-agnostic.
///
/// # Example
///
/// ```
/// use pdn_nn::tensor::Tensor;
///
/// let mut t = Tensor::zeros(&[2, 3, 3]);
/// t.set3(1, 2, 2, 5.0);
/// assert_eq!(t.at3(1, 2, 2), 5.0);
/// assert_eq!(t.len(), 18);
/// ```
#[derive(Debug, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Clone for Tensor {
    fn clone(&self) -> Tensor {
        Tensor { shape: self.shape.clone(), data: self.data.clone() }
    }

    /// Copies `source` into `self`, reusing `self`'s buffers when their
    /// capacity suffices, so layers can keep what `backward` needs without
    /// allocating on every pass.
    fn clone_from(&mut self, source: &Tensor) {
        self.shape.clone_from(&source.shape);
        self.data.clone_from(&source.data);
    }
}

impl Tensor {
    /// Creates a zero tensor of the given shape.
    ///
    /// # Panics
    ///
    /// Panics if the shape is empty or any extent is zero.
    pub fn zeros(shape: &[usize]) -> Tensor {
        assert!(!shape.is_empty(), "tensor shape must be non-empty");
        assert!(shape.iter().all(|&d| d > 0), "tensor extents must be non-zero");
        Tensor { shape: shape.to_vec(), data: vec![0.0; shape.iter().product()] }
    }

    /// Creates a tensor filled with a constant.
    pub fn filled(shape: &[usize], value: f32) -> Tensor {
        let mut t = Tensor::zeros(shape);
        t.data.fill(value);
        t
    }

    /// Creates a tensor from a buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the shape's element count.
    pub fn from_vec(shape: &[usize], data: Vec<f32>) -> Tensor {
        assert!(!shape.is_empty(), "tensor shape must be non-empty");
        let n: usize = shape.iter().product();
        assert_eq!(data.len(), n, "tensor buffer length mismatch");
        Tensor { shape: shape.to_vec(), data }
    }

    /// Creates a rank-3 tensor by evaluating `f(c, h, w)`.
    pub fn from_fn3(c: usize, h: usize, w: usize, mut f: impl FnMut(usize, usize, usize) -> f32) -> Tensor {
        let mut t = Tensor::zeros(&[c, h, w]);
        for ci in 0..c {
            for hi in 0..h {
                for wi in 0..w {
                    t.data[(ci * h + hi) * w + wi] = f(ci, hi, wi);
                }
            }
        }
        t
    }

    /// The shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements. Always `false` by construction.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Reinterprets the buffer under a new shape with the same element
    /// count.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(mut self, shape: &[usize]) -> Tensor {
        let n: usize = shape.iter().product();
        assert_eq!(n, self.data.len(), "reshape element count mismatch");
        self.shape = shape.to_vec();
        self
    }

    /// Element at `(c, h, w)` of a rank-3 tensor.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds, via indexing) if out of range, and if the
    /// tensor is not rank 3.
    #[inline]
    pub fn at3(&self, c: usize, h: usize, w: usize) -> f32 {
        debug_assert_eq!(self.shape.len(), 3, "at3 on non-rank-3 tensor");
        let (hh, ww) = (self.shape[1], self.shape[2]);
        self.data[(c * hh + h) * ww + w]
    }

    /// Sets the element at `(c, h, w)` of a rank-3 tensor.
    #[inline]
    pub fn set3(&mut self, c: usize, h: usize, w: usize, v: f32) {
        debug_assert_eq!(self.shape.len(), 3, "set3 on non-rank-3 tensor");
        let (hh, ww) = (self.shape[1], self.shape[2]);
        self.data[(c * hh + h) * ww + w] = v;
    }

    /// One channel plane of a rank-3 tensor as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range or the tensor is not rank 3.
    pub fn channel(&self, c: usize) -> &[f32] {
        assert_eq!(self.shape.len(), 3, "channel on non-rank-3 tensor");
        assert!(c < self.shape[0], "channel out of range");
        let plane = self.shape[1] * self.shape[2];
        &self.data[c * plane..(c + 1) * plane]
    }

    /// Concatenates rank-3 tensors along the channel axis.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or spatial dims differ.
    pub fn concat_channels(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "concat of zero tensors");
        let (h, w) = (parts[0].shape[1], parts[0].shape[2]);
        let mut channels = 0;
        for p in parts {
            assert_eq!(p.shape.len(), 3, "concat needs rank-3 tensors");
            assert_eq!((p.shape[1], p.shape[2]), (h, w), "concat spatial mismatch");
            channels += p.shape[0];
        }
        let mut data = Vec::with_capacity(channels * h * w);
        for p in parts {
            data.extend_from_slice(&p.data);
        }
        Tensor { shape: vec![channels, h, w], data }
    }

    /// [`Tensor::concat_channels`] into a reused output tensor: `out` is
    /// resized in place, so steady-state calls allocate nothing.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or spatial dims differ.
    pub fn concat_channels_into(parts: &[&Tensor], out: &mut Tensor) {
        assert!(!parts.is_empty(), "concat of zero tensors");
        let (h, w) = (parts[0].shape[1], parts[0].shape[2]);
        let mut channels = 0;
        for p in parts {
            assert_eq!(p.shape.len(), 3, "concat needs rank-3 tensors");
            assert_eq!((p.shape[1], p.shape[2]), (h, w), "concat spatial mismatch");
            channels += p.shape[0];
        }
        out.resize_in_place(&[channels, h, w]);
        let mut offset = 0;
        for p in parts {
            out.data[offset..offset + p.data.len()].copy_from_slice(&p.data);
            offset += p.data.len();
        }
    }

    /// Splits a rank-3 tensor into channel groups of the given sizes —
    /// the backward of [`Tensor::concat_channels`].
    ///
    /// # Panics
    ///
    /// Panics if the sizes do not sum to the channel count.
    pub fn split_channels(&self, sizes: &[usize]) -> Vec<Tensor> {
        assert_eq!(self.shape.len(), 3, "split on non-rank-3 tensor");
        assert_eq!(sizes.iter().sum::<usize>(), self.shape[0], "split sizes mismatch");
        let (h, w) = (self.shape[1], self.shape[2]);
        let plane = h * w;
        let mut out = Vec::with_capacity(sizes.len());
        let mut offset = 0;
        for &s in sizes {
            let data = self.data[offset * plane..(offset + s) * plane].to_vec();
            out.push(Tensor { shape: vec![s, h, w], data });
            offset += s;
        }
        out
    }

    /// Element-wise in-place addition.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "tensor add shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// In-place scaling.
    pub fn scale(&mut self, s: f32) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Maximum element.
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element.
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Mean of all elements.
    pub fn mean(&self) -> f32 {
        self.sum() / self.data.len() as f32
    }

    /// Sets every element to zero (grad reset).
    pub fn zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Reshapes in place to `shape`, zero-filling every element and reusing
    /// the existing allocation when capacity permits. The workhorse of the
    /// layers' allocation-free forward: repeated calls with the same shape
    /// never touch the allocator.
    ///
    /// # Panics
    ///
    /// Panics if `shape` is empty or has a zero extent.
    pub fn resize_in_place(&mut self, shape: &[usize]) {
        assert!(!shape.is_empty(), "tensor must have at least one dimension");
        assert!(shape.iter().all(|&d| d > 0), "tensor dimensions must be non-zero");
        let n: usize = shape.iter().product();
        self.data.clear();
        self.data.resize(n, 0.0);
        self.shape.clear();
        self.shape.extend_from_slice(shape);
    }
}

impl Default for Tensor {
    /// A single zero scalar — the cheapest value upholding the non-empty
    /// invariant, so buffer structs can `#[derive(Default)]` and grow their
    /// tensors with [`Tensor::resize_in_place`].
    fn default() -> Tensor {
        Tensor::zeros(&[1])
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?} [min {:.4}, mean {:.4}, max {:.4}]", self.shape, self.min(), self.mean(), self.max())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let t = Tensor::from_fn3(2, 2, 3, |c, h, w| (c * 100 + h * 10 + w) as f32);
        assert_eq!(t.shape(), &[2, 2, 3]);
        assert_eq!(t.at3(1, 1, 2), 112.0);
        assert_eq!(t.channel(0), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
    }

    #[test]
    fn from_vec_checks_length() {
        let ok = Tensor::from_vec(&[2, 2], vec![1.0; 4]);
        assert_eq!(ok.len(), 4);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn from_vec_bad_length() {
        let _ = Tensor::from_vec(&[2, 2], vec![1.0; 3]);
    }

    #[test]
    fn concat_split_round_trip() {
        let a = Tensor::from_fn3(2, 2, 2, |c, h, w| (c + h + w) as f32);
        let b = Tensor::from_fn3(3, 2, 2, |c, h, w| (10 + c + h + w) as f32);
        let cat = Tensor::concat_channels(&[&a, &b]);
        assert_eq!(cat.shape(), &[5, 2, 2]);
        let parts = cat.split_channels(&[2, 3]);
        assert_eq!(parts[0], a);
        assert_eq!(parts[1], b);
    }

    #[test]
    fn reductions_and_ops() {
        let mut t = Tensor::from_vec(&[4], vec![1.0, -2.0, 3.0, 0.0]);
        assert_eq!(t.sum(), 2.0);
        assert_eq!(t.max(), 3.0);
        assert_eq!(t.min(), -2.0);
        assert_eq!(t.mean(), 0.5);
        t.scale(2.0);
        assert_eq!(t.as_slice(), &[2.0, -4.0, 6.0, 0.0]);
        let u = Tensor::filled(&[4], 1.0);
        t.add_assign(&u);
        assert_eq!(t.as_slice(), &[3.0, -3.0, 7.0, 1.0]);
        t.zero();
        assert_eq!(t.sum(), 0.0);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(&[2, 3], vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        let r = t.clone().reshape(&[3, 2]);
        assert_eq!(r.shape(), &[3, 2]);
        assert_eq!(r.as_slice(), t.as_slice());
    }

    #[test]
    #[should_panic(expected = "spatial mismatch")]
    fn concat_rejects_mismatched() {
        let a = Tensor::zeros(&[1, 2, 2]);
        let b = Tensor::zeros(&[1, 3, 3]);
        let _ = Tensor::concat_channels(&[&a, &b]);
    }
}
