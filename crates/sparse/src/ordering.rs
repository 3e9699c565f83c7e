//! Fill-reducing / bandwidth-reducing node orderings.
//!
//! Reverse Cuthill–McKee keeps the IC(0) factor close to the true Cholesky
//! factor on mesh-like PDN matrices, improving preconditioner quality.

use crate::csr::CsrMatrix;

/// Computes a reverse Cuthill–McKee ordering of a symmetric matrix's graph.
///
/// Returns `perm` with `perm[new] = old`, suitable for
/// [`CsrMatrix::permute_symmetric`]. Disconnected components are each ordered
/// from a minimum-degree start node.
///
/// # Panics
///
/// Panics if the matrix is not square.
///
/// # Example
///
/// ```
/// use pdn_sparse::coo::CooMatrix;
/// use pdn_sparse::ordering::reverse_cuthill_mckee;
///
/// let mut coo = CooMatrix::new(3, 3);
/// for i in 0..3 { coo.push(i, i, 2.0); }
/// coo.push(0, 2, -1.0);
/// coo.push(2, 0, -1.0);
/// let a = coo.to_csr();
/// let perm = reverse_cuthill_mckee(&a);
/// assert_eq!(perm.len(), 3);
/// let mut sorted = perm.clone();
/// sorted.sort();
/// assert_eq!(sorted, vec![0, 1, 2]);
/// ```
pub fn reverse_cuthill_mckee(a: &CsrMatrix) -> Vec<usize> {
    assert_eq!(a.n_rows(), a.n_cols(), "ordering requires a square matrix");
    let n = a.n_rows();
    let degree = |v: usize| a.row(v).0.len();

    let mut visited = vec![false; n];
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();

    // Process components in order of minimum degree start nodes.
    let mut nodes_by_degree: Vec<usize> = (0..n).collect();
    nodes_by_degree.sort_by_key(|&v| degree(v));

    for &start in &nodes_by_degree {
        if visited[start] {
            continue;
        }
        visited[start] = true;
        queue.push_back(start);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            let (neighbors, _) = a.row(v);
            let mut next: Vec<usize> =
                neighbors.iter().copied().filter(|&u| u != v && !visited[u]).collect();
            next.sort_by_key(|&u| degree(u));
            for u in next {
                if !visited[u] {
                    visited[u] = true;
                    queue.push_back(u);
                }
            }
        }
    }
    order.reverse();
    order
}

/// Bandwidth of a matrix: `max |i − j|` over stored entries. Used in tests
/// to demonstrate that RCM actually reduces bandwidth.
pub fn bandwidth(a: &CsrMatrix) -> usize {
    let mut bw = 0;
    for r in 0..a.n_rows() {
        for &c in a.row(r).0 {
            bw = bw.max(r.abs_diff(c));
        }
    }
    bw
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    fn grid_laplacian(rows: usize, cols: usize) -> CsrMatrix {
        let idx = |r: usize, c: usize| r * cols + c;
        let n = rows * cols;
        let mut coo = CooMatrix::new(n, n);
        for r in 0..rows {
            for c in 0..cols {
                coo.push(idx(r, c), idx(r, c), 4.0);
                if r + 1 < rows {
                    coo.stamp_conductance(Some(idx(r, c)), Some(idx(r + 1, c)), 1.0);
                }
                if c + 1 < cols {
                    coo.stamp_conductance(Some(idx(r, c)), Some(idx(r, c + 1)), 1.0);
                }
            }
        }
        coo.to_csr()
    }

    #[test]
    fn rcm_is_a_permutation() {
        let a = grid_laplacian(5, 7);
        let perm = reverse_cuthill_mckee(&a);
        let mut sorted = perm.clone();
        sorted.sort();
        assert_eq!(sorted, (0..35).collect::<Vec<_>>());
    }

    #[test]
    fn rcm_does_not_increase_bandwidth_on_shuffled_grid() {
        // Shuffle a grid's node numbering, then check that RCM restores a
        // bandwidth no worse than the shuffled one (on grids it is much
        // better).
        let a = grid_laplacian(6, 6);
        // A deliberately bad (bit-reversal-ish) permutation.
        let n = a.n_rows();
        let mut perm: Vec<usize> = (0..n).collect();
        perm.sort_by_key(|&v| (v * 17) % n);
        let shuffled = a.permute_symmetric(&perm);
        let bad_bw = bandwidth(&shuffled);
        let rcm = reverse_cuthill_mckee(&shuffled);
        let restored = shuffled.permute_symmetric(&rcm);
        let good_bw = bandwidth(&restored);
        assert!(good_bw <= bad_bw, "rcm bandwidth {good_bw} vs shuffled {bad_bw}");
        assert!(restored.is_symmetric(1e-12));
    }

    #[test]
    fn rcm_reduces_fill_on_shuffled_grid() {
        use crate::supernodal::predicted_factor_nnz;
        let a = grid_laplacian(12, 12);
        let n = a.n_rows();
        // Scramble, then compare fill with and without RCM.
        let mut perm: Vec<usize> = (0..n).collect();
        perm.sort_by_key(|&v| (v * 37) % n);
        let shuffled = a.permute_symmetric(&perm);
        let plain = predicted_factor_nnz(&shuffled, &(0..n).collect::<Vec<_>>());
        let rcm = predicted_factor_nnz(&shuffled, &reverse_cuthill_mckee(&shuffled));
        assert!(rcm < plain, "rcm fill {rcm} should beat shuffled fill {plain}");
    }

    #[test]
    fn handles_disconnected_graphs() {
        let mut coo = CooMatrix::new(4, 4);
        for i in 0..4 {
            coo.push(i, i, 1.0);
        }
        coo.stamp_conductance(Some(0), Some(1), 1.0);
        // nodes 2, 3 isolated
        let a = coo.to_csr();
        let perm = reverse_cuthill_mckee(&a);
        let mut sorted = perm.clone();
        sorted.sort();
        assert_eq!(sorted, vec![0, 1, 2, 3]);
    }
}
