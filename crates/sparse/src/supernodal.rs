//! Supernodal sparse Cholesky: the paper-scale factor-once/solve-many
//! direct path.
//!
//! The transient ground truth is one SPD matrix with thousands of
//! right-hand sides (paper §2). A simplicial factorization re-walks the
//! elimination tree for every row and scatters scalars; at paper scale
//! (0.58 M–4.4 M nodes) that leaves nearly all the machine's floating-point
//! width idle. This module instead:
//!
//! 1. **analyzes once** per grid structure ([`SymbolicCholesky::analyze`]):
//!    picks a fill-reducing ordering at runtime (AMD vs RCM by predicted
//!    factor fill, at every size), postorders the elimination tree, detects
//!    *supernodes* — runs of columns with identical below-diagonal
//!    structure — and relaxes them by amalgamating small neighbours into
//!    wider panels at a bounded padding cost;
//! 2. **factors per value change** ([`SupernodalCholesky::factor_with`] /
//!    [`SupernodalCholesky::refactor`]): a left-looking pass over dense
//!    column panels driven by the [`crate::panel`] GEMM/SYRK/TRSM kernels,
//!    so the flops land in auto-vectorized dense micro-kernels instead of
//!    pointer-chasing scalar code;
//! 3. **solves many right-hand sides per factorization**: blocked
//!    forward/backward substitution that streams each panel once for a
//!    whole block of vectors, and [`SupernodalCholesky::solve_sweep`] which
//!    fans independent RHS blocks out across `std::thread::scope` threads
//!    (`PDN_THREADS`), with per-vector results bitwise independent of the
//!    thread count.
//!
//! The factorization handles the fill-reducing permutation internally:
//! callers pass the matrix and right-hand sides in their natural node
//! numbering.

use crate::amd::amd;
use crate::csr::CsrMatrix;
use crate::error::{SolveError, SparseResult};
use crate::ordering::reverse_cuthill_mckee;
use crate::panel;
use std::sync::Arc;

/// Widest panel a supernode may occupy (fundamental runs are split, and
/// amalgamation never exceeds it). Bounds the factor scratch at
/// `max_height x MAX_SUPERNODE_WIDTH` and keeps the solve's per-panel RHS
/// block cache-resident.
pub const MAX_SUPERNODE_WIDTH: usize = 32;

/// Relaxed amalgamation: merge neighbouring supernodes while the explicit
/// zeros introduced stay under a tolerated fraction of the merged panel.
/// This is the base fraction for panels approaching
/// [`MAX_SUPERNODE_WIDTH`]; narrow panels tolerate more padding (55 % up
/// to width 8, 45 % up to 16) because per-supernode overhead and
/// degenerate GEMM shapes cost more than the wasted flops there.
const AMALGAMATION_RELAX: f64 = 0.25;

/// Number of right-hand sides per block in [`SupernodalCholesky::solve_sweep`].
/// Each block is solved independently, so this also fixes the unit of work
/// handed to sweep threads — per-vector results depend on the block size
/// (fixed) but never on the thread count.
pub const SWEEP_BLOCK: usize = 16;

/// Fill-reducing ordering applied (internally) by the supernodal factor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FillOrdering {
    /// Keep the matrix's natural order (tests / already-ordered inputs).
    Natural,
    /// Reverse Cuthill–McKee: linear-time, bandwidth-oriented; the
    /// fallback when its predicted fill beats AMD's (rare on meshes).
    Rcm,
    /// Approximate minimum degree ([`crate::amd`]): quotient-graph
    /// complexity with near-minimum-degree fill — the paper-scale default
    /// whenever its predicted fill wins.
    Amd,
}

impl FillOrdering {
    /// Stable name, used in solver-settings digests and reports.
    pub fn name(self) -> &'static str {
        match self {
            FillOrdering::Natural => "natural",
            FillOrdering::Rcm => "rcm",
            FillOrdering::Amd => "amd",
        }
    }

    /// Stable numeric id for the `factor.ordering` telemetry gauge
    /// (gauges carry `f64`, so the name itself cannot be exported). Index 2
    /// is retired and never reused, so recorded gauges keep their meaning.
    pub fn telemetry_index(self) -> usize {
        match self {
            FillOrdering::Natural => 0,
            FillOrdering::Rcm => 1,
            FillOrdering::Amd => 3,
        }
    }
}

/// Outcome of the automatic ordering comparison run by
/// [`SymbolicCholesky::analyze`]: both candidates' predicted fill and the
/// winner. Only present on auto-analyzed symbolics —
/// [`SymbolicCholesky::analyze_with`] skips the comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OrderingSelection {
    /// The ordering that won the comparison.
    pub ordering: FillOrdering,
    /// Predicted nnz(L) (diagonal included) under RCM.
    pub rcm_nnz: usize,
    /// Predicted nnz(L) under AMD.
    pub amd_nnz: usize,
}

/// The structure-only half of the factorization: ordering, elimination
/// tree, supernode partition and panel layout. Analyze once per grid
/// structure, then run any number of numeric factorizations against it
/// (e.g. re-stamping `G + C/Δt` after a Δt change).
#[derive(Debug)]
pub struct SymbolicCholesky {
    n: usize,
    /// Composed permutation (fill ordering ∘ etree postorder), `perm[new] = old`.
    perm: Vec<usize>,
    ordering: FillOrdering,
    /// Supernode `s` covers permuted columns `sn_ptr[s]..sn_ptr[s + 1]`.
    sn_ptr: Vec<usize>,
    /// Permuted column → supernode index.
    col_to_sn: Vec<usize>,
    /// Row structure of supernode `s`: `rows[rows_ptr[s]..rows_ptr[s + 1]]`,
    /// ascending; the first `width(s)` entries are the supernode's own
    /// columns.
    rows_ptr: Vec<usize>,
    rows: Vec<usize>,
    /// Panel value offsets; panel `s` is column-major `height x width`.
    panel_ptr: Vec<usize>,
    /// Non-zeros of the lower trapezoids (the true factor fill, padding
    /// included).
    factor_nnz: usize,
    /// Tallest panel, in rows (sizes the factor's update scratch).
    max_height: usize,
    /// Comparison record when the ordering was auto-selected.
    selection: Option<OrderingSelection>,
}

impl SymbolicCholesky {
    /// Analyzes a symmetric positive-definite matrix, selecting the fill
    /// ordering at runtime: AMD and RCM both have their factor fill
    /// counted exactly in near-linear time ([`column_counts`]), and the
    /// smaller one wins — at every size; both candidates have near-linear
    /// ordering cost, so no cutoff excludes the comparison at paper scale.
    /// AMD's count is the first pass of its own analysis, which carries on
    /// when AMD wins. The comparison is recorded on the result
    /// ([`SymbolicCholesky::selection`]) and exported through the
    /// `factor.ordering` / `factor.predicted_nnz_l.{rcm,amd}` telemetry
    /// gauges.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::DimensionMismatch`] for non-square input.
    pub fn analyze(a: &CsrMatrix) -> SparseResult<SymbolicCholesky> {
        check_square(a)?;
        let rcm_perm = reverse_cuthill_mckee(a);
        let rcm_nnz = predicted_factor_nnz(a, &rcm_perm);
        let amd_tree = EliminationStructure::new(a, amd(a));
        let amd_nnz = amd_tree.counts.iter().sum();
        let mut sym = if amd_nnz <= rcm_nnz {
            amd_tree.into_symbolic(FillOrdering::Amd)
        } else {
            drop(amd_tree);
            EliminationStructure::new(a, rcm_perm).into_symbolic(FillOrdering::Rcm)
        };
        let ordering = sym.ordering;
        pdn_core::telemetry::gauge_set("factor.ordering", ordering.telemetry_index() as f64);
        pdn_core::telemetry::gauge_set("factor.predicted_nnz_l.rcm", rcm_nnz as f64);
        pdn_core::telemetry::gauge_set("factor.predicted_nnz_l.amd", amd_nnz as f64);
        sym.selection = Some(OrderingSelection { ordering, rcm_nnz, amd_nnz });
        Ok(sym)
    }

    /// Like [`SymbolicCholesky::analyze`] with an explicit ordering choice
    /// (no comparison is run, so [`SymbolicCholesky::selection`] is
    /// `None`).
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::DimensionMismatch`] for non-square input.
    pub fn analyze_with(a: &CsrMatrix, ordering: FillOrdering) -> SparseResult<SymbolicCholesky> {
        check_square(a)?;
        let n = a.n_rows();
        let p0: Vec<usize> = match ordering {
            FillOrdering::Natural => (0..n).collect(),
            FillOrdering::Rcm => reverse_cuthill_mckee(a),
            FillOrdering::Amd => amd(a),
        };
        Ok(EliminationStructure::new(a, p0).into_symbolic(ordering))
    }

    /// Dimension of the analyzed system.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// The fill ordering this analysis applied.
    pub fn ordering(&self) -> FillOrdering {
        self.ordering
    }

    /// The RCM-vs-AMD comparison behind an auto-selected ordering, or
    /// `None` when the caller fixed the ordering via
    /// [`SymbolicCholesky::analyze_with`].
    pub fn selection(&self) -> Option<OrderingSelection> {
        self.selection
    }

    /// Number of supernodes.
    pub fn n_supernodes(&self) -> usize {
        self.sn_ptr.len() - 1
    }

    /// Stored panel entries (dense rectangles; the allocation of one
    /// numeric factorization).
    pub fn panel_nnz(&self) -> usize {
        *self.panel_ptr.last().unwrap_or(&0)
    }

    /// Non-zeros of the factor's lower trapezoids: the exact fill of `L`
    /// under this analysis's ordering plus amalgamation padding.
    pub fn factor_nnz(&self) -> usize {
        self.factor_nnz
    }

    fn width(&self, s: usize) -> usize {
        self.sn_ptr[s + 1] - self.sn_ptr[s]
    }

    fn srows(&self, s: usize) -> &[usize] {
        &self.rows[self.rows_ptr[s]..self.rows_ptr[s + 1]]
    }
}

/// The first pass of an analysis: the matrix under its fill ordering with
/// the elimination tree postordered, and the factor's exact column counts.
/// [`SymbolicCholesky::analyze`] reads AMD's predicted fill off it before
/// deciding whether to finish it.
struct EliminationStructure {
    /// Composed permutation (fill ordering ∘ etree postorder), `perm[new] = old`.
    perm: Vec<usize>,
    /// The matrix permuted by `perm`.
    ap: CsrMatrix,
    /// Elimination tree of `ap`; its numbering is a postorder.
    parent: Vec<usize>,
    /// Column counts of L (diagonal included).
    counts: Vec<usize>,
}

impl EliminationStructure {
    /// Orders `a` by the fill permutation `p0` (`p0[new] = old`), then
    /// postorders the elimination tree so supernodes become contiguous
    /// column runs, folding the postorder into the permutation.
    fn new(a: &CsrMatrix, p0: Vec<usize>) -> EliminationStructure {
        debug_assert_eq!(p0.len(), a.n_rows());
        let a0 = a.permute_symmetric(&p0);
        let post = postorder(&elimination_tree(&a0));
        drop(a0);
        let perm: Vec<usize> = post.iter().map(|&j| p0[j]).collect();
        let ap = a.permute_symmetric(&perm);
        let parent = elimination_tree(&ap);
        let counts = column_counts(&ap, &parent);
        EliminationStructure { perm, ap, parent, counts }
    }

    /// The rest of the analysis: supernode partition, row structure and
    /// panel layout.
    fn into_symbolic(self, ordering: FillOrdering) -> SymbolicCholesky {
        let EliminationStructure { perm, ap, parent, counts } = self;
        let n = ap.n_rows();

        // Fundamental supernodes: column j extends the run of j-1 when it
        // is j-1's parent and loses exactly the one row — capped at
        // MAX_SUPERNODE_WIDTH so panels stay register-tile sized.
        let mut first_col = Vec::new();
        for j in 0..n {
            let extends = j > 0
                && parent[j - 1] == j
                && counts[j] + 1 == counts[j - 1]
                && j - first_col.last().copied().unwrap_or(0) < MAX_SUPERNODE_WIDTH
                && !first_col.is_empty();
            if !extends {
                first_col.push(j);
            }
        }
        let n_fund = first_col.len();
        let mut fund_of_col = vec![0usize; n];
        for (s, &c0) in first_col.iter().enumerate() {
            let c1 = first_col.get(s + 1).copied().unwrap_or(n);
            fund_of_col[c0..c1].fill(s);
        }

        // Symbolic pass 2 (the column counts were pass 1): exact row
        // structure per fundamental supernode (the first column's pattern,
        // which covers every member column's), by one etree reach walk per
        // row of L — the one place the analysis lists L's rows.
        let mut fund_rows_ptr = vec![0usize; n_fund + 1];
        for (s, &c0) in first_col.iter().enumerate() {
            fund_rows_ptr[s + 1] = fund_rows_ptr[s] + counts[c0];
        }
        let mut fund_rows = vec![0usize; fund_rows_ptr[n_fund]];
        {
            let mut fill = fund_rows_ptr.clone();
            for (s, &c0) in first_col.iter().enumerate() {
                fund_rows[fill[s]] = c0;
                fill[s] += 1;
            }
            let mut is_first = vec![false; n];
            for &c0 in &first_col {
                is_first[c0] = true;
            }
            let mut walker = EtreeWalker::new(n);
            let mut reach = Vec::new();
            for k in 0..n {
                walker.reach_into(&ap, k, &parent, &mut reach);
                for &j in &reach {
                    if is_first[j] {
                        let s = fund_of_col[j];
                        fund_rows[fill[s]] = k;
                        fill[s] += 1;
                    }
                }
            }
            debug_assert_eq!(fill[..n_fund], fund_rows_ptr[1..]);
            // `k` ascends, so each supernode's list is already sorted.
        }

        // Relaxed amalgamation: greedily merge neighbouring supernodes
        // while the panel stays narrow and the explicit zeros introduced
        // stay under AMALGAMATION_RELAX of the merged trapezoid.
        let mut sn_ptr = vec![0usize];
        let mut rows: Vec<usize> = Vec::new();
        let mut rows_ptr = vec![0usize];
        {
            let mut cur: Vec<usize> = Vec::new(); // merged row set (sorted)
            let mut cur_first = 0usize;
            let mut cur_width = 0usize;
            let mut cur_true = 0usize; // exact fill of the members
            let mut merged: Vec<usize> = Vec::new();
            for s in 0..n_fund {
                let c0 = first_col[s];
                let c1 = first_col.get(s + 1).copied().unwrap_or(n);
                let w = c1 - c0;
                let srows = &fund_rows[fund_rows_ptr[s]..fund_rows_ptr[s + 1]];
                let true_nnz = trapezoid(srows.len(), w);
                if cur_width > 0 && cur_width + w <= MAX_SUPERNODE_WIDTH {
                    merged.clear();
                    sorted_union(&cur, srows, &mut merged);
                    let w_new = cur_width + w;
                    let padded = trapezoid(merged.len(), w_new);
                    let zeros = padded - (cur_true + true_nnz);
                    // Narrow panels gain more from merging than the padded
                    // zeros cost (per-supernode overhead and degenerate
                    // GEMM shapes dominate there), so the tolerance is
                    // graduated: generous while the merged panel is still
                    // register-tile narrow, tightening to the base
                    // fraction as it approaches MAX_SUPERNODE_WIDTH.
                    let relax = if w_new <= 8 {
                        0.55
                    } else if w_new <= 16 {
                        0.45
                    } else {
                        AMALGAMATION_RELAX
                    };
                    if (zeros as f64) <= relax * padded as f64 {
                        std::mem::swap(&mut cur, &mut merged);
                        cur_width = w_new;
                        cur_true += true_nnz;
                        continue;
                    }
                }
                if cur_width > 0 {
                    sn_ptr.push(cur_first + cur_width);
                    rows.extend_from_slice(&cur);
                    rows_ptr.push(rows.len());
                }
                cur.clear();
                cur.extend_from_slice(srows);
                cur_first = c0;
                cur_width = w;
                cur_true = true_nnz;
            }
            if cur_width > 0 {
                sn_ptr.push(cur_first + cur_width);
                rows.extend_from_slice(&cur);
                rows_ptr.push(rows.len());
            }
        }

        let ns = sn_ptr.len() - 1;
        let mut col_to_sn = vec![0usize; n];
        let mut panel_ptr = vec![0usize; ns + 1];
        let mut factor_nnz = 0usize;
        let mut max_height = 0usize;
        for s in 0..ns {
            let (c0, c1) = (sn_ptr[s], sn_ptr[s + 1]);
            let w = c1 - c0;
            let h = rows_ptr[s + 1] - rows_ptr[s];
            debug_assert!(rows[rows_ptr[s]..rows_ptr[s] + w]
                .iter()
                .enumerate()
                .all(|(l, &r)| r == c0 + l));
            col_to_sn[c0..c1].fill(s);
            panel_ptr[s + 1] = panel_ptr[s] + h * w;
            factor_nnz += trapezoid(h, w);
            max_height = max_height.max(h);
        }
        // `sn_ptr` starts [0] and every group appended its end, so the last
        // entry is n exactly when every column was assigned.
        debug_assert_eq!(sn_ptr.last().copied(), Some(n));

        SymbolicCholesky {
            n,
            perm,
            ordering,
            sn_ptr,
            col_to_sn,
            rows_ptr,
            rows,
            panel_ptr,
            factor_nnz,
            max_height,
            selection: None,
        }
    }
}

/// The numeric factor `P A Pᵀ = L Lᵀ`, stored as dense column panels laid
/// out by an [`Arc<SymbolicCholesky>`] (shareable across factors of
/// matrices with the same structure).
///
/// # Example
///
/// ```
/// use pdn_sparse::coo::CooMatrix;
/// use pdn_sparse::supernodal::SupernodalCholesky;
///
/// let mut coo = CooMatrix::new(3, 3);
/// for i in 0..3 { coo.push(i, i, 4.0); }
/// coo.push(0, 1, 1.0); coo.push(1, 0, 1.0);
/// coo.push(1, 2, 1.0); coo.push(2, 1, 1.0);
/// let a = coo.to_csr();
/// let chol = SupernodalCholesky::factor(&a).unwrap();
/// let x_true = vec![1.0, -2.0, 0.5];
/// let b = a.mul_vec(&x_true);
/// let x = chol.solve(&b);
/// for (xi, ti) in x.iter().zip(&x_true) {
///     assert!((xi - ti).abs() < 1e-12);
/// }
/// ```
#[derive(Debug)]
pub struct SupernodalCholesky {
    sym: Arc<SymbolicCholesky>,
    values: Vec<f64>,
}

impl SupernodalCholesky {
    /// Analyzes and factors in one call.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::NotPositiveDefinite`] on pivot breakdown (the
    /// reported `row` is in the caller's natural numbering) and
    /// [`SolveError::DimensionMismatch`] for non-square input.
    pub fn factor(a: &CsrMatrix) -> SparseResult<SupernodalCholesky> {
        SupernodalCholesky::factor_with(Arc::new(SymbolicCholesky::analyze(a)?), a)
    }

    /// Numeric factorization against an existing symbolic analysis.
    ///
    /// # Errors
    ///
    /// As [`SupernodalCholesky::factor`], plus
    /// [`SolveError::DimensionMismatch`] when the matrix does not fit the
    /// analysis (different size, or structural entries outside the analyzed
    /// pattern).
    pub fn factor_with(
        sym: Arc<SymbolicCholesky>,
        a: &CsrMatrix,
    ) -> SparseResult<SupernodalCholesky> {
        let mut chol = SupernodalCholesky { values: vec![0.0; sym.panel_nnz()], sym };
        chol.refactor(a)?;
        Ok(chol)
    }

    /// Re-runs the numeric factorization in place for a matrix with new
    /// values on the analyzed structure (e.g. `G + C/Δt` after a Δt
    /// change). Bit-identical to a fresh [`SupernodalCholesky::factor_with`]
    /// against the same analysis.
    ///
    /// # Errors
    ///
    /// As [`SupernodalCholesky::factor_with`]. After an error the factor
    /// contents are unspecified; refactor again before solving.
    pub fn refactor(&mut self, a: &CsrMatrix) -> SparseResult<()> {
        if a.n_rows() != self.sym.n || a.n_cols() != self.sym.n {
            return Err(SolveError::DimensionMismatch {
                detail: format!(
                    "refactor of {}x{} matrix against a {}-dim analysis",
                    a.n_rows(),
                    a.n_cols(),
                    self.sym.n
                ),
            });
        }
        let ap = a.permute_symmetric(&self.sym.perm);
        numeric_factor(&self.sym, &ap, &mut self.values)
    }

    /// The shared symbolic analysis.
    pub fn symbolic(&self) -> &Arc<SymbolicCholesky> {
        &self.sym
    }

    /// Dimension of the factored system.
    pub fn dim(&self) -> usize {
        self.sym.n
    }

    /// Stored panel entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Solves `A x = b` (natural numbering; the fill permutation is
    /// internal).
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` differs from the factor dimension.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = b.to_vec();
        self.solve_in_place(&mut x);
        x
    }

    /// Solves `A x = b` in place: the `k = 1` case of
    /// [`SupernodalCholesky::solve_multi_in_place`].
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the factor dimension.
    pub fn solve_in_place(&self, x: &mut [f64]) {
        self.solve_multi_in_place(x, 1);
    }

    /// Solves `A X = B` for `k` interleaved right-hand sides (entry `i` of
    /// vector `t` at `x[i * k + t]`, the layout of
    /// [`crate::vecops::interleave`]). Every panel is streamed once per
    /// block instead of once per vector, and per-vector operations run in
    /// the same order at any `k`, so each vector's result is bitwise
    /// identical to a separate [`SupernodalCholesky::solve_in_place`].
    ///
    /// `k` ranges over `1..=`[`SWEEP_BLOCK`]: one substitution body is
    /// instantiated for every width in that range, so each vector's block
    /// stays in registers. Wider calls are rejected, not split; callers
    /// with more vectors use [`SupernodalCholesky::solve_sweep`], which
    /// runs them [`SWEEP_BLOCK`] at a time.
    ///
    /// # Panics
    ///
    /// Panics if `k` is outside `1..=`[`SWEEP_BLOCK`] or
    /// `x.len() != dim() * k`.
    pub fn solve_multi_in_place(&self, x: &mut [f64], k: usize) {
        assert_eq!(x.len(), self.sym.n * k, "solve_multi: length mismatch");
        let mut xp = vec![0.0; x.len()];
        for (new, &old) in self.sym.perm.iter().enumerate() {
            for t in 0..k {
                xp[new * k + t] = x[old * k + t];
            }
        }
        self.solve_permuted(&mut xp, k);
        for (new, &old) in self.sym.perm.iter().enumerate() {
            for t in 0..k {
                x[old * k + t] = xp[new * k + t];
            }
        }
    }

    /// Solves `nrhs` contiguous right-hand sides (`rhs[v * dim()..]` is
    /// vector `v`), blocked [`SWEEP_BLOCK`] at a time and fanned out across
    /// `std::thread::scope` threads sized by `PDN_THREADS`
    /// ([`pdn_core::threads::width`]). Blocks are fixed-size units of work,
    /// so per-vector results are bitwise independent of the thread count.
    ///
    /// # Panics
    ///
    /// Panics if `rhs.len() != dim() * nrhs`.
    pub fn solve_sweep(&self, rhs: &mut [f64], nrhs: usize) {
        self.solve_sweep_on(rhs, nrhs, pdn_core::threads::width());
    }

    /// [`Self::solve_sweep`] on at most `width` threads.
    fn solve_sweep_on(&self, rhs: &mut [f64], nrhs: usize, width: usize) {
        let n = self.sym.n;
        assert_eq!(rhs.len(), n * nrhs, "solve_sweep: length mismatch");
        if nrhs == 0 || n == 0 {
            return;
        }
        let blocks: Vec<&mut [f64]> = rhs.chunks_mut(n * SWEEP_BLOCK).collect();
        let threads = width.min(blocks.len()).max(1);
        if threads <= 1 {
            for block in blocks {
                self.solve_block(block);
            }
            return;
        }
        // Deal blocks round-robin; each thread owns its blocks exclusively.
        let mut per_thread: Vec<Vec<&mut [f64]>> = (0..threads).map(|_| Vec::new()).collect();
        for (i, block) in blocks.into_iter().enumerate() {
            per_thread[i % threads].push(block);
        }
        std::thread::scope(|scope| {
            for mine in per_thread {
                scope.spawn(move || {
                    for block in mine {
                        self.solve_block(block);
                    }
                });
            }
        });
    }

    /// Solves one vector-major block in place (permute+interleave in, solve,
    /// deinterleave+unpermute out).
    fn solve_block(&self, block: &mut [f64]) {
        let n = self.sym.n;
        let k = block.len() / n;
        debug_assert_eq!(block.len(), n * k);
        let mut xp = vec![0.0; block.len()];
        for (new, &old) in self.sym.perm.iter().enumerate() {
            for (t, chunk) in block.chunks(n).enumerate() {
                xp[new * k + t] = chunk[old];
            }
        }
        self.solve_permuted(&mut xp, k);
        for (new, &old) in self.sym.perm.iter().enumerate() {
            for (t, chunk) in block.chunks_mut(n).enumerate() {
                chunk[old] = xp[new * k + t];
            }
        }
    }

    /// Forward + backward substitution of `k` interleaved right-hand sides
    /// in the permuted numbering, through the body instantiated for `k`.
    fn solve_permuted(&self, xp: &mut [f64], k: usize) {
        match k {
            1 => self.solve_permuted_fixed::<1>(xp),
            2 => self.solve_permuted_fixed::<2>(xp),
            3 => self.solve_permuted_fixed::<3>(xp),
            4 => self.solve_permuted_fixed::<4>(xp),
            5 => self.solve_permuted_fixed::<5>(xp),
            6 => self.solve_permuted_fixed::<6>(xp),
            7 => self.solve_permuted_fixed::<7>(xp),
            8 => self.solve_permuted_fixed::<8>(xp),
            9 => self.solve_permuted_fixed::<9>(xp),
            10 => self.solve_permuted_fixed::<10>(xp),
            11 => self.solve_permuted_fixed::<11>(xp),
            12 => self.solve_permuted_fixed::<12>(xp),
            13 => self.solve_permuted_fixed::<13>(xp),
            14 => self.solve_permuted_fixed::<14>(xp),
            15 => self.solve_permuted_fixed::<15>(xp),
            16 => self.solve_permuted_fixed::<16>(xp),
            _ => panic!("solve_multi: width {k} outside 1..={SWEEP_BLOCK}"),
        }
    }

    /// Blocked forward + backward substitution with the block width fixed
    /// at compile time, so each vector's `[f64; K]` entry stays in
    /// registers across a panel column. Per vector, the operation order is
    /// independent of `K`.
    fn solve_permuted_fixed<const K: usize>(&self, xp: &mut [f64]) {
        let sym = &*self.sym;
        let entry = |x: &[f64], r: usize| -> [f64; K] {
            x[r * K..(r + 1) * K].try_into().expect("K-wide block")
        };
        let mut yb = [[0.0f64; K]; MAX_SUPERNODE_WIDTH];
        let mut zb = vec![[0.0f64; K]; sym.max_height];

        // Forward: L Y = B, one panel at a time.
        for s in 0..sym.n_supernodes() {
            let c0 = sym.sn_ptr[s];
            let w = sym.width(s);
            let srows = sym.srows(s);
            let h = srows.len();
            let p = &self.values[sym.panel_ptr[s]..sym.panel_ptr[s + 1]];
            let yb = &mut yb[..w];
            for (l, y) in yb.iter_mut().enumerate() {
                *y = entry(xp, c0 + l);
            }
            // Dense lower-triangular solve on the diagonal block.
            for l in 0..w {
                let d = p[l * h + l];
                let (head, tail) = yb.split_at_mut(l + 1);
                let yl = &mut head[l];
                for v in yl.iter_mut() {
                    *v /= d;
                }
                for (yi, &coeff) in tail.iter_mut().zip(&p[l * h + l + 1..l * h + w]) {
                    for (v, &yv) in yi.iter_mut().zip(yl.iter()) {
                        *v -= coeff * yv;
                    }
                }
            }
            xp[c0 * K..(c0 + w) * K].copy_from_slice(yb.as_flattened());
            // Below-diagonal update: z = L21 y, scattered into xp.
            if h > w {
                let zb = &mut zb[..h - w];
                zb.fill([0.0; K]);
                for (l, yl) in yb.iter().enumerate() {
                    for (zi, &coeff) in zb.iter_mut().zip(&p[l * h + w..(l + 1) * h]) {
                        for (z, &yv) in zi.iter_mut().zip(yl) {
                            *z += coeff * yv;
                        }
                    }
                }
                for (zi, &r) in zb.iter().zip(&srows[w..]) {
                    for (x, &z) in xp[r * K..(r + 1) * K].iter_mut().zip(zi) {
                        *x -= z;
                    }
                }
            }
        }

        // Backward: Lᵀ Z = Y, panels in reverse. Column `l` takes its
        // L21ᵀ z terms, then its L11ᵀ terms from the columns after it
        // (already solved), then its pivot.
        for s in (0..sym.n_supernodes()).rev() {
            let c0 = sym.sn_ptr[s];
            let w = sym.width(s);
            let srows = sym.srows(s);
            let h = srows.len();
            let p = &self.values[sym.panel_ptr[s]..sym.panel_ptr[s + 1]];
            let zb = &mut zb[..h - w];
            for (zi, &r) in zb.iter_mut().zip(&srows[w..]) {
                *zi = entry(xp, r);
            }
            let yb = &mut yb[..w];
            for (l, y) in yb.iter_mut().enumerate() {
                *y = entry(xp, c0 + l);
            }
            for l in (0..w).rev() {
                let mut acc = yb[l];
                for (zi, &coeff) in zb.iter().zip(&p[l * h + w..(l + 1) * h]) {
                    for (v, &z) in acc.iter_mut().zip(zi) {
                        *v -= coeff * z;
                    }
                }
                for (yi, &coeff) in yb[l + 1..].iter().zip(&p[l * h + l + 1..l * h + w]) {
                    for (v, &y) in acc.iter_mut().zip(yi) {
                        *v -= coeff * y;
                    }
                }
                let d = p[l * h + l];
                for v in acc.iter_mut() {
                    *v /= d;
                }
                yb[l] = acc;
            }
            xp[c0 * K..(c0 + w) * K].copy_from_slice(yb.as_flattened());
        }
    }
}

/// Left-looking supernodal numeric factorization into `values` (laid out
/// by `sym`); `ap` is the matrix already permuted by `sym.perm`.
fn numeric_factor(sym: &SymbolicCholesky, ap: &CsrMatrix, values: &mut [f64]) -> SparseResult<()> {
    let ns = sym.n_supernodes();
    // Linked lists of pending descendant updates per target supernode.
    let mut head = vec![usize::MAX; ns];
    let mut next = vec![usize::MAX; ns];
    // Per-descendant progress pointer into its row list.
    let mut pos = vec![0usize; ns];
    // Global row → panel-local row of the current target supernode.
    let mut map = vec![usize::MAX; sym.n];
    // Target-local row of each descendant row, computed once per update.
    let mut lrow = vec![0usize; sym.max_height];
    let mut update = vec![0.0f64; sym.max_height * MAX_SUPERNODE_WIDTH];

    for s in 0..ns {
        let c0 = sym.sn_ptr[s];
        let c1 = sym.sn_ptr[s + 1];
        let w = c1 - c0;
        let srows = sym.srows(s);
        let h = srows.len();
        let (done, rest) = values.split_at_mut(sym.panel_ptr[s]);
        let pnl = &mut rest[..h * w];
        pnl.fill(0.0);
        for (li, &r) in srows.iter().enumerate() {
            map[r] = li;
        }
        // Scatter the lower triangle of A's columns (row j of the symmetric
        // CSR is column j's pattern).
        for l in 0..w {
            let j = c0 + l;
            let (cols, vals) = ap.row(j);
            for (&r, &v) in cols.iter().zip(vals) {
                if r < j {
                    continue;
                }
                let li = map[r];
                if li == usize::MAX {
                    // Structure outside the analysis: a refactor against a
                    // matrix this symbolic pass never saw.
                    return Err(SolveError::DimensionMismatch {
                        detail: format!(
                            "matrix entry ({r}, {j}) outside the analyzed pattern"
                        ),
                    });
                }
                pnl[l * h + li] = v;
            }
        }
        // Apply pending descendant updates.
        let mut d = head[s];
        while d != usize::MAX {
            let d_next = next[d];
            let drows = sym.srows(d);
            let dh = drows.len();
            let dw = sym.width(d);
            let j1 = pos[d];
            let mut j2 = j1;
            while j2 < dh && drows[j2] < c1 {
                j2 += 1;
            }
            let m = dh - j1;
            let nc = j2 - j1;
            let dpanel = &done[sym.panel_ptr[d]..sym.panel_ptr[d] + dh * dw];
            // Resolve the descendant's rows to target-local rows once (the
            // old per-column map walk re-did these lookups `nc` times).
            // `usize::MAX` marks amalgamation padding: rows that are
            // structural zeros in the target, carrying exactly-0.0 updates.
            let lrow = &mut lrow[..m];
            let mut contig = true;
            for (t, &r) in drows[j1..].iter().enumerate() {
                lrow[t] = map[r];
                contig &= lrow[t] == lrow[0].wrapping_add(t);
            }
            if contig && lrow[0] != usize::MAX {
                // The update lands on a contiguous target sub-panel (rows
                // and, since the leading `nc` rows are the target's own
                // columns, columns too): subtract the GEMM straight into it.
                // This writes junk into the strictly-upper slots of the
                // diagonal block, which no kernel or solve ever reads.
                let l0 = lrow[0];
                panel::gemm_nt_sub(
                    &mut pnl[l0 * h + l0..],
                    h,
                    &dpanel[j1..],
                    dh,
                    &dpanel[j1..],
                    dh,
                    m,
                    nc,
                    dw,
                );
            } else {
                // U = L_d[j1.., :] * L_d[j1..j2, :]ᵀ  (m x nc) written
                // fresh (no zero-fill pass), then scatter-subtracted
                // through the precomputed local rows. Padded rows
                // (`usize::MAX`) carry exactly-0.0 updates and are skipped.
                let u = &mut update[..m * nc];
                panel::gemm_nt_out(u, m, &dpanel[j1..], dh, &dpanel[j1..], dh, m, nc, dw);
                for cc in 0..nc {
                    let l = drows[j1 + cc] - c0;
                    let pcol = &mut pnl[l * h..(l + 1) * h];
                    let ucol = &u[cc * m..(cc + 1) * m];
                    for (&li, &uv) in lrow[cc..].iter().zip(&ucol[cc..]) {
                        if li != usize::MAX {
                            pcol[li] -= uv;
                        } else {
                            debug_assert_eq!(uv, 0.0, "nonzero update outside target pattern");
                        }
                    }
                }
            }
            pos[d] = j2;
            if j2 < dh {
                let t = sym.col_to_sn[drows[j2]];
                next[d] = head[t];
                head[t] = d;
            }
            d = d_next;
        }
        // Factor the panel: dense Cholesky of the diagonal block + TRSM of
        // the rows below it.
        if let Err((l, pivot)) = panel::factor_panel(pnl, h, w) {
            pdn_core::telemetry::counter_add("sparse.cholesky.breakdowns", 1);
            return Err(SolveError::NotPositiveDefinite { row: sym.perm[c0 + l], pivot });
        }
        // Queue this supernode's own below-diagonal block as a pending
        // update for the supernode owning its first below row.
        if h > w {
            pos[s] = w;
            let t = sym.col_to_sn[srows[w]];
            next[s] = head[t];
            head[t] = s;
        }
        for &r in srows {
            map[r] = usize::MAX;
        }
    }
    pdn_core::telemetry::counter_add("sparse.supernodal.factorizations", 1);
    Ok(())
}

fn check_square(a: &CsrMatrix) -> SparseResult<()> {
    if a.n_rows() != a.n_cols() {
        return Err(SolveError::DimensionMismatch {
            detail: format!("cholesky of {}x{} matrix", a.n_rows(), a.n_cols()),
        });
    }
    Ok(())
}

/// Entries of an `h x w` lower trapezoid (`h ≥ w`): column `l` holds
/// `h - l` entries.
fn trapezoid(h: usize, w: usize) -> usize {
    h * w - w * (w - 1) / 2
}

/// Merges two sorted index lists into `out` (cleared first by the caller).
fn sorted_union(a: &[usize], b: &[usize], out: &mut Vec<usize>) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

/// Computes the elimination tree of a symmetric matrix (upper triangle
/// read via the row pattern). `parent[j] == usize::MAX` marks a root.
fn elimination_tree(a: &CsrMatrix) -> Vec<usize> {
    let n = a.n_rows();
    let mut parent = vec![usize::MAX; n];
    let mut ancestor = vec![usize::MAX; n];
    for k in 0..n {
        let (cols, _) = a.row(k);
        for &i in cols.iter().filter(|&&i| i < k) {
            // Walk from i up to the root, path-compressing to k.
            let mut j = i;
            while ancestor[j] != usize::MAX && ancestor[j] != k {
                let next = ancestor[j];
                ancestor[j] = k;
                j = next;
            }
            if ancestor[j] == usize::MAX {
                ancestor[j] = k;
                parent[j] = k;
            }
        }
    }
    parent
}

/// Postorders an elimination forest (`parent[j] == usize::MAX` marks
/// roots); returns `post` with `post[new] = old`. Children and roots are
/// visited in ascending order, so the result is deterministic.
fn postorder(parent: &[usize]) -> Vec<usize> {
    let n = parent.len();
    let mut first_child = vec![usize::MAX; n];
    let mut next_sibling = vec![usize::MAX; n];
    for j in (0..n).rev() {
        let p = parent[j];
        if p != usize::MAX {
            next_sibling[j] = first_child[p];
            first_child[p] = j;
        }
    }
    let mut post = Vec::with_capacity(n);
    let mut stack = Vec::new();
    for (root, &p) in parent.iter().enumerate() {
        if p != usize::MAX {
            continue;
        }
        stack.push(root);
        while let Some(&node) = stack.last() {
            let c = first_child[node];
            if c != usize::MAX {
                first_child[node] = next_sibling[c];
                stack.push(c);
            } else {
                post.push(node);
                stack.pop();
            }
        }
    }
    debug_assert_eq!(post.len(), n);
    post
}

/// Reusable elimination-tree reach computation (the pattern of one factor
/// row, unsorted): the work arrays persist across rows so a full symbolic
/// sweep is O(nnz(L)).
struct EtreeWalker {
    marked: Vec<usize>,
}

impl EtreeWalker {
    fn new(n: usize) -> EtreeWalker {
        EtreeWalker { marked: vec![usize::MAX; n] }
    }

    /// Collects `{j < k : L[k][j] ≠ 0}` into `out` (cleared first).
    fn reach_into(&mut self, a: &CsrMatrix, k: usize, parent: &[usize], out: &mut Vec<usize>) {
        out.clear();
        self.marked[k] = k;
        let (cols, _) = a.row(k);
        for &i in cols.iter().filter(|&&i| i < k) {
            let mut j = i;
            while self.marked[j] != k {
                out.push(j);
                self.marked[j] = k;
                j = parent[j];
                debug_assert!(j != usize::MAX, "etree truncated");
            }
        }
    }
}

/// Column counts of the Cholesky factor of the symmetric matrix `a`
/// (diagonal included), given its elimination tree `parent`.
///
/// Gilbert–Ng–Peyton row-subtree counting (Davis, *Direct Methods for
/// Sparse Linear Systems*, §4.5): row `i` of `L` is the subtree of the
/// etree spanned by the leaves `j < i` with `a[i][j] ≠ 0`. Walking the
/// columns in postorder, each such leaf adds one to its column's count and
/// takes one away at the least common ancestor it shares with row `i`'s
/// previous leaf, found by a path-compressed union-find over the visited
/// part of the tree. Summing these differences up the tree gives the exact
/// counts in O(nnz(A)·α) time without forming a single row of `L`.
fn column_counts(a: &CsrMatrix, parent: &[usize]) -> Vec<usize> {
    const NONE: usize = usize::MAX;
    let n = parent.len();
    let post = postorder(parent);
    // first[j]: postorder index of j's first descendant. A column seen for
    // the first time is a leaf and starts its count at one.
    let mut first = vec![NONE; n];
    let mut delta = vec![0isize; n];
    for (k, &j) in post.iter().enumerate() {
        if first[j] == NONE {
            delta[j] = 1;
        }
        let mut q = j;
        while q != NONE && first[q] == NONE {
            first[q] = k;
            q = parent[q];
        }
    }
    // Per row i: one past the largest `first` of a leaf already counted
    // (0: none yet), and that leaf.
    let mut max_first = vec![0usize; n];
    let mut prev_leaf = vec![NONE; n];
    let mut ancestor: Vec<usize> = (0..n).collect();
    for &j in &post {
        if parent[j] != NONE {
            delta[parent[j]] -= 1;
        }
        let (cols, _) = a.row(j);
        for &i in cols.iter().filter(|&&i| i > j) {
            // j is a leaf of row i's subtree only if none of its
            // descendants already put an entry in row i.
            if first[j] < max_first[i] {
                continue;
            }
            max_first[i] = first[j] + 1;
            let jprev = std::mem::replace(&mut prev_leaf[i], j);
            delta[j] += 1;
            if jprev != NONE {
                // Row i's subtree already holds the path from jprev up;
                // the two paths merge at their least common ancestor q.
                let mut q = jprev;
                while q != ancestor[q] {
                    q = ancestor[q];
                }
                let mut s = jprev;
                while s != q {
                    let next = ancestor[s];
                    ancestor[s] = q;
                    s = next;
                }
                delta[q] -= 1;
            }
        }
        if parent[j] != NONE {
            ancestor[j] = parent[j];
        }
    }
    // Children precede their parents (parent[j] > j), so one ascending
    // pass sums every subtree.
    for j in 0..n {
        if parent[j] != NONE {
            delta[parent[j]] += delta[j];
        }
    }
    delta
        .into_iter()
        .map(|d| usize::try_from(d).expect("column counts are positive"))
        .collect()
}

/// Predicted factor fill (nnz of `L`, diagonal included) for `a` under
/// `perm` — the symbolic quantity [`SymbolicCholesky::analyze`] compares
/// across candidate orderings.
pub fn predicted_factor_nnz(a: &CsrMatrix, perm: &[usize]) -> usize {
    let ap = a.permute_symmetric(perm);
    column_counts(&ap, &elimination_tree(&ap)).iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::amd::tests::dense_elimination;
    use crate::coo::CooMatrix;
    use crate::dense::DenseMatrix;
    use proptest::prelude::*;
    use rand::{Rng as _, SeedableRng as _};

    fn grid_laplacian(rows: usize, cols: usize, shift: f64) -> CsrMatrix {
        let idx = |r: usize, c: usize| r * cols + c;
        let n = rows * cols;
        let mut coo = CooMatrix::new(n, n);
        for r in 0..rows {
            for c in 0..cols {
                coo.push(idx(r, c), idx(r, c), shift);
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

    fn random_spd(n: usize, seed: u64) -> CsrMatrix {
        random_spd_with_density(n, 0.3, seed)
    }

    /// Random diagonally dominant M-matrix whose off-diagonal pairs are
    /// present with probability `density`.
    fn random_spd_with_density(n: usize, density: f64, seed: u64) -> CsrMatrix {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut coo = CooMatrix::new(n, n);
        let mut row_sums = vec![0.0; n];
        for i in 0..n {
            for j in (i + 1)..n {
                if rng.gen_bool(density) {
                    let g = rng.gen_range(0.1..2.0);
                    coo.push(i, j, -g);
                    coo.push(j, i, -g);
                    row_sums[i] += g;
                    row_sums[j] += g;
                }
            }
        }
        for (i, &rs) in row_sums.iter().enumerate() {
            coo.push(i, i, rs + rng.gen_range(0.1..1.0));
        }
        coo.to_csr()
    }

    /// Reference solve through the dense Cholesky factor.
    fn dense_solve(a: &CsrMatrix, b: &[f64]) -> Vec<f64> {
        let rows = a.to_dense();
        let rows: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        DenseMatrix::from_rows(&rows).cholesky().expect("spd").solve(b)
    }

    /// A grid Laplacian with its node numbering shuffled, so orderings
    /// see an arbitrary input order.
    fn shuffled_grid(rows: usize, cols: usize, seed: u64) -> CsrMatrix {
        let g = grid_laplacian(rows, cols, 0.6);
        let n = g.n_rows();
        let mut shuffle: Vec<usize> = (0..n).collect();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        for i in (1..n).rev() {
            shuffle.swap(i, rng.gen_range(0..i + 1));
        }
        g.permute_symmetric(&shuffle)
    }

    /// Oracle for [`column_counts`]: one elimination-tree reach walk per
    /// row of `L`, O(nnz(L)).
    fn reach_column_counts(a: &CsrMatrix) -> Vec<usize> {
        let n = a.n_rows();
        let parent = elimination_tree(a);
        let mut counts = vec![1usize; n];
        let mut walker = EtreeWalker::new(n);
        let mut reach = Vec::new();
        for k in 0..n {
            walker.reach_into(a, k, &parent, &mut reach);
            for &j in &reach {
                counts[j] += 1;
            }
        }
        counts
    }

    /// The three orderings `analyze_with` offers, as permutations of `a`.
    fn all_orderings(a: &CsrMatrix) -> [(FillOrdering, Vec<usize>); 3] {
        [
            (FillOrdering::Natural, (0..a.n_rows()).collect()),
            (FillOrdering::Rcm, reverse_cuthill_mckee(a)),
            (FillOrdering::Amd, amd(a)),
        ]
    }

    #[test]
    fn elimination_tree_of_tridiagonal_is_a_path() {
        let a = grid_laplacian(1, 6, 1.0);
        let parent = elimination_tree(&a);
        assert_eq!(parent, vec![1, 2, 3, 4, 5, usize::MAX]);
    }

    #[test]
    fn matches_dense_on_grid_all_orderings() {
        let a = grid_laplacian(9, 7, 0.6);
        let n = a.n_rows();
        let b: Vec<f64> = (0..n).map(|i| ((i * 13) % 11) as f64 - 5.0).collect();
        let expect = dense_solve(&a, &b);
        for ordering in [FillOrdering::Natural, FillOrdering::Rcm, FillOrdering::Amd] {
            let sym = Arc::new(SymbolicCholesky::analyze_with(&a, ordering).unwrap());
            assert_eq!(sym.ordering(), ordering);
            let chol = SupernodalCholesky::factor_with(sym, &a).unwrap();
            let got = chol.solve(&b);
            for (g, e) in got.iter().zip(&expect) {
                assert!((g - e).abs() < 1e-10, "{ordering:?}: {g} vs {e}");
            }
        }
    }

    #[test]
    fn matches_dense_on_random_spd() {
        for seed in 0..8 {
            let n = 40 + 7 * seed as usize;
            let a = random_spd(n, seed);
            let chol = SupernodalCholesky::factor(&a).unwrap();
            let b: Vec<f64> = (0..n).map(|i| ((i * 29) % 17) as f64 - 8.0).collect();
            let expect = dense_solve(&a, &b);
            let got = chol.solve(&b);
            for (g, e) in got.iter().zip(&expect) {
                assert!((g - e).abs() < 1e-10, "seed {seed}: {g} vs {e}");
            }
        }
    }

    #[test]
    fn reports_breakdown_on_indefinite_input() {
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 0, 4.0);
        coo.push(1, 1, 1.0);
        coo.push(2, 2, -2.0); // indefinite
        coo.push(0, 1, 0.5);
        coo.push(1, 0, 0.5);
        let a = coo.to_csr();
        match SupernodalCholesky::factor(&a) {
            Err(SolveError::NotPositiveDefinite { row, pivot }) => {
                assert_eq!(row, 2, "breakdown row is reported in natural numbering");
                assert!(pivot <= 0.0);
            }
            other => panic!("expected breakdown, got {other:?}"),
        }
        let rect = CooMatrix::new(2, 3).to_csr();
        assert!(matches!(
            SupernodalCholesky::factor(&rect),
            Err(SolveError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn refactor_is_bit_identical_to_fresh_factor() {
        let a = grid_laplacian(8, 8, 0.5);
        let sym = Arc::new(SymbolicCholesky::analyze(&a).unwrap());
        let mut chol = SupernodalCholesky::factor_with(sym.clone(), &a).unwrap();
        // Same structure, new values: a different diagonal shift (a Δt
        // change re-stamps exactly like this).
        let b = grid_laplacian(8, 8, 1.25);
        chol.refactor(&b).unwrap();
        let fresh = SupernodalCholesky::factor_with(sym, &b).unwrap();
        assert_eq!(chol.values, fresh.values, "refactor drifted from a fresh factor");
        // And refactoring back reproduces the original factor bitwise.
        let orig = SupernodalCholesky::factor(&a).unwrap();
        chol.refactor(&a).unwrap();
        assert_eq!(chol.values, orig.values);
    }

    #[test]
    fn refactor_rejects_structure_changes() {
        let a = grid_laplacian(5, 5, 0.5);
        let mut chol = SupernodalCholesky::factor(&a).unwrap();
        let bigger = grid_laplacian(6, 5, 0.5);
        assert!(matches!(
            chol.refactor(&bigger),
            Err(SolveError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn multi_rhs_is_bitwise_identical_to_single_solves() {
        use crate::vecops::{deinterleave_into, interleave};
        // An AMD-ordered grid this size holds panels several columns wide
        // with rows below the diagonal, so every loop of every width's
        // substitution body runs.
        let a = grid_laplacian(12, 11, 0.4);
        let n = a.n_rows();
        let chol = SupernodalCholesky::factor(&a).unwrap();
        let sym = chol.symbolic();
        assert_eq!(sym.ordering(), FillOrdering::Amd);
        assert!(
            (0..sym.n_supernodes()).any(|s| sym.width(s) >= 4 && sym.srows(s).len() > sym.width(s)),
            "no supernode is both wide and tall"
        );
        for k in 1..=SWEEP_BLOCK {
            let rhs: Vec<Vec<f64>> = (0..k)
                .map(|t| {
                    (0..n).map(|i| ((i * (t + 2)) % 9) as f64 - 4.0 + t as f64 * 0.5).collect()
                })
                .collect();
            let singles: Vec<Vec<f64>> = rhs.iter().map(|b| chol.solve(b)).collect();
            let refs: Vec<&[f64]> = rhs.iter().map(|v| v.as_slice()).collect();
            let mut multi = vec![0.0; n * k];
            interleave(&refs, &mut multi);
            chol.solve_multi_in_place(&mut multi, k);
            let mut col = vec![0.0; n];
            for (t, expected) in singles.iter().enumerate() {
                deinterleave_into(&multi, k, t, &mut col);
                assert_eq!(&col, expected, "k={k}: vector {t} differs (bitwise)");
            }
        }
    }

    #[test]
    #[should_panic(expected = "width 0 outside 1..=16")]
    fn multi_rhs_rejects_width_zero() {
        let chol = SupernodalCholesky::factor(&grid_laplacian(3, 3, 0.5)).unwrap();
        chol.solve_multi_in_place(&mut [], 0);
    }

    #[test]
    #[should_panic(expected = "width 17 outside 1..=16")]
    fn multi_rhs_rejects_widths_above_the_sweep_block() {
        let a = grid_laplacian(3, 3, 0.5);
        let chol = SupernodalCholesky::factor(&a).unwrap();
        let mut x = vec![1.0; a.n_rows() * (SWEEP_BLOCK + 1)];
        chol.solve_multi_in_place(&mut x, SWEEP_BLOCK + 1);
    }

    #[test]
    fn sweep_matches_single_solves_under_threads() {
        // Three blocks (two full, one ragged); results must be bitwise equal
        // to separate solve calls however many threads service the blocks,
        // including more threads than blocks.
        let a = grid_laplacian(8, 9, 0.3);
        let n = a.n_rows();
        let chol = SupernodalCholesky::factor(&a).unwrap();
        let nrhs = SWEEP_BLOCK * 2 + 5;
        let mut rhs = vec![0.0; n * nrhs];
        for (v, chunk) in rhs.chunks_mut(n).enumerate() {
            for (i, x) in chunk.iter_mut().enumerate() {
                *x = ((i * (v + 3)) % 13) as f64 - 6.0;
            }
        }
        let expected: Vec<Vec<f64>> = rhs.chunks(n).map(|b| chol.solve(b)).collect();
        for width in [1, 2, 3, 8] {
            let mut sweep = rhs.clone();
            chol.solve_sweep_on(&mut sweep, nrhs, width);
            for (v, (got, want)) in sweep.chunks(n).zip(&expected).enumerate() {
                assert_eq!(got, want.as_slice(), "vector {v} drifted at width {width}");
            }
        }
    }

    #[test]
    fn analysis_reports_consistent_fill() {
        let a = grid_laplacian(10, 10, 0.5);
        let sym = SymbolicCholesky::analyze(&a).unwrap();
        assert_eq!(sym.dim(), 100);
        assert!(sym.n_supernodes() >= 1);
        assert!(sym.n_supernodes() <= 100);
        // Trapezoid ≤ rectangle per panel.
        assert!(sym.factor_nnz() <= sym.panel_nnz());
        // The factor must hold at least the matrix's lower triangle.
        assert!(sym.factor_nnz() >= (a.nnz() + a.n_rows()) / 2);
        // Auto-selection on a mesh picks one of the two real orderings.
        assert_ne!(sym.ordering(), FillOrdering::Natural);
    }

    #[test]
    fn predicted_fill_prefers_amd_on_grids() {
        // On 2-D meshes minimum-degree-class orderings produce less fill
        // than RCM; the auto analysis must therefore select AMD, and must
        // publish the comparison it ran.
        let a = grid_laplacian(14, 14, 0.4);
        let rcm = predicted_factor_nnz(&a, &reverse_cuthill_mckee(&a));
        let amd_fill = predicted_factor_nnz(&a, &amd(&a));
        assert!(amd_fill < rcm, "amd {amd_fill} should beat rcm {rcm} on a grid");
        let sym = SymbolicCholesky::analyze(&a).unwrap();
        assert_eq!(sym.ordering(), FillOrdering::Amd);
        let sel = sym.selection().expect("auto analysis records its comparison");
        assert_eq!(sel.ordering, FillOrdering::Amd);
        assert_eq!(sel.rcm_nnz, rcm);
        assert_eq!(sel.amd_nnz, amd_fill);
        // A fixed ordering skips the comparison.
        let fixed = SymbolicCholesky::analyze_with(&a, FillOrdering::Rcm).unwrap();
        assert_eq!(fixed.selection(), None);
    }

    #[test]
    fn auto_selection_has_no_size_cutoff() {
        // Regression for the old MINDEG_AUTO_LIMIT: above 16 384 unknowns
        // the analysis silently fell back to RCM without predicting fill.
        // A 150x150 grid (22 500 nodes) sits past that boundary; the
        // fill comparison must still run and still pick AMD.
        let a = grid_laplacian(150, 150, 0.4);
        let sym = SymbolicCholesky::analyze(&a).unwrap();
        let sel = sym.selection().expect("comparison must run at every size");
        assert_eq!(sel.ordering, FillOrdering::Amd);
        assert!(
            sel.amd_nnz < sel.rcm_nnz,
            "amd {} should beat rcm {} at 22.5k nodes",
            sel.amd_nnz,
            sel.rcm_nnz
        );
    }

    #[test]
    fn predicted_fill_is_the_exact_elimination_fill() {
        // The ordering comparison in `analyze` is only as good as this
        // count: it must equal the fill of a dense graph elimination under
        // the same order, for meshes and for irregular M-matrices alike.
        let mut matrices: Vec<CsrMatrix> = [(1, 1), (1, 7), (4, 4), (6, 9), (11, 8)]
            .iter()
            .map(|&(r, c)| grid_laplacian(r, c, 0.5))
            .collect();
        matrices.extend((0..6).map(|seed| random_spd(12 + 9 * seed as usize, seed)));
        for a in &matrices {
            let n = a.n_rows();
            for (ordering, perm) in all_orderings(a) {
                let exact = dense_elimination(a, Some(&perm));
                assert_eq!(predicted_factor_nnz(a, &perm), exact, "{ordering:?} on n = {n}");
            }
        }
    }

    /// Auto analysis must be the fixed-ordering analysis of its winner,
    /// and both predicted fills must be the exact ones.
    fn assert_auto_analysis_is_the_winners(a: &CsrMatrix) -> FillOrdering {
        let auto = SymbolicCholesky::analyze(a).unwrap();
        let sel = auto.selection().expect("auto analysis records its comparison");
        let fixed = SymbolicCholesky::analyze_with(a, sel.ordering).unwrap();
        assert_eq!(auto.ordering(), sel.ordering);
        assert_eq!(auto.perm, fixed.perm);
        assert_eq!(auto.n_supernodes(), fixed.n_supernodes());
        assert_eq!(auto.factor_nnz(), fixed.factor_nnz());
        assert_eq!(auto.panel_nnz(), fixed.panel_nnz());
        assert_eq!(sel.amd_nnz, predicted_factor_nnz(a, &amd(a)));
        let oracle = |perm: &[usize]| -> usize {
            reach_column_counts(&a.permute_symmetric(perm)).iter().sum()
        };
        assert_eq!(sel.amd_nnz, oracle(&amd(a)));
        assert_eq!(sel.rcm_nnz, oracle(&reverse_cuthill_mckee(a)));
        sel.ordering
    }

    #[test]
    fn auto_analysis_equals_the_fixed_analysis_of_its_winner() {
        let mut winners = Vec::new();
        for seed in 0..12u64 {
            let n = 10 + 6 * seed as usize;
            let density = [0.02, 0.08, 0.3][seed as usize % 3];
            winners.push(assert_auto_analysis_is_the_winners(&random_spd_with_density(
                n, density, seed,
            )));
        }
        winners.push(assert_auto_analysis_is_the_winners(&grid_laplacian(13, 9, 0.5)));
        winners.push(assert_auto_analysis_is_the_winners(&shuffled_grid(9, 8, 3)));
        // Patterns found by search on which RCM predicts less fill than
        // AMD, so the branch that analyzes RCM afresh runs too.
        for (n, density, seed) in [(12, 0.6, 247), (24, 0.08, 739), (54, 0.03, 889)] {
            winners.push(assert_auto_analysis_is_the_winners(&random_spd_with_density(
                n, density, seed,
            )));
        }
        assert!(winners.contains(&FillOrdering::Amd), "{winners:?}");
        assert!(winners.contains(&FillOrdering::Rcm), "{winners:?}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn amd_supernodal_matches_dense_on_shuffled_grids(
            rows in 2usize..9,
            cols in 2usize..9,
            seed in 0u64..100,
        ) {
            // AMD sees an arbitrary input order; check the supernodal
            // factor under FillOrdering::Amd against the dense reference.
            let a = shuffled_grid(rows, cols, seed);
            let n = a.n_rows();
            let sym = Arc::new(SymbolicCholesky::analyze_with(&a, FillOrdering::Amd).unwrap());
            prop_assert_eq!(sym.ordering(), FillOrdering::Amd);
            let chol = SupernodalCholesky::factor_with(sym, &a).unwrap();
            let b: Vec<f64> = (0..n).map(|i| ((i * 13) % 11) as f64 - 5.0).collect();
            let expect = dense_solve(&a, &b);
            let got = chol.solve(&b);
            for (g, e) in got.iter().zip(&expect) {
                prop_assert!((g - e).abs() < 1e-10, "{} vs {}", g, e);
            }
        }

        #[test]
        fn column_counts_match_the_reach_walk(
            n in 1usize..60,
            density in 0.01f64..0.35,
            rows in 1usize..10,
            cols in 1usize..10,
            seed in 0u64..1000,
        ) {
            // Random SPD patterns (forests included at low density) and
            // shuffled grids, each under every ordering `analyze` can use.
            for a in [random_spd_with_density(n, density, seed), shuffled_grid(rows, cols, seed)] {
                for (ordering, perm) in all_orderings(&a) {
                    let ap = a.permute_symmetric(&perm);
                    let counts = column_counts(&ap, &elimination_tree(&ap));
                    prop_assert_eq!(
                        counts,
                        reach_column_counts(&ap),
                        "{:?} on n = {}",
                        ordering,
                        ap.n_rows()
                    );
                }
            }
        }

        #[test]
        fn random_spd_round_trip(n in 2usize..40, seed in 0u64..100) {
            let a = random_spd(n, seed);
            let chol = SupernodalCholesky::factor(&a).unwrap();
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed ^ 0xabcd);
            let x_true: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let b = a.mul_vec(&x_true);
            let x = chol.solve(&b);
            for (xi, ti) in x.iter().zip(&x_true) {
                prop_assert!((xi - ti).abs() < 1e-8, "{} vs {}", xi, ti);
            }
        }
    }
}
