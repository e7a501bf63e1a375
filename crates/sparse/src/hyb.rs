//! HYB — the hybrid ELL + COO format of Bell & Garland \[5\].
//!
//! Rows are stored in a width-`k` ELL part; entries beyond `k` per row
//! spill into a COO tail. `k` is chosen by the CUSP heuristic the paper
//! cites (§II): the largest width such that "enough" rows (at least
//! `max(4096, rows/3)`) still have that many entries — balancing ELL's
//! coalescing against padding waste.
//!
//! HYB is the strongest library baseline for power-law matrices in the
//! paper's evaluation, and also the format whose conversion cost
//! (≈21 SpMVs on average, Fig. 4) motivates ACSR for dynamic graphs.

use crate::coo::CooMatrix;
use crate::cost::PreprocessCost;
use crate::csr::CsrMatrix;
use crate::ell::EllMatrix;
use crate::error::SparseError;
use crate::scalar::Scalar;
use crate::SpFormat;

/// Number of rows that must still be "full" at width `k` for ELL storage
/// to pay off (CUSP's `breakeven_threshold`).
pub const HYB_BREAKEVEN_ROWS: usize = 4096;
/// CUSP's `relative_speed` of ELL vs COO: ELL is worth padding as long as
/// at least `rows / HYB_RELATIVE_SPEED` rows reach the candidate width.
pub const HYB_RELATIVE_SPEED: usize = 3;

/// Hybrid ELL+COO matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct HybMatrix<T> {
    ell: EllMatrix<T>,
    coo: CooMatrix<T>,
    k: usize,
}

impl<T: Scalar> HybMatrix<T> {
    /// Heuristic ELL width for `csr` (paper §II / CUSP):
    /// the largest `k` such that at least `max(4096, rows/3)` rows have
    /// `>= k` non-zeros; `k = 0` (pure COO) when even width 1 fails.
    pub fn heuristic_k(csr: &CsrMatrix<T>) -> usize {
        let rows = csr.rows();
        if rows == 0 {
            return 0;
        }
        // No clamp to `rows`: with fewer than `HYB_BREAKEVEN_ROWS` rows the
        // ELL part can never pay for itself and the matrix stays pure COO.
        let threshold = HYB_BREAKEVEN_ROWS.max(rows / HYB_RELATIVE_SPEED);
        // histogram of row lengths
        let max_len = (0..rows).map(|r| csr.row_nnz(r)).max().unwrap_or(0);
        let mut hist = vec![0usize; max_len + 2];
        for r in 0..rows {
            hist[csr.row_nnz(r)] += 1;
        }
        // rows_with_at_least[k] via suffix sum
        let mut at_least = 0usize;
        let mut best = 0usize;
        for k in (1..=max_len).rev() {
            at_least += hist[k];
            // at this point at_least = #rows with nnz >= k
            if at_least >= threshold {
                best = k;
                break;
            }
        }
        best
    }

    /// Convert from CSR using the heuristic width.
    pub fn from_csr(
        csr: &CsrMatrix<T>,
        max_bytes: usize,
    ) -> Result<(Self, PreprocessCost), SparseError> {
        let k = Self::heuristic_k(csr);
        Self::from_csr_with_k(csr, k, max_bytes)
    }

    /// Convert from CSR with an explicit ELL width `k`.
    pub fn from_csr_with_k(
        csr: &CsrMatrix<T>,
        k: usize,
        max_bytes: usize,
    ) -> Result<(Self, PreprocessCost), SparseError> {
        // Cost of scanning row lengths for the heuristic.
        let ((ell, tail), mut cost) = EllMatrix::from_csr_truncated(csr, k, max_bytes)?;
        let n = tail.len();
        let mut row_indices = Vec::with_capacity(n);
        let mut col_indices = Vec::with_capacity(n);
        let mut values = Vec::with_capacity(n);
        for (r, cc, v) in tail {
            row_indices.push(r);
            col_indices.push(cc);
            values.push(v);
        }
        cost.bytes_read += n as u64 * (8 + T::BYTES as u64);
        cost.bytes_written += n as u64 * (8 + T::BYTES as u64);
        let coo =
            CooMatrix::from_sorted_parts(csr.rows(), csr.cols(), row_indices, col_indices, values);
        // heuristic scan pass over row offsets
        cost.bytes_read += (csr.rows() as u64 + 1) * 4;
        Ok((HybMatrix { ell, coo, k }, cost))
    }

    /// The ELL width `k` in use.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The padded ELL head.
    pub fn ell(&self) -> &EllMatrix<T> {
        &self.ell
    }

    /// The COO tail.
    pub fn coo(&self) -> &CooMatrix<T> {
        &self.coo
    }

    /// Fraction of ELL slots that are padding.
    pub fn padding_fraction(&self) -> f64 {
        self.ell.padding_fraction()
    }

    /// Sequential reference SpMV.
    pub fn spmv(&self, x: &[T]) -> Vec<T> {
        let (rows, _) = self.shape();
        let mut y = vec![T::ZERO; rows];
        self.ell.spmv_accumulate(x, &mut y);
        self.coo.spmv_accumulate(x, &mut y);
        y
    }
}

impl<T: Scalar> SpFormat for HybMatrix<T> {
    fn format_name(&self) -> &'static str {
        "HYB"
    }
    fn shape(&self) -> (usize, usize) {
        self.ell.shape()
    }
    fn nnz(&self) -> usize {
        self.ell.nnz() + self.coo.nnz()
    }
    fn storage_bytes(&self) -> usize {
        self.ell.storage_bytes() + self.coo.storage_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::triplet::TripletMatrix;

    /// Skewed matrix: many rows with 1-2 entries, a few wide rows.
    fn skewed(rows: usize, wide_every: usize, wide_len: usize) -> CsrMatrix<f64> {
        let cols = rows.max(wide_len);
        let mut t = TripletMatrix::new(rows, cols);
        for r in 0..rows {
            if r % wide_every == 0 {
                for c in 0..wide_len {
                    t.push(r, c, 1.0 + (r + c) as f64).unwrap();
                }
            } else {
                t.push(r, r % cols, 2.0).unwrap();
                t.push(r, (r * 7 + 1) % cols, 3.0).unwrap();
            }
        }
        t.to_csr()
    }

    #[test]
    fn heuristic_k_ignores_rare_wide_rows() {
        // 10_000 rows of length 2, every 100th row has 50 entries
        let m = skewed(10_000, 100, 50);
        let k = HybMatrix::heuristic_k(&m);
        // only 100 rows reach width 3+, far below max(4096, 3333)
        assert_eq!(k, 2);
    }

    #[test]
    fn heuristic_k_empty_matrix_is_zero() {
        let m = TripletMatrix::<f64>::new(0, 0).to_csr();
        assert_eq!(HybMatrix::heuristic_k(&m), 0);
        // conversion of the degenerate matrix also succeeds as pure COO
        let (hyb, _) = HybMatrix::from_csr(&m, usize::MAX).unwrap();
        assert_eq!(hyb.k(), 0);
        assert_eq!(hyb.nnz(), 0);
    }

    #[test]
    fn heuristic_k_all_equal_rows_takes_the_full_width() {
        // 6000 rows of exactly 3 entries: every row reaches width 3
        // (6000 >= max(4096, 2000)), so ELL absorbs everything and the
        // COO tail is empty.
        let rows = 6000;
        let mut t = TripletMatrix::<f64>::new(rows, rows);
        for r in 0..rows {
            for j in 0..3 {
                t.push(r, (r + j * 17) % rows, 1.0 + j as f64).unwrap();
            }
        }
        let m = t.to_csr();
        assert_eq!(HybMatrix::heuristic_k(&m), 3);
        let (hyb, _) = HybMatrix::from_csr(&m, usize::MAX).unwrap();
        assert_eq!(hyb.k(), 3);
        assert_eq!(hyb.coo().nnz(), 0, "no spill for equal rows");
        assert_eq!(hyb.ell().nnz(), m.nnz());
    }

    #[test]
    fn heuristic_k_single_dense_row_stays_pure_coo() {
        // One 600-entry row in an otherwise empty 5000-row matrix: no
        // width is reached by enough rows, so k = 0 and every entry
        // lands in the COO tail.
        let rows = 5000;
        let mut t = TripletMatrix::<f64>::new(rows, rows);
        for c in 0..600 {
            t.push(42, c, 1.0 + c as f64).unwrap();
        }
        let m = t.to_csr();
        assert_eq!(HybMatrix::heuristic_k(&m), 0);
        let (hyb, _) = HybMatrix::from_csr(&m, usize::MAX).unwrap();
        assert_eq!(hyb.k(), 0);
        assert_eq!(hyb.ell().nnz(), 0);
        assert_eq!(hyb.coo().nnz(), m.nnz());
    }

    #[test]
    fn heuristic_k_zero_for_tiny_matrices() {
        // fewer than 4096 rows total means no width qualifies
        let mut t = TripletMatrix::<f64>::new(10, 10);
        for i in 0..10 {
            t.push(i, i, 1.0).unwrap();
        }
        let m = t.to_csr();
        assert_eq!(HybMatrix::heuristic_k(&m), 0);
    }

    #[test]
    fn spmv_matches_csr_on_skewed_matrix() {
        let m = skewed(5000, 37, 64);
        let (hyb, _) = HybMatrix::from_csr(&m, usize::MAX).unwrap();
        let x: Vec<f64> = (0..m.cols())
            .map(|i| (i % 13) as f64 * 0.25 + 1.0)
            .collect();
        let y_ref = m.spmv(&x);
        let y = hyb.spmv(&x);
        for (a, b) in y.iter().zip(y_ref.iter()) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn nnz_is_preserved_across_split() {
        let m = skewed(6000, 50, 40);
        let (hyb, _) = HybMatrix::from_csr(&m, usize::MAX).unwrap();
        assert_eq!(hyb.nnz(), m.nnz());
        assert!(hyb.coo().nnz() > 0, "wide rows must spill to COO");
    }

    #[test]
    fn explicit_k_zero_is_pure_coo() {
        let m = skewed(5000, 100, 10);
        let (hyb, _) = HybMatrix::from_csr_with_k(&m, 0, usize::MAX).unwrap();
        assert_eq!(hyb.ell().nnz(), 0);
        assert_eq!(hyb.coo().nnz(), m.nnz());
        let x = vec![1.0; m.cols()];
        assert_eq!(hyb.spmv(&x), m.spmv(&x));
    }

    #[test]
    fn conversion_cost_is_nonzero() {
        let m = skewed(5000, 100, 10);
        let (_, cost) = HybMatrix::from_csr(&m, usize::MAX).unwrap();
        assert!(cost.bytes_written > 0);
    }

    #[test]
    fn memory_budget_propagates() {
        let m = skewed(5000, 10, 200);
        let r = HybMatrix::from_csr_with_k(&m, 200, 1024);
        assert!(r.is_err());
    }
}
