//! Coordinate (COO) format.
//!
//! Each non-zero stores its full `(row, col, value)` coordinates. SpMV over
//! COO parallelizes over *non-zeros* rather than rows, which removes load
//! imbalance but requires a reduction (atomics or segmented scan) to
//! combine partial products into `y` — the overhead the paper's §II
//! describes. COO is also the tail part of [`crate::hyb::HybMatrix`].

use crate::cost::PreprocessCost;
use crate::csr::CsrMatrix;
use crate::scalar::Scalar;
use crate::SpFormat;

/// COO matrix with entries sorted row-major (row, then column).
#[derive(Clone, Debug, PartialEq)]
pub struct CooMatrix<T> {
    rows: usize,
    cols: usize,
    row_indices: Vec<u32>,
    col_indices: Vec<u32>,
    values: Vec<T>,
}

impl<T: Scalar> CooMatrix<T> {
    /// Convert from CSR, recording preprocessing cost (one streaming pass:
    /// expand row offsets into explicit row indices, copy columns/values).
    pub fn from_csr(csr: &CsrMatrix<T>) -> (Self, PreprocessCost) {
        let nnz = csr.nnz();
        let mut row_indices = Vec::with_capacity(nnz);
        for r in 0..csr.rows() {
            row_indices.extend(std::iter::repeat_n(r as u32, csr.row_nnz(r)));
        }
        let cost = PreprocessCost {
            bytes_read: (csr.rows() as u64 + 1) * 4 + nnz as u64 * (4 + T::BYTES as u64),
            bytes_written: nnz as u64 * (8 + T::BYTES as u64),
            ..PreprocessCost::default()
        };
        let coo = CooMatrix {
            rows: csr.rows(),
            cols: csr.cols(),
            row_indices,
            col_indices: csr.col_indices().to_vec(),
            values: csr.values().to_vec(),
        };
        (coo, cost)
    }

    /// Build directly from sorted parallel arrays (used by HYB assembly).
    /// Entries must be row-major sorted; this is debug-asserted.
    pub(crate) fn from_sorted_parts(
        rows: usize,
        cols: usize,
        row_indices: Vec<u32>,
        col_indices: Vec<u32>,
        values: Vec<T>,
    ) -> Self {
        debug_assert_eq!(row_indices.len(), col_indices.len());
        debug_assert_eq!(row_indices.len(), values.len());
        debug_assert!(row_indices.windows(2).all(|w| w[0] <= w[1]));
        CooMatrix {
            rows,
            cols,
            row_indices,
            col_indices,
            values,
        }
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Row index of each entry.
    pub fn row_indices(&self) -> &[u32] {
        &self.row_indices
    }

    /// Column index of each entry.
    pub fn col_indices(&self) -> &[u32] {
        &self.col_indices
    }

    /// Entry values.
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Sequential reference SpMV accumulating into `y` (does **not** zero
    /// `y` first — callers combining ELL+COO rely on accumulation).
    pub fn spmv_accumulate(&self, x: &[T], y: &mut [T]) {
        assert_eq!(x.len(), self.cols, "spmv: x length != cols");
        assert_eq!(y.len(), self.rows, "spmv: y length != rows");
        for k in 0..self.values.len() {
            let r = self.row_indices[k] as usize;
            let c = self.col_indices[k] as usize;
            y[r] += self.values[k] * x[c];
        }
    }

    /// Standalone SpMV (`y` zeroed first).
    pub fn spmv(&self, x: &[T]) -> Vec<T> {
        let mut y = vec![T::ZERO; self.rows];
        self.spmv_accumulate(x, &mut y);
        y
    }

    /// Convert back to CSR (used by round-trip tests).
    pub fn to_csr(&self) -> CsrMatrix<T> {
        let mut offsets = vec![0u32; self.rows + 1];
        for &r in &self.row_indices {
            offsets[r as usize + 1] += 1;
        }
        for i in 0..self.rows {
            offsets[i + 1] += offsets[i];
        }
        CsrMatrix::from_raw_parts(
            self.rows,
            self.cols,
            offsets,
            self.col_indices.clone(),
            self.values.clone(),
        )
        .expect("sorted COO must form valid CSR")
    }
}

impl<T: Scalar> SpFormat for CooMatrix<T> {
    fn format_name(&self) -> &'static str {
        "COO"
    }
    fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }
    fn nnz(&self) -> usize {
        self.values.len()
    }
    fn storage_bytes(&self) -> usize {
        self.values.len() * (8 + T::BYTES)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::triplet::TripletMatrix;

    fn example() -> CsrMatrix<f64> {
        let mut t = TripletMatrix::new(3, 3);
        t.push(0, 0, 1.0).unwrap();
        t.push(0, 2, 2.0).unwrap();
        t.push(2, 0, 3.0).unwrap();
        t.push(2, 1, 4.0).unwrap();
        t.to_csr()
    }

    #[test]
    fn from_csr_expands_row_indices() {
        let (coo, cost) = CooMatrix::from_csr(&example());
        assert_eq!(coo.row_indices(), &[0, 0, 2, 2]);
        assert_eq!(coo.col_indices(), &[0, 2, 0, 1]);
        assert!(cost.bytes_written > 0);
    }

    #[test]
    fn spmv_matches_csr() {
        let m = example();
        let (coo, _) = CooMatrix::from_csr(&m);
        let x = vec![1.0, 10.0, 100.0];
        assert_eq!(coo.spmv(&x), m.spmv(&x));
    }

    #[test]
    fn spmv_accumulate_adds_to_existing() {
        let (coo, _) = CooMatrix::from_csr(&example());
        let mut y = vec![1.0; 3];
        coo.spmv_accumulate(&[1.0, 1.0, 1.0], &mut y);
        assert_eq!(y, vec![4.0, 1.0, 8.0]);
    }

    #[test]
    fn round_trip_to_csr() {
        let m = example();
        let (coo, _) = CooMatrix::from_csr(&m);
        assert_eq!(coo.to_csr(), m);
    }

    #[test]
    fn storage_is_larger_than_csr_for_multi_entry_rows() {
        // COO stores a row index per entry; CSR amortizes rows+1 offsets.
        let m = example();
        let (coo, _) = CooMatrix::from_csr(&m);
        use crate::SpFormat;
        assert!(coo.storage_bytes() > 0);
        assert_eq!(coo.nnz(), m.nnz());
    }
}
