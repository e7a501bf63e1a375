//! DIA — diagonal format (related work, paper §IX).
//!
//! Stores one padded column per occupied diagonal. Superb for banded
//! structured matrices (Bell & Garland show DIA wins there), catastrophic
//! for power-law graphs — included so the format-shootout example can
//! demonstrate *why* the paper's suite needs unstructured formats.

use crate::cost::PreprocessCost;
use crate::csr::CsrMatrix;
use crate::error::SparseError;
use crate::scalar::Scalar;
use crate::SpFormat;

/// DIA matrix: diagonal offsets plus `rows x n_diags` padded data.
#[derive(Clone, Debug, PartialEq)]
pub struct DiaMatrix<T> {
    rows: usize,
    cols: usize,
    nnz: usize,
    /// Diagonal offsets (`col - row`), sorted ascending.
    offsets: Vec<i64>,
    /// Column-major by diagonal: `data[d * rows + r]` is the entry of
    /// diagonal `d` in row `r` (zero where the diagonal leaves the matrix
    /// or the entry is absent).
    data: Vec<T>,
}

impl<T: Scalar> DiaMatrix<T> {
    /// Convert from CSR; fails when the number of occupied diagonals
    /// exceeds `max_diags` (the padding-explosion guard).
    pub fn from_csr(
        csr: &CsrMatrix<T>,
        max_diags: usize,
    ) -> Result<(Self, PreprocessCost), SparseError> {
        // Collect occupied diagonals first so we can fail cheaply.
        let mut present: std::collections::BTreeSet<i64> = std::collections::BTreeSet::new();
        for (r, c, _) in csr.iter() {
            present.insert(c as i64 - r as i64);
            if present.len() > max_diags {
                return Err(SparseError::CapacityExceeded {
                    format: "DIA",
                    detail: format!("more than {max_diags} occupied diagonals"),
                });
            }
        }
        let offsets: Vec<i64> = present.iter().copied().collect();
        let index_of: std::collections::HashMap<i64, usize> =
            offsets.iter().enumerate().map(|(i, &d)| (d, i)).collect();
        let mut data = vec![T::ZERO; offsets.len() * csr.rows()];
        for (r, c, v) in csr.iter() {
            let d = index_of[&(c as i64 - r as i64)];
            data[d * csr.rows() + r] = v;
        }
        let cost = PreprocessCost {
            bytes_read: 2 * csr.nnz() as u64 * (4 + T::BYTES as u64),
            bytes_written: data.len() as u64 * T::BYTES as u64,
            ..PreprocessCost::default()
        };
        let dia = DiaMatrix {
            rows: csr.rows(),
            cols: csr.cols(),
            nnz: csr.nnz(),
            offsets,
            data,
        };
        Ok((dia, cost))
    }

    /// Occupied diagonal offsets.
    pub fn offsets(&self) -> &[i64] {
        &self.offsets
    }

    /// Number of occupied diagonals.
    pub fn n_diags(&self) -> usize {
        self.offsets.len()
    }

    /// Sequential reference SpMV.
    pub fn spmv(&self, x: &[T]) -> Vec<T> {
        assert_eq!(x.len(), self.cols, "spmv: x length != cols");
        let mut y = vec![T::ZERO; self.rows];
        for (d, &off) in self.offsets.iter().enumerate() {
            for (r, yr) in y.iter_mut().enumerate() {
                let c = r as i64 + off;
                if c >= 0 && (c as usize) < self.cols {
                    *yr += self.data[d * self.rows + r] * x[c as usize];
                }
            }
        }
        y
    }
}

impl<T: Scalar> SpFormat for DiaMatrix<T> {
    fn format_name(&self) -> &'static str {
        "DIA"
    }
    fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }
    fn nnz(&self) -> usize {
        self.nnz
    }
    fn storage_bytes(&self) -> usize {
        self.offsets.len() * 8 + self.data.len() * T::BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::triplet::TripletMatrix;

    fn tridiagonal(n: usize) -> CsrMatrix<f64> {
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            t.push(i, i, 2.0).unwrap();
            if i > 0 {
                t.push(i, i - 1, -1.0).unwrap();
            }
            if i + 1 < n {
                t.push(i, i + 1, -1.0).unwrap();
            }
        }
        t.to_csr()
    }

    #[test]
    fn tridiagonal_has_three_diagonals() {
        let m = tridiagonal(100);
        let (dia, _) = DiaMatrix::from_csr(&m, 10).unwrap();
        assert_eq!(dia.n_diags(), 3);
        assert_eq!(dia.offsets(), &[-1, 0, 1]);
    }

    #[test]
    fn spmv_matches_csr() {
        let m = tridiagonal(64);
        let (dia, _) = DiaMatrix::from_csr(&m, 10).unwrap();
        let x: Vec<f64> = (0..64).map(|i| i as f64 * 0.5).collect();
        let y_ref = m.spmv(&x);
        let y = dia.spmv(&x);
        for (a, b) in y.iter().zip(y_ref.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn scattered_matrix_exceeds_diag_budget() {
        let mut t = TripletMatrix::<f64>::new(100, 100);
        for i in 0..100 {
            t.push(i, (i * 37) % 100, 1.0).unwrap();
        }
        let m = t.to_csr();
        assert!(DiaMatrix::from_csr(&m, 8).is_err());
    }

    #[test]
    fn rectangular_diagonals_clip() {
        let mut t = TripletMatrix::<f64>::new(2, 5);
        t.push(0, 4, 7.0).unwrap();
        t.push(1, 0, 3.0).unwrap();
        let m = t.to_csr();
        let (dia, _) = DiaMatrix::from_csr(&m, 10).unwrap();
        let y = dia.spmv(&[1.0, 0.0, 0.0, 0.0, 2.0]);
        assert_eq!(y, vec![14.0, 3.0]);
    }
}
