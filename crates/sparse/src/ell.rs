//! ELLPACK (ELL) format.
//!
//! Every row is padded to a common `width`; storage is column-major
//! (`slot * rows + row`) so that consecutive GPU threads — one per row —
//! read consecutive addresses (perfectly coalesced). The price is padding:
//! for skewed matrices the widest row forces enormous dead storage, which
//! is why HYB caps the ELL width and spills the tail to COO (paper §II).

use crate::cost::PreprocessCost;
use crate::csr::CsrMatrix;
use crate::error::SparseError;
use crate::scalar::Scalar;
use crate::SpFormat;

/// Column index sentinel marking a padding slot.
pub const ELL_PAD: u32 = u32::MAX;

/// ELL matrix with column-major padded storage.
#[derive(Clone, Debug, PartialEq)]
pub struct EllMatrix<T> {
    rows: usize,
    cols: usize,
    width: usize,
    /// `width * rows` column indices, `ELL_PAD` in padding slots.
    col_indices: Vec<u32>,
    /// `width * rows` values, zero in padding slots.
    values: Vec<T>,
    /// True non-zero count (excluding padding).
    nnz: usize,
}

impl<T: Scalar> EllMatrix<T> {
    /// Convert from CSR with `width` = the widest row.
    ///
    /// Fails with [`SparseError::CapacityExceeded`] when padded storage
    /// would exceed `max_bytes` — this models the ∅ (out-of-memory) cells
    /// of the paper's tables for formats that pad.
    pub fn from_csr(
        csr: &CsrMatrix<T>,
        max_bytes: usize,
    ) -> Result<(Self, PreprocessCost), SparseError> {
        let width = (0..csr.rows()).map(|r| csr.row_nnz(r)).max().unwrap_or(0);
        Self::from_csr_with_width(csr, width, max_bytes)
    }

    /// Convert from CSR padding to an explicit `width`.
    ///
    /// Every row must fit: a row longer than `width` is an error (HYB uses
    /// [`Self::from_csr_truncated`] instead to spill the excess).
    pub fn from_csr_with_width(
        csr: &CsrMatrix<T>,
        width: usize,
        max_bytes: usize,
    ) -> Result<(Self, PreprocessCost), SparseError> {
        if let Some(r) = (0..csr.rows()).find(|&r| csr.row_nnz(r) > width) {
            return Err(SparseError::InvalidStructure(format!(
                "row {r} has {} non-zeros > ELL width {width}",
                csr.row_nnz(r)
            )));
        }
        let (ell, cost) = Self::from_csr_truncated(csr, width, max_bytes)?;
        Ok((ell.0, cost))
    }

    /// Convert from CSR keeping at most `width` leading entries per row;
    /// returns the ELL part plus the spilled `(row, col, value)` tail
    /// (row-major sorted) for HYB assembly.
    #[allow(clippy::type_complexity)]
    pub fn from_csr_truncated(
        csr: &CsrMatrix<T>,
        width: usize,
        max_bytes: usize,
    ) -> Result<((Self, Vec<(u32, u32, T)>), PreprocessCost), SparseError> {
        let rows = csr.rows();
        let padded = width
            .checked_mul(rows)
            .ok_or_else(|| SparseError::CapacityExceeded {
                format: "ELL",
                detail: "width * rows overflows".into(),
            })?;
        let bytes = padded * (4 + T::BYTES);
        if bytes > max_bytes {
            return Err(SparseError::CapacityExceeded {
                format: "ELL",
                detail: format!("padded storage {bytes} B exceeds budget {max_bytes} B"),
            });
        }
        let mut col_indices = vec![ELL_PAD; padded];
        let mut values = vec![T::ZERO; padded];
        let mut tail: Vec<(u32, u32, T)> = Vec::new();
        let mut nnz = 0usize;
        for r in 0..rows {
            let (cols, vals) = csr.row(r);
            for (slot, (c, v)) in cols.iter().zip(vals.iter()).enumerate() {
                if slot < width {
                    // column-major: slot-major stride of `rows`
                    col_indices[slot * rows + r] = *c;
                    values[slot * rows + r] = *v;
                    nnz += 1;
                } else {
                    tail.push((r as u32, *c, *v));
                }
            }
        }
        let cost = PreprocessCost {
            bytes_read: csr.nnz() as u64 * (4 + T::BYTES as u64),
            bytes_written: padded as u64 * (4 + T::BYTES as u64),
            ..PreprocessCost::default()
        };
        let ell = EllMatrix {
            rows,
            cols: csr.cols(),
            width,
            col_indices,
            values,
            nnz,
        };
        Ok(((ell, tail), cost))
    }

    /// Padded width (entries per row).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Column-major column index array (padding = [`ELL_PAD`]).
    pub fn col_indices(&self) -> &[u32] {
        &self.col_indices
    }

    /// Column-major value array (padding = 0).
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Fraction of slots that are padding (the paper reports HYB pays
    /// ~33% padding on its suite).
    pub fn padding_fraction(&self) -> f64 {
        if self.col_indices.is_empty() {
            return 0.0;
        }
        1.0 - self.nnz as f64 / self.col_indices.len() as f64
    }

    /// Sequential reference SpMV accumulating into `y`.
    pub fn spmv_accumulate(&self, x: &[T], y: &mut [T]) {
        assert_eq!(x.len(), self.cols, "spmv: x length != cols");
        assert_eq!(y.len(), self.rows, "spmv: y length != rows");
        for (r, yr) in y.iter_mut().enumerate() {
            let mut sum = T::ZERO;
            for slot in 0..self.width {
                let c = self.col_indices[slot * self.rows + r];
                if c != ELL_PAD {
                    sum += self.values[slot * self.rows + r] * x[c as usize];
                }
            }
            *yr += sum;
        }
    }

    /// Standalone SpMV.
    pub fn spmv(&self, x: &[T]) -> Vec<T> {
        let mut y = vec![T::ZERO; self.rows];
        self.spmv_accumulate(x, &mut y);
        y
    }
}

impl<T: Scalar> SpFormat for EllMatrix<T> {
    fn format_name(&self) -> &'static str {
        "ELL"
    }
    fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }
    fn nnz(&self) -> usize {
        self.nnz
    }
    fn storage_bytes(&self) -> usize {
        self.col_indices.len() * 4 + self.values.len() * T::BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::triplet::TripletMatrix;

    fn example() -> CsrMatrix<f64> {
        // row lengths 2, 0, 3
        let mut t = TripletMatrix::new(3, 4);
        t.push(0, 0, 1.0).unwrap();
        t.push(0, 2, 2.0).unwrap();
        t.push(2, 0, 3.0).unwrap();
        t.push(2, 1, 4.0).unwrap();
        t.push(2, 3, 5.0).unwrap();
        t.to_csr()
    }

    #[test]
    fn width_defaults_to_longest_row() {
        let (ell, _) = EllMatrix::from_csr(&example(), usize::MAX).unwrap();
        assert_eq!(ell.width(), 3);
        assert_eq!(ell.nnz(), 5);
    }

    #[test]
    fn column_major_layout() {
        let (ell, _) = EllMatrix::from_csr(&example(), usize::MAX).unwrap();
        // slot 0 holds first entry of each row: cols [0, PAD, 0]
        assert_eq!(ell.col_indices()[0], 0);
        assert_eq!(ell.col_indices()[1], ELL_PAD);
        assert_eq!(ell.col_indices()[2], 0);
    }

    #[test]
    fn spmv_matches_csr() {
        let m = example();
        let (ell, _) = EllMatrix::from_csr(&m, usize::MAX).unwrap();
        let x = vec![1.0, 10.0, 100.0, 1000.0];
        assert_eq!(ell.spmv(&x), m.spmv(&x));
    }

    #[test]
    fn capacity_budget_rejects_padding_explosion() {
        let m = example();
        let e = EllMatrix::from_csr(&m, 8);
        assert!(matches!(e, Err(SparseError::CapacityExceeded { .. })));
    }

    #[test]
    fn truncated_conversion_spills_tail() {
        let m = example();
        let ((ell, tail), _) = EllMatrix::from_csr_truncated(&m, 2, usize::MAX).unwrap();
        assert_eq!(ell.width(), 2);
        assert_eq!(ell.nnz(), 4);
        assert_eq!(tail, vec![(2, 3, 5.0)]);
        // ELL part + tail together reproduce the matrix
        let x = vec![1.0, 10.0, 100.0, 1000.0];
        let mut y = ell.spmv(&x);
        for (r, c, v) in tail {
            y[r as usize] += v * x[c as usize];
        }
        assert_eq!(y, m.spmv(&x));
    }

    #[test]
    fn explicit_width_rejects_overlong_rows() {
        let m = example();
        assert!(EllMatrix::from_csr_with_width(&m, 2, usize::MAX).is_err());
        assert!(EllMatrix::from_csr_with_width(&m, 3, usize::MAX).is_ok());
    }

    #[test]
    fn padding_fraction_reflects_skew() {
        let m = example();
        let (ell, _) = EllMatrix::from_csr(&m, usize::MAX).unwrap();
        // 9 slots, 5 filled
        assert!((ell.padding_fraction() - 4.0 / 9.0).abs() < 1e-12);
    }
}
