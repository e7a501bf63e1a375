//! BRC — Blocked Row-Column format (Ashari et al. \[1\], ICS'14).
//!
//! BRC blocks in *two* dimensions. Rows are first split column-wise into
//! chunks of at most [`BRC_MAX_WIDTH`] non-zeros (so no single warp ever
//! serializes behind a power-law monster row); the chunks are then
//! *sorted by length* and grouped into blocks of [`BRC_BLOCK_ROWS`]
//! chunks, each padded only to its own widest member. Sorting makes the
//! padding tiny (the paper reports ≈1% space overhead for BRC); the
//! price is the global sort and full data restructuring — preprocessing
//! the paper's Figure 4 charges at ~87 SpMVs.
//!
//! Because a row may span several chunks (in different blocks), BRC SpMV
//! *accumulates* into a zeroed `y`.

use crate::cost::PreprocessCost;
use crate::csr::CsrMatrix;
use crate::ell::ELL_PAD;
use crate::error::SparseError;
use crate::scalar::Scalar;
use crate::SpFormat;

/// Chunks per BRC block (one warp cooperates on a block).
pub const BRC_BLOCK_ROWS: usize = 32;

/// Maximum non-zeros per row chunk (the column-blocking dimension).
pub const BRC_MAX_WIDTH: usize = 64;

/// One block of the BRC representation.
#[derive(Clone, Debug, PartialEq)]
pub struct BrcBlock {
    /// First chunk (in sorted order) this block covers.
    pub row_start: usize,
    /// Number of chunks in this block (≤ [`BRC_BLOCK_ROWS`]).
    pub height: usize,
    /// Width all chunks in the block are padded to (≤ [`BRC_MAX_WIDTH`]).
    pub width: usize,
    /// Offset of this block's slots in the shared col/val arrays.
    pub data_start: usize,
}

/// BRC matrix: length-sorted row chunks in per-block padded column-major
/// storage.
#[derive(Clone, Debug, PartialEq)]
pub struct BrcMatrix<T> {
    rows: usize,
    cols: usize,
    nnz: usize,
    /// `chunk_rows[sorted_pos] = original_row` of that chunk.
    chunk_rows: Vec<u32>,
    blocks: Vec<BrcBlock>,
    /// Concatenated per-block column-major slots (`ELL_PAD` padding).
    col_indices: Vec<u32>,
    values: Vec<T>,
}

impl<T: Scalar> BrcMatrix<T> {
    /// Convert from CSR: chunk rows column-wise, sort chunks by length
    /// (descending), block, pad.
    pub fn from_csr(
        csr: &CsrMatrix<T>,
        max_bytes: usize,
    ) -> Result<(Self, PreprocessCost), SparseError> {
        let rows = csr.rows();
        let mut cost = PreprocessCost::default();
        // Enumerate (row, chunk offset, chunk len).
        let mut chunks: Vec<(u32, u32, u32)> = Vec::new();
        for r in 0..rows {
            let len = csr.row_nnz(r);
            let mut off = 0usize;
            while off < len {
                let clen = (len - off).min(BRC_MAX_WIDTH);
                chunks.push((r as u32, off as u32, clen as u32));
                off += clen;
            }
            if len == 0 {
                // empty rows need no chunk; y is zero-filled by the
                // kernel's memset pass
            }
        }
        chunks.sort_by_key(|&(_, _, l)| std::cmp::Reverse(l));
        cost.charge_sort(chunks.len() as u64, 12);

        let mut blocks = Vec::with_capacity(chunks.len().div_ceil(BRC_BLOCK_ROWS));
        let mut total_slots = 0usize;
        let mut pos = 0usize;
        while pos < chunks.len() {
            let height = BRC_BLOCK_ROWS.min(chunks.len() - pos);
            let width = (0..height)
                .map(|i| chunks[pos + i].2 as usize)
                .max()
                .unwrap_or(0);
            blocks.push(BrcBlock {
                row_start: pos,
                height,
                width,
                data_start: total_slots,
            });
            total_slots += height * width;
            pos += height;
        }
        let bytes = total_slots * (4 + T::BYTES);
        if bytes > max_bytes {
            return Err(SparseError::CapacityExceeded {
                format: "BRC",
                detail: format!("blocked storage {bytes} B exceeds budget {max_bytes} B"),
            });
        }
        let mut col_indices = vec![ELL_PAD; total_slots];
        let mut values = vec![T::ZERO; total_slots];
        let mut chunk_rows = Vec::with_capacity(chunks.len());
        for b in &blocks {
            for i in 0..b.height {
                let (r, off, clen) = chunks[b.row_start + i];
                let (rcols, rvals) = csr.row(r as usize);
                for slot in 0..clen as usize {
                    let idx = b.data_start + slot * b.height + i;
                    col_indices[idx] = rcols[off as usize + slot];
                    values[idx] = rvals[off as usize + slot];
                }
            }
        }
        for &(r, _, _) in &chunks {
            chunk_rows.push(r);
        }
        cost.bytes_read += csr.nnz() as u64 * (4 + T::BYTES as u64);
        cost.bytes_written += total_slots as u64 * (4 + T::BYTES as u64);
        Ok((
            BrcMatrix {
                rows,
                cols: csr.cols(),
                nnz: csr.nnz(),
                chunk_rows,
                blocks,
                col_indices,
                values,
            },
            cost,
        ))
    }

    /// Global row of each sorted chunk.
    pub fn chunk_rows(&self) -> &[u32] {
        &self.chunk_rows
    }

    /// Chunk blocks.
    pub fn blocks(&self) -> &[BrcBlock] {
        &self.blocks
    }

    /// Concatenated padded column indices.
    pub fn col_indices(&self) -> &[u32] {
        &self.col_indices
    }

    /// Concatenated padded values.
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Fraction of slots that are padding.
    pub fn padding_fraction(&self) -> f64 {
        if self.col_indices.is_empty() {
            return 0.0;
        }
        1.0 - self.nnz as f64 / self.col_indices.len() as f64
    }

    /// Sequential reference SpMV (accumulates chunk partials).
    pub fn spmv(&self, x: &[T]) -> Vec<T> {
        assert_eq!(x.len(), self.cols, "spmv: x length != cols");
        let mut y = vec![T::ZERO; self.rows];
        for b in &self.blocks {
            for i in 0..b.height {
                let mut sum = T::ZERO;
                for slot in 0..b.width {
                    let idx = b.data_start + slot * b.height + i;
                    let c = self.col_indices[idx];
                    if c != ELL_PAD {
                        sum += self.values[idx] * x[c as usize];
                    }
                }
                y[self.chunk_rows[b.row_start + i] as usize] += sum;
            }
        }
        y
    }
}

impl<T: Scalar> SpFormat for BrcMatrix<T> {
    fn format_name(&self) -> &'static str {
        "BRC"
    }
    fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }
    fn nnz(&self) -> usize {
        self.nnz
    }
    fn storage_bytes(&self) -> usize {
        self.chunk_rows.len() * 4
            + self.blocks.len() * std::mem::size_of::<BrcBlock>()
            + self.col_indices.len() * 4
            + self.values.len() * T::BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::triplet::TripletMatrix;

    fn skewed(rows: usize) -> CsrMatrix<f64> {
        let mut t = TripletMatrix::new(rows, rows);
        for r in 0..rows {
            let len = if r % 64 == 0 { 200 } else { 1 + r % 3 };
            for j in 0..len.min(rows) {
                t.push(r, (r + j * 17) % rows, (r + j) as f64 + 0.5)
                    .unwrap();
            }
        }
        t.to_csr()
    }

    #[test]
    fn spmv_matches_csr() {
        let m = skewed(1000);
        let (brc, _) = BrcMatrix::from_csr(&m, usize::MAX).unwrap();
        let x: Vec<f64> = (0..1000).map(|i| 1.0 + (i % 7) as f64).collect();
        let y_ref = m.spmv(&x);
        let y = brc.spmv(&x);
        for (a, b) in y.iter().zip(y_ref.iter()) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn wide_rows_are_split_into_bounded_chunks() {
        let m = skewed(2048);
        let (brc, _) = BrcMatrix::from_csr(&m, usize::MAX).unwrap();
        for b in brc.blocks() {
            assert!(b.width <= BRC_MAX_WIDTH, "block width {}", b.width);
        }
        // the 200-nnz rows must appear as multiple chunks
        let n_chunks_row0 = brc.chunk_rows().iter().filter(|&&r| r == 0).count();
        assert_eq!(n_chunks_row0, 200usize.div_ceil(BRC_MAX_WIDTH));
    }

    #[test]
    fn padding_is_small_on_skewed_matrix() {
        let m = skewed(4096);
        let (brc, _) = BrcMatrix::from_csr(&m, usize::MAX).unwrap();
        assert!(
            brc.padding_fraction() < 0.15,
            "padding {}",
            brc.padding_fraction()
        );
    }

    #[test]
    fn blocks_sorted_by_decreasing_width() {
        let m = skewed(2048);
        let (brc, _) = BrcMatrix::from_csr(&m, usize::MAX).unwrap();
        let widths: Vec<usize> = brc.blocks().iter().map(|b| b.width).collect();
        assert!(widths.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn every_nnz_is_represented_exactly_once() {
        let m = skewed(513);
        let (brc, _) = BrcMatrix::from_csr(&m, usize::MAX).unwrap();
        let real: usize = brc.col_indices().iter().filter(|&&c| c != ELL_PAD).count();
        assert_eq!(real, m.nnz());
    }

    #[test]
    fn conversion_charges_a_sort() {
        let m = skewed(512);
        let (_, cost) = BrcMatrix::from_csr(&m, usize::MAX).unwrap();
        assert!(cost.sorted_elements >= 512);
    }

    #[test]
    fn memory_budget_enforced() {
        let m = skewed(2048);
        assert!(BrcMatrix::from_csr(&m, 64).is_err());
    }
}
