//! TCOO — Tiled COO (Yang et al. \[28\], "Fast SpMV on GPUs: implications
//! for graph mining", VLDB'11).
//!
//! The matrix is partitioned into vertical **column tiles** so each tile's
//! slice of `x` fits in the texture cache; within a tile, entries are COO
//! sorted row-major. SpMV processes one tile at a time, giving temporal
//! locality on `x` at the cost of re-walking `y`. The tile count is an
//! input parameter the original work finds by **exhaustive search** —
//! which this reproduction's tuner (in `spmv-kernels`) performs as well,
//! charging its trials to preprocessing, as the paper does (§V: "we
//! performed an exhaustive search to find the best number of tiles").

use crate::cost::PreprocessCost;
use crate::csr::CsrMatrix;
use crate::error::SparseError;
use crate::scalar::Scalar;
use crate::SpFormat;

/// One column tile: a row-major-sorted COO slice over a column range.
#[derive(Clone, Debug, PartialEq)]
pub struct TcooTile {
    /// First column covered by this tile (inclusive).
    pub col_start: u32,
    /// One past the last column covered (exclusive).
    pub col_end: u32,
    /// Offset of this tile's entries in the shared arrays.
    pub entry_start: usize,
    /// Number of entries in this tile.
    pub entry_count: usize,
}

/// Tiled-COO matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct TcooMatrix<T> {
    rows: usize,
    cols: usize,
    tiles: Vec<TcooTile>,
    row_indices: Vec<u32>,
    col_indices: Vec<u32>,
    values: Vec<T>,
}

impl<T: Scalar> TcooMatrix<T> {
    /// Convert from CSR into `n_tiles` equal-width column tiles.
    pub fn from_csr(
        csr: &CsrMatrix<T>,
        n_tiles: usize,
        max_bytes: usize,
    ) -> Result<(Self, PreprocessCost), SparseError> {
        if n_tiles == 0 {
            return Err(SparseError::InvalidStructure(
                "TCOO requires at least one tile".into(),
            ));
        }
        let nnz = csr.nnz();
        let bytes = nnz * (8 + T::BYTES) + n_tiles * std::mem::size_of::<TcooTile>();
        if bytes > max_bytes {
            return Err(SparseError::CapacityExceeded {
                format: "TCOO",
                detail: format!("tiled storage {bytes} B exceeds budget {max_bytes} B"),
            });
        }
        let cols = csr.cols().max(1);
        let tile_width = cols.div_ceil(n_tiles);
        // Bucket entries by tile (counting pass + placement pass),
        // preserving row-major order within each tile because the CSR
        // scan is already row-major.
        let mut counts = vec![0usize; n_tiles];
        for &c in csr.col_indices() {
            counts[(c as usize) / tile_width] += 1;
        }
        let mut starts = vec![0usize; n_tiles + 1];
        for t in 0..n_tiles {
            starts[t + 1] = starts[t] + counts[t];
        }
        let mut row_indices = vec![0u32; nnz];
        let mut col_indices = vec![0u32; nnz];
        let mut values = vec![T::ZERO; nnz];
        let mut cursor = starts.clone();
        for (r, c, v) in csr.iter() {
            let t = c / tile_width;
            let dst = cursor[t];
            cursor[t] += 1;
            row_indices[dst] = r as u32;
            col_indices[dst] = c as u32;
            values[dst] = v;
        }
        let tiles: Vec<TcooTile> = (0..n_tiles)
            .map(|t| TcooTile {
                col_start: (t * tile_width) as u32,
                col_end: (((t + 1) * tile_width).min(cols)) as u32,
                entry_start: starts[t],
                entry_count: counts[t],
            })
            .collect();
        // two passes over the data + one write of the restructured copy
        let cost = PreprocessCost {
            bytes_read: 2 * nnz as u64 * (8 + T::BYTES as u64),
            bytes_written: nnz as u64 * (8 + T::BYTES as u64),
            ..PreprocessCost::default()
        };
        let tcoo = TcooMatrix {
            rows: csr.rows(),
            cols: csr.cols(),
            tiles,
            row_indices,
            col_indices,
            values,
        };
        Ok((tcoo, cost))
    }

    /// Candidate tile counts for the exhaustive search, sized so a tile's
    /// `x` slice spans roughly 1/8x to 8x of a `cache_bytes` texture cache.
    pub fn tile_search_space(cols: usize, cache_bytes: usize) -> Vec<usize> {
        let x_bytes = cols * T::BYTES;
        let ideal = x_bytes.div_ceil(cache_bytes.max(1)).max(1);
        let mut v: Vec<usize> = Vec::new();
        let mut t = (ideal / 8).max(1);
        while t <= ideal * 8 && t <= cols.max(1) {
            v.push(t);
            t *= 2;
        }
        if v.is_empty() {
            v.push(1);
        }
        v
    }

    /// The column tiles.
    pub fn tiles(&self) -> &[TcooTile] {
        &self.tiles
    }

    /// Row index per entry (tile-bucketed).
    pub fn row_indices(&self) -> &[u32] {
        &self.row_indices
    }

    /// Column index per entry (tile-bucketed).
    pub fn col_indices(&self) -> &[u32] {
        &self.col_indices
    }

    /// Values (tile-bucketed).
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Sequential reference SpMV.
    pub fn spmv(&self, x: &[T]) -> Vec<T> {
        assert_eq!(x.len(), self.cols, "spmv: x length != cols");
        let mut y = vec![T::ZERO; self.rows];
        for tile in &self.tiles {
            let lo = tile.entry_start;
            let hi = lo + tile.entry_count;
            for k in lo..hi {
                let r = self.row_indices[k] as usize;
                let c = self.col_indices[k] as usize;
                debug_assert!(c >= tile.col_start as usize && c < tile.col_end as usize);
                y[r] += self.values[k] * x[c];
            }
        }
        y
    }
}

impl<T: Scalar> SpFormat for TcooMatrix<T> {
    fn format_name(&self) -> &'static str {
        "TCOO"
    }
    fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }
    fn nnz(&self) -> usize {
        self.values.len()
    }
    fn storage_bytes(&self) -> usize {
        self.values.len() * (8 + T::BYTES) + self.tiles.len() * std::mem::size_of::<TcooTile>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::triplet::TripletMatrix;

    fn scattered(rows: usize) -> CsrMatrix<f64> {
        let mut t = TripletMatrix::new(rows, rows);
        for r in 0..rows {
            for j in 0..5usize {
                let c = (r * 31 + j * 97) % rows;
                let _ = t.push(r, c, (r + j) as f64 + 0.25);
            }
        }
        t.to_csr()
    }

    #[test]
    fn spmv_matches_csr_for_various_tile_counts() {
        let m = scattered(500);
        let x: Vec<f64> = (0..500).map(|i| (i % 17) as f64 + 1.0).collect();
        let y_ref = m.spmv(&x);
        for n_tiles in [1, 2, 7, 32, 500] {
            let (tc, _) = TcooMatrix::from_csr(&m, n_tiles, usize::MAX).unwrap();
            let y = tc.spmv(&x);
            for (a, b) in y.iter().zip(y_ref.iter()) {
                assert!((a - b).abs() < 1e-9, "tiles={n_tiles}");
            }
        }
    }

    #[test]
    fn tiles_partition_all_entries() {
        let m = scattered(300);
        let (tc, _) = TcooMatrix::from_csr(&m, 8, usize::MAX).unwrap();
        let total: usize = tc.tiles().iter().map(|t| t.entry_count).sum();
        assert_eq!(total, m.nnz());
        // entries respect their tile's column range
        for tile in tc.tiles() {
            for k in tile.entry_start..tile.entry_start + tile.entry_count {
                let c = tc.col_indices()[k];
                assert!(c >= tile.col_start && c < tile.col_end);
            }
        }
    }

    #[test]
    fn entries_stay_row_sorted_within_tile() {
        let m = scattered(300);
        let (tc, _) = TcooMatrix::from_csr(&m, 4, usize::MAX).unwrap();
        for tile in tc.tiles() {
            let rows = &tc.row_indices()[tile.entry_start..tile.entry_start + tile.entry_count];
            assert!(rows.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn zero_tiles_is_an_error() {
        let m = scattered(10);
        assert!(TcooMatrix::from_csr(&m, 0, usize::MAX).is_err());
    }

    #[test]
    fn search_space_is_nonempty_and_bounded() {
        let space = TcooMatrix::<f64>::tile_search_space(1 << 20, 48 * 1024);
        assert!(!space.is_empty());
        assert!(space.len() < 32);
        assert!(space.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn memory_budget_enforced() {
        let m = scattered(1000);
        assert!(TcooMatrix::from_csr(&m, 4, 100).is_err());
    }
}
