//! BCCOO — Blocked Compressed COO (Yan et al. \[27\], yaSpMV, PPoPP'14).
//!
//! Non-zeros are gathered into dense `block_h x block_w` tiles; tile *row*
//! indices are difference-compressed into a bit-flag vector (a set bit
//! marks "this tile starts the next row stripe"), and SpMV runs as a
//! segmented scan over tiles. The format's performance depends strongly on
//! its configuration, so the original system ships an **auto-tuner** that
//! searches >300 configurations — the preprocessing cost that dominates
//! the paper's Figure 4 (average 161,000x one SpMV).
//!
//! This module provides the format, its conversion, and the configuration
//! space ([`BccooConfig::search_space`]); the tuning driver that evaluates
//! configurations on a simulated device lives in `spmv-kernels`.

use crate::cost::PreprocessCost;
use crate::csr::CsrMatrix;
use crate::error::SparseError;
use crate::scalar::Scalar;
use crate::SpFormat;

/// One BCCOO kernel/storage configuration (a point in the tuning space).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct BccooConfig {
    /// Tile height in rows.
    pub block_h: usize,
    /// Tile width in columns.
    pub block_w: usize,
    /// GPU workgroup size used by the SpMV kernel.
    pub workgroup: usize,
    /// Tiles processed per thread (thread coarsening).
    pub thread_load: usize,
    /// Read `x` through the texture cache.
    pub texture_x: bool,
}

impl Default for BccooConfig {
    fn default() -> Self {
        BccooConfig {
            block_h: 1,
            block_w: 4,
            workgroup: 256,
            thread_load: 1,
            texture_x: true,
        }
    }
}

impl BccooConfig {
    /// The full auto-tuning search space — 320 configurations, matching
    /// the paper's remark that the space has "more than 300 settings".
    pub fn search_space() -> Vec<BccooConfig> {
        let mut v = Vec::new();
        for &block_h in &[1usize, 2, 4, 8] {
            for &block_w in &[1usize, 2, 4, 8] {
                for &workgroup in &[64usize, 128, 256, 512, 1024] {
                    for &thread_load in &[1usize, 2] {
                        for &texture_x in &[false, true] {
                            v.push(BccooConfig {
                                block_h,
                                block_w,
                                workgroup,
                                thread_load,
                                texture_x,
                            });
                        }
                    }
                }
            }
        }
        v
    }
}

/// BCCOO matrix: dense tiles + bit-flag compressed tile rows.
#[derive(Clone, Debug, PartialEq)]
pub struct BccooMatrix<T> {
    rows: usize,
    cols: usize,
    nnz: usize,
    config: BccooConfig,
    /// Tile base row (multiple of `block_h`) per tile.
    tile_rows: Vec<u32>,
    /// Tile base column (multiple of `block_w`) per tile.
    tile_cols: Vec<u32>,
    /// Bit flags, one per tile: bit set ⇔ this tile begins a new row
    /// stripe (difference compression of `tile_rows`; kept alongside the
    /// explicit array so both the compressed walk and random access work).
    row_flags: Vec<u64>,
    /// Dense tile payloads, `block_h * block_w` values each, row-major
    /// within the tile.
    tile_values: Vec<T>,
}

impl<T: Scalar> BccooMatrix<T> {
    /// Convert from CSR under `config`.
    pub fn from_csr(
        csr: &CsrMatrix<T>,
        config: BccooConfig,
        max_bytes: usize,
    ) -> Result<(Self, PreprocessCost), SparseError> {
        let (bh, bw) = (config.block_h, config.block_w);
        assert!(bh > 0 && bw > 0, "BCCOO tiles must be non-empty");
        let mut cost = PreprocessCost::default();
        // Pass 1: enumerate (tile_row, tile_col, in-tile pos, value).
        let mut keyed: Vec<(u64, u32, T)> = Vec::with_capacity(csr.nnz());
        for (r, c, v) in csr.iter() {
            let tr = (r / bh) as u64;
            let tc = (c / bw) as u64;
            let pos = ((r % bh) * bw + (c % bw)) as u32;
            keyed.push(((tr << 32) | tc, pos, v));
        }
        keyed.sort_unstable_by_key(|e| e.0);
        cost.charge_sort(keyed.len() as u64, 16);

        let tile_len = bh * bw;
        let mut tile_rows: Vec<u32> = Vec::new();
        let mut tile_cols: Vec<u32> = Vec::new();
        let mut tile_values: Vec<T> = Vec::new();
        let mut last_key = u64::MAX;
        for (key, pos, v) in keyed {
            if key != last_key {
                tile_rows.push(((key >> 32) as u32) * bh as u32);
                tile_cols.push((key as u32) * bw as u32);
                tile_values.extend(std::iter::repeat_n(T::ZERO, tile_len));
                last_key = key;
            }
            let base = tile_values.len() - tile_len;
            tile_values[base + pos as usize] += v;
        }
        let n_tiles = tile_rows.len();
        let mut row_flags = vec![0u64; n_tiles.div_ceil(64)];
        for i in 0..n_tiles {
            let new_stripe = i == 0 || tile_rows[i] != tile_rows[i - 1];
            if new_stripe {
                row_flags[i / 64] |= 1u64 << (i % 64);
            }
        }
        cost.bytes_read += csr.nnz() as u64 * (8 + T::BYTES as u64);
        cost.bytes_written += n_tiles as u64 * 8
            + (tile_values.len() as u64) * T::BYTES as u64
            + row_flags.len() as u64 * 8;

        let bytes = tile_rows.len() * 8 + tile_values.len() * T::BYTES + row_flags.len() * 8;
        if bytes > max_bytes {
            return Err(SparseError::CapacityExceeded {
                format: "BCCOO",
                detail: format!("tiled storage {bytes} B exceeds budget {max_bytes} B"),
            });
        }
        Ok((
            BccooMatrix {
                rows: csr.rows(),
                cols: csr.cols(),
                nnz: csr.nnz(),
                config,
                tile_rows,
                tile_cols,
                row_flags,
                tile_values,
            },
            cost,
        ))
    }

    /// The configuration this instance was built with.
    pub fn config(&self) -> BccooConfig {
        self.config
    }

    /// Number of stored tiles.
    pub fn n_tiles(&self) -> usize {
        self.tile_rows.len()
    }

    /// Tile base rows.
    pub fn tile_rows(&self) -> &[u32] {
        &self.tile_rows
    }

    /// Tile base columns.
    pub fn tile_cols(&self) -> &[u32] {
        &self.tile_cols
    }

    /// Tile payloads (`n_tiles * block_h * block_w` values).
    pub fn tile_values(&self) -> &[T] {
        &self.tile_values
    }

    /// Bit flags marking row-stripe starts.
    pub fn row_flags(&self) -> &[u64] {
        &self.row_flags
    }

    /// `true` when tile `i` starts a new row stripe.
    #[inline]
    pub fn starts_stripe(&self, i: usize) -> bool {
        self.row_flags[i / 64] >> (i % 64) & 1 == 1
    }

    /// Fill ratio of tile payload slots (1.0 = perfectly dense tiles).
    pub fn fill_ratio(&self) -> f64 {
        if self.tile_values.is_empty() {
            return 1.0;
        }
        self.nnz as f64 / self.tile_values.len() as f64
    }

    /// Sequential reference SpMV.
    pub fn spmv(&self, x: &[T]) -> Vec<T> {
        assert_eq!(x.len(), self.cols, "spmv: x length != cols");
        let (bh, bw) = (self.config.block_h, self.config.block_w);
        let mut y = vec![T::ZERO; self.rows];
        for t in 0..self.n_tiles() {
            let base_r = self.tile_rows[t] as usize;
            let base_c = self.tile_cols[t] as usize;
            let vals = &self.tile_values[t * bh * bw..(t + 1) * bh * bw];
            for i in 0..bh {
                let r = base_r + i;
                if r >= self.rows {
                    break;
                }
                let mut sum = T::ZERO;
                for j in 0..bw {
                    let c = base_c + j;
                    if c < self.cols {
                        sum += vals[i * bw + j] * x[c];
                    }
                }
                y[r] += sum;
            }
        }
        y
    }
}

impl<T: Scalar> SpFormat for BccooMatrix<T> {
    fn format_name(&self) -> &'static str {
        "BCCOO"
    }
    fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }
    fn nnz(&self) -> usize {
        self.nnz
    }
    fn storage_bytes(&self) -> usize {
        self.tile_rows.len() * 8 + self.row_flags.len() * 8 + self.tile_values.len() * T::BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::triplet::TripletMatrix;

    fn banded(rows: usize) -> CsrMatrix<f64> {
        let mut t = TripletMatrix::new(rows, rows);
        for r in 0..rows {
            for d in 0..4usize {
                let c = (r + d * 3) % rows;
                t.push(r, c, (r * 4 + d) as f64 * 0.5 + 1.0).unwrap();
            }
        }
        t.to_csr()
    }

    #[test]
    fn search_space_exceeds_three_hundred() {
        let space = BccooConfig::search_space();
        assert!(space.len() > 300, "only {} configs", space.len());
        // all distinct
        let set: std::collections::HashSet<_> = space.iter().collect();
        assert_eq!(set.len(), space.len());
    }

    #[test]
    fn spmv_matches_csr_for_various_tiles() {
        let m = banded(257);
        let x: Vec<f64> = (0..257).map(|i| 1.0 + (i % 11) as f64 * 0.125).collect();
        let y_ref = m.spmv(&x);
        for cfg in [
            BccooConfig::default(),
            BccooConfig {
                block_h: 2,
                block_w: 2,
                ..Default::default()
            },
            BccooConfig {
                block_h: 4,
                block_w: 8,
                ..Default::default()
            },
        ] {
            let (b, _) = BccooMatrix::from_csr(&m, cfg, usize::MAX).unwrap();
            let y = b.spmv(&x);
            for (a, bb) in y.iter().zip(y_ref.iter()) {
                assert!((a - bb).abs() < 1e-9, "cfg {cfg:?}");
            }
        }
    }

    #[test]
    fn first_tile_always_starts_a_stripe() {
        let m = banded(64);
        let (b, _) = BccooMatrix::from_csr(&m, BccooConfig::default(), usize::MAX).unwrap();
        assert!(b.starts_stripe(0));
    }

    #[test]
    fn stripe_flags_match_tile_rows() {
        let m = banded(128);
        let cfg = BccooConfig {
            block_h: 2,
            block_w: 4,
            ..Default::default()
        };
        let (b, _) = BccooMatrix::from_csr(&m, cfg, usize::MAX).unwrap();
        for i in 1..b.n_tiles() {
            let expect = b.tile_rows()[i] != b.tile_rows()[i - 1];
            assert_eq!(b.starts_stripe(i), expect, "tile {i}");
        }
    }

    #[test]
    fn fill_ratio_is_one_for_1x1_tiles() {
        let m = banded(64);
        let cfg = BccooConfig {
            block_h: 1,
            block_w: 1,
            ..Default::default()
        };
        let (b, _) = BccooMatrix::from_csr(&m, cfg, usize::MAX).unwrap();
        assert!((b.fill_ratio() - 1.0).abs() < 1e-12);
        assert_eq!(b.n_tiles(), m.nnz());
    }

    #[test]
    fn conversion_records_sort_cost() {
        let m = banded(512);
        let (_, cost) = BccooMatrix::from_csr(&m, BccooConfig::default(), usize::MAX).unwrap();
        assert_eq!(cost.sorted_elements, m.nnz() as u64);
    }

    #[test]
    fn edge_tiles_clip_at_matrix_boundary() {
        // rows=5 not divisible by block_h=4: last stripe clips
        let mut t = TripletMatrix::<f64>::new(5, 5);
        for i in 0..5 {
            t.push(i, i, 1.0).unwrap();
        }
        let m = t.to_csr();
        let cfg = BccooConfig {
            block_h: 4,
            block_w: 4,
            ..Default::default()
        };
        let (b, _) = BccooMatrix::from_csr(&m, cfg, usize::MAX).unwrap();
        let y = b.spmv(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(y, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
    }
}
