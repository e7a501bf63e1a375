//! Device-resident ACSR matrix: CSR with per-row slack.
//!
//! ACSR's kernels index rows through `(row_start, row_len)` pairs rather
//! than a packed offsets array, which lets each row keep unused *slack*
//! capacity after its live entries (§VII: "some additional memory is
//! reserved at the end of each CSR row, to be used when non-zeros get
//! added"). A freshly uploaded matrix is therefore already in the layout
//! the incremental update kernel needs — no re-encoding between the
//! static and dynamic paths.

use crate::config::AcsrConfig;
use gpu_sim::{Device, DeviceBuffer};
use sparse_formats::{CsrMatrix, Scalar};

/// Device CSR-with-slack.
pub struct AcsrMatrix<T> {
    rows: usize,
    cols: usize,
    nnz: usize,
    /// First slot of each row in `col_indices` / `values`.
    pub row_start: DeviceBuffer<u32>,
    /// Live entries per row.
    pub row_len: DeviceBuffer<u32>,
    /// Allocated capacity per row (`row_len[r] <= row_cap[r]`).
    pub row_cap: DeviceBuffer<u32>,
    /// Column indices, slack gaps between rows.
    pub col_indices: DeviceBuffer<u32>,
    /// Values, parallel to `col_indices`.
    pub values: DeviceBuffer<T>,
}

impl<T: Scalar> AcsrMatrix<T> {
    /// Upload a host CSR matrix, laying rows out with the slack policy of
    /// `cfg` ([`AcsrConfig::row_capacity`]).
    pub fn from_csr(dev: &Device, m: &CsrMatrix<T>, cfg: &AcsrConfig) -> Self {
        let rows = m.rows();
        let mut row_start = Vec::with_capacity(rows);
        let mut row_len = Vec::with_capacity(rows);
        let mut row_cap = Vec::with_capacity(rows);
        let mut pos = 0usize;
        for r in 0..rows {
            let len = m.row_nnz(r);
            let cap = cfg.row_capacity(len);
            row_start.push(pos as u32);
            row_len.push(len as u32);
            row_cap.push(cap as u32);
            pos += cap;
        }
        let mut col_indices = vec![0u32; pos];
        let mut values = vec![T::ZERO; pos];
        for (r, &s) in row_start.iter().enumerate() {
            let (cols, vals) = m.row(r);
            let s = s as usize;
            col_indices[s..s + cols.len()].copy_from_slice(cols);
            values[s..s + vals.len()].copy_from_slice(vals);
        }
        AcsrMatrix {
            rows,
            cols: m.cols(),
            nnz: m.nnz(),
            row_start: dev.alloc(row_start),
            row_len: dev.alloc(row_len),
            row_cap: dev.alloc(row_cap),
            col_indices: dev.alloc(col_indices),
            values: dev.alloc(values),
        }
    }

    /// Assemble a device matrix from an explicit layout (maintenance
    /// engines that place rows in non-row-order arenas, e.g.
    /// `acsr-stream`'s canonical bin-arena layout). `col_indices` /
    /// `values` must already hold each row's live entries at
    /// `row_start[r] .. row_start[r] + row_len[r]`; slack gaps are never
    /// read by the kernels and may hold garbage. Panics (via `validate`)
    /// if the layout breaks a structural invariant.
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        dev: &Device,
        rows: usize,
        cols: usize,
        row_start: Vec<u32>,
        row_len: Vec<u32>,
        row_cap: Vec<u32>,
        col_indices: Vec<u32>,
        values: Vec<T>,
    ) -> Self {
        let nnz = row_len.iter().map(|&l| l as usize).sum();
        let mat = AcsrMatrix {
            rows,
            cols,
            nnz,
            row_start: dev.alloc(row_start),
            row_len: dev.alloc(row_len),
            row_cap: dev.alloc(row_cap),
            col_indices: dev.alloc(col_indices),
            values: dev.alloc(values),
        };
        mat.validate().expect("explicit ACSR layout must be valid");
        mat
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Live non-zeros (maintained across updates).
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Overwrite the live-entry count. Maintenance engines that mutate
    /// `row_len` directly (e.g. `acsr-stream`) must keep this in sync;
    /// `validate` cross-checks it against the lengths.
    pub fn set_nnz(&mut self, nnz: usize) {
        self.nnz = nnz;
    }

    /// Bytes a full upload stages over PCIe: the live entries and the
    /// three per-row `u32` arrays. Slack slots are reserved on the
    /// device without a host copy, so only [`Self::device_bytes`]
    /// counts them.
    pub fn upload_bytes(&self) -> u64 {
        self.nnz as u64 * (4 + std::mem::size_of::<T>() as u64) + self.rows as u64 * 12
    }

    /// Total device bytes, including slack.
    pub fn device_bytes(&self) -> u64 {
        self.row_start.bytes()
            + self.row_len.bytes()
            + self.row_cap.bytes()
            + self.col_indices.bytes()
            + self.values.bytes()
    }

    /// Current row lengths (host view, for re-binning after updates).
    pub fn row_lengths(&self) -> impl ExactSizeIterator<Item = usize> + '_ {
        self.row_len.as_slice().iter().map(|&l| l as usize)
    }

    /// Extract the live entries back into a packed host CSR (tests and
    /// checkpointing).
    pub fn to_csr(&self) -> CsrMatrix<T> {
        let mut offsets = Vec::with_capacity(self.rows + 1);
        offsets.push(0u32);
        let mut cols = Vec::with_capacity(self.nnz);
        let mut vals = Vec::with_capacity(self.nnz);
        for r in 0..self.rows {
            let s = self.row_start.as_slice()[r] as usize;
            let l = self.row_len.as_slice()[r] as usize;
            cols.extend_from_slice(&self.col_indices.as_slice()[s..s + l]);
            vals.extend_from_slice(&self.values.as_slice()[s..s + l]);
            offsets.push(cols.len() as u32);
        }
        CsrMatrix::from_raw_parts(self.rows, self.cols, offsets, cols, vals)
            .expect("slack CSR rows must stay sorted and in range")
    }

    /// Check internal invariants (tests / debug).
    pub fn validate(&self) -> Result<(), String> {
        let starts = self.row_start.as_slice();
        let lens = self.row_len.as_slice();
        let caps = self.row_cap.as_slice();
        let mut live = 0usize;
        for r in 0..self.rows {
            if lens[r] > caps[r] {
                return Err(format!("row {r}: len {} > cap {}", lens[r], caps[r]));
            }
            let end = starts[r] as usize + caps[r] as usize;
            if end > self.col_indices.len() {
                return Err(format!("row {r}: capacity end {end} out of bounds"));
            }
            let s = starts[r] as usize;
            let l = lens[r] as usize;
            let row_cols = &self.col_indices.as_slice()[s..s + l];
            if !row_cols.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!("row {r}: columns not strictly increasing"));
            }
            if row_cols.iter().any(|&c| c as usize >= self.cols) {
                return Err(format!("row {r}: column out of range"));
            }
            live += l;
        }
        if live != self.nnz {
            return Err(format!("nnz {} != live entries {live}", self.nnz));
        }
        // Capacity spans must be pairwise disjoint. Rows are not required
        // to sit in row-id order (arena layouts reorder them), so sort
        // the spans before the adjacency check.
        let mut spans: Vec<(usize, usize, usize)> = (0..self.rows)
            .filter(|&r| caps[r] > 0)
            .map(|r| (starts[r] as usize, caps[r] as usize, r))
            .collect();
        spans.sort_unstable();
        for w in spans.windows(2) {
            let ((s0, c0, r0), (s1, _, r1)) = (w[0], w[1]);
            if s0 + c0 > s1 {
                return Err(format!("row {r0} overlaps row {r1}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::presets;
    use graphgen::{generate_power_law, PowerLawConfig};

    fn matrix() -> CsrMatrix<f64> {
        generate_power_law(&PowerLawConfig {
            rows: 1000,
            cols: 1000,
            mean_degree: 7.0,
            max_degree: 200,
            pinned_max_rows: 1,
            col_skew: 0.4,
            seed: 77,
            ..Default::default()
        })
    }

    #[test]
    fn round_trip_preserves_matrix() {
        let m = matrix();
        let dev = Device::new(presets::gtx_titan());
        let a = AcsrMatrix::from_csr(&dev, &m, &AcsrConfig::for_device(dev.config()));
        a.validate().unwrap();
        assert_eq!(a.to_csr(), m);
        assert_eq!(a.nnz(), m.nnz());
    }

    #[test]
    fn slack_reserves_capacity() {
        let m = matrix();
        let dev = Device::new(presets::gtx_titan());
        let cfg = AcsrConfig::for_device(dev.config());
        let a = AcsrMatrix::from_csr(&dev, &m, &cfg);
        for r in 0..m.rows() {
            let cap = a.row_cap.as_slice()[r] as usize;
            let len = a.row_len.as_slice()[r] as usize;
            assert!(cap >= len + AcsrConfig::MIN_SLACK);
        }
        // storage strictly larger than packed CSR values+cols
        assert!(a.col_indices.len() > m.nnz());
    }

    #[test]
    fn row_lengths_match_source() {
        let m = matrix();
        let dev = Device::new(presets::gtx_titan());
        let a = AcsrMatrix::from_csr(&dev, &m, &AcsrConfig::for_device(dev.config()));
        for (r, len) in a.row_lengths().enumerate() {
            assert_eq!(len, m.row_nnz(r));
        }
    }
}
