//! # spmv-kernels — SpMV kernels for every baseline format
//!
//! Implements, on the [`gpu_sim`] SIMT substrate, the complete set of
//! SpMV algorithms the paper compares against (§II, §V):
//!
//! | Kernel | Module | Mirrors |
//! |---|---|---|
//! | CSR-scalar (thread/row) | [`csr_scalar`] | Bell & Garland scalar kernel |
//! | CSR-vector (group/row, segmented) | [`csr_vector`] | cuSPARSE/CUSP `csrmv` |
//! | COO segmented reduction | [`coo_kernel`] | CUSP `coomv` |
//! | ELL (thread/row, column-major) | [`ell_kernel`] | CUSP `ellmv` |
//! | HYB = ELL + COO | [`hyb_kernel`] | cuSPARSE/CUSP `hybmv` |
//! | BRC (warp/row-block) | [`brc_kernel`] | Ashari et al. \[1\] |
//! | BCCOO (tiles + bit flags) | [`bccoo_kernel`] | Yan et al. \[27\] |
//! | TCOO (column tiles) | [`tcoo_kernel`] | Yang et al. \[28\] |
//!
//! plus:
//! * [`device`] — device-resident mirrors of each host format with
//!   upload-size accounting (PCIe modeling for the dynamic-graph study);
//! * [`epilogue`] — the affine (PageRank / RWR) epilogue of a batched
//!   SpMM wave: the `rwr_update` kernel and the two-launch default of
//!   [`GpuSpmv::spmm_affine`];
//! * [`tuning`] — the BCCOO configuration auto-tuner (>300 settings) and
//!   the TCOO exhaustive tile search, whose *cost is the point* of the
//!   paper's Figure 4.
//!
//! The ACSR kernels themselves (the paper's contribution) live in the
//! `acsr` crate; everything here is baseline machinery.

// Warp-lane loops (`for lane in 0..WARP`) index several parallel 32-wide
// arrays in lockstep; iterator rewrites would obscure the SIMT lane
// structure the kernels are written in.
#![allow(clippy::needless_range_loop)]

pub mod bccoo_kernel;
pub mod brc_kernel;
pub mod coo_kernel;
pub mod csr_scalar;
pub mod csr_vector;
pub mod device;
pub mod ell_kernel;
pub mod epilogue;
pub mod hyb_kernel;
pub mod tcoo_kernel;
pub mod tuning;

pub use device::{DevBccoo, DevBrc, DevCoo, DevCsr, DevEll, DevHyb, DevTcoo};
pub use epilogue::{Affine, AffineWave, Partials, Restart};

use gpu_sim::{Device, DeviceBuffer, RunReport};
use sparse_formats::Scalar;

/// A device-resident matrix that can run `y = A * x` on a simulated GPU.
///
/// Contract: `spmv` fully overwrites `y` (accumulation-based kernels zero
/// it first, charged as a memset launch, exactly as cuSPARSE does).
pub trait GpuSpmv<T: Scalar> {
    /// Kernel family name for reports ("CSR-vector", "HYB", ...).
    fn name(&self) -> &'static str;
    /// Run one SpMV; returns the modeled launch report.
    fn spmv(&self, dev: &Device, x: &DeviceBuffer<T>, y: &DeviceBuffer<T>) -> RunReport;
    /// Rows of the operator.
    fn rows(&self) -> usize;
    /// Columns of the operator.
    fn cols(&self) -> usize;
    /// Stored non-zeros.
    fn nnz(&self) -> usize;
    /// Device bytes occupied (for memory-capacity ∅ checks and upload
    /// modeling).
    fn device_bytes(&self) -> u64;

    /// Multi-vector SpMV (SpMM with a tall-skinny dense side): `ys[v] =
    /// A * xs[v]` for a batch of k vectors over one matrix; returns the
    /// merged modeled report (the default report at k = 0).
    ///
    /// Contract: per-vector results are **bit-identical** to k
    /// independent [`GpuSpmv::spmv`] calls — batching is a pure
    /// throughput optimization (row metadata, columns and values are read
    /// once per wave instead of once per vector, and the launch floor is
    /// paid once), never a numeric one. The default runs `spmv` k times
    /// in sequence, which is what every baseline format uses; engines
    /// with a fused path (ACSR) override it, and wrappers around them
    /// forward it.
    fn spmv_multi(
        &self,
        dev: &Device,
        xs: &[&DeviceBuffer<T>],
        ys: &[&DeviceBuffer<T>],
    ) -> RunReport {
        assert_eq!(xs.len(), ys.len(), "batch size mismatch");
        let mut report = RunReport::default();
        for (x, y) in xs.iter().zip(ys) {
            report = report.then(&self.spmv(dev, x, y));
        }
        report
    }

    /// One batched iteration with an affine epilogue: for each query
    /// `v`, allocate `outs[v]` and set `outs[v][row] =
    /// affine.apply(v, row, (A·xs[v])[row])` — `c_v·y` plus RWR's restart
    /// at the seed, or PageRank's teleport at every row
    /// ([`Affine::apply`]). With `partials`, the wave also writes f64
    /// convergence partials of `(outs[v] − xs[v])²` and reports how many
    /// it wrote per query ([`Partials::per_query`]). At k = 0 it launches
    /// nothing.
    ///
    /// The default is two launches ([`epilogue::spmm_then_update`]):
    /// [`GpuSpmv::spmv_multi`] into temporaries, then the `rwr_update`
    /// kernel with one partial per 32-row block. An engine whose kernels
    /// finalize each row may instead apply the epilogue inside its SpMM
    /// launch group (ACSR does, in every mode); the iterates must stay
    /// bit-identical to the default's, while the partials may be laid
    /// out per block of that launch group. Wrappers forward it.
    fn spmm_affine(
        &self,
        dev: &Device,
        xs: &[&DeviceBuffer<T>],
        affine: &Affine<'_, T>,
        partials: bool,
    ) -> AffineWave<T> {
        epilogue::spmm_then_update(self, dev, xs, affine, partials)
    }
}

/// Launch a memset-style kernel writing `value` over all of `y`.
/// Bandwidth-bound, like `cudaMemset`.
pub(crate) fn fill_kernel<T: Scalar>(dev: &Device, y: &DeviceBuffer<T>, value: T) -> RunReport {
    use gpu_sim::{lane_mask, WARP};
    let n = y.len();
    let block = 256;
    let grid = n.div_ceil(block).max(1);
    dev.launch("fill", grid, block, &|blk| {
        blk.for_each_warp(&mut |warp| {
            let base = warp.first_thread();
            if base >= n {
                return;
            }
            let mask = lane_mask(n - base);
            let vals = [value; WARP];
            warp.write_coalesced(y, base, &vals, mask);
        });
    })
}

#[cfg(test)]
pub(crate) mod testutil {
    use graphgen::{generate_power_law, PowerLawConfig};
    use sparse_formats::{CsrMatrix, Scalar};

    /// Small skewed matrix for kernel correctness tests.
    pub fn test_matrix(rows: usize, seed: u64) -> CsrMatrix<f64> {
        generate_power_law(&PowerLawConfig {
            rows,
            cols: rows,
            mean_degree: 9.0,
            max_degree: (rows / 3).max(8),
            pinned_max_rows: 2,
            col_skew: 0.5,
            seed,
            ..Default::default()
        })
    }

    /// Dense-ish x vector with varied entries.
    pub fn test_x<T: Scalar>(cols: usize) -> Vec<T> {
        (0..cols)
            .map(|i| T::from_f64(0.25 + (i % 29) as f64 * 0.125))
            .collect()
    }

    /// Assert two vectors agree to a relative L2 tolerance.
    pub fn assert_close<T: Scalar>(got: &[T], want: &[T], tol: f64, what: &str) {
        let d = sparse_formats::scalar::rel_l2_distance(got, want);
        assert!(d < tol, "{what}: rel L2 distance {d}");
    }
}
