//! ACSR tuning knobs (paper §III).

use gpu_sim::DeviceConfig;

/// How the long-tail bins (group G1) are executed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AcsrMode {
    /// Bin-specific kernels for G2, dynamic-parallelism parent/child
    /// grids for G1 (Algorithm 1 with `RowMax > 0`). Requires compute
    /// capability ≥ 3.5 — the GTX Titan path.
    DynamicParallelism,
    /// Binning only: every bin goes through a bin-specific kernel, with
    /// thread groups capped at one warp (`RowMax = 0`) — the GTX 580 /
    /// Tesla K10 path of §V.
    BinningOnly,
    /// §VIII's "extending the number of bins in the long tail": tail bins
    /// get statically sized multi-warp kernels instead of dynamic
    /// launches — the multi-GPU configuration on the K10.
    StaticLongTail,
}

/// ACSR configuration (Algorithm 1's parameters).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AcsrConfig {
    /// `BinMax`: the largest bin index served by a bin-specific kernel.
    /// Rows in bins above this (nnz > 2^bin_max) form group G1.
    pub bin_max: usize,
    /// `RowMax`: the largest number of rows processed by row-specific
    /// (child) grids — bounded by the device's pending-launch limit.
    /// G1 rows beyond this fall back to the widest bin kernel.
    pub row_max: usize,
    /// `ThreadLoad`: non-zeros per child-grid thread (thread coarsening,
    /// Algorithm 3).
    pub thread_load: usize,
    /// Long-tail execution mode.
    pub mode: AcsrMode,
    /// Read `x` through the texture cache (paper default: yes).
    pub texture_x: bool,
}

impl AcsrConfig {
    /// Minimum absolute slack slots per row.
    pub const MIN_SLACK: usize = 8;

    /// Paper defaults for a device: dynamic parallelism where supported
    /// (`RowMax` = pending-launch limit = 2048, §III-B), binning-only
    /// elsewhere.
    pub fn for_device(cfg: &DeviceConfig) -> AcsrConfig {
        if cfg.has_dynamic_parallelism() {
            AcsrConfig {
                bin_max: 10, // bin kernels up to 1024-nnz rows; DP beyond
                row_max: cfg.pending_launch_limit,
                thread_load: 4,
                mode: AcsrMode::DynamicParallelism,
                texture_x: true,
            }
        } else {
            AcsrConfig {
                bin_max: usize::MAX, // every bin is a G2 bin
                row_max: 0,
                thread_load: 4,
                mode: AcsrMode::BinningOnly,
                texture_x: true,
            }
        }
    }

    /// §VIII configuration: static long-tail kernels (e.g. for the K10).
    pub fn static_long_tail() -> AcsrConfig {
        AcsrConfig {
            bin_max: 10,
            row_max: usize::MAX,
            thread_load: 4,
            mode: AcsrMode::StaticLongTail,
            texture_x: true,
        }
    }

    /// Effective `BinMax` after mode adjustments (binning-only treats all
    /// bins as G2, per Algorithm 1's `RowMax = 0` note).
    pub fn effective_bin_max(&self) -> usize {
        match self.mode {
            AcsrMode::BinningOnly => usize::MAX,
            _ => self.bin_max,
        }
    }

    /// Per-row capacity for a row of `len` non-zeros: the row, as much
    /// slack again, and [`AcsrConfig::MIN_SLACK`] slots more (§VII "some
    /// additional memory is reserved at the end of each CSR row"). The
    /// paper's update protocol replaces deletions with insertions while
    /// scanning a row's columns, so it can at most double the row.
    pub fn row_capacity(&self, len: usize) -> usize {
        2 * len + Self::MIN_SLACK
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::presets;

    #[test]
    fn titan_gets_dynamic_parallelism() {
        let c = AcsrConfig::for_device(&presets::gtx_titan());
        assert_eq!(c.mode, AcsrMode::DynamicParallelism);
        assert_eq!(c.row_max, 2048);
    }

    #[test]
    fn fermi_gets_binning_only() {
        let c = AcsrConfig::for_device(&presets::gtx_580());
        assert_eq!(c.mode, AcsrMode::BinningOnly);
        assert_eq!(c.row_max, 0);
        assert_eq!(c.effective_bin_max(), usize::MAX);
    }

    #[test]
    fn k10_gets_binning_only_too() {
        let c = AcsrConfig::for_device(&presets::tesla_k10_single());
        assert_eq!(c.mode, AcsrMode::BinningOnly);
    }

    #[test]
    fn row_capacity_includes_slack() {
        let c = AcsrConfig::for_device(&presets::gtx_titan());
        assert!(c.row_capacity(0) >= AcsrConfig::MIN_SLACK);
        assert!(c.row_capacity(100) >= 200 + AcsrConfig::MIN_SLACK);
    }
}
