//! Device configuration and the Table II presets.

use serde::{Deserialize, Serialize};

/// Performance-model parameters of one simulated GPU.
///
/// The defaults in [`presets`] are taken from the public specifications
/// of the paper's testbed (Table II) plus standard microarchitectural
/// constants (transaction sizes, launch overheads, latencies) from the
/// CUDA programming guides of that era.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DeviceConfig {
    /// Marketing name ("GTX Titan").
    pub name: String,
    /// Streaming multiprocessor count.
    pub sm_count: usize,
    /// CUDA compute capability `(major, minor)`.
    pub compute_capability: (u32, u32),
    /// Shader clock, GHz.
    pub clock_ghz: f64,
    /// Sustained DRAM bandwidth, GB/s.
    pub mem_bandwidth_gbs: f64,
    /// Device memory, GiB — formats that exceed it get the paper's ∅.
    pub memory_gib: f64,
    /// Warp instructions issued per cycle per SM (scheduler count).
    pub ipc_per_sm: f64,
    /// Peak single-precision throughput, GFLOP/s (cores × 2 × clock).
    /// Only the roofline classifier reads this; it never affects
    /// modeled time.
    pub peak_gflops: f64,
    /// Resident-warp limit per SM (Fermi: 48, Kepler: 64) — the
    /// occupancy denominator.
    pub max_warps_per_sm: usize,
    /// Resident-block limit per SM (Fermi: 8, Kepler: 16).
    pub max_blocks_per_sm: usize,
    /// Global-memory transaction size in bytes (coalescing granularity).
    /// Kepler global loads bypass L1 and fetch 32-byte L2 segments;
    /// Fermi's L1-cached path fetched 128-byte lines — scattered access
    /// is proportionally costlier there.
    pub dram_transaction_bytes: usize,
    /// Texture/read-only cache per SM, bytes.
    pub tex_cache_bytes: usize,
    /// Texture cache line size, bytes.
    pub tex_line_bytes: usize,
    /// Texture cache associativity (ways).
    pub tex_ways: usize,
    /// Global memory latency, cycles.
    pub mem_latency_cycles: u64,
    /// Texture-cache hit latency, cycles.
    pub tex_hit_latency_cycles: u64,
    /// Memory-level parallelism: outstanding loads one warp overlaps.
    pub mlp: f64,
    /// Per-launch overhead, seconds. Modeled as the *pipelined*
    /// back-to-back kernel gap (launches are enqueued asynchronously, so
    /// sequences of kernels pay the enqueue/dispatch gap, not the full
    /// cold host-side launch latency).
    pub kernel_launch_s: f64,
    /// Device-side (dynamic parallelism) child launch overhead, seconds.
    pub child_launch_s: f64,
    /// Concurrent device-side launch units (child launches amortize over
    /// this many parallel launch slots).
    pub child_launch_parallelism: usize,
    /// `cudaLimitDevRuntimePendingLaunchCount` (2048 on Kepler).
    pub pending_launch_limit: usize,
    /// Extra stall per child launch beyond the pending limit, seconds
    /// (the "reserve memory for pending launches" degradation, §III-B).
    pub pending_overflow_penalty_s: f64,
    /// Extra cycles charged per serialized atomic conflict.
    pub atomic_serialize_cycles: u64,
    /// PCIe host→device bandwidth, GB/s.
    pub pcie_gbs: f64,
    /// PCIe device→host bandwidth, GB/s. Readback is asymmetric in
    /// practice (host-side write-combining and smaller read requests),
    /// so D2H sustains slightly less than H2D on these parts.
    pub pcie_d2h_gbs: f64,
    /// PCIe fixed per-copy latency, seconds.
    pub pcie_latency_s: f64,
}

impl DeviceConfig {
    /// Dynamic parallelism requires compute capability ≥ 3.5 (§III-B).
    pub fn has_dynamic_parallelism(&self) -> bool {
        self.compute_capability >= (3, 5)
    }

    /// Peak warp-instruction issue rate, instructions/second.
    pub fn issue_rate(&self) -> f64 {
        self.clock_ghz * 1e9 * self.sm_count as f64 * self.ipc_per_sm
    }

    /// DRAM bandwidth in bytes/second.
    pub fn bandwidth_bytes_s(&self) -> f64 {
        self.mem_bandwidth_gbs * 1e9
    }

    /// Roofline ridge point, flops/byte: arithmetic intensity below this
    /// is bandwidth-bound, above it compute-bound (§II's classifier).
    pub fn ridge_flops_per_byte(&self) -> f64 {
        self.peak_gflops * 1e9 / self.bandwidth_bytes_s()
    }

    /// Device memory in bytes.
    pub fn memory_bytes(&self) -> usize {
        (self.memory_gib * (1u64 << 30) as f64) as usize
    }

    /// Modeled host→device copy time for `bytes`.
    pub fn copy_seconds(&self, bytes: u64) -> f64 {
        self.pcie_latency_s + bytes as f64 / (self.pcie_gbs * 1e9)
    }

    /// Modeled device→host copy time for `bytes` (asymmetric bandwidth).
    pub fn copy_seconds_d2h(&self, bytes: u64) -> f64 {
        self.pcie_latency_s + bytes as f64 / (self.pcie_d2h_gbs * 1e9)
    }
}

/// The paper's Table II devices.
pub mod presets {
    use super::DeviceConfig;

    /// NVIDIA GTX 580 — Fermi GF110, compute capability 2.0.
    /// No dynamic parallelism: ACSR runs binning-only here (§V).
    pub fn gtx_580() -> DeviceConfig {
        DeviceConfig {
            name: "GTX 580".into(),
            sm_count: 16,
            compute_capability: (2, 0),
            clock_ghz: 1.544,
            mem_bandwidth_gbs: 192.4,
            memory_gib: 1.5,
            ipc_per_sm: 2.0,
            // 512 CUDA cores x 2 flops x 1.544 GHz
            peak_gflops: 1581.1,
            max_warps_per_sm: 48,
            max_blocks_per_sm: 8,
            dram_transaction_bytes: 128,
            tex_cache_bytes: 12 * 1024,
            tex_line_bytes: 32,
            tex_ways: 4,
            mem_latency_cycles: 600,
            tex_hit_latency_cycles: 120,
            mlp: 4.0,
            kernel_launch_s: 3e-6,
            child_launch_s: 0.0,
            child_launch_parallelism: 1,
            pending_launch_limit: 0,
            pending_overflow_penalty_s: 0.0,
            atomic_serialize_cycles: 40,
            pcie_gbs: 5.5,
            pcie_d2h_gbs: 5.0,
            pcie_latency_s: 10e-6,
        }
    }

    /// NVIDIA Tesla K10, one of its two GK104 GPUs — compute 3.0.
    /// Has Kepler's read-only cache but no dynamic parallelism.
    pub fn tesla_k10_single() -> DeviceConfig {
        DeviceConfig {
            name: "Tesla K10 (1 GPU)".into(),
            sm_count: 8,
            compute_capability: (3, 0),
            clock_ghz: 0.745,
            mem_bandwidth_gbs: 160.0,
            memory_gib: 4.0,
            ipc_per_sm: 4.0,
            // 1536 CUDA cores x 2 flops x 0.745 GHz
            peak_gflops: 2288.6,
            max_warps_per_sm: 64,
            max_blocks_per_sm: 16,
            dram_transaction_bytes: 32,
            tex_cache_bytes: 48 * 1024,
            tex_line_bytes: 32,
            tex_ways: 8,
            mem_latency_cycles: 650,
            tex_hit_latency_cycles: 110,
            mlp: 6.0,
            kernel_launch_s: 2e-6,
            child_launch_s: 0.0,
            child_launch_parallelism: 1,
            pending_launch_limit: 0,
            pending_overflow_penalty_s: 0.0,
            atomic_serialize_cycles: 30,
            pcie_gbs: 6.0,
            pcie_d2h_gbs: 5.2,
            pcie_latency_s: 10e-6,
        }
    }

    /// NVIDIA GTX Titan — Kepler GK110, compute capability 3.5.
    /// The only Table II device with dynamic parallelism; all DP results
    /// in the paper are from this GPU.
    pub fn gtx_titan() -> DeviceConfig {
        DeviceConfig {
            name: "GTX Titan".into(),
            sm_count: 14,
            compute_capability: (3, 5),
            clock_ghz: 0.837,
            mem_bandwidth_gbs: 288.4,
            memory_gib: 6.0,
            ipc_per_sm: 4.0,
            // 2688 CUDA cores x 2 flops x 0.837 GHz
            peak_gflops: 4499.7,
            max_warps_per_sm: 64,
            max_blocks_per_sm: 16,
            dram_transaction_bytes: 32,
            tex_cache_bytes: 48 * 1024,
            tex_line_bytes: 32,
            tex_ways: 8,
            mem_latency_cycles: 620,
            tex_hit_latency_cycles: 108,
            mlp: 6.0,
            kernel_launch_s: 2e-6,
            child_launch_s: 1e-6,
            child_launch_parallelism: 32,
            pending_launch_limit: 2048,
            pending_overflow_penalty_s: 3e-6,
            atomic_serialize_cycles: 30,
            pcie_gbs: 6.0,
            pcie_d2h_gbs: 5.2,
            pcie_latency_s: 10e-6,
        }
    }

    /// All three presets, in the order the paper reports them.
    pub fn table2() -> Vec<DeviceConfig> {
        vec![gtx_titan(), gtx_580(), tesla_k10_single()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_titan_has_dynamic_parallelism() {
        assert!(presets::gtx_titan().has_dynamic_parallelism());
        assert!(!presets::gtx_580().has_dynamic_parallelism());
        assert!(!presets::tesla_k10_single().has_dynamic_parallelism());
    }

    #[test]
    fn titan_has_highest_bandwidth() {
        let t = presets::gtx_titan();
        assert!(t.mem_bandwidth_gbs > presets::gtx_580().mem_bandwidth_gbs);
        assert!(t.mem_bandwidth_gbs > presets::tesla_k10_single().mem_bandwidth_gbs);
    }

    #[test]
    fn derived_rates_are_positive_and_sane() {
        for cfg in presets::table2() {
            assert!(cfg.issue_rate() > 1e9, "{}", cfg.name);
            assert!(cfg.bandwidth_bytes_s() > 1e11, "{}", cfg.name);
            assert!(cfg.memory_bytes() > 1 << 30, "{}", cfg.name);
            assert!(cfg.copy_seconds(1 << 20) > 0.0);
        }
    }

    #[test]
    fn gtx_580_memory_is_smallest() {
        // drives the ∅ cells: HOL/UK2 don't fit on the 580 (§V)
        let m580 = presets::gtx_580().memory_bytes();
        assert!(m580 < presets::gtx_titan().memory_bytes());
        assert!(m580 < presets::tesla_k10_single().memory_bytes());
    }

    #[test]
    fn ridge_point_is_far_above_spmv_intensity() {
        // SpMV moves ≥ 12 bytes per 2-flop non-zero (value + column index
        // + x element), so its arithmetic intensity sits below 0.2
        // flops/byte. All three presets' ridge points are an order of
        // magnitude higher — the §II bandwidth-bound claim is structural.
        for cfg in presets::table2() {
            let ridge = cfg.ridge_flops_per_byte();
            assert!(ridge > 2.0, "{}: ridge {ridge}", cfg.name);
            assert!(cfg.max_warps_per_sm >= 48, "{}", cfg.name);
            assert!(cfg.max_blocks_per_sm >= 8, "{}", cfg.name);
        }
    }

    #[test]
    fn copy_seconds_has_latency_floor() {
        let cfg = presets::gtx_titan();
        assert!(cfg.copy_seconds(0) >= cfg.pcie_latency_s);
        assert!(cfg.copy_seconds_d2h(0) >= cfg.pcie_latency_s);
    }

    #[test]
    fn readback_is_slower_than_upload() {
        for cfg in presets::table2() {
            assert!(
                cfg.copy_seconds_d2h(1 << 20) > cfg.copy_seconds(1 << 20),
                "{}",
                cfg.name
            );
        }
    }
}
