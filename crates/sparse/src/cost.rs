//! Preprocessing cost accounting.
//!
//! The paper's headline argument (Fig. 4, Tables III/IV) is about the
//! *preprocessing* price of alternative formats relative to one SpMV. To
//! compare those costs consistently with the simulator's modeled SpMV
//! times, every conversion records the work it performed in hardware-
//! independent units; [`HostModel`] converts those units into modeled host
//! seconds.

use serde::{Deserialize, Serialize};

/// Work performed by a format conversion / preprocessing step.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct PreprocessCost {
    /// Bytes read from host memory while scanning source structures.
    pub bytes_read: u64,
    /// Bytes written building the target structure (incl. padding).
    pub bytes_written: u64,
    /// Elements that passed through a comparison sort (each charged
    /// `log2(n)` comparisons by the model).
    pub sorted_elements: u64,
    /// Elements of the largest single sort (for the `log n` factor).
    pub largest_sort: u64,
    /// Number of auto-tuning trials executed (BCCOO configuration search,
    /// TCOO tile search). The *device* time those trials consumed is
    /// tracked separately by the tuner as modeled seconds.
    pub autotune_trials: u32,
    /// Modeled device seconds consumed by auto-tuning trial SpMVs.
    pub autotune_device_seconds: f64,
}

impl PreprocessCost {
    /// Accumulate another step's cost into this one.
    pub fn merge(&mut self, other: &PreprocessCost) {
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
        self.sorted_elements += other.sorted_elements;
        self.largest_sort = self.largest_sort.max(other.largest_sort);
        self.autotune_trials += other.autotune_trials;
        self.autotune_device_seconds += other.autotune_device_seconds;
    }

    /// Record a comparison sort over `n` elements of `elem_bytes` each
    /// (reads + writes for the sort's data movement are charged too).
    pub fn charge_sort(&mut self, n: u64, elem_bytes: u64) {
        self.sorted_elements += n;
        self.largest_sort = self.largest_sort.max(n);
        self.bytes_read += n * elem_bytes;
        self.bytes_written += n * elem_bytes;
    }

    /// This cost projected to a `scale`-times-larger matrix: streamed
    /// bytes, sorted elements and tuning-trial device time grow
    /// linearly (the `log n` sort factor grows via `largest_sort`);
    /// the trial *count* stays fixed. Used by the
    /// bench suite and the adaptive selector to reason about full-size
    /// matrices from downscaled analogs.
    pub fn scaled(&self, scale: u64) -> PreprocessCost {
        PreprocessCost {
            bytes_read: self.bytes_read * scale,
            bytes_written: self.bytes_written * scale,
            sorted_elements: self.sorted_elements * scale,
            largest_sort: self.largest_sort * scale,
            autotune_trials: self.autotune_trials,
            autotune_device_seconds: self.autotune_device_seconds * scale as f64,
        }
    }

    /// Modeled host-side seconds under `host`.
    pub fn modeled_host_seconds(&self, host: &HostModel) -> f64 {
        let stream = (self.bytes_read + self.bytes_written) as f64 / host.mem_bandwidth_bytes_s;
        let cmp = if self.sorted_elements > 0 {
            let logn = (self.largest_sort.max(2) as f64).log2();
            self.sorted_elements as f64 * logn / host.sort_comparisons_per_s
        } else {
            0.0
        };
        stream + cmp + self.autotune_device_seconds
    }
}

/// First-order host (CPU + memory) performance model used to turn
/// [`PreprocessCost`] work units into seconds.
///
/// Defaults approximate the Intel Core i7 hosts of the paper's testbed
/// (Table II): ~20 GB/s streaming bandwidth and ~100M sort comparisons/s.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct HostModel {
    /// Sustained host memory streaming bandwidth, bytes/second.
    pub mem_bandwidth_bytes_s: f64,
    /// Comparison-sort throughput, comparisons/second.
    pub sort_comparisons_per_s: f64,
}

impl Default for HostModel {
    fn default() -> Self {
        HostModel {
            mem_bandwidth_bytes_s: 20e9,
            sort_comparisons_per_s: 100e6,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates_all_fields() {
        let mut a = PreprocessCost {
            bytes_read: 10,
            bytes_written: 20,
            sorted_elements: 5,
            largest_sort: 5,
            autotune_trials: 1,
            autotune_device_seconds: 0.5,
        };
        let b = PreprocessCost {
            bytes_read: 1,
            bytes_written: 2,
            sorted_elements: 100,
            largest_sort: 100,
            autotune_trials: 2,
            autotune_device_seconds: 0.25,
        };
        a.merge(&b);
        assert_eq!(a.bytes_read, 11);
        assert_eq!(a.bytes_written, 22);
        assert_eq!(a.sorted_elements, 105);
        assert_eq!(a.largest_sort, 100);
        assert_eq!(a.autotune_trials, 3);
        assert_eq!(a.autotune_device_seconds, 0.75);
    }

    #[test]
    fn modeled_time_grows_with_work() {
        let host = HostModel::default();
        let small = PreprocessCost {
            bytes_read: 1 << 20,
            ..Default::default()
        };
        let mut big = small;
        big.charge_sort(1 << 20, 8);
        assert!(big.modeled_host_seconds(&host) > small.modeled_host_seconds(&host));
    }

    #[test]
    fn zero_cost_is_zero_seconds() {
        let host = HostModel::default();
        assert_eq!(PreprocessCost::default().modeled_host_seconds(&host), 0.0);
    }
}
