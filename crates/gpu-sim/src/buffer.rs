//! Device buffers.
//!
//! A [`DeviceBuffer`] is host-resident data stamped with a unique,
//! page-aligned device *base address*, so distinct buffers never share a
//! DRAM segment or a texture line. The warp memory ops count segments on
//! element indices (see [`crate::warp`]); the base only names a buffer's
//! texture lines in the per-SM cache.
//!
//! ## Shared mutability and the kernel data contract
//!
//! Elements are stored in [`UnsafeCell`]s so kernels — which since the
//! sharded engine run as `Fn + Sync` closures, possibly on several host
//! threads at once — can write through `&DeviceBuffer<T>`. This mirrors
//! CUDA global memory exactly: every thread of a grid sees one address
//! space, and the hardware gives no protection against racing writes.
//!
//! The safety contract is CUDA's, too: **two blocks of one launch must
//! not touch the same element unless every such access goes through
//! [`crate::WarpCtx::atomic_rmw`]** (which serializes under a global
//! lock). Plain `gather`/`scatter` races on one element are undefined
//! behaviour on real hardware and are equally out of contract here; the
//! engine's shard-per-SM execution never introduces such a race on its
//! own — only a kernel whose blocks overlap non-atomically can.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Element types storable in device buffers. An element's size must be a
/// power of two up to 32 bytes, so it never straddles a coalescing
/// granule (at least 32 bytes, checked by [`crate::Device::new`]); any
/// other size fails to compile where the buffer is built:
///
/// ```compile_fail
/// let _ = gpu_sim::DeviceBuffer::new(vec![[0u8; 3]]);
/// ```
pub trait DevCopy: Copy + Default + Send + Sync + 'static {
    /// Element size in device memory.
    const SIZE: usize = {
        let size = std::mem::size_of::<Self>();
        assert!(
            size.is_power_of_two() && size <= 32,
            "device element size must be a power of two up to 32 bytes"
        );
        size
    };
}
impl<T: Copy + Default + Send + Sync + 'static> DevCopy for T {}

/// Allocation granularity of the simulated device: every buffer base is
/// a multiple of it, and so of every coalescing granule.
pub(crate) const PAGE_BYTES: u64 = 4096;

/// Global allocator for simulated device addresses. Buffers are spaced a
/// page apart so distinct buffers never share a DRAM transaction segment.
static NEXT_BASE: AtomicU64 = AtomicU64::new(1 << 20);

fn alloc_base(bytes: u64) -> u64 {
    let aligned = bytes.next_multiple_of(PAGE_BYTES);
    NEXT_BASE.fetch_add(aligned + PAGE_BYTES, Ordering::Relaxed)
}

/// A typed simulated-device allocation.
pub struct DeviceBuffer<T> {
    base: u64,
    data: Box<[UnsafeCell<T>]>,
}

// SAFETY: `DeviceBuffer` hands out copies of `T` (never references into
// the cells), all element writes go through `get`/`set` under the kernel
// data contract above, and `T: DevCopy` implies `T: Send + Sync`.
unsafe impl<T: DevCopy> Sync for DeviceBuffer<T> {}

impl<T: DevCopy> DeviceBuffer<T> {
    /// Wrap host data as a device allocation (no transfer time charged —
    /// transfers are modeled explicitly by [`crate::DeviceConfig::copy_seconds`]).
    pub fn new(data: Vec<T>) -> Self {
        let base = alloc_base((data.len() * T::SIZE) as u64);
        DeviceBuffer {
            base,
            data: data.into_iter().map(UnsafeCell::new).collect(),
        }
    }

    /// Zero-filled buffer of `len` elements.
    pub fn zeroed(len: usize) -> Self {
        Self::new(vec![T::default(); len])
    }

    /// Simulated device base address.
    pub fn base_addr(&self) -> u64 {
        self.base
    }

    /// Element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Size of the allocation in bytes.
    pub fn bytes(&self) -> u64 {
        (self.data.len() * T::SIZE) as u64
    }

    /// Read-only host view. Callers must not hold this across a launch
    /// that writes the buffer (the usual host/device synchronization
    /// rule; the borrow checker enforces it except through `&self`
    /// aliasing inside a kernel, which the kernel data contract forbids).
    pub fn as_slice(&self) -> &[T] {
        // SAFETY: `UnsafeCell<T>` has the same layout as `T`, and under
        // the kernel data contract no writer is concurrent with this view.
        unsafe { std::slice::from_raw_parts(self.data.as_ptr() as *const T, self.data.len()) }
    }

    /// Consume the buffer, returning the host data.
    pub fn into_vec(self) -> Vec<T> {
        self.data
            .into_vec()
            .into_iter()
            .map(UnsafeCell::into_inner)
            .collect()
    }

    #[inline]
    pub(crate) fn get(&self, idx: usize) -> T {
        // SAFETY: elements are only written under the kernel data
        // contract (disjoint blocks, atomics serialized), so no write is
        // concurrent with this read.
        unsafe { *self.data[idx].get() }
    }

    /// Read without a bounds check.
    ///
    /// # Safety
    /// The caller must have established `idx < self.len()` (the warp
    /// gather paths check the maximum of a sorted index run once and
    /// then read every smaller index unchecked).
    #[inline]
    pub(crate) unsafe fn get_unchecked(&self, idx: usize) -> T {
        debug_assert!(idx < self.data.len());
        // SAFETY: `idx` is in bounds per the caller's contract; aliasing
        // as for `get`.
        unsafe { *self.data.get_unchecked(idx).get() }
    }

    #[inline]
    pub(crate) fn set(&self, idx: usize, v: T) {
        // SAFETY: as for `get` — the kernel data contract guarantees no
        // other shard touches this element concurrently.
        unsafe { *self.data[idx].get() = v }
    }

    /// Write without a bounds check.
    ///
    /// # Safety
    /// The caller must have established `idx < self.len()` (the warp
    /// scatter path checks the maximum of the index run once).
    #[inline]
    pub(crate) unsafe fn set_unchecked(&self, idx: usize, v: T) {
        debug_assert!(idx < self.data.len());
        // SAFETY: `idx` is in bounds per the caller's contract; aliasing
        // as for `set`.
        unsafe { *self.data.get_unchecked(idx).get() = v }
    }
}

impl<T: DevCopy + std::fmt::Debug> std::fmt::Debug for DeviceBuffer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeviceBuffer")
            .field("base", &self.base)
            .field("data", &self.as_slice())
            .finish()
    }
}

impl<T: DevCopy> Clone for DeviceBuffer<T> {
    /// Cloning allocates a fresh device address (it is a new allocation).
    fn clone(&self) -> Self {
        Self::new(self.as_slice().to_vec())
    }
}

impl<T: DevCopy> From<Vec<T>> for DeviceBuffer<T> {
    fn from(v: Vec<T>) -> Self {
        Self::new(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_get_disjoint_address_ranges() {
        let a = DeviceBuffer::new(vec![0u64; 100]);
        let b = DeviceBuffer::new(vec![0u64; 100]);
        let a_range = a.base_addr()..a.base_addr() + a.bytes();
        assert!(!a_range.contains(&b.base_addr()));
        assert!(!a_range.contains(&(b.base_addr() + b.bytes() - 1)));
    }

    #[test]
    fn bases_are_page_aligned_and_bytes_scale_with_element_size() {
        let b = DeviceBuffer::new(vec![0f64; 10]);
        assert_eq!(b.bytes(), 80);
        let c = DeviceBuffer::new(vec![0u32; 10]);
        assert_eq!(c.bytes(), 40);
        for base in [b.base_addr(), c.base_addr()] {
            assert_eq!(base % PAGE_BYTES, 0);
        }
    }

    #[test]
    fn zeroed_is_all_default() {
        let b: DeviceBuffer<f32> = DeviceBuffer::zeroed(17);
        assert_eq!(b.len(), 17);
        assert!(b.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn clone_gets_new_address() {
        let a = DeviceBuffer::new(vec![1u32, 2, 3]);
        let b = a.clone();
        assert_ne!(a.base_addr(), b.base_addr());
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn into_vec_round_trips() {
        let b = DeviceBuffer::new(vec![5i32, 6]);
        assert_eq!(b.into_vec(), vec![5, 6]);
    }

    #[test]
    fn set_through_shared_ref_is_visible() {
        let b = DeviceBuffer::new(vec![0u32; 4]);
        b.set(2, 9);
        assert_eq!(b.get(2), 9);
        assert_eq!(b.as_slice(), &[0, 0, 9, 0]);
    }
}
