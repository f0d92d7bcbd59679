//! A counting global allocator: live bytes, peak live bytes, allocation
//! count and bytes requested, over the system allocator. std only.
//!
//! The counters are statistics that publish no other data, so every
//! atomic uses `Relaxed`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

/// The benchmark binary's global allocator.
pub struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
/// Live bytes at the last [`reset`].
static BASE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn note_alloc(size: usize) {
    let live = LIVE.fetch_add(size, Relaxed) + size;
    PEAK.fetch_max(live, Relaxed);
    COUNT.fetch_add(1, Relaxed);
    BYTES.fetch_add(size as u64, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and only adds counter updates, so `System`'s guarantees
// (alignment, size, null on failure) carry over.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by this allocator (hence `System`)
        // with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            note_alloc(new_size);
        }
        p
    }
}

/// Allocation totals since the last [`reset`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// Highest live heap bytes, less those live at the reset.
    pub peak_bytes: usize,
    /// Allocations (a `realloc` counts as one).
    pub count: u64,
    /// Bytes requested by those allocations.
    pub bytes: u64,
}

/// Restarts the peak at the current live size and zeroes the totals.
/// Call while no other thread allocates.
pub fn reset() {
    let live = LIVE.load(Relaxed);
    BASE.store(live, Relaxed);
    PEAK.store(live, Relaxed);
    COUNT.store(0, Relaxed);
    BYTES.store(0, Relaxed);
}

/// The totals since the last [`reset`].
pub fn usage() -> Usage {
    Usage {
        peak_bytes: PEAK.load(Relaxed).saturating_sub(BASE.load(Relaxed)),
        count: COUNT.load(Relaxed),
        bytes: BYTES.load(Relaxed),
    }
}

/// The process's peak resident set (`VmHWM` in `/proc/self/status`), in
/// bytes, where the platform reports it: an unchecked cross-check of the
/// counted heap.
pub fn vm_hwm_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}
