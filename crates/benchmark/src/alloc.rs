//! A gated counting allocator.
//!
//! [`CountingAlloc`] forwards to the system allocator and, only while the
//! gate is open, counts bytes allocated and tracks the live-byte high
//! water mark. With the gate closed every allocation pays one relaxed
//! load. The gate stays closed in every timed loop: with it open, two
//! workers bounce the shared counters between cores on every allocation,
//! which distorts exactly the parallel timings the benchmark reports.
//!
//! The library registers it as the global allocator, so the benchmark
//! binary and its tests all count through it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;

/// The counting allocator (see the module docs).
pub struct CountingAlloc;

static GATE: AtomicBool = AtomicBool::new(false);
static ALLOCATED: AtomicU64 = AtomicU64::new(0);
/// Live bytes relative to the moment the gate opened; frees of older
/// blocks can take it below zero.
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);
/// Serializes gated sections: the counters are process-wide.
static SECTION: Mutex<()> = Mutex::new(());

fn on_alloc(size: usize) {
    ALLOCATED.fetch_add(size as u64, Relaxed);
    let live = LIVE.fetch_add(size as i64, Relaxed) + size as i64;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards the caller's pointer and layout unchanged
// to `System`, which upholds the `GlobalAlloc` contract; the counting
// touches only atomics and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded with the caller's guarantees.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() && GATE.load(Relaxed) {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded with the caller's guarantees.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() && GATE.load(Relaxed) {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded with the caller's guarantees.
        unsafe { System.dealloc(ptr, layout) };
        if GATE.load(Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Relaxed);
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded with the caller's guarantees.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() && GATE.load(Relaxed) {
            // A reallocation counts as a fresh block of the new size
            // replacing the old one.
            LIVE.fetch_sub(layout.size() as i64, Relaxed);
            on_alloc(new_size);
        }
        p
    }
}

/// What one gated section allocated.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Usage {
    /// Bytes allocated (reallocations count their new size).
    pub allocated: u64,
    /// Peak live bytes above the level at the start of the section.
    pub peak: u64,
}

/// Runs `f` with the gate open and returns what it allocated. Sections
/// never overlap: a second caller waits for the first to finish.
pub fn counting<R>(f: impl FnOnce() -> R) -> (R, Usage) {
    let _section = SECTION
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    ALLOCATED.store(0, Relaxed);
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    GATE.store(true, Relaxed);
    let out = f();
    GATE.store(false, Relaxed);
    let usage = Usage {
        allocated: ALLOCATED.load(Relaxed),
        peak: PEAK.load(Relaxed).max(0) as u64,
    };
    (out, usage)
}

/// Bytes allocated so far in the open section, for charging a section's
/// allocations to the stages inside it; it stands still while the gate
/// is closed.
pub fn allocated() -> u64 {
    ALLOCATED.load(Relaxed)
}

/// Bytes as MiB.
pub fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;

    #[test]
    fn inert_while_off_and_counts_a_known_vec_while_on() {
        {
            // Holding the section lock keeps other tests' gated sections
            // out, so the gate stays closed throughout.
            let _section = SECTION.lock().unwrap_or_else(|p| p.into_inner());
            let before = (
                ALLOCATED.load(Relaxed),
                LIVE.load(Relaxed),
                PEAK.load(Relaxed),
            );
            black_box(vec![0u8; 1 << 16]);
            let after = (
                ALLOCATED.load(Relaxed),
                LIVE.load(Relaxed),
                PEAK.load(Relaxed),
            );
            assert_eq!(before, after, "the gate is closed: nothing may be counted");
        }

        // Other tests' allocations may land in the section too, so the
        // counts are lower bounds.
        let (v, usage) = counting(|| black_box(Vec::<u64>::with_capacity(4096)));
        assert!(usage.allocated >= 4096 * 8, "{usage:?}");
        assert!(usage.peak >= 4096 * 8, "{usage:?}");
        drop(v);
    }
}
