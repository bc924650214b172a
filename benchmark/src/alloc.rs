//! A peak-tracking global allocator.
//!
//! `trace::CountingAlloc` counts allocator calls but not frees, so it
//! cannot say how much memory a compile holds at once. [`PeakAlloc`]
//! keeps the live byte count (allocations minus frees) and a high-water
//! mark that [`reset_peak`] lowers to the current live bytes. A compile's
//! peak is then `peak() - reset_peak()` read around the call: the most
//! memory the compile held above what was live when it started.
//!
//! The counters are process-wide. They are exact while one thread
//! allocates, which is why every benchmark session runs one worker.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static CALLS: AtomicU64 = AtomicU64::new(0);

/// The benchmark's `#[global_allocator]`: [`System`] plus live-byte,
/// high-water and call counters. The counters publish no other data, so
/// they use `Relaxed` ordering.
pub struct PeakAlloc;

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters only
// observe the sizes.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            CALLS.fetch_add(1, Ordering::Relaxed);
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by this allocator (hence `System`)
        // for `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `realloc`'s contract; `ptr` came
        // from `System` through this allocator.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            CALLS.fetch_add(1, Ordering::Relaxed);
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

/// Bytes currently allocated and not yet freed.
pub fn live() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// The high-water mark of [`live`] since the last [`reset_peak`].
pub fn peak() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Lowers the high-water mark to the current live bytes and returns
/// them, so `peak() - reset_peak()` brackets a region of code.
pub fn reset_peak() -> usize {
    let live = live();
    PEAK.store(live, Ordering::Relaxed);
    live
}

/// Allocator calls (`alloc` + `realloc`) since the process started.
pub fn calls() -> u64 {
    CALLS.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    const MIB: usize = 1 << 20;

    /// The tests below move megabytes; one at a time, so none sees
    /// another's blocks come and go. Other tests in this binary allocate
    /// only small amounts, which the assertions leave slack for.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn peak_tracks_live_bytes_and_frees() {
        let _serial = serial();
        let entry = reset_peak();
        let calls_before = calls();
        let block = std::hint::black_box(vec![1u8; 4 * MIB]);
        assert!(live() >= entry + 4 * MIB - MIB / 2);
        drop(block);
        assert!(
            peak() >= entry + 4 * MIB - MIB / 2,
            "the freed block still sets the peak"
        );
        assert!(live() < entry + 2 * MIB, "the free was subtracted");
        assert!(calls() > calls_before);
    }

    #[test]
    fn reset_lowers_the_high_water_mark() {
        let _serial = serial();
        drop(std::hint::black_box(vec![0u8; 8 * MIB]));
        let entry = reset_peak();
        assert!(
            peak() < entry + 4 * MIB,
            "the earlier block no longer counts"
        );
    }

    #[test]
    fn realloc_growth_and_shrink_are_tracked() {
        let _serial = serial();
        let entry = reset_peak();
        let mut v: Vec<u8> = std::hint::black_box(Vec::with_capacity(MIB));
        v.reserve_exact(3 * MIB);
        assert!(peak() >= entry + 3 * MIB - MIB / 2);
        v.shrink_to(0);
        assert!(live() < entry + 2 * MIB);
    }
}
