//! Fixes glibc malloc's thresholds, so that every round meets the same
//! allocator.
//!
//! Left alone, malloc serves a request of 128 KiB or more by `mmap` and
//! gives it back by `munmap`, until the first such block is freed; from
//! then on it raises the threshold by itself and trims the heap top
//! whenever enough of it is free. Which round that happens in is not
//! fixed. Each hint cell of `sim_sweep` builds ~370 MB of hint tables:
//! rounds that fault them in afresh took 2.7–3.8 s (0.57 s of it in the
//! kernel), rounds that found them on the heap 2.1–2.5 s, within one run.
//! With both thresholds set up front the first use faults memory in and
//! every later round reuses it.

extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
}

/// `M_TRIM_THRESHOLD` of `<malloc.h>`.
const M_TRIM_THRESHOLD: i32 = -1;
/// `M_MMAP_THRESHOLD` of `<malloc.h>`.
const M_MMAP_THRESHOLD: i32 = -3;
/// The largest `M_MMAP_THRESHOLD` glibc accepts on a 64-bit target.
const MMAP_THRESHOLD_MAX: i32 = 32 << 20;

/// Keeps freed memory in the process: blocks up to 32 MiB come from the
/// heap, and the heap top is never trimmed. Returns whether malloc
/// accepted both settings.
pub fn keep_freed_memory() -> bool {
    // SAFETY: `mallopt` stores one integer in malloc's own state and
    // touches no memory of this program; it is called before any other
    // thread exists.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_MAX) == 1
            && mallopt(M_TRIM_THRESHOLD, i32::MAX) == 1
    }
}
