//! A warmed thread featurises a clean window without touching the heap.
//!
//! The counting allocator tallies allocations per thread, so tests the
//! harness runs beside this one cannot disturb the count.

use magneto_dsp::{PipelineConfig, PreprocessingPipeline, SignalQuality, NUM_FEATURES};
use magneto_tensor::SeededRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    // `try_with`: the allocator may run while this thread's locals are
    // being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counter only reads and writes a thread-local `Cell`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn window(seed: u64, n: usize) -> Vec<Vec<f32>> {
    let mut rng = SeededRng::new(seed);
    (0..22)
        .map(|c| {
            (0..n)
                .map(|i| c as f32 * 0.3 + (i as f32 * 0.2).sin() + rng.normal_with(0.0, 0.1))
                .collect()
        })
        .collect()
}

#[test]
fn process_checked_into_allocates_nothing_after_warm_up() {
    let windows: Vec<Vec<Vec<f32>>> = (0..16).map(|s| window(s, 120)).collect();
    let refs: Vec<&[Vec<f32>]> = windows.iter().map(Vec::as_slice).collect();
    let mut pipeline = PreprocessingPipeline::new(PipelineConfig::default());
    pipeline.fit_normalizer(&refs).unwrap();
    let mut out = vec![0.0f32; NUM_FEATURES];

    // Warm-up: the per-thread buffers grow to the window length.
    for w in &windows[..2] {
        pipeline.process_checked_into(w, &mut out).unwrap();
    }
    let before = allocations();
    for w in &windows {
        let quality = pipeline.process_checked_into(w, &mut out).unwrap();
        assert_eq!(quality, SignalQuality::Nominal);
    }
    let per_window = (allocations() - before) as f64 / windows.len() as f64;
    assert_eq!(per_window, 0.0, "heap allocations per clean window");
    assert!(out.iter().all(|v| v.is_finite()));
}

#[test]
fn counter_sees_this_threads_allocations() {
    let before = allocations();
    let v: Vec<u64> = std::hint::black_box(Vec::with_capacity(64));
    assert!(allocations() > before);
    drop(v);
}
