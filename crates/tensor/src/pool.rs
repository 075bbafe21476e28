//! Deterministic multi-core compute pool.
//!
//! A [`ComputePool`] is a std-only pool of worker threads that executes
//! one job at a time, split into a **fixed partition**: a job dispatched
//! as `parts` pieces runs piece `0` on the calling thread and piece
//! `w + 1` on worker `w`. There is no work-stealing and no dynamic
//! chunking — given the same input shape and the same [`KernelPlan`],
//! the assignment of output rows to pieces is a pure function, so every
//! output element is computed by exactly one thread with exactly the
//! same instruction sequence as the sequential path. That is what makes
//! the parallel GEMMs in [`crate::matrix`] *bit-identical* to their
//! one-thread runs (the same guarantee `magneto-fleet` enforces for
//! serving), and it is argued in full in `DESIGN.md` §11.
//!
//! Scheduling model:
//!
//! * one job in flight at a time, serialized by a dispatch mutex;
//! * a caller that finds the pool busy (another thread mid-job, or a
//!   nested call from inside a kernel) runs the whole partition inline
//!   on its own thread — same partition, same bits, no deadlock and no
//!   oversubscription. This is how `magneto-fleet` workers share one
//!   process-wide pool instead of competing with it;
//! * worker panics are caught and re-raised on the calling thread after
//!   the job completes, so a poisoned kernel cannot wedge the pool.
//!
//! An [`Exec`] bundles a [`KernelPlan`] with (optionally) a shared pool
//! and is the handle the rest of the workspace passes around — it rides
//! inside [`crate::workspace::Workspace`], so every batched hot path
//! (training steps, batch embedding, streaming inference) picks up the
//! plan without signature churn. [`Exec::global`] returns a lazily
//! created process-wide instance that [`install_global`] can replace
//! at startup (the CLI and the benchmark install the host defaults with
//! the detected SIMD backend).

use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, OnceLock, RwLock};
use std::thread::JoinHandle;

use crate::plan::KernelPlan;
use crate::tiling::Backend;

/// A job body: receives the piece index it should execute.
///
/// Spelled out (not a `type` alias) everywhere a borrowed job crosses
/// an API boundary, because an alias would pin the trait-object
/// lifetime to `'static` and reject stack-local closures.
type StaticTask = &'static (dyn Fn(usize) + Sync);

/// Shared pool state behind the mutex.
struct State {
    /// Current job with its lifetime erased. Only ever dereferenced by a
    /// worker whose piece index is in range, and cleared before
    /// [`ComputePool::run`] returns — see the safety argument there.
    job: Option<StaticTask>,
    /// Piece count of the current job.
    parts: usize,
    /// Bumped once per dispatched job; workers use it to tell a new job
    /// from a spurious wakeup.
    epoch: u64,
    /// Worker pieces not yet finished for the current job.
    remaining: usize,
    /// A worker panicked while executing its piece.
    panicked: bool,
    /// Pool is being dropped; workers exit.
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Workers wait here for a new epoch.
    work: Condvar,
    /// The dispatching caller waits here for `remaining == 0`.
    done: Condvar,
}

/// Fixed-partition worker pool; see the module docs for the model.
pub struct ComputePool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    /// Serializes dispatch. `try_lock` failure means "busy" and the
    /// caller runs inline — this is the no-deadlock / no-oversubscribe
    /// fallback, not an error path.
    dispatch: Mutex<()>,
}

impl ComputePool {
    /// Spawn a pool with `workers` background threads (the caller makes
    /// piece count `workers + 1` available to [`ComputePool::run`]).
    pub fn new(workers: usize) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                job: None,
                parts: 0,
                epoch: 0,
                remaining: 0,
                panicked: false,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let workers = (0..workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("magneto-pool-{w}"))
                    .spawn(move || worker_loop(&shared, w))
                    .expect("spawn pool worker")
            })
            .collect();
        ComputePool {
            shared,
            workers,
            dispatch: Mutex::new(()),
        }
    }

    /// Number of background worker threads (total parallelism is one
    /// more: the caller executes piece 0).
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Execute `task(p)` for every piece `p in 0..parts`, spreading
    /// pieces across the caller (piece 0) and the workers (worker `w`
    /// runs piece `w + 1`). Returns once all pieces have finished.
    ///
    /// `parts` is clamped to `workers + 1`. If the pool is busy the
    /// whole partition runs inline on the caller — same pieces in
    /// ascending order, so the result is identical either way.
    ///
    /// # Panics
    /// Re-raises a panic from any piece after the job has fully drained
    /// (the pool itself stays usable).
    pub fn run(&self, parts: usize, task: &(dyn Fn(usize) + Sync)) {
        let parts = parts.clamp(1, self.workers.len() + 1);
        if parts == 1 {
            task(0);
            return;
        }
        let Ok(_guard) = self.dispatch.try_lock() else {
            // Busy (concurrent caller or a nested call from inside a
            // running piece): execute the identical partition inline.
            for p in 0..parts {
                task(p);
            }
            return;
        };
        // SAFETY: erasing the lifetime is sound because this function
        // does not return until `remaining == 0` (every worker piece has
        // finished) and `job` has been cleared, so no worker can hold or
        // call the reference after `task` goes out of scope. Workers
        // only dereference `job` when their piece index is `< parts`.
        let erased: StaticTask = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), StaticTask>(task)
        };
        {
            let mut st = self.shared.state.lock().expect("pool state poisoned");
            st.job = Some(erased);
            st.parts = parts;
            st.remaining = parts - 1;
            st.panicked = false;
            st.epoch += 1;
            self.shared.work.notify_all();
        }
        // The caller contributes piece 0. A panic here must still wait
        // for the workers to drain before unwinding, or `erased` would
        // dangle while they run.
        let caller = panic::catch_unwind(AssertUnwindSafe(|| task(0)));
        let worker_panicked = {
            let mut st = self.shared.state.lock().expect("pool state poisoned");
            while st.remaining > 0 {
                st = self.shared.done.wait(st).expect("pool state poisoned");
            }
            st.job = None;
            let p = st.panicked;
            st.panicked = false;
            p
        };
        if let Err(payload) = caller {
            panic::resume_unwind(payload);
        }
        assert!(
            !worker_panicked,
            "compute pool worker panicked while executing its piece"
        );
    }
}

impl Drop for ComputePool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().expect("pool state poisoned");
            st.shutdown = true;
            self.shared.work.notify_all();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl fmt::Debug for ComputePool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ComputePool")
            .field("workers", &self.workers.len())
            .finish()
    }
}

fn worker_loop(shared: &Shared, w: usize) {
    let mut seen = 0u64;
    loop {
        let (job, parts) = {
            let mut st = shared.state.lock().expect("pool state poisoned");
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen {
                    seen = st.epoch;
                    break (st.job, st.parts);
                }
                st = shared.work.wait(st).expect("pool state poisoned");
            }
        };
        // Fixed partition: worker `w` owns piece `w + 1` or sits the job
        // out. A worker that slept through earlier epochs is safe to
        // skip them: `run` cannot return (and cannot dispatch the next
        // job) until every *owned* piece of the current job has
        // decremented `remaining`.
        let piece = w + 1;
        if piece >= parts {
            continue;
        }
        let Some(task) = job else { continue };
        let result = panic::catch_unwind(AssertUnwindSafe(|| task(piece)));
        let mut st = shared.state.lock().expect("pool state poisoned");
        if result.is_err() {
            st.panicked = true;
        }
        st.remaining -= 1;
        if st.remaining == 0 {
            shared.done.notify_all();
        }
    }
}

/// Raw `f32` pointer that may cross threads. Used to hand each pool
/// piece its disjoint output panel; the kernels re-materialise it as a
/// `&mut [f32]` covering only rows the piece owns, so no two threads
/// ever alias a byte.
pub struct SendPtr(*mut f32);

impl SendPtr {
    /// Wrap a pointer for cross-thread panel slicing.
    pub fn new(ptr: *mut f32) -> Self {
        SendPtr(ptr)
    }

    /// The wrapped pointer.
    pub fn get(&self) -> *mut f32 {
        self.0
    }
}

// SAFETY: `SendPtr` is only a conveyance; every dereference happens
// through disjoint `from_raw_parts_mut` panels computed by
// `panel_range`, which partitions the row space.
unsafe impl Send for SendPtr {}
unsafe impl Sync for SendPtr {}

/// Row range `[r0, r1)` owned by piece `part` of `parts` when `rows`
/// rows are split into panels aligned to `align`.
///
/// Alignment is what preserves bit-identity: panels are multiples of
/// the kernel's tile height (4 for the register-tiled matmul, 2 for the
/// transposed row-pair kernel), so exactly the same rows take the tile
/// path vs. the remainder path as in a sequential run. Pieces may be
/// empty (`r0 == r1`) when there are fewer aligned blocks than pieces.
pub fn panel_range(rows: usize, align: usize, parts: usize, part: usize) -> (usize, usize) {
    let align = align.max(1);
    let parts = parts.max(1);
    let blocks = rows.div_ceil(align);
    let base = blocks / parts;
    let extra = blocks % parts;
    let start = part * base + part.min(extra);
    let count = base + usize::from(part < extra);
    let r0 = (start * align).min(rows);
    let r1 = ((start + count) * align).min(rows);
    (r0, r1)
}

/// Execution context: a [`KernelPlan`] plus (for `threads > 1`) a shared
/// [`ComputePool`]. Cheap to clone — the pool is behind an `Arc` and the
/// plan is `Copy`.
#[derive(Clone)]
pub struct Exec {
    plan: KernelPlan,
    pool: Option<Arc<ComputePool>>,
}

impl Exec {
    /// Fully sequential execution with PR-1's kernel constants: the
    /// reference configuration all parallel paths must match bit-for-bit.
    pub fn inline() -> Self {
        Exec {
            plan: KernelPlan::inline(),
            pool: None,
        }
    }

    /// Build an execution context for `plan` (sanitized first), spawning
    /// a pool of `plan.threads - 1` workers when the plan is parallel.
    pub fn from_plan(plan: KernelPlan) -> Self {
        let plan = plan.sanitized();
        let pool = (plan.threads > 1).then(|| Arc::new(ComputePool::new(plan.threads - 1)));
        Exec { plan, pool }
    }

    /// Default tile constants with an explicit thread count — the knob
    /// benchmarks and the pool-size property tests turn.
    pub fn with_threads(threads: usize) -> Self {
        Exec::from_plan(KernelPlan::inline().with_threads(threads))
    }

    /// The active plan.
    pub fn plan(&self) -> KernelPlan {
        self.plan
    }

    /// The micro-kernel backend the f32 kernels dispatch to. Always an
    /// available one: every constructor sanitizes its plan, which
    /// degrades backends the host cannot run to [`Backend::Scalar`].
    pub fn backend(&self) -> Backend {
        self.plan.backend
    }

    /// Effective parallelism: plan threads, capped by the pool actually
    /// attached (1 when running inline).
    pub fn threads(&self) -> usize {
        match &self.pool {
            Some(pool) => self.plan.threads.min(pool.workers() + 1),
            None => 1,
        }
    }

    /// The process-wide execution context. Lazily initialised from
    /// [`KernelPlan::host_default`]; replace it via [`install_global`]
    /// to serve another plan (e.g. with the detected SIMD backend).
    pub fn global() -> Exec {
        global_cell().read().expect("global exec poisoned").clone()
    }

    /// Split `rows` output rows into per-thread panels aligned to
    /// `align` and run `body(r0, r1)` for each, in parallel when the
    /// plan says so and inline otherwise. `body` must only write rows in
    /// its own `[r0, r1)` panel.
    ///
    /// Small jobs (`rows < plan.par_min_rows`) always run inline: the
    /// fixed partition makes the result identical, so the threshold is
    /// pure scheduling.
    pub fn run_row_panels(&self, rows: usize, align: usize, body: &(dyn Fn(usize, usize) + Sync)) {
        if rows == 0 {
            return;
        }
        let parts = self
            .threads()
            .min(rows.div_ceil(align.max(1)));
        if parts <= 1 || rows < self.plan.par_min_rows {
            body(0, rows);
            return;
        }
        let pool = self.pool.as_ref().expect("threads > 1 implies pool");
        pool.run(parts, &|piece| {
            let (r0, r1) = panel_range(rows, align, parts, piece);
            if r0 < r1 {
                body(r0, r1);
            }
        });
    }
}

impl fmt::Debug for Exec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Exec")
            .field("plan", &self.plan)
            .field("threads", &self.threads())
            .finish()
    }
}

impl Default for Exec {
    /// The global context — so `Workspace::default()` (and everything
    /// built on it) transparently picks up the installed plan.
    fn default() -> Self {
        Exec::global()
    }
}

static GLOBAL: OnceLock<RwLock<Exec>> = OnceLock::new();

fn global_cell() -> &'static RwLock<Exec> {
    GLOBAL.get_or_init(|| RwLock::new(Exec::from_plan(KernelPlan::host_default())))
}

/// Replace the process-wide execution context (e.g. with the served
/// plan at startup). Existing `Workspace`s keep the context they were
/// built with; new ones pick this up.
pub fn install_global(exec: Exec) {
    *global_cell().write().expect("global exec poisoned") = exec;
}

/// The plan of the process-wide context (for banners and telemetry).
pub fn global_plan() -> KernelPlan {
    Exec::global().plan()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn panel_range_partitions_exactly() {
        for &rows in &[0usize, 1, 3, 4, 10, 17, 64, 129] {
            for &align in &[1usize, 2, 4] {
                for parts in 1..=9 {
                    let mut covered = 0;
                    let mut next = 0;
                    for p in 0..parts {
                        let (r0, r1) = panel_range(rows, align, parts, p);
                        assert!(r0 <= r1, "rows={rows} align={align} parts={parts}");
                        assert_eq!(r0, next, "panels must be contiguous");
                        // Every panel but the last is align-sized.
                        if r1 < rows {
                            assert_eq!(r1 % align, 0);
                        }
                        covered += r1 - r0;
                        next = r1;
                    }
                    assert_eq!(covered, rows);
                    assert_eq!(next, rows.max(next));
                }
            }
        }
    }

    #[test]
    fn pool_runs_every_piece_once() {
        let pool = ComputePool::new(3);
        let hits: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
        pool.run(4, &|p| {
            hits[p].fetch_add(1, Ordering::SeqCst);
        });
        for h in &hits {
            assert_eq!(h.load(Ordering::SeqCst), 1);
        }
        // Clamped: asking for more pieces than workers+1 still covers
        // the requested pieces 0..clamp.
        let wide = AtomicUsize::new(0);
        pool.run(16, &|_| {
            wide.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(wide.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn pool_is_reusable_across_jobs() {
        let pool = ComputePool::new(2);
        for round in 0..50 {
            let total = AtomicUsize::new(0);
            pool.run(3, &|p| {
                total.fetch_add(p + 1, Ordering::SeqCst);
            });
            assert_eq!(total.load(Ordering::SeqCst), 6, "round {round}");
        }
    }

    #[test]
    fn nested_run_falls_back_inline() {
        let pool = ComputePool::new(2);
        let outer = AtomicUsize::new(0);
        let inner = AtomicUsize::new(0);
        pool.run(3, &|_| {
            outer.fetch_add(1, Ordering::SeqCst);
            // Re-entrant dispatch from inside a piece: must not deadlock.
            pool.run(3, &|_| {
                inner.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert_eq!(outer.load(Ordering::SeqCst), 3);
        assert_eq!(inner.load(Ordering::SeqCst), 9);
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        let pool = ComputePool::new(1);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(2, &|p| {
                if p == 1 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
        // Pool still works after the panic drained.
        let ok = AtomicUsize::new(0);
        pool.run(2, &|_| {
            ok.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(ok.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn exec_threads_reflect_plan_and_pool() {
        assert_eq!(Exec::inline().threads(), 1);
        assert_eq!(Exec::with_threads(3).threads(), 3);
        assert_eq!(Exec::from_plan(KernelPlan::inline()).threads(), 1);
    }

    #[test]
    fn run_row_panels_covers_rows_inline_and_pooled() {
        for exec in [Exec::inline(), Exec::with_threads(4)] {
            let rows = 37;
            let hits: Vec<AtomicUsize> = (0..rows).map(|_| AtomicUsize::new(0)).collect();
            exec.run_row_panels(rows, 4, &|r0, r1| {
                for h in &hits[r0..r1] {
                    h.fetch_add(1, Ordering::SeqCst);
                }
            });
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::SeqCst), 1, "row {i}");
            }
        }
    }

    #[test]
    fn global_exec_is_installable() {
        // Plan-only change (threads=1) so concurrent tests sharing the
        // global are unaffected — results are plan-deterministic anyway.
        let before = Exec::global().plan();
        install_global(Exec::from_plan(before));
        assert_eq!(global_plan(), before.sanitized());
    }
}
