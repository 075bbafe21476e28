//! Autotuned kernel launch plan.
//!
//! PR 1 hard-coded the GEMM dispatch constants (`TILED_MIN_ROWS`, the
//! 4×32 register tile, the 256-deep k-panel) to values measured on one
//! development laptop. Real Edge hardware spans an order of magnitude in
//! core count, vector width and cache size, so this module makes the
//! launch configuration a *value* — a [`KernelPlan`] — instead of a set
//! of constants. A plan is produced three ways:
//!
//! * [`KernelPlan::inline`] / [`KernelPlan::host_default`] — safe
//!   defaults that reproduce the PR-1 constants exactly (`inline` pins
//!   one thread; `host_default` adds the machine's core count);
//! * [`KernelPlan::autotune`] — a startup micro-benchmark pass that
//!   times tile shapes × dispatch thresholds × thread counts on the
//!   actual host and keeps the fastest combination;
//! * [`KernelPlan::load_or_default`] — reload a previously autotuned
//!   plan cached on disk (the Edge runtime stores it next to the model
//!   bundle), falling back to `host_default` when the file is missing,
//!   corrupt, or written by an incompatible version.
//!
//! Plans only steer *scheduling*: for any one fixed plan the kernels in
//! [`crate::matrix`] produce bit-identical results at every thread
//! count (see `DESIGN.md` §11 for the argument), so caching or retuning
//! a plan can never change what a model computes — only how fast.
//!
//! Every tile, stage and backend field steers the f32 family. The int8
//! GEMM ([`crate::quant`]) streams rows through one portable kernel and
//! reads only `threads` and `par_min_rows`.
//!
//! Privacy note (paper Definition 1): a plan describes the *device*, not
//! the user — thread count and cache-friendly tile sizes. It is written
//! only to device-local storage and never leaves the Edge.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

use crate::error::TensorError;
use crate::matrix::Matrix;
use crate::pool::Exec;
use crate::rng::SeededRng;
use crate::tiling::Backend;
use crate::Result;

/// Format version stamped into serialized plans; bump on layout change
/// so stale cached plans fall back to defaults instead of misdispatching.
/// v3 added the micro-kernel [`Backend`] choice; v2 added the int8
/// kernel constants. Plans cached on disk by any previous version are
/// rejected and the runtime falls back to [`KernelPlan::host_default`].
///
/// Removing a field needs no bump: unknown fields are ignored on load,
/// so a v3 plan that still carries the retired int8 fields
/// (`i8_tile_cols`, `i8_tiled_min_rows`, `i8_backend`) loads with every
/// remaining field intact.
pub const PLAN_VERSION: u32 = 3;

/// Hard cap on pool threads a plan may request.
pub const MAX_THREADS: usize = 16;

/// Launch configuration for every GEMM in the crate.
///
/// `Copy` on purpose: a plan is a few small integers and a backend tag,
/// cloned freely into closures and across threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct KernelPlan {
    /// Format version ([`PLAN_VERSION`]) for cached plans.
    pub version: u32,
    /// Total compute threads (pool workers + the calling thread).
    /// `1` means fully sequential — no pool is created.
    pub threads: usize,
    /// Register-tile width of the batched matmul kernel (16 or 32).
    pub tile_cols: usize,
    /// Minimum batch rows before `matmul` leaves the zero-skipping axpy
    /// kernel for the register-tiled one (PR-1's `TILED_MIN_ROWS`).
    pub tiled_min_rows: usize,
    /// k-panel depth of the tiled kernel (how much of `rhs` stays
    /// L1-resident between row blocks).
    pub panel_k: usize,
    /// Minimum output rows before a GEMM is split across pool threads;
    /// below this the dispatch overhead outweighs the parallelism.
    pub par_min_rows: usize,
    /// Micro-kernel instance executing the f32 register tiles. Defaults
    /// to [`Backend::Scalar`] (the bit-identity reference) when absent
    /// from a serialized plan; only [`KernelPlan::autotune`] or an
    /// explicit [`KernelPlan::with_backend`] select a SIMD instance, and
    /// [`KernelPlan::sanitized`] degrades any backend the host cannot
    /// run back to scalar.
    #[serde(default)]
    pub backend: Backend,
}

impl Default for KernelPlan {
    fn default() -> Self {
        KernelPlan::inline()
    }
}

impl KernelPlan {
    /// The sequential plan: PR-1's exact constants, one thread.
    ///
    /// This is the reference configuration every parallel run is
    /// property-tested to match bit-for-bit.
    pub fn inline() -> Self {
        KernelPlan {
            version: PLAN_VERSION,
            threads: 1,
            tile_cols: 32,
            tiled_min_rows: 16,
            panel_k: 256,
            par_min_rows: 32,
            backend: Backend::Scalar,
        }
    }

    /// Safe defaults for this host: PR-1 tile constants plus the
    /// machine's available core count (capped at [`MAX_THREADS`]).
    pub fn host_default() -> Self {
        KernelPlan {
            threads: available_threads(),
            ..KernelPlan::inline()
        }
    }

    /// The same plan with `threads` replaced (clamped to
    /// `1..=`[`MAX_THREADS`]) — used by benchmarks and property tests to
    /// sweep pool sizes with the tile configuration held fixed.
    pub fn with_threads(self, threads: usize) -> Self {
        KernelPlan {
            threads: threads.clamp(1, MAX_THREADS),
            ..self
        }
    }

    /// The same plan with the f32 micro-kernel `backend` replaced,
    /// degraded to [`Backend::Scalar`] when the host cannot run the
    /// requested one — used by the smoke benchmarks to force the
    /// SIMD/scalar comparison and by applications honouring a user
    /// override. The int8 GEMM has a single portable kernel and ignores
    /// the backend.
    pub fn with_backend(self, backend: Backend) -> Self {
        let backend = if backend.is_available() {
            backend
        } else {
            Backend::Scalar
        };
        KernelPlan { backend, ..self }
    }

    /// Clamp every field into the range the kernels support. Applied to
    /// every plan that crosses a trust boundary (deserialized from disk,
    /// handed in by an application) so a corrupt value can degrade
    /// performance but never break dispatch.
    pub fn sanitized(self) -> Self {
        KernelPlan {
            version: PLAN_VERSION,
            threads: self.threads.clamp(1, MAX_THREADS),
            // Only the two monomorphized tile widths exist.
            tile_cols: if self.tile_cols <= 16 { 16 } else { 32 },
            tiled_min_rows: self.tiled_min_rows.clamp(4, 4096),
            panel_k: self.panel_k.clamp(32, 8192),
            par_min_rows: self.par_min_rows.clamp(8, 1 << 20),
            // A cached plan may name a backend this host lacks (bundle
            // copied between devices, CPU migration): degrade to the
            // always-available scalar instance instead of faulting.
            backend: if self.backend.is_available() {
                self.backend
            } else {
                Backend::Scalar
            },
        }
    }

    /// One-line human-readable summary for startup banners.
    pub fn describe(&self) -> String {
        format!(
            "backend={} threads={} tile=4x{} panel_k={} tiled_min_rows={} par_min_rows={}",
            self.backend,
            self.threads,
            self.tile_cols,
            self.panel_k,
            self.tiled_min_rows,
            self.par_min_rows,
        )
    }

    // -- persistence ------------------------------------------------------

    /// Serialize to pretty JSON (the on-disk cache format).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("KernelPlan serializes infallibly")
    }

    /// Parse a plan from JSON, rejecting incompatible versions.
    ///
    /// # Errors
    /// Returns [`TensorError::Decode`] on malformed JSON or a version
    /// mismatch.
    pub fn from_json(json: &str) -> Result<Self> {
        let plan: KernelPlan = serde_json::from_str(json)
            .map_err(|e| TensorError::Decode(format!("kernel plan: {e}")))?;
        if plan.version != PLAN_VERSION {
            return Err(TensorError::Decode(format!(
                "kernel plan version {} (expected {PLAN_VERSION})",
                plan.version
            )));
        }
        Ok(plan.sanitized())
    }

    /// Write the plan to `path` atomically, so a crash mid-write leaves
    /// either the old plan or the new one, never a torn file.
    ///
    /// The JSON goes to a temp sibling unique to this save
    /// (`<name>.tmp.<pid>.<seq>`), is fsynced, and is then renamed over
    /// `path`; the directory is fsynced last so the rename survives power
    /// loss. Two concurrent saves therefore never share a scratch file,
    /// and the rename never publishes bytes that are not yet durable.
    ///
    /// # Errors
    /// Propagates filesystem errors; the temp file is removed on failure.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        let tmp = unique_tmp_path(path);
        let written = std::fs::File::create(&tmp).and_then(|mut f| {
            f.write_all(self.to_json().as_bytes())?;
            f.sync_all()?;
            std::fs::rename(&tmp, path)
        });
        if written.is_err() {
            std::fs::remove_file(&tmp).ok();
            return written;
        }
        // A directory opens read-only for fsync on Unix; where it cannot
        // be opened at all, rename durability is best-effort.
        match path.parent().filter(|p| !p.as_os_str().is_empty()) {
            Some(dir) => std::fs::File::open(dir),
            None => std::fs::File::open("."),
        }
        .map_or(Ok(()), |d| d.sync_all())
    }

    /// Load a plan from `path`.
    ///
    /// # Errors
    /// Returns [`TensorError::Decode`] when the file is unreadable,
    /// malformed, or version-incompatible.
    pub fn load(path: &Path) -> Result<Self> {
        let json = std::fs::read_to_string(path)
            .map_err(|e| TensorError::Decode(format!("kernel plan {}: {e}", path.display())))?;
        KernelPlan::from_json(&json)
    }

    /// Load a cached plan, falling back to [`KernelPlan::host_default`]
    /// when the file is missing, corrupt, or version-incompatible — the
    /// "safe defaults" contract the Edge runtime relies on at boot.
    pub fn load_or_default(path: &Path) -> Self {
        KernelPlan::load(path).unwrap_or_else(|_| KernelPlan::host_default())
    }

    // -- autotune ---------------------------------------------------------

    /// Micro-benchmark tile shapes × dispatch thresholds × thread counts
    /// on this host and return the fastest plan.
    ///
    /// Takes tens of milliseconds; intended as a one-off startup pass
    /// whose result is cached with [`KernelPlan::save`]. The search is
    /// staged (tile shape at one thread, then the axpy↔tiled threshold,
    /// then thread count on a training-shaped workload) rather than a
    /// full grid, and thread-count selection applies 5% hysteresis in
    /// favour of fewer threads so measurement noise on a quiet host
    /// cannot talk a phone-class SoC into waking extra cores.
    pub fn autotune() -> Self {
        autotune_impl(AUTOTUNE_REPS)
    }
}

/// Monotonic counter distinguishing concurrent plan saves within one
/// process.
static SAVE_SEQ: AtomicU64 = AtomicU64::new(0);

/// A temp sibling of `path` unique to this (process, save) pair, with
/// `.tmp.<pid>.<seq>` appended to the full file name.
fn unique_tmp_path(path: &Path) -> PathBuf {
    let seq = SAVE_SEQ.fetch_add(1, Ordering::Relaxed);
    let mut name = path
        .file_name()
        .unwrap_or_else(|| std::ffi::OsStr::new("plan"))
        .to_os_string();
    name.push(format!(".tmp.{}.{seq}", std::process::id()));
    path.with_file_name(name)
}

/// Available cores, capped at [`MAX_THREADS`]; `1` when the count is
/// unavailable.
pub(crate) fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(MAX_THREADS)
}

/// Best-of-N repetitions per candidate; the minimum over reps filters
/// scheduler noise far better than the mean does.
const AUTOTUNE_REPS: usize = 3;

/// Timed iterations inside one repetition.
const AUTOTUNE_ITERS: usize = 4;

/// Representative shapes: a training mini-batch flowing through the
/// widest trunk layers of the paper's MLP (batch × 128 → 128).
const TUNE_M: usize = 64;
const TUNE_K: usize = 128;
const TUNE_N: usize = 128;

fn autotune_impl(reps: usize) -> KernelPlan {
    let mut rng = SeededRng::new(0x4d41_474e_4554_4f21); // "MAGNETO!"
    let a = sparse_matrix(TUNE_M, TUNE_K, &mut rng);
    let b = dense_matrix(TUNE_K, TUNE_N, &mut rng);
    let mut out = Matrix::zeros(TUNE_M, TUNE_N);

    // Stage 1: backend × tile shape, single-threaded. The best
    // configuration is kept *per backend* so the SIMD-vs-scalar decision
    // compares each instance at its own preferred tile shape.
    let mut per_backend: Vec<(f64, KernelPlan)> = Vec::new();
    for backend in Backend::candidates() {
        let mut best = (f64::INFINITY, KernelPlan::inline());
        for &tile_cols in &[16usize, 32] {
            for &panel_k in &[128usize, 256] {
                let plan = KernelPlan {
                    backend,
                    tile_cols,
                    panel_k,
                    // Force the tiled kernel so the tile shape is what's timed.
                    tiled_min_rows: 4,
                    ..KernelPlan::inline()
                };
                let exec = Exec::from_plan(plan);
                let t = bench(reps, || {
                    a.matmul_into_exec(&b, &mut out, &exec).expect("tune shapes agree");
                });
                if t < best.0 {
                    best = (t, plan);
                }
            }
        }
        per_backend.push(best);
    }
    // Scalar is always per_backend[0]; a SIMD candidate, when the host
    // has one, is the only other entry. Prefer SIMD within a 5%
    // hysteresis window: on builds whose "scalar" already auto-vectorises
    // (-C target-cpu=native) the two often tie, and the explicit kernels'
    // performance is guaranteed across compilers and build flags where
    // the auto-vectoriser's is not.
    let (t_scalar, scalar_best) = per_backend[0];
    let (tile_cols, panel_k, backend) = match per_backend.get(1) {
        Some(&(t_simd, simd_best)) if t_simd <= t_scalar * 1.05 => {
            (simd_best.tile_cols, simd_best.panel_k, simd_best.backend)
        }
        _ => (scalar_best.tile_cols, scalar_best.panel_k, Backend::Scalar),
    };

    // Stage 2: axpy↔tiled crossover. Time both kernels at candidate batch
    // sizes and set the threshold to the smallest batch where the tiled
    // kernel wins (post-ReLU sparsity favours axpy's zero-skip below it).
    let mut tiled_min_rows = 4 * TUNE_M; // pessimistic: axpy everywhere
    for &rows in &[8usize, 16, 32] {
        let a_small = sparse_matrix(rows, TUNE_K, &mut rng);
        let mut o_small = Matrix::zeros(rows, TUNE_N);
        let axpy = Exec::from_plan(KernelPlan {
            backend,
            tiled_min_rows: usize::MAX,
            ..KernelPlan::inline()
        });
        let tiled = Exec::from_plan(KernelPlan {
            backend,
            tile_cols,
            panel_k,
            tiled_min_rows: 1,
            ..KernelPlan::inline()
        });
        let t_axpy = bench(reps, || {
            a_small.matmul_into_exec(&b, &mut o_small, &axpy).expect("tune shapes agree");
        });
        let t_tiled = bench(reps, || {
            a_small.matmul_into_exec(&b, &mut o_small, &tiled).expect("tune shapes agree");
        });
        if t_tiled < t_axpy {
            tiled_min_rows = rows;
            break;
        }
    }

    // Stage 3: thread count on a training-shaped workload (forward GEMM +
    // both backward GEMMs), with hysteresis towards fewer threads.
    let tuned = KernelPlan {
        backend,
        tile_cols,
        panel_k,
        tiled_min_rows,
        ..KernelPlan::inline()
    }
    .sanitized();
    let delta = dense_matrix(TUNE_M, TUNE_N, &mut rng);
    let w = dense_matrix(TUNE_K, TUNE_N, &mut rng);
    let mut dw = Matrix::zeros(TUNE_K, TUNE_N);
    let mut dx = Matrix::zeros(TUNE_M, TUNE_K);
    let mut packed = Matrix::default();
    let max_threads = available_threads();
    let mut timings: Vec<(usize, f64)> = Vec::new();
    for &threads in &[1usize, 2, 4, 8, 16] {
        if threads > max_threads {
            break;
        }
        let exec = Exec::from_plan(tuned.with_threads(threads));
        let t = bench(reps, || {
            a.matmul_into_exec(&b, &mut out, &exec).expect("tune shapes agree");
            a.transpose_matmul_into_packed(&delta, &mut dw, &mut packed, &exec)
                .expect("tune shapes agree");
            delta
                .matmul_transpose_into_exec(&w, &mut dx, &exec)
                .expect("tune shapes agree");
        });
        timings.push((threads, t));
    }
    let best_time = timings.iter().map(|&(_, t)| t).fold(f64::INFINITY, f64::min);
    let threads = timings
        .iter()
        .find(|&&(_, t)| t <= best_time * 1.05)
        .map(|&(n, _)| n)
        .unwrap_or(1);

    tuned.with_threads(threads)
}

/// Minimum wall-time over `reps` repetitions of [`AUTOTUNE_ITERS`] calls.
fn bench(reps: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm-up: page in buffers, settle the branch predictor
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let start = std::time::Instant::now();
        for _ in 0..AUTOTUNE_ITERS {
            f();
        }
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// Uniform matrix with ~50% exact zeros — the post-ReLU activation
/// profile the zero-skipping kernels are specialised for.
fn sparse_matrix(rows: usize, cols: usize, rng: &mut SeededRng) -> Matrix {
    let data = (0..rows * cols)
        .map(|_| {
            if rng.chance(0.5) {
                0.0
            } else {
                rng.uniform(-1.0, 1.0)
            }
        })
        .collect();
    Matrix::from_vec(rows, cols, data).expect("sized to shape")
}

/// Dense uniform matrix (weights, deltas).
fn dense_matrix(rows: usize, cols: usize, rng: &mut SeededRng) -> Matrix {
    let data = (0..rows * cols).map(|_| rng.uniform(-1.0, 1.0)).collect();
    Matrix::from_vec(rows, cols, data).expect("sized to shape")
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A cached plan file is untrusted bytes: no bit flip or
        /// truncation may panic the parser, a truncated plan never
        /// parses, and any plan a flip still parses to is sanitized and
        /// round-trips through `to_json`.
        #[test]
        fn from_json_never_panics_on_flips_or_truncation(
            pos in any::<u64>(),
            bit in 0u8..8,
            cut in any::<u64>(),
        ) {
            let good = KernelPlan {
                threads: 4,
                tiled_min_rows: 24,
                panel_k: 512,
                par_min_rows: 128,
                ..KernelPlan::inline()
            }
            .to_json()
            .into_bytes();
            let mut flipped = good.clone();
            flipped[(pos % good.len() as u64) as usize] ^= 1 << bit;
            if let Ok(plan) = KernelPlan::from_json(&String::from_utf8_lossy(&flipped)) {
                prop_assert_eq!(plan, plan.sanitized());
                prop_assert_eq!(KernelPlan::from_json(&plan.to_json()).unwrap(), plan);
            }
            let cut = (cut % good.len() as u64) as usize;
            prop_assert!(KernelPlan::from_json(&String::from_utf8_lossy(&good[..cut])).is_err());
        }
    }

    #[test]
    fn inline_plan_matches_pr1_constants() {
        let p = KernelPlan::inline();
        assert_eq!(p.threads, 1);
        assert_eq!(p.tile_cols, 32);
        assert_eq!(p.tiled_min_rows, crate::matrix::TILED_MIN_ROWS);
        assert_eq!(p.panel_k, 256);
    }

    #[test]
    fn sanitize_clamps_garbage() {
        let p = KernelPlan {
            version: 999,
            threads: 0,
            tile_cols: 7,
            tiled_min_rows: 0,
            panel_k: 1,
            par_min_rows: 0,
            backend: Backend::Neon,
        }
        .sanitized();
        assert_eq!(p.version, PLAN_VERSION);
        assert_eq!(p.threads, 1);
        assert_eq!(p.tile_cols, 16);
        assert!(p.tiled_min_rows >= 4);
        assert!(p.panel_k >= 32);
        assert!(p.par_min_rows >= 8);
        // An unavailable backend degrades to scalar; an available one
        // survives. Either way the sanitized plan can always dispatch.
        assert!(p.backend.is_available());
    }

    #[test]
    fn with_backend_degrades_unavailable_to_scalar() {
        for b in [Backend::Scalar, Backend::Avx2, Backend::Neon] {
            let p = KernelPlan::inline().with_backend(b);
            assert!(p.backend.is_available());
            if b.is_available() {
                assert_eq!(p.backend, b);
            } else {
                assert_eq!(p.backend, Backend::Scalar);
            }
        }
    }

    #[test]
    fn v2_plan_without_backend_is_rejected_and_falls_back() {
        // A faithful v2 cache file: no `backend` field, version 2. The
        // serde default lets it *parse*, but the version gate must still
        // reject it so stale tunings re-run instead of mis-steering.
        let v2_json = r#"{
            "version": 2,
            "threads": 4,
            "tile_cols": 16,
            "tiled_min_rows": 8,
            "panel_k": 128,
            "par_min_rows": 32,
            "i8_tile_cols": 16,
            "i8_tiled_min_rows": 8
        }"#;
        assert!(matches!(
            KernelPlan::from_json(v2_json),
            Err(TensorError::Decode(_))
        ));
        let dir = std::env::temp_dir().join("magneto_plan_v2_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("plan.json");
        std::fs::write(&path, v2_json).unwrap();
        assert_eq!(KernelPlan::load_or_default(&path), KernelPlan::host_default());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn current_version_plan_without_backend_defaults_to_scalar() {
        // Forward-compat within v3: hand-edited plans may omit the
        // backend; serde's default fills in the safe scalar instance.
        let json = format!(
            r#"{{
            "version": {PLAN_VERSION},
            "threads": 2,
            "tile_cols": 32,
            "tiled_min_rows": 16,
            "panel_k": 256,
            "par_min_rows": 32,
            "i8_tile_cols": 32,
            "i8_tiled_min_rows": 16
        }}"#
        );
        let plan = KernelPlan::from_json(&json).unwrap();
        assert_eq!(plan.backend, Backend::Scalar);
    }

    #[test]
    fn v3_plan_with_retired_int8_fields_loads_intact() {
        // A plan cached before the int8 GEMM lost its tile knobs and its
        // backend. Unknown fields are ignored, so it must load as itself:
        // same f32 backend, same scheduling values, no fallback to
        // `host_default` and no version bump.
        let backend = Backend::detect();
        let json = format!(
            r#"{{
            "version": 3,
            "threads": 3,
            "tile_cols": 16,
            "tiled_min_rows": 8,
            "panel_k": 128,
            "par_min_rows": 64,
            "i8_tile_cols": 16,
            "i8_tiled_min_rows": 8,
            "backend": "{backend}",
            "i8_backend": "{backend}"
        }}"#
        );
        let expect = KernelPlan {
            version: 3,
            threads: 3,
            tile_cols: 16,
            tiled_min_rows: 8,
            panel_k: 128,
            par_min_rows: 64,
            backend,
        };
        assert_eq!(KernelPlan::from_json(&json).unwrap(), expect);
        let dir = std::env::temp_dir().join(format!("magneto_plan_v3_retired_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("plan.json");
        std::fs::write(&path, &json).unwrap();
        assert_eq!(KernelPlan::load_or_default(&path), expect);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn two_saves_of_one_path_use_distinct_temp_files() {
        let path = Path::new("/data/plan.json");
        let (t1, t2) = (unique_tmp_path(path), unique_tmp_path(path));
        assert_ne!(t1, t2, "two saves of the same path share a temp file");
        let pid = std::process::id();
        assert!(t1.to_string_lossy().starts_with(&format!("/data/plan.json.tmp.{pid}.")));
    }

    #[test]
    fn concurrent_saves_always_leave_a_complete_plan() {
        // Two writers race saves of different plans to one path while a
        // reader loads it. Under the old shared `plan.tmp` scheme a load
        // could see one writer's half-written file; with a unique temp
        // file per save, every load is exactly one of the two plans.
        let dir = std::env::temp_dir().join(format!("magneto_plan_race_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("plan.json");
        let a = KernelPlan::inline().with_threads(2);
        let b = KernelPlan {
            tile_cols: 16,
            panel_k: 128,
            ..KernelPlan::inline().with_threads(4)
        };
        a.save(&path).unwrap();
        std::thread::scope(|s| {
            for plan in [a, b] {
                let path = &path;
                s.spawn(move || {
                    for _ in 0..25 {
                        plan.save(path).unwrap();
                    }
                });
            }
            for _ in 0..50 {
                let loaded = KernelPlan::load(&path).expect("a complete plan is always on disk");
                assert!(loaded == a || loaded == b, "hybrid plan {loaded:?}");
            }
        });
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|n| n != "plan.json")
            .collect();
        assert!(leftovers.is_empty(), "temp files left behind: {leftovers:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_plan_file_falls_back_to_default() {
        let dir = std::env::temp_dir().join("magneto_plan_corrupt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("plan.json");
        std::fs::write(&path, "{ not json at all").unwrap();
        assert_eq!(KernelPlan::load_or_default(&path), KernelPlan::host_default());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn json_roundtrip_preserves_plan() {
        let p = KernelPlan::host_default().with_threads(3);
        let back = KernelPlan::from_json(&p.to_json()).unwrap();
        assert_eq!(p, back);
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let mut p = KernelPlan::inline();
        p.version = PLAN_VERSION + 1;
        let json = serde_json::to_string(&p).unwrap();
        assert!(matches!(
            KernelPlan::from_json(&json),
            Err(TensorError::Decode(_))
        ));
    }

    #[test]
    fn describe_mentions_threads_tile_and_backend() {
        let d = KernelPlan::inline().describe();
        assert!(d.contains("backend=scalar"));
        assert!(d.contains("threads=1"));
        assert!(d.contains("tile=4x32"));
        // The int8 GEMM has no knobs left to describe.
        assert!(!d.contains("i8_"), "{d}");
    }
}
