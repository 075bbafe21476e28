//! Tiling scheme: the *what-is-tiled* half of the kernel layer.
//!
//! Every GEMM in this crate decomposes the same way, at three levels
//! (the decomposition is modeled on kubecl's tile/stage/global matmul
//! components, specialised to CPU):
//!
//! * **tile** — the micro-kernel's register tile: a fixed number of
//!   output rows × columns whose accumulators live in vector registers
//!   for an entire k-panel;
//! * **stage** — the K-panel staging: a `panel_k`-deep strip of the rhs
//!   is packed into a contiguous, double-buffered staging buffer that
//!   every row tile of the panel reads, so the micro-kernel sees unit
//!   stride regardless of the rhs leading dimension;
//! * **global** — the output-row-panel partition that
//!   [`crate::pool::Exec::run_row_panels`] spreads across the compute
//!   pool, aligned to the tile height so tile membership is identical
//!   to a sequential run (the bit-identity requirement of DESIGN.md §11).
//!
//! A [`TilingScheme`] describes that decomposition as a value; a
//! [`Backend`] names *which micro-kernel instance executes the tile*
//! (portable scalar, AVX2+FMA, NEON). Keeping the two separate is the
//! seam of the refactor: scheduling parameters come from the autotuned
//! [`KernelPlan`](crate::plan::KernelPlan), ISA choice is detected at
//! runtime and persisted alongside them, and the loop structure in
//! [`crate::kernels`] is shared by every backend — so the scalar path
//! keeps its bit-identity guarantees while SIMD backends slot in behind
//! the same loops.
//!
//! The int8 GEMM is the degenerate case of the scheme: a 1-row ×
//! full-width tile (the i32 accumulator row), no stage, and no pool
//! alignment. Its kernel streams W contiguously, so there is nothing to
//! pack, and one row per unit of work leaves nothing to tune — see
//! [`TilingScheme::i8_gemm`].

use serde::{Deserialize, Serialize};

use crate::error::TensorError;
use crate::plan::KernelPlan;
use crate::Result;

/// Which micro-kernel instance executes a tile.
///
/// `Scalar` is always available and is the reference every other
/// backend is measured against: the scalar kernels are bit-identical to
/// the pre-SIMD code and property-tested against the naive oracle. SIMD
/// backends are *accuracy-gated instead of bit-gated* (see DESIGN.md
/// §14): float SIMD may round differently from the scalar `mul_add`
/// chain on some builds, so the acceptance bar is prediction agreement
/// ≥ 0.99 plus elementwise tolerance, not byte equality. The int8
/// distance kernels accumulate in exact integer arithmetic and therefore
/// *are* bit-identical across backends; the int8 GEMM has a single
/// portable kernel and ignores the backend.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Portable scalar micro-kernels (lane-parallel loops the compiler
    /// auto-vectorises). Always available; the bit-identity reference.
    #[default]
    Scalar,
    /// AVX2 + FMA intrinsics on `x86_64`, runtime-detected.
    Avx2,
    /// NEON intrinsics on `aarch64` (baseline feature there).
    Neon,
}

impl Backend {
    /// Canonical lowercase name (JSON value, banner text).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2",
            Backend::Neon => "neon",
        }
    }

    /// Parse a CLI-style name.
    ///
    /// # Errors
    /// [`TensorError::Decode`] on anything other than
    /// `scalar` / `avx2` / `neon`.
    pub fn parse(s: &str) -> Result<Self> {
        match s {
            "scalar" => Ok(Backend::Scalar),
            "avx2" => Ok(Backend::Avx2),
            "neon" => Ok(Backend::Neon),
            other => Err(TensorError::Decode(format!(
                "unknown backend `{other}` (expected `scalar`, `avx2` or `neon`)"
            ))),
        }
    }

    /// `true` when this backend can run on the current host. Checked at
    /// runtime (not compile time) so one binary serves heterogeneous
    /// fleets: an AVX2 plan cached by one device degrades to scalar on
    /// another instead of faulting.
    pub fn is_available(self) -> bool {
        match self {
            Backend::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => {
                std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("fma")
            }
            #[cfg(not(target_arch = "x86_64"))]
            Backend::Avx2 => false,
            // NEON is a baseline feature of aarch64; presence of the
            // architecture is presence of the ISA.
            Backend::Neon => cfg!(target_arch = "aarch64"),
        }
    }

    /// The best SIMD backend the host supports, if any. `None` means
    /// the scalar fallback is the only option (e.g. x86_64 without
    /// AVX2, or a non-x86/ARM architecture).
    pub fn detect_simd() -> Option<Backend> {
        [Backend::Avx2, Backend::Neon]
            .into_iter()
            .find(|b| b.is_available())
    }

    /// Best available backend: the detected SIMD instance, or scalar.
    pub fn detect() -> Backend {
        Backend::detect_simd().unwrap_or(Backend::Scalar)
    }

    /// Every backend the host can run, scalar first — the enumeration
    /// order the autotuner sweeps.
    pub fn candidates() -> Vec<Backend> {
        let mut out = vec![Backend::Scalar];
        out.extend(Backend::detect_simd());
        out
    }

    /// One-line host ISA summary for startup banners and smoke-test
    /// logs, e.g. `x86_64 (avx2+fma: yes)`.
    pub fn isa_summary() -> String {
        let arch = std::env::consts::ARCH;
        match Backend::detect_simd() {
            Some(b) => format!("{arch} (simd: {})", b.name()),
            None => format!("{arch} (simd: none)"),
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

// Manual serde impls (the derive would use the Rust variant names):
// backends persist as their lowercase CLI names, so the cached-plan JSON
// reads `"backend": "avx2"` and rejects unknown strings with the same
// error as `Backend::parse`.
impl Serialize for Backend {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.name().to_string())
    }
}

impl Deserialize for Backend {
    fn from_value(v: &serde::Value) -> serde::Result<Self> {
        let s = v
            .as_str()
            .ok_or_else(|| serde::Error::expected("string", "Backend"))?;
        Backend::parse(s).map_err(|e| serde::Error::custom(e.to_string()))
    }
}

/// The register-tile level: output rows × columns whose accumulators a
/// micro-kernel keeps in registers across a whole k-panel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileLevel {
    /// Tile height in output rows (4 for every kernel in this crate).
    pub rows: usize,
    /// Tile width in output columns (16 or 32, from the plan).
    pub cols: usize,
}

/// The staging level: how deep a K-panel of the rhs is packed into the
/// contiguous staging buffers before the row tiles consume it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageLevel {
    /// K-panel depth; the rhs strip re-read per row block stays L1/L2
    /// resident at this depth.
    pub panel_k: usize,
    /// Number of staging buffers ping-ponged across consecutive
    /// k-panels (2 = double-buffered, kubecl-style: the pack of panel
    /// `p+1` lands in the buffer panel `p-1` vacated, so the stores of
    /// the pack never collide with the loads still streaming out of the
    /// panel the tiles are consuming).
    pub buffers: usize,
}

/// The global level: how output rows are partitioned across the
/// compute pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GlobalLevel {
    /// Row-panel alignment — a multiple of [`TileLevel::rows`], so tile
    /// membership is invariant under the thread count.
    pub align: usize,
    /// Minimum output rows before a GEMM is split across pool threads.
    pub par_min_rows: usize,
}

/// The complete three-level decomposition for one GEMM family.
///
/// Built from a [`KernelPlan`] (which is where the values are autotuned
/// and persisted); consumed by [`crate::kernels`] together with a
/// [`Backend`] picking the micro-kernel instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TilingScheme {
    /// Micro-kernel register tile shape.
    pub tile: TileLevel,
    /// K-panel staging depth and buffer count.
    pub stage: StageLevel,
    /// Pool partition of the output rows.
    pub global: GlobalLevel,
}

impl TilingScheme {
    /// The scheme for the f32 forward/fused GEMMs under `plan`.
    pub fn f32_gemm(plan: &KernelPlan) -> Self {
        TilingScheme {
            tile: TileLevel {
                rows: crate::matrix::TILE_ROWS,
                cols: plan.tile_cols,
            },
            stage: StageLevel {
                panel_k: plan.panel_k.max(1),
                buffers: 2,
            },
            global: GlobalLevel {
                align: crate::matrix::TILE_ROWS,
                par_min_rows: plan.par_min_rows,
            },
        }
    }

    /// The scheme for the i8×i8→i32 GEMM under `plan`: no register
    /// tile and no packing stage. The kernel streams one activation row
    /// against all of W (k-outer, n-inner, two k-rows per step) into a
    /// full-width i32 accumulator row, so W is read contiguously once
    /// per row at full depth, and the [`crate::quant`] accumulator bound
    /// makes that single pass safe. A row is the unit of work, so the
    /// pool split needs no alignment.
    pub fn i8_gemm(plan: &KernelPlan) -> Self {
        TilingScheme {
            tile: TileLevel {
                rows: 1,
                cols: usize::MAX,
            },
            stage: StageLevel {
                panel_k: usize::MAX,
                buffers: 0,
            },
            global: GlobalLevel {
                align: 1,
                par_min_rows: plan.par_min_rows,
            },
        }
    }

    /// The scheme for the i8 distance family (the [`crate::qdist`]
    /// coarse scans of the NCM index): 4-row × full-width dot tiles
    /// sharing the query loads (`qdot4`), no packing stage (rows are
    /// stored contiguously already), rows never split across the pool —
    /// one coarse scan is far below any parallel threshold.
    pub fn i8_distance(_plan: &KernelPlan) -> Self {
        TilingScheme {
            tile: TileLevel {
                rows: 4,
                cols: usize::MAX,
            },
            stage: StageLevel {
                panel_k: usize::MAX,
                buffers: 0,
            },
            global: GlobalLevel {
                align: 4,
                par_min_rows: usize::MAX,
            },
        }
    }

    /// One-line summary for banners: `tile=4x32 panel_k=256 align=4`.
    pub fn describe(&self) -> String {
        format!(
            "tile={}x{} panel_k={} align={}",
            self.tile.rows,
            if self.tile.cols == usize::MAX {
                "full".to_string()
            } else {
                self.tile.cols.to_string()
            },
            if self.stage.panel_k == usize::MAX {
                "full".to_string()
            } else {
                self.stage.panel_k.to_string()
            },
            self.global.align
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_is_always_available() {
        assert!(Backend::Scalar.is_available());
        assert!(Backend::candidates().contains(&Backend::Scalar));
        // detect() never returns an unavailable backend.
        assert!(Backend::detect().is_available());
    }

    #[test]
    fn detect_simd_matches_availability() {
        match Backend::detect_simd() {
            Some(b) => {
                assert!(b.is_available());
                assert_ne!(b, Backend::Scalar);
            }
            None => {
                assert!(!Backend::Avx2.is_available());
                assert!(!Backend::Neon.is_available());
            }
        }
    }

    #[test]
    fn backend_names_round_trip() {
        for b in [Backend::Scalar, Backend::Avx2, Backend::Neon] {
            assert_eq!(Backend::parse(b.name()).unwrap(), b);
            assert_eq!(b.to_string(), b.name());
        }
        assert!(Backend::parse("sse9").is_err());
    }

    #[test]
    fn backend_serde_is_lowercase_string() {
        let json = serde_json::to_string(&Backend::Avx2).unwrap();
        assert_eq!(json, "\"avx2\"");
        let back: Backend = serde_json::from_str("\"scalar\"").unwrap();
        assert_eq!(back, Backend::Scalar);
        assert!(serde_json::from_str::<Backend>("\"mmx\"").is_err());
    }

    #[test]
    fn schemes_reflect_plan_fields() {
        let plan = KernelPlan::inline();
        let f = TilingScheme::f32_gemm(&plan);
        assert_eq!(f.tile.rows, 4);
        assert_eq!(f.tile.cols, plan.tile_cols);
        assert_eq!(f.stage.panel_k, plan.panel_k);
        assert_eq!(f.stage.buffers, 2);
        let q = TilingScheme::i8_gemm(&plan);
        assert_eq!((q.tile.rows, q.tile.cols), (1, usize::MAX));
        assert_eq!(q.stage.buffers, 0);
        assert_eq!(q.global.align, 1);
        assert_eq!(q.global.par_min_rows, plan.par_min_rows);
        assert!(f.describe().contains("tile=4x"));
        assert!(q.describe().contains("tile=1xfull panel_k=full"));
    }

    #[test]
    fn isa_summary_names_the_arch() {
        assert!(Backend::isa_summary().contains(std::env::consts::ARCH));
    }
}
