//! Tiling: how every f32 GEMM in this crate is decomposed, and which
//! micro-kernel instance executes the innermost level.
//!
//! The batched f32 GEMM decomposes at three levels (modeled on kubecl's
//! tile/stage/global matmul components, specialised to CPU):
//!
//! * **tile** — the micro-kernel's 4×32 register tile: output rows ×
//!   columns whose accumulators live in vector registers for an entire
//!   k-panel;
//! * **stage** — the K-panel staging: a 256-deep strip of the rhs is
//!   packed into a contiguous, double-buffered staging buffer that every
//!   row tile of the panel reads, so the micro-kernel sees unit stride
//!   regardless of the rhs leading dimension;
//! * **global** — the output-row-panel partition that
//!   [`crate::pool::Exec::run_row_panels`] spreads across the compute
//!   pool, aligned to the tile height so tile membership is identical
//!   to a sequential run (the bit-identity requirement of DESIGN.md §11).
//!
//! The tile and stage sizes are fixed constants of the kernels; only
//! scheduling (thread count, dispatch thresholds) comes from the
//! [`KernelPlan`](crate::plan::KernelPlan). A [`Backend`] names *which
//! micro-kernel instance executes the tile* (portable scalar, AVX2+FMA,
//! NEON); the ISA is detected at runtime, and the loop structure in
//! [`crate::kernels`] is shared by every backend — so the scalar path
//! keeps its bit-identity guarantees while SIMD backends slot in behind
//! the same loops.
//!
//! The int8 GEMM ([`crate::quant`]) uses the same tile and global
//! levels — a 3-row × 16-column register tile, row panels aligned to
//! it — but no stage: its weights are packed once, when the matrix is
//! quantised, into the block layout the tile reads.

/// Which micro-kernel instance executes a tile.
///
/// `Scalar` is always available and is the reference every other
/// backend is measured against: the scalar kernels are bit-identical to
/// the pre-SIMD code and property-tested against the naive oracle. SIMD
/// backends are *accuracy-gated instead of bit-gated* (see DESIGN.md
/// §14): float SIMD may round differently from the scalar `mul_add`
/// chain on some builds, so the acceptance bar is prediction agreement
/// ≥ 0.99 plus elementwise tolerance, not byte equality. The int8
/// kernels (the GEMM tile and the distance kernels) accumulate in exact
/// integer arithmetic and therefore *are* bit-identical across backends.
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
    /// Canonical lowercase name (banner and provenance text).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2",
            Backend::Neon => "neon",
        }
    }

    /// `true` when this backend can run on the current host. Checked at
    /// runtime (not compile time) so one binary serves heterogeneous
    /// fleets: a plan naming AVX2 degrades to scalar on a host without
    /// it instead of faulting.
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

    /// Every backend the host can run, scalar first — the sweep order of
    /// the cross-backend bit-identity tests.
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
        const ALL: [Backend; 3] = [Backend::Scalar, Backend::Avx2, Backend::Neon];
        for b in ALL {
            // Names are unique, so a name leads back to its backend.
            let back = ALL.into_iter().find(|c| c.name() == b.name());
            assert_eq!(back, Some(b));
            assert_eq!(b.to_string(), b.name());
        }
    }

    #[test]
    fn isa_summary_names_the_arch() {
        assert!(Backend::isa_summary().contains(std::env::consts::ARCH));
    }
}
