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
//! AVX-512, NEON); the ISA is detected at runtime, and the loop structure in
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
/// the pre-SIMD code and property-tested against the naive oracle.
/// Every SIMD instance keeps the scalar kernel's operation sequence per
/// output element — one fused multiply-add chain in ascending `k`, and
/// the dot products' 8-lane split summed in lane order — so on a build
/// whose `fma` helper is a hardware FMA (the workspace builds with
/// `-C target-cpu=native`) the f32 results are bit-identical on every
/// backend, and the tests gate them on `to_bits` (DESIGN.md §14). On a
/// build without FMA the scalar `fma` rounds twice while the intrinsics
/// fuse, so there the gate is elementwise tolerance. The int8 kernels
/// (the GEMM tile and the distance kernels) accumulate in exact integer
/// arithmetic and are bit-identical on every build.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Portable scalar micro-kernels (lane-parallel loops the compiler
    /// auto-vectorises). Always available; the bit-identity reference.
    #[default]
    Scalar,
    /// AVX2 + FMA intrinsics on `x86_64`, runtime-detected.
    Avx2,
    /// AVX-512F + VL + FMA on `x86_64`, runtime-detected. It has its own
    /// instance of the two f32 tiles only (the 512-bit broadcast-FMA tile
    /// and a 4×4 dot-product tile that needs VL's 32 vector registers);
    /// every other kernel runs the [`Backend::Avx2`] instance.
    Avx512,
    /// NEON intrinsics on `aarch64` (baseline feature there).
    Neon,
}

impl Backend {
    /// Canonical lowercase name (banner and provenance text).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2",
            Backend::Avx512 => "avx512",
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
            // The instance set reuses the AVX2 kernels, so it needs
            // everything `Avx2` does.
            #[cfg(target_arch = "x86_64")]
            Backend::Avx512 => {
                Backend::Avx2.is_available()
                    && std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx512vl")
            }
            #[cfg(not(target_arch = "x86_64"))]
            Backend::Avx2 | Backend::Avx512 => false,
            // NEON is a baseline feature of aarch64; presence of the
            // architecture is presence of the ISA.
            Backend::Neon => cfg!(target_arch = "aarch64"),
        }
    }

    /// Every backend, the reference first and then the SIMD instances
    /// in order of preference.
    pub const ALL: [Backend; 4] = [
        Backend::Scalar,
        Backend::Avx512,
        Backend::Avx2,
        Backend::Neon,
    ];

    /// The best SIMD backend the host supports, if any. `None` means
    /// the scalar fallback is the only option (e.g. x86_64 without
    /// AVX2, or a non-x86/ARM architecture).
    pub fn detect_simd() -> Option<Backend> {
        Backend::ALL[1..].iter().copied().find(|b| b.is_available())
    }

    /// Best available backend: the detected SIMD instance, or scalar.
    pub fn detect() -> Backend {
        Backend::detect_simd().unwrap_or(Backend::Scalar)
    }

    /// Every backend the host can run, scalar first — the sweep order of
    /// the cross-backend bit-identity tests. On an AVX-512 host that is
    /// scalar, `Avx512` and `Avx2`: the preferred instance does not hide
    /// the one it delegates to.
    pub fn candidates() -> Vec<Backend> {
        Backend::ALL
            .into_iter()
            .filter(|b| b.is_available())
            .collect()
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
            None => assert_eq!(Backend::candidates(), [Backend::Scalar]),
        }
    }

    #[test]
    fn candidates_are_every_available_backend() {
        let all = Backend::candidates();
        assert_eq!(all[0], Backend::Scalar);
        for b in Backend::ALL {
            assert_eq!(all.contains(&b), b.is_available(), "{b}");
        }
        // The preferred instance delegates to AVX2, so it never shows up
        // without it.
        if Backend::Avx512.is_available() {
            assert!(Backend::Avx2.is_available());
            assert_eq!(Backend::detect(), Backend::Avx512);
        }
    }

    #[test]
    fn backend_names_round_trip() {
        for b in Backend::ALL {
            // Names are unique, so a name leads back to its backend.
            let back = Backend::ALL.into_iter().find(|c| c.name() == b.name());
            assert_eq!(back, Some(b));
            assert_eq!(b.to_string(), b.name());
        }
    }

    #[test]
    fn isa_summary_names_the_arch() {
        assert!(Backend::isa_summary().contains(std::env::consts::ARCH));
    }
}
