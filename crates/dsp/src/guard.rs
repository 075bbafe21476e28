//! Entry-point signal guard: finite-value sanitisation and per-channel
//! health tracking.
//!
//! Everything downstream of the pipeline entry — denoise kernels,
//! feature extraction, normalisation, the embedding MLP — assumes finite
//! inputs. A single NaN from a glitched I²C read would otherwise
//! propagate through every statistic of the window and poison the
//! embedding silently. The guard repairs such values *at the boundary*
//! (last-good-value hold, the standard treatment for stuck/invalid
//! samples in embedded DSP) and reports what it did, so callers can
//! flag the result [`SignalQuality::Degraded`] instead of shipping
//! garbage with a confident face.

use serde::{Deserialize, Serialize};

/// Whether the signal feeding a result was clean or repaired.
///
/// `Degraded` does not mean *wrong* — it means at least one sample in
/// the window was non-finite or out of range and was repaired before
/// processing, so the caller should weigh the output accordingly
/// (e.g. skip it for on-device training, or require more smoothing
/// before acting on it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum SignalQuality {
    /// Every sample in the window was finite and in range.
    #[default]
    Nominal,
    /// At least one sample was repaired at pipeline entry.
    Degraded,
}

impl SignalQuality {
    /// `true` for [`SignalQuality::Degraded`].
    pub fn is_degraded(self) -> bool {
        matches!(self, SignalQuality::Degraded)
    }

    /// Worst of the two (`Degraded` absorbs).
    pub fn merge(self, other: SignalQuality) -> SignalQuality {
        if self.is_degraded() || other.is_degraded() {
            SignalQuality::Degraded
        } else {
            SignalQuality::Nominal
        }
    }
}

/// What counts as a repairable sample.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GuardConfig {
    /// Absolute-value ceiling; anything above it (or non-finite) is
    /// treated as a sensor fault and repaired. Physical channels top out
    /// around 10³ (pressure in hPa, light in lux), so the default leaves
    /// two orders of magnitude of headroom while still catching railed
    /// ADC reads and float garbage.
    pub max_abs: f32,
}

impl Default for GuardConfig {
    fn default() -> Self {
        GuardConfig { max_abs: 1.0e6 }
    }
}

impl GuardConfig {
    /// `true` when `v` needs repair under this config.
    #[inline]
    pub fn is_faulty(&self, v: f32) -> bool {
        !v.is_finite() || v.abs() > self.max_abs
    }
}

/// Repair a whole channel-major window in place: each faulty sample is
/// replaced by the previous good sample of the *same* channel; faulty
/// samples before the first good one take the first good value (or 0.0
/// when the entire channel is faulty). Returns the number of samples
/// repaired.
pub fn scrub_window(channels: &mut [Vec<f32>], cfg: &GuardConfig) -> usize {
    let mut repaired = 0;
    for ch in channels.iter_mut() {
        // Seed for leading faults: the first good sample, else 0.0.
        let seed = ch.iter().copied().find(|&v| !cfg.is_faulty(v)).unwrap_or(0.0);
        let mut last_good = seed;
        for v in ch.iter_mut() {
            if cfg.is_faulty(*v) {
                *v = last_good;
                repaired += 1;
            } else {
                last_good = *v;
            }
        }
    }
    repaired
}

/// `true` when every sample of every channel is clean under `cfg`.
///
/// Each channel folds `|v| <= limit` over all its samples without a
/// branch, so the scan vectorises; the comparison is false for NaN and,
/// with the limit capped at `f32::MAX`, for ±inf, so the verdict is
/// [`GuardConfig::is_faulty`]'s for every config (a NaN `max_abs`
/// flags only non-finite samples, as `is_faulty` does). The scan still
/// stops at the first faulty channel.
pub fn window_is_clean(channels: &[Vec<f32>], cfg: &GuardConfig) -> bool {
    let limit = cfg.max_abs.min(f32::MAX);
    channels
        .iter()
        .all(|ch| ch.iter().fold(true, |clean, &v| clean & (v.abs() <= limit)))
}

/// Streaming sample guard with per-channel health counters.
///
/// Sits at the front of a real-time session: every incoming frame's
/// values pass through [`scrub`](FrameGuard::scrub), which holds the
/// last good value per channel across frames (unlike [`scrub_window`],
/// whose hold is confined to one window).
#[derive(Debug, Clone)]
pub struct FrameGuard {
    cfg: GuardConfig,
    /// Last good value per channel; `None` until the channel has
    /// produced one (repairs before then write 0.0).
    last: Vec<Option<f32>>,
    /// Repairs per channel since construction (the health signal).
    repaired_per_channel: Vec<u64>,
    frames: u64,
    repaired_total: u64,
}

impl FrameGuard {
    /// Guard for frames of `channels` values.
    pub fn new(channels: usize, cfg: GuardConfig) -> Self {
        FrameGuard {
            cfg,
            last: vec![None; channels],
            repaired_per_channel: vec![0; channels],
            frames: 0,
            repaired_total: 0,
        }
    }

    /// The active config.
    pub fn config(&self) -> &GuardConfig {
        &self.cfg
    }

    /// Repair one frame's values in place; returns how many samples were
    /// repaired. Frames of the wrong arity are left untouched (the
    /// segmenter rejects them downstream).
    pub fn scrub(&mut self, values: &mut [f32]) -> usize {
        if values.len() != self.last.len() {
            return 0;
        }
        self.frames += 1;
        let mut repaired = 0;
        for (c, v) in values.iter_mut().enumerate() {
            if self.cfg.is_faulty(*v) {
                *v = self.last[c].unwrap_or(0.0);
                self.repaired_per_channel[c] += 1;
                repaired += 1;
            } else {
                self.last[c] = Some(*v);
            }
        }
        self.repaired_total += repaired as u64;
        repaired
    }

    /// Frames scrubbed so far.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Total samples repaired so far.
    pub fn repaired_total(&self) -> u64 {
        self.repaired_total
    }

    /// Repairs per channel since construction.
    pub fn repaired_per_channel(&self) -> &[u64] {
        &self.repaired_per_channel
    }

    /// Index and repair count of the least healthy channel, if any
    /// repairs happened at all.
    pub fn worst_channel(&self) -> Option<(usize, u64)> {
        self.repaired_per_channel
            .iter()
            .copied()
            .enumerate()
            .filter(|&(_, n)| n > 0)
            .max_by_key(|&(_, n)| n)
    }

    /// Forget the held values (new session) but keep the health counters.
    pub fn reset_hold(&mut self) {
        for v in &mut self.last {
            *v = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quality_merge_and_default() {
        assert_eq!(SignalQuality::default(), SignalQuality::Nominal);
        assert!(!SignalQuality::Nominal.is_degraded());
        assert!(SignalQuality::Degraded.is_degraded());
        assert_eq!(
            SignalQuality::Nominal.merge(SignalQuality::Degraded),
            SignalQuality::Degraded
        );
        assert_eq!(
            SignalQuality::Nominal.merge(SignalQuality::Nominal),
            SignalQuality::Nominal
        );
    }

    #[test]
    fn faulty_detection() {
        let cfg = GuardConfig::default();
        assert!(cfg.is_faulty(f32::NAN));
        assert!(cfg.is_faulty(f32::INFINITY));
        assert!(cfg.is_faulty(f32::NEG_INFINITY));
        assert!(cfg.is_faulty(2.0e6));
        assert!(!cfg.is_faulty(0.0));
        assert!(!cfg.is_faulty(-9.81));
    }

    #[test]
    fn scrub_window_holds_last_good() {
        let cfg = GuardConfig::default();
        let mut w = vec![vec![1.0, f32::NAN, f32::NAN, 4.0, f32::INFINITY]];
        let n = scrub_window(&mut w, &cfg);
        assert_eq!(n, 3);
        assert_eq!(w[0], vec![1.0, 1.0, 1.0, 4.0, 4.0]);
    }

    #[test]
    fn scrub_window_leading_faults_take_first_good() {
        let cfg = GuardConfig::default();
        let mut w = vec![vec![f32::NAN, f32::NAN, 3.0, 4.0]];
        scrub_window(&mut w, &cfg);
        assert_eq!(w[0], vec![3.0, 3.0, 3.0, 4.0]);
    }

    #[test]
    fn scrub_window_all_faulty_channel_zeroes() {
        let cfg = GuardConfig::default();
        let mut w = vec![vec![f32::NAN, f32::INFINITY, 2.0e7]];
        let n = scrub_window(&mut w, &cfg);
        assert_eq!(n, 3);
        assert_eq!(w[0], vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn window_is_clean_detects_faults() {
        let cfg = GuardConfig::default();
        assert!(window_is_clean(&[vec![1.0, 2.0]], &cfg));
        assert!(!window_is_clean(&[vec![1.0, f32::NAN]], &cfg));
        assert!(!window_is_clean(&[vec![1.0], vec![3.0e6]], &cfg));
    }

    #[test]
    fn frame_guard_holds_across_frames() {
        let mut g = FrameGuard::new(2, GuardConfig::default());
        let mut a = [1.0, 10.0];
        assert_eq!(g.scrub(&mut a), 0);
        let mut b = [f32::NAN, 20.0];
        assert_eq!(g.scrub(&mut b), 1);
        assert_eq!(b, [1.0, 20.0]);
        let mut c = [f32::INFINITY, f32::NAN];
        assert_eq!(g.scrub(&mut c), 2);
        assert_eq!(c, [1.0, 20.0]);
        assert_eq!(g.frames(), 3);
        assert_eq!(g.repaired_total(), 3);
        assert_eq!(g.repaired_per_channel(), &[2, 1]);
        assert_eq!(g.worst_channel(), Some((0, 2)));
    }

    #[test]
    fn frame_guard_before_first_good_writes_zero() {
        let mut g = FrameGuard::new(1, GuardConfig::default());
        let mut a = [f32::NAN];
        g.scrub(&mut a);
        assert_eq!(a, [0.0]);
    }

    #[test]
    fn frame_guard_ignores_wrong_arity() {
        let mut g = FrameGuard::new(3, GuardConfig::default());
        let mut short = [f32::NAN];
        assert_eq!(g.scrub(&mut short), 0);
        assert!(short[0].is_nan());
        assert_eq!(g.frames(), 0);
    }

    #[test]
    fn frame_guard_reset_hold_keeps_counters() {
        let mut g = FrameGuard::new(1, GuardConfig::default());
        let mut a = [5.0];
        g.scrub(&mut a);
        let mut b = [f32::NAN];
        g.scrub(&mut b);
        assert_eq!(b, [5.0]);
        g.reset_hold();
        let mut c = [f32::NAN];
        g.scrub(&mut c);
        assert_eq!(c, [0.0]);
        assert_eq!(g.repaired_total(), 2);
    }
}
