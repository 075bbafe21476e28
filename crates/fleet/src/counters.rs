//! Per-shard serving counters.

use crate::store::TierSnapshot;
use magneto_core::inference::{LatencyRecorder, LatencyStats};
use magneto_core::Precision;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Live counters for one shard. Counts are atomics (touched on the
/// submit fast path); the latency recorder sits behind its own mutex and
/// is only touched by the shard's single draining worker.
#[derive(Debug, Default)]
pub(crate) struct ShardCounters {
    pub accepted: AtomicU64,
    pub rejected: AtomicU64,
    pub batches: AtomicU64,
    pub windows: AtomicU64,
    pub windows_f32: AtomicU64,
    pub windows_int8: AtomicU64,
    pub max_batch: AtomicU64,
    pub panics_caught: AtomicU64,
    pub sessions_quarantined: AtomicU64,
    pub drift_alerts: AtomicU64,
    pub auto_recals: AtomicU64,
    pub recal_rollbacks: AtomicU64,
    pub latency: Mutex<LatencyRecorder>,
}

impl ShardCounters {
    /// Fold one executed micro-batch into the counters. `precision` is
    /// the precision the batch's shared backbone ran at.
    pub fn record_batch(&self, size: usize, precision: Precision, per_window_latency: Duration) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.windows.fetch_add(size as u64, Ordering::Relaxed);
        match precision {
            Precision::F32 => self.windows_f32.fetch_add(size as u64, Ordering::Relaxed),
            Precision::Int8 => self.windows_int8.fetch_add(size as u64, Ordering::Relaxed),
        };
        self.max_batch.fetch_max(size as u64, Ordering::Relaxed);
        self.latency
            .lock()
            .expect("latency lock")
            .record_n(per_window_latency, size);
    }

    /// Snapshot into a report row. `tier` is the owning shard's
    /// point-in-time session-store accounting (hot/paged/resident).
    pub fn snapshot(
        &self,
        shard: usize,
        sessions: usize,
        pending: usize,
        tier: TierSnapshot,
    ) -> ShardStats {
        ShardStats {
            shard,
            sessions,
            pending,
            resident_bytes: tier.resident_bytes,
            hot_sessions: tier.hot_sessions,
            paged_sessions: tier.paged_sessions,
            rehydrations: tier.rehydrations,
            accepted: self.accepted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            windows: self.windows.load(Ordering::Relaxed),
            windows_f32: self.windows_f32.load(Ordering::Relaxed),
            windows_int8: self.windows_int8.load(Ordering::Relaxed),
            max_batch: self.max_batch.load(Ordering::Relaxed),
            panics_caught: self.panics_caught.load(Ordering::Relaxed),
            sessions_quarantined: self.sessions_quarantined.load(Ordering::Relaxed),
            drift_alerts: self.drift_alerts.load(Ordering::Relaxed),
            auto_recals: self.auto_recals.load(Ordering::Relaxed),
            recal_rollbacks: self.recal_rollbacks.load(Ordering::Relaxed),
            latency: self.latency.lock().expect("latency lock").stats(),
        }
    }
}

/// A point-in-time view of one shard's serving statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Sessions registered on the shard.
    pub sessions: usize,
    /// Windows currently queued (bounded by `queue_capacity`).
    pub pending: usize,
    /// Per-session bytes resident on the shard (devices' full models +
    /// hot deltas' overlays + in-memory cold spills; excludes shared
    /// bases, which are fleet-global and counted once).
    pub resident_bytes: usize,
    /// Sessions serveable without rehydration (devices + hot deltas).
    pub hot_sessions: usize,
    /// Delta sessions currently paged out of the hot tier.
    pub paged_sessions: usize,
    /// Paged sessions rehydrated on touch since start.
    pub rehydrations: u64,
    /// Windows admitted since start.
    pub accepted: u64,
    /// Windows rejected by backpressure since start.
    pub rejected: u64,
    /// Micro-batches executed.
    pub batches: u64,
    /// Windows served.
    pub windows: u64,
    /// Windows served through an f32 backbone.
    pub windows_f32: u64,
    /// Windows served through an int8 backbone.
    pub windows_int8: u64,
    /// Largest micro-batch executed.
    pub max_batch: u64,
    /// Serving panics caught and isolated (batch-level catches plus
    /// per-window fallback catches — one panicking window counts at
    /// least twice: once failing its batch, once re-failing alone).
    pub panics_caught: u64,
    /// Times a session's circuit breaker tripped into quarantine.
    pub sessions_quarantined: u64,
    /// Stable→Drifted transitions across the shard's self-healing
    /// monitors (0 when [`crate::FleetConfig::healing`] is off).
    pub drift_alerts: u64,
    /// Automatic recalibrations that passed the replay gate and swapped
    /// a refreshed delta in.
    pub auto_recals: u64,
    /// Automatic recalibrations rejected by the replay gate (the
    /// session's old `(base, delta)` pair was left untouched).
    pub recal_rollbacks: u64,
    /// Amortised per-window serving latency distribution (p50–p99).
    pub latency: LatencyStats,
}

impl ShardStats {
    /// Mean windows per executed micro-batch; `0.0` before any batch.
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.windows as f64 / self.batches as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_accumulate_and_snapshot() {
        let c = ShardCounters::default();
        c.accepted.fetch_add(10, Ordering::Relaxed);
        c.rejected.fetch_add(2, Ordering::Relaxed);
        c.record_batch(6, Precision::F32, Duration::from_micros(100));
        c.record_batch(4, Precision::Int8, Duration::from_micros(300));
        let tier = TierSnapshot {
            resident_bytes: 4096,
            hot_sessions: 4,
            paged_sessions: 1,
            rehydrations: 7,
        };
        c.drift_alerts.fetch_add(3, Ordering::Relaxed);
        c.auto_recals.fetch_add(2, Ordering::Relaxed);
        c.recal_rollbacks.fetch_add(1, Ordering::Relaxed);
        let s = c.snapshot(3, 5, 1, tier);
        assert_eq!(s.shard, 3);
        assert_eq!(s.sessions, 5);
        assert_eq!(s.pending, 1);
        assert_eq!(s.resident_bytes, 4096);
        assert_eq!(s.hot_sessions, 4);
        assert_eq!(s.paged_sessions, 1);
        assert_eq!(s.rehydrations, 7);
        assert_eq!(s.accepted, 10);
        assert_eq!(s.rejected, 2);
        assert_eq!(s.batches, 2);
        assert_eq!(s.windows, 10);
        assert_eq!(s.windows_f32, 6);
        assert_eq!(s.windows_int8, 4);
        assert_eq!(s.max_batch, 6);
        assert_eq!(s.drift_alerts, 3);
        assert_eq!(s.auto_recals, 2);
        assert_eq!(s.recal_rollbacks, 1);
        assert!((s.mean_batch() - 5.0).abs() < 1e-12);
        assert_eq!(s.latency.count, 10);
        assert!(s.latency.p99_us >= s.latency.p50_us);
    }

    #[test]
    fn empty_counters_report_zero() {
        let c = ShardCounters::default();
        let s = c.snapshot(0, 0, 0, TierSnapshot::default());
        assert_eq!(s.windows, 0);
        assert_eq!(s.resident_bytes, 0);
        assert_eq!(s.paged_sessions, 0);
        assert_eq!(s.mean_batch(), 0.0);
        assert_eq!(s.latency, LatencyStats::default());
    }
}
