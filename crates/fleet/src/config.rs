//! Fleet runtime configuration.

use magneto_core::SelfHealingConfig;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Tuning knobs for the serving runtime.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FleetConfig {
    /// Session shards. A session lives on shard `id % shards` for its
    /// whole life, and each shard is drained by exactly one worker, so
    /// per-session request order is preserved end to end.
    pub shards: usize,
    /// Worker threads. `0` selects deterministic inline mode: no threads
    /// are spawned and the caller drives processing via
    /// [`crate::Fleet::pump`] — single-threaded, reproducible, and
    /// bit-identical to the threaded modes (which only change *when*
    /// windows are processed, never *what* they compute).
    pub workers: usize,
    /// Pending-window bound per shard. A full queue rejects with
    /// [`crate::SubmitError::QueueFull`] instead of buffering without
    /// limit — explicit backpressure, never unbounded memory.
    pub queue_capacity: usize,
    /// Most windows drained into one scheduling cycle (and therefore the
    /// largest possible micro-batch).
    pub max_batch: usize,
    /// Admission control: most in-flight (queued or executing) windows
    /// one session may have.
    pub max_inflight_per_session: usize,
    /// Admission control: most in-flight windows fleet-wide.
    pub max_inflight_global: usize,
    /// Retry hint handed back with every rejection.
    pub retry_after: Duration,
    /// Circuit breaker: panics a session may cause (strikes) before it
    /// is quarantined. Serving a window from a panicking session is
    /// caught per batch and isolated per window, so one bad session
    /// costs retries, never a worker — but a session that keeps
    /// panicking is cut off. `0` disables quarantining.
    #[serde(default = "default_quarantine_strikes")]
    pub quarantine_strikes: u32,
    /// How long a quarantined session is refused at submit before the
    /// breaker half-opens again. Returned as the retry hint in
    /// [`crate::SubmitError::Quarantined`].
    #[serde(default = "default_quarantine_for")]
    pub quarantine_for: Duration,
    /// Tiered session store: most sessions kept hot (overlay resident)
    /// **per shard**. Above the cap, the least-recently-served deltas
    /// page out to the spool (crash-safe framed files, or an in-memory
    /// spill if no spool directory is configured) and rehydrate —
    /// bit-identically — on their next submit. `0` disables tiering:
    /// every delta stays hot.
    #[serde(default)]
    pub hot_delta_capacity: usize,
    /// Base-version migration gate: the fraction of a session's own
    /// support rows the replayed overlay must still classify correctly
    /// for [`crate::Fleet::migrate_session`] to commit (mirrors the
    /// incremental-update self-accuracy floor). Below the floor the
    /// migration rolls back and the session stays on its old base.
    /// `0.0` disables the gate.
    #[serde(default = "default_replay_accuracy_floor")]
    pub replay_accuracy_floor: f32,
    /// Self-healing under concept drift: when set, every session gets
    /// its own
    /// [`magneto_core::HealingLoop`] (baselined on its own live
    /// distances) that, on sustained drift, rebuilds a candidate
    /// [`magneto_core::PersonalDelta`] off to the side from harvested
    /// high-confidence windows and swaps it in only if it passes the
    /// replay self-accuracy gate — otherwise the session's
    /// `(base, delta)` pair is untouched. `None` (the default) keeps
    /// serving drift-blind.
    #[serde(default)]
    pub healing: Option<SelfHealingConfig>,
}

fn default_quarantine_strikes() -> u32 {
    3
}

fn default_replay_accuracy_floor() -> f32 {
    0.5
}

fn default_quarantine_for() -> Duration {
    Duration::from_secs(5)
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            shards: 4,
            workers: 4,
            queue_capacity: 256,
            max_batch: 64,
            max_inflight_per_session: 32,
            max_inflight_global: 1024,
            retry_after: Duration::from_millis(2),
            quarantine_strikes: default_quarantine_strikes(),
            quarantine_for: default_quarantine_for(),
            hot_delta_capacity: 0,
            replay_accuracy_floor: default_replay_accuracy_floor(),
            healing: None,
        }
    }
}

impl FleetConfig {
    /// The deterministic single-threaded configuration: one shard, no
    /// workers, caller-driven [`crate::Fleet::pump`].
    pub fn deterministic() -> Self {
        FleetConfig {
            shards: 1,
            workers: 0,
            ..FleetConfig::default()
        }
    }

    /// Validate the knobs.
    ///
    /// # Errors
    /// A description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.shards == 0 {
            return Err("fleet needs at least one shard".into());
        }
        if self.queue_capacity == 0 {
            return Err("queue capacity must be positive".into());
        }
        if self.max_batch == 0 {
            return Err("max batch must be positive".into());
        }
        if self.max_inflight_per_session == 0 || self.max_inflight_global == 0 {
            return Err("in-flight limits must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.replay_accuracy_floor) {
            return Err("replay accuracy floor must be in [0, 1]".into());
        }
        if let Some(healing) = &self.healing {
            healing.validate().map_err(|e| e.to_string())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(FleetConfig::default().validate().is_ok());
        assert!(FleetConfig::deterministic().validate().is_ok());
        assert_eq!(FleetConfig::deterministic().workers, 0);
    }

    #[test]
    fn invalid_knobs_are_rejected() {
        for bad in [
            FleetConfig {
                shards: 0,
                ..FleetConfig::default()
            },
            FleetConfig {
                queue_capacity: 0,
                ..FleetConfig::default()
            },
            FleetConfig {
                max_batch: 0,
                ..FleetConfig::default()
            },
            FleetConfig {
                max_inflight_per_session: 0,
                ..FleetConfig::default()
            },
            FleetConfig {
                max_inflight_global: 0,
                ..FleetConfig::default()
            },
            FleetConfig {
                replay_accuracy_floor: 1.5,
                ..FleetConfig::default()
            },
            FleetConfig {
                healing: Some(SelfHealingConfig {
                    alert_ratio: 0.5,
                    ..SelfHealingConfig::default()
                }),
                ..FleetConfig::default()
            },
        ] {
            assert!(bad.validate().is_err());
        }
        assert!(FleetConfig {
            healing: Some(SelfHealingConfig::default()),
            ..FleetConfig::default()
        }
        .validate()
        .is_ok());
    }

    #[test]
    fn serde_roundtrip() {
        let c = FleetConfig::default();
        let json = serde_json::to_string(&c).unwrap();
        let back: FleetConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }

    #[test]
    fn pre_quarantine_configs_deserialize_with_defaults() {
        // Configs serialized before the circuit-breaker knobs existed
        // must still load, picking up the defaults.
        let json = serde_json::to_string(&FleetConfig::default()).unwrap();
        let stripped = json
            .split(",\"quarantine_strikes\"")
            .next()
            .map(|head| format!("{head}}}"))
            .unwrap();
        assert_ne!(stripped, json);
        let back: FleetConfig = serde_json::from_str(&stripped).unwrap();
        assert_eq!(back.quarantine_strikes, default_quarantine_strikes());
        assert_eq!(back.quarantine_for, default_quarantine_for());
        // Stripping at quarantine_strikes also drops the (later)
        // tiering, migration, and self-healing knobs; they pick up
        // their defaults.
        assert_eq!(back.hot_delta_capacity, 0);
        assert_eq!(back.replay_accuracy_floor, default_replay_accuracy_floor());
        assert_eq!(back.healing, None);
    }
}
