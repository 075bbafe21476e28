//! Session identity, model-version keys, and reply types.

use magneto_core::{EdgeBundle, Prediction};
use std::fmt;
use std::time::Duration;

/// Opaque handle for one registered per-user session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(pub u64);

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "session-{}", self.0)
    }
}

/// Identifies a set of backbone weights. The scheduler only merges
/// windows from sessions whose keys are equal into one forward pass, so
/// a key must be shared **only** between sessions running bit-identical
/// models:
///
/// * [`ModelKey::of_bundle`] derives a key from bundle bytes — sessions
///   deployed from the same bundle may share it;
/// * [`ModelKey::shared`] is a caller-attested key (e.g. a deployment
///   version number) for callers that track model identity themselves.
///
/// A device that retrains on-device re-enters the fleet from its own
/// snapshot ([`crate::Fleet::register`]), so its new weights get their
/// own content hash and never batch with the old ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ModelKey(pub(crate) u64);

impl ModelKey {
    /// A caller-attested shared key (e.g. a deployment version number).
    pub fn shared(version: u64) -> Self {
        ModelKey(version)
    }

    /// Derive a shared key from the bundle a session was deployed from:
    /// its [`EdgeBundle::content_hash`], the same identity a delta pins.
    pub fn of_bundle(bundle: &EdgeBundle) -> Self {
        ModelKey(bundle.content_hash())
    }
}

/// One served prediction, delivered on the owning session's channel.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReply {
    /// The session the window belonged to.
    pub session: SessionId,
    /// Per-session submission sequence number (FIFO per session).
    pub seq: u64,
    /// The prediction, or a serving-side error description.
    pub outcome: Result<Prediction, String>,
}

/// Why a submission was not admitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The session's shard queue is at capacity.
    QueueFull {
        /// Shard whose queue is full.
        shard: usize,
        /// Hint: when to retry.
        retry_after: Duration,
    },
    /// The session has too many in-flight windows.
    SessionBusy {
        /// In-flight windows the session already has.
        in_flight: usize,
        /// Hint: when to retry.
        retry_after: Duration,
    },
    /// The fleet-wide in-flight cap is reached.
    FleetBusy {
        /// In-flight windows fleet-wide.
        in_flight: usize,
        /// Hint: when to retry.
        retry_after: Duration,
    },
    /// The session's circuit breaker is open: it caused too many serving
    /// panics and is refused until the breaker half-opens.
    Quarantined {
        /// Panic strikes the session has accumulated.
        strikes: u32,
        /// Hint: when the breaker half-opens and submits are admitted
        /// again.
        retry_after: Duration,
    },
    /// No such session is registered.
    UnknownSession(SessionId),
    /// The fleet is shutting down.
    ShuttingDown,
}

impl SubmitError {
    /// The retry hint, when the rejection is load-related.
    pub fn retry_after(&self) -> Option<Duration> {
        match self {
            SubmitError::QueueFull { retry_after, .. }
            | SubmitError::SessionBusy { retry_after, .. }
            | SubmitError::FleetBusy { retry_after, .. }
            | SubmitError::Quarantined { retry_after, .. } => Some(*retry_after),
            _ => None,
        }
    }
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::QueueFull { shard, retry_after } => {
                write!(f, "shard {shard} queue full, retry in {retry_after:?}")
            }
            SubmitError::SessionBusy {
                in_flight,
                retry_after,
            } => write!(
                f,
                "session has {in_flight} windows in flight, retry in {retry_after:?}"
            ),
            SubmitError::FleetBusy {
                in_flight,
                retry_after,
            } => write!(
                f,
                "fleet has {in_flight} windows in flight, retry in {retry_after:?}"
            ),
            SubmitError::Quarantined {
                strikes,
                retry_after,
            } => write!(
                f,
                "session quarantined after {strikes} serving panics, retry in {retry_after:?}"
            ),
            SubmitError::UnknownSession(id) => write!(f, "unknown {id}"),
            SubmitError::ShuttingDown => write!(f, "fleet is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_hints_only_on_load_rejections() {
        let d = Duration::from_millis(2);
        assert!(SubmitError::QueueFull {
            shard: 0,
            retry_after: d
        }
        .retry_after()
        .is_some());
        assert!(SubmitError::UnknownSession(SessionId(3)).retry_after().is_none());
        assert!(SubmitError::ShuttingDown.retry_after().is_none());
        // Display is human-readable.
        let msg = SubmitError::SessionBusy {
            in_flight: 32,
            retry_after: d,
        }
        .to_string();
        assert!(msg.contains("32"));
    }
}
