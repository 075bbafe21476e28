//! The serving runtime: sharded session registry, bounded queues,
//! micro-batching worker loop.

use crate::config::FleetConfig;
use crate::counters::{ShardCounters, ShardStats};
use crate::error::FleetError;
use crate::session::{FleetReply, ModelKey, SessionId, SubmitError};
use crate::store::{
    Candidate, DeltaSession, ReplayOutcome, SessionEntry, SessionModel, SessionStore, SharedBase,
    StoreError,
};
use magneto_core::drift::DriftStatus;
use magneto_core::inference::{infer_batch, BatchJob};
use magneto_core::{
    BatchEmbedder, EdgeBundle, HealingLoop, HealingStats, ModelVersion, PersonalDelta, Precision,
};
use magneto_tensor::vector::DistanceMetric;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Lock a mutex, recovering the data from a poisoned lock. The runtime
/// catches panics before they can unwind through a held lock (guards are
/// acquired outside every `catch_unwind`), but a poisoned mutex must
/// still never cascade one panic into a fleet-wide one.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// One pending window.
struct Request {
    session: u64,
    seq: u64,
    window: Vec<Vec<f32>>,
}

/// Admission-control state, guarded by the queue mutex so the submit
/// fast path takes exactly one lock.
#[derive(Default)]
struct QueueState {
    pending: VecDeque<Request>,
    /// Queued + executing windows per session. A session's entry exists
    /// from registration to deregistration, so a missing entry means an
    /// unknown session.
    inflight: HashMap<u64, usize>,
    /// Next per-session submission sequence number.
    seqs: HashMap<u64, u64>,
    /// Open circuit breakers: session → (strikes at trip, refuse-until).
    /// Lives beside the admission state so the submit fast path still
    /// takes exactly one lock; entries expire lazily at submit.
    quarantined: HashMap<u64, (u32, Instant)>,
}

struct Shard {
    queue: Mutex<QueueState>,
    sessions: Mutex<SessionStore>,
    counters: ShardCounters,
}

/// Wake-up signal for one worker thread.
struct WorkerSignal {
    work: Mutex<bool>,
    cv: Condvar,
}

struct Inner {
    config: FleetConfig,
    shards: Vec<Shard>,
    signals: Vec<WorkerSignal>,
    /// Shared immutable bases, one per `(key, precision)`, `Arc`-cloned
    /// into every session deployed from them. Private bases
    /// ([`Fleet::register`]) are held by their one session, never here.
    bases: Mutex<HashMap<(ModelKey, Precision), Arc<SharedBase>>>,
    /// Directory cold deltas spill to (crash-safe framed files). `None`
    /// = spill in memory.
    spool_dir: Mutex<Option<PathBuf>>,
    global_inflight: AtomicUsize,
    next_session: AtomicU64,
    shutdown: AtomicBool,
}

/// The concurrent multi-user serving runtime.
///
/// Owns N per-user sessions — each a shared or private base plus a
/// personal delta ([`crate::store`]) — behind a sharded registry,
/// admits sensor windows through bounded per-shard queues (rejecting
/// with a retry hint under load), and serves them with per-worker
/// micro-batching schedulers: each drain cycle groups pending windows
/// *across sessions* by [`ModelKey`] and runs every group through the
/// shared backbone as one `(batch, dim)` forward pass, scattering the
/// per-window NCM predictions back to each session's reply channel.
///
/// Sessions never share user data — a window is featurised with its own
/// session's pipeline and classified against its own prototypes; only
/// the backbone matmul is shared, and only between sessions whose model
/// keys attest bit-identical weights. Outputs are bit-identical to
/// driving each user's [`EdgeDevice`](magneto_core::EdgeDevice)
/// sequentially (property-tested), at any worker or shard count.
pub struct Fleet {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
    /// Embedder for inline (`workers == 0`) pumping.
    inline_embedder: BatchEmbedder,
}

impl Fleet {
    /// Start a fleet. With `config.workers == 0` no threads are spawned
    /// and the caller drives serving via [`pump`](Self::pump).
    ///
    /// # Errors
    /// [`FleetError::Config`] for an invalid knob; [`FleetError::Spawn`]
    /// when the OS refuses a worker thread — workers spawned before the
    /// failure are shut down and joined, so a failed start never leaks
    /// threads.
    pub fn new(config: FleetConfig) -> Result<Self, FleetError> {
        config.validate().map_err(FleetError::Config)?;
        let shards = (0..config.shards)
            .map(|_| Shard {
                queue: Mutex::new(QueueState::default()),
                sessions: Mutex::new(SessionStore::new()),
                counters: ShardCounters::default(),
            })
            .collect();
        let signals = (0..config.workers)
            .map(|_| WorkerSignal {
                work: Mutex::new(false),
                cv: Condvar::new(),
            })
            .collect();
        let inner = Arc::new(Inner {
            config,
            shards,
            signals,
            bases: Mutex::new(HashMap::new()),
            spool_dir: Mutex::new(None),
            global_inflight: AtomicUsize::new(0),
            next_session: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
        });
        let mut workers = Vec::with_capacity(config.workers);
        for w in 0..config.workers {
            let worker_inner = Arc::clone(&inner);
            let spawned = std::thread::Builder::new()
                .name(format!("fleet-worker-{w}"))
                .spawn(move || supervised_worker(&worker_inner, w));
            match spawned {
                Ok(handle) => workers.push(handle),
                Err(e) => {
                    // Tear down what already started before reporting.
                    inner.shutdown.store(true, Ordering::Release);
                    for sig in &inner.signals {
                        let _woken = lock_unpoisoned(&sig.work);
                        sig.cv.notify_all();
                    }
                    for handle in workers {
                        let _joined = handle.join();
                    }
                    return Err(FleetError::Spawn {
                        worker: w,
                        reason: e.to_string(),
                    });
                }
            }
        }
        Ok(Fleet {
            inner,
            workers,
            inline_embedder: BatchEmbedder::new(),
        })
    }

    /// The runtime configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.inner.config
    }

    /// The kernel plan fleet GEMMs run under.
    ///
    /// All fleet workers share the single process-wide compute pool (the
    /// global [`Exec`](magneto_tensor::Exec)) rather than spawning one
    /// pool each: the pool serialises dispatch with a `try_lock`, so when
    /// one fleet worker's batch already occupies it, another worker's
    /// GEMM simply runs inline on its own thread instead of competing —
    /// cores are never oversubscribed, and results are bit-identical
    /// either way.
    pub fn compute_plan(&self) -> magneto_tensor::KernelPlan {
        magneto_tensor::pool::global_plan()
    }

    /// The micro-kernel backend fleet workers dispatch to (scalar /
    /// avx2 / neon) — always an available one, because the global plan
    /// is sanitized on installation.
    pub fn compute_backend(&self) -> magneto_tensor::Backend {
        self.compute_plan().backend
    }

    /// Register a session on a *private* base assembled from `bundle` at
    /// `precision` — typically a device's own snapshot
    /// ([`EdgeDevice::as_bundle`](magneto_core::EdgeDevice::as_bundle))
    /// after it retrained on-device. The base is keyed by
    /// [`ModelKey::of_bundle`] but not entered into the shared map: the
    /// session's `Arc` is its only holder, so it is freed with the
    /// session. A private base whose content equals a shared base's gets
    /// the same key and batches with that base's sessions (keys attest
    /// identical weights). Returns the session handle and the channel
    /// its predictions arrive on.
    ///
    /// # Errors
    /// [`StoreError::Storage`] when the bundle fails validation or
    /// precision conversion.
    pub fn register(
        &self,
        bundle: &EdgeBundle,
        precision: Precision,
    ) -> Result<(SessionId, Receiver<FleetReply>), StoreError> {
        let base = SharedBase::from_bundle(bundle, precision, DistanceMetric::default())?;
        let key = ModelKey(base.content_hash);
        Ok(self.register_entry(Arc::new(base), key, precision))
    }

    /// Register a shared immutable base assembled from `bundle` at
    /// `precision`, keyed by [`ModelKey::of_bundle`]. Idempotent: a base
    /// already registered under the same `(key, precision)` is kept and
    /// its key returned. Sessions deployed from it
    /// ([`Self::register_from_base`]) share one refcounted copy of the
    /// backbone and base classifier.
    ///
    /// # Errors
    /// [`StoreError::Storage`] when the bundle fails validation or
    /// precision conversion.
    pub fn register_base(
        &self,
        bundle: &EdgeBundle,
        precision: Precision,
    ) -> Result<ModelKey, StoreError> {
        let key = ModelKey::of_bundle(bundle);
        let mut bases = lock_unpoisoned(&self.inner.bases);
        if let std::collections::hash_map::Entry::Vacant(slot) = bases.entry((key, precision)) {
            let base = SharedBase::from_bundle(bundle, precision, DistanceMetric::default())?;
            slot.insert(Arc::new(base));
        }
        Ok(key)
    }

    /// Register a session against a base previously registered with
    /// [`Self::register_base`]. The session starts with
    /// an empty [`PersonalDelta`] and — crucially — keeps the **shared**
    /// key: personalizing the delta only overlays the classifier, never
    /// the backbone, so the session stays batchable with every peer of
    /// the same base. If the shard is over its configured hot-delta
    /// capacity, the coldest sessions page out.
    ///
    /// # Errors
    /// [`StoreError::UnknownBase`] when no base is registered under
    /// `(key, precision)`.
    pub fn register_from_base(
        &self,
        key: ModelKey,
        precision: Precision,
    ) -> Result<(SessionId, Receiver<FleetReply>), StoreError> {
        let base = lock_unpoisoned(&self.inner.bases)
            .get(&(key, precision))
            .cloned()
            .ok_or(StoreError::UnknownBase(key, precision))?;
        Ok(self.register_entry(base, key, precision))
    }

    fn register_entry(
        &self,
        base: Arc<SharedBase>,
        key: ModelKey,
        precision: Precision,
    ) -> (SessionId, Receiver<FleetReply>) {
        let id = self.inner.next_session.fetch_add(1, Ordering::Relaxed);
        let shard = &self.inner.shards[id as usize % self.inner.config.shards];
        let (tx, rx) = channel();
        {
            let mut q = lock_unpoisoned(&shard.queue);
            q.inflight.insert(id, 0);
            q.seqs.insert(id, 0);
        }
        let healing = self
            .inner
            .config
            .healing
            .and_then(|cfg| HealingLoop::new(cfg, None).ok())
            .map(Box::new);
        let spool = self.spool();
        {
            let mut sessions = lock_unpoisoned(&shard.sessions);
            sessions.insert(
                id,
                SessionEntry {
                    model: SessionModel::Delta(Box::new(DeltaSession::fresh(base))),
                    key,
                    precision,
                    tx,
                    strikes: 0,
                    armed_panics: AtomicU32::new(0),
                    healing,
                },
            );
            sessions.enforce_capacity(self.inner.config.hot_delta_capacity, spool.as_deref());
        }
        (SessionId(id), rx)
    }

    /// Configure the directory cold deltas page out to (created if
    /// missing). Until this is set — or if a spill write ever fails —
    /// evicted deltas fall back to an in-memory spill: still out of the
    /// hot tier, never lost.
    ///
    /// # Errors
    /// Propagates directory-creation failure.
    pub fn set_spool_dir(&self, dir: impl Into<PathBuf>) -> std::io::Result<()> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        *lock_unpoisoned(&self.inner.spool_dir) = Some(dir);
        Ok(())
    }

    fn spool(&self) -> Option<PathBuf> {
        lock_unpoisoned(&self.inner.spool_dir).clone()
    }

    /// Remove a session, returning its [`PersonalDelta`] (rehydrated
    /// first if paged). Still-queued windows for it are dropped unserved;
    /// its spool file, if any, is deleted, and a private base goes with
    /// it.
    ///
    /// # Errors
    /// [`StoreError::UnknownSession`], or a [`StoreError::Storage`] if a
    /// paged delta cannot be read back.
    pub fn deregister(&self, id: SessionId) -> Result<PersonalDelta, StoreError> {
        let shard = &self.inner.shards[id.0 as usize % self.inner.config.shards];
        let delta = {
            let mut sessions = lock_unpoisoned(&shard.sessions);
            sessions.ensure_hot(id.0)?;
            match sessions.remove(id.0).expect("ensure_hot found it").model {
                SessionModel::Delta(ds) => ds.delta,
                SessionModel::Paged(_) => unreachable!("ensure_hot leaves the session hot"),
            }
        };
        self.reconcile_removed(shard, id.0);
        Ok(delta)
    }

    /// Drop a removed session's queued windows and admission state.
    /// Queued (not yet popped) windows die with the session; executing
    /// ones finish and decrement the remainder themselves.
    fn reconcile_removed(&self, shard: &Shard, id: u64) {
        let mut q = lock_unpoisoned(&shard.queue);
        let queued = q.pending.iter().filter(|r| r.session == id).count();
        q.pending.retain(|r| r.session != id);
        if let Some(inflight) = q.inflight.remove(&id) {
            debug_assert!(inflight >= queued);
            self.inner.global_inflight.fetch_sub(queued, Ordering::AcqRel);
        }
        q.seqs.remove(&id);
        q.quarantined.remove(&id);
    }

    /// Submit one channel-major sensor window for a session. On success
    /// returns the per-session sequence number its [`FleetReply`] will
    /// carry. Under load this *rejects* — bounded queues plus in-flight
    /// caps, never unbounded buffering; the error carries a retry hint.
    ///
    /// # Errors
    /// [`SubmitError`] on backpressure, unknown session, or shutdown.
    pub fn submit(&self, id: SessionId, window: Vec<Vec<f32>>) -> Result<u64, SubmitError> {
        if self.inner.shutdown.load(Ordering::Acquire) {
            return Err(SubmitError::ShuttingDown);
        }
        let config = &self.inner.config;
        let shard_idx = id.0 as usize % config.shards;
        let shard = &self.inner.shards[shard_idx];
        let seq = {
            let mut q = lock_unpoisoned(&shard.queue);
            let Some(&inflight) = q.inflight.get(&id.0) else {
                return Err(SubmitError::UnknownSession(id));
            };
            if let Some(&(strikes, until)) = q.quarantined.get(&id.0) {
                let now = Instant::now();
                if now < until {
                    shard.counters.rejected.fetch_add(1, Ordering::Relaxed);
                    return Err(SubmitError::Quarantined {
                        strikes,
                        retry_after: until - now,
                    });
                }
                // Breaker half-opens: admit again; a further panic
                // re-trips it immediately (strikes persist on the entry).
                q.quarantined.remove(&id.0);
            }
            if q.pending.len() >= config.queue_capacity {
                shard.counters.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(SubmitError::QueueFull {
                    shard: shard_idx,
                    retry_after: config.retry_after,
                });
            }
            if inflight >= config.max_inflight_per_session {
                shard.counters.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(SubmitError::SessionBusy {
                    in_flight: inflight,
                    retry_after: config.retry_after,
                });
            }
            let global = self.inner.global_inflight.load(Ordering::Acquire);
            if global >= config.max_inflight_global {
                shard.counters.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(SubmitError::FleetBusy {
                    in_flight: global,
                    retry_after: config.retry_after,
                });
            }
            let seq = q.seqs.get_mut(&id.0).expect("seq entry");
            let this_seq = *seq;
            *seq += 1;
            *q.inflight.get_mut(&id.0).expect("inflight entry") += 1;
            self.inner.global_inflight.fetch_add(1, Ordering::AcqRel);
            q.pending.push_back(Request {
                session: id.0,
                seq: this_seq,
                window,
            });
            shard.counters.accepted.fetch_add(1, Ordering::Relaxed);
            this_seq
        };
        self.wake_worker_for(shard_idx);
        Ok(seq)
    }

    /// Calibrate a base+delta session with this user's recordings of one
    /// activity: featurize and embed the windows through the *shared*
    /// base, store their mean embedding as the user's prototype for
    /// `label` (plus the feature rows as private support exemplars), and
    /// commit the new delta and its serving overlay through the store's
    /// one commit path (no accuracy floor; the session is untouched on
    /// any error).
    ///
    /// This does **not** re-key the session: the backbone is untouched,
    /// so the session stays batchable with every peer of the same base —
    /// personalization without forking.
    ///
    /// # Errors
    /// [`StoreError::UnknownSession`]; [`StoreError::Storage`]
    /// on featurization/embedding failure, non-finite embeddings or an
    /// empty `windows`.
    pub fn calibrate_session(
        &self,
        id: SessionId,
        label: &str,
        windows: &[Vec<Vec<f32>>],
    ) -> Result<(), StoreError> {
        if windows.is_empty() {
            return Err(StoreError::Storage("no calibration windows".into()));
        }
        let shard = &self.inner.shards[id.0 as usize % self.inner.config.shards];
        let mut sessions = lock_unpoisoned(&shard.sessions);
        sessions.ensure_hot(id.0)?;
        let pipeline = &sessions.delta(id.0)?.base.pipeline;
        let mut rows = Vec::with_capacity(windows.len());
        for window in windows {
            let mut row = vec![0.0f32; pipeline.output_dim()];
            pipeline
                .process_checked_into(window, &mut row)
                .map_err(|e| StoreError::Storage(e.to_string()))?;
            rows.push(row);
        }
        let outcome = sessions.recalibrate_delta(id.0, label, &rows, 0.0)?;
        if let Some(reason) = outcome.rollback_reason() {
            return Err(StoreError::Storage(format!(
                "calibration rejected: {reason}"
            )));
        }
        sessions.touch(id.0);
        Ok(())
    }

    /// Transactionally migrate a base+delta session onto the base
    /// registered under `(new_key, precision)`, replaying its
    /// calibration through the new backbone — the per-session step of a
    /// versioned rollout.
    ///
    /// The replay re-derives every personal prototype from the delta's
    /// stored support rows (the exact [`Self::calibrate_session`]
    /// computation, against the new base), then validates the candidate
    /// before swapping it in: a prototype with no replayable source,
    /// non-finite embeddings, or self-accuracy below
    /// [`FleetConfig::replay_accuracy_floor`] rolls back, leaving the
    /// session byte-identical on its old `(base, delta)` pair. Paged
    /// sessions rehydrate first, so migration is tier-transparent.
    ///
    /// On commit the session is re-keyed to `new_key` — it now batches
    /// with the new base's peers, never the old one's.
    ///
    /// # Errors
    /// [`StoreError::UnknownBase`] when no base is registered under
    /// `(new_key, precision)`; [`StoreError::UnknownSession`].
    pub fn migrate_session(
        &self,
        id: SessionId,
        new_key: ModelKey,
        precision: Precision,
    ) -> Result<ReplayOutcome, StoreError> {
        let new_base = lock_unpoisoned(&self.inner.bases)
            .get(&(new_key, precision))
            .cloned()
            .ok_or(StoreError::UnknownBase(new_key, precision))?;
        let shard = &self.inner.shards[id.0 as usize % self.inner.config.shards];
        let mut sessions = lock_unpoisoned(&shard.sessions);
        sessions.ensure_hot(id.0)?;
        let outcome = sessions.migrate_delta(
            id.0,
            &new_base,
            new_key,
            precision,
            self.inner.config.replay_accuracy_floor,
        )?;
        sessions.touch(id.0);
        Ok(outcome)
    }

    /// Restore a base+delta session to the base registered under
    /// `(key, precision)` with `delta` verbatim — the rollback path a
    /// rollout driver uses to walk a halted canary wave back to version
    /// N with the exact pre-migration delta snapshotted via
    /// [`Self::session_delta`].
    ///
    /// # Errors
    /// [`StoreError::UnknownBase`] when no base is registered under
    /// `(key, precision)`; [`StoreError::UnknownSession`].
    pub fn restore_session(
        &self,
        id: SessionId,
        key: ModelKey,
        precision: Precision,
        delta: PersonalDelta,
    ) -> Result<(), StoreError> {
        let base = lock_unpoisoned(&self.inner.bases)
            .get(&(key, precision))
            .cloned()
            .ok_or(StoreError::UnknownBase(key, precision))?;
        let shard = &self.inner.shards[id.0 as usize % self.inner.config.shards];
        let mut sessions = lock_unpoisoned(&shard.sessions);
        sessions.ensure_hot(id.0)?;
        let candidate = Candidate {
            base,
            key,
            precision,
            delta,
        };
        // No accuracy floor, so the commit cannot roll back.
        let _classes = sessions.commit_delta(id.0, candidate, 0.0)?;
        sessions.touch(id.0);
        Ok(())
    }

    /// The model version a session currently serves. Works for hot and
    /// paged sessions without rehydrating.
    ///
    /// # Errors
    /// [`StoreError::UnknownSession`] when the id is not registered.
    pub fn session_version(&self, id: SessionId) -> Result<ModelVersion, StoreError> {
        let shard = &self.inner.shards[id.0 as usize % self.inner.config.shards];
        let sessions = lock_unpoisoned(&shard.sessions);
        let entry = sessions
            .get(id.0)
            .ok_or(StoreError::UnknownSession(id))?;
        Ok(entry.model.base().version())
    }

    /// Set a base+delta session's per-user open-set rejection threshold.
    ///
    /// # Errors
    /// [`StoreError::UnknownSession`], or [`StoreError::Storage`] if a
    /// paged delta cannot be read back.
    pub fn set_session_threshold(&self, id: SessionId, threshold: f32) -> Result<(), StoreError> {
        let shard = &self.inner.shards[id.0 as usize % self.inner.config.shards];
        let mut sessions = lock_unpoisoned(&shard.sessions);
        sessions.ensure_hot(id.0)?;
        let ds = sessions.delta_mut(id.0)?;
        ds.delta.set_threshold(threshold);
        sessions.touch(id.0);
        Ok(())
    }

    /// A snapshot of a base+delta session's current [`PersonalDelta`]
    /// (rehydrating it first if paged).
    ///
    /// # Errors
    /// [`StoreError::UnknownSession`], or [`StoreError::Storage`] if a
    /// paged delta cannot be read back.
    pub fn session_delta(&self, id: SessionId) -> Result<PersonalDelta, StoreError> {
        let shard = &self.inner.shards[id.0 as usize % self.inner.config.shards];
        let mut sessions = lock_unpoisoned(&shard.sessions);
        sessions.ensure_hot(id.0)?;
        Ok(sessions.delta(id.0)?.delta.clone())
    }

    /// Number of int8 exemplar rows the session's serving overlay holds
    /// on its quantized NCM index (rehydrating the session first if
    /// paged). Zero for a session with no calibrated support rows —
    /// it serves straight off the shared base's prototypes.
    ///
    /// # Errors
    /// [`StoreError::UnknownSession`], or [`StoreError::Storage`] if a
    /// paged delta cannot be read back.
    pub fn session_exemplar_rows(&self, id: SessionId) -> Result<usize, StoreError> {
        let shard = &self.inner.shards[id.0 as usize % self.inner.config.shards];
        let mut sessions = lock_unpoisoned(&shard.sessions);
        sessions.ensure_hot(id.0)?;
        let ds = sessions.delta(id.0)?;
        let ncm = ds.overlay.as_ref().unwrap_or(&ds.base.ncm);
        Ok(ncm.num_rows() - ncm.num_classes())
    }

    /// Force a session out of the hot tier immediately (the
    /// eviction the LRU would eventually perform). Returns `true` when
    /// the session was hot and is now paged. Primarily a test/ops hook —
    /// normal paging is driven by `hot_delta_capacity`.
    ///
    /// # Errors
    /// [`StoreError::UnknownSession`] when the id is not registered.
    pub fn page_out(&self, id: SessionId) -> Result<bool, StoreError> {
        let shard = &self.inner.shards[id.0 as usize % self.inner.config.shards];
        let spool = self.spool();
        let mut sessions = lock_unpoisoned(&shard.sessions);
        if sessions.get(id.0).is_none() {
            return Err(StoreError::UnknownSession(id));
        }
        Ok(sessions.page_out(id.0, spool.as_deref()))
    }

    /// Number of shared bases currently registered.
    pub fn num_bases(&self) -> usize {
        lock_unpoisoned(&self.inner.bases).len()
    }

    /// Total resident bytes of all shared bases — paid once each,
    /// however many sessions share them.
    pub fn bases_resident_bytes(&self) -> usize {
        lock_unpoisoned(&self.inner.bases)
            .values()
            .map(|b| b.bytes())
            .sum()
    }

    /// The model key a session currently serves under.
    ///
    /// # Errors
    /// [`SubmitError::UnknownSession`] when the id is not registered.
    pub fn session_key(&self, id: SessionId) -> Result<ModelKey, SubmitError> {
        let shard = &self.inner.shards[id.0 as usize % self.inner.config.shards];
        let sessions = lock_unpoisoned(&shard.sessions);
        sessions
            .get(id.0)
            .map(|e| e.key)
            .ok_or(SubmitError::UnknownSession(id))
    }

    /// A session's current drift status, when fleet self-healing
    /// ([`FleetConfig::healing`]) is on; `None` otherwise.
    ///
    /// # Errors
    /// [`SubmitError::UnknownSession`] when the id is not registered.
    pub fn session_drift_status(&self, id: SessionId) -> Result<Option<DriftStatus>, SubmitError> {
        let shard = &self.inner.shards[id.0 as usize % self.inner.config.shards];
        let sessions = lock_unpoisoned(&shard.sessions);
        let entry = sessions.get(id.0).ok_or(SubmitError::UnknownSession(id))?;
        Ok(entry.healing.as_ref().map(|h| h.monitor().status()))
    }

    /// A session's self-healing counters (alerts, committed
    /// recalibrations, rollbacks, strikes), when fleet self-healing is
    /// on for it; `None` otherwise.
    ///
    /// # Errors
    /// [`SubmitError::UnknownSession`] when the id is not registered.
    pub fn session_healing_stats(
        &self,
        id: SessionId,
    ) -> Result<Option<HealingStats>, SubmitError> {
        let shard = &self.inner.shards[id.0 as usize % self.inner.config.shards];
        let sessions = lock_unpoisoned(&shard.sessions);
        let entry = sessions.get(id.0).ok_or(SubmitError::UnknownSession(id))?;
        Ok(entry.healing.as_deref().map(HealingLoop::stats))
    }

    /// Chaos hook: make the session's next `count` served windows panic
    /// mid-inference. Drives the fault-injection tests and the `chaos`
    /// smoke target — the runtime must catch each panic, isolate it to
    /// this session, and quarantine the session once it exhausts its
    /// strikes. Useless (and harmless) outside testing.
    ///
    /// # Errors
    /// [`SubmitError::UnknownSession`] when the id is not registered.
    pub fn arm_panics(&self, id: SessionId, count: u32) -> Result<(), SubmitError> {
        let shard = &self.inner.shards[id.0 as usize % self.inner.config.shards];
        let sessions = lock_unpoisoned(&shard.sessions);
        let entry = sessions.get(id.0).ok_or(SubmitError::UnknownSession(id))?;
        entry.armed_panics.fetch_add(count, Ordering::Relaxed);
        Ok(())
    }

    /// Panic strikes a session has accumulated, and whether its circuit
    /// breaker is currently open.
    ///
    /// # Errors
    /// [`SubmitError::UnknownSession`] when the id is not registered.
    pub fn session_strikes(&self, id: SessionId) -> Result<(u32, bool), SubmitError> {
        let shard = &self.inner.shards[id.0 as usize % self.inner.config.shards];
        let strikes = {
            let sessions = lock_unpoisoned(&shard.sessions);
            sessions
                .get(id.0)
                .map(|e| e.strikes)
                .ok_or(SubmitError::UnknownSession(id))?
        };
        let open = {
            let q = lock_unpoisoned(&shard.queue);
            q.quarantined
                .get(&id.0)
                .is_some_and(|&(_, until)| Instant::now() < until)
        };
        Ok((strikes, open))
    }

    /// Deterministic inline serving: drain every shard on the caller's
    /// thread until all queues are empty, and return how many windows
    /// were served. This is the `workers == 0` single-threaded mode —
    /// same drain logic, same grouping, same kernels as the threaded
    /// path, so outputs are bit-identical; only scheduling differs. Safe
    /// (but rarely useful) to call while workers are also running.
    pub fn pump(&mut self) -> usize {
        let mut served = 0;
        loop {
            let mut round = 0;
            for s in 0..self.inner.config.shards {
                round += drain_shard(&self.inner, s, &mut self.inline_embedder);
            }
            if round == 0 {
                return served;
            }
            served += round;
        }
    }

    /// Block until no window is queued or executing, or until `timeout`.
    /// Returns `true` when the fleet went idle.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            let idle = self.inner.global_inflight.load(Ordering::Acquire) == 0;
            if idle {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Point-in-time serving statistics for every shard.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.inner
            .shards
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let (sessions, tier) = {
                    let store = lock_unpoisoned(&s.sessions);
                    (store.len(), store.tier_snapshot())
                };
                let pending = lock_unpoisoned(&s.queue).pending.len();
                s.counters.snapshot(i, sessions, pending, tier)
            })
            .collect()
    }

    /// Windows currently in flight (queued or executing) fleet-wide.
    pub fn in_flight(&self) -> usize {
        self.inner.global_inflight.load(Ordering::Acquire)
    }

    /// Stop admitting, serve everything still queued, and join the
    /// workers. Consumes the fleet.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        for sig in &self.inner.signals {
            let _unused = lock_unpoisoned(&sig.work);
            sig.cv.notify_all();
        }
        for handle in self.workers.drain(..) {
            let _joined = handle.join();
        }
        // Inline mode (or anything left after the workers exited, which
        // drain-before-exit should make empty): serve the remainder.
        self.pump();
    }

    fn wake_worker_for(&self, shard: usize) {
        let workers = self.inner.config.workers;
        if workers == 0 {
            return;
        }
        let sig = &self.inner.signals[shard % workers];
        let mut work = lock_unpoisoned(&sig.work);
        *work = true;
        sig.cv.notify_one();
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        if !self.workers.is_empty() {
            self.stop_and_join();
        }
    }
}

/// Worker supervisor: runs [`worker_loop`] under `catch_unwind` and
/// restarts it if a panic ever escapes the per-batch isolation inside
/// [`drain_shard`] (defence in depth — nothing is expected to). The
/// respawned loop gets a fresh embedder, so no scratch state poisoned by
/// the unwind survives. The worker thread itself never dies to a panic.
fn supervised_worker(inner: &Inner, w: usize) {
    loop {
        let escaped =
            std::panic::catch_unwind(AssertUnwindSafe(|| worker_loop(inner, w))).is_err();
        if !escaped {
            return; // clean shutdown
        }
        for shard in &inner.shards {
            shard.counters.panics_caught.fetch_add(1, Ordering::Relaxed);
        }
        if inner.shutdown.load(Ordering::Acquire) {
            return;
        }
    }
}

/// One worker: waits for its signal, then drains every shard it owns
/// (shards are partitioned `shard % workers == w`, so no two workers
/// ever drain the same shard and per-session FIFO order is preserved).
fn worker_loop(inner: &Inner, w: usize) {
    let mut embedder = BatchEmbedder::new();
    let owned: Vec<usize> = (0..inner.config.shards)
        .filter(|s| s % inner.config.workers == w)
        .collect();
    loop {
        {
            let sig = &inner.signals[w];
            let mut work = lock_unpoisoned(&sig.work);
            while !*work && !inner.shutdown.load(Ordering::Acquire) {
                work = match sig.cv.wait_timeout(work, Duration::from_millis(50)) {
                    Ok((next, _timeout)) => next,
                    Err(poisoned) => poisoned.into_inner().0,
                };
            }
            *work = false;
        }
        loop {
            let mut drained = 0;
            for &s in &owned {
                drained += drain_shard(inner, s, &mut embedder);
            }
            if drained == 0 {
                break;
            }
        }
        if inner.shutdown.load(Ordering::Acquire) {
            // Final sweep so nothing accepted before shutdown is lost.
            for &s in &owned {
                while drain_shard(inner, s, &mut embedder) > 0 {}
            }
            return;
        }
    }
}

/// Featurise and classify the windows at `indices` through the group's
/// shared backbone — one `(batch, dim)` forward pass.
///
/// This is the only serving code that runs inside a `catch_unwind` (its
/// callers hold the session-map lock *outside* the catch, so a panic
/// here can never poison it). Before touching the model it fires any
/// armed chaos panics: a group-sized call (`consume_armed == false`)
/// only peeks — the same window must panic again when retried alone so
/// the strike lands on the right session — while an isolated single
/// -window call (`consume_armed == true`) consumes one armed charge.
fn run_windows(
    sessions: &SessionStore,
    popped: &[Request],
    indices: &[usize],
    embedder: &mut BatchEmbedder,
    consume_armed: bool,
) -> Result<Vec<magneto_core::Prediction>, magneto_core::CoreError> {
    for &i in indices {
        if let Some(entry) = sessions.get(popped[i].session) {
            // Single drainer per shard: load/store needs no CAS.
            let armed = entry.armed_panics.load(Ordering::Relaxed);
            if armed > 0 {
                if consume_armed {
                    entry.armed_panics.store(armed - 1, Ordering::Relaxed);
                }
                panic!("chaos: armed panic for session {}", popped[i].session);
            }
        }
    }
    // Grouped sessions were rehydrated by the drainer before grouping,
    // so every view is present (a paged session here would be a drainer
    // bug; the expect unwinds into the group's catch).
    let jobs: Vec<BatchJob<'_>> = indices
        .iter()
        .map(|&i| {
            let req = &popped[i];
            let view = sessions
                .get(req.session)
                .expect("grouped session present")
                .view()
                .expect("grouped session is hot");
            BatchJob {
                pipeline: view.pipeline,
                ncm: view.ncm,
                window: &req.window,
            }
        })
        .collect();
    let model = sessions
        .get(popped[indices[0]].session)
        .expect("grouped session present")
        .view()
        .expect("grouped session is hot")
        .model;
    infer_batch(model, &jobs, embedder)
}

/// The fleet-side self-healing step for one served window: the
/// session's [`HealingLoop`] observes the reply (harvesting `features`,
/// the window's row of the batch the drainer's embedder just staged),
/// and on sustained drift attempts a recalibration through the store's
/// commit path
/// ([`SessionStore::recalibrate_delta`], gated at the replay
/// self-accuracy floor). The shard counters add what the loop counted.
/// A no-op unless [`FleetConfig::healing`] is set.
fn heal_session(
    inner: &Inner,
    shard: &Shard,
    sessions: &mut SessionStore,
    req: &Request,
    features: &[f32],
    pred: &mut magneto_core::Prediction,
) {
    let Some(entry) = sessions.get_mut(req.session) else {
        return;
    };
    let Some(heal) = entry.healing.as_mut() else {
        return;
    };
    let before = heal.stats();
    let after = if heal.observe(pred, features) {
        // The commit path needs the whole store: lift the loop off its
        // entry for the attempt.
        let mut heal = entry.healing.take().expect("matched above");
        let floor = inner.config.replay_accuracy_floor;
        heal.attempt(|label, rows| {
            matches!(
                sessions.recalibrate_delta(req.session, label, rows, floor),
                Ok(ReplayOutcome::Committed { .. })
            )
        });
        let after = heal.stats();
        if let Some(entry) = sessions.get_mut(req.session) {
            entry.healing = Some(heal);
        }
        after
    } else {
        heal.stats()
    };
    let add = |counter: &AtomicU64, added: u64| {
        if added > 0 {
            counter.fetch_add(added, Ordering::Relaxed);
        }
    };
    let counters = &shard.counters;
    add(&counters.drift_alerts, after.drift_alerts - before.drift_alerts);
    add(&counters.auto_recals, after.auto_recals - before.auto_recals);
    add(&counters.recal_rollbacks, after.recal_rollbacks - before.recal_rollbacks);
}

/// Scatter one prediction (or serving error) back to its session.
fn reply_to(
    sessions: &SessionStore,
    req: &Request,
    outcome: Result<magneto_core::Prediction, String>,
) {
    if let Some(entry) = sessions.get(req.session) {
        let _receiver_gone = entry.tx.send(FleetReply {
            session: SessionId(req.session),
            seq: req.seq,
            outcome,
        });
    }
}

/// Drain one scheduling cycle from a shard: pop up to `max_batch`
/// pending windows, group them by model key, run each group through the
/// shared backbone as one forward pass, and scatter replies. Returns the
/// number of windows served.
///
/// Panic isolation: each group runs under `catch_unwind`. If it panics,
/// the group's windows are retried one at a time, each under its own
/// `catch_unwind` — innocent bystanders batched with a panicking session
/// get served (bit-identical to the batched result, which is the
/// runtime's standing invariant), the panicking window's session takes a
/// strike and its caller an error reply, and a session that exhausts its
/// strikes is quarantined (circuit breaker, [`SubmitError::Quarantined`]).
fn drain_shard(inner: &Inner, shard_idx: usize, embedder: &mut BatchEmbedder) -> usize {
    let shard = &inner.shards[shard_idx];
    let popped: Vec<Request> = {
        let mut q = lock_unpoisoned(&shard.queue);
        let n = q.pending.len().min(inner.config.max_batch);
        q.pending.drain(..n).collect()
    };
    if popped.is_empty() {
        return 0;
    }

    // Sessions that take a panic strike this cycle, and breakers tripped.
    let mut struck: Vec<u64> = Vec::new();
    let mut tripped: Vec<(u64, u32)> = Vec::new();

    {
        let mut sessions = lock_unpoisoned(&shard.sessions);
        // Rehydrate any paged session with popped windows before
        // grouping — the tiered store's page-in point. Failures (storage
        // unreadable, delta undecodable) turn into error replies below.
        let mut rehydrate_failed: HashMap<u64, String> = HashMap::new();
        for req in &popped {
            if rehydrate_failed.contains_key(&req.session) {
                continue;
            }
            match sessions.ensure_hot(req.session) {
                // Unknown = deregistered after enqueue: dropped below.
                Ok(_) | Err(StoreError::UnknownSession(_)) => {}
                Err(e) => {
                    rehydrate_failed.insert(req.session, e.to_string());
                }
            }
        }
        // Group request indices by (model key, precision), preserving pop
        // order within each group (pop order preserves per-session
        // submission order). Precision is part of the key: identical
        // weights at different precisions are different backbones.
        let mut groups: BTreeMap<(ModelKey, Precision), Vec<usize>> = BTreeMap::new();
        for (i, req) in popped.iter().enumerate() {
            if let Some(msg) = rehydrate_failed.get(&req.session) {
                reply_to(&sessions, req, Err(msg.clone()));
                continue;
            }
            if let Some(entry) = sessions.get(req.session) {
                groups.entry((entry.key, entry.precision)).or_default().push(i);
            }
            // A session deregistered after enqueue: its windows are
            // dropped; deregister already reconciled the accounting for
            // queued windows it removed, and any that were already
            // popped are reconciled below like served ones.
        }

        for (&(_, precision), indices) in &groups {
            let start = Instant::now();
            // The session-map guard stays OUTSIDE the catch so an unwind
            // cannot poison it.
            let attempt = std::panic::catch_unwind(AssertUnwindSafe(|| {
                run_windows(&sessions, &popped, indices, embedder, false)
            }));
            let outcome = match attempt {
                Ok(outcome) => outcome,
                Err(_panic) => {
                    // The batch died. Count it, discard the embedder's
                    // possibly half-written scratch, and retry each
                    // window alone so one bad session cannot take its
                    // batchmates down with it.
                    shard.counters.panics_caught.fetch_add(1, Ordering::Relaxed);
                    *embedder = BatchEmbedder::new();
                    for &i in indices {
                        let req = &popped[i];
                        let solo_start = Instant::now();
                        let solo = std::panic::catch_unwind(AssertUnwindSafe(|| {
                            run_windows(&sessions, &popped, &[i], embedder, true)
                        }));
                        let solo_outcome = match solo {
                            Ok(Ok(mut preds)) => {
                                shard.counters.record_batch(1, precision, solo_start.elapsed());
                                Ok(preds.pop().expect("one prediction for one job"))
                            }
                            Ok(Err(e)) => Err(e.to_string()),
                            Err(_panic) => {
                                shard
                                    .counters
                                    .panics_caught
                                    .fetch_add(1, Ordering::Relaxed);
                                *embedder = BatchEmbedder::new();
                                struck.push(req.session);
                                Err(format!(
                                    "serving panicked for {}; window dropped",
                                    SessionId(req.session)
                                ))
                            }
                        };
                        reply_to(&sessions, req, solo_outcome);
                    }
                    continue;
                }
            };
            let per_window = start.elapsed() / indices.len() as u32;
            shard.counters.record_batch(indices.len(), precision, per_window);

            match outcome {
                Ok(preds) => {
                    // Job `r` of the group is window `indices[r]`; its
                    // features are row `r` of the staged batch.
                    let staged = embedder.staged();
                    for (r, (&i, mut pred)) in indices.iter().zip(preds).enumerate() {
                        let req = &popped[i];
                        heal_session(inner, shard, &mut sessions, req, staged.row(r), &mut pred);
                        reply_to(&sessions, req, Ok(pred));
                    }
                }
                Err(e) => {
                    let msg = e.to_string();
                    for &i in indices {
                        reply_to(&sessions, &popped[i], Err(msg.clone()));
                    }
                }
            }
        }

        // Apply this cycle's strikes; trip breakers that crossed the
        // threshold. (`quarantine_strikes == 0` disables the breaker.)
        let threshold = inner.config.quarantine_strikes;
        for s in struck {
            if let Some(entry) = sessions.get_mut(s) {
                entry.strikes += 1;
                if threshold > 0 && entry.strikes >= threshold {
                    tripped.push((s, entry.strikes));
                }
            }
        }

        // Served sessions were touched by ensure_hot above; now
        // that the cycle is over, page out whatever the LRU says is
        // coldest if the shard is over its hot capacity.
        let spool = lock_unpoisoned(&inner.spool_dir).clone();
        sessions.enforce_capacity(inner.config.hot_delta_capacity, spool.as_deref());
    }

    // Reconcile in-flight accounting for everything popped this cycle
    // (served or dropped-with-session alike), and open tripped breakers.
    {
        let mut q = lock_unpoisoned(&shard.queue);
        for req in &popped {
            if let Some(n) = q.inflight.get_mut(&req.session) {
                *n = n.saturating_sub(1);
            }
        }
        let until = Instant::now() + inner.config.quarantine_for;
        for (s, strikes) in tripped {
            q.quarantined.insert(s, (strikes, until));
            shard
                .counters
                .sessions_quarantined
                .fetch_add(1, Ordering::Relaxed);
        }
    }
    inner.global_inflight.fetch_sub(popped.len(), Ordering::AcqRel);
    popped.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use magneto_core::{CloudConfig, CloudInitializer, SelfHealingConfig};
    use magneto_sensors::pool::StreamPool;
    use magneto_sensors::stream::StreamConfig;
    use magneto_sensors::{ActivityKind, GeneratorConfig, SensorDataset};

    #[test]
    fn each_group_harvests_its_own_staged_rows() {
        // Sessions on an f32 and an int8 base submit interleaved, so one
        // drain cycle pops two groups whose windows alternate in pop
        // order. A window's staged row is its position in its group, not
        // in the cycle: each session must harvest exactly the checked
        // pipeline rows of its own windows. No attempt may fire (it
        // would clear the harvest).
        let corpus = SensorDataset::generate(&GeneratorConfig::tiny(), 1);
        let bundle = CloudInitializer::new(CloudConfig::fast_demo())
            .pretrain(&corpus)
            .unwrap()
            .0;
        let mut fleet = Fleet::new(FleetConfig {
            healing: Some(SelfHealingConfig {
                min_confidence: 0.0,
                max_harvest: 64,
                hysteresis: 1_000,
                ..SelfHealingConfig::default()
            }),
            ..FleetConfig::deterministic()
        })
        .unwrap();
        let sessions: Vec<_> = [Precision::F32, Precision::Int8, Precision::F32, Precision::Int8]
            .into_iter()
            .map(|precision| {
                let key = fleet.register_base(&bundle, precision).unwrap();
                fleet.register_from_base(key, precision).unwrap()
            })
            .collect();
        let mut pool = StreamPool::new(
            sessions.len(),
            &ActivityKind::BASE_FIVE,
            120,
            StreamConfig::ideal(),
            7,
        );
        let rounds: Vec<_> = (0..6).map(|_| pool.next_round()).collect();
        for round in &rounds {
            for ((id, _), window) in sessions.iter().zip(round) {
                fleet.submit(*id, window.clone()).unwrap();
            }
        }
        assert_eq!(fleet.pump(), 24);
        let stats = &fleet.shard_stats()[0];
        assert_eq!((stats.batches, stats.windows_f32, stats.windows_int8), (2, 12, 12));

        let bits = |rows: &[Vec<f32>]| -> Vec<Vec<u32>> {
            rows.iter().map(|r| r.iter().map(|v| v.to_bits()).collect()).collect()
        };
        let store = lock_unpoisoned(&fleet.inner.shards[0].sessions);
        let mut harvested = 0;
        for (s, (id, rx)) in sessions.iter().enumerate() {
            let mut expected: HashMap<String, Vec<Vec<f32>>> = HashMap::new();
            for round in &rounds {
                let pred = rx.try_recv().unwrap().outcome.unwrap();
                let mut row = vec![0.0f32; bundle.pipeline.output_dim()];
                let quality = bundle.pipeline.process_checked_into(&round[s], &mut row).unwrap();
                assert_eq!(quality, pred.quality);
                if !quality.is_degraded() {
                    expected.entry(pred.label).or_default().push(row);
                }
            }
            let heal = store.get(id.0).unwrap().healing.as_deref().unwrap();
            let st = heal.stats();
            assert_eq!(st.auto_recals + st.recal_rollbacks, 0, "{id}");
            for label in bundle.registry.labels() {
                let want = expected.remove(label).unwrap_or_default();
                harvested += want.len();
                assert_eq!(bits(heal.harvested(label)), bits(&want), "{id} label {label}");
            }
            assert!(expected.is_empty(), "{id}: labels outside the base {expected:?}");
        }
        assert_eq!(harvested, 24, "every clean window is harvested");
        drop(store);
        fleet.shutdown();
    }
}
