//! Tiered session store: shared immutable bases + per-user deltas.
//!
//! A million registered users do not need a million resident models.
//! What differs per user is a compact [`PersonalDelta`] (calibrated
//! prototypes, private support rows, last-layer adjustments); everything
//! else — pipeline, backbone weights, base support set, base NCM — is
//! identical across every session deployed from the same bundle at the
//! same precision. The store therefore splits session state into two
//! tiers:
//!
//! * **[`SharedBase`]** — one refcounted (`Arc`) immutable copy per
//!   `(ModelKey, Precision)`, registered once via
//!   [`crate::Fleet::register_base`] and shared by every session
//!   deployed from it. Because a delta only overlays the *classifier*
//!   (prototypes), never the backbone, sessions keep the shared
//!   [`ModelKey`](crate::ModelKey) and stay batchable with their
//!   base-model peers.
//! * **Per-session state** — [`SessionModel`]: a *hot* session (delta +
//!   pre-applied NCM overlay, ready to serve) or a *paged* one (delta
//!   serialized out to the crash-safe framed-storage path, only an `Arc`
//!   to the base and a path/bytes handle resident).
//!
//! Every session is a base plus a delta; there is no other kind. A
//! device that retrains its backbone on-device re-enters the fleet
//! through [`crate::Fleet::register`], which builds a *private* base from
//! the device's own snapshot: held by that one session's `Arc`, keyed by
//! the snapshot's content hash, and freed when the session is
//! deregistered; the caller deregisters the device's old session.
//!
//! Hot deltas live in an LRU (touch-clock + `BTreeMap`); when a shard
//! exceeds its configured hot capacity, the coldest deltas page out.
//! Rehydration on the next submit is exact: delta bytes round-trip
//! bit-identically (see `magneto_core::delta`) and the overlay is
//! rebuilt by re-applying the delta to the same immutable base, so a
//! paged-out → rehydrated session serves bit-identical predictions.

use crate::session::{FleetReply, ModelKey, SessionId};
use magneto_core::incremental::ModelState;
use magneto_core::storage::{load_framed, save_framed};
use magneto_core::{
    self_accuracy, stage_rows, BatchEmbedder, CoreError, EdgeBundle, HealingLoop, InferenceView,
    LabelRegistry, ModelVersion, NcmClassifier, PersonalDelta, Precision, ResidentModel,
    RollbackReason,
};
use magneto_dsp::PreprocessingPipeline;
use magneto_tensor::vector::DistanceMetric;
use magneto_tensor::Matrix;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::path::Path;
use std::sync::atomic::AtomicU32;
use std::sync::mpsc::Sender;
use std::sync::Arc;

/// Errors from the tiered-store APIs ([`crate::Fleet::register`],
/// [`crate::Fleet::register_base`], [`crate::Fleet::register_from_base`],
/// [`crate::Fleet::calibrate_session`], paging).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// No such session is registered.
    UnknownSession(SessionId),
    /// No base is registered under this `(key, precision)`.
    UnknownBase(ModelKey, Precision),
    /// A delta pinned to one base met another — another version, or
    /// the same version with other content: its prototypes live in a
    /// different embedding space, so it can neither be committed onto
    /// nor rehydrated against that base.
    BaseMismatch {
        /// The session the delta belongs to.
        session: SessionId,
        /// The version the delta is pinned to.
        pinned: ModelVersion,
        /// The version of the base it met.
        base: ModelVersion,
    },
    /// Serving/serialization/storage failure, with the underlying error
    /// rendered.
    Storage(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::UnknownSession(id) => write!(f, "unknown {id}"),
            StoreError::UnknownBase(key, precision) => {
                write!(f, "no shared base registered for {key:?} at {precision:?}")
            }
            StoreError::BaseMismatch {
                session,
                pinned,
                base,
            } if pinned == base => write!(
                f,
                "delta for {session} is calibrated against another {base} base (its content differs)"
            ),
            StoreError::BaseMismatch {
                session,
                pinned,
                base,
            } => write!(
                f,
                "delta for {session} is calibrated against {pinned} but the base is {base}"
            ),
            StoreError::Storage(msg) => write!(f, "session store: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<CoreError> for StoreError {
    fn from(e: CoreError) -> Self {
        StoreError::Storage(e.to_string())
    }
}

/// Result of a transactional base-version migration
/// ([`crate::Fleet::migrate_session`]): either the user's calibration
/// was replayed through the new backbone, validated and committed, or
/// the session was left on its exact pre-migration `(base, delta)` pair
/// — the same commit-or-rollback contract as
/// [`magneto_core::incremental::UpdateOutcome`].
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub enum ReplayOutcome {
    /// The replay passed every validation gate and the session now
    /// serves on the new base.
    Committed {
        /// Classes the migrated session recognises.
        classes: usize,
        /// Personal prototypes re-derived through the new backbone.
        replayed_prototypes: usize,
    },
    /// The replay failed validation; the session is byte-identical to
    /// its pre-migration state.
    RolledBack {
        /// Which validation gate rejected the replayed state.
        reason: RollbackReason,
    },
}

impl ReplayOutcome {
    /// The outcome of a commit-path gate, `replayed` prototypes re-derived.
    fn from_gate(gate: Result<usize, RollbackReason>, replayed: usize) -> Self {
        match gate {
            Ok(classes) => ReplayOutcome::Committed {
                classes,
                replayed_prototypes: replayed,
            },
            Err(reason) => ReplayOutcome::RolledBack { reason },
        }
    }

    /// `true` when the migration committed.
    pub fn is_committed(&self) -> bool {
        matches!(self, ReplayOutcome::Committed { .. })
    }

    /// The rollback reason, when rolled back.
    pub fn rollback_reason(&self) -> Option<RollbackReason> {
        match self {
            ReplayOutcome::Committed { .. } => None,
            ReplayOutcome::RolledBack { reason } => Some(*reason),
        }
    }
}

/// One immutable, refcounted base model: everything identical across all
/// sessions deployed from one bundle at one precision. Assembled by the
/// same [`ModelState::from_bundle`] path as
/// [`EdgeDevice::deploy`](magneto_core::EdgeDevice::deploy), so a session
/// with an empty delta serves bit-identically to a device deployed from
/// the same bundle. The base keeps no support set: its prototypes are
/// built at assembly, and migrate/recalibrate replay from the delta's
/// own rows.
pub struct SharedBase {
    pub(crate) pipeline: PreprocessingPipeline,
    pub(crate) model: magneto_core::ResidentModel,
    pub(crate) registry: LabelRegistry,
    pub(crate) ncm: NcmClassifier,
    /// The bundle's model version. Deltas calibrated on this base are
    /// pinned to it, and spool frames carry it so a rehydration
    /// validates it still matches.
    pub(crate) version: ModelVersion,
    /// The bundle's content hash, pinned beside the version: two bases
    /// of one version can hold different weights.
    pub(crate) content_hash: u64,
}

impl SharedBase {
    /// Assemble a shared base from a bundle at `precision`.
    ///
    /// # Errors
    /// Propagates bundle validation / precision conversion / assembly
    /// errors.
    pub fn from_bundle(
        bundle: &EdgeBundle,
        precision: Precision,
        metric: DistanceMetric,
    ) -> magneto_core::Result<Self> {
        let (version, content_hash) = (bundle.version(), bundle.content_hash());
        let (state, pipeline, _) = ModelState::from_bundle(bundle.clone(), precision, metric)?;
        Ok(SharedBase {
            pipeline,
            model: state.model,
            registry: state.registry,
            ncm: state.ncm,
            version,
            content_hash,
        })
    }

    /// The base-model version this base was assembled from.
    pub fn version(&self) -> ModelVersion {
        self.version
    }

    /// Resident bytes of this base (model parameters + prototypes) — paid
    /// **once** per `(key, precision)`, however many sessions share it.
    pub fn bytes(&self) -> usize {
        self.model.resident_bytes() + self.ncm.resident_bytes()
    }

    /// Class labels the base recognises.
    pub fn classes(&self) -> Vec<String> {
        self.registry.labels().to_vec()
    }
}

/// A hot (resident, serveable) base+delta session.
pub(crate) struct DeltaSession {
    /// The shared immutable base — an `Arc` clone, not a copy.
    pub(crate) base: Arc<SharedBase>,
    /// This user's compact personalization.
    pub(crate) delta: PersonalDelta,
    /// The base NCM with the delta applied, rebuilt (never edited in
    /// place) whenever the delta changes. `None` while the delta is
    /// empty: serve straight off the base's NCM.
    pub(crate) overlay: Option<NcmClassifier>,
    /// LRU touch stamp (0 = not yet in the LRU).
    touch: u64,
}

impl DeltaSession {
    pub(crate) fn fresh(base: Arc<SharedBase>) -> Self {
        DeltaSession {
            base,
            delta: PersonalDelta::new(),
            overlay: None,
            touch: 0,
        }
    }

    /// `delta` on `base` with its overlay built, under LRU stamp `touch`.
    fn build(base: Arc<SharedBase>, delta: PersonalDelta, touch: u64) -> Result<Self, StoreError> {
        let mut session = DeltaSession {
            base,
            delta,
            overlay: None,
            touch,
        };
        session.rebuild_overlay()?;
        Ok(session)
    }

    /// Rebuild the overlay from the base + current delta. Always clones
    /// from the immutable base, so the overlay is a pure deterministic
    /// function of `(base, delta)` — the property that makes a page-out
    /// → rehydrate cycle bit-exact.
    ///
    /// The delta's private support rows (feature-space) are embedded
    /// through the base backbone — at its resident precision, so an int8
    /// session never rehydrates f32 weights — and indexed as int8
    /// exemplars on the overlay's quantized NCM index: serving classifies
    /// against the user's own recordings, not just class means.
    pub(crate) fn rebuild_overlay(&mut self) -> Result<(), StoreError> {
        if self.delta.is_empty() {
            self.overlay = None;
            return Ok(());
        }
        let mut ncm = self.base.ncm.clone();
        self.delta.apply(&mut ncm)?;
        let mut embedder = BatchEmbedder::new();
        let mut embeddings = Matrix::default();
        for label in self.delta.support_labels() {
            // Support rows for a label the classifier doesn't know (no
            // base class and no delta prototype) have nothing to attach
            // to; they stay in the delta for future calibration.
            if ncm.prototype(label).is_none() {
                continue;
            }
            let rows = self.delta.support(label).expect("label came from support_labels");
            if rows.is_empty() {
                continue;
            }
            embedder.embed_rows(&self.base.model, rows, &mut embeddings)?;
            ncm.set_class_exemplars(label, &embeddings)?;
        }
        self.overlay = Some(ncm);
        Ok(())
    }
}

/// Refuse a delta pinned to a base other than `base`: another version,
/// or the same version with other content.
fn check_pin(id: u64, delta: &PersonalDelta, base: &SharedBase) -> Result<(), StoreError> {
    match delta.base_version() {
        Some(pinned) if pinned != base.version || delta.base_hash() != Some(base.content_hash) => {
            Err(StoreError::BaseMismatch {
                session: SessionId(id),
                pinned,
                base: base.version,
            })
        }
        _ => Ok(()),
    }
}

/// A candidate session state for [`SessionStore::commit_delta`]: the
/// delta and the `(base, key, precision)` it is to serve under.
pub(crate) struct Candidate {
    pub(crate) base: Arc<SharedBase>,
    pub(crate) key: ModelKey,
    pub(crate) precision: Precision,
    pub(crate) delta: PersonalDelta,
}

/// Why session `id` is not hot: unknown, or paged without
/// [`SessionStore::ensure_hot`] having been called.
fn not_hot(id: u64, registered: bool) -> StoreError {
    if registered {
        StoreError::Storage(format!(
            "{} touched while paged (ensure_hot not called)",
            SessionId(id)
        ))
    } else {
        StoreError::UnknownSession(SessionId(id))
    }
}

/// The prototype for feature `rows` on `model`: their mean embedding —
/// the derivation shared by calibration, migration replay and automatic
/// recalibration — or why there is none.
fn prototype(
    model: &ResidentModel,
    rows: &[Vec<f32>],
    embedder: &mut BatchEmbedder,
) -> Result<Result<Vec<f32>, RollbackReason>, StoreError> {
    if rows.is_empty() {
        return Ok(Err(RollbackReason::MissingReplaySource));
    }
    let mut embeddings = Matrix::default();
    embedder.embed_rows(model, rows, &mut embeddings)?;
    if (0..embeddings.rows()).any(|r| embeddings.row(r).iter().any(|v| !v.is_finite())) {
        return Ok(Err(RollbackReason::NonFiniteWeights));
    }
    Ok(Ok(mean_embedding(&embeddings)))
}

/// Column mean of an embedding matrix.
fn mean_embedding(embeddings: &Matrix) -> Vec<f32> {
    let mut proto = vec![0.0f32; embeddings.cols()];
    for r in 0..embeddings.rows() {
        for (p, v) in proto.iter_mut().zip(embeddings.row(r)) {
            *p += v;
        }
    }
    let n = embeddings.rows() as f32;
    for p in &mut proto {
        *p /= n;
    }
    proto
}

/// Where a paged-out delta's bytes live.
pub(crate) enum ColdStore {
    /// In-memory spill (no spool directory configured, or disk write
    /// failed): still evicted from the hot tier, bytes kept verbatim.
    Memory(Vec<u8>),
    /// On disk via the crash-safe framed-storage path
    /// (`magneto_core::storage::save_framed`), stamped with the base
    /// version.
    Disk(std::path::PathBuf),
}

/// A paged-out delta session: only the base `Arc` and a cold handle
/// remain resident. Not serveable until rehydrated.
pub(crate) struct PagedDelta {
    pub(crate) base: Arc<SharedBase>,
    pub(crate) store: ColdStore,
}

/// The tiered per-session model state. The hot arm is boxed: it
/// carries the overlay classifier's quantized row index, while a paged
/// session is pointers — tiering exists precisely because the arms
/// differ by orders of magnitude.
pub(crate) enum SessionModel {
    /// Hot base+delta session.
    Delta(Box<DeltaSession>),
    /// Cold base+delta session (delta paged out).
    Paged(PagedDelta),
}

impl SessionModel {
    /// The base this session serves on, hot or paged.
    pub(crate) fn base(&self) -> &Arc<SharedBase> {
        match self {
            SessionModel::Delta(ds) => &ds.base,
            SessionModel::Paged(pd) => &pd.base,
        }
    }
}

/// One registered session: tiered model state plus serving bookkeeping.
pub(crate) struct SessionEntry {
    pub(crate) model: SessionModel,
    pub(crate) key: ModelKey,
    pub(crate) precision: Precision,
    pub(crate) tx: Sender<FleetReply>,
    pub(crate) strikes: u32,
    pub(crate) armed_panics: AtomicU32,
    /// Self-healing loop, present when [`crate::FleetConfig::healing`]
    /// is set. Lives on the entry, not
    /// the model, so it survives page-out/rehydrate cycles and base
    /// migrations.
    pub(crate) healing: Option<Box<HealingLoop>>,
}

impl SessionEntry {
    /// Borrowed serving view, if the session is hot. Paged sessions
    /// return `None` — the drainer rehydrates before grouping, so a
    /// `None` here during serving is a logic error upstream.
    pub(crate) fn view(&self) -> Option<InferenceView<'_>> {
        match &self.model {
            SessionModel::Delta(ds) => Some(InferenceView {
                pipeline: &ds.base.pipeline,
                model: &ds.base.model,
                ncm: ds.overlay.as_ref().unwrap_or(&ds.base.ncm),
            }),
            SessionModel::Paged(_) => None,
        }
    }

    /// Bytes this session holds resident *beyond* a shared base. A base
    /// no one else holds (a private base from [`crate::Fleet::register`])
    /// is this session's own cost and is counted here.
    fn resident_bytes(&self) -> usize {
        let base = self.model.base();
        let private = if Arc::strong_count(base) == 1 {
            base.bytes()
        } else {
            0
        };
        private
            + match &self.model {
                SessionModel::Delta(ds) => {
                    let overlay = ds.overlay.as_ref().map_or(0, NcmClassifier::resident_bytes);
                    ds.delta.resident_bytes() + overlay
                }
                SessionModel::Paged(pd) => match &pd.store {
                    ColdStore::Memory(bytes) => bytes.len(),
                    ColdStore::Disk(_) => 0,
                },
            }
    }
}

/// Point-in-time tier accounting for one shard, folded into
/// [`crate::ShardStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct TierSnapshot {
    /// Per-session resident bytes across the shard (excludes shared
    /// bases, which are fleet-global and counted once; includes private
    /// ones).
    pub resident_bytes: usize,
    /// Sessions currently serveable without rehydration.
    pub hot_sessions: usize,
    /// Sessions currently paged out.
    pub paged_sessions: usize,
    /// Lifetime count of page-ins (cold session touched by a submit).
    pub rehydrations: u64,
}

/// One shard's session map with LRU tiering over its sessions.
///
/// All methods assume the caller holds the shard's session lock — this
/// type adds no synchronisation of its own (mirrors the plain `HashMap`
/// it replaced).
pub(crate) struct SessionStore {
    entries: HashMap<u64, SessionEntry>,
    /// touch-stamp → session id, oldest first. Only hot sessions appear
    /// here; paged sessions left the tier.
    lru: BTreeMap<u64, u64>,
    clock: u64,
    hot_deltas: usize,
    paged: usize,
    rehydrations: u64,
}

impl SessionStore {
    pub(crate) fn new() -> Self {
        SessionStore {
            entries: HashMap::new(),
            lru: BTreeMap::new(),
            clock: 0,
            hot_deltas: 0,
            paged: 0,
            rehydrations: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    pub(crate) fn get(&self, id: u64) -> Option<&SessionEntry> {
        self.entries.get(&id)
    }

    pub(crate) fn get_mut(&mut self, id: u64) -> Option<&mut SessionEntry> {
        self.entries.get_mut(&id)
    }

    /// A **hot** session (call [`ensure_hot`](Self::ensure_hot) first).
    pub(crate) fn delta(&self, id: u64) -> Result<&DeltaSession, StoreError> {
        match self.entries.get(&id).map(|e| &e.model) {
            Some(SessionModel::Delta(ds)) => Ok(ds),
            other => Err(not_hot(id, other.is_some())),
        }
    }

    /// Mutable access to a **hot** session (call
    /// [`ensure_hot`](Self::ensure_hot) first).
    pub(crate) fn delta_mut(&mut self, id: u64) -> Result<&mut DeltaSession, StoreError> {
        match self.entries.get_mut(&id).map(|e| &mut e.model) {
            Some(SessionModel::Delta(ds)) => Ok(ds),
            other => Err(not_hot(id, other.is_some())),
        }
    }

    pub(crate) fn insert(&mut self, id: u64, entry: SessionEntry) {
        let hot = matches!(entry.model, SessionModel::Delta(_));
        if hot {
            self.hot_deltas += 1;
        } else {
            self.paged += 1;
        }
        self.entries.insert(id, entry);
        if hot {
            self.touch(id);
        }
    }

    pub(crate) fn remove(&mut self, id: u64) -> Option<SessionEntry> {
        let entry = self.entries.remove(&id)?;
        match &entry.model {
            SessionModel::Delta(ds) => {
                if ds.touch != 0 {
                    self.lru.remove(&ds.touch);
                }
                self.hot_deltas -= 1;
            }
            SessionModel::Paged(pd) => {
                self.paged -= 1;
                if let ColdStore::Disk(path) = &pd.store {
                    let _ = std::fs::remove_file(path);
                }
            }
        }
        Some(entry)
    }

    /// Mark a session most-recently-used. No-op for paged and unknown
    /// sessions.
    pub(crate) fn touch(&mut self, id: u64) {
        if let Some(entry) = self.entries.get_mut(&id) {
            if let SessionModel::Delta(ds) = &mut entry.model {
                if ds.touch != 0 {
                    self.lru.remove(&ds.touch);
                }
                self.clock += 1;
                ds.touch = self.clock;
                self.lru.insert(self.clock, id);
            }
        }
    }

    /// Rehydrate `id` if it is paged: load the delta bytes (memory or
    /// crash-safe disk frame), decode, and rebuild the overlay against
    /// the same immutable base. Returns `true` if a rehydration
    /// happened. Hot sessions are touched and left alone.
    pub(crate) fn ensure_hot(&mut self, id: u64) -> Result<bool, StoreError> {
        let entry = self
            .entries
            .get_mut(&id)
            .ok_or(StoreError::UnknownSession(SessionId(id)))?;
        let SessionModel::Paged(pd) = &entry.model else {
            self.touch(id);
            return Ok(false);
        };
        let bytes = match &pd.store {
            ColdStore::Memory(bytes) => bytes.clone(),
            ColdStore::Disk(path) => {
                let (bytes, frame_version) = load_framed(path)?;
                // The spool frame must still match the base it will
                // rehydrate against; a mismatch means the spool file
                // belongs to a different base generation.
                if frame_version != pd.base.version {
                    return Err(StoreError::Storage(format!(
                        "spool frame for {} is pinned to {frame_version} but the base is {}",
                        SessionId(id),
                        pd.base.version
                    )));
                }
                bytes
            }
        };
        let delta = PersonalDelta::from_bytes(&bytes)?;
        check_pin(id, &delta, &pd.base)?;
        let ds = DeltaSession::build(Arc::clone(&pd.base), delta, 0)?;
        if let ColdStore::Disk(path) = &pd.store {
            let _ = std::fs::remove_file(path);
        }
        entry.model = SessionModel::Delta(Box::new(ds));
        self.paged -= 1;
        self.hot_deltas += 1;
        self.rehydrations += 1;
        self.touch(id);
        Ok(true)
    }

    /// Page a hot delta session out: serialize the delta, spill it to
    /// the spool directory via the crash-safe framed path (falling back
    /// to an in-memory spill if no spool is set or the write fails), and
    /// drop the overlay. Returns `true` if the session was hot and is now
    /// paged.
    pub(crate) fn page_out(&mut self, id: u64, spool: Option<&Path>) -> bool {
        let Some(entry) = self.entries.get_mut(&id) else {
            return false;
        };
        let SessionModel::Delta(ds) = &entry.model else {
            return false;
        };
        let bytes = ds.delta.to_bytes();
        let base = Arc::clone(&ds.base);
        let touch = ds.touch;
        let store = match spool {
            Some(dir) => {
                let path = dir.join(format!("session-{id}.delta"));
                // Stamp the spool frame with the base version so the
                // on-disk artefact is self-describing and rehydration
                // can validate it.
                match save_framed(&bytes, base.version, &path) {
                    Ok(()) => ColdStore::Disk(path),
                    Err(_) => ColdStore::Memory(bytes),
                }
            }
            None => ColdStore::Memory(bytes),
        };
        entry.model = SessionModel::Paged(PagedDelta { base, store });
        if touch != 0 {
            self.lru.remove(&touch);
        }
        self.hot_deltas -= 1;
        self.paged += 1;
        true
    }

    /// Evict least-recently-used sessions until at most `capacity`
    /// remain hot. `capacity == 0` disables tiering (all deltas stay
    /// resident).
    pub(crate) fn enforce_capacity(&mut self, capacity: usize, spool: Option<&Path>) {
        if capacity == 0 {
            return;
        }
        while self.hot_deltas > capacity {
            let Some((_, &id)) = self.lru.iter().next() else {
                break;
            };
            if !self.page_out(id, spool) {
                // An LRU entry must be a hot session; bail rather than spin
                // if the invariant is ever broken.
                break;
            }
        }
    }

    /// The one commit path for a hot session: stage `candidate`
    /// aside, rebuild its overlay, gate it, and swap it in.
    ///
    /// Nothing touches the session until every check has passed, so on
    /// any rollback or error its old `(base, delta)` pair, key and
    /// precision are left byte-identical (mirroring `UpdateOutcome`'s
    /// commit-or-rollback contract). The checks, in order:
    /// * a delta pinned to a version other than the candidate base's is
    ///   refused with [`StoreError::BaseMismatch`] — it could not be
    ///   rehydrated after a page-out;
    /// * the overlay must rebuild (errors propagate);
    /// * with `accuracy_floor > 0`, the overlay must classify the
    ///   user's own support rows at the floor or better, else
    ///   [`RollbackReason::SelfAccuracy`].
    ///
    /// Returns the committed session's class count. The LRU stamp is
    /// kept, so the lru map entry still points at this id.
    pub(crate) fn commit_delta(
        &mut self,
        id: u64,
        candidate: Candidate,
        accuracy_floor: f32,
    ) -> Result<Result<usize, RollbackReason>, StoreError> {
        let touch = self.delta(id)?.touch;
        let Candidate {
            base,
            key,
            precision,
            delta,
        } = candidate;
        check_pin(id, &delta, &base)?;
        let session = DeltaSession::build(base, delta, touch)?;
        let ncm = session.overlay.as_ref().unwrap_or(&session.base.ncm);
        if accuracy_floor > 0.0 {
            let delta = &session.delta;
            let accuracy = self_accuracy(
                &session.base.model,
                ncm,
                delta.support_labels(),
                |label, staging| match delta.support(label) {
                    Some(rows) if !rows.is_empty() => stage_rows(rows, staging).map(|()| true),
                    _ => Ok(false),
                },
            )?;
            if let Some(after) = accuracy.filter(|a| *a < accuracy_floor) {
                return Ok(Err(RollbackReason::SelfAccuracy {
                    after,
                    floor: accuracy_floor,
                }));
            }
        }
        let classes = ncm.num_classes();
        let entry = self.entries.get_mut(&id).expect("hot entry checked above");
        entry.model = SessionModel::Delta(Box::new(session));
        entry.key = key;
        entry.precision = precision;
        Ok(Ok(classes))
    }

    /// Transactionally migrate a hot session onto `new_base`,
    /// replaying the user's calibration through the new backbone, and
    /// commit it through [`commit_delta`](Self::commit_delta) gated at
    /// `accuracy_floor`.
    ///
    /// Prototypes are re-derived as the mean embedding of the delta's
    /// stored support rows — the exact computation `calibrate_session`
    /// performs — so a surviving migration is the calibration the user
    /// would have gotten on the new base. Margin, threshold and support
    /// rows are base-independent and carry over verbatim. Replay gates
    /// (each a [`RollbackReason`]):
    /// * a prototype with no stored support rows cannot cross embedding
    ///   spaces → [`RollbackReason::MissingReplaySource`];
    /// * non-finite embeddings out of the new backbone →
    ///   [`RollbackReason::NonFiniteWeights`].
    pub(crate) fn migrate_delta(
        &mut self,
        id: u64,
        new_base: &Arc<SharedBase>,
        new_key: ModelKey,
        precision: Precision,
        accuracy_floor: f32,
    ) -> Result<ReplayOutcome, StoreError> {
        let old_delta = &self.delta(id)?.delta;
        let mut delta = old_delta.clone();
        let mut embedder = BatchEmbedder::new();
        let mut replayed = 0usize;
        for label in old_delta.prototype_labels() {
            let rows = old_delta.support(label).unwrap_or_default();
            match prototype(&new_base.model, rows, &mut embedder)? {
                Ok(proto) => delta.set_prototype(label, proto),
                Err(reason) => return Ok(ReplayOutcome::RolledBack { reason }),
            }
            replayed += 1;
        }
        if !delta.is_empty() {
            delta.pin_base(new_base.version, new_base.content_hash);
        }
        let candidate = Candidate {
            base: Arc::clone(new_base),
            key: new_key,
            precision,
            delta,
        };
        let gate = self.commit_delta(id, candidate, accuracy_floor)?;
        Ok(ReplayOutcome::from_gate(gate, replayed))
    }

    /// Transactionally recalibrate a hot session from harvested
    /// drift evidence: `rows` become the refreshed support for `label`
    /// (the exact [`crate::Fleet::calibrate_session`] computation), and
    /// the candidate commits through [`commit_delta`](Self::commit_delta)
    /// only if it still classifies *all* of the user's support rows at
    /// `accuracy_floor` or better — the refreshed class must not
    /// cannibalise the others.
    pub(crate) fn recalibrate_delta(
        &mut self,
        id: u64,
        label: &str,
        rows: &[Vec<f32>],
        accuracy_floor: f32,
    ) -> Result<ReplayOutcome, StoreError> {
        let ds = self.delta(id)?;
        let proto = match prototype(&ds.base.model, rows, &mut BatchEmbedder::new())? {
            Ok(proto) => proto,
            Err(reason) => return Ok(ReplayOutcome::RolledBack { reason }),
        };
        let mut delta = ds.delta.clone();
        delta.set_prototype(label, proto);
        delta.set_support(label, rows.to_vec());
        // Pin the calibration to the base generation it was computed
        // against, so a future base swap knows what to replay.
        delta.pin_base(ds.base.version, ds.base.content_hash);
        let entry = &self.entries[&id];
        let candidate = Candidate {
            base: Arc::clone(&ds.base),
            key: entry.key,
            precision: entry.precision,
            delta,
        };
        let gate = self.commit_delta(id, candidate, accuracy_floor)?;
        Ok(ReplayOutcome::from_gate(gate, 1))
    }

    pub(crate) fn tier_snapshot(&self) -> TierSnapshot {
        let resident_bytes = self.entries.values().map(SessionEntry::resident_bytes).sum();
        TierSnapshot {
            resident_bytes,
            hot_sessions: self.entries.len() - self.paged,
            paged_sessions: self.paged,
            rehydrations: self.rehydrations,
        }
    }
}
