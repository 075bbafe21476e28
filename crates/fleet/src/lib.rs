//! # magneto-fleet
//!
//! A concurrent multi-user serving runtime for MAGNETO: many
//! personalised sessions under one roof, served by micro-batching
//! schedulers that coalesce pending sensor windows *across sessions*
//! into single backbone forward passes.
//!
//! The paper's demo drives one phone; the ROADMAP's north star is a
//! production-scale system. This crate is the serving layer between the
//! two, built std-only (threads + `mpsc` + atomics — no async runtime):
//!
//! * **Sharded session registry** — a session is pinned to shard
//!   `id % shards`, each shard is drained by exactly one worker thread,
//!   so per-session request order is FIFO end to end with no global lock.
//! * **Bounded queues + admission control** — every shard queue has a
//!   hard capacity, and both per-session and fleet-wide in-flight caps
//!   apply at submit. Overload *rejects* with a retry-after hint
//!   ([`SubmitError`]); memory never grows with load.
//! * **Cross-session micro-batching** — each drain cycle groups pending
//!   windows by [`ModelKey`] (bit-identical backbone weights) and runs
//!   each group through `magneto_core::inference::infer_batch`: one
//!   `(batch, dim)` matmul chain instead of per-window forwards, which
//!   is where PR 1's 2.58× batched embed speedup becomes fleet
//!   throughput.
//! * **Determinism** — scheduling decides only *when* windows run, never
//!   *what* they compute: featurisation and classification are per-job
//!   with the owning session's own pipeline/prototypes, and the batched
//!   kernels are bit-identical to the per-sample path. Fleet outputs
//!   equal sequential per-device inference at any worker/shard count
//!   (property-tested), and `workers == 0` gives a fully deterministic
//!   caller-driven mode ([`Fleet::pump`]).
//! * **One session kind** ([`store`]) — every session is a base plus a
//!   personal delta: one refcounted immutable [`store::SharedBase`] per
//!   `(ModelKey, precision)` plus a compact per-user
//!   [`magneto_core::PersonalDelta`] applied as an NCM overlay at serve
//!   time. Calibrated sessions keep the shared key (only the classifier
//!   is overlaid, never the backbone) and stay batchable; cold deltas
//!   page out to crash-safe storage under an LRU and rehydrate
//!   bit-identically on their next submit. Resident bytes per user
//!   collapse from a full model copy to the delta alone.
//!
//! **Privacy:** sessions share *compute*, never *data*. A window is
//! pre-processed by its own session's pipeline, classified against its
//! own prototypes, and its reply goes only to its own channel; the only
//! thing two sessions may share is a read-only borrow of backbone
//! weights they both already have. A device that retrains on-device
//! re-enters the fleet on a private base built from its own snapshot
//! ([`Fleet::register`]), keyed by that snapshot's content hash, so its
//! personalised weights are never pooled with anyone else's.
//!
//! ```
//! use magneto_core::{CloudConfig, CloudInitializer, Precision};
//! use magneto_fleet::{Fleet, FleetConfig};
//! use magneto_sensors::{GeneratorConfig, SensorDataset};
//!
//! let corpus = SensorDataset::generate(&GeneratorConfig::tiny(), 42);
//! let (bundle, _) = CloudInitializer::new(CloudConfig::fast_demo())
//!     .pretrain(&corpus)
//!     .unwrap();
//!
//! let mut fleet = Fleet::new(FleetConfig::deterministic()).unwrap();
//! let key = fleet.register_base(&bundle, Precision::F32).unwrap();
//! let (id, replies) = fleet.register_from_base(key, Precision::F32).unwrap();
//!
//! let probe = SensorDataset::generate(&GeneratorConfig::tiny(), 7);
//! fleet.submit(id, probe.windows[0].channels.clone()).unwrap();
//! fleet.pump();
//! let reply = replies.try_recv().unwrap();
//! assert_eq!(reply.session, id);
//! assert!(reply.outcome.is_ok());
//! ```

pub mod config;
pub mod counters;
pub mod error;
pub mod runtime;
pub mod session;
pub mod store;

pub use config::FleetConfig;
pub use counters::ShardStats;
pub use error::FleetError;
pub use runtime::Fleet;
pub use session::{FleetReply, ModelKey, SessionId, SubmitError};
pub use store::{ReplayOutcome, SharedBase, StoreError};
