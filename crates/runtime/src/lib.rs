//! `smartwatch-runtime` — the sharded wall-clock data-plane engine.
//!
//! Everything else in the workspace runs under simulated time: traces
//! carry their own timestamps and components advance a virtual clock.
//! This crate executes the same pipeline — ingest → RSS shard →
//! FlowCache update → detector suite → host escalation → verdict — on
//! real OS threads at wall-clock speed, measured in Mpps.
//!
//! Layout:
//!
//! * `batch` — the hot-path currency: pre-digested packets (canonical
//!   key + symmetric hash computed once at dispatch), pooled batch
//!   buffers recycled shard→dispatcher, and the bounded idle backoff.
//! * [`frame`] — fixed-capacity frame buffers ([`FramePool`]) for the
//!   zero-copy wire ingest path: ingest units load raw frames into pooled
//!   slots (the software RX-ring), parse them in place with
//!   [`smartwatch_net::FrameView`] and recycle the slots —
//!   allocation-free in steady state.
//! * [`spsc`] — bounded single-producer/single-consumer batch queues
//!   with explicit backpressure or accounted drops (never silent loss).
//! * [`control`] — the epoch-stamped verdict log fanning host decisions
//!   back to every shard at batch boundaries. Bounded: the applied
//!   prefix compacts away once every registered reader is past it.
//! * [`escalate`] — the host-side worker pool (a multi-threaded
//!   generalisation of [`smartwatch_host::NfWorker`]) plus the default
//!   [`TriageNf`] escalation triage.
//! * [`shard`] — the per-thread worker: one FlowCache partition, one
//!   detector suite, no cross-shard synchronisation on the packet path.
//!   In the pipeline, ingest arrives over one SPSC lane per shard.
//! * [`engine`] — the [`Engine`] and its two thread topologies:
//!   [`DatapathMode::Pipeline`], one dispatcher feeding the shards over
//!   one SPSC lane each, and [`DatapathMode::Rtc`], C run-to-completion
//!   `sw-core-{i}` threads that fuse ingest and shard — the multi-queue
//!   NIC model, each core draining its own RSS sub-stream (pre-split by
//!   `shard_for_digest`, zero queue crossings on the fast path, optional
//!   [`EngineConfig::pin_cores`] CPU affinity). Both run one shared
//!   ingest front end — burst digest, 256-packet checkpoint, pacing
//!   ([`Pace`]), graceful drain, steering filter — and one run
//!   skeleton that builds the merged [`EngineReport`]; decisions and
//!   counters are identical across topologies for the same seed.
//!
//! Both topologies use the *symmetric* shard mapping
//! [`smartwatch_net::hash::shard_for_digest`] over the dispatch-time
//! digest, so both directions of a flow always land on the same shard
//! and per-shard state needs no locks.
//!
//! Telemetry flows through [`smartwatch_telemetry`]: per-shard counters
//! (`runtime.shard.*{shard=N}`), per-ingest-unit counters
//! (`runtime.queue.*{queue=Q}`: the dispatcher, or one per RTC core), queue-depth gauges, and aggregate
//! per-stage latency histograms (`runtime.stage.*`). They are
//! cumulative; the [`EngineReport`] is per run, assembled in one place
//! from the same handles minus the run's start baselines. `run()`
//! returns it, and [`Engine::snapshot`] serves it live (the running
//! books) or settled (exactly what `run()` returned).
//!
//! In service mode the engine stays resident across segments:
//! [`service`] carries the bounded admin mailbox ([`AdminCmd`]) drained
//! by the controller at epoch boundaries, [`Engine::request_drain`]
//! quiesces a running segment gracefully, and batch/frame pools (plus,
//! under [`EngineConfig::carry_flow_state`], the per-shard FlowCaches)
//! are parked between runs so steady state allocates nothing.
//!
//! With [`EngineConfig::with_control`] the engine additionally runs the
//! [`smartwatch_control`] adaptive control plane: a controller thread
//! closes the paper's feedback loop each epoch — Algorithm 4 mode
//! switching applied to the live per-shard FlowCaches, heavy-hitter
//! whitelist promotion, RCU-published steering snapshots enforced at
//! dispatch, and hysteretic load shedding with accounted drops.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod batch;
pub mod control;
pub mod engine;
pub mod escalate;
pub mod frame;
pub(crate) mod obs;
pub mod service;
pub mod shard;
pub mod spsc;

pub use control::{ControlLog, LogReader};
pub use engine::{
    DatapathMode, Engine, EngineConfig, EngineReport, FlowCacheSummary, FrameSource, Pace,
    QueueStats, StageSnapshot,
};
pub use escalate::{HostObs, HostPool, TriageNf};
pub use frame::{FramePool, FrameSlot};
pub use service::{AdminCmd, ServiceStats};
pub use shard::{ShardCounters, ShardStats};
pub use smartwatch_control::{ControlConfig, ControlEvent, ControlReport, DecisionRecord};
