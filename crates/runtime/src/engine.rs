//! The engine: two thread topologies over one ingest front end and one
//! run skeleton, a host escalation pool, graceful drain, and a
//! wall-clock throughput/latency report.
//!
//! [`DatapathMode::Pipeline`] runs one dispatcher (`sw-rxq-0`) feeding
//! N shard threads over one bounded SPSC lane each:
//!
//! ```text
//!                              ┌─ shard 0: FlowCache + suite ─┐
//! packets → rxq 0: digest+steer → shard 1: …                  │ → verdicts
//!           (one SPSC lane     │  shard N-1: …                │   (epoch-
//!            per shard)        └── suspects ─→ host pool ─────┘    stamped log)
//! ```
//!
//! [`DatapathMode::Rtc`] fuses ingest and shard into one `sw-core-{i}`
//! thread per partition, pre-split by the shard mapping itself, and
//! processes each batch in place with no queue crossing. It is the only
//! topology with more than one ingest unit: each core drains its own RSS
//! sub-stream, the software model of a multi-queue NIC.
//!
//! Both topologies drive the same ingest front end (`Ingest`): bursts
//! of up to eight digested packets from either [`FrameSource`], one
//! 256-packet checkpoint (drain, pacing, steering refresh, counter
//! fold, trace sampling) and one steering filter. Each topology only
//! supplies a sink (`LaneSink` or `CoreSink`): where a surviving packet
//! goes, how a paced wait idles, and how the stream ends. One run
//! skeleton ([`Engine::run_source`]) sets up, tears down and reports
//! for both.
//!
//! Unlike everything else in the workspace, this engine runs on the
//! *wall clock*: `run()` spawns real OS threads, measures elapsed time
//! with `std::time::Instant`, and reports Mpps. Packet `ts` fields are
//! replay metadata here, not the clock. Counters remain exact — the
//! conservation invariant (offered = processed + ingest_drop + shed +
//! steer_drop, per shard, per ingest unit, and in total) holds for every
//! shard count, datapath, and pacing mode.

use crate::batch::{Backoff, Batch, BufferPool, DigestedPacket};
use crate::control::{ControlLog, LogReader};
use crate::escalate::{HostObs, HostPool, TriageNf};
use crate::frame::{FramePool, FrameSlot};
use crate::obs::{ThreadTrace, TraceSpec};
use crate::service::{AdminCmd, AdminQueue, ServiceStats};
use crate::shard::{
    ControlHooks, Escalation, LaneRx, ShardCounters, ShardEndState, ShardMsg, ShardObs, ShardStats,
    ShardWorker, StageHists, PROBE_HIST_SLOTS,
};
use crate::spsc::{spsc, Producer};
use serde::{Serialize, Value};
use smartwatch_control::{
    ControlConfig, ControlReport, Controller, EpochInput, ModeCell, ShardSample, SnapshotCell,
    SnapshotReader, SteeringSnapshot,
};
use smartwatch_net::hash::shard_for_digest;
use smartwatch_net::{FlowHasher, FrameStore, FrameView, HashDigest, Packet, RawTuple};
use smartwatch_snic::{FlowCache, FlowCacheConfig, Mode};
use smartwatch_telemetry::{
    mem, Counter, FlightKind, FlightRecorder, FlightRing, Gauge, HistBase, HistSnapshot, Registry,
    Tracer, WallAnchor,
};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How the engine maps the pipeline onto threads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DatapathMode {
    /// One dispatcher thread digests and steers, N shard threads
    /// process, one bounded SPSC lane per shard in between. The
    /// default.
    Pipeline,
    /// Run-to-completion: C = `shards` fused `sw-core-{i}` threads,
    /// each owning one shard partition *and* its ingest. The pre-split
    /// assigns packets by [`shard_for_digest`], so every flow's packets
    /// arrive at the core that owns its FlowCache rows, and the fast
    /// path — ingest → digest → FlowCache → detectors → verdict — runs
    /// in place with zero inter-thread queue crossings. It is the
    /// engine's multi-queue ingest: one RSS sub-stream per core.
    /// Host escalation and control-plane
    /// sampling keep their existing channels. Decisions, counters and
    /// the deterministic summary are identical to [`Pipeline`] for the
    /// same seed; only the thread topology — and therefore the wall
    /// clock — changes.
    ///
    /// [`Pipeline`]: DatapathMode::Pipeline
    /// [`shard_for_digest`]: smartwatch_net::hash::shard_for_digest
    Rtc,
}

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Worker shards (threads). Each owns a FlowCache partition and a
    /// full detector suite.
    pub shards: usize,
    /// Thread topology: one dispatcher feeding the shards
    /// ([`DatapathMode::Pipeline`], the default) or fused
    /// run-to-completion cores ([`DatapathMode::Rtc`]), one ingest unit
    /// per shard.
    pub datapath: DatapathMode,
    /// Pin each RTC core to the CPU of its index: `sw-core-{i}` calls
    /// `sched_setaffinity` at startup. Only [`DatapathMode::Rtc`]
    /// pins; pipeline threads are left to the scheduler. Opt-in and
    /// best-effort — a rejected mask (cpuset container, non-Linux
    /// build) leaves the thread unpinned and the run proceeds.
    /// Decisions and counters are identical either way; only scheduler
    /// placement changes.
    pub pin_cores: bool,
    /// Pipeline dispatcher threads. Always `1` (the engine asserts it):
    /// multi-queue ingest is the RTC datapath's, one ingest unit per
    /// core. The field stays only because the benchmark's thread-budget
    /// self-test reads it; it goes with the next benchmark change.
    pub rx_queues: usize,
    /// Packets per dispatch batch.
    pub batch: usize,
    /// Per-shard ingest queue capacity, in batches.
    pub queue_batches: usize,
    /// Rows per shard FlowCache partition (`2^row_bits`).
    pub cache_row_bits: u32,
    /// Host escalation workers. `0` runs triage inline on each shard —
    /// fully deterministic, used by the determinism tests.
    pub host_workers: usize,
    /// Host escalation ring capacity, packets (shared by the pool).
    pub host_queue: usize,
    /// Escalated packets per source before triage blacklists its flows.
    pub triage_threshold: u64,
    /// Enforce blacklist verdicts on the shards (prevention). Disable to
    /// measure pure monitoring throughput.
    pub enforce_verdicts: bool,
    /// FlowCache hash seed (per-shard caches share it; partitioning
    /// comes from RSS, not from distinct hash functions).
    pub hash_seed: u64,
    /// FlowCache lookup burst width: shards prefetch this many rows
    /// ahead before probing (the memory-level-parallel batched path).
    /// `0` or `1` selects the per-packet reference path. Packet
    /// *decisions* are identical at every width — prefetching is
    /// architecturally inert — so this knob trades nothing but cache
    /// warmth and is safe to change under the determinism tests.
    pub cache_burst: usize,
    /// Attach the adaptive control plane: an epoch thread that runs
    /// Algorithm 4 mode switching per shard, promotes heavy hitters,
    /// publishes steering snapshots and decides load shedding. `None`
    /// runs the engine open-loop (the pre-control behaviour, and the
    /// deterministic-test configuration).
    pub control: Option<ControlConfig>,
    /// Wall-clock trace sampling period: emit chrome-trace spans for
    /// 1 in `trace_sample` batches per thread (`0` disables tracing
    /// entirely — the hot path carries no `Instant` reads for it).
    /// Takes effect only when a [`Tracer`] is attached via
    /// [`Engine::attach_tracer`]. The sampling counters start at zero,
    /// so every thread's *first* batch is always traced and every live
    /// thread owns at least one span at any period.
    pub trace_sample: u64,
    /// Serve mode: carry each shard's FlowCache across back-to-back
    /// `run*` calls on the same engine instead of starting every
    /// segment cold. Flow affinity is preserved (the RSS mapping is a
    /// pure function of digest and shard count, both fixed per engine),
    /// so shard `i` always gets shard `i`'s cache back. Batch buffer
    /// pools and frame pools are *always* reused across runs — that is
    /// the zero-steady-state-allocation claim the soak harness pins —
    /// this flag only controls the flow *state*.
    pub carry_flow_state: bool,
}

impl EngineConfig {
    /// Defaults for `shards` workers: the pipeline datapath,
    /// 64-packet batches, 64-batch queues, 2^12-row partitions, one
    /// host worker.
    pub fn new(shards: usize) -> EngineConfig {
        EngineConfig {
            shards,
            datapath: DatapathMode::Pipeline,
            pin_cores: false,
            rx_queues: 1,
            batch: 64,
            queue_batches: 64,
            cache_row_bits: 12,
            host_workers: 1,
            host_queue: 4096,
            triage_threshold: 64,
            enforce_verdicts: true,
            hash_seed: 0x51CC,
            cache_burst: smartwatch_snic::BURST,
            control: None,
            trace_sample: 0,
            carry_flow_state: false,
        }
    }

    /// Attach a control plane (its hash seed is forced to the engine's
    /// so verdict/steering digests line up with dispatch digests).
    pub fn with_control(mut self, mut ctrl: ControlConfig) -> EngineConfig {
        ctrl.hash_seed = self.hash_seed;
        self.control = Some(ctrl);
        self
    }

    /// The byte-deterministic replay recipe: one shard and inline
    /// triage (`host_workers = 0`, no thread-timing races on the
    /// verdict log). Two same-seed runs — on either datapath — produce
    /// byte-identical [`EngineReport::deterministic_summary`] output.
    pub fn deterministic() -> EngineConfig {
        let mut cfg = EngineConfig::new(1);
        cfg.host_workers = 0;
        cfg
    }

    /// Ingest units the engine actually runs: the one dispatcher in
    /// pipeline mode, the fused core (= shard) count in RTC mode. This
    /// is how many `runtime.queue.*{queue=Q}` label sets the run
    /// populates and how many entries [`EngineReport::queues`] carries.
    pub fn ingest_units(&self) -> usize {
        match self.datapath {
            DatapathMode::Pipeline => 1,
            DatapathMode::Rtc => self.shards,
        }
    }
}

/// How the replay driver offers packets to the engine.
#[derive(Clone, Copy, Debug)]
pub enum Pace {
    /// As fast as the shards accept: a full lane exerts backpressure on
    /// the dispatcher, and a fused core simply runs flat out (no drops
    /// either way). Measures capacity.
    Flatout,
    /// Open-loop at a target offered rate in Mpps: a full queue at
    /// arrival time is a counted drop, like a NIC RX ring overrun.
    RateMpps(f64),
    /// Open-loop at `base_mpps` with one rectangular overload spike at
    /// `peak_mpps` while the replay position is inside
    /// `[spike_start, spike_end)` (fractions of the packet sequence).
    /// This is the control plane's repro workload: the spike drives
    /// Algorithm 4 into Lite and (if sustained) engages shedding; the
    /// return to base rate must recover General.
    Spike {
        /// Offered rate outside the spike, Mpps.
        base_mpps: f64,
        /// Offered rate inside the spike, Mpps.
        peak_mpps: f64,
        /// Spike start as a fraction of the sequence, `0.0..=1.0`.
        spike_start: f64,
        /// Spike end as a fraction of the sequence, `0.0..=1.0`.
        spike_end: f64,
    },
}

/// What the engine replays: a slice of pre-built model packets (the
/// synthetic path) or a packed arena of validated wire frames parsed in
/// place at dispatch (the zero-copy wire path).
#[derive(Clone, Copy)]
pub enum FrameSource<'a> {
    /// Generator output replayed as owned [`Packet`] values.
    Packets(&'a [Packet]),
    /// Compiled or captured wire frames ([`FrameStore`]): each ingest
    /// unit loads raw bytes into a [`FramePool`], parses headers in
    /// place with [`FrameView`] and digests straight from the header
    /// bytes.
    Wire(&'a FrameStore),
}

impl FrameSource<'_> {
    /// Packets this source offers.
    pub fn len(&self) -> usize {
        match self {
            FrameSource::Packets(p) => p.len(),
            FrameSource::Wire(s) => s.len(),
        }
    }

    /// True when the source offers nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Reusable run-scoped resources parked between `run*` calls so a
/// long-running service allocates nothing per segment: per-unit batch
/// buffer pools and (wire mode) frame pools always; per-shard
/// FlowCaches when [`EngineConfig::carry_flow_state`] is set. The thread
/// shape is fixed per engine, so whatever is parked always fits.
#[derive(Default)]
struct Garage {
    pools: Vec<BufferPool>,
    frames: Vec<FramePool>,
    caches: Vec<FlowCache>,
}

/// Every handle an [`EngineReport`] is read from, registered once per
/// engine: the thread shape (shards, ingest units) is fixed per engine.
/// The handles are cumulative for the life of the registry (that is
/// what `/metrics` serves); a report subtracts its run's [`RunBase`].
struct Books {
    shards: Vec<ShardCounters>,
    queues: Vec<QueueCounters>,
    stage: StageHists,
    host_processed: Counter,
}

/// The books' values at the start of a run, plus what the run knows
/// from its start.
struct RunBase {
    shards: Vec<ShardStats>,
    queues: Vec<QueueStats>,
    stage: [HistBase; 5],
    host_processed: u64,
    /// Packets the source offers (the `offered` of an uninterrupted run).
    source_len: u64,
    /// The run's verdict log.
    log: Arc<ControlLog>,
    /// Start of the timed region; `None` until ingest starts.
    start: Option<Instant>,
}

impl Books {
    fn registered(cfg: &EngineConfig, registry: &Registry) -> Books {
        Books {
            shards: (0..cfg.shards)
                .map(|i| ShardCounters::registered(registry, i))
                .collect(),
            queues: (0..cfg.ingest_units())
                .map(|q| QueueCounters::registered(registry, q))
                .collect(),
            stage: StageHists::registered(registry),
            host_processed: registry.counter("runtime.host.processed", &[]),
        }
    }

    fn base(&self, source_len: u64, log: Arc<ControlLog>) -> RunBase {
        RunBase {
            shards: self
                .shards
                .iter()
                .map(|c| c.snapshot(ShardEndState::default()))
                .collect(),
            queues: self.queues.iter().map(QueueCounters::snapshot).collect(),
            stage: self.stage.all().map(|h| h.base()),
            host_processed: self.host_processed.get(),
            source_len,
            log,
            start: None,
        }
    }
}

/// What only the end of a run knows.
struct RunEnd {
    elapsed: Duration,
    shards: Vec<ShardEndState>,
    control: Option<ControlReport>,
    interrupted: bool,
    log_buffered: u64,
}

/// The current (or last) run: its baselines, and its final report once
/// it has settled.
struct RunBooks {
    base: RunBase,
    settled: Option<EngineReport>,
}

/// The sharded wall-clock engine.
pub struct Engine {
    cfg: EngineConfig,
    registry: Registry,
    /// Chrome-trace sink for sampled wall-clock spans; set by
    /// [`Engine::attach_tracer`], inert without one.
    tracer: Option<Tracer>,
    /// Always-on black box: bounded lock-free per-thread event rings.
    flight: FlightRecorder,
    /// The registered handles every report is read from.
    books: Books,
    /// The current (or last) run's baselines and settled report (see
    /// [`Engine::snapshot`]).
    run: Mutex<RunBooks>,
    /// The controller's report as of its latest publication, read by
    /// live snapshots (a settled report carries the final one).
    live_control: Arc<Mutex<Option<ControlReport>>>,
    /// Graceful-drain request: ingest units observe it at checkpoints
    /// and during paced waits, stop offering and quiesce (see
    /// [`Engine::request_drain`]).
    drain: Arc<AtomicBool>,
    /// Admin command mailbox, drained by the controller each epoch.
    admin: Arc<AdminQueue>,
    /// Admin commands the controller has applied (lifetime of the
    /// engine, across runs).
    admin_applied: Counter,
    /// Live pacing override: `f64::to_bits` of the inter-arrival gap in
    /// ns, `0` = none. Paced ingest units re-read it at checkpoints.
    pace_override: Arc<AtomicU64>,
    /// Resident-set gauge (`runtime.mem.rss_bytes`), sampled per epoch
    /// by the controller thread and at run boundaries.
    mem_rss: Gauge,
    /// Parked run-scoped resources (see [`Garage`]).
    garage: Mutex<Garage>,
}

impl Engine {
    /// Engine with a private metric registry.
    pub fn new(cfg: EngineConfig) -> Engine {
        Engine::with_registry(cfg, &Registry::new())
    }

    /// Engine publishing into an existing registry (`runtime.*` metrics).
    pub fn with_registry(cfg: EngineConfig, registry: &Registry) -> Engine {
        assert!(cfg.shards >= 1, "engine needs at least one shard");
        assert!(
            cfg.rx_queues == 1,
            "the pipeline runs one dispatcher; multi-queue ingest is `DatapathMode::Rtc`"
        );
        assert!(cfg.batch >= 1, "batch size must be at least 1");
        assert!(cfg.queue_batches >= 1, "queue must hold at least 1 batch");
        let books = Books::registered(&cfg, registry);
        let base = books.base(0, Arc::new(ControlLog::new()));
        Engine {
            cfg,
            registry: registry.clone(),
            tracer: None,
            flight: FlightRecorder::new(FlightRecorder::DEFAULT_CAPACITY),
            books,
            run: Mutex::new(RunBooks {
                base,
                settled: None,
            }),
            live_control: Arc::new(Mutex::new(None)),
            drain: Arc::new(AtomicBool::new(false)),
            admin: Arc::new(AdminQueue::new(1024)),
            admin_applied: registry.counter("runtime.admin.applied", &[]),
            pace_override: Arc::new(AtomicU64::new(0)),
            mem_rss: registry.gauge("runtime.mem.rss_bytes", &[]),
            garage: Mutex::new(Garage::default()),
        }
    }

    /// The configuration this engine runs with.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Ask the current run to drain gracefully. Every ingest unit — a
    /// pipeline dispatcher or an RTC core — observes the flag at its
    /// 256-packet checkpoints and between the bounded slices of a paced
    /// wait, stops offering and closes its stream exactly as at
    /// end-of-trace: a dispatcher flushes its staged batches and sends
    /// the normal `Stop` markers, a core processes its staged tail. The
    /// segment report stays conserved (`offered` reflects what was
    /// actually offered before the drain). The flag stays raised until
    /// [`Engine::clear_drain`] — a signal landing *between* segments
    /// still stops the next one.
    pub fn request_drain(&self) {
        self.drain.store(true, Ordering::Release);
    }

    /// Whether a drain has been requested and not yet cleared.
    pub fn drain_requested(&self) -> bool {
        self.drain.load(Ordering::Acquire)
    }

    /// Re-arm after a drained segment; the serve driver calls this at
    /// the top of each segment it decides to run.
    pub fn clear_drain(&self) {
        self.drain.store(false, Ordering::Release);
    }

    /// Queue an admin command for the controller to apply at the next
    /// epoch boundary (the engine must run with a control plane for
    /// commands to take effect). Returns `false` when the bounded
    /// mailbox is full — the caller should surface back-pressure to the
    /// operator rather than silently dropping the edit.
    pub fn admin(&self, cmd: AdminCmd) -> bool {
        self.admin.push(cmd)
    }

    /// Admin commands waiting in the mailbox (not yet applied).
    pub fn admin_queued(&self) -> usize {
        self.admin.len()
    }

    /// Admin commands the controller has applied so far.
    pub fn admin_applied(&self) -> u64 {
        self.admin_applied.get()
    }

    /// Override the offered rate of *paced* runs live: every ingest
    /// unit (dispatcher or RTC core) re-reads this at each 256-packet
    /// checkpoint and re-anchors its arrival schedule, so the change
    /// takes effect mid-segment without a restart. `None` returns pacing to the run's [`Pace`] plan.
    /// Flat-out runs (no arrival schedule) ignore the override.
    pub fn set_rate_override(&self, mpps: Option<f64>) {
        let bits = match mpps {
            Some(r) if r > 0.0 && r.is_finite() => (1000.0 / r).to_bits(),
            _ => 0,
        };
        self.pace_override.store(bits, Ordering::Release);
    }

    /// The live rate override, if any, in Mpps.
    pub fn rate_override(&self) -> Option<f64> {
        let bits = self.pace_override.load(Ordering::Acquire);
        (bits != 0).then(|| 1000.0 / f64::from_bits(bits))
    }

    /// The metric registry the engine publishes into.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Attach a chrome-trace sink. Spans are emitted only when
    /// [`EngineConfig::trace_sample`] is non-zero; each engine thread
    /// opens its own track (`sw-rxq-0` and `sw-shard-{i}` in pipeline
    /// mode, `sw-core-{i}` in RTC mode, plus `sw-host-{w}` and
    /// `sw-control`) named after the OS thread.
    pub fn attach_tracer(&mut self, tracer: &Tracer) {
        self.tracer = Some(tracer.clone());
    }

    /// The engine's flight recorder (drop/mode-switch black box).
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// The engine's report, from any thread at any time. While a run
    /// is live it is that run's books so far: the registered counters
    /// minus the run's baselines (at most one checkpoint or one batch
    /// stale), elapsed time since ingest started, the controller's
    /// latest published report, and zero for what only the run's end
    /// knows (steering-table sizes, cache residency, the FlowCache
    /// summary). Once the run has returned, it is exactly the report
    /// `run()` returned; before the first run, an all-zero report. This
    /// is what `/stats.json` serves.
    pub fn snapshot(&self) -> EngineReport {
        let run = self.run.lock().expect("run books poisoned");
        match &run.settled {
            Some(report) => report.clone(),
            None => self.assemble(&run.base, None),
        }
    }

    /// Engine-lifetime service state (not per run): drain flag, admin
    /// mailbox, rate override, pool allocation counters, resident set
    /// and flight-recorder totals.
    pub fn service(&self) -> ServiceStats {
        let counter = |name: &str| self.registry.counter(name, &[]).get();
        ServiceStats {
            draining: self.drain_requested(),
            admin_queued: self.admin_queued() as u64,
            admin_applied: self.admin_applied(),
            rate_override_mpps: self.rate_override(),
            pool_allocated: counter("runtime.pool.allocated"),
            pool_recycled: counter("runtime.pool.recycled"),
            frame_pool_allocated: counter("runtime.frame_pool.allocated"),
            frame_pool_recycled: counter("runtime.frame_pool.recycled"),
            rss_bytes: self.mem_rss.get() as u64,
            flight_recorded: self.flight.total_recorded(),
            flight_dropped: self.flight.total_dropped(),
        }
    }

    /// The one place an [`EngineReport`] is put together: the
    /// registered books minus the run's baselines, plus — once the run
    /// has ended — what only its end knows. [`Engine::snapshot`] calls
    /// it while a run is live; `run_source` calls it once to settle.
    fn assemble(&self, base: &RunBase, end: Option<&RunEnd>) -> EngineReport {
        let books = &self.books;
        let shards = books
            .shards
            .iter()
            .zip(&base.shards)
            .enumerate()
            .map(|(i, (c, b))| {
                let state = end.map_or_else(ShardEndState::default, |e| e.shards[i]);
                shard_stats_delta(c.snapshot(state), b)
            })
            .collect();
        let queues: Vec<QueueStats> = books
            .queues
            .iter()
            .zip(&base.queues)
            .map(|(q, b)| queue_stats_delta(q.snapshot(), b))
            .collect();
        // A finished, uninterrupted run offered the whole source,
        // independently cross-checked against the queue axis by
        // `conserved()`. Live or drained, it offered what its ingest
        // units got to: the per-queue tallies.
        let offered = match end {
            Some(e) if !e.interrupted => base.source_len,
            _ => queues.iter().map(|q| q.offered).sum(),
        };
        let hists = books.stage.all();
        let [queue_ns, cache_ns, detect_ns, escalate_ns, batch_pkts] =
            std::array::from_fn(|i| hists[i].snapshot_since(&base.stage[i]));
        EngineReport {
            offered,
            elapsed: match end {
                Some(e) => e.elapsed,
                None => base.start.map_or(Duration::ZERO, |t| t.elapsed()),
            },
            shards,
            queues,
            host_processed: books.host_processed.get() - base.host_processed,
            verdicts_published: base.log.len() as u64,
            interrupted: end.is_some_and(|e| e.interrupted),
            log_buffered: end.map_or(base.log.buffered() as u64, |e| e.log_buffered),
            control: match end {
                Some(e) => e.control.clone(),
                None => self
                    .live_control
                    .lock()
                    .expect("live control poisoned")
                    .clone(),
            },
            stage: StageSnapshot {
                queue_ns,
                cache_ns,
                detect_ns,
                escalate_ns,
                batch_pkts,
            },
            flowcache: FlowCacheSummary::aggregate(
                self.cfg.cache_burst,
                end.map_or(&[], |e| &e.shards),
            ),
        }
    }

    /// Replay `packets` through the engine and block until every ingest
    /// unit has drained and every thread joined.
    pub fn run(&self, packets: &[Packet], pace: Pace) -> EngineReport {
        self.run_source(FrameSource::Packets(packets), pace)
    }

    /// Replay a packed wire-frame store through the engine — the
    /// zero-copy wire path. Each ingest unit owns a [`FramePool`] (the
    /// software RX ring): it loads 8-frame bursts into pooled slots,
    /// parses the Ethernet/IPv4/transport headers in place with
    /// [`FrameView`], digests straight from the header bytes
    /// ([`FlowHasher::digest_batch8`]) and recycles the slots —
    /// allocation-free in steady state. Under the
    /// [`EngineConfig::deterministic`] recipe the resulting
    /// [`EngineReport::deterministic_summary`] is byte-identical to the
    /// synthetic run of the same packets.
    pub fn run_frames(&self, store: &FrameStore, pace: Pace) -> EngineReport {
        self.run_source(FrameSource::Wire(store), pace)
    }

    /// Replay any [`FrameSource`] and block until every ingest unit has
    /// drained and every thread joined. [`Engine::run`] and
    /// [`Engine::run_frames`] are thin wrappers over this.
    ///
    /// Both datapaths share this one skeleton: the prologue (log, stage
    /// histograms, trace spec, host pool, counters and baselines, garage
    /// un-park, control plane), the shard workers, the ingest front
    /// ends, and the epilogue (host-pool shutdown, controller stop,
    /// garage re-park, report, flight close-out). Only building and
    /// spawning the threads differs per [`DatapathMode`].
    pub fn run_source(&self, source: FrameSource<'_>, pace: Pace) -> EngineReport {
        let cfg = &self.cfg;
        let n = cfg.shards;
        let units = cfg.ingest_units();
        let rtc = cfg.datapath == DatapathMode::Rtc;
        assert!(
            source.len() <= u32::MAX as usize,
            "sequence indices are u32 at split time"
        );
        let log = Arc::new(ControlLog::new());
        let Books {
            shards: counters,
            queues: qcounters,
            stage,
            host_processed,
        } = &self.books;

        // One wall-clock origin for the whole run: every thread maps
        // its `Instant`s through this anchor, so all trace tracks share
        // an axis. Tracing is live only with a tracer attached AND a
        // non-zero sampling period — otherwise the spec stays `None`
        // and the hot paths skip even the `Instant` reads.
        let anchor = WallAnchor::new();
        let spec: Option<TraceSpec> =
            self.tracer
                .as_ref()
                .filter(|_| cfg.trace_sample > 0)
                .map(|t| TraceSpec {
                    tracer: t.clone(),
                    anchor,
                    every: cfg.trace_sample,
                });

        // Host pool (None = inline triage on each shard).
        let pool = (cfg.host_workers > 0).then(|| {
            let threshold = cfg.triage_threshold;
            HostPool::spawn(
                cfg.host_workers,
                cfg.host_queue,
                Arc::clone(&log),
                host_processed.clone(),
                HostObs::new(stage.escalate_ns.clone(), spec.clone()),
                move |_| Box::new(TriageNf::new(threshold)),
            )
        });

        // The one hasher of the hot path: each ingest unit digests every
        // packet of its sub-stream exactly once with it; shards and
        // their FlowCaches (all seeded identically) reuse the digest
        // instead of re-hashing.
        let hasher = FlowHasher::new(cfg.hash_seed);

        // Registry counters and histograms are cumulative for the life
        // of the registry (that is what `/metrics` serves), but the
        // report is *per run*: capture the baselines before any thread
        // writes, subtract at report time. A single fresh-engine run
        // subtracts zeros, while back-to-back serve segments each get
        // their own books.
        *self.run.lock().expect("run books poisoned") = RunBooks {
            base: self.books.base(source.len() as u64, Arc::clone(&log)),
            settled: None,
        };
        *self.live_control.lock().expect("live control poisoned") = None;
        self.mem_rss.set(mem::rss_bytes() as f64);

        // Un-park whatever the previous run left in the garage: buffer
        // pools and frame pools are always reused (the soak harness pins
        // `runtime.pool.allocated` flat across segments); FlowCaches
        // only under `carry_flow_state`. The thread shape is fixed per
        // engine, so parked resources always fit.
        let Garage {
            pools: parked_pools,
            frames: parked_frames,
            caches: parked_caches,
        } = std::mem::take(&mut *self.garage.lock().expect("garage poisoned"));
        // FIFO un-parking preserves affinity (pop order matches park
        // order): each ingest unit gets its *own* warmed pool back and
        // shard `i` gets shard `i`'s cache. The RSS split is uneven, so
        // a LIFO swap would hand the heaviest core the lightest pool and
        // pay a one-time re-allocation every time the assignment flips.
        let mut parked_pools: VecDeque<BufferPool> = parked_pools.into();
        let mut parked_frames: VecDeque<FramePool> = parked_frames.into();
        let mut parked_caches: VecDeque<FlowCache> = if cfg.carry_flow_state {
            parked_caches.into()
        } else {
            VecDeque::new()
        };

        // ── Control plane (optional) ────────────────────────────────
        let (mut shard_hooks, mut unit_steer, controller) = self.spawn_control(&spec, &log);

        // ── Shard workers ───────────────────────────────────────────
        // One per partition, every one built before any thread starts:
        // each registers its verdict-log reader here, and a fused core
        // publishes triage verdicts the moment it runs — a reader
        // registered after the log compacted past those publications
        // would silently miss that prefix. The shared finish line makes
        // the end-of-stream log apply deterministic (see
        // `ShardWorker::finish`).
        let finish_line = Arc::new(std::sync::Barrier::new(n));
        let workers: Vec<ShardWorker> = (0..n)
            .map(|i| {
                // RSS placement is a pure function of digest and shard
                // count, so carried flow state stays affine.
                let cache = parked_caches.pop_front().unwrap_or_else(|| {
                    let mut cache_cfg = FlowCacheConfig::general(cfg.cache_row_bits);
                    cache_cfg.hash_seed = cfg.hash_seed;
                    let mut cache = FlowCache::new(cache_cfg);
                    cache.attach_telemetry(&self.registry);
                    cache
                });
                let escalation = match &pool {
                    Some(p) => Escalation::Pool(p.sender()),
                    None => Escalation::Inline(TriageNf::new(cfg.triage_threshold)),
                };
                // A fused core's sampled block spans cover its
                // processing, so its worker opens no track of its own.
                let (name, trace) = if rtc {
                    (format!("sw-core-{i}"), None)
                } else {
                    let name = format!("sw-shard-{i}");
                    let trace = spec.as_ref().map(|s| s.thread(name.clone()));
                    (name, trace)
                };
                ShardWorker::new(
                    cache,
                    escalation,
                    Arc::clone(&log),
                    counters[i].clone(),
                    stage.clone(),
                    host_processed.clone(),
                    cfg.enforce_verdicts,
                    hasher,
                    cfg.cache_burst,
                    shard_hooks[i].take(),
                    ShardObs {
                        flight: self.flight.ring(name),
                        trace,
                    },
                    Arc::clone(&finish_line),
                )
            })
            .collect();

        // ── Ingest split ────────────────────────────────────────────
        // Untimed, like the NIC's RSS (hardware does it for free). The
        // pipeline's one dispatcher takes the whole source; RTC assigns
        // each packet straight to the core that owns its FlowCache rows.
        // The timed front ends still digest every packet themselves, so
        // per-packet work is the same at every unit count and on both
        // datapaths, and the Mpps comparison stays honest.
        let plan = PacePlan::resolve(pace, source.len());
        let mut streams = split_streams(source, units, &hasher);

        // ── Ingest front ends: the dispatcher or one per fused core ──
        let start = Instant::now();
        self.run.lock().expect("run books poisoned").base.start = Some(start);
        let mut fronts: Vec<(Ingest<'_>, BufferPool)> = (0..units)
            .map(|u| {
                let name = if rtc {
                    format!("sw-core-{u}")
                } else {
                    format!("sw-rxq-{u}")
                };
                // The dispatcher's pool covers every buffer it can have
                // alive at once — n full lanes plus each shard's batch in
                // hand, its staged buffers and the one just acquired —
                // with headroom, so the *entire* working set survives an
                // end-of-run return and reparks with the pool (a cap at
                // or below the in-flight peak would trim buffers at every
                // segment boundary; the soak harness pins that at zero).
                // A fused core stages into one buffer and has nothing in
                // flight, so its pool stays tiny.
                let slots = if rtc { 4 } else { n * (cfg.queue_batches + 4) };
                let bufs = parked_pools
                    .pop_front()
                    .unwrap_or_else(|| BufferPool::new(slots, cfg.batch, &self.registry));
                // Wire mode: a frame pool sized to the largest frame in
                // the store; it warms up on the first burst and then
                // recycles its 8 slots for the rest of the run. Parked
                // pools are reused when their slots still fit.
                let frames = match source {
                    FrameSource::Wire(store) => Some(
                        parked_frames
                            .pop_front()
                            .filter(|fp| fp.frame_cap() >= store.max_frame_len())
                            .unwrap_or_else(|| {
                                FramePool::new(store.max_frame_len(), &self.registry)
                            }),
                    ),
                    FrameSource::Packets(_) => None,
                };
                let front = Ingest {
                    enforce_verdicts: cfg.enforce_verdicts,
                    hasher,
                    frames,
                    queue: &qcounters[u],
                    steer: unit_steer[u].take(),
                    plan,
                    pace: PaceState::default(),
                    pace_override: self.pace_override.as_ref(),
                    drain: self.drain.as_ref(),
                    start,
                    flight: self.flight.ring(name.clone()),
                    trace: spec.as_ref().map(|s| s.thread(name)),
                    local: QueueLocal::default(),
                    block: BlockState {
                        t0: start,
                        sampled: false,
                        idx: 0,
                    },
                };
                (front, bufs)
            })
            .collect();

        // ── Threads: the one part that differs per topology ─────────
        let (ends, shard_ends): (Vec<IngestEnd>, Vec<(ShardEndState, FlowCache)>) =
            std::thread::scope(|scope| match cfg.datapath {
                DatapathMode::Pipeline => {
                    // One lane per shard, each carrying a recycler into
                    // the dispatcher's one pool, so drained buffers go
                    // home to the thread that allocated them.
                    let (front, bufs) = fronts.pop().expect("one dispatcher");
                    let stream = streams.pop().expect("one dispatcher stream");
                    let (producers, lanes): (Vec<Producer<ShardMsg>>, Vec<LaneRx>) = (0..n)
                        .map(|_| {
                            let (tx, rx) = spsc::<ShardMsg>(cfg.queue_batches);
                            let recycle = bufs.recycler();
                            (tx, LaneRx { rx, recycle })
                        })
                        .unzip();
                    // Shards first, so every lane has a consumer before
                    // the dispatcher starts pushing.
                    let shards: Vec<_> = workers
                        .into_iter()
                        .zip(lanes)
                        .enumerate()
                        .map(|(i, (worker, lane))| {
                            std::thread::Builder::new()
                                .name(format!("sw-shard-{i}"))
                                .spawn_scoped(scope, move || worker.run(lane))
                                .expect("spawn shard thread")
                        })
                        .collect();
                    let sink = LaneSink::new(cfg.batch, plan.paced(), bufs, producers, counters);
                    let dispatcher = std::thread::Builder::new()
                        .name("sw-rxq-0".into())
                        .spawn_scoped(scope, move || front.run(source, stream, sink).0)
                        .expect("spawn dispatcher thread");
                    let ends = vec![dispatcher.join().expect("dispatcher thread panicked")];
                    let shard_ends = shards
                        .into_iter()
                        .map(|h| h.join().expect("shard thread panicked"))
                        .collect();
                    (ends, shard_ends)
                }
                DatapathMode::Rtc => {
                    // Best-effort pin bookkeeping (`--pin-cores`): counts
                    // kernel-accepted masks, so an operator can see when
                    // a cpuset container silently refused the pinning
                    // they asked for.
                    let core_pinned = self.registry.counter("runtime.core.pinned", &[]);
                    let pin = cfg.pin_cores;
                    let cores: Vec<_> = fronts
                        .into_iter()
                        .zip(streams)
                        .zip(workers)
                        .enumerate()
                        .map(|(i, (((front, bufs), stream), worker))| {
                            let sink = CoreSink::new(cfg.batch, bufs, worker);
                            let pinned = core_pinned.clone();
                            std::thread::Builder::new()
                                .name(format!("sw-core-{i}"))
                                .spawn_scoped(scope, move || {
                                    if pin && smartwatch_snic::pin_current_thread(i) {
                                        pinned.inc();
                                    }
                                    front.run(source, stream, sink)
                                })
                                .expect("spawn rtc core thread")
                        })
                        .collect();
                    cores
                        .into_iter()
                        .map(|h| h.join().expect("rtc core thread panicked"))
                        .unzip()
                }
            });
        let elapsed = start.elapsed();
        // Verdict-log occupancy at quiesce, before the controller's
        // final epoch drains its tail — the soak harness trends this.
        let log_buffered = log.buffered() as u64;
        // Shut the host pool down *after* the shards: its channel drains
        // and remaining verdicts land in the log (reported, unapplied).
        if let Some(p) = pool {
            p.shutdown();
        }
        // Stop the controller last: it runs one final epoch (capturing
        // the post-drain counter tails and any late verdicts) and
        // returns its report.
        let control = controller.map(|(handle, stop)| {
            stop.store(true, Ordering::Release);
            handle.thread().unpark();
            handle.join().expect("controller thread panicked")
        });

        // Re-park the run-scoped resources for the next segment, and
        // settle the segment's books.
        let (shard_ends, caches): (Vec<ShardEndState>, Vec<FlowCache>) =
            shard_ends.into_iter().unzip();
        let interrupted = ends.iter().any(|e| e.interrupted);
        {
            let mut garage = self.garage.lock().expect("garage poisoned");
            for e in ends {
                garage.pools.push(e.pool);
                if let Some(fp) = e.frames {
                    garage.frames.push(fp);
                }
            }
            // Frame pools a packet-mode segment did not need stay parked
            // for the next wire segment.
            garage.frames.extend(parked_frames);
            garage.pools.extend(parked_pools);
            if cfg.carry_flow_state {
                garage.caches = caches;
            }
        }
        self.mem_rss.set(mem::rss_bytes() as f64);

        // Settle the run: its report is assembled once, and every later
        // `snapshot()` returns exactly this report.
        let end = RunEnd {
            elapsed,
            shards: shard_ends,
            control,
            interrupted,
            log_buffered,
        };
        let report = {
            let mut run = self.run.lock().expect("run books poisoned");
            let report = self.assemble(&run.base, Some(&end));
            run.settled = Some(report.clone());
            report
        };
        // Close out the black box: a conservation failure records its
        // delta (the smoking gun a post-mortem dump starts from), and
        // every run ends with a RunEnd marker.
        let eng_ring = self.flight.ring("sw-engine");
        if !report.conserved() {
            let accounted = report
                .shards
                .iter()
                .map(|s| s.ingested + s.ingest_dropped + s.shed + s.steer_dropped)
                .sum::<u64>();
            eng_ring.record(
                FlightKind::ConservationDelta,
                report.offered.abs_diff(accounted),
                report.offered,
            );
        }
        eng_ring.record(
            FlightKind::RunEnd,
            u64::from(report.conserved()),
            report.offered,
        );
        report
    }

    /// Wire up the optional control plane for one run: per-shard mode
    /// cells and hooks, one independent RCU steering reader per ingest
    /// unit (dispatcher or fused core — refreshes stay per-unit so a
    /// lagging unit never staleness-couples the others), and the
    /// controller thread. Shared by both datapaths.
    #[allow(clippy::type_complexity)]
    fn spawn_control(
        &self,
        spec: &Option<TraceSpec>,
        log: &Arc<ControlLog>,
    ) -> (
        Vec<Option<ControlHooks>>,
        Vec<Option<SnapshotReader<SteeringSnapshot>>>,
        Option<(std::thread::JoinHandle<ControlReport>, Arc<AtomicBool>)>,
    ) {
        let n = self.cfg.shards;
        let mut shard_hooks: Vec<Option<ControlHooks>> = (0..n).map(|_| None).collect();
        let mut queue_steer: Vec<Option<SnapshotReader<SteeringSnapshot>>> =
            (0..self.cfg.ingest_units()).map(|_| None).collect();
        let mut controller = None;
        if let Some(mut ctrl_cfg) = self.cfg.control.clone() {
            ctrl_cfg.hash_seed = self.cfg.hash_seed;
            let mode_cells: Vec<Arc<ModeCell>> =
                (0..n).map(|_| Arc::new(ModeCell::default())).collect();
            let snap_cell = Arc::new(SnapshotCell::new(SteeringSnapshot::empty()));
            let (heavy_tx, heavy_rx) = std::sync::mpsc::sync_channel::<(u64, u64)>(8192);
            for (i, slot) in shard_hooks.iter_mut().enumerate() {
                *slot = Some(ControlHooks {
                    mode: Arc::clone(&mode_cells[i]),
                    steer: snap_cell.reader(),
                    heavy_tx: heavy_tx.clone(),
                });
            }
            drop(heavy_tx);
            for slot in queue_steer.iter_mut() {
                *slot = Some(snap_cell.reader());
            }
            let epoch = Duration::from_millis(ctrl_cfg.epoch_ms.max(1));
            let obs = CtrlObs {
                flight: self.flight.ring("sw-control"),
                trace: spec.as_ref().map(|s| s.thread("sw-control")),
                live: Arc::clone(&self.live_control),
                admin: Arc::clone(&self.admin),
                admin_applied: self.admin_applied.clone(),
                mem_rss: self.mem_rss.clone(),
            };
            let ctrl = Controller::with_registry(ctrl_cfg, &self.registry);
            let reader = log.reader();
            let stop = Arc::new(AtomicBool::new(false));
            let thread_args = (
                Arc::clone(log),
                self.books.shards.clone(),
                self.books.host_processed.clone(),
                Arc::clone(&stop),
            );
            let handle = std::thread::Builder::new()
                .name("sw-control".into())
                .spawn(move || {
                    let (log, counters, host_processed, stop) = thread_args;
                    controller_loop(
                        ctrl,
                        log,
                        reader,
                        heavy_rx,
                        counters,
                        host_processed,
                        mode_cells,
                        snap_cell,
                        stop,
                        epoch,
                        obs,
                    )
                })
                .expect("spawn controller thread");
            controller = Some((handle, stop));
        }
        (shard_hooks, queue_steer, controller)
    }
}

/// Per-run view of the cumulative per-shard registry counters: the
/// counter-backed fields subtract the run's baseline; the end-state
/// fields (steering-table sizes, cache residency) are absolute snapshots
/// and pass through.
fn shard_stats_delta(now: ShardStats, base: &ShardStats) -> ShardStats {
    ShardStats {
        ingested: now.ingested - base.ingested,
        ingest_dropped: now.ingest_dropped - base.ingest_dropped,
        shed: now.shed - base.shed,
        steer_dropped: now.steer_dropped - base.steer_dropped,
        processed: now.processed - base.processed,
        verdict_dropped: now.verdict_dropped - base.verdict_dropped,
        fast_path: now.fast_path - base.fast_path,
        escalated: now.escalated - base.escalated,
        escalation_dropped: now.escalation_dropped - base.escalation_dropped,
        ctrl_applied: now.ctrl_applied - base.ctrl_applied,
        alerts: now.alerts - base.alerts,
        idle_parks: now.idle_parks - base.idle_parks,
        blacklisted: now.blacklisted,
        whitelisted: now.whitelisted,
        cache_resident: now.cache_resident,
    }
}

/// Per-run view of the cumulative per-queue registry counters.
fn queue_stats_delta(now: QueueStats, base: &QueueStats) -> QueueStats {
    QueueStats {
        offered: now.offered - base.offered,
        ingested: now.ingested - base.ingested,
        ingest_dropped: now.ingest_dropped - base.ingest_dropped,
        shed: now.shed - base.shed,
        steer_dropped: now.steer_dropped - base.steer_dropped,
    }
}

/// A [`Pace`] resolved against the trace length into a closed-form
/// arrival schedule over *global* packet indices. Every ingest unit
/// computes its packets' due times from their global sequence numbers,
/// so C cores replay the same wall-clock arrival process a single unit
/// would — the spike hits every unit in the same window.
#[derive(Clone, Copy, Debug)]
enum PacePlan {
    Flatout,
    Rate {
        gap_ns: f64,
    },
    Spike {
        base_gap_ns: f64,
        peak_gap_ns: f64,
        lo: usize,
        hi: usize,
    },
}

impl PacePlan {
    fn resolve(pace: Pace, total: usize) -> PacePlan {
        match pace {
            Pace::Flatout => PacePlan::Flatout,
            Pace::RateMpps(r) => {
                assert!(r > 0.0, "offered rate must be positive");
                PacePlan::Rate { gap_ns: 1000.0 / r }
            }
            Pace::Spike {
                base_mpps,
                peak_mpps,
                spike_start,
                spike_end,
            } => {
                assert!(base_mpps > 0.0 && peak_mpps > 0.0, "rates must be positive");
                assert!(
                    spike_start <= spike_end,
                    "spike must not end before it starts"
                );
                let total = total as f64;
                PacePlan::Spike {
                    base_gap_ns: 1000.0 / base_mpps,
                    peak_gap_ns: 1000.0 / peak_mpps,
                    lo: (spike_start.clamp(0.0, 1.0) * total) as usize,
                    hi: (spike_end.clamp(0.0, 1.0) * total) as usize,
                }
            }
        }
    }

    fn paced(&self) -> bool {
        !matches!(self, PacePlan::Flatout)
    }

    /// Arrival deadline of global packet `i`: the sum of inter-arrival
    /// gaps of packets `0..=i` (gap `peak` inside `[lo, hi)`, `base`
    /// outside), in closed form so per-queue replay needs no shared
    /// accumulator.
    fn due_ns(&self, i: usize) -> f64 {
        match *self {
            PacePlan::Flatout => 0.0,
            PacePlan::Rate { gap_ns } => (i as f64 + 1.0) * gap_ns,
            PacePlan::Spike {
                base_gap_ns,
                peak_gap_ns,
                lo,
                hi,
            } => {
                let arrived = i + 1;
                let in_spike = arrived.clamp(lo, hi) - lo;
                let at_base = arrived - in_spike;
                at_base as f64 * base_gap_ns + in_spike as f64 * peak_gap_ns
            }
        }
    }
}

/// Live pacing-override state, re-read at every checkpoint. When the
/// override bits change, the arrival schedule re-anchors at the current
/// packet's due time so the new gap applies *forward* — no retroactive
/// burst, no stall. Releasing the override (bits = 0) returns to the
/// plan's absolute schedule.
#[derive(Default)]
struct PaceState {
    /// `f64::to_bits` of the overriding inter-arrival gap (ns); `0`
    /// means "no override".
    bits: u64,
    /// Due time (ns) of the packet the override anchored at.
    anchor_due: f64,
    /// Global index of the anchor packet.
    anchor_i: usize,
}

impl PaceState {
    /// Adopt the override `bits` read at global packet `i`: on a change,
    /// re-anchor at `i`'s due time under the *old* schedule, so the new
    /// gap applies strictly forward.
    fn follow(&mut self, plan: &PacePlan, bits: u64, i: usize) {
        if bits != self.bits {
            *self = PaceState {
                bits,
                anchor_due: self.due_ns(plan, i),
                anchor_i: i,
            };
        }
    }

    /// Arrival deadline of global packet `i` under the effective
    /// schedule: the run's [`PacePlan`] by default, or the live
    /// override's gap from its anchor when one is set.
    fn due_ns(&self, plan: &PacePlan, i: usize) -> f64 {
        if self.bits == 0 {
            plan.due_ns(i)
        } else {
            self.anchor_due + (i - self.anchor_i) as f64 * f64::from_bits(self.bits)
        }
    }
}

/// One ingest unit's share of the offered trace.
enum QueueStream {
    /// A single ingest unit: the whole source, no split pre-pass.
    All,
    /// Global indices of this unit's packets, ascending — so each
    /// sub-stream preserves arrival order (and flow affinity comes from
    /// the digest-based assignment).
    Picked(Vec<u32>),
}

/// Split the trace across `units` ingest units, sending each packet to
/// the core that owns its flow ([`shard_for_digest`], a pure function
/// of the digest, so the sub-streams are reproducible across runs). Wire
/// sources digest from the raw header bytes
/// ([`FlowHasher::digest_raw`], bit-identical to the key-based digest),
/// so the same flow lands on the same unit whichever representation the
/// engine replays.
fn split_streams(source: FrameSource<'_>, units: usize, hasher: &FlowHasher) -> Vec<QueueStream> {
    if units == 1 {
        return vec![QueueStream::All];
    }
    let len = source.len();
    let mut picked: Vec<Vec<u32>> = (0..units)
        .map(|_| Vec::with_capacity(len / units + 1))
        .collect();
    for i in 0..len {
        let digest = match source {
            FrameSource::Packets(packets) => hasher.hash_symmetric(&packets[i].key),
            FrameSource::Wire(store) => hasher.digest_raw(store.view(i).raw_tuple()).1,
        };
        picked[shard_for_digest(digest, units)].push(i as u32);
    }
    picked.into_iter().map(QueueStream::Picked).collect()
}

/// Packets per ingest burst. Must match the width of
/// [`FlowHasher::digest_batch8`] and divide [`BLOCK`] so checkpoints
/// always land on burst boundaries.
const BURST: usize = 8;

/// Packets per checkpoint block: the cadence of drain observation,
/// pacing, steering refresh, counter folds and trace sampling.
const BLOCK: usize = 256;

/// Longest single park of a dispatcher's paced wait. The drain flag is
/// re-read between slices, so this bounds how long a drain requested
/// mid-wait goes unseen (the RTC backoff ladder parks shorter still).
const PACE_SLICE: Duration = Duration::from_millis(1);

/// Plain-integer per-unit tallies, folded into the shared
/// [`QueueCounters`] atomics at every checkpoint (so live readers —
/// `/stats.json`, `/metrics` — see queue counters at most a checkpoint
/// stale) and once more at end of stream.
#[derive(Default)]
struct QueueLocal {
    offered: u64,
    ingested: u64,
    ingest_dropped: u64,
    shed: u64,
    steer_dropped: u64,
}

/// Per-block trace/flight state: blocks are the checkpoint windows; one
/// sampling decision per block covers the whole window's span.
struct BlockState {
    t0: Instant,
    sampled: bool,
    idx: u64,
}

/// What an ingest unit hands back at end of stream: its reusable pools
/// (re-parked in the [`Garage`] for the next segment) and whether it
/// stopped on a drain request rather than end-of-trace.
struct IngestEnd {
    pool: BufferPool,
    frames: Option<FramePool>,
    interrupted: bool,
}

/// The per-topology half of an ingest unit: where a packet that passed
/// the steering filter goes, how a paced wait idles, and how the stream
/// ends. [`Ingest::run`] is generic over it, so the per-packet hand-off
/// is a static, inlinable call.
trait IngestSink {
    /// What the sink hands back at end of stream besides its pool.
    type Out;
    /// Trace span name and category of one sampled checkpoint block.
    const SPAN: (&'static str, &'static str);
    /// Counters of the shard that owns `digest`'s flow; steering drops
    /// are booked there.
    fn shard(&self, digest: HashDigest) -> &ShardCounters;
    /// Take one packet that passed the steering filter.
    fn stage(&mut self, dp: DigestedPacket, local: &mut QueueLocal, flight: &FlightRing);
    /// Idle for at most one bounded slice of a paced wait with
    /// `remaining` to go.
    fn idle(&mut self, remaining: Duration);
    /// The paced wait reached its due time.
    fn woke(&mut self) {}
    /// End of stream (or drain): hand on whatever is still staged and
    /// release the buffer pool.
    fn finish(self, local: &mut QueueLocal, flight: &FlightRing) -> (BufferPool, Self::Out);
}

/// The ingest front end both datapaths share — one per dispatcher
/// thread (pipeline) or fused core (RTC). It replays its sub-stream in
/// bursts of up to [`BURST`] digested packets and runs the
/// [`BLOCK`]-packet checkpoint: drain observation, the paced wait
/// against the global arrival schedule (with the live rate override),
/// steering refresh, black-box coalescing, the counter fold and trace
/// sampling. Every packet passes the steering filter (blacklist drop,
/// shed filter) before the sink takes it.
struct Ingest<'a> {
    enforce_verdicts: bool,
    hasher: FlowHasher,
    /// Wire mode only: this unit's frame pool (the software RX ring) —
    /// raw frames are loaded into its fixed-capacity slots, parsed in
    /// place and released per burst. `None` on the synthetic path.
    frames: Option<FramePool>,
    /// This unit's books (`runtime.queue.*{queue=Q}`); in RTC the
    /// ingest unit *is* the core.
    queue: &'a QueueCounters,
    steer: Option<SnapshotReader<SteeringSnapshot>>,
    plan: PacePlan,
    /// This unit's current override anchoring.
    pace: PaceState,
    /// Engine-shared live rate override (see [`Engine::set_rate_override`]).
    pace_override: &'a AtomicU64,
    /// Engine-shared graceful-drain flag, observed at checkpoints and
    /// between the slices of a paced wait.
    drain: &'a AtomicBool,
    start: Instant,
    /// This unit's flight-recorder ring (always on; drop events only).
    flight: FlightRing,
    /// Sampled block trace track (`None` when tracing is off).
    trace: Option<ThreadTrace>,
    local: QueueLocal,
    block: BlockState,
}

impl Ingest<'_> {
    /// Replay `stream` into `sink`, then close out: the last sampled
    /// span, the sink's tail, the final black-box deltas and an exact
    /// counter fold. A drained unit quiesces exactly like end-of-trace.
    fn run<S: IngestSink>(
        mut self,
        source: FrameSource<'_>,
        stream: QueueStream,
        mut sink: S,
    ) -> (IngestEnd, S::Out) {
        let interrupted = match &stream {
            QueueStream::All => self.pump(source, 0..source.len(), &mut sink),
            QueueStream::Picked(idx) => {
                self.pump(source, idx.iter().map(|&i| i as usize), &mut sink)
            }
        };
        if self.block.sampled {
            if let Some(tt) = &self.trace {
                tt.span_since(self.block.t0, S::SPAN.0, S::SPAN.1);
            }
        }
        let (pool, out) = sink.finish(&mut self.local, &self.flight);
        self.record_drops(self.block.idx + 1);
        self.queue.fold(&mut self.local);
        let end = IngestEnd {
            pool,
            frames: self.frames,
            interrupted,
        };
        (end, out)
    }

    /// The burst loop. Returns `true` when a drain request stopped it.
    fn pump<S: IngestSink>(
        &mut self,
        source: FrameSource<'_>,
        mut stream: impl Iterator<Item = usize>,
        sink: &mut S,
    ) -> bool {
        let mut k = 0usize;
        loop {
            let mut idx = [0usize; BURST];
            let mut m = 0;
            while m < BURST {
                match stream.next() {
                    Some(i) => {
                        idx[m] = i;
                        m += 1;
                    }
                    None => break,
                }
            }
            if m == 0 {
                return false;
            }
            // BURST divides BLOCK, so checkpoints land on burst starts.
            if k.is_multiple_of(BLOCK) && self.checkpoint(k, idx[0], sink) {
                return true;
            }
            match source {
                FrameSource::Packets(packets) => {
                    for &i in &idx[..m] {
                        let (canon, digest) = self.hasher.digest_symmetric(&packets[i].key);
                        let dp = DigestedPacket {
                            pkt: packets[i],
                            canon,
                            digest,
                        };
                        self.admit(dp, sink);
                    }
                }
                FrameSource::Wire(store) => {
                    let mut burst = [None; BURST];
                    self.digest_frames(store, &idx[..m], &mut burst);
                    for dp in &burst[..m] {
                        self.admit(dp.expect("digested"), sink);
                    }
                }
            }
            k += m;
        }
    }

    /// Digest one burst of wire frames into `out`: load them into
    /// pooled slots (the DMA step of the RX-ring model), parse in place
    /// and digest straight from the header bytes — eight at once on a
    /// full burst, one by one on the stream's tail — then release the
    /// slots. Every digest is bit-identical to the key-based one the
    /// synthetic path takes, so placement and FlowCache rows never
    /// depend on the representation replayed.
    fn digest_frames(
        &mut self,
        store: &FrameStore,
        idx: &[usize],
        out: &mut [Option<DigestedPacket>; BURST],
    ) {
        let frames = self
            .frames
            .as_mut()
            .expect("wire ingest requires a frame pool");
        let mut slots: [Option<FrameSlot>; BURST] = Default::default();
        for (slot, &i) in slots.iter_mut().zip(idx) {
            *slot = Some(frames.load(store.frame(i)));
        }
        // The views borrow the pool, so this scope ends before the slots
        // go back on the free list.
        {
            let mut tuples = [RawTuple::default(); BURST];
            let mut views: [Option<FrameView<'_>>; BURST] = Default::default();
            for ((t, v), slot) in tuples
                .iter_mut()
                .zip(&mut views)
                .zip(slots.iter().flatten())
            {
                let view = FrameView::parse(frames.frame(slot))
                    .expect("frame validated at store construction");
                *t = view.raw_tuple();
                *v = Some(view);
            }
            let batch = (idx.len() == BURST).then(|| self.hasher.digest_batch8(&tuples));
            for (j, &i) in idx.iter().enumerate() {
                let view = views[j].expect("view parsed");
                let (canon, digest) = match &batch {
                    Some(digested) => digested[j],
                    None => self.hasher.digest_raw(tuples[j]),
                };
                out[j] = Some(DigestedPacket {
                    pkt: store.meta(i).packet(&view),
                    canon,
                    digest,
                });
            }
        }
        for slot in slots.iter_mut() {
            if let Some(s) = slot.take() {
                frames.release(s);
            }
        }
    }

    /// Offer one digested packet: steering enforcement at ingest
    /// (blacklisted flows drop here — prevention at the earliest point —
    /// and under load shedding only whitelisted flows pass; both are
    /// accounted per shard *and* per unit, so conservation includes them
    /// on both axes), then hand it to the sink.
    fn admit<S: IngestSink>(&mut self, dp: DigestedPacket, sink: &mut S) {
        self.local.offered += 1;
        if let Some(sr) = &self.steer {
            let snap = sr.current();
            if self.enforce_verdicts && snap.blacklist.contains(&dp.digest.0) {
                sink.shard(dp.digest).steer_dropped.inc();
                self.local.steer_dropped += 1;
                return;
            }
            if snap.shed && !snap.whitelist.contains(&dp.digest.0) {
                sink.shard(dp.digest).shed.inc();
                self.local.shed += 1;
                return;
            }
        }
        sink.stage(dp, &mut self.local, &self.flight);
    }

    /// The checkpoint at the start of every block (`k` packets into the
    /// sub-stream, global index `global_i`): observe a drain request and
    /// pace to the block's first arrival (returns `true`: stop before
    /// offering the block), refresh the steering snapshot, coalesce the
    /// finished block's black-box deltas (`local` resets each checkpoint,
    /// so its values are exactly the per-block deltas), fold the live
    /// counters, and make the block's trace-sampling decision.
    fn checkpoint<S: IngestSink>(&mut self, k: usize, global_i: usize, sink: &mut S) -> bool {
        if self.wait_for(global_i, sink) {
            return true;
        }
        // One atomic load; re-clones the snapshot Arc only when the
        // controller published since the last check.
        if let Some(sr) = self.steer.as_mut() {
            sr.refresh();
        }
        if k > 0 {
            self.block.idx = (k / BLOCK) as u64;
            self.record_drops(self.block.idx);
            self.queue.fold(&mut self.local);
        }
        if let Some(tt) = self.trace.as_mut() {
            if k > 0 && self.block.sampled {
                tt.span_since(self.block.t0, S::SPAN.0, S::SPAN.1);
            }
            self.block.sampled = tt.tick();
            if self.block.sampled {
                self.block.t0 = Instant::now();
            }
        }
        false
    }

    /// Wait until global packet `i` is due, re-reading the live rate
    /// override first. The drain flag is checked before the wait and
    /// between the sink's bounded idle slices, so a drain requested
    /// mid-wait stops the unit within one slice instead of after the
    /// whole gap. Returns `true` on a drain. Flat-out runs only check
    /// the flag.
    fn wait_for<S: IngestSink>(&mut self, i: usize, sink: &mut S) -> bool {
        if !self.plan.paced() {
            return self.drain.load(Ordering::Acquire);
        }
        self.pace
            .follow(&self.plan, self.pace_override.load(Ordering::Acquire), i);
        let due = Duration::from_nanos(self.pace.due_ns(&self.plan, i) as u64);
        loop {
            if self.drain.load(Ordering::Acquire) {
                return true;
            }
            let elapsed = self.start.elapsed();
            if elapsed >= due {
                sink.woke();
                return false;
            }
            sink.idle(due - elapsed);
        }
    }

    /// Black-box the shed and steering drops tallied since the last
    /// fold, stamped with block index `block`.
    fn record_drops(&self, block: u64) {
        if self.local.shed > 0 {
            self.flight
                .record(FlightKind::ShedDrop, self.local.shed, block);
        }
        if self.local.steer_dropped > 0 {
            self.flight
                .record(FlightKind::SteerDrop, self.local.steer_dropped, block);
        }
    }
}

/// The pipeline's sink — the `sw-rxq-0` dispatcher thread: stage each
/// packet into its shard's batch buffer and push full batches down that
/// shard's SPSC lane.
struct LaneSink<'a> {
    batch: usize,
    /// Open loop: a full lane at arrival time is an accounted drop, not
    /// backpressure.
    paced: bool,
    /// The dispatcher allocates from (and paced drops return to) this
    /// pool; the shards recycle into it.
    pool: BufferPool,
    /// One lane producer per shard.
    producers: Vec<Producer<ShardMsg>>,
    /// Per-shard staging buffers, flushed at `batch` packets.
    bufs: Vec<Vec<DigestedPacket>>,
    counters: &'a [ShardCounters],
}

impl<'a> LaneSink<'a> {
    fn new(
        batch: usize,
        paced: bool,
        pool: BufferPool,
        producers: Vec<Producer<ShardMsg>>,
        counters: &'a [ShardCounters],
    ) -> LaneSink<'a> {
        let bufs = producers.iter().map(|_| pool.acquire()).collect();
        LaneSink {
            batch,
            paced,
            pool,
            producers,
            bufs,
            counters,
        }
    }

    fn flush(
        &self,
        s: usize,
        batch: Vec<DigestedPacket>,
        local: &mut QueueLocal,
        flight: &FlightRing,
    ) {
        let len = batch.len() as u64;
        let tx = &self.producers[s];
        let msg = ShardMsg::Batch(Batch {
            pkts: batch,
            sent: Instant::now(),
        });
        if self.paced {
            match tx.try_push(msg) {
                Ok(()) => {
                    self.counters[s].ingested.add(len);
                    local.ingested += len;
                }
                // Open loop: a full ring at arrival time is a loss, and
                // it is *accounted* — never silent. The buffer itself
                // goes straight back to the pool.
                Err(ShardMsg::Batch(b)) => {
                    self.counters[s].ingest_dropped.add(len);
                    local.ingest_dropped += len;
                    flight.record(FlightKind::IngestDrop, s as u64, len);
                    self.pool.give_back(b.pkts);
                }
                Err(ShardMsg::Stop) => unreachable!("flush only pushes batches"),
            }
        } else {
            tx.push_blocking(msg);
            self.counters[s].ingested.add(len);
            local.ingested += len;
        }
        let depth = tx.len() as f64;
        self.counters[s].queue_depth.set(depth);
        self.counters[s].queue_depth_peak.set_max(depth);
    }
}

impl IngestSink for LaneSink<'_> {
    type Out = ();
    const SPAN: (&'static str, &'static str) = ("dispatch", "rxq");

    fn shard(&self, digest: HashDigest) -> &ShardCounters {
        &self.counters[shard_for_digest(digest, self.counters.len())]
    }

    fn stage(&mut self, dp: DigestedPacket, local: &mut QueueLocal, flight: &FlightRing) {
        let s = shard_for_digest(dp.digest, self.bufs.len());
        self.bufs[s].push(dp);
        if self.bufs[s].len() == self.batch {
            let batch = std::mem::replace(&mut self.bufs[s], self.pool.acquire());
            self.flush(s, batch, local, flight);
        }
    }

    /// Park for the bulk of a long gap (an idle dispatcher must not burn
    /// the core at low offered rates), one bounded slice at a time, then
    /// yield-spin the final stretch for timing accuracy.
    fn idle(&mut self, remaining: Duration) {
        if remaining > Duration::from_micros(500) {
            std::thread::park_timeout((remaining - Duration::from_micros(200)).min(PACE_SLICE));
        } else {
            std::thread::yield_now();
        }
    }

    /// Flush every staged batch, then send `Stop` down every lane (never
    /// dropped — blocks until a slot frees).
    fn finish(mut self, local: &mut QueueLocal, flight: &FlightRing) -> (BufferPool, ()) {
        for (s, buf) in std::mem::take(&mut self.bufs).into_iter().enumerate() {
            if !buf.is_empty() {
                self.flush(s, buf, local, flight);
            }
            self.producers[s].push_blocking(ShardMsg::Stop);
        }
        (self.pool, ())
    }
}

/// The run-to-completion sink — an `sw-core-{i}` thread, whose
/// [`ShardWorker`] back end shares the thread with the ingest front end,
/// no lane between them. Packets stage into one pooled buffer; at every
/// `batch`-packet boundary (exactly where a dispatcher would have
/// flushed a lane batch) the core ticks the worker's control clock and
/// processes the batch in place, so per-shard decision streams are
/// identical to the pipeline's. The split guarantees every packet here
/// belongs to this core's partition, so there is nothing to route.
struct CoreSink {
    batch: usize,
    /// Staging-buffer pool; one buffer lives for the whole run.
    pool: BufferPool,
    buf: Vec<DigestedPacket>,
    /// Idle ladder for paced arrival gaps — spin → yield → park, parks
    /// counted as `idle_parks` like a starved pipeline shard — because
    /// the fused core is also the shard: at zero offered load it must
    /// not busy-spin the CPU its own processing runs on.
    backoff: Backoff,
    /// Owns the FlowCache partition, detector suite, verdict sets and
    /// per-shard counters.
    worker: ShardWorker,
}

impl CoreSink {
    fn new(batch: usize, pool: BufferPool, worker: ShardWorker) -> CoreSink {
        let buf = pool.acquire();
        CoreSink {
            batch,
            pool,
            buf,
            backoff: Backoff::new(),
            worker,
        }
    }

    /// Process the staged batch in place: account ingest (a fused core
    /// never drops at ingest — with no lane to overrun, a paced core
    /// self-backpressures instead, so `ingest_dropped` stays 0), tick
    /// the control clock, run the pipeline, fold the counters. There is
    /// no queue crossing — `runtime.stage.queue_ns` records nothing in
    /// RTC mode, which is the point.
    fn process(&mut self, local: &mut QueueLocal) {
        let len = self.buf.len() as u64;
        self.worker.counters.ingested.add(len);
        local.ingested += len;
        self.worker.stage.batch_pkts.record(len);
        self.worker.control_tick();
        self.worker.process_batch(&self.buf);
        self.worker.flush_local();
        self.buf.clear();
    }
}

impl IngestSink for CoreSink {
    type Out = (ShardEndState, FlowCache);
    const SPAN: (&'static str, &'static str) = ("rtc block", "core");

    fn shard(&self, _: HashDigest) -> &ShardCounters {
        &self.worker.counters
    }

    fn stage(&mut self, dp: DigestedPacket, local: &mut QueueLocal, _: &FlightRing) {
        self.buf.push(dp);
        if self.buf.len() == self.batch {
            self.process(local);
        }
    }

    fn idle(&mut self, _: Duration) {
        if self.backoff.idle() {
            self.worker.counters.idle_parks.inc();
        }
    }

    fn woke(&mut self) {
        self.backoff.reset();
    }

    /// Process the partial tail batch, then run the worker's stop tail
    /// (final verdicts, detector sweep, end-state freeze).
    fn finish(
        mut self,
        local: &mut QueueLocal,
        _: &FlightRing,
    ) -> (BufferPool, (ShardEndState, FlowCache)) {
        if !self.buf.is_empty() {
            self.process(local);
        }
        self.pool.give_back(self.buf);
        (self.pool, self.worker.finish())
    }
}

/// Observability wiring for the controller thread: its flight ring,
/// its optional trace track, and the shared slot its report is
/// republished into for live readers ([`Engine::snapshot`]).
struct CtrlObs {
    flight: FlightRing,
    trace: Option<ThreadTrace>,
    live: Arc<Mutex<Option<ControlReport>>>,
    /// The engine's admin mailbox, drained once per epoch.
    admin: Arc<AdminQueue>,
    /// `runtime.admin.applied` — commands the controller acted on.
    admin_applied: Counter,
    /// `runtime.mem.rss_bytes` — sampled once per epoch so the soak
    /// harness gets a live residency trend without touching the engine.
    mem_rss: Gauge,
}

/// Minimum wall time between two republications of the live control
/// report.
const LIVE_CONTROL_EVERY: Duration = Duration::from_millis(50);

/// Stable numeric encoding of a FlowCache mode for flight-event args.
fn mode_code(m: Mode) -> u64 {
    match m {
        Mode::General => 0,
        Mode::Lite => 1,
    }
}

/// The controller thread body: one epoch per `epoch` period (or on
/// shutdown). Each epoch samples cumulative shard counters, drains the
/// verdict log and the heavy-hitter channel, feeds the pure
/// [`Controller`] state machine, applies its per-shard mode decisions
/// to the [`ModeCell`]s and publishes any new steering snapshot.
/// When `stop` is observed it runs one final epoch (counter tails +
/// late verdicts) and returns the report.
#[allow(clippy::too_many_arguments)]
fn controller_loop(
    mut ctrl: Controller,
    log: Arc<ControlLog>,
    reader: LogReader,
    heavy_rx: Receiver<(u64, u64)>,
    counters: Vec<ShardCounters>,
    host_processed: Counter,
    mode_cells: Vec<Arc<ModeCell>>,
    snap_cell: Arc<SnapshotCell<SteeringSnapshot>>,
    stop: Arc<AtomicBool>,
    epoch: Duration,
    mut obs: CtrlObs,
) -> ControlReport {
    let mut last = Instant::now();
    let mut prev_modes: Vec<Mode> = vec![Mode::General; counters.len()];
    let mut prev_shed = false;
    // Standing per-shard mode overrides (`AdminCmd::ForceMode`): a
    // controller-loop-local overlay applied *after* Algorithm 4 each
    // epoch, so releasing one hands the shard straight back to the
    // algorithm's current decision.
    let mut force_modes: Vec<Option<Mode>> = vec![None; counters.len()];
    let mut next_publish = last;
    loop {
        let done = stop.load(Ordering::Acquire);
        if !done {
            std::thread::park_timeout(epoch);
        }
        let now = Instant::now();
        let elapsed_secs = now.duration_since(last).as_secs_f64();
        last = now;
        obs.mem_rss.set(mem::rss_bytes() as f64);

        // Apply queued admin edits before the epoch decision: they
        // mutate the controller's private tables (marking it dirty), so
        // this epoch's snapshot publication carries them — the hot loop
        // only ever sees them through the RCU path.
        for cmd in obs.admin.drain() {
            let applied = match cmd {
                AdminCmd::BlacklistAdd(d) => {
                    ctrl.admin_blacklist_insert(d);
                    true
                }
                AdminCmd::BlacklistRemove(d) => {
                    ctrl.admin_blacklist_remove(d);
                    true
                }
                AdminCmd::WhitelistAdd(d) => {
                    ctrl.admin_whitelist_insert(d);
                    true
                }
                AdminCmd::WhitelistRemove(d) => {
                    ctrl.admin_whitelist_remove(d);
                    true
                }
                AdminCmd::ForceShed(f) => {
                    ctrl.admin_force_shed(f);
                    true
                }
                AdminCmd::ForceMode { shard, mode } => {
                    if let Some(slot) = force_modes.get_mut(shard) {
                        *slot = mode;
                        true
                    } else {
                        false
                    }
                }
            };
            if applied {
                obs.admin_applied.inc();
                obs.flight
                    .record(FlightKind::AdminEdit, cmd.code(), cmd.arg());
            }
        }

        // Escalation backlog: packets escalated but neither dropped at
        // the ring nor processed by the host yet. The pool is shared,
        // so every shard's sample carries the aggregate.
        let mut escalated = 0u64;
        let mut esc_dropped = 0u64;
        for c in &counters {
            escalated += c.escalated.get();
            esc_dropped += c.escalation_dropped.get();
        }
        let backlog = escalated
            .saturating_sub(esc_dropped)
            .saturating_sub(host_processed.get());

        let shards: Vec<ShardSample> = counters
            .iter()
            .map(|c| ShardSample {
                offered: c.ingested.get()
                    + c.ingest_dropped.get()
                    + c.shed.get()
                    + c.steer_dropped.get(),
                processed: c.processed.get(),
                shed: c.shed.get(),
                escalation_backlog: backlog,
            })
            .collect();
        let verdicts = log.poll(&reader);
        let mut heavy = Vec::new();
        while let Ok(h) = heavy_rx.try_recv() {
            heavy.push(h);
            if heavy.len() >= 16_384 {
                break;
            }
        }

        let decision = ctrl.epoch(&EpochInput {
            elapsed_secs,
            shards,
            verdicts,
            heavy,
        });
        // The effective modes are Algorithm 4's decision with any
        // standing admin overrides layered on top.
        let mut modes = decision.modes.clone();
        for (m, f) in modes.iter_mut().zip(&force_modes) {
            if let Some(forced) = f {
                *m = *forced;
            }
        }
        for (cell, &m) in mode_cells.iter().zip(&modes) {
            cell.set(m);
        }
        // Black-box the epoch's notable transitions before publishing:
        // per-shard mode flips, shed edges, promotions and evictions.
        let record = &decision.record;
        for (i, (&m, &p)) in modes.iter().zip(&prev_modes).enumerate() {
            if m != p {
                obs.flight
                    .record(FlightKind::ModeSwitch, i as u64, mode_code(m));
            }
        }
        prev_modes.clone_from(&modes);
        if record.shed != prev_shed {
            let kind = if record.shed {
                FlightKind::ShedOn
            } else {
                FlightKind::ShedOff
            };
            obs.flight.record(kind, record.epoch, record.max_backlog);
            prev_shed = record.shed;
        }
        if record.promotions > 0 {
            obs.flight
                .record(FlightKind::Promotion, record.promotions, record.epoch);
        }
        if record.whitelist_evictions > 0 {
            obs.flight.record(
                FlightKind::WhitelistEvict,
                record.whitelist_evictions,
                record.epoch,
            );
        }
        // Republish the report so live readers see the decisions so far
        // without waiting for the final one; rate-limited, because it
        // copies the bounded decision audit and timeline.
        if now >= next_publish {
            *obs.live.lock().expect("live control poisoned") = Some(ctrl.report());
            next_publish = now + LIVE_CONTROL_EVERY;
        }
        if let Some(snap) = decision.snapshot {
            snap_cell.publish(snap);
        }
        if let Some(tt) = obs.trace.as_mut() {
            if tt.tick() {
                tt.span_since(now, "epoch apply", "control");
            }
        }
        if done {
            log.release(reader);
            return ctrl.report();
        }
    }
}

/// Per-ingest-unit counters (the pipeline dispatcher, or an RTC core),
/// registered as `runtime.queue.*{queue=Q}`.
#[derive(Clone)]
pub(crate) struct QueueCounters {
    /// Packets of the offered trace assigned to this queue.
    pub offered: Counter,
    /// Packets this queue enqueued onto its shard lanes.
    pub ingested: Counter,
    /// Packets dropped at this queue's lanes (full ring, paced mode).
    pub ingest_dropped: Counter,
    /// Packets this queue shed under controller load shedding.
    pub shed: Counter,
    /// Packets this queue dropped on the steering blacklist.
    pub steer_dropped: Counter,
}

impl QueueCounters {
    fn registered(reg: &Registry, queue: usize) -> QueueCounters {
        let q = queue.to_string();
        let l: &[(&str, &str)] = &[("queue", &q)];
        QueueCounters {
            offered: reg.counter("runtime.queue.offered", l),
            ingested: reg.counter("runtime.queue.ingested", l),
            ingest_dropped: reg.counter("runtime.queue.ingest_dropped", l),
            shed: reg.counter("runtime.queue.shed", l),
            steer_dropped: reg.counter("runtime.queue.steer_dropped", l),
        }
    }

    fn snapshot(&self) -> QueueStats {
        QueueStats {
            offered: self.offered.get(),
            ingested: self.ingested.get(),
            ingest_dropped: self.ingest_dropped.get(),
            shed: self.shed.get(),
            steer_dropped: self.steer_dropped.get(),
        }
    }

    /// Fold an ingest unit's plain-integer tallies into the shared
    /// atomics and reset them — called at checkpoints (live visibility)
    /// and at end of stream (exactness).
    fn fold(&self, local: &mut QueueLocal) {
        if local.offered > 0 {
            self.offered.add(local.offered);
        }
        if local.ingested > 0 {
            self.ingested.add(local.ingested);
        }
        if local.ingest_dropped > 0 {
            self.ingest_dropped.add(local.ingest_dropped);
        }
        if local.shed > 0 {
            self.shed.add(local.shed);
        }
        if local.steer_dropped > 0 {
            self.steer_dropped.add(local.steer_dropped);
        }
        *local = QueueLocal::default();
    }
}

/// Frozen per-ingest-unit statistics (the report view). The
/// queue-local conservation law is
/// `offered = ingested + ingest_dropped + shed + steer_dropped`.
#[derive(Clone, Copy, Debug, Default, Serialize)]
pub struct QueueStats {
    /// Packets of the offered trace assigned to this queue by RSS.
    pub offered: u64,
    /// Packets enqueued onto this queue's shard lanes.
    pub ingested: u64,
    /// Packets dropped at full lanes (paced mode).
    pub ingest_dropped: u64,
    /// Packets shed under controller load shedding.
    pub shed: u64,
    /// Packets dropped on the steering blacklist.
    pub steer_dropped: u64,
}

/// Aggregate per-stage wall-clock distributions over one run.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct StageSnapshot {
    /// Batch wait between dispatcher enqueue and shard dequeue, ns.
    pub queue_ns: HistSnapshot,
    /// FlowCache stage per sampled packet, ns.
    pub cache_ns: HistSnapshot,
    /// Detector-suite stage per sampled packet, ns.
    pub detect_ns: HistSnapshot,
    /// Host-escalation round trip (shard hand-off → verdict published),
    /// ns. Inline triage records its synchronous call here.
    pub escalate_ns: HistSnapshot,
    /// Delivered batch sizes, packets.
    pub batch_pkts: HistSnapshot,
}

/// Aggregate FlowCache behaviour across every shard partition: the
/// hit mix, the tag-filtered probe-length distribution, and how much
/// memory-level parallelism the batched lookup path actually achieved.
/// Every field is an exact counter summed over shards (no wall-clock
/// values), but the totals depend on how RSS split the trace, so this
/// section stays out of [`EngineReport::deterministic_summary`].
#[derive(Clone, Debug, Default)]
pub struct FlowCacheSummary {
    /// Configured lookup burst width (`EngineConfig::cache_burst`;
    /// `<= 1` means the per-packet reference path ran).
    pub burst: usize,
    /// Primary-buffer hits.
    pub p_hits: u64,
    /// Eviction-buffer hits.
    pub e_hits: u64,
    /// Misses (new-flow insertions).
    pub misses: u64,
    /// Fully-pinned-row escalations.
    pub to_host: u64,
    /// Records pushed to eviction rings by packet-path accesses.
    pub ring_pushes: u64,
    /// Probe-length histogram: slot `i` counts accesses that probed
    /// exactly `i` buckets (last slot absorbs longer probes).
    pub probe_hist: [u64; PROBE_HIST_SLOTS],
    /// Prefetch bursts issued by the batched path.
    pub bursts: u64,
    /// Packets covered by those bursts.
    pub burst_pkts: u64,
}

impl FlowCacheSummary {
    fn aggregate(burst: usize, ends: &[ShardEndState]) -> FlowCacheSummary {
        let mut out = FlowCacheSummary {
            burst,
            ..FlowCacheSummary::default()
        };
        for e in ends {
            out.p_hits += e.cache_mix.p_hits;
            out.e_hits += e.cache_mix.e_hits;
            out.misses += e.cache_mix.misses;
            out.to_host += e.cache_mix.to_host;
            out.ring_pushes += e.cache_mix.ring_pushes;
            for (acc, v) in out.probe_hist.iter_mut().zip(e.probe_hist) {
                *acc += v;
            }
            out.bursts += e.bursts;
            out.burst_pkts += e.burst_pkts;
        }
        out
    }

    /// Total packet-path cache accesses.
    pub fn accesses(&self) -> u64 {
        self.p_hits + self.e_hits + self.misses + self.to_host
    }

    /// Hit rate over cache-processed packets (to-host escalations
    /// excluded, matching `CacheStats::hit_rate`).
    pub fn hit_rate(&self) -> f64 {
        let p = self.p_hits + self.e_hits + self.misses;
        if p == 0 {
            0.0
        } else {
            (self.p_hits + self.e_hits) as f64 / p as f64
        }
    }

    /// Mean probe length per access, in buckets.
    pub fn mean_probe_len(&self) -> f64 {
        let (mut n, mut sum) = (0u64, 0u64);
        for (len, &count) in self.probe_hist.iter().enumerate() {
            n += count;
            sum += count * len as u64;
        }
        if n == 0 {
            0.0
        } else {
            sum as f64 / n as f64
        }
    }

    /// Mean packets per prefetch burst — how deep the memory-level
    /// parallel pipeline actually ran (`<= burst`; short tails and
    /// sub-burst groups drag it down).
    pub fn mean_burst_depth(&self) -> f64 {
        if self.bursts == 0 {
            0.0
        } else {
            self.burst_pkts as f64 / self.bursts as f64
        }
    }
}

/// Serialises every field, then the values its methods derive.
impl Serialize for FlowCacheSummary {
    fn to_value(&self) -> Value {
        object(vec![
            ("burst", self.burst.to_value()),
            ("p_hits", self.p_hits.to_value()),
            ("e_hits", self.e_hits.to_value()),
            ("misses", self.misses.to_value()),
            ("to_host", self.to_host.to_value()),
            ("ring_pushes", self.ring_pushes.to_value()),
            ("probe_hist", self.probe_hist.to_value()),
            ("bursts", self.bursts.to_value()),
            ("burst_pkts", self.burst_pkts.to_value()),
            ("accesses", self.accesses().to_value()),
            ("hit_rate", self.hit_rate().to_value()),
            ("mean_probe_len", self.mean_probe_len().to_value()),
            ("mean_burst_depth", self.mean_burst_depth().to_value()),
        ])
    }
}

/// A JSON object with `fields` in order.
fn object(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// Everything `Engine::run` measured: the per-run books of one engine
/// (see [`Engine::snapshot`]).
#[derive(Clone, Debug)]
pub struct EngineReport {
    /// Packets offered to the engine.
    pub offered: u64,
    /// Wall-clock time from ingest start to the last worker thread
    /// joined (the drain included).
    pub elapsed: Duration,
    /// Per-shard statistics.
    pub shards: Vec<ShardStats>,
    /// Per-ingest-unit statistics (the one pipeline dispatcher, or one
    /// per RTC core), in unit order.
    pub queues: Vec<QueueStats>,
    /// Escalated packets processed by the host tier (pool or inline).
    pub host_processed: u64,
    /// Verdicts published to the control log.
    pub verdicts_published: u64,
    /// True when the run stopped on a graceful-drain request instead of
    /// end-of-trace. `offered` then reflects what the ingest units
    /// actually offered before stopping, so conservation still holds.
    pub interrupted: bool,
    /// Verdict-log entries still resident (slowest reader's lag) at
    /// quiesce, before the controller's final drain — the soak
    /// harness trends this for leak detection.
    pub log_buffered: u64,
    /// Control-plane report (present when the engine ran with a
    /// controller attached).
    pub control: Option<ControlReport>,
    /// Per-stage latency/size distributions.
    pub stage: StageSnapshot,
    /// Aggregate FlowCache behaviour (hit mix, probe lengths, batch
    /// pipeline depth) summed across shard partitions.
    pub flowcache: FlowCacheSummary,
}

impl EngineReport {
    /// Packets fully processed across all shards.
    pub fn processed(&self) -> u64 {
        self.shards.iter().map(|s| s.processed).sum()
    }

    /// Packets dropped at ingest across all shards.
    pub fn ingest_dropped(&self) -> u64 {
        self.shards.iter().map(|s| s.ingest_dropped).sum()
    }

    /// Packets shed at dispatch under controller load shedding.
    pub fn shed(&self) -> u64 {
        self.shards.iter().map(|s| s.shed).sum()
    }

    /// Packets dropped at dispatch by the steering blacklist.
    pub fn steer_dropped(&self) -> u64 {
        self.shards.iter().map(|s| s.steer_dropped).sum()
    }

    /// Packets escalated to the host tier.
    pub fn escalated(&self) -> u64 {
        self.shards.iter().map(|s| s.escalated).sum()
    }

    /// Escalations dropped at the host ring.
    pub fn escalation_dropped(&self) -> u64 {
        self.shards.iter().map(|s| s.escalation_dropped).sum()
    }

    /// Idle-loop parks across all shards (wall-clock dependent; excluded
    /// from [`EngineReport::deterministic_summary`]).
    pub fn idle_parks(&self) -> u64 {
        self.shards.iter().map(|s| s.idle_parks).sum()
    }

    /// Wall-clock throughput in million packets per second, over
    /// *processed* packets (drops excluded).
    pub fn mpps(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.processed() as f64 / secs / 1e6
        }
    }

    /// Mean wall-clock budget per processed packet, ns (1 Mpps ⇔
    /// 1000 ns/pkt; 0 when nothing was processed).
    pub fn ns_per_packet(&self) -> f64 {
        let mpps = self.mpps();
        if mpps > 0.0 {
            1000.0 / mpps
        } else {
            0.0
        }
    }

    /// Ingest drop fraction of offered packets.
    pub fn drop_rate(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.ingest_dropped() as f64 / self.offered as f64
        }
    }

    /// The conservation invariant: every offered packet is either
    /// processed by exactly one shard or dropped with accounting
    /// (ingest overrun, load shed, or steering blacklist) — and the
    /// books balance on *both* axes: per shard (`ingested = processed`)
    /// and per ingest unit
    /// (`offered = ingested + ingest_dropped + shed + steer_dropped`),
    /// with the two sides agreeing on the totals.
    pub fn conserved(&self) -> bool {
        let shard_ingested: u64 = self.shards.iter().map(|s| s.ingested).sum();
        let shards_ok = shard_ingested + self.ingest_dropped() + self.shed() + self.steer_dropped()
            == self.offered
            && self.shards.iter().all(|s| s.ingested == s.processed);
        let queue_offered: u64 = self.queues.iter().map(|q| q.offered).sum();
        let queue_ingested: u64 = self.queues.iter().map(|q| q.ingested).sum();
        let queues_ok = self
            .queues
            .iter()
            .all(|q| q.offered == q.ingested + q.ingest_dropped + q.shed + q.steer_dropped)
            && queue_offered == self.offered
            && queue_ingested == shard_ingested;
        shards_ok && queues_ok
    }

    /// A byte-stable rendering of every *deterministic* quantity (exact
    /// counters; no wall-clock values). Under
    /// [`EngineConfig::deterministic`] (one shard, inline triage) two
    /// same-seed runs produce identical strings on either datapath — the
    /// determinism tests and the CI goldens diff exactly this. Per-unit
    /// breakdowns stay out of this rendering — they live in
    /// [`EngineReport::queues`] — because printing them would make the
    /// byte output depend on the topology.
    pub fn deterministic_summary(&self) -> String {
        let mut out = format!("offered={}\n", self.offered);
        for (i, s) in self.shards.iter().enumerate() {
            out.push_str(&format!(
                "shard{i}: ingested={} dropped={} shed={} steer_dropped={} processed={} \
                 verdict_dropped={} fast_path={} escalated={} escalation_dropped={} \
                 ctrl_applied={} alerts={} blacklisted={} whitelisted={} cache_resident={}\n",
                s.ingested,
                s.ingest_dropped,
                s.shed,
                s.steer_dropped,
                s.processed,
                s.verdict_dropped,
                s.fast_path,
                s.escalated,
                s.escalation_dropped,
                s.ctrl_applied,
                s.alerts,
                s.blacklisted,
                s.whitelisted,
                s.cache_resident,
            ));
        }
        out.push_str(&format!(
            "host_processed={} verdicts={}\n",
            self.host_processed, self.verdicts_published
        ));
        out
    }
}

/// Serialises every field (`elapsed` as `elapsed_ns`), with the totals
/// and rates the methods derive (`processed`, `conserved`, `mpps`, …)
/// next to them, so no reader re-derives them.
impl Serialize for EngineReport {
    fn to_value(&self) -> Value {
        object(vec![
            ("offered", self.offered.to_value()),
            ("processed", self.processed().to_value()),
            ("ingest_dropped", self.ingest_dropped().to_value()),
            ("shed", self.shed().to_value()),
            ("steer_dropped", self.steer_dropped().to_value()),
            ("conserved", self.conserved().to_value()),
            ("escalated", self.escalated().to_value()),
            ("escalation_dropped", self.escalation_dropped().to_value()),
            ("host_processed", self.host_processed.to_value()),
            ("verdicts_published", self.verdicts_published.to_value()),
            ("idle_parks", self.idle_parks().to_value()),
            ("interrupted", self.interrupted.to_value()),
            ("log_buffered", self.log_buffered.to_value()),
            ("elapsed_ns", (self.elapsed.as_nanos() as u64).to_value()),
            ("mpps", self.mpps().to_value()),
            ("ns_per_packet", self.ns_per_packet().to_value()),
            ("drop_rate", self.drop_rate().to_value()),
            ("shards", self.shards.to_value()),
            ("queues", self.queues.to_value()),
            ("stage", self.stage.to_value()),
            ("flowcache", self.flowcache.to_value()),
            ("control", self.control.to_value()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-packet reference schedule: packet `i` is due at the sum
    /// of the gaps of packets `0..=i`.
    fn summed(n: usize, gap: impl Fn(usize) -> f64) -> Vec<f64> {
        let mut acc = 0.0;
        (0..n)
            .map(|i| {
                acc += gap(i);
                acc
            })
            .collect()
    }

    fn assert_close(got: f64, want: f64, what: &str) {
        assert!(
            (got - want).abs() <= 1e-9 * want.abs().max(1.0),
            "{what}: got {got}, want {want}"
        );
    }

    /// The override bits exactly as the engine publishes them.
    fn override_bits(mpps: Option<f64>) -> u64 {
        let engine = Engine::new(EngineConfig::new(1));
        engine.set_rate_override(mpps);
        engine.pace_override.load(Ordering::Acquire)
    }

    #[test]
    fn rate_plan_matches_the_summed_per_packet_gaps() {
        let gap = 1000.0 / 0.3;
        let plan = PacePlan::Rate { gap_ns: gap };
        for (i, want) in summed(4096, |_| gap).into_iter().enumerate() {
            assert_close(plan.due_ns(i), want, &format!("rate, packet {i}"));
        }
    }

    #[test]
    fn spike_plan_matches_the_summed_per_packet_gaps_around_its_edges() {
        let (base, peak) = (5000.0, 500.0);
        for (lo, hi) in [(300, 700), (0, 400), (600, 1000), (500, 500), (0, 1000)] {
            let plan = PacePlan::Spike {
                base_gap_ns: base,
                peak_gap_ns: peak,
                lo,
                hi,
            };
            let want = summed(1000, |i| if (lo..hi).contains(&i) { peak } else { base });
            for (i, want) in want.into_iter().enumerate() {
                assert_close(
                    plan.due_ns(i),
                    want,
                    &format!("spike [{lo}, {hi}), packet {i}"),
                );
            }
        }
        // Right at the edges: the first spike packet already arrives on
        // the peak gap, the first packet after it on the base gap again.
        let plan = PacePlan::Spike {
            base_gap_ns: base,
            peak_gap_ns: peak,
            lo: 300,
            hi: 700,
        };
        assert_close(plan.due_ns(299) - plan.due_ns(298), base, "before lo");
        assert_close(plan.due_ns(300) - plan.due_ns(299), peak, "at lo");
        assert_close(plan.due_ns(699) - plan.due_ns(698), peak, "before hi");
        assert_close(plan.due_ns(700) - plan.due_ns(699), base, "at hi");
    }

    #[test]
    fn an_override_re_anchors_forward_and_its_release_returns_to_the_plan() {
        let plan = PacePlan::Rate { gap_ns: 1000.0 };
        let mut pace = PaceState::default();
        pace.follow(&plan, override_bits(None), 0);
        assert_eq!(pace.due_ns(&plan, 255), plan.due_ns(255), "no override");

        // 0.25 Mpps from packet 256 on: the anchor keeps its due time
        // and every later gap is the override's 4 µs.
        let slow = override_bits(Some(0.25));
        assert_eq!(f64::from_bits(slow), 4000.0);
        let anchor_due = pace.due_ns(&plan, 256);
        pace.follow(&plan, slow, 256);
        assert_eq!(pace.due_ns(&plan, 256), anchor_due, "anchor moved");
        for i in 256..2048 {
            let gap = pace.due_ns(&plan, i + 1) - pace.due_ns(&plan, i);
            assert_close(gap, 4000.0, &format!("override gap after packet {i}"));
        }
        // Re-reading the same bits later does not re-anchor.
        pace.follow(&plan, slow, 1024);
        assert_close(
            pace.due_ns(&plan, 1024),
            anchor_due + 768.0 * 4000.0,
            "same override, same anchor",
        );

        // A second override anchors where the first one had got to.
        let fast = override_bits(Some(2.0));
        let second_due = pace.due_ns(&plan, 1280);
        pace.follow(&plan, fast, 1280);
        assert_eq!(pace.due_ns(&plan, 1280), second_due);
        assert_close(
            pace.due_ns(&plan, 1281) - pace.due_ns(&plan, 1280),
            500.0,
            "second override gap",
        );

        // Releasing hands pacing back to the plan's absolute schedule.
        pace.follow(&plan, override_bits(None), 1536);
        for i in [1536, 1537, 4000] {
            assert_eq!(
                pace.due_ns(&plan, i),
                plan.due_ns(i),
                "released, packet {i}"
            );
        }
    }

    #[test]
    fn invalid_override_rates_publish_no_override() {
        for bad in [
            Some(0.0),
            Some(-1.0),
            Some(f64::NAN),
            Some(f64::INFINITY),
            None,
        ] {
            assert_eq!(override_bits(bad), 0, "{bad:?}");
        }
    }
}
