//! One worker shard: a pinned OS thread owning a FlowCache partition and
//! a full per-shard detector suite.
//!
//! Ingest guarantees that both directions of a flow land on the same
//! shard (symmetric [`smartwatch_net::hash::shard_for_digest`]), so a
//! shard's FlowCache and detectors see a complete, self-contained slice
//! of the traffic and never need cross-shard synchronisation on the
//! packet path. In the pipeline a shard drains one bounded SPSC lane
//! from the single dispatcher (`ShardWorker::run`); a fused RTC core
//! drives the same worker in place, with no lane at all. The only
//! shared state is the escalation channel (bounded MPSC to the host
//! pool) and the epoch-stamped control log, polled at batch boundaries.
//!
//! The packet path is built to do no per-packet expensive work beyond
//! the pipeline itself: packets arrive pre-digested (canonical key +
//! symmetric hash, see [`crate::batch`]), black/whitelist membership is
//! an identity-hashed digest probe, the FlowCache reuses the digest for
//! its row lookup, telemetry counters accumulate in plain integers and
//! flush to the shared atomics once per batch, and drained batch buffers
//! return to the dispatcher's pool instead of being freed.

use crate::batch::{Backoff, Batch, DigestedPacket, RecycleSender};
use crate::control::{ControlLog, LogReader};
use crate::escalate::{Escalated, TriageNf};
use crate::obs::ThreadTrace;
use serde::Serialize;
use smartwatch_control::{ModeCell, SnapshotReader, SteeringSnapshot};
use smartwatch_core::{DetectorSuite, HostNeed};
use smartwatch_host::{HostNf, Verdict};
use smartwatch_net::{AgingDigestSet, BuildDigestHasher, FlowHasher};
use smartwatch_snic::{FlowCache, Outcome};
use smartwatch_telemetry::{Counter, FlightKind, FlightRing, Gauge, Histogram, Registry};
use std::collections::HashMap;
use std::sync::mpsc::SyncSender;
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// Message from the dispatcher to a shard.
pub(crate) enum ShardMsg {
    /// A pre-digested batch plus its enqueue instant (queue-wait timing).
    Batch(Batch),
    /// Graceful shutdown: drain, final-sweep, exit.
    Stop,
}

/// The shard's ingest lane: the consumer half of its SPSC ring from the
/// dispatcher plus the return path into the dispatcher's buffer pool.
pub(crate) struct LaneRx {
    pub rx: crate::spsc::Consumer<ShardMsg>,
    pub recycle: RecycleSender,
}

/// The shard side of an attached control plane: the live mode cell the
/// controller writes, the steering snapshot reader, and the channel
/// heavy-hitter candidates flush through. Absent when the engine runs
/// without a controller.
pub(crate) struct ControlHooks {
    /// Controller's Algorithm 4 decision for this shard; applied to the
    /// live FlowCache at batch boundaries.
    pub mode: Arc<ModeCell>,
    /// RCU reader over the published steering table.
    pub steer: SnapshotReader<SteeringSnapshot>,
    /// Sampled heavy-hitter candidates `(digest, estimated packets)`
    /// flow controller-ward through here (bounded; drops are fine —
    /// a real heavy hitter re-qualifies next flush).
    pub heavy_tx: SyncSender<(u64, u64)>,
}

/// Where a shard sends suspects (the ≤16% escalation path).
pub(crate) enum Escalation {
    /// Bounded channel into the shared host worker pool. Payloads carry
    /// the hand-off instant so the host side can time the round trip.
    Pool(SyncSender<Escalated>),
    /// Synchronous per-shard triage (deterministic mode, `host_workers = 0`).
    Inline(TriageNf),
}

/// Per-shard observability wiring: the thread's flight-recorder ring
/// (always on — events are rare and the ring is bounded) plus the
/// optional sampled chrome-trace track.
pub(crate) struct ShardObs {
    pub flight: FlightRing,
    pub trace: Option<ThreadTrace>,
}

/// Per-shard counters, registered as `runtime.shard.*{shard=N}`.
#[derive(Clone)]
pub struct ShardCounters {
    /// Packets enqueued to this shard (dispatcher side).
    pub ingested: Counter,
    /// Packets dropped at ingest because the shard queue was full.
    pub ingest_dropped: Counter,
    /// Packets shed at dispatch (load shedding: not whitelisted while
    /// the controller had shedding engaged).
    pub shed: Counter,
    /// Packets dropped at dispatch by the published steering blacklist.
    pub steer_dropped: Counter,
    /// Packets fully processed by the shard pipeline.
    pub processed: Counter,
    /// Packets dropped by an applied blacklist verdict (prevention).
    pub verdict_dropped: Counter,
    /// Packets short-circuited by a whitelist verdict (cache update only).
    pub fast_path: Counter,
    /// Packets escalated toward the host tier.
    pub escalated: Counter,
    /// Escalations dropped because the host pool ring was full.
    pub escalation_dropped: Counter,
    /// Control-log verdicts applied by this shard.
    pub ctrl_applied: Counter,
    /// Detector alerts raised on this shard.
    pub alerts: Counter,
    /// Idle-loop park transitions (the backoff's deepest stage).
    pub idle_parks: Counter,
    /// Current ingest queue depth, in batches (dispatcher side).
    pub queue_depth: Gauge,
    /// High-water mark of the ingest queue depth, in batches.
    pub queue_depth_peak: Gauge,
}

impl ShardCounters {
    pub(crate) fn registered(reg: &Registry, shard: usize) -> ShardCounters {
        let s = shard.to_string();
        let l: &[(&str, &str)] = &[("shard", &s)];
        ShardCounters {
            ingested: reg.counter("runtime.shard.ingested", l),
            ingest_dropped: reg.counter("runtime.shard.ingest_dropped", l),
            shed: reg.counter("runtime.shard.shed", l),
            steer_dropped: reg.counter("runtime.shard.steer_dropped", l),
            processed: reg.counter("runtime.shard.processed", l),
            verdict_dropped: reg.counter("runtime.shard.verdict_dropped", l),
            fast_path: reg.counter("runtime.shard.fast_path", l),
            escalated: reg.counter("runtime.shard.escalated", l),
            escalation_dropped: reg.counter("runtime.shard.escalation_dropped", l),
            ctrl_applied: reg.counter("runtime.shard.ctrl_applied", l),
            alerts: reg.counter("runtime.shard.alerts", l),
            idle_parks: reg.counter("runtime.shard.idle_parks", l),
            queue_depth: reg.gauge("runtime.shard.queue_depth", l),
            queue_depth_peak: reg.gauge("runtime.shard.queue_depth_peak", l),
        }
    }

    /// Freeze the counters into a plain-value snapshot.
    pub(crate) fn snapshot(&self, summary: ShardEndState) -> ShardStats {
        ShardStats {
            ingested: self.ingested.get(),
            ingest_dropped: self.ingest_dropped.get(),
            shed: self.shed.get(),
            steer_dropped: self.steer_dropped.get(),
            processed: self.processed.get(),
            verdict_dropped: self.verdict_dropped.get(),
            fast_path: self.fast_path.get(),
            escalated: self.escalated.get(),
            escalation_dropped: self.escalation_dropped.get(),
            ctrl_applied: self.ctrl_applied.get(),
            alerts: self.alerts.get(),
            idle_parks: self.idle_parks.get(),
            blacklisted: summary.blacklisted,
            whitelisted: summary.whitelisted,
            cache_resident: summary.cache_resident,
        }
    }
}

/// Frozen per-shard statistics (the report view).
#[derive(Clone, Copy, Debug, Default, Serialize)]
pub struct ShardStats {
    /// Packets enqueued to this shard.
    pub ingested: u64,
    /// Packets dropped at ingest (full queue, paced mode).
    pub ingest_dropped: u64,
    /// Packets shed at dispatch under controller load shedding.
    pub shed: u64,
    /// Packets dropped at dispatch by the steering blacklist.
    pub steer_dropped: u64,
    /// Packets fully processed.
    pub processed: u64,
    /// Packets dropped by blacklist verdicts.
    pub verdict_dropped: u64,
    /// Packets taking the whitelist fast path.
    pub fast_path: u64,
    /// Packets escalated to the host tier.
    pub escalated: u64,
    /// Escalations lost to a full host ring (accounted, never silent).
    pub escalation_dropped: u64,
    /// Control verdicts applied.
    pub ctrl_applied: u64,
    /// Alerts raised.
    pub alerts: u64,
    /// Idle-loop parks (wall-clock dependent — excluded from the
    /// deterministic summary).
    pub idle_parks: u64,
    /// Blacklist entries held at shutdown.
    pub blacklisted: u64,
    /// Whitelist entries held at shutdown.
    pub whitelisted: u64,
    /// Flow records resident in the shard's cache partition at shutdown.
    pub cache_resident: u64,
}

/// Aggregate stage histograms shared by every shard (lock-free handles).
#[derive(Clone)]
pub(crate) struct StageHists {
    /// Dispatcher-enqueue → shard-dequeue wait per batch, ns.
    pub queue_ns: Histogram,
    /// FlowCache stage latency per sampled packet, ns.
    pub cache_ns: Histogram,
    /// Detector-suite stage latency per sampled packet, ns.
    pub detect_ns: Histogram,
    /// Host-escalation round-trip latency (shard hand-off → verdict
    /// published), ns. Inline triage records its synchronous call here.
    pub escalate_ns: Histogram,
    /// Batch sizes actually delivered, packets.
    pub batch_pkts: Histogram,
}

impl StageHists {
    pub(crate) fn registered(reg: &Registry) -> StageHists {
        StageHists {
            queue_ns: reg.histogram("runtime.stage.queue_ns", &[]),
            cache_ns: reg.histogram("runtime.stage.cache_ns", &[]),
            detect_ns: reg.histogram("runtime.stage.detect_ns", &[]),
            escalate_ns: reg.histogram("runtime.stage.escalate_ns", &[]),
            batch_pkts: reg.histogram("runtime.stage.batch_pkts", &[]),
        }
    }

    /// Every stage histogram, in `StageSnapshot` field order.
    pub(crate) fn all(&self) -> [&Histogram; 5] {
        [
            &self.queue_ns,
            &self.cache_ns,
            &self.detect_ns,
            &self.escalate_ns,
            &self.batch_pkts,
        ]
    }
}

/// Probe-length histogram granularity: slot `i` counts accesses that
/// probed exactly `i` buckets (the last slot absorbs anything longer).
/// General-mode rows probe at most 12 buckets, so 16 slots lose nothing.
pub(crate) const PROBE_HIST_SLOTS: usize = 16;

/// This shard's FlowCache access mix, tallied from [`Outcome`]s in plain
/// integers on the shard thread. The cache's own `snic.cache.*` counters
/// are shared registry atomics (every shard partition attaches to the
/// same cells), so the per-shard view has to be counted here — and being
/// plain integers, it is exactly deterministic for deterministic inputs.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct CacheMix {
    /// Primary-buffer hits.
    pub p_hits: u64,
    /// Eviction-buffer hits.
    pub e_hits: u64,
    /// Misses (new-flow insertions).
    pub misses: u64,
    /// Fully-pinned-row escalations.
    pub to_host: u64,
    /// Records this shard's accesses pushed to eviction rings.
    pub ring_pushes: u64,
}

impl CacheMix {
    fn tally(&mut self, access: &smartwatch_snic::Access) {
        match access.outcome {
            Outcome::PHit => self.p_hits += 1,
            Outcome::EHit => self.e_hits += 1,
            Outcome::Miss => self.misses += 1,
            Outcome::ToHost => self.to_host += 1,
        }
        self.ring_pushes += u64::from(access.ring_pushes);
    }
}

/// What a shard reports back when it exits.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct ShardEndState {
    pub blacklisted: u64,
    pub whitelisted: u64,
    pub cache_resident: u64,
    /// FlowCache access mix, counted on this shard thread.
    pub cache_mix: CacheMix,
    /// Per-access probe lengths, accumulated in plain integers on the
    /// shard thread (deterministic for deterministic inputs).
    pub probe_hist: [u64; PROBE_HIST_SLOTS],
    /// Prefetch bursts issued by the batched cache path.
    pub bursts: u64,
    /// Packets covered by those bursts (`burst_pkts / bursts` = mean
    /// pipeline depth actually achieved).
    pub burst_pkts: u64,
}

/// Sample 1 packet in 16 for per-stage wall-clock timing and for the
/// heavy-hitter candidate counts: dense enough for stable percentiles
/// and hitter estimates, sparse enough that the overhead never
/// dominates a 64-byte-packet pipeline.
const SAMPLE_MASK: u64 = 0xF;
/// Scale a 1-in-16 sampled count back to an estimated packet count.
const SAMPLE_SCALE: u64 = 16;

/// Verdict-set bounds: capacity plus a TTL in *batch* counts (the
/// shard's own monotone clock). At 64-packet batches, 8192 batches is
/// roughly half a million packets of inactivity before an entry ages
/// out.
const VERDICT_SET_CAPACITY: usize = 65_536;
const VERDICT_TTL_BATCHES: u64 = 8192;
/// Run the TTL sweep every this many batches.
const SWEEP_EVERY_BATCHES: u64 = 256;
/// Flush sampled heavy-hitter counts controller-ward every this many
/// batches.
const HEAVY_FLUSH_BATCHES: u64 = 64;
/// Minimum sampled count for a digest to be worth reporting.
const HEAVY_MIN_SAMPLES: u64 = 4;

/// Plain-integer accumulator for one batch, flushed into the shared
/// atomic [`ShardCounters`] exactly once per batch — collapsing what
/// used to be ~6 relaxed `fetch_add`s *per packet* into ~6 *per batch*.
/// Sampled stage timings buffer here too and flush via
/// [`Histogram::record_all`].
#[derive(Default)]
struct LocalBatchStats {
    processed: u64,
    verdict_dropped: u64,
    fast_path: u64,
    escalated: u64,
    escalation_dropped: u64,
    alerts: u64,
    /// Escalations triaged inline (counted into the pool's counter).
    host_inline: u64,
    /// Sampled FlowCache stage latencies, ns.
    cache_ns: Vec<u64>,
    /// Sampled detector stage latencies, ns.
    detect_ns: Vec<u64>,
    /// Inline-triage round-trip latencies, ns (pool-mode round trips
    /// are recorded host-side where the verdict lands).
    escalate_ns: Vec<u64>,
}

/// The per-thread shard state.
pub(crate) struct ShardWorker {
    pub cache: FlowCache,
    pub suite: DetectorSuite,
    pub escalation: Escalation,
    pub log: Arc<ControlLog>,
    pub counters: ShardCounters,
    pub stage: StageHists,
    /// Escalations handled inline count into the same pool counter.
    pub host_processed: Counter,
    pub enforce_verdicts: bool,
    /// Same seed as ingest and the cache — verdict keys (the
    /// only un-digested keys a shard sees) digest through this.
    hasher: FlowHasher,
    /// FlowCache software-pipeline depth: rows for up to this many
    /// packets are prefetched ahead of their probes. `<= 1` disables the
    /// prefetch stage (the per-packet reference path); either way the
    /// per-packet decision sequence is identical because the prefetch is
    /// architecturally inert.
    burst: usize,
    /// Probe-length histogram (plain integers — no atomics on this path).
    probe_hist: [u64; PROBE_HIST_SLOTS],
    /// FlowCache outcome tallies for this partition.
    cache_mix: CacheMix,
    /// Prefetch bursts issued / packets they covered.
    bursts: u64,
    burst_pkts: u64,
    /// Digest-keyed (identity-hashed) verdict sets: membership is one
    /// u64 probe instead of a SipHash over the 13-byte 5-tuple. TTL'd
    /// and capacity-bounded so a long-running shard never accumulates
    /// every verdict it has ever seen.
    blacklist: AgingDigestSet,
    whitelist: AgingDigestSet,
    /// Attached control plane (mode cell, steering reader, heavy-hitter
    /// channel); `None` when the engine runs without a controller.
    hooks: Option<ControlHooks>,
    /// Sampled per-digest packet counts since the last heavy flush.
    heavy_counts: HashMap<u64, u64, BuildDigestHasher>,
    /// Flight ring + optional sampled trace track for this thread.
    obs: ShardObs,
    local: LocalBatchStats,
    reader: LogReader,
    /// End-of-stream finish line shared by all shard workers of a run.
    /// With inline triage every verdict publisher *is* a shard, so
    /// waiting here before polling the final log tail guarantees each
    /// shard applies the complete log — `ctrl_applied` and the verdict
    /// sets become deterministic regardless of which worker (pipeline
    /// shard or fused RTC core) reaches end-of-stream first.
    finish_line: Arc<Barrier>,
    /// Batches consumed — the monotone clock the aging sets tick on.
    batches: u64,
    seen: u64,
    last_ts: smartwatch_net::Ts,
}

impl ShardWorker {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        cache: FlowCache,
        escalation: Escalation,
        log: Arc<ControlLog>,
        counters: ShardCounters,
        stage: StageHists,
        host_processed: Counter,
        enforce_verdicts: bool,
        hasher: FlowHasher,
        burst: usize,
        hooks: Option<ControlHooks>,
        obs: ShardObs,
        finish_line: Arc<Barrier>,
    ) -> ShardWorker {
        let reader = log.reader();
        ShardWorker {
            cache,
            suite: DetectorSuite::new(),
            escalation,
            log,
            counters,
            stage,
            host_processed,
            enforce_verdicts,
            hasher,
            burst,
            probe_hist: [0; PROBE_HIST_SLOTS],
            cache_mix: CacheMix::default(),
            bursts: 0,
            burst_pkts: 0,
            blacklist: AgingDigestSet::new(VERDICT_SET_CAPACITY, VERDICT_TTL_BATCHES),
            whitelist: AgingDigestSet::new(VERDICT_SET_CAPACITY, VERDICT_TTL_BATCHES),
            hooks,
            heavy_counts: HashMap::default(),
            obs,
            local: LocalBatchStats::default(),
            reader,
            finish_line,
            batches: 0,
            seen: 0,
            last_ts: smartwatch_net::Ts::ZERO,
        }
    }

    /// Consume batches from the shard's ingest lane until its Stop
    /// marker arrives, then final-sweep and exit. An empty lane goes to
    /// the idle [`Backoff`] ladder, so a shard starved at a low offered
    /// rate stops burning its core. Returns the end state plus the
    /// FlowCache itself, so the engine can carry flow state across
    /// serve-mode segment restarts.
    pub(crate) fn run(mut self, lane: LaneRx) -> (ShardEndState, FlowCache) {
        let mut backoff = Backoff::new();
        loop {
            match lane.rx.try_pop() {
                Some(ShardMsg::Batch(batch)) => {
                    backoff.reset();
                    // One sampling decision covers the batch's lane wait
                    // and its processing span.
                    let sampled = self.receive(&batch);
                    self.control_tick();
                    let t0 = sampled.then(Instant::now);
                    self.process_batch(&batch.pkts);
                    if let (Some(t0), Some(tt)) = (t0, &self.obs.trace) {
                        tt.span_since(t0, "shard process", "shard");
                    }
                    self.flush_local();
                    lane.recycle.give_back(batch.pkts);
                }
                Some(ShardMsg::Stop) => return self.finish(),
                None => {
                    // Bounded exponential backoff: spin → yield → short
                    // park, so idle shards (paced low-rate runs) stop
                    // burning a full core while staying quick to wake.
                    if backoff.idle() {
                        self.counters.idle_parks.inc();
                    }
                }
            }
        }
    }

    /// Book one batch taken off a lane: its queue wait and size into the
    /// stage histograms, and — when the trace sampler picks it — its
    /// "lane wait" span. Returns that sampling decision.
    fn receive(&mut self, batch: &Batch) -> bool {
        let wait_ns = batch.sent.elapsed().as_nanos() as u64;
        self.stage.queue_ns.record(wait_ns);
        self.stage.batch_pkts.record(batch.pkts.len() as u64);
        let sampled = self.obs.trace.as_mut().is_some_and(ThreadTrace::tick);
        if sampled {
            if let Some(tt) = &self.obs.trace {
                tt.span_at(batch.sent, wait_ns, "lane wait", "lane");
            }
        }
        sampled
    }

    /// Stop-marker tail: apply the last verdicts, flush heavy-hitter
    /// samples, run the detectors' end-of-trace sweep, release the log
    /// reader, and freeze the end state. `pub(crate)` because the
    /// run-to-completion cores drive the worker directly (no lanes) and
    /// close it out themselves at end of stream.
    pub(crate) fn finish(mut self) -> (ShardEndState, FlowCache) {
        // Wait for every sibling worker to reach end-of-stream before
        // polling the final tail: inline-triage publishers are all
        // quiesced past this line, so the tail is the *complete* log
        // and the apply below is deterministic.
        self.finish_line.wait();
        self.apply_control();
        self.flush_heavy();
        let final_alerts = self.suite.finish(self.last_ts);
        self.counters.alerts.add(final_alerts.len() as u64);
        // Stop pinning the verdict log's buffer.
        self.log.release(self.reader);
        let end = ShardEndState {
            blacklisted: self.blacklist.len() as u64,
            whitelisted: self.whitelist.len() as u64,
            cache_resident: self.cache.occupied() as u64,
            cache_mix: self.cache_mix,
            probe_hist: self.probe_hist,
            bursts: self.bursts,
            burst_pkts: self.burst_pkts,
        };
        (end, self.cache)
    }

    /// Per-batch control-plane housekeeping: advance the batch clock,
    /// apply pending verdicts, pick up the controller's mode decision
    /// and the latest steering snapshot, and run the periodic sweeps.
    /// `pub(crate)`: the run-to-completion cores call this at exactly
    /// the batch boundaries the lane path would have produced, so the
    /// batch clock (and everything TTL'd on it) advances identically.
    pub(crate) fn control_tick(&mut self) {
        self.batches += 1;
        self.apply_control();
        if let Some(h) = &mut self.hooks {
            // The controller's Algorithm 4 decision, applied to the live
            // cache at this batch boundary (safe: lazy Alg. 3 cleanup).
            let decided = h.mode.get();
            if decided != self.cache.mode() {
                self.cache.set_mode(decided);
            }
            h.steer.refresh();
        }
        if self.batches.is_multiple_of(SWEEP_EVERY_BATCHES) {
            let now = self.batches;
            self.blacklist.sweep(now);
            self.whitelist.sweep(now);
        }
        if self.hooks.is_some() && self.batches.is_multiple_of(HEAVY_FLUSH_BATCHES) {
            self.flush_heavy();
        }
    }

    /// Push sampled heavy-hitter candidates controller-ward. Lossy by
    /// design: a full channel just means this flush's estimates are
    /// stale — a real heavy hitter re-qualifies on the next one.
    fn flush_heavy(&mut self) {
        if self.heavy_counts.is_empty() {
            return;
        }
        if let Some(h) = &self.hooks {
            for (&digest, &count) in self.heavy_counts.iter() {
                if count >= HEAVY_MIN_SAMPLES {
                    let _ = h.heavy_tx.try_send((digest, count * SAMPLE_SCALE));
                }
            }
        }
        self.heavy_counts.clear();
    }

    fn apply_control(&mut self) {
        let tail = self.log.poll(&self.reader);
        if tail.is_empty() {
            return;
        }
        self.counters.ctrl_applied.add(tail.len() as u64);
        let now = self.batches;
        for v in tail {
            match v {
                Verdict::Blacklist(k) => {
                    let (canon, digest) = self.hasher.digest_symmetric(&k);
                    // The host is done with this flow — release the pin
                    // so the record becomes evictable again.
                    self.cache.unpin(&canon);
                    self.blacklist.insert(digest.0, now);
                    self.whitelist.remove(&digest.0);
                }
                Verdict::Whitelist(k) => {
                    let (canon, digest) = self.hasher.digest_symmetric(&k);
                    self.cache.unpin(&canon);
                    self.whitelist.insert(digest.0, now);
                }
                Verdict::Alert(_) => self.counters.alerts.inc(),
                Verdict::Drop => {}
            }
        }
    }

    /// Fold the batch's plain-integer tallies into the shared atomics —
    /// the only place the hot path touches contended cache lines.
    /// `pub(crate)` for the run-to-completion cores, which flush once
    /// per fused batch like the lane path does.
    pub(crate) fn flush_local(&mut self) {
        let l = &mut self.local;
        if l.processed > 0 {
            self.counters.processed.add(l.processed);
        }
        if l.verdict_dropped > 0 {
            self.counters.verdict_dropped.add(l.verdict_dropped);
        }
        if l.fast_path > 0 {
            self.counters.fast_path.add(l.fast_path);
        }
        if l.escalated > 0 {
            self.counters.escalated.add(l.escalated);
        }
        if l.escalation_dropped > 0 {
            self.counters.escalation_dropped.add(l.escalation_dropped);
            // Coalesced per batch: one black-box event per batch that
            // lost escalations, stamped with the batch clock.
            self.obs.flight.record(
                FlightKind::EscalationDrop,
                l.escalation_dropped,
                self.batches,
            );
        }
        if l.alerts > 0 {
            self.counters.alerts.add(l.alerts);
        }
        if l.host_inline > 0 {
            self.host_processed.add(l.host_inline);
        }
        self.stage.cache_ns.record_all(&l.cache_ns);
        self.stage.detect_ns.record_all(&l.detect_ns);
        self.stage.escalate_ns.record_all(&l.escalate_ns);
        l.processed = 0;
        l.verdict_dropped = 0;
        l.fast_path = 0;
        l.escalated = 0;
        l.escalation_dropped = 0;
        l.alerts = 0;
        l.host_inline = 0;
        l.cache_ns.clear();
        l.detect_ns.clear();
        l.escalate_ns.clear();
    }

    /// The batched FlowCache pipeline: for each burst-sized chunk, stage
    /// A issues a row prefetch per packet (independent DRAM fetches
    /// overlap), stage B runs the unchanged per-packet decision sequence
    /// with the rows already in flight. Verdicts, pinning, escalation and
    /// detector effects all happen in stage B in exact arrival order, so
    /// the engine's `deterministic_summary` is byte-identical to the
    /// per-packet reference path (`burst <= 1`). `pub(crate)` for the
    /// run-to-completion cores, which feed it the same batch-sized
    /// groups the lane path would have delivered.
    pub(crate) fn process_batch(&mut self, pkts: &[DigestedPacket]) {
        if self.burst <= 1 {
            for dp in pkts {
                self.process_packet(dp);
            }
            return;
        }
        for chunk in pkts.chunks(self.burst) {
            self.bursts += 1;
            self.burst_pkts += chunk.len() as u64;
            for dp in chunk {
                self.cache.prefetch_row(dp.digest);
            }
            for dp in chunk {
                self.process_packet(dp);
            }
        }
    }

    fn process_packet(&mut self, dp: &DigestedPacket) {
        let pkt = &dp.pkt;
        self.last_ts = self.last_ts.max(pkt.ts);
        if self.enforce_verdicts && self.blacklist.contains(&dp.digest.0) {
            self.local.verdict_dropped += 1;
            self.local.processed += 1;
            self.seen += 1;
            return;
        }
        let sample = self.seen & SAMPLE_MASK == 0;
        self.seen += 1;
        if sample && self.hooks.is_some() {
            // Sampled heavy-hitter estimate; flushed controller-ward
            // every HEAVY_FLUSH_BATCHES batches.
            *self.heavy_counts.entry(dp.digest.0).or_insert(0) += 1;
        }

        // Stage 1: FlowCache update (digest reused — no re-hash).
        let access = if sample {
            let t0 = Instant::now();
            let a = self.cache.process_digested(pkt, &dp.canon, dp.digest);
            self.local.cache_ns.push(t0.elapsed().as_nanos() as u64);
            a
        } else {
            self.cache.process_digested(pkt, &dp.canon, dp.digest)
        };
        self.probe_hist[(access.probes as usize).min(PROBE_HIST_SLOTS - 1)] += 1;
        self.cache_mix.tally(&access);

        // Whitelisted flows skip the detector suite — the wall-clock
        // analogue of the switch no longer steering them. Either the
        // shard's own verdict overlay or the controller's published
        // steering table qualifies; the snapshot read is a plain
        // deref into the batch-cached Arc.
        if self.whitelist.contains(&dp.digest.0)
            || self
                .hooks
                .as_ref()
                .is_some_and(|h| h.steer.current().whitelist.contains(&dp.digest.0))
        {
            self.local.fast_path += 1;
            self.local.processed += 1;
            return;
        }

        // Stage 2: detector suite.
        let outcome = if sample {
            let t0 = Instant::now();
            let o = self.suite.on_packet(pkt);
            self.local.detect_ns.push(t0.elapsed().as_nanos() as u64);
            o
        } else {
            self.suite.on_packet(pkt)
        };

        self.local.alerts += outcome.alerts.len() as u64;
        for flow in &outcome.whitelist {
            self.cache.unpin(flow);
            let (_, digest) = self.hasher.digest_symmetric(flow);
            self.whitelist.insert(digest.0, self.batches);
        }

        // Stage 3: host escalation for suspects.
        if outcome.host == HostNeed::Host {
            self.local.escalated += 1;
            // Pin the flow while the host works on it (§3.2).
            self.cache.pin(&dp.canon);
            match &mut self.escalation {
                Escalation::Pool(tx) => {
                    let esc = Escalated {
                        pkt: *pkt,
                        sent: Instant::now(),
                    };
                    if tx.try_send(esc).is_err() {
                        self.local.escalation_dropped += 1;
                        // The host will never see this packet, so no
                        // verdict will ever unpin the flow — release
                        // it now instead of pinning it forever.
                        self.cache.unpin(&dp.canon);
                    }
                }
                Escalation::Inline(nf) => {
                    self.local.host_inline += 1;
                    // The synchronous analogue of the pool round trip:
                    // triage + verdict publication, timed end to end.
                    let t0 = Instant::now();
                    for v in nf.on_packet(pkt) {
                        self.log.publish(v);
                    }
                    self.local.escalate_ns.push(t0.elapsed().as_nanos() as u64);
                }
            }
        }
        self.local.processed += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartwatch_snic::FlowCacheConfig;
    use smartwatch_telemetry::Registry;
    use std::net::Ipv4Addr;

    /// A worker wired to a 1-slot escalation channel that nobody drains:
    /// every `try_send` past the first fails, which is exactly the
    /// pinned-flow-leak scenario.
    #[test]
    fn dropped_escalation_unpins_the_flow() {
        use smartwatch_net::{FlowKey, PacketBuilder, Ts};

        let reg = Registry::new();
        let hasher = FlowHasher::new(0x51CC);
        let (tx, _rx_keepalive) = std::sync::mpsc::sync_channel::<Escalated>(1);
        let mut cache_cfg = FlowCacheConfig::general(6);
        cache_cfg.hash_seed = 0x51CC;
        let flight = smartwatch_telemetry::FlightRecorder::new(64);
        let mut worker = ShardWorker::new(
            FlowCache::new(cache_cfg),
            Escalation::Pool(tx),
            Arc::new(ControlLog::new()),
            ShardCounters::registered(&reg, 0),
            StageHists::registered(&reg),
            Counter::detached(),
            true,
            hasher,
            8,
            None,
            ShardObs {
                flight: flight.ring("sw-shard-0"),
                trace: None,
            },
            Arc::new(Barrier::new(1)),
        );

        // Distinct SSH flows: auth-port TCP traffic escalates until the
        // session is classified, so each first packet goes hostward.
        let batch: Vec<DigestedPacket> = (0..64u16)
            .map(|i| {
                let key = FlowKey::tcp(
                    Ipv4Addr::new(203, 0, 113, 7),
                    40_000 + i,
                    Ipv4Addr::new(10, 0, 0, 1),
                    22,
                );
                let pkt = PacketBuilder::new(key, Ts::from_nanos(u64::from(i))).build();
                let (canon, digest) = hasher.digest_symmetric(&key);
                DigestedPacket { pkt, canon, digest }
            })
            .collect();
        worker.process_batch(&batch);
        worker.flush_local();

        let escalated = worker.counters.escalated.get();
        let dropped = worker.counters.escalation_dropped.get();
        assert!(escalated >= 2, "auth sweep must escalate repeatedly");
        assert!(dropped > 0, "1-slot undrained channel must drop");

        // Every dropped escalation released its pin: the only pins still
        // held are for escalations actually in flight to the host.
        let stats = worker.cache.stats();
        let in_flight = escalated - dropped;
        assert_eq!(
            stats.pins - stats.unpins,
            in_flight,
            "dropped escalations must not leave flows pinned"
        );
        let pinned_resident = worker.cache.iter().filter(|r| r.pinned).count() as u64;
        assert_eq!(pinned_resident, in_flight, "cache holds only live pins");

        // The flight recorder black-boxed the loss: one coalesced
        // EscalationDrop event carrying the batch's full drop count.
        let events = flight.snapshot();
        let (name, evs) = &events[0];
        assert_eq!(name, "sw-shard-0");
        let drops: Vec<_> = evs
            .iter()
            .filter(|e| e.kind == FlightKind::EscalationDrop)
            .collect();
        assert_eq!(drops.len(), 1, "drops coalesce to one event per flush");
        assert_eq!(drops[0].a, dropped, "event carries the drop count");
    }
}
