//! The traced replay behind the per-layer metrics.
//!
//! It replays a workload's exact input on one thread through each
//! layer's public calls, in [`BURST`]-packet bursts as the engine does,
//! and keeps the engine's partitioning: one FlowCache, detector suite
//! and inline triage per shard, chosen by `shard_for_digest`. Like the
//! shard, it drops blacklisted flows before the detectors and lets
//! whitelisted flows skip them. The clock is read once per layer
//! boundary per burst; each read closes one layer's interval and opens
//! the next, and the calibrated cost of one read is subtracted per
//! interval.

use crate::workload::Input;
use smartwatch_core::suite::{DetectorSuite, HostNeed, SuiteOps};
use smartwatch_detect::dnsamp::DnsAmpDetector;
use smartwatch_detect::portscan::ScanPipeline;
use smartwatch_detect::rst::ForgedRstDetector;
use smartwatch_detect::worm::EarlyBirdDetector;
use smartwatch_host::{HostNf, Verdict};
use smartwatch_net::{
    shard_for_digest, AgingDigestSet, FlowHasher, FlowKey, FrameView, HashDigest, Packet,
    PacketBuilder, RawTuple, Ts,
};
use smartwatch_runtime::{EngineConfig, TriageNf};
use smartwatch_snic::{FlowCache, FlowCacheConfig, BURST};
use smartwatch_telemetry::Registry;
use std::hint::black_box;
use std::time::Instant;

/// The timed layers of the replay, in burst order.
#[derive(Clone, Copy, Debug)]
pub enum Layer {
    /// `FrameView::parse` + `FrameMeta::packet` (wire input only).
    Parse,
    /// `digest_batch8` / `digest_symmetric` + `shard_for_digest`.
    Digest,
    /// Verdict check, `prefetch_row` + `process_digested`.
    FlowCache,
    /// Whitelist check + `DetectorSuite::on_packet` (its detectors included).
    Suite,
    /// Flow pin + `TriageNf::on_packet` + verdict application.
    Triage,
}

const LAYERS: usize = 5;

/// Raw interval sums per layer.
#[derive(Clone, Copy, Debug, Default)]
pub struct Spans {
    ns: [u64; LAYERS],
    intervals: [u64; LAYERS],
}

impl Spans {
    fn add(&mut self, layer: Layer, ns: u64) {
        self.ns[layer as usize] += ns;
        self.intervals[layer as usize] += 1;
    }

    /// Self time of `layer` in ns, less one clock read per interval.
    /// Not clamped: a negative figure means the layer costs less than
    /// the clock resolves.
    pub fn self_ns(&self, layer: Layer, clock_ns: f64) -> f64 {
        let i = layer as usize;
        self.ns[i] as f64 - self.intervals[i] as f64 * clock_ns
    }

    fn merge(&mut self, other: &Spans) {
        for i in 0..LAYERS {
            self.ns[i] += other.ns[i];
            self.intervals[i] += other.intervals[i];
        }
    }
}

/// What one replay did and how long it took.
#[derive(Debug, Default)]
pub struct Replay {
    /// Wall time of the whole replay loop, ns.
    pub total_ns: u64,
    /// Per-layer intervals (all zero for an untraced replay).
    pub spans: Spans,
    /// Packets replayed.
    pub packets: u64,
    /// Packets that reached the detector suite.
    pub suite_pkts: u64,
    /// Packets escalated to triage.
    pub escalated: u64,
    /// Whitelist verdicts the suite issued.
    pub whitelist_verdicts: u64,
    /// Suite operation counts, summed over shards.
    pub ops: SuiteOps,
    /// The packets that reached the suite, as (input index, shard), in
    /// order — the stream the per-detector passes replay.
    pub suite_stream: Vec<(u32, u8)>,
}

impl Replay {
    /// Fold a second replay of the same input into this one.
    pub fn merge(&mut self, other: &Replay) {
        self.total_ns += other.total_ns;
        self.spans.merge(&other.spans);
        self.packets += other.packets;
        self.escalated += other.escalated;
    }
}

/// One shard's state, built as the engine builds it.
struct Mirror {
    cache: FlowCache,
    suite: DetectorSuite,
    triage: TriageNf,
    blacklist: AgingDigestSet,
    whitelist: AgingDigestSet,
}

impl Mirror {
    fn new(cfg: &EngineConfig, registry: &Registry) -> Mirror {
        let mut cache_cfg = FlowCacheConfig::general(cfg.cache_row_bits);
        cache_cfg.hash_seed = cfg.hash_seed;
        let mut cache = FlowCache::new(cache_cfg);
        cache.attach_telemetry(registry);
        // The engine's verdict sets: identity-hashed digests. The replay
        // never ages entries out; it is short next to the engine's TTL.
        let set = || AgingDigestSet::new(65_536, u64::MAX);
        Mirror {
            cache,
            suite: DetectorSuite::new(),
            triage: TriageNf::new(cfg.triage_threshold),
            blacklist: set(),
            whitelist: set(),
        }
    }
}

fn filler() -> Packet {
    let key = FlowKey::tcp(
        std::net::Ipv4Addr::UNSPECIFIED,
        0,
        std::net::Ipv4Addr::UNSPECIFIED,
        0,
    );
    PacketBuilder::new(key, Ts::ZERO).build()
}

/// Fill `pkts[..m]` from the input at `base`; for wire input also the
/// raw tuples (parse time is the caller's to measure).
fn load(
    input: &Input,
    base: usize,
    m: usize,
    pkts: &mut [Packet; BURST],
    tuples: &mut [RawTuple; BURST],
) {
    match input {
        Input::Wire(store) => {
            for j in 0..m {
                let view = FrameView::parse(store.frame(base + j))
                    .expect("frame validated at store construction");
                pkts[j] = store.meta(base + j).packet(&view);
                tuples[j] = view.raw_tuple();
            }
        }
        Input::Packets(p) => pkts[..m].copy_from_slice(&p[base..base + m]),
    }
}

/// Replay `input` once under `cfg`'s partitioning. With `TRACED` the
/// clock is read at every layer boundary; without it the loop does the
/// same calls and reads the clock only at its two ends.
pub fn replay<const TRACED: bool>(input: &Input, cfg: &EngineConfig, record: bool) -> Replay {
    let n = cfg.shards;
    let hasher = FlowHasher::new(cfg.hash_seed);
    let registry = Registry::new();
    let mut mirrors: Vec<Mirror> = (0..n).map(|_| Mirror::new(cfg, &registry)).collect();
    let wire = matches!(input, Input::Wire(_));
    let len = input.len();
    let mut out = Replay {
        packets: len as u64,
        ..Replay::default()
    };
    let mut pkts = [filler(); BURST];
    let mut tuples = [RawTuple::default(); BURST];
    let mut digests = [(pkts[0].key, HashDigest(0)); BURST];
    let mut shard = [0usize; BURST];
    let mut live = [false; BURST];
    let mut escalate = [false; BURST];
    let mut last_ts = Ts::ZERO;

    let start = Instant::now();
    let mut mark = start;
    let mut close = |layer: Layer, spans: &mut Spans| {
        if TRACED {
            let now = Instant::now();
            spans.add(layer, (now - mark).as_nanos() as u64);
            mark = now;
        }
    };
    for base in (0..len).step_by(BURST) {
        let m = BURST.min(len - base);

        // Parse.
        load(input, base, m, &mut pkts, &mut tuples);
        if wire {
            close(Layer::Parse, &mut out.spans);
        }

        // Digest + shard choice.
        if wire && m == BURST {
            digests = hasher.digest_batch8(&tuples);
        } else if wire {
            for j in 0..m {
                digests[j] = hasher.digest_raw(tuples[j]);
            }
        } else {
            for j in 0..m {
                digests[j] = hasher.digest_symmetric(&pkts[j].key);
            }
        }
        for j in 0..m {
            shard[j] = shard_for_digest(digests[j].1, n);
        }
        close(Layer::Digest, &mut out.spans);

        // FlowCache: prefetch the burst's rows, then probe in order,
        // dropping blacklisted flows as the shard does.
        for j in 0..m {
            mirrors[shard[j]].cache.prefetch_row(digests[j].1);
        }
        for j in 0..m {
            let mi = &mut mirrors[shard[j]];
            last_ts = last_ts.max(pkts[j].ts);
            live[j] = !mi.blacklist.contains(&digests[j].1 .0);
            if live[j] {
                black_box(
                    mi.cache
                        .process_digested(&pkts[j], &digests[j].0, digests[j].1),
                );
            }
        }
        close(Layer::FlowCache, &mut out.spans);

        // Detector suite, skipping whitelisted flows.
        let mut suite_pkts = 0;
        let mut escalated = 0;
        for j in 0..m {
            escalate[j] = false;
            if !live[j] {
                continue;
            }
            let mi = &mut mirrors[shard[j]];
            if mi.whitelist.contains(&digests[j].1 .0) {
                continue;
            }
            suite_pkts += 1;
            if record {
                out.suite_stream.push(((base + j) as u32, shard[j] as u8));
            }
            let outcome = mi.suite.on_packet(&pkts[j]);
            for flow in &outcome.whitelist {
                mi.cache.unpin(flow);
                mi.whitelist.insert(hasher.digest_symmetric(flow).1 .0, 0);
            }
            out.whitelist_verdicts += outcome.whitelist.len() as u64;
            if outcome.host == HostNeed::Host {
                escalate[j] = true;
                escalated += 1;
            }
            black_box(outcome);
        }
        out.suite_pkts += suite_pkts;
        if suite_pkts > 0 {
            close(Layer::Suite, &mut out.spans);
        }

        // Inline triage for the escalated packets; its blacklist verdicts
        // land on the shard that owns the flow.
        if escalated > 0 {
            for j in (0..m).filter(|&j| escalate[j]) {
                mirrors[shard[j]].cache.pin(&digests[j].0);
                for v in mirrors[shard[j]].triage.on_packet(&pkts[j]) {
                    if let Verdict::Blacklist(k) = v {
                        let (canon, d) = hasher.digest_symmetric(&k);
                        let owner = &mut mirrors[shard_for_digest(d, n)];
                        owner.cache.unpin(&canon);
                        owner.blacklist.insert(d.0, 0);
                        owner.whitelist.remove(&d.0);
                    }
                }
            }
            out.escalated += escalated;
            close(Layer::Triage, &mut out.spans);
        }
    }
    // The end-of-trace sweep the shard runs on its suite.
    for mi in &mut mirrors {
        black_box(mi.suite.finish(last_ts));
        let o = mi.suite.ops;
        out.ops.scan += o.scan;
        out.ops.rst += o.rst;
        out.ops.dns += o.dns;
        out.ops.worm += o.worm;
        out.ops.auth += o.auth;
        out.ops.artefacts += o.artefacts;
        out.ops.total += o.total;
    }
    close(Layer::Suite, &mut out.spans);
    out.total_ns = start.elapsed().as_nanos() as u64;
    out
}

/// The four detectors timed on their own, in `BENCHMARK.json` order.
pub const DETECTORS: [&str; 4] = ["scan", "rst", "dnsamp", "worm"];

/// One detector's own time over the suite stream.
#[derive(Clone, Copy, Debug, Default)]
pub struct DetectorTime {
    /// Summed burst intervals, ns.
    pub ns: u64,
    /// Burst intervals timed.
    pub intervals: u64,
}

/// Time one detector kind over `stream` (from [`Replay::suite_stream`]):
/// a fresh instance per shard, fed exactly the packets the suite saw,
/// behind the same gate the suite applies. Rebuilding each burst's
/// packets happens outside the timed interval.
fn time_detector<D>(
    input: &Input,
    stream: &[(u32, u8)],
    shards: usize,
    make: impl Fn() -> D,
    feed: impl Fn(&mut D, &Packet),
) -> DetectorTime {
    let mut dets: Vec<D> = (0..shards).map(|_| make()).collect();
    let mut pkts = [filler(); BURST];
    let mut t = DetectorTime::default();
    for chunk in stream.chunks(BURST) {
        for (pkt, &(i, _)) in pkts.iter_mut().zip(chunk) {
            *pkt = match input {
                Input::Wire(store) => store.packet(i as usize),
                Input::Packets(p) => p[i as usize],
            };
        }
        let t0 = Instant::now();
        for (j, &(_, s)) in chunk.iter().enumerate() {
            feed(&mut dets[s as usize], &pkts[j]);
        }
        t.ns += t0.elapsed().as_nanos() as u64;
        t.intervals += 1;
    }
    t
}

/// Time each of [`DETECTORS`] over the recorded suite stream.
pub fn detector_times(input: &Input, stream: &[(u32, u8)], shards: usize) -> [DetectorTime; 4] {
    [
        time_detector(input, stream, shards, ScanPipeline::new, |d, p| {
            black_box(d.on_packet(p));
        }),
        time_detector(
            input,
            stream,
            shards,
            ForgedRstDetector::paper_default,
            |d, p| {
                if p.is_tcp() && (p.flags.rst() || p.payload_len > 0) {
                    black_box(d.on_packet(p));
                }
            },
        ),
        time_detector(input, stream, shards, DnsAmpDetector::new, |d, p| {
            black_box(d.on_packet(p));
        }),
        time_detector(
            input,
            stream,
            shards,
            EarlyBirdDetector::paper_default,
            |d, p| {
                black_box(d.on_packet(p));
            },
        ),
    ]
}
