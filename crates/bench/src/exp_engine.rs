//! `repro engine` — the wall-clock runtime experiment.
//!
//! Unlike every figure/table experiment (which runs in virtual time and
//! is deterministic for a seed), this one executes the full pipeline on
//! real OS threads via [`smartwatch_runtime`] and reports *measured*
//! throughput. Numbers are machine-dependent by design; the exact
//! counters (conservation, escalations, verdicts) are still checkable.

use crate::output::Table;
use crate::{workloads, ExpCtx};
use serde::Serialize;
use smartwatch_net::{FrameStore, Packet};
use smartwatch_runtime::{DatapathMode, Engine, EngineConfig, EngineReport, Pace};
use smartwatch_telemetry::HistSnapshot;
use smartwatch_trace::background::Preset;
use smartwatch_trace::compile::compile_cycled;
use smartwatch_trace::Trace;
use std::sync::Arc;

/// Which replay workload the engine run uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineWorkload {
    /// 64-byte-truncated CAIDA stand-in — the paper's packet-rate worst
    /// case (max packets per byte of bandwidth).
    Stress,
    /// The Table-4 attack mix — exercises escalation and verdicts.
    Mix,
}

/// Where the replay bytes come from (`--source`).
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub enum EngineSource {
    /// Generator output replayed as owned model packets — the pre-wire
    /// path, and the default.
    #[default]
    Synthetic,
    /// The workload compiled once into packed wire frames
    /// ([`smartwatch_trace::compile`]) and replayed through the
    /// engine's zero-copy path (`Engine::run_frames`).
    Compiled,
    /// A classic pcap file replayed through the zero-copy path (cycled
    /// to the requested packet count).
    Pcap(String),
}

impl EngineSource {
    /// Parse a `--source` argument: `synthetic`, `compiled` or
    /// `pcap:<path>`.
    pub fn parse(s: &str) -> Result<EngineSource, String> {
        match s {
            "synthetic" => Ok(EngineSource::Synthetic),
            "compiled" => Ok(EngineSource::Compiled),
            _ => match s.strip_prefix("pcap:") {
                Some(path) if !path.is_empty() => Ok(EngineSource::Pcap(path.to_string())),
                _ => Err(format!(
                    "unknown --source '{s}' (expected synthetic, compiled or pcap:<path>)"
                )),
            },
        }
    }

    /// Stable one-word label for tables and JSON artifacts.
    pub fn label(&self) -> &'static str {
        match self {
            EngineSource::Synthetic => "synthetic",
            EngineSource::Compiled => "compiled",
            EngineSource::Pcap(_) => "pcap",
        }
    }
}

/// A materialised replay input: owned packets (synthetic) or a packed
/// wire-frame store (compiled / pcap).
pub enum ReplayData {
    /// Owned model packets.
    Packets(Vec<Packet>),
    /// Packed wire frames for the zero-copy path.
    Wire(FrameStore),
}

impl ReplayData {
    /// Packets this replay offers.
    pub fn len(&self) -> usize {
        match self {
            ReplayData::Packets(p) => p.len(),
            ReplayData::Wire(s) => s.len(),
        }
    }

    /// True when the replay offers nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Run `engine` over this replay input.
    pub fn run(&self, engine: &Engine, pace: Pace) -> EngineReport {
        match self {
            ReplayData::Packets(p) => engine.run(p, pace),
            ReplayData::Wire(s) => engine.run_frames(s, pace),
        }
    }
}

/// Materialise a replay input from a source selector: generate-and-cycle
/// for the synthetic path, compile-once-replay-many for the wire path,
/// read-validate-cycle for pcap files. `base` builds the generator
/// trace and is only invoked for the sources that need it.
pub fn replay_data(
    source: &EngineSource,
    base: impl FnOnce() -> Trace,
    total: usize,
) -> ReplayData {
    match source {
        EngineSource::Synthetic => {
            let b = base().into_packets();
            assert!(!b.is_empty(), "workload generator produced no packets");
            ReplayData::Packets(b.iter().cycle().take(total).copied().collect())
        }
        EngineSource::Compiled => ReplayData::Wire(compile_cycled(&base(), total)),
        EngineSource::Pcap(path) => {
            let data = std::fs::read(path).unwrap_or_else(|e| panic!("repro: reading {path}: {e}"));
            let store = FrameStore::from_pcap(&data)
                .unwrap_or_else(|e| panic!("repro: parsing {path}: {e}"));
            assert!(!store.is_empty(), "pcap {path} contains no frames");
            ReplayData::Wire(store.cycled_to(total))
        }
    }
}

/// One `repro engine` invocation, fully specified.
#[derive(Clone, Debug)]
pub struct EngineRunSpec {
    /// Worker shards (threads).
    pub shards: usize,
    /// Thread topology: one dispatcher feeding the shards over SPSC
    /// lanes (`pipeline`, the default) or fused run-to-completion cores,
    /// each owning its own ingest (`rtc`).
    pub datapath: DatapathMode,
    /// Pin each fused RTC core to CPU *i* (`--pin-cores`; best-effort,
    /// Linux `sched_setaffinity`, no-op elsewhere).
    pub pin_cores: bool,
    /// Packets to replay (the workload is cycled to this length).
    pub packets: usize,
    /// Packets per dispatch batch.
    pub batch: usize,
    /// Host escalation workers (0 = inline deterministic triage).
    pub host_workers: usize,
    /// FlowCache lookup burst width (`--cache-burst`; `<= 1` selects
    /// the per-packet reference path). Decisions are identical at every
    /// width — only memory-level parallelism changes.
    pub cache_burst: usize,
    /// Offered rate in Mpps; `None` replays flat-out with backpressure.
    pub rate_mpps: Option<f64>,
    /// Replay workload.
    pub workload: EngineWorkload,
    /// Replay source: synthetic packets, compiled wire frames or a
    /// pcap file (`--source`).
    pub source: EngineSource,
    /// Wall-clock trace sampling: 1-in-N batches per engine thread
    /// (0 = off; the first unit of work per thread is always sampled).
    pub trace_sample: u64,
    /// Bind this address and serve `/metrics`, `/stats.json` and
    /// `/flight.json` live for the duration of the run.
    pub listen: Option<String>,
    /// Keep the `--listen` endpoints up this long after the run ends,
    /// so scrapers can read the settled final counters.
    pub serve_hold_ms: u64,
    /// Translate a SIGINT/SIGTERM observed by [`crate::signal`] into a
    /// graceful drain of the run (the `repro` drivers set this; the
    /// drained report still conserves and is rendered normally).
    pub watch_signals: bool,
}

impl Default for EngineRunSpec {
    fn default() -> EngineRunSpec {
        EngineRunSpec {
            shards: 2,
            datapath: DatapathMode::Pipeline,
            pin_cores: false,
            packets: 200_000,
            batch: 64,
            host_workers: 1,
            cache_burst: smartwatch_snic::BURST,
            rate_mpps: None,
            workload: EngineWorkload::Stress,
            source: EngineSource::Synthetic,
            trace_sample: 0,
            listen: None,
            serve_hold_ms: 0,
            watch_signals: false,
        }
    }
}

/// The spec's base generator trace (before cycling).
pub fn engine_base_trace(spec: &EngineRunSpec, scale: usize) -> Trace {
    match spec.workload {
        EngineWorkload::Stress => workloads::caida_64b(Preset::Caida2018, scale, 0xE1),
        EngineWorkload::Mix => workloads::attack_mix(scale, 0xE2),
    }
}

/// Build the synthetic replay buffer for a spec: generate the base
/// trace, then cycle it up (or cut it down) to exactly `spec.packets`
/// packets.
pub fn engine_workload(spec: &EngineRunSpec, scale: usize) -> Vec<Packet> {
    let base = engine_base_trace(spec, scale).into_packets();
    assert!(!base.is_empty(), "workload generator produced no packets");
    base.iter().cycle().take(spec.packets).copied().collect()
}

fn ns_cell(h: &HistSnapshot) -> String {
    if h.count == 0 {
        "-".to_string()
    } else {
        format!("{}/{}/{}", h.p50, h.p90, h.p99)
    }
}

/// Run the engine once and render the report.
pub fn engine_run(ctx: &ExpCtx, spec: &EngineRunSpec) -> Table {
    engine_run_report(ctx, spec).0
}

/// [`engine_run`], also handing back the raw [`EngineReport`] for
/// machine-readable output ([`bench_json`], CI artifacts).
pub fn engine_run_report(ctx: &ExpCtx, spec: &EngineRunSpec) -> (Table, EngineReport) {
    let (table, report, _) = engine_run_full(ctx, spec);
    (table, report)
}

/// [`engine_run_report`], also handing back the [`Engine`] itself so
/// callers can dump its flight recorder or decision audit after the run
/// (`--flight-dump`, anomaly artifacts).
pub fn engine_run_full(ctx: &ExpCtx, spec: &EngineRunSpec) -> (Table, EngineReport, Arc<Engine>) {
    let replay = replay_data(
        &spec.source,
        || engine_base_trace(spec, ctx.scale),
        spec.packets,
    );
    let mut cfg = EngineConfig::new(spec.shards);
    cfg.datapath = spec.datapath;
    cfg.pin_cores = spec.pin_cores;
    cfg.batch = spec.batch;
    cfg.host_workers = spec.host_workers;
    cfg.cache_burst = spec.cache_burst;
    cfg.trace_sample = spec.trace_sample;
    let pace = match spec.rate_mpps {
        Some(r) => Pace::RateMpps(r),
        None => Pace::Flatout,
    };
    let mut engine = Engine::with_registry(cfg, &ctx.registry);
    engine.attach_tracer(&ctx.tracer);
    let engine = Arc::new(engine);
    let _signals = spec
        .watch_signals
        .then(|| crate::signal::drain_watch(&engine));
    let report = serve_during(&engine, spec.listen.as_deref(), spec.serve_hold_ms, || {
        replay.run(&engine, pace)
    });
    let table = render(spec, pace, &report);
    (table, report, engine)
}

/// Run `work` with the live observability endpoints up on `listen` (if
/// any), holding them for `hold_ms` after the work completes so
/// scrapers can read the settled final counters.
pub(crate) fn serve_during<T>(
    engine: &Arc<Engine>,
    listen: Option<&str>,
    hold_ms: u64,
    work: impl FnOnce() -> T,
) -> T {
    let server = listen.map(|addr| {
        crate::serve::serve(addr, engine)
            .unwrap_or_else(|e| panic!("repro: binding --listen {addr}: {e}"))
    });
    let out = work();
    if let Some(server) = server {
        if hold_ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(hold_ms));
        }
        server.shutdown();
    }
    out
}

/// Stable one-word datapath label for tables and JSON artifacts.
pub fn datapath_label(d: DatapathMode) -> &'static str {
    match d {
        DatapathMode::Pipeline => "pipeline",
        DatapathMode::Rtc => "rtc",
    }
}

/// The `BENCH_engine.json` document: the run spec, then the report
/// exactly as [`EngineReport`] serialises it.
#[derive(Debug, Serialize)]
struct EngineBench {
    bench: String,
    shards: usize,
    datapath: String,
    pin_cores: bool,
    batch: usize,
    workload: String,
    source: String,
    rate_mpps: Option<f64>,
    report: EngineReport,
}

/// The CI benchmark artifact (`BENCH_engine.json`), diffable across
/// commits without parsing the rendered table.
pub fn bench_json(spec: &EngineRunSpec, r: &EngineReport) -> String {
    let v = EngineBench {
        bench: "engine".to_string(),
        shards: spec.shards,
        datapath: datapath_label(spec.datapath).to_string(),
        pin_cores: spec.pin_cores,
        batch: spec.batch,
        workload: format!("{:?}", spec.workload).to_lowercase(),
        source: spec.source.label().to_string(),
        rate_mpps: spec.rate_mpps,
        report: r.clone(),
    };
    serde_json::to_string_pretty(&v).expect("bench report serializes")
}

fn render(spec: &EngineRunSpec, pace: Pace, r: &EngineReport) -> Table {
    let mut t = Table::new(
        "engine",
        "wall-clock sharded runtime (full pipeline on OS threads)",
        &[
            "shards",
            "datapath",
            "workload",
            "source",
            "pace",
            "offered",
            "processed",
            "dropped",
            "drop%",
            "Mpps",
            "escalated",
            "host",
            "verdicts",
        ],
    );
    let pace_cell = match pace {
        Pace::Flatout => "flat-out".to_string(),
        Pace::RateMpps(mpps) => format!("{mpps} Mpps"),
        Pace::Spike {
            base_mpps,
            peak_mpps,
            ..
        } => format!("{base_mpps}→{peak_mpps} Mpps"),
    };
    t.row(vec![
        spec.shards.to_string(),
        datapath_label(spec.datapath).to_string(),
        format!("{:?}", spec.workload).to_lowercase(),
        spec.source.label().to_string(),
        pace_cell,
        r.offered.to_string(),
        r.processed().to_string(),
        r.ingest_dropped().to_string(),
        format!("{:.2}", r.drop_rate() * 100.0),
        format!("{:.3}", r.mpps()),
        r.escalated().to_string(),
        r.host_processed.to_string(),
        r.verdicts_published.to_string(),
    ]);
    t.note(format!(
        "stage latency ns (p50/p90/p99): queue-wait {} | flowcache {} | detectors {} \
         | escalation round-trip {}",
        ns_cell(&r.stage.queue_ns),
        ns_cell(&r.stage.cache_ns),
        ns_cell(&r.stage.detect_ns),
        ns_cell(&r.stage.escalate_ns),
    ));
    t.note(format!(
        "delivered batch size: mean {:.1} pkts (configured {})",
        r.stage.batch_pkts.mean, spec.batch
    ));
    t.note(format!("derived: {:.0} ns/pkt", r.ns_per_packet()));
    if spec.datapath == DatapathMode::Rtc {
        t.note(format!(
            "run-to-completion datapath: {} fused core(s), zero queue crossings \
             (no queue-wait samples){}",
            spec.shards,
            if spec.pin_cores {
                " — cores pinned"
            } else {
                ""
            }
        ));
    }
    let fc = &r.flowcache;
    t.note(format!(
        "flowcache: hit rate {:.1}% (P {} / E {} / miss {}), mean probe {:.2} buckets, \
         burst {} → mean depth {:.1} pkts over {} prefetch bursts",
        fc.hit_rate() * 100.0,
        fc.p_hits,
        fc.e_hits,
        fc.misses,
        fc.mean_probe_len(),
        fc.burst,
        fc.mean_burst_depth(),
        fc.bursts,
    ));
    t.note(format!(
        "conservation: {} (offered = Σ processed + dropped, per shard)",
        if r.conserved() { "OK" } else { "VIOLATED" }
    ));
    match &spec.source {
        EngineSource::Synthetic => {}
        EngineSource::Compiled => t.note(
            "wire data plane: workload compiled once into packed frames; \
             ingest parses headers in place and digests from the bytes",
        ),
        EngineSource::Pcap(path) => t.note(format!(
            "wire data plane: replaying pcap {path} (cycled to {} pkts) \
             through the in-place parse + digest path",
            spec.packets
        )),
    }
    t.note(
        "wall-clock numbers — machine- and load-dependent, unlike the \
         deterministic virtual-time experiments (see EXPERIMENTS.md)",
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_experiment_renders_and_conserves() {
        let ctx = ExpCtx::new(1);
        let spec = EngineRunSpec {
            packets: 20_000,
            ..EngineRunSpec::default()
        };
        let t = engine_run(&ctx, &spec);
        assert_eq!(t.rows.len(), 1);
        assert!(t.notes.iter().any(|n| n.contains("conservation: OK")));
        // The run published runtime metrics into the shared registry.
        let exposition = ctx.registry.snapshot().to_prometheus();
        assert!(exposition.contains("runtime_shard_processed"));
    }

    #[test]
    fn bench_json_carries_the_headline_numbers() {
        let ctx = ExpCtx::new(1);
        let spec = EngineRunSpec {
            packets: 20_000,
            ..EngineRunSpec::default()
        };
        let (_, report) = engine_run_report(&ctx, &spec);
        let json = bench_json(&spec, &report);
        let v: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        let field = |k: &str| v.get(k).unwrap_or_else(|| panic!("missing field {k}"));
        assert_eq!(field("bench").as_str(), Some("engine"));
        assert_eq!(field("shards").as_u64(), Some(2));
        // The report section is the report, serialised.
        let r = field("report");
        assert_eq!(
            *r,
            serde_json::to_value(&report).expect("report serializes")
        );
        assert_eq!(r["offered"].as_u64(), Some(20_000));
        assert_eq!(r["conserved"].as_bool(), Some(true));
        assert!(r["mpps"].as_f64().expect("mpps is a number") > 0.0);
        assert!(r["stage"]["cache_ns"]["p99"].as_u64().is_some());
        // The flowcache section: batched-lookup telemetry (CI asserts
        // its presence, so its shape is part of the artifact contract).
        let fc = &r["flowcache"];
        assert_eq!(fc["burst"].as_u64(), Some(smartwatch_snic::BURST as u64));
        let hit_rate = fc["hit_rate"].as_f64().expect("hit_rate is a number");
        assert!((0.0..=1.0).contains(&hit_rate));
        let hist = fc["probe_hist"].as_array().expect("probe_hist array");
        assert_eq!(hist.len(), 16);
        let accesses: u64 = hist.iter().map(|v| v.as_u64().unwrap()).sum();
        let processed = fc["p_hits"].as_u64().unwrap()
            + fc["e_hits"].as_u64().unwrap()
            + fc["misses"].as_u64().unwrap();
        assert_eq!(
            accesses,
            processed + fc["to_host"].as_u64().unwrap(),
            "every cache access lands in exactly one probe-length slot"
        );
        assert!(fc["bursts"].as_u64().unwrap() > 0, "batched path engaged");
        let depth = fc["mean_burst_depth"].as_f64().unwrap();
        assert!(depth > 1.0 && depth <= smartwatch_snic::BURST as f64);
    }

    #[test]
    fn rtc_spec_runs_and_tags_the_artifact() {
        let ctx = ExpCtx::new(1);
        let spec = EngineRunSpec {
            packets: 20_000,
            datapath: DatapathMode::Rtc,
            ..EngineRunSpec::default()
        };
        let (t, report) = engine_run_report(&ctx, &spec);
        assert!(t.notes.iter().any(|n| n.contains("conservation: OK")));
        assert!(t.notes.iter().any(|n| n.contains("run-to-completion")));
        let v: serde_json::Value =
            serde_json::from_str(&bench_json(&spec, &report)).expect("valid JSON");
        assert_eq!(v["datapath"].as_str(), Some("rtc"));
        assert_eq!(v["pin_cores"].as_bool(), Some(false));
        let r = &v["report"];
        let nspp = r["ns_per_packet"].as_f64().expect("ns_per_packet");
        let mpps = r["mpps"].as_f64().expect("mpps");
        assert!(
            (nspp - 1000.0 / mpps).abs() < 1e-9,
            "ns/pkt derives from Mpps"
        );
        // No lanes exist, so no queue-wait time is ever recorded.
        assert_eq!(report.stage.queue_ns.count, 0);
        assert_eq!(r["stage"]["queue_ns"]["count"].as_u64(), Some(0));
        assert!(report.stage.cache_ns.count > 0, "the cores sample stages");
    }

    #[test]
    fn multi_queue_run_conserves_and_reports_queue_count() {
        let ctx = ExpCtx::new(1);
        let spec = EngineRunSpec {
            packets: 20_000,
            datapath: DatapathMode::Rtc,
            ..EngineRunSpec::default()
        };
        let (t, report) = engine_run_report(&ctx, &spec);
        assert!(t.notes.iter().any(|n| n.contains("conservation: OK")));
        // Two RTC cores are two ingest units, each with its own books.
        assert_eq!(report.queues.len(), 2);
        let json = bench_json(&spec, &report);
        let v: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        assert_eq!(v["shards"].as_u64(), Some(2));
        assert_eq!(v["report"]["queues"].as_array().map(Vec::len), Some(2));
        assert_eq!(v["report"]["conserved"].as_bool(), Some(true));
    }

    #[test]
    fn workload_is_cycled_to_requested_length() {
        let spec = EngineRunSpec {
            packets: 1234,
            ..EngineRunSpec::default()
        };
        assert_eq!(engine_workload(&spec, 1).len(), 1234);
    }

    #[test]
    fn source_parses_and_labels() {
        assert_eq!(
            EngineSource::parse("synthetic"),
            Ok(EngineSource::Synthetic)
        );
        assert_eq!(EngineSource::parse("compiled"), Ok(EngineSource::Compiled));
        assert_eq!(
            EngineSource::parse("pcap:/tmp/x.pcap"),
            Ok(EngineSource::Pcap("/tmp/x.pcap".into()))
        );
        assert!(EngineSource::parse("pcap:").is_err());
        assert!(EngineSource::parse("wire").is_err());
        assert_eq!(EngineSource::Pcap("a".into()).label(), "pcap");
    }

    #[test]
    fn compiled_source_conserves_and_tags_the_artifact() {
        let ctx = ExpCtx::new(1);
        let spec = EngineRunSpec {
            packets: 20_000,
            datapath: DatapathMode::Rtc,
            source: EngineSource::Compiled,
            ..EngineRunSpec::default()
        };
        let (t, report) = engine_run_report(&ctx, &spec);
        assert!(t.notes.iter().any(|n| n.contains("conservation: OK")));
        assert_eq!(report.offered, 20_000);
        assert!(report.conserved());
        let json = bench_json(&spec, &report);
        let v: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        assert_eq!(v["source"].as_str(), Some("compiled"));
        assert_eq!(v["report"]["conserved"].as_bool(), Some(true));
        // The wire path ran through the frame pools.
        assert!(
            ctx.registry
                .counter("runtime.frame_pool.recycled", &[])
                .get()
                > 0
        );
    }

    #[test]
    fn pcap_source_replays_a_file_through_the_wire_path() {
        let ctx = ExpCtx::new(1);
        // Write a small capture of the stress workload, then replay it.
        let base = engine_base_trace(&EngineRunSpec::default(), 1);
        let pcap_bytes = smartwatch_net::pcap::write(&base.packets()[..2_000]);
        let path = std::env::temp_dir().join("sw_bench_source_test.pcap");
        std::fs::write(&path, &pcap_bytes).expect("write temp pcap");
        let spec = EngineRunSpec {
            packets: 10_000,
            source: EngineSource::Pcap(path.to_string_lossy().into_owned()),
            ..EngineRunSpec::default()
        };
        let (t, report) = engine_run_report(&ctx, &spec);
        std::fs::remove_file(&path).ok();
        assert!(t.notes.iter().any(|n| n.contains("conservation: OK")));
        assert_eq!(report.offered, 10_000, "pcap replay cycles to the spec");
        assert!(report.conserved());
        let v: serde_json::Value =
            serde_json::from_str(&bench_json(&spec, &report)).expect("valid JSON");
        assert_eq!(v["source"].as_str(), Some("pcap"));
    }
}
