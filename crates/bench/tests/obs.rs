//! Observability-plane integration tests: wall-clock tracing coverage,
//! live `/stats.json` vs the final report, per-queue Prometheus
//! families, and the flight recorder as a faithful control-plane
//! black box.

use smartwatch_bench::exp_control::{control_config, ControlRunSpec};
use smartwatch_bench::exp_engine::{
    engine_run_full, engine_workload, EngineRunSpec, EngineWorkload,
};
use smartwatch_bench::{serve, workloads, ExpCtx};
use smartwatch_runtime::{DatapathMode, Engine, EngineConfig, Pace};
use smartwatch_snic::Mode;
use smartwatch_telemetry::FlightKind;
use smartwatch_trace::background::Preset;
use std::io::{Read, Write};
use std::net::TcpStream;

fn get(addr: std::net::SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// The `runtime_queue_*` slice of the Prometheus exposition, in
/// rendered order (HELP/TYPE lines included).
fn queue_section(ctx: &ExpCtx) -> String {
    ctx.registry
        .snapshot()
        .to_prometheus()
        .lines()
        .filter(|l| l.contains("runtime_queue_"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// S4: the per-queue counter families are complete (every family ×
/// every queue label) and byte-deterministic across same-spec runs,
/// for 1, 2 and 4 RTC cores (one ingest unit each).
#[test]
fn per_queue_prometheus_families_are_complete_and_deterministic() {
    for cores in [1usize, 2, 4] {
        let spec = EngineRunSpec {
            packets: 20_000,
            shards: cores,
            datapath: DatapathMode::Rtc,
            ..EngineRunSpec::default()
        };
        let run = || {
            let ctx = ExpCtx::new(1);
            let (_, report, _) = engine_run_full(&ctx, &spec);
            assert!(report.conserved());
            queue_section(&ctx)
        };
        let a = run();
        let b = run();
        assert_eq!(
            a, b,
            "per-queue counter families must be byte-deterministic for cores={cores}"
        );
        for family in [
            "runtime_queue_offered",
            "runtime_queue_ingested",
            "runtime_queue_ingest_dropped",
            "runtime_queue_shed",
            "runtime_queue_steer_dropped",
        ] {
            assert!(
                a.contains(&format!("# TYPE {family} counter")),
                "missing TYPE line for {family} at cores={cores}"
            );
            for q in 0..cores {
                let series = format!("{family}{{queue=\"{q}\"}}");
                assert!(
                    a.contains(&series),
                    "missing series {series} at cores={cores}:\n{a}"
                );
            }
        }
    }
}

/// Tentpole: a traced run produces a parseable chrome-trace document
/// with at least one complete span on every dispatcher, shard, and
/// host-worker track.
#[test]
fn traced_run_covers_every_engine_thread() {
    let ctx = ExpCtx::new(1);
    let spec = EngineRunSpec {
        packets: 20_000,
        workload: EngineWorkload::Mix, // exercises host escalation
        trace_sample: 1,
        ..EngineRunSpec::default()
    };
    let (_, report, _) = engine_run_full(&ctx, &spec);
    assert!(report.escalated() > 0, "mix workload must escalate");
    assert!(report.host_processed > 0, "host workers must see traffic");

    let doc: serde_json::Value =
        serde_json::from_str(&ctx.tracer.to_chrome_json()).expect("valid chrome-trace JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array");
    let mut tracks: Vec<(u64, String)> = Vec::new();
    let mut span_tids: Vec<u64> = Vec::new();
    for e in events {
        let ph = e.get("ph").and_then(|v| v.as_str()).unwrap_or("");
        let tid = e.get("tid").and_then(|v| v.as_u64()).unwrap_or(u64::MAX);
        if ph == "M" {
            if let Some(name) = e
                .get("args")
                .and_then(|a| a.get("name"))
                .and_then(|n| n.as_str())
            {
                tracks.push((tid, name.to_string()));
            }
        } else if ph == "X" {
            span_tids.push(tid);
        }
    }
    for thread in ["sw-rxq-0", "sw-shard-0", "sw-shard-1", "sw-host-0"] {
        let tid = tracks
            .iter()
            .find(|(_, n)| n == thread)
            .map(|(t, _)| *t)
            .unwrap_or_else(|| panic!("no track named {thread}: {tracks:?}"));
        assert!(
            span_tids.contains(&tid),
            "track {thread} carries no spans (tids with spans: {span_tids:?})"
        );
    }
}

/// `GET /stats.json` parsed.
fn stats(addr: std::net::SocketAddr) -> serde_json::Value {
    let (status, body) = get(addr, "/stats.json");
    assert_eq!(status, 200);
    serde_json::from_str(&body).expect("stats.json is valid JSON")
}

/// After a run, `/stats.json`'s `report` is the report `run()` returned,
/// field for field, on both datapaths — also after a second run on the
/// same engine, whose report covers that run alone (not the engine's
/// lifetime totals); and all three routes answer over HTTP.
#[test]
fn live_stats_match_the_final_report() {
    for datapath in [DatapathMode::Pipeline, DatapathMode::Rtc] {
        let ctx = ExpCtx::new(1);
        let spec = EngineRunSpec {
            packets: 20_000,
            datapath,
            ..EngineRunSpec::default()
        };
        let (_, first, engine) = engine_run_full(&ctx, &spec);
        let server = serve::serve("127.0.0.1:0", &engine).expect("bind ephemeral port");
        let addr = server.local_addr();
        let live = stats(addr);
        assert_eq!(
            live["report"],
            serde_json::to_value(&first).expect("report serializes"),
            "{datapath:?}, first run"
        );
        assert_eq!(live["report"]["shards"].as_array().map(Vec::len), Some(2));
        assert!(live["service"]["pool_allocated"].as_u64().unwrap_or(0) > 0);

        let second = engine.run(&engine_workload(&spec, ctx.scale), Pace::Flatout);
        let live = stats(addr);
        assert_eq!(
            live["report"],
            serde_json::to_value(&second).expect("report serializes"),
            "{datapath:?}, second run"
        );
        assert_eq!(live["report"]["offered"].as_u64(), Some(20_000));

        let (status, body) = get(addr, "/metrics");
        assert_eq!(status, 200);
        assert!(body.starts_with("# HELP"), "Prometheus exposition format");
        assert!(body.contains("runtime_shard_processed"));
        let (status, body) = get(addr, "/flight.json");
        assert_eq!(status, 200);
        assert!(serde_json::from_str::<serde_json::Value>(&body).is_ok());
        server.shutdown();
    }
}

/// Tentpole: the flight recorder's control-thread ring reproduces the
/// controller's mode-switch and shed sequence exactly as the
/// [`ControlReport`] timeline records it.
#[test]
fn ordered_flight_recorder_mirrors_the_control_timeline() {
    let spec = ControlRunSpec {
        packets: 100_000,
        ..ControlRunSpec::default()
    };
    let base = workloads::caida_64b(Preset::Caida2018, 1, 0xC7).into_packets();
    let packets: Vec<_> = base.iter().cycle().take(spec.packets).copied().collect();
    let cfg = EngineConfig::new(spec.shards);
    let engine = Engine::new(cfg.with_control(control_config(&spec)));
    let report = engine.run(
        &packets,
        Pace::Spike {
            base_mpps: spec.base_mpps,
            peak_mpps: spec.peak_mpps,
            spike_start: spec.spike_start,
            spike_end: spec.spike_end,
        },
    );
    assert!(report.conserved());
    let ctrl = report.control.as_ref().expect("controller ran");
    assert!(ctrl.mode_switches >= 2, "spike must flip modes both ways");

    let mode_code = |m: Mode| match m {
        Mode::General => 0u64,
        Mode::Lite => 1,
    };
    let mut want_switches: Vec<(u64, u64)> = Vec::new();
    let mut want_shed: Vec<(bool, u64)> = Vec::new();
    for e in &ctrl.timeline {
        match e {
            smartwatch_runtime::ControlEvent::ModeSwitch { shard, mode, .. } => {
                want_switches.push((*shard as u64, mode_code(*mode)));
            }
            smartwatch_runtime::ControlEvent::ShedOn { epoch } => want_shed.push((true, *epoch)),
            smartwatch_runtime::ControlEvent::ShedOff { epoch } => want_shed.push((false, *epoch)),
        }
    }

    let rings = engine.flight().snapshot();
    let control_ring = rings
        .iter()
        .find(|(name, _)| name == "sw-control")
        .map(|(_, events)| events)
        .expect("control thread owns a flight ring");
    let got_switches: Vec<(u64, u64)> = control_ring
        .iter()
        .filter(|e| e.kind == FlightKind::ModeSwitch)
        .map(|e| (e.a, e.b))
        .collect();
    let got_shed: Vec<(bool, u64)> = control_ring
        .iter()
        .filter(|e| matches!(e.kind, FlightKind::ShedOn | FlightKind::ShedOff))
        .map(|e| (e.kind == FlightKind::ShedOn, e.a))
        .collect();
    assert_eq!(
        got_switches, want_switches,
        "flight ModeSwitch sequence must match the control timeline"
    );
    assert_eq!(
        got_shed, want_shed,
        "flight shed edges must match the control timeline"
    );
    assert_eq!(
        report.control.as_ref().map(|c| c.decisions.is_empty()),
        Some(false),
        "decision audit rides along in the control report"
    );
}
