//! `repro` — regenerate the paper's tables and figures.
//!
//! ```sh
//! repro all                # every experiment at default scale
//! repro fig5 table4        # selected experiments
//! repro all --scale 4      # bigger workloads (slower, tighter shapes)
//! repro fig10 --json       # machine-readable tables
//! repro fig5 --metrics-json m.json   # dump the metric registry
//! repro fig5 --trace-out trace.json  # chrome://tracing / Perfetto trace
//! repro engine --shards 4 --packets 1000000   # wall-clock runtime
//! repro engine --trace-sample 64 --trace-out t.json  # wall-clock spans
//! repro engine --listen 127.0.0.1:9184        # live /metrics plane
//! repro engine --flight-dump flight.json      # black-box event rings
//! repro control --peak 4.0 --bench-json BENCH_control.json  # control plane
//! repro serve --listen 127.0.0.1:9184 --segments 10   # service mode
//! repro soak --segments 5 --segment-ms 2000 --bench-json BENCH_serve.json
//! repro list               # experiment index
//! ```

use smartwatch_bench::exp_control::{
    bench_json as control_bench_json, control_run_full, ControlRunSpec,
};
use smartwatch_bench::exp_engine::{
    bench_json, engine_run_full, EngineRunSpec, EngineSource, EngineWorkload,
};
use smartwatch_bench::exp_serve::{serve_bench_json, serve_run_full, ServeSpec};
use smartwatch_bench::{all_experiments, signal, ExpCtx};
use smartwatch_runtime::{DatapathMode, Engine, EngineReport};
use std::sync::Arc;

/// Every wall-clock runtime experiment.
const RUNTIME: &[&str] = &["engine", "control", "serve", "soak"];
/// The service experiments, which share one spec.
const SERVICE: &[&str] = &["serve", "soak"];

/// The runtime experiments that read each runtime flag. A flag that a
/// selected experiment would ignore — or that no selected experiment
/// reads — exits with a named error instead of being dropped silently.
const FLAG_READERS: &[(&str, &[&str])] = &[
    ("--shards", RUNTIME),
    ("--packets", RUNTIME),
    ("--batch", RUNTIME),
    ("--source", RUNTIME),
    ("--listen", RUNTIME),
    ("--bench-json", RUNTIME),
    ("--flight-dump", RUNTIME),
    ("--datapath", &["engine"]),
    ("--pin-cores", &["engine"]),
    ("--cache-burst", &["engine"]),
    ("--summary-out", &["engine"]),
    ("--host-workers", &["engine", "serve", "soak"]),
    ("--rate", &["engine", "serve", "soak"]),
    ("--workload", &["engine", "serve", "soak"]),
    ("--trace-sample", &["engine", "control"]),
    ("--serve-hold-ms", &["engine", "control"]),
    ("--epoch-ms", &["control", "serve", "soak"]),
    ("--base", &["control"]),
    ("--peak", &["control"]),
    ("--spike-start", &["control"]),
    ("--spike-end", &["control"]),
    ("--segments", SERVICE),
    ("--segment-ms", SERVICE),
    ("--serve-config", SERVICE),
    ("--carry-flow-state", SERVICE),
    ("--flat-out", SERVICE),
    ("--rss-slack-mb", SERVICE),
];

/// Exit with a named error when a flag in `given` is not read by every
/// selected runtime experiment, or when none is selected.
fn check_flag_readers(given: &[&str], selected: &[String]) {
    let runs: Vec<&str> = RUNTIME
        .iter()
        .copied()
        .filter(|r| selected.iter().any(|s| s == r))
        .collect();
    for flag in given {
        let Some((_, readers)) = FLAG_READERS.iter().find(|(f, _)| f == flag) else {
            continue;
        };
        let names = readers
            .iter()
            .map(|d| format!("`{d}`"))
            .collect::<Vec<_>>()
            .join(", ");
        if runs.is_empty() {
            die(&format!("{flag} only applies to {names}"));
        }
        if let Some(r) = runs.iter().find(|r| !readers.contains(r)) {
            die(&format!(
                "{flag} does not apply to `{r}`; it is read by {names}"
            ));
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = 1usize;
    let mut json = false;
    let mut metrics_json: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut bench_out: Option<String> = None;
    let mut summary_out: Option<String> = None;
    let mut flight_out: Option<String> = None;
    let mut selected: Vec<String> = Vec::new();
    let mut engine_spec = EngineRunSpec::default();
    let mut control_spec = ControlRunSpec::default();
    let mut serve_spec = ServeSpec::default();
    let mut rss_slack_mb: u64 = 64;
    let mut given: Vec<&str> = Vec::new();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        given.push(a);
        match a.as_str() {
            "--shards" => {
                engine_spec.shards = parse_num(it.next(), "--shards");
                control_spec.shards = engine_spec.shards;
                serve_spec.shards = engine_spec.shards;
            }
            "--datapath" => {
                engine_spec.datapath = match it.next().map(String::as_str) {
                    Some("pipeline") => DatapathMode::Pipeline,
                    Some("rtc") => DatapathMode::Rtc,
                    _ => die("--datapath must be `pipeline` or `rtc`"),
                };
            }
            "--pin-cores" => {
                engine_spec.pin_cores = true;
            }
            "--packets" => {
                engine_spec.packets = parse_num(it.next(), "--packets");
                control_spec.packets = engine_spec.packets;
                serve_spec.packets = engine_spec.packets;
            }
            "--batch" => {
                engine_spec.batch = parse_num(it.next(), "--batch");
                control_spec.batch = engine_spec.batch;
                serve_spec.batch = engine_spec.batch;
            }
            "--base" => {
                control_spec.base_mpps = parse_mpps(it.next(), "--base");
            }
            "--peak" => {
                control_spec.peak_mpps = parse_mpps(it.next(), "--peak");
            }
            "--spike-start" => {
                control_spec.spike_start = parse_frac(it.next(), "--spike-start");
            }
            "--spike-end" => {
                control_spec.spike_end = parse_frac(it.next(), "--spike-end");
            }
            "--epoch-ms" => {
                control_spec.epoch_ms = parse_num(it.next(), "--epoch-ms") as u64;
                serve_spec.epoch_ms = control_spec.epoch_ms;
            }
            "--segments" => {
                serve_spec.segments = parse_num(it.next(), "--segments");
            }
            "--segment-ms" => {
                serve_spec.segment_ms = parse_u64(it.next(), "--segment-ms");
            }
            "--serve-config" => {
                serve_spec.config_path = Some(
                    it.next()
                        .cloned()
                        .unwrap_or_else(|| die("--serve-config needs a path")),
                );
            }
            "--carry-flow-state" => {
                serve_spec.carry_flow_state = true;
            }
            "--flat-out" => {
                serve_spec.rate_mpps = None;
            }
            "--rss-slack-mb" => {
                rss_slack_mb = parse_u64(it.next(), "--rss-slack-mb");
            }
            "--host-workers" => {
                engine_spec.host_workers = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--host-workers needs an integer ≥ 0"));
                serve_spec.host_workers = engine_spec.host_workers;
            }
            "--cache-burst" => {
                engine_spec.cache_burst = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--cache-burst needs an integer ≥ 0"));
            }
            "--rate" => {
                let r: f64 = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--rate needs a Mpps value"));
                if r <= 0.0 {
                    die("--rate must be positive");
                }
                engine_spec.rate_mpps = Some(r);
                serve_spec.rate_mpps = Some(r);
            }
            "--workload" => {
                engine_spec.workload = match it.next().map(String::as_str) {
                    // `stress64` is the spelled-out alias: the stress
                    // workload is already 64-byte truncated.
                    Some("stress") | Some("stress64") => EngineWorkload::Stress,
                    Some("mix") => EngineWorkload::Mix,
                    _ => die("--workload must be `stress`, `stress64` or `mix`"),
                };
                serve_spec.workload = engine_spec.workload;
            }
            "--source" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| die("--source needs synthetic, compiled or pcap:<path>"));
                let src = EngineSource::parse(v).unwrap_or_else(|e| die(&e));
                if let EngineSource::Pcap(path) = &src {
                    if let Err(e) = std::fs::metadata(path) {
                        die(&format!("--source pcap: cannot read {path}: {e}"));
                    }
                }
                engine_spec.source = src.clone();
                control_spec.source = src.clone();
                serve_spec.source = src;
            }
            "--bench-json" => {
                bench_out = Some(
                    it.next()
                        .cloned()
                        .unwrap_or_else(|| die("--bench-json needs a path")),
                );
            }
            "--summary-out" => {
                summary_out = Some(
                    it.next()
                        .cloned()
                        .unwrap_or_else(|| die("--summary-out needs a path")),
                );
            }
            "--flight-dump" => {
                flight_out = Some(
                    it.next()
                        .cloned()
                        .unwrap_or_else(|| die("--flight-dump needs a path")),
                );
            }
            "--trace-sample" => {
                let n = parse_u64(it.next(), "--trace-sample");
                engine_spec.trace_sample = n;
                control_spec.trace_sample = n;
            }
            "--listen" => {
                let addr = it
                    .next()
                    .cloned()
                    .unwrap_or_else(|| die("--listen needs an address like 127.0.0.1:9184"));
                engine_spec.listen = Some(addr.clone());
                control_spec.listen = Some(addr.clone());
                serve_spec.listen = Some(addr);
            }
            "--serve-hold-ms" => {
                let ms = parse_u64(it.next(), "--serve-hold-ms");
                engine_spec.serve_hold_ms = ms;
                control_spec.serve_hold_ms = ms;
            }
            "--scale" => {
                scale = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--scale needs a positive integer"));
                if scale == 0 {
                    die("--scale must be ≥ 1");
                }
            }
            "--json" => json = true,
            "--metrics-json" => {
                metrics_json = Some(
                    it.next()
                        .cloned()
                        .unwrap_or_else(|| die("--metrics-json needs a path")),
                );
            }
            "--trace-out" => {
                trace_out = Some(
                    it.next()
                        .cloned()
                        .unwrap_or_else(|| die("--trace-out needs a path")),
                );
            }
            "-h" | "--help" => {
                usage();
                return;
            }
            other => selected.push(other.to_string()),
        }
    }
    if selected.is_empty() {
        usage();
        return;
    }
    // Flags a selected experiment would ignore, and contradictory
    // topology flags, fail fast, before any work.
    check_flag_readers(&given, &selected);
    if engine_spec.pin_cores && engine_spec.datapath != DatapathMode::Rtc {
        die("--pin-cores requires `--datapath rtc` (pipeline threads are not pinned)");
    }

    let experiments = all_experiments();
    // Reject unknown tokens up front: a typo'd flag must not be
    // silently swallowed as a never-matched "experiment name" just
    // because another selection happened to run.
    for name in &selected {
        let known = matches!(
            name.as_str(),
            "list" | "all" | "engine" | "control" | "serve" | "soak"
        ) || experiments.iter().any(|(id, _)| name == id);
        if !known {
            if name.starts_with('-') {
                die(&format!("unknown flag {name:?}; try `repro --help`"));
            }
            die(&format!("unknown experiment {name:?}; try `repro list`"));
        }
    }
    if selected.iter().any(|s| s == "list") {
        println!("available experiments:");
        for (id, _) in &experiments {
            println!("  {id}");
        }
        return;
    }
    let run_all = selected.iter().any(|s| s == "all");
    let ctx = ExpCtx::new(scale);
    let mut ran = 0;
    let wants_engine = selected.iter().any(|s| s == "engine");
    let wants_control = selected.iter().any(|s| s == "control");
    let wants_serve = selected.iter().any(|s| s == "serve");
    let wants_soak = selected.iter().any(|s| s == "soak");
    let runtime_drivers = [wants_engine, wants_control, wants_serve, wants_soak]
        .iter()
        .filter(|w| **w)
        .count();
    if (bench_out.is_some() || flight_out.is_some()) && runtime_drivers > 1 {
        die("--bench-json/--flight-dump apply to one of `engine`/`control`/`serve`/`soak` per invocation");
    }
    if wants_serve && wants_soak {
        die("`serve` and `soak` are one service run each; pick one per invocation");
    }
    if runtime_drivers > 0 {
        // Ctrl-C / SIGTERM drains the run gracefully: the engine quiesces
        // through the end-of-trace path and the summary still conserves.
        signal::install();
        engine_spec.watch_signals = true;
        control_spec.watch_signals = true;
        serve_spec.heed_interrupt = true;
    }
    if wants_engine {
        let (table, report, engine) = engine_run_full(&ctx, &engine_spec);
        if json {
            println!("{}", table.to_json());
        } else {
            println!("{}", table.render());
        }
        if let Some(path) = bench_out.take() {
            if let Err(e) = std::fs::write(&path, bench_json(&engine_spec, &report)) {
                die(&format!("writing {path}: {e}"));
            }
            eprintln!("repro: engine bench report written to {path}");
        }
        if let Some(path) = summary_out.take() {
            if let Err(e) = std::fs::write(&path, report.deterministic_summary()) {
                die(&format!("writing {path}: {e}"));
            }
            eprintln!("repro: deterministic summary written to {path}");
        }
        if let Some(path) = flight_out.take() {
            write_flight(&engine, &path, "flight recorder");
        }
        // Black-box rule: an anomalous run dumps its flight recorder
        // unconditionally, so the evidence survives even when nobody
        // asked for it. Flat-out runs apply backpressure instead of
        // dropping, so any drop there is as anomalous as a
        // conservation failure.
        let unexpected_drops = engine_spec.rate_mpps.is_none()
            && report.ingest_dropped() + report.shed() + report.steer_dropped() > 0;
        if !report.conserved() || unexpected_drops {
            eprintln!(
                "repro: anomalous engine run (conserved={}, ingest_dropped={}, shed={}, \
                 steer_dropped={})",
                report.conserved(),
                report.ingest_dropped(),
                report.shed(),
                report.steer_dropped(),
            );
            write_flight(&engine, "FLIGHT_anomaly.json", "anomaly flight dump");
        }
        selected.retain(|s| s != "engine");
        ran += 1;
    }
    if wants_control {
        let (table, outcome, engine) = control_run_full(&ctx, &control_spec);
        if json {
            println!("{}", table.to_json());
        } else {
            println!("{}", table.render());
        }
        if let Some(path) = bench_out.take() {
            if let Err(e) = std::fs::write(&path, control_bench_json(&control_spec, &outcome)) {
                die(&format!("writing {path}: {e}"));
            }
            eprintln!("repro: control bench report written to {path}");
        }
        if let Some(path) = flight_out.take() {
            write_flight(&engine, &path, "flight recorder");
        }
        if !outcome.controlled.conserved() || !outcome.baseline.conserved() {
            report_conservation("controlled", &outcome.controlled);
            report_conservation("baseline", &outcome.baseline);
            write_flight(&engine, "FLIGHT_anomaly.json", "anomaly flight dump");
        }
        selected.retain(|s| s != "control");
        ran += 1;
    }
    if wants_serve || wants_soak {
        let (table, outcome, engine) = serve_run_full(&ctx, &serve_spec);
        if json {
            println!("{}", table.to_json());
        } else {
            println!("{}", table.render());
        }
        if let Some(path) = bench_out.take() {
            if let Err(e) = std::fs::write(&path, serve_bench_json(&serve_spec, &outcome)) {
                die(&format!("writing {path}: {e}"));
            }
            eprintln!("repro: serve bench report written to {path}");
        }
        if let Some(path) = flight_out.take() {
            write_flight(&engine, &path, "flight recorder");
        }
        // The endurance gate: conservation every segment, pools flat
        // after warm-up, RSS growth inside the slack budget. `soak`
        // fails the process on a violation; `serve` reports it (and
        // both leave the flight-recorder evidence behind).
        let violations = outcome.violations(rss_slack_mb << 20);
        if !violations.is_empty() {
            for v in &violations {
                eprintln!("repro: soak violation: {v}");
            }
            write_flight(&engine, "FLIGHT_anomaly.json", "anomaly flight dump");
            if wants_soak {
                std::process::exit(1);
            }
        } else if wants_soak {
            eprintln!(
                "repro: soak clean — {} segment(s) conserved, final-segment pool growth {}/{}, \
                 RSS {:+} bytes",
                outcome.segments.len(),
                outcome.steady_pool_growth(),
                outcome.steady_frame_pool_growth(),
                outcome.rss_growth_bytes(),
            );
        }
        selected.retain(|s| s != "serve" && s != "soak");
        ran += 1;
    }
    for (id, f) in &experiments {
        if run_all || selected.iter().any(|s| s == id) {
            let table = f(&ctx);
            if json {
                println!("{}", table.to_json());
            } else {
                println!("{}", table.render());
            }
            ran += 1;
        }
    }
    if ran == 0 {
        die(&format!(
            "no experiment matched {selected:?}; try `repro list`"
        ));
    }
    if let Some(path) = metrics_json {
        if let Err(e) = std::fs::write(&path, ctx.registry.snapshot().to_json()) {
            die(&format!("writing {path}: {e}"));
        }
        eprintln!("repro: metrics written to {path}");
    }
    if let Some(path) = trace_out {
        if let Err(e) = std::fs::write(&path, ctx.tracer.to_chrome_json()) {
            die(&format!("writing {path}: {e}"));
        }
        eprintln!(
            "repro: trace written to {path} (open in chrome://tracing or Perfetto; \
             {} spans dropped at full rings)",
            ctx.tracer.total_dropped()
        );
    } else if ctx.tracer.total_dropped() > 0 {
        eprintln!(
            "repro: tracer dropped {} spans at full rings (no --trace-out given)",
            ctx.tracer.total_dropped()
        );
    }
}

/// Dump the engine's flight recorder to `path` (`--flight-dump` and the
/// anomaly auto-dump share this).
fn write_flight(engine: &Arc<Engine>, path: &str, what: &str) {
    if let Err(e) = std::fs::write(path, engine.flight().to_json()) {
        die(&format!("writing {path}: {e}"));
    }
    eprintln!("repro: {what} written to {path}");
}

/// One line of conservation evidence for an anomalous run.
fn report_conservation(name: &str, r: &EngineReport) {
    eprintln!(
        "repro: {name} run conserved={} (offered={}, processed={}, ingest_dropped={}, \
         shed={}, steer_dropped={})",
        r.conserved(),
        r.offered,
        r.processed(),
        r.ingest_dropped(),
        r.shed(),
        r.steer_dropped(),
    );
}

fn usage() {
    println!(
        "repro — regenerate the SmartWatch paper's tables and figures\n\n\
         usage: repro <experiment…|all|list> [--scale N] [--json]\n\
                      [--metrics-json <path>] [--trace-out <path>]\n\
                repro engine [--shards N] [--packets N]\n\
                      [--datapath pipeline|rtc] [--pin-cores]\n\
                      [--batch N] [--host-workers N] [--rate MPPS]\n\
                      [--cache-burst N]\n\
                      [--workload stress|stress64|mix]\n\
                      [--source synthetic|compiled|pcap:<path>]\n\
                      [--bench-json <path>] [--summary-out <path>]\n\
                      [--trace-sample N] [--listen ADDR]\n\
                      [--serve-hold-ms N] [--flight-dump <path>]\n\
                repro control [--shards N] [--packets N]\n\
                      [--batch N] [--base MPPS] [--peak MPPS]\n\
                      [--spike-start F] [--spike-end F] [--epoch-ms N]\n\
                      [--source synthetic|compiled|pcap:<path>]\n\
                      [--bench-json <path>] [--trace-sample N]\n\
                      [--listen ADDR] [--serve-hold-ms N]\n\
                      [--flight-dump <path>]\n\
                repro serve|soak [--shards N] [--packets N] [--batch N]\n\
                      [--host-workers N] [--workload stress|stress64|mix]\n\
                      [--source synthetic|compiled|pcap:<path>]\n\
                      [--rate MPPS|--flat-out]\n\
                      [--segments N] [--segment-ms N] [--epoch-ms N]\n\
                      [--carry-flow-state] [--serve-config <path>]\n\
                      [--listen ADDR] [--bench-json <path>]\n\
                      [--flight-dump <path>] [--rss-slack-mb N]\n\n\
         --json          print tables as JSON instead of aligned text\n\
         --metrics-json  dump every counter/gauge/histogram the selected\n\
                         experiments registered (deterministic for a seed)\n\
         --trace-out     dump the event trace in chrome-trace format\n\
                         (load in chrome://tracing or ui.perfetto.dev);\n\
                         with `engine`/`control` and --trace-sample it\n\
                         also carries the wall-clock thread spans\n\
         --source        what the ingest units replay:\n\
                         `synthetic` (default) replays pre-built Packet\n\
                         structs; `compiled` serialises the workload once\n\
                         into packed wire frames and parses + digests the\n\
                         header bytes in place (the zero-copy data plane);\n\
                         `pcap:<path>` replays a capture file through the\n\
                         same wire path, cycled to --packets\n\
         --bench-json    (any runtime run) write the run spec plus the\n\
                         run's serialised EngineReport as JSON (control:\n\
                         both runs; the controlled one carries the mode\n\
                         timeline and per-epoch controller decision audit)\n\
         --summary-out   (engine) write the byte-stable deterministic\n\
                         summary (exact counters, no wall-clock values)\n\
                         — what CI diffs against its committed golden\n\
         --cache-burst   (engine) FlowCache lookup burst width: shards\n\
                         prefetch N rows ahead before probing (default 8;\n\
                         0/1 = per-packet reference path, same decisions)\n\
         --datapath      (engine) thread topology: `pipeline` (default)\n\
                         runs one dispatcher feeding N shards over SPSC\n\
                         lanes; `rtc` fuses dispatcher and shard into N\n\
                         run-to-completion cores, each ingesting its own\n\
                         RSS sub-stream (zero queue crossings, identical\n\
                         decisions)\n\
         --pin-cores     (engine, rtc only) pin core i to CPU i via\n\
                         sched_setaffinity — best-effort, Linux only\n\
         --trace-sample  (engine/control) sample 1-in-N batches per\n\
                         engine thread into --trace-out (0 = off; the\n\
                         first batch per thread is always sampled)\n\
         --listen        (any runtime run) serve /metrics, /stats.json\n\
                         and /flight.json live during the run\n\
                         (e.g. 127.0.0.1:9184; port 0 = ephemeral)\n\
         --serve-hold-ms (engine/control) keep --listen endpoints up\n\
                         this long after the run ends\n\
         --flight-dump   (any runtime run) write the flight recorder\n\
                         (per-thread black-box event rings) as JSON;\n\
                         anomalous runs auto-dump FLIGHT_anomaly.json\n\n\
         Runtime flags apply only to the experiments listed with them\n\
         above; one given to a selected experiment that does not read it\n\
         (or with no runtime experiment selected) exits 2 with a named\n\
         error.\n\n\
         `repro engine` runs the sharded wall-clock runtime (OS threads,\n\
         measured Mpps — machine-dependent, unlike every other experiment).\n\
         Default: 2 shards, one dispatcher, 200k packets, flat-out, 64B\n\
         stress workload. `--datapath rtc` replaces the dispatcher and\n\
         its lanes with N fused run-to-completion cores, one ingest\n\
         unit each (the multi-queue NIC model).\n\n\
         `repro control` replays one overload spike twice — with the\n\
         adaptive control plane (Alg. 4 mode switching, steering\n\
         snapshots, load shedding) and without — and reports both.\n\
         `repro control-sim` is its deterministic virtual-time sibling.\n\n\
         `repro serve` keeps one engine resident and replays the\n\
         workload in --segments drain/restart segments; --listen mounts\n\
         the POST /admin/* control socket next to the read-only\n\
         endpoints, --serve-config hot-reloads a watched JSON config at\n\
         epoch boundaries, and --segment-ms drains any over-long\n\
         segment gracefully. `repro soak` is the endurance gate: the\n\
         same loop, but conservation / flat pool-allocation / bounded\n\
         RSS (--rss-slack-mb, default 64) violations fail the process\n\
         and auto-dump FLIGHT_anomaly.json. SIGINT/SIGTERM drain any\n\
         runtime driver gracefully — the summary still conserves.\n\n\
         Experiments map 1:1 to the paper's evaluation (see DESIGN.md §3\n\
         and EXPERIMENTS.md for the paper-vs-measured record)."
    );
}

fn parse_num(v: Option<&String>, flag: &str) -> usize {
    let n: usize = v
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| die(&format!("{flag} needs a positive integer")));
    if n == 0 {
        die(&format!("{flag} must be ≥ 1"));
    }
    n
}

fn parse_u64(v: Option<&String>, flag: &str) -> u64 {
    v.and_then(|v| v.parse().ok())
        .unwrap_or_else(|| die(&format!("{flag} needs a non-negative integer")))
}

fn parse_mpps(v: Option<&String>, flag: &str) -> f64 {
    let r: f64 = v
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| die(&format!("{flag} needs a Mpps value")));
    if r <= 0.0 {
        die(&format!("{flag} must be positive"));
    }
    r
}

fn parse_frac(v: Option<&String>, flag: &str) -> f64 {
    let f: f64 = v
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| die(&format!("{flag} needs a fraction in [0, 1]")));
    if !(0.0..=1.0).contains(&f) {
        die(&format!("{flag} must be within [0, 1]"));
    }
    f
}

fn die(msg: &str) -> ! {
    eprintln!("repro: {msg}");
    std::process::exit(2);
}
