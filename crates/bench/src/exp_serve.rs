//! `repro serve` / `repro soak` — persistent service mode.
//!
//! Unlike `repro engine` (one run, one report), service mode keeps a
//! single [`Engine`] resident and replays the workload in **segments**:
//! bounded runs separated by graceful drain/restart cycles, exactly the
//! lifecycle a SmartNIC IPS daemon would live through. Between
//! segments nothing is torn down — batch/frame pools (and, under
//! `--carry-flow-state`, the per-shard FlowCaches) park in the engine's
//! garage and are reissued to the next segment, so steady state
//! allocates nothing and the soak harness can pin memory flat.
//!
//! Three control paths reach the resident engine while packets flow:
//!
//! * the **admin socket** (`--listen`, [`crate::serve::admin_routes`]):
//!   POST endpoints queueing [`AdminCmd`]s applied by the controller at
//!   epoch boundaries, plus the immediate pace/drain atomics;
//! * the **config watcher** (`--serve-config <path>`): a JSON file
//!   polled for mtime changes; a validated diff against the previously
//!   applied config is translated into the same admin commands, so a
//!   hot-reload rides the identical epoch-boundary publication path —
//!   the hot loop never takes a lock. Each attempt is recorded on the
//!   `sw-serve` flight ring ([`FlightKind::ConfigReload`] `ok`/`seq`);
//!   a rejected file leaves the running config untouched;
//! * **signals**: the `repro` drivers translate SIGINT/SIGTERM into a
//!   drain request ([`crate::signal`]), so the segment in flight still
//!   quiesces through the end-of-trace path and the final summary is
//!   conserved.
//!
//! `repro soak` is the endurance variant: every segment samples
//! `runtime.mem.rss_bytes` and the pool-allocation counters, and
//! [`ServeOutcome::violations`] asserts that (a) every segment
//! conserves, (b) pool allocation is flat after warm-up (the garage is
//! really being reused), and (c) RSS growth across the whole run stays
//! inside a slack budget. The per-segment timeline lands in
//! `BENCH_serve.json` (see EXPERIMENTS.md for the schema).

use crate::exp_control::{control_config, ControlRunSpec};
use crate::exp_engine::{replay_data, EngineSource, EngineWorkload};
use crate::output::Table;
use crate::{workloads, ExpCtx};
use serde::Serialize;
use smartwatch_runtime::{AdminCmd, Engine, EngineConfig, Pace};
use smartwatch_telemetry::{FlightKind, FlightRing};
use smartwatch_trace::background::Preset;
use smartwatch_trace::Trace;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One `repro serve` / `repro soak` invocation, fully specified.
#[derive(Clone, Debug)]
pub struct ServeSpec {
    /// Worker shards (threads).
    pub shards: usize,
    /// Packets per segment (the workload is cycled to this length).
    pub packets: usize,
    /// Packets per dispatch batch.
    pub batch: usize,
    /// Host escalation workers.
    pub host_workers: usize,
    /// Offered rate in Mpps; `None` replays each segment flat-out.
    /// Paced segments honour live `/admin/pace` overrides.
    pub rate_mpps: Option<f64>,
    /// Replay workload.
    pub workload: EngineWorkload,
    /// Replay source (synthetic / compiled / pcap).
    pub source: EngineSource,
    /// Segments to run (drain/restart cycles = segments − 1).
    pub segments: usize,
    /// Wall-clock budget per segment in ms; when a segment is still
    /// running at the deadline it is drained gracefully (0 = run each
    /// segment to completion).
    pub segment_ms: u64,
    /// Park the per-shard FlowCaches between segments so flow state
    /// survives a drain/restart cycle.
    pub carry_flow_state: bool,
    /// Controller epoch length in ms (admin commands and config
    /// reloads publish at epoch boundaries).
    pub epoch_ms: u64,
    /// Bind this address and serve the observability routes *plus* the
    /// POST admin surface for the lifetime of the service.
    pub listen: Option<String>,
    /// Watch this JSON config file for hot-reloads.
    pub config_path: Option<String>,
    /// Honour the process-wide SIGINT/SIGTERM flag between segments
    /// (the `repro` drivers set this; tests leave it off so parallel
    /// signal tests cannot interfere).
    pub heed_interrupt: bool,
}

impl Default for ServeSpec {
    fn default() -> ServeSpec {
        ServeSpec {
            shards: 2,
            packets: 200_000,
            batch: 64,
            host_workers: 1,
            rate_mpps: Some(1.0),
            workload: EngineWorkload::Stress,
            source: EngineSource::Synthetic,
            segments: 3,
            segment_ms: 0,
            carry_flow_state: false,
            epoch_ms: 2,
            listen: None,
            config_path: None,
            heed_interrupt: false,
        }
    }
}

/// Control-plane thresholds for service mode: the configured steady
/// rate is treated as the calm baseline (no mode flapping, no shedding
/// at the offered rate), with headroom so a genuine 4× overload still
/// trips Lite mode and the shed hysteresis.
fn serve_control_config(spec: &ServeSpec) -> smartwatch_runtime::ControlConfig {
    let rate = spec.rate_mpps.unwrap_or(2.0).max(0.05);
    control_config(&ControlRunSpec {
        shards: spec.shards,
        epoch_ms: spec.epoch_ms,
        base_mpps: rate,
        peak_mpps: 4.0 * rate,
        ..ControlRunSpec::default()
    })
}

fn serve_base_trace(spec: &ServeSpec, scale: usize) -> Trace {
    match spec.workload {
        EngineWorkload::Stress => workloads::caida_64b(Preset::Caida2018, scale, 0xE1),
        EngineWorkload::Mix => workloads::attack_mix(scale, 0xE2),
    }
}

/// The hot-reloadable service config — the validated shape of
/// `--serve-config <file>`. Absent/`null` fields mean "release":
///
/// ```json
/// {
///   "rate_mpps": 1.5,
///   "force_shed": null,
///   "blacklist": [4242, 99],
///   "whitelist": [7]
/// }
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServeConfig {
    /// Live pace override (paced runs only); `None` releases it.
    pub rate_mpps: Option<f64>,
    /// Pin load shedding on/off; `None` returns it to the controller.
    pub force_shed: Option<bool>,
    /// Flow digests the steering table must blacklist.
    pub blacklist: Vec<u64>,
    /// Flow digests pinned onto the whitelist.
    pub whitelist: Vec<u64>,
}

impl ServeConfig {
    /// Parse and validate a config document. Unknown fields are
    /// rejected so a typo cannot silently no-op.
    pub fn parse(text: &str) -> Result<ServeConfig, String> {
        let doc: serde_json::Value =
            serde_json::from_str(text).map_err(|e| format!("invalid JSON: {e}"))?;
        let obj = match &doc {
            serde_json::Value::Object(pairs) => pairs,
            _ => return Err("config must be a JSON object".into()),
        };
        let mut cfg = ServeConfig::default();
        for (key, value) in obj {
            match key.as_str() {
                "rate_mpps" => {
                    cfg.rate_mpps = if value.is_null() {
                        None
                    } else {
                        match value.as_f64() {
                            Some(r) if r > 0.0 && r.is_finite() => Some(r),
                            _ => return Err("rate_mpps must be a positive number or null".into()),
                        }
                    }
                }
                "force_shed" => {
                    cfg.force_shed = if value.is_null() {
                        None
                    } else {
                        match value.as_bool() {
                            Some(b) => Some(b),
                            None => return Err("force_shed must be true, false or null".into()),
                        }
                    }
                }
                "blacklist" => cfg.blacklist = digest_list(value, "blacklist")?,
                "whitelist" => cfg.whitelist = digest_list(value, "whitelist")?,
                other => return Err(format!("unknown config field '{other}'")),
            }
        }
        Ok(cfg)
    }

    /// The admin commands that move a running engine from `self` to
    /// `next` (steering/shed edits; the pace override is applied
    /// directly by the caller since it is an immediate atomic).
    pub fn diff(&self, next: &ServeConfig) -> Vec<AdminCmd> {
        let mut cmds = Vec::new();
        for &d in next
            .blacklist
            .iter()
            .filter(|d| !self.blacklist.contains(d))
        {
            cmds.push(AdminCmd::BlacklistAdd(d));
        }
        for &d in self
            .blacklist
            .iter()
            .filter(|d| !next.blacklist.contains(d))
        {
            cmds.push(AdminCmd::BlacklistRemove(d));
        }
        for &d in next
            .whitelist
            .iter()
            .filter(|d| !self.whitelist.contains(d))
        {
            cmds.push(AdminCmd::WhitelistAdd(d));
        }
        for &d in self
            .whitelist
            .iter()
            .filter(|d| !next.whitelist.contains(d))
        {
            cmds.push(AdminCmd::WhitelistRemove(d));
        }
        if self.force_shed != next.force_shed {
            cmds.push(AdminCmd::ForceShed(next.force_shed));
        }
        cmds
    }
}

fn digest_list(value: &serde_json::Value, field: &str) -> Result<Vec<u64>, String> {
    let arr = value
        .as_array()
        .ok_or_else(|| format!("{field} must be an array of unsigned integers"))?;
    arr.iter()
        .map(|v| {
            v.as_u64()
                .ok_or_else(|| format!("{field} entries must be unsigned integers"))
        })
        .collect()
}

/// Apply a validated config transition to the engine: queue the
/// steering/shed diff through the admin mailbox (published at the next
/// epoch boundary) and flip the pace atomic. Returns false when the
/// mailbox rejected part of the diff (retried on the next reload).
fn apply_config(engine: &Engine, prev: &ServeConfig, next: &ServeConfig) -> bool {
    let mut ok = true;
    for cmd in prev.diff(next) {
        ok &= engine.admin(cmd);
    }
    if prev.rate_mpps != next.rate_mpps {
        engine.set_rate_override(next.rate_mpps);
    }
    ok
}

/// The config hot-reload watcher: polls the file's mtime from a helper
/// thread, re-validates on change and publishes the diff. Dropping the
/// watcher stops the thread.
struct ConfigWatcher {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
    shared: Arc<ConfigShared>,
}

#[derive(Default)]
struct ConfigShared {
    /// Successful reloads (the `seq` in `config_reload` flight events).
    reloads: std::sync::atomic::AtomicU64,
    /// Rejected reload attempts (file kept changing or failed to parse).
    errors: std::sync::atomic::AtomicU64,
}

impl ConfigWatcher {
    /// Load `path` once synchronously (so a config present at startup
    /// is active for the first segment), then watch it for changes.
    fn start(path: String, engine: Arc<Engine>, ring: FlightRing) -> ConfigWatcher {
        let shared = Arc::new(ConfigShared::default());
        let stop = Arc::new(AtomicBool::new(false));
        let mut applied = ServeConfig::default();
        let mut last_mtime = None;
        Self::reload(
            &path,
            &engine,
            &ring,
            &shared,
            &mut applied,
            &mut last_mtime,
            true,
        );
        let thread_stop = Arc::clone(&stop);
        let thread_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("sw-config".into())
            .spawn(move || {
                while !thread_stop.load(Ordering::Acquire) {
                    Self::reload(
                        &path,
                        &engine,
                        &ring,
                        &thread_shared,
                        &mut applied,
                        &mut last_mtime,
                        false,
                    );
                    std::thread::sleep(Duration::from_millis(100));
                }
            })
            .expect("spawn config watcher");
        ConfigWatcher {
            stop,
            handle: Some(handle),
            shared,
        }
    }

    /// One poll round: skip unless the mtime moved (or `force`), then
    /// parse-validate-diff-apply and record the attempt in flight.
    #[allow(clippy::too_many_arguments)]
    fn reload(
        path: &str,
        engine: &Engine,
        ring: &FlightRing,
        shared: &ConfigShared,
        applied: &mut ServeConfig,
        last_mtime: &mut Option<std::time::SystemTime>,
        force: bool,
    ) {
        let mtime = match std::fs::metadata(path).and_then(|m| m.modified()) {
            Ok(t) => t,
            Err(_) => return, // absent file: nothing to apply yet
        };
        if !force && *last_mtime == Some(mtime) {
            return;
        }
        *last_mtime = Some(mtime);
        let outcome = std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| ServeConfig::parse(&text));
        match outcome {
            Ok(next) if next == *applied => {} // touch without change
            Ok(next) => {
                apply_config(engine, applied, &next);
                *applied = next;
                let seq = shared.reloads.fetch_add(1, Ordering::Relaxed) + 1;
                ring.record(FlightKind::ConfigReload, 1, seq);
            }
            Err(e) => {
                shared.errors.fetch_add(1, Ordering::Relaxed);
                let seq = shared.reloads.load(Ordering::Relaxed);
                ring.record(FlightKind::ConfigReload, 0, seq);
                eprintln!("repro: serve-config {path} rejected: {e} (keeping previous config)");
            }
        }
    }

    fn reloads(&self) -> u64 {
        self.shared.reloads.load(Ordering::Relaxed)
    }

    fn errors(&self) -> u64 {
        self.shared.errors.load(Ordering::Relaxed)
    }
}

impl Drop for ConfigWatcher {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            h.join().ok();
        }
    }
}

/// A one-shot segment deadline: requests a graceful drain `ms` after
/// creation unless the guard is dropped first (segment finished on its
/// own).
struct SegmentTimer {
    cancel: Arc<AtomicBool>,
    fired: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl SegmentTimer {
    fn arm(engine: &Arc<Engine>, ms: u64) -> SegmentTimer {
        let cancel = Arc::new(AtomicBool::new(false));
        let fired = Arc::new(AtomicBool::new(false));
        let thread_cancel = Arc::clone(&cancel);
        let thread_fired = Arc::clone(&fired);
        let engine = Arc::clone(engine);
        let handle = std::thread::Builder::new()
            .name("sw-segment".into())
            .spawn(move || {
                let deadline = Instant::now() + Duration::from_millis(ms);
                while Instant::now() < deadline {
                    if thread_cancel.load(Ordering::Acquire) {
                        return;
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                thread_fired.store(true, Ordering::Release);
                engine.request_drain();
            })
            .expect("spawn segment timer");
        SegmentTimer {
            cancel,
            fired,
            handle: Some(handle),
        }
    }

    /// True when the deadline elapsed and this timer requested the
    /// drain (as opposed to an operator or signal).
    fn fired(&self) -> bool {
        self.fired.load(Ordering::Acquire)
    }
}

impl Drop for SegmentTimer {
    fn drop(&mut self) {
        self.cancel.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            h.join().ok();
        }
    }
}

/// One segment of the service timeline (the `BENCH_serve.json` rows).
#[derive(Clone, Debug, Serialize)]
pub struct SegmentRecord {
    /// Segment index, from 0.
    pub segment: usize,
    /// Packets offered to this segment.
    pub offered: u64,
    /// Packets fully processed by the shards.
    pub processed: u64,
    /// Accounted drops (ingest + shed + steer).
    pub dropped: u64,
    /// Measured throughput for the segment.
    pub mpps: f64,
    /// Segment wall-clock, milliseconds.
    pub elapsed_ms: u64,
    /// True when the segment ended by graceful drain rather than
    /// end-of-trace (deadline, admin request or signal).
    pub interrupted: bool,
    /// Two-axis conservation held for this segment.
    pub conserved: bool,
    /// `runtime.mem.rss_bytes` sampled at segment end.
    pub rss_bytes: u64,
    /// Cumulative `runtime.pool.allocated` at segment end — flat after
    /// segment 0 when the garage is reusing batch pools.
    pub pool_allocated: u64,
    /// Cumulative `runtime.frame_pool.allocated` at segment end.
    pub frame_pool_allocated: u64,
    /// ControlLog entries still buffered at segment end (bounded-log
    /// health: must not ratchet upward across segments).
    pub log_buffered: u64,
    /// Cumulative admin commands applied by the controller.
    pub admin_applied: u64,
    /// Config reloads published by segment end.
    pub config_seq: u64,
}

/// The whole service run, for rendering and machine-readable output.
pub struct ServeOutcome {
    /// Per-segment timeline, in order.
    pub segments: Vec<SegmentRecord>,
    /// Successful config hot-reloads.
    pub config_reloads: u64,
    /// Rejected config reload attempts.
    pub config_errors: u64,
}

impl ServeOutcome {
    /// Every segment satisfied two-axis conservation.
    pub fn all_conserved(&self) -> bool {
        self.segments.iter().all(|s| s.conserved)
    }

    /// Batch-pool allocations after the warm-up segment (0 when the
    /// garage reissues every pool).
    pub fn pool_growth(&self) -> u64 {
        growth(self.segments.iter().map(|s| s.pool_allocated))
    }

    /// Frame-pool allocations after the warm-up segment.
    pub fn frame_pool_growth(&self) -> u64 {
        growth(self.segments.iter().map(|s| s.frame_pool_allocated))
    }

    /// Batch-pool allocations during the *final* segment — the
    /// steady-state signal the soak gate pins. Warm-up can span more
    /// than one segment (a paced pipeline grows its buffer working set
    /// until the recycle channel never runs dry), but once warm the
    /// last segment must allocate nothing.
    pub fn steady_pool_growth(&self) -> u64 {
        last_delta(self.segments.iter().map(|s| s.pool_allocated))
    }

    /// Frame-pool allocations during the final segment.
    pub fn steady_frame_pool_growth(&self) -> u64 {
        last_delta(self.segments.iter().map(|s| s.frame_pool_allocated))
    }

    /// RSS delta from the first segment's sample to the last (may be
    /// negative when the allocator returns memory).
    pub fn rss_growth_bytes(&self) -> i64 {
        match (self.segments.first(), self.segments.last()) {
            (Some(a), Some(b)) => b.rss_bytes as i64 - a.rss_bytes as i64,
            _ => 0,
        }
    }

    /// Tolerated final-segment pool allocations. The recycle channels
    /// deliberately *drop* buffers on overflow (footprint stays bounded
    /// by the channel capacity), so scheduler noise can still trim and
    /// refill the odd buffer — churn, not a leak. A broken garage
    /// re-allocates a whole warm-up per restart, far above this.
    const POOL_SLACK: u64 = 8;

    /// The soak gate: human-readable violations, empty when the run is
    /// endurance-clean. `rss_slack_bytes` absorbs allocator noise.
    pub fn violations(&self, rss_slack_bytes: u64) -> Vec<String> {
        let mut out = Vec::new();
        for s in self.segments.iter().filter(|s| !s.conserved) {
            out.push(format!("segment {}: conservation VIOLATED", s.segment));
        }
        let pools = self.steady_pool_growth();
        if pools > Self::POOL_SLACK {
            out.push(format!(
                "batch pools allocated {pools} time(s) in the final segment (garage not reused)"
            ));
        }
        let frames = self.steady_frame_pool_growth();
        if frames > Self::POOL_SLACK {
            out.push(format!(
                "frame pools allocated {frames} time(s) in the final segment (garage not reused)"
            ));
        }
        let rss = self.rss_growth_bytes();
        if rss > rss_slack_bytes as i64 {
            out.push(format!(
                "RSS grew {rss} bytes across the run (slack {rss_slack_bytes})"
            ));
        }
        out
    }
}

/// Growth of a cumulative counter across the run: last sample minus
/// the end-of-warm-up (first-segment) sample.
fn growth(samples: impl Iterator<Item = u64>) -> u64 {
    let samples: Vec<u64> = samples.collect();
    match (samples.first(), samples.last()) {
        (Some(&first), Some(&last)) => last.saturating_sub(first),
        _ => 0,
    }
}

/// Growth of a cumulative counter during the final segment only.
fn last_delta(samples: impl Iterator<Item = u64>) -> u64 {
    let samples: Vec<u64> = samples.collect();
    match samples.len() {
        0 | 1 => 0,
        n => samples[n - 1].saturating_sub(samples[n - 2]),
    }
}

/// Run service mode and render the per-segment report.
pub fn serve_run(ctx: &ExpCtx, spec: &ServeSpec) -> Table {
    serve_run_full(ctx, spec).0
}

/// [`serve_run`], also handing back the raw [`ServeOutcome`] and the
/// resident [`Engine`] (flight dumps, soak gating).
pub fn serve_run_full(ctx: &ExpCtx, spec: &ServeSpec) -> (Table, ServeOutcome, Arc<Engine>) {
    assert!(spec.segments > 0, "service mode needs at least one segment");
    let replay = replay_data(
        &spec.source,
        || serve_base_trace(spec, ctx.scale),
        spec.packets,
    );

    let mut cfg = EngineConfig::new(spec.shards);
    cfg.batch = spec.batch;
    cfg.host_workers = spec.host_workers;
    cfg.carry_flow_state = spec.carry_flow_state;
    let mut engine =
        Engine::with_registry(cfg.with_control(serve_control_config(spec)), &ctx.registry);
    engine.attach_tracer(&ctx.tracer);
    let engine = Arc::new(engine);

    // SIGINT/SIGTERM mid-segment: the watcher drains the running
    // segment; the loop-top check below then stops the service.
    let _signals = spec
        .heed_interrupt
        .then(|| crate::signal::drain_watch(&engine));
    let server = spec.listen.as_deref().map(|addr| {
        crate::serve::serve_admin(addr, &engine)
            .unwrap_or_else(|e| panic!("repro: binding --listen {addr}: {e}"))
    });
    let watcher = spec.config_path.clone().map(|path| {
        ConfigWatcher::start(path, Arc::clone(&engine), engine.flight().ring("sw-serve"))
    });

    let pace = match spec.rate_mpps {
        Some(r) => Pace::RateMpps(r),
        None => Pace::Flatout,
    };

    let mut segments = Vec::with_capacity(spec.segments);
    engine.clear_drain();
    for segment in 0..spec.segments {
        if spec.heed_interrupt && crate::signal::interrupted() {
            break;
        }
        // A drain latched between segments (POST /admin/drain racing
        // the boundary) stops the service rather than burning a segment
        // on an immediately-drained run.
        if engine.drain_requested() {
            break;
        }
        let timer = (spec.segment_ms > 0).then(|| SegmentTimer::arm(&engine, spec.segment_ms));
        let report = replay.run(&engine, pace);
        // A deadline drain only ends the segment: consume the latch and
        // keep serving. An operator/signal drain ends the service (the
        // latch stays set and the loop-top check breaks).
        let deadline_drain = timer.as_ref().is_some_and(SegmentTimer::fired);
        drop(timer);
        if deadline_drain {
            engine.clear_drain();
        }
        let service = engine.service();
        segments.push(SegmentRecord {
            segment,
            offered: report.offered,
            processed: report.processed(),
            dropped: report.ingest_dropped() + report.shed() + report.steer_dropped(),
            mpps: report.mpps(),
            elapsed_ms: report.elapsed.as_millis() as u64,
            interrupted: report.interrupted,
            conserved: report.conserved(),
            rss_bytes: service.rss_bytes,
            pool_allocated: service.pool_allocated,
            frame_pool_allocated: service.frame_pool_allocated,
            log_buffered: report.log_buffered,
            admin_applied: service.admin_applied,
            config_seq: watcher.as_ref().map(|w| w.reloads()).unwrap_or(0),
        });
    }
    engine.clear_drain();

    let outcome = ServeOutcome {
        segments,
        config_reloads: watcher.as_ref().map(|w| w.reloads()).unwrap_or(0),
        config_errors: watcher.as_ref().map(|w| w.errors()).unwrap_or(0),
    };
    drop(watcher);
    if let Some(server) = server {
        server.shutdown();
    }
    (render(spec, &outcome), outcome, engine)
}

/// The `BENCH_serve.json` schema (field order = emission order).
#[derive(Debug, Serialize)]
struct ServeBenchJson {
    bench: String,
    shards: usize,
    segments: usize,
    segment_packets: usize,
    rate_mpps: Option<f64>,
    carry_flow_state: bool,
    conserved: bool,
    pool_growth: u64,
    frame_pool_growth: u64,
    steady_pool_growth: u64,
    steady_frame_pool_growth: u64,
    rss_first_bytes: u64,
    rss_last_bytes: u64,
    rss_growth_bytes: i64,
    config_reloads: u64,
    config_errors: u64,
    timeline: Vec<SegmentRecord>,
}

/// The soak/service CI artifact (`BENCH_serve.json`): headline
/// endurance verdicts plus the full per-segment timeline.
pub fn serve_bench_json(spec: &ServeSpec, out: &ServeOutcome) -> String {
    let v = ServeBenchJson {
        bench: "serve".to_string(),
        shards: spec.shards,
        segments: out.segments.len(),
        segment_packets: spec.packets,
        rate_mpps: spec.rate_mpps,
        carry_flow_state: spec.carry_flow_state,
        conserved: out.all_conserved(),
        pool_growth: out.pool_growth(),
        frame_pool_growth: out.frame_pool_growth(),
        steady_pool_growth: out.steady_pool_growth(),
        steady_frame_pool_growth: out.steady_frame_pool_growth(),
        rss_first_bytes: out.segments.first().map(|s| s.rss_bytes).unwrap_or(0),
        rss_last_bytes: out.segments.last().map(|s| s.rss_bytes).unwrap_or(0),
        rss_growth_bytes: out.rss_growth_bytes(),
        config_reloads: out.config_reloads,
        config_errors: out.config_errors,
        timeline: out.segments.clone(),
    };
    serde_json::to_string_pretty(&v).expect("serve report serializes")
}

fn render(spec: &ServeSpec, out: &ServeOutcome) -> Table {
    let mut t = Table::new(
        "serve",
        "persistent service mode (resident engine, drain/restart segments)",
        &[
            "seg",
            "offered",
            "processed",
            "dropped",
            "Mpps",
            "end",
            "conserved",
            "rss MiB",
            "pools",
            "admin",
            "cfg",
        ],
    );
    for s in &out.segments {
        t.row(vec![
            s.segment.to_string(),
            s.offered.to_string(),
            s.processed.to_string(),
            s.dropped.to_string(),
            format!("{:.3}", s.mpps),
            if s.interrupted { "drain" } else { "eot" }.to_string(),
            if s.conserved { "OK" } else { "VIOLATED" }.to_string(),
            format!("{:.1}", s.rss_bytes as f64 / (1 << 20) as f64),
            s.pool_allocated.to_string(),
            s.admin_applied.to_string(),
            s.config_seq.to_string(),
        ]);
    }
    t.note(format!(
        "segments: {} requested, {} run; carry_flow_state={}",
        spec.segments,
        out.segments.len(),
        spec.carry_flow_state,
    ));
    t.note(format!(
        "endurance: pool growth {} total / {} in the final segment \
         (frame pools {} / {}), RSS {:+} bytes first→last segment",
        out.pool_growth(),
        out.steady_pool_growth(),
        out.frame_pool_growth(),
        out.steady_frame_pool_growth(),
        out.rss_growth_bytes(),
    ));
    t.note(format!(
        "conservation: {} (two-axis, every segment)",
        if out.all_conserved() {
            "OK"
        } else {
            "VIOLATED"
        }
    ));
    if out.config_reloads + out.config_errors > 0 {
        t.note(format!(
            "config hot-reloads: {} applied, {} rejected",
            out.config_reloads, out.config_errors
        ));
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_spec() -> ServeSpec {
        ServeSpec {
            packets: 20_000,
            rate_mpps: None,
            segments: 3,
            ..ServeSpec::default()
        }
    }

    #[test]
    fn multi_segment_service_conserves_with_flat_pools() {
        let ctx = ExpCtx::new(1);
        let (t, out, _) = serve_run_full(&ctx, &quick_spec());
        assert_eq!(out.segments.len(), 3);
        assert!(out.all_conserved());
        // The garage reuses pools across segments: once warm, the
        // final segment allocates (at most transient-churn) nothing.
        // A broken garage re-allocates a whole warm-up per restart.
        assert!(
            out.steady_pool_growth() <= 8,
            "garage must reuse batch pools (final-segment growth {})",
            out.steady_pool_growth()
        );
        assert!(t.notes.iter().any(|n| n.contains("conservation: OK")));
        // Violations with a generous RSS slack: endurance-clean.
        assert!(out.violations(64 << 20).is_empty());
        let json = serve_bench_json(&quick_spec(), &out);
        let v: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        assert_eq!(v["bench"].as_str(), Some("serve"));
        assert_eq!(v["segments"].as_u64(), Some(3));
        assert_eq!(v["conserved"].as_bool(), Some(true));
        assert!(v["pool_growth"].as_u64().is_some());
        assert_eq!(v["timeline"].as_array().map(|a| a.len()), Some(3));
    }

    #[test]
    fn admin_edit_and_config_reload_are_visible_in_the_service_run() {
        let ctx = ExpCtx::new(1);
        let dir = std::env::temp_dir();
        let path = dir.join("sw_serve_config_test.json");
        std::fs::write(&path, r#"{"blacklist": [12345], "force_shed": false}"#).unwrap();
        let spec = ServeSpec {
            packets: 60_000,
            rate_mpps: Some(0.5),
            segments: 2,
            config_path: Some(path.to_string_lossy().into_owned()),
            listen: Some("127.0.0.1:0".to_string()),
            ..ServeSpec::default()
        };
        let (_, out, engine) = serve_run_full(&ctx, &spec);
        std::fs::remove_file(&path).ok();
        assert!(out.all_conserved());
        assert_eq!(out.config_reloads, 1, "startup config counts as a reload");
        assert_eq!(out.config_errors, 0);
        // The blacklist edit and shed pin were applied by the
        // controller (admin_applied counts them) and the reload is in
        // the flight recorder.
        assert!(engine.admin_applied() >= 2);
        let flight = engine.flight().to_json();
        assert!(flight.contains("config_reload"));
        assert!(flight.contains("admin_edit"));
        // And the service state shows up in /stats.json.
        let stats = serde_json::to_value(&crate::serve::StatsDoc::of(&engine)).expect("stats");
        assert!(stats["service"]["admin_applied"].as_u64().unwrap_or(0) >= 2);
    }

    #[test]
    fn bad_config_is_rejected_and_the_run_survives() {
        let ctx = ExpCtx::new(1);
        let dir = std::env::temp_dir();
        let path = dir.join("sw_serve_bad_config_test.json");
        std::fs::write(&path, r#"{"rate_mpps": "fast"}"#).unwrap();
        let spec = ServeSpec {
            packets: 20_000,
            rate_mpps: None,
            segments: 1,
            config_path: Some(path.to_string_lossy().into_owned()),
            ..ServeSpec::default()
        };
        let (_, out, engine) = serve_run_full(&ctx, &spec);
        std::fs::remove_file(&path).ok();
        assert!(out.all_conserved());
        assert_eq!(out.config_reloads, 0);
        assert_eq!(out.config_errors, 1);
        assert!(engine.rate_override().is_none());
    }

    #[test]
    fn segment_deadline_drains_gracefully_and_still_conserves() {
        let ctx = ExpCtx::new(1);
        let spec = ServeSpec {
            packets: 4_000_000, // far more than 50 ms of paced replay
            rate_mpps: Some(0.5),
            segments: 2,
            segment_ms: 50,
            ..ServeSpec::default()
        };
        let (_, out, _) = serve_run_full(&ctx, &spec);
        assert_eq!(out.segments.len(), 2);
        for s in &out.segments {
            assert!(s.interrupted, "deadline must drain the segment");
            assert!(s.conserved, "drained segment must still conserve");
            assert!(s.offered < 4_000_000);
        }
    }

    #[test]
    fn config_parses_validates_and_diffs() {
        let cfg = ServeConfig::parse(
            r#"{"rate_mpps": 1.5, "force_shed": true, "blacklist": [1, 2], "whitelist": [9]}"#,
        )
        .unwrap();
        assert_eq!(cfg.rate_mpps, Some(1.5));
        assert_eq!(cfg.force_shed, Some(true));
        assert_eq!(cfg.blacklist, vec![1, 2]);
        assert!(ServeConfig::parse(r#"{"rate_mpps": -1}"#).is_err());
        assert!(ServeConfig::parse(r#"{"surprise": 1}"#).is_err());
        assert!(ServeConfig::parse("[]").is_err());

        let next = ServeConfig::parse(r#"{"blacklist": [2, 3], "force_shed": null}"#).unwrap();
        let cmds = cfg.diff(&next);
        assert!(cmds.contains(&AdminCmd::BlacklistAdd(3)));
        assert!(cmds.contains(&AdminCmd::BlacklistRemove(1)));
        assert!(cmds.contains(&AdminCmd::WhitelistRemove(9)));
        assert!(cmds.contains(&AdminCmd::ForceShed(None)));
        assert_eq!(cmds.len(), 4);
        // No-op diff queues nothing.
        assert!(cfg.diff(&cfg.clone()).is_empty());
    }
}
