//! Service-mode invariants: a resident engine run back-to-back must
//! behave like a fresh one on every axis that matters — per-segment
//! conservation, flat pool-allocation counters across the restart
//! boundary (the zero-steady-state-allocation claim the soak harness
//! pins), graceful drain that quiesces exactly like end-of-trace,
//! carried FlowCaches that actually warm the next segment, and admin
//! steering edits that land at epoch boundaries and drop at dispatch.

use smartwatch_net::{Dur, FlowHasher, FlowKey, FrameStore, Packet, PacketBuilder};
use smartwatch_runtime::{
    AdminCmd, ControlConfig, DatapathMode, Engine, EngineConfig, EngineReport, Pace,
};
use smartwatch_telemetry::Registry;
use smartwatch_trace::background::{preset_trace, Preset};
use smartwatch_trace::compile::compile_cycled;
use std::time::{Duration, Instant};

const DATAPATHS: [DatapathMode; 2] = [DatapathMode::Pipeline, DatapathMode::Rtc];

fn workload(flows: usize, seed: u64) -> Vec<Packet> {
    preset_trace(Preset::Caida2018, flows, Dur::from_millis(500), seed).into_packets()
}

/// `total` packets of CAIDA background, both as model packets and as
/// the compiled wire frames of the same cycle — the two sources an
/// engine replays (`run` and `run_frames`).
fn both_sources(flows: usize, seed: u64, total: usize) -> (Vec<Packet>, FrameStore) {
    let trace = preset_trace(Preset::Caida2018, flows, Dur::from_millis(500), seed);
    let packets = trace
        .packets()
        .iter()
        .cycle()
        .take(total)
        .copied()
        .collect();
    (packets, compile_cycled(&trace, total))
}

/// Replay one of the two sources.
fn replay(
    engine: &Engine,
    wire: bool,
    packets: &[Packet],
    store: &FrameStore,
    pace: Pace,
) -> EngineReport {
    if wire {
        engine.run_frames(store, pace)
    } else {
        engine.run(packets, pace)
    }
}

/// Buffer-pool recycle channels shed on `try_send` overflow by design
/// (bounded footprint beats a blocking hot path), so a heavily loaded
/// scheduler can trim a buffer mid-segment and re-allocate it later.
/// The invariant is *bounded churn at steady state*, not bit-exact
/// zero — the same slack `repro soak` gates on.
const POOL_SLACK: u64 = 8;

/// Shallow lanes: flat-out dispatch saturates every lane (it
/// backpressures rather than drops), so the first segment's working
/// set hits the structural cap and later segments cannot out-demand
/// it under scheduler noise — the flatness assertion stays exact
/// however the test host schedules threads.
const SHALLOW_LANES: usize = 4;

#[test]
fn back_to_back_segments_conserve_with_flat_pool_counters() {
    let packets = workload(300, 29);
    let registry = Registry::new();
    let mut cfg = EngineConfig::new(2);
    cfg.host_workers = 1;
    cfg.queue_batches = SHALLOW_LANES;
    let engine = Engine::with_registry(cfg, &registry);
    let allocated = registry.counter("runtime.pool.allocated", &[]);

    let first = engine.run(&packets, Pace::Flatout);
    assert!(first.conserved(), "segment 1 violates conservation");
    assert_eq!(first.offered, packets.len() as u64);
    assert_eq!(first.processed(), first.offered);
    let after_first = allocated.get();
    assert!(after_first > 0, "segment 1 must warm the pool");

    let second = engine.run(&packets, Pace::Flatout);
    assert!(second.conserved(), "segment 2 violates conservation");
    assert_eq!(
        second.offered,
        packets.len() as u64,
        "a resident engine reports per-run numbers, not cumulative ones"
    );
    assert_eq!(second.processed(), second.offered);
    assert!(
        allocated.get() - after_first <= POOL_SLACK,
        "segment 2 re-allocated {} buffers — the garage must hand the \
         warmed pool back across the restart boundary",
        allocated.get() - after_first
    );
}

#[test]
fn wire_segments_keep_the_frame_pool_flat_across_restart() {
    let trace = preset_trace(Preset::Caida2018, 200, Dur::from_millis(500), 31);
    let store = compile_cycled(&trace, trace.len() * 2);
    // Two RTC cores park two frame pools; each must get its own back.
    for datapath in DATAPATHS {
        let registry = Registry::new();
        let mut cfg = EngineConfig::new(2);
        cfg.datapath = datapath;
        cfg.queue_batches = SHALLOW_LANES;
        let engine = Engine::with_registry(cfg, &registry);
        let frames = registry.counter("runtime.frame_pool.allocated", &[]);
        let bufs = registry.counter("runtime.pool.allocated", &[]);

        let first = engine.run_frames(&store, Pace::Flatout);
        assert!(
            first.conserved(),
            "{datapath:?}: wire segment 1 violates conservation"
        );
        assert_eq!(first.offered, (trace.len() * 2) as u64);
        let (frames_1, bufs_1) = (frames.get(), bufs.get());
        assert!(frames_1 > 0, "the wire path must materialise frame slots");

        let second = engine.run_frames(&store, Pace::Flatout);
        assert!(
            second.conserved(),
            "{datapath:?}: wire segment 2 violates conservation"
        );
        assert_eq!(second.offered, first.offered);
        assert!(
            frames.get() - frames_1 <= POOL_SLACK,
            "{datapath:?}: frame pool grew {} slots across the restart",
            frames.get() - frames_1
        );
        assert!(
            bufs.get() - bufs_1 <= POOL_SLACK,
            "{datapath:?}: batch pool grew {} buffers across the restart",
            bufs.get() - bufs_1
        );
    }
}

#[test]
fn drain_mid_run_quiesces_conserved_and_the_engine_restarts() {
    let total: usize = 200_000;
    let (stream, store) = both_sources(300, 37, total);
    for datapath in DATAPATHS {
        for wire in [false, true] {
            let what = format!("{datapath:?}, wire={wire}");
            let mut cfg = EngineConfig::new(2);
            cfg.datapath = datapath;
            let engine = Engine::new(cfg);
            let run = |pace| replay(&engine, wire, &stream, &store, pace);

            // 0.2 Mpps over 200k packets is a ~1 s run; the drain lands
            // well inside it. (If a pathologically slow start means the
            // drain beats the first checkpoint, the run still stops
            // interrupted+conserved — the assertions below hold either
            // way.)
            let report = std::thread::scope(|s| {
                s.spawn(|| {
                    std::thread::sleep(Duration::from_millis(60));
                    engine.request_drain();
                });
                run(Pace::RateMpps(0.2))
            });
            assert!(
                report.interrupted,
                "{what}: the drain request must cut the run short"
            );
            assert!(
                report.offered < total as u64,
                "{what}: a drained run reports what was actually offered"
            );
            assert!(
                report.conserved(),
                "{what}: a drained segment must quiesce exactly like end-of-trace:\n{}",
                report.deterministic_summary()
            );

            // The latch is sticky by design (operator intent survives the
            // segment boundary); clearing it restarts service cleanly.
            assert!(engine.drain_requested());
            engine.clear_drain();
            let next = run(Pace::Flatout);
            assert!(
                !next.interrupted,
                "{what}: a cleared latch must not re-fire"
            );
            assert_eq!(next.offered, total as u64, "{what}");
            assert!(
                next.conserved(),
                "{what}: the post-drain segment violates conservation"
            );
        }
    }
}

#[test]
fn a_drain_during_a_paced_wait_stops_the_run_within_one_wait_slice() {
    // At 0.001 Mpps each 256-packet checkpoint block is due 256 ms after
    // the previous one: every ingest unit offers its first block, then
    // waits. The drain lands 30 ms into that wait and must end the run
    // there — not after the wait, and without offering another block.
    let total: usize = 20_000;
    let (stream, store) = both_sources(300, 47, total);
    for datapath in DATAPATHS {
        for wire in [false, true] {
            let what = format!("{datapath:?}, wire={wire}");
            let mut cfg = EngineConfig::new(2);
            cfg.datapath = datapath;
            let units = cfg.ingest_units() as u64;
            let engine = Engine::new(cfg);
            let (report, after_drain) = std::thread::scope(|s| {
                let drained_at = s.spawn(|| {
                    std::thread::sleep(Duration::from_millis(30));
                    engine.request_drain();
                    Instant::now()
                });
                let report = replay(&engine, wire, &stream, &store, Pace::RateMpps(0.001));
                let returned = Instant::now();
                let drained_at = drained_at.join().expect("drain thread");
                (report, returned.saturating_duration_since(drained_at))
            });
            assert!(
                report.interrupted,
                "{what}: the drain must cut the run short"
            );
            assert!(
                report.conserved(),
                "{what}: a drain mid-wait must quiesce conserved:\n{}",
                report.deterministic_summary()
            );
            assert!(
                after_drain < Duration::from_millis(150),
                "{what}: the run returned {after_drain:?} after the drain request — \
                 the wait must re-check the flag instead of sleeping out the block"
            );
            assert!(
                report.offered <= 256 * units,
                "{what}: only each unit's first block may be offered, got {}",
                report.offered
            );
        }
    }
}

#[test]
fn carried_flow_state_warms_the_second_segment() {
    let packets = workload(300, 41);
    let run_pair = |carry: bool| {
        let mut cfg = EngineConfig::new(2);
        cfg.host_workers = 0; // inline triage: deterministic access mix
        cfg.carry_flow_state = carry;
        let engine = Engine::new(cfg);
        let a = engine.run(&packets, Pace::Flatout);
        let b = engine.run(&packets, Pace::Flatout);
        assert!(a.conserved() && b.conserved());
        (a, b)
    };

    // Cold restarts repeat the identical run: every segment pays the
    // full new-flow insertion cost again.
    let (cold_1, cold_2) = run_pair(false);
    assert!(cold_1.flowcache.misses > 0, "fresh caches must miss");
    assert_eq!(
        cold_2.flowcache.misses, cold_1.flowcache.misses,
        "without carry, segment 2 starts cold and repeats segment 1"
    );

    // Carried caches make segment 2 a warm replay: the access mix is
    // per-run (tallied on the shard thread, reset each segment), so the
    // drop in misses is attributable to the carried state alone.
    let (warm_1, warm_2) = run_pair(true);
    assert_eq!(warm_1.flowcache.misses, cold_1.flowcache.misses);
    assert!(
        warm_2.flowcache.misses * 10 <= warm_1.flowcache.misses,
        "carried FlowCaches must absorb the repeat workload: segment 2 \
         missed {} of segment 1's {}",
        warm_2.flowcache.misses,
        warm_1.flowcache.misses
    );
    assert!(
        warm_2.flowcache.p_hits + warm_2.flowcache.e_hits >= warm_1.flowcache.p_hits,
        "the warm segment converts misses into hits"
    );
}

#[test]
fn admin_blacklist_lands_at_an_epoch_boundary_and_drops_at_dispatch() {
    use std::net::Ipv4Addr;

    // CAIDA background interleaved with one persistent target flow so
    // the blacklist keeps seeing traffic after the edit applies.
    let base = workload(300, 43);
    let key = FlowKey::tcp(
        Ipv4Addr::new(203, 0, 113, 77),
        40_001,
        Ipv4Addr::new(10, 0, 0, 1),
        443,
    );
    let mut stream = Vec::with_capacity(60_000);
    for pkt in base.iter().cycle() {
        if stream.len() >= 60_000 {
            break;
        }
        stream.push(*pkt);
        stream.push(PacketBuilder::new(key, pkt.ts).build());
    }

    // Controller attached (steering snapshots need the epoch thread) but
    // with thresholds parked far above the drive: no shedding or mode
    // churn muddies the steering assertion.
    let ctrl = ControlConfig {
        epoch_ms: 2,
        shed_on_mpps: 1_000.0,
        shed_off_mpps: 100.0,
        ..ControlConfig::default()
    };
    for datapath in DATAPATHS {
        let mut cfg = EngineConfig::new(2).with_control(ctrl.clone());
        cfg.datapath = datapath;
        let digest = FlowHasher::new(cfg.hash_seed).digest_symmetric(&key).1;
        let engine = Engine::new(cfg);

        assert!(engine.admin(AdminCmd::BlacklistAdd(digest.0)));
        // 0.3 Mpps over 60k packets is a ~200 ms run — dozens of epoch
        // boundaries after the edit applies at the first one (~2 ms in).
        let report = engine.run(&stream, Pace::RateMpps(0.3));
        assert!(
            report.conserved(),
            "{datapath:?}: steer drops must stay inside the conservation identity:\n{}",
            report.deterministic_summary()
        );
        assert!(
            engine.admin_applied() >= 1,
            "{datapath:?}: the queued edit must drain at an epoch boundary"
        );
        assert!(
            report.steer_dropped() > 0,
            "{datapath:?}: the blacklisted flow must drop at ingest, not at the shard"
        );
        let q_steer: u64 = report.queues.iter().map(|q| q.steer_dropped).sum();
        assert_eq!(
            q_steer,
            report.steer_dropped(),
            "{datapath:?}: steer drops are accounted on both conservation axes"
        );
    }
}
