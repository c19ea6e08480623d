//! Wire data-plane invariants: replaying a compiled [`FrameStore`]
//! through the engine must be *indistinguishable* from replaying the
//! packets it was compiled from — byte-identical deterministic
//! summaries on either datapath — and the pcap-sourced path must keep
//! exact two-axis conservation. The frame pool telemetry pins the
//! zero-copy claim: steady state never allocates past the per-unit
//! warm-up burst.

use smartwatch_net::{pcap, Dur, FrameStore};
use smartwatch_runtime::{DatapathMode, Engine, EngineConfig, Pace};
use smartwatch_trace::background::{preset_trace, Preset};
use smartwatch_trace::compile::{compile, compile_cycled};
use smartwatch_trace::Trace;

fn workload(flows: usize, seed: u64) -> Trace {
    preset_trace(Preset::Caida2018, flows, Dur::from_millis(500), seed)
}

#[test]
fn compiled_replay_summary_is_byte_identical_to_synthetic() {
    let trace = workload(300, 0xBEEF);
    let store = compile(&trace);
    for datapath in [DatapathMode::Pipeline, DatapathMode::Rtc] {
        let mut cfg = EngineConfig::deterministic();
        cfg.datapath = datapath;
        let synthetic = Engine::new(cfg.clone())
            .run(trace.packets(), Pace::Flatout)
            .deterministic_summary();
        let wire = Engine::new(cfg)
            .run_frames(&store, Pace::Flatout)
            .deterministic_summary();
        assert_eq!(
            synthetic, wire,
            "compiled replay diverged from the synthetic run on {datapath:?}"
        );
    }
}

#[test]
fn batched_cache_path_is_byte_identical_on_the_wire_path() {
    // The memory-level-parallel cache path must be decision-invisible on
    // compiled wire frames exactly as on synthetic packets: per-packet
    // (burst 1) and batched (burst 8) replays of the same store produce
    // byte-identical summaries on both datapaths.
    let trace = workload(300, 0xBEEF);
    let store = compile_cycled(&trace, trace.len() * 2);
    for datapath in [DatapathMode::Pipeline, DatapathMode::Rtc] {
        let run = |burst: usize| {
            let mut cfg = EngineConfig::deterministic();
            cfg.datapath = datapath;
            cfg.cache_burst = burst;
            Engine::new(cfg)
                .run_frames(&store, Pace::Flatout)
                .deterministic_summary()
        };
        assert_eq!(
            run(1),
            run(8),
            "batched wire replay diverged from per-packet on {datapath:?}"
        );
    }
}

#[test]
fn cycled_compiled_replay_conserves_across_mesh_shapes() {
    let trace = workload(150, 7);
    let total = trace.len() * 3 + 11;
    let store = compile_cycled(&trace, total);
    for (shards, datapath) in [
        (1, DatapathMode::Pipeline),
        (3, DatapathMode::Pipeline),
        (2, DatapathMode::Rtc),
        (3, DatapathMode::Rtc),
    ] {
        let mut cfg = EngineConfig::new(shards);
        cfg.datapath = datapath;
        let report = Engine::new(cfg).run_frames(&store, Pace::Flatout);
        assert_eq!(report.offered, total as u64);
        assert_eq!(report.processed(), total as u64, "flatout never drops");
        assert!(
            report.conserved(),
            "conservation violated at shards={shards} on {datapath:?}"
        );
    }
}

#[test]
fn pcap_sourced_replay_matches_packet_replay_and_conserves() {
    // Round-trip the workload through the capture format: the engine
    // sees exactly what a monitor replaying the pcap would.
    let trace = workload(200, 99);
    let bytes = pcap::write(trace.packets());
    let store = FrameStore::from_pcap(&bytes).expect("own pcap output parses");
    assert_eq!(store.len(), trace.len());

    let mut cfg = EngineConfig::new(2);
    cfg.datapath = DatapathMode::Rtc;
    let report = Engine::new(cfg).run_frames(&store, Pace::Flatout);
    assert_eq!(report.offered, trace.len() as u64);
    assert_eq!(report.processed(), trace.len() as u64);
    assert!(report.conserved());

    // The pcap-built store must also replay deterministically against
    // *itself* (pcap drops labels/digests, so it is not byte-identical
    // to the synthetic run — but two same-seed wire runs must be, and
    // the two datapaths must agree).
    let run = |datapath: DatapathMode| {
        let mut cfg = EngineConfig::deterministic();
        cfg.datapath = datapath;
        Engine::new(cfg)
            .run_frames(&store, Pace::Flatout)
            .deterministic_summary()
    };
    let a = run(DatapathMode::Pipeline);
    assert_eq!(a, run(DatapathMode::Pipeline));
    assert_eq!(a, run(DatapathMode::Rtc));
}

#[test]
fn paced_wire_replay_keeps_conservation_under_drops() {
    let trace = workload(150, 3);
    let store = compile_cycled(&trace, 60_000);
    // Tiny lanes force pipeline overruns at a hot rate; two RTC cores
    // pace their own sub-streams against the same schedule.
    for datapath in [DatapathMode::Pipeline, DatapathMode::Rtc] {
        let mut cfg = EngineConfig::new(2);
        cfg.datapath = datapath;
        cfg.queue_batches = 2;
        let report = Engine::new(cfg).run_frames(&store, Pace::RateMpps(20.0));
        assert!(
            report.conserved(),
            "{datapath:?}: drops must stay exactly accounted"
        );
        assert_eq!(report.processed() + report.ingest_dropped(), report.offered);
    }
}

#[test]
fn frame_pool_stays_within_warmup_allocations() {
    let trace = workload(120, 5);
    let total = 40_000;
    let store = compile_cycled(&trace, total);
    let mut cfg = EngineConfig::new(2);
    cfg.datapath = DatapathMode::Rtc;
    let engine = Engine::new(cfg);
    let report = engine.run_frames(&store, Pace::Flatout);
    assert!(report.conserved());

    // Every frame load is either a fresh slot or a recycled one; after
    // the 8-slot warm-up burst per ingest unit (two RTC cores), loads
    // must only recycle.
    let allocated = engine
        .registry()
        .counter("runtime.frame_pool.allocated", &[])
        .get();
    let recycled = engine
        .registry()
        .counter("runtime.frame_pool.recycled", &[])
        .get();
    assert!(
        allocated <= 8 * 2,
        "wire path allocated {allocated} frame slots — steady state must reuse the warm-up burst"
    );
    assert_eq!(
        allocated + recycled,
        total as u64,
        "every offered frame passes through the pool exactly once"
    );
}
