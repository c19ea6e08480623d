//! Control-plane integration: the engine with a controller attached
//! must keep exact accounting while the feedback loop flips live cache
//! modes, publishes steering snapshots and sheds load.
//!
//! These tests run on the wall clock, so they assert *invariants*
//! (conservation, timeline ordering, recovery) rather than exact
//! counter values. The rates are chosen so even a slow debug-profile
//! machine dispatches well above the spike threshold and well below the
//! recovery threshold.

use smartwatch_net::{Dur, Packet};
use smartwatch_runtime::{ControlConfig, DatapathMode, Engine, EngineConfig, Pace};
use smartwatch_snic::Mode;
use smartwatch_trace::background::{preset_trace, Preset};

fn workload(total: usize) -> Vec<Packet> {
    let base = preset_trace(Preset::Caida2018, 400, Dur::from_millis(500), 23).into_packets();
    assert!(!base.is_empty());
    base.iter().cycle().take(total).copied().collect()
}

/// A controller tuned for test time-scales: 2 ms epochs, thresholds
/// bracketing a 0.2 Mpps base / 2.0 Mpps spike drive.
fn test_control() -> ControlConfig {
    ControlConfig {
        epoch_ms: 2,
        eta_lite_mpps: 0.5,     // per-shard; spike offers ~1.0 per shard
        eta_general_mpps: 0.15, // base offers ~0.1 per shard
        shed_on_mpps: 1.5,      // aggregate; spike offers 2.0
        shed_off_mpps: 0.4,     // base offers 0.2
        shed_sustain_epochs: 2,
        ..ControlConfig::default()
    }
}

fn spike() -> Pace {
    Pace::Spike {
        base_mpps: 0.2,
        peak_mpps: 2.0,
        spike_start: 0.2,
        spike_end: 0.8,
    }
}

/// The spike drive for one datapath: (engine config, pace, packets).
/// The pipeline's dispatcher only digests and steers, so it offers the
/// full 2.0 Mpps spike and lane overruns count as offered load. A fused
/// RTC core never drops at ingest — it self-backpressures — so the
/// controller sees only what the cores actually process, and the drive
/// must stay inside a debug build's per-core capacity: every rate and
/// threshold ten times lower. At those rates a 64-packet batch is a
/// large share of one epoch's count, so the cores book ingest every 16
/// packets and epochs last 10 ms, keeping each epoch's rate reading
/// within a few percent.
fn spike_drive(datapath: DatapathMode) -> (EngineConfig, Pace, usize) {
    match datapath {
        DatapathMode::Pipeline => (
            EngineConfig::new(2).with_control(test_control()),
            spike(),
            100_000,
        ),
        DatapathMode::Rtc => {
            let mut cfg = EngineConfig::new(2).with_control(ControlConfig {
                epoch_ms: 10,
                eta_lite_mpps: 0.05,
                eta_general_mpps: 0.015,
                shed_on_mpps: 0.15,
                shed_off_mpps: 0.04,
                shed_sustain_epochs: 2,
                ..ControlConfig::default()
            });
            cfg.datapath = DatapathMode::Rtc;
            cfg.batch = 16;
            let pace = Pace::Spike {
                base_mpps: 0.02,
                peak_mpps: 0.2,
                spike_start: 0.2,
                spike_end: 0.8,
            };
            (cfg, pace, 30_000)
        }
    }
}

#[test]
fn controlled_spike_conserves_and_recovers() {
    for datapath in [DatapathMode::Pipeline, DatapathMode::Rtc] {
        let (cfg, pace, packets) = spike_drive(datapath);
        let report = Engine::new(cfg).run(&workload(packets), pace);

        // Exact accounting survives shedding and steering: every offered
        // packet is processed or in a named drop counter.
        assert!(
            report.conserved(),
            "{datapath:?}: conservation violated:\n{:?}",
            report.shards
        );

        let ctrl = report.control.as_ref().expect("controller ran");
        assert!(ctrl.epochs > 10, "{datapath:?}: epochs over a ≥200 ms run");

        // The spike must drive Algorithm 4 into Lite on at least one
        // shard, and the calm tail must bring every shard back to General.
        let lite_switches = ctrl
            .timeline
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    smartwatch_runtime::ControlEvent::ModeSwitch {
                        mode: Mode::Lite,
                        ..
                    }
                )
            })
            .count();
        assert!(
            lite_switches > 0,
            "{datapath:?}: spike must record a General→Lite switch in the timeline"
        );
        assert!(
            ctrl.mode_switches >= 2,
            "{datapath:?}: spike then recovery implies at least one flip each way, got {}",
            ctrl.mode_switches
        );
        assert!(
            ctrl.final_modes.iter().all(|&m| m == Mode::General),
            "{datapath:?}: calm tail must recover General, got {:?}",
            ctrl.final_modes
        );
        assert!(
            !ctrl.shed_active,
            "{datapath:?}: shedding must release after the spike"
        );

        // Load shedding engaged during the sustained overload and its
        // drops are accounted in the shard counters the report sums.
        assert!(
            ctrl.shed_epochs > 0,
            "{datapath:?}: a spike above shed_on must shed"
        );
        assert!(
            report.shed() > 0,
            "{datapath:?}: shed epochs imply shed packets"
        );
        assert_eq!(
            ctrl.shed_packets,
            report.shed(),
            "{datapath:?}: controller's shed accounting must match the shard counters"
        );
    }
}

#[test]
fn controlled_spike_is_safe_at_every_queue_count() {
    // The same spike drive over one pipeline dispatcher and over two
    // and four RTC cores, each core pacing its own sub-stream against
    // the *global* arrival schedule, so the controller sees the same
    // offered-rate shape and the safety invariants must hold unchanged.
    // (Whether shedding engages depends on wall-clock scheduling
    // headroom, so this sweep asserts the invariants, not the overload
    // response itself.)
    for (datapath, units) in [
        (DatapathMode::Pipeline, 1usize),
        (DatapathMode::Rtc, 2),
        (DatapathMode::Rtc, 4),
    ] {
        let (mut cfg, pace, packets) = spike_drive(datapath);
        if datapath == DatapathMode::Rtc {
            cfg.shards = units;
        }
        let report = Engine::new(cfg).run(&workload(packets), pace);
        assert!(
            report.conserved(),
            "{datapath:?}×{units}: conservation violated:\n{:?}\n{:?}",
            report.shards,
            report.queues
        );
        assert_eq!(report.queues.len(), units);
        let ctrl = report.control.as_ref().expect("controller ran");
        assert!(
            ctrl.epochs > 10,
            "{datapath:?}×{units}: epochs over a ≥200 ms run"
        );
        assert!(
            ctrl.final_modes.iter().all(|&m| m == Mode::General),
            "{datapath:?}×{units}: calm tail must recover General, got {:?}",
            ctrl.final_modes
        );
        assert!(
            !ctrl.shed_active,
            "{datapath:?}×{units}: shedding must release after the spike"
        );
        assert_eq!(
            ctrl.shed_packets,
            report.shed(),
            "{datapath:?}×{units}: controller's shed accounting must match the shards"
        );
        // Steering + shedding drops are enforced per ingest unit; their
        // per-queue tallies must sum to the report aggregates.
        let q_shed: u64 = report.queues.iter().map(|q| q.shed).sum();
        let q_steer: u64 = report.queues.iter().map(|q| q.steer_dropped).sum();
        assert_eq!(q_shed, report.shed());
        assert_eq!(q_steer, report.steer_dropped());
    }
}

#[test]
fn live_mode_switches_touch_every_shard_cache_safely() {
    let cfg = EngineConfig::new(2).with_control(test_control());
    let engine = Engine::new(cfg);
    let report = engine.run(&workload(100_000), spike());
    let ctrl = report.control.expect("controller ran");
    assert!(ctrl.mode_switches > 0);

    // The shards applied the controller's decisions to their *live*
    // caches: the snic-side counter ticks once per applied set_mode.
    // (Registered per policy label; sum across all series.)
    let snap = engine.registry().snapshot();
    let applied: u64 = snap
        .counters
        .iter()
        .filter(|(id, _)| id.name == "snic.cache.mode_switches")
        .map(|&(_, v)| v)
        .sum();
    assert!(applied > 0, "mode decisions must reach the live FlowCaches");
}

#[test]
fn engine_without_control_reports_none_and_zero_shed() {
    let cfg = EngineConfig::new(2);
    let report = Engine::new(cfg).run(&workload(20_000), Pace::Flatout);
    assert!(report.control.is_none());
    assert_eq!(report.shed(), 0);
    assert_eq!(report.steer_dropped(), 0);
    assert!(report.conserved());
}
