//! Engine invariants: conservation under every shard count, ingest-unit
//! count and pacing mode, and bit-exact determinism in single-shard
//! inline mode on both datapaths.

use smartwatch_net::Dur;
use smartwatch_runtime::{DatapathMode, Engine, EngineConfig, Pace};
use smartwatch_trace::background::{preset_trace, Preset};

fn workload(flows: usize, seed: u64) -> Vec<smartwatch_net::Packet> {
    preset_trace(Preset::Caida2018, flows, Dur::from_millis(500), seed).into_packets()
}

/// CAIDA background interleaved with an SSH brute-force sweep, so runs
/// exercise escalation, triage verdicts and enforced blacklist drops —
/// the paths that would expose a processing-order dependence.
fn hostile_workload(total: usize) -> Vec<smartwatch_net::Packet> {
    use smartwatch_net::{FlowKey, PacketBuilder};
    use std::net::Ipv4Addr;

    let base = workload(300, 17);
    let mut out = Vec::with_capacity(total);
    let mut sweep = 0u32;
    for (i, pkt) in base.iter().cycle().enumerate() {
        if out.len() >= total {
            break;
        }
        out.push(*pkt);
        if i % 7 == 3 && out.len() < total {
            let sport = 40_000 + (sweep % 32) as u16;
            let key = FlowKey::tcp(
                Ipv4Addr::new(203, 0, 113, 9),
                sport,
                Ipv4Addr::new(10, 0, 0, 1),
                22,
            );
            out.push(PacketBuilder::new(key, pkt.ts).build());
            sweep += 1;
        }
    }
    out
}

#[test]
fn conservation_flatout_across_shard_counts() {
    let packets = workload(400, 7);
    assert!(packets.len() > 5_000, "workload is non-trivial");
    for shards in [1usize, 2, 4] {
        let mut cfg = EngineConfig::new(shards);
        cfg.host_workers = 1;
        let report = Engine::new(cfg).run(&packets, Pace::Flatout);
        assert!(
            report.conserved(),
            "conservation violated at {shards} shards:\n{}",
            report.deterministic_summary()
        );
        assert_eq!(report.offered, packets.len() as u64);
        assert_eq!(
            report.ingest_dropped(),
            0,
            "flat-out mode backpressures, never drops"
        );
        assert_eq!(report.processed(), report.offered);
    }
}

#[test]
fn conservation_holds_under_forced_drops() {
    let packets = workload(400, 11);
    // A 1-batch queue and an absurd offered rate force ingest overruns.
    let mut cfg = EngineConfig::new(2);
    cfg.queue_batches = 1;
    cfg.batch = 32;
    let report = Engine::new(cfg).run(&packets, Pace::RateMpps(10_000.0));
    assert!(
        report.conserved(),
        "dropped packets must still be accounted:\n{}",
        report.deterministic_summary()
    );
    assert!(
        report.ingest_dropped() > 0,
        "this configuration is sized to overrun"
    );
    assert!(report.drop_rate() > 0.0 && report.drop_rate() < 1.0);
}

#[test]
fn single_shard_inline_mode_is_deterministic() {
    let packets = workload(300, 42);
    let run = || {
        let mut cfg = EngineConfig::new(1);
        cfg.host_workers = 0; // inline triage: no thread-timing races
        Engine::new(cfg)
            .run(&packets, Pace::Flatout)
            .deterministic_summary()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "same seed + one shard must be byte-identical");
    assert!(a.contains("offered="), "summary is non-empty");
}

#[test]
fn conservation_flatout_across_queue_counts() {
    // Multi-queue ingest is the RTC datapath: C fused cores, each
    // draining its own RSS sub-stream, so the queue axis has C units.
    let packets = workload(400, 7);
    for cores in [1usize, 2, 4] {
        let mut cfg = EngineConfig::new(cores);
        cfg.datapath = DatapathMode::Rtc;
        cfg.host_workers = 1;
        let report = Engine::new(cfg).run(&packets, Pace::Flatout);
        assert!(
            report.conserved(),
            "conservation violated at cores={cores}:\n{}",
            report.deterministic_summary()
        );
        assert_eq!(report.queues.len(), cores);
        assert_eq!(report.offered, packets.len() as u64);
        assert_eq!(report.processed(), report.offered);
        let per_queue_offered: u64 = report.queues.iter().map(|q| q.offered).sum();
        assert_eq!(per_queue_offered, report.offered);
        if cores > 1 {
            assert!(
                report.queues.iter().all(|q| q.offered > 0),
                "the RSS split must feed every core"
            );
        }
    }
}

#[test]
fn conservation_holds_under_forced_drops_multi_queue() {
    // A 1-batch lane per shard and an absurd offered rate overrun the
    // pipeline; the per-queue books must carry every drop. The same
    // rate on four RTC cores cannot overrun (a fused core has no lane,
    // so it self-backpressures), and its four per-queue books must
    // still balance.
    let packets = workload(400, 11);
    for datapath in [DatapathMode::Pipeline, DatapathMode::Rtc] {
        let mut cfg = EngineConfig::new(4);
        cfg.datapath = datapath;
        cfg.queue_batches = 1;
        cfg.batch = 32;
        let report = Engine::new(cfg).run(&packets, Pace::RateMpps(10_000.0));
        assert!(
            report.conserved(),
            "{datapath:?}: per-queue drops must still be accounted:\n{}",
            report.deterministic_summary()
        );
        let per_queue_drops: u64 = report.queues.iter().map(|q| q.ingest_dropped).sum();
        assert_eq!(per_queue_drops, report.ingest_dropped());
        match datapath {
            DatapathMode::Pipeline => assert!(report.ingest_dropped() > 0, "sized to overrun"),
            DatapathMode::Rtc => {
                assert_eq!(report.queues.len(), 4);
                assert_eq!(report.ingest_dropped(), 0, "a fused core never overruns");
            }
        }
    }
}

#[test]
fn batched_cache_path_is_byte_identical_to_per_packet() {
    // Tentpole regression: the memory-level-parallel cache path (burst
    // prefetch + staged probes) must change *nothing* about decisions.
    // The hostile workload drives escalation, pinning, triage verdicts
    // and enforced drops — the order-sensitive paths a batching bug
    // would perturb. Matrix: both datapaths, each at per-packet (1),
    // default (8) and wide (16) burst settings.
    let packets = hostile_workload(6_000);
    let run = |datapath: DatapathMode, burst: usize| {
        let mut cfg = EngineConfig::deterministic();
        cfg.datapath = datapath;
        cfg.triage_threshold = 8;
        cfg.cache_burst = burst;
        Engine::new(cfg)
            .run(&packets, Pace::Flatout)
            .deterministic_summary()
    };
    for datapath in [DatapathMode::Pipeline, DatapathMode::Rtc] {
        let per_packet = run(datapath, 1);
        assert!(
            per_packet.contains("verdicts="),
            "summary must be non-trivial"
        );
        for burst in [8usize, 16] {
            assert_eq!(
                per_packet,
                run(datapath, burst),
                "burst={burst} diverged from per-packet on {datapath:?}"
            );
        }
    }
}

#[test]
fn flowcache_report_accounts_every_access() {
    // The report's flowcache section must balance: every processed
    // packet that reached the cache is exactly one outcome and exactly
    // one probe-length histogram slot, and the burst pipeline must have
    // covered all of them at the default width.
    let packets = hostile_workload(6_000);
    let mut cfg = EngineConfig::new(2);
    cfg.host_workers = 0;
    cfg.triage_threshold = 8;
    let report = Engine::new(cfg).run(&packets, Pace::Flatout);
    let fc = &report.flowcache;
    let verdict_dropped: u64 = report.shards.iter().map(|s| s.verdict_dropped).sum();
    assert_eq!(
        fc.accesses(),
        report.processed() - verdict_dropped,
        "every non-blacklisted packet takes exactly one cache access"
    );
    assert_eq!(fc.probe_hist.iter().sum::<u64>(), fc.accesses());
    assert_eq!(
        fc.burst_pkts,
        report.processed(),
        "the burst pipeline covers every delivered packet (blacklist \
         drops included — their rows are prefetched before the verdict)"
    );
    assert!(fc.bursts > 0);
    assert!(fc.hit_rate() > 0.0, "cycled flows must re-hit");
}

#[test]
fn escalation_round_trip_blacklists_hostile_sources() {
    // One source brute-forcing SSH across many connections: auth-port
    // traffic escalates to the host until classified, triage counts the
    // source past its threshold and blacklists each flow, and — with
    // verdicts enforced — follow-up packets of those flows are dropped.
    use smartwatch_net::{FlowKey, PacketBuilder, Ts};
    use std::net::Ipv4Addr;

    let mut packets = Vec::new();
    let src = Ipv4Addr::new(203, 0, 113, 9);
    for round in 0..50u32 {
        for sport in 0..32u16 {
            let key = FlowKey::tcp(src, 40_000 + sport, Ipv4Addr::new(10, 0, 0, 1), 22);
            let ts = Ts::from_nanos(u64::from(round) * 1_000_000 + u64::from(sport));
            packets.push(PacketBuilder::new(key, ts).build());
        }
    }
    let mut cfg = EngineConfig::new(1);
    cfg.host_workers = 0;
    cfg.triage_threshold = 8;
    let report = Engine::new(cfg).run(&packets, Pace::Flatout);
    assert!(report.conserved());
    assert!(report.escalated() > 0, "SYN sweep must escalate");
    assert!(
        report.verdicts_published > 0,
        "triage must publish blacklist verdicts"
    );
    let dropped: u64 = report.shards.iter().map(|s| s.verdict_dropped).sum();
    assert!(
        dropped > 0,
        "enforced blacklist must drop follow-up packets:\n{}",
        report.deterministic_summary()
    );
}

/// Every run's report covers that run alone, stage histograms included:
/// back-to-back flat-out runs on one engine each deliver exactly their
/// own ingested packets in `stage.batch_pkts`, and `snapshot()` after a
/// run is the report that run returned.
#[test]
fn back_to_back_runs_each_report_their_own_stage_histograms() {
    let packets = workload(300, 23);
    for datapath in [DatapathMode::Pipeline, DatapathMode::Rtc] {
        let mut cfg = EngineConfig::new(2);
        cfg.datapath = datapath;
        let engine = Engine::new(cfg);
        let idle = engine.snapshot();
        assert_eq!((idle.offered, idle.processed()), (0, 0), "{datapath:?}");
        for run in 0..2 {
            let report = engine.run(&packets, Pace::Flatout);
            assert!(report.conserved(), "{datapath:?} run {run}");
            assert_eq!(report.offered, packets.len() as u64);
            let ingested: u64 = report.shards.iter().map(|s| s.ingested).sum();
            assert_eq!(
                report.stage.batch_pkts.sum, ingested,
                "{datapath:?} run {run}: delivered batches cover this run only"
            );
            assert!(report.stage.cache_ns.count > 0, "{datapath:?} run {run}");
            let snap = engine.snapshot();
            assert_eq!(
                format!("{snap:?}"),
                format!("{report:?}"),
                "{datapath:?} run {run}: snapshot is the settled report"
            );
        }
    }
}
