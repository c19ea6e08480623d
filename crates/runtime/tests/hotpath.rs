//! Hot-path equivalence and pooling invariants.
//!
//! The engine's batched hot path (pre-digested packets, identity-hashed
//! digest sets, per-batch counter flushes) is an *optimisation* — it must
//! be observationally identical to the obvious scalar pipeline. The
//! reference model here processes one packet at a time with the plain
//! APIs (`FlowCache::process`, `HashSet<FlowKey>` verdict sets, inline
//! triage) and tallies ground truth per packet; the engine's per-batch
//! flushed counters must match it exactly, in every pacing mode.
//!
//! The buffer-pool tests pin the zero-alloc property: after warm-up the
//! dispatcher recycles shard buffers instead of allocating, so the
//! allocation count is bounded by the pool capacity — independent of how
//! many packets the run offers.

use smartwatch_core::{DetectorSuite, HostNeed};
use smartwatch_host::{HostNf, Verdict};
use smartwatch_net::{Dur, FlowKey, Packet, PacketBuilder, Ts};
use smartwatch_runtime::{DatapathMode, Engine, EngineConfig, EngineReport, Pace, TriageNf};
use smartwatch_snic::{FlowCache, FlowCacheConfig};
use smartwatch_telemetry::Registry;
use smartwatch_trace::background::{preset_trace, Preset};
use std::collections::HashSet;
use std::net::Ipv4Addr;

/// CAIDA background with an SSH brute-force sweep woven in: one hostile
/// source cycling 32 connections to port 22, so the run exercises
/// escalation, triage verdicts, and enforced blacklist drops.
fn workload(total: usize) -> Vec<Packet> {
    let base = preset_trace(Preset::Caida2018, 300, Dur::from_millis(500), 17).into_packets();
    assert!(!base.is_empty());
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

/// Ground-truth tallies from the scalar reference pipeline.
#[derive(Debug, Default, PartialEq, Eq)]
struct GroundTruth {
    processed: u64,
    verdict_dropped: u64,
    fast_path: u64,
    escalated: u64,
    ctrl_applied: u64,
    alerts: u64,
    host_processed: u64,
    verdicts_published: u64,
    blacklisted: u64,
    whitelisted: u64,
    cache_resident: u64,
}

/// The scalar reference: same pipeline semantics as one engine shard in
/// inline-triage mode, but per-packet APIs, plain `HashSet<FlowKey>`
/// verdict sets, and per-packet counting — no batching tricks anywhere.
fn reference_run(packets: &[Packet], cfg: &EngineConfig) -> GroundTruth {
    assert_eq!(cfg.shards, 1, "reference models a single shard");
    assert_eq!(cfg.host_workers, 0, "reference models inline triage");

    let mut cache_cfg = FlowCacheConfig::general(cfg.cache_row_bits);
    cache_cfg.hash_seed = cfg.hash_seed;
    let mut cache = FlowCache::new(cache_cfg);
    let mut suite = DetectorSuite::new();
    let mut triage = TriageNf::new(cfg.triage_threshold);
    let mut log: Vec<Verdict> = Vec::new();
    let mut cursor = 0usize;
    let mut blacklist: HashSet<FlowKey> = HashSet::new();
    let mut whitelist: HashSet<FlowKey> = HashSet::new();
    let mut gt = GroundTruth::default();
    let mut last_ts = Ts::ZERO;

    let apply_control = |gt: &mut GroundTruth,
                         cache: &mut FlowCache,
                         blacklist: &mut HashSet<FlowKey>,
                         whitelist: &mut HashSet<FlowKey>,
                         log: &[Verdict],
                         cursor: &mut usize| {
        let tail = &log[*cursor..];
        gt.ctrl_applied += tail.len() as u64;
        for v in tail {
            match v {
                Verdict::Blacklist(k) => {
                    let canon = k.canonical().0;
                    cache.unpin(&canon);
                    blacklist.insert(canon);
                    // Blacklist wins: a host-flagged flow loses any
                    // standing whitelist fast-path entry.
                    whitelist.remove(&canon);
                }
                Verdict::Whitelist(k) => {
                    let canon = k.canonical().0;
                    cache.unpin(&canon);
                    whitelist.insert(canon);
                }
                Verdict::Alert(_) => gt.alerts += 1,
                Verdict::Drop => {}
            }
        }
        *cursor = log.len();
    };

    for chunk in packets.chunks(cfg.batch) {
        apply_control(
            &mut gt,
            &mut cache,
            &mut blacklist,
            &mut whitelist,
            &log,
            &mut cursor,
        );
        for pkt in chunk {
            last_ts = last_ts.max(pkt.ts);
            let canon = pkt.key.canonical().0;
            if cfg.enforce_verdicts && blacklist.contains(&canon) {
                gt.verdict_dropped += 1;
                gt.processed += 1;
                continue;
            }
            cache.process(pkt);
            if whitelist.contains(&canon) {
                gt.fast_path += 1;
                gt.processed += 1;
                continue;
            }
            let outcome = suite.on_packet(pkt);
            gt.alerts += outcome.alerts.len() as u64;
            for flow in &outcome.whitelist {
                cache.unpin(flow);
                whitelist.insert(flow.canonical().0);
            }
            if outcome.host == HostNeed::Host {
                gt.escalated += 1;
                cache.pin(&canon);
                gt.host_processed += 1;
                log.extend(triage.on_packet(pkt));
            }
            gt.processed += 1;
        }
    }
    apply_control(
        &mut gt,
        &mut cache,
        &mut blacklist,
        &mut whitelist,
        &log,
        &mut cursor,
    );
    gt.alerts += suite.finish(last_ts).len() as u64;
    gt.verdicts_published = log.len() as u64;
    gt.blacklisted = blacklist.len() as u64;
    gt.whitelisted = whitelist.len() as u64;
    gt.cache_resident = cache.occupied() as u64;
    gt
}

/// Project an engine report (1 shard) onto the ground-truth shape.
fn observed(report: &EngineReport) -> GroundTruth {
    assert_eq!(report.shards.len(), 1);
    let s = &report.shards[0];
    GroundTruth {
        processed: s.processed,
        verdict_dropped: s.verdict_dropped,
        fast_path: s.fast_path,
        escalated: s.escalated,
        ctrl_applied: s.ctrl_applied,
        alerts: s.alerts,
        host_processed: report.host_processed,
        verdicts_published: report.verdicts_published,
        blacklisted: s.blacklisted,
        whitelisted: s.whitelisted,
        cache_resident: s.cache_resident,
    }
}

fn deterministic_cfg(batch: usize) -> EngineConfig {
    let mut cfg = EngineConfig::new(1);
    cfg.host_workers = 0; // inline triage: no thread-timing races
    cfg.batch = batch;
    // Queue capacity exceeds the whole workload so paced mode cannot
    // drop: exactness must hold in *every* pacing mode, which requires
    // the paced run to be drop-free by construction.
    cfg.queue_batches = 1024;
    cfg.triage_threshold = 8;
    cfg
}

#[test]
fn batched_counters_match_per_packet_ground_truth() {
    let packets = workload(12_000);
    for batch in [64usize, 17] {
        let cfg = deterministic_cfg(batch);
        let truth = reference_run(&packets, &cfg);
        let report = Engine::new(cfg).run(&packets, Pace::Flatout);
        assert!(report.conserved());
        assert_eq!(
            observed(&report),
            truth,
            "batch={batch}: per-batch flushes diverged from scalar ground truth\n{}",
            report.deterministic_summary()
        );
        // The workload must actually exercise the interesting paths,
        // otherwise this equality is vacuous.
        assert!(truth.escalated > 0, "SSH sweep must escalate");
        assert!(truth.verdicts_published > 0, "triage must blacklist");
        assert!(truth.verdict_dropped > 0, "enforcement must drop");
    }
}

#[test]
fn paced_mode_matches_ground_truth_when_drop_free() {
    let packets = workload(12_000);
    let cfg = deterministic_cfg(64);
    let truth = reference_run(&packets, &cfg);
    let report = Engine::new(cfg).run(&packets, Pace::RateMpps(1.0));
    assert!(report.conserved());
    assert_eq!(
        report.ingest_dropped(),
        0,
        "queue sized above the workload: paced mode must not drop"
    );
    assert_eq!(
        observed(&report),
        truth,
        "paced dispatch changed counters that must be pace-independent\n{}",
        report.deterministic_summary()
    );
}

#[test]
fn multi_queue_fair_merge_conserves_across_pacing_modes() {
    // Multi-queue ingest runs on RTC cores, each draining its own RSS
    // sub-stream against the global arrival schedule. Exact counter
    // equality with the single-shard reference is out of scope at C > 1
    // (the state is partitioned), but conservation and full processing
    // must hold at every (cores, pace) point.
    let packets = workload(12_000);
    let paces = [
        Pace::Flatout,
        Pace::RateMpps(2.0),
        Pace::Spike {
            base_mpps: 1.0,
            peak_mpps: 4.0,
            spike_start: 0.25,
            spike_end: 0.75,
        },
    ];
    for cores in [1usize, 2, 4] {
        for pace in paces {
            let mut cfg = EngineConfig::new(cores);
            cfg.datapath = DatapathMode::Rtc;
            let report = Engine::new(cfg).run(&packets, pace);
            assert!(
                report.conserved(),
                "cores={cores} {pace:?}:\n{}",
                report.deterministic_summary()
            );
            assert_eq!(report.queues.len(), cores);
            assert_eq!(report.processed(), report.offered);
        }
    }
}

#[test]
fn buffer_pool_allocations_are_bounded_and_packet_independent() {
    // Runs 8× apart in offered packets, on the pipeline and on two RTC
    // cores: allocations stay under the pool capacity every time — the
    // steady state recycles (or, fused, reuses one staging buffer per
    // core), never grows.
    let mut allocated = Vec::new();
    for (datapath, packets) in [
        (DatapathMode::Pipeline, 25_000usize),
        (DatapathMode::Pipeline, 200_000),
        (DatapathMode::Rtc, 25_000),
        (DatapathMode::Rtc, 200_000),
    ] {
        let reg = Registry::new();
        let mut cfg = EngineConfig::new(2);
        cfg.datapath = datapath;
        let cap = match datapath {
            // Steady-state live buffers: a full lane per shard plus one
            // in the shard's hands plus one in the dispatcher's. A
            // shard racing a momentarily-full recycle channel can drop a
            // buffer (and force one later re-allocation), so allow that
            // transient per lane.
            DatapathMode::Pipeline => (cfg.shards * (cfg.queue_batches + 2) + cfg.shards) as u64,
            // A fused core stages into one buffer for the whole run.
            DatapathMode::Rtc => cfg.shards as u64,
        };
        let report = Engine::with_registry(cfg, &reg).run(&workload(packets), Pace::Flatout);
        assert!(report.conserved());
        let allocs = reg.counter("runtime.pool.allocated", &[]).get();
        let recycles = reg.counter("runtime.pool.recycled", &[]).get();
        assert!(
            allocs <= cap,
            "{datapath:?} {packets} pkts: {allocs} allocations exceed pool capacity {cap}"
        );
        // On the long pipeline run the warm-up is amortised away and
        // recycling must dominate; the short runs only pin the capacity
        // bound. Fused cores hand no buffer across threads, so they
        // have nothing to recycle.
        if datapath == DatapathMode::Pipeline && packets > 100_000 {
            assert!(
                recycles > allocs,
                "{datapath:?} {packets} pkts: steady state must be recycle-dominated \
                 ({recycles} recycled vs {allocs} allocated)"
            );
        }
        allocated.push(allocs);
    }
    for pair in allocated.chunks(2) {
        assert!(
            pair[1] <= pair[0].saturating_mul(2),
            "8× the packets must not grow allocations ({} → {})",
            pair[0],
            pair[1]
        );
    }
}
