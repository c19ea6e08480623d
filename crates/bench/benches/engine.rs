//! Criterion benchmark of the wall-clock runtime engine: the
//! pipeline-vs-RTC datapath grid on the 64-byte stress workload.
//!
//! On a multi-core machine throughput should rise with shards, and the
//! fused run-to-completion datapath should beat the pipeline at equal
//! core budget — it spends no cycles on lane crossings, recycling or
//! dispatcher/shard cache bouncing. On a single hardware thread the
//! sweep still exercises the dispatcher, the lanes, the fused cores and
//! the drain logic, but the scaling signal is meaningless — read it
//! with `nproc` in hand. Each Criterion cell also prints its own
//! measured Mpps so a scaling table can be read straight off the run
//! log.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use smartwatch_bench::exp_engine::{engine_workload, EngineRunSpec, EngineWorkload};
use smartwatch_runtime::{DatapathMode, Engine, EngineConfig, Pace};

fn stress_packets() -> Vec<smartwatch_net::Packet> {
    let spec = EngineRunSpec {
        packets: 100_000,
        workload: EngineWorkload::Stress,
        ..EngineRunSpec::default()
    };
    engine_workload(&spec, 1)
}

/// Pipeline vs run-to-completion at equal core budget. The pipeline
/// cell uses one dispatcher plus C shards (C+1 threads); the RTC cell
/// uses C fused cores (C threads) — the comparison the DESIGN datapath
/// table quotes, deliberately biased *against* RTC on thread count.
fn bench_engine_datapath(c: &mut Criterion) {
    let pkts = stress_packets();
    let mut g = c.benchmark_group("engine_datapath_64b");
    g.throughput(Throughput::Elements(pkts.len() as u64));
    g.sample_size(10);
    for mode in [DatapathMode::Pipeline, DatapathMode::Rtc] {
        for cores in [1usize, 2, 4] {
            let label = match mode {
                DatapathMode::Pipeline => "pipeline",
                DatapathMode::Rtc => "rtc",
            };
            let mut cfg = EngineConfig::new(cores);
            cfg.datapath = mode;
            let probe = Engine::new(cfg).run(&pkts, Pace::Flatout);
            assert!(probe.conserved());
            println!(
                "engine_datapath_64b/{label}_cores{cores}: {:.3} Mpps \
                 ({} pkts, {:?})",
                probe.mpps(),
                probe.processed(),
                probe.elapsed
            );

            g.bench_function(format!("{label}_cores{cores}"), |b| {
                b.iter(|| {
                    let mut cfg = EngineConfig::new(cores);
                    cfg.datapath = mode;
                    let report = Engine::new(cfg).run(&pkts, Pace::Flatout);
                    assert!(report.conserved());
                    report.processed()
                });
            });
        }
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_engine_datapath
}
criterion_main!(benches);
