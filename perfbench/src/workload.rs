//! The four workloads: what each feeds the engine, how the engine is
//! configured for it, and the timed set-up that builds both.

use smartwatch_bench::workloads;
use smartwatch_net::{Dur, FrameStore, Packet};
use smartwatch_runtime::{DatapathMode, Engine, EngineConfig, EngineReport, Pace};
use smartwatch_trace::background::{preset_trace, Preset};
use smartwatch_trace::compile::{compile, compile_cycled};
use smartwatch_trace::Trace;
use std::time::Instant;

/// One benchmark workload (see README.md for why each exists).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 64-B CAIDA stand-in, wire frames, cycled; RTC on 2 pinned cores.
    Caida64Rtc,
    /// The same frames through the default pipeline: 1 dispatcher + 1 shard.
    Caida64Pipeline,
    /// The Table-4 attack mix as synthetic packets, cycled; RTC on 2 cores.
    /// Not gated in `BENCHMARK.json` (see README.md).
    AttackMix,
    /// 8x the CAIDA flows against the same FlowCache, replayed once; RTC.
    FlowChurn,
}

/// Input scale: `Full` is what the benchmark measures; `Small` is a
/// seconds-long stand-in for the benchmark's own tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The measured sizes.
    Full,
    /// Tiny inputs with the same shape, for tests.
    Small,
}

/// Flows in one CAIDA-2018 stand-in (`workloads::caida_64b` at scale 1).
const CAIDA_FLOWS: usize = 25_000;

impl Workload {
    /// Every workload the command line takes.
    pub const ALL: [Workload; 4] = [
        Workload::Caida64Rtc,
        Workload::Caida64Pipeline,
        Workload::AttackMix,
        Workload::FlowChurn,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Caida64Rtc => "caida64-rtc",
            Workload::Caida64Pipeline => "caida64-pipeline",
            Workload::AttackMix => "attack-mix",
            Workload::FlowChurn => "flow-churn",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Engine configuration: inline triage (`host_workers = 0`) and at
    /// most two engine threads, so the decision stream is deterministic.
    pub fn config(self) -> EngineConfig {
        let mut cfg = match self {
            Workload::Caida64Pipeline => EngineConfig::new(1),
            _ => {
                let mut cfg = EngineConfig::new(2);
                cfg.datapath = DatapathMode::Rtc;
                cfg.pin_cores = true;
                cfg
            }
        };
        cfg.host_workers = 0;
        cfg
    }

    /// Generate the workload's trace from `seed`.
    fn generate(self, seed: u64, size: Size) -> Trace {
        let caida64 = |flows: usize| {
            preset_trace(Preset::Caida2018, flows, Dur::from_secs(4), seed).truncated_64b()
        };
        match (self, size) {
            (Workload::Caida64Rtc | Workload::Caida64Pipeline, Size::Full) => {
                workloads::caida_64b(Preset::Caida2018, 1, seed)
            }
            (Workload::Caida64Rtc | Workload::Caida64Pipeline, Size::Small) => caida64(1_000),
            (Workload::AttackMix, _) => workloads::attack_mix(1, seed),
            (Workload::FlowChurn, Size::Full) => caida64(8 * CAIDA_FLOWS),
            (Workload::FlowChurn, Size::Small) => caida64(8_000),
        }
    }

    /// Turn the trace into what the engine replays: compiled wire frames
    /// (cycled to a fixed length, or once for flow-churn) or cycled
    /// synthetic packets.
    fn materialise(self, trace: &Trace, size: Size) -> Input {
        let full = size == Size::Full;
        match self {
            Workload::Caida64Rtc | Workload::Caida64Pipeline => {
                Input::Wire(compile_cycled(trace, if full { 2_000_000 } else { 40_000 }))
            }
            Workload::FlowChurn => Input::Wire(compile(trace)),
            Workload::AttackMix => {
                let n = if full { 600_000 } else { 20_000 };
                Input::Packets(trace.packets().iter().cycle().take(n).copied().collect())
            }
        }
    }
}

/// What the engine replays.
pub enum Input {
    /// Compiled wire frames, parsed in place by the engine.
    Wire(FrameStore),
    /// Synthetic model packets (no wire parse).
    Packets(Vec<Packet>),
}

impl Input {
    /// Packets offered per replay.
    pub fn len(&self) -> usize {
        match self {
            Input::Wire(s) => s.len(),
            Input::Packets(p) => p.len(),
        }
    }

    /// Replay the whole input once through `engine`, flat-out.
    pub fn run(&self, engine: &Engine) -> EngineReport {
        match self {
            Input::Wire(s) => engine.run_frames(s, Pace::Flatout),
            Input::Packets(p) => engine.run(p, Pace::Flatout),
        }
    }
}

/// Set-up time split by phase, seconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// Trace generation.
    pub generate_s: f64,
    /// Wire compile (or cycling, for synthetic input).
    pub compile_s: f64,
    /// `Engine::new`.
    pub engine_s: f64,
}

impl SetupTimes {
    /// Everything before the first packet is offered.
    pub fn total(&self) -> f64 {
        self.generate_s + self.compile_s + self.engine_s
    }
}

/// Build the input and the engine, timing each phase.
pub fn setup(w: Workload, seed: u64, size: Size) -> (Input, Engine, SetupTimes) {
    let t0 = Instant::now();
    let trace = w.generate(seed, size);
    let t1 = Instant::now();
    let input = w.materialise(&trace, size);
    drop(trace);
    let t2 = Instant::now();
    let engine = Engine::new(w.config());
    let t3 = Instant::now();
    let times = SetupTimes {
        generate_s: (t1 - t0).as_secs_f64(),
        compile_s: (t2 - t1).as_secs_f64(),
        engine_s: (t3 - t2).as_secs_f64(),
    };
    (input, engine, times)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("caida64"), None);
    }

    #[test]
    fn configs_use_inline_triage_and_two_threads() {
        for w in Workload::ALL {
            let cfg = w.config();
            assert_eq!(cfg.host_workers, 0, "{}", w.name());
            assert!(cfg.control.is_none(), "{}", w.name());
            let threads = match cfg.datapath {
                DatapathMode::Rtc => cfg.shards,
                DatapathMode::Pipeline => cfg.shards + cfg.rx_queues,
            };
            assert_eq!(threads, 2, "{}", w.name());
        }
    }

    #[test]
    fn same_seed_same_input() {
        let a = Workload::Caida64Rtc.generate(3, Size::Small);
        let b = Workload::Caida64Rtc.generate(3, Size::Small);
        assert_eq!(a.packets(), b.packets());
        let c = Workload::Caida64Rtc.generate(4, Size::Small);
        assert_ne!(a.packets(), c.packets());
    }
}
