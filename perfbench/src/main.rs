//! The engine benchmark: runs one workload against the wall-clock
//! `smartwatch_runtime::Engine` through its public API, checks every
//! run's output, and prints its metrics.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--size full|small] [--record]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` runs the
//! traced replay for the per-layer metrics. `--record` prints the
//! workload's fingerprint block for `fingerprints/`. The last line of
//! standard output is one JSON object: `correct`, `attempted` and
//! `failed` (packets), and `metrics`. See README.md.

mod fingerprint;
mod ledger;
mod measure;
mod workload;

use fingerprint::Checker;
use ledger::{Layer, Replay, DETECTORS};
use measure::{median, CountingAlloc};
use smartwatch_runtime::{Engine, EngineReport};
use std::time::{Duration, Instant};
use workload::{Input, SetupTimes, Size, Workload};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Set-ups per process; `setup_s` is their median.
const SETUPS: usize = 5;
/// Fewest timed engine runs per process, even past `--seconds`.
const MIN_RUNS: usize = 3;

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    record: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut size = Size::Full;
    let mut record = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--record" {
            record = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds `{value}`"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                })
            }
            "--size" => {
                size = match value {
                    "full" => Size::Full,
                    "small" => Size::Small,
                    _ => return Err(format!("--size takes full or small, got `{value}`")),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        size,
        record,
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// Packets checked and failed across every engine run of the process.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Check one run; a dropped packet or a run that fails the check
    /// counts as failed.
    fn check(&mut self, checker: &mut Checker, r: &EngineReport, what: &str) {
        self.attempted += r.offered;
        let dropped = r.ingest_dropped() + r.shed() + r.steer_dropped() + r.escalation_dropped();
        match checker.check(r) {
            Ok(()) => self.failed += dropped,
            Err(e) => {
                eprintln!("perfbench: {what} FAILED the output check: {e}");
                self.failed += r.offered;
            }
        }
    }
}

/// One timed engine run.
struct Sample {
    mpps: f64,
    cpu_ns_per_pkt: f64,
    mem_mb: f64,
    report: EngineReport,
}

fn timed_run(input: &Input, engine: &Engine) -> Sample {
    measure::heap_reset_peak();
    let heap0 = measure::heap_live();
    let cpu0 = measure::process_cpu_ns();
    let t0 = Instant::now();
    let report = input.run(engine);
    let wall = t0.elapsed();
    let cpu = measure::process_cpu_ns() - cpu0;
    let mem = measure::heap_peak() - heap0;
    let processed = report.processed().max(1) as f64;
    Sample {
        mpps: processed / wall.as_secs_f64() / 1e6,
        cpu_ns_per_pkt: cpu as f64 / processed,
        mem_mb: mem as f64 / 1e6,
        report,
    }
}

/// Set up [`SETUPS`] times (dropping each before the next) and keep
/// the last input and engine.
fn set_up(a: &Args) -> (Input, Engine, Vec<SetupTimes>) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for _ in 0..SETUPS {
        // Free the previous input before building the next.
        drop(kept.take());
        let (input, engine, t) = workload::setup(a.workload, a.seed, a.size);
        times.push(t);
        kept = Some((input, engine));
    }
    let (input, engine) = kept.expect("at least one set-up");
    (input, engine, times)
}

/// Warm up once, then run until `budget` has passed (at least
/// [`MIN_RUNS`] timed runs), checking every run.
fn engine_runs(
    a: &Args,
    input: &Input,
    engine: &Engine,
    budget: Duration,
    tally: &mut Tally,
) -> Vec<Sample> {
    let stored = match a.size {
        Size::Full => fingerprint::stored(a.workload, a.seed),
        Size::Small => None,
    };
    let mut checker = Checker::new(stored);
    let warm = input.run(engine);
    tally.check(&mut checker, &warm, "warm-up run");
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < MIN_RUNS || start.elapsed() < budget {
        let s = timed_run(input, engine);
        tally.check(
            &mut checker,
            &s.report,
            &format!("run {}", samples.len() + 1),
        );
        samples.push(s);
    }
    eprintln!(
        "perfbench: {} timed runs of {} packets, reference fingerprint: {}",
        samples.len(),
        input.len(),
        checker.source
    );
    samples
}

fn med(samples: &[Sample], f: impl Fn(&Sample) -> f64) -> f64 {
    median(&mut samples.iter().map(f).collect::<Vec<_>>())
}

fn setup_median(times: &[SetupTimes], f: impl Fn(&SetupTimes) -> f64) -> f64 {
    median(&mut times.iter().map(f).collect::<Vec<_>>())
}

/// `--trace 0`: the end-to-end metrics.
fn end_to_end(a: &Args, tally: &mut Tally) -> Vec<Metric> {
    let calib_before = measure::calib_ns();
    let (input, engine, setups) = set_up(a);
    let samples = engine_runs(
        a,
        &input,
        &engine,
        Duration::from_secs_f64(a.seconds),
        tally,
    );
    let calib_after = measure::calib_ns();
    for (i, s) in samples.iter().enumerate() {
        println!(
            "run {:>2}: {:.4} Mpps  {:.1} cpu ns/pkt  {:.2} MB",
            i + 1,
            s.mpps,
            s.cpu_ns_per_pkt,
            s.mem_mb
        );
    }
    println!("bench.calib_ns before {calib_before:.1}, after {calib_after:.1} (reference loop)");
    let ok_pct = 100.0 * (tally.attempted - tally.failed) as f64 / tally.attempted.max(1) as f64;
    vec![
        metric("mpps", "Mpps", med(&samples, |s| s.mpps)),
        metric("cpu_ns_per_pkt", "ns", med(&samples, |s| s.cpu_ns_per_pkt)),
        metric("setup_s", "s", setup_median(&setups, SetupTimes::total)),
        metric("mem_mb", "MB", med(&samples, |s| s.mem_mb)),
        metric("ok_pct", "%", ok_pct),
    ]
}

/// `part` as a share of `whole`, in percent.
fn pct(part: u64, whole: u64) -> f64 {
    100.0 * part as f64 / whole.max(1) as f64
}

/// `part` per thousand of `whole`.
fn per_kpkt(part: u64, whole: u64) -> f64 {
    1000.0 * part as f64 / whole.max(1) as f64
}

/// `--trace 1`: the per-layer metrics and the ledger.
fn per_layer(a: &Args, tally: &mut Tally) -> Vec<Metric> {
    let cfg = a.workload.config();
    let (input, engine, setups) = set_up(a);
    let samples = engine_runs(
        a,
        &input,
        &engine,
        Duration::from_secs_f64(a.seconds / 2.0),
        tally,
    );
    let engine_cpu = med(&samples, |s| s.cpu_ns_per_pkt);
    let r = &samples[samples.len() - 1].report;
    drop(engine);

    let calib_ns = measure::calib_ns();

    // Untraced and traced replays, alternated twice; figures are sums.
    // The clock is calibrated next to each traced replay.
    let mut untraced = Replay::default();
    let mut traced = Replay::default();
    let mut first: Option<Replay> = None;
    let mut clock = Vec::new();
    for _ in 0..2 {
        untraced.merge(&ledger::replay::<false>(&input, &cfg, false));
        clock.push(measure::clock_ns());
        let t = ledger::replay::<true>(&input, &cfg, first.is_none());
        traced.merge(&t);
        first.get_or_insert(t);
    }
    let clock_ns = median(&mut clock);
    let first = first.expect("two traced replays");
    let dets = ledger::detector_times(&input, &first.suite_stream, cfg.shards);

    let pkts = traced.packets as f64;
    let layer = |l: Layer| traced.spans.self_ns(l, clock_ns) / pkts;
    let (parse, digest, cache, suite) = (
        layer(Layer::Parse),
        layer(Layer::Digest),
        layer(Layer::FlowCache),
        layer(Layer::Suite),
    );
    let triage_total = traced.spans.self_ns(Layer::Triage, clock_ns);
    let triage_per_esc = triage_total / traced.escalated.max(1) as f64;
    let triage = triage_total / pkts;
    let sum_layers = parse + digest + cache + suite + triage;
    let overhead = engine_cpu - sum_layers;
    let untraced_ns = untraced.total_ns as f64 / untraced.packets as f64;
    let traced_ns = traced.total_ns as f64 / pkts;
    let trace_overhead_pct = 100.0 * (traced_ns / untraced_ns - 1.0);
    let det_ns: Vec<f64> = dets
        .iter()
        .map(|d| (d.ns as f64 - d.intervals as f64 * clock_ns) / first.packets as f64)
        .collect();

    let offered = r.offered;
    let processed = r.processed();
    let sum =
        |f: fn(&smartwatch_runtime::ShardStats) -> u64| -> u64 { r.shards.iter().map(f).sum() };
    let fc = &r.flowcache;
    let accesses = fc.accesses();
    let shard_max = r.shards.iter().map(|s| s.processed).max().unwrap_or(0) as f64;
    let shard_mean = processed as f64 / r.shards.len().max(1) as f64;
    let ops = first.ops;

    let w = a.workload.name();
    println!(
        "ledger {w} (ns/pkt, {} shard(s), {} packets):",
        cfg.shards, first.packets
    );
    println!(
        "  parse {parse:.1} | digest {digest:.1} | flowcache {cache:.1} | suite {suite:.1} \
         | triage {triage:.1} ({triage_per_esc:.1} per escalated packet x {:.2}% escalated)",
        pct(first.escalated, first.packets)
    );
    println!(
        "  closure: sum of layers {sum_layers:.1} + runtime.overhead_ns {overhead:.1} \
         = engine cpu_ns_per_pkt {engine_cpu:.1} (the overhead is the unclamped residual; \
         layers cover {:.1}%)",
        100.0 * sum_layers / engine_cpu
    );
    println!(
        "  replay: untraced {untraced_ns:.1} ns/pkt, traced {traced_ns:.1} ns/pkt \
         (bench.trace_overhead_pct {trace_overhead_pct:+.2}%, bench.clock_ns {clock_ns:.2}); \
         layers cover {:.1}% of the untraced replay",
        100.0 * sum_layers / untraced_ns
    );
    let det_sum: f64 = det_ns.iter().sum();
    // The cost model behind `repro table2`: a 12-cycle relevance check on
    // every packet plus a 140-cycle state update per packet tracked.
    let model = |state_ops: u64| ops.total as f64 * 12.0 + state_ops as f64 * 140.0;
    let modelled = [
        model(ops.scan),
        model(ops.rst),
        model(ops.dns),
        model(ops.worm),
    ];
    let model_sum: f64 = modelled.iter().sum();
    print!("  detectors (share of the four; measured vs Table-2 cost model):");
    for ((name, ns), m) in DETECTORS.iter().zip(&det_ns).zip(&modelled) {
        print!(
            " {name} {ns:.1} ns ({:.1}% vs {:.1}%)",
            100.0 * ns / det_sum,
            100.0 * m / model_sum
        );
    }
    println!(
        "\n  suite outside the four detectors: {:.1} ns/pkt",
        suite - det_sum
    );

    vec![
        metric("net.parse_ns", "ns", parse),
        metric("net.digest_ns", "ns", digest),
        metric("snic.flowcache_ns", "ns", cache),
        metric("snic.hit_pct", "%", pct(fc.p_hits, accesses)),
        metric("snic.ehit_pct", "%", pct(fc.e_hits, accesses)),
        metric("snic.miss_pct", "%", pct(fc.misses, accesses)),
        metric("snic.to_host_pct", "%", pct(fc.to_host, accesses)),
        metric("snic.probes_per_access", "probes", fc.mean_probe_len()),
        metric(
            "snic.ring_pushes_per_kpkt",
            "1/kpkt",
            per_kpkt(fc.ring_pushes, processed),
        ),
        metric("core.suite_ns", "ns", suite),
        metric("core.escalate_pct", "%", pct(r.escalated(), processed)),
        metric(
            "core.whitelist_per_kpkt",
            "1/kpkt",
            per_kpkt(first.whitelist_verdicts, first.packets),
        ),
        metric("core.alerts", "count", sum(|s| s.alerts) as f64),
        metric("detect.scan_ns", "ns", det_ns[0]),
        metric("detect.rst_ns", "ns", det_ns[1]),
        metric("detect.dnsamp_ns", "ns", det_ns[2]),
        metric("detect.worm_ns", "ns", det_ns[3]),
        metric("detect.ops.scan_pct", "%", pct(ops.scan, ops.total)),
        metric("detect.ops.rst_pct", "%", pct(ops.rst, ops.total)),
        metric("detect.ops.dns_pct", "%", pct(ops.dns, ops.total)),
        metric("detect.ops.worm_pct", "%", pct(ops.worm, ops.total)),
        metric("detect.ops.auth_pct", "%", pct(ops.auth, ops.total)),
        metric("runtime.triage_ns", "ns", triage_per_esc),
        metric("runtime.overhead_ns", "ns", overhead),
        metric("runtime.imbalance", "ratio", shard_max / shard_mean),
        metric(
            "runtime.idle_parks",
            "count",
            med(&samples, |s| s.report.idle_parks() as f64),
        ),
        metric(
            "runtime.verdict_dropped_pct",
            "%",
            pct(sum(|s| s.verdict_dropped), offered),
        ),
        metric(
            "runtime.fast_path_pct",
            "%",
            pct(sum(|s| s.fast_path), offered),
        ),
        metric(
            "setup.generate_s",
            "s",
            setup_median(&setups, |t| t.generate_s),
        ),
        metric(
            "setup.compile_s",
            "s",
            setup_median(&setups, |t| t.compile_s),
        ),
        metric("setup.engine_s", "s", setup_median(&setups, |t| t.engine_s)),
        metric("bench.clock_ns", "ns", clock_ns),
        metric("bench.trace_overhead_pct", "%", trace_overhead_pct),
        metric("bench.calib_ns", "ns", calib_ns),
    ]
}

/// `--record`: one set-up, one run, and its fingerprint block.
fn record(a: &Args) -> Result<(), String> {
    let (input, engine, _) = workload::setup(a.workload, a.seed, a.size);
    let r = input.run(&engine);
    if !r.conserved() {
        return Err("the run did not conserve packets".to_string());
    }
    println!(
        "{}",
        fingerprint::block(a.seed, &fingerprint::fingerprint(&r))
    );
    Ok(())
}

/// The result line: one JSON object.
fn result_json(correct: bool, tally: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let a = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if a.record {
        if let Err(e) = record(&a) {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
        return;
    }
    let mut tally = Tally::default();
    let metrics = if a.trace {
        per_layer(&a, &mut tally)
    } else {
        end_to_end(&a, &mut tally)
    };
    if metrics.iter().any(|m| !m.value.is_finite()) {
        eprintln!("perfbench: a metric is not a finite number");
        std::process::exit(1);
    }
    let correct = tally.failed == 0;
    println!("{}", result_json(correct, &tally, &metrics));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload attack-mix --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!(a.workload, Workload::AttackMix);
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 10.0);
        assert!(a.trace);
        assert_eq!(a.size, Size::Full);
        assert!(!a.record);
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload nope --seed 1",
            "--workload attack-mix",
            "--seed 1",
            "--workload attack-mix --seed x",
            "--workload attack-mix --seed 1 --trace 2",
            "--workload attack-mix --seed 1 --seconds 0",
            "--workload attack-mix --seed 1 --bogus 1",
            "--workload attack-mix --seed",
        ] {
            assert!(args(bad).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn a_perturbed_fingerprint_fails_the_run() {
        let (input, engine, _) = workload::setup(Workload::AttackMix, 9, Size::Small);
        let r = input.run(&engine);
        let good = fingerprint::fingerprint(&r);

        let mut tally = Tally::default();
        tally.check(&mut Checker::new(Some(good.clone())), &r, "unperturbed");
        assert_eq!((tally.attempted, tally.failed), (r.offered, 0));

        // One more alert in the reference: every packet of the run fails.
        let perturbed = good.replacen("totals: alerts=", "totals: alerts=1", 1);
        assert_ne!(perturbed, good);
        let mut tally = Tally::default();
        tally.check(&mut Checker::new(Some(perturbed)), &r, "perturbed");
        assert_eq!((tally.attempted, tally.failed), (r.offered, r.offered));

        // Against a first-run reference, a changed decision counter fails.
        let mut checker = Checker::new(None);
        assert!(checker.check(&r).is_ok());
        let mut changed = r.clone();
        changed.shards[0].verdict_dropped += 1;
        let err = checker.check(&changed).expect_err("changed decisions");
        assert!(err.contains("verdict_dropped"), "{err}");

        // The two-shard `blacklisted` figure is masked but bounded.
        let mut timing = r.clone();
        timing.shards[0].blacklisted = 0;
        assert!(checker.check(&timing).is_ok(), "masked figure");
        timing.shards[0].blacklisted = r.verdicts_published + 1;
        assert!(
            checker.check(&timing).is_err(),
            "bound on the masked figure"
        );

        // Conservation is checked first.
        let mut leaky = r.clone();
        leaky.offered += 1;
        assert_eq!(
            checker.check(&leaky).expect_err("leak"),
            "conservation violated"
        );
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let tally = Tally {
            attempted: 10,
            failed: 0,
        };
        let line = result_json(true, &tally, &[metric("mpps", "Mpps", 1.25)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \
             \"metrics\": {\"mpps\": {\"value\": 1.25, \"unit\": \"Mpps\"}}}"
        );
    }
}
