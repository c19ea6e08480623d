//! Integration tests that execute the real `repro` and `swtrace`
//! binaries, exercising argument parsing, pcap I/O and experiment output
//! end to end.

use std::process::Command;

fn run(bin: &str, args: &[&str]) -> (String, String, bool) {
    let out = Command::new(bin).args(args).output().expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn repro_list_shows_every_experiment() {
    let (stdout, _, ok) = run(env!("CARGO_BIN_EXE_repro"), &["list"]);
    assert!(ok);
    for id in ["fig2a", "fig5", "fig10", "table4", "ablation-cuckoo"] {
        assert!(stdout.contains(id), "missing {id} in repro list");
    }
}

#[test]
fn repro_rejects_unknown_experiment() {
    let (_, stderr, ok) = run(env!("CARGO_BIN_EXE_repro"), &["fig99"]);
    assert!(!ok);
    assert!(stderr.contains("unknown experiment \"fig99\""));
}

#[test]
fn repro_rejects_unknown_flag_even_next_to_a_valid_experiment() {
    // A typo'd flag must not be silently swallowed just because the
    // other token names a real experiment.
    let (_, stderr, ok) = run(env!("CARGO_BIN_EXE_repro"), &["fig3", "--bogus-flag"]);
    assert!(!ok);
    assert!(stderr.contains("unknown flag \"--bogus-flag\""));
}

/// Run `repro` with `args` and assert it exits 2 naming `flag` as a
/// flag the selected experiment does not read (instead of running with the
/// flag silently dropped).
fn assert_flag_rejected(args: &[&str], want: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(
        stderr.contains(want),
        "{args:?}: want {want:?}, got: {stderr}"
    );
}

#[test]
fn repro_rejects_datapath_for_control() {
    // `control` always runs the pipeline: an RTC request cannot be
    // honoured there.
    let bench = std::env::temp_dir().join(format!("repro-cli-c-{}.json", std::process::id()));
    assert_flag_rejected(
        &[
            "control",
            "--shards",
            "2",
            "--datapath",
            "rtc",
            "--bench-json",
            bench.to_str().unwrap(),
        ],
        "--datapath does not apply to `control`",
    );
}

#[test]
fn repro_rejects_trace_sample_for_soak() {
    // The service experiments run no sampled wall-clock tracing, so the
    // trace would come out empty.
    let trace = std::env::temp_dir().join(format!("repro-cli-t-{}.json", std::process::id()));
    assert_flag_rejected(
        &[
            "soak",
            "--trace-sample",
            "1",
            "--trace-out",
            trace.to_str().unwrap(),
        ],
        "--trace-sample does not apply to `soak`",
    );
}

#[test]
fn repro_rejects_a_serve_only_flag_for_engine() {
    assert_flag_rejected(
        &["engine", "--segments", "2"],
        "--segments does not apply to `engine`",
    );
}

#[test]
fn repro_rejects_a_runtime_flag_without_a_runtime_experiment() {
    // A paper experiment reads none of the runtime flags.
    assert_flag_rejected(&["fig3", "--shards", "2"], "--shards only applies to");
}

#[test]
fn repro_rejects_pin_cores_without_rtc() {
    let (_, stderr, ok) = run(env!("CARGO_BIN_EXE_repro"), &["engine", "--pin-cores"]);
    assert!(!ok);
    assert!(stderr.contains("--pin-cores requires `--datapath rtc`"));
}

#[test]
fn repro_rejects_a_bad_datapath_value() {
    let (_, stderr, ok) = run(
        env!("CARGO_BIN_EXE_repro"),
        &["engine", "--datapath", "fused"],
    );
    assert!(!ok);
    assert!(stderr.contains("--datapath must be `pipeline` or `rtc`"));
}

#[test]
fn repro_engine_rtc_runs_and_reports_the_datapath() {
    let (stdout, _, ok) = run(
        env!("CARGO_BIN_EXE_repro"),
        &[
            "engine",
            "--datapath",
            "rtc",
            "--packets",
            "20000",
            "--json",
        ],
    );
    assert!(ok);
    let v: serde_json::Value = serde_json::from_str(&stdout).expect("valid JSON");
    let row = &v["rows"][0];
    assert!(
        row.as_array()
            .expect("row array")
            .iter()
            .any(|c| c.as_str() == Some("rtc")),
        "datapath column carries the mode: {row}"
    );
}

#[test]
fn repro_json_output_parses() {
    let (stdout, _, ok) = run(env!("CARGO_BIN_EXE_repro"), &["fig3", "--json"]);
    assert!(ok);
    let v: serde_json::Value = serde_json::from_str(&stdout).expect("valid JSON");
    assert_eq!(v["id"], "fig3");
    assert!(v["rows"].as_array().map(|r| !r.is_empty()).unwrap_or(false));
}

#[test]
fn swtrace_pipeline_round_trips() {
    let dir = std::env::temp_dir().join(format!("swtrace-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let bg = dir.join("bg.pcap");
    let scan = dir.join("scan.pcap");
    let mixed = dir.join("mixed.pcap");
    let stress = dir.join("stress.pcap");
    let sw = env!("CARGO_BIN_EXE_swtrace");

    let (_, e, ok) = run(
        sw,
        &[
            "gen",
            "--preset",
            "caida2018",
            "--flows",
            "200",
            "--secs",
            "2",
            "--seed",
            "5",
            "-o",
            bg.to_str().unwrap(),
        ],
    );
    assert!(ok, "gen failed: {e}");
    let (_, e, ok) = run(
        sw,
        &[
            "attack",
            "portscan",
            "--delay-ms",
            "20",
            "--probes",
            "50",
            "-o",
            scan.to_str().unwrap(),
        ],
    );
    assert!(ok, "attack failed: {e}");
    let (_, e, ok) = run(
        sw,
        &[
            "merge",
            bg.to_str().unwrap(),
            scan.to_str().unwrap(),
            "-o",
            mixed.to_str().unwrap(),
        ],
    );
    assert!(ok, "merge failed: {e}");
    let (_, e, ok) = run(
        sw,
        &[
            "rewrite64",
            mixed.to_str().unwrap(),
            "-o",
            stress.to_str().unwrap(),
        ],
    );
    assert!(ok, "rewrite64 failed: {e}");

    let (info, _, ok) = run(sw, &["info", mixed.to_str().unwrap()]);
    assert!(ok);
    assert!(info.contains("packets"));
    assert!(info.contains("syn-only"));

    // The merged pcap parses back in-process with the right packet count.
    let merged = smartwatch_net::pcap::read(&std::fs::read(&mixed).unwrap()).unwrap();
    let background = smartwatch_net::pcap::read(&std::fs::read(&bg).unwrap()).unwrap();
    let scan_pkts = smartwatch_net::pcap::read(&std::fs::read(&scan).unwrap()).unwrap();
    assert_eq!(merged.len(), background.len() + scan_pkts.len());
    // And the 64 B rewrite really truncates every frame.
    let rewritten = smartwatch_net::pcap::read(&std::fs::read(&stress).unwrap()).unwrap();
    assert!(rewritten.iter().all(|p| p.wire_len == 64));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn swtrace_reports_missing_output_flag() {
    let (_, stderr, ok) = run(env!("CARGO_BIN_EXE_swtrace"), &["gen", "--flows", "10"]);
    assert!(!ok);
    assert!(stderr.contains("-o"));
}
