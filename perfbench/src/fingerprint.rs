//! The output check every engine run must pass: packet conservation,
//! and a decision fingerprint equal to the workload's reference — the
//! one stored in `fingerprints/` for the default seeds, otherwise the
//! first run of the process.

use crate::workload::Workload;
use smartwatch_runtime::EngineReport;

/// Seeds with a stored fingerprint (at full size).
#[cfg(test)]
pub const DEFAULT_SEEDS: std::ops::RangeInclusive<u64> = 0..=10;

/// The decision fingerprint of one run: the engine's deterministic
/// summary plus total alerts, verdicts, blacklisted and whitelisted.
///
/// With more than one shard the `blacklisted` figures are masked. They
/// count verdict-set entries held at shutdown, and every shard also
/// holds the verdicts of flows it never sees; those foreign copies are
/// applied and aged out on the shard's own batch clock, so how many are
/// left depends on thread timing. Every decision counter
/// (`verdict_dropped`, `verdicts`, `ctrl_applied`, ...) stays exact, and
/// [`Checker::check`] bounds the masked figure instead.
pub fn fingerprint(r: &EngineReport) -> String {
    let mask = r.shards.len() > 1;
    let mut out = String::new();
    for line in r.deterministic_summary().lines() {
        let fields: Vec<String> = line
            .split(' ')
            .map(|f| match f.strip_prefix("blacklisted=") {
                Some(_) if mask => "blacklisted=*".to_string(),
                _ => f.to_string(),
            })
            .collect();
        out.push_str(&fields.join(" "));
        out.push('\n');
    }
    let sum =
        |f: fn(&smartwatch_runtime::ShardStats) -> u64| -> u64 { r.shards.iter().map(f).sum() };
    let blacklisted = if mask {
        "*".to_string()
    } else {
        sum(|s| s.blacklisted).to_string()
    };
    out.push_str(&format!(
        "totals: alerts={} verdicts={} blacklisted={} whitelisted={}\n",
        sum(|s| s.alerts),
        r.verdicts_published,
        blacklisted,
        sum(|s| s.whitelisted),
    ));
    out
}

/// The stored fingerprint of `w` at `seed`, if there is one.
pub fn stored(w: Workload, seed: u64) -> Option<String> {
    let file = match w {
        Workload::Caida64Rtc => include_str!("../fingerprints/caida64-rtc.txt"),
        Workload::Caida64Pipeline => include_str!("../fingerprints/caida64-pipeline.txt"),
        Workload::AttackMix => include_str!("../fingerprints/attack-mix.txt"),
        Workload::FlowChurn => include_str!("../fingerprints/flow-churn.txt"),
    };
    lookup(file, seed)
}

/// Find the `seed=<n>` block of a fingerprint file: blocks are a
/// `seed=<n>` line followed by the fingerprint, separated by blank lines.
fn lookup(file: &str, seed: u64) -> Option<String> {
    let header = format!("seed={seed}\n");
    file.split("\n\n")
        .find_map(|block| block.strip_prefix(&header))
        .map(|fp| format!("{}\n", fp.trim_end_matches('\n')))
}

/// Render a stored-fingerprint block for `seed` (the `--record` output).
pub fn block(seed: u64, fp: &str) -> String {
    format!("seed={seed}\n{fp}")
}

/// Checks runs against the reference fingerprint.
pub struct Checker {
    reference: Option<String>,
    /// Where the reference came from: `stored` or `first run`.
    pub source: &'static str,
}

impl Checker {
    /// A checker for `w` at `seed`: the stored reference when `stored`
    /// supplies one, else the first checked run becomes the reference.
    pub fn new(stored: Option<String>) -> Checker {
        Checker {
            source: if stored.is_some() {
                "stored"
            } else {
                "first run"
            },
            reference: stored,
        }
    }

    /// Check one run: conservation, the masked-figure bound, and the
    /// fingerprint. `Err` names the first difference.
    pub fn check(&mut self, r: &EngineReport) -> Result<(), String> {
        if !r.conserved() {
            return Err("conservation violated".to_string());
        }
        if let Some(s) = r
            .shards
            .iter()
            .find(|s| s.blacklisted > r.verdicts_published)
        {
            return Err(format!(
                "a shard holds {} blacklist entries but only {} verdicts were published",
                s.blacklisted, r.verdicts_published
            ));
        }
        let fp = fingerprint(r);
        let reference = self.reference.get_or_insert_with(|| fp.clone());
        if *reference == fp {
            return Ok(());
        }
        let diff = reference
            .lines()
            .zip(fp.lines())
            .find(|(a, b)| a != b)
            .map(|(a, b)| format!("expected `{a}`, got `{b}`"))
            .unwrap_or_else(|| "fingerprint length differs".to_string());
        Err(format!(
            "decision fingerprint differs from the {} one: {diff}",
            self.source
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_finds_each_block() {
        let file = "seed=1\nofferedA\ntotals: a\n\nseed=2\nofferedB\ntotals: b\n";
        assert_eq!(lookup(file, 1).as_deref(), Some("offeredA\ntotals: a\n"));
        assert_eq!(lookup(file, 2).as_deref(), Some("offeredB\ntotals: b\n"));
        assert_eq!(lookup(file, 3), None);
        assert_eq!(lookup(file, 12), None);
    }

    #[test]
    fn block_and_lookup_round_trip() {
        let fp = "offered=10\ntotals: alerts=0\n";
        let file = format!("{}\n{}", block(4, fp), block(5, "offered=11\n"));
        assert_eq!(lookup(&file, 4).as_deref(), Some(fp));
        assert_eq!(lookup(&file, 5).as_deref(), Some("offered=11\n"));
    }

    #[test]
    fn every_default_seed_has_a_stored_fingerprint() {
        for w in Workload::ALL {
            for seed in DEFAULT_SEEDS {
                let fp = stored(w, seed)
                    .unwrap_or_else(|| panic!("{} seed {seed} has no fingerprint", w.name()));
                assert!(fp.starts_with("offered="), "{} seed {seed}", w.name());
                assert!(fp.ends_with('\n'), "{} seed {seed}", w.name());
            }
        }
    }
}
