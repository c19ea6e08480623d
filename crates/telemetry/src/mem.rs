//! Process-memory sampling for the soak harness.
//!
//! The serve/soak loop claims zero steady-state growth: pooled batches,
//! compacted ControlLog, fixed-capacity rings. Proving that over time
//! needs the actual resident set, not just our own counters. On Linux
//! this module reads the kernel's accounting from `/proc/self/status`
//! (`VmRSS`, kB granularity) with `/proc/self/statm` (pages) as a
//! fallback; elsewhere it reports 0 so callers degrade gracefully — the
//! harness skips RSS assertions when the sample is 0.

/// Resident-set size of the current process in bytes; 0 when the
/// platform exposes no `/proc` (non-Linux) or parsing fails.
pub fn rss_bytes() -> u64 {
    rss_from_status().or_else(rss_from_statm).unwrap_or(0)
}

/// `VmRSS:` line of `/proc/self/status`, reported in kB.
fn rss_from_status() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Second field of `/proc/self/statm` is resident pages; the kernel
/// page size is 4 KiB on every platform this runs on (and an inflated
/// sample only makes the soak assertion stricter).
fn rss_from_statm() -> Option<u64> {
    let statm = std::fs::read_to_string("/proc/self/statm").ok()?;
    let pages: u64 = statm.split_whitespace().nth(1)?.parse().ok()?;
    Some(pages * 4096)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rss_is_positive_on_linux_and_roughly_sane() {
        let rss = rss_bytes();
        if cfg!(target_os = "linux") {
            // A test binary resident set is at least a few hundred KiB
            // and (well) under a terabyte.
            assert!(rss > 100 * 1024, "rss_bytes() = {rss}");
            assert!(rss < 1 << 40, "rss_bytes() = {rss}");
        }
    }

    #[test]
    fn rss_grows_when_memory_is_touched() {
        if !cfg!(target_os = "linux") {
            return;
        }
        let before = rss_bytes();
        // Touch 16 MiB so the pages are actually resident. The buffer is
        // never read, so `black_box` keeps the optimiser from dropping the
        // writes (and with them the resident pages).
        let mut big = vec![0u8; 16 << 20];
        for i in (0..big.len()).step_by(4096) {
            big[i] = i as u8;
        }
        let big = std::hint::black_box(big);
        let after = rss_bytes();
        assert!(
            after >= before + (8 << 20),
            "rss before={before} after={after}"
        );
        drop(big);
    }
}
