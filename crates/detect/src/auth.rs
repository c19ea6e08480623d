//! Authentication-abuse detectors: SSH/FTP bruteforce, expiring SSL
//! certificates, Kerberos ticket monitoring (paper §5.1.1 and Table 2).
//!
//! The bruteforce detector mirrors Zeek's `detect-bruteforcing` policy:
//! count failed login attempts ψ per remote source within a sliding time
//! window, alert when ψ crosses a threshold (Zeek defaults to 30 failures
//! in 30 minutes; the paper's demo uses 3). Outcomes come from the
//! [`AuthHeuristic`](smartwatch_host::AuthHeuristic) applied to finished
//! sessions.

use crate::{Alert, Subject};
use smartwatch_host::AuthOutcome;
use smartwatch_net::{AttackKind, Dur, KeyedHashMap, KeyedHashSet, Ts};
use std::collections::VecDeque;
use std::net::Ipv4Addr;

/// Sliding-window failed-login detector for SSH (port 22) or FTP (21).
#[derive(Clone, Debug)]
pub struct BruteforceDetector {
    /// Which attack this instance reports.
    pub kind: AttackKind,
    /// Failures within the window that trigger an alert (ψ threshold).
    pub threshold: u32,
    /// Sliding window length.
    pub window: Dur,
    failures: KeyedHashMap<Ipv4Addr, VecDeque<Ts>>,
    alerted: KeyedHashSet<Ipv4Addr>,
}

impl BruteforceDetector {
    /// SSH detector with the paper's demo threshold (3 failures / 30 min).
    pub fn ssh() -> BruteforceDetector {
        BruteforceDetector {
            kind: AttackKind::SshBruteforce,
            threshold: 3,
            window: Dur::from_secs(30 * 60),
            failures: KeyedHashMap::default(),
            alerted: KeyedHashSet::default(),
        }
    }

    /// FTP variant.
    pub fn ftp() -> BruteforceDetector {
        BruteforceDetector {
            kind: AttackKind::FtpBruteforce,
            ..BruteforceDetector::ssh()
        }
    }

    /// Feed one classified session outcome.
    pub fn observe(&mut self, src: Ipv4Addr, ts: Ts, outcome: AuthOutcome) -> Option<Alert> {
        if outcome != AuthOutcome::Failure {
            return None;
        }
        let q = self.failures.entry(src).or_default();
        q.push_back(ts);
        while let Some(&front) = q.front() {
            if ts.since(front) > self.window {
                q.pop_front();
            } else {
                break;
            }
        }
        if q.len() as u32 >= self.threshold && self.alerted.insert(src) {
            Some(Alert::new(
                self.kind,
                Subject::Source(src),
                ts,
                format!("{} failed logins within window", q.len()),
            ))
        } else {
            None
        }
    }

    /// Sources currently flagged.
    pub fn flagged(&self) -> Vec<Ipv4Addr> {
        let mut v: Vec<Ipv4Addr> = self.alerted.iter().copied().collect();
        v.sort();
        v
    }
}

/// Expiring-certificate monitor (Zeek `expiring-certs` equivalent):
/// resolves observed certificate digests against the registry and alerts
/// once per certificate expiring within the horizon.
#[derive(Clone, Debug)]
pub struct CertExpiryMonitor {
    /// Alert horizon (Zeek default: 30 days).
    pub horizon: Dur,
    registry: smartwatch_host::ArtefactRegistry,
    seen: KeyedHashSet<u64>,
}

impl CertExpiryMonitor {
    /// Monitor over a registry.
    pub fn new(registry: smartwatch_host::ArtefactRegistry, horizon: Dur) -> CertExpiryMonitor {
        CertExpiryMonitor {
            horizon,
            registry,
            seen: KeyedHashSet::default(),
        }
    }

    /// Observe a certificate digest presented at `now`.
    pub fn observe(&mut self, digest: u64, now: Ts) -> Option<Alert> {
        if digest == 0 || !self.seen.insert(digest) {
            return None;
        }
        match self.registry.expires_within(digest, now, self.horizon) {
            Some(true) => Some(Alert::new(
                AttackKind::ExpiringSslCert,
                Subject::Digest(digest),
                now,
                "certificate expires within horizon",
            )),
            _ => None,
        }
    }
}

/// Kerberos ticket monitor: alerts on tickets whose lifetime exceeds the
/// domain maximum (golden-ticket indicator).
#[derive(Clone, Debug)]
pub struct KerberosMonitor {
    /// Maximum legitimate ticket lifetime (default 10 h).
    pub max_lifetime: Dur,
    registry: smartwatch_host::ArtefactRegistry,
    seen: KeyedHashSet<u64>,
}

impl KerberosMonitor {
    /// Monitor over a ticket registry.
    pub fn new(registry: smartwatch_host::ArtefactRegistry, max_lifetime: Dur) -> KerberosMonitor {
        KerberosMonitor {
            max_lifetime,
            registry,
            seen: KeyedHashSet::default(),
        }
    }

    /// Observe a ticket digest issued at `issued`.
    pub fn observe(&mut self, digest: u64, issued: Ts) -> Option<Alert> {
        if digest == 0 || !self.seen.insert(digest) {
            return None;
        }
        match self
            .registry
            .lifetime_exceeds(digest, issued, self.max_lifetime)
        {
            Some(true) => Some(Alert::new(
                AttackKind::KerberosTicket,
                Subject::Digest(digest),
                issued,
                "ticket lifetime exceeds domain maximum",
            )),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartwatch_host::ArtefactRegistry;

    fn src(i: u8) -> Ipv4Addr {
        Ipv4Addr::new(198, 18, 0, i)
    }

    #[test]
    fn threshold_failures_trigger_once() {
        let mut d = BruteforceDetector::ssh();
        assert!(d
            .observe(src(1), Ts::from_secs(0), AuthOutcome::Failure)
            .is_none());
        assert!(d
            .observe(src(1), Ts::from_secs(60), AuthOutcome::Failure)
            .is_none());
        let a = d.observe(src(1), Ts::from_secs(120), AuthOutcome::Failure);
        assert!(a.is_some());
        assert_eq!(a.unwrap().subject, Subject::Source(src(1)));
        // No duplicate alert.
        assert!(d
            .observe(src(1), Ts::from_secs(180), AuthOutcome::Failure)
            .is_none());
        assert_eq!(d.flagged(), vec![src(1)]);
    }

    #[test]
    fn window_expiry_forgets_old_failures() {
        let mut d = BruteforceDetector::ssh();
        d.observe(src(2), Ts::from_secs(0), AuthOutcome::Failure);
        d.observe(src(2), Ts::from_secs(10), AuthOutcome::Failure);
        // Third failure far outside the 30-minute window: no alert.
        let a = d.observe(src(2), Ts::from_secs(4_000), AuthOutcome::Failure);
        assert!(a.is_none());
    }

    #[test]
    fn successes_and_unknowns_ignored() {
        let mut d = BruteforceDetector::ssh();
        for i in 0..10 {
            assert!(d
                .observe(src(3), Ts::from_secs(i), AuthOutcome::Success)
                .is_none());
            assert!(d
                .observe(src(3), Ts::from_secs(i), AuthOutcome::Unknown)
                .is_none());
        }
    }

    #[test]
    fn per_source_isolation() {
        let mut d = BruteforceDetector::ssh();
        for i in 0..2 {
            d.observe(src(4), Ts::from_secs(i), AuthOutcome::Failure);
            d.observe(src(5), Ts::from_secs(i), AuthOutcome::Failure);
        }
        // Each source has 2 failures; neither crosses 3.
        assert!(d.flagged().is_empty());
    }

    #[test]
    fn cert_expiry_alerts_once() {
        let reg = ArtefactRegistry::from_pairs([
            (10, Ts::from_secs(100)),
            (11, Ts::from_secs(1_000_000)),
        ]);
        let mut m = CertExpiryMonitor::new(reg, Dur::from_secs(500));
        let now = Ts::from_secs(0);
        assert!(m.observe(10, now).is_some());
        assert!(m.observe(10, now).is_none(), "dedupe");
        assert!(m.observe(11, now).is_none(), "healthy cert");
        assert!(m.observe(0, now).is_none(), "zero digest ignored");
        assert!(m.observe(99, now).is_none(), "unknown digest ignored");
    }

    #[test]
    fn kerberos_long_ticket_alerts() {
        let reg = ArtefactRegistry::from_pairs([
            (20, Ts::from_secs(1_000_000)), // huge lifetime
            (21, Ts::from_secs(30_000)),    // normal
        ]);
        let mut m = KerberosMonitor::new(reg, Dur::from_secs(36_000));
        assert!(m.observe(20, Ts::ZERO).is_some());
        assert!(m.observe(21, Ts::ZERO).is_none());
    }
}
