//! The detector suite: all online detectors wired to one packet stream.
//!
//! This is the "15 attack detectors simultaneously running in SmartWatch"
//! of Table 2. The suite also decides, per packet, whether the host must
//! be involved — the paper's partitioning: SSH/FTP sessions stay on the
//! host only until their authentication outcome is known, RST packets
//! visit the timing wheel, everything else completes on the sNIC.

use smartwatch_detect::auth::{BruteforceDetector, CertExpiryMonitor, KerberosMonitor};
use smartwatch_detect::dnsamp::DnsAmpDetector;
use smartwatch_detect::portscan::ScanPipeline;
use smartwatch_detect::rst::{ForgedRstDetector, RstEvent};
use smartwatch_detect::slowloris::SlowlorisDetector;
use smartwatch_detect::worm::EarlyBirdDetector;
use smartwatch_detect::Alert;
use smartwatch_host::{ArtefactRegistry, AuthHeuristic, AuthOutcome, ConnEvent, ConnTable};
use smartwatch_net::{Dur, FlowKey, KeyedHashSet, Packet, Ts};
use smartwatch_snic::FlowRecord;

/// Where a packet finished processing (for tier accounting).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HostNeed {
    /// Fully handled by the sNIC.
    SnicOnly,
    /// Escalated to a host NF (Zeek analysis, timing wheel…).
    Host,
}

/// Per-packet outcome from the suite.
#[derive(Clone, Debug)]
pub struct SuiteOutcome {
    /// Alerts raised by this packet.
    pub alerts: Vec<Alert>,
    /// Tier the packet needed.
    pub host: HostNeed,
    /// Flows the platform may whitelist on the switch (benign verdicts,
    /// e.g. successful SSH authentication).
    pub whitelist: Vec<FlowKey>,
}

/// Per-detector data-path operation counts, used to derive Table 2's
/// cycle-share column from the cost model instead of asserting it.
#[derive(Clone, Copy, Debug, Default)]
pub struct SuiteOps {
    /// Packets inspected by the scan pipeline (conn tracking + TRW).
    pub scan: u64,
    /// Packets that touched the RST detector (RSTs + racing data).
    pub rst: u64,
    /// UDP/53 packets the DNS-amplification detector accounted.
    pub dns: u64,
    /// Digest-bearing packets the worm detector sighted.
    pub worm: u64,
    /// Packets of auth sessions (SSH/FTP) tracked for outcomes.
    pub auth: u64,
    /// Certificate/ticket digests resolved.
    pub artefacts: u64,
    /// Total packets through the suite.
    pub total: u64,
}

/// The full detector suite.
pub struct DetectorSuite {
    /// TRW port-scan pipeline (sNIC outcome tracking + host hypothesis
    /// test).
    pub scan: ScanPipeline,
    /// Forged-RST detector (host timing wheel + Bloom fast path).
    pub rst: ForgedRstDetector,
    /// DNS amplification.
    pub dns: DnsAmpDetector,
    /// EarlyBird worm detection.
    pub worm: EarlyBirdDetector,
    /// SSH bruteforce.
    pub ssh: BruteforceDetector,
    /// FTP bruteforce.
    pub ftp: BruteforceDetector,
    /// Slowloris (interval-driven, over exported flow records).
    pub slowloris: SlowlorisDetector,
    /// TLS certificate expiry (None disables).
    pub cert: Option<CertExpiryMonitor>,
    /// Kerberos ticket monitoring (None disables).
    pub krb: Option<KerberosMonitor>,
    /// Session tracker feeding the auth-outcome heuristic.
    conns: ConnTable,
    heuristic: AuthHeuristic,
    /// Auth sessions already classified (no further host escalation).
    classified: KeyedHashSet<FlowKey>,
    /// Data-path operation counters (Table 2 accounting).
    pub ops: SuiteOps,
}

impl DetectorSuite {
    /// Suite with default thresholds and no TLS/Kerberos registries.
    pub fn new() -> DetectorSuite {
        DetectorSuite {
            scan: ScanPipeline::new(),
            rst: ForgedRstDetector::paper_default(),
            dns: DnsAmpDetector::new(),
            worm: EarlyBirdDetector::paper_default(),
            ssh: BruteforceDetector::ssh(),
            ftp: BruteforceDetector::ftp(),
            slowloris: SlowlorisDetector::new(),
            cert: None,
            krb: None,
            conns: ConnTable::new(),
            heuristic: AuthHeuristic::default(),
            classified: KeyedHashSet::default(),
            ops: SuiteOps::default(),
        }
    }

    /// Attach the TLS certificate registry (enables the expiry monitor).
    pub fn with_cert_registry(mut self, reg: ArtefactRegistry, horizon: Dur) -> DetectorSuite {
        self.cert = Some(CertExpiryMonitor::new(reg, horizon));
        self
    }

    /// Attach the Kerberos ticket registry.
    pub fn with_krb_registry(mut self, reg: ArtefactRegistry, max_lifetime: Dur) -> DetectorSuite {
        self.krb = Some(KerberosMonitor::new(reg, max_lifetime));
        self
    }

    fn is_auth_port(port: u16) -> bool {
        port == 22 || port == 21
    }

    /// Feed one packet through every online detector.
    pub fn on_packet(&mut self, pkt: &Packet) -> SuiteOutcome {
        let mut alerts = Vec::new();
        let mut whitelist = Vec::new();
        let mut host = HostNeed::SnicOnly;
        self.ops.total += 1;

        // Port scan (conn tracking + TRW). The pipeline owns its own
        // ConnTable; cheap because it's keyed the same way.
        if pkt.is_tcp() {
            self.ops.scan += 1;
        }
        alerts.extend(self.scan.on_packet(pkt));

        // Forged RST: RST packets visit the host timing wheel.
        if pkt.is_tcp() && (pkt.flags.rst() || pkt.payload_len > 0) {
            self.ops.rst += 1;
            for ev in self.rst.on_packet(pkt) {
                match ev {
                    RstEvent::ForgedDetected(a) | RstEvent::DuplicateRst(a) => alerts.push(a),
                    RstEvent::BufferedFast | RstEvent::BufferedSlow => host = HostNeed::Host,
                    RstEvent::Released(_) => {}
                }
            }
        }

        // DNS amplification.
        if pkt.is_udp() && (pkt.key.dst_port == 53 || pkt.key.src_port == 53) {
            self.ops.dns += 1;
        }
        alerts.extend(self.dns.on_packet(pkt));

        // Worm signatures.
        if pkt.payload_digest != 0 && pkt.payload_len > 0 {
            self.ops.worm += 1;
        }
        alerts.extend(self.worm.on_packet(pkt));

        // TLS / Kerberos artefacts (server-side data segments).
        if pkt.payload_digest != 0 {
            if pkt.key.src_port == 443 || pkt.key.src_port == 88 {
                self.ops.artefacts += 1;
            }
            if let Some(c) = self.cert.as_mut() {
                if pkt.key.src_port == 443 {
                    alerts.extend(c.observe(pkt.payload_digest, pkt.ts));
                }
            }
            if let Some(k) = self.krb.as_mut() {
                if pkt.key.src_port == 88 {
                    alerts.extend(k.observe(pkt.payload_digest, pkt.ts));
                }
            }
        }

        // SSH/FTP sessions: packets go to the host (Zeek) until the
        // authentication outcome is determined.
        let auth_port =
            Self::is_auth_port(pkt.key.dst_port) || Self::is_auth_port(pkt.key.src_port);
        if auth_port && pkt.is_tcp() {
            self.ops.auth += 1;
            let canon = pkt.key.canonical().0;
            let already = self.classified.contains(&canon);
            if !already {
                host = HostNeed::Host;
            }
            let event = self.conns.process(pkt);
            // Classify on termination, or once the session has clearly
            // succeeded (long/heavy), whichever comes first.
            let outcome = match event {
                Some(ConnEvent::Finished) | Some(ConnEvent::Reset(_)) => {
                    self.conns.get(&canon).map(|r| self.heuristic.classify(r))
                }
                _ => self.conns.get(&canon).and_then(|r| {
                    let o = self.heuristic.classify(r);
                    (o == AuthOutcome::Success).then_some(o)
                }),
            };
            if let Some(outcome) = outcome {
                if !already && outcome != AuthOutcome::Unknown {
                    self.classified.insert(canon);
                    let rec = self.conns.get(&canon).expect("classified conn exists");
                    let src = if rec.orig_is_forward {
                        rec.key.src_ip
                    } else {
                        rec.key.dst_ip
                    };
                    let service = if rec.orig_is_forward {
                        rec.key.dst_port
                    } else {
                        rec.key.src_port
                    };
                    if outcome == AuthOutcome::Success {
                        // Benign verdict: whitelist so the switch stops
                        // steering this flow (§3.1).
                        whitelist.push(canon);
                    }
                    let det = if service == 21 {
                        &mut self.ftp
                    } else {
                        &mut self.ssh
                    };
                    alerts.extend(det.observe(src, pkt.ts, outcome));
                    self.conns.remove(&canon);
                }
            }
        }

        SuiteOutcome {
            alerts,
            host,
            whitelist,
        }
    }

    /// Interval boundary: run the flow-log detectors (Slowloris) over the
    /// interval's exported records.
    pub fn end_interval(&mut self, records: &[FlowRecord], now: Ts) -> Vec<Alert> {
        self.slowloris.analyze(records, now)
    }

    /// Final sweep at end of trace.
    pub fn finish(&mut self, now: Ts) -> Vec<Alert> {
        let mut alerts = self.scan.finish(now);
        for ev in self.rst.finish(now) {
            if let RstEvent::ForgedDetected(a) | RstEvent::DuplicateRst(a) = ev {
                alerts.push(a);
            }
        }
        alerts
    }
}

impl Default for DetectorSuite {
    fn default() -> Self {
        DetectorSuite::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartwatch_net::AttackKind;
    use smartwatch_trace::attacks::auth::{bruteforce, BruteforceConfig};
    use smartwatch_trace::attacks::portscan::{portscan, ScanConfig};
    use smartwatch_trace::attacks::rst::{forged_rst, ForgedRstConfig};

    #[test]
    fn suite_detects_bruteforce_and_escalates_auth_packets() {
        let cfg = BruteforceConfig::ssh(smartwatch_trace::attacks::victim_ip(0), Ts::ZERO, 9);
        let trace = bruteforce(&cfg);
        let mut suite = DetectorSuite::new();
        let mut alerts = Vec::new();
        let mut host_pkts = 0u64;
        for p in trace.iter() {
            let o = suite.on_packet(p);
            if o.host == HostNeed::Host {
                host_pkts += 1;
            }
            alerts.extend(o.alerts);
        }
        let brute: Vec<&Alert> = alerts
            .iter()
            .filter(|a| a.kind == AttackKind::SshBruteforce)
            .collect();
        assert!(!brute.is_empty(), "bruteforce campaign must be flagged");
        assert!(host_pkts > 0, "auth sessions visit the host");
    }

    #[test]
    fn successful_login_whitelists_flow() {
        let mut cfg = BruteforceConfig::ssh(smartwatch_trace::attacks::victim_ip(0), Ts::ZERO, 9);
        cfg.attackers = 1;
        cfg.attempts_per_attacker = 1;
        cfg.final_success = true;
        let trace = bruteforce(&cfg);
        let mut suite = DetectorSuite::new();
        let mut whitelisted = Vec::new();
        for p in trace.iter() {
            whitelisted.extend(suite.on_packet(p).whitelist);
        }
        assert!(
            !whitelisted.is_empty(),
            "successful session gets whitelisted"
        );
    }

    #[test]
    fn suite_detects_scanner() {
        let trace = portscan(&ScanConfig::with_delay(Dur::from_millis(50), 60, 4));
        let mut suite = DetectorSuite::new();
        let mut alerts = Vec::new();
        for p in trace.iter() {
            alerts.extend(suite.on_packet(p).alerts);
        }
        alerts.extend(suite.finish(trace.packets().last().unwrap().ts));
        assert!(alerts
            .iter()
            .any(|a| a.kind == AttackKind::StealthyPortScan));
    }

    #[test]
    fn suite_detects_forged_rst() {
        let trace = forged_rst(&ForgedRstConfig::default());
        let mut suite = DetectorSuite::new();
        let mut alerts = Vec::new();
        for p in trace.iter() {
            alerts.extend(suite.on_packet(p).alerts);
        }
        assert!(alerts.iter().any(|a| a.kind == AttackKind::ForgedTcpRst));
    }

    #[test]
    fn registry_equipped_suite_flags_certs_and_tickets() {
        use smartwatch_host::ArtefactRegistry;
        use smartwatch_trace::attacks::auth::{
            kerberos_tickets, tls_with_certs, KerberosConfig, TlsConfig,
        };
        let (tls, certs) = tls_with_certs(&TlsConfig {
            seed: 1,
            sessions: 30,
            expiring_fraction: 0.3,
            window: Dur::from_secs(4),
            now: Ts::from_millis(100),
            horizon: Dur::from_secs(30 * 86_400),
        });
        let (krb, tickets) = kerberos_tickets(&KerberosConfig {
            seed: 2,
            requests: 30,
            suspicious_fraction: 0.3,
            window: Dur::from_secs(4),
            now: Ts::from_millis(100),
            max_lifetime: Dur::from_secs(36_000),
        });
        let trace = smartwatch_trace::Trace::merge([tls, krb]);
        let mut suite = DetectorSuite::new()
            .with_cert_registry(
                ArtefactRegistry::from_pairs(certs.iter().map(|a| (a.digest, a.expires_at))),
                Dur::from_secs(30 * 86_400),
            )
            .with_krb_registry(
                ArtefactRegistry::from_pairs(tickets.iter().map(|a| (a.digest, a.expires_at))),
                Dur::from_secs(36_000),
            );
        let mut alerts = Vec::new();
        for p in trace.iter() {
            alerts.extend(suite.on_packet(p).alerts);
        }
        assert!(alerts.iter().any(|a| a.kind == AttackKind::ExpiringSslCert));
        assert!(alerts.iter().any(|a| a.kind == AttackKind::KerberosTicket));
        assert!(suite.ops.artefacts > 0, "artefact ops counted");
    }

    #[test]
    fn op_counters_track_detector_relevance() {
        use smartwatch_trace::attacks::dns_amp::{dns_amplification, DnsAmpConfig};
        let amp = dns_amplification(&DnsAmpConfig::new(
            smartwatch_trace::background::client_ip(1),
            Ts::ZERO,
            3,
        ));
        let mut suite = DetectorSuite::new();
        for p in amp.iter() {
            suite.on_packet(p);
        }
        assert_eq!(suite.ops.total, amp.len() as u64);
        assert_eq!(suite.ops.dns, amp.len() as u64, "pure DNS trace");
        assert_eq!(suite.ops.scan, 0, "no TCP in a UDP reflection trace");
    }

    #[test]
    fn benign_traffic_mostly_stays_on_snic() {
        use smartwatch_trace::background::{preset_trace, Preset};
        let trace = preset_trace(Preset::Caida2018, 300, Dur::from_secs(2), 5);
        let mut suite = DetectorSuite::new();
        let mut host = 0u64;
        for p in trace.iter() {
            if suite.on_packet(p).host == HostNeed::Host {
                host += 1;
            }
        }
        let frac = host as f64 / trace.len() as f64;
        assert!(frac < 0.16, "host fraction should be <16%: {frac:.3}");
    }
}
