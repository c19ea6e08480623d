//! Stealthy port-scan and TCP-incomplete-flow detection (paper §5.1.3).
//!
//! The port-scan detector is the Jung et al. TRW scheme: the sNIC tracks
//! each connection attempt's outcome φᵢʳ per packet (pinning the flow
//! until the three-way handshake resolves), exports the indicator to the
//! host, and the host runs sequential hypothesis testing per remote node.
//!
//! Crucially for the Fig. 8c comparison: the detector consumes *outcomes*,
//! not rates — a paranoid scanner spacing probes minutes apart still
//! accumulates evidence, which is exactly what volumetric switch queries
//! cannot do.

use crate::stats::{Trw, TrwVerdict};
use crate::{Alert, Subject};
use smartwatch_host::{ConnEvent, ConnTable};
use smartwatch_net::{AttackKind, Dur, KeyedHashMap, KeyedHashSet, Packet, Ts};
use std::net::Ipv4Addr;

/// Per-remote TRW port-scan detector.
#[derive(Clone, Debug, Default)]
pub struct PortscanDetector {
    walks: KeyedHashMap<Ipv4Addr, Trw>,
    alerted: KeyedHashSet<Ipv4Addr>,
    /// Distinct destinations probed per source (context for alerts).
    probed: KeyedHashMap<Ipv4Addr, KeyedHashSet<(Ipv4Addr, u16)>>,
}

impl PortscanDetector {
    /// Fresh detector with classic TRW parameters.
    pub fn new() -> PortscanDetector {
        PortscanDetector::default()
    }

    /// Feed one resolved connection-attempt outcome (`success` = the
    /// handshake completed) from remote `src` towards `(dst, port)`.
    pub fn observe(
        &mut self,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        port: u16,
        success: bool,
        ts: Ts,
    ) -> Option<Alert> {
        self.probed.entry(src).or_default().insert((dst, port));
        let walk = self.walks.entry(src).or_default();
        if walk.observe(success) == TrwVerdict::Scanner && self.alerted.insert(src) {
            let fanout = self.probed[&src].len();
            return Some(Alert::new(
                AttackKind::StealthyPortScan,
                Subject::Source(src),
                ts,
                format!(
                    "TRW flagged scanner after {} outcomes, fanout {fanout}",
                    walk.observations()
                ),
            ));
        }
        None
    }

    /// Sources flagged as scanners.
    pub fn scanners(&self) -> Vec<Ipv4Addr> {
        let mut v: Vec<Ipv4Addr> = self.alerted.iter().copied().collect();
        v.sort();
        v
    }
}

/// Drives a [`ConnTable`] over raw packets and feeds resolved outcomes to
/// the TRW detector — the composition the sNIC + host performs online.
#[derive(Debug)]
pub struct ScanPipeline {
    /// Connection tracker (the sNIC's pinned flow-state role).
    pub conns: ConnTable,
    /// TRW (the host's role).
    pub detector: PortscanDetector,
    /// TCP-incomplete-flows detector, fed from the same sweeps.
    pub incomplete: IncompleteFlowDetector,
    /// S0 attempts older than this count as failed (no response).
    pub attempt_timeout: Dur,
    last_sweep: Ts,
}

impl Default for ScanPipeline {
    fn default() -> Self {
        ScanPipeline::new()
    }
}

impl ScanPipeline {
    /// Pipeline with the standard 2-second attempt timeout.
    pub fn new() -> ScanPipeline {
        ScanPipeline {
            conns: ConnTable::new(),
            detector: PortscanDetector::new(),
            incomplete: IncompleteFlowDetector::new(8),
            attempt_timeout: Dur::from_secs(2),
            last_sweep: Ts::ZERO,
        }
    }

    /// Feed one packet; returns any new alert.
    pub fn on_packet(&mut self, pkt: &Packet) -> Vec<Alert> {
        let mut alerts = Vec::new();
        // Periodic timeout sweep (every 500 ms of virtual time).
        if pkt.ts.since(self.last_sweep) >= Dur::from_millis(500) {
            self.last_sweep = pkt.ts;
            for rec in self
                .conns
                .sweep_attempt_timeouts(pkt.ts, self.attempt_timeout)
            {
                let (src, dst, port) = originator_view(&rec);
                if let Some(a) = self.detector.observe(src, dst, port, false, pkt.ts) {
                    alerts.push(a);
                }
                alerts.extend(self.incomplete.observe_incomplete(&rec, pkt.ts));
            }
            // Established-but-dataless connections are incomplete too
            // (half-open probes answered by SYN/ACK).
            for rec in self
                .conns
                .sweep_dataless(pkt.ts, self.attempt_timeout.mul(4))
            {
                alerts.extend(self.incomplete.observe_incomplete(&rec, pkt.ts));
            }
        }
        let key = pkt.key;
        match self.conns.process(pkt) {
            Some(ConnEvent::Established) => {
                if let Some(rec) = self.conns.get(&key) {
                    let (src, dst, port) = originator_view(rec);
                    if let Some(a) = self.detector.observe(src, dst, port, true, pkt.ts) {
                        alerts.push(a);
                    }
                }
            }
            Some(ConnEvent::Rejected) => {
                if let Some(rec) = self.conns.remove(&key) {
                    let (src, dst, port) = originator_view(&rec);
                    if let Some(a) = self.detector.observe(src, dst, port, false, pkt.ts) {
                        alerts.push(a);
                    }
                }
            }
            _ => {}
        }
        alerts
    }

    /// Final sweep at end of trace.
    pub fn finish(&mut self, now: Ts) -> Vec<Alert> {
        let mut alerts = Vec::new();
        let horizon = now + self.attempt_timeout;
        for rec in self
            .conns
            .sweep_attempt_timeouts(horizon, self.attempt_timeout)
        {
            let (src, dst, port) = originator_view(&rec);
            if let Some(a) = self.detector.observe(src, dst, port, false, now) {
                alerts.push(a);
            }
            alerts.extend(self.incomplete.observe_incomplete(&rec, now));
        }
        for rec in self.conns.sweep_dataless(horizon, self.attempt_timeout) {
            alerts.extend(self.incomplete.observe_incomplete(&rec, now));
        }
        alerts
    }
}

/// (originator addr, responder addr, responder port) of a connection.
fn originator_view(rec: &smartwatch_host::ConnRecord) -> (Ipv4Addr, Ipv4Addr, u16) {
    if rec.orig_is_forward {
        (rec.key.src_ip, rec.key.dst_ip, rec.key.dst_port)
    } else {
        (rec.key.dst_ip, rec.key.src_ip, rec.key.src_port)
    }
}

/// TCP-incomplete-flows detector (Table 2): sources accumulating many
/// connections that open but never carry data.
#[derive(Clone, Debug)]
pub struct IncompleteFlowDetector {
    /// Incomplete connections per source that trigger an alert.
    pub threshold: u32,
    counts: KeyedHashMap<Ipv4Addr, u32>,
    alerted: KeyedHashSet<Ipv4Addr>,
}

impl IncompleteFlowDetector {
    /// Detector alerting after `threshold` incomplete flows per source.
    pub fn new(threshold: u32) -> IncompleteFlowDetector {
        IncompleteFlowDetector {
            threshold,
            counts: KeyedHashMap::default(),
            alerted: KeyedHashSet::default(),
        }
    }

    /// Report a connection that ended (timed out / was swept) with no
    /// payload in either direction.
    pub fn observe_incomplete(
        &mut self,
        rec: &smartwatch_host::ConnRecord,
        now: Ts,
    ) -> Option<Alert> {
        if rec.total_bytes() > 0 {
            return None;
        }
        let (src, _, _) = originator_view(rec);
        let c = self.counts.entry(src).or_insert(0);
        *c += 1;
        if *c >= self.threshold && self.alerted.insert(src) {
            Some(Alert::new(
                AttackKind::TcpIncompleteFlows,
                Subject::Source(src),
                now,
                format!("{c} dataless connections"),
            ))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartwatch_net::{FlowKey, PacketBuilder, TcpFlags};

    fn scanner() -> Ipv4Addr {
        Ipv4Addr::new(198, 18, 0, 1)
    }

    fn probe(i: u32, ts: Ts, refused: bool) -> Vec<Packet> {
        let key = FlowKey::tcp(
            scanner(),
            30000 + i as u16,
            Ipv4Addr::new(172, 16, 0, (i % 200) as u8 + 1),
            (1 + i * 13 % 1024) as u16,
        );
        let syn = PacketBuilder::new(key, ts).flags(TcpFlags::SYN).build();
        if refused {
            let rst = PacketBuilder::new(key.reversed(), ts + Dur::from_micros(300))
                .flags(TcpFlags::RST_ACK)
                .build();
            vec![syn, rst]
        } else {
            vec![syn]
        }
    }

    #[test]
    fn refused_probes_flag_scanner() {
        let mut p = ScanPipeline::new();
        let mut alerts = Vec::new();
        for i in 0..10 {
            for pkt in probe(i, Ts::from_millis(u64::from(i) * 10), true) {
                alerts.extend(p.on_packet(&pkt));
            }
        }
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].subject, Subject::Source(scanner()));
    }

    #[test]
    fn silent_probes_flag_scanner_via_timeout() {
        let mut p = ScanPipeline::new();
        let mut alerts = Vec::new();
        // Filtered ports: lone SYNs, spaced 1 s apart so sweeps run.
        for i in 0..10 {
            for pkt in probe(i, Ts::from_secs(u64::from(i)), false) {
                alerts.extend(p.on_packet(&pkt));
            }
        }
        alerts.extend(p.finish(Ts::from_secs(30)));
        let scans: Vec<&Alert> = alerts
            .iter()
            .filter(|a| a.kind == smartwatch_net::AttackKind::StealthyPortScan)
            .collect();
        assert_eq!(scans.len(), 1, "paranoid scanner must still be caught");
        // The same lone-SYN probes are also (correctly) incomplete flows.
        assert!(alerts
            .iter()
            .any(|a| a.kind == smartwatch_net::AttackKind::TcpIncompleteFlows));
    }

    #[test]
    fn slow_scan_detected_regardless_of_delay() {
        // Fig. 8c's point: outcomes are outcome-count-driven, not
        // rate-driven. 5-minute probe spacing still converges.
        let mut p = ScanPipeline::new();
        let mut alerts = Vec::new();
        for i in 0..10 {
            for pkt in probe(i, Ts::from_secs(u64::from(i) * 300), true) {
                alerts.extend(p.on_packet(&pkt));
            }
        }
        assert_eq!(alerts.len(), 1);
    }

    #[test]
    fn benign_clients_not_flagged() {
        let mut d = PortscanDetector::new();
        let benign = Ipv4Addr::new(10, 0, 0, 5);
        for i in 0..50 {
            let a = d.observe(
                benign,
                Ipv4Addr::new(172, 16, 0, 1),
                443,
                true,
                Ts::from_secs(i),
            );
            assert!(a.is_none());
        }
        assert!(d.scanners().is_empty());
    }

    #[test]
    fn incomplete_flow_threshold() {
        let mut d = IncompleteFlowDetector::new(3);
        let key = FlowKey::tcp(scanner(), 1, Ipv4Addr::new(172, 16, 0, 1), 80);
        let rec = smartwatch_host::ConnRecord {
            key: key.canonical().0,
            state: smartwatch_host::ConnState::S0,
            orig_is_forward: key.canonical().1 == smartwatch_net::key::Direction::Forward,
            orig_pkts: 1,
            resp_pkts: 0,
            orig_bytes: 0,
            resp_bytes: 0,
            start: Ts::ZERO,
            last: Ts::ZERO,
            fin_orig: false,
            fin_resp: false,
        };
        assert!(d.observe_incomplete(&rec, Ts::ZERO).is_none());
        assert!(d.observe_incomplete(&rec, Ts::ZERO).is_none());
        assert!(d.observe_incomplete(&rec, Ts::ZERO).is_some());
        // Once flagged, silent.
        assert!(d.observe_incomplete(&rec, Ts::ZERO).is_none());
    }

    #[test]
    fn connections_with_data_are_not_incomplete() {
        let mut d = IncompleteFlowDetector::new(1);
        let key = FlowKey::tcp(scanner(), 1, Ipv4Addr::new(172, 16, 0, 1), 80);
        let mut rec = smartwatch_host::ConnRecord {
            key: key.canonical().0,
            state: smartwatch_host::ConnState::SF,
            orig_is_forward: true,
            orig_pkts: 5,
            resp_pkts: 5,
            orig_bytes: 100,
            resp_bytes: 100,
            start: Ts::ZERO,
            last: Ts::ZERO,
            fin_orig: true,
            fin_resp: true,
        };
        assert!(d.observe_incomplete(&rec, Ts::ZERO).is_none());
        rec.orig_bytes = 0;
        rec.resp_bytes = 0;
        assert!(d.observe_incomplete(&rec, Ts::ZERO).is_some());
    }
}
