//! DNS amplification detection (paper §5.1.3 "Similar Attacks").
//!
//! Instead of the port-scan indicator φ, the detector computes the
//! amplification factor `sizeof(response)/sizeof(request)` per
//! (client, resolver) session. Reflection victims show high factors
//! across *many* resolvers simultaneously, so the alert keys on the
//! victim address once enough amplified sessions accumulate.
//!
//! The number of amplified sessions per client is kept incrementally: a
//! packet changes one pair's bytes, so it can move that pair across the
//! amplification predicate at most once, and the client's count moves
//! with it. Per-packet work is a few table probes (the pair, the
//! client's count, the alerted set) however many pairs the detector has
//! seen.

use crate::{Alert, Subject};
use smartwatch_net::{AttackKind, KeyedHashMap, KeyedHashSet, Packet};
use std::net::Ipv4Addr;

/// Per-(client, resolver) byte accounting.
#[derive(Clone, Copy, Debug, Default)]
struct PairBytes {
    request: u64,
    response: u64,
}

/// DNS amplification detector.
#[derive(Clone, Debug)]
pub struct DnsAmpDetector {
    /// Response/request byte ratio that marks a session amplified.
    pub factor_threshold: f64,
    /// Minimum request bytes before a ratio is meaningful.
    pub min_request_bytes: u64,
    /// Amplified (client, resolver) pairs needed to flag a victim.
    pub pair_threshold: usize,
    pairs: KeyedHashMap<(Ipv4Addr, Ipv4Addr), PairBytes>,
    /// Pairs of each client that currently satisfy the amplification
    /// predicate; clients that never had one have no entry.
    amplified: KeyedHashMap<Ipv4Addr, usize>,
    alerted: KeyedHashSet<Ipv4Addr>,
}

impl DnsAmpDetector {
    /// Defaults: factor ≥ 10 over ≥ 4 resolvers. Change the thresholds
    /// before the first packet only: the per-client counts hold each
    /// pair's verdict under the thresholds in force when its bytes last
    /// changed.
    pub fn new() -> DnsAmpDetector {
        DnsAmpDetector {
            factor_threshold: 10.0,
            min_request_bytes: 120,
            pair_threshold: 4,
            pairs: KeyedHashMap::default(),
            amplified: KeyedHashMap::default(),
            alerted: KeyedHashSet::default(),
        }
    }

    /// The per-pair predicate: enough request bytes, and responses at
    /// least `factor_threshold` times larger.
    fn is_amplified(&self, b: PairBytes) -> bool {
        b.request >= self.min_request_bytes
            && b.response as f64 / b.request.max(1) as f64 >= self.factor_threshold
    }

    /// Feed one packet (only UDP/53 packets are considered).
    pub fn on_packet(&mut self, p: &Packet) -> Option<Alert> {
        if !p.is_udp() {
            return None;
        }
        let (client, resolver, response) = if p.key.dst_port == 53 {
            (p.key.src_ip, p.key.dst_ip, false)
        } else if p.key.src_port == 53 {
            (p.key.dst_ip, p.key.src_ip, true)
        } else {
            return None;
        };
        let e = self.pairs.entry((client, resolver)).or_default();
        let before = *e;
        if response {
            e.response += u64::from(p.payload_len);
        } else {
            e.request += u64::from(p.payload_len);
        }
        let after = *e;
        match (self.is_amplified(before), self.is_amplified(after)) {
            (false, true) => *self.amplified.entry(client).or_default() += 1,
            (true, false) => {
                if let Some(n) = self.amplified.get_mut(&client) {
                    *n = n.saturating_sub(1);
                }
            }
            _ => {}
        }
        // Check victim status.
        if self.alerted.contains(&client) {
            return None;
        }
        let amplified = self.amplified.get(&client).copied().unwrap_or(0);
        if amplified >= self.pair_threshold {
            self.alerted.insert(client);
            Some(Alert::new(
                AttackKind::DnsAmplification,
                Subject::Destination(client),
                p.ts,
                format!("amplified responses from {amplified} resolvers"),
            ))
        } else {
            None
        }
    }

    /// Mean amplification factor observed for an address (diagnostics;
    /// scans every pair).
    pub fn amplification_factor(&self, client: Ipv4Addr) -> f64 {
        let (req, resp) = self
            .pairs
            .iter()
            .filter(|((c, _), _)| *c == client)
            .fold((0u64, 0u64), |(rq, rs), (_, b)| {
                (rq + b.request, rs + b.response)
            });
        if req == 0 {
            0.0
        } else {
            resp as f64 / req as f64
        }
    }
}

impl Default for DnsAmpDetector {
    fn default() -> Self {
        DnsAmpDetector::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use smartwatch_net::packet::udp;
    use smartwatch_net::Dur;
    use smartwatch_net::Ts;

    /// The detector as it was before the incremental count: the same
    /// accounting, with the victim test rescanning every pair. Kept as the
    /// reference the incremental detector must match packet for packet.
    struct ScanReference {
        det: DnsAmpDetector,
    }

    impl ScanReference {
        fn on_packet(&mut self, p: &Packet) -> Option<Alert> {
            let d = &mut self.det;
            if !p.is_udp() {
                return None;
            }
            let (client, resolver, response) = if p.key.dst_port == 53 {
                (p.key.src_ip, p.key.dst_ip, false)
            } else if p.key.src_port == 53 {
                (p.key.dst_ip, p.key.src_ip, true)
            } else {
                return None;
            };
            let e = d.pairs.entry((client, resolver)).or_default();
            if response {
                e.response += u64::from(p.payload_len);
            } else {
                e.request += u64::from(p.payload_len);
            }
            if d.alerted.contains(&client) {
                return None;
            }
            let amplified = d
                .pairs
                .iter()
                .filter(|((c, _), b)| *c == client && d.is_amplified(**b))
                .count();
            if amplified >= d.pair_threshold {
                d.alerted.insert(client);
                Some(Alert::new(
                    AttackKind::DnsAmplification,
                    Subject::Destination(client),
                    p.ts,
                    format!("amplified responses from {amplified} resolvers"),
                ))
            } else {
                None
            }
        }
    }

    /// One UDP packet of a DNS exchange from a `(client, resolver, kind,
    /// size)` draw over small address pools. Requests are small and
    /// responses large, so pairs hover around the amplification factor and
    /// cross it both ways; one draw in ten uses a non-DNS port.
    fn dns_packet((ci, ri, kind, size): (u8, u8, u8, u16), t: Ts) -> Packet {
        let (c, r) = (Ipv4Addr::new(10, 0, 0, ci), resolver(ri));
        match kind {
            0..=3 => udp(c, 5353, r, 53, t, 1 + size % 200),
            4..=8 => udp(r, 53, c, 5353, t, 500 + size % 1000),
            _ => udp(c, 5353, r, 5300, t, size),
        }
    }

    fn scanned_count(det: &DnsAmpDetector, client: Ipv4Addr) -> usize {
        det.pairs
            .iter()
            .filter(|((c, _), b)| *c == client && det.is_amplified(**b))
            .count()
    }

    #[test]
    fn incremental_count_matches_the_pair_scan() {
        let mut rng = proptest::TestRng::deterministic("dnsamp::incremental_count");
        let streams = (
            prop::collection::vec((0u8..3, 0u8..6, 0u8..10, any::<u16>()), 1..400),
            1usize..5,
        );
        let (mut fell_back, mut alerts) = (0, 0);
        for _ in 0..128 {
            let (stream, pair_threshold) = streams.sample(&mut rng);
            let mut det = DnsAmpDetector::new();
            det.pair_threshold = pair_threshold;
            let mut reference = ScanReference { det: det.clone() };
            let mut t = Ts::ZERO;
            for (i, &draw) in stream.iter().enumerate() {
                t += Dur::from_micros(10);
                let p = dns_packet(draw, t);
                let client = Ipv4Addr::new(10, 0, 0, draw.0);
                let before = det.amplified.get(&client).copied();
                let got = det.on_packet(&p);
                assert_eq!(got, reference.on_packet(&p), "packet {i}");
                alerts += usize::from(got.is_some());
                if det.amplified.get(&client).copied() < before {
                    fell_back += 1;
                }
            }
            // The counts agree with a rescan, alerted clients included.
            for client in 0..3u8 {
                let c = Ipv4Addr::new(10, 0, 0, client);
                let count = det.amplified.get(&c).copied().unwrap_or(0);
                assert_eq!(count, scanned_count(&det, c));
            }
        }
        assert!(fell_back > 0, "no stream took a pair back below the factor");
        assert!(alerts > 0, "no stream raised an alert");
    }

    #[test]
    fn pairs_fall_back_below_the_threshold() {
        // Three resolvers amplify, then the client's later (large) requests
        // drag them back under the factor before a fourth qualifies: no
        // alert may fire on a stale count.
        let mut det = DnsAmpDetector::new();
        let mut reference = ScanReference { det: det.clone() };
        let c = Ipv4Addr::new(10, 0, 0, 1);
        let mut t = Ts::ZERO;
        // Feed one request (or response) of `bytes` between the client and
        // resolver `r`; returns the alert and the client's count after it.
        let mut feed = |request: bool, r: u8, bytes: u16| {
            t += Dur::from_millis(1);
            let p = if request {
                udp(c, 5353, resolver(r), 53, t, bytes)
            } else {
                udp(resolver(r), 53, c, 5353, t, bytes)
            };
            let got = det.on_packet(&p);
            assert_eq!(got, reference.on_packet(&p));
            (got, det.amplified.get(&c).copied())
        };
        for r in 0..3u8 {
            feed(true, r, 120);
            assert_eq!(feed(false, r, 1400).1, Some(usize::from(r) + 1));
        }
        for r in 0..3u8 {
            feed(true, r, 1000);
        }
        assert_eq!(
            feed(true, 3, 120),
            (None, Some(0)),
            "fallen-back pairs leave the count"
        );
        let (alert, count) = feed(false, 3, 1400);
        assert_eq!(count, Some(1));
        assert!(
            alert.is_none(),
            "one amplified pair is below the pair threshold"
        );
    }

    fn victim() -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, 99)
    }

    fn resolver(i: u8) -> Ipv4Addr {
        Ipv4Addr::new(172, 16, 50, i)
    }

    #[test]
    fn amplified_reflection_flags_victim() {
        let mut d = DnsAmpDetector::new();
        let mut alerts = Vec::new();
        let mut t = Ts::ZERO;
        for r in 0..6u8 {
            for _ in 0..3 {
                t += Dur::from_millis(1);
                alerts.extend(d.on_packet(&udp(victim(), 5353, resolver(r), 53, t, 64)));
                t += Dur::from_millis(1);
                alerts.extend(d.on_packet(&udp(resolver(r), 53, victim(), 5353, t, 1400)));
            }
        }
        assert_eq!(alerts.len(), 1, "exactly one alert for the victim");
        let a = alerts.remove(0);
        assert_eq!(a.subject, Subject::Destination(victim()));
        assert!(d.amplification_factor(victim()) > 10.0);
    }

    #[test]
    fn normal_dns_not_flagged() {
        let mut d = DnsAmpDetector::new();
        let client = Ipv4Addr::new(10, 0, 0, 5);
        let mut t = Ts::ZERO;
        for r in 0..8u8 {
            for _ in 0..10 {
                t += Dur::from_millis(1);
                assert!(d
                    .on_packet(&udp(client, 40000, resolver(r), 53, t, 60))
                    .is_none());
                t += Dur::from_millis(1);
                // Typical response ~2–4× the query.
                assert!(d
                    .on_packet(&udp(resolver(r), 53, client, 40000, t, 180))
                    .is_none());
            }
        }
    }

    #[test]
    fn single_resolver_is_not_enough() {
        let mut d = DnsAmpDetector::new();
        let mut t = Ts::ZERO;
        for _ in 0..50 {
            t += Dur::from_millis(1);
            d.on_packet(&udp(victim(), 5353, resolver(0), 53, t, 64));
            t += Dur::from_millis(1);
            assert!(d
                .on_packet(&udp(resolver(0), 53, victim(), 5353, t, 1400))
                .is_none());
        }
    }

    #[test]
    fn non_dns_traffic_ignored() {
        let mut d = DnsAmpDetector::new();
        assert!(d
            .on_packet(&udp(victim(), 1000, resolver(0), 2000, Ts::ZERO, 1400))
            .is_none());
    }
}
