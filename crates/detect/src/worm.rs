//! EarlyBird worm detection (Singh et al.), Table 2's worm row.
//!
//! A worm's payload is invariant while its addressing disperses: the
//! detector keys on *content prevalence* (the same payload digest seen
//! many times) joined with *address dispersion* (many distinct sources
//! and destinations for that digest). SmartWatch's flow records carry a
//! payload digest, so the sNIC can feed the sighting table directly; the
//! microburst log's lookup structure (hash of payload ‖ dstIP) is reused
//! for the signature check.

use crate::{Alert, Subject};
use smartwatch_net::{AttackKind, KeyedHashMap, KeyedHashSet, Packet};
use std::net::Ipv4Addr;

/// Per-digest sighting state.
#[derive(Clone, Debug, Default)]
struct Sighting {
    count: u64,
    sources: KeyedHashSet<Ipv4Addr>,
    destinations: KeyedHashSet<Ipv4Addr>,
}

/// EarlyBird-style worm detector.
#[derive(Clone, Debug)]
pub struct EarlyBirdDetector {
    /// Content-prevalence threshold (sightings of one digest).
    pub prevalence: u64,
    /// Distinct sources required.
    pub src_dispersion: usize,
    /// Distinct destinations required.
    pub dst_dispersion: usize,
    sightings: KeyedHashMap<u64, Sighting>,
    alerted: KeyedHashSet<u64>,
}

impl EarlyBirdDetector {
    /// EarlyBird's canonical thresholds: prevalence 3+, dispersion 30
    /// sources / 30 destinations (scaled-down defaults here).
    pub fn new(prevalence: u64, src_dispersion: usize, dst_dispersion: usize) -> EarlyBirdDetector {
        EarlyBirdDetector {
            prevalence,
            src_dispersion,
            dst_dispersion,
            sightings: KeyedHashMap::default(),
            alerted: KeyedHashSet::default(),
        }
    }

    /// Defaults suited to the generated outbreaks.
    pub fn paper_default() -> EarlyBirdDetector {
        EarlyBirdDetector::new(50, 10, 30)
    }

    /// Feed one packet; alerts once per worm signature.
    pub fn on_packet(&mut self, p: &Packet) -> Option<Alert> {
        if p.payload_digest == 0 || p.payload_len == 0 {
            return None;
        }
        let s = self.sightings.entry(p.payload_digest).or_default();
        s.count += 1;
        s.sources.insert(p.key.src_ip);
        s.destinations.insert(p.key.dst_ip);
        if s.count >= self.prevalence
            && s.sources.len() >= self.src_dispersion
            && s.destinations.len() >= self.dst_dispersion
            && self.alerted.insert(p.payload_digest)
        {
            Some(Alert::new(
                AttackKind::Worm,
                Subject::Digest(p.payload_digest),
                p.ts,
                format!(
                    "signature seen {}x from {} sources to {} destinations",
                    s.count,
                    s.sources.len(),
                    s.destinations.len()
                ),
            ))
        } else {
            None
        }
    }

    /// Flagged signatures.
    pub fn signatures(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.alerted.iter().copied().collect();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartwatch_net::Ts;
    use smartwatch_net::{FlowKey, PacketBuilder};

    fn probe(src: u32, dst: u32, digest: u64, ts_ms: u64) -> Packet {
        let key = FlowKey::tcp(
            Ipv4Addr::from(0xC6120000 + src),
            30000,
            Ipv4Addr::from(0xC6130000 + dst),
            445,
        );
        PacketBuilder::new(key, Ts::from_millis(ts_ms))
            .payload(376)
            .payload_digest(digest)
            .build()
    }

    #[test]
    fn spreading_signature_detected_once() {
        let mut d = EarlyBirdDetector::new(20, 5, 10);
        let mut alerts = 0;
        for i in 0..100u32 {
            if d.on_packet(&probe(i % 8, i, 0xBAD, u64::from(i))).is_some() {
                alerts += 1;
            }
        }
        assert_eq!(alerts, 1);
        assert_eq!(d.signatures(), vec![0xBAD]);
    }

    #[test]
    fn popular_content_without_dispersion_is_fine() {
        // A popular download: one server, many clients pulling the same
        // content — high prevalence, many *destinations* but one source…
        let mut d = EarlyBirdDetector::new(20, 5, 10);
        for i in 0..200u32 {
            // single source (a CDN node) to many clients
            assert!(d.on_packet(&probe(1, i, 0xCD01, u64::from(i))).is_none());
        }
    }

    #[test]
    fn chatty_pair_without_fanout_is_fine() {
        let mut d = EarlyBirdDetector::new(20, 5, 10);
        for i in 0..200u32 {
            assert!(d.on_packet(&probe(1, 2, 0xAAA, u64::from(i))).is_none());
        }
    }

    #[test]
    fn empty_digests_ignored() {
        let mut d = EarlyBirdDetector::new(1, 1, 1);
        assert!(d.on_packet(&probe(1, 2, 0, 0)).is_none());
    }

    #[test]
    fn detects_generated_outbreak() {
        use smartwatch_trace::attacks::worm::{worm_outbreak, WormConfig};
        let cfg = WormConfig {
            signature: 0x5EED,
            ..WormConfig::new(77)
        };
        let trace = worm_outbreak(&cfg);
        let mut d = EarlyBirdDetector::paper_default();
        let mut detected_at = None;
        for p in trace.iter() {
            if let Some(a) = d.on_packet(p) {
                detected_at = Some(a.ts);
                break;
            }
        }
        let t = detected_at.expect("outbreak detected");
        // Detection must come well before the outbreak ends.
        assert!(t < Ts::from_secs(8), "detected at {t}");
    }
}
