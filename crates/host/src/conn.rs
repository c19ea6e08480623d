//! Zeek-style TCP connection state tracking.
//!
//! The host's protocol analyzers (and the sNIC's connection-outcome
//! tracking for port-scan detection) need per-session state machines that
//! classify how each connection attempt ends. States and semantics follow
//! Zeek's `conn_state` vocabulary, which the paper's detectors are written
//! against.

use smartwatch_net::{Dur, FlowKey, KeyedHashMap, Packet, Ts};

/// Connection states, after Zeek's `conn_state`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum ConnState {
    /// SYN seen, no reply yet.
    S0,
    /// Established (SYN → SYN/ACK → ACK), still open.
    S1,
    /// Established and finished with FIN exchange.
    SF,
    /// Connection attempt rejected (SYN answered by RST).
    Rej,
    /// Established, originator aborted with RST.
    Rsto,
    /// Established, responder aborted with RST.
    Rstr,
    /// Traffic seen without a handshake (midstream pickup).
    Oth,
}

impl ConnState {
    /// True for states that represent a *failed* connection attempt —
    /// the signal the TRW port-scan detector consumes.
    pub fn is_failed_attempt(self) -> bool {
        matches!(self, ConnState::S0 | ConnState::Rej)
    }
}

/// An event emitted when a connection's classification changes in a way
/// detectors care about.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ConnEvent {
    /// Three-way handshake completed.
    Established,
    /// SYN answered by RST from the responder.
    Rejected,
    /// Orderly termination completed.
    Finished,
    /// Reset after establishment (bool = reset by originator).
    Reset(bool),
    /// S0 connection timed out with no reply (failed attempt confirmed).
    AttemptTimeout,
}

/// Per-connection bookkeeping.
#[derive(Clone, Copy, Debug)]
pub struct ConnRecord {
    /// Canonical flow key.
    pub key: FlowKey,
    /// Current state.
    pub state: ConnState,
    /// Originator (first-SYN sender) is the canonical-forward endpoint?
    pub orig_is_forward: bool,
    /// Packets from originator / responder.
    pub orig_pkts: u64,
    /// Packets from responder.
    pub resp_pkts: u64,
    /// Payload bytes from originator.
    pub orig_bytes: u64,
    /// Payload bytes from responder.
    pub resp_bytes: u64,
    /// First packet time.
    pub start: Ts,
    /// Last packet time.
    pub last: Ts,
    /// FIN seen from the originator.
    pub fin_orig: bool,
    /// FIN seen from the responder.
    pub fin_resp: bool,
}

impl ConnRecord {
    /// Total payload bytes both ways.
    pub fn total_bytes(&self) -> u64 {
        self.orig_bytes + self.resp_bytes
    }

    /// Connection duration so far.
    pub fn duration(&self) -> Dur {
        self.last - self.start
    }
}

/// The connection table: feeds packets, emits classification events.
#[derive(Clone, Debug, Default)]
pub struct ConnTable {
    conns: KeyedHashMap<FlowKey, ConnRecord>,
}

impl ConnTable {
    /// Empty table.
    pub fn new() -> ConnTable {
        ConnTable::default()
    }

    /// Active connection count.
    pub fn len(&self) -> usize {
        self.conns.len()
    }

    /// True if no connections are tracked.
    pub fn is_empty(&self) -> bool {
        self.conns.is_empty()
    }

    /// Look up a connection.
    pub fn get(&self, key: &FlowKey) -> Option<&ConnRecord> {
        self.conns.get(&key.canonical().0)
    }

    /// Iterate over tracked connections.
    pub fn iter(&self) -> impl Iterator<Item = &ConnRecord> {
        self.conns.values()
    }

    /// Remove a connection (after its analyzer is done with it).
    pub fn remove(&mut self, key: &FlowKey) -> Option<ConnRecord> {
        self.conns.remove(&key.canonical().0)
    }

    /// Process one TCP packet; returns an event if the connection's
    /// classification changed.
    pub fn process(&mut self, pkt: &Packet) -> Option<ConnEvent> {
        if !pkt.is_tcp() {
            return None;
        }
        let (canon, dir) = pkt.key.canonical();
        let from_forward = dir == smartwatch_net::key::Direction::Forward;

        let rec = self.conns.entry(canon).or_insert_with(|| ConnRecord {
            key: canon,
            state: if pkt.flags.is_syn_only() {
                ConnState::S0
            } else {
                ConnState::Oth
            },
            orig_is_forward: from_forward,
            orig_pkts: 0,
            resp_pkts: 0,
            orig_bytes: 0,
            resp_bytes: 0,
            start: pkt.ts,
            last: pkt.ts,
            fin_orig: false,
            fin_resp: false,
        });

        let from_orig = from_forward == rec.orig_is_forward;
        if from_orig {
            rec.orig_pkts += 1;
            rec.orig_bytes += u64::from(pkt.payload_len);
        } else {
            rec.resp_pkts += 1;
            rec.resp_bytes += u64::from(pkt.payload_len);
        }
        rec.last = pkt.ts;

        // State transitions.
        let old = rec.state;
        let mut event = None;
        match old {
            ConnState::S0 => {
                if !from_orig && pkt.flags.is_syn_ack() {
                    rec.state = ConnState::S1;
                    event = Some(ConnEvent::Established);
                } else if !from_orig && pkt.flags.rst() {
                    rec.state = ConnState::Rej;
                    event = Some(ConnEvent::Rejected);
                }
            }
            ConnState::S1 => {
                if pkt.flags.rst() {
                    rec.state = if from_orig {
                        ConnState::Rsto
                    } else {
                        ConnState::Rstr
                    };
                    event = Some(ConnEvent::Reset(from_orig));
                } else if pkt.flags.fin() {
                    if from_orig {
                        rec.fin_orig = true;
                    } else {
                        rec.fin_resp = true;
                    }
                    if rec.fin_orig && rec.fin_resp {
                        rec.state = ConnState::SF;
                        event = Some(ConnEvent::Finished);
                    }
                }
            }
            _ => {}
        }
        event
    }

    /// Time out S0 connections idle longer than `timeout` at `now`:
    /// no-response connection attempts (the third port-scan outcome).
    /// Returns the timed-out records and removes them.
    pub fn sweep_attempt_timeouts(&mut self, now: Ts, timeout: Dur) -> Vec<ConnRecord> {
        let expired: Vec<FlowKey> = self
            .conns
            .values()
            .filter(|r| r.state == ConnState::S0 && now.since(r.last) >= timeout)
            .map(|r| r.key)
            .collect();
        expired
            .iter()
            .filter_map(|k| self.conns.remove(k))
            .collect()
    }

    /// Sweep connections (any state) that carried **no payload** in either
    /// direction and have been idle at least `timeout` — the "TCP
    /// incomplete flows" population: opened (or half-opened) but never
    /// used. Returns and removes them.
    pub fn sweep_dataless(&mut self, now: Ts, timeout: Dur) -> Vec<ConnRecord> {
        let expired: Vec<FlowKey> = self
            .conns
            .values()
            .filter(|r| r.total_bytes() == 0 && now.since(r.last) >= timeout)
            .map(|r| r.key)
            .collect();
        expired
            .iter()
            .filter_map(|k| self.conns.remove(k))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartwatch_net::{PacketBuilder, TcpFlags};
    use std::net::Ipv4Addr;

    fn key() -> FlowKey {
        FlowKey::tcp(
            Ipv4Addr::new(10, 0, 0, 1),
            40000,
            Ipv4Addr::new(10, 0, 0, 2),
            80,
        )
    }

    fn p(k: FlowKey, ts_us: u64, flags: TcpFlags, payload: u16) -> Packet {
        PacketBuilder::new(k, Ts::from_micros(ts_us))
            .flags(flags)
            .payload(payload)
            .build()
    }

    #[test]
    fn handshake_reaches_s1() {
        let mut t = ConnTable::new();
        assert_eq!(t.process(&p(key(), 1, TcpFlags::SYN, 0)), None);
        assert_eq!(t.get(&key()).unwrap().state, ConnState::S0);
        let ev = t.process(&p(key().reversed(), 2, TcpFlags::SYN_ACK, 0));
        assert_eq!(ev, Some(ConnEvent::Established));
        t.process(&p(key(), 3, TcpFlags::ACK, 0));
        assert_eq!(t.get(&key()).unwrap().state, ConnState::S1);
    }

    #[test]
    fn refusal_reaches_rej() {
        let mut t = ConnTable::new();
        t.process(&p(key(), 1, TcpFlags::SYN, 0));
        let ev = t.process(&p(key().reversed(), 2, TcpFlags::RST_ACK, 0));
        assert_eq!(ev, Some(ConnEvent::Rejected));
        assert!(t.get(&key()).unwrap().state.is_failed_attempt());
    }

    #[test]
    fn fin_exchange_reaches_sf() {
        let mut t = ConnTable::new();
        t.process(&p(key(), 1, TcpFlags::SYN, 0));
        t.process(&p(key().reversed(), 2, TcpFlags::SYN_ACK, 0));
        t.process(&p(key(), 3, TcpFlags::ACK, 0));
        t.process(&p(key(), 4, TcpFlags::FIN_ACK, 0));
        let ev = t.process(&p(key().reversed(), 5, TcpFlags::FIN_ACK, 0));
        assert_eq!(ev, Some(ConnEvent::Finished));
        assert_eq!(t.get(&key()).unwrap().state, ConnState::SF);
    }

    #[test]
    fn reset_after_establish_classified_by_side() {
        let mut t = ConnTable::new();
        t.process(&p(key(), 1, TcpFlags::SYN, 0));
        t.process(&p(key().reversed(), 2, TcpFlags::SYN_ACK, 0));
        let ev = t.process(&p(key().reversed(), 3, TcpFlags::RST, 0));
        assert_eq!(ev, Some(ConnEvent::Reset(false)));
        assert_eq!(t.get(&key()).unwrap().state, ConnState::Rstr);
    }

    #[test]
    fn byte_and_packet_accounting_by_direction() {
        let mut t = ConnTable::new();
        t.process(&p(key(), 1, TcpFlags::SYN, 0));
        t.process(&p(key().reversed(), 2, TcpFlags::SYN_ACK, 0));
        t.process(&p(key(), 3, TcpFlags::ACK, 0));
        t.process(&p(key(), 4, TcpFlags::PSH | TcpFlags::ACK, 100));
        t.process(&p(key().reversed(), 5, TcpFlags::PSH | TcpFlags::ACK, 500));
        let r = t.get(&key()).unwrap();
        assert_eq!(r.orig_pkts, 3);
        assert_eq!(r.resp_pkts, 2);
        assert_eq!(r.orig_bytes, 100);
        assert_eq!(r.resp_bytes, 500);
    }

    #[test]
    fn midstream_traffic_is_oth() {
        let mut t = ConnTable::new();
        t.process(&p(key(), 1, TcpFlags::PSH | TcpFlags::ACK, 50));
        assert_eq!(t.get(&key()).unwrap().state, ConnState::Oth);
    }

    #[test]
    fn s0_timeout_sweep() {
        let mut t = ConnTable::new();
        t.process(&p(key(), 1, TcpFlags::SYN, 0));
        // Another, younger attempt.
        let k2 = FlowKey::tcp(
            Ipv4Addr::new(10, 0, 0, 9),
            1,
            Ipv4Addr::new(10, 0, 0, 2),
            80,
        );
        t.process(&p(k2, 3_000_000, TcpFlags::SYN, 0));
        let timed_out = t.sweep_attempt_timeouts(Ts::from_secs(4), Dur::from_secs(2));
        assert_eq!(timed_out.len(), 1);
        assert_eq!(timed_out[0].key, key().canonical().0);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn responder_syn_ack_does_not_create_backwards_conn() {
        // If the first packet we see is the SYN from a scanner, the
        // originator must be the scanner regardless of canonical order.
        let back = FlowKey::tcp(
            Ipv4Addr::new(10, 0, 0, 200),
            55,
            Ipv4Addr::new(10, 0, 0, 2),
            80,
        );
        let mut t = ConnTable::new();
        t.process(&p(back, 1, TcpFlags::SYN, 0));
        t.process(&p(back.reversed(), 2, TcpFlags::SYN_ACK, 0));
        let r = t.get(&back).unwrap();
        assert_eq!(r.state, ConnState::S1);
        assert_eq!(r.orig_pkts, 1);
        assert_eq!(r.resp_pkts, 1);
    }
}
