//! The host-side escalation tier: a worker pool generalising
//! [`smartwatch_host::NfWorker`] from one thread to N, fed by a bounded
//! MPSC channel that every shard shares.
//!
//! The paper bounds host escalation at ≤ 16% of packets (§3.4); the
//! engine enforces the same shape with a bounded channel — when host
//! workers fall behind, shards count `escalation_dropped` instead of
//! blocking the data path. Worker verdicts are published into the
//! [`ControlLog`](crate::control::ControlLog) with an epoch stamp, from
//! where shards apply them at batch boundaries.

use crate::control::ControlLog;
use crate::obs::TraceSpec;
use smartwatch_host::{HostNf, Verdict};
use smartwatch_net::{FlowKey, KeyedHashMap, KeyedHashSet, Packet};
use smartwatch_telemetry::{Counter, Histogram};
use std::net::Ipv4Addr;
use std::sync::mpsc::{sync_channel, SyncSender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// The engine's default host NF: per-source escalation triage.
///
/// Every escalated packet charges its source address; once a source has
/// crossed `threshold` escalations it is considered hostile and each of
/// its flows is blacklisted on first sight after that point. This is a
/// deliberately simple stand-in for the heavyweight host analyzers (Zeek
/// scripts, the timing wheel) — the point in the runtime is the
/// escalate→verdict→enforce round trip, not the verdict logic.
pub struct TriageNf {
    threshold: u64,
    seen: KeyedHashMap<Ipv4Addr, u64>,
    issued: KeyedHashSet<FlowKey>,
}

impl TriageNf {
    /// Triage flagging sources after `threshold` escalated packets.
    pub fn new(threshold: u64) -> TriageNf {
        TriageNf {
            threshold: threshold.max(1),
            seen: KeyedHashMap::default(),
            issued: KeyedHashSet::default(),
        }
    }
}

impl HostNf for TriageNf {
    fn on_packet(&mut self, pkt: &Packet) -> Vec<Verdict> {
        let count = self.seen.entry(pkt.key.src_ip).or_insert(0);
        *count += 1;
        if *count >= self.threshold {
            let canon = pkt.key.canonical().0;
            if self.issued.insert(canon) {
                return vec![Verdict::Blacklist(canon)];
            }
        }
        Vec::new()
    }

    fn name(&self) -> &str {
        "triage"
    }
}

/// One escalated packet in flight to the host tier, stamped with the
/// instant the shard handed it off so the host worker can account the
/// full shard→host round-trip latency (`runtime.stage.escalate_ns`).
pub(crate) struct Escalated {
    pub pkt: Packet,
    pub sent: Instant,
}

/// Observation sinks for the host pool: the escalation round-trip
/// histogram plus (optionally) sampled per-worker trace tracks.
#[derive(Clone)]
pub struct HostObs {
    escalate_ns: Histogram,
    trace: Option<TraceSpec>,
}

impl HostObs {
    /// An observation sink that records into nothing — for standalone
    /// pools and tests that don't care about latency accounting.
    pub fn detached() -> HostObs {
        HostObs {
            escalate_ns: Histogram::new(),
            trace: None,
        }
    }

    pub(crate) fn new(escalate_ns: Histogram, trace: Option<TraceSpec>) -> HostObs {
        HostObs { escalate_ns, trace }
    }
}

/// A pool of host NF workers draining one bounded escalation channel.
pub struct HostPool {
    tx: Option<SyncSender<Escalated>>,
    handles: Vec<JoinHandle<()>>,
    /// Escalated packets actually processed by a host worker.
    pub processed: Counter,
}

impl HostPool {
    /// Spawn `workers` threads, each owning its own NF built by
    /// `make_nf(worker_idx)`. `queue` bounds in-flight escalations across
    /// the whole pool (the SR-IOV RX ring stand-in). Verdicts go straight
    /// to `log`; round-trip latencies land in `obs`.
    pub fn spawn<F>(
        workers: usize,
        queue: usize,
        log: Arc<ControlLog>,
        processed: Counter,
        obs: HostObs,
        make_nf: F,
    ) -> HostPool
    where
        F: Fn(usize) -> Box<dyn HostNf>,
    {
        assert!(workers >= 1, "pool needs at least one worker");
        let (tx, rx) = sync_channel::<Escalated>(queue.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let handles = (0..workers)
            .map(|w| {
                let rx = Arc::clone(&rx);
                let log = Arc::clone(&log);
                let mut nf = make_nf(w);
                let processed = processed.clone();
                let obs = obs.clone();
                std::thread::Builder::new()
                    .name(format!("sw-host-{w}"))
                    .spawn(move || {
                        let mut trace =
                            obs.trace.as_ref().map(|s| s.thread(format!("sw-host-{w}")));
                        let mut backoff = crate::batch::Backoff::new();
                        loop {
                            // Hold the receiver lock only for the non-blocking
                            // poll, so workers interleave rather than convoy.
                            let next = rx.lock().expect("pool receiver poisoned").try_recv();
                            match next {
                                Ok(esc) => {
                                    backoff.reset();
                                    processed.inc();
                                    for v in nf.on_packet(&esc.pkt) {
                                        log.publish(v);
                                    }
                                    // The full shard→verdict round trip,
                                    // queueing included.
                                    let rt = esc.sent.elapsed().as_nanos() as u64;
                                    obs.escalate_ns.record(rt);
                                    if let Some(tt) = trace.as_mut() {
                                        if tt.tick() {
                                            tt.span_at(
                                                esc.sent,
                                                rt,
                                                "escalation round-trip",
                                                "host",
                                            );
                                        }
                                    }
                                }
                                // Same spin→yield→park backoff as the shards:
                                // an idle host worker must not burn a core.
                                Err(TryRecvError::Empty) => {
                                    backoff.idle();
                                }
                                Err(TryRecvError::Disconnected) => return,
                            }
                        }
                    })
                    .expect("spawn host worker")
            })
            .collect();
        HostPool {
            tx: Some(tx),
            handles,
            processed,
        }
    }

    /// Enqueue one escalated packet; `false` means the pool ring was full
    /// (the caller must count the drop — never silent).
    pub fn try_send(&self, pkt: Packet) -> bool {
        self.tx.as_ref().is_some_and(|tx| {
            tx.try_send(Escalated {
                pkt,
                sent: Instant::now(),
            })
            .is_ok()
        })
    }

    /// A sender clone for a shard thread to own. The pool still shuts
    /// down cleanly only once every clone is dropped, so shards must be
    /// joined before `shutdown()` — the engine does exactly that.
    pub(crate) fn sender(&self) -> SyncSender<Escalated> {
        self.tx.as_ref().expect("pool already shut down").clone()
    }

    /// Close the channel, let workers drain every queued escalation, and
    /// join them. Verdicts published during the drain land in the log.
    pub fn shutdown(mut self) {
        self.tx.take();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for HostPool {
    fn drop(&mut self) {
        self.tx.take();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartwatch_net::{PacketBuilder, Ts};

    fn pkt(src_octet: u8, dport: u16) -> Packet {
        let key = FlowKey::tcp(
            Ipv4Addr::new(10, 0, 0, src_octet),
            40_000 + u16::from(src_octet),
            Ipv4Addr::new(10, 0, 1, 1),
            dport,
        );
        PacketBuilder::new(key, Ts::ZERO).build()
    }

    #[test]
    fn triage_blacklists_after_threshold_once_per_flow() {
        let mut nf = TriageNf::new(3);
        assert!(nf.on_packet(&pkt(1, 22)).is_empty());
        assert!(nf.on_packet(&pkt(1, 22)).is_empty());
        let v = nf.on_packet(&pkt(1, 22));
        assert_eq!(v.len(), 1, "third escalation crosses the threshold");
        assert!(matches!(v[0], Verdict::Blacklist(_)));
        assert!(
            nf.on_packet(&pkt(1, 22)).is_empty(),
            "same flow blacklisted once"
        );
        let other_flow = nf.on_packet(&pkt(1, 23));
        assert_eq!(other_flow.len(), 1, "new flow from a hostile source");
    }

    #[test]
    fn pool_processes_everything_and_publishes_verdicts() {
        let log = Arc::new(ControlLog::new());
        let hist = Histogram::new();
        let pool = HostPool::spawn(
            2,
            256,
            Arc::clone(&log),
            Counter::detached(),
            HostObs::new(hist.clone(), None),
            |_| Box::new(TriageNf::new(1)),
        );
        let mut sent = 0u64;
        for i in 0..100u8 {
            if pool.try_send(pkt(i, 22)) {
                sent += 1;
            }
        }
        assert_eq!(sent, 100, "queue of 256 never fills here");
        let processed = pool.processed.clone();
        pool.shutdown();
        assert_eq!(processed.get(), 100, "shutdown drains the queue");
        // threshold=1 and distinct flows ⇒ one blacklist per packet.
        assert_eq!(log.len(), 100);
        assert_eq!(hist.count(), 100, "every escalation records a round-trip");
        assert!(hist.max() > 0, "round-trip latency is a real duration");
    }

    #[test]
    fn full_pool_ring_rejects_without_blocking() {
        struct Stuck;
        impl HostNf for Stuck {
            fn on_packet(&mut self, _pkt: &Packet) -> Vec<Verdict> {
                std::thread::sleep(std::time::Duration::from_millis(250));
                Vec::new()
            }
            fn name(&self) -> &str {
                "stuck"
            }
        }
        let log = Arc::new(ControlLog::new());
        let pool = HostPool::spawn(1, 2, log, Counter::detached(), HostObs::detached(), |_| {
            Box::new(Stuck)
        });
        let mut rejected = false;
        for i in 0..64u8 {
            if !pool.try_send(pkt(i, 22)) {
                rejected = true;
                break;
            }
        }
        assert!(rejected, "bounded escalation ring must reject when full");
    }
}
