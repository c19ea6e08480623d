//! Pre-digested, pooled packet batches — the zero-alloc hot-path
//! currency between the dispatcher and the shards.
//!
//! The dispatcher canonicalises and hashes every packet exactly once
//! ([`smartwatch_net::FlowHasher::digest_symmetric`]) and records the
//! result next to the packet as a [`DigestedPacket`]. Everything
//! downstream — RSS sharding, black/whitelist membership, the FlowCache
//! row lookup — reuses that digest instead of re-deriving it.
//!
//! Batches travel in `Vec<DigestedPacket>` buffers owned by a
//! [`BufferPool`]: shards hand drained buffers back to the dispatcher
//! over a bounded recycle channel, so after a short warm-up the steady
//! state allocates nothing per batch. Pool traffic is observable as
//! `runtime.pool.allocated` / `runtime.pool.recycled` counters; the
//! zero-growth property is what the pool tests pin down.
//!
//! On the consuming side, shards walk each delivered batch in
//! [`EngineConfig::cache_burst`](crate::EngineConfig::cache_burst)-sized
//! chunks: the carried digest lets the shard prefetch every FlowCache
//! row a chunk will touch *before* the first probe (stage A), then
//! process the chunk strictly in sequence (stage B). The prefetch stage
//! is architecturally inert, so decisions, counters and the
//! deterministic summary are byte-identical at any burst width.

use smartwatch_net::{HashDigest, Packet};
use smartwatch_telemetry::{Counter, Registry};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::time::{Duration, Instant};

/// A packet plus its dispatch-time digest: the canonical (direction-free)
/// flow key and the symmetric 64-bit hash over it.
#[derive(Clone, Copy, Debug)]
pub struct DigestedPacket {
    /// The packet, as offered.
    pub pkt: Packet,
    /// `pkt.key.canonical().0`, computed once at dispatch.
    pub canon: smartwatch_net::FlowKey,
    /// Symmetric digest of `canon` under the engine's hash seed.
    pub digest: HashDigest,
}

/// One dispatched batch: pre-digested packets plus the enqueue instant
/// (queue-wait timing).
pub(crate) struct Batch {
    /// The packets, already RSS-filtered for one shard.
    pub pkts: Vec<DigestedPacket>,
    /// When the dispatcher enqueued the batch.
    pub sent: Instant,
}

/// Dispatcher-side buffer pool fed by a bounded recycle channel.
///
/// `acquire` prefers a recycled buffer and falls back to a fresh
/// allocation (counted — the pool tests assert the count stops growing
/// after warm-up). Shards return buffers through [`RecycleSender`]; a
/// full channel simply drops the buffer, so the pool's footprint is
/// bounded by the channel capacity plus the buffers in flight.
pub(crate) struct BufferPool {
    rx: Receiver<Vec<DigestedPacket>>,
    tx: SyncSender<Vec<DigestedPacket>>,
    batch_capacity: usize,
    /// Fresh `Vec` allocations (misses).
    pub allocated: Counter,
    /// Buffers reused from the recycle channel (hits).
    pub recycled: Counter,
}

impl BufferPool {
    /// Pool with room for `slots` recycled buffers of `batch_capacity`
    /// packets each, publishing `runtime.pool.*` into `registry`.
    pub fn new(slots: usize, batch_capacity: usize, registry: &Registry) -> BufferPool {
        let (tx, rx) = sync_channel(slots.max(1));
        BufferPool {
            rx,
            tx,
            batch_capacity,
            allocated: registry.counter("runtime.pool.allocated", &[]),
            recycled: registry.counter("runtime.pool.recycled", &[]),
        }
    }

    /// An empty buffer: recycled when one is waiting, freshly allocated
    /// otherwise.
    pub fn acquire(&self) -> Vec<DigestedPacket> {
        match self.rx.try_recv() {
            Ok(mut buf) => {
                buf.clear();
                self.recycled.inc();
                buf
            }
            Err(_) => {
                self.allocated.inc();
                Vec::with_capacity(self.batch_capacity)
            }
        }
    }

    /// A return-path handle for one shard.
    pub fn recycler(&self) -> RecycleSender {
        RecycleSender(self.tx.clone())
    }

    /// Dispatcher-side return path (e.g. a batch dropped at a full shard
    /// queue in paced mode goes straight back to the pool).
    pub fn give_back(&self, mut buf: Vec<DigestedPacket>) {
        buf.clear();
        let _ = self.tx.try_send(buf);
    }
}

/// A shard's handle for returning drained batch buffers to the pool.
pub(crate) struct RecycleSender(SyncSender<Vec<DigestedPacket>>);

impl RecycleSender {
    /// Hand a drained buffer back. A full (or closed) channel drops the
    /// buffer instead — correctness never depends on recycling.
    pub fn give_back(&self, mut buf: Vec<DigestedPacket>) {
        buf.clear();
        let _ = self.0.try_send(buf);
    }
}

/// Poll-loop pacing: spin briefly, then yield, then park with doubling
/// timeouts — bounded exponential backoff.
///
/// The first [`Backoff::SPIN_LIMIT`] idle polls spin (latency-optimal
/// when work is about to arrive), the next stretch yields the CPU (the
/// producer may need this very core), and from then on the thread parks,
/// doubling the timeout from [`Backoff::PARK_MIN`] up to
/// [`Backoff::PARK_MAX`] — so a paced low-rate run stops burning a full
/// core per idle shard while the wake-up latency stays bounded.
pub(crate) struct Backoff {
    polls: u32,
}

impl Backoff {
    /// Idle polls that spin before the first yield.
    const SPIN_LIMIT: u32 = 64;
    /// Idle polls (spins + yields) before the first park.
    const YIELD_LIMIT: u32 = 128;
    /// First park timeout.
    const PARK_MIN: Duration = Duration::from_micros(16);
    /// Park timeout ceiling (bounds both CPU burn and wake-up latency).
    const PARK_MAX: Duration = Duration::from_micros(256);

    /// Fresh (hot) backoff state.
    pub fn new() -> Backoff {
        Backoff { polls: 0 }
    }

    /// Work arrived: return to the spin phase.
    pub fn reset(&mut self) {
        self.polls = 0;
    }

    /// One idle poll. Returns `true` when the thread parked (the caller
    /// counts these as `idle_parks`).
    pub fn idle(&mut self) -> bool {
        self.polls = self.polls.saturating_add(1);
        if self.polls <= Self::SPIN_LIMIT {
            std::hint::spin_loop();
            false
        } else if self.polls <= Self::YIELD_LIMIT {
            std::thread::yield_now();
            false
        } else {
            let doublings = (self.polls - Self::YIELD_LIMIT - 1).min(4);
            let timeout = Self::PARK_MIN
                .saturating_mul(1 << doublings)
                .min(Self::PARK_MAX);
            std::thread::park_timeout(timeout);
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartwatch_net::{FlowHasher, FlowKey, PacketBuilder, Ts};
    use std::net::Ipv4Addr;

    fn digested(i: u32) -> DigestedPacket {
        let key = FlowKey::tcp(
            Ipv4Addr::from(0x0A00_0000 + i),
            1000,
            Ipv4Addr::new(10, 0, 1, 1),
            80,
        );
        let pkt = PacketBuilder::new(key, Ts::ZERO).build();
        let (canon, digest) = FlowHasher::new(0x51CC).digest_symmetric(&key);
        DigestedPacket { pkt, canon, digest }
    }

    #[test]
    fn pool_recycles_without_growth_after_warmup() {
        let reg = Registry::new();
        let pool = BufferPool::new(8, 64, &reg);
        let shard = pool.recycler();

        // Warm-up: the first acquires of an empty pool must allocate.
        let mut in_flight: Vec<Vec<DigestedPacket>> = (0..4).map(|_| pool.acquire()).collect();
        let warmup_allocs = pool.allocated.get();
        assert_eq!(warmup_allocs, 4);

        // Steady state: acquire/fill/give-back cycles — zero growth.
        for round in 0..1000u32 {
            let mut buf = in_flight.pop().expect("buffer available");
            for i in 0..64 {
                buf.push(digested(round * 64 + i));
            }
            shard.give_back(buf);
            in_flight.push(pool.acquire());
        }
        assert_eq!(
            pool.allocated.get(),
            warmup_allocs,
            "steady state must not allocate"
        );
        assert_eq!(pool.recycled.get(), 1000);
        assert!(
            in_flight.iter().all(|b| b.is_empty()),
            "buffers come back clean"
        );
    }

    #[test]
    fn full_recycle_channel_drops_instead_of_blocking() {
        let reg = Registry::new();
        let pool = BufferPool::new(2, 8, &reg);
        let shard = pool.recycler();
        for _ in 0..10 {
            shard.give_back(Vec::new()); // 8 of these overflow: dropped
        }
        // Only the 2 channel slots are reusable.
        let _a = pool.acquire();
        let _b = pool.acquire();
        let _c = pool.acquire();
        assert_eq!(pool.recycled.get(), 2);
        assert_eq!(pool.allocated.get(), 1);
    }

    #[test]
    fn backoff_escalates_spin_yield_park_and_resets() {
        let mut b = Backoff::new();
        let mut parked = 0u32;
        for _ in 0..Backoff::YIELD_LIMIT {
            assert!(!b.idle(), "no park during spin/yield phases");
        }
        for _ in 0..8 {
            if b.idle() {
                parked += 1;
            }
        }
        assert_eq!(parked, 8, "past the yield limit every poll parks");
        b.reset();
        assert!(!b.idle(), "reset returns to the spin phase");
    }
}
