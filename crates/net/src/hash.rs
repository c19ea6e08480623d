//! The hash family used across SmartWatch.
//!
//! Three requirements drive this module:
//!
//! 1. **Symmetry** — the FlowCache must map both directions of a session to
//!    the same row (paper §4 "Symmetric Hash Function"). We achieve this by
//!    hashing the *canonical* orientation of the 5-tuple.
//! 2. **Digest splitting** — Algorithm 1 of the paper consumes one hash
//!    digest two ways: the low `x` bits select the hash-table row and the
//!    bits above `x` select the Lite-mode bucket offset. [`HashDigest`]
//!    packages that contract.
//! 3. **Independent hash functions** — sketches (CountMin, Elastic, MV)
//!    need `d` pairwise-independent functions; [`FlowHasher`] is seedable so
//!    each sketch row gets its own function.
//!
//! The mixer is a xxhash/murmur-style 64-bit finalizer over the packed
//! 13-byte 5-tuple. It is not cryptographic — neither is the hardware CRC
//! the Netronome uses — but it passes avalanche sanity tests (see below).
//!
//! Separately, [`KeyedHashMap`]/[`KeyedHashSet`] are the std collections
//! the detectors and host tables key by packet fields (addresses, flow
//! keys, payload digests): a per-map randomly keyed Fx-style hasher,
//! cheaper than std's SipHash per probe while still denying an attacker
//! precomputed bucket collisions.

use crate::key::{FlowKey, RawTuple};
use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};

/// A 64-bit flow hash digest with the splitting accessors used by the
/// FlowCache (Algorithm 1).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct HashDigest(pub u64);

impl HashDigest {
    /// Row index: the low `row_bits` bits of the digest
    /// (`hash_digest & (rows - 1)` in Algorithm 1 line 4).
    pub fn row(self, row_bits: u32) -> usize {
        debug_assert!(row_bits <= 63);
        (self.0 & ((1u64 << row_bits) - 1)) as usize
    }

    /// The bits above the row index, used by Lite mode to pick a bucket
    /// group within the row (`hash_digest >> x` in Algorithm 1 line 8).
    pub fn high(self, row_bits: u32) -> u64 {
        self.0 >> row_bits
    }

    /// Reduce the digest onto `m` counters (for sketches). Uses the
    /// multiply-shift trick to avoid modulo bias for non-power-of-two `m`.
    pub fn bucket(self, m: usize) -> usize {
        (((self.0 >> 32) * m as u64) >> 32) as usize
    }

    /// Compact probe tag for the FlowCache's per-row tag arrays: the top
    /// byte of the digest, mapped away from zero because 0 is the
    /// "empty bucket" sentinel. The top byte is untouched by
    /// [`HashDigest::row`] for every legal `row_bits` (≤ 30), so the tag
    /// adds discrimination *within* a row: a mismatch skips the full
    /// 13-byte key compare, a match is wrong only ~1/255 of the time.
    #[inline]
    pub fn tag(self) -> u8 {
        let t = (self.0 >> 56) as u8;
        if t == 0 {
            1
        } else {
            t
        }
    }
}

/// Seedable 64-bit hasher over flow keys and raw bytes.
///
/// Distinct seeds give (empirically) independent functions, which is what
/// the sketch baselines require.
#[derive(Clone, Copy, Debug)]
pub struct FlowHasher {
    seed: u64,
}

const K0: u64 = 0x9e37_79b9_7f4a_7c15;
const K1: u64 = 0xbf58_476d_1ce4_e5b9;
const K2: u64 = 0x94d0_49bb_1331_11eb;

#[inline]
fn mix(mut h: u64) -> u64 {
    h ^= h >> 30;
    h = h.wrapping_mul(K1);
    h ^= h >> 27;
    h = h.wrapping_mul(K2);
    h ^= h >> 31;
    h
}

impl Default for FlowHasher {
    fn default() -> Self {
        FlowHasher::new(0)
    }
}

impl FlowHasher {
    /// Create a hasher with the given seed. Each distinct seed yields an
    /// (empirically) independent hash function.
    pub fn new(seed: u64) -> FlowHasher {
        FlowHasher {
            seed: seed.wrapping_mul(K0).wrapping_add(K1),
        }
    }

    /// Hash a directed flow key exactly as given (no canonicalisation).
    pub fn hash_directed(&self, key: &FlowKey) -> HashDigest {
        let a = (u64::from(u32::from(key.src_ip)) << 16) | u64::from(key.src_port);
        let b = (u64::from(u32::from(key.dst_ip)) << 16) | u64::from(key.dst_port);
        let p = u64::from(key.proto.number());
        let mut h = self.seed;
        h = mix(h ^ a.wrapping_mul(K0));
        h = mix(h ^ b.wrapping_mul(K1));
        h = mix(h ^ p.wrapping_mul(K2));
        HashDigest(h)
    }

    /// Hash the *session* identity of a flow key: both directions of the
    /// connection produce the same digest. This is the paper's symmetric
    /// hash (§4), implemented via canonical orientation.
    pub fn hash_symmetric(&self, key: &FlowKey) -> HashDigest {
        self.digest_symmetric(key).1
    }

    /// Canonicalise `key` and hash it, returning both. This is the
    /// pre-digesting entry point of the hot path: the engine's dispatcher
    /// calls it exactly once per packet and every downstream consumer
    /// (RSS sharding, black/whitelist membership, the FlowCache row
    /// lookup) reuses the pair instead of re-deriving it.
    #[inline]
    pub fn digest_symmetric(&self, key: &FlowKey) -> (FlowKey, HashDigest) {
        let (canon, _) = key.canonical();
        (canon, self.hash_directed(&canon))
    }

    /// Digest a [`RawTuple`] extracted straight from frame bytes, without
    /// materialising the directed [`FlowKey`] first.
    ///
    /// Bit-identical to [`FlowHasher::digest_symmetric`] over the
    /// equivalent key: the tuple is canonicalised by the same
    /// `(ip, port)` lexicographic comparison [`FlowKey::canonical`] uses,
    /// then hashed with the same three-round mixer. The wire ingest path
    /// ([`crate::wire::FrameView`]) relies on this equivalence for
    /// decision-identical synthetic and compiled replays.
    #[inline]
    pub fn digest_raw(&self, t: RawTuple) -> (FlowKey, HashDigest) {
        let (aip, ap, bip, bp) = canon_raw(&t);
        let a = (u64::from(aip) << 16) | u64::from(ap);
        let b = (u64::from(bip) << 16) | u64::from(bp);
        let p = u64::from(t.proto);
        let mut h = self.seed;
        h = mix(h ^ a.wrapping_mul(K0));
        h = mix(h ^ b.wrapping_mul(K1));
        h = mix(h ^ p.wrapping_mul(K2));
        let canon = RawTuple {
            src_ip: u128::from(aip),
            dst_ip: u128::from(bip),
            src_port: ap,
            dst_port: bp,
            proto: t.proto,
        };
        (canon.key(), HashDigest(h))
    }

    /// Digest eight raw tuples at once.
    ///
    /// Structurally the same math as [`FlowHasher::digest_raw`] but laid
    /// out as eight independent lanes per mixing round, so the compiler
    /// can keep all eight hashes in flight (auto-vectorised or at least
    /// ILP-scheduled) instead of serialising the three data-dependent
    /// mix rounds per packet. `benches/digest.rs` prices this against the
    /// scalar baseline.
    #[inline]
    pub fn digest_batch8(&self, tuples: &[RawTuple; 8]) -> [(FlowKey, HashDigest); 8] {
        let mut a = [0u64; 8];
        let mut b = [0u64; 8];
        let mut p = [0u64; 8];
        let mut canon = [RawTuple::default(); 8];
        for i in 0..8 {
            let (aip, ap, bip, bp) = canon_raw(&tuples[i]);
            a[i] = (u64::from(aip) << 16) | u64::from(ap);
            b[i] = (u64::from(bip) << 16) | u64::from(bp);
            p[i] = u64::from(tuples[i].proto);
            canon[i] = RawTuple {
                src_ip: u128::from(aip),
                dst_ip: u128::from(bip),
                src_port: ap,
                dst_port: bp,
                proto: tuples[i].proto,
            };
        }
        let mut h = [self.seed; 8];
        for i in 0..8 {
            h[i] = mix(h[i] ^ a[i].wrapping_mul(K0));
        }
        for i in 0..8 {
            h[i] = mix(h[i] ^ b[i].wrapping_mul(K1));
        }
        for i in 0..8 {
            h[i] = mix(h[i] ^ p[i].wrapping_mul(K2));
        }
        std::array::from_fn(|i| (canon[i].key(), HashDigest(h[i])))
    }

    /// Digest an arbitrary run of raw tuples into `out` (cleared first):
    /// full 8-wide blocks go through [`FlowHasher::digest_batch8`], the
    /// tail through [`FlowHasher::digest_raw`]. Output order matches
    /// input order.
    pub fn digest_batch(&self, tuples: &[RawTuple], out: &mut Vec<(FlowKey, HashDigest)>) {
        out.clear();
        out.reserve(tuples.len());
        let mut chunks = tuples.chunks_exact(8);
        for c in &mut chunks {
            let block: &[RawTuple; 8] = c.try_into().expect("8-tuple chunk");
            out.extend_from_slice(&self.digest_batch8(block));
        }
        for t in chunks.remainder() {
            out.push(self.digest_raw(*t));
        }
    }

    /// Hash an arbitrary byte string (used for worm payload digests and
    /// sketch keys that are not 5-tuples).
    pub fn hash_bytes(&self, bytes: &[u8]) -> HashDigest {
        let mut h = self.seed ^ (bytes.len() as u64).wrapping_mul(K0);
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let v = u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
            h = mix(h ^ v.wrapping_mul(K1));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            h = mix(h ^ u64::from_le_bytes(buf).wrapping_mul(K2));
        }
        HashDigest(mix(h))
    }

    /// Hash a u64 key (used for prefix-aggregated switch queries).
    pub fn hash_u64(&self, v: u64) -> HashDigest {
        HashDigest(mix(self.seed ^ v.wrapping_mul(K0)))
    }
}

/// Canonical orientation of a raw tuple: the same lexicographic
/// `(ip, port)` endpoint ordering as [`FlowKey::canonical`], over wire
/// integers.
///
/// Addresses fold through [`crate::key::fold_ip`] *before* comparison, so
/// the orientation — and therefore the digest — is a pure function of the
/// folded 32-bit flow-model addresses. For IPv4 tuples the fold is the
/// identity, keeping [`FlowHasher::digest_raw`] bit-identical to
/// [`FlowHasher::digest_symmetric`]; for IPv6 tuples it makes the raw
/// digest agree with `digest_symmetric` of the folded [`FlowKey`] that
/// every downstream consumer (verdict tables, FlowCache rows) sees.
#[inline]
fn canon_raw(t: &RawTuple) -> (u32, u16, u32, u16) {
    let src = crate::key::fold_ip(t.src_ip);
    let dst = crate::key::fold_ip(t.dst_ip);
    if (src, t.src_port) <= (dst, t.dst_port) {
        (src, t.src_port, dst, t.dst_port)
    } else {
        (dst, t.dst_port, src, t.src_port)
    }
}

/// Map a flow to one of `n_shards` RSS shards, symmetrically.
///
/// This is the software analogue of symmetric RSS (a Toeplitz hash with a
/// symmetric key, as NICs configure for connection-affine steering): both
/// directions of a session map to the *same* shard, so per-shard flow
/// state never needs cross-shard synchronisation. Internally it reduces
/// the seed-0 [`FlowHasher::hash_symmetric`] digest with the same
/// multiply-shift trick as [`HashDigest::bucket`], which is unbiased for
/// non-power-of-two shard counts.
///
/// `n_shards` must be ≥ 1; with one shard every flow maps to shard 0.
pub fn shard_for(key: &FlowKey, n_shards: usize) -> usize {
    debug_assert!(n_shards >= 1, "need at least one shard");
    shard_for_digest(FlowHasher::default().hash_symmetric(key), n_shards)
}

/// Map an already-computed *symmetric* digest to one of `n_shards` RSS
/// shards. The digest must come from [`FlowHasher::hash_symmetric`] /
/// [`FlowHasher::digest_symmetric`] (i.e. be direction-free), otherwise
/// the two directions of a flow may land on different shards.
///
/// This is the amortized form of [`shard_for`]: the dispatcher digests a
/// packet once and reuses the digest for sharding, membership tests and
/// the FlowCache row lookup.
#[inline]
pub fn shard_for_digest(digest: HashDigest, n_shards: usize) -> usize {
    debug_assert!(n_shards >= 1, "need at least one shard");
    digest.bucket(n_shards)
}

/// SplitMix64 output step: a stateless 64-bit mixer with full-period
/// avalanche, used wherever the workspace needs a cheap *independent*
/// derivation from an existing 64-bit value — deterministic simulation
/// seeds and workload draws — without touching the flow-hash family
/// above.
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A no-op `Hasher` for keys that already *are* 64-bit hash digests.
///
/// `HashSet<FlowKey>` membership pays a full SipHash of the 13-byte
/// 5-tuple per probe; with pre-digested packets the digest is sitting in
/// the batch, so black/whitelists key on it directly and the "hash" is
/// the identity function. Digests are xxhash-style mixed, so every bit
/// region (including the high bits hashbrown uses for control bytes) is
/// already uniform.
#[derive(Clone, Copy, Debug, Default)]
pub struct DigestHasher(u64);

impl Hasher for DigestHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Only reachable if a non-u64 key sneaks in; fold bytes so the
        // hasher stays correct (if degraded) rather than silently zero.
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }
}

/// `BuildHasher` for [`DigestHasher`]-keyed collections.
pub type BuildDigestHasher = BuildHasherDefault<DigestHasher>;

/// A `HashSet` of 64-bit digests with identity hashing — the membership
/// structure used by the runtime shards' black/whitelists.
pub type DigestSet = HashSet<u64, BuildDigestHasher>;

/// Multiplier of [`KeyedFxHasher`]'s rounds: rustc-hash v2's odd
/// constant, chosen for an even spread of bits in the product.
const FX_K: u64 = 0xf135_7aea_2e62_a9c5;

/// A keyed Fx-style `Hasher` for tables whose keys an attacker chooses:
/// addresses, ports, flow keys and payload digests taken from packets.
///
/// Each round folds at most 32 bits of input into the state by
/// rotate-xor-multiply. [`Hasher::finish`] rotates left by 26, as
/// rustc-hash v2 does, which brings the product's best-mixed middle bits
/// down into the low bits hashbrown indexes buckets with. A multiply only
/// carries bits upwards, so the top bits of a full 64-bit word would
/// never reach that bucket index, whatever the key; 64-bit writes
/// therefore take two rounds. The state starts at a per-map random key
/// ([`BuildKeyedFxHasher`]), so which keys share a bucket differs from
/// map to map and from run to run and cannot be precomputed — the
/// property std's SipHash gives, at a few cycles per round instead of a
/// SipHash compression per probe. It is not a cryptographic MAC: an
/// attacker who can time many probes of one table may still learn
/// collisions adaptively.
#[derive(Clone, Copy, Debug)]
pub struct KeyedFxHasher {
    hash: u64,
}

impl KeyedFxHasher {
    #[inline]
    fn round(&mut self, word: u32) {
        self.hash = (self.hash.rotate_left(5) ^ u64::from(word)).wrapping_mul(FX_K);
    }
}

impl Hasher for KeyedFxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(4);
        for w in &mut words {
            self.round(u32::from_le_bytes([w[0], w[1], w[2], w[3]]));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut w = [0u8; 4];
            w[..tail.len()].copy_from_slice(tail);
            self.round(u32::from_le_bytes(w));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.round(u32::from(v));
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.round(u32::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.round(v);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.round(v as u32);
        self.round((v >> 32) as u32);
    }

    #[inline]
    fn write_u128(&mut self, v: u128) {
        self.write_u64(v as u64);
        self.write_u64((v >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

/// `BuildHasher` for [`KeyedFxHasher`]: every instance draws its own
/// random key from std's [`RandomState`], so two maps (and two runs)
/// never share a bucket layout.
#[derive(Clone, Copy, Debug)]
pub struct BuildKeyedFxHasher {
    key: u64,
}

impl Default for BuildKeyedFxHasher {
    fn default() -> BuildKeyedFxHasher {
        BuildKeyedFxHasher {
            key: RandomState::new().hash_one(FX_K),
        }
    }
}

impl BuildHasher for BuildKeyedFxHasher {
    type Hasher = KeyedFxHasher;

    #[inline]
    fn build_hasher(&self) -> KeyedFxHasher {
        KeyedFxHasher { hash: self.key }
    }
}

/// A `HashMap` over [`KeyedFxHasher`]: the table type for state keyed by
/// packet-derived fields. Build it with `KeyedHashMap::default()`.
pub type KeyedHashMap<K, V> = HashMap<K, V, BuildKeyedFxHasher>;

/// A `HashSet` over [`KeyedFxHasher`]; see [`KeyedHashMap`].
pub type KeyedHashSet<K> = HashSet<K, BuildKeyedFxHasher>;

/// A TTL'd, capacity-bounded digest set for long-lived black/whitelists.
///
/// The plain [`DigestSet`] accumulates forever — fine for a one-shot
/// replay, fatal for a long-running engine where every verdict ever
/// issued would stay resident. This variant stamps each digest with the
/// epoch it was last inserted/touched:
///
/// * [`AgingDigestSet::sweep`] expires entries untouched for more than
///   `ttl` epochs (counted in `expired`);
/// * inserts past `capacity` evict the stalest entry (counted in
///   `evicted`) — the set never exceeds its bound, even if the caller
///   forgets to sweep.
///
/// "Epoch" is whatever monotone counter the caller advances — the
/// control plane uses controller epochs, the runtime shards use batch
/// counts — so aging stays deterministic for deterministic inputs.
#[derive(Clone, Debug)]
pub struct AgingDigestSet {
    map: HashMap<u64, u64, BuildDigestHasher>,
    capacity: usize,
    ttl: u64,
    expired: u64,
    evicted: u64,
}

impl AgingDigestSet {
    /// Set bounded to `capacity` entries whose members expire after
    /// going `ttl` epochs untouched. `capacity` ≥ 1.
    pub fn new(capacity: usize, ttl: u64) -> AgingDigestSet {
        assert!(capacity >= 1, "aging set needs capacity >= 1");
        AgingDigestSet {
            map: HashMap::default(),
            capacity,
            ttl,
            expired: 0,
            evicted: 0,
        }
    }

    /// Insert (or refresh) `digest` at epoch `now`. Returns `true` if the
    /// digest was not already present. At capacity, the stalest entry is
    /// evicted first (accounted in [`AgingDigestSet::evicted`]).
    pub fn insert(&mut self, digest: u64, now: u64) -> bool {
        if let Some(stamp) = self.map.get_mut(&digest) {
            *stamp = now;
            return false;
        }
        if self.map.len() >= self.capacity {
            // Rare path (only at the bound): O(n) scan for the stalest.
            if let Some(oldest) = self.map.iter().min_by_key(|(_, s)| **s).map(|(d, _)| *d) {
                self.map.remove(&oldest);
                self.evicted += 1;
            }
        }
        self.map.insert(digest, now);
        true
    }

    /// Membership probe (identity-hashed, no stamp refresh).
    pub fn contains(&self, digest: &u64) -> bool {
        self.map.contains_key(digest)
    }

    /// Refresh the stamp of a resident digest — an actively matching
    /// entry should not age out while it is still doing work. Returns
    /// `true` if the digest was resident.
    pub fn touch(&mut self, digest: &u64, now: u64) -> bool {
        if let Some(stamp) = self.map.get_mut(digest) {
            *stamp = now;
            true
        } else {
            false
        }
    }

    /// Remove a digest outright (e.g. a whitelist entry superseded by a
    /// blacklist verdict). Returns `true` if it was resident.
    pub fn remove(&mut self, digest: &u64) -> bool {
        self.map.remove(digest).is_some()
    }

    /// Expire every entry untouched for more than the TTL as of epoch
    /// `now`; returns how many were removed (also accumulated in
    /// [`AgingDigestSet::expired`]).
    pub fn sweep(&mut self, now: u64) -> u64 {
        let ttl = self.ttl;
        let before = self.map.len();
        self.map
            .retain(|_, stamp| now.saturating_sub(*stamp) <= ttl);
        let removed = (before - self.map.len()) as u64;
        self.expired += removed;
        removed
    }

    /// Resident entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no digests are resident.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Entries removed by TTL sweeps so far.
    pub fn expired(&self) -> u64 {
        self.expired
    }

    /// Entries evicted by the capacity bound so far.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Iterate over resident digests (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = &u64> {
        self.map.keys()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::Proto;
    use std::collections::HashSet;
    use std::net::Ipv4Addr;

    fn key(a: u32, ap: u16, b: u32, bp: u16) -> FlowKey {
        FlowKey::new(Ipv4Addr::from(a), Ipv4Addr::from(b), ap, bp, Proto::Tcp)
    }

    #[test]
    fn symmetric_hash_matches_reverse() {
        let h = FlowHasher::new(7);
        for i in 0..1000u32 {
            let k = key(0x0a00_0001 + i, 1000 + (i as u16), 0x0a00_ffff - i, 22);
            assert_eq!(h.hash_symmetric(&k), h.hash_symmetric(&k.reversed()));
        }
    }

    #[test]
    fn directed_hash_differs_by_direction() {
        let h = FlowHasher::new(7);
        let k = key(0x0a00_0001, 1000, 0x0a00_0002, 22);
        assert_ne!(h.hash_directed(&k), h.hash_directed(&k.reversed()));
    }

    #[test]
    fn seeds_give_different_functions() {
        let k = key(1, 2, 3, 4);
        let d: HashSet<u64> = (0..64)
            .map(|s| FlowHasher::new(s).hash_directed(&k).0)
            .collect();
        assert_eq!(d.len(), 64, "64 seeds should give 64 distinct digests");
    }

    #[test]
    fn row_and_high_split_digest() {
        let d = HashDigest(0xABCD_EF01_2345_6789);
        assert_eq!(d.row(21), (0x2345_6789 & ((1 << 21) - 1)) as usize);
        assert_eq!(d.high(21), 0xABCD_EF01_2345_6789u64 >> 21);
    }

    #[test]
    fn tag_is_nonzero_top_byte_and_spreads() {
        assert_eq!(HashDigest(0).tag(), 1, "zero maps to the sentinel-free 1");
        assert_eq!(HashDigest(0xAB00_0000_0000_0000).tag(), 0xAB);
        assert_eq!(
            HashDigest(0x00FF_FFFF_FFFF_FFFF).tag(),
            1,
            "only the top byte participates"
        );
        let h = FlowHasher::new(0x51CC);
        let mut hits = [0u32; 256];
        for i in 0..100_000u64 {
            let t = h.hash_u64(i).tag();
            assert_ne!(t, 0, "tags are never the empty sentinel");
            hits[t as usize] += 1;
        }
        assert_eq!(hits[0], 0);
        // 255 live values, ~392 each; hits[1] absorbs the 0-remap (~2x).
        assert!(
            hits[1..].iter().all(|&c| c > 100 && c < 1200),
            "poor tag spread: max={:?}",
            hits.iter().copied().max()
        );
    }

    #[test]
    fn bucket_reduction_in_range_and_spread() {
        let h = FlowHasher::new(3);
        let m = 1000;
        let mut hits = vec![0u32; m];
        for i in 0..100_000u32 {
            let b = h.hash_u64(i as u64).bucket(m);
            assert!(b < m);
            hits[b] += 1;
        }
        // Expect ~100 per bucket; fail if any bucket is wildly off.
        assert!(
            hits.iter().all(|&c| c > 40 && c < 200),
            "poor spread: {:?}",
            hits.iter().copied().max()
        );
    }

    #[test]
    fn avalanche_on_single_bit_flip() {
        let h = FlowHasher::new(0);
        let base = h.hash_u64(0x1234_5678).0;
        for bit in 0..64 {
            let flipped = h.hash_u64(0x1234_5678 ^ (1u64 << bit)).0;
            let dist = (base ^ flipped).count_ones();
            assert!(dist >= 16, "bit {bit} avalanche too weak: {dist}");
        }
    }

    #[test]
    fn shard_for_is_symmetric() {
        for n in [1usize, 2, 3, 4, 7, 16] {
            for i in 0..1000u32 {
                let k = key(0x0a00_0001 + i, 1000 + (i as u16), 0x0a00_ffff - i, 22);
                let s = shard_for(&k, n);
                assert!(s < n, "shard index in range");
                assert_eq!(
                    s,
                    shard_for(&k.reversed(), n),
                    "both directions of a flow must land on the same shard"
                );
            }
        }
    }

    #[test]
    fn shard_for_single_shard_is_zero() {
        let k = key(0x0a00_0001, 1000, 0x0a00_0002, 22);
        assert_eq!(shard_for(&k, 1), 0);
    }

    #[test]
    fn shard_for_spreads_flows() {
        let n = 4;
        let mut hits = vec![0u32; n];
        for i in 0..10_000u32 {
            let k = key(0x0a00_0001 + i, 1000 + (i as u16 % 5000), 0x0a00_0002, 443);
            hits[shard_for(&k, n)] += 1;
        }
        // Expect ~2500 per shard; fail on gross imbalance.
        assert!(
            hits.iter().all(|&c| c > 1800 && c < 3200),
            "poor shard spread: {hits:?}"
        );
    }

    #[test]
    fn digest_symmetric_matches_two_step_derivation() {
        let h = FlowHasher::new(0x51CC);
        for i in 0..500u32 {
            let k = key(0x0a00_0001 + i, 1000 + (i as u16), 0x0a00_ffff - i, 22);
            let (canon, digest) = h.digest_symmetric(&k);
            assert_eq!(canon, k.canonical().0);
            assert_eq!(digest, h.hash_symmetric(&k));
            assert_eq!(h.digest_symmetric(&k.reversed()), (canon, digest));
        }
    }

    #[test]
    fn digest_raw_is_bit_identical_to_digest_symmetric() {
        let h = FlowHasher::new(0x51CC);
        for proto in [Proto::Tcp, Proto::Udp, Proto::Icmp, Proto::Other(89)] {
            for i in 0..500u32 {
                let mut k = key(0x0a00_0001 + i, 1000 + (i as u16), 0x0a00_ffff - i, 22);
                k.proto = proto;
                for dir in [k, k.reversed()] {
                    assert_eq!(
                        h.digest_raw(RawTuple::from_key(&dir)),
                        h.digest_symmetric(&dir),
                        "raw digest must match the FlowKey path for {dir:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn v6_raw_digest_agrees_with_the_folded_flow_key_path() {
        // IPv6 tuples enter the 32-bit flow model through fold_ip; the raw
        // digest must agree with digest_symmetric of the folded FlowKey in
        // both directions, so verdict tables keyed by the folded key still
        // match the wire-ingested digests.
        let h = FlowHasher::new(0xD1CE);
        for i in 0..500u128 {
            let src = (0x2001_0db8u128 << 96) | (i << 40) | 0x1234;
            let dst = (0xfd00u128 << 112) | (i << 17) | 7;
            let t = RawTuple {
                src_ip: src,
                dst_ip: dst,
                src_port: 40_000 + (i as u16),
                dst_port: 443,
                proto: 6,
            };
            let rev = RawTuple {
                src_ip: t.dst_ip,
                dst_ip: t.src_ip,
                src_port: t.dst_port,
                dst_port: t.src_port,
                proto: 6,
            };
            let folded = t.key();
            assert_eq!(h.digest_raw(t), h.digest_symmetric(&folded));
            assert_eq!(h.digest_raw(rev), h.digest_raw(t), "symmetric over v6");
        }
    }

    #[test]
    fn digest_batch_matches_scalar_for_all_lengths() {
        let h = FlowHasher::new(0xFEED);
        let tuples: Vec<RawTuple> = (0..37u32)
            .map(|i| {
                let k = key(0x0a00_0001 + i, 1000 + (i as u16), 0x0a00_ffff - i, 22);
                let k = if i % 2 == 0 { k } else { k.reversed() };
                RawTuple::from_key(&k)
            })
            .collect();
        let mut out = Vec::new();
        // 0 (empty), a sub-block tail, one exact block, blocks + tail.
        for len in [0usize, 5, 8, 16, 37] {
            h.digest_batch(&tuples[..len], &mut out);
            let scalar: Vec<_> = tuples[..len].iter().map(|t| h.digest_raw(*t)).collect();
            assert_eq!(out, scalar, "batch/scalar divergence at len={len}");
        }
    }

    #[test]
    fn shard_for_digest_is_symmetric_and_in_range() {
        let h = FlowHasher::new(0x51CC);
        for n in [1usize, 2, 3, 4, 7, 16] {
            for i in 0..500u32 {
                let k = key(0x0a00_0001 + i, 1000 + (i as u16), 0x0a00_ffff - i, 22);
                let s = shard_for_digest(h.hash_symmetric(&k), n);
                assert!(s < n);
                assert_eq!(s, shard_for_digest(h.hash_symmetric(&k.reversed()), n));
            }
        }
    }

    #[test]
    fn splitmix64_is_deterministic_and_avalanches() {
        assert_eq!(splitmix64(0), splitmix64(0), "stateless and pure");
        let base = splitmix64(0x5EED);
        for bit in 0..64 {
            let flipped = splitmix64(0x5EED ^ (1u64 << bit));
            let dist = (base ^ flipped).count_ones();
            assert!(dist >= 16, "bit {bit} avalanche too weak: {dist}");
        }
    }

    #[test]
    fn digest_set_behaves_like_a_set() {
        let h = FlowHasher::new(9);
        let mut set = DigestSet::default();
        for i in 0..1000u64 {
            assert!(set.insert(h.hash_u64(i).0));
        }
        for i in 0..1000u64 {
            assert!(set.contains(&h.hash_u64(i).0), "digest {i} lost");
            assert!(!set.insert(h.hash_u64(i).0), "duplicate accepted");
        }
        assert!(!set.contains(&h.hash_u64(5000).0));
        assert_eq!(set.len(), 1000);
    }

    #[test]
    fn aging_set_expires_untouched_entries() {
        let mut set = AgingDigestSet::new(1024, 10);
        for d in 0..100u64 {
            assert!(set.insert(d, 0));
        }
        // Keep half alive by touching them at epoch 8.
        for d in 0..50u64 {
            assert!(set.touch(&d, 8));
        }
        assert_eq!(set.sweep(11), 50, "untouched half expires past TTL");
        assert_eq!(set.len(), 50);
        assert_eq!(set.expired(), 50);
        for d in 0..50u64 {
            assert!(set.contains(&d), "touched digest {d} must survive");
        }
        for d in 50..100u64 {
            assert!(!set.contains(&d), "stale digest {d} must expire");
        }
        // Survivors expire too once their refreshed stamp goes stale.
        assert_eq!(set.sweep(19), 50);
        assert!(set.is_empty());
    }

    #[test]
    fn aging_set_capacity_evicts_stalest() {
        let mut set = AgingDigestSet::new(4, u64::MAX);
        for (epoch, d) in (100..104u64).enumerate() {
            set.insert(d, epoch as u64);
        }
        assert_eq!(set.len(), 4);
        // Refresh the oldest so the *second*-oldest becomes the victim.
        set.touch(&100, 10);
        set.insert(999, 11);
        assert_eq!(set.len(), 4, "capacity bound holds");
        assert_eq!(set.evicted(), 1);
        assert!(set.contains(&100), "refreshed entry survives");
        assert!(!set.contains(&101), "stalest entry evicted");
        assert!(set.contains(&999));
    }

    #[test]
    fn aging_set_reinsert_refreshes_instead_of_duplicating() {
        let mut set = AgingDigestSet::new(8, 5);
        assert!(set.insert(42, 0));
        assert!(!set.insert(42, 7), "re-insert refreshes, not duplicates");
        assert_eq!(set.len(), 1);
        assert_eq!(set.sweep(9), 0, "refreshed entry is inside TTL");
        assert!(set.contains(&42));
    }

    #[test]
    fn keyed_hasher_draws_a_fresh_key_per_map() {
        let a: KeyedHashSet<FlowKey> = KeyedHashSet::default();
        let b: KeyedHashSet<FlowKey> = KeyedHashSet::default();
        assert_ne!(a.hasher().key, b.hasher().key);
        let k = key(0x0A00_0001, 40000, 0xAC10_0001, 80);
        assert_ne!(a.hasher().hash_one(k), b.hasher().hash_one(k));
        // The same `BuildKeyedFxHasher` hashes consistently.
        assert_eq!(a.hasher().hash_one(k), a.hasher().hash_one(k));
    }

    /// Largest number of `keys` landing in one of 4,096 buckets indexed
    /// by the hash's low bits, as hashbrown indexes them.
    fn max_bucket_load<K: std::hash::Hash>(build: &BuildKeyedFxHasher, keys: &[K]) -> usize {
        let mut load = vec![0usize; 4096];
        for k in keys {
            load[(build.hash_one(k) & 4095) as usize] += 1;
        }
        load.into_iter().max().unwrap()
    }

    #[test]
    fn keyed_hasher_spreads_low_bits_over_structured_keys() {
        let base = key(0x0A00_0001, 0, 0xAC10_0001, 443);
        let by_port: Vec<FlowKey> = (0..=u16::MAX)
            .map(|p| FlowKey {
                src_port: p,
                ..base
            })
            .collect();
        // 256 keys differing only in the top octet of the source address.
        let by_octet: Vec<FlowKey> = (0..=255u32)
            .map(|o| FlowKey {
                src_ip: Ipv4Addr::from(0x000A_0B0C | (o << 24)),
                ..base
            })
            .collect();
        // 65,536 host addresses differing only in their low two octets,
        // which the last round takes in the top half of its word: without
        // the rotating finisher they would all share one bucket.
        let by_host: Vec<Ipv4Addr> = (0..=u16::MAX)
            .map(|h| Ipv4Addr::from(0x0A00_0000 | u32::from(h)))
            .collect();
        for _ in 0..8 {
            let build = BuildKeyedFxHasher::default();
            // 65,536 keys over 4,096 buckets: 16 per bucket on average; a
            // uniform hash tops out in the low 30s.
            let port_max = max_bucket_load(&build, &by_port);
            assert!(port_max <= 48, "src_port sweep: max load {port_max}");
            let host_max = max_bucket_load(&build, &by_host);
            assert!(host_max <= 48, "address sweep: max load {host_max}");
            let octet_max = max_bucket_load(&build, &by_octet);
            assert!(octet_max <= 8, "top-octet sweep: max load {octet_max}");
        }
    }

    #[test]
    fn keyed_hasher_separates_every_word_bit() {
        // Each round takes at most 32 bits, so flipping any one bit of a
        // 64-bit key changes the bucket-index bits under most keys.
        for bit in 0..64 {
            let mut moved = 0;
            for _ in 0..16 {
                let build = BuildKeyedFxHasher::default();
                let v = 0x0123_4567_89AB_CDEFu64;
                if (build.hash_one(v) ^ build.hash_one(v ^ (1 << bit))) & 4095 != 0 {
                    moved += 1;
                }
            }
            assert!(
                moved >= 12,
                "bit {bit} moved the bucket under {moved}/16 keys"
            );
        }
    }

    #[test]
    fn byte_hash_handles_all_lengths() {
        let h = FlowHasher::new(1);
        let data: Vec<u8> = (0..=40u8).collect();
        let mut seen = HashSet::new();
        for l in 0..=40 {
            assert!(seen.insert(h.hash_bytes(&data[..l]).0));
        }
    }
}
