//! Host-side flow aggregation (paper §3.4).
//!
//! The sNIC exports a flow's record several times — ring-buffer evictions,
//! periodic snapshots, ageing — and "the host is responsible to correctly
//! aggregate each flow's information". The aggregator is a large host hash
//! table (the paper sizes it 2³⁰ × 1; here the capacity is configurable)
//! that merges every export into one record per flow, then flushes to the
//! flow-log store each measurement interval.

use smartwatch_net::FlowKey;
use smartwatch_snic::FlowRecord;
use smartwatch_telemetry::{Counter, Gauge, Histogram, Registry};
use std::collections::HashMap;

/// Registry handles for the aggregator (present only after
/// [`SnapshotAggregator::attach_telemetry`]).
#[derive(Debug)]
struct AggregatorTelemetry {
    exports_in: Counter,
    flushes: Counter,
    flows: Gauge,
    flush_size: Histogram,
}

/// Merges repeated sNIC exports into per-flow totals.
#[derive(Debug, Default)]
pub struct SnapshotAggregator {
    flows: HashMap<FlowKey, FlowRecord>,
    /// Exports consumed.
    pub exports_in: u64,
    telemetry: Option<AggregatorTelemetry>,
}

impl Clone for SnapshotAggregator {
    /// Clones keep the aggregated flows and counts but detach from any
    /// registry.
    fn clone(&self) -> SnapshotAggregator {
        SnapshotAggregator {
            flows: self.flows.clone(),
            exports_in: self.exports_in,
            telemetry: None,
        }
    }
}

impl SnapshotAggregator {
    /// Empty aggregator.
    pub fn new() -> SnapshotAggregator {
        SnapshotAggregator::default()
    }

    /// Publish the aggregator's activity into `registry` as
    /// `host.aggregate.{exports_in,flushes,flows,flush_records}{agg=name}`,
    /// carrying the current export count over. `name` distinguishes
    /// co-existing aggregators (e.g. per-interval vs long-term).
    pub fn attach_telemetry(&mut self, registry: &Registry, name: &str) {
        let labels: &[(&str, &str)] = &[("agg", name)];
        let t = AggregatorTelemetry {
            exports_in: registry.counter("host.aggregate.exports_in", labels),
            flushes: registry.counter("host.aggregate.flushes", labels),
            flows: registry.gauge("host.aggregate.flows", labels),
            flush_size: registry.histogram("host.aggregate.flush_records", labels),
        };
        t.exports_in.add(self.exports_in);
        t.flows.set(self.flows.len() as f64);
        self.telemetry = Some(t);
    }

    /// Ingest one exported record.
    pub fn ingest(&mut self, rec: FlowRecord) {
        self.exports_in += 1;
        self.flows
            .entry(rec.key)
            .and_modify(|e| e.merge(&rec))
            .or_insert(rec);
        if let Some(t) = &self.telemetry {
            t.exports_in.inc();
            t.flows.set(self.flows.len() as f64);
        }
    }

    /// Ingest a batch (one ring drain or snapshot).
    pub fn ingest_batch<I: IntoIterator<Item = FlowRecord>>(&mut self, batch: I) {
        for r in batch {
            self.ingest(r);
        }
    }

    /// Distinct flows aggregated so far.
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// True if nothing was ingested.
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// Aggregated record for a flow.
    pub fn get(&self, key: &FlowKey) -> Option<&FlowRecord> {
        self.flows.get(&key.canonical().0)
    }

    /// Iterate over aggregated flows.
    pub fn iter(&self) -> impl Iterator<Item = &FlowRecord> {
        self.flows.values()
    }

    /// Total packets across all aggregated flows.
    pub fn total_packets(&self) -> u64 {
        self.flows.values().map(|r| r.packets).sum()
    }

    /// Flows with at least `threshold` packets, heaviest first (the
    /// offline heavy-hitter query of Table 2, and the top-k heavy *benign*
    /// flow selection the control loop whitelists). Equal packet counts
    /// are ordered by flow key, so the result does not depend on the
    /// table's iteration order.
    pub fn heavy_hitters(&self, threshold: u64) -> Vec<FlowRecord> {
        let mut out: Vec<FlowRecord> = self
            .flows
            .values()
            .filter(|r| r.packets >= threshold)
            .copied()
            .collect();
        out.sort_by_key(heaviest_first);
        out
    }

    /// The `k` heaviest flows; ties at the cut go to the smaller flow key.
    pub fn top_k(&self, k: usize) -> Vec<FlowRecord> {
        let mut out: Vec<FlowRecord> = self.flows.values().copied().collect();
        out.sort_by_key(heaviest_first);
        out.truncate(k);
        out
    }

    /// Flush everything (the per-measurement-interval move into the
    /// flow-log datastore), leaving the aggregator empty.
    pub fn flush(&mut self) -> Vec<FlowRecord> {
        let mut out: Vec<FlowRecord> = self.flows.drain().map(|(_, r)| r).collect();
        out.sort_by_key(|r| r.key);
        if let Some(t) = &self.telemetry {
            t.flushes.inc();
            t.flush_size.record(out.len() as u64);
            t.flows.set(0.0);
        }
        out
    }
}

/// Sort key for the heavy-flow queries: packets descending, then flow key.
fn heaviest_first(r: &FlowRecord) -> (std::cmp::Reverse<u64>, FlowKey) {
    (std::cmp::Reverse(r.packets), r.key)
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartwatch_net::Ts;
    use std::net::Ipv4Addr;

    fn rec(i: u32, packets: u64, t0: u64, t1: u64) -> FlowRecord {
        let key = FlowKey::tcp(
            Ipv4Addr::from(0x0A000000 + i),
            1,
            Ipv4Addr::from(0xAC100001),
            80,
        );
        let mut r = FlowRecord::new(key.canonical().0, Ts::from_secs(t0), 64);
        r.packets = packets;
        r.bytes = packets * 64;
        r.last_ts = Ts::from_secs(t1);
        r
    }

    #[test]
    fn repeated_exports_merge() {
        let mut agg = SnapshotAggregator::new();
        agg.ingest(rec(1, 10, 0, 5));
        agg.ingest(rec(1, 7, 6, 9));
        agg.ingest(rec(2, 3, 1, 2));
        assert_eq!(agg.len(), 2);
        let r = agg.get(&rec(1, 0, 0, 0).key).unwrap();
        assert_eq!(r.packets, 17);
        assert_eq!(r.first_ts, Ts::ZERO);
        assert_eq!(r.last_ts, Ts::from_secs(9));
        assert_eq!(agg.total_packets(), 20);
    }

    #[test]
    fn order_insensitive() {
        let a = {
            let mut agg = SnapshotAggregator::new();
            agg.ingest(rec(1, 10, 0, 5));
            agg.ingest(rec(1, 7, 6, 9));
            *agg.get(&rec(1, 0, 0, 0).key).unwrap()
        };
        let b = {
            let mut agg = SnapshotAggregator::new();
            agg.ingest(rec(1, 7, 6, 9));
            agg.ingest(rec(1, 10, 0, 5));
            *agg.get(&rec(1, 0, 0, 0).key).unwrap()
        };
        assert_eq!(a.packets, b.packets);
        assert_eq!(a.first_ts, b.first_ts);
        assert_eq!(a.last_ts, b.last_ts);
    }

    #[test]
    fn heavy_hitters_sorted_and_filtered() {
        let mut agg = SnapshotAggregator::new();
        for i in 0..10 {
            agg.ingest(rec(i, u64::from(i) * 10, 0, 1));
        }
        let hh = agg.heavy_hitters(50);
        assert_eq!(hh.len(), 5);
        assert!(hh.windows(2).all(|w| w[0].packets >= w[1].packets));
        assert_eq!(agg.top_k(3).len(), 3);
        assert_eq!(agg.top_k(3)[0].packets, 90);
    }

    #[test]
    fn top_k_breaks_ties_by_flow_key() {
        // Twelve flows, eight of them tied at the cut of the top 5.
        let recs: Vec<FlowRecord> = (0..12)
            .map(|i| rec(i, if i < 2 { 100 } else { 40 }, 0, 1))
            .collect();
        let fill = |order: &mut dyn Iterator<Item = &FlowRecord>| {
            let mut agg = SnapshotAggregator::new();
            for r in order {
                agg.ingest(*r);
            }
            agg
        };
        let fwd = fill(&mut recs.iter());
        let rev = fill(&mut recs.iter().rev());
        let keys = |v: Vec<FlowRecord>| v.into_iter().map(|r| r.key).collect::<Vec<_>>();
        let top = keys(fwd.top_k(5));
        assert_eq!(top, keys(rev.top_k(5)));
        let mut expected: Vec<FlowKey> = recs[..2].iter().map(|r| r.key).collect();
        let mut tied: Vec<FlowKey> = recs[2..].iter().map(|r| r.key).collect();
        tied.sort();
        expected.sort();
        expected.extend(&tied[..3]);
        assert_eq!(top, expected);
        assert_eq!(keys(fwd.heavy_hitters(40)), keys(rev.heavy_hitters(40)));
    }

    #[test]
    fn flush_empties() {
        let mut agg = SnapshotAggregator::new();
        agg.ingest(rec(1, 1, 0, 0));
        agg.ingest(rec(2, 2, 0, 0));
        let flushed = agg.flush();
        assert_eq!(flushed.len(), 2);
        assert!(agg.is_empty());
        assert_eq!(agg.exports_in, 2);
    }
}
