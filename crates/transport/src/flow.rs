//! Flow descriptions and per-flow sender/receiver state.

use fncc_cc::CcFlow;
use fncc_des::time::SimTime;
use fncc_net::ids::{FlowId, HostId};
use fncc_net::telemetry::FlowRecord;

/// A flow (one RDMA QP): `size` application bytes from `src` to `dst`,
/// eligible to send from `start`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlowSpec {
    /// Globally unique flow id.
    pub id: FlowId,
    /// Sender.
    pub src: HostId,
    /// Receiver.
    pub dst: HostId,
    /// Application bytes to transfer (> 0).
    pub size: u64,
    /// Start time.
    pub start: SimTime,
}

impl FlowSpec {
    /// The flow's lifetime record as an engine registers it before the run:
    /// started at the spec's start, not finished.
    pub fn record(&self) -> FlowRecord {
        FlowRecord {
            flow: self.id,
            src: self.src,
            dst: self.dst,
            size: self.size,
            start: self.start,
            finish: None,
        }
    }
}

/// Sender-side state of one flow, from its start until the cumulative ACK
/// covers its last byte.
#[derive(Debug)]
pub(crate) struct SendFlow {
    pub spec: FlowSpec,
    pub cc: CcFlow,
    /// Next payload byte to send (`snd_nxt`).
    pub next_seq: u64,
    /// Cumulatively acknowledged payload bytes.
    pub acked: u64,
    /// Pacing: earliest time the next frame may leave.
    pub next_send: SimTime,
    /// True while a `Pace` timer is outstanding (avoids duplicates).
    pub pace_pending: bool,
    /// High-water mark of `next_seq`; `next_seq` below this means the flow
    /// was rewound by an RTO and is retransmitting (go-back-N).
    pub highest_sent: u64,
    /// Consecutive RTO expiries without ACK progress (exponential backoff
    /// exponent); reset by any cumulative-ACK advance.
    pub rto_backoff: u32,
    /// Absolute deadline of the armed retransmission timer. `Some` ⇔
    /// exactly one `Rto` timer event is outstanding for this flow.
    pub rto_deadline: Option<SimTime>,
    /// Payload bytes handed to the NIC, retransmissions included (the
    /// flow-rate probe's counter).
    pub tx_bytes: u64,
}

impl SendFlow {
    pub fn new(spec: FlowSpec, cc: CcFlow) -> Self {
        SendFlow {
            spec,
            cc,
            next_seq: 0,
            acked: 0,
            next_send: SimTime::ZERO,
            pace_pending: false,
            highest_sent: 0,
            rto_backoff: 0,
            rto_deadline: None,
            tx_bytes: 0,
        }
    }

    /// Unacknowledged payload bytes in flight.
    #[inline]
    pub fn inflight(&self) -> u64 {
        self.next_seq - self.acked
    }

    /// Payload bytes not yet sent.
    #[inline]
    pub fn remaining(&self) -> u64 {
        self.spec.size - self.next_seq
    }
}

/// A flow-keyed table: compact entry storage behind an open-addressed index.
///
/// A host carries a handful of the run's flows, whose ids range over the
/// whole run, so the index is sized by this table's entries, not by the flow
/// ids: a power-of-two slot array at most half full, probed linearly from a
/// multiplicative hash of the id, with backward-shift deletion (no
/// tombstones). A lookup — several per packet on the hot path — costs one
/// multiply and, at that load, one or two slots.
#[derive(Debug)]
pub(crate) struct FlowTable<T> {
    /// `entry index + 1` per slot; 0 = empty.
    index: Vec<u32>,
    entries: Vec<(FlowId, T)>,
}

/// Slots of a fresh table; the index doubles whenever it would pass half full.
const MIN_SLOTS: usize = 16;

impl<T> FlowTable<T> {
    pub fn new() -> Self {
        FlowTable {
            index: vec![0; MIN_SLOTS],
            entries: Vec::new(),
        }
    }

    /// The slot `id`'s probe chain starts at: the top bits of a Fibonacci
    /// hash, so dense ids spread over the whole index.
    #[inline]
    fn home(&self, id: FlowId) -> usize {
        let bits = self.index.len().trailing_zeros();
        (id.0.wrapping_mul(0x9E37_79B9) >> (32 - bits)) as usize
    }

    /// `Ok(slot)` holding `id`, or `Err(slot)`: the empty slot ending its
    /// probe chain, where it would be inserted.
    #[inline]
    fn probe(&self, id: FlowId) -> Result<usize, usize> {
        let mask = self.index.len() - 1;
        let mut slot = self.home(id);
        loop {
            match self.index[slot] {
                0 => return Err(slot),
                e if self.entries[e as usize - 1].0 == id => return Ok(slot),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    #[inline]
    pub fn get(&self, id: FlowId) -> Option<&T> {
        let slot = self.probe(id).ok()?;
        Some(&self.entries[self.index[slot] as usize - 1].1)
    }

    #[inline]
    pub fn get_mut(&mut self, id: FlowId) -> Option<&mut T> {
        let slot = self.probe(id).ok()?;
        Some(&mut self.entries[self.index[slot] as usize - 1].1)
    }

    /// Insert or replace.
    pub fn insert(&mut self, id: FlowId, value: T) {
        match self.probe(id) {
            Ok(slot) => self.entries[self.index[slot] as usize - 1].1 = value,
            Err(slot) => {
                self.push(slot, id, value);
            }
        }
    }

    /// The entry for `id`, made by `make` if absent, and whether it was:
    /// one probe where `get` then `insert` would take two.
    #[inline]
    pub fn get_or_insert_with(&mut self, id: FlowId, make: impl FnOnce() -> T) -> (&mut T, bool) {
        let (e, inserted) = match self.probe(id) {
            Ok(slot) => (self.index[slot] as usize - 1, false),
            Err(slot) => (self.push(slot, id, make()), true),
        };
        (&mut self.entries[e].1, inserted)
    }

    /// Append `(id, value)` at `slot`, the empty end of `id`'s probe chain,
    /// first doubling the index if that would leave it over half full.
    /// Returns the new entry's index.
    fn push(&mut self, mut slot: usize, id: FlowId, value: T) -> usize {
        let e = self.entries.len();
        if 2 * (e + 1) > self.index.len() {
            self.index = vec![0; 2 * self.index.len()];
            for i in 0..e {
                let s = self.probe(self.entries[i].0).unwrap_err();
                self.index[s] = i as u32 + 1;
            }
            slot = self.probe(id).unwrap_err();
        }
        self.index[slot] = e as u32 + 1;
        self.entries.push((id, value));
        e
    }

    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Remove and return, compacting entry storage (O(1) swap-remove).
    pub fn remove(&mut self, id: FlowId) -> Option<T> {
        let mut hole = self.probe(id).ok()?;
        let e = self.index[hole] as usize - 1;
        // Backward-shift deletion: pull each later member of the chain into
        // the hole unless that would put it before its home slot.
        let mask = self.index.len() - 1;
        let mut slot = hole;
        loop {
            slot = (slot + 1) & mask;
            let next = self.index[slot];
            if next == 0 {
                break;
            }
            let home = self.home(self.entries[next as usize - 1].0);
            if (slot.wrapping_sub(home) & mask) >= (slot.wrapping_sub(hole) & mask) {
                self.index[hole] = next;
                hole = slot;
            }
        }
        self.index[hole] = 0;
        // swap_remove moves the last entry into `e`: repoint its slot.
        let last = self.entries.len() - 1;
        if e != last {
            let slot = self.probe(self.entries[last].0).expect("indexed");
            self.index[slot] = e as u32 + 1;
        }
        Some(self.entries.swap_remove(e).1)
    }
}

/// Receiver-side live state of one flow.
#[derive(Debug)]
pub(crate) struct RecvFlow {
    /// Next expected payload byte (cumulative, in-order delivery).
    pub expected: u64,
    /// Data frames received since the last ACK was emitted.
    pub frames_since_ack: u32,
    /// Last CNP emission time (DCQCN pacing).
    pub last_cnp: Option<SimTime>,
    /// Completed (last payload byte seen).
    pub finished: bool,
}

impl RecvFlow {
    pub fn new() -> Self {
        RecvFlow {
            expected: 0,
            frames_since_ack: 0,
            last_cnp: None,
            finished: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fncc_cc::{CcAlgo, HpccConfig};
    use fncc_des::rng::DetRng;
    use fncc_des::time::TimeDelta;
    use fncc_net::units::Bandwidth;
    use std::collections::BTreeMap;

    fn spec() -> FlowSpec {
        FlowSpec {
            id: FlowId(0),
            src: HostId(0),
            dst: HostId(1),
            size: 10_000,
            start: SimTime::ZERO,
        }
    }

    #[test]
    fn send_flow_accounting() {
        let algo = CcAlgo::Hpcc(HpccConfig::paper_default(
            Bandwidth::gbps(100),
            TimeDelta::from_us(12),
        ));
        let mut sf = SendFlow::new(spec(), algo.new_flow());
        assert_eq!(sf.inflight(), 0);
        assert_eq!(sf.remaining(), 10_000);
        sf.next_seq = 3_000;
        sf.acked = 1_000;
        assert_eq!(sf.inflight(), 2_000);
        assert_eq!(sf.remaining(), 7_000);
    }

    #[test]
    fn recv_flow_initial() {
        let rf = RecvFlow::new();
        assert_eq!(rf.expected, 0);
        assert!(!rf.finished);
        assert!(rf.last_cnp.is_none());
    }

    #[test]
    fn flow_table_insert_get_remove() {
        let mut t: FlowTable<u32> = FlowTable::new();
        assert!(t.get(FlowId(0)).is_none());
        t.insert(FlowId(5), 50);
        t.insert(FlowId(0), 10);
        t.insert(FlowId(9), 90);
        assert_eq!(t.get(FlowId(5)), Some(&50));
        assert_eq!(t.get(FlowId(0)), Some(&10));
        assert_eq!(t.get(FlowId(7)), None);
        assert_eq!(t.get(FlowId(100)), None);
        *t.get_mut(FlowId(5)).unwrap() = 55;
        assert_eq!(t.get(FlowId(5)), Some(&55));
        // Replacement does not duplicate.
        t.insert(FlowId(5), 56);
        assert_eq!(t.get(FlowId(5)), Some(&56));
        // swap_remove keeps the moved entry reachable.
        assert_eq!(t.remove(FlowId(0)), Some(10));
        assert_eq!(t.get(FlowId(0)), None);
        assert_eq!(t.get(FlowId(5)), Some(&56));
        assert_eq!(t.get(FlowId(9)), Some(&90));
        assert_eq!(t.remove(FlowId(0)), None);
        assert_eq!(t.remove(FlowId(9)), Some(90));
        assert_eq!(t.get(FlowId(5)), Some(&56));
    }

    /// The table holds exactly the oracle's keys, each resolving through
    /// the index to its value, and the index is at most half full.
    fn assert_matches(t: &FlowTable<usize>, oracle: &BTreeMap<u32, usize>) {
        assert_eq!(t.entries.len(), oracle.len());
        for (&k, v) in oracle {
            assert_eq!(t.get(FlowId(k)), Some(v), "key {k}");
        }
        assert_eq!(t.index.iter().filter(|&&e| e != 0).count(), oracle.len());
        assert!(2 * t.entries.len() <= t.index.len());
    }

    /// Random insert / replace / remove / get / get-or-insert steps over
    /// `keys`, checked against a `BTreeMap` after every step.
    fn differential(keys: &[u32], seed: u64, steps: usize) {
        let mut rng = DetRng::new(seed, 0);
        let mut t = FlowTable::new();
        let mut oracle = BTreeMap::new();
        for step in 0..steps {
            let k = keys[rng.index(keys.len())];
            let id = FlowId(k);
            match rng.below(5) {
                0 | 1 => {
                    t.insert(id, step);
                    oracle.insert(k, step);
                }
                2 => assert_eq!(t.remove(id), oracle.remove(&k)),
                3 => {
                    let (v, inserted) = t.get_or_insert_with(id, || step);
                    assert_eq!(inserted, !oracle.contains_key(&k));
                    assert_eq!(*v, *oracle.entry(k).or_insert(step));
                }
                _ => {
                    if let Some(v) = t.get_mut(id) {
                        *v = step;
                    }
                    if let Some(v) = oracle.get_mut(&k) {
                        *v = step;
                    }
                }
            }
            assert_eq!(t.get(id), oracle.get(&k));
            assert_matches(&t, &oracle);
        }
    }

    /// The first `n` ids whose home slot in a fresh (minimum-size) index
    /// is `slot`.
    fn ids_homed_at(slot: usize, n: usize) -> Vec<u32> {
        let t: FlowTable<usize> = FlowTable::new();
        (0..)
            .filter(|&i| t.home(FlowId(i)) == slot)
            .take(n)
            .collect()
    }

    #[test]
    fn flow_table_matches_btreemap_dense_ids() {
        let keys: Vec<u32> = (0..64).collect();
        for seed in 1..=4 {
            differential(&keys, seed, 4_000);
        }
    }

    #[test]
    fn flow_table_matches_btreemap_sparse_ids() {
        let mut rng = DetRng::new(7, 1);
        let mut keys: Vec<u32> = (0..200)
            .map(|_| rng.below(u32::MAX as u64) as u32)
            .collect();
        keys.extend([0, 1, 1_000_000, u32::MAX - 1]);
        for seed in 1..=4 {
            differential(&keys, seed, 4_000);
        }
    }

    #[test]
    fn flow_table_matches_btreemap_colliding_and_wrapping_ids() {
        // Eight ids — the most a minimum-size index holds — four homed at
        // its last slot, so their chain wraps past the end onto ids homed
        // at slots 0 and 1.
        let last = MIN_SLOTS - 1;
        let mut keys = ids_homed_at(last, 4);
        keys.extend(ids_homed_at(0, 2));
        keys.extend(ids_homed_at(1, 2));
        let mut t = FlowTable::new();
        for (i, &k) in keys.iter().enumerate() {
            t.insert(FlowId(k), i);
        }
        assert_eq!(t.index.len(), MIN_SLOTS);
        let wrapped = (0..last).any(|s| {
            let e = t.index[s];
            e != 0 && t.home(t.entries[e as usize - 1].0) == last
        });
        assert!(wrapped, "no probe chain wrapped: {:?}", t.index);
        for seed in 1..=8 {
            differential(&keys, seed, 2_000);
        }
    }

    #[test]
    fn flow_table_remove_moved_entry() {
        // Removing the first entry swap-moves the last into its place;
        // that moved entry must stay reachable and removable, also when it
        // shares a home slot with the others.
        for keys in [vec![3, 4, 5], ids_homed_at(MIN_SLOTS - 1, 3)] {
            let mut t = FlowTable::new();
            let mut oracle = BTreeMap::new();
            for (i, &k) in keys.iter().enumerate() {
                t.insert(FlowId(k), i);
                oracle.insert(k, i);
            }
            assert_eq!(t.remove(FlowId(keys[0])), Some(0));
            oracle.remove(&keys[0]);
            assert_eq!(t.entries[0].0, FlowId(keys[2]));
            assert_matches(&t, &oracle);
            assert_eq!(t.remove(FlowId(keys[2])), Some(2));
            oracle.remove(&keys[2]);
            assert_matches(&t, &oracle);
        }
    }

    #[test]
    fn flow_table_index_sized_by_flows_not_ids() {
        // A host carrying k flows of a 10⁶-flow run indexes k flows, not
        // 10⁶ ids.
        for k in [0u32, 1, 5, 16, 100, 1_000, 5_000] {
            let mut t = FlowTable::new();
            for i in 0..k {
                t.insert(FlowId(1_000_000 + 7_919 * i), i);
            }
            t.insert(FlowId(u32::MAX - 1), k);
            let bound = 4 * (k as usize + 1).max(16);
            assert!(
                t.index.capacity() <= bound,
                "{} flows: {} index slots > {bound}",
                k + 1,
                t.index.capacity()
            );
        }
    }
}
