//! Flow descriptions and per-flow sender/receiver state.

use fncc_cc::CcFlow;
use fncc_des::time::SimTime;
use fncc_net::ids::{FlowId, HostId};
use fncc_net::telemetry::FlowRecord;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

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

/// A flow-keyed table. A host carries a handful of the run's flows, whose
/// ids range over the whole run, so it is sized by its entries, not by the
/// flow ids.
pub(crate) type FlowTable<T> = HashMap<FlowId, T, BuildHasherDefault<FlowHasher>>;

/// Hashes a [`FlowId`] with one multiply: the 64-bit Fibonacci product,
/// its high half folded into the low half. The table picks a bucket from
/// the hash's low bits and a control tag from its top bits; the raw
/// product's low k bits depend only on the id's low k bits, so ids sharing
/// them would all start their probe at one bucket.
#[derive(Default)]
pub(crate) struct FlowHasher(u64);

impl Hasher for FlowHasher {
    #[inline]
    fn write_u32(&mut self, id: u32) {
        let p = u64::from(id).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = p ^ (p >> 32);
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("FlowHasher hashes a FlowId's u32 only");
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
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
}

impl RecvFlow {
    pub fn new() -> Self {
        RecvFlow {
            expected: 0,
            frames_since_ack: 0,
            last_cnp: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fncc_cc::{CcAlgo, HpccConfig};
    use fncc_des::time::TimeDelta;
    use fncc_net::units::Bandwidth;

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
        assert!(rf.last_cnp.is_none());
    }

    #[test]
    fn flow_table_index_sized_by_flows_not_ids() {
        // A host carrying k flows of a 10⁶-flow run indexes k flows, not
        // 10⁶ ids.
        for k in [0u32, 1, 5, 16, 100, 1_000, 5_000] {
            let mut t = FlowTable::default();
            for i in 0..k {
                t.insert(FlowId(1_000_000 + 7_919 * i), i);
            }
            t.insert(FlowId(u32::MAX - 1), k);
            let bound = 4 * (k as usize + 1).max(16);
            assert!(
                t.capacity() <= bound,
                "{} flows: capacity {} > {bound}",
                k + 1,
                t.capacity()
            );
        }
    }
}
