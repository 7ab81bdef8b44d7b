//! Packets: RoCEv2 data frames, ACKs with INT stacks (Fig. 7), DCQCN CNPs
//! and PFC control frames.

use crate::ids::{FlowId, HostId};
use crate::units::{Bandwidth, INT_RECORD_BYTES};
use fncc_des::time::SimTime;

/// Maximum number of switch hops whose INT a packet can carry.
///
/// The deepest path in this repo is the 3-level fat-tree: 5 switches.
pub const MAX_HOPS: usize = 8;

/// One in-network-telemetry record, `{B, TS, txBytes, qLen}` per Fig. 7.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IntRecord {
    /// Egress-port bandwidth.
    pub bandwidth: Bandwidth,
    /// When this record was sampled.
    pub ts: SimTime,
    /// Cumulative bytes transmitted by the egress port at `ts`.
    pub tx_bytes: u64,
    /// Egress queue length in bytes at `ts`.
    pub qlen: u64,
}

/// A fixed-capacity stack of INT records (no heap allocation in the hot
/// path). Records are pushed in the order switches append them.
#[derive(Clone, Copy, Debug)]
pub struct IntStack {
    records: [IntRecord; MAX_HOPS],
    len: u8,
}

const EMPTY_RECORD: IntRecord = IntRecord {
    bandwidth: Bandwidth::bps(1),
    ts: SimTime::ZERO,
    tx_bytes: 0,
    qlen: 0,
};

impl Default for IntStack {
    fn default() -> Self {
        IntStack {
            records: [EMPTY_RECORD; MAX_HOPS],
            len: 0,
        }
    }
}

impl IntStack {
    /// Empty stack.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of records.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True if no records have been appended.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append a record; returns whether it was stored. A full stack
    /// ([`MAX_HOPS`] records) drops `r` — `Scenario::validate` rejects
    /// topologies with paths that deep, so only hand-built fabrics can
    /// get here.
    #[inline]
    pub fn push(&mut self, r: IntRecord) -> bool {
        let stored = (self.len as usize) < MAX_HOPS;
        if stored {
            self.records[self.len as usize] = r;
            self.len += 1;
        }
        stored
    }

    /// Records in insertion order.
    #[inline]
    pub fn as_slice(&self) -> &[IntRecord] {
        &self.records[..self.len as usize]
    }

    /// Reverse the record order in place. FNCC ACKs collect INT along the
    /// *return* path (last request-path switch first); the sender calls this
    /// to normalise to request-path order before running `MeasureInFlight`.
    pub fn reverse(&mut self) {
        self.records[..self.len as usize].reverse();
    }

    /// Remove all records.
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Wire bytes these records occupy in a frame.
    #[inline]
    pub fn wire_bytes(&self) -> u32 {
        self.len as u32 * INT_RECORD_BYTES
    }
}

/// The kind of a frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PacketKind {
    /// Application data (RDMA write segment).
    Data,
    /// Transport acknowledgment, possibly cumulative.
    Ack,
    /// DCQCN congestion-notification packet (receiver → sender).
    Cnp,
    /// PFC XOFF: pause the peer's egress on this link.
    PfcPause,
    /// PFC XON: resume the peer's egress on this link.
    PfcResume,
}

impl PacketKind {
    /// Control frames bypass PFC pause and jump the egress queue.
    #[inline]
    pub fn is_control(self) -> bool {
        matches!(self, PacketKind::PfcPause | PacketKind::PfcResume)
    }
}

/// A frame in flight. Boxed when stored in events/queues.
#[derive(Clone, Debug)]
pub struct Packet {
    /// Frame kind.
    pub kind: PacketKind,
    /// Flow this frame belongs to (ACK/CNP carry the data flow's id so ECMP
    /// hashes identically in both directions).
    pub flow: FlowId,
    /// Originating host of *this frame*.
    pub src: HostId,
    /// Destination host of *this frame* (for an ACK: the data sender).
    pub dst: HostId,
    /// Data: index of the first payload byte carried.
    /// ACK: cumulative — next expected payload byte at the receiver.
    pub seq: u64,
    /// Wire size in bytes (grows when INT records are appended).
    pub size: u32,
    /// Application payload bytes carried (data frames only).
    pub payload: u32,
    /// Timestamp set by the sender of the frame (RTT measurement).
    pub sent_at: SimTime,
    /// ECN congestion-experienced mark (set by RED marking).
    pub ecn: bool,
    /// In-network telemetry stack.
    pub int: IntStack,
    /// Number of concurrent flows `N` at the receiver (FNCC ACKs, Fig. 7).
    pub concurrent_flows: u16,
    /// Fig. 7 `pathID`: XOR of the (12-bit-truncated) ids of the switches
    /// that inserted INT — lets the sender detect path changes.
    pub path_xor: u16,
    /// RoCC advertised fair rate (bits/s); `f64::INFINITY` when unset.
    pub rocc_rate: f64,
    /// Switch-internal metadata: ingress port of this frame at the switch
    /// currently holding it (Algorithm 1 line 3; also PFC accounting).
    pub in_port: u8,
    /// Switch-internal metadata: bytes charged to buffer/PFC accounting on
    /// arrival (the frame may grow INT records before departure).
    pub accounted: u32,
    /// For data frames: true if this is the flow's last payload byte carrier.
    pub last_of_flow: bool,
}

impl Packet {
    /// A data frame of `payload` application bytes starting at `seq`.
    pub fn data(
        flow: FlowId,
        src: HostId,
        dst: HostId,
        seq: u64,
        payload: u32,
        wire_size: u32,
        now: SimTime,
    ) -> Box<Packet> {
        Box::new(Packet {
            kind: PacketKind::Data,
            flow,
            src,
            dst,
            seq,
            size: wire_size,
            payload,
            sent_at: now,
            ecn: false,
            int: IntStack::new(),
            concurrent_flows: 0,
            path_xor: 0,
            rocc_rate: f64::INFINITY,
            in_port: 0,
            accounted: 0,
            last_of_flow: false,
        })
    }

    /// An ACK from `src` (the data receiver) to `dst` (the data sender),
    /// cumulatively acknowledging payload bytes below `ack_seq`.
    pub fn ack(
        flow: FlowId,
        src: HostId,
        dst: HostId,
        ack_seq: u64,
        base_size: u32,
        now: SimTime,
    ) -> Box<Packet> {
        Box::new(Packet {
            kind: PacketKind::Ack,
            flow,
            src,
            dst,
            seq: ack_seq,
            size: base_size,
            payload: 0,
            sent_at: now,
            ecn: false,
            int: IntStack::new(),
            concurrent_flows: 0,
            path_xor: 0,
            rocc_rate: f64::INFINITY,
            in_port: 0,
            accounted: 0,
            last_of_flow: false,
        })
    }

    /// A DCQCN congestion-notification packet.
    pub fn cnp(flow: FlowId, src: HostId, dst: HostId, size: u32, now: SimTime) -> Box<Packet> {
        Box::new(Packet {
            kind: PacketKind::Cnp,
            flow,
            src,
            dst,
            seq: 0,
            size,
            payload: 0,
            sent_at: now,
            ecn: false,
            int: IntStack::new(),
            concurrent_flows: 0,
            path_xor: 0,
            rocc_rate: f64::INFINITY,
            in_port: 0,
            accounted: 0,
            last_of_flow: false,
        })
    }

    /// A PFC control frame (link-local; src/dst are not routed).
    pub fn pfc(kind: PacketKind, size: u32, now: SimTime) -> Box<Packet> {
        debug_assert!(kind.is_control());
        Box::new(Packet {
            kind,
            flow: FlowId(u32::MAX),
            src: HostId(u32::MAX),
            dst: HostId(u32::MAX),
            seq: 0,
            size,
            payload: 0,
            sent_at: now,
            ecn: false,
            int: IntStack::new(),
            concurrent_flows: 0,
            path_xor: 0,
            rocc_rate: f64::INFINITY,
            in_port: 0,
            accounted: 0,
            last_of_flow: false,
        })
    }

    /// Append an INT record, growing the wire size by the record — unless
    /// the stack was full and dropped it.
    #[inline]
    pub fn push_int(&mut self, r: IntRecord) {
        if self.int.push(r) {
            self.size += INT_RECORD_BYTES;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(ts_us: u64, qlen: u64) -> IntRecord {
        IntRecord {
            bandwidth: Bandwidth::gbps(100),
            ts: SimTime::from_us(ts_us),
            tx_bytes: 0,
            qlen,
        }
    }

    #[test]
    fn int_stack_push_and_order() {
        let mut s = IntStack::new();
        assert!(s.is_empty());
        s.push(rec(1, 10));
        s.push(rec(2, 20));
        s.push(rec(3, 30));
        assert_eq!(s.len(), 3);
        let q: Vec<u64> = s.as_slice().iter().map(|r| r.qlen).collect();
        assert_eq!(q, vec![10, 20, 30]);
    }

    #[test]
    fn int_stack_reverse_normalises_return_path_order() {
        let mut s = IntStack::new();
        // Return-path order: last request-path switch first.
        s.push(rec(3, 30));
        s.push(rec(2, 20));
        s.push(rec(1, 10));
        s.reverse();
        let q: Vec<u64> = s.as_slice().iter().map(|r| r.qlen).collect();
        assert_eq!(q, vec![10, 20, 30]);
    }

    #[test]
    fn int_stack_wire_bytes() {
        let mut s = IntStack::new();
        assert_eq!(s.wire_bytes(), 0);
        s.push(rec(1, 1));
        s.push(rec(2, 2));
        assert_eq!(s.wire_bytes(), 2 * INT_RECORD_BYTES);
    }

    #[test]
    fn int_stack_clear() {
        let mut s = IntStack::new();
        s.push(rec(1, 1));
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.as_slice().len(), 0);
    }

    #[test]
    fn int_stack_saturates_at_capacity() {
        let mut s = IntStack::new();
        for i in 0..(MAX_HOPS + 3) {
            s.push(rec(i as u64, i as u64));
        }
        assert_eq!(s.len(), MAX_HOPS);
    }

    #[test]
    fn push_int_grows_wire_size() {
        let mut p = Packet::data(
            FlowId(0),
            HostId(0),
            HostId(1),
            0,
            1000,
            1062,
            SimTime::ZERO,
        );
        let before = p.size;
        p.push_int(rec(0, 0));
        assert_eq!(p.size, before + INT_RECORD_BYTES);
        assert_eq!(p.int.len(), 1);
        // Records a full stack drops add no wire bytes either.
        for _ in 0..MAX_HOPS + 2 {
            p.push_int(rec(0, 0));
        }
        assert_eq!(p.int.len(), MAX_HOPS);
        assert_eq!(p.size, before + p.int.wire_bytes());
    }

    #[test]
    fn constructors_set_kinds() {
        let d = Packet::data(FlowId(1), HostId(0), HostId(1), 0, 100, 162, SimTime::ZERO);
        assert_eq!(d.kind, PacketKind::Data);
        assert!(!d.kind.is_control());
        let a = Packet::ack(FlowId(1), HostId(1), HostId(0), 100, 70, SimTime::ZERO);
        assert_eq!(a.kind, PacketKind::Ack);
        assert_eq!(a.seq, 100);
        let c = Packet::cnp(FlowId(1), HostId(1), HostId(0), 64, SimTime::ZERO);
        assert_eq!(c.kind, PacketKind::Cnp);
        let p = Packet::pfc(PacketKind::PfcPause, 64, SimTime::ZERO);
        assert!(p.kind.is_control());
        let r = Packet::pfc(PacketKind::PfcResume, 64, SimTime::ZERO);
        assert!(r.kind.is_control());
    }

    #[test]
    fn rocc_rate_defaults_unset() {
        let d = Packet::data(FlowId(1), HostId(0), HostId(1), 0, 100, 162, SimTime::ZERO);
        assert!(d.rocc_rate.is_infinite());
    }
}
