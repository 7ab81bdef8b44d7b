//! Packets: RoCEv2 data frames, ACKs with INT stacks (Fig. 7), DCQCN CNPs
//! and PFC control frames.

use crate::ids::{FlowId, HostId};
use crate::pool::PacketPool;
use crate::units::{Bandwidth, INT_RECORD_BYTES};
use fncc_des::time::SimTime;

/// Maximum number of switch hops whose INT a packet can carry: the
/// capacity of one [`IntStack`].
///
/// The deepest path a scenario file can describe is the 3-level
/// fat-tree's 5 switches (`Scenario::validate` rejects deeper ones). A
/// hand-built fabric can go deeper; the records past this depth are
/// dropped, counted in [`IntStack::dropped`] and summed by the sender into
/// `Counters::int_truncations`.
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

/// A fixed-capacity stack of INT records. Records are pushed in the order
/// switches append them. A frame holds one out of line, taken from the
/// [`PacketPool`] when its first record arrives (see [`Packet::push_int`]).
#[derive(Clone, Copy, Debug)]
pub struct IntStack {
    records: [IntRecord; MAX_HOPS],
    len: u8,
    /// Records refused because the stack was full (saturating).
    dropped: u8,
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
            dropped: 0,
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
    /// ([`MAX_HOPS`] records) drops `r` and counts it in
    /// [`Self::dropped`] — `Scenario::validate` rejects topologies with
    /// paths that deep, so only hand-built fabrics can get here.
    #[inline]
    pub fn push(&mut self, r: IntRecord) -> bool {
        let stored = (self.len as usize) < MAX_HOPS;
        if stored {
            self.records[self.len as usize] = r;
            self.len += 1;
        } else {
            self.dropped = self.dropped.saturating_add(1);
        }
        stored
    }

    /// Records [`Self::push`] refused because the stack was full.
    #[inline]
    pub fn dropped(&self) -> u8 {
        self.dropped
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

    /// Remove all records and forget the drop count.
    pub fn clear(&mut self) {
        self.len = 0;
        self.dropped = 0;
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

/// A frame in flight. Boxed when stored in events/queues. One cache line
/// (64 bytes): the INT records live in a separate pooled [`IntStack`] that
/// only frames carrying INT hold.
#[derive(Debug)]
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
    /// In-network telemetry stack: `None` until a switch appends the first
    /// record, then a box from the [`PacketPool`] that [`PacketPool::put`]
    /// takes back. Read through [`Self::int`].
    pub(crate) int: Option<Box<IntStack>>,
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
    /// The one place a frame's fields are written: `kind` and the given
    /// fields, every other field at its unset value (no ECN mark, no INT
    /// stack, no `N`, no `pathID`, no RoCC rate, no switch metadata).
    /// The [`PacketPool`]'s constructors and [`Self::into_ack`] call it.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub(crate) fn new(
        kind: PacketKind,
        flow: FlowId,
        src: HostId,
        dst: HostId,
        seq: u64,
        size: u32,
        payload: u32,
        now: SimTime,
    ) -> Packet {
        Packet {
            kind,
            flow,
            src,
            dst,
            seq,
            size,
            payload,
            sent_at: now,
            ecn: false,
            int: None,
            concurrent_flows: 0,
            path_xor: 0,
            rocc_rate: f64::INFINITY,
            in_port: 0,
            accounted: 0,
            last_of_flow: false,
        }
    }

    /// Turn a delivered data frame into its own ACK from `src` (the data
    /// receiver) back to the data sender, cumulatively acknowledging payload
    /// bytes below `ack_seq` and carrying the receiver's flow count `n`
    /// (§3.2.3). The box is reused without touching the allocator, and the
    /// ACK keeps only what the receiver echoes: the flow, `sent_at` (RTT
    /// sampling), `rocc_rate` (the switch-advertised fair rate) and the INT
    /// stack (the HPCC receiver copy of Fig. 4a), whose records add to
    /// `base_size`.
    #[inline]
    pub fn into_ack(
        mut self: Box<Self>,
        src: HostId,
        ack_seq: u64,
        base_size: u32,
        n: u16,
    ) -> Box<Packet> {
        let size = base_size + self.int_wire_bytes();
        let mut ack = Packet::new(
            PacketKind::Ack,
            self.flow,
            src,
            self.src,
            ack_seq,
            size,
            0,
            self.sent_at,
        );
        ack.int = self.int.take();
        ack.concurrent_flows = n;
        ack.rocc_rate = self.rocc_rate;
        *self = ack;
        self
    }

    /// Append an INT record, growing the wire size by the record — unless
    /// the stack was full and dropped it. The first record takes a stack
    /// from `pool`.
    #[inline]
    pub fn push_int(&mut self, r: IntRecord, pool: &mut PacketPool) {
        let stack = self.int.get_or_insert_with(|| pool.take_stack());
        if stack.push(r) {
            self.size += INT_RECORD_BYTES;
        }
    }

    /// The INT records carried, in insertion order (empty without a stack).
    #[inline]
    pub fn int(&self) -> &[IntRecord] {
        self.int.as_deref().map_or(&[], IntStack::as_slice)
    }

    /// Wire bytes the INT records occupy.
    #[inline]
    pub fn int_wire_bytes(&self) -> u32 {
        self.int.as_deref().map_or(0, IntStack::wire_bytes)
    }

    /// INT records dropped because the stack was full.
    #[inline]
    pub fn int_dropped(&self) -> u8 {
        self.int.as_deref().map_or(0, IntStack::dropped)
    }

    /// Reverse the INT records in place (see [`IntStack::reverse`]).
    #[inline]
    pub fn reverse_int(&mut self) {
        if let Some(s) = self.int.as_deref_mut() {
            s.reverse();
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
        assert_eq!(s.dropped(), 3);
        s.clear();
        assert_eq!(s.dropped(), 0);
    }

    #[test]
    fn push_int_grows_wire_size() {
        let mut pool = PacketPool::new();
        let mut p = pool.data(
            FlowId(0),
            HostId(0),
            HostId(1),
            0,
            1000,
            1062,
            SimTime::ZERO,
        );
        let before = p.size;
        assert!(p.int().is_empty());
        p.push_int(rec(0, 0), &mut pool);
        assert_eq!(p.size, before + INT_RECORD_BYTES);
        assert_eq!(p.int().len(), 1);
        // Records a full stack drops add no wire bytes either.
        for _ in 0..MAX_HOPS + 2 {
            p.push_int(rec(0, 0), &mut pool);
        }
        assert_eq!(p.int().len(), MAX_HOPS);
        assert_eq!(p.int_dropped(), 3);
        assert_eq!(p.size, before + p.int_wire_bytes());
    }

    #[test]
    fn constructors_set_kinds() {
        let mut pool = PacketPool::new();
        let d = pool.data(FlowId(1), HostId(0), HostId(1), 0, 100, 162, SimTime::ZERO);
        assert_eq!(d.kind, PacketKind::Data);
        assert!(!d.kind.is_control());
        let a = pool.ack(FlowId(1), HostId(1), HostId(0), 100, 70, SimTime::ZERO);
        assert_eq!(a.kind, PacketKind::Ack);
        assert_eq!(a.seq, 100);
        let c = pool.cnp(FlowId(1), HostId(1), HostId(0), 64, SimTime::ZERO);
        assert_eq!(c.kind, PacketKind::Cnp);
        let p = pool.pfc(PacketKind::PfcPause, 64, SimTime::ZERO);
        assert!(p.kind.is_control());
        let r = pool.pfc(PacketKind::PfcResume, 64, SimTime::ZERO);
        assert!(r.kind.is_control());
    }

    #[test]
    fn rocc_rate_defaults_unset() {
        let mut pool = PacketPool::new();
        let d = pool.data(FlowId(1), HostId(0), HostId(1), 0, 100, 162, SimTime::ZERO);
        assert!(d.rocc_rate.is_infinite());
    }

    /// The ACK keeps the flow, `sent_at`, `rocc_rate` and the INT stack,
    /// swaps the endpoints, writes `seq`, `size` and `N`, and resets the
    /// rest.
    #[test]
    fn into_ack_keeps_only_the_echoed_fields() {
        let mut pool = PacketPool::new();
        let sent = SimTime::from_us(4);
        let mut d = pool.data(FlowId(5), HostId(0), HostId(1), 3000, 1000, 1062, sent);
        d.push_int(rec(1, 10), &mut pool);
        d.push_int(rec(2, 20), &mut pool);
        d.ecn = true;
        d.path_xor = 0xabc;
        d.rocc_rate = 7e9;
        d.in_port = 3;
        d.accounted = 1062;
        d.last_of_flow = true;
        let a = d.into_ack(HostId(1), 4000, 70, 9);
        assert_eq!(a.kind, PacketKind::Ack);
        assert_eq!(a.flow, FlowId(5));
        assert_eq!((a.src, a.dst), (HostId(1), HostId(0)));
        assert_eq!(a.seq, 4000);
        assert_eq!(a.size, 70 + 2 * INT_RECORD_BYTES);
        assert_eq!(a.payload, 0);
        assert_eq!(a.sent_at, sent);
        assert_eq!(a.rocc_rate, 7e9);
        let q: Vec<u64> = a.int().iter().map(|r| r.qlen).collect();
        assert_eq!(q, vec![10, 20]);
        assert!(!a.ecn);
        assert_eq!(a.path_xor, 0);
        assert_eq!((a.in_port, a.accounted), (0, 0));
        assert!(!a.last_of_flow);
        assert_eq!(a.concurrent_flows, 9);
        // The box and its stack came from the pool, and nothing else did.
        assert_eq!((pool.fresh_allocs(), pool.fresh_stacks()), (1, 1));
    }
}
