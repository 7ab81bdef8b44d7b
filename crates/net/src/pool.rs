//! Packet recycling: free-list pools of `Box<Packet>` and of INT stacks.
//!
//! Packets are created and destroyed millions of times per run — one
//! malloc/free pair per frame was a measurable slice of the hot path, and
//! worse, fresh boxes scatter across the heap while recycled ones stay
//! cache-hot. The pool hands out boxes from a free list and takes them
//! back at every point a frame leaves the simulation (delivery to a host,
//! PFC consumption, buffer drop).
//!
//! A frame's INT records live out of line in a `Box<IntStack>` that only
//! frames carrying INT hold: HPCC and FairQ data frames and their ACKs,
//! FNCC ACKs. [`Packet::push_int`] takes one from the second free list
//! when the first record arrives, and [`PacketPool::put`] parks it again,
//! so a packet box in the free list never keeps a stack.
//!
//! One function, `Packet::new`, writes every frame's fields. The
//! constructors ([`PacketPool::data`], [`PacketPool::ack`],
//! [`PacketPool::cnp`], [`PacketPool::pfc`]) move its value into a parked
//! box or a fresh one, and [`Packet::into_ack`] into the data frame's own
//! box, so a recycled frame cannot differ from a fresh one.

use crate::ids::{FlowId, HostId};
use crate::packet::{IntStack, Packet, PacketKind};
use fncc_des::time::SimTime;
use std::sync::{Arc, Mutex};

/// INT stacks the pools of a sharded run hold in common (see
/// [`PacketPool::share_stacks`]).
#[allow(clippy::vec_box)]
pub type StackDepot = Arc<Mutex<Vec<Box<IntStack>>>>;

/// Stacks a pool moves to or from its depot at once; it keeps at most
/// twice this many parked.
const STACK_BATCH: usize = 64;

/// Free lists of packet boxes and INT stacks, with allocation accounting.
#[derive(Default)]
pub struct PacketPool {
    // The boxes themselves are the currency here — frames circulate as
    // `Box<Packet>` through queues and events, so the free list must hold
    // boxes (moving `Packet` by value would copy its 64 B per put/take).
    #[allow(clippy::vec_box)]
    free: Vec<Box<Packet>>,
    // Stacks are handed to packets as boxes, so they are parked as boxes.
    #[allow(clippy::vec_box)]
    stacks: Vec<Box<IntStack>>,
    fresh: u64,
    recycled: u64,
    fresh_stacks: u64,
    depot: Option<StackDepot>,
}

impl PacketPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Boxes created fresh (pool misses) so far.
    pub fn fresh_allocs(&self) -> u64 {
        self.fresh
    }

    /// Boxes served from the free list so far.
    pub fn recycled(&self) -> u64 {
        self.recycled
    }

    /// Boxes currently parked in the free list.
    pub fn free_len(&self) -> usize {
        self.free.len()
    }

    /// INT stacks created fresh (misses of the stack list and the depot)
    /// so far.
    pub fn fresh_stacks(&self) -> u64 {
        self.fresh_stacks
    }

    /// INT stacks currently parked in the stack list.
    pub fn free_stacks(&self) -> usize {
        self.stacks.len()
    }

    /// Share one reserve of INT stacks with the other pools `depot` was
    /// handed to (one per pod shard of a sharded run). An FNCC ACK takes
    /// its stack in the receiver's pod and is consumed in the sender's, so
    /// stacks drift towards pods that send more than they receive: such a
    /// pool spills the surplus to the depot in batches, and a pool that
    /// runs dry refills from it before allocating.
    pub fn share_stacks(&mut self, depot: StackDepot) {
        self.depot = Some(depot);
    }

    /// Return a box to the free list, and its INT stack, if it holds one,
    /// to the stack list.
    #[inline]
    pub fn put(&mut self, mut pkt: Box<Packet>) {
        if let Some(stack) = pkt.int.take() {
            self.stacks.push(stack);
            if self.stacks.len() > 2 * STACK_BATCH && self.depot.is_some() {
                self.spill_stacks();
            }
        }
        self.free.push(pkt);
    }

    /// An empty INT stack: a parked one, else one from the depot, else a
    /// fresh allocation.
    #[inline]
    pub(crate) fn take_stack(&mut self) -> Box<IntStack> {
        let mut s = match self.stacks.pop() {
            Some(s) => s,
            None => self.refill_stack(),
        };
        s.clear();
        s
    }

    #[cold]
    fn spill_stacks(&mut self) {
        let depot = self.depot.as_ref().expect("spilling needs a depot");
        let keep = self.stacks.len() - STACK_BATCH;
        depot
            .lock()
            .expect("stack depot poisoned: a shard panicked")
            .extend(self.stacks.drain(keep..));
    }

    #[cold]
    fn refill_stack(&mut self) -> Box<IntStack> {
        if let Some(depot) = &self.depot {
            let mut d = depot
                .lock()
                .expect("stack depot poisoned: a shard panicked");
            let from = d.len().saturating_sub(STACK_BATCH);
            self.stacks.extend(d.drain(from..));
        }
        self.stacks.pop().unwrap_or_else(|| {
            self.fresh_stacks += 1;
            Box::default()
        })
    }

    /// Move `pkt` into a parked box, else into a fresh one. A parked box
    /// holds no INT stack ([`Self::put`] took it), so overwriting it frees
    /// nothing.
    #[inline]
    fn boxed(&mut self, pkt: Packet) -> Box<Packet> {
        match self.free.pop() {
            Some(mut b) => {
                self.recycled += 1;
                debug_assert!(b.int.is_none(), "a parked box keeps no INT stack");
                *b = pkt;
                b
            }
            None => {
                self.fresh += 1;
                Box::new(pkt)
            }
        }
    }

    /// A data frame of `payload` application bytes starting at `seq`.
    #[allow(clippy::too_many_arguments)]
    pub fn data(
        &mut self,
        flow: FlowId,
        src: HostId,
        dst: HostId,
        seq: u64,
        payload: u32,
        wire_size: u32,
        now: SimTime,
    ) -> Box<Packet> {
        let kind = PacketKind::Data;
        self.boxed(Packet::new(
            kind, flow, src, dst, seq, wire_size, payload, now,
        ))
    }

    /// An ACK from `src` (the data receiver) to `dst` (the data sender),
    /// cumulatively acknowledging payload bytes below `ack_seq`.
    pub fn ack(
        &mut self,
        flow: FlowId,
        src: HostId,
        dst: HostId,
        ack_seq: u64,
        base_size: u32,
        now: SimTime,
    ) -> Box<Packet> {
        let kind = PacketKind::Ack;
        self.boxed(Packet::new(
            kind, flow, src, dst, ack_seq, base_size, 0, now,
        ))
    }

    /// A DCQCN congestion-notification packet.
    pub fn cnp(
        &mut self,
        flow: FlowId,
        src: HostId,
        dst: HostId,
        size: u32,
        now: SimTime,
    ) -> Box<Packet> {
        self.boxed(Packet::new(
            PacketKind::Cnp,
            flow,
            src,
            dst,
            0,
            size,
            0,
            now,
        ))
    }

    /// A PFC control frame (link-local; src/dst are not routed).
    pub fn pfc(&mut self, kind: PacketKind, size: u32, now: SimTime) -> Box<Packet> {
        debug_assert!(kind.is_control());
        let (flow, host) = (FlowId(u32::MAX), HostId(u32::MAX));
        self.boxed(Packet::new(kind, flow, host, host, 0, size, 0, now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::IntRecord;
    use crate::units::{Bandwidth, INT_RECORD_BYTES};

    fn rec(qlen: u64) -> IntRecord {
        IntRecord {
            bandwidth: Bandwidth::gbps(100),
            ts: SimTime::from_us(9),
            tx_bytes: 77,
            qlen,
        }
    }

    /// Every kind of frame comes out of a recycled box exactly as out of
    /// an empty pool's fresh one, also when the box last carried INT.
    #[test]
    fn pooled_constructors_match_fresh_ones() {
        const NOW: SimTime = SimTime::from_us(3);
        let kinds: [fn(&mut PacketPool) -> Box<Packet>; 5] = [
            |p| p.data(FlowId(1), HostId(2), HostId(3), 40, 100, 162, NOW),
            |p| p.ack(FlowId(1), HostId(3), HostId(2), 140, 70, NOW),
            |p| p.cnp(FlowId(1), HostId(3), HostId(2), 64, NOW),
            |p| p.pfc(PacketKind::PfcPause, 64, NOW),
            |p| p.pfc(PacketKind::PfcResume, 64, NOW),
        ];
        for make in kinds {
            let fresh = make(&mut PacketPool::new());
            let mut pool = PacketPool::new();
            let mut used = pool.ack(FlowId(9), HostId(8), HostId(7), 1, 70, SimTime::ZERO);
            used.push_int(rec(5), &mut pool);
            used.concurrent_flows = 4;
            pool.put(used);
            let recycled = make(&mut pool);
            assert_eq!(pool.recycled(), 1);
            assert!(recycled.int().is_empty());
            assert_eq!(format!("{recycled:?}"), format!("{fresh:?}"));
        }
    }

    #[test]
    fn int_stacks_return_to_the_pool() {
        let mut pool = PacketPool::new();
        let now = SimTime::from_us(1);
        let mut ack = pool.ack(FlowId(1), HostId(3), HostId(2), 140, 70, now);
        ack.push_int(rec(10), &mut pool);
        ack.push_int(rec(20), &mut pool);
        assert_eq!(pool.fresh_stacks(), 1);
        pool.put(ack);
        assert_eq!(pool.free_stacks(), 1);
        // The next box has no stack: `put` parked it apart from the box.
        let mut d = pool.data(FlowId(2), HostId(0), HostId(1), 0, 100, 162, now);
        assert!(d.int.is_none());
        assert_eq!(d.int_wire_bytes(), 0);
        // Its first record reuses the parked stack, emptied.
        d.push_int(rec(30), &mut pool);
        assert_eq!(pool.fresh_stacks(), 1);
        assert_eq!(pool.free_stacks(), 0);
        let q: Vec<u64> = d.int().iter().map(|r| r.qlen).collect();
        assert_eq!(q, vec![30]);
        assert_eq!(d.size, 162 + INT_RECORD_BYTES);
    }

    /// Pod shards share a depot: a pool that collects more stacks than it
    /// parks spills them there, and a pool that runs dry takes them back
    /// before allocating.
    #[test]
    fn shared_stacks_move_through_the_depot() {
        let depot = StackDepot::default();
        let (mut sender, mut receiver) = (PacketPool::new(), PacketPool::new());
        sender.share_stacks(depot.clone());
        receiver.share_stacks(depot.clone());
        let now = SimTime::ZERO;
        let n = 3 * STACK_BATCH;
        // The receiver's pod stamps every ACK; the sender's consumes them.
        let acks: Vec<_> = (0..n)
            .map(|i| {
                let mut a = receiver.ack(FlowId(i as u32), HostId(1), HostId(0), 0, 70, now);
                a.push_int(rec(1), &mut receiver);
                a
            })
            .collect();
        assert_eq!(receiver.fresh_stacks(), n as u64);
        for a in acks {
            sender.put(a);
        }
        assert!(sender.free_stacks() <= 2 * STACK_BATCH);
        let spilled = depot.lock().unwrap().len();
        assert_eq!(sender.free_stacks() + spilled, n);
        // The receiver draws on the depot rather than the allocator.
        for _ in 0..spilled {
            let mut a = receiver.ack(FlowId(0), HostId(1), HostId(0), 0, 70, now);
            a.push_int(rec(2), &mut receiver);
            assert_eq!(a.int().len(), 1, "a depot stack comes back empty");
        }
        assert_eq!(receiver.fresh_stacks(), n as u64);
        assert!(depot.lock().unwrap().is_empty());
    }

    #[test]
    fn recycled_box_is_fully_reset() {
        let mut pool = PacketPool::new();
        let mut p = pool.data(
            FlowId(7),
            HostId(0),
            HostId(1),
            0,
            1456,
            1518,
            SimTime::ZERO,
        );
        // Dirty every mutable bit of state a switch or host can touch.
        p.push_int(rec(12), &mut pool);
        p.ecn = true;
        p.concurrent_flows = 9;
        p.path_xor = 0xabc;
        p.rocc_rate = 5e9;
        p.in_port = 3;
        p.accounted = 1526;
        p.last_of_flow = true;
        pool.put(p);
        assert_eq!(pool.free_len(), 1);
        let q = pool.data(FlowId(1), HostId(2), HostId(3), 40, 100, 162, SimTime::ZERO);
        let fresh =
            PacketPool::new().data(FlowId(1), HostId(2), HostId(3), 40, 100, 162, SimTime::ZERO);
        assert_eq!(format!("{:?}", q.int()), "[]");
        assert_eq!(q.int_wire_bytes(), 0);
        // Everything observable matches an empty pool's fresh box.
        assert_eq!(format!("{q:?}"), format!("{fresh:?}"));
        assert_eq!(q.kind, fresh.kind);
        assert_eq!(q.seq, fresh.seq);
        assert_eq!(q.size, fresh.size);
        assert_eq!(q.payload, fresh.payload);
        assert!(!q.ecn && !q.last_of_flow);
        assert_eq!(q.concurrent_flows, 0);
        assert_eq!(q.path_xor, 0);
        assert!(q.rocc_rate.is_infinite());
        assert_eq!((q.in_port, q.accounted), (0, 0));
        assert_eq!(pool.recycled(), 1);
        assert_eq!(pool.fresh_allocs(), 1);
    }
}
