//! A hierarchical timing wheel over one node arena: the engine's O(1)
//! event queue, in O(peak backlog) memory.
//!
//! The classic `BinaryHeap` event queue costs O(log n) comparisons per
//! push/pop with poor locality once the queue holds thousands of entries —
//! at packet-DES scale the queue, not the model, dominates the run time.
//! This wheel exploits the structure of network-simulation schedules:
//! almost every event is scheduled within one fabric hop (a propagation
//! delay plus a serialization time) of `now`, so bucketing by time quantum
//! makes push and pop O(1) amortized.
//!
//! **Storage.** Every queued event lives in one arena (`nodes`, a `Vec` of
//! [`Node`]s recycled through a LIFO free list), so the footprint is the
//! peak backlog — at most doubled by `Vec` growth — whatever the schedule's
//! shape. A slot is an intrusive singly linked list: one `u32` head per
//! slot, the link inside the node. Filing an event into a slot, and
//! cascading a coarse slot into finer ones, relinks nodes without moving
//! them.
//!
//! **Layout.** [`LEVELS`] wheels of [`SLOTS`] slots each. A level-0 slot
//! spans 2^[`SLOT_SHIFT`] ps (≈ 2 ns: narrow enough that a reached slot
//! sorts a handful of keys); each higher level is [`SLOTS`]× coarser, so
//! level 0 as a whole spans ≈ 8.4 µs — wider than one fabric
//! hop (1.5 µs propagation + an MTU serialization), which therefore lands
//! in level 0 directly unless it crosses a level-0 group boundary. An
//! event lands in the finest level whose *aligned group* contains both the
//! event and the cursor (the no-wrap placement rule: placement never wraps
//! around a wheel, so a linear bitmap scan of the current group is
//! exhaustive). Events beyond the top level's aligned window wait in an
//! overflow heap of keys and migrate into the wheel as the clock
//! approaches them.
//!
//! **Order.** When the cursor reaches a level-0 slot its list is sorted
//! *once* into `run`, an ascending array of `(time, prio, seq, node)` keys
//! that pops from its front in O(1). A push at or before the cursor's slot
//! (the slot being drained, or behind a cursor that a peek advanced)
//! binary-inserts into the run: an append when it sorts last, as
//! same-time ties do, and otherwise a move of the keys queued behind it in
//! that one slot. Dispatch order is therefore exactly `(time, prio, seq)`
//! — bit-identical to the reference `BinaryHeap` scheduler (the engine's
//! equivalence fuzz pins this).

use crate::time::SimTime;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// log2 of the level-0 slot width in picoseconds.
const SLOT_SHIFT: u32 = 11;
/// log2 of the number of slots per level.
const SLOT_BITS: u32 = 12;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Mask of a slot index within its level.
const SLOT_MASK: u64 = SLOTS as u64 - 1;
/// Number of wheel levels; the top level's aligned window spans
/// 2^(SLOT_SHIFT + LEVELS·SLOT_BITS) ps ≈ 141 s of simulated time.
const LEVELS: usize = 3;
/// Occupancy bitmap words per level.
const WORDS: usize = SLOTS / 64;
/// End-of-list / empty-slot marker.
const NIL: u32 = u32::MAX;

/// A queued event: absolute time, schedule-time priority, insertion
/// sequence, payload. Ordered so that a max-`BinaryHeap` pops the smallest
/// `(time, prio, seq)` — the heap oracle's element, and what the wheel's
/// [`pop`](TimingWheel::pop) hands back.
///
/// `prio` is the simulation time at which the event was *scheduled*. For a
/// single engine this refinement is an identity: sequence numbers are
/// assigned in dispatch order and dispatch time is monotone, so `seq` order
/// already implies non-decreasing schedule time. It exists for the sharded
/// runtime, where a frame crossing shards keeps the `(prio, seq)` it was
/// assigned in its *source* shard — reproducing the position the global
/// single-engine order would have given it.
pub(crate) struct Entry<E> {
    pub time: SimTime,
    pub prio: SimTime,
    pub seq: u64,
    pub ev: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.prio == other.prio && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    // Reversed: BinaryHeap is a max-heap, we want the earliest
    // (time, prio, seq) first.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.time, other.prio, other.seq).cmp(&(self.time, self.prio, self.seq))
    }
}

/// One arena cell: a queued event and its link in a slot list, or a free
/// cell (`ev` is `None`) linked into the free list.
struct Node<E> {
    time: SimTime,
    prio: SimTime,
    seq: u64,
    next: u32,
    ev: Option<E>,
}

/// The dispatch order of one queued event and the arena cell holding it.
/// The derived order is `(time, prio, seq)`; `node` never decides, since
/// `(prio, seq)` is unique per queued event.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    time: SimTime,
    prio: SimTime,
    seq: u64,
    node: u32,
}

impl Key {
    /// Global level-0 slot index of this key's time.
    #[inline]
    fn slot(&self) -> u64 {
        self.time.as_ps() >> SLOT_SHIFT
    }
}

/// The slot table, boxed so that the wheel itself stays a few words.
struct Slots {
    /// Per level, per slot: head of that slot's node list.
    heads: [[u32; SLOTS]; LEVELS],
    /// Per level, one bit per slot: does the slot hold any events?
    occupied: [[u64; WORDS]; LEVELS],
}

/// The hierarchical timing wheel event queue.
pub(crate) struct TimingWheel<E> {
    /// The arena: every queued event, plus recycled cells.
    nodes: Vec<Node<E>>,
    /// Head of the LIFO free list through `Node::next`.
    free: u32,
    slots: Box<Slots>,
    /// Keys of every event at or before the cursor's slot, ascending;
    /// `run[head..]` is still queued.
    run: Vec<Key>,
    head: usize,
    /// Global level-0 slot index of the clock cursor (`time >> SLOT_SHIFT`).
    cur_slot: u64,
    /// Far-future events beyond the top level's aligned window.
    overflow: BinaryHeap<Reverse<Key>>,
    len: usize,
    /// Cascades performed per source level (level 1.. — index 0 unused):
    /// how often `refill` had to break a coarse slot into finer ones. Fed
    /// to the `wheel_cascades_l*` report scalars.
    cascades: [u64; LEVELS],
}

impl<E> TimingWheel<E> {
    pub fn new() -> Self {
        TimingWheel {
            nodes: Vec::new(),
            free: NIL,
            slots: Box::new(Slots {
                heads: [[NIL; SLOTS]; LEVELS],
                occupied: [[0; WORDS]; LEVELS],
            }),
            run: Vec::new(),
            head: 0,
            cur_slot: 0,
            overflow: BinaryHeap::new(),
            len: 0,
            cascades: [0; LEVELS],
        }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Cascade counts indexed by source level (index 0 is always 0).
    pub fn cascade_counts(&self) -> &[u64] {
        &self.cascades
    }

    /// Queue an event. `time` must be ≥ the time of the last popped event
    /// (the engine clamps); times at or before the cursor's slot are legal
    /// (the slot being drained, or the cursor advanced ahead of dispatch
    /// during a peek) and insert into the sorted run.
    ///
    /// Inlined into the scheduling call, so the event is written once, from
    /// the caller's registers into its arena cell, and the common placement
    /// — a level-0 slot ahead of the cursor — is linked here. Arena growth
    /// and every other placement are calls that never see the event.
    #[inline(always)]
    pub fn push(&mut self, time: SimTime, prio: SimTime, seq: u64, ev: E) {
        self.len += 1;
        if self.free == NIL {
            self.grow();
        }
        let node = self.free;
        let n = &mut self.nodes[node as usize];
        self.free = n.next;
        n.time = time;
        n.prio = prio;
        n.seq = seq;
        // A free cell holds `None`: forgetting it skips the drop check a
        // plain assignment would run on every push.
        std::mem::forget(n.ev.replace(ev));
        // Level 0 holds the event iff its slot and the cursor's differ only
        // in the low SLOT_BITS bits (the no-wrap rule of `file`).
        let s = time.as_ps() >> SLOT_SHIFT;
        if s > self.cur_slot && (s ^ self.cur_slot) <= SLOT_MASK {
            let ix = (s & SLOT_MASK) as usize;
            n.next = self.slots.heads[0][ix];
            self.slots.heads[0][ix] = node;
            self.slots.occupied[0][ix >> 6] |= 1u64 << (ix & 63);
        } else {
            self.place(Key {
                time,
                prio,
                seq,
                node,
            });
        }
    }

    /// Add one free cell to an exhausted arena.
    #[cold]
    fn grow(&mut self) {
        let ix = self.nodes.len();
        assert!(ix < NIL as usize, "event backlog exceeds u32 node indices");
        self.nodes.push(Node {
            time: SimTime::ZERO,
            prio: SimTime::ZERO,
            seq: 0,
            next: NIL,
            ev: None,
        });
        self.free = ix as u32;
    }

    /// Place a pushed node anywhere but a level-0 slot ahead of the cursor:
    /// on the run, in order, or in a coarser level or the overflow heap.
    #[inline(never)]
    fn place(&mut self, key: Key) {
        if key.slot() <= self.cur_slot {
            let queued = &self.run[self.head..];
            let at = self.head + queued.partition_point(|k| *k < key);
            self.run.insert(at, key);
        } else {
            self.file(key);
        }
    }

    /// Link a node whose slot lies ahead of the cursor into its wheel slot
    /// (or the overflow heap). Always inlined: LLVM stopped inlining it
    /// into `unload` when PR 25 regrouped fncc-core's codegen units, and
    /// `des_incast_allcc_k4` ran 10 % slower.
    #[inline(always)]
    fn file(&mut self, key: Key) {
        let s = key.slot();
        debug_assert!(s > self.cur_slot);
        // No-wrap rule: level l may hold the event only if the event and
        // the cursor share the aligned level-(l+1) group, i.e. their slot
        // indices differ only below bit SLOT_BITS·(l+1).
        let high_bit = 63 - (s ^ self.cur_slot).leading_zeros();
        let l = (high_bit / SLOT_BITS) as usize;
        if l >= LEVELS {
            self.overflow.push(Reverse(key));
            return;
        }
        let ix = ((s >> (SLOT_BITS * l as u32)) & SLOT_MASK) as usize;
        self.nodes[key.node as usize].next = self.slots.heads[l][ix];
        self.slots.heads[l][ix] = key.node;
        self.slots.occupied[l][ix >> 6] |= 1u64 << (ix & 63);
    }

    /// Re-place a node after the cursor moved (slot reached, cascade,
    /// overflow migration): onto the run, unsorted, if the cursor's slot
    /// reached it — `refill` sorts the run once per step — and into a
    /// finer slot otherwise.
    #[inline]
    fn refile(&mut self, key: Key) {
        if key.slot() <= self.cur_slot {
            self.run.push(key);
        } else {
            self.file(key);
        }
    }

    /// Unlink the slot the cursor just moved to (the start of) and
    /// re-place every node of its list relative to the new cursor.
    fn unload(&mut self, l: usize, ix: usize) {
        self.slots.occupied[l][ix >> 6] &= !(1u64 << (ix & 63));
        let mut node = std::mem::replace(&mut self.slots.heads[l][ix], NIL);
        while node != NIL {
            let n = &self.nodes[node as usize];
            let key = Key {
                time: n.time,
                prio: n.prio,
                seq: n.seq,
                node,
            };
            node = n.next;
            self.refile(key);
        }
    }

    /// Smallest occupied slot index of level `l` strictly greater than
    /// `after`, if any.
    #[inline]
    fn next_occupied_after(&self, l: usize, after: usize) -> Option<usize> {
        let occupied = &self.slots.occupied[l];
        let mut w = after >> 6;
        // Mask off bits ≤ `after` within its word.
        let mut word = occupied[w] & (u64::MAX << (after & 63)) & !(1u64 << (after & 63));
        loop {
            if word != 0 {
                return Some((w << 6) + word.trailing_zeros() as usize);
            }
            w += 1;
            if w >= WORDS {
                return None;
            }
            word = occupied[w];
        }
    }

    /// Time of the earliest queued event, advancing the cursor to it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.refill();
        self.run.get(self.head).map(|k| k.time)
    }

    /// Pop the earliest `(time, prio, seq)` event.
    pub fn pop(&mut self) -> Option<Entry<E>> {
        self.refill();
        let key = *self.run.get(self.head)?;
        self.head += 1;
        if self.head == self.run.len() {
            self.run.clear();
            self.head = 0;
        }
        self.len -= 1;
        let n = &mut self.nodes[key.node as usize];
        let ev = n.ev.take().expect("a queued key names a live node");
        n.next = self.free;
        self.free = key.node;
        Some(Entry {
            time: key.time,
            prio: key.prio,
            seq: key.seq,
            ev,
        })
    }

    /// Ensure the run holds the globally earliest event (if any): advance
    /// the cursor (bitmap-guided, so empty ranges are skipped in O(words)),
    /// cascading coarser levels down as their slots are reached and
    /// migrating overflow events once they fit in the wheel.
    fn refill(&mut self) {
        // The run is empty on entry to every iteration, so whatever an
        // iteration appends can be sorted once at its end.
        while self.run.is_empty() && self.len > 0 {
            let c0 = (self.cur_slot & SLOT_MASK) as usize;
            if let Some(i) = self.next_occupied_after(0, c0) {
                // Next occupied level-0 slot within the cursor's group:
                // all of it goes onto the run.
                self.cur_slot = (self.cur_slot & !SLOT_MASK) | i as u64;
                self.unload(0, i);
            } else if !self.cascade() {
                // Wheel empty: jump to the overflow's earliest event.
                let Reverse(key) = self.overflow.pop().expect("len > 0 outside the wheel");
                self.cur_slot = key.slot();
                self.run.push(key);
                self.migrate_overflow();
            }
            if self.run.len() > 1 {
                self.run.sort_unstable();
            }
        }
    }

    /// Level 0 is exhausted: break the next occupied coarser slot into
    /// finer ones. Returns `false` when every level is empty.
    fn cascade(&mut self) -> bool {
        for l in 1..LEVELS {
            let shift = SLOT_BITS * l as u32;
            let cl = ((self.cur_slot >> shift) & SLOT_MASK) as usize;
            let Some(j) = self.next_occupied_after(l, cl) else {
                continue;
            };
            // Jump the cursor to the start of that slot's range; every
            // event inside re-files at a finer level (or the run, for the
            // exact slot-start quantum).
            let group = self.cur_slot >> (shift + SLOT_BITS) << (shift + SLOT_BITS);
            self.cur_slot = group | ((j as u64) << shift);
            self.unload(l, j);
            self.cascades[l] += 1;
            self.migrate_overflow();
            return true;
        }
        false
    }

    /// Move overflow events that now share the top level's aligned window
    /// with the cursor into the wheel.
    fn migrate_overflow(&mut self) {
        let window_shift = SLOT_BITS * LEVELS as u32;
        while let Some(Reverse(key)) = self.overflow.peek() {
            if (key.slot() >> window_shift) != (self.cur_slot >> window_shift) {
                return;
            }
            let Reverse(key) = self.overflow.pop().expect("peeked");
            self.refile(key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_order(w: &mut TimingWheel<u32>) -> Vec<(u64, u32)> {
        let mut out = Vec::new();
        while let Some(e) = w.pop() {
            out.push((e.time.as_ps(), e.ev));
        }
        out
    }

    /// An event-size regression should fail here, not in a benchmark: the
    /// fabric's event is 24 bytes with a spare tag value for `Option`.
    #[test]
    fn node_and_key_layout() {
        type Ev24 = (u64, u64, std::num::NonZeroU64);
        assert_eq!(std::mem::size_of::<Node<Ev24>>(), 56);
        assert_eq!(std::mem::size_of::<Key>(), 32);
    }

    #[test]
    fn orders_across_levels_and_overflow() {
        let mut w = TimingWheel::new();
        // Times spanning the run, levels 0..2 and overflow.
        let level1 = 1u64 << (SLOT_SHIFT + SLOT_BITS);
        let level2 = level1 << SLOT_BITS;
        let times = [
            0u64,
            1,
            5_000, // same slot group
            3 * level1 + 17,
            2 * level2 + 5,
            20 * level2,
            (10 * level2) << SLOT_BITS, // overflow
            7,
        ];
        for (i, &t) in times.iter().enumerate() {
            w.push(SimTime::from_ps(t), SimTime::ZERO, i as u64, i as u32);
        }
        assert_eq!(w.len(), times.len());
        let got = drain_order(&mut w);
        let mut want: Vec<(u64, u32)> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| (t, i as u32))
            .collect();
        want.sort();
        assert_eq!(got, want);
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn ties_pop_in_sequence_order() {
        let mut w = TimingWheel::new();
        for i in 0..100u32 {
            w.push(SimTime::from_ps(42), SimTime::ZERO, i as u64, i);
        }
        let got = drain_order(&mut w);
        assert_eq!(got, (0..100).map(|i| (42, i)).collect::<Vec<_>>());
    }

    #[test]
    fn group_boundary_crossings_are_not_skipped() {
        // Events a few slots apart but on opposite sides of a level-0 group
        // boundary: the no-wrap rule must route the later one through
        // level 1 and still dispatch in order.
        let mut w = TimingWheel::new();
        let group = (SLOTS as u64) << SLOT_SHIFT;
        let group1 = group << SLOT_BITS; // level-1 group boundary
        w.push(SimTime::from_ps(group - 10), SimTime::ZERO, 0, 0);
        w.push(SimTime::from_ps(group + 10), SimTime::ZERO, 1, 1);
        w.push(SimTime::from_ps(group1 + 5), SimTime::ZERO, 2, 2);
        let got = drain_order(&mut w);
        assert_eq!(got, vec![(group - 10, 0), (group + 10, 1), (group1 + 5, 2)]);
        assert_eq!(w.cascade_counts(), &[0, 1, 1]);
    }

    #[test]
    fn one_fabric_hop_lands_in_level_0() {
        // 1.5 µs propagation + a 1518-byte frame at 100 Gb/s, scheduled
        // from a cursor early in its level-0 group: no cascade.
        let mut w = TimingWheel::new();
        w.push(SimTime::from_ns(10), SimTime::ZERO, 0, 0);
        assert_eq!(w.pop().unwrap().ev, 0);
        w.push(SimTime::from_ns(10 + 1_500 + 122), SimTime::ZERO, 1, 1);
        assert_eq!(w.pop().unwrap().ev, 1);
        assert_eq!(w.cascade_counts(), &[0, 0, 0]);
    }

    #[test]
    fn push_behind_cursor_lands_in_the_run() {
        let mut w = TimingWheel::new();
        w.push(SimTime::from_us(100), SimTime::ZERO, 0, 0);
        // Peek advances the cursor to the 100 µs slot…
        assert_eq!(w.peek_time(), Some(SimTime::from_us(100)));
        // …then an earlier event arrives (legal: a horizon-parked engine
        // schedules between `now` and the next event).
        w.push(SimTime::from_us(50), SimTime::ZERO, 1, 1);
        let got = drain_order(&mut w);
        assert_eq!(got, vec![(50_000_000, 1), (100_000_000, 0)]);
    }

    #[test]
    fn pushes_into_the_slot_being_drained_keep_exact_order() {
        // Five events inside one slot; after popping the first, push
        // ahead of, between and behind the remaining ones, and a same-time
        // tie with a foreign (smaller) sequence number.
        let mut w = TimingWheel::new();
        let base = 1u64 << 20; // slot-aligned
        for (i, off) in [100u64, 500, 1_000, 1_500, 2_000].iter().enumerate() {
            w.push(
                SimTime::from_ps(base + off),
                SimTime::ZERO,
                10 + i as u64,
                i as u32,
            );
        }
        assert_eq!(w.pop().unwrap().ev, 0);
        w.push(SimTime::from_ps(base + 100), SimTime::ZERO, 20, 20); // "immediate"
        w.push(SimTime::from_ps(base + 1_200), SimTime::ZERO, 21, 21);
        w.push(SimTime::from_ps(base + 2_040), SimTime::ZERO, 22, 22);
        w.push(SimTime::from_ps(base + 1_000), SimTime::ZERO, 3, 23); // wins the tie
        let got: Vec<u32> = drain_order(&mut w).iter().map(|&(_, e)| e).collect();
        assert_eq!(got, vec![20, 1, 23, 2, 21, 3, 4, 22]);
    }

    #[test]
    fn interleaved_push_pop_keeps_global_order() {
        let mut w = TimingWheel::new();
        let mut seq = 0u64;
        let mut push = |w: &mut TimingWheel<u32>, t: u64, tag: u32| {
            w.push(SimTime::from_ns(t), SimTime::ZERO, seq, tag);
            seq += 1;
        };
        push(&mut w, 10, 0);
        push(&mut w, 5_000_000, 1); // far future
        let e = w.pop().unwrap();
        assert_eq!(e.ev, 0);
        // Schedule relative to the popped time.
        push(&mut w, 20, 2);
        push(&mut w, 4_000, 3);
        assert_eq!(w.pop().unwrap().ev, 2);
        assert_eq!(w.pop().unwrap().ev, 3);
        assert_eq!(w.pop().unwrap().ev, 1);
        assert!(w.pop().is_none());
    }

    #[test]
    fn overflow_migrates_as_the_clock_approaches() {
        let mut w = TimingWheel::new();
        let window = 1u64 << (SLOT_SHIFT + SLOT_BITS * LEVELS as u32);
        w.push(SimTime::from_ps(window + 100), SimTime::ZERO, 0, 0);
        w.push(SimTime::from_ps(window + 200), SimTime::ZERO, 1, 1);
        w.push(SimTime::from_ps(3 * window + 7), SimTime::ZERO, 2, 2);
        w.push(SimTime::from_ps(3), SimTime::ZERO, 3, 3);
        assert_eq!(w.pop().unwrap().ev, 3);
        assert_eq!(w.pop().unwrap().ev, 0);
        // The cursor now sits in the second window: an event later in it
        // files into the wheel, one two windows on still overflows.
        w.push(SimTime::from_ps(window + 150), SimTime::ZERO, 4, 4);
        w.push(SimTime::from_ps(3 * window + 5), SimTime::ZERO, 5, 5);
        assert_eq!(w.pop().unwrap().ev, 4);
        assert_eq!(w.pop().unwrap().ev, 1);
        assert_eq!(w.pop().unwrap().ev, 5);
        assert_eq!(w.pop().unwrap().ev, 2);
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn empty_wheel_behaves() {
        let mut w: TimingWheel<u32> = TimingWheel::new();
        assert_eq!(w.len(), 0);
        assert_eq!(w.peek_time(), None);
        assert!(w.pop().is_none());
    }

    #[test]
    fn freed_nodes_are_reused_lifo() {
        let mut w = TimingWheel::new();
        for i in 0..4u32 {
            w.push(SimTime::from_ns(i as u64), SimTime::ZERO, i as u64, i);
        }
        assert_eq!(w.nodes.len(), 4);
        // Free nodes 0 then 1: the free list hands back 1 first.
        w.pop();
        w.pop();
        w.push(SimTime::from_us(1), SimTime::ZERO, 4, 4);
        assert_eq!(w.slots.heads[0][(1_000_000u64 >> SLOT_SHIFT) as usize], 1);
        // Cycle the whole arena many times over: it never grows past the
        // backlog, and order holds across the reuse.
        for seq in 5..1_005u64 {
            let e = w.pop().unwrap();
            let t = e.time + crate::time::TimeDelta::from_ns(7 + seq % 5);
            w.push(t, e.time, seq, e.ev);
        }
        assert_eq!(w.nodes.len(), 4);
        let got = drain_order(&mut w);
        assert!(got.windows(2).all(|p| p[0].0 <= p[1].0));
        assert_eq!(got.len(), 3);
    }

    /// Differential fuzz against the heap oracle at the queue level: random
    /// pushes at every distance from the clock (same quantum, sub-slot, one
    /// hop, each coarser level, past the top window), pops, and peeks that
    /// run the cursor ahead so that later pushes land behind it — with
    /// foreign `(prio, seq)` pairs that sort before and after local ones.
    #[test]
    fn random_interleaving_matches_the_heap_oracle() {
        use crate::rng::DetRng;
        const TOP: u32 = SLOT_SHIFT + SLOT_BITS * LEVELS as u32;
        const DELTAS: [u64; 7] = [
            1,                                 // same quantum
            1 << SLOT_SHIFT,                   // sub-slot
            1_700_000,                         // one hop
            2 << (SLOT_SHIFT + SLOT_BITS),     // level 1
            2 << (SLOT_SHIFT + 2 * SLOT_BITS), // level 2
            2 << TOP,                          // overflow
            6 << TOP,                          // two windows on
        ];
        for seed in 0..20 {
            let mut rng = DetRng::new(seed, 16);
            let mut w = TimingWheel::new();
            let mut oracle = BinaryHeap::new();
            let mut now = SimTime::ZERO;
            let mut seq = 0u64;
            for _ in 0..4_000 {
                match rng.below(8) {
                    0..=3 => {
                        let span = DELTAS[rng.index(DELTAS.len())];
                        let time = SimTime::from_ps(now.as_ps() + rng.below(span));
                        // Mostly local (prio = now, rising seq); sometimes a
                        // foreign pair: an older schedule time, a sequence
                        // from a lower or a higher domain.
                        let (prio, s) = if rng.chance(0.25) {
                            let back = rng.below(now.as_ps() + 1);
                            (
                                SimTime::from_ps(now.as_ps() - back),
                                (rng.below(3) << 48) | seq,
                            )
                        } else {
                            (now, (1 << 48) | seq)
                        };
                        seq += 1;
                        w.push(time, prio, s, seq as u32);
                        oracle.push(Entry {
                            time,
                            prio,
                            seq: s,
                            ev: seq as u32,
                        });
                    }
                    4 => {
                        assert_eq!(w.peek_time(), oracle.peek().map(|e| e.time));
                    }
                    _ => {
                        let (got, want) = (w.pop(), oracle.pop());
                        assert_eq!(got.is_some(), want.is_some());
                        if let (Some(g), Some(o)) = (got, want) {
                            assert_eq!(
                                (g.time, g.prio, g.seq, g.ev),
                                (o.time, o.prio, o.seq, o.ev)
                            );
                            now = g.time;
                        }
                    }
                }
                assert_eq!(w.len(), oracle.len());
            }
            while let Some(o) = oracle.pop() {
                let g = w.pop().expect("wheel drained early");
                assert_eq!((g.time, g.seq, g.ev), (o.time, o.seq, o.ev));
            }
            assert!(w.pop().is_none());
            assert!(w.nodes.len() <= 4_000);
        }
    }

    /// The memory bound: the arena follows the peak backlog, not
    /// slots × the largest slot ever seen. A bursty schedule — a standing
    /// backlog of `B` events, each rescheduled one fabric hop ahead, all
    /// `B` inside a few hundred ns so that whole bursts cross level-0
    /// group boundaries together and fill one level-1 slot — is exactly
    /// what grew the per-slot-`Vec` wheel to 256 × the burst.
    #[test]
    fn memory_is_bounded_by_peak_backlog() {
        const B: usize = 6_000;
        const EVENTS: usize = 1_200_000;
        let hop = crate::time::TimeDelta::from_ps(1_500_000 + 121_440);
        let mut w = TimingWheel::new();
        let mut seq = 0u64;
        for i in 0..B {
            // 6 000 events spread over 300 ns.
            w.push(
                SimTime::from_ps(i as u64 * 50),
                SimTime::ZERO,
                seq,
                i as u32,
            );
            seq += 1;
        }
        let mut footprint = None;
        let mut last = SimTime::ZERO;
        for n in 0..EVENTS {
            let e = w.pop().unwrap();
            assert!(e.time >= last);
            last = e.time;
            w.push(e.time + hop, e.time, seq, e.ev);
            seq += 1;
            if n == EVENTS / 10 {
                // Warm-up over: every level-0 group boundary pattern seen.
                footprint = Some((w.nodes.capacity(), w.run.capacity(), w.overflow.capacity()));
            }
        }
        assert_eq!(w.len(), B);
        assert!(
            w.cascade_counts()[1] > 0,
            "bursts must cross group boundaries"
        );
        assert!(
            w.nodes.capacity() <= 2 * B,
            "arena {} nodes for a backlog of {B}",
            w.nodes.capacity()
        );
        assert!(w.run.capacity() <= 2 * B);
        assert_eq!(
            footprint,
            Some((w.nodes.capacity(), w.run.capacity(), w.overflow.capacity())),
            "allocation grew after warm-up"
        );
    }
}
