//! The event loop: a time-ordered event queue of model events with
//! deterministic tie-breaking.
//!
//! The engine is generic over the [`Model`] so the hot dispatch path is fully
//! monomorphised — no boxing, no dynamic dispatch. Models schedule follow-up
//! events through the [`Scheduler`] handle passed to every callback, which
//! owns the queue and files each one on the spot.
//!
//! Two event-queue implementations share identical `(time, prio, seq)`
//! dispatch semantics (see [`QueueKind`]): the hierarchical timing wheel
//! every [`Engine::new`] runs on (O(1) amortized push/pop — see the
//! crate-private `wheel` module) and the classic `BinaryHeap`, kept as the
//! reference oracle for equivalence tests and benchmarks, which ask for it
//! through [`Engine::with_queue`].

use crate::time::{SimTime, TimeDelta};
use crate::wheel::{Entry, TimingWheel};
use fncc_obs::{PhaseId, Profiler};
use std::collections::BinaryHeap;
use std::time::Instant;

/// A simulation model: owns all mutable world state and reacts to events.
pub trait Model {
    /// The event alphabet of this model.
    type Event;

    /// Handle one event at simulation time `now`, scheduling any follow-ups
    /// on `sched`.
    fn handle(&mut self, now: SimTime, ev: Self::Event, sched: &mut Scheduler<Self::Event>);
}

/// Handle through which a model schedules future events during a callback.
///
/// It owns the event queue, the sequence counter and the cross-shard
/// outbox, so a schedule is written once, straight into its queue node.
/// Filing mid-handler cannot reorder anything: nothing pops until the
/// handler returns, and the queue orders by `(time, prio, seq)` alone.
pub struct Scheduler<E> {
    /// The clock: the time of the event being handled (or, between
    /// [`Engine::run_until`] calls, the horizon the engine parked at).
    now: SimTime,
    queue: EventQueue<E>,
    /// Schedules filed so far, local and remote: the low bits of the next
    /// sequence number.
    seq: u64,
    /// Events scheduled via [`Scheduler::remote`], awaiting epoch exchange.
    outbox: Vec<Outbound<E>>,
    /// Ordering domain stamped onto every schedule until changed (see
    /// [`Scheduler::set_domain`]). 0 unless a model opts into domain
    /// tagging.
    domain: u16,
    clamped: u64,
}

impl<E> Scheduler<E> {
    /// Current simulation time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Set the ordering domain stamped onto subsequently scheduled events.
    ///
    /// Same-`(time, prio)` ties dispatch in `(domain, schedule order)`
    /// order: the domain occupies the sequence number's high bits (see
    /// [`SEQ_SHARD_SHIFT`]), so events from a lower domain win ties
    /// regardless of which engine scheduled them or when. A model that tags
    /// every schedule with a domain that is (a) a pure function of the
    /// event being handled and (b) aligned with the shard partition makes
    /// its tie-breaking identical between the single-engine and sharded
    /// executions — the per-domain schedule subsequence is the same in
    /// both, even though the global interleaving is not. Models that never
    /// call this keep every event in domain 0, i.e. plain schedule order.
    #[inline]
    pub fn set_domain(&mut self, d: u16) {
        self.domain = d;
    }

    /// The ordering domain currently stamped onto schedules.
    #[inline]
    pub fn domain(&self) -> u16 {
        self.domain
    }

    /// The one place a schedule gets its sequence number.
    #[inline(always)]
    fn next_seq(&mut self) -> u64 {
        let seq = ((self.domain as u64) << SEQ_SHARD_SHIFT) | self.seq;
        self.seq += 1;
        seq
    }

    /// File `ev` into the local queue at `time`.
    #[inline(always)]
    fn file(&mut self, time: SimTime, ev: E) {
        let seq = self.next_seq();
        self.queue.push(time, self.now, seq, ev);
    }

    /// Schedule `ev` at absolute time `t`. Scheduling in the past is a logic
    /// error: it panics in debug builds; in release it is clamped to `now`
    /// and counted (see [`Engine::clamped_schedules`]), so silent model bugs
    /// stay visible in run reports.
    #[inline]
    pub fn at(&mut self, t: SimTime, ev: E) {
        debug_assert!(
            t >= self.now,
            "scheduling into the past: {t} < {}",
            self.now
        );
        if t < self.now {
            self.clamped += 1;
        }
        self.file(t.max(self.now), ev);
    }

    /// Schedule `ev` after a delay of `d` from now.
    #[inline]
    pub fn after(&mut self, d: TimeDelta, ev: E) {
        self.file(self.now + d, ev);
    }

    /// Schedule `ev` immediately (same timestamp, FIFO after the current
    /// event's earlier insertions).
    #[inline]
    pub fn immediate(&mut self, ev: E) {
        self.file(self.now, ev);
    }

    /// Schedule `ev` after `d` *in another shard's engine*. The event is
    /// routed to the engine's [outbox](Engine::outbox_mut) instead of the
    /// local queue, consuming a sequence number exactly as a local schedule
    /// would — so the `(prio, seq)` it carries is the position the sending
    /// shard's domain order assigns it. Only the sharded fabric calls this.
    #[inline]
    pub fn remote(&mut self, d: TimeDelta, dst: u16, ev: E) {
        let seq = self.next_seq();
        self.outbox.push(Outbound {
            dst,
            time: self.now + d,
            prio: self.now,
            seq,
            ev,
        });
    }
}

/// Which event-queue implementation an [`Engine`] dispatches from. Both are
/// exactly `(time, prio, seq)`-ordered, so runs are bit-identical across
/// kinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum QueueKind {
    /// Hierarchical timing wheel (default; O(1) amortized).
    #[default]
    Wheel,
    /// Binary heap (reference oracle; O(log n)).
    Heap,
}

enum EventQueue<E> {
    Wheel(TimingWheel<E>),
    Heap(BinaryHeap<Entry<E>>),
}

impl<E> EventQueue<E> {
    fn new(kind: QueueKind) -> Self {
        match kind {
            QueueKind::Wheel => EventQueue::Wheel(TimingWheel::new()),
            QueueKind::Heap => EventQueue::Heap(BinaryHeap::with_capacity(1024)),
        }
    }

    /// The wheel files inline; the heap (the tests' oracle) pushes out of
    /// line, for the reason [`Engine::step`] pops it out of line.
    #[inline(always)]
    fn push(&mut self, time: SimTime, prio: SimTime, seq: u64, ev: E) {
        match self {
            EventQueue::Wheel(w) => w.push(time, prio, seq, ev),
            EventQueue::Heap(h) => heap_push(
                h,
                Entry {
                    time,
                    prio,
                    seq,
                    ev,
                },
            ),
        }
    }

    /// Time of the earliest queued event (the wheel advances its cursor).
    #[inline]
    fn peek_time(&mut self) -> Option<SimTime> {
        match self {
            EventQueue::Wheel(w) => w.peek_time(),
            EventQueue::Heap(h) => h.peek().map(|e| e.time),
        }
    }

    #[inline]
    fn len(&self) -> usize {
        match self {
            EventQueue::Wheel(w) => w.len(),
            EventQueue::Heap(h) => h.len(),
        }
    }

    /// Per-level cascade counts (wheel only).
    fn cascade_counts(&self) -> Option<&[u64]> {
        match self {
            EventQueue::Wheel(w) => Some(w.cascade_counts()),
            EventQueue::Heap(_) => None,
        }
    }
}

#[cold]
#[inline(never)]
fn heap_push<E>(h: &mut BinaryHeap<Entry<E>>, e: Entry<E>) {
    h.push(e);
}

/// Why a [`Engine::run_until`] call returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The horizon was reached with events still pending.
    HorizonReached,
    /// The event queue drained before the horizon.
    Idle,
}

/// Heartbeat state for the `--progress`/`FNCC_PROGRESS` stderr line.
struct Progress {
    started: Instant,
    last_print: Instant,
    /// True once a heartbeat line was written (so the run can close it).
    printed: bool,
}

/// How often (in events) the progress-enabled loop checks the wall clock.
const PROGRESS_EVERY: u64 = 1 << 18;

/// Domain width inside a sequence number: every assigned sequence is
/// `(domain << SEQ_SHARD_SHIFT) | counter`, so same-`(time, prio)` ties
/// dispatch domain-major and only fall back to the engine-local schedule
/// counter within a domain (2^48 schedules per engine before the counter
/// could bleed into the domain bits — far beyond any run). See
/// [`Scheduler::set_domain`] for why this makes sharded and single-engine
/// executions tie-break identically.
pub const SEQ_SHARD_SHIFT: u32 = 48;

/// An event bound for another shard, drained from a sharded engine's
/// outbox at epoch boundaries and [injected](Engine::inject) into the
/// destination engine with its source-shard `(prio, seq)` intact.
pub struct Outbound<E> {
    /// Destination shard id.
    pub dst: u16,
    /// Absolute time the event fires at.
    pub time: SimTime,
    /// Simulation time it was scheduled at in the source shard.
    pub prio: SimTime,
    /// The source engine's sequence number it consumed.
    pub seq: u64,
    /// The event payload.
    pub ev: E,
}

/// The discrete-event engine driving a [`Model`].
pub struct Engine<M: Model> {
    /// Clock, queue, sequence counter and outbox (see [`Scheduler`]).
    sched: Scheduler<M::Event>,
    events_processed: u64,
    peak_queue_len: usize,
    /// Self-profiling spans over the hot loop: scheduler pop, then dispatch
    /// (the model's handler, which files its schedules as it makes them) —
    /// together the whole of [`Engine::step`]. Off unless `FNCC_PROFILE`
    /// is set; see [`fncc_obs::Profiler`].
    profiler: Profiler,
    ph_pop: PhaseId,
    ph_dispatch: PhaseId,
    /// Heartbeat line for long runs; `Some` iff `FNCC_PROGRESS` was set at
    /// construction and [`Engine::mute_progress`] has not been called.
    progress: Option<Progress>,
    /// The model being simulated; public so callers can inspect/mutate state
    /// between phases (e.g. inject flows, read metrics).
    pub model: M,
}

impl<M: Model> Engine<M> {
    /// Create an engine at t = 0 around `model` on the timing wheel.
    pub fn new(model: M) -> Self {
        Self::with_queue(model, QueueKind::Wheel)
    }

    /// Create an engine with an explicit event-queue implementation.
    pub fn with_queue(model: M, kind: QueueKind) -> Self {
        let mut profiler = Profiler::from_env();
        let ph_pop = profiler.phase("sched_pop");
        let ph_dispatch = profiler.phase("dispatch");
        let progress = match std::env::var("FNCC_PROGRESS") {
            Ok(v) if !v.is_empty() && v != "0" => Some(Progress {
                started: Instant::now(),
                last_print: Instant::now(),
                printed: false,
            }),
            _ => None,
        };
        Engine {
            sched: Scheduler {
                now: SimTime::ZERO,
                queue: EventQueue::new(kind),
                seq: 0,
                outbox: Vec::new(),
                domain: 0,
                clamped: 0,
            },
            events_processed: 0,
            peak_queue_len: 0,
            profiler,
            ph_pop,
            ph_dispatch,
            progress,
            model,
        }
    }

    /// Set the ordering domain stamped onto events scheduled from outside a
    /// model callback (see [`Scheduler::set_domain`]; [`Engine::schedule`]
    /// uses it). Models change the in-callback domain through the
    /// [`Scheduler`] handle they are passed.
    pub fn set_domain(&mut self, d: u16) {
        self.sched.domain = d;
    }

    /// Switch the `FNCC_PROGRESS` heartbeat off for this engine. A sharded
    /// run keeps it on one replica only, so its lines do not interleave.
    pub fn mute_progress(&mut self) {
        self.progress = None;
    }

    /// The outbox of cross-shard events emitted since it was last drained.
    /// The sharded coordinator empties it at every epoch barrier.
    pub fn outbox_mut(&mut self) -> &mut Vec<Outbound<M::Event>> {
        &mut self.sched.outbox
    }

    /// Inject a cross-shard event with the `(prio, seq)` its source shard
    /// assigned, placing it exactly where the global single-engine order
    /// would have. `time` must not lie in this engine's past.
    pub fn inject(&mut self, time: SimTime, prio: SimTime, seq: u64, ev: M::Event) {
        debug_assert!(
            time >= self.sched.now,
            "cross-shard event in the past: {time} < {}",
            self.sched.now
        );
        self.sched.queue.push(time, prio, seq, ev);
        self.peak_queue_len = self.peak_queue_len.max(self.sched.queue.len());
    }

    /// Current simulation time (time of the most recently dispatched event).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.sched.now
    }

    /// Total events dispatched so far.
    #[inline]
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Number of events waiting in the queue.
    #[cfg(test)]
    fn queue_len(&self) -> usize {
        self.sched.queue.len()
    }

    /// High-water mark of the event queue length.
    #[inline]
    pub fn peak_queue_len(&self) -> usize {
        self.peak_queue_len
    }

    /// Times a schedule into the past was clamped to `now` (0 in a healthy
    /// model; a nonzero count flags a latent timing bug).
    #[inline]
    pub fn clamped_schedules(&self) -> u64 {
        self.sched.clamped
    }

    /// Schedule an event from outside a model callback (setup phase): a
    /// [`Scheduler::at`], past-time rule included.
    pub fn schedule(&mut self, t: SimTime, ev: M::Event) {
        self.sched.at(t, ev);
        self.peak_queue_len = self.peak_queue_len.max(self.sched.queue.len());
    }

    /// Dispatch the single earliest event. Returns `false` if the queue is
    /// empty. Time advances to the event's timestamp.
    pub fn step(&mut self) -> bool {
        let t0 = self.profiler.begin();
        // Only the wheel pops inline; the heap (the tests' oracle) steps
        // out of line. Were both arms to feed one `Option<Entry>`, the
        // heap's return slot would pin the popped event in memory: the
        // wheel arm then copies the payload there in a 16 + 4 byte pair
        // that the field loads right after it straddle, a store-forwarding
        // stall on every event (6-8 % of a packet run).
        let popped = match &mut self.sched.queue {
            EventQueue::Wheel(w) => w.pop(),
            EventQueue::Heap(_) => return self.step_heap(t0),
        };
        let Some(entry) = popped else {
            return false;
        };
        self.dispatch(entry, t0);
        true
    }

    /// [`Engine::step`] on the binary heap.
    #[cold]
    #[inline(never)]
    fn step_heap(&mut self, t0: Option<Instant>) -> bool {
        let EventQueue::Heap(h) = &mut self.sched.queue else {
            unreachable!("step_heap on a wheel engine");
        };
        let Some(entry) = h.pop() else {
            return false;
        };
        self.dispatch(entry, t0);
        true
    }

    /// Everything of a step after the pop: advance the clock and run the
    /// model's handler, which files what it schedules.
    #[inline(always)]
    fn dispatch(&mut self, entry: Entry<M::Event>, t0: Option<Instant>) {
        self.profiler.end(self.ph_pop, t0);
        debug_assert!(entry.time >= self.sched.now, "event queue went backwards");
        self.sched.now = entry.time;
        let t1 = self.profiler.begin();
        self.model.handle(entry.time, entry.ev, &mut self.sched);
        self.profiler.end(self.ph_dispatch, t1);
        self.events_processed += 1;
        self.peak_queue_len = self.peak_queue_len.max(self.sched.queue.len());
    }

    /// Run until simulation time strictly exceeds `horizon` or the queue
    /// drains. Events *at* the horizon are processed.
    pub fn run_until(&mut self, horizon: SimTime) -> RunOutcome {
        let outcome = loop {
            match self.sched.queue.peek_time() {
                None => break RunOutcome::Idle,
                Some(t) if t > horizon => {
                    // Leave future events queued; clock parks at the horizon.
                    self.sched.now = self.sched.now.max(horizon);
                    break RunOutcome::HorizonReached;
                }
                Some(_) => {}
            }
            self.step();
            if self.progress.is_some() && self.events_processed.is_multiple_of(PROGRESS_EVERY) {
                self.heartbeat();
            }
        };
        if let Some(p) = &mut self.progress {
            if p.printed {
                // Move off the carriage-returned heartbeat line.
                eprintln!();
                p.printed = false;
            }
        }
        outcome
    }

    /// Run until the queue drains.
    pub fn run_until_idle(&mut self) -> RunOutcome {
        self.run_until(SimTime::MAX)
    }

    /// Emit the `FNCC_PROGRESS` heartbeat (at most once per second): events
    /// processed, wall event rate and simulated time. No ETA: the horizon a
    /// `run_until` call sees is the caller's next chunk, epoch or sync, never
    /// the run's stop condition.
    fn heartbeat(&mut self) {
        let Some(p) = &mut self.progress else {
            return;
        };
        if p.last_print.elapsed().as_secs_f64() < 1.0 {
            return;
        }
        p.last_print = Instant::now();
        p.printed = true;
        let wall = p.started.elapsed().as_secs_f64();
        let rate = self.events_processed as f64 / wall.max(1e-9);
        let sim_us = self.sched.now.as_ps() as f64 / 1e6;
        eprint!(
            "\r[fncc] {:>12} events  {:>10.0} ev/s  sim {:>10.1} us",
            self.events_processed, rate, sim_us
        );
    }

    /// The hot-loop profiler (spans are all-zero unless `FNCC_PROFILE` was
    /// set when the engine was built).
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// Per-level cascade counts of the timing wheel (`None` on the heap
    /// oracle): index = source level, value = slots broken into finer ones.
    pub fn wheel_cascades(&self) -> Option<&[u64]> {
        self.sched.queue.cascade_counts()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A model that records the order events were observed in.
    struct Recorder {
        seen: Vec<(SimTime, u32)>,
        /// (delay, tag) pairs to schedule on seeing event 0.
        chain: Vec<(TimeDelta, u32)>,
    }

    impl Model for Recorder {
        type Event = u32;
        fn handle(&mut self, now: SimTime, ev: u32, sched: &mut Scheduler<u32>) {
            self.seen.push((now, ev));
            if ev == 0 {
                for &(d, tag) in &self.chain {
                    sched.after(d, tag);
                }
            }
        }
    }

    fn recorder() -> Recorder {
        Recorder {
            seen: Vec::new(),
            chain: Vec::new(),
        }
    }

    #[test]
    fn events_dispatch_in_time_order() {
        let mut eng = Engine::new(recorder());
        eng.schedule(SimTime::from_us(5), 5);
        eng.schedule(SimTime::from_us(1), 1);
        eng.schedule(SimTime::from_us(3), 3);
        assert_eq!(eng.run_until_idle(), RunOutcome::Idle);
        let tags: Vec<u32> = eng.model.seen.iter().map(|&(_, e)| e).collect();
        assert_eq!(tags, vec![1, 3, 5]);
        assert_eq!(eng.now(), SimTime::from_us(5));
        assert_eq!(eng.events_processed(), 3);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut eng = Engine::new(recorder());
        let t = SimTime::from_us(7);
        for tag in 0..50u32 {
            eng.schedule(t, tag + 10);
        }
        eng.run_until_idle();
        let tags: Vec<u32> = eng.model.seen.iter().map(|&(_, e)| e).collect();
        assert_eq!(tags, (10..60).collect::<Vec<_>>());
    }

    #[test]
    fn callbacks_can_schedule_followups() {
        let mut eng = Engine::new(recorder());
        eng.model.chain = vec![(TimeDelta::from_us(2), 20), (TimeDelta::from_us(1), 10)];
        eng.schedule(SimTime::from_us(1), 0);
        eng.run_until_idle();
        assert_eq!(
            eng.model.seen,
            vec![
                (SimTime::from_us(1), 0),
                (SimTime::from_us(2), 10),
                (SimTime::from_us(3), 20),
            ]
        );
    }

    #[test]
    fn immediate_events_run_at_same_time_after_current() {
        struct Imm {
            seen: Vec<u32>,
        }
        impl Model for Imm {
            type Event = u32;
            fn handle(&mut self, _now: SimTime, ev: u32, sched: &mut Scheduler<u32>) {
                self.seen.push(ev);
                if ev == 0 {
                    sched.immediate(1);
                    sched.immediate(2);
                }
            }
        }
        let mut eng = Engine::new(Imm { seen: vec![] });
        eng.schedule(SimTime::from_us(4), 0);
        eng.schedule(SimTime::from_us(4), 9); // inserted before the immediates
        eng.run_until_idle();
        assert_eq!(eng.model.seen, vec![0, 9, 1, 2]);
        assert_eq!(eng.now(), SimTime::from_us(4));
    }

    #[test]
    fn run_until_parks_at_horizon() {
        let mut eng = Engine::new(recorder());
        eng.schedule(SimTime::from_us(1), 1);
        eng.schedule(SimTime::from_us(10), 2);
        assert_eq!(
            eng.run_until(SimTime::from_us(5)),
            RunOutcome::HorizonReached
        );
        assert_eq!(eng.model.seen.len(), 1);
        assert_eq!(eng.now(), SimTime::from_us(5));
        assert_eq!(eng.queue_len(), 1);
        // Resuming picks the remaining event up.
        assert_eq!(eng.run_until(SimTime::from_us(10)), RunOutcome::Idle);
        assert_eq!(eng.model.seen.len(), 2);
    }

    #[test]
    fn horizon_is_inclusive() {
        let mut eng = Engine::new(recorder());
        eng.schedule(SimTime::from_us(5), 1);
        assert_eq!(eng.run_until(SimTime::from_us(5)), RunOutcome::Idle);
        assert_eq!(eng.model.seen.len(), 1);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic]
    fn scheduling_into_the_past_panics() {
        let mut eng = Engine::new(recorder());
        eng.schedule(SimTime::from_us(5), 1);
        eng.run_until_idle();
        eng.schedule(SimTime::from_us(1), 2);
    }

    #[test]
    fn empty_engine_is_idle() {
        let mut eng = Engine::new(recorder());
        assert_eq!(eng.run_until_idle(), RunOutcome::Idle);
        assert!(!eng.step());
        assert_eq!(eng.now(), SimTime::ZERO);
    }

    /// Every ordering test above, replayed against the heap oracle: the two
    /// queue kinds must dispatch identically. `Engine::new` takes no queue
    /// kind from anywhere: it is the wheel.
    #[test]
    fn heap_oracle_matches_wheel_on_mixed_schedule() {
        assert!(Engine::new(recorder()).wheel_cascades().is_some());
        let oracle = Engine::with_queue(recorder(), QueueKind::Heap);
        assert!(oracle.wheel_cascades().is_none());
        let run = |kind: QueueKind| {
            let mut eng = Engine::with_queue(recorder(), kind);
            eng.model.chain = vec![
                (TimeDelta::from_ns(3), 100),
                (TimeDelta::from_us(40), 101),
                (TimeDelta::from_ms(70), 102), // level ≥ 2 territory
            ];
            for i in 0..200u32 {
                eng.schedule(SimTime::from_ns((i as u64 * 977) % 5_000), i + 1);
            }
            eng.schedule(SimTime::from_ns(10), 0); // triggers the chain
            eng.schedule(SimTime::from_secs(600), 999); // overflow territory
            eng.run_until_idle();
            eng.model.seen
        };
        assert_eq!(run(QueueKind::Wheel), run(QueueKind::Heap));
    }

    /// Cross-shard injection and horizon-parked schedules after the peek in
    /// `run_until` moved the wheel's cursor on to the next local event:
    /// behind the cursor, tied with it under foreign `(prio, seq)` pairs
    /// that sort before and after the local ones, and ahead of it.
    #[test]
    fn inject_around_a_peeked_cursor_matches_the_heap() {
        let run = |kind: QueueKind| {
            let mut eng = Engine::with_queue(recorder(), kind);
            eng.set_domain(1);
            eng.schedule(SimTime::from_us(1), 1);
            eng.schedule(SimTime::from_us(40), 2);
            eng.schedule(SimTime::from_us(40), 3);
            assert_eq!(
                eng.run_until(SimTime::from_us(10)),
                RunOutcome::HorizonReached
            );
            let foreign = |domain: u64, n: u64| (domain << SEQ_SHARD_SHIFT) | n;
            eng.inject(SimTime::from_us(12), SimTime::from_us(9), foreign(2, 0), 10);
            eng.inject(SimTime::from_us(40), SimTime::ZERO, foreign(0, 7), 11);
            eng.inject(SimTime::from_us(40), SimTime::ZERO, foreign(2, 1), 12);
            eng.inject(SimTime::from_us(40), SimTime::from_us(9), foreign(0, 8), 13);
            eng.inject(SimTime::from_us(41), SimTime::from_us(9), foreign(0, 9), 14);
            eng.schedule(SimTime::from_us(11), 15);
            eng.run_until_idle();
            eng.model.seen.iter().map(|&(_, e)| e).collect::<Vec<u32>>()
        };
        let want = vec![1, 15, 10, 11, 2, 3, 12, 13, 14];
        assert_eq!(run(QueueKind::Wheel), want);
        assert_eq!(run(QueueKind::Heap), want);
    }

    /// Schedules are filed while the handler runs, not after it: whatever a
    /// handler files — into the slot being drained, `immediate`, tied at one
    /// `(time, prio)` from two domains, to another shard, behind a cursor
    /// that a horizon peek parked ahead of the clock — dispatches in the
    /// heap's order.
    #[test]
    fn mid_handler_schedules_match_the_heap() {
        struct Script {
            seen: Vec<u32>,
        }
        impl Model for Script {
            type Event = u32;
            fn handle(&mut self, _now: SimTime, ev: u32, s: &mut Scheduler<u32>) {
                self.seen.push(ev);
                match ev {
                    1 => {
                        // The slot being drained: ahead of event 2, tied
                        // with it (a later prio loses), and at `now`.
                        s.after(TimeDelta::from_ps(300), 10);
                        s.immediate(11);
                        s.after(TimeDelta::from_ps(500), 12);
                        // One (time, prio), two domains: the lower domain
                        // first, whichever was scheduled first.
                        s.set_domain(2);
                        s.after(TimeDelta::from_ns(50), 13);
                        s.set_domain(1);
                        s.after(TimeDelta::from_ns(50), 14);
                        s.remote(TimeDelta::from_ns(50), 3, 15);
                        s.after(TimeDelta::from_ns(50), 16);
                    }
                    20 => {
                        s.after(TimeDelta::from_us(1), 21);
                        s.at(SimTime::from_us(40), 22);
                    }
                    _ => {}
                }
            }
        }
        let run = |kind: QueueKind| {
            let mut eng = Engine::with_queue(Script { seen: vec![] }, kind);
            // Aligned to a level-0 slot of any width up to 2^20 ps.
            let t0 = SimTime::from_ps(1 << 20);
            eng.set_domain(1);
            eng.schedule(t0, 1);
            eng.schedule(t0 + TimeDelta::from_ps(500), 2);
            eng.schedule(t0 + TimeDelta::from_ns(50), 3);
            eng.schedule(SimTime::from_us(40), 30);
            assert_eq!(
                eng.run_until(SimTime::from_us(10)),
                RunOutcome::HorizonReached
            );
            // The peek left the cursor at 40 µs; event 20 and its follow-up
            // at 12 µs both land behind it.
            eng.schedule(SimTime::from_us(11), 20);
            assert_eq!(eng.run_until_idle(), RunOutcome::Idle);
            assert_eq!(eng.queue_len(), 0);
            let outbox: Vec<_> = eng
                .outbox_mut()
                .drain(..)
                .map(|o| (o.dst, o.time, o.prio, o.seq, o.ev))
                .collect();
            // The remote schedule took sequence number 9 of domain 1 —
            // between 14's and 16's — and never entered the local queue.
            let t = t0 + TimeDelta::from_ns(50);
            assert_eq!(outbox, vec![(3, t, t0, (1 << SEQ_SHARD_SHIFT) | 9, 15)]);
            eng.model.seen
        };
        let seen = run(QueueKind::Wheel);
        assert_eq!(seen, vec![1, 11, 10, 2, 12, 3, 14, 16, 13, 20, 21, 30, 22]);
        assert_eq!(seen, run(QueueKind::Heap));
    }

    #[test]
    fn peak_queue_len_tracks_high_water_mark() {
        let mut eng = Engine::new(recorder());
        for i in 0..7u32 {
            eng.schedule(SimTime::from_us(i as u64 + 1), i);
        }
        assert_eq!(eng.peak_queue_len(), 7);
        eng.run_until_idle();
        assert_eq!(eng.peak_queue_len(), 7);
        assert_eq!(eng.queue_len(), 0);
    }

    #[test]
    fn release_mode_clamps_and_counts_past_schedules() {
        // The debug panic is pinned by `scheduling_into_the_past_panics`;
        // here exercise the counter via the release-path semantics directly.
        struct PastSched {
            tried: bool,
        }
        impl Model for PastSched {
            type Event = u32;
            fn handle(&mut self, _now: SimTime, ev: u32, sched: &mut Scheduler<u32>) {
                if !self.tried && ev == 0 {
                    self.tried = true;
                    // `at` with t == now is legal and must not count.
                    sched.at(sched.now(), 1);
                }
            }
        }
        let mut eng = Engine::new(PastSched { tried: false });
        eng.schedule(SimTime::from_us(1), 0);
        eng.run_until_idle();
        assert_eq!(eng.clamped_schedules(), 0);
        assert!(eng.model.tried);
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn clamped_schedules_counted_in_release() {
        let mut eng = Engine::new(recorder());
        eng.schedule(SimTime::from_us(5), 1);
        eng.run_until_idle();
        eng.schedule(SimTime::from_us(1), 2); // clamped to now = 5 µs
        assert_eq!(eng.clamped_schedules(), 1);
        eng.run_until_idle();
        assert_eq!(eng.model.seen.last(), Some(&(SimTime::from_us(5), 2)));
    }
}
