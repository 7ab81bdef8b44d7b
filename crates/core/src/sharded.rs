//! The packet engine behind `PacketBackend`: one [`Sim`] replica, or one
//! per fat-tree pod under conservative barrier synchronization.
//!
//! # One replica
//!
//! `threads == 0`, and every topology [`PartitionMap::for_topology`]
//! cannot split (its `fallback` names why), run as a single [`Sim`] that
//! owns every node: no shard context on the fabric, no lane, barrier
//! or worker thread — `run_until`/`run_to_completion` are the replica's
//! own, and [`ShardedSim::harvest`] moves its telemetry out untouched.
//! The partition map still supplies the event-ordering domains, which is
//! what makes this run byte-identical to the pod-sharded one.
//!
//! # How pod shards stay byte-identical to one replica
//!
//! With `threads ≥ 1` a fat-tree is partitioned into one shard per pod
//! (cores round-robined). Each shard is a complete [`Sim`] replica —
//! same fabric, same ids, one set of compiled forwarding tables between
//! them — that only schedules and processes events for entities it owns,
//! periodic ticks included (each sweeps its own switches); state of
//! non-owned entities goes stale but is never read. A frame crossing a
//! cut link is diverted to the engine's *outbox* carrying the exact
//! `(time, prio, seq)` key the sending engine would have used locally
//! (`prio` is the schedule time, `seq` is drawn from the sender's
//! shard-tagged sequence domain).
//! Those keys form a deterministic global total order, so it does not
//! matter *when* a frame is injected into the receiving wheel — only
//! that it arrives before the epoch in which it could fire.
//!
//! Conservative synchronization guarantees exactly that: the lookahead
//! `L` is the minimum propagation delay over cut links, so a frame
//! emitted during epoch `[t, t+L)` cannot fire before `t+L`. Workers run
//! every shard to `t+L − 1 ps`, flush outboxes into the lanes, meet at a
//! barrier, inject, and move on. The number of shards is fixed by the
//! topology — threads only decide which worker runs which shard — so
//! reports are byte-identical at every thread count by construction.
//!
//! # The exchange
//!
//! There is one lane per (epoch parity, source shard, destination shard).
//! Epoch `e` injects from the lanes of parity `e − 1` and flushes into
//! those of parity `e`, so one barrier wait per epoch is enough: a frame
//! flushed in epoch `e` is behind that epoch's barrier when its receiver
//! looks for it in epoch `e + 1`, and the receiver has emptied the lane —
//! before epoch `e + 1`'s barrier — when the sender next writes it in epoch
//! `e + 2`. A flush that overtakes a slow peer lands in the other parity,
//! which that peer does not read this epoch; every frame therefore enters
//! its receiver's queue at the start of the epoch after the one that
//! emitted it, whatever the thread count, and the queue high-water mark
//! and wheel cascade counts stay thread-independent. A flush sorts the
//! outbox by destination and hands each non-empty lane its frames in one
//! swap under one lock; an inject drains the lane where it lies. The
//! calling thread is the first worker, so a single worker spawns nothing
//! and its locks and barrier are never contended.
//!
//! The run loop mirrors [`Sim::run_to_completion`]'s 1 ms chunking and
//! its stop test (evaluated on aggregated per-shard counts), so event
//! totals and stop times match the one-replica run exactly.

use crate::sim::{Sim, SimBuilder};
use fncc_des::engine::Outbound;
use fncc_des::time::{SimTime, TimeDelta};
use fncc_net::fabric::Ev;
use fncc_net::ids::{HostId, NodeRef, SwitchId};
use fncc_net::partition::PartitionMap;
use fncc_net::pool::StackDepot;
use fncc_net::telemetry::Telemetry;
use fncc_net::topology::Topology;
use fncc_obs::{Profiler, TraceSink};
use fncc_transport::{DcHost, HostTimer};
use std::sync::{Arc, Barrier, Mutex, MutexGuard};
use std::thread::ThreadId;

/// A cross-shard frame in flight between epochs.
type Frame = Outbound<Ev<HostTimer>>;

/// Aggregate statistics of a sharded run.
#[derive(Clone, Copy, Debug, Default)]
pub struct ShardStats {
    /// Number of replicas executing (1 = `threads == 0` or fallback).
    pub shards: u16,
    /// Barrier epochs executed.
    pub epochs: u64,
    /// Frames exchanged across shard boundaries.
    pub cross_shard_frames: u64,
    /// Synchronization lookahead, ns.
    pub lookahead_ns: u64,
    /// Cross-shard frames injected below the receiving shard's clock
    /// (0 in a correct run; counted, not panicked, so the property tests
    /// can assert on it).
    pub causality_violations: u64,
    /// Fallback-reason code when the topology could not be partitioned
    /// (see `fncc_net::partition::FallbackReason::code`).
    pub fallback: Option<u32>,
}

/// The packet engine: one [`Sim`] replica, or one per shard plus the
/// epoch coordinator state. Build with [`ShardedSim::new`]; drive it like
/// a [`Sim`] (`run_until` / `run_to_completion`), then call
/// [`ShardedSim::harvest`] once to collect the telemetry.
pub struct ShardedSim {
    /// One replica, or one per shard of `map`.
    shards: Vec<Sim>,
    map: Arc<PartitionMap>,
    /// Worker threads used by the epoch loop (1 ≤ threads ≤ shard count).
    threads: usize,
    /// Worker index per shard (`shard % threads` unless a test overrode it).
    assign: Vec<usize>,
    /// Frames that crossed a boundary and have not yet been injected
    /// (persists across chunk calls).
    lanes: Lanes,
    epochs: u64,
    /// What the workers counted so far (`tally.injected` catches up with
    /// `tally.crossed` whenever the lanes are empty).
    tally: Tally,
    /// Receiver-side flow records pre-registered at build time (flows
    /// whose sender lives in another shard); subtracted from the summed
    /// started-count so the stop test sees distinct flows.
    cross_dst_records: usize,
    merged: Option<Telemetry>,
}

/// The frames between shards: one lane per (epoch parity, source shard,
/// destination shard), so a lane has one writer and one reader and they
/// never meet in one epoch (see the module docs). The lock makes the
/// hand-over safe; the epoch barrier is what orders it.
struct Lanes {
    n: usize,
    /// `[parity][src][dst]`, flattened.
    cells: Vec<Mutex<Vec<Frame>>>,
}

impl Lanes {
    fn new(n_shards: usize) -> Lanes {
        Lanes {
            n: n_shards,
            cells: (0..2 * n_shards * n_shards)
                .map(|_| Mutex::new(Vec::new()))
                .collect(),
        }
    }

    /// The lane `src → dst` of `epoch`'s parity.
    #[inline]
    fn lock(&self, epoch: u64, src: usize, dst: usize) -> MutexGuard<'_, Vec<Frame>> {
        self.cells[((epoch & 1) as usize * self.n + src) * self.n + dst]
            .lock()
            .expect("a shard worker panicked holding a lane")
    }
}

/// What one `run_epochs` call covers (the same for every worker).
#[derive(Clone, Copy)]
struct EpochSpan {
    /// Global index of the call's first epoch; lane parity follows it
    /// across calls, so frames flushed by one chunk's last pass are found
    /// by the next chunk's first.
    first_epoch: u64,
    t0: SimTime,
    horizon: SimTime,
    lookahead: TimeDelta,
}

/// Frame counts of a worker, summed over workers and calls.
#[derive(Clone, Copy, Debug, Default)]
struct Tally {
    /// Frames flushed from outboxes into lanes.
    crossed: u64,
    /// Frames drained from lanes into engines.
    injected: u64,
    /// Frames injected below the receiver's clock.
    violations: u64,
}

impl std::ops::AddAssign for Tally {
    fn add_assign(&mut self, o: Tally) {
        self.crossed += o.crossed;
        self.injected += o.injected;
        self.violations += o.violations;
    }
}

/// One worker's epochs over its `group` of `(shard id, replica)`. Each
/// epoch it (1) injects what the previous epoch left in its shards' lanes,
/// (2) runs them to one picosecond *before* the epoch end (a frame can
/// arrive exactly at the boundary, so the boundary instant belongs to the
/// next epoch), (3) flushes their outboxes into this epoch's lanes and
/// (4) meets the other workers. A final inclusive pass processes the
/// boundary instant `horizon` itself, mirroring the one replica's
/// `run_until(horizon)` semantics.
fn run_group(
    group: &mut [(usize, &mut Sim)],
    lanes: &Lanes,
    barrier: &Barrier,
    span: EpochSpan,
) -> Tally {
    let n = lanes.n;
    let mut tally = Tally::default();
    // The outbox sorted by destination, reused across epochs. A lane is
    // empty when its writer comes back to it, so flush swaps the two and
    // the capacity circulates.
    let mut by_dst: Vec<Vec<Frame>> = (0..n).map(|_| Vec::new()).collect();
    let mut epoch = span.first_epoch;
    let mut t = span.t0;
    loop {
        let inclusive = t >= span.horizon;
        let end = (t + span.lookahead).min(span.horizon);
        for (dst, sim) in group.iter_mut() {
            for src in 0..n {
                // Parity of the previous epoch.
                let mut lane = lanes.lock(epoch + 1, src, *dst);
                tally.injected += lane.len() as u64;
                for f in lane.drain(..) {
                    if f.time < sim.eng.now() {
                        tally.violations += 1;
                    }
                    sim.eng.inject(f.time, f.prio, f.seq, f.ev);
                }
            }
        }
        for (_, sim) in group.iter_mut() {
            sim.run_until(if inclusive {
                span.horizon
            } else {
                end - TimeDelta::from_ps(1)
            });
        }
        for (src, sim) in group.iter_mut() {
            let outbox = sim.eng.outbox_mut();
            if outbox.is_empty() {
                continue;
            }
            tally.crossed += outbox.len() as u64;
            for ob in outbox.drain(..) {
                by_dst[ob.dst as usize].push(ob);
            }
            for (dst, frames) in by_dst.iter_mut().enumerate() {
                if !frames.is_empty() {
                    let mut lane = lanes.lock(epoch, *src, dst);
                    debug_assert!(lane.is_empty(), "lane {src}->{dst} not drained");
                    std::mem::swap(&mut *lane, frames);
                }
            }
        }
        barrier.wait();
        if inclusive {
            return tally;
        }
        epoch += 1;
        t = end;
    }
}

impl ShardedSim {
    /// Build the engine for `builder`'s simulation. `threads == 0` is one
    /// replica; `threads ≥ 1` runs one shard per fat-tree pod on up to
    /// that many workers. Topologies without a pod structure are one
    /// replica at any thread count and [`ShardedSim::stats`] carries the
    /// fallback code.
    pub fn new(builder: SimBuilder, threads: usize) -> ShardedSim {
        let map = Arc::new(PartitionMap::for_topology(&builder.topo));
        ShardedSim::with_map(builder, map, threads)
    }

    /// Like [`ShardedSim::new`] but over an explicit partition (the
    /// property tests fuzz arbitrary owner maps through this).
    pub fn with_map(builder: SimBuilder, map: Arc<PartitionMap>, threads: usize) -> ShardedSim {
        let n = if threads == 0 || !map.is_sharded() {
            1
        } else {
            map.n_shards
        };
        // The only replica owns everything (`None`); otherwise replica `s`
        // is pod shard `s`. The last one takes the builder itself.
        let slot = |s: u16| (n > 1).then_some(s);
        let builder = if n > 1 {
            builder.compile_routes()
        } else {
            builder
        };
        let mut shards: Vec<Sim> = (0..n - 1)
            .map(|s| builder.clone().partition(map.clone(), slot(s)).build())
            .collect();
        shards.push(builder.partition(map.clone(), slot(n - 1)).build());
        // Shard 0 alone speaks for the run on the `--progress` line.
        for s in &mut shards[1..] {
            s.eng.mute_progress();
        }
        if n > 1 {
            let depot = StackDepot::default();
            for s in &mut shards {
                s.eng.model.pool.share_stacks(depot.clone());
            }
        }
        let n = shards.len();
        let threads = threads.clamp(1, n);
        let assign = (0..n).map(|s| s % threads).collect();
        // At build time the only registered flow records are the
        // receiver-side ones pre-registered for cross-shard flows (sender
        // records appear when FlowStart timers fire), so counting now
        // yields exactly the double-count correction the stop test needs.
        let cross_dst_records = shards.iter().map(|s| s.telemetry().flow_count()).sum();
        ShardedSim {
            shards,
            map,
            threads,
            assign,
            lanes: Lanes::new(n),
            epochs: 0,
            tally: Tally::default(),
            cross_dst_records,
            merged: None,
        }
    }

    /// The replica that owns `n` (the only one, in a one-replica run).
    fn owner(&self, n: NodeRef) -> &Sim {
        match &self.shards[..] {
            [one] => one,
            shards => &shards[self.map.owner_of(n) as usize],
        }
    }

    /// Override the shard→worker assignment (property tests shuffle this
    /// to show results do not depend on which thread runs which shard).
    /// `assign[s]` must be `< threads` for every shard `s`.
    pub fn set_worker_assignment(&mut self, assign: Vec<usize>) {
        assert_eq!(assign.len(), self.shards.len());
        assert!(assign.iter().all(|&w| w < self.threads));
        self.assign = assign;
    }

    /// Current simulation time (all shards park at the same instant).
    pub fn now(&self) -> SimTime {
        self.shards[0].now()
    }

    /// Aggregate events dispatched, with replica events (periodic ticks
    /// and fault boundaries mirrored on several shards) counted once —
    /// matches the one-replica total.
    pub fn events_processed(&self) -> u64 {
        let raw: u64 = self.shards.iter().map(|s| s.events_processed()).sum();
        let replicas: u64 = self
            .shards
            .iter()
            .map(|s| s.eng.model.shard.as_ref().map_or(0, |sc| sc.replica_events))
            .sum();
        raw - replicas
    }

    /// Maximum per-shard event-queue high-water mark.
    pub fn peak_queue_len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.peak_queue_len())
            .max()
            .unwrap_or(0)
    }

    /// Summed clamped-schedule count (see [`Sim::clamped_schedules`]).
    pub fn clamped_schedules(&self) -> u64 {
        self.shards.iter().map(|s| s.clamped_schedules()).sum()
    }

    /// Run statistics for report scalars.
    pub fn stats(&self) -> ShardStats {
        ShardStats {
            shards: self.shards.len() as u16,
            epochs: self.epochs,
            cross_shard_frames: self.tally.crossed,
            lookahead_ns: self.map.lookahead.as_ps() / 1_000,
            causality_violations: self.tally.violations,
            fallback: self.map.fallback.map(|f| f.code()),
        }
    }

    /// Summed packet-pool statistics `(fresh allocations, recycled)`.
    pub fn pool_stats(&self) -> (u64, u64) {
        self.shards
            .iter()
            .map(|s| (s.fabric().pool.fresh_allocs(), s.fabric().pool.recycled()))
            .fold((0, 0), |(a, b), (c, d)| (a + c, b + d))
    }

    /// Per-level timing-wheel cascade counts summed over shards (`None`
    /// when the heap scheduler is in use).
    pub fn wheel_cascades(&self) -> Option<Vec<u64>> {
        let mut out: Option<Vec<u64>> = None;
        for s in &self.shards {
            let c = s.wheel_cascades()?;
            let acc = out.get_or_insert_with(|| vec![0; c.len()]);
            if acc.len() < c.len() {
                acc.resize(c.len(), 0);
            }
            for (i, n) in c.iter().enumerate() {
                acc[i] += n;
            }
        }
        out
    }

    /// Fold every shard's engine and telemetry profiler into `prof`.
    pub fn absorb_profilers(&self, prof: &mut Profiler) {
        for s in &self.shards {
            prof.absorb(s.profiler());
            prof.absorb(&s.telemetry().profiler);
        }
    }

    /// A host's transport state (from its owning shard, where it ran).
    pub fn host(&self, h: HostId) -> &DcHost {
        self.owner(NodeRef::Host(h)).host(h)
    }

    /// PFC pause frames sent by one switch port (owner shard's view).
    pub fn pause_frames_at(&self, sw: SwitchId, port: u8) -> u64 {
        self.owner(NodeRef::Switch(sw))
            .fabric()
            .pause_frames_at(sw, port)
    }

    /// The fabric configuration (identical in every shard).
    pub fn cfg(&self) -> &fncc_net::config::FabricConfig {
        &self.shards[0].fabric().cfg
    }

    /// The topology (identical in every shard).
    pub fn topo(&self) -> &Topology {
        &self.shards[0].topo
    }

    /// Advance to `horizon`: the one replica directly, pod shards in
    /// barrier epochs of one lookahead each.
    pub fn run_until(&mut self, horizon: SimTime) {
        if let [one] = &mut self.shards[..] {
            one.run_until(horizon);
            return;
        }
        self.run_epochs(horizon);
    }

    /// Mirror of [`Sim::run_to_completion`]: run in `chunk` steps until
    /// every distinct flow that has started finished, or `cap` is
    /// reached. The stop test aggregates per-shard counts, discounting
    /// the receiver-side records pre-registered for cross-shard flows
    /// (none in a one-replica run), so it fires at exactly the chunk
    /// boundary at every thread count.
    pub fn run_to_completion(&mut self, chunk: TimeDelta, cap: SimTime) -> bool {
        let mut t = self.now();
        loop {
            let started: usize = self
                .shards
                .iter()
                .map(|s| s.telemetry().flow_count())
                .sum::<usize>()
                - self.cross_dst_records;
            let finished: usize = self
                .shards
                .iter()
                .map(|s| s.telemetry().flows_finished_count())
                .sum();
            if started > 0 && finished == started {
                return true;
            }
            if t >= cap {
                return finished == started;
            }
            t = (t + chunk).min(cap);
            self.run_until(t);
        }
    }

    /// The conservative epoch loop: between the current time and
    /// `horizon`, run all shards in lock-step windows of one lookahead
    /// ([`run_group`] is one worker's share). The first worker is the
    /// calling thread, so a single worker spawns none. Returns the thread
    /// each worker ran on, in worker order.
    fn run_epochs(&mut self, horizon: SimTime) -> Vec<ThreadId> {
        let span = EpochSpan {
            first_epoch: self.epochs,
            t0: self.now(),
            horizon,
            lookahead: self.map.lookahead,
        };
        debug_assert!(
            !span.lookahead.is_zero(),
            "sharded run without positive lookahead"
        );

        // Hand each worker its shards (disjoint &mut borrows).
        let mut groups: Vec<Vec<(usize, &mut Sim)>> =
            (0..self.threads).map(|_| Vec::new()).collect();
        for (ix, sim) in self.shards.iter_mut().enumerate() {
            groups[self.assign[ix]].push((ix, sim));
        }
        let (mine, others) = groups.split_first_mut().expect("at least one worker");

        let barrier = Barrier::new(self.threads);
        let (lanes, barrier) = (&self.lanes, &barrier);
        let work = move |group: &mut Vec<(usize, &mut Sim)>| {
            let tally = run_group(group, lanes, barrier, span);
            (std::thread::current().id(), tally)
        };
        let done = std::thread::scope(|scope| {
            let spawned: Vec<_> = others
                .iter_mut()
                .map(|g| scope.spawn(move || work(g)))
                .collect();
            let mut done = vec![work(mine)];
            done.extend(
                spawned
                    .into_iter()
                    .map(|w| w.join().expect("shard worker panicked")),
            );
            done
        });
        for (_, tally) in &done {
            self.tally += *tally;
        }

        // Epoch count: one per lookahead window plus the inclusive pass.
        let span_ps = horizon.since(span.t0).as_ps();
        self.epochs += span_ps.div_ceil(span.lookahead.as_ps()) + 1;
        done.into_iter().map(|(thread, _)| thread).collect()
    }

    /// Collect the run's telemetry into one network-wide view (call
    /// once, after the run). The one replica's is moved out as recorded.
    /// Per-shard telemetry merges: counters sum, histograms absorb
    /// exactly, watch lists concatenate in shard order, flow records merge
    /// per id with the receiver's finished record winning, and per-shard
    /// trace sinks interleave deterministically by `(timestamp, shard)`.
    pub fn harvest(&mut self) -> &Telemetry {
        self.merged.get_or_insert_with(|| {
            let trace = (self.shards.len() > 1).then(|| {
                let sinks: Vec<&TraceSink> =
                    self.shards.iter().map(|s| &s.telemetry().trace).collect();
                TraceSink::merged(&sinks)
            });
            let mut iter = self
                .shards
                .iter_mut()
                .map(|s| std::mem::take(&mut s.eng.model.telemetry));
            let mut merged = iter.next().expect("at least one replica");
            for t in iter {
                merged.merge_shard(t);
            }
            if let Some(trace) = trace {
                merged.trace = trace;
            }
            merged
        })
    }

    /// The merged telemetry (panics before [`ShardedSim::harvest`]).
    pub fn telemetry(&self) -> &Telemetry {
        self.merged
            .as_ref()
            .expect("ShardedSim::harvest must run before telemetry()")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fncc_cc::CcKind;
    use fncc_net::ids::FlowId;
    use fncc_net::units::Bandwidth;
    use fncc_transport::FlowSpec;
    use std::collections::HashSet;

    fn ft4() -> Topology {
        Topology::fat_tree(4, Bandwidth::gbps(100), TimeDelta::from_ns(1500))
    }

    /// Cross-pod incast (pods 1..4 → host 0) plus one intra-pod flow.
    fn flows() -> Vec<FlowSpec> {
        let mut out = Vec::new();
        for (i, src) in [4u32, 8, 12, 1].into_iter().enumerate() {
            out.push(FlowSpec {
                id: FlowId(i as u32),
                src: HostId(src),
                dst: HostId(0),
                size: 60_000,
                start: SimTime::from_us(i as u64),
            });
        }
        out
    }

    fn builder() -> SimBuilder {
        SimBuilder::new(ft4(), CcKind::Fncc).flows(flows())
    }

    #[test]
    fn sharded_run_matches_single_engine() {
        let mut legacy = builder().build();
        let done = legacy.run_to_completion(TimeDelta::from_ms(1), SimTime::from_ms(50));
        assert!(done);

        for threads in [1usize, 2, 4] {
            let mut sharded = ShardedSim::new(builder(), threads);
            assert_eq!(sharded.stats().shards, 4);
            let done = sharded.run_to_completion(TimeDelta::from_ms(1), SimTime::from_ms(50));
            assert!(done, "threads={threads}");
            assert_eq!(
                sharded.events_processed(),
                legacy.events_processed(),
                "event totals diverged at threads={threads}"
            );
            let stats = sharded.stats();
            assert_eq!(stats.causality_violations, 0);
            assert!(stats.cross_shard_frames > 0);
            sharded.harvest();
            let (lt, st) = (legacy.telemetry(), sharded.telemetry());
            assert_eq!(lt.counters.data_delivered, st.counters.data_delivered);
            assert_eq!(lt.counters.acks_delivered, st.counters.acks_delivered);
            assert_eq!(lt.counters.ecn_marks, st.counters.ecn_marks);
            for f in flows() {
                let a = lt.flow_record(f.id).unwrap();
                let b = st.flow_record(f.id).unwrap();
                assert_eq!(a.start, b.start, "flow {:?} start", f.id);
                assert_eq!(a.finish, b.finish, "flow {:?} finish", f.id);
            }
        }
    }

    /// Frames waiting in the lanes.
    fn in_lanes(sim: &mut ShardedSim) -> u64 {
        let cells = sim.lanes.cells.iter_mut();
        cells.map(|m| m.get_mut().unwrap().len() as u64).sum()
    }

    /// The exchange loses and invents nothing, whichever worker runs which
    /// shard: in 1 ms chunks the run ends with every lane drained; in 6 µs
    /// chunks — five epochs a call, so lane parity flips at every chunk
    /// boundary with frames in flight across it — it stops at the first
    /// boundary past the last finish, possibly with ACKs still in a lane.
    /// One worker does all of it on the calling thread.
    #[test]
    fn exchange_conserves_frames_across_chunks_and_assignments() {
        let mut seen = Vec::new();
        for (threads, assign) in [
            (1usize, vec![0usize, 0, 0, 0]),
            (2, vec![1, 0, 0, 1]),
            (4, vec![2, 0, 3, 1]),
        ] {
            for chunk in [TimeDelta::from_ms(1), TimeDelta::from_us(6)] {
                let mut sim = ShardedSim::new(builder(), threads);
                sim.set_worker_assignment(assign.clone());
                let label = format!("threads={threads}, chunk={chunk}");
                // `run_to_completion`, a chunk at a time.
                let finished = |sim: &ShardedSim| -> usize {
                    let per_shard = sim.shards.iter();
                    per_shard
                        .map(|s| s.telemetry().flows_finished_count())
                        .sum()
                };
                while finished(&sim) < flows().len() {
                    assert!(sim.now() < SimTime::from_ms(50), "flows never finished");
                    let horizon = sim.now() + chunk;
                    let workers = sim.run_epochs(horizon);
                    // The caller is worker 0 at any width, and the only one at 1.
                    assert_eq!(workers[0], std::thread::current().id(), "{label}");
                    let distinct: HashSet<_> = workers.iter().collect();
                    assert_eq!(distinct.len(), threads, "{label}");
                }
                let waiting = in_lanes(&mut sim);
                assert_eq!(sim.tally.crossed, sim.tally.injected + waiting, "{label}");
                if chunk == TimeDelta::from_ms(1) {
                    assert_eq!(waiting, 0, "{label}");
                    assert_eq!(
                        sim.stats().cross_shard_frames,
                        sim.tally.injected,
                        "{label}"
                    );
                }
                assert_eq!(sim.stats().causality_violations, 0, "{label}");
                seen.push((sim.tally.crossed, sim.events_processed()));
            }
        }
        // Per chunk size, every width simulated the same thing.
        assert!(seen[0].0 > 0 && seen[1].0 > 0);
        assert!(seen.chunks(2).all(|c| c == &seen[..2]), "{seen:?}");
    }

    /// `threads: 0` on a partitionable fat-tree is one replica that never
    /// touches the sharding machinery, yet keeps the pod ordering domains
    /// and owner lookups that index past shard 0 on the map.
    #[test]
    fn zero_threads_is_one_replica_without_shard_machinery() {
        let mut sim = ShardedSim::new(builder(), 0);
        assert_eq!(sim.shards.len(), 1);
        assert!(sim.shards[0].fabric().shard.is_none());
        assert!(sim.shards[0].fabric().domains.is_some());
        assert!(sim.run_to_completion(TimeDelta::from_ms(1), SimTime::from_ms(50)));
        let stats = sim.stats();
        assert_eq!(stats.shards, 1);
        assert_eq!(stats.epochs, 0);
        assert_eq!(stats.cross_shard_frames, 0);
        assert_eq!(stats.fallback, None);
        assert!(sim
            .lanes
            .cells
            .iter_mut()
            .all(|m| m.get_mut().unwrap().is_empty()));
        // Host 12 lives in pod 3 of the map; the one replica still owns it.
        assert!(sim.host(HostId(12)).lhcs_triggers(FlowId(2)).is_some());
        assert_eq!(sim.pause_frames_at(SwitchId(7), 0), 0);
        assert!(sim.harvest().all_flows_finished());
    }

    #[test]
    fn non_fat_tree_falls_back_to_single_shard() {
        let topo = Topology::dumbbell(2, 3, Bandwidth::gbps(100), TimeDelta::from_ns(1500));
        let builder = SimBuilder::new(topo, CcKind::Fncc).flows(vec![FlowSpec {
            id: FlowId(0),
            src: HostId(0),
            dst: HostId(2),
            size: 100_000,
            start: SimTime::ZERO,
        }]);
        let mut sharded = ShardedSim::new(builder, 4);
        assert!(sharded.shards[0].fabric().shard.is_none());
        let done = sharded.run_to_completion(TimeDelta::from_ms(1), SimTime::from_ms(20));
        assert!(done);
        let stats = sharded.stats();
        assert_eq!(stats.shards, 1);
        assert_eq!(stats.fallback, Some(1));
        assert_eq!(stats.epochs, 0);
        assert_eq!(stats.cross_shard_frames, 0);
    }
}
