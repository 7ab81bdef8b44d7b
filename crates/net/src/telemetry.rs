//! Run-wide measurement state: the hot [`Counters`] block, the run's
//! [`Recorder`] (trace ring, profiler), flow completion
//! records, and the sampling watch list feeding the paper's time-series
//! plots.
//!
//! The flow records are registered once, before the run, one per flow this
//! telemetry's engine carries, and kept in ascending flow id; a finish fills
//! its record in, so "every carried flow finished" is one comparison of two
//! counts.
//!
//! Every sampled quantity is one [`Probe`] variant, and the variant fixes
//! the unit its series is recorded in: queue depth in KB, link
//! utilization as a fraction of line rate, flow and CC rates in Gb/s. A
//! watch pairs a probe with a series name; one [`Telemetry::sample`] loop
//! records every watch on each sampling tick, and [`Telemetry::series`]
//! finds a series by that name. In a sharded run each shard watches only
//! what it owns — queue and utilization probes live with their switch,
//! flow-rate and CC-rate probes with the flow's sender — so after
//! [`Telemetry::merge_shard`] every name still names one series.

use crate::fabric::HostLogic;
use crate::ids::{FlowId, HostId, SwitchId};
use crate::packet::MAX_HOPS;
use crate::port::Port;
use fncc_des::stats::{RateMeter, TimeSeries};
use fncc_des::time::{SimTime, TimeDelta};
use fncc_obs::{PhaseId, Recorder};
use std::collections::BTreeSet;
use std::time::Instant;

/// Lifetime record of one flow.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlowRecord {
    /// Flow id.
    pub flow: FlowId,
    /// Sender.
    pub src: HostId,
    /// Receiver.
    pub dst: HostId,
    /// Application bytes.
    pub size: u64,
    /// Start time (first eligible to send).
    pub start: SimTime,
    /// Completion time: last payload byte delivered at the receiver.
    pub finish: Option<SimTime>,
}

impl FlowRecord {
    /// Flow completion time, if finished.
    pub fn fct(&self) -> Option<TimeDelta> {
        self.finish.map(|f| f.since(self.start))
    }
}

/// Global event counters and per-hop/pause aggregates: plain numbers, no
/// allocation, summed exactly by [`Counters::absorb`].
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    /// Data frames delivered to receivers.
    pub data_delivered: u64,
    /// ACK frames delivered to senders.
    pub acks_delivered: u64,
    /// CNPs delivered to senders.
    pub cnps_delivered: u64,
    /// Frames ECN-marked by switches.
    pub ecn_marks: u64,
    /// Frames dropped at buffer exhaustion (0 whenever PFC is on).
    pub drops: u64,
    /// PFC XOFF frames sent network-wide.
    pub pfc_pause_tx: u64,
    /// PFC XON frames sent network-wide.
    pub pfc_resume_tx: u64,
    /// Frames destroyed by injected link faults (down/random-loss) — kept
    /// apart from `drops` so drop attribution survives into reports.
    pub fault_drops: u64,
    /// Go-back-N retransmitted data frames (sender side).
    pub retx: u64,
    /// Retransmission-timeout firings that rewound a flow.
    pub rtos: u64,
    /// INT records dropped because a frame's stack already held
    /// [`crate::packet::MAX_HOPS`] records, summed by senders as they
    /// consume ACKs. Zero on every path a scenario file can describe.
    pub int_truncations: u64,
    /// Per-hop INT age sums (seconds), in request-path order: how stale
    /// hop `j`'s telemetry was when the sender consumed it (Fig. 12's
    /// quantity).
    pub int_age_sum: [f64; MAX_HOPS],
    /// INT-age samples per hop.
    pub int_age_cnt: [u64; MAX_HOPS],
    /// Completed PFC pause episodes network-wide.
    pub pause_episodes: u64,
    /// Time spent paused, summed over ports.
    pub pause_time_total: TimeDelta,
    /// Longest single pause episode (a storm/deadlock indicator when it
    /// approaches the run length).
    pub pause_time_max: TimeDelta,
}

impl Counters {
    /// Record how stale hop `hop`'s INT record was (in seconds) when a
    /// sender consumed it. Hops are indexed in request-path order.
    #[inline]
    pub fn note_int_age(&mut self, hop: usize, age_secs: f64) {
        self.int_age_sum[hop] += age_secs;
        self.int_age_cnt[hop] += 1;
    }

    /// Mean INT age (seconds) observed for hop `hop`, if any was recorded.
    pub fn mean_int_age(&self, hop: usize) -> Option<f64> {
        let n = *self.int_age_cnt.get(hop)?;
        (n > 0).then(|| self.int_age_sum[hop] / n as f64)
    }

    /// Number of hops up to the deepest one with INT-age records.
    pub fn int_age_hops(&self) -> usize {
        let deepest = self.int_age_cnt.iter().rposition(|&n| n > 0);
        deepest.map_or(0, |h| h + 1)
    }

    /// Record the end of one PFC pause episode of `duration` (watchdog:
    /// pause storms / stuck-pause detection, §2.3).
    pub fn note_pause_episode(&mut self, duration: TimeDelta) {
        self.pause_episodes += 1;
        self.pause_time_total += duration;
        self.pause_time_max = self.pause_time_max.max(duration);
    }

    /// Fold another shard's counters into these: every count and sum adds,
    /// the longest pause is the longer one.
    pub fn absorb(&mut self, o: &Counters) {
        self.data_delivered += o.data_delivered;
        self.acks_delivered += o.acks_delivered;
        self.cnps_delivered += o.cnps_delivered;
        self.ecn_marks += o.ecn_marks;
        self.drops += o.drops;
        self.pfc_pause_tx += o.pfc_pause_tx;
        self.pfc_resume_tx += o.pfc_resume_tx;
        self.fault_drops += o.fault_drops;
        self.retx += o.retx;
        self.rtos += o.rtos;
        self.int_truncations += o.int_truncations;
        for h in 0..MAX_HOPS {
            self.int_age_sum[h] += o.int_age_sum[h];
            self.int_age_cnt[h] += o.int_age_cnt[h];
        }
        self.pause_episodes += o.pause_episodes;
        self.pause_time_total += o.pause_time_total;
        self.pause_time_max = self.pause_time_max.max(o.pause_time_max);
    }
}

/// One sampled quantity, recorded in the unit of its report series.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Probe {
    /// Egress queue depth of switch `sw`'s `port`, in KB (Figs. 1b–d,
    /// 9a/c/e, 13a–c).
    Queue {
        /// The switch.
        sw: SwitchId,
        /// Its egress port.
        port: u8,
    },
    /// Egress link utilization of switch `sw`'s `port`, as a fraction of
    /// the port's line rate (Figs. 9g–h, 13a–c).
    Util {
        /// The switch.
        sw: SwitchId,
        /// Its egress port.
        port: u8,
    },
    /// A flow's sending rate at its sender `host`, in Gb/s (Figs. 9b/d/f,
    /// 13d–e).
    FlowRate {
        /// The flow.
        flow: FlowId,
        /// Its sender.
        host: HostId,
    },
    /// A flow's CC pacing rate at its sender `host`, in Gb/s; 0 while the
    /// flow is not live (reaction timing).
    CcRate {
        /// The flow.
        flow: FlowId,
        /// Its sender.
        host: HostId,
    },
}

struct Watch {
    probe: Probe,
    /// Turns a cumulative byte counter into a rate (`Util`, `FlowRate`).
    meter: RateMeter,
    series: TimeSeries,
}

/// Telemetry sink owned by the fabric; scenario code configures watches
/// before the run and harvests series after it.
pub struct Telemetry {
    /// Global counters, touched on the per-packet path.
    pub counters: Counters,
    /// The run's trace ring (disabled by default; the backend arms it when
    /// the scenario's `probes.trace` knob is set) and its profiler
    /// (`cc_update` spans, under `FNCC_PROFILE` only).
    pub rec: Recorder,
    ph_cc_update: PhaseId,
    /// Lifetime records of the flows this engine carries, in ascending
    /// flow id.
    flows: Vec<FlowRecord>,
    /// Number of finished records (O(1) `all_flows_finished`).
    flows_finished: usize,
    /// Sampling period; `TimeDelta::ZERO` disables sampling.
    pub sample_interval: TimeDelta,
    /// No further sample events are scheduled after this instant.
    pub sample_until: SimTime,
    watches: Vec<Watch>,
    /// Flows whose frames took a non-pristine route at least once because
    /// of a dead link: one entry per rerouted flow, added only while dead
    /// links exist.
    rerouted: BTreeSet<FlowId>,
}

impl Telemetry {
    /// Fresh telemetry with sampling disabled.
    pub fn new() -> Self {
        let mut rec = Recorder::new(false);
        let ph_cc_update = rec.profiler.phase("cc_update");
        Telemetry {
            counters: Counters::default(),
            rec,
            ph_cc_update,
            flows: Vec::new(),
            flows_finished: 0,
            sample_interval: TimeDelta::ZERO,
            sample_until: SimTime::MAX,
            watches: Vec::new(),
            rerouted: BTreeSet::new(),
        }
    }

    // --- configuration ---------------------------------------------------

    /// Enable periodic sampling with the given period, up to `until`.
    pub fn enable_sampling(&mut self, every: TimeDelta, until: SimTime) {
        assert!(!every.is_zero());
        self.sample_interval = every;
        self.sample_until = until;
    }

    /// Sample `probe` into a series called `name` on every sampling tick.
    pub fn watch(&mut self, probe: Probe, name: impl Into<String>) {
        self.watches.push(Watch {
            probe,
            meter: RateMeter::new(SimTime::ZERO, 0),
            series: TimeSeries::new(name),
        });
    }

    // --- updates from the fabric/hosts ------------------------------------

    /// Register the flows this engine carries, before the run (a flow
    /// finishes only once registered here), or another shard's records
    /// after it. Panics on an id registered twice. A first registration
    /// from a `Vec` keeps that `Vec`'s allocation as the table.
    pub fn register_flows(&mut self, recs: impl IntoIterator<Item = FlowRecord>) {
        if self.flows.is_empty() {
            self.flows = recs.into_iter().collect();
        } else {
            self.flows.extend(recs);
        }
        // Stable sort: two sorted runs (a shard merge) cost one merge pass.
        self.flows.sort_by_key(|r| r.flow);
        assert!(
            self.flows.windows(2).all(|w| w[0].flow < w[1].flow),
            "flow id registered twice"
        );
        self.flows_finished = self.flows.iter().filter(|r| r.finish.is_some()).count();
    }

    /// Mark a flow finished (last payload byte delivered).
    pub fn flow_finished(&mut self, flow: FlowId, at: SimTime) {
        let ix = self
            .record_ix(flow)
            .expect("finish of an unregistered flow");
        let rec = &mut self.flows[ix];
        debug_assert!(rec.finish.is_none(), "double finish for {flow:?}");
        if rec.finish.replace(at).is_none() {
            self.flows_finished += 1;
        }
    }

    /// Take one sample of every watch, in its probe's unit. Called by the
    /// fabric on its sampling tick: `port_read` maps `(switch, port)` to
    /// the egress port, `host_read` maps a host id to the host, whose
    /// [`HostLogic::sent_bytes`] and [`HostLogic::cc_rate_bps`] feed the
    /// flow probes.
    pub fn sample<'a, H: HostLogic + 'a>(
        &mut self,
        now: SimTime,
        port_read: impl Fn(SwitchId, u8) -> &'a Port,
        host_read: impl Fn(HostId) -> &'a H,
    ) {
        for w in &mut self.watches {
            let v = match w.probe {
                Probe::Queue { sw, port } => port_read(sw, port).queue_bytes as f64 / 1024.0,
                Probe::Util { sw, port } => {
                    let p = port_read(sw, port);
                    w.meter.sample(now, p.tx_bytes) / p.bw.as_f64()
                }
                Probe::FlowRate { flow, host } => {
                    w.meter.sample(now, host_read(host).sent_bytes(flow)) / 1e9
                }
                Probe::CcRate { flow, host } => {
                    host_read(host).cc_rate_bps(flow).unwrap_or(0.0) / 1e9
                }
            };
            w.series.push(now, v);
        }
    }

    /// Count `flow` as rerouted (its frames deviated from the pristine
    /// route because of a dead link); idempotent per flow.
    pub fn note_rerouted(&mut self, flow: FlowId) {
        self.rerouted.insert(flow);
    }

    /// Flows whose frames took a non-pristine route at least once because
    /// of a dead link (deduplicated network-wide).
    pub fn rerouted_flows(&self) -> u64 {
        self.rerouted.len() as u64
    }

    /// Open a wall-clock span over one congestion-control update; returns
    /// `None` (no clock read) when profiling is off.
    #[inline]
    pub fn cc_span(&self) -> Option<Instant> {
        self.rec.profiler.begin()
    }

    /// Close a span opened by [`Telemetry::cc_span`].
    #[inline]
    pub fn cc_span_end(&mut self, started: Option<Instant>) {
        self.rec.profiler.end(self.ph_cc_update, started);
    }

    // --- shard merging -----------------------------------------------------

    /// Fold another shard's telemetry into this one (sharded-DES harvest).
    ///
    /// Every aggregate here is exact, not approximate: counters are integer
    /// sums ([`Counters::absorb`]); the recorders merge as
    /// [`Recorder::absorb`] does, trace rings interleaving by
    /// `(timestamp, shard)`; watch lists concatenate in
    /// shard order because each shard only registers watches for entities
    /// it owns, so [`Telemetry::series`] finds exactly one series per name.
    /// Each shard registers the flows whose receiver it owns, so the record
    /// sets are disjoint and merge as a sorted union. Rerouted flows are
    /// deduplicated network-wide, so the rerouted id sets are unioned.
    pub fn merge_shard(&mut self, other: Telemetry) {
        self.counters.absorb(&other.counters);
        self.rec.absorb(other.rec);
        self.register_flows(other.flows);
        self.watches.extend(other.watches);
        self.rerouted.extend(other.rerouted);
    }

    // --- harvesting --------------------------------------------------------

    /// All flow records (finished or not), in ascending flow id.
    pub fn flow_records(&self) -> impl Iterator<Item = &FlowRecord> {
        self.flows.iter()
    }

    /// Record for one flow.
    pub fn flow_record(&self, flow: FlowId) -> Option<&FlowRecord> {
        self.record_ix(flow).map(|ix| &self.flows[ix])
    }

    /// Where `flow`'s record sits in `flows`.
    fn record_ix(&self, flow: FlowId) -> Option<usize> {
        self.flows.binary_search_by_key(&flow, |r| r.flow).ok()
    }

    /// Number of registered flows.
    pub fn flow_count(&self) -> usize {
        self.flows.len()
    }

    /// True if every registered flow has finished (vacuously, with none).
    pub fn all_flows_finished(&self) -> bool {
        self.flows_finished == self.flows.len()
    }

    /// Harvest the series a watch recorded under `name`.
    pub fn series(&self, name: &str) -> Option<&TimeSeries> {
        self.watches
            .iter()
            .map(|w| &w.series)
            .find(|s| s.name == name)
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::HostCtx;
    use crate::packet::Packet;
    use crate::topology::Topology;
    use crate::units::Bandwidth;

    fn open(flow: u32, start_us: u64) -> FlowRecord {
        FlowRecord {
            flow: FlowId(flow),
            src: HostId(0),
            dst: HostId(1),
            size: 1000,
            start: SimTime::from_us(start_us),
            finish: None,
        }
    }

    #[test]
    fn flow_lifecycle() {
        let mut t = Telemetry::new();
        assert!(t.all_flows_finished(), "no flows: nothing left to finish");
        t.register_flows([open(7, 0), open(2, 5)]);
        assert_eq!(t.flow_count(), 2);
        let ids: Vec<_> = t.flow_records().map(|r| r.flow).collect();
        assert_eq!(ids, [FlowId(2), FlowId(7)], "records walk in id order");
        assert!(!t.all_flows_finished());
        t.flow_finished(FlowId(2), SimTime::from_us(9));
        assert!(!t.all_flows_finished(), "flow 7 never started");
        assert_eq!(t.flow_record(FlowId(3)), None);
        let rec = t.flow_record(FlowId(2)).unwrap();
        assert_eq!(rec.fct(), Some(TimeDelta::from_us(4)));
        t.flow_finished(FlowId(7), SimTime::from_us(20));
        assert!(t.all_flows_finished());
    }

    /// Shards carry disjoint record sets; the merge is their sorted union
    /// and keeps each side's finishes.
    #[test]
    fn merged_records_are_the_sorted_union() {
        let (mut a, mut b) = (Telemetry::new(), Telemetry::new());
        a.register_flows([open(0, 0), open(3, 0)]);
        b.register_flows([open(1, 0), open(2, 0), open(4, 0)]);
        a.flow_finished(FlowId(3), SimTime::from_us(1));
        b.flow_finished(FlowId(1), SimTime::from_us(2));
        a.merge_shard(b);
        let ids: Vec<_> = a.flow_records().map(|r| r.flow.0).collect();
        assert_eq!(ids, [0, 1, 2, 3, 4]);
        assert_eq!(a.flow_count(), 5);
        let finished: Vec<_> = a
            .flow_records()
            .filter(|r| r.finish.is_some())
            .map(|r| r.flow.0)
            .collect();
        assert_eq!(finished, [1, 3]);
        assert!(!a.all_flows_finished());
    }

    /// The rerouted set holds the flows it counted, not a slot per flow
    /// id up to the largest, and the shard merge counts a flow both shards
    /// rerouted once.
    #[test]
    fn rerouted_set_is_sized_by_its_flows() {
        let (mut a, mut b) = (Telemetry::new(), Telemetry::new());
        a.note_rerouted(FlowId(1_000_000));
        a.note_rerouted(FlowId(1_000_000));
        assert_eq!(a.rerouted_flows(), 1);
        b.note_rerouted(FlowId(1_000_000));
        a.merge_shard(b);
        assert!(a.rerouted.iter().eq(&[FlowId(1_000_000)]));
        assert_eq!(a.rerouted_flows(), 1);
        // Distinct flows from both sides keep their order and count.
        let mut c = Telemetry::new();
        c.note_rerouted(FlowId(5));
        a.note_rerouted(FlowId(3));
        a.merge_shard(c);
        assert!(a
            .rerouted
            .iter()
            .eq(&[FlowId(3), FlowId(5), FlowId(1_000_000)]));
        assert_eq!(a.rerouted_flows(), 3);
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_registration_panics() {
        Telemetry::new().register_flows([open(1, 0), open(1, 3)]);
    }

    /// A host reporting fixed flow readings, for sampling.
    struct FixedHost {
        tx_bytes: u64,
        cc_bps: f64,
    }

    impl HostLogic for FixedHost {
        type Timer = ();
        fn on_packet(&mut self, _: &mut HostCtx<'_, ()>, _: Box<Packet>) {}
        fn on_timer(&mut self, _: &mut HostCtx<'_, ()>, _: ()) {}
        fn sent_bytes(&self, _flow: FlowId) -> u64 {
            self.tx_bytes
        }
        fn cc_rate_bps(&self, _flow: FlowId) -> Option<f64> {
            Some(self.cc_bps)
        }
    }

    #[test]
    fn sampling_records_watched_quantities() {
        let mut t = Telemetry::new();
        let (sw, port) = (SwitchId(0), 2);
        t.watch(Probe::Queue { sw, port }, "q");
        t.watch(Probe::Util { sw, port }, "u");
        let (flow, host) = (FlowId(0), HostId(0));
        t.watch(Probe::FlowRate { flow, host }, "r");
        t.watch(Probe::CcRate { flow, host }, "cc");

        // At t=1us: queue 512 bytes, 12500 bytes txed → 100 Gb/s → util 1.0.
        let topo = Topology::dumbbell(2, 3, Bandwidth::gbps(100), TimeDelta::from_us(1));
        let mut p = Port::from_spec(&topo.switches[0].ports[2]);
        p.queue_bytes = 512;
        p.tx_bytes = 12_500;
        // Flow rate 10 Gb/s over 1 us.
        let h = FixedHost {
            tx_bytes: 1250,
            cc_bps: 25e9,
        };
        t.sample(SimTime::from_us(1), |_, _| &p, |_| &h);

        assert_eq!(t.series("q").unwrap().values(), &[0.5]);
        let u = t.series("u").unwrap();
        assert!((u.values()[0] - 1.0).abs() < 1e-9, "util {}", u.values()[0]);
        let r = t.series("r").unwrap();
        assert!((r.values()[0] - 10.0).abs() < 1e-9);
        assert_eq!(t.series("cc").unwrap().values(), &[25.0]);
    }

    #[test]
    fn unwatched_lookups_return_none() {
        let mut t = Telemetry::new();
        assert!(t.series("q").is_none());
        let (flow, host) = (FlowId(0), HostId(0));
        t.watch(Probe::FlowRate { flow, host }, "r");
        assert!(t.series("q").is_none());
        assert!(t.series("r").is_some());
    }

    #[test]
    fn int_age_accumulates_per_hop() {
        let mut c = Counters::default();
        assert_eq!(c.mean_int_age(0), None);
        assert_eq!(c.int_age_hops(), 0);
        c.note_int_age(0, 2.0e-6);
        c.note_int_age(0, 4.0e-6);
        c.note_int_age(2, 10.0e-6);
        assert!((c.mean_int_age(0).unwrap() - 3.0e-6).abs() < 1e-15);
        assert_eq!(c.mean_int_age(1), None);
        assert!((c.mean_int_age(2).unwrap() - 10.0e-6).abs() < 1e-15);
        assert_eq!(c.mean_int_age(MAX_HOPS), None);
        assert_eq!(c.int_age_hops(), 3);
    }

    /// Shard counters sum hop by hop; the longest pause is the longer one.
    #[test]
    fn counters_absorb_sums_hops_and_keeps_the_longest_pause() {
        let (mut a, mut b) = (Counters::default(), Counters::default());
        a.note_int_age(0, 2.0e-6);
        b.note_int_age(0, 4.0e-6);
        b.note_int_age(1, 1.0e-6);
        a.note_pause_episode(TimeDelta::from_us(5));
        b.note_pause_episode(TimeDelta::from_us(3));
        b.note_pause_episode(TimeDelta::from_us(9));
        a.absorb(&b);
        assert_eq!(a.int_age_cnt[..2], [2, 1]);
        assert!((a.mean_int_age(0).unwrap() - 3.0e-6).abs() < 1e-15);
        assert_eq!(a.int_age_hops(), 2);
        assert_eq!(a.pause_episodes, 3);
        assert_eq!(a.pause_time_total, TimeDelta::from_us(17));
        assert_eq!(a.pause_time_max, TimeDelta::from_us(9));
    }

    #[test]
    #[should_panic(expected = "unregistered flow")]
    fn finish_before_start_panics() {
        let mut t = Telemetry::new();
        t.register_flows([open(0, 0)]);
        t.flow_finished(FlowId(1), SimTime::ZERO);
    }
}
