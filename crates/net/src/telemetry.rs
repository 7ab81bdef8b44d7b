//! Run-wide measurement state: counters, per-flow byte counters, flow
//! completion records, and the sampling watch-lists feeding the paper's
//! time-series plots.

use crate::ids::{FlowId, HostId, SwitchId};
use crate::units::Bandwidth;
use fncc_des::stats::{RateMeter, TimeSeries};
use fncc_des::time::{SimTime, TimeDelta};
use fncc_obs::{HistId, MetricsRegistry, PhaseId, Profiler, TraceSink};
use std::time::Instant;

/// Lifetime record of one flow.
#[derive(Clone, Debug)]
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

/// Global event counters.
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
    /// Flows whose frames took a non-pristine route at least once because
    /// of a dead link (deduplicated network-wide).
    pub rerouted_flows: u64,
    /// INT records dropped because a frame's stack already held
    /// [`crate::packet::MAX_HOPS`] records, summed by senders as they
    /// consume ACKs. Zero on every path a scenario file can describe.
    pub int_truncations: u64,
}

struct QueueWatch {
    sw: SwitchId,
    port: u8,
    series: TimeSeries,
}

struct UtilWatch {
    sw: SwitchId,
    port: u8,
    bw: Bandwidth,
    meter: RateMeter,
    series: TimeSeries,
}

struct FlowWatch {
    flow: FlowId,
    meter: RateMeter,
    series: TimeSeries,
}

struct CcRateWatch {
    flow: FlowId,
    host: HostId,
    series: TimeSeries,
}

/// Telemetry sink owned by the fabric; scenario code configures watches
/// before the run and harvests series after it.
pub struct Telemetry {
    /// Global counters.
    pub counters: Counters,
    /// Flight-recorder event sink (disabled by default; the backend arms it
    /// when the scenario's `probes.trace` knob is set).
    pub trace: TraceSink,
    /// Named metrics harvested into the run report. Histograms registered
    /// here are fed only from simulation state, so their percentiles are
    /// deterministic and identical whether tracing is armed or not.
    pub metrics: MetricsRegistry,
    /// Queue-depth histogram (bytes), fed on every sampling tick.
    h_queue_depth: HistId,
    /// Flow-completion-time histogram (µs), fed on each flow finish.
    h_fct_us: HistId,
    /// Wall-clock spans (active only when `FNCC_PROFILE` is set).
    pub profiler: Profiler,
    ph_cc_update: PhaseId,
    /// Cumulative payload bytes handed to the NIC per flow (sender side).
    flow_tx_bytes: Vec<u64>,
    /// Flow lifetime records, indexed by flow id.
    flows: Vec<Option<FlowRecord>>,
    /// Number of `Some` entries in `flows` (O(1) `flow_count`).
    flows_started: usize,
    /// Number of finished flows (O(1) `all_flows_finished`).
    flows_finished: usize,
    /// Sampling period; `TimeDelta::ZERO` disables sampling.
    pub sample_interval: TimeDelta,
    /// No further sample events are scheduled after this instant.
    pub sample_until: SimTime,
    queues: Vec<QueueWatch>,
    utils: Vec<UtilWatch>,
    flows_watched: Vec<FlowWatch>,
    cc_watched: Vec<CcRateWatch>,
    /// Per-hop INT age accumulators (seconds): how stale the telemetry of
    /// hop `j` was when the sender consumed it (Fig. 12's quantity).
    int_age_sum: Vec<f64>,
    int_age_cnt: Vec<u64>,
    pause_episodes: u64,
    pause_time_total: TimeDelta,
    pause_time_max: TimeDelta,
    /// Flows already counted in `counters.rerouted_flows` (dense by flow
    /// id; only ever grows while dead links exist).
    rerouted: Vec<bool>,
}

impl Telemetry {
    /// Fresh telemetry with sampling disabled.
    pub fn new() -> Self {
        let mut metrics = MetricsRegistry::new();
        let h_queue_depth = metrics.histogram("queue_depth_bytes");
        let h_fct_us = metrics.histogram("fct_us");
        let mut profiler = Profiler::from_env();
        let ph_cc_update = profiler.phase("cc_update");
        Telemetry {
            counters: Counters::default(),
            trace: TraceSink::disabled(),
            metrics,
            h_queue_depth,
            h_fct_us,
            profiler,
            ph_cc_update,
            flow_tx_bytes: Vec::new(),
            flows: Vec::new(),
            flows_started: 0,
            flows_finished: 0,
            sample_interval: TimeDelta::ZERO,
            sample_until: SimTime::MAX,
            queues: Vec::new(),
            utils: Vec::new(),
            flows_watched: Vec::new(),
            cc_watched: Vec::new(),
            int_age_sum: Vec::new(),
            int_age_cnt: Vec::new(),
            pause_episodes: 0,
            pause_time_total: TimeDelta::ZERO,
            pause_time_max: TimeDelta::ZERO,
            rerouted: Vec::new(),
        }
    }

    // --- configuration ---------------------------------------------------

    /// Enable periodic sampling with the given period, up to `until`.
    pub fn enable_sampling(&mut self, every: TimeDelta, until: SimTime) {
        assert!(!every.is_zero());
        self.sample_interval = every;
        self.sample_until = until;
    }

    /// Watch a switch egress queue depth (Fig. 1b–d, 9a/c/e, 13a–c).
    pub fn watch_queue(&mut self, sw: SwitchId, port: u8, name: impl Into<String>) {
        self.queues.push(QueueWatch {
            sw,
            port,
            series: TimeSeries::new(name),
        });
    }

    /// Watch a switch egress link utilization (Fig. 9g–h, 13a–c).
    pub fn watch_utilization(
        &mut self,
        sw: SwitchId,
        port: u8,
        bw: Bandwidth,
        name: impl Into<String>,
    ) {
        self.utils.push(UtilWatch {
            sw,
            port,
            bw,
            meter: RateMeter::new(SimTime::ZERO, 0),
            series: TimeSeries::new(name),
        });
    }

    /// Watch a sender's flow rate (Fig. 9b/d/f, 13d–e).
    pub fn watch_flow_rate(&mut self, flow: FlowId, name: impl Into<String>) {
        self.flows_watched.push(FlowWatch {
            flow,
            meter: RateMeter::new(SimTime::ZERO, 0),
            series: TimeSeries::new(name),
        });
    }

    /// Watch a sender's congestion-control pacing rate (reaction timing).
    pub fn watch_cc_rate(&mut self, flow: FlowId, host: HostId, name: impl Into<String>) {
        self.cc_watched.push(CcRateWatch {
            flow,
            host,
            series: TimeSeries::new(name),
        });
    }

    // --- updates from the fabric/hosts ------------------------------------

    /// Register a flow at start time.
    pub fn flow_started(&mut self, rec: FlowRecord) {
        let ix = rec.flow.ix();
        if self.flows.len() <= ix {
            self.flows.resize(ix + 1, None);
        }
        if self.flows[ix].is_none() {
            self.flows_started += 1;
        } else if self.flows[ix].as_ref().is_some_and(|r| r.finish.is_some()) {
            // Re-registration of a finished record re-opens it.
            self.flows_finished -= 1;
        }
        self.flows[ix] = Some(rec);
    }

    /// Mark a flow finished (last payload byte delivered).
    pub fn flow_finished(&mut self, flow: FlowId, at: SimTime) {
        let rec = self.flows[flow.ix()].as_mut().expect("finish before start");
        debug_assert!(rec.finish.is_none(), "double finish for {flow:?}");
        if rec.finish.is_none() {
            self.flows_finished += 1;
            self.metrics
                .observe_f64(self.h_fct_us, at.since(rec.start).as_secs_f64() * 1e6);
        }
        rec.finish = Some(at);
    }

    /// Add sender-side transmitted payload bytes for a flow.
    #[inline]
    pub fn add_flow_tx(&mut self, flow: FlowId, bytes: u64) {
        let ix = flow.ix();
        if self.flow_tx_bytes.len() <= ix {
            self.flow_tx_bytes.resize(ix + 1, 0);
        }
        self.flow_tx_bytes[ix] += bytes;
    }

    /// Cumulative transmitted payload bytes of a flow.
    pub fn flow_tx(&self, flow: FlowId) -> u64 {
        self.flow_tx_bytes.get(flow.ix()).copied().unwrap_or(0)
    }

    /// Take one sample of every watched quantity. Called by the fabric on
    /// its sampling tick: `queue_read`/`tx_read` map `(switch, port)` to the
    /// current queue depth and cumulative tx bytes.
    pub fn sample(
        &mut self,
        now: SimTime,
        mut queue_read: impl FnMut(SwitchId, u8) -> u64,
        mut tx_read: impl FnMut(SwitchId, u8) -> u64,
    ) {
        for w in &mut self.queues {
            let depth = queue_read(w.sw, w.port);
            self.metrics.observe(self.h_queue_depth, depth);
            w.series.push(now, depth as f64);
        }
        for w in &mut self.utils {
            let rate = w.meter.sample(now, tx_read(w.sw, w.port));
            w.series.push(now, rate / w.bw.as_f64());
        }
        for w in &mut self.flows_watched {
            let bytes = self.flow_tx_bytes.get(w.flow.ix()).copied().unwrap_or(0);
            let rate = w.meter.sample(now, bytes);
            w.series.push(now, rate);
        }
    }

    /// Sample watched CC pacing rates; `read` maps `(host, flow)` to the
    /// current rate, `None` while the flow is not live (recorded as 0).
    pub fn sample_cc_rates(
        &mut self,
        now: SimTime,
        mut read: impl FnMut(HostId, FlowId) -> Option<f64>,
    ) {
        for w in &mut self.cc_watched {
            w.series.push(now, read(w.host, w.flow).unwrap_or(0.0));
        }
    }

    /// Count `flow` as rerouted (its frames deviated from the pristine
    /// route because of a dead link); idempotent per flow.
    pub fn note_rerouted(&mut self, flow: FlowId) {
        let ix = flow.ix();
        if self.rerouted.len() <= ix {
            self.rerouted.resize(ix + 1, false);
        }
        if !self.rerouted[ix] {
            self.rerouted[ix] = true;
            self.counters.rerouted_flows += 1;
        }
    }

    /// Record the end of one PFC pause episode of `duration` (watchdog:
    /// pause storms / stuck-pause detection, §2.3).
    pub fn note_pause_episode(&mut self, duration: TimeDelta) {
        self.pause_episodes += 1;
        self.pause_time_total += duration;
        if duration > self.pause_time_max {
            self.pause_time_max = duration;
        }
    }

    /// Number of completed pause episodes network-wide.
    pub fn pause_episodes(&self) -> u64 {
        self.pause_episodes
    }

    /// Total time spent paused, summed over ports.
    pub fn pause_time_total(&self) -> TimeDelta {
        self.pause_time_total
    }

    /// Longest single pause episode (a storm/deadlock indicator when it
    /// approaches the run length).
    pub fn pause_time_max(&self) -> TimeDelta {
        self.pause_time_max
    }

    /// Record how stale hop `hop`'s INT record was (in seconds) when a
    /// sender consumed it. Hops are indexed in request-path order.
    #[inline]
    pub fn note_int_age(&mut self, hop: usize, age_secs: f64) {
        if self.int_age_sum.len() <= hop {
            self.int_age_sum.resize(hop + 1, 0.0);
            self.int_age_cnt.resize(hop + 1, 0);
        }
        self.int_age_sum[hop] += age_secs;
        self.int_age_cnt[hop] += 1;
    }

    /// Mean INT age (seconds) observed for hop `hop`, if any was recorded.
    pub fn mean_int_age(&self, hop: usize) -> Option<f64> {
        let n = *self.int_age_cnt.get(hop)?;
        if n == 0 {
            return None;
        }
        Some(self.int_age_sum[hop] / n as f64)
    }

    /// Number of hops with INT-age records.
    pub fn int_age_hops(&self) -> usize {
        self.int_age_cnt.len()
    }

    /// Open a wall-clock span over one congestion-control update; returns
    /// `None` (no clock read) when profiling is off.
    #[inline]
    pub fn cc_span(&self) -> Option<Instant> {
        self.profiler.begin()
    }

    /// Close a span opened by [`Telemetry::cc_span`].
    #[inline]
    pub fn cc_span_end(&mut self, started: Option<Instant>) {
        self.profiler.end(self.ph_cc_update, started);
    }

    // --- shard merging -----------------------------------------------------

    /// Fold another shard's telemetry into this one (sharded-DES harvest).
    ///
    /// Every aggregate here is exact, not approximate: counters and
    /// per-flow byte vectors are integer sums; the histograms round to
    /// integer units before summing (see [`fncc_obs::Histogram::absorb`]);
    /// watch lists concatenate in shard order because each shard only
    /// registers watches for entities it owns, so the keyed lookups
    /// (`queue_series`, …) see exactly one entry per key. Flow records
    /// merge per id, a finished record (receiver side) winning over the
    /// sender's open one. `rerouted_flows` is deduplicated network-wide,
    /// so the per-flow bitmaps are unioned and the counter recomputed
    /// rather than summed.
    pub fn merge_shard(&mut self, other: Telemetry) {
        let o = other.counters;
        self.counters.data_delivered += o.data_delivered;
        self.counters.acks_delivered += o.acks_delivered;
        self.counters.cnps_delivered += o.cnps_delivered;
        self.counters.ecn_marks += o.ecn_marks;
        self.counters.drops += o.drops;
        self.counters.pfc_pause_tx += o.pfc_pause_tx;
        self.counters.pfc_resume_tx += o.pfc_resume_tx;
        self.counters.fault_drops += o.fault_drops;
        self.counters.retx += o.retx;
        self.counters.rtos += o.rtos;
        self.counters.int_truncations += o.int_truncations;
        if self.rerouted.len() < other.rerouted.len() {
            self.rerouted.resize(other.rerouted.len(), false);
        }
        for (ix, &r) in other.rerouted.iter().enumerate() {
            if r {
                self.rerouted[ix] = true;
            }
        }
        self.counters.rerouted_flows = self.rerouted.iter().filter(|&&r| r).count() as u64;

        self.metrics.absorb(&other.metrics);

        if self.flow_tx_bytes.len() < other.flow_tx_bytes.len() {
            self.flow_tx_bytes.resize(other.flow_tx_bytes.len(), 0);
        }
        for (ix, &b) in other.flow_tx_bytes.iter().enumerate() {
            self.flow_tx_bytes[ix] += b;
        }

        if self.flows.len() < other.flows.len() {
            self.flows.resize(other.flows.len(), None);
        }
        for (ix, rec) in other.flows.into_iter().enumerate() {
            let Some(rec) = rec else { continue };
            let mine = &self.flows[ix];
            let mine_finished = mine.as_ref().is_some_and(|r| r.finish.is_some());
            if mine.is_none() || (rec.finish.is_some() && !mine_finished) {
                self.flows[ix] = Some(rec);
            }
        }
        self.flows_started = self.flows.iter().filter(|f| f.is_some()).count();
        self.flows_finished = self
            .flows
            .iter()
            .filter(|f| f.as_ref().is_some_and(|r| r.finish.is_some()))
            .count();

        self.queues.extend(other.queues);
        self.utils.extend(other.utils);
        self.flows_watched.extend(other.flows_watched);
        self.cc_watched.extend(other.cc_watched);

        if self.int_age_sum.len() < other.int_age_sum.len() {
            self.int_age_sum.resize(other.int_age_sum.len(), 0.0);
            self.int_age_cnt.resize(other.int_age_cnt.len(), 0);
        }
        for (ix, &s) in other.int_age_sum.iter().enumerate() {
            self.int_age_sum[ix] += s;
            self.int_age_cnt[ix] += other.int_age_cnt[ix];
        }

        self.pause_episodes += other.pause_episodes;
        self.pause_time_total += other.pause_time_total;
        if other.pause_time_max > self.pause_time_max {
            self.pause_time_max = other.pause_time_max;
        }
    }

    // --- harvesting --------------------------------------------------------

    /// All flow records (finished or not).
    pub fn flow_records(&self) -> impl Iterator<Item = &FlowRecord> {
        self.flows.iter().filter_map(|f| f.as_ref())
    }

    /// Record for one flow.
    pub fn flow_record(&self, flow: FlowId) -> Option<&FlowRecord> {
        self.flows.get(flow.ix()).and_then(|f| f.as_ref())
    }

    /// Number of registered flows.
    pub fn flow_count(&self) -> usize {
        self.flows_started
    }

    /// True if every registered flow has finished.
    pub fn all_flows_finished(&self) -> bool {
        self.flows_finished == self.flows_started
    }

    /// Number of finished flows (the sharded coordinator's termination
    /// check needs the raw count, not just [`Telemetry::all_flows_finished`],
    /// because receiver shards pre-register records for flows whose sender
    /// lives elsewhere).
    pub fn flows_finished_count(&self) -> usize {
        self.flows_finished
    }

    /// Harvest the queue-depth series for a watched queue.
    pub fn queue_series(&self, sw: SwitchId, port: u8) -> Option<&TimeSeries> {
        self.queues
            .iter()
            .find(|w| w.sw == sw && w.port == port)
            .map(|w| &w.series)
    }

    /// Harvest the utilization series for a watched port.
    pub fn util_series(&self, sw: SwitchId, port: u8) -> Option<&TimeSeries> {
        self.utils
            .iter()
            .find(|w| w.sw == sw && w.port == port)
            .map(|w| &w.series)
    }

    /// Harvest the rate series for a watched flow.
    pub fn flow_rate_series(&self, flow: FlowId) -> Option<&TimeSeries> {
        self.flows_watched
            .iter()
            .find(|w| w.flow == flow)
            .map(|w| &w.series)
    }

    /// Harvest the CC pacing-rate series for a watched flow.
    pub fn cc_rate_series(&self, flow: FlowId) -> Option<&TimeSeries> {
        self.cc_watched
            .iter()
            .find(|w| w.flow == flow)
            .map(|w| &w.series)
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

    #[test]
    fn flow_lifecycle() {
        let mut t = Telemetry::new();
        t.flow_started(FlowRecord {
            flow: FlowId(2),
            src: HostId(0),
            dst: HostId(1),
            size: 1000,
            start: SimTime::from_us(5),
            finish: None,
        });
        assert_eq!(t.flow_count(), 1);
        assert!(!t.all_flows_finished());
        t.flow_finished(FlowId(2), SimTime::from_us(9));
        assert!(t.all_flows_finished());
        let rec = t.flow_record(FlowId(2)).unwrap();
        assert_eq!(rec.fct(), Some(TimeDelta::from_us(4)));
    }

    #[test]
    fn flow_tx_accumulates_with_sparse_ids() {
        let mut t = Telemetry::new();
        t.add_flow_tx(FlowId(7), 100);
        t.add_flow_tx(FlowId(7), 50);
        assert_eq!(t.flow_tx(FlowId(7)), 150);
        assert_eq!(t.flow_tx(FlowId(3)), 0);
        assert_eq!(t.flow_tx(FlowId(100)), 0);
    }

    #[test]
    fn sampling_records_watched_quantities() {
        let mut t = Telemetry::new();
        t.watch_queue(SwitchId(1), 2, "q");
        t.watch_utilization(SwitchId(1), 2, Bandwidth::gbps(100), "u");
        t.watch_flow_rate(FlowId(0), "r");
        t.add_flow_tx(FlowId(0), 0);

        // At t=1us: queue 500 bytes, 12500 bytes txed → 100 Gb/s → util 1.0.
        t.add_flow_tx(FlowId(0), 1250); // flow rate 10 Gb/s over 1 us
        t.sample(SimTime::from_us(1), |_, _| 500, |_, _| 12_500);

        let q = t.queue_series(SwitchId(1), 2).unwrap();
        assert_eq!(q.values(), &[500.0]);
        let u = t.util_series(SwitchId(1), 2).unwrap();
        assert!((u.values()[0] - 1.0).abs() < 1e-9, "util {}", u.values()[0]);
        let r = t.flow_rate_series(FlowId(0)).unwrap();
        assert!((r.values()[0] - 10e9).abs() < 1.0);
    }

    #[test]
    fn unwatched_lookups_return_none() {
        let t = Telemetry::new();
        assert!(t.queue_series(SwitchId(0), 0).is_none());
        assert!(t.util_series(SwitchId(0), 0).is_none());
        assert!(t.flow_rate_series(FlowId(0)).is_none());
    }

    #[test]
    fn int_age_accumulates_per_hop() {
        let mut t = Telemetry::new();
        assert_eq!(t.mean_int_age(0), None);
        t.note_int_age(0, 2.0e-6);
        t.note_int_age(0, 4.0e-6);
        t.note_int_age(2, 10.0e-6);
        assert!((t.mean_int_age(0).unwrap() - 3.0e-6).abs() < 1e-15);
        assert_eq!(t.mean_int_age(1), None);
        assert!((t.mean_int_age(2).unwrap() - 10.0e-6).abs() < 1e-15);
        assert_eq!(t.int_age_hops(), 3);
    }

    #[test]
    #[should_panic]
    fn finish_before_start_panics() {
        let mut t = Telemetry::new();
        t.flow_started(FlowRecord {
            flow: FlowId(0),
            src: HostId(0),
            dst: HostId(1),
            size: 1,
            start: SimTime::ZERO,
            finish: None,
        });
        t.flow_finished(FlowId(1), SimTime::ZERO);
    }
}
