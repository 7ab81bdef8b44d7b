//! Backend dispatch: one declarative [`Scenario`], three engines, one
//! [`RunReport`].
//!
//! [`PacketBackend`] is the packet-level DES (every frame, ACK, PFC pause
//! and INT record simulated — the paper-faithful engine): one
//! [`ShardedSim`], which is a single replica at `threads: 0` and one
//! replica per fat-tree pod at `threads ≥ 1`. [`FluidBackend`]
//! computes flow throughput from `fncc-fluid`'s water-filling max-min model
//! with per-scheme steady-state rate hooks — five to six orders of
//! magnitude faster, validated against the packet engine by the
//! cross-validation suite. Both implement [`Backend`] over the same
//! scenario description, so any experiment can swap engines with one flag.
//! [`HybridBackend`] couples the two: a scenario-declared foreground
//! partition runs at packet fidelity inside the DES while the remaining
//! (bulk) flows drain through the fluid model, with bidirectional
//! capacity exchange at fluid-event boundaries. [`SimBackend`] is the
//! thin CLI-facing parser that resolves to a `Box<dyn Backend>`. See
//! `DESIGN.md` for when to use which.
//!
//! Everything the three `run_traced` bodies have in common — seed horizon,
//! per-seed flow table, the one recorder each seed's run hands over (its
//! profiler on every seed, its trace artifact on the first), the
//! distribution scalars, the fault, solver and event-rate scalars, the closing
//! slowdown/`incomplete_flows`/span block — lives once in `ReportBuilder`
//! and the small tallies next to it. Reports serialise scalars in insertion order, so each engine
//! still decides *where* in its list a shared block lands.

use crate::hybrid::HybridSim;
use crate::metrics::{
    average_slowdowns, fct_slowdowns, reaction_time, time_to_fair, SlowdownStats,
};
use crate::report::RunReport;
use crate::scenario::{Scenario, StopCondition, TrafficSpec};
use crate::sharded::{ShardStats, ShardedSim};
use crate::sim::{make_algo, SimBuilder};
use fncc_cc::{CcAlgo, CcKind, FnccConfig};
use fncc_des::engine::QueueKind;
use fncc_des::stats::TimeSeries;
use fncc_des::time::{SimTime, TimeDelta};
use fncc_fluid::{FluidResult, FluidSim, Framing, RateModel};
use fncc_net::config::FabricConfig;
use fncc_net::ids::{FlowId, NodeRef, SwitchId};
use fncc_net::telemetry::{FlowRecord, Probe, Telemetry};
use fncc_net::topology::Topology;
use fncc_obs::{Histogram, Profiler, Recorder, TraceMeta};
use fncc_transport::{FlowSpec, RecoveryConfig};
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::time::Instant;

/// An engine that can execute any [`Scenario`].
pub trait Backend {
    /// Backend display name (`"packet"`, `"fluid"` or `"hybrid"`).
    fn name(&self) -> &'static str;

    /// Execute the scenario and produce the unified report artifact. When
    /// the scenario arms tracing, the flight-recorder artifact lands next
    /// to the working directory under [`RunReport::trace_file_name`].
    fn run(&self, scenario: &Scenario) -> RunReport {
        self.run_traced(scenario, None)
    }

    /// Like [`run`](Backend::run), but with an explicit destination for the
    /// `fncc.trace/v1` artifact (`None` = the default file name). Tracing is
    /// still armed by the scenario's `probes.trace` knob and captures the
    /// first seed's run; the report itself is byte-identical either way.
    fn run_traced(&self, scenario: &Scenario, trace_out: Option<&Path>) -> RunReport;
}

/// The report under construction plus the per-seed state every engine's
/// `run_traced` feeds the same way.
struct ReportBuilder<'a> {
    sc: &'a Scenario,
    trace_out: Option<&'a Path>,
    report: RunReport,
    buckets: Vec<u64>,
    /// One slowdown table per seed, averaged by [`ReportBuilder::finish`].
    runs: Vec<Vec<SlowdownStats>>,
    prof: Profiler,
}

impl<'a> ReportBuilder<'a> {
    fn new(sc: &'a Scenario, backend: &str, trace_out: Option<&'a Path>) -> Self {
        let mut report = RunReport::new(&sc.name, backend, sc.cc.name());
        report.seeds = sc.seeds.clone();
        ReportBuilder {
            sc,
            trace_out,
            report,
            buckets: sc.traffic.buckets(),
            runs: Vec::with_capacity(sc.seeds.len()),
            prof: Profiler::disabled(),
        }
    }

    /// Whether seed number `seed_ix` arms the flight recorder. The first
    /// seed only: one seed's event stream answers the timeline/hotspot
    /// questions, and the ring would otherwise just overwrite seed 0 with
    /// seed N−1.
    fn tracing(&self, seed_ix: usize) -> bool {
        self.sc.probes.trace && seed_ix == 0
    }

    /// Where one seed's run stops: the fixed horizon, or the drain cap
    /// counted from the last flow start.
    fn horizon(&self, flows: &[FlowSpec]) -> SimTime {
        match self.sc.stop {
            StopCondition::Horizon { us } => SimTime::from_us(us),
            StopCondition::Drain { cap_ms } => {
                flows.iter().map(|f| f.start).max().unwrap_or(SimTime::ZERO)
                    + TimeDelta::from_ms(cap_ms)
            }
        }
    }

    /// Record one seed's unfinished-flow count.
    fn unfinished(&mut self, records: impl Iterator<Item = FlowRecord>) {
        let n = records.filter(|r| r.finish.is_none()).count();
        self.report.unfinished.push(n);
    }

    /// Record one seed's FCT-slowdown table, over its flow records in
    /// ascending flow id.
    fn slowdowns(
        &mut self,
        topo: &Topology,
        records: impl Iterator<Item = FlowRecord>,
        framing: Framing,
    ) {
        self.runs.push(fct_slowdowns(
            topo,
            records,
            &self.buckets,
            framing.mtu_payload,
            framing.header,
        ));
    }

    /// Read the one recorder seed number `seed_ix`'s run handed over: its
    /// profiler on every seed; on the first seed also the `fncc.trace/v1`
    /// artifact when the scenario arms tracing. Trace output is best-effort
    /// diagnostics: failures warn on stderr, never fail the run.
    fn recorder(&mut self, seed_ix: usize, seed: u64, rec: &Recorder) {
        self.prof.absorb(&rec.profiler);
        if !self.tracing(seed_ix) {
            return;
        }
        let path = self
            .trace_out
            .map(Path::to_path_buf)
            .unwrap_or_else(|| PathBuf::from(self.report.trace_file_name()));
        let meta = TraceMeta {
            scenario: self.sc.name.clone(),
            backend: self.report.backend.clone(),
            seed,
        };
        let sink = &rec.trace;
        let res = std::fs::File::create(&path).and_then(|f| {
            let mut w = std::io::BufWriter::new(f);
            sink.write_jsonl(&mut w, &meta)
        });
        match res {
            Ok(()) => eprintln!(
                "trace: {} events ({} dropped) -> {}",
                sink.len(),
                sink.dropped(),
                path.display()
            ),
            Err(e) => eprintln!(
                "warning: trace artifact {} not written: {e}",
                path.display()
            ),
        }
    }

    /// Close the report inside a `report_build` span: seed-averaged
    /// slowdown rows and `mean_slowdown` first, then the engine's own
    /// scalars, then `incomplete_flows` and the profiling spans.
    fn finish(mut self, engine_scalars: impl FnOnce(&mut RunReport)) -> RunReport {
        let ph_report = self.prof.phase("report_build");
        let span = self.prof.begin();
        let report = &mut self.report;
        if !self.runs.is_empty() {
            report.slowdowns = average_slowdowns(&self.runs);
            if let Some(m) = report.mean_slowdown() {
                report.put_scalar("mean_slowdown", m);
            }
        }
        engine_scalars(report);
        // `incomplete_flows`: emitted whenever the scenario injects faults
        // (so fault runs always carry it, even at 0) or whenever flows
        // actually failed to finish — and skipped otherwise, keeping clean
        // reports byte-identical.
        let incomplete: usize = report.unfinished.iter().sum();
        if self.sc.has_faults() || incomplete > 0 {
            report.put_scalar("incomplete_flows", incomplete as f64);
        }
        self.prof.end(ph_report, span);
        // `span_<phase>_{ns,calls}`: wall-clock readings are
        // non-deterministic, so nothing is exported unless the profiler was
        // actually enabled (`FNCC_PROFILE`).
        if self.prof.is_enabled() {
            for (name, calls, total_ns) in self.prof.spans() {
                report.put_scalar(format!("span_{name}_ns"), total_ns as f64);
                report.put_scalar(format!("span_{name}_calls"), calls as f64);
            }
        }
        self.report
    }
}

/// Fault-run scalars, summed across seeds. Emitted only when the scenario
/// injects faults, so fault-free reports stay byte-identical with
/// pre-fault-injection builds.
#[derive(Default)]
struct FaultTally {
    drops: u64,
    retx: u64,
    rtos: u64,
    rerouted: u64,
}

impl FaultTally {
    fn add(&mut self, t: &Telemetry) {
        self.drops += t.counters.fault_drops;
        self.retx += t.counters.retx;
        self.rtos += t.counters.rtos;
        self.rerouted += t.rerouted_flows();
    }

    fn put(&self, report: &mut RunReport, sc: &Scenario) {
        if sc.has_faults() {
            report.put_scalar("fault_drops", self.drops as f64);
            report.put_scalar("retx_count", self.retx as f64);
            report.put_scalar("rto_count", self.rtos as f64);
            report.put_scalar("rerouted_flows", self.rerouted as f64);
        }
    }
}

/// Water-filler work accounting, summed across seeds (the warm-start
/// effectiveness story in one glance: incremental share and the mean
/// residual `rate_updates / reallocations`).
#[derive(Default)]
struct SolverTally {
    full: u64,
    incremental: u64,
    rate_updates: u64,
}

impl SolverTally {
    fn add(&mut self, r: &FluidResult) {
        self.full += r.full_solves;
        self.incremental += r.incremental_solves;
        self.rate_updates += r.rate_updates;
    }

    fn put(&self, report: &mut RunReport) {
        report.put_scalar("full_solves", self.full as f64);
        report.put_scalar("incremental_solves", self.incremental as f64);
        report.put_scalar("rate_updates", self.rate_updates as f64);
    }
}

/// `int_truncations`, summed across seeds: INT records dropped because a
/// frame's stack was full. Emitted only when nonzero, like
/// `incomplete_flows` on a fault-free run: no path a scenario file can
/// describe is deeper than `MAX_HOPS`, so clean reports stay
/// byte-identical with builds that did not count truncations.
fn put_int_truncations(report: &mut RunReport, n: u64) {
    if n > 0 {
        report.put_scalar("int_truncations", n as f64);
    }
}

/// A histogram's `<name>_{count,mean,p50,p99,max}` scalars, or none when
/// it is empty. Reports build their histograms on the first seed only.
fn put_histogram(report: &mut RunReport, name: &str, h: &Histogram) {
    if h.count() == 0 {
        return;
    }
    report.put_scalar(format!("{name}_count"), h.count() as f64);
    report.put_scalar(format!("{name}_mean"), h.mean());
    report.put_scalar(format!("{name}_p50"), h.percentile(50.0) as f64);
    report.put_scalar(format!("{name}_p99"), h.percentile(99.0) as f64);
    report.put_scalar(format!("{name}_max"), h.max() as f64);
}

/// The `fct_us` histogram: the FCT in µs of every finished flow among
/// `records`.
fn fct_us_histogram(records: impl Iterator<Item = FlowRecord>) -> Histogram {
    let mut h = Histogram::new();
    for fct in records.filter_map(|r| r.fct()) {
        h.record_f64(fct.as_secs_f64() * 1e6);
    }
    h
}

/// Engine-health scalars: every scenario run doubles as a perf probe.
/// `events_per_sec` is wall-clock derived and therefore the one
/// non-deterministic report field (the determinism suite strips it).
fn put_event_rate(report: &mut RunReport, wall_start: Instant) {
    let wall = wall_start.elapsed().as_secs_f64();
    report.put_scalar("events_processed", report.events as f64);
    if wall > 0.0 {
        report.put_scalar("events_per_sec", report.events as f64 / wall);
    }
}

/// The rate model a scenario's fluid half runs under: the scenario's
/// calibration, else the paper defaults.
fn rate_model(sc: &Scenario) -> RateModel {
    match &sc.overrides.calibration {
        Some(cal) => RateModel::from_calibration(sc.cc, cal),
        None => RateModel::paper_default(sc.cc),
    }
}

/// The packet half of one seed of `sc`: `flows` on `topo` under the
/// scheme and its overrides (LHCS, INT refresh), the seed, the faults and
/// the loss recovery they arm, and the trace flag. The packet backend adds
/// its queue kind and probes; the hybrid backend hands it to
/// [`HybridSim::new`] as the foreground, so both honour the same overrides.
fn seed_builder(
    sc: &Scenario,
    topo: Topology,
    flows: Vec<FlowSpec>,
    seed: u64,
    trace: bool,
) -> SimBuilder {
    let line = sc.link.bandwidth();
    // Window normalisation must use the frame sizes the fabric will
    // actually run with, not hardcoded 1518/70 — otherwise an MTU
    // override would leave the CC's RTT constant inconsistent with the
    // simulated wire.
    let frames = FabricConfig::paper_default();
    let base_rtt = topo.base_rtt(frames.mtu, frames.ack_base);
    let algo = if sc.cc == CcKind::Fncc && sc.overrides.disable_lhcs {
        CcAlgo::Fncc(FnccConfig::without_lhcs(line, base_rtt))
    } else {
        make_algo(sc.cc, line, base_rtt)
    };
    SimBuilder::with_algo(topo, algo)
        .fabric(|f| {
            f.seed = seed;
            if sc.cc == CcKind::Fncc {
                f.int_refresh = sc.overrides.int_refresh();
            }
            f.faults = sc.faults.clone();
        })
        // Loss recovery only when the scenario injects faults: lossless
        // runs stay free of retransmission-timer events, so their event
        // counts and goldens are byte-identical.
        .recovery(sc.has_faults().then(RecoveryConfig::paper_default))
        .flows(flows)
        .trace(trace)
}

/// Which simulation engine runs a scenario.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SimBackend {
    /// Packet-level discrete-event simulation (paper-faithful).
    #[default]
    Packet,
    /// Flow-level fluid model (fast path for large scales).
    Fluid,
    /// Fluid↔packet co-simulation: foreground flows at packet fidelity,
    /// background in the fluid model (needs a scenario `foreground` block).
    Hybrid,
}

impl SimBackend {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            SimBackend::Packet => "packet",
            SimBackend::Fluid => "fluid",
            SimBackend::Hybrid => "hybrid",
        }
    }

    /// Resolve to the engine implementation.
    pub fn resolve(self) -> Box<dyn Backend> {
        match self {
            SimBackend::Packet => Box::new(PacketBackend::default()),
            SimBackend::Fluid => Box::new(FluidBackend),
            SimBackend::Hybrid => Box::new(HybridBackend),
        }
    }
}

impl FromStr for SimBackend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "packet" | "des" => Ok(SimBackend::Packet),
            "fluid" | "flow" => Ok(SimBackend::Fluid),
            "hybrid" | "cosim" => Ok(SimBackend::Hybrid),
            other => Err(format!("unknown backend '{other}' (packet|fluid|hybrid)")),
        }
    }
}

impl core::fmt::Display for SimBackend {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// Run `scenario` on the chosen engine.
pub fn run_scenario(scenario: &Scenario, backend: SimBackend) -> RunReport {
    backend.resolve().run(scenario)
}

/// Run `scenario` on the chosen engine with an explicit trace destination.
pub fn run_scenario_traced(
    scenario: &Scenario,
    backend: SimBackend,
    trace_out: Option<&Path>,
) -> RunReport {
    backend.resolve().run_traced(scenario, trace_out)
}

// ----------------------------------------------------------------------
// Packet backend
// ----------------------------------------------------------------------

/// The packet-level discrete-event engine: one [`ShardedSim`] per seed,
/// a single replica at `threads: 0` and pod shards on `threads` workers
/// otherwise. Reports are byte-identical either way — `threads ≥ 1` only
/// adds its `shards`/`epochs`/`cross_shard_frames`/`causality_violations`/
/// `lookahead_ns` scalars.
#[derive(Default)]
pub struct PacketBackend {
    /// Event queue of every engine the backend builds. The default, and the
    /// only kind a CLI flag, the environment or a scenario file can reach,
    /// is the timing wheel; `tests/des_determinism.rs` passes the heap
    /// oracle to hold the two to identical reports.
    pub queue: QueueKind,
}

impl Backend for PacketBackend {
    fn name(&self) -> &'static str {
        "packet"
    }

    /// Build each seed's `(topology, flows)` instance, run the DES under
    /// the scenario's probes and stop condition, and aggregate: slowdown
    /// rows (drain runs) are averaged across seeds, events and unfinished
    /// counts summed, time series and traffic-specific scalars taken from
    /// the first seed.
    fn run_traced(&self, sc: &Scenario, trace_out: Option<&Path>) -> RunReport {
        let mut rb = ReportBuilder::new(sc, self.name(), trace_out);
        let mut peak_queue_len = 0usize;
        let mut clamped = 0u64;
        let mut faults = FaultTally::default();
        let mut int_truncations = 0u64;
        let mut shard_stats: Option<ShardStats> = None;
        let wall_start = Instant::now();

        for (seed_ix, &seed) in sc.seeds.iter().enumerate() {
            let (topo, flows) = sc.instance(seed);
            let cp = if sc.probes.congestion_point {
                sc.congestion_point(&topo)
            } else {
                None
            };
            let horizon = rb.horizon(&flows);
            // The report's series, in report order and under their report
            // names; each probe already records in the report's unit.
            let mut probes: Vec<(Probe, String)> = Vec::new();
            if let Some((sw, port)) = cp {
                probes.push((Probe::Queue { sw, port }, "queue_kb".into()));
                probes.push((Probe::Util { sw, port }, "util".into()));
            }
            for (i, f) in flows.iter().take(sc.probes.flow_rates as usize).enumerate() {
                let (flow, host) = (FlowId(i as u32), f.src);
                probes.push((Probe::FlowRate { flow, host }, format!("flow{i}")));
            }
            for (i, f) in flows.iter().take(sc.probes.cc_rates as usize).enumerate() {
                let (flow, host) = (FlowId(i as u32), f.src);
                probes.push((Probe::CcRate { flow, host }, format!("cc{i}")));
            }

            // One builder for every replica of the run: identical probes
            // and fabric knobs everywhere is what keeps reports
            // byte-identical across thread counts.
            let mut builder =
                seed_builder(sc, topo, flows.clone(), seed, rb.tracing(seed_ix)).queue(self.queue);
            if sc.probes.sample_ns > 0 {
                builder = builder.sample(TimeDelta::from_ns(sc.probes.sample_ns), horizon);
            }
            for (probe, name) in &probes {
                builder = builder.watch(*probe, name.clone());
            }

            let mut run = ShardedSim::new(builder, sc.threads as usize);
            match sc.stop {
                StopCondition::Horizon { .. } => run.run_until(horizon),
                StopCondition::Drain { .. } => {
                    run.run_to_completion(TimeDelta::from_ms(1), horizon);
                }
            }
            if sc.threads >= 1 {
                // Epochs, frames and violations sum across seeds; the
                // partition shape is per-topology and therefore identical
                // in every seed.
                let st = run.stats();
                let agg = shard_stats.get_or_insert(ShardStats {
                    epochs: 0,
                    cross_shard_frames: 0,
                    causality_violations: 0,
                    ..st
                });
                agg.epochs += st.epochs;
                agg.cross_shard_frames += st.cross_shard_frames;
                agg.causality_violations += st.causality_violations;
            }
            run.harvest();

            let telem = run.telemetry();
            assert_eq!(telem.flow_count(), flows.len(), "a flow went unreported");
            rb.unfinished(telem.flow_records().copied());
            rb.report.events += run.events_processed();
            peak_queue_len = peak_queue_len.max(run.peak_queue_len());
            clamped += run.clamped_schedules();
            faults.add(telem);
            int_truncations += telem.counters.int_truncations;
            if matches!(sc.stop, StopCondition::Drain { .. }) {
                rb.slowdowns(
                    run.topo(),
                    telem.flow_records().copied(),
                    Framing::from(run.cfg()),
                );
            }
            if seed_ix == 0 {
                // By name, not by position: pod shards concatenate their
                // watch lists in shard order.
                let watched = probes.iter().filter_map(|(_, name)| telem.series(name));
                rb.report.series.extend(watched.cloned());
                extract_scalars(&mut rb.report, sc, &run, cp, &flows);
                // The `queue_kb` series records `bytes / 1024`, exact in
                // binary, so it gives back every sampled depth.
                let queue_kb = telem.series("queue_kb").map_or(&[][..], TimeSeries::values);
                let mut depth = Histogram::new();
                queue_kb.iter().for_each(|kb| depth.record_f64(kb * 1024.0));
                put_histogram(&mut rb.report, "queue_depth_bytes", &depth);
                let fct_us = fct_us_histogram(telem.flow_records().copied());
                put_histogram(&mut rb.report, "fct_us", &fct_us);
                let (fresh, rec) = run.pool_stats();
                if fresh + rec > 0 {
                    let hit_rate = rec as f64 / (fresh + rec) as f64;
                    rb.report.put_scalar("pool_hit_rate", hit_rate);
                }
                if let Some(cascades) = run.wheel_cascades() {
                    for (lvl, n) in cascades.iter().enumerate() {
                        rb.report
                            .put_scalar(format!("wheel_cascades_l{lvl}"), *n as f64);
                    }
                }
            }
            rb.recorder(seed_ix, seed, &telem.rec);
        }

        rb.finish(|report| {
            put_event_rate(report, wall_start);
            report.put_scalar("peak_queue_len", peak_queue_len as f64);
            report.put_scalar("clamped_schedules", clamped as f64);
            // Sharding bookkeeping (`threads ≥ 1` only, so one-replica
            // reports do not carry it).
            if let Some(st) = shard_stats {
                report.put_scalar("shards", st.shards as f64);
                report.put_scalar("epochs", st.epochs as f64);
                report.put_scalar("cross_shard_frames", st.cross_shard_frames as f64);
                report.put_scalar("causality_violations", st.causality_violations as f64);
                report.put_scalar("lookahead_ns", st.lookahead_ns as f64);
                if let Some(code) = st.fallback {
                    report.put_scalar("shard_fallback", code as f64);
                }
            }
            faults.put(report, sc);
            put_int_truncations(report, int_truncations);
        })
    }
}

/// Traffic-aware scalar extraction (first seed): reaction/convergence and
/// queue statistics for elephants, Jain indices for the staircase.
fn extract_scalars(
    report: &mut RunReport,
    sc: &Scenario,
    run: &ShardedSim,
    cp: Option<(SwitchId, u8)>,
    flows: &[FlowSpec],
) {
    let telem = run.telemetry();
    let horizon = sc.stop.sizing_horizon();
    let line_gbps = sc.link.bandwidth().as_gbps_f64();

    // Congestion-point statistics.
    let after = match &sc.traffic {
        TrafficSpec::Elephants { join_at_us } => SimTime::from_us(*join_at_us),
        _ => SimTime::ZERO,
    };
    let queue_stats = report
        .series("queue_kb")
        .map(|q| (q.max(), q.mean_in(after, horizon)));
    if let Some((peak, mean)) = queue_stats {
        report.put_scalar("peak_queue_kb", peak);
        report.put_scalar("mean_queue_kb", mean);
    }
    let util_mean = report.series("util").map(|u| u.mean_in(after, horizon));
    if let Some(m) = util_mean {
        report.put_scalar("mean_util", m);
    }
    if let Some((sw, _)) = cp {
        // PFC pauses emitted on the congested switch's host-facing ports.
        let pauses: u64 = run.topo().switches[sw.ix()]
            .ports
            .iter()
            .enumerate()
            .filter(|(_, p)| matches!(p.peer, NodeRef::Host(_)))
            .map(|(p, _)| run.pause_frames_at(sw, p as u8))
            .sum();
        report.put_scalar("pause_frames", pauses as f64);
    }

    match &sc.traffic {
        TrafficSpec::Elephants { join_at_us } => {
            let join = SimTime::from_us(*join_at_us);
            let n_senders = run.topo().n_hosts - 1;
            // Reaction: the first time flow 0's *control* rate falls clearly
            // below its pre-join steady level (HPCC/FNCC idle at η·line, so
            // an absolute line-rate threshold would trip on steady jitter).
            let mut reaction = None;
            let mut fair_conv = None;
            if let Some(cc0) = report.series("cc0") {
                let pre_join = cc0
                    .mean_in(join - TimeDelta::from_us(20), join)
                    .max(0.5 * line_gbps);
                reaction = reaction_time(cc0, join, 0.85 * pre_join).map(|t| t.as_us_f64());
                let refs: Vec<&TimeSeries> = (0..n_senders)
                    .filter_map(|i| report.series(&format!("cc{i}")))
                    .collect();
                if refs.len() == n_senders as usize {
                    let fair = line_gbps / n_senders as f64;
                    fair_conv = time_to_fair(&refs, fair, 0.15, TimeDelta::from_us(20), join)
                        .map(|t| t.as_us_f64());
                }
            }
            if let Some(t) = reaction {
                report.put_scalar("reaction_us", t);
            }
            if let Some(t) = fair_conv {
                report.put_scalar("fair_convergence_us", t);
            }
            // INT freshness per hop (Fig. 2/12) and LHCS trigger count.
            // Hops without samples are compacted out, so the scalar index
            // is dense — consumers may stop at the first missing index.
            let c = &telem.counters;
            let ages: Vec<f64> = (0..c.int_age_hops())
                .filter_map(|h| c.mean_int_age(h).map(|a| a * 1e6))
                .collect();
            for (i, age) in ages.into_iter().enumerate() {
                report.put_scalar(format!("int_age_us_hop{i}"), age);
            }
            let triggers: u64 = flows
                .iter()
                .map(|f| run.host(f.src).lhcs_triggers(f.id).unwrap_or(0))
                .sum();
            report.put_scalar("lhcs_triggers", triggers as f64);
        }
        TrafficSpec::Staircase { interval_us } => {
            let interval = TimeDelta::from_us(*interval_us);
            let n = run.topo().n_hosts - 1;
            // Jain index at each period midpoint over flows active then.
            let mut jain: Vec<f64> = Vec::new();
            {
                let rates: Vec<Option<&TimeSeries>> =
                    (0..n).map(|i| report.series(&format!("flow{i}"))).collect();
                for p in 0..(2 * n).saturating_sub(1) {
                    let mid = SimTime::ZERO + interval * p as u64 + interval / 2;
                    let active: Vec<f64> = (0..n)
                        .filter(|&i| i <= p && p < n + i)
                        .filter_map(|i| rates[i as usize])
                        .map(|s| s.mean_in(mid - interval / 4, mid + interval / 4))
                        .collect();
                    if !active.is_empty() {
                        jain.push(fncc_des::stats::jain_index(&active));
                    }
                }
            }
            let min = jain.iter().copied().fold(1.0, f64::min);
            for (p, j) in jain.into_iter().enumerate() {
                report.put_scalar(format!("jain_p{p}"), j);
            }
            report.put_scalar("jain_min", min);
            report.put_scalar(
                "all_finished",
                if telem.all_flows_finished() { 1.0 } else { 0.0 },
            );
        }
        TrafficSpec::Incast { .. }
        | TrafficSpec::Poisson { .. }
        | TrafficSpec::MiceBehindElephants { .. } => {}
    }
}

// ----------------------------------------------------------------------
// Fluid backend
// ----------------------------------------------------------------------

/// The flow-level fluid fast path.
///
/// Every scheme runs under [`RateModel::paper_default`] unless the
/// scenario carries a measured set (from `fncc-repro calibrate`) in
/// [`crate::scenario::CcOverrides::calibration`].
#[derive(Clone, Copy, Debug, Default)]
pub struct FluidBackend;

impl Backend for FluidBackend {
    fn name(&self) -> &'static str {
        "fluid"
    }

    /// Run every seed's instance through the water-filling allocator under
    /// the scheme's [`RateModel`]. The fluid engine always drains all flows
    /// (a [`StopCondition::Horizon`] is ignored beyond elephant sizing) and
    /// produces no time series — slowdown rows and scalar metrics only.
    fn run_traced(&self, sc: &Scenario, trace_out: Option<&Path>) -> RunReport {
        let mut rb = ReportBuilder::new(sc, self.name(), trace_out);
        // Same provenance as the packet engine's frame parameters, so the
        // two backends share one queue-delay RTT by construction.
        let framing = Framing::from(&FabricConfig::paper_default());
        let mut peak_active = 0usize;
        let mut horizon = SimTime::ZERO;
        let mut solver = SolverTally::default();
        let mut rerouted = 0u64;
        for (seed_ix, &seed) in sc.seeds.iter().enumerate() {
            let (topo, flows) = sc.instance(seed);
            let result = FluidSim::new(topo.clone(), rate_model(sc))
                .framing(framing)
                .flows(flows)
                .faults(&sc.faults)
                .trace(rb.tracing(seed_ix))
                .run()
                .unwrap_or_else(|e| panic!("fluid backend on '{}': {e}", sc.name));
            rerouted += result.rerouted_flows;
            rb.unfinished(result.records());
            rb.slowdowns(&topo, result.records(), framing);
            rb.report.events += result.reallocations();
            peak_active = peak_active.max(result.peak_active);
            horizon = horizon.max(result.horizon);
            solver.add(&result);
            if seed_ix == 0 {
                let fct_us = fct_us_histogram(result.records());
                put_histogram(&mut rb.report, "fct_us", &fct_us);
                put_histogram(&mut rb.report, "resolve_set_size", &result.resolve_set_size);
            }
            rb.recorder(seed_ix, seed, &result.rec);
        }
        rb.finish(|report| {
            report.put_scalar("peak_active", peak_active as f64);
            report.put_scalar("horizon_us", horizon.as_us_f64());
            solver.put(report);
            if sc.has_faults() {
                report.put_scalar("rerouted_flows", rerouted as f64);
            }
        })
    }
}

// ----------------------------------------------------------------------
// Hybrid backend
// ----------------------------------------------------------------------

/// The fluid↔packet co-simulation engine.
///
/// The scenario's [`crate::scenario::ForegroundSpec`] decides which flows
/// run inside the packet DES (incast victims, mice, probed flows); the
/// rest — typically the fleet-scale elephant background — drain through
/// the incremental water-filling fluid model. The two halves exchange
/// state at every fluid event boundary: the background's standing queue
/// lands on the DES ports as a shadow backlog that foreground congestion
/// control senses through its native signals, and measured foreground
/// throughput feeds back as per-link demand reservations. The foreground
/// is built like the packet backend's run, so it honours every CC
/// override; the background's calibration resolves as [`FluidBackend`]'s.
#[derive(Clone, Copy, Debug, Default)]
pub struct HybridBackend;

impl Backend for HybridBackend {
    fn name(&self) -> &'static str {
        "hybrid"
    }

    /// Partition each seed's flows by the scenario's foreground spec, run
    /// the coupled engines, and merge both halves' flow records into one
    /// slowdown table (the rows are directly comparable with a pure-DES
    /// run of the same scenario). Coupling statistics land as scalars.
    fn run_traced(&self, sc: &Scenario, trace_out: Option<&Path>) -> RunReport {
        let fg_spec = sc.foreground.as_ref().unwrap_or_else(|| {
            panic!(
                "hybrid backend on '{}': scenario has no 'foreground' block — \
                 declare which flows run at packet fidelity (see DESIGN.md \
                 §Hybrid co-simulation)",
                sc.name
            )
        });
        let mut rb = ReportBuilder::new(sc, self.name(), trace_out);
        let framing = Framing::from(&FabricConfig::paper_default());
        let mut syncs = 0u64;
        let mut reservations = 0u64;
        let mut backlog_pushes = 0u64;
        let mut peak_bg_active = 0usize;
        let mut n_fg_flows = 0usize;
        let mut n_bg_flows = 0usize;
        let mut solver = SolverTally::default();
        let mut faults = FaultTally::default();
        let mut int_truncations = 0u64;
        let wall_start = Instant::now();

        for (seed_ix, &seed) in sc.seeds.iter().enumerate() {
            let (topo, flows) = sc.instance(seed);
            let horizon = rb.horizon(&flows);
            let n_flows = flows.len();
            let (fg_flows, bg_flows) = fg_spec.partition(flows);
            if seed_ix == 0 {
                n_fg_flows = fg_flows.len();
                n_bg_flows = bg_flows.len();
            }
            let fg = seed_builder(sc, topo.clone(), fg_flows, seed, rb.tracing(seed_ix));
            let mut sim = HybridSim::new(fg, bg_flows, rate_model(sc))
                .unwrap_or_else(|e| panic!("hybrid backend on '{}': {e}", sc.name));
            let outcome = match sc.stop {
                StopCondition::Horizon { .. } => sim.run_until(horizon).map(|_| true),
                StopCondition::Drain { .. } => {
                    sim.run_to_completion(TimeDelta::from_ms(1), horizon)
                }
            };
            outcome.unwrap_or_else(|e| panic!("hybrid backend on '{}': {e}", sc.name));

            let result = sim.into_result();
            let reported = result.fg.flow_count() + result.bg.flow_count();
            assert_eq!(reported, n_flows, "a flow went unreported");
            // Slowdown buckets span both halves, or hybrid rows would not
            // be comparable to pure-DES.
            rb.unfinished(result.records());
            rb.slowdowns(&topo, result.records(), framing);
            rb.report.events += result.fg_events + result.bg.reallocations();
            syncs += result.syncs;
            reservations += result.reservations;
            backlog_pushes += result.backlog_pushes;
            peak_bg_active = peak_bg_active.max(result.peak_bg_active);
            faults.add(&result.fg);
            faults.rerouted += result.bg.rerouted_flows;
            int_truncations += result.fg.counters.int_truncations;
            solver.add(&result.bg);
            if seed_ix == 0 {
                // The foreground's flows only: the background's FCTs are
                // fluid estimates, not packet-level measurements.
                let fct_us = fct_us_histogram(result.fg.flow_records().copied());
                put_histogram(&mut rb.report, "fct_us", &fct_us);
            }
            rb.recorder(seed_ix, seed, &result.fg.rec);
        }

        rb.finish(|report| {
            report.put_scalar("foreground_flows", n_fg_flows as f64);
            report.put_scalar("background_flows", n_bg_flows as f64);
            report.put_scalar("hybrid_syncs", syncs as f64);
            report.put_scalar("hybrid_reservations", reservations as f64);
            report.put_scalar("hybrid_backlog_pushes", backlog_pushes as f64);
            report.put_scalar("peak_bg_active", peak_bg_active as f64);
            faults.put(report, sc);
            put_int_truncations(report, int_truncations);
            solver.put(report);
            put_event_rate(report, wall_start);
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Workload;
    use crate::scenarios::fattree_workload;
    use fncc_cc::CcKind;

    /// The §5.5 preset on a k = 4 fat-tree at 30 % load.
    fn small_hadoop(flows: u32, seeds: Vec<u64>) -> Scenario {
        let mut sc = fattree_workload(CcKind::Fncc, Workload::FbHadoop);
        sc.topology = crate::scenario::TopologySpec::FatTree { k: 4 };
        sc.traffic = TrafficSpec::Poisson {
            workload: Workload::FbHadoop,
            load: 0.3,
            flows,
        };
        sc.seeds = seeds;
        sc
    }

    #[test]
    fn backend_parse_roundtrip() {
        let parse = |s: &str| s.parse::<SimBackend>().ok();
        assert_eq!(parse("packet"), Some(SimBackend::Packet));
        assert_eq!(parse("des"), Some(SimBackend::Packet));
        assert_eq!(parse("fluid"), Some(SimBackend::Fluid));
        assert_eq!(parse("flow"), Some(SimBackend::Fluid));
        assert_eq!(parse("hybrid"), Some(SimBackend::Hybrid));
        assert_eq!(parse("cosim"), Some(SimBackend::Hybrid));
        assert_eq!(parse("quantum"), None);
        assert_eq!(SimBackend::default(), SimBackend::Packet);
        assert_eq!(format!("{}", SimBackend::Fluid), "fluid");
    }

    #[test]
    fn backend_parse_is_case_insensitive() {
        assert_eq!("Packet".parse(), Ok(SimBackend::Packet));
        assert_eq!("FLUID".parse(), Ok(SimBackend::Fluid));
        assert_eq!("DES".parse(), Ok(SimBackend::Packet));
        assert!("".parse::<SimBackend>().is_err());
        assert_eq!(SimBackend::Packet.resolve().name(), "packet");
        assert_eq!(SimBackend::Fluid.resolve().name(), "fluid");
        assert_eq!("Hybrid".parse(), Ok(SimBackend::Hybrid));
        assert_eq!(SimBackend::Hybrid.resolve().name(), "hybrid");
    }

    #[test]
    fn fluid_workload_completes_and_buckets_all_flows() {
        let r = run_scenario(&small_hadoop(200, vec![1, 2]), SimBackend::Fluid);
        assert_eq!(r.unfinished, vec![0, 0]);
        let total: usize = r.slowdowns.iter().map(|b| b.count).sum();
        assert_eq!(total, 400);
        for b in &r.slowdowns {
            if b.count > 0 {
                assert!(b.avg >= 1.0, "slowdown below 1 in {}", b.label);
                assert!(b.p99 >= b.p50);
            }
        }
    }

    /// Two 2 MB elephants in the fluid background and six 20 KB mice at
    /// packet fidelity behind them, on a dumbbell.
    fn mice_behind_elephants_hybrid(name: &str) -> Scenario {
        use crate::scenario::{ForegroundSpec, PartitionRule, TopologySpec};
        let mut sc = Scenario::new(
            name,
            TopologySpec::Dumbbell {
                senders: 4,
                switches: 3,
            },
            TrafficSpec::MiceBehindElephants {
                elephants: 2,
                elephant_size: 2_000_000,
                mice: 6,
                mouse_size: 20_000,
                warmup_us: 30,
                gap_us: 10,
            },
            CcKind::Fncc,
        );
        sc.foreground = Some(ForegroundSpec {
            rules: vec![PartitionRule::SizeBelow { bytes: 1_000_000 }],
        });
        sc
    }

    #[test]
    fn hybrid_backend_runs_a_partitioned_scenario() {
        let sc = mice_behind_elephants_hybrid("hybrid-smoke");
        sc.validate().unwrap();
        let r = run_scenario(&sc, SimBackend::Hybrid);
        assert_eq!(r.backend, "hybrid");
        assert_eq!(r.unfinished, vec![0]);
        // Slowdown rows cover the union of both halves (2 + 6 flows).
        let total: usize = r.slowdowns.iter().map(|b| b.count).sum();
        assert_eq!(total, 8);
        assert_eq!(r.scalar("foreground_flows"), Some(6.0));
        assert_eq!(r.scalar("background_flows"), Some(2.0));
        assert!(r.scalar("hybrid_syncs").unwrap_or(0.0) > 0.0);
        assert!(r.scalar("hybrid_backlog_pushes").unwrap_or(0.0) > 0.0);
    }

    /// A hybrid report's `fct_us_*` describe the foreground's finished
    /// flows: not the background's, and not the foreground flows a horizon
    /// cut short.
    #[test]
    fn hybrid_fct_histogram_counts_finished_foreground_flows() {
        let mut sc = mice_behind_elephants_hybrid("hybrid-fct");
        let drained = run_scenario(&sc, SimBackend::Hybrid);
        assert_eq!(drained.unfinished, vec![0]);
        assert_eq!(
            drained.scalar("fct_us_count"),
            Some(6.0),
            "8 flows, 6 of them mice"
        );
        assert_eq!(
            drained.scalar("fct_us_count"),
            drained.scalar("foreground_flows")
        );
        // At 70 µs the elephants and the last mice are still running.
        sc.stop = StopCondition::Horizon { us: 70 };
        let cut = run_scenario(&sc, SimBackend::Hybrid);
        let finished = cut.scalar("fct_us_count").unwrap();
        assert!((1.0..6.0).contains(&finished), "{finished} mice finished");
        assert_eq!(finished as usize + cut.unfinished[0], 8);
    }

    /// The hybrid foreground runs FNCC under the scenario's overrides, as
    /// the packet backend does: live `All_INT_Table` reads and a disabled
    /// LHCS each change what an incast's packet half simulates. The hybrid
    /// used to build its foreground with the paper defaults and ignore both.
    #[test]
    fn hybrid_backend_honours_cc_overrides() {
        use crate::scenario::{ForegroundSpec, PartitionRule, TopologySpec};
        let cell = |size: u64| {
            let mut sc = Scenario::new(
                "hybrid-overrides",
                TopologySpec::FatTree { k: 4 },
                TrafficSpec::Incast {
                    receiver: 0,
                    fan_in: 8,
                    size,
                    waves: 2,
                    gap_us: 30,
                },
                CcKind::Fncc,
            );
            sc.stop = StopCondition::Drain { cap_ms: 50 };
            sc.seeds = vec![5];
            sc.foreground = Some(ForegroundSpec {
                rules: vec![PartitionRule::FirstFlows { n: 8 }],
            });
            sc
        };
        let events = |sc: &Scenario| {
            let r = run_scenario(sc, SimBackend::Hybrid);
            assert_eq!(r.unfinished, vec![0]);
            r.events
        };
        let sc = cell(100_000);
        let mut live = sc.clone();
        live.overrides.int_refresh_us = 0;
        assert_ne!(events(&live), events(&sc), "int_refresh_us ignored");
        // 100 KB fits in the initial window, so LHCS only acts on larger
        // flows.
        let sc = cell(500_000);
        let mut no_lhcs = sc.clone();
        no_lhcs.overrides.disable_lhcs = true;
        assert_ne!(events(&no_lhcs), events(&sc), "disable_lhcs ignored");
    }

    #[test]
    fn packet_backend_recovers_from_random_loss() {
        use crate::scenario::{FaultSpec, StopCondition, TopologySpec};
        let mut sc = Scenario::new(
            "loss-smoke",
            TopologySpec::Dumbbell {
                senders: 2,
                switches: 3,
            },
            TrafficSpec::Incast {
                receiver: 2,
                fan_in: 2,
                size: 200_000,
                waves: 1,
                gap_us: 0,
            },
            CcKind::Fncc,
        );
        sc.stop = StopCondition::Drain { cap_ms: 50 };
        sc.faults = vec![FaultSpec::RandomLoss {
            switch: 0,
            port: 2,
            from_us: 0,
            to_us: 5_000,
            probability: 0.02,
        }];
        sc.validate().unwrap();
        let r = run_scenario(&sc, SimBackend::Packet);
        // Go-back-N recovers every flow despite the injected loss, and the
        // fault scalars land in the report.
        assert_eq!(r.scalar("incomplete_flows"), Some(0.0));
        assert_eq!(r.unfinished, vec![0]);
        assert!(r.scalar("fault_drops").unwrap_or(0.0) > 0.0);
        assert!(r.scalar("retx_count").unwrap_or(0.0) > 0.0);
        assert!(r.scalar("rto_count").unwrap_or(0.0) > 0.0);
        assert_eq!(r.scalar("rerouted_flows"), Some(0.0)); // no ECMP detour on a dumbbell
    }

    #[test]
    fn fluid_backend_reroutes_on_linkflap() {
        use crate::scenario::{FaultSpec, TopologySpec};
        let mut sc = Scenario::new(
            "fluid-flap-smoke",
            TopologySpec::FatTree { k: 4 },
            TrafficSpec::Incast {
                receiver: 15,
                fan_in: 4,
                size: 2_000_000,
                waves: 1,
                gap_us: 0,
            },
            CcKind::Fncc,
        );
        sc.faults = vec![
            FaultSpec::LinkDown {
                switch: 0,
                port: 2,
                at_us: 100,
            },
            FaultSpec::LinkUp {
                switch: 0,
                port: 2,
                at_us: 400,
            },
        ];
        sc.validate().unwrap();
        let r = run_scenario(&sc, SimBackend::Fluid);
        assert_eq!(r.scalar("incomplete_flows"), Some(0.0));
        assert_eq!(r.unfinished, vec![0]);
        assert!(
            r.scalar("rerouted_flows").unwrap_or(0.0) >= 1.0,
            "a ToR-uplink flap must detour at least one incast sender"
        );
    }

    #[test]
    fn hybrid_backend_completes_under_linkflap() {
        use crate::scenario::FaultSpec;
        let mut sc = mice_behind_elephants_hybrid("hybrid-flap-smoke");
        sc.stop = StopCondition::Drain { cap_ms: 50 };
        // Flap the dumbbell bottleneck: the packet half recovers by RTO
        // retransmission, the fluid half parks its elephants until link-up.
        sc.faults = vec![
            FaultSpec::LinkDown {
                switch: 0,
                port: 4,
                at_us: 50,
            },
            FaultSpec::LinkUp {
                switch: 0,
                port: 4,
                at_us: 250,
            },
        ];
        sc.validate().unwrap();
        let r = run_scenario(&sc, SimBackend::Hybrid);
        assert_eq!(r.scalar("incomplete_flows"), Some(0.0));
        assert_eq!(r.unfinished, vec![0]);
        assert!(r.scalar("fault_drops").unwrap_or(0.0) > 0.0);
        assert!(r.scalar("rto_count").unwrap_or(0.0) > 0.0);
    }

    #[test]
    fn fault_free_reports_carry_no_fault_scalars() {
        use crate::scenario::{StopCondition, TopologySpec};
        let mut sc = Scenario::new(
            "clean-smoke",
            TopologySpec::Dumbbell {
                senders: 2,
                switches: 3,
            },
            TrafficSpec::Incast {
                receiver: 2,
                fan_in: 2,
                size: 100_000,
                waves: 1,
                gap_us: 0,
            },
            CcKind::Fncc,
        );
        sc.stop = StopCondition::Drain { cap_ms: 50 };
        let r = run_scenario(&sc, SimBackend::Packet);
        assert_eq!(r.unfinished, vec![0]);
        for key in [
            "incomplete_flows",
            "fault_drops",
            "retx_count",
            "rto_count",
            "rerouted_flows",
        ] {
            assert_eq!(r.scalar(key), None, "unexpected scalar {key}");
        }
    }

    #[test]
    fn histogram_scalars() {
        let mut report = RunReport::new("h", "packet", "fncc");
        let mut h = Histogram::new();
        h.record(10);
        h.record(20);
        put_histogram(&mut report, "lat", &h);
        let names: Vec<&str> = report.scalars.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            ["lat_count", "lat_mean", "lat_p50", "lat_p99", "lat_max"]
        );
        assert_eq!(report.scalar("lat_count"), Some(2.0));
        assert_eq!(report.scalar("lat_mean"), Some(15.0));
        assert_eq!(report.scalar("lat_max"), Some(20.0));
    }

    #[test]
    fn empty_histograms_export_nothing() {
        let mut report = RunReport::new("h", "packet", "fncc");
        put_histogram(&mut report, "never_fed", &Histogram::new());
        assert!(report.scalars.is_empty());
    }

    #[test]
    fn both_backends_run_the_same_spec() {
        let sc = small_hadoop(40, vec![1]);
        let p = run_scenario(&sc, SimBackend::Packet);
        let f = run_scenario(&sc, SimBackend::Fluid);
        assert_eq!(p.unfinished, vec![0]);
        assert_eq!(f.unfinished, vec![0]);
        // Identical flow populations land in identical buckets.
        let counts = |r: &RunReport| r.slowdowns.iter().map(|b| b.count).collect::<Vec<_>>();
        assert_eq!(counts(&p), counts(&f));
        // The fluid engine does orders of magnitude less work.
        assert!(
            f.events * 100 < p.events,
            "fluid {} vs packet {}",
            f.events,
            p.events
        );
    }
}
