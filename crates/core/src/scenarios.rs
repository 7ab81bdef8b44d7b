//! The paper's experiments as library functions.
//!
//! Each function builds the declarative [`Scenario`] of the corresponding
//! evaluation section, executes it through the unified
//! [`crate::backend::Backend`] path (packet DES by default), and reshapes
//! the [`RunReport`] into the rich result type the figure code plots. The
//! `fncc-experiments` binary's figure and scorecard code are thin wrappers
//! over these — or over [`crate::backend::run_scenario`] directly.

use crate::backend::{Backend, PacketBackend};
use crate::metrics::SlowdownStats;
use crate::report::RunReport;
use crate::scenario::{
    CcOverrides, LinkSpec, ProbeSpec, Scenario, StopCondition, TopologySpec, TrafficSpec,
};
use fncc_cc::CcKind;
use fncc_des::stats::TimeSeries;
use fncc_des::time::TimeDelta;
use fncc_net::units::Bandwidth;

pub use crate::scenario::Workload;

/// Parameters of the §5.1/§5.2 elephant-flow microbenchmark (Figs. 1, 3, 9).
#[derive(Clone, Debug)]
pub struct MicrobenchSpec {
    /// Congestion-control scheme under test.
    pub cc: CcKind,
    /// Link rate in Gb/s (the paper sweeps 100/200/400).
    pub line_gbps: u64,
    /// Number of senders at the first switch (2 in §5.1).
    pub n_senders: u32,
    /// When the second elephant joins (300 µs).
    pub join_at_us: u64,
    /// Simulation horizon (1200 µs covers Fig. 9's x-axis).
    pub horizon_us: u64,
    /// Telemetry sampling period in nanoseconds.
    pub sample_ns: u64,
    /// Disable LHCS (the Fig. 13 "FNCC without LHCS" ablation).
    pub disable_lhcs: bool,
    /// FNCC's `All_INT_Table` refresh period (None = live reads; the
    /// default 1 µs snapshot is what Fig. 8's management module does and
    /// also de-noises the sender's rate estimates — see `DESIGN.md`).
    /// Ignored for non-FNCC schemes.
    pub int_refresh: Option<TimeDelta>,
    /// Seed for the fabric's stochastic components.
    pub seed: u64,
}

impl Default for MicrobenchSpec {
    fn default() -> Self {
        MicrobenchSpec {
            cc: CcKind::Fncc,
            line_gbps: 100,
            n_senders: 2,
            join_at_us: 300,
            horizon_us: 1200,
            sample_ns: 1000,
            disable_lhcs: false,
            int_refresh: Some(TimeDelta::from_us(1)),
            seed: 1,
        }
    }
}

impl MicrobenchSpec {
    fn line(&self) -> Bandwidth {
        Bandwidth::gbps(self.line_gbps)
    }

    fn overrides(&self) -> CcOverrides {
        CcOverrides {
            disable_lhcs: self.disable_lhcs,
            // Ceiling to whole µs: a sub-µs refresh must not truncate to 0,
            // which the scenario encoding reserves for "live reads".
            int_refresh_us: self
                .int_refresh
                .map(|d| d.as_ps().div_ceil(1_000_000))
                .unwrap_or(0),
            calibration: None,
        }
    }

    /// The declarative form of the elephant dumbbell this spec describes.
    pub fn scenario(&self) -> Scenario {
        Scenario {
            name: format!("elephant-dumbbell-{}", self.cc.name()),
            topology: TopologySpec::Dumbbell {
                senders: self.n_senders,
                switches: 3,
            },
            link: LinkSpec {
                gbps: self.line_gbps,
                prop_ns: 1500,
            },
            traffic: TrafficSpec::Elephants {
                join_at_us: self.join_at_us,
            },
            cc: self.cc,
            overrides: self.overrides(),
            probes: ProbeSpec::micro(self.sample_ns, self.n_senders),
            foreground: None,
            faults: Vec::new(),
            stop: StopCondition::Horizon {
                us: self.horizon_us,
            },
            seeds: vec![self.seed],
            threads: 0,
        }
    }

    /// The declarative form of the Fig. 11 hop-location study at `loc`.
    pub fn scenario_at(&self, loc: HopLocation) -> Scenario {
        Scenario {
            name: format!("hop-{}-{}", loc.name(), self.cc.name()),
            topology: TopologySpec::Line {
                switches: 3,
                attach: vec![0, loc.attach() as u32],
            },
            traffic: TrafficSpec::Elephants {
                join_at_us: self.join_at_us,
            },
            probes: ProbeSpec {
                sample_ns: self.sample_ns,
                congestion_point: true,
                flow_rates: 2,
                cc_rates: 0,
                trace: false,
            },
            ..self.scenario()
        }
    }
}

/// Output of the elephant-dumbbell microbenchmark.
#[derive(Clone, Debug)]
pub struct ElephantResult {
    /// Scheme.
    pub cc: CcKind,
    /// Link rate.
    pub line: Bandwidth,
    /// Bottleneck egress queue depth over time, in KB (Figs. 1b–d, 9a/c/e).
    pub queue_kb: TimeSeries,
    /// Bottleneck link utilization over time (Figs. 9g–h).
    pub util: TimeSeries,
    /// Per-sender flow rates over time, in Gb/s (Figs. 9b/d/f).
    pub flow_rates_gbps: Vec<TimeSeries>,
    /// Per-sender CC pacing rates (the control variable), in Gb/s — used
    /// for reaction/convergence timing, free of goodput sampling noise.
    pub cc_rates_gbps: Vec<TimeSeries>,
    /// PFC pause frames emitted at the congestion point (Fig. 3).
    pub pause_frames: u64,
    /// First time flow 0 slowed below 90% line rate after the join (µs).
    pub reaction_us: Option<f64>,
    /// First sustained convergence of all senders to the fair rate (µs).
    pub fair_convergence_us: Option<f64>,
    /// Mean INT staleness per hop seen by senders (µs) — Fig. 2/12 measure.
    pub mean_int_age_us: Vec<f64>,
    /// Peak queue depth in KB.
    pub peak_queue_kb: f64,
    /// Mean utilization after the join.
    pub mean_util_after_join: f64,
    /// Engine events processed (performance accounting).
    pub events: u64,
}

/// Pull a renamed copy of the canonical `prefix{i}` series out of a report.
fn renamed_series(
    report: &RunReport,
    prefix: &str,
    n: u32,
    rename: impl Fn(u32) -> String,
) -> Vec<TimeSeries> {
    (0..n)
        .filter_map(|i| report.series(&format!("{prefix}{i}")))
        .enumerate()
        .map(|(i, s)| {
            let mut s = s.clone();
            s.name = rename(i as u32);
            s
        })
        .collect()
}

impl ElephantResult {
    /// Reshape the unified report into the microbenchmark result.
    fn from_report(spec: &MicrobenchSpec, report: &RunReport) -> ElephantResult {
        let cc = spec.cc;
        let mean_int_age_us: Vec<f64> = (0..)
            .map(|h| report.scalar(&format!("int_age_us_hop{h}")))
            .take_while(Option::is_some)
            .flatten()
            .collect();
        ElephantResult {
            cc,
            line: spec.line(),
            queue_kb: report.series("queue_kb").cloned().unwrap_or_default(),
            util: report.series("util").cloned().unwrap_or_default(),
            flow_rates_gbps: renamed_series(report, "flow", spec.n_senders, |i| {
                format!("{}-flow{}", cc.name(), i)
            }),
            cc_rates_gbps: renamed_series(report, "cc", spec.n_senders, |i| {
                format!("{}-cc{}", cc.name(), i)
            }),
            pause_frames: report.scalar("pause_frames").unwrap_or(0.0) as u64,
            reaction_us: report.scalar("reaction_us"),
            fair_convergence_us: report.scalar("fair_convergence_us"),
            mean_int_age_us,
            peak_queue_kb: report.scalar("peak_queue_kb").unwrap_or(0.0),
            mean_util_after_join: report.scalar("mean_util").unwrap_or(0.0),
            events: report.events,
        }
    }
}

/// §5.1/§5.2: the dumbbell of Fig. 10 (M = 3 switches). Flow 0 starts at
/// t = 0 at line rate; flow 1 joins at `join_at_us`. Returns the series of
/// Figs. 1b–d, 3 and 9. Runs through the unified `Scenario` → packet
/// backend path.
pub fn elephant_dumbbell(spec: &MicrobenchSpec) -> ElephantResult {
    let report = PacketBackend::default().run(&spec.scenario());
    ElephantResult::from_report(spec, &report)
}

/// Where the two flows of Fig. 11 merge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HopLocation {
    /// Both senders at switch 0 (the dumbbell itself).
    First,
    /// Second sender joins at the middle switch.
    Middle,
    /// Second sender joins at the last switch.
    Last,
}

impl HopLocation {
    /// Attachment switch of sender 1 in a 3-switch line.
    fn attach(self) -> usize {
        match self {
            HopLocation::First => 0,
            HopLocation::Middle => 1,
            HopLocation::Last => 2,
        }
    }

    /// Label used in reports.
    pub fn name(self) -> &'static str {
        match self {
            HopLocation::First => "first",
            HopLocation::Middle => "middle",
            HopLocation::Last => "last",
        }
    }
}

/// Output of the §5.4 hop-location study (Fig. 13a–d).
#[derive(Clone, Debug)]
pub struct HopCongestionResult {
    /// Scheme.
    pub cc: CcKind,
    /// Congestion location.
    pub location: HopLocation,
    /// LHCS active?
    pub lhcs: bool,
    /// Congested-port queue depth (KB).
    pub queue_kb: TimeSeries,
    /// Congested-port utilization.
    pub util: TimeSeries,
    /// Sender flow rates (Gb/s).
    pub flow_rates_gbps: Vec<TimeSeries>,
    /// Peak queue depth (KB) — the Fig. 13 reduction metric.
    pub peak_queue_kb: f64,
    /// Mean queue depth after the join (KB).
    pub mean_queue_kb: f64,
    /// Mean utilization after the join.
    pub mean_util: f64,
    /// Total LHCS trigger count across senders.
    pub lhcs_triggers: u64,
}

/// §5.4: congestion in the first/middle/last hop (Fig. 11 topologies, 100 G).
/// Flow 0 runs from switch 0; flow 1 joins at `spec.join_at_us` attached at
/// the congestion switch.
pub fn hop_congestion(loc: HopLocation, spec: &MicrobenchSpec) -> HopCongestionResult {
    let report = PacketBackend::default().run(&spec.scenario_at(loc));
    HopCongestionResult {
        cc: spec.cc,
        location: loc,
        lhcs: spec.cc == CcKind::Fncc && !spec.disable_lhcs,
        queue_kb: report.series("queue_kb").cloned().unwrap_or_default(),
        util: report.series("util").cloned().unwrap_or_default(),
        flow_rates_gbps: renamed_series(&report, "flow", 2, |i| format!("flow{i}")),
        peak_queue_kb: report.scalar("peak_queue_kb").unwrap_or(0.0),
        mean_queue_kb: report.scalar("mean_queue_kb").unwrap_or(0.0),
        mean_util: report.scalar("mean_util").unwrap_or(0.0),
        lhcs_triggers: report.scalar("lhcs_triggers").unwrap_or(0.0) as u64,
    }
}

/// Output of the §5.3 fairness staircase (Fig. 13e).
#[derive(Clone, Debug)]
pub struct FairnessResult {
    /// Scheme.
    pub cc: CcKind,
    /// Per-flow rate series (Gb/s).
    pub flow_rates_gbps: Vec<TimeSeries>,
    /// Jain fairness index sampled at each join/leave period midpoint.
    pub jain_per_period: Vec<f64>,
    /// All flows drained (their fair-share-sized payloads completed).
    pub all_finished: bool,
}

/// The declarative form of the §5.3 staircase.
pub fn staircase_scenario(cc: CcKind, n: u32, interval: TimeDelta, seed: u64) -> Scenario {
    let interval_us = interval.as_ps() / 1_000_000;
    let horizon_us = interval_us * (2 * n as u64) + 200;
    let sample_ns = (interval_us * 1000 / 200).max(1000);
    Scenario {
        name: format!("fairness-staircase-{}", cc.name()),
        topology: TopologySpec::Dumbbell {
            senders: n,
            switches: 3,
        },
        link: LinkSpec::default(),
        traffic: TrafficSpec::Staircase { interval_us },
        cc,
        overrides: CcOverrides::default(),
        probes: ProbeSpec {
            sample_ns,
            congestion_point: false,
            flow_rates: n,
            cc_rates: 0,
            trace: false,
        },
        foreground: None,
        faults: Vec::new(),
        stop: StopCondition::Horizon { us: horizon_us },
        seeds: vec![seed],
        threads: 0,
    }
}

/// §5.3: `n` senders join a shared 100 G bottleneck one `interval` apart and
/// leave in join order (Fig. 13e; the paper uses 100 ms intervals — pass a
/// compressed interval for cheap runs; the dynamics are interval-invariant).
pub fn fairness_staircase(cc: CcKind, n: u32, interval: TimeDelta, seed: u64) -> FairnessResult {
    let report = PacketBackend::default().run(&staircase_scenario(cc, n, interval, seed));
    let jain_per_period: Vec<f64> = (0..)
        .map(|p| report.scalar(&format!("jain_p{p}")))
        .take_while(Option::is_some)
        .flatten()
        .collect();
    FairnessResult {
        cc,
        flow_rates_gbps: renamed_series(&report, "flow", n, |i| format!("flow{i}")),
        jain_per_period,
        all_finished: report.scalar("all_finished") == Some(1.0),
    }
}

/// Parameters of the §5.5 large-scale runs (Figs. 14–15).
#[derive(Clone, Debug)]
pub struct WorkloadSpec {
    /// Scheme.
    pub cc: CcKind,
    /// Trace.
    pub workload: Workload,
    /// Average host-link load (the paper: 0.5).
    pub load: f64,
    /// Flows per seed.
    pub n_flows: u32,
    /// Seeds (the paper averages 5 repetitions).
    pub seeds: Vec<u64>,
    /// Fat-tree parameter k (the paper: 8 → 128 hosts).
    pub k: u32,
    /// Link rate in Gb/s.
    pub line_gbps: u64,
}

impl WorkloadSpec {
    /// A right-sized default: k=8, 50% load, 400 flows × 2 seeds.
    pub fn new(cc: CcKind, workload: Workload) -> Self {
        WorkloadSpec {
            cc,
            workload,
            load: 0.5,
            n_flows: 400,
            seeds: vec![1, 2],
            k: 8,
            line_gbps: 100,
        }
    }

    /// The declarative form of the §5.5 fat-tree workload run.
    pub fn scenario(&self) -> Scenario {
        Scenario {
            name: format!(
                "fattree-{}-{}",
                self.workload.name().to_ascii_lowercase(),
                self.cc.name()
            ),
            topology: TopologySpec::FatTree { k: self.k },
            link: LinkSpec {
                gbps: self.line_gbps,
                prop_ns: 1500,
            },
            traffic: TrafficSpec::Poisson {
                workload: self.workload,
                load: self.load,
                flows: self.n_flows,
            },
            cc: self.cc,
            overrides: CcOverrides::default(),
            probes: ProbeSpec::default(),
            foreground: None,
            faults: Vec::new(),
            stop: StopCondition::Drain { cap_ms: 200 },
            seeds: self.seeds.clone(),
            threads: 0,
        }
    }
}

/// Output of one §5.5 configuration.
#[derive(Clone, Debug)]
pub struct WorkloadResult {
    /// Scheme.
    pub cc: CcKind,
    /// Trace.
    pub workload: Workload,
    /// Slowdown rows averaged across seeds (Fig. 14/15 y-values).
    pub rows: Vec<SlowdownStats>,
    /// Flows that failed to finish per seed (must be 0).
    pub unfinished: Vec<usize>,
    /// Total engine events across seeds.
    pub events: u64,
}

impl WorkloadResult {
    /// Reshape the unified report into the workload result.
    pub fn from_report(spec: &WorkloadSpec, report: &RunReport) -> WorkloadResult {
        WorkloadResult {
            cc: spec.cc,
            workload: spec.workload,
            rows: report.slowdowns.clone(),
            unfinished: report.unfinished.clone(),
            events: report.events,
        }
    }
}

/// §5.5: Poisson arrivals from the chosen trace on a k-ary fat-tree with
/// symmetric ECMP; reports FCT-slowdown statistics per flow-size bucket.
pub fn fattree_workload(spec: &WorkloadSpec) -> WorkloadResult {
    let report = PacketBackend::default().run(&spec.scenario());
    WorkloadResult::from_report(spec, &report)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Small, fast variant of the microbenchmark for unit tests.
    fn quick(cc: CcKind) -> MicrobenchSpec {
        MicrobenchSpec {
            cc,
            horizon_us: 500,
            join_at_us: 150,
            sample_ns: 2000,
            ..Default::default()
        }
    }

    #[test]
    fn elephant_fncc_reacts_and_keeps_queue_shallow() {
        let r = elephant_dumbbell(&quick(CcKind::Fncc));
        assert!(r.reaction_us.is_some(), "FNCC never reacted");
        assert!(r.peak_queue_kb > 0.0);
        assert!(r.peak_queue_kb < 500.0, "peak {}KB", r.peak_queue_kb);
        assert!(
            r.mean_util_after_join > 0.7,
            "util {}",
            r.mean_util_after_join
        );
        assert!(!r.mean_int_age_us.is_empty());
    }

    #[test]
    fn elephant_fncc_reacts_before_hpcc_with_shallower_queue() {
        let f = elephant_dumbbell(&quick(CcKind::Fncc));
        let h = elephant_dumbbell(&quick(CcKind::Hpcc));
        let (fr, hr) = (f.reaction_us.unwrap(), h.reaction_us.unwrap());
        assert!(fr <= hr, "FNCC {fr}us vs HPCC {hr}us");
        assert!(
            f.peak_queue_kb <= h.peak_queue_kb * 1.05,
            "queues F{} H{}",
            f.peak_queue_kb,
            h.peak_queue_kb
        );
        // FNCC's INT (via ACK) must be fresher than HPCC's on the first hop.
        assert!(
            f.mean_int_age_us[0] < h.mean_int_age_us[0],
            "INT age F{:?} H{:?}",
            f.mean_int_age_us,
            h.mean_int_age_us
        );
    }

    #[test]
    fn hop_congestion_runs_at_all_locations() {
        for loc in [HopLocation::First, HopLocation::Middle, HopLocation::Last] {
            let r = hop_congestion(loc, &quick(CcKind::Fncc));
            assert!(r.peak_queue_kb > 0.0, "{loc:?} saw no queue");
            assert!(r.mean_util > 0.5, "{loc:?} util {}", r.mean_util);
        }
    }

    #[test]
    fn lhcs_fires_only_at_last_hop() {
        let last = hop_congestion(HopLocation::Last, &quick(CcKind::Fncc));
        assert!(last.lhcs_triggers > 0, "LHCS silent at last hop");
        let first = hop_congestion(HopLocation::First, &quick(CcKind::Fncc));
        assert_eq!(first.lhcs_triggers, 0, "LHCS fired at first hop");
        let mut spec = quick(CcKind::Fncc);
        spec.disable_lhcs = true;
        let disabled = hop_congestion(HopLocation::Last, &spec);
        assert_eq!(disabled.lhcs_triggers, 0);
        assert!(!disabled.lhcs);
    }

    #[test]
    fn fairness_staircase_converges() {
        let r = fairness_staircase(CcKind::Fncc, 3, TimeDelta::from_us(400), 1);
        assert_eq!(r.flow_rates_gbps.len(), 3);
        assert!(!r.jain_per_period.is_empty());
        // Single-flow periods are trivially fair; shared periods should be
        // reasonably fair too.
        let min_jain = r.jain_per_period.iter().copied().fold(1.0, f64::min);
        assert!(min_jain > 0.6, "Jain {min_jain} ({:?})", r.jain_per_period);
    }

    #[test]
    fn tiny_fattree_workload_completes() {
        let spec = WorkloadSpec {
            cc: CcKind::Fncc,
            workload: Workload::FbHadoop,
            load: 0.3,
            n_flows: 60,
            seeds: vec![1],
            k: 4,
            line_gbps: 100,
        };
        let r = fattree_workload(&spec);
        assert_eq!(r.unfinished, vec![0], "flows left unfinished");
        let total: usize = r.rows.iter().map(|b| b.count).sum();
        assert_eq!(total, 60);
        for b in &r.rows {
            if b.count > 0 {
                assert!(b.avg >= 1.0, "slowdown below 1 in {}", b.label);
                assert!(b.p99 >= b.p50);
            }
        }
    }

    #[test]
    fn microbench_scenario_is_faithful() {
        let spec = quick(CcKind::Fncc);
        let sc = spec.scenario();
        let (topo, flows) = sc.instance(1);
        assert_eq!(topo.n_hosts, 3);
        assert_eq!(flows.len(), 2);
        // 100 Gb/s × 500 µs × 1.5 / 8 = 9.375 MB elephants.
        assert_eq!(flows[0].size, 9_375_000);
        // Live-read override maps to 0 and back to None.
        let mut live = quick(CcKind::Fncc);
        live.int_refresh = None;
        assert_eq!(live.scenario().overrides.int_refresh_us, 0);
        assert_eq!(live.scenario().overrides.int_refresh(), None);
        // A sub-µs refresh must not truncate to the live-reads encoding.
        let mut fine = quick(CcKind::Fncc);
        fine.int_refresh = Some(TimeDelta::from_ns(500));
        assert_eq!(fine.scenario().overrides.int_refresh_us, 1);
    }
}
